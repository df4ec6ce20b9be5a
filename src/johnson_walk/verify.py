"""Named invariant checks behind the `verify` command.

Each check returns a pass/fail verdict with a one-line diagnostic, so
a failure names the broken invariant instead of just crashing.  The
whole suite runs at desk scale in well under a minute.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .combinat import binomial, norm_constants, rank_subset, unrank_subset
from .cost_model import choose_parameters, optimize_m, oracle_queries, table1
from .full_sim import FullState, apply_coin1, apply_coin2, apply_phase_flip, \
    apply_shift, get_context, run_algorithm
from .instances import MarkedSet, find_marked, make_family
from .reduced_sim import ReducedBasis, build_walk_matrix, embed_to_full, \
    reduced_s, run_reduced
from .spectral import algorithm_rotation, circular_phase_gap, \
    delta_decomposition, eigendecompose_unitary, up_eigenphases, walk_spectrum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def reflection_cases(ctx, marked) -> dict:
    """name -> (shape, op, its inverse) for each reflection of the walk: C1,
    P and C2 (applied as S C2 S) on a-states, S out and back from either
    side.  By linearity that covers S^2 = C1^2 = (S C2 S)^2 = P^2 = 1 on
    the whole pair space.  An op may change its input."""
    def on_a(op):
        return lambda x: op(FullState(ctx, x)).amps

    c1, flip = on_a(apply_coin1), on_a(lambda s: apply_phase_flip(s, marked))
    c2 = partial(apply_coin2, ctx)
    out, back = partial(apply_shift, ctx), partial(apply_shift, ctx, back=True)
    a, b = (ctx.num_a, ctx.n - ctx.m), (ctx.num_b, ctx.m + 1)
    return {"C1": (a, c1, c1), "P": (a, flip, flip), "C2": (a, c2, c2),
            "S from a": (a, out, back), "S from b": (b, back, out)}


def check_binomial_pascal(n_max: int = 64) -> CheckResult:
    """binomial against an additively built Pascal triangle."""
    row = [1]
    worst = 0
    for n in range(n_max + 1):
        for k, expect in enumerate(row):
            if binomial(n, k) != expect:
                worst += 1
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return CheckResult("binomial-pascal-oracle", worst == 0,
                       f"{worst} mismatches up to n={n_max}")


def check_rank_unrank() -> CheckResult:
    bad = 0
    for n, m in [(6, 3), (8, 2), (10, 4), (12, 6)]:
        for r in range(binomial(n, m)):
            if rank_subset(unrank_subset(r, m, n), n) != r:
                bad += 1
    return CheckResult("rank-unrank-bijection", bad == 0, f"{bad} broken ranks")


def check_norm_constant_sums() -> CheckResult:
    bad = []
    for n in range(4, 13):
        for m in range(1, n):
            for l in range(1, m + 1):
                nc = norm_constants(n, m, l)
                if sum(nc.c_jp.values()) != nc.c_total:
                    bad.append((n, m, l, "c"))
                if sum(nc.d_jp.values()) != nc.d_total:
                    bad.append((n, m, l, "d"))
                for j in range(l + 1):
                    if nc.d_jp[(j, 0)] != nc.c_jp[(j, 0)]:
                        bad.append((n, m, l, f"d{j}0"))
                for j in range(1, l + 1):
                    if nc.d_jp[(j, 1)] != nc.c_jp[(j - 1, 1)]:
                        bad.append((n, m, l, f"d{j}1"))
    return CheckResult("norm-constant-identities", not bad,
                       f"{len(bad)} failures" if bad else "grid clean")


def check_reflections(seed: int = 0, trials: int = 50) -> CheckResult:
    """S^2 = C1^2 = C2^2 = P^2 = 1 and norm preservation on random states."""
    rng = np.random.default_rng(seed)
    ctx = get_context(7, 3)
    worst = 0.0
    for _ in range(trials):
        for shape, op, undo in reflection_cases(ctx, MarkedSet((1, 4))).values():
            ref = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            ref /= np.linalg.norm(ref)
            once = op(ref.copy())
            worst = max(worst, abs(float(np.linalg.norm(once)) - 1.0),
                        float(np.max(np.abs(undo(once) - ref))))
    return CheckResult("reflection-involution-suite", worst <= 1e-10,
                       f"worst deviation {worst:.3e}")


def check_walk_fixes_start() -> CheckResult:
    """W |s> = |s> in the reduced picture across a small grid."""
    worst = 0.0
    for n, m, l in [(9, 4, 2), (12, 5, 2), (20, 7, 3), (30, 11, 1)]:
        basis = ReducedBasis(n, m, l)
        w = build_walk_matrix(basis)
        s = reduced_s(basis)
        worst = max(worst, float(np.max(np.abs(w @ s - s))))
    return CheckResult("walk-fixes-start-state", worst <= 1e-12,
                       f"max |W s - s| = {worst:.3e}")


def check_walk_orthogonal() -> CheckResult:
    worst = 0.0
    for n, m, l in [(9, 4, 2), (50, 14, 3), (1000, 100, 2)]:
        basis = ReducedBasis(n, m, l)
        w = build_walk_matrix(basis)
        worst = max(worst, float(np.max(np.abs(w.T @ w - np.eye(basis.dim)))))
    return CheckResult("walk-matrix-orthogonal", worst <= 1e-12,
                       f"max |W^T W - I| = {worst:.3e}")


def check_full_reduced_agreement() -> CheckResult:
    """Both engines run (W^t1 P)^t2 at n=9, m=4, l=2 and must agree."""
    inst = make_family("element-distinctness", n=9, seed=1)
    found = find_marked(inst)
    basis = ReducedBasis(9, 4, 2)
    full = run_algorithm(inst, 4, 2, 2)
    reduced = run_reduced(basis, 2, 2, found, inst.mode)
    embedded = embed_to_full(reduced.final_state, basis, found.marked)
    dev = float(np.max(np.abs(embedded.amps - full.final_state.amps)))
    return CheckResult("full-reduced-agreement", dev <= 1e-9,
                       f"max amplitude deviation {dev:.3e}")


def check_query_accounting() -> CheckResult:
    bad = []
    for family, n, l, seed in [("l-distinctness", 9, 2, 1),
                               ("l-distinctness", 10, 2, 3),
                               ("l-distinctness", 8, 3, 5),
                               ("l-clique", 8, 3, 5)]:
        p = choose_parameters(n, l)
        inst = make_family(family, n=n, l=l, seed=seed)
        rep = run_algorithm(inst, p.m, p.t1, p.t2)
        if rep.query_count != oracle_queries(p.m, p.t1, p.t2, inst.mode):
            bad.append((n, l, rep.query_count))
    return CheckResult("query-accounting-exact", not bad,
                       f"mismatches: {bad}" if bad else "all counters exact")


def check_spectrum_closed_form() -> CheckResult:
    worst = 0.0
    for n, l in itertools.product((50, 200), (1, 2, 3)):
        m = choose_parameters(n, l).m
        worst = max(worst, walk_spectrum(n, m, l).closed_form_residual)
    return CheckResult("walk-spectrum-closed-form", worst <= 1e-9,
                       f"max residual {worst:.3e}")


def check_three_cycle() -> CheckResult:
    rep = walk_spectrum(3, 1, 1)
    target = np.array([-2.0 * math.pi / 3.0, 0.0, 2.0 * math.pi / 3.0])
    dev = float(np.max(np.abs(np.sort(rep.phases) - target)))
    return CheckResult("three-cycle-anchor", dev <= 1e-12,
                       f"phase deviation {dev:.3e}")


def check_delta_decomposition() -> CheckResult:
    worst = 0.0
    for n, m, l in [(50, 14, 2), (200, 53, 3), (1000, 100, 1)]:
        rep = delta_decomposition(n, m, l)
        worst = max(worst, float(np.max(np.abs(
            np.sort_complex(rep.delta2c_eigs) - np.sort_complex(rep.delta2c_expected)))))
    return CheckResult("delta2c-eigenvalues", worst <= 1e-10,
                       f"max eigenvalue deviation {worst:.3e}")


def haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d orthogonal matrix: QR of a Gaussian matrix with
    the signs of R's diagonal moved into Q (Mezzadri, math-ph/0609050)."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def check_up_rootfinder(seed: int = 7, trials: int = 10) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(3, 17))
        u = haar_orthogonal(d, rng)
        if np.linalg.det(u) < 0:
            u[:, 0] *= -1
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        eig = eigendecompose_unitary(u, w=w)
        sp = up_eigenphases(eig, w)
        direct = np.angle(np.linalg.eigvals(
            u @ (np.eye(d) - 2.0 * np.outer(w, w))))
        mine = sp.all_phases
        if len(mine) != d:
            return CheckResult("up-rootfinder-vs-direct", False,
                               f"root count {len(mine)} != {d}")
        worst = max(worst, circular_phase_gap(mine, direct))
    return CheckResult("up-rootfinder-vs-direct", worst <= 1e-9,
                       f"worst phase gap {worst:.3e}")


def check_rotation_pair() -> CheckResult:
    rep = algorithm_rotation(10 ** 4, 464, 2)
    ok = 0.95 <= rep.ratio_plus <= 1.05 and 0.95 <= rep.ratio_minus <= 1.05 \
        and rep.eigvec_fidelity >= 1.0 - 10.0 * rep.error_scale
    return CheckResult("rotation-angle-pair", ok,
                       f"ratios ({rep.ratio_plus:.4f}, {rep.ratio_minus:.4f}), "
                       f"fidelity {rep.eigvec_fidelity:.4f}")


def check_cost_table() -> CheckResult:
    from fractions import Fraction

    expect = {2: (Fraction(4, 3), Fraction(1)), 3: (Fraction(3, 2), Fraction(13, 10)),
              4: (Fraction(8, 5), Fraction(3, 2)), 5: (Fraction(5, 3), Fraction(23, 14)),
              6: (Fraction(12, 7), Fraction(7, 4)), 7: (Fraction(7, 4), Fraction(33, 18))}
    bad = [row.l for row in table1()
           if (row.simple_exponent, row.recursive_exponent) != expect[row.l]]
    return CheckResult("cost-table-rationals", not bad,
                       f"bad rows: {bad}" if bad else "all rows exact")


def check_optimizer_fits() -> CheckResult:
    from fractions import Fraction

    worst = 0.0
    for l in (2, 3, 5):
        for variant, target in (("simple", Fraction(2 * l, l + 1)),
                                ("recursive", Fraction(5 * l - 2, 2 * l + 4)),
                                ("mss", Fraction(2 * (l - 1), l))):
            res = optimize_m(10 ** 6, l, variant)
            worst = max(worst, abs(res.fitted_exponent - float(target)))
    return CheckResult("optimizer-exponent-fits", worst <= 0.02,
                       f"worst deviation {worst:.4f}")


def check_final_overlap() -> CheckResult:
    p = choose_parameters(10 ** 6, 2)
    rep = run_reduced(ReducedBasis(10 ** 6, p.m, 2), p.t1, p.t2)
    return CheckResult("large-n-final-overlap", rep.overlap_w >= 0.97,
                       f"overlap_w = {rep.overlap_w:.6f}")


ALL_CHECKS = (
    check_binomial_pascal,
    check_rank_unrank,
    check_norm_constant_sums,
    check_reflections,
    check_walk_orthogonal,
    check_walk_fixes_start,
    check_full_reduced_agreement,
    check_query_accounting,
    check_three_cycle,
    check_spectrum_closed_form,
    check_delta_decomposition,
    check_up_rootfinder,
    check_rotation_pair,
    check_cost_table,
    check_optimizer_fits,
    check_final_overlap,
)


def run_all():
    """Run every named check."""
    return [check() for check in ALL_CHECKS]
