"""Named invariant checks behind the `verify` command.

Each check returns a pass/fail verdict with a one-line diagnostic, so
a failure names the broken invariant instead of just crashing.  Each
reads code a run executes; all run at desk scale in well under a minute.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .combinat import norm_constants
from .cost_model import choose_parameters, optimize_m, oracle_queries, table1
from .full_sim import FullState, WalkContext, apply_coin1, apply_coin2, \
    apply_phase_flip, apply_shift, binomial_upto, get_context, run_algorithm
from .instances import MarkedSet, make_family
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
    P and C2 (as S C2 S) on real a-states, S out and back from either side.
    Each is real and linear, so real probes cover S^2 = C1^2 = (S C2 S)^2 =
    P^2 = 1 on the whole pair space.  An op may change its input."""
    def on_a(op):
        return lambda x: op(FullState(ctx, x)).amps

    rows = np.flatnonzero(ctx.marked_row_mask([marked]))
    c1, flip = on_a(apply_coin1), on_a(lambda s: apply_phase_flip(s, rows))
    c2 = partial(apply_coin2, ctx)
    out, back = partial(apply_shift, ctx), partial(apply_shift, ctx, back=True)
    a, b = (ctx.num_a, ctx.n - ctx.m), (ctx.num_b, ctx.m + 1)
    return {"C1": (a, c1, c1), "P": (a, flip, flip), "C2": (a, c2, c2),
            "S from a": (a, out, back), "S from b": (b, back, out)}


def check_binomial_pascal() -> CheckResult:
    """binomial_upto, the byte cap's count, against an additively built
    Pascal triangle: C(n, k) at a limit of C(n, k), None one below it."""
    row = [1]
    worst = 0
    for n in range(65):
        for k, expect in enumerate(row):
            if binomial_upto(n, k, expect) != expect \
                    or binomial_upto(n, k, expect - 1) is not None:
                worst += 1
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return CheckResult("binomial-pascal-oracle", worst == 0,
                       f"{worst} mismatches up to n=64")


def check_rank_unrank() -> CheckResult:
    """WalkContext's tables, built afresh (the cached one stays): each
    subset strictly increasing, of colex rank sum_i C(a_i, i+1) equal to
    its row, and each union_rank that of the subset plus the slot's coin."""
    bad = 0
    for n, m in [(6, 3), (8, 2), (10, 4), (12, 6)]:
        ctx = WalkContext(n, m)
        comb = np.array([[math.comb(c, i + 1) for i in range(m + 1)]
                         for c in range(n)])  # comb[c, i] = C(c, i+1)
        a = ctx.subsets_a.astype(np.intp)
        bad += int(np.sum((np.diff(a) <= 0).any(axis=1) | (
            comb[a, np.arange(m)].sum(axis=1) != np.arange(ctx.num_a))))
        outside = np.ones((ctx.num_a, n), bool)
        np.put_along_axis(outside, a, False, axis=1)
        # the coins: the elements outside, which a stable sort puts last
        coins = np.argsort(outside, axis=1, kind="stable")[:, m:, None]
        union = np.sort(np.dstack((np.repeat(a[:, None], n - m, 1), coins)))
        rank = comb[union, np.arange(m + 1)].sum(axis=2)
        bad += int(np.sum(rank != ctx.union_rank))
    return CheckResult("rank-unrank-bijection", bad == 0, f"{bad} broken ranks")


def check_norm_constant_sums() -> CheckResult:
    """The weights w_{j,p} sum to their total, and cross-multiply to the
    coins' weights: w_{j,0} (l-j) = w_{j,1} (n-m-l+j) and
    w_{j,0} j = w_{j-1,1} (m+1-j)."""
    bad = []
    for n in range(4, 13):
        for m in range(1, n):
            for l in range(1, m + 1):
                w, total = norm_constants(n, m, l)
                if sum(w.values()) != total:
                    bad.append((n, m, l, "sum"))
                for j in range(l):
                    if w[(j, 0)] * (l - j) != w[(j, 1)] * (n - m - l + j):
                        bad.append((n, m, l, f"coin1 j={j}"))
                for j in range(1, l + 1):
                    if w[(j, 0)] * j != w[(j - 1, 1)] * (m + 1 - j):
                        bad.append((n, m, l, f"coin2 j={j}"))
    return CheckResult("norm-constant-identities", not bad,
                       f"{len(bad)} failures" if bad else "grid clean")


def gaussian(rng: random.Random, *shape) -> np.ndarray:
    """Standard normal draws of the given shape from one rng.randbytes
    call: 53-bit uniforms in (0, 1], paired by Box-Muller, so that no
    probe needs numpy.random."""
    size = math.prod(shape)
    half = (size + 1) // 2
    bits = np.frombuffer(rng.randbytes(16 * half), "<u8") >> np.uint64(11)
    u = (bits + 1) * 2.0 ** -53
    radius, angle = np.sqrt(-2.0 * np.log(u[:half])), 2.0 * np.pi * u[half:]
    normal = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
    return normal[:size].reshape(shape)


def check_reflections() -> CheckResult:
    """S^2 = C1^2 = C2^2 = P^2 = 1, norms kept, on random real states."""
    rng = random.Random(0)
    ctx = get_context(7, 3)
    worst = 0.0
    for _ in range(50):
        for shape, op, undo in reflection_cases(ctx, MarkedSet((1, 4))).values():
            ref = gaussian(rng, *shape)
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
    for n, m, l in [(9, 4, 2), (50, 14, 3), (1000, 100, 2), (6, 5, 3),
                    (7, 6, 4)]:
        basis = ReducedBasis(n, m, l)
        w = build_walk_matrix(basis)
        worst = max(worst, float(np.max(np.abs(w.T @ w - np.eye(basis.dim)))))
    return CheckResult("walk-matrix-orthogonal", worst <= 1e-12,
                       f"max |W^T W - I| = {worst:.3e}")


def check_full_reduced_agreement() -> CheckResult:
    """Both engines run (W^t1 P)^t2 at n=9, m=4, l=2 and must agree."""
    inst = make_family("element-distinctness", n=9, seed=1)
    basis = ReducedBasis(9, 4, 2)
    fs = run_algorithm(inst, 4, 2, 2).final_state
    reduced = run_reduced(basis, 2, 2, inst.marked_sets, inst.mode)
    embedded = embed_to_full(reduced.final_state, basis, inst.marked_sets[0],
                             fs.ctx)
    dev = float(np.max(np.abs(embedded - fs.amps)))
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


def haar_orthogonal(d: int, rng: random.Random) -> np.ndarray:
    """Haar-random d x d orthogonal matrix: QR of a Gaussian matrix with
    the signs of R's diagonal moved into Q (Mezzadri, math-ph/0609050)."""
    q, r = np.linalg.qr(gaussian(rng, d, d))
    return q * np.sign(np.diag(r))


def check_up_rootfinder() -> CheckResult:
    rng = random.Random(7)
    worst = 0.0
    for _ in range(10):
        d = rng.randint(3, 16)
        u = haar_orthogonal(d, rng)
        if np.linalg.det(u) < 0:
            u[:, 0] *= -1
        w = gaussian(rng, d)
        w /= np.linalg.norm(w)
        sp = up_eigenphases(eigendecompose_unitary(u), w)
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
