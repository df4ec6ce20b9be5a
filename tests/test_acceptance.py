"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or check
captured output) and then asserts, so the verdicts are both human
readable and enforced.  Criterion 8 checks the small-scale finding at
n=9 against a dense reference walk built in this file: the paper's
parameter rule lands on the first rotation peak, 4.77x the 1/6
baseline, and 5x is first reached at t2=5, in the second rotation.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import scipy.stats

from johnson_walk import (
    MarkedSet, ReducedBasis, algorithm_rotation, apply_phase_flip,
    apply_walk_step, build_walk_matrix,
    choose_parameters, circular_phase_gap, eigendecompose_unitary,
    embed_to_full, find_marked, make_family, oracle_queries, prepare_s,
    reduced_s, run_algorithm, run_reduced, table1,
    up_eigenphases, optimize_m, walk_spectrum,
)
from johnson_walk.full_sim import get_context
from johnson_walk.verify import reflection_cases
from reference import flip_w


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_full_reduced_equivalence():
    """50 alternating W / P applications, embedded deviation <= 1e-9, < 5 s."""
    start = time.time()
    inst = make_family("element-distinctness", n=9, seed=1)
    marked = find_marked(inst)[0]
    basis = ReducedBasis(9, 4, 2)
    w = build_walk_matrix(basis)

    full = prepare_s(inst, 4)
    rows = np.flatnonzero(full.ctx.marked_row_mask([marked]))
    red = reduced_s(basis).astype(float)
    worst = 0.0
    for t in range(1, 51):
        if t % 2 == 1:
            apply_walk_step(full, inst)
            red = w @ red
        else:
            apply_phase_flip(full.amps, rows)
            red = flip_w(red, basis)
        emb = embed_to_full(red, basis, marked, full.ctx)
        worst = max(worst, float(np.max(np.abs(emb - full.amps))))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert verdict(1, ok, f"max deviation {worst:.3e} over 50 steps, "
                          f"{elapsed:.2f} s")


def test_criterion_2_walk_spectrum_exactness():
    """3-cycle anchor to 1e-12; closed form to 1e-9 on the grid."""
    anchor = walk_spectrum(3, 1, 1)
    anchor_ok = (
        abs(anchor.theta[0] - 2.0 * math.pi / 3.0) <= 1e-12
        and abs(math.sin(anchor.theta[0] / 2.0) - math.sqrt(3.0) / 2.0) <= 1e-12)
    worst = 0.0
    for n in (50, 200, 1000):
        for l in (1, 2, 3):
            m = choose_parameters(n, l).m
            worst = max(worst, walk_spectrum(n, m, l).closed_form_residual)
    ok = anchor_ok and worst <= 1e-9
    assert verdict(2, ok, f"anchor exact, grid residual {worst:.3e}")


def test_criterion_3_rotation_angle():
    """theta_+-/(2<w|s>) in [0.95, 1.05]; eigenvector fidelity bound."""
    details = []
    ok = True
    for n, l, m in ((10 ** 4, 2, 464), (10 ** 5, 1, 316)):
        rep = algorithm_rotation(n, m, l)
        bound = 1.0 - 10.0 * rep.error_scale
        here = (0.95 <= rep.ratio_plus <= 1.05
                and 0.95 <= rep.ratio_minus <= 1.05
                and rep.eigvec_fidelity >= bound)
        ok = ok and here
        details.append(f"(n={n}, l={l}): ratio {rep.ratio_plus:.4f}, "
                       f"fidelity {rep.eigvec_fidelity:.4f} >= {bound:.4f}")
    assert verdict(3, ok, "; ".join(details))


def test_criterion_4_final_overlap():
    """Reduced-engine overlaps at the decade sweep, monotone within 0.02."""
    start = time.time()
    overlaps = {}
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        p = choose_parameters(n, 2)
        t0 = time.time()
        overlaps[n] = run_reduced(ReducedBasis(n, p.m, 2), p.t1, p.t2).overlap_w
        assert time.time() - t0 < 1.0
    seq = [overlaps[n] for n in sorted(overlaps)]
    monotone = all(b >= a - 0.02 for a, b in zip(seq, seq[1:]))
    ok = overlaps[10 ** 6] >= 0.97 and overlaps[10 ** 4] >= 0.80 and monotone
    assert verdict(4, ok, f"overlaps {[f'{v:.4f}' for v in seq]}, "
                          f"{time.time() - start:.2f} s total")


def test_criterion_5_query_accounting():
    """Exact counter equality plus log-log slopes 2/3 and 3/4."""
    exact = True
    for n, l, seed in [(9, 2, 1), (10, 2, 4), (8, 3, 6)]:
        p = choose_parameters(n, l)
        inst = make_family("l-distinctness", n=n, l=l, seed=seed)
        rep = run_algorithm(inst, p.m, p.t1, p.t2)
        exact = exact and rep.query_count == p.m + 2 * p.t1 * p.t2

    ns = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    slopes = {}
    for l, target in ((2, 2.0 / 3.0), (3, 0.75)):
        params = [choose_parameters(n, l) for n in ns]
        qs = [oracle_queries(p.m, p.t1, p.t2) for p in params]
        slopes[l] = float(np.polyfit(np.log(ns), np.log(qs), 1)[0])
    ok = exact and abs(slopes[2] - 2.0 / 3.0) <= 0.02 \
        and abs(slopes[3] - 0.75) <= 0.02
    assert verdict(5, ok, f"counters exact: {exact}, slopes "
                          f"l=2: {slopes[2]:.4f}, l=3: {slopes[3]:.4f}")


def test_criterion_6_up_rootfinder():
    """100 random orthogonal U (d <= 16): phases and R_a to 1e-9, < 10 s."""
    start = time.time()
    rng = np.random.default_rng(2026)
    worst_phase, worst_r = 0.0, 0.0
    for _ in range(100):
        d = int(rng.integers(2, 17))
        u = scipy.stats.ortho_group.rvs(d, random_state=rng)
        if np.linalg.det(u) < 0:
            u[:, 0] *= -1
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        eig = eigendecompose_unitary(u)
        sp = up_eigenphases(eig, w)
        up = u @ (np.eye(d) - 2.0 * np.outer(w, w))
        vals, vecs = np.linalg.eig(up)
        assert len(sp.all_phases) == d
        worst_phase = max(worst_phase,
                          circular_phase_gap(sp.all_phases, np.angle(vals)))
        for theta, r in zip(sp.thetas, sp.r_a):
            i = int(np.argmin(np.abs(vals - np.exp(1j * theta))))
            direct_r = abs(np.vdot(w.astype(complex), vecs[:, i])) ** 2
            worst_r = max(worst_r, abs(r - direct_r))
    elapsed = time.time() - start
    ok = worst_phase <= 1e-9 and worst_r <= 1e-9 and elapsed < 10.0
    assert verdict(6, ok, f"worst phase gap {worst_phase:.3e}, worst R_a "
                          f"gap {worst_r:.3e}, {elapsed:.2f} s")


def test_criterion_7_cost_table():
    """Exact rationals, optimizer fits within 0.02, and 8/5 < 23/14."""
    expect = {2: (Fraction(4, 3), Fraction(1)),
              3: (Fraction(3, 2), Fraction(13, 10)),
              4: (Fraction(8, 5), Fraction(3, 2)),
              5: (Fraction(5, 3), Fraction(23, 14)),
              6: (Fraction(12, 7), Fraction(7, 4)),
              7: (Fraction(7, 4), Fraction(33, 18))}
    rows = {row.l: row for row in table1()}
    rationals = all(
        rows[l].simple_exponent == s and rows[l].recursive_exponent == r
        and rows[l].mss_exponent == Fraction(2 * (l - 1), l)
        for l, (s, r) in expect.items())

    worst = 0.0
    targets = {"simple": lambda l: Fraction(2 * l, l + 1),
               "recursive": lambda l: Fraction(5 * l - 2, 2 * l + 4),
               "mss": lambda l: Fraction(2 * (l - 1), l)}
    for l in range(2, 8):
        for variant, target in targets.items():
            res = optimize_m(10 ** 6, l, variant)
            worst = max(worst, abs(res.fitted_exponent - float(target(l))))
    mss_wins = Fraction(8, 5) < Fraction(23, 14)
    ok = rationals and worst <= 0.02 and mss_wins
    assert verdict(7, ok, f"rationals exact: {rationals}, worst fit "
                          f"deviation {worst:.4f}, 8/5 < 23/14: {mss_wins}")


def _dense_walk(n, m, marked):
    """Explicit W = S C2 S C1 and P over all (subset, coin) pairs.

    Built from the definitions alone: Grover diffusion 2|u><u| - I over
    the coins outside each m-subset and inside each (m+1)-subset, the
    shift (A, k) <-> (A u {k}, k), and a sign flip on the m-subsets that
    contain the marked set.  Returns W, P, the uniform m-side start state
    and the mask of marked pairs.
    """
    pairs = [(a, k) for a in itertools.combinations(range(n), m)
             for k in range(n) if k not in a]
    pairs += [(b, k) for b in itertools.combinations(range(n), m + 1)
              for k in b]
    index = {pair: i for i, pair in enumerate(pairs)}
    dim = len(pairs)
    coin = -np.eye(dim)
    shift = np.zeros((dim, dim))
    blocks = {}
    for i, (sub, k) in enumerate(pairs):
        blocks.setdefault(sub, []).append(i)
        shift[index[(tuple(sorted(set(sub) ^ {k})), k)], i] = 1.0
    for rows in blocks.values():
        coin[np.ix_(rows, rows)] += 2.0 / len(rows)
    # C1 and C2 act on disjoint halves of the pair space, so one matrix
    # holds both and W = (S C)(S C).
    half = shift @ coin
    on_a = np.array([len(sub) == m for sub, _ in pairs])
    hit = on_a & np.array([set(marked) <= set(sub) for sub, _ in pairs])
    return (half @ half, np.diag(np.where(hit, -1.0, 1.0)),
            on_a / math.sqrt(on_a.sum()), hit)


def test_criterion_8_small_scale_amplification():
    """n=9: the chosen t2 is the first rotation peak; 5x needs t2=5.

    The frozen success probability of the n=9, m=4, l=2
    element-distinctness run at choose_parameters(9, 2) (t1=2, t2=2) is
    0.7953860624657066, 4.77x the 1/6 baseline.  A dense reference walk
    that shares no code with the engines reproduces it.  With theta_+
    from algorithm_rotation, the chosen t2 is the strict maximum over the
    first half-turn 0 <= k <= floor(pi/theta_+), and that maximum stays
    below 5x.  5x is first reached in the second rotation, at t2=5
    (5.36x, 24 modelled queries instead of 12).  The paper's guarantees
    are asymptotic, with error term 1/m + m/n = 0.69 here; at l=2 the
    parameter rule first passes 5x at n=12, with 5.19x.
    """
    inst = make_family("element-distinctness", n=9, seed=1)
    p = choose_parameters(9, 2)
    rep = run_algorithm(inst, p.m, p.t1, p.t2)
    baseline = Fraction(math.comb(7, 2) * 5, math.comb(9, 4) * 5)
    assert abs(baseline - 1.0 / 6.0) < 1e-15
    frozen = 0.7953860624657066
    assert abs(rep.success_probability - frozen) < 1e-12

    marked = [pair for pair in itertools.combinations(range(9), 2)
              if inst.values[pair[0]] == inst.values[pair[1]]]
    assert len(marked) == 1
    walk, flip, state, hit = _dense_walk(9, p.m, marked[0])
    step = np.linalg.matrix_power(walk, p.t1) @ flip
    half_turn = int(math.pi // algorithm_rotation(9, p.m, 2).theta_plus)
    late_t2 = 5
    dense = []
    for _ in range(max(half_turn, late_t2) + 1):
        dense.append(float(np.sum(state[hit] ** 2)))
        state = step @ state
    assert abs(dense[0] - baseline) < 1e-12
    assert abs(dense[p.t2] - frozen) < 1e-12

    late = run_algorithm(inst, p.m, p.t1, late_t2)
    assert abs(late.success_probability - dense[late_t2]) < 1e-12
    assert rep.query_count == 12 and late.query_count == 24

    first_turn = dense[:half_turn + 1]
    first_peak = p.t2 <= half_turn and all(
        v < dense[p.t2] for k, v in enumerate(first_turn) if k != p.t2)
    ok = (first_peak and max(first_turn) < 5.0 * baseline
          and late_t2 > half_turn and dense[late_t2] >= 5.0 * baseline)
    assert verdict(8, ok, f"first peak t2={p.t2} of 0..{half_turn}: "
                          f"{dense[p.t2] / baseline:.2f}x baseline; "
                          f"t2={late_t2}: {dense[late_t2] / baseline:.2f}x "
                          f"({late.query_count} queries vs "
                          f"{rep.query_count})")


def test_criterion_9_reflection_suite():
    """S, C1, C2, P: involutions and norm preservation, 50 real states each.

    C1, P and C2 (as S C2 S) act on a-states, and S goes out and back
    from either side; each op is real and linear, so that covers the whole
    pair space.
    """
    rng = np.random.default_rng(0)
    ctx = get_context(7, 3)
    cases = reflection_cases(ctx, MarkedSet((0, 5)))
    worst = 0.0
    for shape, op, undo in cases.values():
        for _ in range(50):
            ref = rng.normal(size=shape)
            ref /= np.linalg.norm(ref)
            once = op(ref.copy())
            worst = max(worst, abs(float(np.linalg.norm(once)) - 1.0),
                        float(np.max(np.abs(undo(once) - ref))))
    ok = worst <= 1e-10
    assert verdict(9, ok, f"worst deviation {worst:.3e} over "
                          f"{len(cases)} operators x 50 states")
