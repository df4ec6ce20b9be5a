"""Reduced engine: walk matrix, start state, and full-engine agreement."""
import itertools
import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from johnson_walk import (
    ReducedBasis, WalkContext, build_walk_matrix, choose_parameters,
    coin_deltas, embed_to_full, find_marked, make_family, norm_constants,
    prepare_s, reduced_s, run_algorithm, run_reduced,
)
from johnson_walk.algorithm import run_walk
from johnson_walk.full_sim import apply_phase_flip, apply_walk_step, \
    get_context
from johnson_walk.instances import MarkedSet
from reference import colex, flip_w


# c_{2,0} / c_total at n=9, m=4, l=2: C(7, 2) 5 of the C(9, 4) 5 pairs
BASELINE_942 = float(Fraction(math.comb(7, 2) * 5, math.comb(9, 4) * 5))


def test_basis_labels_and_weights():
    b = ReducedBasis(9, 4, 2)
    assert b.dim == 5
    assert b.labels == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))
    weights, total = norm_constants(b.n, b.m, b.l)
    assert sum(weights.values()) == total == 9 * 8 * (9 - 4)
    assert b.index(2, 0) == 4
    with pytest.raises(ValueError):
        ReducedBasis(9, 4, 5)


@pytest.mark.parametrize("n, m, l", [(9, 4, 2), (6, 3, 3), (6, 5, 3),
                                     (7, 6, 4), (5, 4, 4)])
def test_basis_holds_the_nonempty_classes(n, m, l):
    """The class table against one (A, k) pair at a time.  The labels, in
    order, are the (j, p) classes that hold a legal pair: all 2l+1 at
    n - m > l, else 2(n - m).  weights / total is each class's share of
    the C(n, m) (n - m) pairs.  Each coin-1 group is the split, by class,
    of the coins outside some subset A, and each coin-2 group the split
    of the m + 1 members of some union, each group once."""
    marked = set(range(l))

    def label(a, k):
        return len(set(a) & marked), int(k in marked)

    pairs = Counter(label(a, k) for a in itertools.combinations(range(n), m)
                    for k in range(n) if k not in a)
    coin1 = {frozenset(Counter(label(a, k) for k in range(n)
                               if k not in a).items())
             for a in itertools.combinations(range(n), m)}
    coin2 = {frozenset(Counter(label(set(b) - {k}, k) for k in b).items())
             for b in itertools.combinations(range(n), m + 1)}
    basis = ReducedBasis(n, m, l)
    assert basis.labels == tuple(sorted(pairs))
    assert basis.dim == (2 * l + 1 if n - m > l else 2 * (n - m))
    pair_count = math.comb(n, m) * (n - m)
    assert [Fraction(w, basis.total) for w in basis.weights] \
        == [Fraction(pairs[x], pair_count) for x in basis.labels]
    for groups, splits in ((basis.coin1, coin1), (basis.coin2, coin2)):
        assert len(groups) == len(splits)
        assert {frozenset((basis.labels[i], c) for i, c in group)
                for group in groups} == splits
    assert basis.marked == basis.index(l, 0)


def test_three_cycle_walk_matrix():
    """n=3, m=1, l=1: W is the 3-cycle permutation of the basis."""
    b = ReducedBasis(3, 1, 1)
    w = build_walk_matrix(b)
    # |A_{0,0}> -> |A_{1,0}> -> |A_{0,1}> -> |A_{0,0}>
    cycle = np.array([[0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0],
                      [1.0, 0.0, 0.0]])
    assert np.max(np.abs(w - cycle)) < 1e-14


# the last two have n - m < l, where some (j, p) classes are empty
ORTHOGONAL_GRID = [(9, 4, 2), (50, 14, 3), (10 ** 6, 10 ** 4, 2), (30, 11, 1),
                   (100, 40, 4), (6, 5, 3), (7, 6, 4)]


def test_walk_matrix_orthogonal_grid():
    for n, m, l in ORTHOGONAL_GRID:
        b = ReducedBasis(n, m, l)
        w = build_walk_matrix(b)
        assert np.max(np.abs(w.T @ w - np.eye(b.dim))) <= 1e-12


def test_each_coin_fixes_reduced_s():
    """C1 s = s and (S C2 S) s = s, each on its own, with each coin built
    here as C + Delta, C = diag((-1)^p) from the labels."""
    for n, m, l in ORTHOGONAL_GRID:
        b = ReducedBasis(n, m, l)
        s = reduced_s(b)
        c = np.diag([(-1.0) ** p for _, p in b.labels])
        for k, delta in enumerate(coin_deltas(b), 1):
            assert np.max(np.abs((c + delta) @ s - s)) <= 1e-15, (n, m, l, k)


def exact_delta(labels, groups):
    """2vv^T - I - C on each group of ((j, p), weight) pairs, C =
    diag((-1)^p), in 40-digit decimals; members outside the labels (empty
    classes) are skipped."""
    out = [[Decimal(0)] * len(labels) for _ in labels]
    with localcontext() as ctx:
        ctx.prec = 40
        for group in groups:
            group = [(label, w) for label, w in group if label in labels]
            idx = [labels.index(label) for label, _ in group]
            weights = [Decimal(w) for _, w in group]
            t = sum(weights)
            for a, wa, (_, p) in zip(idx, weights, (x for x, _ in group)):
                for b, wb in zip(idx, weights):
                    out[a][b] = 2 * (wa * wb).sqrt() / t \
                        - (a == b) * (1 + (-1) ** p)
    return out


@pytest.mark.parametrize("n, m, l", [
    (3, 1, 1), (9, 4, 2), (4, 2, 2), (100, 40, 4), (10 ** 4, 464, 2),
    (10 ** 6, 10 ** 4, 3), (10 ** 8, 215443, 2), (10 ** 8, 10 ** 6, 3),
    (10 ** 8, 4641588, 4), (7, 6, 4)])
def test_coin_entries_within_two_ulp(n, m, l):
    """Every entry of Delta1 and Delta2 against its 40-digit value.  Coin
    1 pairs (j, 0) and (j, 1) in the ratio n-m-(l-j) : l-j; coin 2, applied
    as S C2 S, pairs (J, 0) and (J-1, 1) in the ratio m+1-J : J.  Delta is
    what the walk reads, and C + Delta is not held to 2 ulp: at (7, 6, 4)
    coin 2's diagonal entry -1/7, formed as C + Delta, is 2.3 ulp from
    its exact value, while Delta's own entry is one rounding."""
    basis = ReducedBasis(n, m, l)
    coin1 = [(((j, 0), n - m - (l - j)), ((j, 1), l - j)) for j in range(l)]
    coin2 = [(((j, 0), m + 1 - j), ((j - 1, 1), j)) for j in range(1, l + 1)]
    for k, (got, groups) in enumerate(zip(
            coin_deltas(basis), (coin1 + [(((l, 0), 1),)],
                                 coin2 + [(((0, 0), 1),)])), 1):
        exact = exact_delta(basis.labels, groups)
        for i, j in np.ndindex(got.shape):
            ulp = Decimal(math.ulp(float(exact[i][j])))
            err = abs(Decimal(got[i, j]) - exact[i][j])
            assert err <= 2 * ulp, (k, i, j, got[i, j], exact[i][j])


def test_reduced_s_values():
    b = ReducedBasis(9, 4, 2)
    s = reduced_s(b)
    assert abs(s[b.index(2, 0)] - math.sqrt(1.0 / 6.0)) < 1e-15
    assert abs(np.sum(s ** 2) - 1.0) < 1e-12


def test_walk_fixes_reduced_s():
    for n, m, l in [(9, 4, 2), (1000, 100, 2), (10 ** 6, 10 ** 4, 3)]:
        b = ReducedBasis(n, m, l)
        w = build_walk_matrix(b)
        s = reduced_s(b)
        assert np.max(np.abs(w @ s - s)) <= 1e-12


def test_phase_flip_reduced():
    b = ReducedBasis(9, 4, 2)
    s = reduced_s(b)
    flipped = flip_w(s, b)
    assert flipped[b.index(2, 0)] == -s[b.index(2, 0)]
    assert np.array_equal(flip_w(flipped, b), s)
    expect = 1.0 - 2.0 * BASELINE_942
    assert abs(float(s @ flipped) - expect) < 1e-12


def test_run_t2_zero():
    b = ReducedBasis(9, 4, 2)
    rep = run_reduced(b, 5, 0)
    assert abs(rep.overlap_w - BASELINE_942) < 1e-12
    assert rep.query_count == 4
    assert "modeled_queries" in rep.flags


@pytest.mark.parametrize("n, m, l", [(9, 4, 2), (100, 40, 4), (7, 6, 4)])
def test_matrix_form_matches_the_step_loop(n, m, l):
    """run_reduced's two matrix powers against run_walk's loop on the same
    float W with the flip above, with a marked set and with none (P = 1),
    at every t1, t2 in {0, 1, 2, 3, 5}.  (7, 6, 4) has n - m < l."""
    basis = ReducedBasis(n, m, l)
    w = build_walk_matrix(basis)
    w_idx = basis.index(l, 0)
    for t1, t2 in itertools.product((0, 1, 2, 3, 5), repeat=2):
        for found, flip in ((None, lambda s: flip_w(s, basis)),
                            ((), lambda s: s)):
            loop = run_walk(reduced_s(basis), t1, t2, flip, w.__matmul__)
            rep = run_reduced(basis, t1, t2, found)
            assert np.max(np.abs(rep.final_state - loop)) <= 1e-13, (t1, t2)
            overlap = loop[w_idx] ** 2 if found is None else 0.0
            assert abs(rep.overlap_w - overlap) <= 1e-13, (t1, t2)


def test_matches_full_engine():
    inst = make_family("element-distinctness", n=9, seed=1)
    full = run_algorithm(inst, 4, 2, 2)
    rep = run_reduced(ReducedBasis(9, 4, 2), 2, 2)
    assert abs(rep.overlap_w - full.overlap_w) < 1e-9
    assert rep.query_count == full.query_count


def test_stepwise_embedding_agreement():
    """Alternating W / P for 50 steps: embedded reduced == full to 1e-9."""
    inst = make_family("element-distinctness", n=9, seed=1)
    marked = find_marked(inst)[0]
    basis = ReducedBasis(9, 4, 2)
    w = build_walk_matrix(basis)

    full = prepare_s(inst, 4)
    rows = np.flatnonzero(full.ctx.marked_row_mask([marked]))
    red = reduced_s(basis).astype(float)
    for t in range(1, 51):
        if t % 2 == 1:
            apply_walk_step(full, inst)
            red = w @ red
        else:
            apply_phase_flip(full.amps, rows)
            red = flip_w(red, basis)
        emb = embed_to_full(red, basis, marked, full.ctx)
        dev = np.max(np.abs(emb - full.amps))
        assert dev <= 1e-9, f"step {t}: deviation {dev}"


def test_embed_is_isometry():
    inst = make_family("element-distinctness", n=9, seed=1)
    marked = find_marked(inst)[0]
    basis = ReducedBasis(9, 4, 2)
    ctx = get_context(9, 4)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=basis.dim)
        y = rng.normal(size=basis.dim)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        ex = embed_to_full(x, basis, marked, ctx)
        ey = embed_to_full(y, basis, marked, ctx)
        inner_full = np.vdot(ex, ey)
        assert abs(inner_full - float(x @ y)) < 1e-12


def test_run_refuses_a_marked_set_of_another_size():
    """A 3-set on the l = 2 basis: without the refusal the run reported
    overlap_w 0.795 for a state the subspace does not model."""
    with pytest.raises(ValueError, match="has 3 elements.*l=2"):
        run_reduced(ReducedBasis(9, 4, 2), 2, 2, (MarkedSet((0, 1, 2)),))


@pytest.mark.parametrize("indices", [(0,), (0, 1, 2)])
def test_embed_refuses_a_marked_set_of_another_size(indices):
    basis = ReducedBasis(9, 4, 2)
    with pytest.raises(ValueError,
                       match=f"has {len(indices)} elements.*l=2"):
        embed_to_full(reduced_s(basis), basis, MarkedSet(indices),
                      get_context(9, 4))


def test_embed_refuses_a_context_of_another_walk():
    basis = ReducedBasis(9, 4, 2)
    with pytest.raises(ValueError, match="context is for"):
        embed_to_full(reduced_s(basis), basis, MarkedSet((0, 1)),
                      get_context(9, 3))


def reference_embed_a(state, basis, marked):
    """a-side amplitudes of embed_to_full, one Python step per (A, k) pair."""
    n, m, l = basis.n, basis.m, basis.l
    weights = {}
    for idx, (j, p) in enumerate(basis.labels):
        c = math.comb(n - l, m - j) * math.comb(l, j) * (
            (n - l) - (m - j) if p == 0 else l - j)
        if c:
            weights[(j, p)] = float(state[idx]) / math.sqrt(c)
    amps = np.zeros((math.comb(basis.n, basis.m), basis.n - basis.m))
    for r, a in enumerate(colex(basis.n, basis.m)):
        j = len(set(a) & set(marked.indices))
        coins = [k for k in range(basis.n) if k not in a]
        for slot, k in enumerate(coins):
            p = 1 if k in marked.indices else 0
            amps[r, slot] = weights.get((j, p), 0.0)
    return amps


def test_embed_matches_reference_loop():
    """Every (j, p) weight lands on exactly the pairs the loop puts it on."""
    rng = np.random.default_rng(11)
    for n, m, l in [(5, 2, 1), (7, 3, 2), (9, 4, 2), (10, 3, 3), (10, 6, 4)]:
        basis = ReducedBasis(n, m, l)
        marked = MarkedSet(tuple(sorted(
            int(k) for k in rng.choice(n, size=l, replace=False))))
        state = rng.normal(size=basis.dim)
        emb = embed_to_full(state, basis, marked, get_context(n, m))
        assert emb.dtype == np.float64
        assert np.array_equal(emb, reference_embed_a(state, basis, marked))


@pytest.mark.parametrize("n, m", [(9, 4), (12, 5), (10, 9)])
def test_subset_queries_match_reference_on_every_row(n, m):
    """marked_row_mask, at_coins, shift_map and embed_to_full, which read
    the subsets alone, against one Python step per row: marked sets that
    hold element 0 and element n-1, and several marked sets at once."""
    ctx = WalkContext(n, m)
    rows = colex(n, m)
    rank_b = {b: r for r, b in enumerate(colex(n, m + 1))}
    coins = [[k for k in range(n) if k not in a] for a in rows]
    rng = np.random.default_rng(n * m)
    values = rng.permutation(3 * n)[:n]
    assert np.array_equal(ctx.at_coins(values),
                          [[values[k] for k in row] for row in coins])
    unions = [tuple(sorted(a + (k,))) for a, row in zip(rows, coins)
              for k in row]
    assert np.array_equal(ctx.shift_map, [
        rank_b[b] * (m + 1) + b.index(k)
        for b, k in zip(unions, (k for row in coins for k in row))])
    for sets in ([(0, n - 1)], [(0,), (n - 1,)],
                 [(0, 1, n - 1), (2, n - 2)],
                 [(1, 3), (0, n - 1), (n - 2, n - 1)]):
        marked = [MarkedSet(s) for s in sets]
        expect = [any(set(s) <= set(a) for s in sets) for a in rows]
        assert np.array_equal(ctx.marked_row_mask(marked), expect), sets
        for ms in marked:
            basis = ReducedBasis(n, m, len(ms.indices))
            state = rng.normal(size=basis.dim)
            assert np.array_equal(embed_to_full(state, basis, ms, ctx),
                                  reference_embed_a(state, basis, ms)), ms


def test_embed_basis_vector_is_marked_block():
    inst = make_family("element-distinctness", n=9, seed=1)
    marked = find_marked(inst)[0]
    basis = ReducedBasis(9, 4, 2)
    e_w = np.zeros(basis.dim)
    e_w[basis.index(2, 0)] = 1.0
    ctx = get_context(9, 4)
    emb = embed_to_full(e_w, basis, marked, ctx)
    mask = ctx.marked_row_mask([marked])
    block = emb[mask, :]
    assert block.size == 105
    assert np.allclose(block, 1.0 / math.sqrt(105.0))
    assert np.max(np.abs(emb[~mask, :])) == 0.0


def test_w_s_overlap_expressions():
    """sqrt(c_{l,0}/c) equals the factorial form and ~ (m/n)^{l/2}."""
    for n, m, l in [(100, 40, 2), (1000, 178, 3), (10 ** 4, 464, 2)]:
        weights, total = norm_constants(n, m, l)
        ws = math.sqrt(weights[(l, 0)] / total)
        factorial_form = math.sqrt(
            math.factorial(n - l) * math.factorial(m)
            / (math.factorial(n) * math.factorial(m - l)))
        assert abs(ws - factorial_form) < 1e-12
        if m >= 4 * l * l:
            approx = (m / n) ** (l / 2.0)
            assert abs(ws / approx - 1.0) <= 2.0 * l * l / m


def test_large_n_final_overlap_bound():
    p = choose_parameters(10 ** 4, 2)
    rep = run_reduced(ReducedBasis(10 ** 4, p.m, 2), p.t1, p.t2)
    bound = 1.0 - 10.0 * (1.0 / p.m + p.m / 10 ** 4)
    assert rep.overlap_w >= bound
    assert rep.overlap_w >= 0.80


def test_negative_iterations_rejected():
    with pytest.raises(ValueError):
        run_reduced(ReducedBasis(9, 4, 2), -1, 2)
