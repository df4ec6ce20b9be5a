"""Full state-vector engine: operators, accounting, and fixtures."""
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from johnson_walk import (
    DEFAULT_MEMCAP, MarkedSet, MemoryCapError, WalkContext, apply_coin1,
    apply_coin2, apply_phase_flip, apply_shift, apply_walk_step, binomial,
    choose_parameters, find_marked, get_context, make_family, norm_constants,
    prepare_s, run_algorithm,
)
from johnson_walk.combinat import rank_subset, unrank_subset
from johnson_walk.full_sim import _COIN2_BLOCK_ROWS, FullState, \
    _context_cache, measure_sample, walk_bytes
from johnson_walk.instances import ITEM
from johnson_walk.serialize import dumps_report


def zero_state(ctx):
    return FullState(ctx, np.zeros((ctx.num_a, ctx.n - ctx.m)))


def random_unit(shape, rng, dtype=complex):
    x = rng.normal(size=shape)
    if dtype == complex:
        x = x + 1j * rng.normal(size=shape)
    return x / np.linalg.norm(x)


def test_context_shapes():
    ctx = WalkContext(9, 4)
    assert ctx.num_a == binomial(9, 4)
    assert ctx.num_b == binomial(9, 5)
    assert ctx.dim_a == ctx.dim_b == 630
    # shift is a bijection between the sides
    assert sorted(ctx.shift_map) == list(range(ctx.dim_b))


def reference_index(n, m):
    """Subsets by colex rank, the union ranks and the shift map, one Python
    step per pair."""
    subsets = [None] * binomial(n, m)
    for comb in itertools.combinations(range(n), m):
        subsets[rank_subset(comb, n)] = comb
    union, shift = [], []
    for a in subsets:
        for k in range(n):
            if k not in a:
                b = tuple(sorted(a + (k,)))
                union.append(rank_subset(b, n))
                shift.append(union[-1] * (m + 1) + b.index(k))
    return subsets, union, shift


def assert_index_matches_reference(ctx):
    subsets, union, shift = reference_index(ctx.n, ctx.m)
    assert np.array_equal(ctx.subsets_a,
                          np.array(subsets).reshape(ctx.num_a, ctx.m))
    assert ctx.union_rank.dtype == np.int64
    assert np.array_equal(ctx.union_rank, union)
    assert ctx.shift_map.dtype == np.int64
    assert np.array_equal(ctx.shift_map, shift)
    return subsets


def assert_mask_matches_reference(ctx, subsets, marked_sets):
    expect = [any(set(ms.indices) <= set(a) for ms in marked_sets)
              for a in subsets]
    assert np.array_equal(ctx.marked_row_mask(marked_sets), expect)


def test_index_matches_reference_up_to_14():
    """Also: dim_a == dim_b and shift_map hits every b-pair once, so
    apply_shift's np.empty b-side buffer is fully written by one scatter."""
    for n in range(2, 15):
        for m in range(1, n):
            ctx = WalkContext(n, m)
            assert_index_matches_reference(ctx)
            assert ctx.dim_a == ctx.dim_b
            assert np.array_equal(np.sort(ctx.shift_map), np.arange(ctx.dim_b))


def test_marked_row_mask_matches_reference():
    for n, m in [(6, 2), (9, 4), (10, 5), (12, 3)]:
        ctx = WalkContext(n, m)
        subsets = assert_index_matches_reference(ctx)
        for marked_sets in ([MarkedSet((0, n - 1))],
                            [MarkedSet((1, 2)), MarkedSet((2, n - 2))],
                            [MarkedSet((0,)), MarkedSet((1, 3, 4))]):
            assert_mask_matches_reference(ctx, subsets, marked_sets)


def test_index_beyond_64_elements():
    ctx = WalkContext(100, 1)
    subsets = assert_index_matches_reference(ctx)
    assert_mask_matches_reference(ctx, subsets, [MarkedSet((70,))])
    assert_mask_matches_reference(ctx, subsets,
                                  [MarkedSet((3,)), MarkedSet((99,))])
    # C(70, 35) does not fit in int64, though no rank here comes near it
    assert_index_matches_reference(WalkContext(70, 68))


def test_memory_cap_enforced(monkeypatch):
    """The cap is in bytes: index, float64 state and one step buffer."""
    with pytest.raises(MemoryCapError):
        WalkContext(40, 20)
    # subsets_a 126*4*8, member 126*9, union_rank, state and the step's
    # gather temporary 630*8 each
    need = 126 * 4 * 8 + 126 * 9 + 3 * 630 * 8
    assert walk_bytes(9, 4) == need == 20286
    monkeypatch.setenv("JOHNSON_WALK_MEMCAP", str(need - 1))
    with pytest.raises(MemoryCapError):
        WalkContext(9, 4)
    monkeypatch.setenv("JOHNSON_WALK_MEMCAP", str(need))
    WalkContext(9, 4)


def test_default_cap_admits_n_26():
    """At the rule's m, the default byte cap admits n=26 and refuses n=27."""
    assert walk_bytes(26, choose_parameters(26, 2).m) <= DEFAULT_MEMCAP
    assert walk_bytes(27, choose_parameters(27, 2).m) > DEFAULT_MEMCAP


def test_context_cache_keeps_the_last_context():
    first = get_context(6, 2)
    assert get_context(6, 2) is first
    second = get_context(7, 3)
    assert list(_context_cache) == [(7, 3)]
    assert get_context(7, 3) is second
    assert get_context(6, 2) is not first


def test_memcap_env_override(monkeypatch):
    monkeypatch.setenv("JOHNSON_WALK_MEMCAP", "100")
    with pytest.raises(MemoryCapError):
        WalkContext(9, 4)


def test_prepare_s_uniform():
    inst = make_family("element-distinctness", n=4, seed=0)
    state = prepare_s(inst, 2)
    assert state.amps.size == 12
    assert state.amps.dtype == np.float64
    assert np.allclose(state.amps, 1.0 / math.sqrt(12.0))
    assert abs(state.norm() - 1.0) < 1e-12


def test_prepare_query_cost():
    item = make_family("element-distinctness", n=9, seed=1)
    assert prepare_s(item, 4).query_count == 4
    pairwise = make_family("l-clique", n=9, l=3, seed=1)
    assert prepare_s(pairwise, 4).query_count == 6  # C(4, 2)


def test_walk_step_query_cost():
    item = make_family("element-distinctness", n=9, seed=1)
    state = prepare_s(item, 4)
    apply_walk_step(state, item)
    assert state.query_count == 4 + 2
    pairwise = make_family("l-clique", n=9, l=3, seed=1)
    state = prepare_s(pairwise, 4)
    apply_walk_step(state, pairwise)
    assert state.query_count == 6 + 2 * 4


def test_walk_fixes_start_state():
    inst = make_family("element-distinctness", n=9, seed=1)
    state = prepare_s(inst, 4)
    ref = state.copy()
    for _ in range(3):
        apply_walk_step(state, inst)
    assert np.max(np.abs(state.amps - ref.amps)) < 1e-12


def test_reflection_suite():
    """S^2 = C1^2 = C2^2 = P^2 = 1, norms preserved, 50 states each.

    C1, P and C2 (applied as S C2 S) act on a-states, and S goes out to
    the b-side and back, and back to the a-side and out again.  By
    linearity this covers the whole pair space.
    """
    rng = np.random.default_rng(0)
    ctx = get_context(7, 3)
    marked = MarkedSet((0, 5))
    shape_a, shape_b = (ctx.num_a, 4), (ctx.num_b, 4)

    def on_a(op):
        return lambda x: op(FullState(ctx, x.copy())).amps

    flip = on_a(lambda s: apply_phase_flip(s, marked))
    ops = {"C1": (shape_a, on_a(apply_coin1), on_a(apply_coin1)),
           "P": (shape_a, flip, flip),
           "C2": (shape_a, lambda x: apply_coin2(ctx, x.copy()),
                  lambda x: apply_coin2(ctx, x.copy())),
           "S a->b->a": (shape_a, lambda x: apply_shift(ctx, x),
                         lambda x: apply_shift(ctx, x, back=True)),
           "S b->a->b": (shape_b, lambda x: apply_shift(ctx, x, back=True),
                         lambda x: apply_shift(ctx, x))}
    for name, (shape, op, undo) in ops.items():
        for _ in range(50):
            ref = random_unit(shape, rng)
            once = op(ref)
            assert abs(np.linalg.norm(once) - 1.0) <= 1e-10, name
            assert np.max(np.abs(undo(once) - ref)) <= 1e-10, name


def test_coin2_matches_shift_reflect_shift():
    """For n <= 10 and every m, apply_coin2 on an a-state equals the shift
    to a b-buffer, mean inversion of each (m+1)-subset's row there, and the
    shift back, on random real and complex states."""
    rng = np.random.default_rng(8)
    for n in range(2, 11):
        for m in range(1, n):
            ctx = WalkContext(n, m)
            for dtype in (float, complex):
                amps = random_unit((ctx.num_a, n - m), rng, dtype)
                buf = apply_shift(ctx, amps)
                buf -= 2.0 * buf.mean(axis=1, keepdims=True)
                expect = apply_shift(ctx, buf, back=True)
                got = apply_coin2(ctx, amps.copy())
                assert got.dtype == dtype
                assert np.max(np.abs(got - expect)) <= 1e-12, (n, m, dtype)


def coin2_one_gather(ctx, amps):
    """Coin 2 as one bincount over union_rank and one state-sized gather,
    in place."""
    weights = amps.reshape(-1)
    sums = np.bincount(ctx.union_rank, weights=weights.real, minlength=ctx.num_b)
    if np.iscomplexobj(amps):
        sums = sums + 1j * np.bincount(ctx.union_rank, weights=weights.imag,
                                       minlength=ctx.num_b)
    sums *= 2.0 / (ctx.m + 1)
    amps -= sums[ctx.union_rank].reshape(amps.shape)
    return amps


def test_coin2_blockwise_equals_one_gather():
    """At n=16, m=6 (8008 rows: several blocks, the last one ragged) the
    blockwise coin 2 equals the one-gather form bit for bit, on real,
    complex and Fortran-ordered states, and updates each in place."""
    ctx = WalkContext(16, 6)
    assert ctx.num_a > 3 * _COIN2_BLOCK_ROWS and ctx.num_a % _COIN2_BLOCK_ROWS
    rng = np.random.default_rng(12)
    real = random_unit((ctx.num_a, 10), rng, float)
    for amps in (real, random_unit((ctx.num_a, 10), rng, complex),
                 np.asfortranarray(real)):
        expect = coin2_one_gather(ctx, np.array(amps, order="C"))
        got = apply_coin2(ctx, amps)
        assert got is amps
        assert np.array_equal(amps, expect)
    assert amps.flags.f_contiguous and not amps.flags.c_contiguous


def test_coin2_makes_no_state_sized_temporary():
    """tracemalloc sees numpy's data buffers: at n=18, m=7 the peak during
    one coin 2 stays below half the state's bytes."""
    ctx = WalkContext(18, 7)
    amps = random_unit((ctx.num_a, 11), np.random.default_rng(3), float)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        apply_coin2(ctx, amps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < amps.nbytes / 2, (peak, amps.nbytes)


def reference_run(instance, m, t1, t2):
    """(W^t1 P)^t2 as one loop: a boolean-mask flip, coin 1 as a row-mean
    matvec and the one-gather coin 2.  Returns the success probability,
    overlap_w, query count and final amplitudes."""
    state = prepare_s(instance, m)
    ctx, x = state.ctx, state.amps
    mask = ctx.marked_row_mask(list(find_marked(instance).all_marked))
    for _ in range(t2):
        x[mask, :] *= -1.0
        for _ in range(t1):
            x -= (x @ np.full(x.shape[1], 2.0 / x.shape[1]))[:, None]
            coin2_one_gather(ctx, x)
    block = x[mask, :]
    per_step = 2 if instance.mode == ITEM else 2 * m
    return (float(np.sum(np.abs(block) ** 2)),
            float(np.abs(block.sum()) ** 2 / block.size),
            state.query_count + t1 * t2 * per_step, x)


@pytest.mark.parametrize("family, n, l", [
    ("element-distinctness", 9, 2), ("element-distinctness", 12, 2),
    ("element-distinctness", 16, 2), ("l-distinctness", 12, 3),
])
def test_run_equals_reference_loop(family, n, l):
    """A whole run gives, bit for bit, the reference loop's numbers."""
    inst = make_family(family, n=n, l=l, seed=1)
    p = choose_parameters(n, l)
    rep = run_algorithm(inst, p.m, p.t1, p.t2)
    success, overlap_w, queries, amps = reference_run(inst, p.m, p.t1, p.t2)
    assert rep.success_probability == success
    assert rep.overlap_w == overlap_w
    assert rep.query_count == queries
    assert np.array_equal(rep.final_state.amps, amps)


def dense_walk_step(n, m):
    """S C2 S C1 as one dense matrix over the pairs, a-pairs first, each
    side in (colex rank, coin) order; built from itertools and
    rank_subset, not from the WalkContext."""
    def side(size, coins_of):
        pairs = [(sub, k) for sub in itertools.combinations(range(n), size)
                 for k in coins_of(sub)]
        return sorted(pairs, key=lambda p: (rank_subset(p[0], n), p[1]))

    pairs = side(m, lambda a: [k for k in range(n) if k not in a]) \
        + side(m + 1, lambda b: b)
    at = {pair: i for i, pair in enumerate(pairs)}
    dim = len(pairs)
    c1, c2, shift = np.eye(dim), np.eye(dim), np.zeros((dim, dim))
    for (sub, k), i in at.items():
        coin = c1 if len(sub) == m else c2
        for (other, _), j in at.items():
            if other == sub:
                coin[i, j] -= 2.0 / (n - m if len(sub) == m else m + 1)
        if len(sub) == m:
            j = at[(tuple(sorted(sub + (k,))), k)]
            shift[i, j] = shift[j, i] = 1.0
    return shift @ c2 @ shift @ c1, binomial(n, m) * (n - m)


def test_walk_step_matches_dense_matrix():
    """At n=7, m=3 the step equals the dense S C2 S C1 on random real and
    complex a-states, and the dense step leaves the b-side empty."""
    n, m = 7, 3
    walk, dim_a = dense_walk_step(n, m)
    inst = make_family("element-distinctness", n=n, seed=0)
    ctx = get_context(n, m)
    rng = np.random.default_rng(4)
    for dtype in (float, complex):
        for _ in range(5):
            amps = random_unit((ctx.num_a, n - m), rng, dtype)
            full = np.zeros(walk.shape[0], dtype=dtype)
            full[:dim_a] = amps.reshape(-1)
            expect = walk @ full
            state = apply_walk_step(FullState(ctx, amps.copy()), inst)
            assert state.amps.dtype == dtype
            assert np.max(np.abs(expect[dim_a:])) <= 1e-12
            assert np.max(np.abs(state.amps.reshape(-1) - expect[:dim_a])) <= 1e-12


def test_phase_flip_expectation():
    """<s|P|s> = 1 - 2 c_{l,0}/c."""
    inst = make_family("element-distinctness", n=9, seed=1)
    marked = find_marked(inst).marked
    state = prepare_s(inst, 4)
    ref = state.copy()
    apply_phase_flip(state, marked)
    inner = np.vdot(ref.amps, state.amps)
    nc = norm_constants(9, 4, 2)
    assert abs(inner - (1.0 - 2.0 * nc.c_jp[(2, 0)] / nc.c_total)) < 1e-12


def test_phase_flip_no_amplitude_unchanged():
    ctx = get_context(6, 2)
    marked = MarkedSet((4, 5))
    state = zero_state(ctx)
    # amplitude only on subsets not containing {4, 5}
    mask = ctx.marked_row_mask([marked])
    state.amps[~mask, :] = 1.0
    before = state.amps.copy()
    apply_phase_flip(state, marked)
    assert np.array_equal(before, state.amps)


def test_run_t2_zero_baseline():
    inst = make_family("element-distinctness", n=9, seed=1)
    rep = run_algorithm(inst, 4, 3, 0)
    nc = norm_constants(9, 4, 2)
    assert abs(rep.success_probability - nc.c_jp[(2, 0)] / nc.c_total) < 1e-12
    assert rep.query_count == 4


def test_run_no_marked_stays_at_s():
    inst = make_family("element-distinctness", n=8, seed=2, planted=False)
    rep = run_algorithm(inst, 3, 2, 2)
    assert "no_marked" in rep.flags
    assert rep.success_probability == 0.0
    uniform = 1.0 / math.sqrt(rep.final_state.ctx.dim_a)
    assert np.max(np.abs(rep.final_state.amps - uniform)) < 1e-10


def test_run_fixture_942():
    """Frozen success probability of the n=9 element-distinctness run."""
    inst = make_family("element-distinctness", n=9, seed=1)
    rep = run_algorithm(inst, 4, 2, 2)
    assert rep.query_count == 4 + 2 * 2 * 2
    assert abs(rep.success_probability - 0.7953860624657066) < 1e-12
    assert rep.flags == ()


def test_query_accounting_matches_formula():
    for n, l, seed in [(9, 2, 1), (10, 2, 4), (8, 3, 6)]:
        p = choose_parameters(n, l)
        inst = make_family("l-distinctness", n=n, l=l, seed=seed)
        rep = run_algorithm(inst, p.m, p.t1, p.t2)
        assert rep.query_count == p.m + 2 * p.t1 * p.t2


def test_permutation_covariance():
    """Relabeling elements while fixing the marked set leaves success alone."""
    inst = make_family("element-distinctness", n=8, seed=3)
    marked = find_marked(inst).marked.indices
    rng = np.random.default_rng(5)
    others = [i for i in range(8) if i not in marked]
    base = run_algorithm(inst, 3, 2, 2).success_probability
    for _ in range(3):
        perm = list(range(8))
        shuffled = list(others)
        rng.shuffle(shuffled)
        for src, dst in zip(others, shuffled):
            perm[src] = dst
        new_vals = [0] * 8
        for i, v in enumerate(inst.values):
            new_vals[perm[i]] = v
        relabeled = make_family("custom", n=8, l=2, values=new_vals,
                                predicate=inst.predicate)
        assert find_marked(relabeled).marked.indices == marked
        got = run_algorithm(relabeled, 3, 2, 2).success_probability
        assert abs(got - base) < 1e-12


def test_report_serialization():
    inst = make_family("element-distinctness", n=9, seed=1)
    d = json.loads(dumps_report(run_algorithm(inst, 4, 1, 1)))
    assert list(d) == ["n", "m", "l", "t1", "t2", "mode", "engine",
                       "success_probability", "overlap_w", "query_count",
                       "flags"]
    assert d["engine"] == "full"


def test_measure_point_mass():
    ctx = get_context(6, 2)
    state = zero_state(ctx)
    state.amps[3, 1] = 1.0
    subset, coin = measure_sample(state, seed=0)
    assert subset == unrank_subset(3, 2, 6)
    coins = [k for k in range(6) if k not in subset]
    assert coin == coins[1]


def test_measure_uniform_frequencies():
    inst = make_family("element-distinctness", n=4, seed=0)
    state = prepare_s(inst, 2)
    draws = measure_sample(state, seed=1, draws=12000)
    counts = {}
    for pair in draws:
        counts[pair] = counts.get(pair, 0) + 1
    p = 1.0 / 12.0
    sigma = math.sqrt(12000 * p * (1 - p))
    for count in counts.values():
        assert abs(count - 12000 * p) <= 5 * sigma


def test_measure_matches_success_probability():
    inst = make_family("element-distinctness", n=9, seed=1)
    rep = run_algorithm(inst, 4, 2, 2)
    marked = set(find_marked(inst).marked.indices)
    draws = measure_sample(rep.final_state, seed=2, draws=10 ** 4)
    hits = sum(1 for subset, _ in draws
               if len(subset) == 4 and marked <= set(subset))
    p = rep.success_probability
    sigma = math.sqrt(10 ** 4 * p * (1 - p))
    assert abs(hits - 10 ** 4 * p) <= 3 * sigma
