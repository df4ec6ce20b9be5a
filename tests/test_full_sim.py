"""Full state-vector engine: operators, accounting, and fixtures."""
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from johnson_walk import (
    DEFAULT_MEMCAP, MarkedSet, MemoryCapError, ProblemInstance, ReducedBasis,
    WalkContext, apply_coin1, apply_coin2, apply_phase_flip, apply_shift,
    apply_walk_step, choose_parameters, embed_to_full, find_marked,
    get_context, make_family, prepare_s, run_algorithm, run_reduced,
)
from johnson_walk.cli import main
from johnson_walk.full_sim import FullState, _context_cache, binomial_upto
from johnson_walk.instances import ITEM
from johnson_walk.serialize import dumps_report
from reference import colex


def random_unit(shape, rng):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x)


def test_context_shapes():
    ctx = WalkContext(9, 4)
    assert ctx.num_a == math.comb(9, 4)
    assert ctx.num_b == math.comb(9, 5)
    assert ctx.dim_a == ctx.dim_b == 630
    # shift is a bijection between the sides
    assert sorted(ctx.shift_map) == list(range(ctx.dim_b))


def reference_index(n, m):
    """Subsets by colex rank, the union ranks and the shift map, one Python
    step per pair."""
    subsets = colex(n, m)
    rank_b = {b: r for r, b in enumerate(colex(n, m + 1))}
    union, shift = [], []
    for a in subsets:
        for k in range(n):
            if k not in a:
                b = tuple(sorted(a + (k,)))
                union.append(rank_b[b])
                shift.append(union[-1] * (m + 1) + b.index(k))
    return subsets, union, shift


def assert_index_matches_reference(ctx):
    subsets, union, shift = reference_index(ctx.n, ctx.m)
    assert np.array_equal(ctx.subsets_a,
                          np.array(subsets).reshape(ctx.num_a, ctx.m))
    assert ctx.union_rank.dtype == np.int64
    assert ctx.union_rank.flags.f_contiguous
    assert np.array_equal(ctx.union_rank,
                          np.reshape(union, (ctx.num_a, ctx.n - ctx.m)))
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


def test_union_rank_covers_every_b_subset_m_plus_1_times():
    """At n=20 the m+1 a-pairs of each (m+1)-subset are its m+1 coins."""
    ctx = WalkContext(20, 7)
    counts = np.bincount(ctx.union_rank.ravel(order="K"))
    assert len(counts) == ctx.num_b
    assert np.all(counts == ctx.m + 1)


def test_sampled_union_ranks_match_itertools():
    """2,000 fixed-seed (row, slot) pairs at n=20: the subset, its coin and
    the union's rank against the itertools colex lists, one pair at a
    time."""
    ctx = WalkContext(20, 7)
    subsets = colex(20, 7)
    rank_b = {b: r for r, b in enumerate(colex(20, 8))}
    rng = np.random.default_rng(16)
    for r, slot in zip(rng.integers(ctx.num_a, size=2000),
                       rng.integers(ctx.n - ctx.m, size=2000)):
        a = tuple(int(x) for x in ctx.subsets_a[r])
        assert a == subsets[r]
        k = [x for x in range(ctx.n) if x not in a][slot]
        assert ctx.union_rank[r, slot] == rank_b[tuple(sorted(a + (k,)))]


def test_build_makes_no_subset_sized_int64_table():
    """The build's peak is at most what the context holds plus the previous
    level's arrays, the (m-1)-subsets of {0..n-2} with their union ranks;
    one (num_a, m) int64 temporary would exceed it."""
    n, m = 20, 7
    ctx = WalkContext(n, m)
    held = ctx.subsets_a.nbytes + ctx.union_rank.nbytes
    previous = math.comb(n - 1, m - 1) * (
        (m - 1) * ctx.subsets_a.itemsize + 8 * (n - m))
    assert previous < 8 * ctx.num_a * m
    peak = traced_peak(lambda: WalkContext(n, m))
    assert held <= peak <= held + previous, (peak, held, previous)


def charge(monkeypatch, n, m):
    """The bytes a WalkContext charges a walk at (n, m), read from its
    refusal under a cap of 0 bytes."""
    with monkeypatch.context() as patch:
        patch.setenv("JOHNSON_WALK_MEMCAP", "0")
        with pytest.raises(MemoryCapError, match="needs [0-9]+ bytes") as err:
            WalkContext(n, m)
    return int(str(err.value).split(" needs ")[1].split()[0])


def test_memory_cap_enforced(monkeypatch):
    """The cap is in bytes: index, float64 state and one step buffer."""
    with pytest.raises(MemoryCapError):
        WalkContext(40, 20)
    # subsets_a 126*4 (uint8), union_rank, state and one more state-sized
    # array 630*8 each
    need = 126 * 4 + 3 * 630 * 8
    assert charge(monkeypatch, 9, 4) == need == 15624
    monkeypatch.setenv("JOHNSON_WALK_MEMCAP", str(need - 1))
    with pytest.raises(MemoryCapError):
        WalkContext(9, 4)
    monkeypatch.setenv("JOHNSON_WALK_MEMCAP", str(need))
    WalkContext(9, 4)


def test_default_cap_admits_n_27(monkeypatch):
    """At the rule's m, the default byte cap admits n=27 and refuses n=28."""
    n27, n28 = (charge(monkeypatch, n, choose_parameters(n, 2).m)
                for n in (27, 28))
    assert n27 <= DEFAULT_MEMCAP < n28


def test_binomial_upto_is_exact_up_to_the_limit():
    """The count is C(n, k) when it fits under the limit, and None (past
    the limit) otherwise, at the limit and one either side of it; it is 0
    past k = n, and a negative n or k is refused, as math.comb does."""
    for n in range(70):
        for k in range(n + 3):
            count = math.comb(n, k)
            for limit in (count - 1, count, count + 1):
                expect = count if count <= limit else None
                assert binomial_upto(n, k, limit) == expect, (n, k, limit)
    assert binomial_upto(5, 7, 100) == 0
    for n, k in ((-1, 0), (5, -1), (-2, -3)):
        with pytest.raises(ValueError):
            math.comb(n, k)
        with pytest.raises(ValueError):
            binomial_upto(n, k, 100)


@pytest.mark.parametrize("n, m", [(9, 4), (20, 7), (100, 1)])
def test_walk_bytes_is_what_a_context_holds(monkeypatch, n, m):
    """The byte cap's charge for a walk is every array a WalkContext holds
    plus two float64 arrays of dim_a: the state and the one more
    state-sized array."""
    ctx = WalkContext(n, m)
    held = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
    assert {id(a) for a in held} == {id(ctx.subsets_a), id(ctx.union_rank)}
    assert ctx.subsets_a.flags.f_contiguous
    assert ctx.subsets_a.dtype == np.min_scalar_type(n)
    assert charge(monkeypatch, n, m) == \
        sum(a.nbytes for a in held) + 2 * 8 * ctx.dim_a


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


@pytest.mark.parametrize("call, message", [
    (lambda: make_family("nope", n=9), "unknown family 'nope'"),
    (lambda: WalkContext(5, 5), "need 1 <= m < n, got n=5, m=5"),
    (lambda: prepare_s(make_family("l-distinctness", n=9, l=3, seed=0), 2),
     "need l <= m < n, got l=3, m=2, n=9"),
    (lambda: ProblemInstance(n=3, l=3, mode=ITEM, values=(1, 2, 3),
                             family_tag="x", property_params={},
                             predicate=len),
     "need 1 <= l < n, got l=3, n=3"),
], ids=["unknown-family", "context-m-at-n", "prepare-m-below-l",
        "instance-l-at-n"])
def test_sizes_and_names_refused(call, message):
    """Each refusal is a ValueError that names the cause."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


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
    ref = state.amps.copy()
    for _ in range(3):
        apply_walk_step(state, inst)
    assert np.max(np.abs(state.amps - ref)) < 1e-12


def test_coin2_matches_shift_reflect_shift():
    """For n <= 10 and every m, apply_coin2 on an a-state equals the shift
    to a b-buffer, mean inversion of each (m+1)-subset's row there, and the
    shift back, on random real states."""
    rng = np.random.default_rng(8)
    for n in range(2, 11):
        for m in range(1, n):
            ctx = WalkContext(n, m)
            amps = random_unit((ctx.num_a, n - m), rng)
            buf = apply_shift(ctx, amps)
            buf -= 2.0 * buf.mean(axis=1, keepdims=True)
            expect = apply_shift(ctx, buf, back=True)
            got = apply_coin2(ctx, amps.copy())
            assert got.dtype == np.float64
            assert np.max(np.abs(got - expect)) <= 1e-12, (n, m)


def coin2_one_gather(ctx, amps):
    """Coin 2 as one bincount over union_rank and one state-sized gather,
    in place; the bincount adds in slot-major order, as apply_coin2's does."""
    sums = np.bincount(ctx.union_rank.ravel("F"), weights=amps.ravel("F"),
                       minlength=ctx.num_b)
    sums *= 2.0 / (ctx.m + 1)
    amps -= sums[ctx.union_rank]
    return amps


def test_coin2_columnwise_equals_one_gather():
    """At n=16, m=6 coin 2, one slot column at a time, equals the one-gather
    form bit for bit on a real state in C and Fortran order, and updates
    each in place; both orders sum slot-major, so they agree bit for bit."""
    ctx = WalkContext(16, 6)
    rng = np.random.default_rng(12)
    real = random_unit((ctx.num_a, 10), rng)
    results = []
    for amps in (real, np.asfortranarray(real)):
        expect = coin2_one_gather(ctx, amps.copy(order="K"))
        layout = amps.flags.f_contiguous, amps.flags.c_contiguous
        got = apply_coin2(ctx, amps)
        assert got is amps
        assert (amps.flags.f_contiguous, amps.flags.c_contiguous) == layout
        assert np.array_equal(amps, expect)
        results.append(amps)
    c_order, f_order = results
    assert np.array_equal(c_order, f_order)


def traced_peak(f):
    """Peak bytes tracemalloc sees (numpy's data buffers included) while f
    runs, above what was held when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_coin2_makes_no_state_sized_temporary():
    """At n=18, m=7, on the engine's own (slot-major) state, the peak
    during one coin 2 stays below half the state's bytes, and so does the
    peak during one whole walk step, one phase flip and FullState.norm;
    embed_to_full makes one state-sized array, the third that the byte
    cap charges for."""
    inst = make_family("element-distinctness", n=18, seed=1)
    marked = find_marked(inst)[0]
    state = prepare_s(inst, 7)
    rows = np.flatnonzero(state.ctx.marked_row_mask([marked]))
    state.amps[...] = random_unit(state.amps.shape, np.random.default_rng(3))
    nbytes = state.amps.nbytes
    for name, f in (("coin2", lambda: apply_coin2(state.ctx, state.amps)),
                    ("step", lambda: apply_walk_step(state, inst)),
                    ("flip", lambda: apply_phase_flip(state.amps, rows)),
                    ("norm", state.norm)):
        peak = traced_peak(f)
        assert peak < nbytes / 2, (name, peak, nbytes)
    basis = ReducedBasis(18, 7, 2)
    reduced = run_reduced(basis, 1, 1).final_state
    peak = traced_peak(lambda: embed_to_full(reduced, basis, marked,
                                             state.ctx))
    assert nbytes <= peak < 1.5 * nbytes, (peak, nbytes)


def test_simulate_both_holds_only_the_charged_arrays(capsys):
    """Past the cached context, simulate --engine both at n=18 holds the
    state and embed_to_full's array, the two float64 arrays the byte cap
    charges, and little else: the deviation is taken in place."""
    ctx = get_context(18, choose_parameters(18, 2).m)
    peak = traced_peak(lambda: main(["simulate", "--engine", "both",
                                     "--n", "18", "--seed", "1"]))
    assert '"max_state_deviation"' in capsys.readouterr().out
    assert peak < 2.5 * 8 * ctx.dim_a, (peak, 8 * ctx.dim_a)


def test_engine_state_stays_slot_major():
    """prepare_s returns a Fortran-ordered state; every kernel updates
    that buffer in place and leaves it so, and a whole run's final state
    is still slot-major.  A silent C-order copy would lose the layout's
    speed without changing a number."""
    inst = make_family("element-distinctness", n=9, seed=1)
    marked = find_marked(inst)[0]
    state = prepare_s(inst, 4)
    rows = np.flatnonzero(state.ctx.marked_row_mask([marked]))
    amps = state.amps
    address = amps.ctypes.data
    assert amps.flags.f_contiguous and not amps.flags.c_contiguous
    for name, f in (("coin1", lambda: apply_coin1(state.amps)),
                    ("coin2", lambda: apply_coin2(state.ctx, state.amps)),
                    ("flip", lambda: apply_phase_flip(state.amps, rows)),
                    ("step", lambda: apply_walk_step(state, inst))):
        f()
        assert state.amps is amps and amps.ctypes.data == address, name
        assert amps.flags.f_contiguous and not amps.flags.c_contiguous, name
    final = run_algorithm(inst, 4, 2, 2).final_state.amps
    assert final.flags.f_contiguous and not final.flags.c_contiguous


def reference_run(instance, m, t1, t2):
    """(W^t1 P)^t2 as one loop: a boolean-mask flip, coin 1 as a row-mean
    matvec and the one-gather coin 2.  Returns the success probability,
    overlap_w, query count and final amplitudes."""
    state = prepare_s(instance, m)
    ctx, x = state.ctx, state.amps
    mask = ctx.marked_row_mask(list(find_marked(instance)))
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
    side in (colex rank, coin) order; built from itertools alone, not
    from the WalkContext."""
    def side(size, coins_of):
        pairs = [(sub, k) for sub in itertools.combinations(range(n), size)
                 for k in coins_of(sub)]
        return sorted(pairs, key=lambda p: (p[0][::-1], p[1]))

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
    return shift @ c2 @ shift @ c1, math.comb(n, m) * (n - m)


def test_walk_step_matches_dense_matrix():
    """At n=7, m=3 the step equals the dense S C2 S C1 on random real
    a-states, and the dense step leaves the b-side empty."""
    n, m = 7, 3
    walk, dim_a = dense_walk_step(n, m)
    inst = make_family("element-distinctness", n=n, seed=0)
    ctx = get_context(n, m)
    rng = np.random.default_rng(4)
    for _ in range(5):
        amps = random_unit((ctx.num_a, n - m), rng)
        full = np.zeros(walk.shape[0])
        full[:dim_a] = amps.reshape(-1)
        expect = walk @ full
        state = apply_walk_step(FullState(ctx, amps.copy()), inst)
        assert state.amps.dtype == np.float64
        assert np.max(np.abs(expect[dim_a:])) <= 1e-12
        assert np.max(np.abs(state.amps.reshape(-1) - expect[:dim_a])) <= 1e-12


def test_phase_flip_expectation():
    """<s|P|s> = 1 - 2 c_{l,0}/c."""
    inst = make_family("element-distinctness", n=9, seed=1)
    marked = find_marked(inst)[0]
    state = prepare_s(inst, 4)
    ref = state.amps.copy()
    apply_phase_flip(state.amps,
                     np.flatnonzero(state.ctx.marked_row_mask([marked])))
    inner = np.vdot(ref, state.amps)
    c20, c = math.comb(7, 2) * 5, math.comb(9, 4) * 5
    assert abs(inner - (1.0 - 2.0 * c20 / c)) < 1e-12


def test_phase_flip_no_amplitude_unchanged():
    ctx = get_context(6, 2)
    marked = MarkedSet((4, 5))
    amps = np.zeros((ctx.num_a, ctx.n - ctx.m))
    # amplitude only on subsets not containing {4, 5}
    mask = ctx.marked_row_mask([marked])
    amps[~mask, :] = 1.0
    before = amps.copy()
    apply_phase_flip(amps, np.flatnonzero(mask))
    assert np.array_equal(before, amps)


def test_run_t2_zero_baseline():
    inst = make_family("element-distinctness", n=9, seed=1)
    rep = run_algorithm(inst, 4, 3, 0)
    c20, c = math.comb(7, 2) * 5, math.comb(9, 4) * 5
    assert abs(rep.success_probability - c20 / c) < 1e-12
    assert rep.query_count == 4


def test_run_no_marked_stays_at_s():
    inst = make_family("element-distinctness", n=8, seed=2, planted=False)
    rep = run_algorithm(inst, 3, 2, 2)
    assert "no_marked" in rep.flags
    assert rep.success_probability == 0.0
    uniform = 1.0 / math.sqrt(rep.final_state.ctx.dim_a)
    assert np.max(np.abs(rep.final_state.amps - uniform)) < 1e-10


@pytest.fixture
def mask_calls(monkeypatch):
    """Counts WalkContext.marked_row_mask calls."""
    calls = []
    original = WalkContext.marked_row_mask

    def counted(self, marked_sets):
        calls.append(marked_sets)
        return original(self, marked_sets)

    monkeypatch.setattr(WalkContext, "marked_row_mask", counted)
    return calls


@pytest.mark.parametrize("t2", [0, 1, 2, 5])
def test_run_finds_the_marked_rows_once(mask_calls, t2):
    """run_algorithm derives the marked rows once a run, whatever t2, on a
    one-set instance, on two listed sets, and on an instance with none,
    whose success and overlap stay exactly 0.0."""
    one = make_family("element-distinctness", n=9, seed=1)
    two = make_family("custom", n=9, l=2, values=tuple(range(9)),
                      satisfying=[[(0, 0), (3, 3)], [(3, 3), (7, 7)]])
    none = make_family("element-distinctness", n=8, seed=2, planted=False)
    assert len(find_marked(two)) == 2
    for inst, m, flags in ((one, 4, ()), (two, 4, ("unguaranteed",)),
                           (none, 3, ("unguaranteed", "no_marked"))):
        mask_calls.clear()
        rep = run_algorithm(inst, m, 2, t2)
        assert len(mask_calls) == 1, (inst.family_tag, t2)
        assert rep.flags == flags
    assert rep.success_probability == rep.overlap_w == 0.0


def test_phase_flip_negates_the_given_rows():
    """apply_phase_flip(amps, rows) against a flip of the rows whose
    subset holds either of two overlapping marked sets, read as sets."""
    ctx = get_context(9, 4)
    marked = [MarkedSet((1, 2)), MarkedSet((2, 6))]
    amps = np.asfortranarray(random_unit((ctx.num_a, 5),
                                         np.random.default_rng(4)))
    expect = amps.copy()
    for r, subset in enumerate(ctx.subsets_a.tolist()):
        if any(set(ms.indices) <= set(subset) for ms in marked):
            expect[r] *= -1.0
    rows = np.flatnonzero(ctx.marked_row_mask(marked))
    assert apply_phase_flip(amps, rows) is amps
    assert np.array_equal(amps, expect)
    assert 0 < len(rows) < ctx.num_a


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
    marked = find_marked(inst)[0].indices
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
        relabeled = ProblemInstance(n=8, l=2, mode=ITEM, values=new_vals,
                                    family_tag="custom", property_params={},
                                    predicate=inst.predicate)
        assert find_marked(relabeled)[0].indices == marked
        got = run_algorithm(relabeled, 3, 2, 2).success_probability
        assert abs(got - base) < 1e-12


def test_report_serialization():
    inst = make_family("element-distinctness", n=9, seed=1)
    d = json.loads(dumps_report(run_algorithm(inst, 4, 1, 1)))
    assert list(d) == ["n", "m", "l", "t1", "t2", "mode", "engine",
                       "success_probability", "overlap_w", "query_count",
                       "flags"]
    assert d["engine"] == "full"
