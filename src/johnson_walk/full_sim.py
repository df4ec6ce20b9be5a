"""Exact state-vector engine for the subset walk.

The walk runs on (subset, coin) pairs of the bipartite subset graph:
size-m subsets with coins outside (the a-side), and size-(m+1) subsets
with coins inside (the b-side).  Function values are a fixed classical
table, so they are never materialized in the state; oracle queries are
counted where the algorithm would make them.

A walk step S C2 S C1 maps the a-side to itself, and the start state,
the step and the phase flip are real.  So the state is one real array
of shape (num_subsets, num_coins) over the a-pairs, subsets indexed by
colex rank; no b-side buffer exists.  Coin 1 inverts each subset row
about its mean, coin 2 (applied as S C2 S) the a-pairs (A, k) that share
one union A ∪ {k}, found by its precomputed colex rank.  The shift S, a
bijection between the a-pairs and the b-pairs, is the reference the step
is checked against.  The kernels take complex arrays as well.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .algorithm import RunReport, run_walk, scan_flags
from .combinat import binomial
from .instances import ITEM, MarkedSet, ProblemInstance, find_marked

# Bytes; admits n <= 26 at the parameter rule's m for l=2 (1.47 GiB at
# n=26, m=9; 2.32 GiB at n=27, m=9).
DEFAULT_MEMCAP = 2 ** 31

# Rows per block of coin 2's update: a block's gather stays in L2 (about
# 213 KB at n=20); 8k-128k amplitudes a block all ran about as fast.
_COIN2_BLOCK_ROWS = 2048

_context_cache: dict = {}


def memory_cap() -> int:
    """The byte cap on walk_bytes, from JOHNSON_WALK_MEMCAP or the default."""
    env = os.environ.get("JOHNSON_WALK_MEMCAP")
    return int(env) if env else DEFAULT_MEMCAP


class MemoryCapError(RuntimeError):
    pass


def walk_bytes(n: int, m: int) -> int:
    """Bytes held for a walk at (n, m), from the sizes alone: subsets_a
    (int64) and member (bool) per subset, then union_rank (int64), the
    float64 state and one more state-sized float64 array, dim_a entries
    each.  The walk step makes none, but FullState.norm, measure_sample
    and reduced_sim.embed_to_full each make one."""
    num_a = binomial(n, m)
    return num_a * (8 * m + n) + 3 * 8 * num_a * (n - m)


def _colex_subsets(n: int, m: int) -> np.ndarray:
    """All m-subsets of {0..n-1}, sorted ascending, as rows in colex-rank order.

    In colex order the k-subsets with largest element c come right after
    all those with a smaller largest element, and their first k-1 entries
    run through the (k-1)-subsets of {0..c-1}: a prefix of the previous
    table.  Level k only needs largest elements below n-m+k.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, m + 1):
        rows = np.concatenate([
            np.column_stack([rows[:binomial(c, k - 1)],
                             np.full(binomial(c, k - 1), c, dtype=np.int64)])
            for c in range(k - 1, n - m + k)])
    return rows


def _binomial_table(n: int, k_max: int) -> np.ndarray:
    """table[x, y] = C(x, y) for x <= n, y <= k_max, as int64.

    Entries too large for int64 are clipped; none is ever indexed, since
    every lookup is one term of a colex rank below C(n, m+1), which the
    memory cap keeps small.
    """
    big = np.iinfo(np.int64).max
    return np.array([[min(binomial(x, y), big) for y in range(k_max + 1)]
                     for x in range(n + 1)], dtype=np.int64)


class WalkContext:
    """Precomputed index structure for the (n, m) bipartite walk space.

    subsets_a is the (num_a, m) array of m-subsets in colex-rank order and
    member[r, k] says whether element k lies in subset r.  The coins of
    subset r are the elements outside it, in increasing order, so the
    a-pair (r, slot) has coin k = the slot-th False of member[r].
    union_rank holds, per a-pair in flat order (r * (n - m) + slot), the
    colex rank of the (m+1)-subset A ∪ {k}.
    """

    def __init__(self, n: int, m: int):
        if not 1 <= m < n:
            raise ValueError(f"need 1 <= m < n, got n={n}, m={m}")
        need, cap = walk_bytes(n, m), memory_cap()
        if need > cap:
            raise MemoryCapError(
                f"the walk at n={n}, m={m} needs {need} bytes, cap is {cap} "
                f"(set JOHNSON_WALK_MEMCAP to override)")
        self.n, self.m = n, m
        self.num_a = binomial(n, m)
        self.num_b = binomial(n, m + 1)
        self.dim_a = self.num_a * (n - m)
        self.dim_b = self.num_b * (m + 1)  # equals dim_a: shift is a bijection

        self.subsets_a = _colex_subsets(n, m)
        self.member = np.zeros((self.num_a, n), dtype=bool)
        np.put_along_axis(self.member, self.subsets_a, True, axis=1)

        # With pos = #{a in A : a < k} = k - slot, the colex rank of A ∪ {k} is
        #   sum_{i<pos} C(a_i, i+1) + C(k, pos+1) + sum_{i>=pos} C(a_i, i+2)
        table = _binomial_table(n, m + 1)
        cols = np.arange(m)
        low = table[self.subsets_a, cols + 1]
        high = table[self.subsets_a, cols + 2]
        # outer[r, p] = sum_{i<p} low[r, i] + sum_{i>=p} high[r, i]
        outer = np.zeros((self.num_a, m + 1), dtype=np.int64)
        outer[:, 1:] = np.cumsum(low, axis=1)
        outer[:, :-1] += np.cumsum(high[:, ::-1], axis=1)[:, ::-1]
        del low, high
        # coins and pos are the build's only (num_a, n-m) temporaries
        # besides the result, so they take the narrowest dtype that holds n
        small = np.min_scalar_type(n)
        coins = self.at_coins(np.arange(n, dtype=small))
        pos = coins - np.arange(n - m, dtype=small)
        union = np.take_along_axis(outer, pos, axis=1)
        del outer
        union += table[coins, pos + 1]
        self.union_rank = union.reshape(-1)

    @property
    def shift_map(self) -> np.ndarray:
        """Flat b-pair index (union rank * (m + 1) + position of k in the
        union) of each a-pair: S maps (A, k) to (A ∪ {k}, k).  Computed on
        demand; k sits at index pos = k - slot of the sorted union."""
        pos = self.at_coins(np.arange(self.n)) - np.arange(self.n - self.m)
        return self.union_rank * (self.m + 1) + pos.reshape(-1)

    def at_coins(self, values) -> np.ndarray:
        """values[k] at the coin k of every a-pair, shape (num_a, n - m)."""
        picked = np.broadcast_to(values, self.member.shape)[~self.member]
        return picked.reshape(self.num_a, self.n - self.m)

    def marked_row_mask(self, marked_sets) -> np.ndarray:
        """Boolean mask over a-side subset ranks: contains a marked subset."""
        mask = np.zeros(self.num_a, dtype=bool)
        for ms in marked_sets:
            mask |= self.member[:, list(ms.indices)].all(axis=1)
        return mask


def get_context(n: int, m: int) -> WalkContext:
    """The WalkContext for (n, m); only the most recent one is kept."""
    if (n, m) not in _context_cache:
        _context_cache.clear()
        _context_cache[(n, m)] = WalkContext(n, m)
    return _context_cache[(n, m)]


@dataclass
class FullState:
    """Amplitudes over the a-pairs plus the oracle-query counter."""
    ctx: WalkContext
    amps: np.ndarray
    query_count: int = 0

    def copy(self) -> "FullState":
        return FullState(self.ctx, self.amps.copy(), self.query_count)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))


def prepare_s(instance: ProblemInstance, m: int) -> FullState:
    """Uniform superposition over all legal (A, k) pairs on the m-side.

    Costs m oracle queries in item mode, C(m, 2) in pairwise mode.
    """
    if not instance.l <= m < instance.n:
        raise ValueError(f"need l <= m < n, got l={instance.l}, m={m}, n={instance.n}")
    ctx = get_context(instance.n, m)
    amps = np.full((ctx.num_a, ctx.n - ctx.m), 1.0 / np.sqrt(ctx.dim_a))
    return FullState(ctx, amps, m if instance.mode == ITEM else binomial(m, 2))


def apply_coin1(state: FullState) -> FullState:
    """Grover diffusion over the coins k outside each m-subset: each row
    loses twice its mean, in place; the row sums are one matvec."""
    x = state.amps
    x -= (x @ np.full(x.shape[1], 2.0 / x.shape[1]))[:, None]
    return state


def apply_coin2(ctx: WalkContext, amps: np.ndarray) -> np.ndarray:
    """Grover diffusion over the coins k inside each (m+1)-subset, seen from
    the a-side: S C2 S, in place on a-side amplitudes.  Each a-pair (A, k)
    loses 2/(m+1) times the sum over the m+1 a-pairs with its union A ∪ {k}."""
    weights = amps.reshape(-1)
    sums = np.bincount(ctx.union_rank, weights=weights.real, minlength=ctx.num_b)
    if np.iscomplexobj(amps):
        sums = sums + 1j * np.bincount(ctx.union_rank, weights=weights.imag,
                                       minlength=ctx.num_b)
    sums *= 2.0 / (ctx.m + 1)
    # Block by block, so that no state-sized gather is made; row slices
    # are views in any layout, so the update stays in place.
    union = ctx.union_rank.reshape(amps.shape)
    for a in range(0, len(amps), _COIN2_BLOCK_ROWS):
        b = a + _COIN2_BLOCK_ROWS
        amps[a:b] -= sums.take(union[a:b])
    return amps


def apply_shift(ctx: WalkContext, amps: np.ndarray,
                back: bool = False) -> np.ndarray:
    """S, which swaps each pair (A, k) with (A ∪ {k}, k): a-side amplitudes
    to a new b-side buffer of shape (num_b, m + 1), or with back=True the
    reverse; the reference apply_coin2 is checked against.  shift_map is a
    bijection between the sides, so the scatter fills all of np.empty."""
    shift_map = ctx.shift_map
    if back:
        return amps.reshape(-1)[shift_map].reshape(ctx.num_a, ctx.n - ctx.m)
    buf = np.empty(ctx.dim_b, dtype=amps.dtype)
    buf[shift_map] = amps.reshape(-1)
    return buf.reshape(ctx.num_b, ctx.m + 1)


def apply_walk_step(state: FullState, instance: ProblemInstance) -> FullState:
    """One walk step S C2 S C1, in place; +2 queries (item) or +2m (pairwise)."""
    apply_coin1(state)
    apply_coin2(state.ctx, state.amps)
    state.query_count += 2 if instance.mode == ITEM else 2 * state.ctx.m
    return state


def apply_phase_flip(state: FullState, marked) -> FullState:
    """Negate amplitudes on m-subsets containing a marked set; zero queries."""
    if isinstance(marked, MarkedSet):
        marked = [marked]
    rows = np.flatnonzero(state.ctx.marked_row_mask(marked))
    state.amps[rows] *= -1.0
    return state


def run_algorithm(instance: ProblemInstance, m: int, t1: int, t2: int) -> RunReport:
    """Run (W^t1 P)^t2 on the uniform start state, exactly.

    success_probability sums |amp|^2 over m-subsets containing a marked
    set; overlap_w is |<A_{l,0}|psi>|^2, the marked block's sum squared
    over its size, since that block of |s> is uniform.  The query count is
    the state's running counter.
    """
    found = find_marked(instance)
    marked = list(found.all_marked)
    state = run_walk(prepare_s(instance, m), t1, t2,
                     flip=lambda s: apply_phase_flip(s, marked),
                     step=lambda s: apply_walk_step(s, instance))

    if found.count:
        block = state.amps[np.flatnonzero(state.ctx.marked_row_mask(marked))]
        success = float(np.sum(np.abs(block) ** 2))
        overlap_w = float(np.abs(block.sum()) ** 2 / block.size) if block.size else 0.0
    else:
        success, overlap_w = 0.0, 0.0

    return RunReport(n=instance.n, m=m, l=instance.l, t1=t1, t2=t2,
                     mode=instance.mode, engine="full",
                     success_probability=success, overlap_w=overlap_w,
                     query_count=state.query_count, flags=scan_flags(found),
                     final_state=state)


def measure_sample(state: FullState, seed: int, draws: int | None = None):
    """Sample (subset, coin) pairs from the |amp|^2 distribution.

    Returns a single (subset, coin) for draws=None, else a list.
    """
    ctx = state.ctx
    flat = np.abs(state.amps.reshape(-1)) ** 2
    flat /= flat.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(flat.size, size=draws if draws else 1, p=flat)

    out = [(tuple(int(k) for k in ctx.subsets_a[r]),
            int(np.flatnonzero(~ctx.member[r])[slot]))
           for r, slot in zip(*np.divmod(picks, ctx.n - ctx.m))]
    return out if draws else out[0]
