"""Exact state-vector engine for the subset walk.

The walk runs on (subset, coin) pairs of the bipartite subset graph:
size-m subsets with coins outside (the a-side), and size-(m+1) subsets
with coins inside (the b-side).  Function values are a fixed classical
table, so they are never materialized in the state; oracle queries are
counted where the algorithm would make them.

A walk step S C2 S C1 maps the a-side to itself, and the start state,
the step and the phase flip are real.  So the state is one real array
of shape (num_subsets, num_coins) over the a-pairs, subsets indexed by
colex rank; no b-side buffer exists.  Like the union table, it is
stored slot-major (Fortran order): each coin slot is one contiguous
column.  Coin 1 inverts each subset row about its mean, coin 2 (applied
as S C2 S) the a-pairs (A, k) that share one union A ∪ {k}, found by its
colex rank.  WalkContext takes the sorted subsets from
combinat.colex_table, builds those ranks block by block from the colex
order's prefix property, and reads which elements a subset holds and
which coin sits in a slot off the subsets alone.  The shift S, a
bijection between the a-pairs and the b-pairs, is the reference the
step is checked against.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .algorithm import RunReport, run_walk, scan_flags
from .combinat import colex_table
from .cost_model import ITEM
from .instances import ProblemInstance

# Bytes; admits n <= 27 at the parameter rule's m for l=2 (2.07e9 B at
# n=27, m=9; 3.21e9 B at n=28, m=9).
DEFAULT_MEMCAP = 2 ** 31

_context_cache: dict = {}


def memory_cap() -> int:
    """The byte cap on a WalkContext, from JOHNSON_WALK_MEMCAP or the default."""
    env = os.environ.get("JOHNSON_WALK_MEMCAP")
    return int(env) if env else DEFAULT_MEMCAP


class MemoryCapError(RuntimeError):
    pass


def _bytes_per_subset(n: int, m: int) -> int:
    """A walk's bytes per m-subset: a subsets_a row, then n - m each of int64
    union ranks, float64 amplitudes and embed_to_full's float64 array."""
    return m * np.min_scalar_type(n).itemsize + 3 * 8 * (n - m)


def binomial_upto(n: int, k: int, limit: int) -> int | None:
    """C(n, k) if it is at most limit, else None.  C(n, i) grows with i
    up to n/2, so the product C(n, i) = C(n, i-1) (n-i+1)/i stops at the
    first i past the limit and never forms a count far above it.  As with
    math.comb, C(n, k) is 0 for k > n, and a negative n or k is refused."""
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    count = int(k <= n)
    for i in range(1, min(k, n - k) + 1):
        if count > limit:
            break
        count = count * (n - i + 1) // i
    return count if count <= limit else None


class WalkContext:
    """Precomputed index structure for the (n, m) bipartite walk space.

    subsets_a, combinat.colex_table(n, m), is the (num_a, m) array of
    m-subsets in colex-rank order, each sorted, and union_rank[r, slot]
    the colex rank of the (m+1)-subset A ∪ {k}; both are stored
    slot-major like the state, and they are the only arrays a context
    holds.  The coins of subset r are the elements outside it, in
    increasing order, so the a-pair (r, slot) has coin k = the slot-th
    element missing from subsets_a[r].

    The union ranks follow colex_table's level recursion, over k = 1..m,
    on the k-subsets of {0..n-m+k-1}, each with the same n - m coin
    slots.  The block of k-subsets with largest element c, rows
    [C(c, k), C(c+1, k)), is the previous level's first rows with c
    appended; its first c-k+1 coins lie below c, so its union ranks there
    are the previous level's plus C(c, k+1).  The coin c of the C(c, k)
    rows before the block sits in slot c-k, with union rank C(c, k+1) +
    row.  Every level is a prefix of the final array, and the blocks are
    written from the largest c down, so that no block overwrites rows a
    smaller c still reads.
    """

    def __init__(self, n: int, m: int):
        if not 1 <= m < n:
            raise ValueError(f"need 1 <= m < n, got n={n}, m={m}")
        cap, per_subset = memory_cap(), _bytes_per_subset(n, m)
        # the count stops past the cap and 10^18 bytes: C(n, m) in full
        # alone took over a minute at n=10^8 (and str() refuses it)
        num_a = binomial_upto(n, m, max(cap, 10 ** 18) // per_subset)
        need = "over 10^18" if num_a is None else num_a * per_subset
        if num_a is None or need > cap:
            raise MemoryCapError(
                f"the walk at n={n}, m={m} needs {need} bytes, cap is {cap} "
                f"(set JOHNSON_WALK_MEMCAP to override)")
        self.n, self.m = n, m
        self.num_a = num_a
        self.num_b = math.comb(n, m + 1)
        self.dim_a = self.num_a * (n - m)
        self.dim_b = self.num_b * (m + 1)  # equals dim_a: shift is a bijection

        width = n - m
        union = np.empty((self.num_a, width), np.int64, order="F")
        union[0] = np.arange(width)  # level 0: the rank of {k} is k
        row = np.arange(self.num_a, dtype=np.int64)
        for k in range(1, m + 1):
            for c in range(width + k - 1, k - 2, -1):
                lo, hi, below = math.comb(c, k), math.comb(c + 1, k), c - k + 1
                np.add(union[:hi - lo, :below], math.comb(c, k + 1),
                       out=union[lo:hi, :below])
            for c in range(k, width + k):
                lo = math.comb(c, k)
                np.add(row[:lo], math.comb(c, k + 1), out=union[:lo, c - k])
        self.subsets_a, self.union_rank = colex_table(n, m), union

    @property
    def shift_map(self) -> np.ndarray:
        """Flat b-pair index (union rank * (m + 1) + position of k in the
        union) of each a-pair: S maps (A, k) to (A ∪ {k}, k).  Computed on
        demand; k sits at index pos = k - slot of the sorted union."""
        pos = self.at_coins(np.arange(self.n)) - np.arange(self.n - self.m)
        return (self.union_rank * (self.m + 1) + pos).reshape(-1)

    def at_coins(self, values) -> np.ndarray:
        """values[k] at the coin k of every a-pair, shape (num_a, n - m),
        slot-major.  The coin in slot s is s plus the number of subset
        elements below it; the element a_i in slot i has a_i - i coins
        below it, so it lies below that coin iff a_i - i <= s.  One slot
        column at a time, in the subsets' narrow dtype."""
        values = np.asarray(values)
        out = np.empty((self.num_a, self.n - self.m), values.dtype, order="F")
        coin = np.empty(self.num_a, self.subsets_a.dtype)
        for s in range(self.n - self.m):
            coin.fill(s)
            for i, column in enumerate(self.subsets_a.T):
                coin += column <= s + i
            # every coin is below n, so "clip" never clips; it writes
            # straight into out, where the default mode buffers
            values.take(coin, out=out[:, s], mode="clip")
        return out

    def count_in(self, elements) -> np.ndarray:
        """How many of the distinct elements each m-subset holds, by rank.
        Slot s of a sorted subset holds an element in [s, s + n - m], so
        element i is looked for in those slots only."""
        count = np.zeros(self.num_a, self.subsets_a.dtype)
        for i in elements:
            for s in range(max(0, i - (self.n - self.m)), min(self.m, i + 1)):
                count += self.subsets_a[:, s] == i
        return count

    def marked_row_mask(self, marked_sets) -> np.ndarray:
        """Boolean mask over a-side subset ranks: contains a marked subset."""
        mask = np.zeros(self.num_a, dtype=bool)
        for ms in marked_sets:
            mask |= self.count_in(ms.indices) == len(ms.indices)
        return mask


def get_context(n: int, m: int) -> WalkContext:
    """The WalkContext for (n, m); only the most recent one is kept."""
    if (n, m) not in _context_cache:
        _context_cache.clear()
        _context_cache[(n, m)] = WalkContext(n, m)
    return _context_cache[(n, m)]


@dataclass
class FullState:
    """A run's record: the a-pair amplitudes the kernels act on, and the
    query count that prepare_s and apply_walk_step charge by hand, since
    query-accounting-exact checks it against oracle_queries' closed form."""
    ctx: WalkContext
    amps: np.ndarray
    query_count: int = 0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def prepare_s(instance: ProblemInstance, m: int) -> FullState:
    """Uniform superposition over the a-pairs (A, k); loading A costs m
    oracle queries in item mode, C(m, 2) in pairwise mode."""
    if not instance.l <= m < instance.n:
        raise ValueError(f"need l <= m < n, got l={instance.l}, m={m}, n={instance.n}")
    ctx = get_context(instance.n, m)
    amps = np.full((ctx.num_a, ctx.n - ctx.m), 1.0 / np.sqrt(ctx.dim_a),
                   order="F")
    return FullState(ctx, amps, m if instance.mode == ITEM else math.comb(m, 2))


def apply_coin1(amps: np.ndarray) -> np.ndarray:
    """Grover diffusion over the coins k outside each m-subset: each row
    loses twice its mean, in place; the row sums are one matvec."""
    amps -= (amps @ np.full(amps.shape[1], 2.0 / amps.shape[1]))[:, None]
    return amps


def apply_coin2(ctx: WalkContext, amps: np.ndarray) -> np.ndarray:
    """Grover diffusion over the coins k inside each (m+1)-subset, seen from
    the a-side: S C2 S, in place on real a-side amplitudes.  Each a-pair
    (A, k) loses 2/(m+1) times the sum over the m+1 a-pairs with its union
    A ∪ {k}: one bincount in slot-major order (no copy of the engine's
    state), then a gather per slot column, so that no state-sized temporary
    is made."""
    sums = np.bincount(ctx.union_rank.ravel("F"), weights=amps.ravel("F"),
                       minlength=ctx.num_b)
    sums *= 2.0 / (ctx.m + 1)
    # take(out=) copies through a buffer of its own in the default
    # mode="raise"; every rank is below num_b, so "wrap" never wraps.
    gathered = np.empty(len(amps))
    for column, ranks in zip(amps.T, ctx.union_rank.T):
        column -= sums.take(ranks, out=gathered, mode="wrap")
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
    apply_coin1(state.amps)
    apply_coin2(state.ctx, state.amps)
    state.query_count += 2 if instance.mode == ITEM else 2 * state.ctx.m
    return state


def apply_phase_flip(amps: np.ndarray, rows) -> np.ndarray:
    """P: negate the given a-side subset rows in place; zero queries.  The
    rows are integer ranks, found once per run from marked_row_mask."""
    amps[rows] *= -1.0
    return amps


def run_algorithm(instance: ProblemInstance, m: int, t1: int, t2: int) -> RunReport:
    """Run (W^t1 P)^t2 on the uniform start state, exactly.

    The rows of the m-subsets holding one of instance.marked_sets, found
    once: each flip negates them, and success_probability sums |amp|^2
    over them (0.0 if none).  overlap_w is |<A_{l,0}|psi>|^2, the marked
    block's sum squared over its size, since that block of |s> is uniform.
    The query count is the state's running counter.
    """
    found = instance.marked_sets
    state = prepare_s(instance, m)
    rows = np.flatnonzero(state.ctx.marked_row_mask(found))

    def flip(s):
        apply_phase_flip(s.amps, rows)
        return s

    state = run_walk(state, t1, t2, flip,
                     step=lambda s: apply_walk_step(s, instance))

    block = state.amps[rows]
    success = float(np.sum(block ** 2))
    overlap_w = float(block.sum() ** 2 / block.size) if block.size else 0.0

    return RunReport(n=instance.n, m=m, l=instance.l, t1=t1, t2=t2,
                     mode=instance.mode, engine="full",
                     success_probability=success, overlap_w=overlap_w,
                     query_count=state.query_count, flags=scan_flags(found),
                     final_state=state)
