"""Exact walk dynamics in the symmetric subspace, of dimension at most 2l+1.

The walk and the phase flip preserve the span of the symmetric states
labeled (j, p): j marked elements in the subset, the coin inside (p=1)
or outside (p=0) the marked set, one label per class that holds pairs
(2l+1 when n-m > l, else 2(n-m)).  Each coin, C + Delta with C =
diag((-1)^p), is a Grover diffusion on groups of labels weighted by class
size (the second as S C2 S).  W = I + E is orthogonal and tiny, so a run
is two matrix powers, the first in I + E form, within run_reduced's bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithm import RunReport, scan_flags
from .combinat import norm_constants
from .cost_model import ITEM, oracle_queries, walk_steps


@dataclass(frozen=True)
class ReducedBasis:
    """The class table at (n, m, l), the one statement of the (j, p) form:
    labels, the nonempty classes, and dim, their number; weights, their
    exact weights over total; signs, each label's c = (-1)^p, the diagonal
    of C, the +-1 part of both coins; coin1 and coin2, each coin's groups of
    (label index, count), the counts small integers in the ratio of the
    weights (coin 1 splits the coins outside a subset, coin 2 the members
    of a union); marked, the index of (l, 0)."""
    n: int
    m: int
    l: int

    def __post_init__(self):
        n, m, l = self.n, self.m, self.l
        weights, total = norm_constants(n, m, l)
        labels = tuple(label for label, w in weights.items() if w > 0)

        def groups(*spec):  # the empty classes dropped
            found = (tuple((labels.index(x), c) for x, c in g if x in labels)
                     for g in spec)
            return tuple(g for g in found if g)

        vars(self).update(  # frozen: set once, here
            labels=labels, dim=len(labels), total=total,
            signs=tuple(1 - 2 * p for _, p in labels),
            weights=tuple(weights[x] for x in labels),
            marked=labels.index((l, 0)),
            coin1=groups(*[(((j, 0), n - m - (l - j)), ((j, 1), l - j))
                           for j in range(l)], (((l, 0), n - m),)),
            coin2=groups((((0, 0), m + 1),),
                         *[(((j, 0), m + 1 - j), ((j - 1, 1), j))
                           for j in range(1, l + 1)]))

    def index(self, j: int, p: int) -> int:
        return self.labels.index((j, p))


def coin_deltas(basis: ReducedBasis) -> tuple[np.ndarray, np.ndarray]:
    """(Delta1, Delta2), each coin less C: C1 = C + Delta1 diffuses the coins
    outside the subset, S C2 S = C + Delta2 the members of the union A +
    coin.  A coin is 2vv^T - I on each group, v the square roots of the
    counts over their total t: Delta's diagonal is one rounding of
    (2 count - (1 + c) t) / t, off it 2 sqrt(count_a count_b) / t."""
    deltas = np.zeros((2, basis.dim, basis.dim))
    for delta, groups in zip(deltas, (basis.coin1, basis.coin2)):
        for group in groups:
            t = sum(count for _, count in group)
            for a, wa in group:
                for b, wb in group:
                    delta[a, b] = (2 * wa - (1 + basis.signs[a]) * t) / t \
                        if a == b else 2.0 * math.sqrt(wa * wb) / t
    return deltas[0], deltas[1]


def build_walk_matrix(basis: ReducedBasis) -> np.ndarray:
    """One walk step (S C2 S) C1 as a real orthogonal matrix on the labels."""
    return _walk_then_flip(basis, 1, False)


def reduced_s(basis: ReducedBasis) -> np.ndarray:
    """The uniform start state: amplitude sqrt(c_{j,p} / c_total) per label."""
    return np.array([math.sqrt(w / basis.total) for w in basis.weights])


def _walk_then_flip(basis: ReducedBasis, t1: int, flip: bool = True):
    """U = W^t1 P.  W = (C + Delta2)(C + Delta1) = I + E, E = C Delta1 +
    Delta2 C + Delta2 Delta1 as C^2 = I, is powered by squaring in I + E
    form, (I + a)(I + b) = I + (a + b + ab), so no product rounds E's low
    digits against I; I is added once, then column (l, 0) negated if P."""
    (delta1, delta2), c = coin_deltas(basis), np.array(basis.signs, float)
    e = c[:, None] * delta1 + delta2 * c + delta2 @ delta1
    acc = np.zeros_like(e)
    while t1:
        if t1 & 1:
            acc += e + acc @ e
        t1 >>= 1
        if t1:
            e = 2.0 * e + e @ e
    u = np.eye(basis.dim) + acc
    u[:, basis.marked] *= -1.0 if flip else 1.0
    return u


def _check_size(basis: ReducedBasis, marked):
    if len(marked.indices) != basis.l:
        raise ValueError(f"the marked set has {len(marked.indices)} elements, "
                         f"but the reduced basis is for l={basis.l}")


def run_reduced(basis: ReducedBasis, t1: int, t2: int, found=None,
                mode: str = ITEM) -> RunReport:
    """Apply (W^t1 P)^t2 to the start state as U^t2 s.  found is the
    instance's marked_sets (None: no scan, one l-set assumed).  The
    subspace models one marked l-set, so several, or one of another size,
    are refused; with none, P = 1.  overlap_w is |<w|U^t2 s>|^2 over the
    squared norm, so at most 1.  The query count is modeled: the full
    algorithm's in the given oracle mode.  The error bound, 4 (t2 + 64)
    max(1, t1 / the rule's t1) 2^-52, is over 4 times the worst overlap_w
    error against a 45-digit reference (n to 10^24, l to 6, t1 to 1000
    times the rule's); a run whose bound passes 1e-6 is refused."""
    if found is not None and len(found) > 1:
        raise ValueError(
            f"the scan found {len(found)} marked sets, but the reduced engine "
            f"models exactly one; use the full engine (--engine full)")
    if found:
        _check_size(basis, found[0])
    if t1 < 0 or t2 < 0:  # the powers take no inverse
        raise ValueError("t1, t2 must be nonnegative")
    rule = walk_steps(basis.m, basis.l)
    bound = 4 * (t2 + 64) * max(1.0, t1 / rule) * 2.0 ** -52
    if bound > 1e-6:
        raise ValueError(f"the reduced engine refuses n={basis.n}, l={basis.l}: "
                         f"its error bound 4*(t2+64)*max(1, t1/{rule})*2^-52 "
                         f"= {bound:.3e} at t1={t1}, t2={t2} passes 1e-06")
    marked = found is None or len(found) == 1
    u = _walk_then_flip(basis, t1, marked)
    state = np.linalg.matrix_power(u, t2) @ reduced_s(basis)
    squares = state ** 2
    overlap_w = float(squares[basis.marked] / squares.sum()) if marked else 0.0
    return RunReport(n=basis.n, m=basis.m, l=basis.l, t1=t1, t2=t2,
                     mode=mode, engine="reduced",
                     success_probability=overlap_w, overlap_w=overlap_w,
                     query_count=oracle_queries(basis.m, t1, t2, mode),
                     flags=("modeled_queries",) + scan_flags(found),
                     final_state=state)


def embed_to_full(state: np.ndarray, basis: ReducedBasis, marked,
                  ctx) -> np.ndarray:
    """The full engine's a-side amplitudes of a reduced state, shape
    (num_a, n - m): each (j, p) amplitude spread uniformly over its c_{j,p}
    legal pairs.  marked is the MarkedSet, and ctx the full engine's
    WalkContext at (n, m)."""
    if (ctx.n, ctx.m) != (basis.n, basis.m):
        raise ValueError(f"context is for (n, m) = ({ctx.n}, {ctx.m}), "
                         f"basis for ({basis.n}, {basis.m})")
    _check_size(basis, marked)
    # amp[j, p]; (l, 1) and the empty classes hold no pair and keep 0
    amp = np.zeros((basis.l + 1, 2))
    for idx, ((j, p), w) in enumerate(zip(basis.labels, basis.weights)):
        # exact: ctx.dim_a = C(n, m) (n-m) = c_total
        amp[j, p] = state[idx] / math.sqrt(w * ctx.dim_a // basis.total)
    in_marked = np.zeros(basis.n, dtype=np.uint8)
    in_marked[list(marked.indices)] = 1
    return amp[ctx.count_in(marked.indices)[:, None], ctx.at_coins(in_marked)]
