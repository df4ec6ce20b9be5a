"""Exact walk dynamics in the symmetric subspace, of dimension at most 2l+1.

The walk and the phase flip preserve the span of the symmetric states
labeled (j, p): j marked elements in the subset, the coin inside (p=1)
or outside (p=0) the marked set, one label per class that holds pairs
(2l+1 when n-m > l, else 2(n-m)).  Each coin is a Grover diffusion on
groups of labels, weighted by class size; the second is built as S C2 S.
W is real orthogonal and tiny, so a run is two matrix powers, within
t1*t2*2^-52 of a 45-digit reference (1.7e-11 up to n=10^8, 6.4e-8 at
10^12); past that bound's 1e-6 a run is refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithm import RunReport, scan_flags
from .combinat import norm_constants
from .cost_model import ITEM, oracle_queries


@dataclass(frozen=True)
class ReducedBasis:
    """The class table at (n, m, l), the one statement of the (j, p) form:
    labels, the nonempty classes, and dim, their number; weights, their
    exact weights over total; coin1 and coin2, each coin's groups of
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
            weights=tuple(weights[x] for x in labels),
            marked=labels.index((l, 0)),
            coin1=groups(*[(((j, 0), n - m - (l - j)), ((j, 1), l - j))
                           for j in range(l)], (((l, 0), n - m),)),
            coin2=groups((((0, 0), m + 1),),
                         *[(((j, 0), m + 1 - j), ((j - 1, 1), j))
                           for j in range(1, l + 1)]))

    def index(self, j: int, p: int) -> int:
        return self.labels.index((j, p))


def _diffusion(dim: int, groups) -> np.ndarray:
    """2vv^T - I on each group of (index, count) pairs, where v holds the
    square roots of the counts over the group's total."""
    out = np.zeros((dim, dim))
    for group in groups:
        t = sum(count for _, count in group)
        for a, wa in group:
            # +-(1 - 2x) with x the smaller integer share: within an ulp
            diag = 1.0 - 2.0 * (min(wa, t - wa) / t)
            out[a, a] = diag if 2 * wa >= t else -diag
            for b, wb in group:
                if b != a:
                    out[a, b] = 2.0 * math.sqrt(wa * wb) / t
    return out


def coin1_matrix(basis: ReducedBasis) -> np.ndarray:
    """C1, the diffusion over the coins outside the subset."""
    return _diffusion(basis.dim, basis.coin1)


def coin2_matrix(basis: ReducedBasis) -> np.ndarray:
    """S C2 S, the diffusion over the elements of the union A + coin."""
    return _diffusion(basis.dim, basis.coin2)


def build_walk_matrix(basis: ReducedBasis) -> np.ndarray:
    """One walk step (S C2 S) C1 as a real orthogonal matrix on the labels."""
    return coin2_matrix(basis) @ coin1_matrix(basis)


def reduced_s(basis: ReducedBasis) -> np.ndarray:
    """The uniform start state: amplitude sqrt(c_{j,p} / c_total) per label."""
    return np.array([math.sqrt(w / basis.total) for w in basis.weights])


def _walk_then_flip(basis: ReducedBasis, t1: int, flip: bool = True):
    """U = W^t1 P: W^t1 with its marked column negated unless P = 1."""
    u = np.linalg.matrix_power(build_walk_matrix(basis), t1)
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
    are refused, as is a run past the error bound; with none, P = 1.  The
    query count is modeled: the full algorithm's in the given oracle mode."""
    if found is not None and len(found) > 1:
        raise ValueError(
            f"the scan found {len(found)} marked sets, but the reduced engine "
            f"models exactly one; use the full engine (--engine full)")
    if found:
        _check_size(basis, found[0])
    if t1 < 0 or t2 < 0:  # matrix_power would invert W
        raise ValueError("t1, t2 must be nonnegative")
    if t1 * t2 > 1e-6 * 2 ** 52:
        raise ValueError(f"the reduced engine refuses n={basis.n}, l={basis.l}: "
                         f"its t1*t2 = {t1 * t2} float walk steps put the error "
                         f"bound t1*t2*2^-52 past 1e-06")
    marked = found is None or len(found) == 1
    u = _walk_then_flip(basis, t1, marked)
    state = np.linalg.matrix_power(u, t2) @ reduced_s(basis)
    overlap_w = float(state[basis.marked] ** 2) if marked else 0.0
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
