"""Exact walk dynamics in the symmetric subspace, of dimension at most 2l+1.

The walk and the phase flip preserve the span of the symmetric states
labeled (j, p): j elements of the marked set inside the walking
subset, coin inside (p=1) or outside (p=0) the marked set.  Only the
classes that hold pairs are labels: all 2l+1 when n-m > l, 2(n-m)
otherwise.  Each coin is a Grover diffusion 2vv^T - I on groups of these
labels, weighted by class size; the second is built as S C2 S, so both
act on the same labels.  W is real orthogonal and tiny, so a run is two
matrix powers, within t1*t2*2^-52 of a 45-digit reference (1.7e-11 up to
n=10^8, 6.4e-8 at 10^12); past that bound's 1e-6 a run is refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithm import RunReport, scan_flags
from .combinat import norm_constants, symmetric_ratio
from .cost_model import oracle_queries
from .instances import ITEM, MarkedSet


@dataclass(frozen=True)
class ReducedBasis:
    """Walk sizes and the ordered (j, p) labels of the nonempty classes."""
    n: int
    m: int
    l: int
    labels: tuple = field(init=False)

    def __post_init__(self):
        weights, _ = norm_constants(self.n, self.m, self.l)
        object.__setattr__(self, "labels",
                           tuple(label for label, w in weights.items() if w > 0))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, j: int, p: int) -> int:
        return self.labels.index((j, p))


def _diffusion(basis: ReducedBasis, groups) -> np.ndarray:
    """2vv^T - I on each group of ((j, p), weight) pairs, where v holds the
    square roots of the weights over the group's total.  The groups cover
    every label; members outside the basis (empty classes) are dropped.
    """
    out = np.zeros((basis.dim, basis.dim))
    for group in groups:
        group = [(label, w) for label, w in group if label in basis.labels]
        idx = [basis.index(j, p) for (j, p), _ in group]
        weights = [w for _, w in group]
        t = sum(weights)
        for a, wa in zip(idx, weights):
            # +-(1 - 2x) with x the smaller integer share: within an ulp
            diag = 1.0 - 2.0 * (min(wa, t - wa) / t)
            out[a, a] = diag if 2 * wa >= t else -diag
            for b, wb in zip(idx, weights):
                if b != a:
                    out[a, b] = 2.0 * math.sqrt(wa * wb) / t
    return out


def coin1_matrix(basis: ReducedBasis) -> np.ndarray:
    """C1, the diffusion over the n-m coins outside the subset: for each
    j < l, the coin is unmarked (j, 0) or marked (j, 1) in the ratio
    n-m-(l-j) : l-j.  At j = l every coin is unmarked."""
    n, m, l = basis.n, basis.m, basis.l
    groups = [(((j, 0), n - m - (l - j)), ((j, 1), l - j)) for j in range(l)]
    return _diffusion(basis, groups + [(((l, 0), n - m),)])


def coin2_matrix(basis: ReducedBasis) -> np.ndarray:
    """S C2 S, the diffusion over the m+1 elements of the union A + coin, on
    the (j, p) labels.  A union holding j >= 1 marked elements is reached
    from (j, 0) or (j-1, 1) in the ratio m+1-j : j; with none, from (0, 0)."""
    m, l = basis.m, basis.l
    groups = [(((j, 0), m + 1 - j), ((j - 1, 1), j)) for j in range(1, l + 1)]
    return _diffusion(basis, [(((0, 0), m + 1),)] + groups)


def build_walk_matrix(basis: ReducedBasis) -> np.ndarray:
    """One walk step (S C2 S) C1 as a real orthogonal matrix on the labels."""
    return coin2_matrix(basis) @ coin1_matrix(basis)


def reduced_s(basis: ReducedBasis) -> np.ndarray:
    """The uniform start state: amplitude sqrt(c_{j,p} / c_total) per label."""
    n, m, l = basis.n, basis.m, basis.l
    return np.array([math.sqrt(symmetric_ratio(n, m, l, j, p))
                     for j, p in basis.labels])


def run_reduced(basis: ReducedBasis, t1: int, t2: int, found=None,
                mode: str = ITEM) -> RunReport:
    """Apply (W^t1 P)^t2 to the start state as U^t2 s, where U = W^t1 P is
    W^t1 with its (l, 0) column negated: the flip acts first.  found is the
    instance's marked_sets (None: no scan, one marked set assumed).  The
    subspace models one marked set, so several are refused, as is a run
    past the error bound; with none, P is the identity.  The query count
    is modeled: the full algorithm's with the given oracle mode.
    """
    if found is not None and len(found) > 1:
        raise ValueError(
            f"the scan found {len(found)} marked sets, but the reduced engine "
            f"models exactly one; use the full engine (--engine full)")
    if t1 < 0 or t2 < 0:  # matrix_power would invert W
        raise ValueError("t1, t2 must be nonnegative")
    if t1 * t2 > 1e-6 * 2 ** 52:
        raise ValueError(f"the reduced engine refuses n={basis.n}, l={basis.l}: "
                         f"its t1*t2 = {t1 * t2} float walk steps put the error "
                         f"bound t1*t2*2^-52 past 1e-06")
    marked = found is None or len(found) == 1
    w_idx = basis.index(basis.l, 0)
    u = np.linalg.matrix_power(build_walk_matrix(basis), t1)
    u[:, w_idx] *= -1.0 if marked else 1.0
    state = np.linalg.matrix_power(u, t2) @ reduced_s(basis)
    overlap_w = float(state[w_idx] ** 2) if marked else 0.0
    return RunReport(n=basis.n, m=basis.m, l=basis.l, t1=t1, t2=t2,
                     mode=mode, engine="reduced",
                     success_probability=overlap_w, overlap_w=overlap_w,
                     query_count=oracle_queries(basis.m, t1, t2, mode),
                     flags=("modeled_queries",) + scan_flags(found),
                     final_state=state)


def embed_to_full(state: np.ndarray, basis: ReducedBasis, marked: MarkedSet,
                  ctx) -> np.ndarray:
    """The full engine's a-side amplitudes of a reduced state, shape
    (num_a, n - m): each (j, p) amplitude spread uniformly over its c_{j,p}
    legal pairs.  ctx is the full engine's WalkContext at (n, m)."""
    if (ctx.n, ctx.m) != (basis.n, basis.m):
        raise ValueError(f"context is for (n, m) = ({ctx.n}, {ctx.m}), "
                         f"basis for ({basis.n}, {basis.m})")
    weights, total = norm_constants(basis.n, basis.m, basis.l)
    # amp[j, p]; (l, 1) and the empty classes hold no pair and keep 0
    amp = np.zeros((basis.l + 1, 2))
    for idx, (j, p) in enumerate(basis.labels):
        # exact: ctx.dim_a = C(n, m) (n-m) = c_total
        amp[j, p] = state[idx] / math.sqrt(weights[(j, p)] * ctx.dim_a // total)
    in_marked = np.zeros(basis.n, dtype=np.uint8)
    in_marked[list(marked.indices)] = 1
    return amp[ctx.count_in(marked.indices)[:, None], ctx.at_coins(in_marked)]
