"""Exact walk dynamics in the (2l+1)-dimensional symmetric subspace.

The walk and the phase flip preserve the span of the symmetric states
labeled (j, p): j elements of the marked set inside the walking
subset, coin inside (p=1) or outside (p=0) the marked set.  The walk
matrix is real orthogonal and tiny, so runs at n up to 10^6 and beyond
are exact and instant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithm import RunReport, run_walk, scan_flags
from .combinat import NormConstants, a_side_labels, b_side_labels, \
    norm_constants, symmetric_ratio
from .cost_model import oracle_queries
from .instances import ITEM, MarkedSet


@dataclass(frozen=True)
class ReducedBasis:
    """Ordered (j, p) labels and the two diffusion weights alpha, beta."""
    n: int
    m: int
    l: int
    labels: tuple = field(init=False)
    alpha: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        if not 1 <= self.l <= self.m < self.n:
            raise ValueError(f"need 1 <= l <= m < n, got n={self.n}, m={self.m}, l={self.l}")
        object.__setattr__(self, "labels", tuple(a_side_labels(self.l)))
        object.__setattr__(self, "alpha", 1.0 / (self.n - self.m))
        object.__setattr__(self, "beta", 1.0 / (self.m + 1))

    @property
    def dim(self) -> int:
        return 2 * self.l + 1

    def index(self, j: int, p: int) -> int:
        return self.labels.index((j, p))

    def constants(self) -> NormConstants:
        return norm_constants(self.n, self.m, self.l)


def _reflection_block(x: float) -> np.ndarray:
    """2x2 Grover block [[1-2x, 2*sqrt(x(1-x))], [., 2x-1]]."""
    off = 2.0 * math.sqrt(max(x * (1.0 - x), 0.0))
    return np.array([[1.0 - 2.0 * x, off], [off, 2.0 * x - 1.0]])


def coin1_matrix(basis: ReducedBasis) -> np.ndarray:
    """Diffusion over coins outside the subset, on the (j, p) labels."""
    l, alpha = basis.l, basis.alpha
    c1 = np.eye(basis.dim)
    for j in range(l):
        i0, i1 = basis.index(j, 0), basis.index(j, 1)
        block = _reflection_block(alpha * (l - j))
        c1[np.ix_([i0, i1], [i0, i1])] = block
    # the (l, 0) label has no partner: 1 - 2*alpha*(l-l) = 1
    return c1


def coin2_matrix_b(basis: ReducedBasis) -> np.ndarray:
    """Diffusion over coins inside the subset, on the b-side labels."""
    l, beta = basis.l, basis.beta
    labels = b_side_labels(l)
    c2 = np.eye(basis.dim)
    for j in range(1, l + 1):
        i0, i1 = labels.index((j, 0)), labels.index((j, 1))
        c2[np.ix_([i0, i1], [i0, i1])] = _reflection_block(beta * j)
    return c2


def shift_permutation(basis: ReducedBasis) -> np.ndarray:
    """Permutation matrix taking a-side labels to b-side labels:
    (j,0) -> (j,0) and (j,1) -> (j+1,1)."""
    labels_b = b_side_labels(basis.l)
    s = np.zeros((basis.dim, basis.dim))
    for a_idx, (j, p) in enumerate(basis.labels):
        target = (j, 0) if p == 0 else (j + 1, 1)
        s[labels_b.index(target), a_idx] = 1.0
    return s


def build_walk_matrix(basis: ReducedBasis) -> np.ndarray:
    """One walk step (S C2 S) C1 as a real orthogonal (2l+1) matrix."""
    c1 = coin1_matrix(basis)
    c2 = coin2_matrix_b(basis)
    s = shift_permutation(basis)
    return s.T @ c2 @ s @ c1


def reduced_s(basis: ReducedBasis) -> np.ndarray:
    """The uniform start state: amplitude sqrt(c_{j,p} / c_total) per label."""
    n, m, l = basis.n, basis.m, basis.l
    return np.array([math.sqrt(symmetric_ratio(n, m, l, j, p))
                     for j, p in basis.labels])


def apply_phase_flip_reduced(state: np.ndarray, basis: ReducedBasis) -> np.ndarray:
    """Negate the (l, 0) amplitude, the only label with the marked set inside."""
    out = state.copy()
    out[basis.index(basis.l, 0)] *= -1.0
    return out


def run_reduced(basis: ReducedBasis, t1: int, t2: int, found=None,
                mode: str = ITEM) -> RunReport:
    """Apply (W^t1 P)^t2 to the start state by repeated multiplication.

    found is the instance's marked-set scan (None: a unique marked set is
    assumed).  The subspace models one marked set, so several are refused;
    with none, P is the identity.  The query count is modeled: it is what
    the full algorithm would spend with the given oracle mode.
    """
    if found is not None and found.kind == "multiple":
        raise ValueError(
            f"the scan found {found.count} marked sets, but the reduced engine "
            f"models exactly one; use the full engine (--engine full)")
    marked = found is None or found.kind == "unique"
    w = build_walk_matrix(basis)
    flip = (lambda s: apply_phase_flip_reduced(s, basis)) if marked else (lambda s: s)
    state = run_walk(reduced_s(basis), t1, t2, flip, w.__matmul__)
    overlap_w = float(state[basis.index(basis.l, 0)] ** 2) if marked else 0.0
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
    nc = basis.constants()
    # weights[j, p]; the label (l, 1) does not exist and keeps weight 0
    weights = np.zeros((basis.l + 1, 2), dtype=np.result_type(state, 1.0))
    for idx, (j, p) in enumerate(basis.labels):
        c = nc.c_jp[(j, p)]
        if c:
            weights[j, p] = state[idx] / math.sqrt(c)
    marked_idx = list(marked.indices)
    j = ctx.member[:, marked_idx].sum(axis=1)
    in_marked = np.zeros(basis.n, dtype=np.intp)
    in_marked[marked_idx] = 1
    return weights[j[:, None], ctx.at_coins(in_marked)]
