"""Exact combinatorics underlying the subset-walk state space.

Everything here is integer arithmetic: binomials, colexicographic
subset ranking, and the exact class weights of the reduced engine's
(j, p) states, built from falling factorials so that no count of all
m-subsets is ever formed.  Nothing is allowed to round or overflow.
"""
from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def rank_subset(subset, n: int) -> int:
    """Colexicographic rank of a sorted subset of {0..n-1}.

    rank = sum_i C(subset[i], i+1), which lies in [0, C(n, len(subset))).
    """
    prev = -1
    for c in subset:
        if not prev < c < n:
            raise ValueError(f"subset {subset} is not sorted/distinct/in range for n={n}")
        prev = c
    return sum(math.comb(c, i + 1) for i, c in enumerate(subset))


def unrank_subset(rank: int, m: int, n: int) -> tuple:
    """Inverse of rank_subset: the m-subset of {0..n-1} with the given colex rank."""
    total = math.comb(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, C({n},{m})={total})")
    out = [0] * m
    r, k = rank, m
    while k > 0:
        n -= 1
        offset = math.comb(n, k)
        if r >= offset:
            r -= offset
            k -= 1
            out[k] = n
    return tuple(out)


def _falling(x: int, k: int) -> int:
    """x (x-1) ... (x-k+1): k factors."""
    out = 1
    for i in range(k):
        out *= x - i
    return out


def a_side_labels(l: int):
    """Ordered (j, p) labels of the 2l+1 symmetric states on the m-side."""
    labels = []
    for j in range(l):
        labels.append((j, 0))
        labels.append((j, 1))
    labels.append((l, 0))
    return labels


def _weight(n: int, m: int, l: int, j: int, p: int) -> int:
    x = (n - l) - (m - j) if p == 0 else l - j
    return math.comb(l, j) * _falling(m, j) * _falling(n - m, l - j) * x


def norm_constants(n: int, m: int, l: int) -> tuple:
    """Exact (weights, total) with weights[(j, p)] / total = c_{j,p} / c_total.

    c_{j,p} counts the legal (A, k) pairs with |A| = m, |A ∩ marked| = j
    and the coin k outside A, outside (p=0) or inside (p=1) the marked
    l-set; c_total = C(n, m) (n-m) counts them all.  With C(n, m)
    cancelled, weights[(j, p)] = C(l, j) m^(j) (n-m)^(l-j) x and total =
    n^(l) (n-m), in falling factorials k^(i) of at most l terms, with
    x = (n-l) - (m-j) for p=0 and l-j for p=1.  The weights sum to total
    and keep the identities the reduced coins rest on: w_{j,0} (l-j) =
    w_{j,1} (n-m-l+j) for coin 1, w_{j,0} j = w_{j-1,1} (m+1-j) for coin 2.
    """
    if not (1 <= l <= m < n):
        raise ValueError(f"need 1 <= l <= m < n, got n={n}, m={m}, l={l}")
    weights = {(j, p): _weight(n, m, l, j, p) for j, p in a_side_labels(l)}
    return weights, _falling(n, l) * (n - m)


def symmetric_ratio(n: int, m: int, l: int, j: int, p: int) -> float:
    """c_{j,p} / c_total: norm_constants' weights[(j, p)] / total for one
    label, correctly rounded (int / int is)."""
    return _weight(n, m, l, j, p) / (_falling(n, l) * (n - m))
