"""Exact combinatorics underlying the subset-walk state space.

Everything here is integer arithmetic: binomials, colexicographic
subset ranking, and the normalization-constant tables that weight the
symmetric basis states.  Nothing is allowed to round or overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class NormConstants:
    """Integer weights of the symmetric basis states for walk size m.

    c_jp[(j, p)] counts legal (A, k) pairs with |A| = m, |A ∩ marked| = j
    and the coin k outside A, lying outside (p=0) or inside (p=1) the
    marked l-set.  The reduced coins' diffusion weights rest on two
    identities: c_{j,0} (l-j) = c_{j,1} (n-m-l+j) for coin 1, and
    c_{j,0} j = c_{j-1,1} (m+1-j) for coin 2.
    """
    n: int
    m: int
    l: int
    c_jp: dict = field(repr=False)
    c_total: int = 0


def _falling(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x - i
    return out


def symmetric_ratio(n: int, m: int, l: int, j: int, p: int) -> float:
    """c_{j,p} / c_total without forming the huge binomials.

    The factorials in C(n-l, m-j) / [C(n, m) (n-m)] cancel down to
    falling-factorial products with at most l terms each, so the exact
    rational stays small even at n = 10^6.
    """
    x = (n - l) - (m - j) if p == 0 else (l - j)
    from fractions import Fraction

    num = binomial(l, j) * x * _falling(m, j) * _falling(n - m, l - j)
    return float(Fraction(num, _falling(n, l) * (n - m)))


def a_side_labels(l: int):
    """Ordered (j, p) labels of the 2l+1 symmetric states on the m-side."""
    labels = []
    for j in range(l):
        labels.append((j, 0))
        labels.append((j, 1))
    labels.append((l, 0))
    return labels


def norm_constants(n: int, m: int, l: int) -> NormConstants:
    """Exact c_{j,p} table for walk size m and marked size l.

    c_{j,0} = C(n-l, m-j) C(l, j) [(n-l) - (m-j)]
    c_{j,1} = C(n-l, m-j) C(l, j) (l-j)
    """
    if not (1 <= l <= m < n):
        raise ValueError(f"need 1 <= l <= m < n, got n={n}, m={m}, l={l}")
    c_jp = {}
    for j, p in a_side_labels(l):
        base = binomial(n - l, m - j) * binomial(l, j)
        c_jp[(j, p)] = base * ((n - l) - (m - j)) if p == 0 else base * (l - j)
    return NormConstants(n=n, m=m, l=l, c_jp=c_jp,
                         c_total=binomial(n, m) * (n - m))
