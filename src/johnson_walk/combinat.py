"""Exact combinatorics underlying the subset-walk state space.

Everything here is integer arithmetic: binomials, the colexicographic
enumeration of k-subsets, and the exact class weights of the reduced
engine's (j, p) states, built from falling factorials so that no count
of all m-subsets is ever formed.  Nothing is allowed to round or
overflow.  The enumeration is the package's one list of k-subsets: the
full engine's subsets_a is colex_table(n, m), and the classical scan
runs over colex_blocks(n, l, rows); numpy is imported inside those two.
"""
from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def colex_table(n: int, k: int):
    """The k-subsets of range(n), each sorted, as the rows of a
    (C(n, k), k) array in colex-rank order, slot-major (Fortran order) in
    the narrowest dtype that holds n.

    Built level by level over j = 1..k, on the j-subsets of
    {0..n-k+j-1}.  The j-subsets with largest element c fill the rows
    [C(c, j), C(c+1, j)), each a (j-1)-subset of {0..c-1}, one of the
    previous level's first rows, with c appended.  Every level is a
    prefix of the table, and the blocks are written from the largest c
    down, so that no block overwrites rows a smaller c still reads.
    """
    import numpy as np

    table = np.empty((math.comb(n, k), k), np.min_scalar_type(n), order="F")
    if k:
        table[:n - k + 1, 0] = np.arange(n - k + 1)  # level 1: {c} is row c
    for j in range(2, k + 1):
        for c in range(n - k + j - 1, j - 2, -1):
            lo, hi = math.comb(c, j), math.comb(c + 1, j)
            table[lo:hi, :j - 1] = table[:hi - lo, :j - 1]
            table[lo:hi, j - 1] = c
    return table


def colex_blocks(n: int, k: int, rows: int):
    """colex_table(n, k)'s rows in consecutive blocks of `rows` (the last
    may be shorter); past one block the table is never held.

    The j-subsets of range(d) open with those of range(c), for any
    c <= d, then run, for each largest element e in [c, d), through the
    (j-1)-subsets of range(e) with e appended.  So each level j keeps one
    prefix table, colex_table(c, j) for the largest c <= n with
    C(c, j) <= rows (c = n at j = 1), and each row is copied once from
    one of them, its larger elements appended, into its block.
    """
    import numpy as np

    if math.comb(n, k) <= rows:
        yield colex_table(n, k)
        return
    heads = {}
    for j in range(1, k + 1):
        c = n
        while j > 1 and math.comb(c, j) > rows:
            c -= 1
        heads[j] = c, colex_table(c, j)
    block, fill = np.empty((rows, k), np.min_scalar_type(n), order="F"), 0
    for run, top in _colex_runs(heads, n, k, ()):
        while len(run):
            take = min(len(run), rows - fill)
            block[fill:fill + take, :run.shape[1]] = run[:take]
            block[fill:fill + take, run.shape[1]:] = top
            fill, run = fill + take, run[take:]
            if fill == rows:
                yield block
                block, fill = np.empty_like(block), 0
    if fill:
        yield block[:fill]


def _colex_runs(heads, d, j, top):
    """colex_blocks' runs: the j-subsets of range(d), as slices of the
    prefix tables heads[j] = (c, colex_table(c, j)), each followed by the
    larger elements top."""
    c, head = heads[j]
    yield head[:math.comb(d, j)], top
    for e in range(c, d):
        yield from _colex_runs(heads, e, j - 1, (e,) + top)


def _falling(x: int, k: int) -> int:
    """x (x-1) ... (x-k+1): k factors."""
    out = 1
    for i in range(k):
        out *= x - i
    return out


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
    weights = {(j, p): _weight(n, m, l, j, p)  # the 2l+1 labels, in order
               for j in range(l + 1) for p in (0, 1) if j < l or p == 0}
    return weights, _falling(n, l) * (n - m)


def symmetric_ratio(n: int, m: int, l: int, j: int, p: int) -> float:
    """c_{j,p} / c_total: norm_constants' weights[(j, p)] / total for one
    label, correctly rounded (int / int is)."""
    return _weight(n, m, l, j, p) / (_falling(n, l) * (n - m))
