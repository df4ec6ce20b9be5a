"""Exact combinatorics: the colex enumeration and the class weights."""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_walk import norm_constants
from johnson_walk.combinat import colex_blocks, colex_table, symmetric_ratio


def test_rank_examples():
    """A subset's colex rank is its row of colex_table."""
    assert colex_table(4, 2)[[0, 5]].tolist() == [[0, 1], [2, 3]]


def test_colex_table_and_blocks_match_itertools():
    """Every k <= n <= 12: the table, and the blocks at rows 1, 7,
    C(n, k) - 1, C(n, k) and 2^15 concatenated, equal the itertools list
    sorted by the reversed tuple (colex order); no block is longer than
    rows, only the last is shorter, and the dtype holds n."""
    for n in range(13):
        for k in range(n + 1):
            ref = sorted(itertools.combinations(range(n), k),
                         key=lambda s: s[::-1])
            ref = np.array(ref).reshape(len(ref), k)
            table = colex_table(n, k)
            assert np.array_equal(table, ref), (n, k)
            assert np.iinfo(table.dtype).max >= n
            for rows in {1, 7, len(ref) - 1, len(ref), 2 ** 15} - {0}:
                blocks = list(colex_blocks(n, k, rows))
                assert np.array_equal(np.concatenate(blocks), ref), (n, k, rows)
                assert all(len(b) == rows for b in blocks[:-1])
                assert 1 <= len(blocks[-1]) <= rows
                assert all(np.iinfo(b.dtype).max >= n for b in blocks)


def test_label_sets():
    """The weights' labels, in the order the reduced basis takes them."""
    assert list(norm_constants(9, 4, 2)[0]) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    assert len(norm_constants(20, 9, 5)[0]) == 11


def class_counts(n, m, l):
    """The oracle: c_{j,p} and c_total = C(n, m) (n-m) from math.comb."""
    counts = {}
    for j, p in norm_constants(n, m, l)[0]:
        base = math.comb(n - l, m - j) * math.comb(l, j)
        counts[(j, p)] = base * ((n - l) - (m - j) if p == 0 else l - j)
    return counts, math.comb(n, m) * (n - m)


def as_counts(n, m, l):
    """norm_constants' weights scaled by c_total / total, exactly."""
    weights, total = norm_constants(n, m, l)
    c_total = math.comb(n, m) * (n - m)
    out = {}
    for label, w in weights.items():
        out[label], rest = divmod(w * c_total, total)
        assert rest == 0, (n, m, l, label)
    return out


def test_norm_constants_942():
    weights, total = norm_constants(9, 4, 2)
    assert total == 9 * 8 * (9 - 4)
    assert sum(weights.values()) == total
    counts = as_counts(9, 4, 2)
    assert counts[(2, 0)] == math.comb(7, 2) * math.comb(2, 2) * 5 == 105
    assert sum(counts.values()) == 630 == math.comb(9, 4) * 5


def test_norm_constants_enumeration_oracle():
    """Count legal (A, k) pairs directly and compare with the weights."""
    n, m, l = 8, 3, 2
    marked = set(range(l))
    counts = {}
    for a in itertools.combinations(range(n), m):
        j = len(set(a) & marked)
        for k in range(n):
            if k in a:
                continue
            p = 1 if k in marked else 0
            counts[(j, p)] = counts.get((j, p), 0) + 1
    weights, total = norm_constants(n, m, l)
    for label in weights:
        assert (weights[label] * math.comb(n, m) * (n - m) // total
                == counts.get(label, 0))


def test_c_l1_would_vanish():
    # the (l, 1) label does not exist on the a side: with A containing
    # all of the marked set, no coin outside A can be marked
    weights, _ = norm_constants(9, 4, 2)
    assert (2, 1) not in weights
    # the factor l - j drives c_{j,1} toward zero as j grows
    assert as_counts(9, 4, 2)[(1, 1)] == math.comb(7, 3) * math.comb(2, 1) * 1


def test_completeness_identities_grid():
    for n in range(4, 13):
        for m in range(1, n):
            for l in range(1, m + 1):
                weights, total = norm_constants(n, m, l)
                assert sum(weights.values()) == total
                assert as_counts(n, m, l) == class_counts(n, m, l)[0]


def test_coin_weight_identities():
    """The ratios the reduced coins' weights rest on, cross-multiplied:
    w_{j,0} (l-j) = w_{j,1} (n-m-l+j) for coin 1 and
    w_{j,0} j = w_{j-1,1} (m+1-j) for coin 2.  (6, 5, 3) has n - m < l.
    (10^12, 10^9, 8) is far past any count of all m-subsets."""
    for n, m, l in [(9, 4, 2), (12, 5, 3), (20, 8, 4), (7, 5, 1), (6, 5, 3),
                    (10 ** 12, 10 ** 9, 8)]:
        w, total = norm_constants(n, m, l)
        assert sum(w.values()) == total
        for j in range(l):
            assert w[(j, 0)] * (l - j) == w[(j, 1)] * (n - m - l + j)
        for j in range(1, l + 1):
            assert w[(j, 0)] * j == w[(j - 1, 1)] * (m + 1 - j)


def test_norm_constants_no_overflow():
    # the counts have hundreds of digits; everything must stay exact
    n, m, l = 500, 120, 3
    weights, total = norm_constants(n, m, l)
    assert sum(weights.values()) == total
    assert as_counts(n, m, l) == class_counts(n, m, l)[0]
    assert weights[(3, 0)] / total > 0.0


def test_symmetric_ratio_is_the_rounded_count_ratio():
    """symmetric_ratio equals the float of c_{j,p} / c_total, bit for bit."""
    rng = random.Random(5)
    for n in range(2, 41):
        for m in range(1, n):
            for l in {1, min(m, 3), rng.randint(1, m)}:
                counts, c_total = class_counts(n, m, l)
                for (j, p), c in counts.items():
                    assert (symmetric_ratio(n, m, l, j, p)
                            == float(Fraction(c, c_total))), (n, m, l, j, p)


def test_norm_constants_validation():
    with pytest.raises(ValueError):
        norm_constants(9, 4, 5)
    with pytest.raises(ValueError):
        norm_constants(4, 4, 1)
