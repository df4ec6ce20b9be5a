"""Exact combinatorics: binomials, colex ranking, normalization tables."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_walk import (
    a_side_labels, binomial, norm_constants, rank_subset,
    unrank_subset,
)


def test_binomial_examples():
    assert binomial(9, 4) == 126
    assert binomial(7, 0) == 1
    assert binomial(3, 5) == 0


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(4, -2)


def test_binomial_pascal_oracle():
    """Additively built Pascal triangle up to n=64, exact equality."""
    row = [1]
    for n in range(65):
        for k, expect in enumerate(row):
            assert binomial(n, k) == expect
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


@given(st.integers(0, 64), st.integers(0, 80))
def test_binomial_matches_math_comb(n, k):
    assert binomial(n, k) == math.comb(n, k)


def test_rank_examples():
    assert rank_subset((0, 1), 4) == 0
    assert rank_subset((2, 3), 4) == 5


def test_rank_enumerates_colex_order():
    ranks = sorted(itertools.combinations(range(6), 3),
                   key=lambda s: rank_subset(s, 6))
    # colex: later elements dominate
    assert ranks[0] == (0, 1, 2)
    assert ranks[1] == (0, 1, 3)
    assert ranks[-1] == (3, 4, 5)
    assert [rank_subset(s, 6) for s in ranks] == list(range(20))


def test_rank_unrank_bijection():
    for n, m in [(6, 3), (9, 4), (12, 2)]:
        for r in range(binomial(n, m)):
            assert rank_subset(unrank_subset(r, m, n), n) == r


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
@settings(max_examples=60)
def test_unrank_rank_roundtrip(nm):
    n, m_minus = nm
    m = m_minus + 1
    for r in range(0, binomial(n, m), max(1, binomial(n, m) // 10)):
        subset = unrank_subset(r, m, n)
        assert len(subset) == m
        assert list(subset) == sorted(set(subset))
        assert rank_subset(subset, n) == r


def test_rank_validates_input():
    with pytest.raises(ValueError):
        rank_subset((1, 1), 4)
    with pytest.raises(ValueError):
        rank_subset((3, 1), 4)
    with pytest.raises(ValueError):
        rank_subset((1, 4), 4)
    with pytest.raises(ValueError):
        unrank_subset(20, 3, 6)


def test_label_sets():
    assert a_side_labels(2) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    assert len(a_side_labels(5)) == 11


def test_norm_constants_942():
    nc = norm_constants(9, 4, 2)
    assert nc.c_jp[(2, 0)] == binomial(7, 2) * binomial(2, 2) * 5 == 105
    assert sum(nc.c_jp.values()) == 630 == binomial(9, 4) * 5
    assert nc.c_total == 630


def test_norm_constants_enumeration_oracle():
    """Count legal (A, k) pairs directly and compare with the formulas."""
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
    nc = norm_constants(n, m, l)
    for label in a_side_labels(l):
        assert nc.c_jp[label] == counts.get(label, 0)


def test_c_l1_would_vanish():
    # the (l, 1) label does not exist on the a side: with A containing
    # all of the marked set, no coin outside A can be marked
    nc = norm_constants(9, 4, 2)
    assert (2, 1) not in nc.c_jp
    # the factor l - j drives c_{j,1} toward zero as j grows
    assert nc.c_jp[(1, 1)] == binomial(7, 3) * binomial(2, 1) * 1


def test_completeness_identities_grid():
    for n in range(4, 13):
        for m in range(1, n):
            for l in range(1, m + 1):
                nc = norm_constants(n, m, l)
                assert sum(nc.c_jp.values()) == nc.c_total


def test_coin_weight_identities():
    """The ratios the reduced coins' weights rest on, cross-multiplied:
    c_{j,0} (l-j) = c_{j,1} (n-m-l+j) for coin 1 and
    c_{j,0} j = c_{j-1,1} (m+1-j) for coin 2.  (6, 5, 3) has n - m < l."""
    for n, m, l in [(9, 4, 2), (12, 5, 3), (20, 8, 4), (7, 5, 1), (6, 5, 3)]:
        c = norm_constants(n, m, l).c_jp
        for j in range(l):
            assert c[(j, 0)] * (l - j) == c[(j, 1)] * (n - m - l + j)
        for j in range(1, l + 1):
            assert c[(j, 0)] * j == c[(j - 1, 1)] * (m + 1 - j)


def test_norm_constants_no_overflow():
    # hundreds of digits; everything must stay exact
    nc = norm_constants(500, 120, 3)
    assert sum(nc.c_jp.values()) == nc.c_total
    assert nc.c_jp[(3, 0)] / nc.c_total > 0.0


def test_norm_constants_validation():
    with pytest.raises(ValueError):
        norm_constants(9, 4, 5)
    with pytest.raises(ValueError):
        norm_constants(4, 4, 1)
