"""Parameter choices, query counts, and the clique cost exponents."""
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from johnson_walk import (
    choose_parameters, clique_cost, nint, optimize_m,
    table1, table1_csv,
)
from johnson_walk import cost_model
from johnson_walk.cost_model import _canonical_m, _cost_step, rotation_count, \
    walk_size, walk_steps


def test_nint_ties_away_from_zero():
    assert nint(2.5) == 3
    assert nint(-2.5) == -3
    assert nint(2.4) == 2
    assert nint(-2.4) == -2
    assert nint(0.0) == 0


def test_choose_parameters_n9():
    p = choose_parameters(9, 2)
    assert p.m == 4          # nint(9^{2/3}) = nint(4.327)
    assert p.t1 == 2         # nint((pi/2) sqrt(2)) = nint(2.221)
    assert p.t2 == 2         # nint((pi/4) (9/4)) = nint(1.767)
    assert p.total_queries == 12
    assert p.exponent_target == Fraction(2, 3)


def test_choose_parameters_n1e6():
    p = choose_parameters(10 ** 6, 2)
    assert p.m == 10 ** 4
    assert p.t1 == 111       # nint((pi/2) sqrt(5000)) = nint(111.07)


def test_choose_parameters_l1():
    p = choose_parameters(10 ** 6, 1)
    assert p.m == 1000       # sqrt(n) scaling
    assert p.exponent_target == Fraction(1, 2)


def test_choose_parameters_rejects_tiny_n():
    with pytest.raises(ValueError):
        choose_parameters(2, 3)
    with pytest.raises(ValueError):
        choose_parameters(5, 0)


def test_subset_query_count():
    p = choose_parameters(9, 2)
    assert p.total_queries == p.m + 2 * p.t1 * p.t2 == 12
    assert choose_parameters(9, 2, t2=0).total_queries == 4


def test_choose_parameters_keeps_given_values():
    """A value that is given is kept; one that is not comes from the rule."""
    n, l = 10 ** 6, 2
    rule = choose_parameters(n, l)
    assert (rule.m, rule.t1, rule.t2) == (
        walk_size(n, l), walk_steps(rule.m, l), rotation_count(n, rule.m, l))
    p = choose_parameters(n, l, m=500)
    assert (p.m, p.t1, p.t2) == (500, walk_steps(500, l),
                                 rotation_count(n, 500, l))
    p = choose_parameters(n, l, t1=7)
    assert (p.m, p.t1, p.t2) == (rule.m, 7, rule.t2)
    p = choose_parameters(n, l, t2=0)
    assert (p.m, p.t1, p.t2) == (rule.m, rule.t1, 0)
    assert p.total_queries == rule.m
    p = choose_parameters(n, l, m=500, t1=3, t2=4)
    assert (p.m, p.t1, p.t2, p.total_queries) == (500, 3, 4, 500 + 2 * 3 * 4)


def test_choose_parameters_rejects_bad_walk_size():
    for m in (1, 10 ** 6, 10 ** 7):
        with pytest.raises(ValueError, match="l <= m < n"):
            choose_parameters(10 ** 6, 2, m=m)


def test_rotation_count_overflow_is_a_value_error():
    """(n/m)^{l/2} overflows here; a given t2 is never computed."""
    with pytest.raises(ValueError, match="overflows"):
        choose_parameters(10 ** 7, 200, m=200)
    p = choose_parameters(10 ** 7, 200, m=200, t2=1)
    assert (p.m, p.t1, p.t2) == (200, walk_steps(200, 200), 1)


@pytest.mark.parametrize("l,target", [(1, 0.5), (2, 2 / 3), (3, 0.75)])
def test_query_scaling_slopes(l, target):
    ns = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    qs = [choose_parameters(n, l).total_queries for n in ns]
    slope = np.polyfit(np.log(ns), np.log(qs), 1)[0]
    assert abs(slope - target) <= 0.02


def test_clique_cost_formulas():
    n, m = 10 ** 4, 100
    assert clique_cost(n, m, 2, "simple") == pytest.approx(
        m * m + (n / m) ** 1.0 * math.sqrt(m) * m)
    assert clique_cost(n, m, 3, "recursive") == pytest.approx(
        m * m + (n / m) ** 1.0 * (m ** (2 / 3) * math.sqrt(n) + m ** 1.5))
    # mss ignores the passed m
    assert clique_cost(n, 50, 4, "mss") == clique_cost(n, 99, 4, "mss")
    assert clique_cost(n, 50, 4, "mss") == clique_cost(
        n, nint(n ** (3 / 4)), 4, "recursive")
    with pytest.raises(ValueError):
        clique_cost(n, m, 2, "fancy")
    with pytest.raises(ValueError):
        clique_cost(10, 1, 2, "simple")


def test_mss_walk_size():
    """mss's own walk size, nint(n^((l-1)/l))."""
    assert optimize_m(10 ** 6, 3, "mss").m_canonical == nint(10 ** 4)
    assert optimize_m(10 ** 6, 5, "mss").m_canonical == nint(10 ** (24 / 5))


def test_table1_exact_rationals():
    rows = {row.l: row for row in table1()}
    expect = {
        2: (Fraction(4, 3), Fraction(1, 1)),
        3: (Fraction(3, 2), Fraction(13, 10)),
        4: (Fraction(8, 5), Fraction(3, 2)),
        5: (Fraction(5, 3), Fraction(23, 14)),
        6: (Fraction(12, 7), Fraction(7, 4)),
        7: (Fraction(7, 4), Fraction(33, 18)),
    }
    for l, (simple, recursive) in expect.items():
        assert rows[l].simple_exponent == simple
        assert rows[l].recursive_exponent == recursive
        assert rows[l].mss_exponent == Fraction(2 * (l - 1), l)


def test_table1_crossovers():
    rows = {row.l: row for row in table1()}
    # recursive beats simple up to l = 5, simple wins from l = 6
    for l in range(2, 6):
        assert rows[l].recursive_exponent < rows[l].simple_exponent
    for l in (6, 7):
        assert rows[l].simple_exponent < rows[l].recursive_exponent
    # the later walk-size choice beats both at l = 5: 8/5 < 23/14
    assert rows[5].mss_exponent == Fraction(8, 5) < Fraction(23, 14)


def test_table1_csv_shape():
    lines = table1_csv().strip().split("\n")
    assert lines[0] == "L,simple,recursive,mss,best"
    assert len(lines) == 7
    assert lines[1].startswith("2,4/3,1,1,")


@pytest.mark.parametrize("variant,target", [
    ("simple", lambda l: Fraction(2 * l, l + 1)),
    ("recursive", lambda l: Fraction(5 * l - 2, 2 * l + 4)),
    ("mss", lambda l: Fraction(2 * (l - 1), l)),
])
@pytest.mark.parametrize("l", range(2, 8))
def test_optimizer_exponent_fits(variant, target, l):
    res = optimize_m(10 ** 6, l, variant)
    assert abs(res.fitted_exponent - float(target(l))) <= 0.02


def test_optimizer_m_star_near_canonical():
    for n_exp in (4, 5, 6, 7, 8):
        res = optimize_m(10 ** n_exp, 3, "simple")
        ratio = res.m_star / (10 ** n_exp) ** 0.75
        assert 0.3 <= ratio <= 3.0


def bracket(n, l, variant):
    """The integers within 2x of the analytic m, inside l <= m < n."""
    mc = _canonical_m(n, l, variant)
    return range(max(l, mc // 2), min(n - 1, 2 * mc) + 1)


@pytest.mark.parametrize("variant", ["simple", "recursive"])
def test_optimizer_m_star_is_the_first_brute_force_argmin(variant):
    """Every l < n up to n=60, l = n-1 included, where the float golden
    section once left the bracket (n=6, l=5)."""
    for n in range(2, 61):
        for l in range(1, n):
            span = bracket(n, l, variant)
            best = min(span, key=lambda m: clique_cost(n, m, l, variant))
            res = optimize_m(n, l, variant)
            assert res.m_star == best, (n, l, variant)
            assert res.cost == clique_cost(n, best, l, variant)


@pytest.mark.parametrize("variant", ["simple", "recursive"])
def test_cost_step_is_the_cost_difference(variant):
    """Over the bracket, the step the optimizer reads is
    clique_cost(m+1) - clique_cost(m), to 1e-9 of the larger of that
    difference and 2m+1: near the minimizer the difference crosses 0, and
    both forms round on the scale of the m^2 term's own step there."""
    for n in (10, 50, 100, 400, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        for l in range(1, min(16, n - 1)):
            span = bracket(n, l, variant)[:-1]
            for m in span[::max(1, len(span) // 60)]:
                diff = (clique_cost(n, m + 1, l, variant)
                        - clique_cost(n, m, l, variant))
                step = _cost_step(n, m, l, variant)
                assert abs(step - diff) <= 1e-9 * max(abs(diff), 2 * m + 1), \
                    (n, l, m, step, diff)


def decimal_first_argmin(n, l, variant):
    """The first minimizer over the bracket of the cost formula evaluated
    in 45-digit decimal, by bisection on the sign of f(m+1) - f(m)."""
    def f(m):
        n_, m = Decimal(n), Decimal(m)
        if variant == "simple":
            return m * m + (n_ / m) ** (Decimal(l) / 2) * m.sqrt() * m
        return m * m + (n_ / m) ** (Decimal(l - 1) / 2) * (
            m ** (Decimal(l - 1) / l) * n_.sqrt() + m ** Decimal("1.5"))

    span = bracket(n, l, variant)
    lo, hi = span[0], span[-1]
    with localcontext() as ctx:
        ctx.prec = 45
        while lo < hi:
            mid = (lo + hi) // 2
            if f(mid + 1) < f(mid):
                lo = mid + 1
            else:
                hi = mid
    return lo


@pytest.mark.parametrize("variant", ["simple", "recursive"])
@pytest.mark.parametrize("n", [10 ** 9, 3 * 10 ** 9, 10 ** 10, 10 ** 11,
                               10 ** 12])
def test_optimizer_m_star_is_the_decimal_first_argmin(n, variant):
    """At these n the rounding of a cost near 10^17-10^22 exceeds
    f(m+1) - f(m) over a window of m around the minimum; the step formed
    term by term still has the exact sign there."""
    for l in (2, 3, 5, 8, 15):
        assert optimize_m(n, l, variant).m_star == \
            decimal_first_argmin(n, l, variant), (n, l)


@pytest.mark.parametrize("variant", ["simple", "recursive", "mss"])
def test_optimizer_evaluates_integers_in_the_bracket(monkeypatch, variant):
    """The search calls the cost at integer m in the bracket only (mss
    at its own fixed m)."""
    n, l, seen = 10 ** 6, 3, []
    cost = cost_model.clique_cost

    def recording(n_, m, l_, v):
        if (n_, l_, v) == (n, l, variant):
            seen.append(m)
        return cost(n_, m, l_, v)

    monkeypatch.setattr(cost_model, "clique_cost", recording)
    optimize_m(n, l, variant)
    assert seen
    for m in seen:
        assert type(m) is int and m in bracket(n, l, variant), m


def test_optimizer_rejects_bad_variant():
    with pytest.raises(ValueError):
        optimize_m(10 ** 6, 3, "other")
