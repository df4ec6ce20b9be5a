"""Parameter selection and query-cost models.

Walk parameters (m, t1, t2) for subset finding, the exact query count
(m + 2 t1 t2 with item oracles, C(m, 2) + 2m t1 t2 with edge oracles),
and the clique/subgraph cost formulas with their exponent table.
Costs are leading-order with unit constants; the contract is the
exponent fit, not the absolute count.

Note on t2: each application of W^t1 P advances the rotation angle by
about 2 (m/n)^{l/2}, and the start state must be carried a quarter
turn to the marked state, so the rotation count is nint((pi/4)
(n/m)^{l/2}).  (A coefficient of pi/2 instead rotates by a half turn
and lands back near the start; the engines confirm this numerically.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .instances import ITEM

SIMPLE = "simple"
RECURSIVE = "recursive"
MSS = "mss"
VARIANTS = (SIMPLE, RECURSIVE, MSS)


def nint(x: float) -> int:
    """Nearest integer, ties rounding half away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


@dataclass(frozen=True)
class ParameterChoice:
    n: int
    l: int
    m: int
    t1: int
    t2: int
    total_queries: int
    exponent_target: Fraction


def _canonical_m(n: int, l: int, variant: str) -> int:
    q = {SIMPLE: l / (l + 1), RECURSIVE: l / (l + 2), MSS: (l - 1) / l}[variant]
    return nint(n ** q)


def walk_size(n: int, l: int, m: int | None = None) -> int:
    """Walk size m = nint(n^{l/(l+1)}) unless m is given; l <= m < n."""
    if not 1 <= l < n:
        raise ValueError(f"need 1 <= l < n, got l={l}, n={n}")
    if m is None:
        m = _canonical_m(n, l, SIMPLE)
    if not l <= m < n:
        raise ValueError(f"need l <= m < n, got l={l}, m={m}, n={n}")
    return m


def walk_steps(m: int, l: int) -> int:
    """Walk steps per rotation at walk size m: t1 = nint((pi/2) sqrt(m/l))."""
    return nint((math.pi / 2.0) * math.sqrt(m / l))


def rotation_count(n: int, m: int, l: int) -> int:
    """Rotations at walk size m: t2 = nint((pi/4) (n/m)^{l/2}).

    (n/m)^{l/2} overflows a float at some valid (n, m, l), such as n=10^7,
    m=l=200, where only a given t2 lets choose_parameters go on.
    """
    try:
        return nint((math.pi / 4.0) * (n / m) ** (l / 2.0))
    except OverflowError:
        raise ValueError(f"(n/m)^(l/2) overflows a float at n={n}, m={m}, "
                         f"l={l}; give t2") from None


def choose_parameters(n: int, l: int, m: int | None = None,
                      t1: int | None = None,
                      t2: int | None = None) -> ParameterChoice:
    """The walk parameters at (n, l): each of m, t1, t2 that is given is
    kept, each other one comes from walk_size, walk_steps, rotation_count."""
    m = walk_size(n, l, m)
    t1 = walk_steps(m, l) if t1 is None else t1
    t2 = rotation_count(n, m, l) if t2 is None else t2
    return ParameterChoice(n=n, l=l, m=m, t1=t1, t2=t2,
                           total_queries=oracle_queries(m, t1, t2),
                           exponent_target=Fraction(l, l + 1))


def oracle_queries(m: int, t1: int, t2: int, mode: str = ITEM) -> int:
    """Exact oracle budget of the full algorithm at walk size m.

    Item oracles: m to load the start subset, then 2 per walk step (one
    element leaves, one joins).  Edge oracles: C(m, 2), then 2m per step.
    """
    if mode == ITEM:
        return m + 2 * t1 * t2
    return m * (m - 1) // 2 + 2 * m * t1 * t2


def clique_cost(n: float, m: float, l: int, variant: str) -> float:
    """Leading-order query cost of the subgraph-finding algorithms.

    simple:    m^2 + (n/m)^{l/2} sqrt(m) m
    recursive: m^2 + (n/m)^{(l-1)/2} (m^{(l-1)/l} sqrt(n) + m^{3/2})
    mss:       the recursive formula at its own m = nint(n^{(l-1)/l})
               (the passed m is ignored)
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == MSS:
        return clique_cost(n, _canonical_m(int(n), l, MSS), l, RECURSIVE)
    if not l <= m < n:
        raise ValueError(f"need l <= m < n, got n={n}, m={m}, l={l}")
    if variant == SIMPLE:
        return m * m + (n / m) ** (l / 2.0) * math.sqrt(m) * m
    return m * m + (n / m) ** ((l - 1) / 2.0) * (
        m ** ((l - 1) / l) * math.sqrt(n) + m ** 1.5)


@dataclass(frozen=True)
class OptimizeResult:
    variant: str
    n: int
    l: int
    m_star: int
    cost: float
    fitted_exponent: float
    m_canonical: int


def _cost_step(n: int, m: int, l: int, variant: str) -> float:
    """f(m+1) - f(m) of the simple or recursive cost, term by term: m^2
    moves by 2m+1 and each term T(m) = c m^q of clique_cost by
    T(m) expm1(q log1p(1/m)).  Near the minimum the difference of two costs
    would be smaller than their rounding from n ~ 2e8 on."""
    if variant == SIMPLE:
        terms = [((n / m) ** (l / 2.0) * math.sqrt(m) * m, 1.5 - l / 2.0)]
    else:
        outer = (n / m) ** ((l - 1) / 2.0)
        terms = [(outer * m ** ((l - 1) / l) * math.sqrt(n),
                  (l - 1) / l - (l - 1) / 2.0),
                 (outer * m ** 1.5, 1.5 - (l - 1) / 2.0)]
    step = math.log1p(1.0 / m)
    return 2 * m + 1 + sum(t * math.expm1(q * step) for t, q in terms)


def _minimize_bracketed(n: int, l: int, variant: str) -> tuple:
    """The first integer minimizer of the cost in a 2x bracket around the
    analytic choice, by bisection on the sign of f(m+1) - f(m).

    Each variant is a sum of powers of m with positive coefficients, so
    it is convex in log m and that sign changes once, from - to +.  The
    bracket pins the search to the variant's own regime: the raw
    formulas are minimized globally in a different regime for some l
    (the recursive formula, left free, rediscovers the m = n^{(l-1)/l}
    choice for l >= 5), which would confirm the wrong column.
    """
    mc = _canonical_m(n, l, variant)
    if variant == MSS:
        return mc, clique_cost(n, mc, l, variant)
    lo, hi = max(l, mc // 2), min(n - 1, 2 * mc)
    while lo < hi:
        mid = (lo + hi) // 2
        if _cost_step(n, mid, l, variant) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo, clique_cost(n, lo, l, variant)


def optimize_m(n: int, l: int, variant: str) -> OptimizeResult:
    """Numeric confirmation of the analytic walk-size choice.

    Minimizes the cost near the analytic m, and fits the growth
    exponent over two decades of n along the analytic m(n) family.
    The fit is anchored at max(n, 10^8): at small n the subleading m^2
    term still carries a visible share of the cost and drags the
    two-point slope below the leading exponent.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if not 1 <= l < n:
        raise ValueError(f"need 1 <= l < n, got l={l}, n={n}")
    m_star, cost = _minimize_bracketed(n, l, variant)
    n_fit = max(n, 10 ** 8)
    cost_lo = clique_cost(n_fit, _canonical_m(n_fit, l, variant), l, variant)
    cost_hi = clique_cost(100 * n_fit, _canonical_m(100 * n_fit, l, variant),
                          l, variant)
    fitted = (math.log(cost_hi) - math.log(cost_lo)) / math.log(100.0)
    return OptimizeResult(variant=variant, n=n, l=l, m_star=m_star,
                          cost=cost, fitted_exponent=fitted,
                          m_canonical=_canonical_m(n, l, variant))


@dataclass(frozen=True)
class CliqueCostRow:
    l: int
    simple_exponent: Fraction
    recursive_exponent: Fraction
    mss_exponent: Fraction
    best: str


def table1():
    """Exponent table for clique finding, l = 2..7, exact rationals."""
    rows = []
    for l in range(2, 8):
        simple = Fraction(2 * l, l + 1)
        recursive = Fraction(5 * l - 2, 2 * l + 4)
        mss = Fraction(2 * (l - 1), l)
        exps = {SIMPLE: simple, RECURSIVE: recursive, MSS: mss}
        # tie-break matches the published table's column order
        best = min((RECURSIVE, MSS, SIMPLE), key=lambda v: exps[v])
        rows.append(CliqueCostRow(l=l, simple_exponent=simple,
                                  recursive_exponent=recursive,
                                  mss_exponent=mss, best=best))
    return rows


def table1_csv() -> str:
    lines = ["L,simple,recursive,mss,best"]
    for row in table1():
        lines.append(f"{row.l},{row.simple_exponent},{row.recursive_exponent},"
                     f"{row.mss_exponent},{row.best}")
    return "\n".join(lines) + "\n"
