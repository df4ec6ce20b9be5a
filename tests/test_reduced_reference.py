"""The reduced engine's overlap against a 45-digit decimal walk.

The reference builds (W^t1 P)^t2 on the (j, p) labels in stdlib
decimal: class sizes from exact falling-factorial integers (math.perm),
each coin as 2vv^T - I on the classes one shared subset (coin 1) or one
shared union (coin 2, as S C2 S) joins, and powers by repeated squaring.
It shares only the label order with reduced_sim.  The float engine's
error grows with t2, and with t1 past the rule's, so it must stay within
run_reduced's stated bound 4 (t2 + 64) max(1, t1 / t1_rule) 2^-52 of the
reference, and it refuses a run whose bound passes 1e-6.
"""
import json
import math
import time
from decimal import Decimal, localcontext

import pytest

from johnson_walk import ReducedBasis, choose_parameters, run_reduced
from johnson_walk.cli import main
from johnson_walk.cost_model import walk_steps

PREC = 45
MAX_BOUND = 1e-6


def class_sizes(n, m, l):
    """(j, p) -> c_{j,p} n^(l) / C(n, m), an exact integer: C(l, j) ways to
    pick the marked elements inside A, m^(j) (n-m)^(l-j) to place them,
    and the coin outside A, unmarked (p=0) or marked (p=1).  Only the
    nonempty classes are kept, in sorted order."""
    sizes = {}
    for j in range(l + 1):
        placed = math.comb(l, j) * math.perm(m, j) * math.perm(n - m, l - j)
        for p, coins in ((0, n - m - (l - j)), (1, l - j)):
            if placed * coins > 0:
                sizes[(j, p)] = placed * coins
    return dict(sorted(sizes.items()))


def diffusion(labels, sizes, groups):
    """2vv^T - I on each group of labels, v the square roots of the class
    sizes over the group's total; a label in no group is fixed."""
    dim = len(labels)
    out = [[Decimal(int(a == b)) for b in range(dim)] for a in range(dim)]
    for group in groups:
        group = [label for label in group if label in sizes]
        total = sum(sizes[label] for label in group)
        for a in group:
            for b in group:
                out[labels.index(a)][labels.index(b)] = (
                    2 * Decimal(sizes[a] * sizes[b]).sqrt() / total
                    - int(a == b))
    return out


def matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y)))
             for j in range(len(y[0]))] for i in range(len(x))]


def power(x, k):
    """x^k by repeated squaring."""
    out = [[Decimal(int(i == j)) for j in range(len(x))] for i in range(len(x))]
    while k:
        if k & 1:
            out = matmul(out, x)
        k >>= 1
        if k:
            x = matmul(x, x)
    return out


def reference_overlap(n, m, l, t1, t2):
    """|<w| (W^t1 P)^t2 |s>|^2 at 45 digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        sizes = class_sizes(n, m, l)
        labels = list(sizes)
        total = sum(sizes.values())
        # coin 1: the classes of one subset A, with j marked inside;
        # coin 2: the classes of one union A + coin with j marked inside
        coin1 = diffusion(labels, sizes, [[(j, 0), (j, 1)] for j in range(l + 1)])
        coin2 = diffusion(labels, sizes,
                          [[(j, 0), (j - 1, 1)] for j in range(l + 1)])
        u = power(matmul(coin2, coin1), t1)
        w = labels.index((l, 0))
        for row in u:
            row[w] = -row[w]
        s = [[(Decimal(sizes[label]) / total).sqrt()] for label in labels]
        state = matmul(power(u, t2), s)
        return state[w][0] ** 2


def stated_bound(m, l, t1, t2):
    """run_reduced's error bound, restated here to hold it to its word."""
    return 4 * (t2 + 64) * max(1.0, t1 / walk_steps(m, l)) * 2.0 ** -52


def engine_error(n, l, t1_times=1):
    """(|overlap_w - reference|, the stated bound, the engine's seconds) at
    the parameter rule's point, with t1 the rule's times t1_times."""
    p = choose_parameters(n, l)
    t1 = p.t1 * t1_times
    start = time.perf_counter()
    rep = run_reduced(ReducedBasis(n, p.m, l), t1, p.t2)
    seconds = time.perf_counter() - start
    ref = reference_overlap(n, p.m, l, t1, p.t2)
    return (float(abs(Decimal(rep.overlap_w) - ref)),
            stated_bound(p.m, l, t1, p.t2), seconds)


def test_reference_anchors_at_n_9():
    """At n=9, l=2 the start overlap is c_{2,0}/c = 1/6, kept with no
    rotation (t2 = 0) and by P P = 1 (t1 = 0); the parameter rule's run
    gives criterion 8's full-engine value."""
    p = choose_parameters(9, 2)
    with localcontext() as ctx:
        ctx.prec = PREC
        for t1, t2 in ((5, 0), (0, 2)):
            got = reference_overlap(9, p.m, 2, t1, t2)
            assert abs(got - Decimal(1) / 6) < Decimal(10) ** -40, (t1, t2)
    got = reference_overlap(9, p.m, 2, p.t1, p.t2)
    assert abs(float(got) - 0.7953860624657066) < 1e-12


@pytest.mark.parametrize("ns, tol", [
    ((10 ** 3, 10 ** 4, 10 ** 6, 10 ** 8), 1e-12),
    ((10 ** 10, 10 ** 12), 1e-10),
], ids=["to-10^8", "10^10-10^12"])
def test_overlap_within_the_float_bound(ns, tol):
    """Every point, l = 1..4, within tol and within its stated bound; the
    engine's runs take under 1 s between them.  The errors are findings;
    the grid is not tuned."""
    seconds = 0.0
    for n in ns:
        for l in range(1, 5):
            err, bound, took = engine_error(n, l)
            assert err <= min(tol, bound), (n, l, err, bound)
            seconds += took
    assert seconds < 1.0


def assert_within_or_refused(n, l, t1_times=1):
    """The run at the rule's point, t1 scaled by t1_times, meets its stated
    bound against the reference, or, where the bound passes 1e-6, is
    refused with one line naming n, l and the bound."""
    p = choose_parameters(n, l)
    t1 = p.t1 * t1_times
    bound = stated_bound(p.m, l, t1, p.t2)
    if bound > MAX_BOUND:
        message = (rf"^the reduced engine refuses n={n}, l={l}: its error "
                   rf"bound 4\*\(t2\+64\)\*max\(1, t1/{walk_steps(p.m, l)}\)"
                   rf"\*2\^-52 = \S+ at t1={t1}, t2={p.t2} passes 1e-06$")
        with pytest.raises(ValueError, match=message):
            run_reduced(ReducedBasis(n, p.m, l), t1, p.t2)
    else:
        err, _, _ = engine_error(n, l, t1_times)
        assert err <= bound, (n, l, t1_times, err, bound)


@pytest.mark.parametrize("n", [10 ** e for e in range(4, 25, 2)])
def test_refused_past_the_bound(n):
    """l = 1..6 at the rule's point: each run within its stated bound of
    the reference, or refused with a message naming n, l and the bound.
    Up to 10^24 the bound refuses only l = 5 and 6 from 10^22 and l = 4
    at 10^24."""
    for l in range(1, 7):
        assert_within_or_refused(n, l)


@pytest.mark.parametrize("t1_times", [10, 100])
@pytest.mark.parametrize("n", [10 ** 4, 10 ** 8, 10 ** 12])
def test_bound_holds_past_the_rules_t1(n, t1_times):
    """simulate --t1 takes any t1: at 100 times the rule's, the error
    grows past a bound in t2 alone (4.6 (t2 + 64) 2^-52 at n = 10^8,
    l = 4), and the stated bound's t1 factor holds it."""
    for l in range(1, 5):
        assert_within_or_refused(n, l, t1_times)


@pytest.mark.parametrize("argv", [
    "simulate --family zero-sum-xor --n 1000000000000000000 --l 1 "
    "--engine reduced",
    "simulate --family sum-mod-q --n 1000000000000000000 --l 1 "
    "--engine reduced",
    "sweep --l 1 --n-values 1000000000000000000",
], ids=["zero-sum-xor", "sum-mod-q", "sweep"])
def test_probability_at_n_10_18_is_at_most_1(capsys, argv):
    """At n = 10^18, l = 1 the reduced engine printed success_probability
    1.0000000642476536 and exited 0.  It prints at most 1, within the
    stated bound of the reference 0.99999999999311373067."""
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    if argv.startswith("sweep"):
        got = float(out.splitlines()[1].split(",")[-1])
    else:
        got = json.loads(out)["reduced"]["success_probability"]
    p = choose_parameters(10 ** 18, 1)
    ref = reference_overlap(10 ** 18, p.m, 1, p.t1, p.t2)
    assert got <= 1.0
    assert abs(Decimal(got) - ref) <= stated_bound(p.m, 1, p.t1, p.t2)


def test_no_probability_above_1_to_1e24():
    """Every half decade from 10^3 to 10^24 at l = 1..6: each run the
    engine admits reports overlap_w and success_probability at most 1.
    Before, l = 1 read 1.00000000015 at 10^23, in its norm's drift."""
    for l in range(1, 7):
        for k in range(6, 49):
            n = 10 ** (k // 2) if k % 2 == 0 else math.isqrt(10 ** k)
            p = choose_parameters(n, l)
            if stated_bound(p.m, l, p.t1, p.t2) > MAX_BOUND:
                continue
            rep = run_reduced(ReducedBasis(n, p.m, l), p.t1, p.t2)
            assert rep.success_probability == rep.overlap_w <= 1.0, (n, l)
