"""Plain-Python references that several test modules share."""
import itertools


def colex(n, k):
    """The k-subsets of range(n) in colex order, each at its rank: the
    itertools list sorted by the reversed tuple."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def flip_w(state, basis):
    """P on the reduced labels: negate (l, 0), the one label with the
    marked set inside."""
    out = state.copy()
    out[basis.index(basis.l, 0)] *= -1.0
    return out
