"""The verify invariant suite, and the mutations it must catch."""
import math
import random

import numpy as np

from johnson_walk import full_sim, reduced_sim, verify
from johnson_walk.verify import check_full_reduced_agreement, gaussian, \
    haar_orthogonal, run_all


def test_all_checks_pass():
    results = run_all()
    assert len(results) == 16
    assert [r.name for r in results if not r.passed] == []


def test_full_reduced_agreement_scans_once(scans):
    """Both engines of the check read one instance's marked_sets: one scan."""
    assert check_full_reduced_agreement().passed
    assert [inst.n for inst in scans] == [9]


def test_c2_sign_error_fails_exactly_the_state_checks(monkeypatch):
    """Negate every off-diagonal entry of the reduced second coin.

    The mutated walk matrix stays orthogonal, so the checks that fail are
    the ones that compare the walk against the start state, the full
    engine, or the overlap the algorithm must reach.
    """
    coin2 = reduced_sim.coin2_matrix

    def mutated(basis):
        c2 = coin2(basis)
        return 2.0 * np.diag(np.diag(c2)) - c2

    monkeypatch.setattr(reduced_sim, "coin2_matrix", mutated)
    failed = [r.name for r in run_all() if not r.passed]
    assert failed == ["walk-fixes-start-state", "full-reduced-agreement",
                      "large-n-final-overlap"]


def failed_checks(monkeypatch):
    """The names of the checks that fail, on contexts built afresh: a
    context cached before a mutation would hide it."""
    monkeypatch.setattr(full_sim, "_context_cache", {})
    return [r.name for r in run_all() if not r.passed]


def test_swapped_subset_rows_fail_the_index_check(monkeypatch):
    """Swap the first two rows of the colex table a WalkContext takes its
    subsets from: their ranks no longer match their rows, and the full
    engine flips the wrong rows."""
    table = full_sim.colex_table

    def swapped(n, k):
        out = table(n, k)
        out[[0, 1]] = out[[1, 0]]
        return out

    monkeypatch.setattr(full_sim, "colex_table", swapped)
    assert failed_checks(monkeypatch) == ["rank-unrank-bijection",
                                          "full-reduced-agreement"]


def test_swapped_union_ranks_fail_the_index_check(monkeypatch):
    """Swap the first and last entries of union_rank's first column: coin 2
    is still a reflection, but S is no longer a bijection."""
    init = full_sim.WalkContext.__init__

    def swapped(self, n, m):
        init(self, n, m)
        self.union_rank[[0, -1], 0] = self.union_rank[[-1, 0], 0]

    monkeypatch.setattr(full_sim.WalkContext, "__init__", swapped)
    assert failed_checks(monkeypatch) == ["rank-unrank-bijection",
                                          "reflection-involution-suite"]


def test_unlimited_count_fails_the_pascal_check(monkeypatch):
    """binomial_upto without its limit: the count past it is no longer
    refused, and only the Pascal check sees it at desk scale."""
    for module in (full_sim, verify):
        monkeypatch.setattr(module, "binomial_upto",
                            lambda n, k, limit: math.comb(n, k))
    assert failed_checks(monkeypatch) == ["binomial-pascal-oracle"]


def test_haar_orthogonal():
    """Orthogonal at every size, and Haar: over O(4) the trace has mean 0
    and second moment 1.  Without the sign fix the mean is about -0.8."""
    rng = random.Random(3)
    for d in (1, 2, 5, 16):
        u = haar_orthogonal(d, rng)
        assert np.max(np.abs(u.T @ u - np.eye(d))) <= 1e-12
    traces = np.array([np.trace(haar_orthogonal(4, rng)) for _ in range(4000)])
    assert abs(traces.mean()) <= 0.1
    assert abs(np.mean(traces ** 2) - 1.0) <= 0.15


def test_gaussian_is_seeded_and_standard():
    """The same seed gives the same draws, in the shape asked for; over
    10^5 draws the mean is near 0 and the variance near 1."""
    first = gaussian(random.Random(5), 3, 4)
    assert first.shape == (3, 4)
    assert np.array_equal(first, gaussian(random.Random(5), 3, 4))
    assert not np.array_equal(first, gaussian(random.Random(6), 3, 4))
    draws = gaussian(random.Random(0), 10 ** 5)
    assert draws.shape == (10 ** 5,) and np.all(np.isfinite(draws))
    assert abs(draws.mean()) <= 0.02
    assert abs(draws.var() - 1.0) <= 0.02
