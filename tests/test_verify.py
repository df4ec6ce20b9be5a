"""The verify invariant suite and its built-in mutation check."""
from johnson_walk.verify import run_all


def test_all_checks_pass():
    results = run_all()
    assert len(results) == 16
    assert [r.name for r in results if not r.passed] == []


def test_c2_sign_error_fails_exactly_the_state_checks():
    """The mutated walk matrix stays orthogonal, so only the two checks
    that compare it against the start state or the full engine fail."""
    failed = [r.name for r in run_all(_c2_offdiag_sign=-1.0) if not r.passed]
    assert failed == ["walk-fixes-start-state", "full-reduced-agreement"]
