"""Fixtures shared by the test modules."""
import pytest


@pytest.fixture
def scans(monkeypatch):
    """The instances scanned, one entry per instances.find_marked call, the
    one scan path of the package."""
    from johnson_walk import instances

    calls = []
    scan = instances.find_marked

    def counted(instance):
        calls.append(instance)
        return scan(instance)

    monkeypatch.setattr(instances, "find_marked", counted)
    return calls
