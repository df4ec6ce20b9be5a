"""The algorithm both engines run, and the report they return.

The algorithm is (W^t1 P)^t2: flip the phase of the marked subsets (P),
then take t1 walk steps (W), and repeat t2 times.  The full engine runs
it as the loop run_walk, with its own start state, flip and step; the
reduced engine, whose W is a matrix of at most 2l+1 rows, as two matrix
powers.  This module imports neither engine.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunReport:
    n: int
    m: int
    l: int
    t1: int
    t2: int
    mode: str
    engine: str
    success_probability: float
    overlap_w: float
    query_count: int
    flags: tuple = ()
    final_state: object = field(default=None, repr=False, compare=False)


def run_walk(state, t1: int, t2: int, flip, step):
    """Apply (W^t1 P)^t2 to state, where P = flip and W = step.

    Each operation takes the state and returns the new one.
    """
    if t1 < 0 or t2 < 0:
        raise ValueError("t1, t2 must be nonnegative")
    for _ in range(t2):
        # rightmost factor of W^t1 P acts first: flip, then walk
        state = flip(state)
        for _ in range(t1):
            state = step(state)
    return state


def scan_flags(found) -> tuple:
    """Report flags for an instance's marked sets (None: no scan was made).

    A run is "unguaranteed" unless the scan finds exactly one marked set;
    without a scan, a unique marked set is assumed.
    """
    if found is None:
        return ("assumed_unique",)
    if not found:
        return ("unguaranteed", "no_marked")
    return () if len(found) == 1 else ("unguaranteed",)
