"""Deterministic JSON / CSV emission for reports.

Every float is rendered with 17 significant digits (enough to
round-trip an IEEE double), so identical runs produce byte-identical
output files that can be diffed as fixtures.
"""
from __future__ import annotations

import dataclasses
import json
import re
import sys


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a float (round-trip safe)."""
    return format(float(x), ".17g")


def dumps_report(obj) -> str:
    """JSON text with fixed key order and 17-digit floats.

    A dataclass renders as its fields in order, less those declared
    repr=False; arrays render as lists of floats.  json.dumps always
    formats floats with repr, so floats are swapped for string
    placeholders and substituted back in one pass after encoding.  numpy
    is looked up, not imported: no array exists if it was never loaded.
    """
    slots: list[str] = []
    np = sys.modules.get("numpy")

    def render(node):
        if dataclasses.is_dataclass(node):
            return {f.name: render(getattr(node, f.name))
                    for f in dataclasses.fields(node) if f.repr}
        if np is not None and isinstance(node, np.ndarray):
            return render(list(map(float, node)))
        if isinstance(node, bool) or node is None:
            return node
        if isinstance(node, float):
            slots.append(format_float(node))
            return f"--f17-slot-{len(slots) - 1}--"
        if isinstance(node, dict):
            return {k: render(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [render(v) for v in node]
        return node

    text = json.dumps(render(obj), indent=2)
    return re.sub(r'"--f17-slot-(\d+)--"', lambda s: slots[int(s[1])], text)


def csv_line(values) -> str:
    return ",".join(format_float(v) if isinstance(v, float) else str(v)
                    for v in values)
