"""Per-layer spans recorded around calls into johnson_walk's public functions.

The benchmark does not change the package.  `Tracer.installed()` swaps each
function listed in LAYERS for a wrapper wherever the package binds it (module
globals, re-exports, the `verify.ALL_CHECKS` tuple, class attributes) and
puts the originals back on exit.  Each call is a span; the span open when it
starts is its parent.  The tracer keeps, in memory, per span name the busy
time (nested calls of the same name counted once), the self time (duration
minus the time covered by child spans) and the call count.  A few wrappers
also record probes: the counts and sizes the per-layer metrics derive from.

`Tracer.take_op()` closes one operation and returns that summary.  A CLI
child process (traced_cli.py) sends it to the benchmark on its stderr.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import sys
import time

# Span name -> (module, attribute).  Dotted attributes are methods.
LAYERS = {
    "cli.main": ("johnson_walk.cli", "main"),
    "serialize.dumps_report": ("johnson_walk.serialize", "dumps_report"),
    "combinat.norm_constants": ("johnson_walk.combinat", "norm_constants"),
    "combinat.symmetric_ratio": ("johnson_walk.combinat", "symmetric_ratio"),
    "instances.make_family": ("johnson_walk.instances", "make_family"),
    "instances.find_marked": ("johnson_walk.instances", "find_marked"),
    "full_sim.context_build": ("johnson_walk.full_sim", "WalkContext.__init__"),
    "full_sim.marked_mask": ("johnson_walk.full_sim", "WalkContext.marked_row_mask"),
    "full_sim.coin1": ("johnson_walk.full_sim", "apply_coin1"),
    "full_sim.coin2": ("johnson_walk.full_sim", "apply_coin2"),
    "full_sim.shift": ("johnson_walk.full_sim", "apply_shift"),
    "full_sim.walk_step": ("johnson_walk.full_sim", "apply_walk_step"),
    "full_sim.phase_flip": ("johnson_walk.full_sim", "apply_phase_flip"),
    "reduced_sim.run_reduced": ("johnson_walk.reduced_sim", "run_reduced"),
    "reduced_sim.build_walk_matrix": ("johnson_walk.reduced_sim", "build_walk_matrix"),
    "reduced_sim.embed_to_full": ("johnson_walk.reduced_sim", "embed_to_full"),
    "spectral.walk_spectrum": ("johnson_walk.spectral", "walk_spectrum"),
    "spectral.delta_decomposition": ("johnson_walk.spectral", "delta_decomposition"),
    "spectral.algorithm_rotation": ("johnson_walk.spectral", "algorithm_rotation"),
    "spectral.eigendecompose": ("johnson_walk.spectral", "eigendecompose_unitary"),
    "spectral.up_eigenphases": ("johnson_walk.spectral", "up_eigenphases"),
    "cost_model.choose_parameters": ("johnson_walk.cost_model", "choose_parameters"),
    "cost_model.optimize_m": ("johnson_walk.cost_model", "optimize_m"),
    "verify.run_all": ("johnson_walk.verify", "run_all"),
}
VERIFY_CHECKS = (
    "check_binomial_pascal", "check_rank_unrank", "check_norm_constant_sums",
    "check_reflections", "check_walk_orthogonal", "check_walk_fixes_start",
    "check_full_reduced_agreement", "check_query_accounting",
    "check_three_cycle", "check_spectrum_closed_form",
    "check_delta_decomposition", "check_up_rootfinder", "check_rotation_pair",
    "check_cost_table", "check_optimizer_fits", "check_final_overlap",
)
LAYERS.update({f"verify.{name}": ("johnson_walk.verify", name)
               for name in VERIFY_CHECKS})

# Spans the benchmark opens itself rather than by wrapping a function.
IMPORT_SPAN = "cli.import"
# Prefix of the stderr line that carries a child process's span summary.
SPAN_MARKER = "@@perfbench-spans "
SPAN_NAMES = (IMPORT_SPAN, *LAYERS)

COMPLEX_BYTES = 16
INDEX_BYTES = 8


def step_bytes(dim_a: int, dim_b: int) -> int:
    """Bytes one walk step touches under the current kernels (computed).

    Each coin reads its side twice (mean, then update) and writes it once.
    Each shift reads the int64 map twice, gathers and scatters one side,
    and writes the other side once.
    """
    coin1 = 3 * dim_a * COMPLEX_BYTES
    coin2 = 3 * dim_b * COMPLEX_BYTES
    shift = 2 * dim_a * INDEX_BYTES + 4 * dim_a * COMPLEX_BYTES \
        + dim_b * COMPLEX_BYTES
    return coin1 + coin2 + 2 * shift


def _probe_find_marked(args, kwargs, result):
    inst = args[0]
    return {"instances.subsets_scanned": math.comb(inst.n, inst.l)}


def _probe_walk_step(args, kwargs, result):
    ctx = args[0].ctx
    return {"full_sim.step_amplitudes": ctx.dim_a + ctx.dim_b,
            "full_sim.step_bytes": step_bytes(ctx.dim_a, ctx.dim_b),
            "ctx": ctx}


def _probe_context_build(args, kwargs, result):
    return {"ctx": args[0]}


def _probe_run_reduced(args, kwargs, result):
    import numpy as np

    drift = abs(float(np.linalg.norm(result.final_state)) - 1.0)
    return {"reduced_sim.matvecs": result.t1 * result.t2,
            "reduced_sim.norm_drift": drift}


PROBES = {
    "instances.find_marked": _probe_find_marked,
    "full_sim.walk_step": _probe_walk_step,
    "full_sim.context_build": _probe_context_build,
    "reduced_sim.run_reduced": _probe_run_reduced,
}
MAX_PROBES = {"reduced_sim.norm_drift"}


def _add_probe(probes, key, value):
    """Probes add up over calls, except the MAX_PROBES, which keep the worst."""
    if key in MAX_PROBES:
        probes[key] = max(probes.get(key, value), value)
    else:
        probes[key] = probes.get(key, 0) + value


def footprint_bytes(obj) -> int:
    """Computed size of one attribute: an array by nbytes, a list or tuple
    with its arrays and tuples one level down.  Small ints are shared
    singletons and not counted."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.nbytes
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(x.nbytes if isinstance(x, np.ndarray)
                    else sys.getsizeof(x) if isinstance(x, tuple) else 0
                    for x in obj)
    return size


def context_footprint(ctx) -> int:
    """Computed footprint of a WalkContext's index: every attribute it holds."""
    return sum(footprint_bytes(v) for v in vars(ctx).values())


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self._stack = []        # open frames: [name, start, child_time]
        self._totals = {}       # name -> [busy_s, self_s, calls]
        self._probes = {}
        self._contexts = {}     # id -> WalkContext touched during the op

    @contextlib.contextmanager
    def span(self, name):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _open(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        name, start, child = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        busy, own, calls = self._totals.get(name, (0.0, 0.0, 0))
        nested = any(f[0] == name for f in self._stack)
        self._totals[name] = [busy + (0.0 if nested else duration),
                              own + duration - child, calls + 1]

    def _record_probe(self, values):
        for key, value in values.items():
            if key == "ctx":
                self._contexts[id(value)] = value
            else:
                _add_probe(self._probes, key, value)

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if probe is not None:
                self._record_probe(probe(args, kwargs, result))
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every LAYERS function for the duration of the block."""
        importlib.import_module("johnson_walk.cli")
        importlib.import_module("johnson_walk.verify")
        undo = []
        try:
            for name, (module_name, attr) in LAYERS.items():
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(name, original))
                    undo.append((cls, meth, original))
                else:
                    original = getattr(module, attr)
                    undo.extend(_rebind(original, self.wrap(name, original)))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def take_op(self) -> dict:
        """Summary of everything recorded since the previous call."""
        summary = {
            "spans": {k: list(v) for k, v in self._totals.items()},
            "probes": dict(self._probes),
            "contexts": [[ctx.dim_a + ctx.dim_b, context_footprint(ctx)]
                         for ctx in self._contexts.values()],
        }
        self._totals, self._probes, self._contexts = {}, {}, {}
        return summary


def _rebind(original, replacement):
    """Point every johnson_walk binding of `original` at `replacement`.

    Returns (owner, attribute, old value) triples for undoing it.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "johnson_walk"
                                  or mod_name.startswith("johnson_walk.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)
            elif isinstance(value, tuple) and any(v is original for v in value):
                undo.append((module, attr, value))
                setattr(module, attr, tuple(replacement if v is original else v
                                            for v in value))
    return undo


def merge_summaries(parts) -> dict:
    """Combine the summaries of the processes that made up one operation.

    A process that died before sending its summary contributes nothing; its
    operation has already failed its check.
    """
    spans, probes, contexts = {}, {}, []
    for part in filter(None, parts):
        for name, (busy, own, calls) in part["spans"].items():
            acc = spans.setdefault(name, [0.0, 0.0, 0])
            acc[0] += busy
            acc[1] += own
            acc[2] += calls
        for key, value in part["probes"].items():
            _add_probe(probes, key, value)
        contexts.extend(part["contexts"])
    return {"spans": spans, "probes": probes, "contexts": contexts}


# Per-layer metrics that are not span times: name -> unit.  The ones marked
# computed are derived from sizes and counters, not timed, and repeat exactly
# for the same inputs.
COUNT_METRICS = {
    "instances.subsets_scanned": "count",
    "full_sim.context_bytes": "B",
    "full_sim.amplitudes": "count",
    "full_sim.marked_mask_calls": "count",
    "full_sim.walk_steps": "count",
    "full_sim.amp_updates_per_s": "1/s",
    "full_sim.bytes_per_step": "B",
    "reduced_sim.matvecs": "count",
    "reduced_sim.norm_drift": "1",
}
COMPUTED = {"instances.subsets_scanned", "full_sim.context_bytes",
            "full_sim.amplitudes", "full_sim.bytes_per_step",
            "reduced_sim.matvecs"}
OVERHEAD_METRICS = {"trace.overhead_s": "s"}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    units.update(COUNT_METRICS)
    units.update(OVERHEAD_METRICS)
    return units


def op_metrics(summary) -> dict:
    """Per-layer values of one operation, from its (merged) summary.

    A `_s` value is the layer's busy time in the operation, summed over its
    calls; a layer the operation never entered reads 0.
    """
    spans, probes = summary["spans"], summary["probes"]
    out = {}
    for name in SPAN_NAMES:
        busy, own, _ = spans.get(name, (0.0, 0.0, 0))
        out[f"{name}_s"] = busy
        out[f"{name}_self_s"] = own
    steps = spans.get("full_sim.walk_step", (0.0, 0.0, 0))
    out["instances.subsets_scanned"] = probes.get("instances.subsets_scanned", 0)
    out["full_sim.context_bytes"] = sum(b for _, b in summary["contexts"])
    out["full_sim.amplitudes"] = sum(a for a, _ in summary["contexts"])
    out["full_sim.marked_mask_calls"] = spans.get("full_sim.marked_mask",
                                                  (0, 0, 0))[2]
    out["full_sim.walk_steps"] = steps[2]
    out["full_sim.amp_updates_per_s"] = (
        probes.get("full_sim.step_amplitudes", 0) / steps[0] if steps[0] else 0.0)
    out["full_sim.bytes_per_step"] = (
        probes.get("full_sim.step_bytes", 0) / steps[2] if steps[2] else 0)
    out["reduced_sim.matvecs"] = probes.get("reduced_sim.matvecs", 0)
    out["reduced_sim.norm_drift"] = probes.get("reduced_sim.norm_drift", 0.0)
    return out
