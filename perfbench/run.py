#!/usr/bin/env python3
"""Benchmark of johnson-walk: four workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from src/ next to this directory,
never from an installed copy.  One client runs a closed loop: each operation
starts after the previous one ended, until the next one would end past
--seconds.  Every operation's output is checked (see workloads.py).

--trace 0 reports the end-to-end metrics: the median of several set-ups
spread over the run, the median and tail operation time, throughput and
peak RSS.
--trace 1 spends half of --seconds untraced and half traced, and reports the
per-layer metrics of the traced operations (tracer.py) and the tracing
overhead, the difference between the two phases' median operation times.

Human-readable lines, provenance first, go to stdout; the last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import blas_pin  # first: OpenBLAS reads the pin when numpy loads it
from tracer import COMPUTED, Tracer, op_metrics, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TAIL_BEYOND = 10
SETUPS = 9          # set-ups per end-to-end run; setup_s is their median

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Phase:
    """The measured loop of one run, traced or not."""
    durations: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    layer_values: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_kib: int = 0

    @property
    def attempted(self) -> int:
        return len(self.durations)


def measure(workload, seconds: float, tracer=None, setups: int = 0) -> Phase:
    """Closed loop of operations for about `seconds` of operation time.

    The loop stops before an operation that would, at the median duration
    so far, end past the budget; at least one operation always runs.  Input
    drawing and correctness checks are excluded from the phase's wall time.

    With `setups`, the phase also times that many set-ups into
    `phase.setup_s`, spread over the run so that their median does not
    hang on one episode of host speed: set-up i starts once i/setups of the
    operation time has passed, the first, kept, one before any operation.
    Set-ups are excluded from the phase's wall time too.
    """
    phase = Phase()
    traced = tracer is not None

    def set_up():
        t0 = time.perf_counter()
        workload.setup(keep=not phase.setup_s)
        phase.setup_s.append(time.perf_counter() - t0)

    start = time.perf_counter()
    untimed = 0.0
    while True:
        elapsed = time.perf_counter() - start - untimed
        done = len(phase.setup_s)
        if done < setups and elapsed >= seconds * done / setups:
            t0 = time.perf_counter()
            set_up()
            untimed += time.perf_counter() - t0
            continue
        if phase.durations and \
                elapsed + statistics.median(phase.durations) > seconds:
            break
        t_prep = time.perf_counter()
        inputs = workload.prepare()
        if traced:
            tracer.take_op()     # drop spans recorded outside an operation
        t0 = time.perf_counter()
        untimed += t0 - t_prep
        error = None
        try:
            output = workload.op(inputs, traced=traced)
        except Exception as exc:   # a failed operation is counted, not fatal
            output, error = None, f"op raised {exc!r}"
            traceback.print_exc()
        t1 = time.perf_counter()
        phase.durations.append(t1 - t0)
        if error is None:
            try:
                error = workload.check(inputs, output)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"output unreadable: {exc!r}"
            phase.peak_rss_kib = max(phase.peak_rss_kib,
                                     workload.peak_rss_kib(output))
            if traced:
                summary = tracer.take_op() if workload.in_process \
                    else workload.summary(output)
                phase.layer_values.append(op_metrics(summary))
        if error is not None:
            phase.failures.append(error)
        del output
        untimed += time.perf_counter() - t1
    phase.wall_s = time.perf_counter() - start - untimed
    while len(phase.setup_s) < setups:   # a run too short to spread them
        set_up()
    return phase


def tail(samples):
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n > TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return xs[-1], 100.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args) -> dict:
    import numpy
    import scipy
    from johnson_walk.full_sim import memory_cap

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_pin.BLAS_THREADS,
        "blas_threads_effective": blas_pin.effective_threads(),
        "blas_env": {k: os.environ.get(k) for k in blas_pin.BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "johnson_walk_memcap": memory_cap(),
        "memcap_from_env": os.environ.get("JOHNSON_WALK_MEMCAP") is not None,
        "load": "closed loop, 1 client, 1 process",
    }


def end_to_end(workload, seconds: float):
    """One untraced phase with SETUPS set-ups spread over it."""
    phase = measure(workload, seconds, setups=SETUPS)
    tail_value, tail_pct = tail(phase.durations)
    ok = phase.attempted - len(phase.failures)
    metrics = {
        "setup_s": statistics.median(phase.setup_s),
        "op_p50_s": statistics.median(phase.durations),
        "op_tail_s": tail_value,
        "ops_per_s": ok / phase.wall_s,
        "peak_rss_mib": phase.peak_rss_kib / 1024.0,
    }
    beyond = sum(d > tail_value for d in phase.durations)
    notes = {
        "setup_s": f"median of {SETUPS} set-ups: " + " ".join(
            f"{s:.3f}" for s in phase.setup_s),
        "op_p50_s": f"{phase.attempted} samples",
        "op_tail_s": f"p{tail_pct:.1f} of {phase.attempted} samples, "
                     f"{beyond} beyond",
        "ops_per_s": f"{ok} ops in {phase.wall_s:.3f} s",
        "peak_rss_mib": "process that did the work",
    }
    return [phase], metrics, END_TO_END_UNITS, notes


def per_layer(workload, seconds: float):
    """Set up once, then an untraced and a traced phase of seconds/2 each."""
    workload.setup(keep=True)
    plain = measure(workload, seconds / 2.0)
    tracer = Tracer()
    # CLI children install their own wrappers (traced_cli.py)
    with tracer.installed() if workload.in_process else contextlib.nullcontext():
        traced = measure(workload, seconds / 2.0, tracer)
    units = per_layer_units()
    metrics = {}
    if traced.layer_values:
        for name in units:
            if name in traced.layer_values[0]:
                metrics[name] = statistics.median(
                    v[name] for v in traced.layer_values)
    untraced_p50 = statistics.median(plain.durations)
    traced_p50 = statistics.median(traced.durations)
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    notes = {name: "computed" for name in COMPUTED}
    notes["trace.overhead_s"] = (
        f"traced p50 {traced_p50:.4f} s over {traced.attempted} ops minus "
        f"untraced p50 {untraced_p50:.4f} s over {plain.attempted} ops")
    return [plain, traced], metrics, units, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run(args, workload) -> dict:
    """Run one workload and print its report; returns the result object."""
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(f"workload {args.workload}: {' '.join(workload.__doc__.split())}")
    measure_fn = per_layer if args.trace else end_to_end
    phases, metrics, units, notes = measure_fn(workload, args.seconds)

    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    for p in phases:
        for reason in p.failures[:5]:
            print(f"check failed: {reason}", file=sys.stderr)
    for p in phases:
        print("op durations s: " + " ".join(f"{d:.3f}" for d in p.durations))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {units[name]}{note}")
    print(f"error_rate = {failed / attempted!r} 1  ({failed} of {attempted} "
          f"operations failed or failed their check)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "johnson_walk" / "__init__.py").is_file():
        print(f"error: no johnson_walk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import johnson_walk

    if Path(johnson_walk.__file__).resolve().parent != SRC / "johnson_walk":
        print(f"error: johnson_walk imported from {johnson_walk.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, not one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args, make_workload(args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
