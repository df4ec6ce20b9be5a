"""Smoke self-test of the benchmark at tiny sizes (n=9, n=10^4).

    python3 -m pytest perfbench

Not part of the Tier-1 suite (pytest's testpaths is tests/).  Checks that
every end-to-end and per-layer metric named in BENCHMARK.json is reported
with its unit, that a forced correctness mismatch counts as a failed
operation, that the BLAS pin holds in the benchmark process, and that the
benchmark refuses to run without the package.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import blas_pin
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "full-cold": {"n": 9},
    "full-warm": {"n": 9},
    "reduced-scale": {"n": 10 ** 4},
    "analysis": {"spectrum_n": 10 ** 4},
}
SECONDS = 0.5


def units_of(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {e["name"] for e in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert units_of(SPEC["end_to_end"]) == run.END_TO_END_UNITS
    assert units_of(SPEC["per_layer"]) == tracer.per_layer_units()
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def run_tiny(name, trace, workload=None):
    args = run.parse_args(["--workload", name, "--seed", "3",
                           "--seconds", str(SECONDS), "--trace", str(trace)])
    if workload is None:
        workload = workloads.make_workload(name, args.seed, **TINY[name])
    return run.run(args, workload)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_reported_with_its_unit(name, trace):
    result = run_tiny(name, trace)
    expected = units_of(SPEC["per_layer" if trace else "end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_run_sees_the_layers_it_drives():
    metrics = run_tiny("full-cold", 1)["metrics"]
    for name in ("cli.import_s", "cli.main_s", "full_sim.context_build_s",
                 "full_sim.walk_step_s", "reduced_sim.embed_to_full_s"):
        assert metrics[name]["value"] > 0, name
    # self time excludes the child spans: a walk step is mostly its kernels
    assert metrics["full_sim.walk_step_self_s"]["value"] \
        < metrics["full_sim.walk_step_s"]["value"]
    assert metrics["full_sim.walk_steps"]["value"] > 0


class Corrupted:
    """Delegates to a workload but perturbs each operation's output."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def op(self, inputs, traced=False):
        return self.corrupt(self.inner.op(inputs, traced))


def _shift_success(report):
    report.success_probability += 1e-6
    return report


def _shift_overlap(children):
    out = json.loads(children[0].stdout)
    out["reduced"]["overlap_w"] += 1e-6
    children[0].stdout = json.dumps(out)
    return children


@pytest.mark.parametrize("name, corrupt", [("full-warm", _shift_success),
                                           ("reduced-scale", _shift_overlap)])
def test_forced_mismatch_counts_as_failed(name, corrupt):
    inner = workloads.make_workload(name, 3, **TINY[name])
    result = run_tiny(name, 0, Corrupted(inner, corrupt))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_blas_pin_holds_in_the_benchmark_process():
    """run.py pins BLAS before numpy loads, also when the caller set no pin.

    The provenance line comes first; the run is stopped once it is read.
    """
    env = {k: v for k, v in os.environ.items() if k not in blas_pin.BLAS_ENV}
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "full-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert line.startswith("provenance ")
    prov = json.loads(line[len("provenance "):])
    assert prov["blas_threads"] == 1
    assert prov["blas_threads_effective"] == 1
