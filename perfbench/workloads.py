"""The benchmark's four workloads and the child processes they run.

Every workload has one operation shape, so that the median operation time
has a single mode:

  full-cold      one fresh `johnson-walk simulate --engine both` process at
                 n=20: the CLI user's path through the full engine, paying
                 imports and the WalkContext build every time.
  full-warm      in-process `full_sim.run_algorithm` at n=20 on the next
                 planted instance, with the context built once in set-up:
                 the Python-API user's path through the same layers.
  reduced-scale  one fresh `johnson-walk simulate --engine reduced` process
                 at n=10^8, l=3: the reduced engine's t1*t2 loop.
  analysis       fresh `verify`, `spectrum` and `cost --optimize` processes
                 in that order: the spectral, cost-model and verify layers.

Each workload splits an operation into prepare (untimed: draw the inputs
from the seed), op (timed) and check (untimed: a correctness gate that does
not reuse the op's own result path).  setup(keep) is the set-up that
setup_s times; the benchmark runs it several times over a run, and only the
first, kept, one prepares the state the operations use.
"""
from __future__ import annotations

import json
import os
import random
import re
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import blas_pin  # noqa: F401  (before numpy: pins BLAS to one thread)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

# Called through the package namespace, so that the tracer's wrappers
# (tracer.py) are the functions these calls reach.
import johnson_walk as jw  # noqa: E402

from tracer import SPAN_MARKER, merge_summaries  # noqa: E402

CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    """One finished child process."""
    args: list
    returncode: int
    stdout: str
    stderr: str
    maxrss_kib: int
    summary: dict | None = None


def run_python(args, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run `python3 <args>` in the checkout and wait for it to end.

    os.wait4 gives the child's own peak RSS.  stderr is drained on a thread
    so that neither pipe can fill while the other is read; a timer kills a
    child that outlives `timeout`.
    """
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:      # interrupted before the child ended
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    stderr = err[0].decode() if err else ""
    summary = None
    lines = stderr.rstrip("\n").split("\n")
    if lines and lines[-1].startswith(SPAN_MARKER):
        summary = json.loads(lines[-1][len(SPAN_MARKER):])
        stderr = "\n".join(lines[:-1])
    return Child(args, proc.returncode, out.decode(), stderr,
                 usage.ru_maxrss, summary)


class CliWorkload:
    """An operation is a fixed sequence of fresh johnson-walk processes."""
    name = ""
    in_process = False
    warmup_imports = ("johnson_walk.cli",)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self, keep: bool = True):
        """One warm-up process fills the bytecode and page caches, so that
        the first timed process is not an outlier."""
        warm = run_python(["-c", "import " + ", ".join(self.warmup_imports)])
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up import failed: {warm.stderr.strip()}")

    def prepare(self) -> list:
        raise NotImplementedError

    def op(self, commands, traced: bool = False) -> list:
        entry = [str(HERE / "traced_cli.py")] if traced \
            else ["-m", "johnson_walk.cli"]
        return [run_python([*entry, *cmd]) for cmd in commands]

    def check(self, commands, children) -> str | None:
        """None when every output is right, else the first reason it is not."""
        for child in children:
            if child.returncode != 0:
                return (f"{' '.join(child.args)} exited {child.returncode}: "
                        f"{child.stderr.strip()[-300:]}")
        return self.check_outputs(children)

    def check_outputs(self, children) -> str | None:
        raise NotImplementedError

    @staticmethod
    def peak_rss_kib(children) -> int:
        return max(c.maxrss_kib for c in children)

    @staticmethod
    def summary(children) -> dict:
        return merge_summaries(c.summary for c in children)


class FullCold(CliWorkload):
    """Fresh simulate --engine both at n=20: imports, WalkContext build, full
    run and embed_to_full paid in every process."""
    name = "full-cold"

    def __init__(self, seed: int, n: int = 20):
        super().__init__(seed)
        self.n = n

    def prepare(self):
        return [["simulate", "--engine", "both", "--family",
                 "element-distinctness", "--n", str(self.n),
                 "--seed", str(self.rng.randrange(2 ** 31))]]

    def check_outputs(self, children):
        report = json.loads(children[0].stdout)
        dev = report["max_state_deviation"]
        gap = abs(report["full"]["success_probability"]
                  - report["reduced"]["success_probability"])
        if not dev <= 1e-9:
            return f"max_state_deviation {dev} > 1e-9"
        if not gap <= 1e-9:
            return f"full and reduced success differ by {gap}"
        return None


class ReducedScale(CliWorkload):
    """Fresh simulate --engine reduced at n=10^8, l=3: ~712k reduced
    matrix-vector products, full engine untouched."""
    name = "reduced-scale"

    def __init__(self, seed: int, n: int = 10 ** 8, l: int = 3):
        super().__init__(seed)
        self.n, self.l = n, l
        self._reference = None

    def prepare(self):
        # the dynamics depend only on (n, l); the seed reaches the program
        # as the --seed it echoes back
        return [["simulate", "--engine", "reduced", "--n", str(self.n),
                 "--l", str(self.l), "--seed", str(self.rng.randrange(2 ** 31))]]

    def reference(self):
        """overlap_w and query count from W^t1 by matrix_power, not the loop."""
        if self._reference is None:
            p = jw.choose_parameters(self.n, self.l)
            basis = jw.ReducedBasis(self.n, p.m, self.l)
            w_idx = basis.index(self.l, 0)
            u = np.linalg.matrix_power(jw.build_walk_matrix(basis), p.t1)
            u[:, w_idx] *= -1.0      # U P: the flip acts first
            state = np.linalg.matrix_power(u, p.t2) @ jw.reduced_s(basis)
            self._reference = (float(state[w_idx] ** 2),
                               p.m + 2 * p.t1 * p.t2)
        return self._reference

    def check_outputs(self, children):
        report = json.loads(children[0].stdout)["reduced"]
        overlap, queries = self.reference()
        if not abs(report["overlap_w"] - overlap) <= 1e-10:
            return f"overlap_w {report['overlap_w']} vs reference {overlap}"
        if report["query_count"] != queries:
            return f"query_count {report['query_count']} vs m + 2 t1 t2 = {queries}"
        return None


class Analysis(CliWorkload):
    """Fresh verify, spectrum at n=10^7 and cost --optimize: the spectral,
    cost-model, verify and exact combinat layers."""
    name = "analysis"
    warmup_imports = ("johnson_walk.cli", "johnson_walk.verify", "scipy.stats")
    MIN_CHECKS = 16

    def __init__(self, seed: int, spectrum_n: int = 10 ** 7):
        super().__init__(seed)
        self.spectrum_n = spectrum_n

    def prepare(self):
        return [["verify"],
                ["spectrum", "--n", str(self.spectrum_n), "--l", "2"],
                ["cost", "--optimize", "--l", "3", "--variant", "recursive"]]

    def check_outputs(self, children):
        verify, spectrum, cost = children
        found = re.search(r"^(\d+)/(\d+) checks passed$", verify.stdout, re.M)
        if not found or found.group(1) != found.group(2) \
                or int(found.group(2)) < self.MIN_CHECKS:
            return f"verify summary: {verify.stdout.strip()[-200:]}"
        if json.loads(spectrum.stdout)["walk_spectrum"]["closed_form_exact"] \
                is not True:
            return "spectrum: closed_form_exact is not true"
        if "m_star" not in json.loads(cost.stdout):
            return "cost: no m_star in the report"
        return None


class FullWarm:
    """In-process run_algorithm at n=20 on a cached WalkContext: the walk
    kernels and marked scan, with the build moved to set-up."""
    name = "full-warm"
    in_process = True

    def __init__(self, seed: int, n: int = 20):
        self.n = n
        self.rng = random.Random(seed)
        self._reference = None
        self._peak_kib = None

    def setup(self, keep: bool = True):
        """Resolve (m, t1, t2) and build the context, about 4 s at n=20.

        The kept set-up goes through get_context, which caches the context
        for the operations.  A later one builds a second context and drops
        it.  A user of the cache never builds that second context, so the
        process's peak RSS is read before the first such build.
        """
        p = jw.choose_parameters(self.n, 2)
        self.m, self.t1, self.t2 = p.m, p.t1, p.t2
        if keep:
            jw.get_context(self.n, self.m)
            return
        if self._peak_kib is None:
            self._peak_kib = self.peak_rss_kib(None)
        jw.WalkContext(self.n, self.m)

    def prepare(self):
        return self.rng.randrange(2 ** 31)

    def op(self, instance_seed, traced: bool = False):
        inst = jw.make_family("element-distinctness", n=self.n,
                              seed=instance_seed)
        return jw.run_algorithm(inst, self.m, self.t1, self.t2)

    def reference(self):
        """Success probability of the reduced engine at the same
        (n, m, l, t1, t2)."""
        if self._reference is None:
            rep = jw.run_reduced(jw.ReducedBasis(self.n, self.m, 2),
                                 self.t1, self.t2)
            self._reference = rep.success_probability
        return self._reference

    def check(self, instance_seed, report) -> str | None:
        drift = abs(report.final_state.norm() - 1.0)
        if not drift <= 1e-9:
            return f"final-state norm off by {drift}"
        gap = abs(report.success_probability - self.reference())
        if not gap <= 1e-9:
            return f"success differs from run_reduced by {gap}"
        return None

    def peak_rss_kib(self, report) -> int:
        if self._peak_kib is not None:
            return self._peak_kib
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {w.name: w for w in (FullCold, FullWarm, ReducedScale, Analysis)}


def make_workload(name: str, seed: int, **sizes):
    """The named workload; `sizes` overrides its problem sizes (smoke test)."""
    return WORKLOADS[name](seed, **sizes)
