"""The benchmark's tracer wraps package functions by name, so a renamed
kernel would silently drop out of `perfbench/run.py --trace 1`.  Each name
it lists must resolve the way the tracer looks it up."""
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py as a module, compiled from its text so that no
    bytecode cache is written next to it; it needs only the standard
    library to load."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    assert "full_sim.coin2" in tracer.LAYERS
    for name, (module_name, attr) in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        if "." in attr:  # a method, looked up in its class's own namespace
            cls_name, meth = attr.split(".")
            target = vars(getattr(module, cls_name)).get(meth)
        else:
            target = getattr(module, attr, None)
        assert callable(target), f"{name}: {module_name}.{attr} is missing"


def test_traced_verify_checks_are_the_checks():
    """The tracer wraps each verify check by name, in ALL_CHECKS' order: an
    added, removed or renamed check must show here, not in a traced run."""
    from johnson_walk import verify

    assert load_tracer().VERIFY_CHECKS == tuple(
        check.__name__ for check in verify.ALL_CHECKS)


@pytest.mark.parametrize("argv, layer", [
    (("cost", "--optimize", "--l", "3", "--variant", "recursive"),
     "cost_model.optimize_m"),
    (("spectrum", "--n", "10000000", "--l", "2"), "spectral.eigendecompose"),
], ids=["cost", "spectrum"])
def test_traced_cli_reaches_lazily_loaded_layers(argv, layer):
    """The CLI loads the engines inside its commands and the package looks
    its names up on use; the tracer's wrappers must still be what a traced
    command calls, and must leave its output as it is."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")

    def run(*args):
        proc = subprocess.run([sys.executable, *args, *argv], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc

    traced = run(str(ROOT / "perfbench" / "traced_cli.py"))
    assert traced.stdout == run("-m", "johnson_walk.cli").stdout
    marker = load_tracer().SPAN_MARKER
    last = traced.stderr.splitlines()[-1]
    assert last.startswith(marker)
    spans = json.loads(last[len(marker):])["spans"]
    for name in ("cli.main", layer):
        assert spans.get(name, [0, 0, 0])[2] > 0, name


def test_traced_full_run_enters_every_kernel():
    """An in-process full run under the tracer reaches each walk kernel's
    wrapper, so none drops out of `--trace 1` unnoticed; the shift is only
    the reference coin 2 is checked against, and a run never calls it."""
    from johnson_walk import make_family
    from johnson_walk.full_sim import run_algorithm

    inst = make_family("element-distinctness", n=9, seed=1)
    tracer = load_tracer().Tracer()
    with tracer.installed():
        run_algorithm(inst, 4, 2, 2)
    spans = tracer.take_op()["spans"]
    for name in ("coin1", "coin2", "walk_step", "phase_flip", "marked_mask"):
        assert spans.get(f"full_sim.{name}", [0, 0, 0])[2] > 0, name
    assert "full_sim.shift" not in spans
