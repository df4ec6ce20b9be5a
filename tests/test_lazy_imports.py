"""What a command imports: `cost` runs without numpy, no command needs
numpy.random, and the package's public names load their modules on first
use."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import johnson_walk as jw
from johnson_walk.cli import main

ROOT = Path(__file__).resolve().parent.parent
CLI = "from johnson_walk.cli import main; sys.exit(main(sys.argv[1:]))"

# Every public name of the package.
EXPORTS = """
RunReport
binomial norm_constants
MSS RECURSIVE SIMPLE CliqueCostRow OptimizeResult ParameterChoice
choose_parameters clique_cost nint optimize_m oracle_queries
table1 table1_csv
DEFAULT_MEMCAP FullState MemoryCapError WalkContext apply_coin1 apply_coin2
apply_phase_flip apply_shift apply_walk_step get_context memory_cap
prepare_s run_algorithm
ITEM PAIRWISE GenerationError MarkedSet ProblemInstance
find_marked instance_from_json instance_to_json load_instance make_family
pair_index
ReducedBasis build_walk_matrix coin1_matrix coin2_matrix embed_to_full
reduced_s run_reduced
DeltaDecomposition RootBracketError RotationReport UnitaryEigen UPSpectrum
WalkSpectrumReport algorithm_rotation circular_phase_gap delta_decomposition
eigendecompose_unitary up_eigenphases walk_spectrum
""".split()


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ("cost", "--optimize", "--l", "3", "--variant", "recursive"),
    ("cost", "--table1"),
], ids=["optimize", "table1"])
def test_cost_runs_without_numpy(argv):
    """With numpy unimportable, cost prints what a normal run prints, and a
    normal `python -m johnson_walk.cli cost` run never imports numpy."""
    blocked = run_python("-c", "import sys; sys.modules['numpy'] = None; "
                         + CLI, *argv)
    assert blocked.returncode == 0, blocked.stderr
    normal = run_python("-X", "importtime", "-m", "johnson_walk.cli", *argv)
    assert normal.returncode == 0, normal.stderr
    assert blocked.stdout == normal.stdout != ""
    imported = re.findall(r"^import time:.*\|\s*(\S+)$", normal.stderr, re.M)
    assert "johnson_walk.cost_model" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("spectrum", "--n", "10000000", "--l", "2"),
    ("simulate", "--engine", "both", "--n", "9"),
    ("sweep", "--n-values", "1000", "10000"),
], ids=["verify", "spectrum", "simulate", "sweep"])
def test_runs_without_numpy_random(argv, capsys):
    """With numpy.random unimportable, a command prints what a normal run
    prints: verify draws its probes from the stdlib's random."""
    blocked = run_python("-c", "import sys; sys.modules['numpy.random'] = "
                         "None; " + CLI, *argv)
    assert blocked.returncode == 0, blocked.stderr
    assert main(list(argv)) == 0
    assert blocked.stdout == capsys.readouterr().out != ""


def test_no_module_names_numpy_random():
    """No import of numpy.random and no np.random attribute in the package."""
    found = []
    for path in sorted((ROOT / "src" / "johnson_walk").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[:2] in (["numpy", "random"],
                                                 ["np", "random"])]
    assert found == []


def test_package_and_cli_load_no_engine():
    proc = run_python("-c", "import json, sys, johnson_walk, johnson_walk.cli; "
                      "print(json.dumps(sorted(m for m in sys.modules if "
                      "m.split('.')[0] in ('numpy', 'johnson_walk'))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "johnson_walk", "johnson_walk.cli", "johnson_walk.combinat",
        "johnson_walk.cost_model", "johnson_walk.instances",
        "johnson_walk.serialize"]


def test_every_export_resolves():
    assert len(EXPORTS) == len(set(EXPORTS)) == 59
    namespace = {}
    exec("from johnson_walk import *", namespace)
    for name in EXPORTS:
        assert getattr(jw, name) is namespace[name]
        assert name in dir(jw)
    assert sorted(jw.__all__) == sorted(EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        jw.no_such_name
    assert not hasattr(jw, "run_algorithms")
    with pytest.raises(ImportError):
        exec("from johnson_walk import no_such_name", {})


def test_lookup_follows_the_defining_module(monkeypatch):
    """A name is looked up in its module each time and never cached in the
    package, so a rebinding there, and its undoing, show at once."""
    from johnson_walk import full_sim

    original = jw.run_algorithm
    monkeypatch.setattr(full_sim, "run_algorithm", len)
    assert jw.run_algorithm is len
    monkeypatch.undo()
    assert jw.run_algorithm is original is full_sim.run_algorithm
    assert "run_algorithm" not in vars(jw)
