"""The two engines stand alone: neither module imports the other, and
neither cost_model nor the reduced engine imports instances.  The
full engine serves one state form, real and slot-major: it has no
complex branch.  The package lists subsets one way, combinat's colex
recursion: no itertools.combinations over a range and no np.fromiter.
An instance's marked sets are scanned one way, its marked_sets.  The
full engine's reflections take the amplitude array, and only prepare_s
builds a FullState.  The reduced walk's class table is stated once, in
ReducedBasis, C's signs with it, and W^t1 is powered in one function, in
I + E form.  spectral groups
eigenphases into eigenspaces in one place, UnitaryEigen.eigenspaces."""
import ast
import inspect
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "johnson_walk"


def imported_modules(path: Path) -> set:
    """The dotted names of every import in the file, at any depth, with the
    package-relative ones relative: `from .a import b` gives "a" and "a.b",
    `from johnson_walk import a` gives "johnson_walk" and "johnson_walk.a"."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".")
                         for alias in node.names)
    return names


@pytest.mark.parametrize("engine, other", [("full_sim", "reduced_sim"),
                                           ("reduced_sim", "full_sim")])
def test_engine_does_not_import_the_other(engine, other):
    names = imported_modules(PKG / f"{engine}.py")
    assert other not in names and f"johnson_walk.{other}" not in names, names


def test_cost_model_and_reduced_engine_need_no_instances():
    """cost_model, which defines the oracle modes, imports no sibling
    module, and the reduced engine does not import instances: neither
    reads a value table."""
    siblings = {path.stem for path in PKG.glob("*.py")}
    names = imported_modules(PKG / "cost_model.py")
    assert not {name.partition(".")[0] for name in names} & siblings, names
    assert not any("johnson_walk" in name for name in names), names
    names = imported_modules(PKG / "reduced_sim.py")
    assert not {"instances", "johnson_walk.instances"} & names, names


def test_full_engine_has_no_complex_branch():
    """No iscomplexobj call and no complex literal in full_sim: every
    operator of the walk is real, so the kernels take real states only."""
    tree = ast.parse((PKG / "full_sim.py").read_text())
    calls = [ast.unparse(node.func) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) == "iscomplexobj"
                  or getattr(node.func, "id", None) == "iscomplexobj")]
    literals = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, complex)]
    assert calls == [] and literals == [], (calls, literals)


def test_one_subset_enumerator():
    """No combinations(range(...)) call and no fromiter anywhere in the
    package, so that the walk and the scan keep one enumeration of all
    subsets: combinat.colex_table and colex_blocks."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and node.args
                    and ast.unparse(node.func).endswith("combinations")
                    and isinstance(node.args[0], ast.Call)
                    and ast.unparse(node.args[0].func) == "range"):
                found.append(f"{path.name}: {ast.unparse(node)}")
            elif "fromiter" in (getattr(node, "attr", None),
                                getattr(node, "id", None)):
                found.append(f"{path.name}: {ast.unparse(node)}")
    assert found == [], found


def test_one_scan_path():
    """No module but instances names find_marked, by import or by call:
    every reader goes through ProblemInstance.marked_sets, which scans once
    per instance."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.name == "instances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            else:
                names = [getattr(node, "id", None),
                         getattr(node, "attr", None)]
            if "find_marked" in names:
                found.append(f"{path.name}: {ast.unparse(node)}")
    assert found == [], found


def test_reflections_take_the_array():
    """apply_coin1, apply_coin2, apply_phase_flip and apply_shift act on
    an amplitude array named amps, and none has a FullState parameter; no
    module builds a FullState but prepare_s, so no caller wraps an array
    in a throwaway state to reach a kernel."""
    from johnson_walk import full_sim

    for name in ("apply_coin1", "apply_coin2", "apply_phase_flip",
                 "apply_shift"):
        params = inspect.signature(getattr(full_sim, name)).parameters
        assert params["amps"].annotation == "np.ndarray", name
        assert not any("FullState" in str(p.annotation)
                       for p in params.values()), name
    builders = []
    for path in sorted(PKG.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            builders += [(path.name, getattr(top, "name", None))
                         for node in ast.walk(top)
                         if isinstance(node, ast.Call)
                         and ast.unparse(node.func).endswith("FullState")]
    assert builders == [("full_sim.py", "prepare_s")], builders


def names_marked_label(node) -> bool:
    """A call of norm_constants, or the label (l, 0) written out: as the
    tuple (l, 0) or as the arguments of index(l, 0), with l bare or an
    attribute such as basis.l."""
    if not isinstance(node, (ast.Call, ast.Tuple)):
        return False
    if isinstance(node, ast.Call) and \
            ast.unparse(node.func).endswith("norm_constants"):
        return True
    pair = node.args if isinstance(node, ast.Call) else node.elts
    return (len(pair) == 2 and isinstance(pair[1], ast.Constant)
            and pair[1].value == 0
            and ast.unparse(pair[0]).rpartition(".")[2] == "l")


def states_sign(node) -> bool:
    """The sign (-1)^p of a label, written as a power of -1 or as 1 - 2p."""
    if not isinstance(node, ast.BinOp):
        return False
    text = ast.unparse(node.left).replace("(", "").replace(")", "")
    return (isinstance(node.op, ast.Pow) and text in ("-1", "-1.0")) or (
        isinstance(node.op, ast.Sub) and text == "1"
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Mult)
        and ast.unparse(node.right.left) == "2")


def powers_e(top) -> bool:
    """A function that reads the coins' Deltas and repeats a matrix product
    in a loop: a power of W = I + E taken in I + E form."""
    return "coin_deltas(" in ast.unparse(top) and any(
        isinstance(loop, (ast.For, ast.While)) and any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult)
            for sub in ast.walk(loop))
        for loop in ast.walk(top))


def test_class_table_is_stated_once():
    """Only ReducedBasis calls norm_constants, names the marked label
    (l, 0) and states C's signs (-1)^p; every other reader takes the
    weights, the signs, the coin groups and the marked index from its
    table.  No matrix_power of build_walk_matrix appears in src/: W^t1 is
    powered in I + E form in one function, which run_reduced,
    algorithm_rotation and build_walk_matrix (t1 = 1, no flip) call."""
    table, signs, powers, readers = [], [], [], set()
    for path in sorted(PKG.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.name, getattr(top, "name", None))
            if powers_e(top):
                powers.append(where)
            for node in ast.walk(top):
                if names_marked_label(node):
                    table.append(where)
                if states_sign(node):
                    signs.append(where)
                if isinstance(node, ast.Call) \
                        and ast.unparse(node.func).endswith("matrix_power") \
                        and "build_walk_matrix" in ast.unparse(node):
                    powers.append(("matrix_power", where))
                if isinstance(node, ast.Call) \
                        and ast.unparse(node.func) == "_walk_then_flip":
                    readers.add(where)
    assert set(table) == {("reduced_sim.py", "ReducedBasis")}, table
    assert set(signs) == {("reduced_sim.py", "ReducedBasis")}, signs
    assert powers == [("reduced_sim.py", "_walk_then_flip")], powers
    assert readers == {("reduced_sim.py", "run_reduced"),
                       ("reduced_sim.py", "build_walk_matrix"),
                       ("spectral.py", "algorithm_rotation")}, readers


def groups_phases(node) -> bool:
    """A call of split or diff, or a comparison of a difference whose text
    names a phase: the ways to group eigenphases into eigenspaces."""
    if isinstance(node, ast.Call):
        return ast.unparse(node.func).endswith(("split", "diff"))
    return isinstance(node, ast.Compare) and "phase" in ast.unparse(node) \
        and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                for sub in ast.walk(node))


def test_eigenspaces_are_grouped_once():
    """Only UnitaryEigen.eigenspaces splits or diffs eigenphases in
    spectral, or compares their differences with a tolerance;
    walk_spectrum, up_eigenphases and algorithm_rotation read its groups."""
    found = []
    for top in ast.parse((PKG / "spectral.py").read_text()).body:
        scopes = [(f"{top.name}.{getattr(item, 'name', None)}", item)
                  for item in top.body] if isinstance(top, ast.ClassDef) \
            else [(getattr(top, "name", None), top)]
        found += [name for name, scope in scopes for node in ast.walk(scope)
                  if groups_phases(node)]
    assert set(found) == {"UnitaryEigen.eigenspaces"}, found
