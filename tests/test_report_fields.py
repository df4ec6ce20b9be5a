"""Reports serialize from their own fields: no class in the package keeps a
to_dict for serialize.dumps_report to prefer, and every field it leaves out
(field(repr=False)) has a reader in the package."""
import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "johnson_walk"


def modules() -> list:
    """(module name, parsed tree) for every module of the package."""
    return [(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PKG.glob("*.py"))]


def classes_defining(method: str) -> list:
    """module:Class for every class in the package whose body defines method."""
    return [f"{name}:{node.name}" for name, tree in modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == method for item in node.body)]


def hidden_fields() -> list:
    """module:Class.name for every field(repr=False) a package class declares."""
    return [f"{name}:{node.name}.{item.target.id}" for name, tree in modules()
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.value, ast.Call)
            and getattr(item.value.func, "id", None) == "field"
            and any(kw.arg == "repr" and getattr(kw.value, "value", 0) is False
                    for kw in item.value.keywords)]


def test_no_class_defines_to_dict():
    assert classes_defining("eigenspace_weight") == ["spectral:UnitaryEigen"]
    assert classes_defining("to_dict") == []


def test_every_hidden_field_is_read_in_the_package():
    """A field that dumps_report leaves out is kept for a reader in the
    package: each one is read as an attribute somewhere in src.  A field
    only a test reads, or none, belongs to no report and goes."""
    read = {node.attr for _, tree in modules() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    hidden = hidden_fields()
    assert hidden, "the scan finds no field(repr=False) at all"
    assert [f for f in hidden if f.rpartition(".")[2] not in read] == []
