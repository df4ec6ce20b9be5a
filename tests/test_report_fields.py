"""Reports serialize from their own fields: no class in the package keeps a
to_dict for serialize.dumps_report to prefer."""
import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "johnson_walk"


def classes_defining(method: str) -> list:
    """module:Class for every class in the package whose body defines method."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == method for item in node.body):
                found.append(f"{path.stem}:{node.name}")
    return found


def test_no_class_defines_to_dict():
    assert classes_defining("eigenspace_weight") == ["spectral:UnitaryEigen"]
    assert classes_defining("to_dict") == []
