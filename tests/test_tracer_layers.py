"""The benchmark's tracer wraps package functions by name, so a renamed
kernel would silently drop out of `perfbench/run.py --trace 1`.  Each name
it lists must resolve the way the tracer looks it up."""
import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
