"""The package's public surface."""

import importlib
import importlib.util
import pathlib
import sys

import polylandau

# the benchmark's tracer, which wraps the program's functions by name
_TRACE_SPEC = importlib.util.spec_from_file_location(
    "perfbench_trace_layers", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"
)
trace_layers = sys.modules[_TRACE_SPEC.name] = importlib.util.module_from_spec(_TRACE_SPEC)
_TRACE_SPEC.loader.exec_module(trace_layers)


def test_every_exported_name_resolves():
    # a name dropped from the modules but left in __all__ breaks `from polylandau import *`
    missing = []
    for name in polylandau.__all__:
        try:
            getattr(polylandau, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_every_traced_name_resolves():
    # Tracer.install looks up each name of LAYERS in its module; one that is gone fails the traced benchmark run
    missing = []
    for module_name, names in trace_layers.LAYERS.values():
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{name}" for name in names if not hasattr(module, name)]
    assert missing == []
