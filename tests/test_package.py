"""The package's public surface."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
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


def _relative_imports(path: pathlib.Path) -> set[str]:
    """The package modules that the module at path imports, wherever in it the import stands.

    ``from .m import x`` imports m, and ``from . import m`` imports m.
    """
    tree = ast.parse(path.read_text())
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    return {name for node in relative for name in ([node.module] if node.module else [a.name for a in node.names])}


def test_import_graph():
    # polyfunc evaluates and series only lays test oracles on top of it; verify re-checks the extremal
    # witnesses, so it shares no code with the module that builds them
    package = pathlib.Path(polylandau.__file__).resolve().parent
    imports = {path.stem: _relative_imports(path) for path in package.glob("*.py")}
    assert imports["polyfunc"] == {"_lazy", "errors"}
    assert imports["series"] == {"errors", "polyfunc"}
    # no module uses the oracle: the package registers it lazily and exports its names, and nothing else does
    assert sorted(name for name, used in imports.items() if "series" in used) == []
    assert [name for name in polylandau.__all__ if polylandau._HOME[name] == "series"] == [
        "TruncatedTaylorSeries", "series_derivative", "series_eval"]
    assert "extremal" not in imports["verify"]


_SOLVER_CALLS = [
    ["radii", "--theorem", "1", "-p", "2", "--lambda0", "2", "--lambdas", "1"],
    ["table", "--theorem", "7", "-p", "2", "--mstars", "2:3:0.5"],
    ["compare", "--ms", "2", "--orders", "2,3"],
    ["baseline", "--name", "landau", "--m", "2"],
]
_VERIFY_CALL = ["verify", "--theorem", "5", "-p", "2", "--lambda0", "2", "--lambdas", "1", "--grid", "8x16",
                "--boundary-samples", "64", "--format", "json", "--digits", "17"]

# run in a fresh interpreter: the import state of this one depends on what the other tests loaded.  A lazy
# module keeps its own type until its first attribute read executes it, and turns into a plain module then
_IMPORT_PROBE = """
import contextlib, io, json, sys, types
import polylandau.cli as cli
traced, solver_calls, verify_call = json.loads(sys.argv[1])
missing = [name for name in traced if name not in sys.modules]
codes = []
for argv in solver_calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
executed = sorted(name for name, module in sys.modules.items()
                  if name.startswith("polylandau") and type(module) is types.ModuleType)
numpy_parts = sorted(name for name in sys.modules if name.startswith("numpy."))
stdlib = sorted(name for name in ("argparse", "dataclasses", "inspect") if name in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(verify_call)
print(json.dumps({"missing": missing, "codes": codes, "executed": executed, "numpy_parts": numpy_parts,
                  "stdlib": stdlib, "verify": [code, out.getvalue()], "verify_argparse": "argparse" in sys.modules}))
"""


def _fresh_python(*args):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(polylandau.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True, timeout=60)


def test_solver_commands_run_without_loading_numpy():
    # the tracer looks every LAYERS module up in sys.modules, so importing cli must register them all, yet
    # radii, table, compare and baseline execute the solver alone: numpy's own import waits for the first
    # array, the verify modules for verify and sharpness, and dataclasses (which imports inspect) with them
    traced = sorted({module_name for module_name, _ in trace_layers.LAYERS.values()})
    probe = _fresh_python("-c", _IMPORT_PROBE, json.dumps([traced, _SOLVER_CALLS, _VERIFY_CALL]))
    doc = json.loads(probe.stdout)
    assert doc["missing"] == []
    assert doc["codes"] == [0] * len(_SOLVER_CALLS)
    assert doc["executed"] == ["polylandau", "polylandau._lazy", "polylandau.cli", "polylandau.errors",
                               "polylandau.radii"]
    assert doc["numpy_parts"] == []
    assert doc["stdlib"] == []
    # verify then loads numpy on its first array and prints what a fresh run prints (check=True: exit 0); like
    # the solver commands it parses its flags without argparse, which only help and usage errors build
    fresh = _fresh_python("-m", "polylandau.cli", *_VERIFY_CALL)
    assert doc["verify"] == [0, fresh.stdout]
    assert '"passed": true' in fresh.stdout
    assert doc["verify_argparse"] is False


_RANDOM_PROBE = """
import contextlib, io, json, sys
import polylandau.cli as cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "random": sorted(name for name in sys.modules if name.startswith("numpy.random"))}))
"""


def test_verify_of_log_theorems_does_not_import_numpy_random():
    # no check draws random numbers, so even theorems 5-8, whose exp-disk check once did, leave numpy.random out
    calls = [
        ["verify", "--theorem", "5", "--lambda0", "2", "--grid", "8x16"],
        ["verify", "--theorem", "7", "-p", "2", "--mstars", "3", "--grid", "8x16"],
    ]
    doc = json.loads(_fresh_python("-c", _RANDOM_PROBE, json.dumps(calls)).stdout)
    assert doc == {"codes": [0, 0], "random": []}


_SURFACE_PROBE = """
import json, sys, types
import polylandau
executed = sorted(name for name, module in sys.modules.items()
                  if name.startswith("polylandau.") and name != "polylandau._lazy" and type(module) is types.ModuleType)
import polylandau.verify
surface = [polylandau.verify.witness_pass.__module__, polylandau.radii.__name__, polylandau.DerivAll.__module__]
namespace = {}
exec("from polylandau import *", namespace)
print(json.dumps({"executed": executed, "surface": surface, "star": sorted(set(namespace) - {"__builtins__"})}))
"""


def test_public_surface_resolves_through_the_lazy_modules():
    # import polylandau executes no submodule; each submodule is the package's attribute and its sys.modules
    # entry, and every exported name reaches the object its submodule defines
    doc = json.loads(_fresh_python("-c", _SURFACE_PROBE).stdout)
    assert doc["executed"] == []
    assert doc["surface"] == ["polylandau.verify", "polylandau.radii", "polylandau.radii"]
    assert doc["star"] == polylandau.__all__
    for name in polylandau.__all__:
        module = importlib.import_module(f"polylandau.{polylandau._HOME[name]}")
        assert getattr(polylandau, name) is getattr(module, name), name
    assert polylandau.verify is sys.modules["polylandau.verify"]
    assert set(dir(polylandau)) >= set(polylandau.__all__)


def test_run_as_a_module_writes_nothing_to_stderr():
    # runpy warns when the module it runs is in sys.modules already, so the package never registers cli
    run = _fresh_python("-W", "error", "-m", "polylandau.cli", *_SOLVER_CALLS[0])
    assert run.stderr == ""
    assert run.stdout.startswith("theorem 1\n")


_NO_NUMPY_PROBE = """
import json, sys
sys.modules["numpy"] = None  # numpy cannot be imported
import polylandau.verify
raised = []
for _ in range(2):
    try:
        polylandau.verify.witness_pass
    except Exception as exc:
        raised.append([type(exc).__name__, str(exc), getattr(exc, "name", None)])
print(json.dumps(raised))
"""


def test_a_missing_numpy_is_named_on_every_read_of_a_module_that_needs_it():
    # verify's "from .polyfunc import ..." makes the import system read polyfunc.__spec__, which runs polyfunc,
    # and drop the error that run raises; polyfunc stays lazy after it, not half-run, so the next read raises
    # again, and so does every later read of verify
    raised = json.loads(_fresh_python("-c", _NO_NUMPY_PROBE).stdout)
    assert raised == [["ModuleNotFoundError", "No module named 'numpy'", "numpy"]] * 2
