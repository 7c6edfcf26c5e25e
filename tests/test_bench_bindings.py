"""The benchmark's bindings into cknlab, checked in the tier-1 run.

perfbench/tracer.py wraps each name in its TARGETS wherever a cknlab module
binds it, and perfbench/probes.py calls module attributes by name.  A change
that removes or renames one of them, or changes how probes.py calls it, would
otherwise first fail inside a benchmark run.  perfbench/ is only read.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import cknlab.cli  # noqa: F401  (binds every module the tracer wraps; each loads on first read)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def binding(module, attr):
    return getattr(sys.modules[module], attr)


def test_tracer_installs_and_uninstalls():
    tracer_module = load_bench_module("tracer")
    # the targets, plus names the benchmark reads from a second namespace
    names = [(f"cknlab.{mod}", attr) for mod, attr, _, _ in tracer_module.TARGETS]
    names += [("cknlab.pressure", "theta_derivative"), ("cknlab.cli", "ordered_map")]
    before = {name: binding(*name) for name in names}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        unwrapped = [name for name in names if binding(*name) is before[name]]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert all(binding(*name) is original for name, original in before.items())


def probe_names():
    """(module, attribute) pairs that probes.py reads from cknlab."""
    tree = ast.parse((BENCH / "probes.py").read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cknlab":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cknlab."):
            names.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((f"cknlab.{node.value.id}", node.attr))
    return sorted(names)


def test_probe_names_are_bound():
    names = probe_names()
    assert ("cknlab.cylfield", "theta_derivative") in names   # the parse found the calls
    missing = [(mod, attr) for mod, attr in names
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_probes_run():
    # -B: the run writes no bytecode into the tree
    run = subprocess.run([sys.executable, "-B", str(BENCH / "probes.py"), "--seed", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "probe.lowest_eigenvalue_s" in json.loads(run.stdout)
