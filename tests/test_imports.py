"""No dead names: every import is used, and every definition too.

No linter ships with the project, so these AST scans are the check.
Every name a module imports is referenced somewhere in that module; this
covers the package, the scripts and the tests.  ``from __future__`` imports bind
no usable name and are skipped.  Every module-level private function and
class of the package is referenced from the package, the scripts or the
benchmark, and every public one from these or the tests; a string equal
to its name counts, since the benchmark's tracer hooks solver internals
through ``getattr``.  A fresh ``import mvt`` loads no numpy, so the CLI
can cap the thread pools first.
"""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

from mvt import cli, flow, geometry, grids, measures, reactions, scenarios, solver, transport
from mvt.velocity import VelocityField

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mvt").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
REFERRERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert len(SOURCES) > 10
    unused = [entry for path in SOURCES + TESTS for entry in _unused_imports(path)]
    assert not unused, "imported but never referenced:\n" + "\n".join(unused)


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_unreferenced_private_definitions():
    referenced = set().union(*(_references(path) for path in REFERRERS))
    tested = referenced.union(*(_references(path) for path in TESTS))
    stranded = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.endswith("__"):
                continue
            if node.name not in (referenced if node.name.startswith("_") else tested):
                stranded.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not stranded, "defined and never referenced:\n" + "\n".join(stranded)


def test_import_mvt_loads_no_numpy():
    code = "import sys, mvt; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"


def test_benchmark_tracer_hooks_exist():
    # perfbench/tracer.py binds these by name.  A missing public one makes
    # ``Tracer.install`` fail, and with it every traced benchmark run; a
    # missing private one only warns and reads 0 for its counters.  Its
    # self-test checks fm_norm.
    hooks = {
        reactions: ["eval_reaction"],
        transport: ["pushforward_measure"],
        measures: ["linear_combine", "coalesce", "_merge_pass"],
        flow: ["advect", "advect_with_logjac", "lipschitz_bound", "simpson_integral"],
        grids: ["interpolate"],
        geometry: ["pairwise_distances"],
        scenarios: ["bundled_scenario", "parse_scenario"],
        cli: ["run_simulate", "run_metric"],
        solver: ["solve_maximal", "choose_step", "solve_interval", "_sweep_measures",
                 "_curve_distance", "fm_norm"],
    }
    for module, names in hooks.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for name in ("__call__", "sup_bound"):
        assert callable(vars(VelocityField).get(name)), f"VelocityField.{name}"
    assert "__len__" in vars(solver._NodeWeights)  # node_sweeps counts len(new)
