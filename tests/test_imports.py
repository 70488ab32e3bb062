"""No dead names: every import is used, and every private definition too.

No linter ships with the project, so these AST scans are the check.
Every name a module imports is referenced somewhere in that module; this
covers the package, the scripts and the tests.  ``from __future__`` imports bind
no usable name and are skipped; the lazy export table of
``mvt/__init__.py`` maps names to module strings and imports nothing.
Every module-level private function and class of the package is
referenced from the package, the scripts or the benchmark; a string
equal to its name counts, since the benchmark's tracer hooks solver
internals through ``getattr``.
"""
from __future__ import annotations

import ast
from pathlib import Path

from mvt import measures, solver

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
    stranded = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.endswith("__") and name not in referenced:
                stranded.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not stranded, "private and never referenced:\n" + "\n".join(stranded)


def test_benchmark_tracer_hooks_exist():
    # perfbench/tracer.py binds these by name and, if one is gone, only
    # warns and reads 0 for its counters; its self-test checks fm_norm
    for module, name in [(solver, "_sweep_measures"), (solver, "_curve_distance"),
                         (measures, "_merge_pass"), (solver, "fm_norm")]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert "__len__" in vars(solver._NodeWeights)  # node_sweeps counts len(new)
