"""Every name a module imports is referenced somewhere in that module.

No linter ships with the project, so this AST scan is the check.  It
covers the package and the scripts.  ``from __future__`` imports bind
no usable name and are skipped; the lazy export table of
``mvt/__init__.py`` maps names to module strings and imports nothing.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mvt").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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
    unused = [entry for path in SOURCES for entry in _unused_imports(path)]
    assert not unused, "imported but never referenced:\n" + "\n".join(unused)
