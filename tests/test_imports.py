"""Every name a module imports is used in that module.

The check parses ``src/``, ``tests/`` and ``demos/`` with ``ast``.  It skips
``__future__`` imports and imports marked ``# noqa: F401`` (re-exports and
imports kept for their side effect).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "demos")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            marked = {node.lineno, alias.lineno}
            if any("# noqa: F401" in lines[n - 1] for n in marked):
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported.append((alias.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_unused_and_skips_marked_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import json  # noqa: F401\n"
              "import os.path as osp\n"
              "from math import pi, tau\n"
              "def f(x: float) -> float:\n"
              "    return pi * x\n")
    assert unused_imports(source) == [(2, "os"), (4, "osp"), (5, "tau")]


def test_no_unused_imports():
    found = []
    for folder in CHECKED_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
