"""Every name a module imports is used in that module, and every name the
package defines is read somewhere.

The import check parses ``src/``, ``tests/`` and ``demos/`` with ``ast``.  It
skips ``__future__`` imports and imports marked ``# noqa: F401`` (re-exports
and imports kept for their side effect).  The dead-name check takes each
top-level function, class and variable of ``src/munipath/*.py`` and looks
for a mention of it, other than its definition, in ``src/``, ``tests/``,
``demos/`` or ``perfbench/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "demos")
READER_DIRS = CHECKED_DIRS + ("perfbench",)


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


def top_level_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every function, class and variable a module defines
    at its top level, dunder names aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found if not name.startswith("__")]


def mentions(source: str) -> set[str]:
    """Every name a module reads: loaded names, attribute names, imported
    names, and string constants (``getattr``, ``monkeypatch.setattr``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def dead_names(modules: dict[str, str], readers: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every top-level name of ``modules`` that no
    source in ``readers`` mentions."""
    read = set().union(*map(mentions, readers))
    return [(module, line, name) for module, source in modules.items()
            for line, name in top_level_names(source) if name not in read]


def test_dead_name_checker_flags_names_nothing_reads():
    module = ("import os\n"
              "LIMIT = 3\n"
              "UNUSED: int = 4\n"
              "__all__ = ['helper']\n"
              "def helper():\n"
              "    return LIMIT\n"
              "def orphan():\n"
              "    return os.sep\n"
              "class Patched:\n"
              "    pass\n"
              "class Lonely:\n"
              "    orphan = None  # a store is no mention\n")
    other = ("import mod\n"
             "mod.helper()\n"
             "setattr(mod, 'Patched', None)\n")
    assert dead_names({"mod.py": module}, [module, other]) == [
        ("mod.py", 3, "UNUSED"), ("mod.py", 7, "orphan"), ("mod.py", 11, "Lonely")]


def test_no_dead_names():
    modules = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "munipath").glob("*.py"))}
    readers = [path.read_text(encoding="utf-8") for folder in READER_DIRS
               for path in sorted((ROOT / folder).rglob("*.py"))]
    found = [f"{module}:{line}: {name}" for module, line, name in dead_names(modules, readers)]
    assert not found, "names nothing reads:\n" + "\n".join(found)
