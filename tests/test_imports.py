"""Every name a module under src/ or tests/ imports is read in that module.

A name listed in the module's `__all__` counts as read (a re-export), and
`from __future__` imports are compiler directives, not names.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unread_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_every_import_is_read():
    paths = sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "tests").rglob("*.py"))
    assert paths
    unread = {str(p.relative_to(ROOT)): unread_imports(p) for p in paths}
    assert {p: names for p, names in unread.items() if names} == {}


def test_unread_import_is_reported(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os, sys as system\n"
                   "from json import dumps, loads\n"
                   "__all__ = ['loads']\n"
                   "print(os.sep)\n")
    assert unread_imports(src) == ["dumps (line 3)", "system (line 2)"]
