"""Every function, method and class defined under src/ is referenced by name
somewhere under src/.

A reference is a Name, an Attribute or a name in a `from ... import`.
Dunder methods are called by Python itself, and `_Parser.error` is the hook
argparse calls on a bad command line.  A definition only tests use belongs
in `tests/oracles.py`.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXEMPT = {"_Parser.error"}


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, name, line) of every def and class, nested too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qual = prefix + node.name
            yield qual, node.name, node.lineno
            yield from _definitions(node, qual + ".")
        else:
            yield from _definitions(node, prefix)


def uncalled_definitions(paths) -> list:
    defined, referenced = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        defined += [(path.name, qual, name, line)
                    for qual, name, line in _definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(f"{file}: {qual} (line {line})"
                  for file, qual, name, line in defined
                  if name not in referenced and qual not in EXEMPT
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_has_a_caller():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    assert uncalled_definitions(paths) == []


def test_uncalled_definition_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        return helper()\n"
        "    def unused(self):\n"
        "        def inner():\n"
        "            pass\n"
        "def helper():\n"
        "    return 1\n"
        "def orphan():\n"
        "    pass\n")
    (tmp_path / "b.py").write_text("from a import Box\n")
    assert uncalled_definitions(sorted(tmp_path.glob("*.py"))) == [
        "a.py: Box.unused (line 6)", "a.py: Box.unused.inner (line 7)",
        "a.py: orphan (line 11)"]
