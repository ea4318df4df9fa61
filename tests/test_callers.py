"""Every function, method and class defined under src/ is referenced by name
somewhere under src/, and every defaulted parameter is passed by some call
under src/.

A reference is a Name, an Attribute or a name in a `from ... import`.
Dunder methods are called by Python itself, and `_Parser.error` is the hook
argparse calls on a bad command line.  A definition only tests use belongs
in `tests/oracles.py`.

A call matches a function by the called name alone (`f(...)` or
`x.f(...)`; a class's `__init__` by the class name) and passes a
parameter by keyword, by position, or through `*args` / `**kwargs`.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXEMPT = {"_Parser.error"}
DEFAULTS_EXEMPT = {
    # tests sample one direction set and share it with the other
    # functionals, to compare them on the same lines
    "jensen_residual.dirs",
    # a test clusters a triple root above the eps^(1/3) companion-matrix
    # scatter; root clustering itself is to be replaced (ROADMAP item 5)
    "univariate_roots.tol",
}


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


def _functions(tree: ast.AST, owner=None):
    """(def node, enclosing class or None) of every def, nested too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, owner
            yield from _functions(node, None)
        else:
            yield from _functions(node, owner)


def _defaulted(fn, method: bool):
    """(name, position in a call or None for keyword-only) of each
    parameter with a default; a method's call omits self / cls."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first, skip = len(pos) - len(args.defaults), 1 if method else 0
    out = [(a.arg, i - skip) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _passes(call: ast.Call, arg: str, pos) -> bool:
    return (any(k.arg in (arg, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (pos is not None and len(call.args) > pos))


def unpassed_defaults(paths) -> list:
    defaulted, calls = [], {}
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for fn, cls in _functions(tree):
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            name = cls.name if cls and fn.name == "__init__" else fn.name
            qual = f"{cls.name}.{fn.name}" if cls else fn.name
            defaulted += [(path.name, qual, name, arg, pos, fn.lineno)
                          for arg, pos in _defaulted(fn, method)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(called, []).append(node)
    return sorted(f"{file}: {qual}({arg}=) (line {line})"
                  for file, qual, name, arg, pos, line in defaulted
                  if f"{qual}.{arg}" not in DEFAULTS_EXEMPT
                  and not any(_passes(c, arg, pos)
                              for c in calls.get(name, [])))


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


def test_every_default_is_passed():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    assert unpassed_defaults(paths) == []


def test_unpassed_default_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self, size=1, tag=None):\n"
        "        self.fill(2)\n"
        "    def fill(self, n=0, *, strict=False):\n"
        "        return helper(n, **{})\n"
        "    @staticmethod\n"
        "    def make(k=3):\n"
        "        return Box(tag=k)\n"
        "def helper(a, b=0):\n"
        "    return a\n"
        "def orphan(c=5):\n"
        "    return c\n")
    (tmp_path / "b.py").write_text("from a import Box\nBox.make(4)\n")
    assert unpassed_defaults(sorted(tmp_path.glob("*.py"))) == [
        "a.py: Box.__init__(size=) (line 2)",
        "a.py: Box.fill(strict=) (line 4)", "a.py: orphan(c=) (line 11)"]
