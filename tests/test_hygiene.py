"""Source hygiene: every name a `vertseg` module imports at module level
is used in that module, no function imports, every private name (a
module-level name or a class method starting with a single underscore)
is read somewhere in the package, every public one is read by the
package, the benchmark, the tools or the acceptance suite, and so is
every field of a dataclass or NamedTuple of the package. No linter is
a test dependency, so the checks walk each module's syntax tree with
the standard library's `ast`."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vertseg"
# the code whose reads keep a public name of the package
READERS = [*sorted(SRC.glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "tools").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# public names that only the unit tests read, and why each stays
UNREAD_PUBLIC_KEPT = {
    "load_transform": "reads the transform files that `vertseg register` "
                      "and `vertseg run` write",
    "bspline3": "the tests' reference cubic kernel",
    "bspline3_d1": "the tests' reference kernel derivative",
    "bspline3_d2": "the tests' reference kernel second derivative",
}


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_unused_import_is_reported():
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\n"
                     "print(sys.argv, tau)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "pi")]


def _function_local_imports(tree):
    return sorted({(node.lineno, func.name)
                   for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_functions_do_not_import(path):
    local = _function_local_imports(ast.parse(path.read_text()))
    assert not local, (f"{path.name}: imports inside functions "
                       f"(line, function) {local}")


def test_function_local_import_is_reported():
    tree = ast.parse("import os\n"
                     "def f():\n    from math import pi\n    return pi\n"
                     "class C:\n    def m(self):\n"
                     "        def g():\n            import sys\n")
    assert _function_local_imports(tree) == [(3, "f"), (8, "g"), (8, "m")]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined_names(tree):
    """(line, name) of every module-level function, class and assigned
    name of a module, and of every method of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            names += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names += [(t.lineno, t.id) for t in targets
                  if isinstance(t, ast.Name)]
    return names


def _read_names(trees):
    """Every name the trees read: by name, as an attribute, or as an
    import alias."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
    return read


def _unread_private_names(trees):
    """(module, line, name) of every module-level name and class method
    of the modules {module: tree} that starts with a single underscore
    and that no module reads."""
    read = _read_names(trees.values())
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in _defined_names(tree)
                  if _is_private(name) and name not in read)


def test_private_names_are_read():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    unread = _unread_private_names(trees)
    assert not unread, f"private names nothing reads (module, line, " \
                       f"name) {unread}"


def test_unread_private_name_is_reported():
    a = ("_USED = 1\n"
         "_UNUSED: int = 2\n"
         "def _f():\n    return _USED\n"
         "def _g():\n    pass\n"
         "class _C:\n"
         "    def __init__(self):\n        self._o = self._n()\n"
         "    def _n(self):\n        return 0\n"
         "    def _o(self):\n        pass\n")
    b = "from a import _f\nprint(_f())\n"
    trees = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert _unread_private_names(trees) == [
        ("a.py", 2, "_UNUSED"), ("a.py", 5, "_g"), ("a.py", 7, "_C"),
        ("a.py", 12, "_o")]


def _unread_public_names(defined_in, readers):
    """(module, line, name) of every public module-level name and class
    method of the modules {module: tree} `defined_in` that no tree in
    `readers` reads."""
    read = _read_names(readers)
    return sorted((module, line, name) for module, tree in defined_in.items()
                  for line, name in _defined_names(tree)
                  if not name.startswith("_") and name not in read)


def test_public_names_are_read():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    unread = _unread_public_names(
        trees, [ast.parse(path.read_text()) for path in READERS])
    assert [d for d in unread if d[2] not in UNREAD_PUBLIC_KEPT] == [], \
        f"public names nothing reads (module, line, name) {unread}"
    # an exemption whose name is read, or gone, is stale
    assert sorted(d[2] for d in unread) == sorted(UNREAD_PUBLIC_KEPT)


def test_unread_public_name_is_reported():
    a = ("def used():\n    pass\n"
         "def unused():\n    pass\n"
         "def _private():\n    pass\n"
         "class C:\n"
         "    def __init__(self):\n        pass\n"
         "    def read(self):\n        pass\n"
         "    def unread(self):\n        pass\n"
         "class D:\n    pass\n"
         "def imported():\n    pass\n"
         "def stored():\n    pass\n"
         "LIMIT = 3\n"
         "UNUSED = 4\n")
    b = ("from a import imported\n"
         "used()\n"
         "C().read()\n"
         "stored = LIMIT\n")
    # b reads a's names but defines none that a must keep
    tree_a, tree_b = ast.parse(a), ast.parse(b)
    assert _unread_public_names({"a.py": tree_a}, [tree_a, tree_b]) == [
        ("a.py", 3, "unused"), ("a.py", 12, "unread"), ("a.py", 14, "D"),
        ("a.py", 18, "stored"), ("a.py", 21, "UNUSED")]


def _is_record(cls):
    """Whether a class definition is a dataclass or a NamedTuple."""
    marks = [d.func if isinstance(d, ast.Call) else d
             for d in cls.decorator_list] + cls.bases
    return bool({"dataclass", "NamedTuple"}
                & {getattr(m, "id", getattr(m, "attr", None)) for m in marks})


def _unread_fields(defined_in, readers):
    """(module, line, class, field) of every field of the dataclasses and
    NamedTuples of the modules {module: tree} `defined_in` that no tree
    in `readers` reads as an attribute or names in a string constant."""
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.add(node.value)
    return sorted((module, item.lineno, cls.name, item.target.id)
                  for module, tree in defined_in.items()
                  for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and _is_record(cls)
                  for item in cls.body
                  if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)
                  and item.target.id not in read)


def test_record_fields_are_read():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    unread = _unread_fields(
        trees, [ast.parse(path.read_text()) for path in READERS])
    assert not unread, f"fields nothing reads (module, line, class, " \
                       f"field) {unread}"


def test_unread_field_is_reported():
    a = ("from dataclasses import dataclass\n"
         "import typing\n"
         "@dataclass\nclass A:\n    used: int\n    unread: int = 0\n"
         "@dataclass(frozen=True)\nclass B:\n    named: str\n    lost: str\n"
         "class C(typing.NamedTuple):\n    kept: int\n    gone: int\n"
         "class D:\n    plain: int\n")
    b = ("def f(a, c):\n"
         "    a.unread = 1\n"  # a write is no read
         "    return a.used, c.kept, getattr(a, 'named')\n")
    tree_a, tree_b = ast.parse(a), ast.parse(b)
    assert _unread_fields({"a.py": tree_a}, [tree_a, tree_b]) == [
        ("a.py", 6, "A", "unread"), ("a.py", 10, "B", "lost"),
        ("a.py", 13, "C", "gone")]
