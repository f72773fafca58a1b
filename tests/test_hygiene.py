"""Source hygiene: every name a `vertseg` module imports at module level
is used in that module. No linter is a test dependency, so the check
walks each module's syntax tree with the standard library's `ast`."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "vertseg"


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
