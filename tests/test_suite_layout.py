"""The layout of the test suite: test modules share code only through
the helper modules and `corpus`, never through each other."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def imported_test_modules(path):
    """The names of test_* modules that the file at path imports, at the
    top level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        found += [n for n in names
                  if any(part.startswith("test_") for part in n.split("."))]
    return found


def test_no_test_module_imports_another():
    paths = sorted(TESTS.glob("test_*.py"))
    assert len(paths) > 10
    imports = {path.name: imported_test_modules(path) for path in paths}
    assert {name: found for name, found in imports.items() if found} == {}
