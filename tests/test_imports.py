"""The package stays stdlib-only: hypothesis and pytest are installed
for the tests, so only this check catches a stray import of either."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qbeads"


def imported_modules(tree):
    """The top-level name of every absolute import in tree, including
    imports inside functions; relative imports are the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        (path.name, name)
        for path in sources
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name != "qbeads" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_the_import_walk_sees_nested_imports():
    tree = ast.parse("import os.path\ndef f():\n    import hypothesis\n    from . import x\n")
    assert list(imported_modules(tree)) == ["os", "hypothesis"]
