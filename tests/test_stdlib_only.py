"""The package imports nothing beyond the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "feforms"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_stdlib_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    allowed = set(sys.stdlib_module_names) | {"feforms"}
    foreign = {f"{path.name}: {root}"
               for path in modules
               for root in imported_roots(ast.parse(path.read_text()))
               if root not in allowed}
    assert not foreign, sorted(foreign)
