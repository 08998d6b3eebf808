"""Source hygiene: every name a `cst` module imports is used in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cst"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nfrom typing import Optional, Tuple\nx: Tuple = ()\n"
    assert unused_imports(source) == ["Optional", "os"]


def test_no_unused_imports_in_package():
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
