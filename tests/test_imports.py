"""Tooling: no package module keeps a top-level import it never uses."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab")


def _unused_imports(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_top_level_imports():
    unused = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        if name != "__init__.py" and _unused_imports(path):
            unused[name] = _unused_imports(path)
    assert unused == {}
