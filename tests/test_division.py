"""Tooling: no float can enter the exact layer through a true division.

Over Q an integral scalar is a Python int, and int / int is a float.  The one
true division in the package is the reciprocal in ``FieldQ.inv``, which
divides by a ``Fraction``; every other quotient goes through ``field.inv``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab")
ALLOWED = {("exactla.py", "FieldQ.inv")}


def _true_divisions(path):
    """(enclosing qualified name, line) of every ``/`` and ``/=`` in a file."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((".".join(scope), child.lineno))
            walk(child, inner)

    walk(tree, ())
    return found


def test_only_fieldq_inv_divides():
    stray = []
    allowed_seen = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        for scope, line in _true_divisions(path):
            if (name, scope) in ALLOWED:
                allowed_seen.add((name, scope))
            else:
                stray.append("%s:%d in %s" % (name, line, scope or "<module>"))
    assert stray == []
    assert allowed_seen == ALLOWED
