"""Tooling: no matrix is written after it is built.

``algmod._sparse_cols`` reads a matrix's nonzero columns once and keeps them
on the matrix (``Matrix._nonzero_cols``); every later call returns what it
kept.  That is sound only while no matrix changes after it is built, so
every site that fills a fresh matrix builds its rows (or its sparse columns)
first and hands them to a constructor.  In every module of ``src``:

- nothing writes into ``.data[...]``: no item assignment, augmented
  assignment or deletion through it, and no mutating list method called on
  ``.data`` or on one of its rows;
- only ``exactla``'s constructors (``Matrix.__init__`` and ``_matrix``)
  assign ``.data``;
- only those constructors and ``algmod._sparse_cols`` assign
  ``._nonzero_cols``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab")
CONSTRUCTORS = {("exactla.py", "Matrix.__init__"), ("exactla.py", "_matrix")}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
            "__setitem__", "__delitem__"}


def _scoped_nodes(tree):
    """(qualified name of the enclosing class or function, or None; node)
    for every node of tree."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if scope is None else scope + "." + child.name
            out.append((inner, child))
            walk(child, inner)

    walk(tree, None)
    return out


def _on_data(node):
    """``x.data`` itself, or ``x.data[...]`` subscripted any number of
    times."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return node.targets
    return []


def _flat(targets):
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flat(target.elts)
        else:
            yield target


def _writes_in(tree, name):
    """(name, scope, line, what) for every write into a matrix's data or
    its kept columns in the module tree."""
    found = []
    for scope, node in _scoped_nodes(tree):
        for target in _flat(_targets(node)):
            if isinstance(target, ast.Subscript) and _on_data(target):
                found.append((name, scope, node.lineno, "data[...]"))
            elif isinstance(target, ast.Attribute) and \
                    target.attr in ("data", "_nonzero_cols"):
                found.append((name, scope, node.lineno, target.attr))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS and _on_data(node.func.value):
            found.append((name, scope, node.lineno, "data." + node.func.attr))
    return found


def _writes():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found += _writes_in(tree, os.path.basename(path))
    return found


def test_no_matrix_data_is_written_outside_the_constructors():
    stray = [w for w in _writes()
             if w[3] != "_nonzero_cols" and (w[0], w[1]) not in CONSTRUCTORS]
    assert stray == []


def test_kept_columns_are_set_only_by_the_constructors_and_sparse_cols():
    setters = {(w[0], w[1]) for w in _writes() if w[3] == "_nonzero_cols"}
    assert setters == CONSTRUCTORS | {("algmod.py", "_sparse_cols")}


def test_the_guard_sees_each_kind_of_write():
    tree = ast.parse("def f(m, r):\n"
                     "    m.data[0][1] = 1\n"
                     "    m.data[0] += [2]\n"
                     "    del m.data[1]\n"
                     "    m.data[2].append(3)\n"
                     "    m.data, r = [], 0\n"
                     "    m._nonzero_cols = None\n"
                     "    r[0] = m.data[0][0]\n")
    assert [(line, what) for _, _, line, what in _writes_in(tree, "scratch.py")] == [
        (2, "data[...]"), (3, "data[...]"), (4, "data[...]"), (5, "data.append"),
        (6, "data"), (7, "_nonzero_cols")]
