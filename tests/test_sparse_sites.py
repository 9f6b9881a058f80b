"""Tooling: balanced tensors keep their projection sparse.

``BalancedTensor`` keeps the quotient projection as one sparse factor per
step that has balancing relations (``_steps``; a relation-free step, over
the ground field or over L = k, keeps None and no quotient) and applies it
through the slot-group kernel; its composed sparse columns (``_proj_cols``)
are built on demand, and the nonzero columns of every matrix it reads are
computed once per matrix (``_sparse_cols``).  It builds neither a
dense projection nor a dense section: ``lift(X)`` places the rows of X at
the picked coordinates, ``project_head`` pushes a map through the steps,
corings, comodules and extensions keep the ambient form of Delta, rho and
tau, Morita contexts keep their connecting maps in the pair form they are
given in, and an entwining keeps psi in its ambient form.  So:

- ``BalancedTensor`` defines no ``proj`` or ``sect``;
- in every module of ``src``, nothing calls ``.sect()``, and nothing names
  ``.proj`` or ``._proj``;
- ``_proj_cols`` is read only inside ``algmod`` (the descent checks and the
  colinearity terms of ``colinearity_constraint``).

Inside ``algmod``:

- no ``.mul``/``.mul_vec`` product involves ``_proj`` or ``proj()``, as the
  receiver or as an argument;
- ``BalancedTensor._build`` makes no dense matrix or ambient-sized vector:
  it constructs no ``Matrix``, neither with ``Matrix(...)`` nor through a
  ``Matrix`` constructor, and calls none of ``transpose``,
  ``from_sparse_cols``, ``zero_vec`` and ``unit_vec``.  The outer actions
  are built on first read, outside it;
- ``BalancedTensor.induced`` keeps its vectors sparse, as (index, value)
  entries: neither it nor any ``algmod`` function or ``BalancedTensor``
  method it reaches calls ``unit_vec`` or ``zero_vec`` or builds a list
  ``[x] * n``.  The output matrix is assembled from sparse columns.

And in every module of ``src``, no ``.induced(...)`` result is multiplied
on the right, neither as ``.induced(...).mul(X)`` nor as
``L.mul(....induced(...)).mul(X)``: such a composite is evaluated at X with
``induced(..., at=X)``, which pushes X's columns through the tensors rather
than one vector per basis element of the source.
"""

import ast
import glob
import os

from test_kron_sites import _calls

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab")
ALGMOD = os.path.join(SRC, "algmod.py")
DENSE_BUILDERS = {"zero", "identity", "zero_vec", "unit_vec", "transpose",
                  "from_sparse_cols", "Matrix"}


def _tree(path=ALGMOD):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _method(name):
    tensor = next(n for n in _tree().body
                  if isinstance(n, ast.ClassDef) and n.name == "BalancedTensor")
    return next(n for n in tensor.body if isinstance(n, ast.FunctionDef) and n.name == name)


def _called(node):
    """The name a Call node calls, through an attribute or directly."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _is_dense_proj(node):
    """``x._proj`` or ``x.proj()``."""
    if isinstance(node, ast.Attribute) and node.attr == "_proj":
        return True
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "proj" and not node.args


def test_algmod_forms_no_product_with_the_dense_projection():
    stray = []
    for node in ast.walk(_tree()):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("mul", "mul_vec"):
            if any(_is_dense_proj(n) for n in [node.func.value] + node.args):
                stray.append(node.lineno)
    assert stray == []


def test_build_makes_no_dense_ambient_arrays():
    stray = []
    for node in ast.walk(_method("_build")):
        if isinstance(node, ast.Call):
            called = _called(node)
            # Matrix(...) itself, or any Matrix.<constructor>(...)
            on_matrix = isinstance(node.func, ast.Attribute) and \
                getattr(node.func.value, "id", None) == "Matrix"
            if called in DENSE_BUILDERS or on_matrix:
                stray.append((called, node.lineno))
    assert stray == []


def _reached_from(name):
    """The module functions and BalancedTensor methods of algmod that name
    calls, directly or through one another, with name itself."""
    tree = _tree()
    tensor = next(n for n in tree.body
                  if isinstance(n, ast.ClassDef) and n.name == "BalancedTensor")
    defs = {n.name: n for n in tree.body + tensor.body if isinstance(n, ast.FunctionDef)}
    reached, todo = {}, [name]
    while todo:
        current = todo.pop()
        if current in reached or current not in defs:
            continue
        reached[current] = defs[current]
        todo.extend(_called(n) for n in ast.walk(defs[current]) if isinstance(n, ast.Call))
    return reached


def _builds_dense_list(node):
    """``[x] * n`` or ``n * [x]``."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and \
        (isinstance(node.left, ast.List) or isinstance(node.right, ast.List))


def test_induced_keeps_its_vectors_sparse():
    reached = _reached_from("induced")
    assert {"induced", "_push", "_apply_sparse"} <= set(reached)
    stray = []
    for name, func in sorted(reached.items()):
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and _called(node) in ("unit_vec", "zero_vec")) \
                    or _builds_dense_list(node):
                stray.append((name, node.lineno))
    assert stray == []


def _is_induced(node):
    return isinstance(node, ast.Call) and _called(node) == "induced"


def test_no_induced_map_is_multiplied_on_the_right():
    stray = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "mul"):
                continue
            receiver = node.func.value
            # .induced(...).mul(X), or L.mul(....induced(...)).mul(X)
            if _is_induced(receiver) or (
                    isinstance(receiver, ast.Call) and _called(receiver) == "mul"
                    and any(_is_induced(arg) for arg in receiver.args)):
                stray.append((os.path.basename(path), node.lineno))
    assert stray == []


def _src_calls(called):
    return [(os.path.basename(path), scope, line)
            for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
            for scope, line in _calls(path, (called,))]


def test_no_module_builds_a_dense_section():
    assert _src_calls("sect") == []


def test_no_module_builds_or_reads_a_dense_projection():
    tensor = next(n for n in _tree().body
                  if isinstance(n, ast.ClassDef) and n.name == "BalancedTensor")
    defined = {n.name for n in tensor.body if isinstance(n, ast.FunctionDef)}
    assert not defined & {"proj", "sect"}
    assert "_proj_cols" in defined
    stray = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in ("proj", "_proj") or (
                    node.attr == "_proj_cols" and name != "algmod.py"):
                stray.append("%s:%d .%s" % (name, node.lineno, node.attr))
    assert stray == []
