"""Tooling: balanced tensors keep their projection sparse.

``BalancedTensor`` keeps the quotient projection as sparse columns
(``_pcols``) and applies it through the slot-group kernel; the dense
``proj()``/``sect()`` matrices are built on demand for callers outside
``algmod``.  So inside ``algmod``:

- no ``.mul``/``.mul_vec`` product involves ``_proj`` or ``proj()``, as the
  receiver or as an argument;
- ``BalancedTensor._build`` makes no dense ambient-sized matrix or vector:
  it calls none of ``Matrix.zero``, ``Matrix.identity``, ``zero_vec`` and
  ``unit_vec``.
"""

import ast
import os

ALGMOD = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab", "algmod.py")
DENSE_BUILDERS = {"zero", "identity", "zero_vec", "unit_vec"}


def _tree():
    with open(ALGMOD, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=ALGMOD)


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
    tensor = next(n for n in _tree().body
                  if isinstance(n, ast.ClassDef) and n.name == "BalancedTensor")
    build = next(n for n in tensor.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_build")
    stray = []
    for node in ast.walk(build):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if called in DENSE_BUILDERS:
                stray.append((called, node.lineno))
    assert stray == []
