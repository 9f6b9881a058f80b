"""Tooling: maps between balanced tensors go through BalancedTensor.induced.

``induced`` applies per-slot maps without building identity krons, so only
the code below may still call ``.kron(``, each for a stated reason:

- ``morphism_failure`` compares connecting maps on ambient pair bases, for
  ``morphism_M_to_N`` and ``remark_k_coincidence`` alike;
- ``EntwiningStructure.right_act`` (the entwined right action both
  entwining corings read) and ``entwining_coring`` compose two ambient
  layers with no quotient between them.

The weak-entwining and partial-action corings are summands of a plain
tensor cut out by an idempotent: each structure map is read in the
summand's coordinates by ``Subspace.coords_matrix``, and only ``exactla``
reads a subspace's ``pivots``.  Their coproducts put the carrier's image of
the outer coring in the last slot of the outer coaction (``zoo._tail_map``,
each column reshaped and multiplied, with no identity kron).

Every Sweedler sum of the library (the pairings, the defining relation of
Q, the coproduct and counit of A (x)_B A, the convolution products, the
coaction of a direct sum, the generator witness, the rebuilt intertwiners)
is one ``induced(..., at=X)`` map followed by an evaluation matrix.  Outside
``algmod`` only these lift a quotient vector to its ambient pairs
(``lift_pairs``), and in ``morita``, ``extension`` and ``galois`` only these
re-assemble pure tensors (``pure_tensor``):

- ``check_jids`` and ``check_dual_basis_from_witnesses`` evaluate the
  reconstruction identities element by element, the independent routes
  the operator forms are checked against;
- ``can_inverse_from_witnesses`` rebuilds the canonical inverse element by
  element, the oracle it is compared with;
- ``_rebuild_witnesses`` (pure tensors only) forms the inputs 1 (x) c and
  1_T (x) d at which it evaluates.

Every corner space of the Morita contexts is one ``hom_space`` solve of
operator terms, so ``solve_map_space`` has no other caller.

Mixed associativity compares one operator per basis pair, read off the
connecting maps on ambient pair bases, so it lifts no vectors.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab")
ALLOWED = {("morita.py", "morphism_failure"),
           ("zoo.py", "EntwiningStructure.right_act"),
           ("zoo.py", "entwining_coring")}
# the allowed functions outside exactla and algmod hold this many calls (2
# in morphism_failure, 1 in each zoo function); the bound keeps them from
# growing more
MAX_OUTSIDE_KERNEL = 4

LIFTS = {("galois.py", "can_inverse_from_witnesses"), ("galois.py", "check_jids"),
         ("galois.py", "check_dual_basis_from_witnesses")}
PURE_TENSORS = {("galois.py", "can_inverse_from_witnesses"),
                ("galois.py", "check_dual_basis_from_witnesses"),
                ("galois.py", "_rebuild_witnesses")}
CONTEXT_MODULES = ("morita.py", "extension.py", "galois.py")


def _calls(path, attrs):
    """(enclosing qualified name, line) of every call of a method or
    function named in attrs in a file."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if called in attrs:
                    found.append((".".join(scope), child.lineno))
            walk(child, inner)

    walk(tree, ())
    return found


def _kron_calls(path):
    return _calls(path, ("kron",))


def test_only_the_allowed_functions_build_krons():
    stray = []
    allowed_seen = set()
    outside_kernel = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        for scope, line in _kron_calls(path):
            if (name, scope) in ALLOWED:
                allowed_seen.add((name, scope))
                outside_kernel += name not in ("exactla.py", "algmod.py")
            else:
                stray.append("%s:%d in %s" % (name, line, scope or "<module>"))
    assert stray == []
    assert allowed_seen == ALLOWED
    assert outside_kernel <= MAX_OUTSIDE_KERNEL


def test_only_exactla_reads_pivots():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "exactla.py":
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "pivots"]
    assert found == []


def test_only_hom_space_solves_map_spaces():
    found = [(os.path.basename(path), scope)
             for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
             for scope, _ in _calls(path, ("solve_map_space",))]
    assert found == [("algmod.py", "hom_space")]


@pytest.mark.parametrize("called, modules, allowed, most", [
    ("lift_pairs", None, LIFTS, 7),
    ("pure_tensor", CONTEXT_MODULES, PURE_TENSORS, 4)], ids=["lift_pairs", "pure_tensor"])
def test_vectors_are_lifted_only_in_the_elementwise_routes(called, modules, allowed,
                                                           most):
    """called appears only in the allowed functions, each still using it,
    at most this many times: in every module but algmod (modules None), or
    in the named ones."""
    found = [(name, scope, line)
             for name in (modules or sorted(os.path.basename(path) for path in
                                            glob.glob(os.path.join(SRC, "*.py"))))
             if name != "algmod.py"
             for scope, line in _calls(os.path.join(SRC, name), (called,))]
    stray = ["%s:%d in %s" % (name, line, scope or "<module>")
             for name, scope, line in found if (name, scope) not in allowed]
    assert stray == []
    assert {(name, scope) for name, scope, _ in found} == allowed
    assert len(found) <= most
