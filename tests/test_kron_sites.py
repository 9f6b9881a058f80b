"""Tooling: maps between balanced tensors go through BalancedTensor.induced.

``induced`` applies per-slot maps without building identity krons, so only
the code below may still call ``.kron(``, each for a stated reason:

- ``morphism_failure`` compares connecting maps on ambient pair bases, for
  ``morphism_M_to_N`` and ``remark_k_coincidence`` alike;
- ``weak_entwining_coring`` and ``entwining_coring`` compose two ambient
  layers with no quotient between them.

Likewise the galois constructions build their maps into tensors with
``induced``, not by lifting one vector at a time (``lift_pairs``) and
re-assembling pure tensors (``pure_tensor``).  Only these keep such loops:

- ``check_jids`` and ``check_dual_basis_from_witnesses`` evaluate the
  reconstruction identities element by element, an independent route to
  what the operator forms compute;
- ``can_inverse_from_witnesses``, ``check_generator_property`` and
  ``_rebuild_witnesses`` evaluate witnesses on chosen elements.

Every corner space of the Morita contexts is one ``hom_space`` solve of
operator terms, so ``solve_map_space`` has no other caller, and ``morita``
and ``extension`` lift vectors only in their elementwise routes:

- ``QModule._verify_pointwise`` re-checks the defining relation of Q;
- ``SigmaDual.pairing`` evaluates on elements, and
  ``MoritaContext.connecting`` lifts its unit preimage to witness pairs;
- ``convolution_inverse`` solves for one inverse, not a space.

Mixed associativity compares one operator per basis pair, read off the
connecting maps on ambient pair bases, so it lifts no vectors.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab")
ALLOWED = {("morita.py", "morphism_failure"),
           ("zoo.py", "weak_entwining_coring"),
           ("zoo.py", "entwining_coring")}
# the allowed functions outside exactla and algmod hold this many calls; the
# bound keeps them from growing more
MAX_OUTSIDE_KERNEL = 17

GALOIS_LOOPS = {"can_inverse_from_witnesses", "check_jids",
                "check_generator_property", "_rebuild_witnesses",
                "check_dual_basis_from_witnesses"}
MAX_GALOIS_LOOPS = 13

CONTEXT_LOOPS = {("morita.py", "QModule._verify_pointwise"),
                 ("morita.py", "SigmaDual.pairing"),
                 ("morita.py", "MoritaContext.connecting"),
                 ("extension.py", "convolution_inverse")}
MAX_CONTEXT_LOOPS = 5


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


def test_galois_lifts_vectors_only_in_the_named_checks():
    found = _calls(os.path.join(SRC, "galois.py"), ("lift_pairs", "pure_tensor"))
    stray = ["galois.py:%d in %s" % (line, scope or "<module>")
             for scope, line in found if scope not in GALOIS_LOOPS]
    assert stray == []
    assert {scope for scope, _ in found} == GALOIS_LOOPS
    assert len(found) <= MAX_GALOIS_LOOPS


def test_only_hom_space_solves_map_spaces():
    found = [(os.path.basename(path), scope)
             for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
             for scope, _ in _calls(path, ("solve_map_space",))]
    assert found == [("algmod.py", "hom_space")]


def test_contexts_lift_vectors_only_in_the_elementwise_routes():
    found = [(name, scope, line) for name in ("morita.py", "extension.py")
             for scope, line in _calls(os.path.join(SRC, name),
                                       ("lift_pairs", "pure_tensor"))]
    stray = ["%s:%d in %s" % (name, line, scope or "<module>")
             for name, scope, line in found if (name, scope) not in CONTEXT_LOOPS]
    assert stray == []
    assert {(name, scope) for name, scope, _ in found} == CONTEXT_LOOPS
    assert len(found) <= MAX_CONTEXT_LOOPS
