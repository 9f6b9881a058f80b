"""Tooling: FBimodule owns how a module's action becomes a matrix.

Outside ``algmod`` no module spells out a one-sided module or rebuilds an
action matrix by hand:

- a one-sided module is ``FBimodule.right_module`` or ``left_module``, not
  ``FBimodule(trivial_algebra(...), ...)`` with an ``[Matrix.identity(...)]``
  action list (nor with names bound to either);
- the orbit maps a -> a·x and a -> x·a are ``left_orbits``/``right_orbits``
  and the evaluation maps ``left_eval``/``right_eval``, not columns gathered
  from the action matrices (``[act.col(x) for act in m.right_act]``), nor one
  column read off the action of an element (``m.right_act_vec(v).col(x)``).
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab")
ACT_LISTS = {"left_act", "right_act"}
COMBINATIONS = {"left_act_vec", "right_act_vec", "lmul_vec", "rmul_vec"}


def _outside_algmod():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) != "algmod.py":
            with open(path, encoding="utf-8") as handle:
                yield os.path.basename(path), ast.parse(handle.read(), filename=path)


def _called(node):
    """The name of the function or method a Call node calls, or None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _is_identity(node):
    return _called(node) == "identity" and isinstance(node.func, ast.Attribute) and \
        getattr(node.func.value, "id", None) == "Matrix"


def _scopes(tree):
    """The module and every function and class in it."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def _own_nodes(scope):
    """The nodes of scope outside the functions and classes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _bound_to(scope, test):
    """Names assigned in scope from an expression that passes test."""
    return {t.id for node in _own_nodes(scope) if isinstance(node, ast.Assign)
            and test(node.value) for t in node.targets if isinstance(t, ast.Name)}


def test_one_sided_modules_use_their_constructor():
    stray = []
    for name, tree in _outside_algmod():
        for scope in _scopes(tree):
            trivial = _bound_to(scope, lambda v: _called(v) == "trivial_algebra")
            identity = _bound_to(scope, _is_identity)

            def one_sided(arg):
                if isinstance(arg, ast.List):  # an [identity] action list
                    return any(_is_identity(elt) or getattr(elt, "id", None) in identity
                               for elt in arg.elts)
                return _called(arg) == "trivial_algebra" or getattr(arg, "id", None) in trivial

            stray += ["%s:%d" % (name, node.lineno) for node in _own_nodes(scope)
                      if _called(node) == "FBimodule" and isinstance(node.func, ast.Name)
                      and any(one_sided(arg) for arg in
                              list(node.args) + [kw.value for kw in node.keywords])]
    assert stray == []


def _mentions(node, attrs):
    return any(isinstance(sub, ast.Attribute) and sub.attr in attrs for sub in ast.walk(node))


def test_orbit_and_evaluation_maps_are_not_rebuilt():
    stray = []
    for name, tree in _outside_algmod():
        for node in ast.walk(tree):
            comprehension = isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp))
            if comprehension and any(_called(sub) == "col" for sub in ast.walk(node.elt)) \
                    and any(_mentions(gen.iter, ACT_LISTS) for gen in node.generators):
                stray.append("%s:%d gathers action columns" % (name, node.lineno))
            if _called(node) == "col" and isinstance(node.func, ast.Attribute) and \
                    _called(node.func.value) in COMBINATIONS:
                stray.append("%s:%d reads one column of an action" % (name, node.lineno))
    assert stray == []
