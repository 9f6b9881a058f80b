"""Tooling: no package or test module keeps a top-level import it never
uses, no function keeps a local it assigns and never reads, or a parameter
it never reads, and no module-level function is only a second name for a
call."""

import ast
import glob
import os

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, "..", "src", "coringlab")


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
    for path in sorted(glob.glob(os.path.join(SRC, "*.py")) +
                       glob.glob(os.path.join(TESTS, "*.py"))):
        name = os.path.relpath(path, os.path.join(TESTS, ".."))
        if os.path.basename(path) != "__init__.py" and _unused_imports(path):
            unused[name] = _unused_imports(path)
    assert unused == {}


def _own_scope(node):
    """The nodes of a function's own scope: nested functions, classes and
    lambdas are left out (they are scanned as functions of their own)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                              ast.Lambda)):
            continue
        yield child
        yield from _own_scope(child)


def _dead_locals(path):
    """(function, name, line) of each local a function assigns and never
    reads, in its own body or in a nested function; ``_`` and names declared
    nonlocal or global are exempt."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    dead = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        exempt = {"_"}
        for node in _own_scope(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                exempt.update(node.names)
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead.extend((func.name, name, line) for name, line in stored.items()
                    if name not in read and name not in exempt)
    return sorted(dead, key=lambda item: item[2])


def test_no_dead_locals():
    dead = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        found = _dead_locals(path)
        if found:
            dead[os.path.basename(path)] = found
    assert dead == {}


# public positional signatures that keep a parameter for their callers
UNUSED_PARAMETERS_ALLOWED = {
    ("extension.py", "check_colinear_maps_remain_colinear", "ext"):
        "names the extension whose inner-colinear maps are checked; the cli, "
        "tests and callers pass it first",
    ("zoo.py", "weak_cleft_translation", "coring"):
        "takes the coring, inclusion and retraction that weak_entwining_coring "
        "returns, in that order, so callers pass them on as one group",
    ("zoo.py", "weak_cleft_translation", "ret"):
        "takes the coring, inclusion and retraction that weak_entwining_coring "
        "returns, in that order, so callers pass them on as one group",
}


def _unused_parameters(path):
    """(function, parameter) of each parameter a function never reads, in its
    own body or in a nested function; self and cls are exempt."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused.extend((func.name, p) for p in params
                      if p not in read and p not in ("self", "cls"))
    return unused


def test_no_unused_parameters():
    unused = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        unused.update((name,) + item for item in _unused_parameters(path))
    assert unused == set(UNUSED_PARAMETERS_ALLOWED)


# module-level functions kept as a second name for a call, with the reason
FORWARDING_ALIASES_ALLOWED = {
    ("morita.py", "context_M"):
        "perfbench `ENTRY_POINTS` traces `morita.context_M`",
}


def _passed_on(node):
    """The values an argument passes on: a list or tuple literal passes on
    each of its elements."""
    if isinstance(node, (ast.List, ast.Tuple)):
        for elt in node.elts:
            yield from _passed_on(elt)
    else:
        yield node


def _forwarding_aliases(path):
    """Module-level functions whose body (after a docstring) only returns a
    call that passes the function's own parameters on, unchanged, possibly
    gathered into list or tuple literals."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []
    for func in tree.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if len(body) > 1 and isinstance(body[0], ast.Expr) and \
                isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return) or \
                not isinstance(body[0].value, ast.Call):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        call = body[0].value
        passed = [v for arg in list(call.args) + [kw.value for kw in call.keywords]
                  for v in _passed_on(arg)]
        if all(isinstance(v, ast.Name) and v.id in params for v in passed):
            found.append(func.name)
    return found


def test_no_forwarding_aliases():
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        found.update((name, func) for func in _forwarding_aliases(path))
    assert found == set(FORWARDING_ALIASES_ALLOWED)
