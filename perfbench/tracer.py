"""Spans around the functions of each coringlab layer, installed from outside.

Every function and method defined in a layer module gets a wrapper that
times it; the wrapper is bound in place of the original wherever a
``coringlab`` module holds it (module globals, module-level dicts, classes),
because modules import names directly (``from .exactla import rref``).
``uninstall`` puts every original back.

Per span name the tracer keeps calls, total time and self time (total minus
the time of spans nested inside it); per layer it keeps calls and self time.
Aggregates are kept, not individual spans, so memory stays flat however many
calls a pass makes.

Not spanned, so their time counts toward the caller: properties, dunder
methods other than ``__init__``, the scalar field classes, and the O(1)/O(n)
helpers in ``UNTRACED`` that run >10^4 times a pass and cost less than a
wrapper does.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("exactla", "algmod", "coring", "morita", "extension", "galois",
          "zoo", "workspace", "cli")

UNTRACED = {
    "exactla.FieldQ", "exactla.FieldFp",
    "exactla.Matrix.__init__", "exactla.Matrix.zero", "exactla.Matrix.col",
    "exactla.Matrix.row", "exactla.Matrix._shape_check",
    "exactla.zero_vec", "exactla.unit_vec", "exactla.vec_scale",
    "exactla.vec_add", "exactla.vec_sub", "exactla.flatten_matrix",
    "algmod.BalancedTensor.amb_index", "algmod.FBimodule.left_act_vec",
    "algmod.FBimodule.right_act_vec",
}


def _is_plain_function(obj, module_name):
    return inspect.isfunction(obj) and obj.__module__ == module_name


def layer_targets(layer):
    """(span name, owner, attribute, original) for every traced callable
    defined in ``coringlab.<layer>``; owner is the module or class."""
    mod = importlib.import_module("coringlab." + layer)
    out = []
    for name, obj in sorted(vars(mod).items()):
        span = "%s.%s" % (layer, name)
        if span in UNTRACED:
            continue
        if _is_plain_function(obj, mod.__name__):
            out.append((span, mod, name, obj))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("__") and attr != "__init__":
                    continue
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if not _is_plain_function(func, mod.__name__):
                    continue
                mspan = span if attr == "__init__" else "%s.%s" % (span, attr)
                if mspan in UNTRACED or "%s.%s" % (span, attr) in UNTRACED:
                    continue
                out.append((mspan, obj, attr, raw))
    return out


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "coringlab" or n.startswith("coringlab."))]


class Tracer:
    """Installs spans into the imported coringlab package.

    ``stats[span] = [calls, total_s, self_s]``; ``layer_stats[layer] =
    [calls, self_s]``; ``counters`` holds work sizes recorded by ``HOOKS``.
    """

    def __init__(self):
        self.stats = {}
        self.layer_stats = {layer: [0, 0.0] for layer in LAYERS}
        self.counters = {}
        self._stack = []
        self._undo = []
        self.targets = [t for layer in LAYERS for t in layer_targets(layer)]

    # -- spans

    def _wrap(self, span, func):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        layer = self.layer_stats[span.split(".", 1)[0]]
        stack = self._stack
        clock = time.perf_counter
        hook = HOOKS.get(span)
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += own
                layer[0] += 1
                layer[1] += own
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self):
        if self._undo:
            return
        originals = {}
        for span, owner, attr, raw in self.targets:
            if isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(self._wrap(span, raw.__func__))
            else:
                replacement = self._wrap(span, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            if not inspect.isclass(owner):
                originals[id(raw)] = (raw, replacement)
        # Re-bind the module functions wherever another module (or a
        # module-level table) holds them.
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = originals.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._undo.append((value, key, item))
                            value[key] = hit[1]

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._undo = []

    def snapshot(self):
        return ({k: list(v) for k, v in self.stats.items()},
                {k: list(v) for k, v in self.layer_stats.items()},
                dict(self.counters))


def stale_bindings(tracer):
    """Places in coringlab that still hold an unwrapped original of a traced
    callable while ``tracer`` is installed: must be empty."""
    traced = {}
    stale = []
    for span, owner, attr, raw in tracer.targets:
        if inspect.isclass(owner):
            if vars(owner)[attr] is raw:
                stale.append("%s.%s -> %s" % (owner.__qualname__, attr, span))
            raw = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        traced[id(raw)] = (span, raw)

    def visit(where, value):
        hit = traced.get(id(value))
        if hit is not None and hit[1] is value:
            stale.append("%s -> %s" % (where, hit[0]))

    for mod in package_modules():
        for name, value in vars(mod).items():
            if name.startswith("__"):
                continue
            where = "%s.%s" % (mod.__name__, name)
            visit(where, value)
            if isinstance(value, dict):
                for key, item in value.items():
                    visit("%s[%r]" % (where, key), item)
            if inspect.isfunction(value):
                for i, default in enumerate(value.__defaults__ or ()):
                    visit("%s default %d" % (where, i), default)
    return stale


# -- work counters, recorded after the traced call returns


def _add(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


def _rref_cells(counters, args, result):
    _add(counters, "exactla.rref.cells", args[0].rows * args[0].cols)


def _mul_vec_cells(counters, args, result):
    _add(counters, "exactla.mul_vec.cells", args[0].rows * args[0].cols)


def _tensor_sizes(counters, args, result):
    _add(counters, "algmod.BalancedTensor.ambient", args[0].ambient_dim)
    _add(counters, "algmod.BalancedTensor.quotient_dim", args[0].dim)


def _cleft_decided(counters, args, result):
    decided = result is None or result.grade != "unresolved"
    _add(counters, "galois.cleft_check.decided", 1 if decided else 0)


def _bytes_in(counters, args, result):
    _add(counters, "workspace.bytes_in", os.path.getsize(args[0]))


HOOKS = {
    "exactla.rref": _rref_cells,
    "exactla.Matrix.mul_vec": _mul_vec_cells,
    "algmod.BalancedTensor": _tensor_sizes,
    "galois.cleft_check": _cleft_decided,
    "workspace.load_workspace_file": _bytes_in,
}
