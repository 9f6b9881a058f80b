"""Structure-constant file format: loading, validation and canonical output.

A workspace file is JSON with labeled blocks (algebras, modules, corings,
comodules, grouplikes, extensions, maps) whose scalar entries are strings:
"p/q" over the rationals, "n mod p" over a prime field.  References resolve
in block order, so files are acyclic by construction.  The canonical
formatter makes serialization deterministic byte-for-byte.
"""

from __future__ import annotations

import json

from .algmod import FBimodule, FiniteAlgebra, trivial_algebra
from .coring import Comodule, Coring, Grouplike
from .exactla import FieldFp, FieldQ, Matrix, QQ, UsageError
from .extension import CoringExtension

FORMAT_VERSION = "1"


class ParseError(Exception):
    """Unreadable or malformed workspace file."""


def _ser_matrix(field, m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [field.fmt(v) for row in m.data for v in row]}


class _Scalars:
    """The field's parse for one load, each distinct scalar string parsed
    once (files repeat "0", "1" and "-1" throughout)."""

    def __init__(self, field):
        self.field = field
        self._parsed = {}

    def __call__(self, s, what):
        if not isinstance(s, str):
            raise ParseError("%s: scalar %r is not a string" % (what, s))
        val = self._parsed.get(s)
        if val is None:
            val = self._parsed[s] = self.field.parse(s)
        return val


def _de_matrix(scalars, obj, what="matrix", shape=None):
    """A matrix block; shape, when given, is the required (rows, cols)."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad %s block" % what) from exc
    if rows < 0 or cols < 0:
        raise ParseError("%s: negative shape %dx%d" % (what, rows, cols))
    if shape is not None and (rows, cols) != shape:
        raise ParseError("%s: expected %dx%d, got %dx%d" % ((what,) + shape + (rows, cols)))
    vals = [scalars(s, what) for s in _de_list(entries, what, rows * cols)]
    return Matrix(scalars.field, rows, cols,
                  [vals[i * cols:(i + 1) * cols] for i in range(rows)])


def _ser_vector(field, v):
    return [field.fmt(x) for x in v]


def _de_vector(scalars, obj, what, length):
    return [scalars(s, what) for s in _de_list(obj, what, length)]


def _de_list(obj, what, length):
    """A JSON list of the given length (one entry per basis element)."""
    if not isinstance(obj, list) or len(obj) != length:
        raise ParseError("%s: expected a list of %d entries" % (what, length))
    return obj


def _de_dim(obj, what):
    try:
        dim = int(obj)
    except (TypeError, ValueError) as exc:
        raise ParseError("%s: bad dimension %r" % (what, obj)) from exc
    if dim < 0:
        raise ParseError("%s: negative dimension %d" % (what, dim))
    return dim


def _de_block(data, section, name, keys):
    """One named block of a section, with its required keys present."""
    blk = data[section][name]
    what = "%s %s" % (section[:-1], name)
    if not isinstance(blk, dict):
        raise ParseError("%s must be an object" % what)
    missing = [k for k in keys if k not in blk]
    if missing:
        raise ParseError("%s is missing %s" % (what, ", ".join(missing)))
    return blk, what


def _lookup(table, key, what, kind):
    if not isinstance(key, str) or key not in table:
        raise ParseError("%s references unknown %s %r" % (what, kind, key))
    return table[key]


class Workspace:
    """Named structures loaded from (or destined for) a workspace file."""

    def __init__(self, field):
        self.field = field
        self.algebras = {}
        self.modules = {}
        self.module_algs = {}   # name -> (left_name|None, right_name|None)
        self.corings = {}
        self.coring_meta = {}   # name -> (base_name, carrier_name)
        self.comodules = {}
        self.comodule_meta = {}
        self.grouplikes = {}
        self.grouplike_meta = {}
        self.extensions = {}
        self.extension_meta = {}
        self.maps = {}
        self.map_meta = {}

    # -- assembly

    def add_algebra(self, name, alg):
        self.algebras[name] = alg
        return alg

    def add_module(self, name, mod, left_name=None, right_name=None):
        self.modules[name] = mod
        self.module_algs[name] = (left_name, right_name)
        return mod

    def add_coring(self, name, coring, base_name, carrier_name):
        self.corings[name] = coring
        self.coring_meta[name] = (base_name, carrier_name)
        return coring

    def add_comodule(self, name, com, coring_name, carrier_name):
        self.comodules[name] = com
        self.comodule_meta[name] = (coring_name, carrier_name)
        return com

    def add_grouplike(self, name, g, coring_name):
        self.grouplikes[name] = g
        self.grouplike_meta[name] = coring_name
        return g

    def add_extension(self, name, ext, inner_name, outer_name):
        self.extensions[name] = ext
        self.extension_meta[name] = (inner_name, outer_name)
        return ext

    def add_map(self, name, matrix, source, target):
        """source/target are (kind, name) pairs; kind in
        algebra|module|coring|comodule|dual-pairing."""
        self.maps[name] = matrix
        self.map_meta[name] = (tuple(source), tuple(target))
        return matrix

    def validate_all(self):
        """Run every structural validator, in deterministic block order."""
        for table in (self.algebras, self.modules, self.corings,
                      self.comodules, self.grouplikes, self.extensions):
            for name in sorted(table):
                table[name].validate()
        return True

    # -- space resolution for maps

    def space_dim(self, ref):
        kind, name = ref
        if kind == "algebra":
            return self.algebras[name].dim
        if kind == "module":
            return self.modules[name].dim
        if kind == "coring":
            return self.corings[name].dim
        if kind == "comodule":
            return self.comodules[name].dim
        raise UsageError("unknown space kind %r" % (kind,))

    # -- serialization

    def to_json(self):
        f = self.field
        out = {"format_version": FORMAT_VERSION}
        if isinstance(f, FieldQ):
            out["field"] = {"kind": "Q"}
        else:
            out["field"] = {"kind": "Fp", "p": f.p}
        out["algebras"] = {
            name: {"dim": alg.dim,
                   "mul": [[_ser_vector(f, alg.mul[i][j]) for j in range(alg.dim)]
                           for i in range(alg.dim)],
                   "unit": _ser_vector(f, alg.unit)}
            for name, alg in self.algebras.items()}
        out["modules"] = {}
        for name, mod in self.modules.items():
            left, right = self.module_algs[name]
            out["modules"][name] = {
                "left": left, "right": right, "dim": mod.dim,
                "left_act": [_ser_matrix(f, m) for m in mod.left_act],
                "right_act": [_ser_matrix(f, m) for m in mod.right_act]}
        out["corings"] = {}
        for name, c in self.corings.items():
            base, carrier = self.coring_meta[name]
            out["corings"][name] = {
                "base": base, "carrier": carrier,
                "coproduct": _ser_matrix(f, c.coproduct_amb),
                "counit": _ser_matrix(f, c.counit)}
        out["comodules"] = {}
        for name, m in self.comodules.items():
            coring, carrier = self.comodule_meta[name]
            out["comodules"][name] = {
                "coring": coring, "carrier": carrier,
                "coaction": _ser_matrix(f, m.coaction_amb)}
        out["grouplikes"] = {
            name: {"coring": self.grouplike_meta[name],
                   "vector": _ser_vector(f, g.element)}
            for name, g in self.grouplikes.items()}
        out["extensions"] = {}
        for name, e in self.extensions.items():
            inner, outer = self.extension_meta[name]
            entry = {"inner": inner, "outer": outer,
                     "right_l_action": [_ser_matrix(f, m) for m in e.right_l_act],
                     "tau": _ser_matrix(f, e.tau_amb)}
            entry["split_map"] = _ser_matrix(f, e.split_map) \
                if e.split_map is not None else None
            out["extensions"][name] = entry
        out["maps"] = {}
        for name, mat in self.maps.items():
            src, tgt = self.map_meta[name]
            out["maps"][name] = {"source": list(src), "target": list(tgt),
                                 "matrix": _ser_matrix(f, mat)}
        return out

    def canonical_text(self):
        return json.dumps(self.to_json(), sort_keys=True, indent=1) + "\n"


def parse_field(obj):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "Q":
        return QQ
    if kind == "Fp":
        try:
            p = int(obj["p"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("field Fp needs an integer modulus p") from exc
        return FieldFp(p)
    raise ParseError("unknown field kind %r" % (kind,))


def _section(data, key):
    blocks = data.get(key, {})
    if not isinstance(blocks, dict):
        raise ParseError("%s must be an object" % key)
    return blocks


def load_workspace(text, field_override=None):
    """Parse a workspace file; every block is validated on load.

    Types and shapes are checked as each block is read (required keys,
    dimensions, one action matrix per algebra basis element, scalars as
    strings), so a malformed file raises ParseError.  field_override
    replaces the declared field (used for reductions of rational fixtures
    to a prime field).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ParseError("unsupported format version %r" % data.get("format_version"))
    declared = parse_field(data.get("field", {}))
    field = field_override or declared
    if field_override is not None and not isinstance(declared, FieldQ):
        raise ParseError("field reduction is only defined for rational files")
    ws = Workspace(field)
    triv = trivial_algebra(field)
    scalars = _Scalars(field)

    def alg_of(name, what):
        if name is None:
            return triv
        return _lookup(ws.algebras, name, what, "algebra")

    for name in _section(data, "algebras"):
        blk, what = _de_block(data, "algebras", name, ("dim", "mul", "unit"))
        dim = _de_dim(blk["dim"], what)
        mul = [[_de_vector(scalars, vec, what, dim)
                for vec in _de_list(row, what, dim)]
               for row in _de_list(blk["mul"], what, dim)]
        unit = _de_vector(scalars, blk["unit"], what, dim)
        alg = FiniteAlgebra(field, dim, mul, unit, name=name)
        ws.add_algebra(name, alg)
    for name in _section(data, "modules"):
        blk, what = _de_block(data, "modules", name, ("dim", "left_act", "right_act"))
        left = alg_of(blk.get("left"), what)
        right = alg_of(blk.get("right"), what)
        dim = _de_dim(blk["dim"], what)
        mod = FBimodule(left, right, dim,
                        [_de_matrix(scalars, m, "left action of %s" % name, (dim, dim))
                         for m in _de_list(blk["left_act"], "left action of %s" % name,
                                           left.dim)],
                        [_de_matrix(scalars, m, "right action of %s" % name, (dim, dim))
                         for m in _de_list(blk["right_act"], "right action of %s" % name,
                                           right.dim)], name=name)
        ws.add_module(name, mod, blk.get("left"), blk.get("right"))
    for name in _section(data, "corings"):
        blk, what = _de_block(data, "corings", name,
                              ("base", "carrier", "coproduct", "counit"))
        base = alg_of(blk["base"], what)
        carrier = _lookup(ws.modules, blk["carrier"], what, "module")
        if carrier.left_alg.dim != base.dim or carrier.right_alg.dim != base.dim:
            raise ParseError("%s: carrier is not a bimodule over the base" % what)
        c = Coring(base, carrier, _de_matrix(scalars, blk["coproduct"],
                                             "coproduct of %s" % name),
                   _de_matrix(scalars, blk["counit"], "counit of %s" % name),
                   name=name)
        ws.add_coring(name, c, blk["base"], blk["carrier"])
    for name in _section(data, "comodules"):
        blk, what = _de_block(data, "comodules", name, ("coring", "carrier", "coaction"))
        coring = _lookup(ws.corings, blk["coring"], what, "coring")
        carrier = _lookup(ws.modules, blk["carrier"], what, "module")
        if carrier.right_alg.dim != coring.base.dim:
            raise ParseError("%s: carrier is not a right module over the base" % what)
        m = Comodule(coring, carrier,
                     _de_matrix(scalars, blk["coaction"], "coaction of %s" % name),
                     name=name)
        ws.add_comodule(name, m, blk["coring"], blk["carrier"])
    for name in _section(data, "grouplikes"):
        blk, what = _de_block(data, "grouplikes", name, ("coring", "vector"))
        coring = _lookup(ws.corings, blk["coring"], what, "coring")
        g = Grouplike(coring, _de_vector(scalars, blk["vector"], what, coring.dim))
        ws.add_grouplike(name, g, blk["coring"])
    for name in _section(data, "extensions"):
        blk, what = _de_block(data, "extensions", name,
                              ("inner", "outer", "right_l_action", "tau"))
        inner = _lookup(ws.corings, blk["inner"], what, "coring")
        outer = _lookup(ws.corings, blk["outer"], what, "coring")
        split = blk.get("split_map")
        ext = CoringExtension(
            inner, outer,
            [_de_matrix(scalars, m, "right action of %s" % name, (inner.dim, inner.dim))
             for m in _de_list(blk["right_l_action"], "right action of %s" % name,
                               outer.base.dim)],
            _de_matrix(scalars, blk["tau"], "outer coaction of %s" % name),
            split_map=_de_matrix(scalars, split, "split map of %s" % name,
                                 (inner.base.dim, outer.base.dim))
            if split is not None else None,
            name=name)
        ws.add_extension(name, ext, blk["inner"], blk["outer"])
    for name in _section(data, "maps"):
        blk, what = _de_block(data, "maps", name, ("source", "target", "matrix"))
        src = tuple(_de_list(blk["source"], "%s source" % what, 2))
        tgt = tuple(_de_list(blk["target"], "%s target" % what, 2))
        mat = _de_matrix(scalars, blk["matrix"], "map %s" % name)
        for ref, expect, axis in ((src, mat.cols, "source"),
                                  (tgt, mat.rows, "target")):
            try:
                dim = ws.space_dim(ref)
            except (KeyError, TypeError, UsageError) as exc:
                raise ParseError("map %s has unresolvable %s %r"
                                 % (name, axis, ref)) from exc
            if dim != expect:
                raise ParseError("map %s: %s dimension mismatch" % (name, axis))
        ws.add_map(name, mat, src, tgt)
    return ws


def load_workspace_file(path, field_override=None):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    if not text.strip():
        raise ParseError("empty file: %s" % path)
    return load_workspace(text, field_override=field_override)
