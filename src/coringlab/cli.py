"""Command-line front end: validation, Morita/extension reports, cleftness
and the theorem suite, plus the bundled example files.

Reports are emitted as canonical JSON on stdout (sorted keys, no timing
data), so identical inputs produce byte-identical output; per-check timings
go to stderr.  Exit codes: 0 success, 1 mathematical failure or
disagreement, 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .exactla import AxiomError, FieldFp, UsageError, rank
from .extension import (ExtContext, check_colinear_maps_remain_colinear,
                        convolution_algebra, convolution_inverse,
                        induced_D_coaction, purity_check, remark_k_coincidence)
from .galois import (check_dual_basis_from_witnesses,
                     check_equivariant_projectivity, check_generator_property,
                     check_jids, default_sample_modules,
                     galois_check, tensor_fullyfaithful_check, verify_cor_jJ,
                     verify_diamond_to_triangle, verify_fgp_corollary,
                     verify_strictness_three_way, verify_strong_structure,
                     verify_surjectivity_thm, verify_weak_structure)
from .morita import ModuleContext, context_M, morphism_M_to_N
from .workspace import ParseError, load_workspace_file
from .zoo import FIXTURES, build_fixture

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class Report:
    """Deterministic check report for one target."""

    def __init__(self, target, field):
        self.target = target
        self.field = field.name
        self.checks = []

    def add(self, check_id, verdict, grade="exact", witnesses=None, details=None,
            time_ms=None):
        entry = {"check_id": check_id, "verdict": verdict, "grade": grade}
        if witnesses is not None:
            entry["witnesses"] = witnesses
        if details is not None:
            entry["details"] = details
        entry["time_ms"] = time_ms
        self.checks.append(entry)
        return entry

    def failed(self):
        return [c for c in self.checks
                if isinstance(c["verdict"], str) and c["verdict"].startswith("fail")]

    def canonical_body(self):
        body = {"target": self.target, "field": self.field,
                "checks": [{k: v for k, v in c.items() if k != "time_ms"}
                           for c in self.checks]}
        return json.dumps(body, sort_keys=True, indent=1) + "\n"

    def print_summary(self):
        width = _columns()
        for c in self.checks:
            ms = "      " if c["time_ms"] is None else "%6.1f" % c["time_ms"]
            line = "[%sms] %s: %s" % (ms, c["check_id"], c["verdict"])
            sys.stderr.write(line[:width] + "\n")


def _columns():
    try:
        return max(40, int(os.environ.get("COLUMNS", "100")))
    except ValueError:
        return 100


def timed(report, check_id, fn, grade="exact"):
    """Run one check; axiom failures become fail verdicts, not crashes."""
    start = time.perf_counter()
    try:
        out = fn()
    except AxiomError as exc:
        report.add(check_id, "fail: %s" % exc, grade=grade,
                   time_ms=(time.perf_counter() - start) * 1000.0)
        return None
    ms = (time.perf_counter() - start) * 1000.0
    verdict, extra = out if isinstance(out, tuple) else (out, None)
    report.add(check_id, verdict, grade=grade, details=extra, time_ms=ms)
    return out


def _fmt_witness_pairs(field, pairs):
    if pairs is None:
        return None
    return [[[field.fmt(v) for v in left], [field.fmt(v) for v in right]]
            for (left, right) in pairs]


# ---------------------------------------------------------------------------
# shared lookups


def _field_for(args):
    if getattr(args, "reduce", None):
        try:
            p = int(args.reduce)
        except ValueError as exc:
            raise UsageError("--reduce needs an integer, got %r" % args.reduce) from exc
        return FieldFp(p)
    return None


def _load(args, validate=True):
    ws = load_workspace_file(args.file, field_override=_field_for(args))
    if validate:
        ws.validate_all()
    return ws


def _named(table, name, what):
    if name not in table:
        raise UsageError("unknown %s %r (have: %s)"
                         % (what, name, ", ".join(sorted(table)) or "none"))
    return table[name]


def _sample_comodules(ws, sigma, extra_names):
    names = []
    for name, com in ws.comodules.items():
        if com is sigma or com.coring is not sigma.coring:
            continue
        if com.dim == 0:
            continue
        names.append(name)
    names.sort()
    chosen = [sigma] + [ws.comodules[n] for n in names]
    for name in extra_names:
        com = _named(ws.comodules, name, "comodule")
        if com not in chosen:
            chosen.append(com)
    return chosen


def _jtilde_from_map(ext_ctx, mat):
    """Interpret a coring-to-algebra map as an intertwiner through left
    multiplications; requires the comodule to be the base algebra."""
    sigma = ext_ctx.sigma
    a = ext_ctx.ext.inner.base
    if sigma.dim != a.dim:
        raise UsageError("the stored intertwiner form needs the comodule to be "
                         "the base algebra")
    try:
        return ext_ctx.qt.sigma_dual.space.coords_matrix(
            (a.lmul_vec(mat.col(c)) for c in range(ext_ctx.ext.inner.dim)),
            "stored intertwiner does not give right-linear functionals")
    except AxiomError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    ws = _load(args, validate=False)
    report = Report(args.file, ws.field)
    ok = True

    def run(check_id, fn):
        nonlocal ok
        start = time.perf_counter()
        try:
            fn()
            verdict = "pass"
        except AxiomError as exc:
            verdict = "fail: %s" % exc
            ok = False
        report.add(check_id, verdict,
                   time_ms=(time.perf_counter() - start) * 1000.0)

    for name in sorted(ws.algebras):
        run("algebra %s" % name, ws.algebras[name].validate)
    for name in sorted(ws.modules):
        run("module %s" % name, ws.modules[name].validate)
    for name in sorted(ws.corings):
        run("coring %s" % name, ws.corings[name].validate)
    for name in sorted(ws.comodules):
        run("comodule %s" % name, ws.comodules[name].validate)
    for name in sorted(ws.grouplikes):
        run("grouplike %s" % name, ws.grouplikes[name].validate)
    for name in sorted(ws.extensions):
        run("extension %s" % name, ws.extensions[name].validate)
    sys.stdout.write(report.canonical_body())
    report.print_summary()
    return EXIT_OK if ok else EXIT_MATH


def cmd_morita(args):
    ws = _load(args)
    sigma = _named(ws.comodules, args.sigma, "comodule")
    report = Report("%s --sigma %s" % (args.file, args.sigma), ws.field)
    # context_M validates the context it builds, or raises
    start = time.perf_counter()
    cm = context_M(sigma)
    build_ms = (time.perf_counter() - start) * 1000.0
    ctx = cm.context
    report.add("comodule context corners", "T=%d *C=%d Sigma=%d Q=%d"
               % (ctx.alg1.dim, ctx.alg2.dim, ctx.bim12.dim, ctx.bim21.dim))
    report.add("comodule context axioms", "pass", time_ms=build_ms)
    for k, which in ((1, "first"), (2, "second")):
        surjective, witnesses = ctx.connecting(k)
        report.add("%s connecting map surjective" % which, "yes" if surjective else "no",
                   witnesses=_fmt_witness_pairs(ws.field, witnesses))
    timed(report, "strictness", lambda: "strict" if ctx.strict else "not strict")
    cn = ModuleContext(cm)
    nctx = cn.context
    report.add("module context corners", "End=%d *C=%d Sigma=%d Hom=%d"
               % (nctx.alg1.dim, nctx.alg2.dim, nctx.bim12.dim, nctx.bim21.dim))
    timed(report, "context morphism",
          lambda: morphism_M_to_N(cm, cn)["verdict"])
    if args.extension:
        ext = _named(ws.extensions, args.extension, "extension")
        purity_check(ext, _sample_comodules(ws, sigma, args.samples))
        report.add("purity certificate", ext.purity_certificate,
                   details=ext.purity_detail)
        ec = ExtContext(ext, cm)
        ectx = ec.context
        report.add("extension context corners", "V=%d U=%d P=%d Qt=%d"
                   % (ectx.alg1.dim, ectx.alg2.dim, ectx.bim12.dim, ectx.bim21.dim))
        for k, which in ((1, "first"), (2, "second")):
            report.add("extension %s connecting map surjective" % which,
                       "yes" if ectx.connecting(k)[0] else "no")
        timed(report, "extension strictness",
              lambda: "strict" if ectx.strict else "not strict")
        if ext.outer.dim == 1 and ext.outer.base.dim == 1:
            timed(report, "trivial outer coring collapse",
                  lambda: "coincides" if remark_k_coincidence(ec)["coincides"]
                  else "fail: differs")
    sys.stdout.write(report.canonical_body())
    report.print_summary()
    return EXIT_MATH if report.failed() else EXIT_OK


def cmd_extension(args):
    ws = _load(args)
    ext = _named(ws.extensions, args.extension, "extension")
    report = Report("%s --extension %s" % (args.file, args.extension), ws.field)
    timed(report, "extension axioms", lambda: ext.validate() and "pass")
    comods = []
    for name in sorted(ws.comodules):
        com = ws.comodules[name]
        if com.coring is ext.inner:
            comods.append((name, com))
    for name in args.samples:
        com = _named(ws.comodules, name, "comodule")
        if (name, com) not in comods:
            comods.append((name, com))
    cert = purity_check(ext, [c for _, c in comods])
    report.add("purity certificate", cert, details=ext.purity_detail,
               grade="certified" if cert == "pure-by-split" else "on-samples")
    if cert in ("pure", "pure-by-split"):
        induced = []
        for name, com in comods:
            dcom = induced_D_coaction(ext, com)
            induced.append((name, com, dcom))
            report.add("induced outer coaction on %s" % name, "coassociative")
        pairs = [(m, n, dm, dn) for (_, m, dm) in induced for (_, n, dn) in induced]
        timed(report, "inner colinear maps stay outer colinear",
              lambda: check_colinear_maps_remain_colinear(ext, pairs) and "pass")
    if ext.split_map is not None or ext.outer.base.dim == 1:
        conv, _ = convolution_algebra(ext.outer, ext.inner.base,
                                      eta=ext.split_map)
        report.add("convolution algebra dimension", str(conv.dim))
    else:
        report.add("convolution algebra dimension",
                   "skipped (no unit map for the outer base)")
    sys.stdout.write(report.canonical_body())
    report.print_summary()
    return EXIT_MATH if report.failed() else EXIT_OK


def _build_ext_ctx(ws, args):
    """(sigma, ext, ec, j, jtilde): the extension context, which keeps the
    comodule context it is built from, and the section and intertwiner
    named by --j and --jtilde, or None.  The names are looked up before any
    context is built, and --jtilde needs --j."""
    sigma = _named(ws.comodules, args.sigma, "comodule")
    ext = _named(ws.extensions, args.extension, "extension")
    if args.jtilde and not args.j:
        raise UsageError("--jtilde needs --j")
    j = _named(ws.maps, args.j, "map") if args.j else None
    jt_map = _named(ws.maps, args.jtilde, "map") if args.jtilde else None
    purity_check(ext, _sample_comodules(ws, sigma, args.samples))
    if ext.purity_certificate == "not-pure":
        raise UsageError("extension %s is not pure; the context is undefined"
                         % args.extension)
    ec = ExtContext(ext, context_M(sigma))
    jt = _jtilde_from_map(ec, jt_map) if jt_map is not None else None
    return sigma, ext, ec, j, jt


def cmd_cleft(args):
    ws = _load(args)
    sigma, ext, ec, j, jt = _build_ext_ctx(ws, args)
    report = Report("%s --sigma %s --extension %s"
                    % (args.file, args.sigma, args.extension), ws.field)
    # timed here rather than through timed(), which would turn an
    # AxiomError into a fail verdict instead of exit 1; the four lines share
    # one run, which grades the section once
    start = time.perf_counter()
    cor = verify_cor_jJ(ec, j=j, jtilde=jt)
    cor_ms = (time.perf_counter() - start) * 1000.0
    grade = cor["cleft_grade"]
    report.add("invertibility grade", grade,
               grade="exact" if grade != "unresolved" else "inconclusive",
               time_ms=cor_ms)
    report.add("Galois verdict", cor["galois"],
               grade="certified" if cor["galois"].startswith("certified")
               else "on-samples", time_ms=cor_ms)
    report.add("normal basis", cor["normal_basis"], time_ms=cor_ms)
    report.add("invertibility criterion agreement",
               "agree" if cor["decided"] else "undecided",
               grade="exact" if cor["decided"] else "inconclusive", time_ms=cor_ms)
    # the section read as algebra-valued, when the comodule is the base algebra
    if j is not None and ext.outer.base.dim == 1 and sigma.dim == sigma.coring.base.dim:
        start = time.perf_counter()
        inv = convolution_inverse(ext.outer, ext.inner.base, j)
        report.add("convolution inverse of the section",
                   "exists" if inv is not None else "none",
                   time_ms=(time.perf_counter() - start) * 1000.0)
    sys.stdout.write(report.canonical_body())
    report.print_summary()
    return EXIT_MATH if report.failed() else EXIT_OK


def cmd_galois(args):
    ws = _load(args)
    sigma = _named(ws.comodules, args.sigma, "comodule")
    report = Report("%s --sigma %s" % (args.file, args.sigma), ws.field)
    extra = [_named(ws.comodules, name, "comodule").carrier for name in args.samples]
    start = time.perf_counter()
    gal = galois_check(sigma, samples=default_sample_modules(sigma) + extra)
    report.add("Galois verdict", gal["verdict"], grade=gal["grade"],
               time_ms=(time.perf_counter() - start) * 1000.0)
    can_a = gal["can_A"]
    report.add("canonical map at the base", "bijective" if can_a.bijective
               else "not bijective",
               details="%dx%d, rank %d" % (can_a.matrix.rows, can_a.matrix.cols,
                                           rank(can_a.matrix)))
    sys.stdout.write(report.canonical_body())
    report.print_summary()
    return EXIT_MATH if report.failed() else EXIT_OK


SUITES = ("all", "weak", "strong", "surjectivity", "jJ", "diamond")


def cmd_theorems(args):
    ws = _load(args)
    sigma, ext, ec, j, jt = _build_ext_ctx(ws, args)
    report = Report("%s --sigma %s --extension %s --suite %s"
                    % (args.file, args.sigma, args.extension, args.suite),
                    ws.field)
    samples_c = _sample_comodules(ws, sigma, args.samples)

    def fmt_na(result):
        if not result.get("applicable", True):
            return ("not applicable: %s" % result.get("reason"), None)
        verdict = result.get("verdict", "pass" if result.get("passed") else "fail")
        detail = {k: v for k, v in result.items()
                  if k in ("samples", "unit_samples", "counit_samples", "s", "z",
                           "galois", "part1", "part2", "cleft_grade",
                           "normal_basis", "triangle_surjective", "sigma_fgp",
                           "triangle1_surjective", "coring_fgp", "unit_path",
                           "strict", "equivalence")}
        return (verdict, _jsonable(detail))

    if args.suite in ("all", "weak"):
        timed(report, "weak structure criterion",
              lambda: fmt_na(verify_weak_structure(ec, samples_c)),
              grade="on-samples")
    if args.suite in ("all", "strong"):
        timed(report, "strong structure criterion",
              lambda: fmt_na(verify_strong_structure(ec, samples_c)),
              grade="on-samples")
    if args.suite in ("all", "surjectivity"):
        timed(report, "surjectivity criterion",
              lambda: fmt_na(verify_surjectivity_thm(ec)))
    if args.suite in ("all", "jJ"):
        timed(report, "invertibility criterion",
              lambda: fmt_na(verify_cor_jJ(ec, j=j, jtilde=jt)))
    if args.suite in ("all", "diamond"):
        timed(report, "second map transfer criterion",
              lambda: fmt_na(verify_diamond_to_triangle(ec)))
    if args.suite == "all":
        timed(report, "projectivity corollary",
              lambda: fmt_na(verify_fgp_corollary(ec)))
        wits = ec.first_witnesses
        if wits is not None:
            timed(report, "unit decomposition identities",
                  lambda: check_jids(ec, wits, samples_c) and "pass")
            timed(report, "generator property",
                  lambda: fmt_na(check_generator_property(ec)))
            timed(report, "equivariant projectivity",
                  lambda: fmt_na(check_equivariant_projectivity(ec)))
        else:
            report.add("unit decomposition identities",
                       "not applicable: first connecting map not surjective")
        timed(report, "adjunction unit bijectivity",
              lambda: fmt_na(tensor_fullyfaithful_check(ec.cm)),
              grade="on-samples")
        timed(report, "dual bases from witnesses",
              lambda: str(check_dual_basis_from_witnesses(ec.cm) or
                          "not applicable"))
        timed(report, "strictness three-way agreement",
              lambda: fmt_na(verify_strictness_three_way(ec.cm, samples_c)),
              grade="on-samples")
        if ext.outer.dim == 1 and ext.outer.base.dim == 1:
            timed(report, "trivial outer coring collapse",
                  lambda: "coincides" if remark_k_coincidence(ec)["coincides"]
                  else "fail: differs")
    sys.stdout.write(report.canonical_body())
    report.print_summary()
    return EXIT_MATH if report.failed() else EXIT_OK


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def cmd_zoo(args):
    if args.action == "list":
        for name in sorted(FIXTURES):
            sys.stdout.write(name + "\n")
        return EXIT_OK
    if args.action == "emit":
        if not args.name:
            raise UsageError("zoo emit needs a fixture name")
        ws = build_fixture(args.name)
        sys.stdout.write(ws.canonical_text())
        return EXIT_OK
    raise UsageError("zoo action must be list or emit")


def cmd_fmt(args):
    ws = _load(args, validate=False)
    sys.stdout.write(ws.canonical_text())
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built on the first call and reused by every
    later ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="coringlab",
        description="exact verification workbench for corings, comodules and "
                    "their Morita theory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="workspace file")
        p.add_argument("--reduce", metavar="P", default=None,
                       help="reduce a rational file modulo the prime P")

    p = sub.add_parser("validate", help="run every structural validator")
    add_common(p)
    p.add_argument("--samples", type=lambda s: s.split(",") if s else [],
                   default=[], help="accepted for uniformity; unused here")

    p = sub.add_parser("morita", help="contexts attached to a comodule")
    add_common(p)
    p.add_argument("--sigma", required=True)
    p.add_argument("--extension", default=None)
    p.add_argument("--samples", type=lambda s: s.split(",") if s else [],
                   default=[])

    p = sub.add_parser("extension", help="extension axioms, purity, induced "
                                         "coactions")
    add_common(p)
    p.add_argument("--extension", required=True)
    p.add_argument("--samples", type=lambda s: s.split(",") if s else [],
                   default=[])

    p = sub.add_parser("cleft", help="invertibility grade and its criterion")
    add_common(p)
    p.add_argument("--sigma", required=True)
    p.add_argument("--extension", required=True)
    p.add_argument("--j", default=None)
    p.add_argument("--jtilde", default=None)
    p.add_argument("--samples", type=lambda s: s.split(",") if s else [],
                   default=[])

    p = sub.add_parser("galois", help="Galois certification")
    add_common(p)
    p.add_argument("--sigma", required=True)
    p.add_argument("--samples", type=lambda s: s.split(",") if s else [],
                   default=[])

    p = sub.add_parser("theorems", help="structure-theorem verifier suite")
    add_common(p)
    p.add_argument("--sigma", required=True)
    p.add_argument("--extension", required=True)
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--j", default=None)
    p.add_argument("--jtilde", default=None)
    p.add_argument("--samples", type=lambda s: s.split(",") if s else [],
                   default=[])

    p = sub.add_parser("zoo", help="bundled fixtures")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?", default=None)

    p = sub.add_parser("fmt", help="canonical formatter")
    add_common(p)
    p.add_argument("--samples", type=lambda s: s.split(",") if s else [],
                   default=[], help="accepted for uniformity; unused here")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # looked up at call time, so a rebound cmd_* function is the one run
        return globals()["cmd_" + args.command](args)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_USAGE
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except AxiomError as exc:
        sys.stderr.write("axiom failure: %s\n" % exc)
        return EXIT_MATH


if __name__ == "__main__":
    raise SystemExit(main())
