"""Command-line front end: validation, Morita/extension reports, cleftness
and the theorem suite, plus the bundled example files.

Reports are emitted as canonical JSON on stdout (sorted keys, no timing
data), so identical inputs produce byte-identical output; per-check timings
go to stderr.  Each line prints the algmod.Verdict record of the check that
ran, verdict, grade and details as the library decided them.  Exit codes:
0 success, 1 mathematical failure or disagreement, 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .algmod import Verdict
from .exactla import AxiomError, FieldFp, UsageError
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

    def add(self, check_id, record, witnesses=None, time_ms=None):
        """One line: the check id and a Verdict record, with the witnesses
        the line lists, if any."""
        entry = {"check_id": check_id, "verdict": record.verdict, "grade": record.grade}
        if witnesses is not None:
            entry["witnesses"] = witnesses
        if record.details is not None:
            entry["details"] = record.details
        entry["time_ms"] = time_ms
        self.checks.append(entry)

    def failed(self):
        return [c for c in self.checks if c["verdict"].startswith("fail")]

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

    def finish(self):
        """Write the canonical body to stdout and the timed summary to
        stderr; the exit code, EXIT_MATH when a check failed."""
        sys.stdout.write(self.canonical_body())
        self.print_summary()
        return EXIT_MATH if self.failed() else EXIT_OK


def _columns():
    try:
        return max(40, int(os.environ.get("COLUMNS", "100")))
    except ValueError:
        return 100


def timed(report, check_id, check, *args):
    """Run check(*args), which returns a Verdict, and add its line; an axiom
    failure becomes a fail line, not a crash, graded as the check grades
    every line (its grade attribute), else with the record's default."""
    start = time.perf_counter()
    try:
        record = check(*args)
    except AxiomError as exc:
        record = Verdict("fail: %s" % exc,
                         getattr(check, "grade", Verdict._field_defaults["grade"]))
    report.add(check_id, record, time_ms=(time.perf_counter() - start) * 1000.0)


def _trivial_outer_collapse(report, ec):
    """Over the trivial outer coring (k over k) the extension context
    coincides with the comodule context: check it, timed."""
    outer = ec.ext.outer
    if outer.dim == 1 and outer.base.dim == 1:
        timed(report, "trivial outer coring collapse", remark_k_coincidence, ec)


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
    for kind, table in (("algebra", ws.algebras), ("module", ws.modules),
                        ("coring", ws.corings), ("comodule", ws.comodules),
                        ("grouplike", ws.grouplikes), ("extension", ws.extensions)):
        for name in sorted(table):
            timed(report, "%s %s" % (kind, name), _passes, table[name].validate)
    return report.finish()


def _passes(check, *args):
    """Verdict("pass") once check(*args) returns; it raises otherwise."""
    check(*args)
    return Verdict("pass")


def cmd_morita(args):
    ws = _load(args)
    sigma = _named(ws.comodules, args.sigma, "comodule")
    report = Report("%s --sigma %s" % (args.file, args.sigma), ws.field)
    # context_M validates the context it builds, or raises
    start = time.perf_counter()
    cm = context_M(sigma)
    build_ms = (time.perf_counter() - start) * 1000.0
    ctx = cm.context
    report.add("comodule context corners", Verdict("T=%d *C=%d Sigma=%d Q=%d" % (
        ctx.alg1.dim, ctx.alg2.dim, ctx.bim12.dim, ctx.bim21.dim)))
    report.add("comodule context axioms", Verdict("pass"), time_ms=build_ms)
    for k, which in ((1, "first"), (2, "second")):
        surjective, witnesses = ctx.connecting(k)
        report.add("%s connecting map surjective" % which,
                   Verdict("yes" if surjective else "no"),
                   witnesses=_fmt_witness_pairs(ws.field, witnesses))
    timed(report, "strictness", _strictness, ctx)
    cn = ModuleContext(cm)
    nctx = cn.context
    report.add("module context corners", Verdict("End=%d *C=%d Sigma=%d Hom=%d" % (
        nctx.alg1.dim, nctx.alg2.dim, nctx.bim12.dim, nctx.bim21.dim)))
    timed(report, "context morphism", morphism_M_to_N, cm, cn)
    if args.extension:
        ext = _named(ws.extensions, args.extension, "extension")
        purity = purity_check(ext, _sample_comodules(ws, sigma, args.samples))
        # printed with the record's default grade, as this report always has;
        # the extension command prints the library's grade (ROADMAP item 12)
        report.add("purity certificate", Verdict(purity.verdict, details=purity.details))
        ec = ExtContext(ext, cm)
        ectx = ec.context
        report.add("extension context corners", Verdict("V=%d U=%d P=%d Qt=%d" % (
            ectx.alg1.dim, ectx.alg2.dim, ectx.bim12.dim, ectx.bim21.dim)))
        for k, which in ((1, "first"), (2, "second")):
            report.add("extension %s connecting map surjective" % which,
                       Verdict("yes" if ectx.connecting(k)[0] else "no"))
        timed(report, "extension strictness", _strictness, ectx)
        _trivial_outer_collapse(report, ec)
    return report.finish()


def _strictness(ctx):
    """The context's strictness, decided on first use."""
    return Verdict("strict" if ctx.strict else "not strict")


def cmd_extension(args):
    ws = _load(args)
    ext = _named(ws.extensions, args.extension, "extension")
    report = Report("%s --extension %s" % (args.file, args.extension), ws.field)
    timed(report, "extension axioms", _passes, ext.validate)
    comods = []
    for name in sorted(ws.comodules):
        com = ws.comodules[name]
        if com.coring is ext.inner:
            comods.append((name, com))
    for name in args.samples:
        com = _named(ws.comodules, name, "comodule")
        if (name, com) not in comods:
            comods.append((name, com))
    report.add("purity certificate", purity_check(ext, [c for _, c in comods]))
    if ext.is_pure:
        induced = []
        for name, com in comods:
            dcom = induced_D_coaction(ext, com)
            induced.append((name, com, dcom))
            report.add("induced outer coaction on %s" % name, Verdict("coassociative"))
        pairs = [(m, n, dm, dn) for (_, m, dm) in induced for (_, n, dn) in induced]
        timed(report, "inner colinear maps stay outer colinear", _passes,
              check_colinear_maps_remain_colinear, ext, pairs)
    if ext.split_map is not None or ext.outer.base.dim == 1:
        conv, _ = convolution_algebra(ext.outer, ext.inner.base,
                                      eta=ext.split_map)
        report.add("convolution algebra dimension", Verdict(str(conv.dim)))
    else:
        report.add("convolution algebra dimension",
                   Verdict("skipped (no unit map for the outer base)"))
    return report.finish()


def _shaped_map(ws, name, flag, shape, rows, cols):
    """The stored map named by a flag, which must be rows x cols."""
    mat = _named(ws.maps, name, "map")
    if (mat.rows, mat.cols) != (rows, cols):
        raise UsageError("%s %s is a %dx%d map; it must have shape %s = %dx%d"
                         % (flag, name, mat.rows, mat.cols, shape, rows, cols))
    return mat


def _build_ext_ctx(ws, args):
    """(sigma, ext, ec, j, jtilde): the extension context, which keeps the
    comodule context it is built from, and the section and intertwiner
    named by --j and --jtilde, or None.  The names and the shapes of their
    maps are checked before any context is built, and --jtilde needs --j."""
    sigma = _named(ws.comodules, args.sigma, "comodule")
    ext = _named(ws.extensions, args.extension, "extension")
    if args.jtilde and not args.j:
        raise UsageError("--jtilde needs --j")
    c = ext.inner
    j = _shaped_map(ws, args.j, "--j", "Sigma x D", sigma.dim, ext.outer.dim) \
        if args.j else None
    jt_map = _shaped_map(ws, args.jtilde, "--jtilde", "A x C", c.base.dim, c.dim) \
        if args.jtilde else None
    purity_check(ext, _sample_comodules(ws, sigma, args.samples))
    if not ext.is_pure:
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
    for check_id, record in (("invertibility grade", cor.cleft),
                             ("Galois verdict", cor.galois),
                             ("normal basis", cor.normal_basis),
                             ("invertibility criterion agreement", cor.agreement)):
        report.add(check_id, record, time_ms=cor_ms)
    # the section read as algebra-valued, when the comodule is the base algebra
    if j is not None and ext.outer.base.dim == 1 and sigma.dim == sigma.coring.base.dim:
        start = time.perf_counter()
        inv = convolution_inverse(ext.outer, ext.inner.base, j)
        report.add("convolution inverse of the section",
                   Verdict("exists" if inv is not None else "none"),
                   time_ms=(time.perf_counter() - start) * 1000.0)
    return report.finish()


def cmd_galois(args):
    ws = _load(args)
    sigma = _named(ws.comodules, args.sigma, "comodule")
    report = Report("%s --sigma %s" % (args.file, args.sigma), ws.field)
    extra = [_named(ws.comodules, name, "comodule").carrier for name in args.samples]
    start = time.perf_counter()
    gal = galois_check(sigma, samples=default_sample_modules(sigma) + extra)
    report.add("Galois verdict", gal, time_ms=(time.perf_counter() - start) * 1000.0)
    report.add("canonical map at the base", gal.can_a.bijectivity())
    return report.finish()


SUITES = ("all", "weak", "strong", "surjectivity", "jJ", "diamond")


def cmd_theorems(args):
    ws = _load(args)
    sigma, _, ec, j, jt = _build_ext_ctx(ws, args)
    report = Report("%s --sigma %s --extension %s --suite %s"
                    % (args.file, args.sigma, args.extension, args.suite),
                    ws.field)
    samples_c = _sample_comodules(ws, sigma, args.samples)
    if args.suite in ("all", "weak"):
        timed(report, "weak structure criterion", verify_weak_structure, ec, samples_c)
    if args.suite in ("all", "strong"):
        timed(report, "strong structure criterion", verify_strong_structure, ec,
              samples_c)
    if args.suite in ("all", "surjectivity"):
        timed(report, "surjectivity criterion", verify_surjectivity_thm, ec)
    if args.suite in ("all", "jJ"):
        timed(report, "invertibility criterion", verify_cor_jJ, ec, j, jt)
    if args.suite in ("all", "diamond"):
        timed(report, "second map transfer criterion", verify_diamond_to_triangle, ec)
    if args.suite == "all":
        timed(report, "projectivity corollary", verify_fgp_corollary, ec)
        wits = ec.first_witnesses
        timed(report, "unit decomposition identities", check_jids, ec, wits, samples_c)
        if wits is not None:
            timed(report, "generator property", check_generator_property, ec)
            timed(report, "equivariant projectivity", check_equivariant_projectivity, ec)
        timed(report, "adjunction unit bijectivity", tensor_fullyfaithful_check, ec.cm)
        timed(report, "dual bases from witnesses", check_dual_basis_from_witnesses,
              ec.cm)
        timed(report, "strictness three-way agreement", verify_strictness_three_way,
              ec.cm, samples_c)
        _trivial_outer_collapse(report, ec)
    return report.finish()


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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, which main prints
    as one line, instead of printing the usage block and exiting; its
    subparsers are of the same class.  -h prints the help as before."""

    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built on the first call and reused by every
    later ``main`` call in the process."""
    parser = _Parser(
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
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
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
