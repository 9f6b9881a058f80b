"""The benchmark's four workloads: their operations, inputs and output checks.

An operation is one ``coringlab.cli.main([...])`` call, or for ``tensor-f7``
one zoo construction chain.  Running it gives ``(exit_code, stdout_text)``
or raises; ``check`` compares that with the outputs recorded in
``golden.json`` (see ``record.py``).

Paths handed to the program are relative to the checkout root, which is the
working directory of every run, because reports echo them on stdout.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
FIXTURE_DIR = "src/coringlab/fixtures/v1"
WORK_DIR = ".bench_build/perfbench"
FIXTURES = ("E1", "E2", "E3", "E4", "E5", "G1", "D1", "L1")
C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

# Perturbations of one fixture are drawn one per cost stratum, each from the
# two sites of its stratum whose recorded validation costs are closest, so
# that every seed asks the validators for the same amount of work in the same
# cost profile (otherwise the seed alone moves op_p90_ms by about 9 %).
REJECT_PER_FIXTURE = 10
POOL_PER_FIXTURE = 40

# A reject pass runs its cheap operations several times, so that its median
# operation (about 10 ms, as short as the speed reference in run.py) has as
# many samples in a run as the shared host's noise needs: a site runs
# int(REPEAT_S / c) times, at least once and at most REPEAT_MAX times, where
# c is the larger recorded validation time of the two sites its seed chose
# between.  So the counts do not depend on the seed, and every pass attempts
# and fails the same number of operations.
REPEAT_S = 0.06
REPEAT_MAX = 4

# Not among the probes: {"field": {"kind": "Fp", "p": 10**30 + 57}} keeps
# the trial-division primality test busy for minutes, which would stall
# every run.


class Op:
    """One operation: a key naming it in golden.json, a thunk running it,
    and how many times a pass runs it."""

    __slots__ = ("key", "thunk", "expect_exit", "repeat")

    def __init__(self, key, thunk, expect_exit=None, repeat=1):
        self.key = key
        self.thunk = thunk
        self.expect_exit = expect_exit
        self.repeat = repeat


def fixture_path(name):
    return "%s/%s.json" % (FIXTURE_DIR, name)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv):
    """Call the command in-process; stdout is captured, stderr is left to
    the caller (see ``silenced_stderr``)."""
    from coringlab.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@contextlib.contextmanager
def silenced_stderr():
    """Point file descriptor 2 at the null device.

    ``Report.print_summary`` binds ``sys.stderr`` as a default argument when
    ``coringlab.cli`` is imported, so ``contextlib.redirect_stderr`` cannot
    reach the summary lines; only the descriptor itself can.
    """
    import sys
    sys.stderr.flush()
    saved = os.dup(2)
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, 2)
        yield
    finally:
        sys.stderr.flush()
        os.dup2(saved, 2)
        os.close(saved)
        os.close(null)


# ---------------------------------------------------------------------------
# cli-q and cli-f7


def cli_argvs(field_args):
    """The 48 commands: six commands on each of the eight fixtures."""
    out = []
    for name in FIXTURES:
        path = fixture_path(name)
        sigma = "Creg" if name == "L1" else "Sigma"
        cleft = ["cleft", path, "--sigma", sigma, "--extension", "ext"]
        if name == "E2":
            cleft += ["--j", "lambda_id", "--jtilde", "jtilde"]
        if name == "E5":
            cleft += ["--j", "lambda", "--jtilde", "jtilde"]
        for argv in (["validate", path],
                     ["morita", path, "--sigma", sigma, "--extension", "ext"],
                     ["extension", path, "--extension", "ext"],
                     ["galois", path, "--sigma", sigma],
                     cleft,
                     ["theorems", path, "--sigma", sigma, "--extension", "ext",
                      "--suite", "all"]):
            out.append(argv + list(field_args))
    return out


def cli_ops(field_args):
    return [Op(" ".join(argv), lambda argv=argv: run_cli(argv))
            for argv in cli_argvs(field_args)]


# ---------------------------------------------------------------------------
# tensor-f7


def tensor_chain(table):
    """group_hopf_algebra -> hopf_entwining -> entwining_coring ->
    Grouplike.validate over F7; the text describes the coring built."""
    from coringlab.coring import Grouplike
    from coringlab.exactla import FieldFp
    from coringlab.zoo import entwining_coring, group_hopf_algebra, hopf_entwining
    f7 = FieldFp(7)
    bial = group_hopf_algebra(f7, table, name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    c, ext = entwining_coring(ent)
    unit = list(bial.algebra.unit)
    g = Grouplike(c, ent.ad.pure_tensor([unit, unit]))
    body = {"dim": c.dim, "cc_dim": c.cc.dim,
            "cc_ambient": c.cc.ambient_dim,
            "coproduct": [[f7.fmt(v) for v in row] for row in c.coproduct.data],
            "counit": [[f7.fmt(v) for v in row] for row in c.counit.data],
            "purity": ext.purity_certificate,
            "grouplike": g.validate()}
    return 0, json.dumps(body, sort_keys=True) + "\n"


def tensor_ops():
    return [Op("tensor C%d F7" % len(t), lambda t=t: tensor_chain(t))
            for t in (C2, C3)]


# ---------------------------------------------------------------------------
# reject


def scalar_sites(data):
    """Paths of every scalar-valued list entry in a workspace document, in a
    fixed walk order."""
    out = []

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], path + (key,))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                if isinstance(item, str):
                    try:
                        Fraction(item)
                    except ValueError:
                        continue
                    out.append(path + (i,))
                else:
                    walk(item, path + (i,))
    walk(data, ())
    return out


def bump(data, path):
    """A copy of the document with the scalar at ``path`` raised by one."""
    doc = copy.deepcopy(data)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = str(Fraction(node[path[-1]]) + 1)
    return doc


def load_fixture(name):
    with open(fixture_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def write_input(name, doc):
    os.makedirs(WORK_DIR, exist_ok=True)
    path = "%s/%s.json" % (WORK_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1)
    return path


def perturbation_argv(fixture, site_index, data, sites):
    path = write_input("%s-%04d" % (fixture, site_index),
                       bump(data, sites[site_index]))
    return ["validate", path]


def probe_docs():
    """Malformed variants of E2 that a loader with schema checks rejects
    with exit 2, the command line that feeds each to the program, and its
    repeat count: the four broken documents fail while loading (2-11 ms),
    the unknown --j only after the contexts are built (about 200 ms)."""
    base = load_fixture("E2")
    missing_counit = copy.deepcopy(base)
    del missing_counit["corings"]["C"]["counit"]
    empty_left = copy.deepcopy(base)
    empty_left["modules"]["Sigma_carrier"]["left_act"] = []
    int_scalar = copy.deepcopy(base)
    int_scalar["algebras"]["A"]["unit"][0] = 1
    dim_bumped = copy.deepcopy(base)
    dim_bumped["modules"]["Sigma_carrier"]["dim"] += 1
    probes = []
    for tag, doc in (("missing-counit", missing_counit),
                     ("empty-left-act", empty_left),
                     ("int-scalar", int_scalar),
                     ("dim-bumped", dim_bumped)):
        probes.append(("probe %s" % tag,
                       ["validate", write_input("probe-" + tag, doc)], REPEAT_MAX))
    probes.append(("probe cleft-unknown-j",
                   ["cleft", fixture_path("E2"), "--sigma", "Sigma",
                    "--extension", "ext", "--j", "nope"], 1))
    return probes


def twins(stratum):
    """The two adjacent entries of a cost-sorted stratum closest in cost."""
    if len(stratum) < 2:
        return stratum
    i = min(range(len(stratum) - 1),
            key=lambda i: stratum[i + 1][1] - stratum[i][1])
    return stratum[i:i + 2]


def reject_ops(seed, golden):
    """Ten perturbations per fixture, one from each cost stratum of its
    recorded pool, then the malformed probes."""
    rng = random.Random(seed)
    ops = []
    for fixture in FIXTURES:
        data = load_fixture(fixture)
        sites = scalar_sites(data)
        pool = sorted(golden["reject_pool"][fixture], key=lambda e: (e[1], e[0]))
        for k in range(REJECT_PER_FIXTURE):
            stratum = pool[k * len(pool) // REJECT_PER_FIXTURE:
                           (k + 1) * len(pool) // REJECT_PER_FIXTURE]
            pair = twins(stratum)
            site_index = rng.choice(pair)[0]
            argv = perturbation_argv(fixture, site_index, data, sites)
            cost = max(entry[1] for entry in pair)
            repeat = max(1, min(REPEAT_MAX, int(REPEAT_S / cost)))
            ops.append(Op("reject %s #%d" % (fixture, site_index),
                          lambda argv=argv: run_cli(argv), repeat=repeat))
    for key, argv, repeat in probe_docs():
        ops.append(Op(key, lambda argv=argv: run_cli(argv), expect_exit=2,
                      repeat=repeat))
    return ops


# ---------------------------------------------------------------------------


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def build(workload, seed, golden):
    """The operations of one pass; the caller orders each pass."""
    if workload == "cli-q":
        return cli_ops([])
    if workload == "cli-f7":
        return cli_ops(["--reduce", "7"])
    if workload == "tensor-f7":
        return tensor_ops()
    if workload == "reject":
        return reject_ops(seed, golden)
    raise ValueError("unknown workload %r" % workload)


def check(op, golden, outcome):
    """'ok', 'failed' (raised, or a probe missed its exit code) or 'wrong'
    (returned, but not what was recorded)."""
    if outcome is None:
        return "failed"
    code, text = outcome
    if op.expect_exit is not None:
        return "ok" if code == op.expect_exit else "failed"
    want = golden["ops"][op.key]
    if want is None:
        # The operation raised when the outputs were recorded; any orderly
        # exit is an improvement.
        return "ok" if code in (0, 1, 2) else "wrong"
    return "ok" if [code, digest(text)] == want else "wrong"
