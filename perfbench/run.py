"""coringlab benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload cli-q --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; it works from the checkout root and
imports ``coringlab`` from ``src/``.  Workloads (see ``workloads.py``):

    cli-q      the six commands on the eight fixtures over Q (48 ops)
    cli-f7     the same 48 commands with --reduce 7
    tensor-f7  the C2 and C3 Hopf entwining corings over F7, built in-library
    reject     80 seeded single-entry perturbations through validate, plus
               5 malformed inputs that should exit 2

The seed orders the operations of every pass and, for ``reject``, draws the
perturbation sites.  A run makes one whole pass, then more whole passes
while at least half of the next one is expected to fit in ``--seconds``.
Every output is checked against ``golden.json``.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` is the sum over the
pass's operations of each one's median latency, ``op_p50_ms``/``op_p90_ms``
are percentiles of those medians, ``setup_s`` is the median time of fresh
processes that import coringlab and build the inputs, ``peak_rss_mb`` is
this process's peak resident set.  Latencies and set-up times are wall times
rescaled by a reference measured around each of them (see ``REFERENCE_S``);
the unscaled pass time is printed as ``wall_pass_s``.  ``--trace 1`` runs
every operation untraced and then traced (``tracer.py``), and reports the
per-layer metrics (unscaled span times) of the first traced pass plus the
tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
An operation that raises, or a malformed input that does not exit 2, counts
as failed; one that returns other outputs than recorded makes ``correct``
false.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-q", "cli-f7", "tensor-f7", "reject")
SETUP_PROBES = 9

# The shared host runs this machine's cores at anywhere from about half to
# full speed, changing within seconds and holding a pace for minutes, so a
# raw wall time says more about the neighbours than about coringlab.  Every
# timed operation and set-up is bracketed by a fixed pure-Python reference
# (run every REFERENCE_EVERY_S inside long operations, too) and rescaled to
# the speed at which the reference takes REFERENCE_S: the reference's time at
# full speed (about 10 ms) on the 2-vCPU machine of the recorded numbers.
REFERENCE_S = 0.01
REFERENCE_EVERY_S = 1.0

END_TO_END = (("pass_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# metric prefix -> span name in tracer.py
ENTRY_POINTS = {
    "exactla.rref": "exactla.rref",
    "exactla.solve_linear": "exactla.solve_linear",
    "exactla.kernel": "exactla.kernel",
    "exactla.quotient": "exactla.quotient",
    "exactla.Matrix.mul": "exactla.Matrix.mul",
    "exactla.Matrix.mul_vec": "exactla.Matrix.mul_vec",
    "exactla.Matrix.kron": "exactla.Matrix.kron",
    "algmod.BalancedTensor": "algmod.BalancedTensor",
    "algmod.BalancedTensor.induced": "algmod.BalancedTensor.induced",
    "algmod.hom_space": "algmod.hom_space",
    "algmod.solve_map_space": "algmod.solve_map_space",
    "coring.Coring.validate": "coring.Coring.validate",
    "coring.Comodule.validate": "coring.Comodule.validate",
    "coring.colinear_homs": "coring.colinear_homs",
    "morita.context_M": "morita.context_M",
    "morita.strictness": "morita.strictness",
    "morita.morphism_M_to_N": "morita.morphism_M_to_N",
    "extension.ExtContext": "extension.ExtContext",
    "extension.purity_check": "extension.purity_check",
    "extension.CoringExtension.validate": "extension.CoringExtension.validate",
    "galois.cleft_check": "galois.cleft_check",
    "galois.verify_cor_jJ": "galois.verify_cor_jJ",
    "galois.tensor_fullyfaithful_check": "galois.tensor_fullyfaithful_check",
    "galois.verify_strictness_three_way": "galois.verify_strictness_three_way",
    "galois.galois_check": "galois.galois_check",
    "workspace.load_workspace_file": "workspace.load_workspace_file",
    "workspace.Workspace.validate_all": "workspace.Workspace.validate_all",
    "zoo.entwining_coring": "zoo.entwining_coring",
    "zoo.hopf_entwining": "zoo.hopf_entwining",
}
COMMANDS = ("validate", "morita", "extension", "galois", "cleft", "theorems")
COUNTERS = (("exactla.rref.cells", "cells"), ("exactla.mul_vec.cells", "cells"),
            ("algmod.BalancedTensor.ambient", "dims"),
            ("algmod.BalancedTensor.quotient_dim", "dims"),
            ("workspace.bytes_in", "bytes"))


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports."""
    out = []
    for layer in LAYERS:
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s")]
    for prefix in ENTRY_POINTS:
        out += [(prefix + ".calls", "count"), (prefix + ".total_s", "s"),
                (prefix + ".self_s", "s")]
    out += list(COUNTERS)
    out.append(("galois.cleft_check.decided_ratio", "ratio"))
    out += [("cli.%s.total_s" % c, "s") for c in COMMANDS]
    out += [("trace.overhead", "ratio"), ("trace.below_share_min", "ratio")]
    return out


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def reference_work():
    """Fixed interpreter work in the style of exactla over Q and over F7."""
    row = list(range(1, 97))
    for _ in range(16):
        q = Fraction(0)
        for i in range(1, 200):
            q += Fraction(1, i)
        p = 0
        for _ in range(40):
            p = (p + sum(a * b for a, b in zip(row, row))) % 7
    return q, p


def reference_time():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def timed(fn, before=None):
    """Run ``fn``; return its result, its wall time, that time rescaled to
    the machine speed at which ``reference_work`` takes ``REFERENCE_S``, and
    the reference time measured just after (which can stand as ``before``
    for the next call; otherwise the reference runs just before, too).

    While ``fn`` runs, a timer signal runs the reference every
    ``REFERENCE_EVERY_S`` seconds, so that a long operation is rescaled by
    the speed during it; those reference runs are not counted as its time.
    """
    if before is None:
        before = reference_time()
    refs = [before]
    inside = [0.0]

    def tick(signum, frame):
        start = time.perf_counter()
        refs.append(reference_time())
        inside[0] += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed -= inside[0]
    after = reference_time()
    refs.append(after)
    return result, elapsed, elapsed * REFERENCE_S * len(refs) / sum(refs), after


def measure_setup(workload, seed):
    """Median time of fresh processes that import coringlab and build the
    workload's inputs, then exit."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        times.append(timed(lambda: subprocess.run(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, check=True))[2])
    return statistics.median(times)


def prepare(workload, seed):
    """Import the program and build one pass of operations."""
    import coringlab.cli  # noqa: F401  (the import is part of set-up)
    import coringlab.zoo  # noqa: F401
    golden = workloads.load_golden()
    return golden, workloads.build(workload, seed, golden)


class Loop:
    """Closed loop over the passes of one run; keeps per-op latencies."""

    def __init__(self, ops, golden, seed, seconds):
        self.ops = ops
        self.golden = golden
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.raised = {}
        self.reference_s = None

    def execute(self, op):
        """Run one operation; return its wall and rescaled seconds."""
        def call():
            try:
                return op.thunk()
            except Exception as exc:  # the program must not raise; count it
                self.raised[op.key] = type(exc).__name__
                return None

        gc.collect()  # each operation starts from a clean heap, as in a fresh process
        outcome, elapsed, scaled, self.reference_s = timed(call, self.reference_s)
        verdict = workloads.check(op, self.golden, outcome)
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
        if verdict == "wrong":
            self.wrong.append(op.key)
        return elapsed, scaled

    def run(self, step, on_pass_end=None):
        """Call ``step(op)`` over seeded passes, each running every operation
        ``op.repeat`` times in a row: one whole pass, then another
        while at least half of it is expected to fit in the time left, so a
        run takes about ``seconds`` on average.  Only whole passes run, so
        every run fails the same share of its operations."""
        deadline = time.perf_counter() + self.seconds
        passes = 0
        while True:
            order = list(self.ops)
            self.rng.shuffle(order)
            start = time.perf_counter()
            for op in order:
                for _ in range(op.repeat):
                    step(op)
            passes += 1
            if on_pass_end is not None:
                on_pass_end(passes)
            now = time.perf_counter()
            if now + (now - start) / 2 > deadline:
                return


def end_to_end(loop, setup_s):
    samples = {op.key: [] for op in loop.ops}
    wall = {op.key: [] for op in loop.ops}

    def step(op):
        elapsed, scaled = loop.execute(op)
        samples[op.key].append(scaled)
        wall[op.key].append(elapsed)

    loop.run(step)
    medians = [statistics.median(v) for v in samples.values()]
    return {"pass_s": sum(medians),
            "op_p50_ms": percentile(medians, 50) * 1000.0,
            "op_p90_ms": percentile(medians, 90) * 1000.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wall_pass_s": sum(statistics.median(v) for v in wall.values())}


def traced(loop):
    """Each operation untraced, then traced; layer numbers come from the
    first traced pass, overhead from all pairs."""
    tracer = Tracer()
    plain = {op.key: [] for op in loop.ops}
    spanned = {op.key: [] for op in loop.ops}
    below = {}
    first = {}

    def step(op):
        _, plain_scaled = loop.execute(op)
        plain[op.key].append(plain_scaled)
        before = {k: v[1] for k, v in tracer.layer_stats.items()}
        tracer.install()
        try:
            elapsed, scaled = loop.execute(op)
        finally:
            tracer.uninstall()
        spanned[op.key].append(scaled)
        if op.key not in below:
            below_s = sum(v[1] - before[k] for k, v in tracer.layer_stats.items()
                          if k not in ("cli", "zoo"))
            below[op.key] = below_s / elapsed

    def on_pass_end(passes):
        if passes == 1:
            first["snap"] = tracer.snapshot()

    loop.run(step, on_pass_end)
    stats, layers, counters = first["snap"]
    out = {}
    for layer, (calls, self_s) in layers.items():
        out[layer + ".calls"] = calls
        out[layer + ".self_s"] = self_s
    for prefix, span in ENTRY_POINTS.items():
        calls, total, self_s = stats.get(span, (0, 0.0, 0.0))
        out[prefix + ".calls"] = calls
        out[prefix + ".total_s"] = total
        out[prefix + ".self_s"] = self_s
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    cleft_calls = stats.get("galois.cleft_check", (0,))[0]
    out["galois.cleft_check.decided_ratio"] = (
        counters.get("galois.cleft_check.decided", 0) / cleft_calls
        if cleft_calls else 0.0)
    for command in COMMANDS:
        out["cli.%s.total_s" % command] = stats.get("cli.cmd_" + command, (0, 0.0))[1]
    plain_s = sum(statistics.median(v) for v in plain.values())
    spanned_s = sum(statistics.median(v) for v in spanned.values())
    out["trace.overhead"] = spanned_s / plain_s
    out["trace.below_share_min"] = min(below.values())
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit "
                             "(how setup_s is measured)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "coringlab", "cli.py")):
        sys.stderr.write("perfbench: no coringlab sources under %s/src\n" % ROOT)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        prepare(args.workload, args.seed)
        return 0
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    golden, ops = prepare(args.workload, args.seed)
    loop = Loop(ops, golden, args.seed, args.seconds)
    with workloads.silenced_stderr():
        if args.trace:
            values = traced(loop)
            units = dict(per_layer_metrics())
        else:
            values = end_to_end(loop, setup_s)
            units = dict(END_TO_END)
    for key in sorted(loop.raised):
        sys.stderr.write("perfbench: %s raised %s\n" % (key, loop.raised[key]))
    for key in sorted(set(loop.wrong)):
        sys.stderr.write("perfbench: %s gave other outputs than recorded\n" % key)
    print("fail_ratio %.4f (%d of %d operations)"
          % (loop.failed / loop.attempted, loop.failed, loop.attempted))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print("%s %s %s" % (name, m["value"], m["unit"]))
    if "wall_pass_s" in values:
        print("wall_pass_s %s s (not rescaled)" % values["wall_pass_s"])
    print(json.dumps({"correct": not loop.wrong, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
