"""Checks of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import coringlab.cli  # noqa: E402,F401
import coringlab.zoo  # noqa: E402,F401
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer, stale_bindings  # noqa: E402

# Operations shorter than this (untraced, rescaled as the benchmark does) are
# dominated by cli.main's fixed cost: it builds its argument parser on every
# call (1.5-3.5 ms), so the lower layers cannot hold 90 % of their time
# whatever the tracer does.
BELOW_SHARE_MIN_OP_S = 0.05


def setup_module():
    os.chdir(wl.ROOT)


def attempt(op):
    try:
        return op.thunk()
    except Exception:  # the L1 operations raise at the recorded commit
        return None


def test_every_binding_is_rebound_and_restored():
    tracer = Tracer()
    tracer.install()
    try:
        assert stale_bindings(tracer) == []
    finally:
        tracer.uninstall()
    for span, owner, attr, raw in tracer.targets:
        held = vars(owner)[attr]
        assert held is raw, span


def test_named_entry_points_are_spans():
    spans = {t[0] for t in Tracer().targets}
    missing = [s for s in run.ENTRY_POINTS.values() if s not in spans]
    missing += ["cli.cmd_" + c for c in run.COMMANDS if "cli.cmd_" + c not in spans]
    assert missing == []


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_reject_inputs_follow_the_seed():
    golden = wl.load_golden()
    first = [op.key for op in wl.build("reject", 5, golden)]
    assert first == [op.key for op in wl.build("reject", 5, golden)]
    assert first != [op.key for op in wl.build("reject", 6, golden)]
    assert len(first) == len(wl.FIXTURES) * wl.REJECT_PER_FIXTURE + 5
    for seed in (5, 6):
        ops = wl.build("reject", seed, golden)
        assert sum(op.repeat for op in ops) == 207
        assert sum(op.repeat for op in ops if op.expect_exit) == 17


def test_lower_layers_hold_the_traced_time():
    """Spans cover each operation; below cli and zoo they hold >= 90 % of
    every operation long enough to measure it."""
    golden = wl.load_golden()
    ops = wl.build("cli-f7", 0, golden) + wl.build("tensor-f7", 0, golden)[:1]
    tracer = Tracer()
    short = []
    with wl.silenced_stderr():
        for op in ops:
            untraced_s = run.timed(lambda: attempt(op))[2]
            before = {k: v[1] for k, v in tracer.layer_stats.items()}
            tracer.install()
            start = time.perf_counter()
            outcome = attempt(op)
            elapsed = time.perf_counter() - start
            tracer.uninstall()
            assert wl.check(op, golden, outcome) != "wrong", op.key
            spent = {k: v[1] - before[k] for k, v in tracer.layer_stats.items()}
            assert sum(spent.values()) >= 0.9 * elapsed, op.key
            below = sum(v for k, v in spent.items() if k not in ("cli", "zoo"))
            if untraced_s >= BELOW_SHARE_MIN_OP_S:
                assert below >= 0.9 * elapsed, (op.key, below / elapsed)
            else:
                short.append(op.key)
    assert len(short) < len(ops)
    assert set(LAYERS) == set(tracer.layer_stats)


def test_runs_make_whole_passes_only():
    """Every run fails the same share of its operations, however many
    passes fit in its time."""
    ops = [wl.Op(str(i), None, repeat=1 + (i == 0)) for i in range(7)]
    loop = run.Loop(ops, {}, 3, 0.1)
    seen = []

    def step(op):
        time.sleep(0.002)
        seen.append(op.key)

    loop.run(step)
    assert len(seen) % 8 == 0
    assert len(seen) >= 16
    assert seen.count("0") == 2 * seen.count("1")
