"""Record the outputs the benchmark checks against, into golden.json.

    python3 perfbench/record.py

Run at the commit whose outputs are the reference.  For every operation of
``cli-q``, ``cli-f7`` and ``tensor-f7`` it stores ``[exit code, sha256 of
stdout]``, or ``null`` when the operation raises.  For ``reject`` it builds a
pool of perturbation sites per fixture: sites spread evenly over the
document whose perturbed file makes ``validate`` exit 1, each with the
seconds one validation took (the cost strata the seeds draw from).
"""

from __future__ import annotations

import json
import os
import sys
import time

import workloads as wl


def outcome(op):
    try:
        code, text = op.thunk()
    except Exception:  # recorded as "raised at the reference commit"
        return None
    return [code, wl.digest(text)]


def pool_for(fixture, ops):
    data = wl.load_fixture(fixture)
    sites = wl.scalar_sites(data)
    stride = max(1, len(sites) // (3 * wl.POOL_PER_FIXTURE))
    order = sorted(range(len(sites)), key=lambda i: (i % stride, i))
    pool = []
    for index in order:
        argv = wl.perturbation_argv(fixture, index, data, sites)
        start = time.perf_counter()
        try:
            code, text = wl.run_cli(argv)
        except Exception:
            continue
        cost = time.perf_counter() - start
        if code != 1:
            continue
        ops["reject %s #%d" % (fixture, index)] = [code, wl.digest(text)]
        pool.append([index, round(cost, 4)])
        if len(pool) == wl.POOL_PER_FIXTURE:
            break
    if len(pool) < wl.REJECT_PER_FIXTURE:
        raise SystemExit("%s: only %d rejecting sites" % (fixture, len(pool)))
    return sorted(pool)


def main():
    os.chdir(wl.ROOT)
    sys.path.insert(0, os.path.join(wl.ROOT, "src"))
    ops = {}
    pools = {}
    with wl.silenced_stderr():
        for op in wl.cli_ops([]) + wl.cli_ops(["--reduce", "7"]) + wl.tensor_ops():
            ops[op.key] = outcome(op)
        for fixture in wl.FIXTURES:
            pools[fixture] = pool_for(fixture, ops)
    with open(wl.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({"ops": ops, "reject_pool": pools}, handle, sort_keys=True,
                  indent=1)
        handle.write("\n")
    raised = sorted(k for k, v in ops.items() if v is None)
    print("recorded %d operations; raised: %s" % (len(ops), ", ".join(raised)))


if __name__ == "__main__":
    main()
