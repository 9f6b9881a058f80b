"""The stdout contract of the 48 benchmark commands, and their verdicts
across primes.

The commands are the six commands on the eight fixtures that
``perfbench/workloads.py`` runs (``cli_argvs``); ``perfbench/golden.json``
holds the exit code and the sha256 of stdout each one gave when it was
recorded, over Q and with ``--reduce 7``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os

import pytest

from coringlab.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.fixture(scope="module")
def outcomes():
    """(exit code, stdout) of each command, run once from the repository
    root, where the recorded fixture paths resolve."""
    seen = {}
    cwd = os.getcwd()

    def run(argv):
        key = " ".join(argv)
        if key not in seen:
            out = io.StringIO()
            os.chdir(ROOT)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(argv))
            finally:
                os.chdir(cwd)
            seen[key] = code, out.getvalue()
        return seen[key]
    return run


def test_stdout_matches_the_recorded_digests(outcomes):
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)["ops"]
    argvs = WORKLOADS.cli_argvs([]) + WORKLOADS.cli_argvs(["--reduce", "7"])
    assert len(argvs) == 96
    for argv in argvs:
        code, out = outcomes(argv)
        want = golden[" ".join(argv)]
        if want is None:
            # recorded when these commands still raised; L1's outer base is
            # not the comodule's left algebra, a usage error
            assert argv[1].endswith("L1.json"), argv
            assert (code, out) == (2, ""), argv
        else:
            assert [code, hashlib.sha256(out.encode("utf-8")).hexdigest()] == want, argv


def _verdicts(outcome):
    code, out = outcome
    checks = json.loads(out)["checks"] if out else []
    return code, [(c["check_id"], c["grade"], c["verdict"]) for c in checks]


@pytest.mark.parametrize("prime", ["3", "5", "11"])
def test_verdicts_agree_with_a_good_reduction(outcomes, prime):
    """Reduction modulo a prime that divides no denominator and no group
    order of the fixtures keeps every exit code, check, grade and verdict.
    (p = 2 is such a divisor: E3 has the scalar 1/2, E4 and D1 the group
    order 2.)"""
    for argv in WORKLOADS.cli_argvs([]):
        assert _verdicts(outcomes(argv + ["--reduce", prime])) == \
            _verdicts(outcomes(argv)), argv
