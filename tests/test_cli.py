"""Command-line behavior: round trips, exit codes, determinism."""

import contextlib
import io
import json
import os

import pytest

from coringlab.cli import main
from conftest import fixture_path
from perturb import apply_perturbation, perturbation_sites


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zoo_list(capsys):
    code, out, _ = run_cli(capsys, "zoo", "list")
    assert code == 0
    assert out.split() == ["D1", "E1", "E2", "E3", "E4", "E5", "G1", "L1"]


def test_zoo_emit_roundtrip_validates(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "zoo", "emit", "E3")
    assert code == 0
    path = tmp_path / "e3.json"
    path.write_text(out)
    code, body, err = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert '"verdict": "pass"' in body


def test_zoo_emit_matches_frozen_files(capsys):
    for name in ("D1", "E1", "E2", "E3", "E4", "E5", "G1", "L1"):
        code, out, _ = run_cli(capsys, "zoo", "emit", name)
        assert code == 0
        with open(fixture_path(name)) as handle:
            assert out == handle.read()


def test_validate_all_fixtures(capsys):
    for name in ("D1", "E1", "E2", "E3", "E4", "E5", "G1", "L1"):
        code, out, _ = run_cli(capsys, "validate", fixture_path(name))
        assert code == 0, name


def test_validate_exit1_names_axiom(capsys, tmp_path):
    with open(fixture_path("E2")) as handle:
        data = json.load(handle)
    # perturb one structure constant of the algebra
    site = ("algebras", "A", "mul", 0, 1, 1)
    bad = apply_perturbation(data, site)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "fail" in out
    report = json.loads(out)
    failing = [c for c in report["checks"] if c["verdict"].startswith("fail")]
    assert failing
    assert any("unital" in c["verdict"] or "associat" in c["verdict"]
               for c in failing)


def test_validate_exit2_on_garbage(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{ not json")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    path2 = tmp_path / "empty.json"
    path2.write_text("")
    code, _, _ = run_cli(capsys, "validate", str(path2))
    assert code == 2


def test_unknown_name_exit2(capsys):
    code, _, err = run_cli(capsys, "morita", fixture_path("E2"),
                           "--sigma", "NoSuch")
    assert code == 2
    assert "unknown comodule" in err


def test_mismatched_left_algebra_exit2(capsys):
    # L1's Creg is a left A-comodule, but ext's outer base L differs from A
    code, out, err = run_cli(capsys, "morita", fixture_path("L1"),
                             "--sigma", "Creg", "--extension", "ext")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cleft_unknown_j_exit2(capsys):
    code, _, err = run_cli(capsys, "cleft", fixture_path("E2"), "--sigma", "Sigma",
                           "--extension", "ext", "--j", "nope")
    assert code == 2
    assert "unknown map 'nope'" in err


def test_summary_follows_redirected_stderr():
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf), contextlib.redirect_stdout(io.StringIO()):
        code = main(["validate", fixture_path("E1")])
    assert code == 0
    lines = buf.getvalue().splitlines()
    assert lines and all(line.startswith("[") and "ms] " in line for line in lines)


def test_morita_report_shape(capsys):
    code, out, _ = run_cli(capsys, "morita", fixture_path("E3"),
                           "--sigma", "Sigma", "--extension", "ext")
    assert code == 0
    report = json.loads(out)
    ids = [c["check_id"] for c in report["checks"]]
    assert "strictness" in ids
    assert "trivial outer coring collapse" in ids
    assert all("time_ms" not in c for c in report["checks"])


def test_cleft_command_e2(capsys):
    code, out, _ = run_cli(capsys, "cleft", fixture_path("E2"),
                           "--sigma", "Sigma", "--extension", "ext",
                           "--j", "lambda_id", "--jtilde", "jtilde")
    assert code == 0
    report = json.loads(out)
    got = {c["check_id"]: c["verdict"] for c in report["checks"]}
    assert got["invertibility grade"] == "cleft"
    assert got["Galois verdict"] == "certified-Galois"
    assert got["normal basis"] == "full"


def test_cleft_command_e5_weak(capsys):
    code, out, _ = run_cli(capsys, "cleft", fixture_path("E5"),
                           "--sigma", "Sigma", "--extension", "ext",
                           "--j", "lambda", "--jtilde", "jtilde")
    assert code == 0
    got = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert got["invertibility grade"] == "weak-cleft"


def test_galois_command(capsys):
    code, out, _ = run_cli(capsys, "galois", fixture_path("E3"),
                           "--sigma", "Sigma")
    assert code == 0
    got = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert got["Galois verdict"] == "certified-Galois"
    assert got["canonical map at the base"] == "bijective"


def test_extension_command_purity_paths(capsys):
    code, out, _ = run_cli(capsys, "extension", fixture_path("E2"),
                           "--extension", "ext")
    assert code == 0
    got = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert got["purity certificate"] == "pure-by-split"
    code, out, _ = run_cli(capsys, "extension", fixture_path("L1"),
                           "--extension", "ext")
    assert code == 0
    got = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert got["purity certificate"] == "pure"


def test_theorems_suites(capsys):
    for suite in ("weak", "strong", "surjectivity", "jJ", "diamond"):
        code, out, _ = run_cli(capsys, "theorems", fixture_path("E2"),
                               "--sigma", "Sigma", "--extension", "ext",
                               "--suite", suite,
                               "--j", "lambda_id", "--jtilde", "jtilde")
        assert code == 0, suite


def test_theorems_zero_comodule_consistent(capsys):
    code, out, _ = run_cli(capsys, "theorems", fixture_path("E2"),
                           "--sigma", "Sigma0", "--extension", "ext",
                           "--suite", "surjectivity")
    assert code == 0
    report = json.loads(out)
    detail = report["checks"][0]["details"]
    assert detail["part1"] is False and detail["part2"] is False


def test_fmt_idempotent(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "fmt", fixture_path("E4"))
    assert code == 0
    path = tmp_path / "e4.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "fmt", str(path))
    assert out2 == out


def test_report_determinism_bytes(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "morita", fixture_path("E2"),
                               "--sigma", "Sigma", "--extension", "ext")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_reduce_flag(capsys):
    code, out, _ = run_cli(capsys, "validate", fixture_path("E3"),
                           "--reduce", "7")
    assert code == 0
    assert '"field": "F7"' in out


def test_columns_respected(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "50")
    code, out, err = run_cli(capsys, "validate", fixture_path("E1"))
    assert code == 0
    assert all(len(line) <= 50 for line in err.splitlines())
