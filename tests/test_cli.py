"""Command-line behavior: round trips, exit codes, determinism."""

import contextlib
import copy
import io
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from coringlab import algmod, cli, extension, galois, morita
from coringlab.cli import main
from coringlab.exactla import AxiomError, QQ
from coringlab.workspace import load_workspace
from conftest import fixture_path
from perturb import apply_perturbation
from test_contract import ROOT, WORKLOADS


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


def test_galois_and_cleft_print_the_same_galois_verdict_and_grade(capsys):
    # the zero comodule is f.g. projective, so "not-Galois" is certified;
    # cleft prints the library's grade rather than deriving one
    for name in ("E2", "E3", "E4", "E5", "G1"):
        seen = []
        for argv in (("galois", fixture_path(name), "--sigma", "Sigma0"),
                     ("cleft", fixture_path(name), "--sigma", "Sigma0", "--extension",
                      "ext")):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            seen += [(c["verdict"], c["grade"]) for c in json.loads(out)["checks"]
                     if c["check_id"] == "Galois verdict"]
        assert seen == [("not-Galois", "certified")] * 2, name


def test_galois_summary_times_the_verdict(capsys):
    # galois_check is the command's whole cost, so its line carries the time;
    # the canonical report leaves time_ms out
    code, out, err = run_cli(capsys, "galois", fixture_path("E3"), "--sigma", "Sigma")
    assert code == 0
    assert re.search(r"^\[ *\d+\.\dms\] Galois verdict: ", err, re.M)
    assert "time_ms" not in out


def test_cleft_summary_times_the_galois_and_normal_basis_lines(capsys):
    # both lines come from verify_cor_jJ and carry its time; the canonical
    # report leaves time_ms out
    code, out, err = run_cli(capsys, "cleft", fixture_path("E2"), "--sigma", "Sigma",
                             "--extension", "ext", "--j", "lambda_id", "--jtilde", "jtilde")
    assert code == 0
    for check in ("Galois verdict", "normal basis"):
        assert re.search(r"^\[ *\d+\.\dms\] %s: " % check, err, re.M), check
    assert "time_ms" not in out


def test_cleft_summary_times_the_convolution_inverse(capsys):
    code, out, err = run_cli(capsys, "cleft", fixture_path("E2"), "--sigma", "Sigma",
                             "--extension", "ext", "--j", "lambda_id", "--jtilde", "jtilde")
    assert code == 0
    assert re.search(r"^\[ *\d+\.\dms\] convolution inverse of the section: exists$",
                     err, re.M)
    assert "time_ms" not in out


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


SUITE_CHECKS = {"weak": "weak structure criterion", "strong": "strong structure criterion",
                "surjectivity": "surjectivity criterion", "jJ": "invertibility criterion",
                "diamond": "second map transfer criterion"}


def test_theorems_suites(capsys):
    for suite in SUITE_CHECKS:
        code, out, _ = run_cli(capsys, "theorems", fixture_path("E2"),
                               "--sigma", "Sigma", "--extension", "ext",
                               "--suite", suite,
                               "--j", "lambda_id", "--jtilde", "jtilde")
        assert code == 0, suite
    # each suite prints exactly its own lines of the whole suite
    for name in ("E2", "E4"):
        argv = ("theorems", fixture_path(name), "--sigma", "Sigma", "--extension", "ext",
                "--suite")
        code, out, _ = run_cli(capsys, *argv, "all")
        assert code == 0
        every = json.loads(out)["checks"]
        for suite, check_id in SUITE_CHECKS.items():
            code, out, _ = run_cli(capsys, *argv, suite)
            assert code == 0, (name, suite)
            assert json.loads(out)["checks"] == \
                [c for c in every if c["check_id"] == check_id], (name, suite)


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


def _e2_doc():
    with open(fixture_path("E2")) as handle:
        return json.load(handle)


def _drop_counit(doc):
    del doc["corings"]["C"]["counit"]


def _empty_left_act(doc):
    doc["modules"]["Sigma_carrier"]["left_act"] = []


def _int_scalar(doc):
    doc["algebras"]["A"]["unit"][0] = 1


def _bump_dim(doc):
    doc["modules"]["Sigma_carrier"]["dim"] += 1


@pytest.mark.parametrize("mutate", [_drop_counit, _empty_left_act, _int_scalar,
                                    _bump_dim],
                         ids=["missing-counit", "empty-left-act", "int-scalar",
                              "dim-bumped"])
def test_malformed_input_exit2(capsys, tmp_path, mutate):
    doc = _e2_doc()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1


def _scalar_strings(obj, scalar=False):
    """The scalar strings of a workspace document, in no particular order."""
    if isinstance(obj, str) and scalar:
        yield obj
    elif isinstance(obj, list):
        for item in obj:
            yield from _scalar_strings(item, scalar)
    elif isinstance(obj, dict):
        for key, item in obj.items():
            yield from _scalar_strings(item, scalar or key in ("entries", "mul", "unit",
                                                                "vector"))


def test_each_scalar_string_is_parsed_once_per_load(monkeypatch):
    parse = type(QQ).parse
    parsed = []
    monkeypatch.setattr(type(QQ), "parse", lambda field, s: parsed.append(s) or parse(field, s))
    with open(fixture_path("E2")) as handle:
        text = handle.read()
    strings = list(_scalar_strings(json.loads(text)))
    first = load_workspace(text)
    assert sorted(parsed) == sorted(set(strings)) and len(parsed) < len(strings) // 10
    parsed.clear()
    second = load_workspace(text)
    assert sorted(parsed) == sorted(set(strings))
    assert first.canonical_text() == second.canonical_text()


@pytest.mark.parametrize("first, then", [("1/0", "x"), ("x", "x"), ("x", 1)],
                         ids=["two-bad", "repeated-bad", "bad-then-int"])
def test_bad_scalar_is_reported_at_its_first_entry(capsys, tmp_path, first, then):
    doc = _e2_doc()
    unit = doc["algebras"]["A"]["unit"]
    unit[0], unit[1] = first, then
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and repr(first) in err


def test_oversized_modulus_exit2_quickly(capsys, tmp_path):
    p = 10 ** 30 + 57
    doc = _e2_doc()
    doc["field"] = {"kind": "Fp", "p": p}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "too large" in err
    code, out, err = run_cli(capsys, "validate", fixture_path("E2"), "--reduce", str(p))
    assert code == 2 and "too large" in err
    assert time.perf_counter() - start < 1.0
    code, _, err = run_cli(capsys, "validate", fixture_path("E2"), "--reduce", "seven")
    assert code == 2 and err.startswith("usage error:")


def test_cleft_summary_times_grade_and_agreement():
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["cleft", fixture_path("E2"), "--sigma", "Sigma",
                     "--extension", "ext", "--j", "lambda_id", "--jtilde", "jtilde"])
    assert code == 0
    timed = set()
    for line in err.getvalue().splitlines():
        match = re.match(r"\[ *\d+\.\dms\] ([^:]+):", line)
        if match:
            timed.add(match.group(1))
    assert {"invertibility grade", "invertibility criterion agreement"} <= timed


def test_cleft_sweeps_once_by_contraction(capsys, monkeypatch):
    events = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(extension.ExtContext, "diamond_black",
                        counted("black", extension.ExtContext.diamond_black))
    monkeypatch.setattr(extension.ExtContext, "diamond_white",
                        counted("white", extension.ExtContext.diamond_white))
    monkeypatch.setattr(galois, "_grade_coords",
                        counted("grade", galois._grade_coords))
    returned = []
    sweep = galois._cleft_without_data
    monkeypatch.setattr(galois, "_cleft_without_data",
                        lambda ec: returned.append((ec, sweep(ec))) or returned[-1][1])
    code, out, _ = run_cli(capsys, "cleft", fixture_path("E4"), "--sigma", "Sigma",
                           "--extension", "ext")
    assert code == 0
    grades = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert grades["invertibility grade"] == "weak-cleft"
    # on E4 dim Sigma < dim T (x)_L D refutes 'cleft', so the sweep stops at
    # its first weak hit, sweep index 3 of the 90 candidates over three
    # colinear basis maps
    assert events.count("grade") == 4
    [(ec, found)] = returned
    target = galois._cleft_targets(ec)
    for coeffs in galois._candidate_vectors(len(ec.p_basis), QQ):
        got = galois._grade_coords(ec, coeffs, target)
        if got is not None:
            break
    assert got[0] == found.grade == "weak-cleft"
    assert found.j == ec.p_space.element(coeffs)
    assert found.jtilde == ec.qt.space.element(got[1])
    first = events.index("grade")
    assert "black" not in events[first:] and "white" not in events[first:]
    # the context evaluates both maps once per basis pair (3 x 3)
    assert events.count("black") == events.count("white") == 9


def test_no_sweep_grades_a_candidate_the_dimensions_have_decided(monkeypatch):
    """Over the 48 benchmark commands with --reduce 7: when dim Sigma and
    dim T (x)_L D differ, the cleft sweep solves no joint system and the
    normal-basis sweep inverts no candidate, each stops at its first weak
    hit, and with dim Sigma the larger neither grades a candidate at all."""
    sweeps, open_sweeps = [], []

    def sweep(kind, fn):
        def wrapper(ec, *args, **kwargs):
            open_sweeps.append((kind, ec, []))
            try:
                return fn(ec, *args, **kwargs)
            finally:
                sweeps.append(open_sweeps.pop())
        return wrapper

    def graded(kind, fn, event):
        def wrapper(*args, **kwargs):
            got = fn(*args, **kwargs)
            if open_sweeps and open_sweeps[-1][0] == kind:
                open_sweeps[-1][2].append(event(args, got))
            return got
        return wrapper

    for name in ("_cleft_without_data", "_cleft_for_j"):
        monkeypatch.setattr(galois, name, sweep("cleft", getattr(galois, name)))
    monkeypatch.setattr(galois, "normal_basis_check",
                        sweep("nb", galois.normal_basis_check))
    monkeypatch.setattr(galois, "_grade_coords", graded(
        "cleft", galois._grade_coords, lambda args, got: ("hit", got is not None)))
    monkeypatch.setattr(galois, "solve_linear", graded(
        "cleft", galois.solve_linear, lambda args, got: ("solve", len(args[1]))))
    monkeypatch.setattr(galois, "span_witness", graded(
        "nb", galois.span_witness, lambda args, got: ("hit", got is not None)))
    monkeypatch.setattr(galois, "inverse", graded(
        "nb", galois.inverse, lambda args, got: ("invert", got is not None)))
    monkeypatch.chdir(ROOT)
    argvs = WORKLOADS.cli_argvs(["--reduce", "7"])
    assert len(argvs) == 48
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(list(argv))
    decided = {"cleft": 0, "nb": 0}
    for kind, ec, events in sweeps:
        if not events or ec.sigma.dim == ec.td[0].dim:
            continue
        decided[kind] += 1
        assert ec.sigma.dim < ec.td[0].dim, (kind, events)
        joint = len(galois._cleft_targets(ec))
        assert ("solve", joint) not in events and \
            not any(e[0] == "invert" for e in events), (kind, events)
        hits = [e[1] for e in events if e[0] == "hit"]
        assert not any(hits[:-1]), (kind, hits)
    # E4, E5 and D1 sweep below the dimension of T (x)_L D; E5's cleft
    # command grades a supplied pair, so it sweeps only in theorems
    assert decided == {"cleft": 5, "nb": 6}


THEOREMS_E2 = ("theorems", fixture_path("E2"), "--sigma", "Sigma", "--extension", "ext")
ADJUNCTION_LINES = ("strong structure criterion", "adjunction unit bijectivity",
                    "strictness three-way agreement")


def test_theorems_shares_one_adjunction_unit_check(capsys, monkeypatch):
    events = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            events.append((name, args[-1]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(galois, "_tensor_fullyfaithful",
                        counted("fullyfaithful", galois._tensor_fullyfaithful))
    monkeypatch.setattr(extension, "induced_D_coaction",
                        counted("outer", extension.induced_D_coaction))
    code, out, _ = run_cli(capsys, *THEOREMS_E2)
    assert code == 0
    verdicts = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert not any(verdicts[line].startswith("fail") for line in ADJUNCTION_LINES)
    # three checks need the adjunction unit on the same samples: one run
    assert sum(e[0] == "fullyfaithful" for e in events) == 1
    # Sigma's outer comodule is built once, with the extension context, and
    # so is each other sample's, however many checks need it
    outer = [e[1].name for e in events if e[0] == "outer"]
    assert "Sigma" in outer and len(outer) == len(set(outer)) > 1


@pytest.mark.parametrize("argv, message", [
    (("bogus",), "argument command: invalid choice: 'bogus'"),
    (THEOREMS_E2 + ("--suite", "bogus"), "argument --suite: invalid choice: 'bogus'"),
    (("galois", fixture_path("E2")), "the following arguments are required: --sigma"),
    (("validate", fixture_path("E2"), "--bogus"), "unrecognized arguments: --bogus"),
    ((), "the following arguments are required: command")],
    ids=["subcommand", "suite", "sigma", "flag", "nothing"])
def test_argument_errors_are_one_usage_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: " + message) and err.count("\n") == 1


def test_help_is_printed_as_before(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["theorems", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: coringlab theorems [-h]")
    code, out, err = run_cli(capsys, "-h")
    assert (code, err) == (0, "") and out.startswith("usage: coringlab [-h]")


def test_theorems_unknown_j_exit2(capsys):
    code, out, err = run_cli(capsys, *THEOREMS_E2, "--j", "nope")
    assert code == 2 and out == ""
    assert err.startswith("usage error: unknown map 'nope'") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["cleft", "theorems"])
def test_jtilde_without_j_exit2(capsys, command):
    code, out, err = run_cli(capsys, command, *THEOREMS_E2[1:], "--jtilde", "jtilde")
    assert code == 2 and out == ""
    assert err == "usage error: --jtilde needs --j\n"


@pytest.mark.parametrize("command", ["cleft", "theorems"])
@pytest.mark.parametrize("flags, message", [
    (("--j", "lambda_id", "--jtilde", "lambda_id"),
     "usage error: --jtilde lambda_id is a 2x2 map; it must have shape A x C = 2x4\n"),
    (("--j", "jtilde"),
     "usage error: --j jtilde is a 2x4 map; it must have shape Sigma x D = 2x2\n")],
    ids=["jtilde", "j"])
def test_mistyped_section_maps_exit2_before_the_contexts(capsys, monkeypatch, command,
                                                         flags, message):
    built = []
    monkeypatch.setattr(cli, "context_M", built.append)
    code, out, err = run_cli(capsys, command, *THEOREMS_E2[1:], *flags)
    assert (code, out, err) == (2, "", message)
    assert built == []


def test_map_names_are_resolved_before_the_contexts(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "context_M", built.append)
    for argv in (("cleft",) + THEOREMS_E2[1:] + ("--j", "nope"),
                 THEOREMS_E2 + ("--j", "nope"),
                 THEOREMS_E2 + ("--j", "lambda_id", "--jtilde", "nope"),
                 ("cleft",) + THEOREMS_E2[1:] + ("--jtilde", "jtilde")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("usage error:"), argv
    assert built == []


def test_theorems_decides_each_connecting_map_once(capsys, monkeypatch):
    solved = []

    def counted(a, b, solve=morita.solve_linear):
        solved.append(id(a))
        return solve(a, b)

    monkeypatch.setattr(morita, "solve_linear", counted)
    code, _, _ = run_cli(capsys, *THEOREMS_E2, "--suite", "all")
    assert code == 0
    # two contexts, the comodule one and the extension one, two sides each
    assert len(solved) == len(set(solved)) == 4


def test_theorems_decides_each_fact_once(capsys, monkeypatch):
    calls = []

    def counted(name, module, attr, key=lambda *args: None):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append((name, key(*args)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counted("galois", galois, "galois_check")
    counted("fgp", algmod, "_dual_basis", key=lambda m, side, alg: (m.name, side))
    counted("counit", galois, "evaluation_counit", key=lambda sigma, end, m: m.name)
    counted("rank", morita, "rank")
    counted("split", galois, "witness_splitting", key=lambda ec, m, *rest: m.name)
    counted("summand", galois, "summand_witnesses")
    counted("summand", extension, "summand_witnesses")
    code, _, _ = run_cli(capsys, *THEOREMS_E2, "--suite", "all")
    assert code == 0

    def made(name):
        return [key for what, key in calls if what == name]
    # the Galois verdict is kept on the comodule context, projectivity on
    # each module, and the counit of each of the three sample comodules
    assert len(made("galois")) == 1
    assert sorted(made("fgp")) == [("C_carrier", "left"), ("Sigma_carrier", "right")]
    assert sorted(made("counit")) == ["Creg", "Sigma", "SigmaPlus"]
    # each of the two strict contexts decides its strictness once: two ranks
    assert len(made("rank")) == 4
    # one counit inverse per sample, kept for the strong structure check,
    # plus the normal-basis candidate and the coretraction, both on Sigma
    assert sorted(made("split")) == ["Creg", "Sigma", "Sigma", "Sigma", "SigmaPlus"]
    # Sigma | (T (x)_L D)^n is solved once for the normal basis and the
    # surjectivity criterion; T (x)_L D | Sigma^n and T | Sigma^n once each
    assert len(made("summand")) == 3


def test_cleft_grades_a_supplied_section_once(capsys, monkeypatch):
    graded = []
    grade = galois._cleft_for_j

    def counted(*args):
        graded.append(args[1])
        return grade(*args)

    monkeypatch.setattr(galois, "_cleft_for_j", counted)
    code, out, _ = run_cli(capsys, "cleft", *THEOREMS_E2[1:], "--j", "lambda_id",
                           "--jtilde", "jtilde")
    assert code == 0
    grades = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert grades["invertibility grade"] == "cleft"
    assert len(graded) == 1


def test_morita_validates_each_context_once(capsys, monkeypatch):
    validated = []
    validate = morita.MoritaContext.validate

    def counted(self):
        validated.append(self.name)
        return validate(self)

    monkeypatch.setattr(morita.MoritaContext, "validate", counted)
    code, out, _ = run_cli(capsys, "morita", *THEOREMS_E2[1:])
    assert code == 0
    # the comodule, module and extension contexts, each when it is built
    assert sorted(validated) == ["comodule context(Sigma)", "extension context(Sigma)",
                                 "module context(Sigma)"]
    verdicts = {c["check_id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert verdicts["comodule context axioms"] == "pass"


@pytest.mark.parametrize("argv", [THEOREMS_E2, ("cleft",) + THEOREMS_E2[1:]],
                         ids=["theorems", "cleft"])
def test_one_t_tensor_d_per_command(capsys, monkeypatch, argv):
    built = []
    init = algmod.BalancedTensor.__init__

    def counted(self, factors, algebras, name=None, prefix=None):
        built.append(name)
        init(self, factors, algebras, name=name, prefix=prefix)

    monkeypatch.setattr(algmod.BalancedTensor, "__init__", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    # the cleft search, the normal basis check and the surjectivity
    # criterion share the context's T (x)_L D
    assert built.count("T(x)D") == 1


@pytest.mark.parametrize("argv", [("morita",) + THEOREMS_E2[1:], THEOREMS_E2],
                         ids=["morita", "theorems"])
def test_no_tensor_is_built_twice_over_the_same_factors(capsys, monkeypatch, argv):
    built = []  # (factors, algebras) of each tensor, kept alive so ids stay apart
    init = algmod.BalancedTensor.__init__

    def counted(self, factors, algebras, name=None, prefix=None):
        built.append((list(factors), list(algebras)))
        init(self, factors, algebras, name=name, prefix=prefix)

    monkeypatch.setattr(algmod.BalancedTensor, "__init__", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    names = ["(x)".join(m.name for m in factors) for factors, _ in built]
    keys = [tuple(map(id, factors + algebras)) for factors, algebras in built]
    repeated = sorted({names[i] for i, key in enumerate(keys) if key in keys[:i]})
    # Sigma's outer comodule keeps the Sigma (x)_L D its coaction was built in
    assert repeated == [] and "Sigma(x)D_carrier" in names


@pytest.mark.parametrize("argv", [("morita",) + THEOREMS_E2[1:],
                                  ("cleft",) + THEOREMS_E2[1:], THEOREMS_E2],
                         ids=["morita", "cleft", "theorems"])
def test_one_sigma_dual_and_dual_action_per_command(capsys, monkeypatch, argv):
    built = []
    init = morita.SigmaDual.__init__

    def counted_init(self, sigma):
        built.append("SigmaDual")
        init(self, sigma)

    def counted_action(comodule, dual=None, action=morita.dual_action):
        built.append("dual_action %s" % comodule.name)
        return action(comodule, dual)

    monkeypatch.setattr(morita.SigmaDual, "__init__", counted_init)
    monkeypatch.setattr(morita, "dual_action", counted_action)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    # the extension context reads Sigma* off the comodule context, and the
    # module context reuses the comodule context's dual action
    assert built.count("SigmaDual") == 1
    assert built.count("dual_action Sigma") == 1


def test_cleft_search_that_finds_nothing_is_graded_inconclusive(capsys, monkeypatch):
    monkeypatch.setattr(galois, "_candidate_vectors", lambda *args, **kwargs: iter(()))
    for name in ("E2", "E4"):
        code, out, _ = run_cli(capsys, "cleft", fixture_path(name), "--sigma", "Sigma",
                               "--extension", "ext")
        assert code == 0
        checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
        assert (checks["invertibility grade"]["verdict"],
                checks["invertibility grade"]["grade"]) == ("unresolved", "inconclusive")
        assert (checks["normal basis"]["verdict"], checks["normal basis"]["grade"]) == \
            ("inconclusive", "inconclusive")
        assert (checks["invertibility criterion agreement"]["verdict"],
                checks["invertibility criterion agreement"]["grade"]) == \
            ("undecided", "inconclusive")
        # the theorem suite grades the same undecided criterion the same way
        code, out, _ = run_cli(capsys, "theorems", fixture_path(name), "--sigma", "Sigma",
                               "--extension", "ext", "--suite", "jJ")
        assert code == 0
        (check,) = json.loads(out)["checks"]
        assert (check["check_id"], check["verdict"], check["grade"]) == \
            ("invertibility criterion", "undecided (search inconclusive)", "inconclusive")


def test_failing_adjunction_unit_check_fails_every_line(capsys, monkeypatch):
    def failing(cm):
        raise AxiomError("adjunction unit inverse fails on T (left)")

    monkeypatch.setattr(galois, "_tensor_fullyfaithful", failing)
    code, out, _ = run_cli(capsys, *THEOREMS_E2)
    assert code == 1
    verdicts = {c["check_id"]: (c["verdict"], c["grade"]) for c in json.loads(out)["checks"]}
    # each of these checks grades every line on-samples, its fail line too
    for line in ADJUNCTION_LINES:
        assert verdicts[line] == ("fail: adjunction unit inverse fails on T (left)",
                                  "on-samples")


def test_dispatch_looks_up_the_command_at_call_time(capsys, monkeypatch):
    assert run_cli(capsys, "zoo", "list")[0] == 0  # the parser is built and cached
    calls = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: calls.append(args.file) or 0)
    code = run_cli(capsys, "validate", "no-such-file.json")[0]
    assert (code, calls) == (0, ["no-such-file.json"])


# ---------------------------------------------------------------------------
# malformed documents: every one ends in exit 0, 1 or 2


with open(fixture_path("E2"), encoding="utf-8") as _handle:
    E2_DOC = json.load(_handle)


def _paths(node, path=()):
    """Every key and index path of a JSON document, in document order."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


E2_PATHS = [p for p, _ in _paths(E2_DOC)]
E2_LIST_PATHS = [p for p, child in _paths(E2_DOC) if isinstance(child, list)]
SWAPS = (None, 0, 1.5, True, "x", "1", [], {})

MUTATIONS = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(E2_PATHS)),
    st.tuples(st.just("swap"), st.sampled_from(E2_PATHS), st.sampled_from(SWAPS)),
    st.tuples(st.just("truncate"), st.sampled_from(E2_LIST_PATHS), st.integers(0, 3)))


def _mutate(doc, mutation):
    """Apply one mutation in place; a path an earlier mutation removed is
    skipped."""
    kind, path = mutation[0], mutation[1]
    node = doc
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    present = key in node if isinstance(node, dict) else \
        isinstance(node, list) and isinstance(key, int) and key < len(node)
    if not present:
        return
    if kind == "delete":
        del node[key]
    elif kind == "swap":
        node[key] = copy.deepcopy(mutation[2])
    elif isinstance(node[key], list):
        del node[key][mutation[2]:]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_documents_exit_cleanly(tmp_path_factory, mutations):
    doc = copy.deepcopy(E2_DOC)
    for mutation in mutations:
        _mutate(doc, mutation)
    path = tmp_path_factory.mktemp("fuzz") / "e2.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["validate", str(path)])
    assert code in (0, 1, 2)
