"""Acceptance criteria, one test per criterion, with a pass/fail line each.

All criteria are exact (no tolerances exist anywhere); runtime bounds are
asserted where stated.
"""

import hashlib
import json
import time

from conftest import fixture_path
from perturb import run_perturbations, validate_everything

from coringlab.algmod import Verdict
from coringlab.cli import main as cli_main
from coringlab.exactla import QQ, rank
from coringlab.extension import ExtContext, remark_k_coincidence
from coringlab.galois import (CanonicalMap, can_inverse_from_witnesses,
                              check_dual_basis_from_witnesses,
                              check_equivariant_projectivity,
                              check_generator_property, check_jids,
                              cleft_check,
                              regular_right_module, tensor_fullyfaithful_check,
                              verify_cor_jJ, verify_strong_structure,
                              verify_surjectivity_thm, verify_weak_structure)
from coringlab.morita import ModuleContext, context_M, morphism_M_to_N

F = QQ
FIXTURE_NAMES = ("E1", "E2", "E3", "E4", "E5")


def report(criterion, ok, note=""):
    line = "ACCEPTANCE %-52s %s" % (criterion, "PASS" if ok else "FAIL")
    if note:
        line += "  (%s)" % note
    print(line)
    assert ok, criterion


def test_criterion_1_validators_and_perturbations(workspaces):
    for name in FIXTURE_NAMES:
        start = time.perf_counter()
        validate_everything(workspaces[name])
        with open(fixture_path(name)) as handle:
            data = json.load(handle)
        outcomes = run_perturbations(data, workspaces[name], count=20)
        elapsed = time.perf_counter() - start
        assert len(outcomes) == 20
        assert elapsed < 5.0, "%s took %.2fs" % (name, elapsed)
    report("1: validators + 20 perturbations per fixture", True)


def test_criterion_2_trivial_outer_collapse(bundles):
    for name in ("E1", "E3"):
        b = bundles[name]
        assert remark_k_coincidence(b.ec) == Verdict("coincides")
    report("2: trivial-outer context equals comodule context", True)


def test_criterion_3_context_morphism_bijective(bundles):
    for name in ("E2", "E4"):
        b = bundles[name]
        cn = ModuleContext(b.cm)
        assert morphism_M_to_N(b.cm, cn) == Verdict("isomorphism")
        # the two corner inclusions, as morphism_M_to_N builds them
        iota_end = cn.end_space.coords_matrix(b.cm.end.basis_maps, "not *C-linear")
        iota_q = cn.homs.coords_matrix(b.cm.q.basis, "not *C-linear")
        assert iota_end.rows == iota_end.cols
        assert rank(iota_end) == iota_end.rows
        assert rank(iota_q) == iota_q.rows == iota_q.cols
    report("3: comparison morphism bijective in all corners (E2, E4)", True)


def test_criterion_4_sweedler_galois_oracle(bundles):
    start = time.perf_counter()
    b = bundles["E3"]
    can_a = CanonicalMap(b.sigma, regular_right_module(b.sigma.coring.base, 1),
                    end=b.cm.end)
    assert can_a.matrix.rows == can_a.matrix.cols == 4
    assert can_a.bijective
    assert b.cm.end.dim == 1  # the coinvariants are the ground field
    inv = can_inverse_from_witnesses(b.ec, can_a)
    assert inv.rows == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed
    report("4: quadratic-extension canonical map oracle", True,
           "%.0fms" % (elapsed * 1000))


def test_criterion_5_cleft_suite(bundles):
    start = time.perf_counter()
    b = bundles["E2"]
    cd = cleft_check(b.ec, j=b.ws.maps["lambda_id"])
    assert cd is not None and cd.grade == "cleft"
    assert b.ec.context.strict
    samples = [b.ws.comodules["Sigma"], b.ws.comodules["Creg"],
               b.ws.comodules["SigmaPlus"]]
    ws_out = verify_weak_structure(b.ec, samples)
    assert (ws_out.verdict, ws_out.grade) == ("pass", "on-samples")
    ss_out = verify_strong_structure(b.ec, samples)
    assert ss_out.verdict == "equivalence verified on samples"
    assert ss_out.details["unit_path"] == "counit surjective"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "took %.2fs" % elapsed
    report("5: cleft suite on the group-algebra fixture", True,
           "%.1fs" % elapsed)


def test_criterion_6_surjectivity_biconditional(bundles, workspaces):
    st2 = verify_surjectivity_thm(bundles["E2"].ec).details
    assert st2["part1"] is True
    assert st2["part2"] is True  # strict fixture: part 2 agrees as well
    st4 = verify_surjectivity_thm(bundles["E4"].ec).details
    assert st4["part1"] is True and st4["part2"] is False
    st5 = verify_surjectivity_thm(bundles["E5"].ec).details
    assert st5["part1"] is True and st5["part2"] is False
    ws = workspaces["E2"]
    z = ws.comodules["Sigma0"]
    cm0 = context_M(z)
    ec0 = ExtContext(ws.extensions["ext"], cm0)
    st0 = verify_surjectivity_thm(ec0).details
    assert st0["part1"] is False and st0["part2"] is False
    report("6: surjectivity criterion, both sides agree everywhere", True)


def test_criterion_7_invertibility_biconditional(bundles):
    b2 = bundles["E2"]
    out2 = verify_cor_jJ(b2.ec, j=b2.ws.maps["lambda_id"])
    assert (out2.verdict, out2.grade) == ("pass", "exact")
    assert out2.details["cleft_grade"] == "cleft"
    assert out2.details["galois"] == "certified-Galois"
    assert out2.details["normal_basis"] == "full"
    b5 = bundles["E5"]
    out5 = verify_cor_jJ(b5.ec, j=b5.ws.maps["lambda"])
    assert (out5.verdict, out5.grade) == ("pass", "exact")
    assert out5.details["cleft_grade"] == "weak-cleft"
    assert out5.details["galois"] == "certified-Galois"
    assert out5.details["normal_basis"] == "weak"
    report("7: invertibility criterion on E2 (full) and E5 (weak)", True)


def test_criterion_8_lemma_level_properties(bundles):
    checked = []
    for name in ("E1", "E2", "E3", "E4", "E5", "G1"):
        b = bundles[name]
        wits = b.ec.first_witnesses
        if wits is not None:
            assert check_jids(b.ec, wits, b.samples) == Verdict("pass")
            out = check_equivariant_projectivity(b.ec)
            assert out.verdict == "pass"
            gen = check_generator_property(b.ec)
            assert gen.verdict == "pass" or gen.verdict.startswith("not applicable: ")
            checked.append(name + ":unit-decomposition")
        ff = tensor_fullyfaithful_check(b.cm)
        assert ff.verdict == "pass" or ff.verdict.startswith("not applicable: ")
        if ff.verdict == "pass":
            checked.append(name + ":adjunction-unit")
        duals = check_dual_basis_from_witnesses(b.cm)
        if duals.verdict != "not applicable":
            checked.append(name + ":dual-bases")
    assert len(checked) >= 12
    report("8: lemma-level properties wherever certified", True,
           "%d hypothesis-certified checks" % len(checked))


def _suite_bytes(field_args):
    """Canonical bytes of the whole command-line suite over the fixtures."""
    import contextlib
    import io
    chunks = []
    for name in FIXTURE_NAMES:
        path = fixture_path(name)
        commands = [["validate", path]]
        commands.append(["morita", path, "--sigma", "Sigma",
                         "--extension", "ext"])
        commands.append(["extension", path, "--extension", "ext"])
        commands.append(["galois", path, "--sigma", "Sigma"])
        cleft_cmd = ["cleft", path, "--sigma", "Sigma", "--extension", "ext"]
        if name == "E2":
            cleft_cmd += ["--j", "lambda_id", "--jtilde", "jtilde"]
        if name == "E5":
            cleft_cmd += ["--j", "lambda", "--jtilde", "jtilde"]
        commands.append(cleft_cmd)
        commands.append(["theorems", path, "--sigma", "Sigma",
                         "--extension", "ext", "--suite", "all"])
        for cmd in commands:
            out = io.StringIO()
            err = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(cmd + field_args)
            assert code == 0, (cmd, err.getvalue())
            chunks.append("$ %s\n" % " ".join(cmd + field_args))
            chunks.append(out.getvalue())
    return "".join(chunks).encode()


def test_criterion_9_determinism_and_runtime():
    start = time.perf_counter()
    rational_1 = _suite_bytes([])
    rational_2 = _suite_bytes([])
    mod7_1 = _suite_bytes(["--reduce", "7"])
    mod7_2 = _suite_bytes(["--reduce", "7"])
    elapsed = time.perf_counter() - start
    assert rational_1 == rational_2
    assert mod7_1 == mod7_2
    assert hashlib.sha256(rational_1).hexdigest() != \
        hashlib.sha256(mod7_1).hexdigest()
    assert elapsed < 60.0, "full suite took %.1fs" % elapsed
    report("9: byte-identical canonical reports per field", True,
           "4 full runs in %.1fs, sha256(Q) %s" %
           (elapsed, hashlib.sha256(rational_1).hexdigest()[:12]))
