"""Canonical maps, certification verdicts, and the theorem-verifier suite."""

from functools import cached_property

import pytest

from conftest import ContextBundle, _proj, _sect, fixture_path
from coringlab import cli, galois
from coringlab.algmod import (BalancedTensor, FBimodule, Verdict, summand_witnesses,
                              trivial_algebra)
from coringlab.coring import Comodule, colinear_homs, trivial_coring, zero_comodule
from coringlab.exactla import Matrix, QQ, rank, unit_vec, vec_scale
from coringlab.extension import ExtContext, purity_check
from coringlab.galois import (CanonicalMap, check_dual_basis_from_witnesses,
                              check_equivariant_projectivity,
                              check_generator_property, check_jids,
                              cleft_check, default_sample_modules,
                              galois_check, normal_basis_check,
                              regular_right_module,
                              tensor_fullyfaithful_check,
                              unit_decomposition_of_one, verify_cor_jJ,
                              verify_diamond_to_triangle, verify_fgp_corollary,
                              verify_strong_structure, verify_surjectivity_thm,
                              verify_weak_structure)
from coringlab.morita import context_M
from coringlab.workspace import load_workspace_file
from coringlab.zoo import quotient_polynomial_algebra

F = QQ


def _jtilde(bundle, name="jtilde"):
    ws = bundle.ws
    mat = ws.maps[name]
    sd = bundle.ec.qt.sigma_dual
    a = bundle.ext.inner.base
    cols = [sd.coords(a.lmul_vec(mat.col(c))) for c in range(bundle.ext.inner.dim)]
    return Matrix.from_cols(F, sd.dim, cols)


# ---------------------------------------------------------------------------
# canonical maps


def test_can_map_e1_identity_sized(bundles):
    b = bundles["E1"]
    cm = CanonicalMap(b.sigma, regular_right_module(b.sigma.coring.base, 1),
                 end=b.cm.end)
    assert cm.bijective
    assert cm.matrix.rows == cm.matrix.cols == 1


def test_can_map_e3_sweedler(bundles):
    b = bundles["E3"]
    cm = CanonicalMap(b.sigma, regular_right_module(b.sigma.coring.base, 1),
                 end=b.cm.end)
    assert cm.matrix.rows == cm.matrix.cols == 4
    assert cm.bijective
    inv = cm.inverse()
    assert cm.matrix.mul(inv) == Matrix.identity(F, 4)
    assert inv.mul(cm.matrix) == Matrix.identity(F, 4)


def test_can_map_zero_comodule(bundles):
    c = bundles["E3"].sigma.coring
    z = zero_comodule(c)
    cm = CanonicalMap(z, regular_right_module(c.base, 1))
    assert cm.matrix.is_zero()
    assert not cm.bijective


def test_can_map_rank_is_kept_from_the_inversion(bundles, monkeypatch):
    # a square canonical map takes its rank from the reduction that inverts
    # it; a non-square one (the zero comodule's) reduces once, on first use
    maps = [CanonicalMap(b.sigma, regular_right_module(b.sigma.coring.base, 1),
                         end=b.cm.end) for b in bundles.values()]
    c = bundles["E3"].sigma.coring
    maps.append(CanonicalMap(zero_comodule(c), regular_right_module(c.base, 1)))
    expected = [rank(cm.matrix) for cm in maps]
    calls = []
    monkeypatch.setattr(galois, "rank", lambda m: calls.append(m) or rank(m))
    for cm, want in zip(maps, expected):
        square = cm.matrix.rows == cm.matrix.cols
        assert cm.rank() == cm.rank() == want
        assert len(calls) == (0 if square else 1)
        calls.clear()
    assert any(cm.matrix.rows != cm.matrix.cols for cm in maps)


def test_galois_verdicts(bundles):
    assert galois_check(bundles["E3"].sigma, end=bundles["E3"].cm.end).verdict \
        == "certified-Galois"
    assert galois_check(bundles["E2"].sigma, end=bundles["E2"].cm.end).verdict \
        == "certified-Galois"
    z = zero_comodule(bundles["E2"].sigma.coring)
    assert galois_check(z).verdict == "not-Galois"


def test_galois_verdict_on_samples_for_a_non_projective_comodule():
    # k over k[x]/(x^2), x acting as 0, with m -> m (x) 1 for the trivial
    # coring: not projective, so the verdict comes from the sample modules
    a = quotient_polynomial_algebra(F, [F.zero, F.zero], name="k[x]/x2")
    c = trivial_coring(a)
    carrier = FBimodule(trivial_algebra(F), a, 1, [Matrix.identity(F, 1)],
                        [Matrix.identity(F, 1), Matrix.zero(F, 1, 1)], name="k")
    carrier.validate()
    mc = BalancedTensor([carrier, c.carrier], [a])
    sigma = Comodule(c, carrier, Matrix.from_cols(
        F, mc.dim, [mc.pure_tensor([[F.one], list(a.unit)])]), name="k")
    sigma.validate()
    out = galois_check(sigma)
    assert (out.verdict, out.grade, out.holds) == ("not-Galois", "on-samples", False)
    # the first sample, the free module of rank 1, is where it fails
    first = default_sample_modules(sigma)[0]
    assert first.name == "k[x]/x2^1"
    assert not CanonicalMap(sigma, first).bijective


def test_galois_on_samples_uses_listed_modules(bundles):
    b = bundles["E2"]
    mods = default_sample_modules(b.sigma)
    assert [m.name for m in mods][:2] == ["A^1", "A^2"]
    for m in mods:
        assert CanonicalMap(b.sigma, m, end=b.cm.end).bijective


# ---------------------------------------------------------------------------
# summand and normal basis


def test_summand_self(bundles):
    b = bundles["E2"]
    homs = colinear_homs(b.sigma, b.sigma)
    wit = summand_witnesses(homs, homs)
    assert len(wit) == 1
    kappa, lam = wit[0]
    assert lam.mul(kappa) == Matrix.identity(F, b.sigma.dim)


def test_summand_negative(bundles):
    b = bundles["E2"]
    z = zero_comodule(b.sigma.coring)
    assert summand_witnesses(colinear_homs(b.sigma, z), colinear_homs(z, b.sigma)) is None
    # the zero comodule is a summand of anything, with no witness pairs
    assert summand_witnesses(colinear_homs(z, b.sigma), colinear_homs(b.sigma, z)) == []


def test_normal_basis_grades(bundles):
    jt2 = _jtilde(bundles["E2"])
    cd2 = cleft_check(bundles["E2"].ec, j=bundles["E2"].ws.maps["lambda_id"],
                      jtilde=jt2)
    nb2 = normal_basis_check(bundles["E2"].ec, cleft_data=cd2)
    assert nb2["grade"] == "full"
    inv = nb2["iso_inverse"]
    assert inv is not None and nb2["iso"].mul(inv) == \
        Matrix.identity(F, bundles["E2"].sigma.dim)
    nb5 = normal_basis_check(bundles["E5"].ec)
    assert nb5["grade"] == "weak"
    assert nb5["full"] == "disproved (dimension)"
    nb3 = normal_basis_check(bundles["E3"].ec)
    assert nb3["grade"] == "none"  # dim 2 comodule cannot split off dim 1


def test_normal_basis_weak_on_padded_target(bundles):
    # a target with an extra summand: weak holds, full refuted by dimension
    b = bundles["E4"]
    nb = normal_basis_check(b.ec)
    assert nb["grade"] == "weak"
    assert nb["full"] == "disproved (dimension)"
    kappa, back = nb["split_pair"]
    assert back.mul(kappa) == Matrix.identity(F, b.sigma.dim)


def test_a_dimension_excess_sweeps_no_normal_basis_candidate(bundles, monkeypatch):
    # E3: Sigma is a summand of a power of T (x)_L D, but dim Sigma = 2 > 1
    # disproves both grades before any candidate
    graded, drawn = [], []
    witness, invert, candidates = galois.span_witness, galois.inverse, \
        galois._candidate_vectors
    monkeypatch.setattr(galois, "span_witness",
                        lambda *args: graded.append("weak") or witness(*args))
    monkeypatch.setattr(galois, "inverse",
                        lambda *args: graded.append("full") or invert(*args))
    monkeypatch.setattr(galois, "_candidate_vectors",
                        lambda *args: (drawn.append(v) or v for v in candidates(*args)))
    nb = normal_basis_check(bundles["E3"].ec)
    assert graded == [] and drawn == []
    assert sorted(nb) == ["family_summand", "family_witnesses", "full", "grade",
                          "sigma_dim", "td_dim", "weak"]
    assert (nb["sigma_dim"], nb["td_dim"], nb["family_summand"]) == (2, 1, True)
    assert (nb["grade"], nb["full"], nb["weak"]) == \
        ("none", "disproved (dimension)", "disproved (dimension)")


def _joint_solves(monkeypatch):
    """The right-hand side lengths of galois' solve_linear calls, in order."""
    sizes = []
    solve = galois.solve_linear
    monkeypatch.setattr(galois, "solve_linear",
                        lambda mat, rhs: sizes.append(len(rhs)) or solve(mat, rhs))
    return sizes


@pytest.mark.parametrize("over", ["Q", "F7"])
def test_equal_dimensions_still_solve_the_joint_system(over, workspaces, workspaces_f7,
                                                       monkeypatch):
    sizes = _joint_solves(monkeypatch)
    for name in ("E1", "E2", "G1"):
        ec = ContextBundle((workspaces if over == "Q" else workspaces_f7)[name]).ec
        joint = len(galois._cleft_targets(ec))
        del sizes[:]
        cd = cleft_check(ec)
        assert ec.sigma.dim == ec.td[0].dim
        assert cd.grade == "cleft" and joint in sizes, name
        nb = normal_basis_check(ec, cleft_data=cd)
        assert (nb["grade"], nb["full"], nb["weak"]) == ("full", "found", "implied")


def test_a_supplied_section_below_the_dimension_solves_no_joint_system(bundles,
                                                                       monkeypatch):
    # E5: dim Sigma = 1 < 2 = dim T (x)_L D, so only the weak grade is open
    b = bundles["E5"]
    sizes = _joint_solves(monkeypatch)
    cd = cleft_check(b.ec, j=b.ws.maps["lambda"])
    assert cd.grade == "weak-cleft"
    assert sizes == [b.ext.inner.dim ** 2]
    assert b.ec.diamond_black(cd.jtilde, cd.j) == \
        Matrix.identity(F, b.ext.inner.dim)


# ---------------------------------------------------------------------------
# cleftness


def test_cleft_e2_with_section(bundles):
    b = bundles["E2"]
    cd = cleft_check(b.ec, j=b.ws.maps["lambda_id"], jtilde=_jtilde(b))
    assert cd.grade == "cleft"


def test_cleft_e2_solved_from_section_only(bundles):
    b = bundles["E2"]
    cd = cleft_check(b.ec, j=b.ws.maps["lambda_id"])
    assert cd.grade == "cleft"
    # both identities hold for the solved intertwiner
    assert b.ec.diamond_black(cd.jtilde, cd.j) == Matrix.identity(F, 4)
    assert b.ec.diamond_white(cd.j, cd.jtilde) == b.ec._v_unit_matrix()


def test_cleft_e1_trivial(bundles):
    b = bundles["E1"]
    cd = cleft_check(b.ec)
    assert cd.grade == "cleft"


def test_cleft_e5_weak_only(bundles):
    b = bundles["E5"]
    cd = cleft_check(b.ec, j=b.ws.maps["lambda"], jtilde=_jtilde(b))
    assert cd.grade == "weak-cleft"
    cd2 = cleft_check(b.ec)
    assert cd2.grade == "weak-cleft"  # search cannot do better


def test_cleft_g1_global_action(bundles):
    b = bundles["G1"]
    cd = cleft_check(b.ec, j=b.ws.maps["lambda"], jtilde=_jtilde(b))
    assert cd.grade == "cleft"
    assert b.ec.context.strict


def test_cleft_zero_comodule_certified_negative(bundles):
    ws = bundles["E2"].ws
    z = ws.comodules["Sigma0"]
    cm0 = context_M(z)
    ec0 = ExtContext(ws.extensions["ext"], cm0)
    cd = cleft_check(ec0)
    assert cd.grade == "not-cleft"


def test_cleft_data_makes_context_strict(bundles):
    # invertible elements force strictness
    for name in ("E1", "E2", "G1"):
        assert bundles[name].ec.context.strict


# ---------------------------------------------------------------------------
# theorem verifiers


def test_weak_structure_on_samples(bundles):
    for name in ("E2", "E4", "E5"):
        b = bundles[name]
        out = verify_weak_structure(b.ec, b.samples)
        assert (out.verdict, out.grade) == ("pass", "on-samples")


def test_weak_structure_not_applicable_for_zero(bundles):
    ws = bundles["E2"].ws
    z = ws.comodules["Sigma0"]
    cm0 = context_M(z)
    ec0 = ExtContext(ws.extensions["ext"], cm0)
    out = verify_weak_structure(ec0, [])
    assert out == Verdict("not applicable: first connecting map not surjective",
                          "on-samples")


def test_strong_structure_e2(bundles):
    b = bundles["E2"]
    out = verify_strong_structure(b.ec, b.samples)
    assert out.verdict == "equivalence verified on samples"
    assert out.details["unit_path"] == "counit surjective"


def test_strong_structure_reports_missing_hypothesis(bundles):
    b = bundles["E4"]
    out = verify_strong_structure(b.ec, b.samples)
    assert out.verdict.startswith("not applicable: ")
    assert "second connecting map" in out.verdict


def test_strong_structure_trivial_outer(bundles):
    b = bundles["E1"]
    out = verify_strong_structure(b.ec, b.samples)
    assert out.verdict == "equivalence verified on samples"


def test_surjectivity_theorem_agreement(bundles):
    st2 = verify_surjectivity_thm(bundles["E2"].ec).details
    assert st2["part1"] and st2["part2"] and st2["s"] >= 1 and st2["z"] >= 1
    st4 = verify_surjectivity_thm(bundles["E4"].ec).details
    assert st4["part1"] and not st4["part2"]
    st5 = verify_surjectivity_thm(bundles["E5"].ec).details
    assert st5["part1"] and not st5["part2"]


def test_surjectivity_theorem_zero_negative(bundles):
    ws = bundles["E2"].ws
    z = ws.comodules["Sigma0"]
    cm0 = context_M(z)
    ec0 = ExtContext(ws.extensions["ext"], cm0)
    st = verify_surjectivity_thm(ec0).details
    assert not st["part1"] and not st["part2"]


def test_cor_jJ_biconditionals(bundles):
    out2 = verify_cor_jJ(bundles["E2"].ec, j=bundles["E2"].ws.maps["lambda_id"],
                         jtilde=_jtilde(bundles["E2"]))
    assert (out2.verdict, out2.grade) == ("pass", "exact")
    assert (out2.details["cleft_grade"], out2.details["normal_basis"]) == ("cleft", "full")
    out5 = verify_cor_jJ(bundles["E5"].ec, j=bundles["E5"].ws.maps["lambda"],
                         jtilde=_jtilde(bundles["E5"]))
    assert (out5.verdict, out5.grade) == ("pass", "exact")
    assert (out5.details["cleft_grade"], out5.details["normal_basis"]) == \
        ("weak-cleft", "weak")


def test_cor_jJ_zero_negative(bundles):
    ws = bundles["E2"].ws
    z = ws.comodules["Sigma0"]
    cm0 = context_M(z)
    ec0 = ExtContext(ws.extensions["ext"], cm0)
    out = verify_cor_jJ(ec0)
    assert (out.verdict, out.grade) == ("pass", "exact")
    assert out.details["cleft_grade"] == "not-cleft"
    assert out.details["galois"] == "not-Galois"


def test_diamond_to_triangle(bundles):
    out2 = verify_diamond_to_triangle(bundles["E2"].ec)
    assert out2.verdict == "pass" and out2.details["sigma_fgp"]
    out4 = verify_diamond_to_triangle(bundles["E4"].ec)
    assert out4.verdict.startswith("not applicable: ")
    out1 = verify_diamond_to_triangle(bundles["E1"].ec)
    assert out1.verdict == "pass"


def test_fgp_corollary(bundles):
    for name in ("E2", "E4"):
        out = verify_fgp_corollary(bundles[name].ec)
        assert out.verdict == "pass"
        assert out.details["triangle1_surjective"] and out.details["coring_fgp"]


def test_jids_identities(bundles):
    for name in ("E2", "E4", "E5"):
        b = bundles[name]
        wits = b.ec.first_witnesses
        assert wits is not None
        assert check_jids(b.ec, wits, b.samples) == Verdict("pass")


def test_first_witnesses_are_built_once_per_context(monkeypatch, capsys):
    # theorems --suite all reads the unit decomposition five times: in the
    # cli, in both structure checks, in the generator property and in the
    # equivariant projectivity check; the pairs are built once, and the
    # identity checks and both counit inverses get that one list
    builds, lists = [], []
    kept = ExtContext.__dict__["first_witnesses"]

    def counted(ext_ctx):
        builds.append(ext_ctx)
        return kept.func(ext_ctx)

    prop = cached_property(counted)
    prop.__set_name__(ExtContext, "first_witnesses")
    monkeypatch.setattr(ExtContext, "first_witnesses", prop)
    jids, counit_inverse = cli.check_jids, galois._counit_inverse

    def spy_jids(ext_ctx, witnesses, comodules):
        lists.append(id(witnesses))
        return jids(ext_ctx, witnesses, comodules)

    def spy_counit_inverse(ext_ctx, m, witnesses):
        lists.append(id(witnesses))
        return counit_inverse(ext_ctx, m, witnesses)

    monkeypatch.setattr(cli, "check_jids", spy_jids)
    monkeypatch.setattr(galois, "_counit_inverse", spy_counit_inverse)
    code = cli.main(["theorems", fixture_path("E2"), "--sigma", "Sigma",
                     "--extension", "ext", "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0 and "unit decomposition identities" in out
    assert len(builds) == 1
    assert len(lists) > 2 and len(set(lists)) == 1


def test_generator_property(bundles):
    for name in ("E2", "E4"):
        out = check_generator_property(bundles[name].ec)
        assert out == Verdict("pass", details={})


def test_equivariant_projectivity(bundles):
    for name in ("E2", "E4", "E5"):
        out = check_equivariant_projectivity(bundles[name].ec)
        assert out == Verdict("pass", details={})


def test_tensor_fully_faithful(bundles):
    for name in ("E2", "E3", "E4"):
        out = tensor_fullyfaithful_check(bundles[name].cm)
        assert (out.verdict, out.grade) == ("pass", "on-samples")


def test_dual_bases_from_witnesses(bundles):
    for name in ("E2", "E3", "E4"):
        out = check_dual_basis_from_witnesses(bundles[name].cm)
        assert out == Verdict("{'coring_dual_basis': True, 'comodule_dual_basis': True}")


def test_unit_decomposition_paths(bundles):
    out = unit_decomposition_of_one(bundles["E2"].ec)
    assert out["path"] == "counit surjective"
    out4 = unit_decomposition_of_one(bundles["E4"].ec)
    assert out4 is not None


# ---------------------------------------------------------------------------
# negatives and agreement checks from the example rows


def _ideal_subcomodule_e4(ws):
    from coringlab.algmod import BalancedTensor, FBimodule, trivial_algebra
    from coringlab.coring import Comodule
    sigma = ws.comodules["Sigma"]
    a = ws.algebras["A"]
    c = ws.corings["C"]
    k = trivial_algebra(F)
    inc = Matrix.from_rows(F, [[F.one, F.zero], [F.zero, F.one],
                               [F.zero, F.zero]])
    sel = Matrix.from_rows(F, [[F.one, F.zero, F.zero],
                               [F.zero, F.one, F.zero]])
    rights = [sel.mul(a.rmul(i)).mul(inc) for i in range(3)]
    carrier = FBimodule(k, a, 2, [Matrix.identity(F, 2)], rights, name="I")
    mc = BalancedTensor([carrier, c.carrier], [a])
    amb = _sect(sigma.mc).mul(sigma.coaction)
    cols = []
    for j in range(2):
        col = amb.col(j)
        vec = [F.zero] * (2 * c.dim)
        for m in range(2):
            for ci in range(c.dim):
                vec[m * c.dim + ci] = col[m * c.dim + ci]
        cols.append(_proj(mc).mul_vec(vec))
    sub = Comodule(c, carrier, Matrix.from_cols(F, mc.dim, cols), name="I")
    sub.validate()
    return sub


def test_proper_ideal_comodule_first_map_not_surjective(e4):
    sub = _ideal_subcomodule_e4(e4)
    cm = context_M(sub)
    ok1, _ = cm.context.connecting(1)
    assert not ok1


def test_cor_jJ_e3_not_cleft_despite_strictness(bundles):
    # strict comodule context yet no invertible pair: the dimension
    # certificate decides the negative, and the criterion still agrees
    b = bundles["E3"]
    assert b.cm.context.strict
    out = verify_cor_jJ(b.ec)
    assert (out.verdict, out.grade) == ("pass", "exact")
    assert out.details["cleft_grade"] == "not-cleft"
    assert out.details["galois"] == "certified-Galois"
    assert out.details["normal_basis"] == "none"


def test_normal_basis_trivial_outer_identity(bundles):
    nb = normal_basis_check(bundles["E1"].ec)
    assert nb["grade"] == "full"


def test_strictness_three_way_agreement(bundles):
    from coringlab.galois import verify_strictness_three_way
    for name in ("E1", "E2", "E3", "E4", "E5"):
        b = bundles[name]
        out = verify_strictness_three_way(b.cm, b.samples)
        assert (out.verdict, out.grade) == ("pass", "on-samples")
        assert out.details["strict"]
    # the zero comodule: strict fails and so does the right-hand side
    ws = bundles["E2"].ws
    z = ws.comodules["Sigma0"]
    cm0 = context_M(z)
    out0 = verify_strictness_three_way(cm0, [])
    assert out0.verdict == "pass" and not out0.details["strict"]


# ---------------------------------------------------------------------------
# an L-C bicomodule over a nontrivial L: T (x)_L D has balancing relations


def _l1_bicomodule_context():
    """L1's coring C with Creg's coaction, and L acting on the left by
    l·w_i = l_i·w_i (the right L-action of the extension)."""
    ws = load_workspace_file(fixture_path("L1"))
    ext = ws.extensions["ext"]
    c, l = ext.inner, ext.outer.base
    carrier = FBimodule(l, c.base, c.dim, list(ext.right_l_act),
                        list(c.carrier.right_act), name="W")
    w = Comodule(c, carrier, ws.comodules["Creg"].coaction, name="W")
    w.validate()
    purity_check(ext, [w])
    cm = context_M(w)
    return ExtContext(ext, cm)


def _td_coaction_elementwise(ec):
    """t (x) d -> t (x) d_(1) (x) d_(2), one lifted pure tensor at a time."""
    f, d = ec.field, ec.ext.outer
    td_com, td_tens = ec.td
    cols = []
    for q in range(td_tens.dim):
        col = [f.zero] * td_com.mc.dim
        for ((t, dd), w) in td_tens.lift_pairs(unit_vec(f, td_tens.dim, q)):
            for ((d1, d2), w2) in d.cc.lift_pairs(d.coproduct.col(dd)):
                left = td_tens.pure_tensor([vec_scale(f, f.mul(w, w2),
                                                      unit_vec(f, ec.t_alg.dim, t)),
                                            unit_vec(f, d.dim, d1)])
                term = td_com.mc.pure_tensor([left, unit_vec(f, d.dim, d2)])
                col = [f.add(u, v) for u, v in zip(col, term)]
        cols.append(col)
    return Matrix.from_cols(f, td_com.mc.dim, cols)


def test_t_tensor_d_over_nontrivial_base_is_projected_in_its_layout():
    ec = _l1_bicomodule_context()
    assert ec.context.strict
    td_com, td_tens = ec.td
    # the relations over L are really there, so layouts would differ
    assert td_tens.dim < td_tens.ambient_dim
    assert td_com.coaction == _td_coaction_elementwise(ec)
    cd = cleft_check(ec)
    assert cd.grade == "cleft"
    assert normal_basis_check(ec, cleft_data=cd)["grade"] == "full"
    assert check_equivariant_projectivity(ec) == Verdict("pass", details={})
    out = verify_cor_jJ(ec)
    assert (out.verdict, out.grade) == ("pass", "exact")
    assert (out.details["cleft_grade"], out.details["normal_basis"]) == ("cleft", "full")


# ---------------------------------------------------------------------------
# the inconclusive grades of the searches


def test_searches_that_find_nothing_are_inconclusive(monkeypatch):
    monkeypatch.setattr(galois, "_candidate_vectors", lambda *args, **kwargs: iter(()))
    # a context of its own: cleft_check keeps its search result on the context
    ec = ContextBundle(load_workspace_file(fixture_path("E2"))).ec
    assert cleft_check(ec).grade == "unresolved"
    nb = normal_basis_check(ec)
    assert (nb["grade"], nb["full"], nb["weak"]) == \
        ("inconclusive", "not found (inconclusive)", "not found (inconclusive)")
    out = verify_cor_jJ(ec)
    assert (out.verdict, out.grade) == ("undecided (search inconclusive)", "inconclusive")
