"""Coring extensions: axioms, purity, induced coactions, the extension
context and convolution algebras."""

import random

import pytest

from coringlab.algmod import Verdict, constraint_rows, sandwich_terms, trivial_algebra
from coringlab.cli import _jtilde_from_map
from coringlab.exactla import (AxiomError, FieldFp, Matrix, QQ, Subspace,
                               UsageError, flatten_matrix, kernel, rank, solve_linear,
                               unflatten, vec_scale, zero_vec)
from coringlab.extension import (CoringExtension, QTildeModule,
                                 check_colinear_maps_remain_colinear,
                                 convolution_algebra,
                                 convolution_inverse, induced_D_coaction,
                                 induced_right_l_action, purity_check,
                                 remark_k_coincidence)
from coringlab.galois import cleft_check
from coringlab.morita import SigmaDual
from coringlab.workspace import load_workspace_file
from coringlab.zoo import (group_function_coring, product_field_algebra, trivial_coring,
                           trivial_extension)
from conftest import ContextBundle, _sect, fixture_path

F = QQ


def test_extension_axioms_pass_on_fixtures(workspaces):
    for name in ("E1", "E2", "E3", "E4", "E5", "G1", "L1"):
        workspaces[name].extensions["ext"].validate()


def test_trivial_extension_any_coring(e3):
    ext = trivial_extension(e3.corings["C"])
    ext.validate()
    assert ext.purity_certificate == "pure-by-split"


def test_extension_rejects_broken_coaction(e2):
    ext = e2.extensions["ext"]
    bad = _sect(ext.cld).mul(ext.tau).copy()
    bad.data[0][0] = F.add(bad.data[0][0], F.one)
    broken = CoringExtension(ext.inner, ext.outer, ext.right_l_act, bad,
                             name="broken")
    with pytest.raises(AxiomError):
        broken.validate()


def test_purity_split_path(e2, e4):
    for ws in (e2, e4):
        ext = ws.extensions["ext"]
        cert = purity_check(ext, [])
        assert (cert.verdict, cert.grade) == ("pure-by-split", "certified")


def test_purity_split_rejects_wrong_map(e2):
    ext = e2.extensions["ext"]
    bad_split = Matrix.zero(F, 2, 1)
    broken = CoringExtension(ext.inner, ext.outer, ext.right_l_act,
                             _sect(ext.cld).mul(ext.tau), split_map=bad_split,
                             name="broken")
    with pytest.raises(AxiomError):
        purity_check(broken, [])


def test_purity_computed_path(workspaces):
    ws = workspaces["L1"]
    ext = ws.extensions["ext"]
    assert ext.split_map is None
    cert = purity_check(ext, [ws.comodules["Creg"]])
    assert (cert.verdict, cert.grade) == ("pure", "on-samples")
    assert "Creg" in cert.details


def test_induced_coaction_refused_without_certificate(e2):
    ext = CoringExtension(e2.extensions["ext"].inner, e2.extensions["ext"].outer,
                          e2.extensions["ext"].right_l_act,
                          e2.extensions["ext"].tau, name="fresh")
    with pytest.raises(UsageError):
        induced_D_coaction(ext, e2.comodules["Sigma"])


def test_induced_coaction_e2_is_group_grading(e2):
    ext = e2.extensions["ext"]
    purity_check(ext, [])
    sigma = e2.comodules["Sigma"]
    tau = induced_D_coaction(ext, sigma)
    tau.validate()
    # the coaction of the comodule algebra: group elements are homogeneous
    amb = _sect(tau.mc).mul(tau.coaction)
    assert amb.col(0) == [F.one, F.zero, F.zero, F.zero]
    assert amb.col(1) == [F.zero, F.zero, F.zero, F.one]


def test_induced_coaction_e4_globalized_swap(e4):
    ext = e4.extensions["ext"]
    purity_check(ext, [])
    sigma = e4.comodules["Sigma"]
    tau = induced_D_coaction(ext, sigma)
    tau.validate()
    amb = _sect(tau.mc).mul(tau.coaction)
    # component at the nontrivial group element: the swap extended by the
    # identity on the third coordinate
    swap = [[F.zero, F.one, F.zero], [F.one, F.zero, F.zero],
            [F.zero, F.zero, F.one]]
    for j in range(3):
        col = amb.col(j)
        assert [col[r * 2 + 1] for r in range(3)] == \
            [swap[r][j] for r in range(3)]


def test_colinear_maps_stay_colinear(e2):
    ext = e2.extensions["ext"]
    purity_check(ext, [])
    sigma = e2.comodules["Sigma"]
    creg = e2.comodules["Creg"]
    ds = induced_D_coaction(ext, sigma)
    dc = induced_D_coaction(ext, creg)
    pairs = [(sigma, sigma, ds, ds), (sigma, creg, ds, dc),
             (creg, sigma, dc, ds), (creg, creg, dc, dc)]
    assert check_colinear_maps_remain_colinear(pairs)


def test_qtilde_embeds_into_q(bundles):
    for name in ("E2", "E4", "E5"):
        b = bundles[name]
        assert rank(b.ec.embedding) == b.ec.qt.dim


def test_qtilde_trivial_outer_equals_q(bundles):
    b = bundles["E3"]
    assert b.ec.qt.dim == b.cm.q.dim


def test_ext_context_two_forms_agree(bundles):
    # a broken outer coaction makes the two published forms differ
    b = bundles["E2"]
    for qb in b.ec.qt.basis:
        for pb in b.ec.p_basis:
            b.ec.diamond_black(qb, pb)  # raises on disagreement


def test_ext_context_corner_dims(bundles):
    e2 = bundles["E2"].ec.context
    assert (e2.alg1.dim, e2.alg2.dim, e2.bim12.dim, e2.bim21.dim) == (2, 2, 2, 2)
    e4 = bundles["E4"].ec.context
    assert (e4.alg1.dim, e4.alg2.dim, e4.bim12.dim, e4.bim21.dim) == (4, 3, 3, 3)


def test_remark_k_collapse(bundles):
    for name in ("E1", "E3"):
        b = bundles[name]
        assert remark_k_coincidence(b.ec) == Verdict("coincides")


def test_remark_k_requires_trivial_outer(bundles):
    with pytest.raises(UsageError):
        remark_k_coincidence(bundles["E2"].ec)


def test_convolution_algebra_trivial():
    d = trivial_coring(trivial_algebra(F))
    a = trivial_algebra(F)
    alg, basis = convolution_algebra(d, a)
    assert alg.dim == 1


def test_convolution_algebra_group_dual():
    d = group_function_coring(F, [[0, 1], [1, 0]])
    a = trivial_algebra(F)
    alg, _ = convolution_algebra(d, a)
    assert alg.dim == 2
    alg.validate()


def test_convolution_algebra_e2(e2):
    ext = e2.extensions["ext"]
    alg, _ = convolution_algebra(ext.outer, ext.inner.base)
    assert alg.dim == 4


def test_convolution_unit_over_a_nontrivial_base():
    # L = k x k, D = L as a coring over itself, A = k through eta = (0 1):
    # the bilinear maps are the multiples of e_1 -> 1, which is the unit
    # eta∘eps_D; eps_D's first row alone would give e_0 -> 1
    d = trivial_coring(product_field_algebra(F, 2, name="kxk"))
    a = trivial_algebra(F)
    eta = Matrix.from_rows(F, [[F.zero, F.one]])
    alg, space = convolution_algebra(d, a, eta)
    assert alg.dim == 1
    assert space.element(alg.unit) == eta
    with pytest.raises(UsageError):
        convolution_inverse(d, a, eta)


def _ref_convolution_inverse(d, alg, lam):
    """lam * x = 1 and x * lam = 1 written out one lifted vector of Delta at
    a time, rows in (side, d, a) order, then solved: the canonical solution
    as a matrix, or None."""
    f = d.field
    addim, ddim = alg.dim, d.dim
    unit_mat = Matrix.from_cols(f, addim, [list(alg.unit)]).mul(d.counit)
    rows, rhs = [], []
    for prefactor_left in (True, False):
        for di in range(ddim):
            coeff = [[f.zero] * (addim * ddim) for _ in range(addim)]
            for ((d1, d2), w) in d.cc.lift_pairs(d.coproduct.col(di)):
                if prefactor_left:
                    lmat, slot = alg.lmul_vec(vec_scale(f, w, lam.col(d1))), d2
                else:
                    lmat, slot = alg.rmul_vec(vec_scale(f, w, lam.col(d2))), d1
                for s in range(addim):
                    for r, v in enumerate(lmat.col(s)):
                        coeff[r][s * ddim + slot] = f.add(coeff[r][s * ddim + slot], v)
            rows += coeff
            rhs += unit_mat.col(di)
    sol = solve_linear(Matrix.from_rows(f, rows), rhs)
    return None if sol is None else unflatten(f, addim, ddim, sol)


def _stacked_convolution_inverse(d, alg, lam):
    """lam * x = 1 and x * lam = 1 solved as one stacked system, the two
    sandwiches mult·(A (x) X)·(lam (x) D)·Delta and
    mult·(X (x) A)·(D (x) lam)·Delta: the form convolution_inverse solved
    before it dropped the mirrored half."""
    f = d.field
    addim, ddim = alg.dim, d.dim
    unit = flatten_matrix(Matrix.from_cols(f, addim, [list(alg.unit)]).mul(d.counit))
    mult = alg.mult_eval()
    sides = (sandwich_terms(mult, d.cc.induced(None, [(0, lam)], at=d.coproduct), addim, 1),
             sandwich_terms(mult, d.cc.induced(None, [(1, lam)], at=d.coproduct), 1, addim))
    rows = [row for terms in sides for row in constraint_rows(ddim, addim, terms, f)]
    sol = solve_linear(Matrix.from_rows(f, rows), unit + unit)
    return None if sol is None else unflatten(f, addim, ddim, sol)


def _checked_inverse(d, alg, lam):
    """convolution_inverse, which solves lam * x = 1 alone, against the
    stacked two-sided system in operator form and written out element by
    element."""
    inv = convolution_inverse(d, alg, lam)
    assert inv == _stacked_convolution_inverse(d, alg, lam)
    assert inv == _ref_convolution_inverse(d, alg, lam)
    return inv


def test_convolution_inverse_unit():
    d = group_function_coring(F, [[0, 1], [1, 0]])
    a = trivial_algebra(F)
    unit = Matrix.from_rows(F, [[F.one, F.zero]])  # eps-shaped map
    inv = _checked_inverse(d, a, unit)
    assert inv == unit


def test_convolution_inverse_antipode(e2):
    # the identity of the group algebra inverts to the antipode
    ext = e2.extensions["ext"]
    a = e2.algebras["A"]
    lam = Matrix.identity(F, 2)
    inv = _checked_inverse(ext.outer, a, lam)
    assert inv == e2.maps["lambda_bar"]


def test_convolution_inverse_zero_map(e2):
    ext = e2.extensions["ext"]
    a = e2.algebras["A"]
    zero = Matrix.zero(F, 2, 2)
    assert _checked_inverse(ext.outer, a, zero) is None


def test_convolution_inverse_of_the_e5_section(e5):
    # E5 is a weak entwining: its section lambda has the weak inverse
    # lambda_bar and no two-sided convolution inverse, in either form
    ext = e5.extensions["ext"]
    assert _checked_inverse(ext.outer, ext.inner.base, e5.maps["lambda"]) is None


def _ref_pairing(sd, m, vec, jt):
    """y -> v^[0]·jt(v^[1])(y) at v = vec, summed one lifted vector of the
    coaction at a time."""
    f = sd.sigma.field
    orbits = m.carrier.right_orbits()
    out = Matrix.zero(f, m.dim, sd.sigma.dim)
    for ((x, ck), w) in m.mc.lift_pairs(m.coaction.mul_vec(vec)):
        out = out.add(orbits[x].mul(sd.space.element(vec_scale(f, w, jt.col(ck)))))
    return out


def test_pairing_matches_the_lifted_vector_reference(bundles):
    # on E2's Sigma and SigmaPlus, at every basis element, for every basis
    # element of Qtilde; and at the colinear maps D -> Sigma, as
    # diamond_white evaluates it
    ec = bundles["E2"].ec
    sd = ec.qt.sigma_dual
    ws = bundles["E2"].ws
    for m in (ws.comodules["Sigma"], ws.comodules["SigmaPlus"]):
        ident = Matrix.identity(F, m.dim)
        for jt in ec.qt.basis:
            assert sd.pairing(m, ident, jt) == [_ref_pairing(sd, m, ident.col(v), jt)
                                                for v in range(m.dim)]
    for p in ec.p_basis:
        for jt in ec.qt.basis:
            assert sd.pairing(ec.sigma, p, jt) == [_ref_pairing(sd, ec.sigma, p.col(d), jt)
                                                   for d in range(p.cols)]


def test_induced_right_action_is_module(e4):
    ext = e4.extensions["ext"]
    acts = induced_right_l_action(ext, e4.comodules["Sigma"])
    assert len(acts) == 1
    assert acts[0] == Matrix.identity(F, 3)


# ---------------------------------------------------------------------------
# the connecting maps as contracted structure constants

CONTEXT_FIXTURES = ("D1", "E1", "E2", "E3", "E4", "E5", "G1")


@pytest.fixture(scope="module")
def bundles_q_f7():
    """The extension context of every fixture that has one, over Q and F7."""
    out = []
    for field in (None, FieldFp(7)):
        for name in CONTEXT_FIXTURES:
            ws = load_workspace_file(fixture_path(name), field_override=field)
            out.append(("%s/%s" % (name, ws.field.name), ContextBundle(ws)))
    return out


def _span(basis, coeffs):
    out = Matrix.zero(basis[0].field, basis[0].rows, basis[0].cols)
    for c, b in zip(coeffs, basis):
        out = out.add(b.scale(c))
    return out


def test_contraction_matches_direct_evaluation(bundles_q_f7):
    rng = random.Random(20060410)
    for label, b in bundles_q_f7:
        ec = b.ec
        f = ec.field
        nblack = ec.ext.inner.dim ** 2
        for _ in range(4):
            a = [f.of_int(rng.randint(-5, 5)) for _ in range(ec.qt.dim)]
            c = [f.of_int(rng.randint(-5, 5)) for _ in range(len(ec.p_basis))]
            jt, j = _span(ec.qt.basis, a), _span(ec.p_basis, c)
            values = ec.connecting_matrix(c).mul_vec(a)
            assert len(values) == ec.conn_rows, label
            assert values[:nblack] == flatten_matrix(ec.diamond_black(jt, j)), label
            assert values[nblack:] == flatten_matrix(ec.diamond_white(j, jt)), label


def test_supplied_pairs_grade_as_by_direct_evaluation(bundles_q_f7):
    expected = {"E2/Q": "cleft", "E5/Q": "weak-cleft", "G1/Q": "cleft"}
    seen = set()
    for label, b in bundles_q_f7:
        maps = b.ws.maps
        if "jtilde" not in maps:
            continue
        ec = b.ec
        j = maps["lambda_id"] if "lambda_id" in maps else maps["lambda"]
        jt = _jtilde_from_map(ec, maps["jtilde"])
        # the grade from evaluating both connecting maps on the pair itself
        if ec.diamond_black(jt, j) != Matrix.identity(ec.field, ec.ext.inner.dim):
            direct = None
        elif ec.diamond_white(j, jt) == ec._v_unit_matrix():
            direct = "cleft"
        else:
            direct = "weak-cleft"
        got = cleft_check(ec, j=j, jtilde=jt)
        assert (got.grade if got else None) == direct, label
        if label in expected:
            assert direct == expected[label], label
            seen.add(label)
        # the section alone: the solved intertwiner satisfies the identities
        solved = cleft_check(ec, j=j)
        if solved is not None:
            assert ec.diamond_black(solved.jtilde, j) == \
                Matrix.identity(ec.field, ec.ext.inner.dim), label
            assert (ec.diamond_white(j, solved.jtilde) == ec._v_unit_matrix()) == \
                (solved.grade == "cleft"), label
    assert seen == set(expected)


def _ref_qtilde_space(ext, sigma, sd):
    """The solution basis of the hand-built constraint rows of Qtilde, one
    vector at a time: left
    A- and right L-linearity and, for basis c_k of C and x_j of Sigma,
    c_k^(1)·q(c_k^(2))(x_j) = q(c_k)(x_j^[0])·x_j^[1]; X[s, k] row-major."""
    f, c, l = ext.field, ext.inner, ext.outer.base
    cdim, sdim, sddim = c.dim, sigma.dim, sd.dim
    nunk = sddim * cdim

    def idx(s, k):
        return s * cdim + k

    ident_sd, ident_c = Matrix.identity(f, sddim), Matrix.identity(f, cdim)
    linear = [[(ident_sd, c.carrier.left_act[i], +1), (sd.module.left_act[i], ident_c, -1)]
              for i in range(c.base.dim)]
    linear += [[(ident_sd, ext.right_l_act[i], +1), (sd.module.right_act[i], ident_c, -1)]
               for i in range(l.dim)]
    rows = []
    for terms in linear:
        for p in range(terms[0][0].rows):
            for q in range(terms[0][1].cols):
                row = zero_vec(f, nunk)
                for (u, v, sign) in terms:
                    for s in range(sddim):
                        for k in range(cdim):
                            val = f.mul(u.data[p][s], v.data[k][q])
                            row[idx(s, k)] = f.add(row[idx(s, k)],
                                                   val if sign > 0 else f.neg(val))
                rows.append(row)
    for k in range(cdim):
        for j in range(sdim):
            coeff_rows = [zero_vec(f, nunk) for _ in range(cdim)]
            for ((c1, c2), w) in c.cc.lift_pairs(c.coproduct.col(k)):
                for s in range(sddim):
                    col = c.carrier.right_act_vec(vec_scale(f, w, sd.basis[s].col(j))).col(c1)
                    for r in range(cdim):
                        coeff_rows[r][idx(s, c2)] = f.add(coeff_rows[r][idx(s, c2)], col[r])
            for ((m, cp), w) in sigma.mc.lift_pairs(sigma.coaction.col(j)):
                for s in range(sddim):
                    col = c.carrier.left_act_vec(vec_scale(f, w, sd.basis[s].col(m))).col(cp)
                    for r in range(cdim):
                        coeff_rows[r][idx(s, k)] = f.sub(coeff_rows[r][idx(s, k)], col[r])
            rows.extend(coeff_rows)
    sol = kernel(Matrix.from_rows(f, rows)) if rows else Subspace.full(f, nunk)
    return [unflatten(f, sddim, cdim, v) for v in sol.basis]


def test_qtilde_operator_relation_matches_the_row_reference(workspaces, workspaces_f7,
                                                            hopf_c3_f7):
    pairs = [hopf_c3_f7]
    for wss in (workspaces, workspaces_f7):
        for ws in wss.values():
            for ext in ws.extensions.values():
                pairs.extend((ext, com) for com in ws.comodules.values()
                             if com.coring is ext.inner
                             and com.left_alg.dim == ext.outer.base.dim)
    assert len(pairs) > 20
    for ext, sigma in pairs:
        qt = QTildeModule(ext, SigmaDual(sigma))
        assert qt.space.basis == _ref_qtilde_space(ext, sigma, qt.sigma_dual), sigma.name
