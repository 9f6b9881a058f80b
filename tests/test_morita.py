"""Morita contexts: the connecting bimodule, both contexts, the comparison
morphism, surjectivity witnesses and strictness."""

import pytest

from coringlab.coring import zero_comodule
from coringlab.exactla import (AxiomError, Matrix, QQ, Subspace, kernel, unflatten,
                               unit_vec, vec_scale, zero_vec)
from coringlab.morita import (QModule, connecting_surjective, context_M,
                              context_N, morphism_M_to_N, strictness)

F = QQ


def test_q_dimensions(bundles):
    assert bundles["E1"].cm.q.dim == 1
    assert bundles["E3"].cm.q.dim == 2
    assert bundles["E2"].cm.q.dim == 2


def test_q_defining_relation_pointwise(bundles):
    # independent pointwise re-check on every basis pair (E2)
    cm = bundles["E2"].cm
    cm.q._verify_pointwise()


def test_q_matches_dual_linear_maps_when_coring_projective(bundles):
    # with a projective coring the bimodule equals the right-linear maps into
    # the dual ring
    for name in ("E2", "E3", "E4"):
        bundle = bundles[name]
        cn = context_N(bundle.sigma, dual=bundle.cm.dual)
        assert bundle.cm.q.dim == len(cn.hom_maps)


def test_switched_isomorph(bundles):
    cm = bundles["E3"].cm
    assert len(cm.q.switched) == cm.q.dim
    # switching is injective
    cols = []
    from coringlab.exactla import Matrix as M, rank
    flat = [sum(mat.data, []) for mat in cm.q.switched]
    assert rank(M.from_rows(F, flat)) == cm.q.dim


def test_context_corners_e1(bundles):
    ctx = bundles["E1"].cm.context
    assert (ctx.alg1.dim, ctx.alg2.dim, ctx.bim12.dim, ctx.bim21.dim) == (1, 1, 1, 1)
    st = strictness(ctx)
    assert st["strict"]


def test_context_e3_galois_case(bundles):
    ctx = bundles["E3"].cm.context
    ok2, wit2 = connecting_surjective(ctx, 2)
    assert ok2
    # witness pairs evaluate to the unit endomorphism
    cm = bundles["E3"].cm
    sigma = cm.sigma
    total = Matrix.zero(F, sigma.dim, sigma.dim)
    for (xvec, qvec) in wit2:
        qmat = cm.q.element(qvec)
        for y in range(sigma.dim):
            qy = qmat.col(y)
            col = zero_vec(F, sigma.dim)
            for b, c in enumerate(qy):
                if c:
                    _, smod = _dual_mod(cm)
                    col = [F.add(u, F.mul(c, v))
                           for u, v in zip(col, smod.right_act[b].mul_vec(xvec))]
            for r in range(sigma.dim):
                total.data[r][y] = F.add(total.data[r][y], col[r])
    assert total == Matrix.identity(F, sigma.dim)
    assert strictness(ctx)["strict"]


def _dual_mod(cm):
    from coringlab.coring import dual_action
    return dual_action(cm.sigma, cm.dual)


def test_context_e2_strict(bundles):
    assert strictness(bundles["E2"].cm.context)["strict"]


def test_context_e4_strict(bundles):
    assert strictness(bundles["E4"].cm.context)["strict"]


def test_zero_comodule_not_strict(bundles):
    sigma0 = zero_comodule(bundles["E2"].sigma.coring, name="0")
    cm0 = context_M(sigma0)
    st = strictness(cm0.context)
    assert not st["strict"]
    assert not st["surjective1"]
    assert st["surjective2"]  # onto the zero ring


def test_morphism_is_isomorphism_on_projective_corings(bundles):
    for name in ("E1", "E2", "E3", "E4"):
        bundle = bundles[name]
        out = morphism_M_to_N(bundle.sigma, bundle.cm)
        assert out["verdict"] == "isomorphism"
        assert out["coring_fgp"]


def test_module_context_corners_e2(bundles):
    cn = context_N(bundles["E2"].sigma, dual=bundles["E2"].cm.dual)
    ctx = cn.context
    assert ctx.alg2.dim == 4
    assert (ctx.alg1.dim, ctx.bim21.dim) == (1, 2)


def test_first_witnesses_reconstruct_counit(bundles):
    cm = bundles["E2"].cm
    ok, wit = connecting_surjective(cm.context, 1)
    assert ok
    total = None
    for (qvec, xvec) in wit:
        qmat = cm.q.element(qvec)
        val = cm.dual.element_eval(qmat.mul_vec(xvec))
        total = val if total is None else total.add(val)
    assert total == cm.sigma.coring.counit


def test_mixed_associativity_enforced(bundles):
    # corrupting a connecting map breaks validation
    from coringlab.morita import MoritaContext
    ctx = bundles["E3"].cm.context
    bad = ctx.conn1.copy()
    bad.data[0][0] = F.add(bad.data[0][0], F.one)
    broken = MoritaContext(ctx.alg1, ctx.alg2, ctx.bim12, ctx.bim21, bad,
                           ctx.conn2, ctx.tens21, ctx.tens12, name="broken")
    with pytest.raises(AxiomError):
        broken.validate()


def _ref_q_space(sigma, dual):
    """The solution basis of the hand-built constraint rows of Q, one vector
    at a time: right A-linearity X·R^Sigma_a = R^{*C}_a·X and, for basis x_j
    of Sigma and c_k of C, q(x^[0])(c_k)·x^[1] = c_k^(1)·q(x_j)(c_k^(2));
    X[b, m] row-major."""
    field, c = sigma.field, sigma.coring
    sdim, ddim, cdim = sigma.dim, dual.dim, c.dim
    nunk = ddim * sdim

    def idx(b, m):
        return b * sdim + m

    rows = []
    for a_i in range(c.base.dim):
        rs = sigma.carrier.right_act[a_i]
        rd = dual.module.right_act[a_i]
        for b in range(ddim):
            for m in range(sdim):
                row = zero_vec(field, nunk)
                for mm in range(sdim):
                    row[idx(b, mm)] = field.add(row[idx(b, mm)], rs.data[mm][m])
                for bb in range(ddim):
                    row[idx(bb, m)] = field.sub(row[idx(bb, m)], rd.data[b][bb])
                rows.append(row)
    for j in range(sdim):
        for k in range(cdim):
            coeff_rows = [zero_vec(field, nunk) for _ in range(cdim)]
            for ((m, cp), w) in sigma.mc.lift_pairs(sigma.coaction.col(j)):
                for b in range(ddim):
                    fa = dual.eval_mats[b].col(k)
                    col = c.carrier.left_act_vec(vec_scale(field, w, fa)).col(cp)
                    for r in range(cdim):
                        coeff_rows[r][idx(b, m)] = field.add(coeff_rows[r][idx(b, m)],
                                                             col[r])
            for ((c1, c2), w) in c.cc.lift_pairs(c.coproduct.col(k)):
                for b in range(ddim):
                    fa = dual.eval_mats[b].col(c2)
                    col = c.carrier.right_act_vec(vec_scale(field, w, fa)).col(c1)
                    for r in range(cdim):
                        coeff_rows[r][idx(b, j)] = field.sub(coeff_rows[r][idx(b, j)],
                                                             col[r])
            rows.extend(coeff_rows)
    sol = kernel(Matrix.from_rows(field, rows)) if rows else Subspace.full(field, nunk)
    return [unflatten(field, ddim, sdim, v) for v in sol.basis]


def test_q_operator_relation_matches_the_row_reference(workspaces, workspaces_f7,
                                                       hopf_c3_f7):
    comodules = [com for wss in (workspaces, workspaces_f7) for ws in wss.values()
                 for com in ws.comodules.values()]
    comodules.append(hopf_c3_f7[1])
    for sigma in comodules:
        q = QModule(sigma)
        assert q.space.basis == _ref_q_space(sigma, q.dual), sigma.name
