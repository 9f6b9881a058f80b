"""Morita contexts: the connecting bimodule, both contexts, the comparison
morphism, surjectivity witnesses and strictness."""

import copy
import functools
import re

import pytest

from conftest import _proj, fixture_path
from coringlab.algmod import FBimodule, Verdict, fgp_check
from coringlab.coring import DualRing, EndAlgebra, zero_comodule
from coringlab.exactla import (AxiomError, FieldFp, Matrix, QQ, Subspace, kernel,
                               rank, solve_linear, unflatten, unit_vec, vec_scale,
                               zero_vec)
from coringlab.extension import ExtContext, purity_check
from coringlab.morita import (ModuleContext, MoritaContext, QModule, context_M,
                              morphism_failure, morphism_M_to_N)
from coringlab.workspace import load_workspace_file
from coringlab.zoo import FIXTURES

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
        cn = ModuleContext(bundle.cm)
        assert bundle.cm.q.dim == cn.homs.dim


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
    assert ctx.strict


def test_context_e3_galois_case(bundles):
    ctx = bundles["E3"].cm.context
    ok2, wit2 = ctx.connecting(2)
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
    assert ctx.strict


def _dual_mod(cm):
    from coringlab.coring import dual_action
    return dual_action(cm.sigma, cm.dual)


def test_context_e2_strict(bundles):
    assert bundles["E2"].cm.context.strict


def test_context_e4_strict(bundles):
    assert bundles["E4"].cm.context.strict


def test_zero_comodule_not_strict(bundles):
    sigma0 = zero_comodule(bundles["E2"].sigma.coring, name="0")
    cm0 = context_M(sigma0)
    assert not cm0.context.strict
    assert not cm0.context.connecting(1)[0]
    assert cm0.context.connecting(2)[0]  # onto the zero ring


def test_morphism_is_isomorphism_on_projective_corings(bundles):
    for name in ("E1", "E2", "E3", "E4"):
        bundle = bundles[name]
        assert morphism_M_to_N(bundle.cm, ModuleContext(bundle.cm)) == \
            Verdict("isomorphism")
        # the verdict is "isomorphism" only for a f.g. projective coring
        coring = bundle.cm.sigma.coring
        assert fgp_check(coring.carrier, "left", coring.base) is not None


def test_morphism_failure_names_the_first_failing_part(bundles):
    cm = bundles["E2"].cm
    cn = ModuleContext(cm)
    assert morphism_M_to_N(cm, cn) == Verdict("isomorphism")
    # the two corner inclusions, as morphism_M_to_N builds them
    iota_t = cn.end_space.coords_matrix(cm.end.basis_maps, "not *C-linear")
    iota_q = cn.homs.coords_matrix(cm.q.basis, "not *C-linear")
    same2, same12 = Matrix.identity(F, cm.dual.dim), Matrix.identity(F, cm.sigma.dim)
    swap = Matrix.from_rows(F, [[0, 1], [1, 0]])
    two = F.of_int(2)
    for maps, part in (((iota_t, same2, same12, iota_q), None),
                       ((iota_t.scale(two), same2, same12, iota_q), "first algebra"),
                       ((iota_t, same2.scale(two), same12, iota_q), "second algebra"),
                       ((iota_t, same2, swap, iota_q), "second action"),
                       ((iota_t, same2, same12, swap.mul(iota_q)), "third action"),
                       ((iota_t, same2, same12.scale(two), iota_q), "first connecting map"),
                       ((iota_t, same2, same12, iota_q.scale(two)), "first connecting map")):
        assert morphism_failure(cm.context, cn.context, *maps) == part


def test_module_context_corners_e2(bundles):
    cn = ModuleContext(bundles["E2"].cm)
    ctx = cn.context
    assert ctx.alg2.dim == 4
    assert (ctx.alg1.dim, ctx.bim21.dim) == (1, 2)


def test_first_witnesses_reconstruct_counit(bundles):
    cm = bundles["E2"].cm
    ok, wit = cm.context.connecting(1)
    assert ok
    total = None
    for (qvec, xvec) in wit:
        qmat = cm.q.element(qvec)
        val = cm.dual.element_eval(qmat.mul_vec(xvec))
        total = val if total is None else total.add(val)
    assert total == cm.sigma.coring.counit


def _with_conns(ctx, conn1, conn2, name="broken", bim12=None):
    """The context with these quotient connecting maps, handed over in
    their pair forms conn·proj."""
    return MoritaContext(ctx.alg1, ctx.alg2, bim12 or ctx.bim12, ctx.bim21,
                         conn1.mul(_proj(ctx.tens21)), conn2.mul(_proj(ctx.tens12)),
                         ctx.tens21, ctx.tens12, name=name)


def test_mixed_associativity_enforced(bundles):
    # corrupting a connecting map breaks validation
    ctx = bundles["E3"].cm.context
    bad = ctx.conn1.copy()
    bad.data[0][0] = F.add(bad.data[0][0], F.one)
    with pytest.raises(AxiomError):
        _with_conns(ctx, bad, ctx.conn2).validate()
    # doubling either map keeps it bilinear, so validation reaches the mixed
    # associativity check, and its module side fails first
    two = F.of_int(2)
    for conn1, conn2 in ((ctx.conn1.scale(two), ctx.conn2),
                         (ctx.conn1, ctx.conn2.scale(two))):
        with pytest.raises(AxiomError, match=r"^broken: mixed associativity fails "
                                             r"\(module side\)$"):
            _with_conns(ctx, conn1, conn2).validate()


def _reference_mixed_associativity(ctx):
    """The message of the per-triple check on basis elements p, q, p' (and
    q, p, q'), one pure tensor per pair, or None when it passes."""
    f = ctx.field
    d12, d21 = ctx.bim12.dim, ctx.bim21.dim
    for p in range(d12):
        ep = unit_vec(f, d12, p)
        for q in range(d21):
            eq = unit_vec(f, d21, q)
            t = ctx.conn2.mul_vec(ctx.tens12.pure_tensor([ep, eq]))
            for pp in range(d12):
                epp = unit_vec(f, d12, pp)
                lhs = ctx.bim12.left_act_vec(t).mul_vec(epp)
                s = ctx.conn1.mul_vec(ctx.tens21.pure_tensor([eq, epp]))
                if lhs != ctx.bim12.right_act_vec(s).mul_vec(ep):
                    return "%s: mixed associativity fails (module side)" % ctx.name
    for q in range(d21):
        eq = unit_vec(f, d21, q)
        for p in range(d12):
            ep = unit_vec(f, d12, p)
            s = ctx.conn1.mul_vec(ctx.tens21.pure_tensor([eq, ep]))
            for qq in range(d21):
                eqq = unit_vec(f, d21, qq)
                lhs = ctx.bim21.left_act_vec(s).mul_vec(eqq)
                t = ctx.conn2.mul_vec(ctx.tens12.pure_tensor([ep, eqq]))
                if lhs != ctx.bim21.right_act_vec(t).mul_vec(eq):
                    return "%s: mixed associativity fails (dual side)" % ctx.name
    return None


def _reference_connecting(ctx, which):
    """Surjectivity decided by rank, then the unit solved for its witnesses."""
    if which == 1:
        conn, tens, target = ctx.conn1, ctx.tens21, ctx.alg2
    else:
        conn, tens, target = ctx.conn2, ctx.tens12, ctx.alg1
    if rank(conn) != target.dim:
        return False, None
    z = solve_linear(conn, list(target.unit))
    if z is None:
        return False, None
    f = ctx.field
    merged = {}
    for ((i, j), coeff) in tens.lift_pairs(z):
        if i not in merged:
            merged[i] = zero_vec(f, tens.dims[1])
        merged[i][j] = f.add(merged[i][j], coeff)
    return True, [(unit_vec(f, tens.dims[0], i), vec) for i, vec in merged.items()]


@functools.lru_cache(maxsize=None)
def _fixture_contexts(field):
    """Every Morita context the fixtures give over field: the comodule and
    module contexts of each comodule, and the extension context wherever
    the comodule's left algebra is the outer base of a pure extension."""
    out = []
    for name in sorted(FIXTURES):
        ws = load_workspace_file(fixture_path(name), field_override=field)
        for sname in sorted(ws.comodules):
            sigma = ws.comodules[sname]
            cm = context_M(sigma)
            out += [cm.context, ModuleContext(cm).context]
            for ext in ws.extensions.values():
                if ext.inner is not sigma.coring or \
                        sigma.carrier.left_alg.dim != ext.outer.base.dim:
                    continue
                purity_check(ext, [sigma])
                if ext.purity_certificate != "not-pure":
                    out.append(ExtContext(ext, cm).context)
    return out


def _outcome(check):
    try:
        check()
    except AxiomError as exc:
        return str(exc)
    return None


FIELDS = pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])


@FIELDS
def test_mixed_associativity_matches_the_per_triple_reference(field):
    contexts = _fixture_contexts(field)
    assert len(contexts) > 40
    two = field.of_int(2)
    raised = set()
    for ctx in contexts:
        # with both actions on the first bimodule zero, the module side holds
        # trivially and a doubled map can only fail the dual side
        zero = Matrix.zero(field, ctx.bim12.dim, ctx.bim12.dim)
        inert = FBimodule(ctx.alg1, ctx.alg2, ctx.bim12.dim, [zero] * ctx.alg1.dim,
                          [zero] * ctx.alg2.dim)
        bumped1, bumped2 = ctx.conn1.copy(), ctx.conn2.copy()
        if bumped1.rows and bumped1.cols:
            bumped1.data[0][-1] = field.add(bumped1.data[0][-1], field.one)
        if bumped2.rows and bumped2.cols:
            bumped2.data[-1][0] = field.add(bumped2.data[-1][0], field.one)
        for conn1, conn2 in ((ctx.conn1, ctx.conn2), (ctx.conn1.scale(two), ctx.conn2),
                             (ctx.conn1, ctx.conn2.scale(two)), (bumped1, ctx.conn2),
                             (ctx.conn1, bumped2)):
            for bim12 in (None, inert):
                variant = _with_conns(ctx, conn1, conn2, name=ctx.name, bim12=bim12)
                expected = _reference_mixed_associativity(variant)
                assert _outcome(variant._mixed_associativity) == expected, ctx.name
                raised.add(expected and expected.rsplit("(", 1)[1])
    assert raised == {None, "module side)", "dual side)"}


@FIELDS
def test_connecting_matches_the_rank_reference(field):
    verdicts = set()
    for ctx in _fixture_contexts(field):
        for which in (1, 2):
            expected = _reference_connecting(ctx, which)
            assert ctx.connecting(which) == expected, (ctx.name, which)
            verdicts.add(expected[0])
    assert verdicts == {True, False}


def _quotient_route(ctx, conn1, conn2):
    """The context built from quotient connecting maps, its ambient forms
    rebuilt as conn·proj: the reference route for contexts that take the
    pair forms and descend them."""
    ref = object.__new__(MoritaContext)
    ref.__dict__.update(alg1=ctx.alg1, alg2=ctx.alg2, bim12=ctx.bim12, bim21=ctx.bim21,
                        conn1=conn1, conn2=conn2, tens21=ctx.tens21, tens12=ctx.tens12,
                        name=ctx.name, field=ctx.field, _connecting={},
                        conn_amb=(conn1.mul(_proj(ctx.tens21)), conn2.mul(_proj(ctx.tens12))))
    return ref


def _result(thunk):
    try:
        return thunk()
    except AxiomError as exc:
        return "raised: %s" % exc


@FIELDS
def test_contexts_from_pair_forms_match_the_quotient_route(field):
    # the pair forms the builders hand over are conn·proj exactly, and a
    # context built from pair forms has the reference route's maps,
    # validate messages, witnesses and strictness, on every fixture context and on
    # doubled and bumped connecting maps
    contexts = _fixture_contexts(field)
    assert len(contexts) == 50
    two = field.of_int(2)
    outcomes, refused = set(), 0
    for ctx in contexts:
        assert ctx.conn_amb == _quotient_route(ctx, ctx.conn1, ctx.conn2).conn_amb
        bumped1, bumped2 = ctx.conn1.copy(), ctx.conn2.copy()
        if bumped1.rows and bumped1.cols:
            bumped1.data[0][-1] = field.add(bumped1.data[0][-1], field.one)
        if bumped2.rows and bumped2.cols:
            bumped2.data[-1][0] = field.add(bumped2.data[-1][0], field.one)
        for conn1, conn2 in ((ctx.conn1, ctx.conn2), (ctx.conn1.scale(two), ctx.conn2),
                             (bumped1, ctx.conn2), (ctx.conn1, bumped2)):
            got = _with_conns(ctx, conn1, conn2, name=ctx.name)
            ref = _quotient_route(ctx, conn1, conn2)
            assert (got.conn1, got.conn2, got.conn_amb) == (ref.conn1, ref.conn2, ref.conn_amb)
            message = _result(got.validate)
            assert message == _result(ref.validate), ctx.name
            outcomes.add(message is True)
            if message is True:
                for which in (1, 2):
                    assert got.connecting(which) == ref.connecting(which)
                assert _result(lambda: got.strict) == _result(lambda: ref.strict)
        # a pair form that does not vanish on the balancing relations: one
        # more unit at an ambient pair the section does not pick
        for which, tens in (("first", ctx.tens21), ("second", ctx.tens12)):
            amb = ctx.conn_amb[which == "second"]
            outside = sorted(set(range(tens.ambient_dim)) - set(tens._picks))
            if not (outside and amb.rows):
                continue
            bad = amb.copy()
            bad.data[0][outside[0]] = field.add(bad.data[0][outside[0]], field.one)
            pair = [ctx.conn_amb[0], ctx.conn_amb[1]]
            pair[which == "second"] = bad
            with pytest.raises(AxiomError, match=r"^%s: %s connecting map is not balanced$"
                               % (re.escape(ctx.name), which)):
                MoritaContext(ctx.alg1, ctx.alg2, ctx.bim12, ctx.bim21, *pair,
                              ctx.tens21, ctx.tens12, name=ctx.name)
            refused += 1
    assert outcomes == {True, False}
    assert refused == 51


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


def _every_comodule(workspaces, workspaces_f7, hopf_c3_f7):
    """Every comodule of the Q and F7 workspaces, then the C3 Hopf chain's
    Sigma over F7."""
    comodules = [com for wss in (workspaces, workspaces_f7) for ws in wss.values()
                 for com in ws.comodules.values()]
    return comodules + [hopf_c3_f7[1]]


def test_q_operator_relation_matches_the_row_reference(workspaces, workspaces_f7,
                                                       hopf_c3_f7):
    for sigma in _every_comodule(workspaces, workspaces_f7, hopf_c3_f7):
        q = QModule(sigma, DualRing(sigma.coring), EndAlgebra(sigma))
        assert q.space.basis == _ref_q_space(sigma, q.dual), sigma.name


def _ref_verify_pointwise(q):
    """The defining relation q(x^[0])(c_k)·x^[1] = c_k^(1)·q(x_j)(c_k^(2))
    summed one lifted vector at a time, for every basis element and basis
    pair (j, k) in order: the message of the first failure, or None."""
    sigma, c = q.sigma, q.sigma.coring
    field = q.field
    for qb in q.basis:
        for j in range(sigma.dim):
            for k in range(c.dim):
                lhs = zero_vec(field, c.dim)
                for ((m, cp), w) in sigma.mc.lift_pairs(sigma.coaction.col(j)):
                    fvec = q.dual.element_eval(qb.col(m)).col(k)
                    lhs = [field.add(u, v) for u, v in zip(
                        lhs, c.carrier.left_orbits()[cp].mul_vec(vec_scale(field, w, fvec)))]
                rhs = zero_vec(field, c.dim)
                for ((c1, c2), w) in c.cc.lift_pairs(c.coproduct.col(k)):
                    fvec = q.dual.element_eval(qb.col(j)).col(c2)
                    rhs = [field.add(u, v) for u, v in zip(
                        rhs, c.carrier.right_orbits()[c1].mul_vec(vec_scale(field, w, fvec)))]
                if lhs != rhs:
                    return ("Q basis element fails its defining relation at basis pair "
                            "(%d,%d)" % (j, k))
    return None


def test_pointwise_recheck_matches_the_lifted_vector_reference(workspaces, workspaces_f7,
                                                              hopf_c3_f7):
    """Both forms pass on every comodule; with one entry of a basis element
    bumped (each element of each Q space over Q in turn), both name the same
    first failing pair, or both pass when the bumped map still satisfies
    the relation."""
    messages = []
    for sigma in _every_comodule(workspaces, workspaces_f7, hopf_c3_f7):
        q = QModule(sigma, DualRing(sigma.coring), EndAlgebra(sigma))
        assert _ref_verify_pointwise(q) is None, sigma.name
        assert _outcome(q._verify_pointwise) is None, sigma.name
        if sigma.field != QQ:
            continue
        for b, qb in enumerate(q.basis):
            bumped = qb.copy()
            r, col = b % qb.rows, (b * 7 + 3) % qb.cols
            bumped.data[r][col] = QQ.add(bumped.data[r][col], QQ.one)
            probe = copy.copy(q)
            probe.basis = q.basis[:b] + [bumped] + q.basis[b + 1:]
            expected = _ref_verify_pointwise(probe)
            assert _outcome(probe._verify_pointwise) == expected, (sigma.name, b)
            messages.append(expected)
    failed = [m for m in messages if m is not None]
    assert len(set(failed)) > 3 and len(failed) > len(messages) // 2
