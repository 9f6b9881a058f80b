"""Corings, comodules, dual rings, colinear homs, grouplikes."""

from types import SimpleNamespace

import pytest

from conftest import _proj, _sect, matrix_unit_sweedler_corings
from coringlab.algmod import (BalancedTensor, FBimodule, FiniteAlgebra, colinearity_constraint,
                             hom_space, sandwich_terms, trivial_algebra)
from coringlab.coring import (Comodule, Coring, DualRing, EndAlgebra, Grouplike,
                              co_opposite, colinear_homs, comodule_direct_sum,
                              dual_action, grouplike_comodule, opposite_algebra,
                              trivial_coring, zero_comodule)
from coringlab.exactla import AxiomError, FieldFp, Matrix, QQ, UsageError, zero_vec
from coringlab.extension import ExtContext

F = QQ


def test_trivial_coring_axioms():
    c = trivial_coring(trivial_algebra(F), name="C")
    assert c.dim == 1
    c.validate()


def test_dual_ring_of_trivial_coring_is_base(e2):
    # fixture E1-style: base Q gives a one-dimensional dual
    c = trivial_coring(trivial_algebra(F))
    d = DualRing(c)
    assert d.dim == 1
    # over the group algebra of E2, the trivial coring's dual is the base
    a = e2.algebras["A"]
    d2 = DualRing(trivial_coring(a))
    assert d2.dim == a.dim


def test_dual_ring_e2_dimension(e2):
    # the coring is free of rank 2 over a 2-dimensional base
    d = DualRing(e2.corings["C"])
    assert d.dim == 4
    d.algebra.validate()


def test_dual_ring_e4_dimension(e4):
    d = DualRing(e4.corings["C"])
    assert d.dim == 5
    d.algebra.validate()


def test_dual_action_unital_associative(e2):
    sigma = e2.comodules["Sigma"]
    dual, mod = dual_action(sigma)
    mod.validate()
    # the counit acts as the identity
    assert mod.right_act_vec(dual.algebra.unit) == Matrix.identity(F, sigma.dim)


def test_dual_action_e3_counit_identity(e3):
    sigma = e3.comodules["Sigma"]
    dual, mod = dual_action(sigma)
    assert mod.right_act_vec(dual.algebra.unit) == Matrix.identity(F, sigma.dim)


def test_colinear_maps_are_dual_linear(e2):
    # maps commuting with the coaction also commute with the dual action
    sigma = e2.comodules["Sigma"]
    creg = e2.comodules["Creg"]
    dual, smod = dual_action(sigma)
    _, cmod = dual_action(creg, dual)
    for h in colinear_homs(sigma, creg).basis:
        for i in range(dual.dim):
            assert h.mul(smod.right_act[i]) == cmod.right_act[i].mul(h)


def test_end_algebra_dimensions(bundles):
    assert bundles["E2"].cm.end.dim == 1   # coinvariants of the group algebra
    assert bundles["E3"].cm.end.dim == 1   # the subfield
    assert bundles["E4"].cm.end.dim == 2   # invariants of the partial action
    assert bundles["E5"].cm.end.dim == 1


def test_end_coring_regular_comodule(e2):
    creg = e2.comodules["Creg"]
    end = EndAlgebra(creg)
    # End of the regular comodule is the left dual ring
    assert end.dim == 4


def test_grouplike_axioms(e3):
    e3.grouplikes["g"].validate()


def test_grouplike_rejected_with_failing_axiom(e3):
    c = e3.corings["C"]
    bad = Grouplike(c, [F.of_int(2) if i == 0 else F.zero
                        for i in range(c.dim)])
    with pytest.raises(AxiomError):
        bad.validate()


def test_grouplike_comodule_roundtrip(e4):
    g = e4.grouplikes["g"]
    sigma = grouplike_comodule(g, name="S")
    sigma.validate()
    assert sigma.dim == e4.algebras["A"].dim


def test_grouplike_e4_is_sum_of_components(e4):
    # the grouplike of the partial-action coring restricts to the ideal units
    g = e4.grouplikes["g"]
    c = e4.corings["C"]
    assert c.counit.mul_vec(g.element) == list(e4.algebras["A"].unit)


def _ref_direct_sum_coaction(m1, m2, mc):
    """The coaction of m1 (+) m2 into mc, each summand's coaction lifted one
    vector at a time, shifted into its block and projected."""
    field, c = m1.field, m1.coring
    cols = []
    for src, offset in ((m1, 0), (m2, m1.dim)):
        for j in range(src.dim):
            amb = zero_vec(field, mc.ambient_dim)
            for ((mi, ci), coeff) in src.mc.lift_pairs(src.coaction.col(j)):
                amb[(offset + mi) * c.dim + ci] = coeff
            cols.append(_proj(mc).mul_vec(amb))
    return Matrix.from_cols(field, mc.dim, cols)


def test_comodule_direct_sum(e2):
    sigma = e2.comodules["Sigma"]
    both = comodule_direct_sum(sigma, sigma, name="SS")
    both.validate()
    assert both.dim == 2 * sigma.dim
    assert both.coaction == _ref_direct_sum_coaction(sigma, sigma, both.mc)
    plus = e2.comodules["SigmaPlus"]
    assert plus.coaction == _ref_direct_sum_coaction(sigma, sigma, plus.mc)


def test_direct_sum_needs_the_same_left_algebra(e2):
    # a copy of Sigma whose left algebra is another object of equal dimension
    sigma = e2.comodules["Sigma"]
    la = sigma.carrier.left_alg
    twin = FiniteAlgebra(la.field, la.dim, la.mul, la.unit, name=la.name)
    carrier = FBimodule(twin, sigma.carrier.right_alg, sigma.dim,
                        list(sigma.carrier.left_act), list(sigma.carrier.right_act),
                        name="Twin")
    other = Comodule(sigma.coring, carrier, sigma.coaction, name="Twin")
    other.validate()
    with pytest.raises(UsageError, match="^direct sum with mismatched left algebras$"):
        comodule_direct_sum(sigma, other)


def test_zero_comodule(e2):
    z = zero_comodule(e2.corings["C"])
    z.validate()
    assert z.dim == 0
    assert EndAlgebra(z).dim == 0


def test_coinvariants_match_grouplike_commutant(e3):
    # endomorphisms of the grouplike comodule = {a : g·a = a·g}
    c = e3.corings["C"]
    g = e3.grouplikes["g"].element
    a = e3.algebras["A"]
    end = EndAlgebra(e3.comodules["Sigma"])
    commutant = []
    for i in range(a.dim):
        if c.carrier.right_act[i].mul_vec(g) == c.carrier.left_act[i].mul_vec(g):
            commutant.append(i)
    assert end.dim == len(commutant) == 1


def test_co_opposite(e2):
    cop = co_opposite(e2.corings["C"])
    cop.validate()
    assert cop.dim == e2.corings["C"].dim


def _ref_co_opposite(c):
    """The co-opposite coring built through the dense twist of C x C:
    proj·twist·sect·Delta in the C (x)_{A^op} C of its own carrier."""
    aop = opposite_algebra(c.base)
    carrier = FBimodule(aop, aop, c.dim, list(c.carrier.right_act),
                        list(c.carrier.left_act), name=c.name + "^cop")
    cc = BalancedTensor([carrier, carrier], [aop])
    n = c.dim
    twist = Matrix.zero(c.field, n * n, n * n)
    for i in range(n):
        for j in range(n):
            twist.data[j * n + i][i * n + j] = c.field.one
    coproduct = _proj(cc).mul(twist).mul(_sect(c.cc)).mul(c.coproduct)
    return Coring(aop, carrier, coproduct, c.counit, name=c.name + "^cop")


@pytest.mark.parametrize("over", ["Q", "F7", "Sweedler Q", "Sweedler F3"])
def test_co_opposite_matches_the_twist_reference(over, workspaces, workspaces_f7):
    # the row-permuted ambient coproduct gives the twist construction's
    # coproduct, on every fixture coring and on the Sweedler corings of
    # M2 ⊇ diagonal and T2 ⊇ diagonal, which are not cocommutative
    if over in ("Q", "F7"):
        corings = [c for ws in (workspaces if over == "Q" else workspaces_f7).values()
                   for c in ws.corings.values()]
    else:
        field = QQ if over == "Sweedler Q" else FieldFp(3)
        corings = [c for c, _ in matrix_unit_sweedler_corings(field).values()]
    for c in corings:
        cop, ref = co_opposite(c), _ref_co_opposite(c)
        assert cop.cc._picks == ref.cc._picks
        assert cop.coproduct == ref.coproduct
        assert cop.coproduct_amb == _sect(ref.cc).mul(ref.coproduct)
        if over.startswith("Sweedler"):
            assert cop.coproduct_amb != c.coproduct_amb
            assert cop.validate()


def test_comodule_validation_catches_broken_coaction(e2):
    sigma = e2.comodules["Sigma"]
    bad = sigma.coaction.copy()
    bad.data[0][0] = F.add(bad.data[0][0], F.one)
    with pytest.raises(AxiomError):
        Comodule(sigma.coring, sigma.carrier, bad, name="bad").validate()


def _ref_colinearity_terms(rho, tens, w, slot):
    """The colinearity terms read off the dense projection, the reference
    for colinearity_constraint: sandwich_terms of proj with the identity on
    the slot other than X's."""
    other = tens.dims[1 - slot]
    left, right = (1, other) if slot == 0 else (other, 1)
    return [(rho, Matrix.identity(rho.field, w.cols), +1)] + \
        sandwich_terms(_proj(tens), w, left, right, sign=-1)


def _colinear_inputs(over, workspaces, workspaces_f7):
    """(comodules grouped by input, corings, extensions): every fixture over
    Q or F7, or the Sweedler corings of M2 ⊇ diagonal and T2 ⊇ diagonal
    with Sigma from their grouplike, over Q or F3."""
    if over in ("Q", "F7"):
        spaces = (workspaces if over == "Q" else workspaces_f7).values()
        return ([list(ws.comodules.values()) for ws in spaces],
                [c for ws in spaces for c in ws.corings.values()],
                [e for ws in spaces for e in ws.extensions.values()])
    field = QQ if over == "Sweedler Q" else FieldFp(3)
    built = matrix_unit_sweedler_corings(field).values()
    return ([[grouplike_comodule(g, name="Sigma")] for _, g in built],
            [c for c, _ in built], [])


def _colinear_pairs(groups):
    return [(m, n) for group in groups for m in group for n in group
            if m.coring is n.coring]


OVER = pytest.mark.parametrize("over", ["Q", "F7", "Sweedler Q", "Sweedler F3"])


@OVER
def test_colinearity_constraint_matches_the_dense_projection_reference(
        over, workspaces, workspaces_f7):
    # the same terms on both slots: slot 0 for each ordered pair of
    # comodules over one coring and for each extension's tau, slot 1 for
    # each coring on itself (the left-colinear half of ExtContext._solve_u)
    groups, corings, extensions = _colinear_inputs(over, workspaces, workspaces_f7)
    cases = [(n.coaction, n.mc, m.coaction_amb, 0) for m, n in _colinear_pairs(groups)]
    cases += [(c.coproduct, c.cc, c.coproduct_amb, 1) for c in corings]
    cases += [(e.tau, e.cld, e.tau_amb, 0) for e in extensions]
    assert {case[3] for case in cases} == {0, 1}
    for rho, tens, w, slot in cases:
        assert colinearity_constraint(rho, tens, w, slot=slot) == \
            _ref_colinearity_terms(rho, tens, w, slot)


@OVER
def test_colinear_homs_and_solve_u_match_the_dense_projection_reference(
        over, workspaces, workspaces_f7):
    # the same solved spaces in the same canonical bases
    groups, corings, extensions = _colinear_inputs(over, workspaces, workspaces_f7)
    for m, n in _colinear_pairs(groups):
        ref = hom_space(m.carrier, n.carrier, right_linear=True,
                        extra_constraints=[_ref_colinearity_terms(
                            n.coaction, n.mc, m.coaction_amb, 0)])
        assert colinear_homs(m, n).basis == ref.basis
    for c in corings:
        ref = hom_space(c.carrier, c.carrier, left_linear=True, right_linear=True,
                        extra_constraints=[_ref_colinearity_terms(
                            c.coproduct, c.cc, c.coproduct_amb, 1)])
        got = hom_space(c.carrier, c.carrier, left_linear=True, right_linear=True,
                        extra_constraints=[colinearity_constraint(
                            c.coproduct, c.cc, c.coproduct_amb, slot=1)])
        assert got.basis == ref.basis
    for e in extensions:
        c = e.inner
        ref = hom_space(e.carrier_l, e.carrier_l, left_linear=True, right_linear=True,
                        extra_constraints=[
                            _ref_colinearity_terms(c.coproduct, c.cc, c.coproduct_amb, 1),
                            _ref_colinearity_terms(e.tau, e.cld, e.tau_amb, 0)])
        # _solve_u reads only the extension and its field
        got = ExtContext._solve_u(SimpleNamespace(ext=e, field=e.field))
        assert got.basis == ref.basis
