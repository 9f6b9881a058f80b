"""Algebra/bimodule layer: balanced tensors, hom spaces, certificates."""

import contextlib
import functools
import io
import itertools
import json
import os
import random
from math import prod

import pytest

from conftest import _proj, _sect, fixture_path, matrix_unit_sweedler_corings
from perturb import apply_perturbation, chosen_perturbations
from test_contract import ROOT, WORKLOADS
from coringlab import algmod
from coringlab.algmod import (BalancedTensor, FBimodule, FiniteAlgebra,
                              MatrixSpace, _balancing_indices, algebra_map_check,
                              fgp_check, generator_check, hom_space,
                              non_multiplicative_at, span_witness, tensor_algebra,
                              trivial_algebra, zero_algebra)
from coringlab.cli import main
from coringlab.coring import Comodule, Coring, Grouplike, grouplike_comodule
from coringlab.exactla import (AxiomError, FieldFp, Matrix, QQ, UsageError,
                               flatten_matrix, from_sparse_cols, inverse, kernel,
                               quotient, rank, solve_linear, unit_vec)
from coringlab.extension import CoringExtension, ExtContext, purity_check
from coringlab.galois import CanonicalMap, regular_right_module
from coringlab.morita import ModuleContext, context_M
from coringlab.workspace import (ParseError, _ser_matrix, load_workspace,
                                 load_workspace_file)
from coringlab.zoo import (FIXTURES, entwining_coring, group_algebra,
                           group_hopf_algebra, grouplike_basis_coalgebra, hopf_entwining,
                           product_field_algebra, quotient_polynomial_algebra)

F = QQ


@pytest.fixture(scope="module")
def a_quad():
    return quotient_polynomial_algebra(F, [F.of_int(2), F.zero], name="A")


def test_algebra_validation_catches_bad_unit():
    alg = trivial_algebra(F)
    bad = FiniteAlgebra(F, 1, alg.mul, [F.of_int(2)], name="bad")
    with pytest.raises(AxiomError):
        bad.validate()


def test_algebra_validation_catches_nonassociative():
    # basis (1, x, y): x·x = y, x·y = 1, y·x = y·y = 0, so (xx)x != x(xx)
    z3 = [F.zero] * 3
    e = lambda i: [F.one if j == i else F.zero for j in range(3)]
    mul = [[e(0), e(1), e(2)],
           [e(1), e(2), e(0)],
           [e(2), z3, z3]]
    alg = FiniteAlgebra(F, 3, mul, e(0), name="bad")
    with pytest.raises(AxiomError):
        alg.validate()


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_tensor_algebra_of_c2_and_c3(field):
    c2 = group_algebra(field, [[0, 1], [1, 0]], name="C2")
    c3 = group_algebra(field, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], name="C3")
    t = tensor_algebra(c2, c3)
    assert t.validate()
    assert (t.dim, t.name, t.unit) == (6, "C2(x)C3", unit_vec(field, 6, 0))
    # (g^i (x) h^j)(g^k (x) h^l) = g^(i+k) (x) h^(j+l), on the pair basis i*3 + j
    for i, j, k, l in ((1, 1, 1, 2), (0, 2, 1, 2), (1, 0, 0, 1)):
        assert t.mul[i * 3 + j][k * 3 + l] == unit_vec(field, 6, (i + k) % 2 * 3 + (j + l) % 3)
    # its unit and the pure tensors of algebra maps make it the coproduct target
    assert algebra_map_check(c3, tensor_algebra(c3, c3), Matrix.from_cols(
        field, 9, [unit_vec(field, 9, 4 * i) for i in range(3)]))
    # a noncommutative factor: k S3 (x) k C2 is the group algebra of S3 x C2
    perms = sorted(itertools.permutations(range(3)))
    s3 = group_algebra(field, [[perms.index(tuple(p[q[x]] for x in range(3))) for q in perms]
                               for p in perms], name="S3")
    t = tensor_algebra(s3, c2)
    assert t.validate()
    for p, q, i, j in itertools.product(range(6), range(6), range(2), range(2)):
        assert t.mul[p * 2 + i][q * 2 + j] == \
            unit_vec(field, 12, s3.mul[p][q].index(field.one) * 2 + (i + j) % 2)


def test_non_multiplicative_at_returns_the_first_failing_pair():
    k3 = product_field_algebra(F, 3, name="k3")
    assert non_multiplicative_at(k3, k3, Matrix.identity(F, 3)) is None
    rng = random.Random(5)
    for _ in range(20):
        mat = Matrix.from_rows(F, [[F.of_int(rng.randint(0, 1)) for _ in range(3)]
                                   for _ in range(3)])
        failing = [(i, j) for i in range(3) for j in range(3)
                   if mat.mul_vec(k3.mul[i][j]) != k3.multiply(mat.col(i), mat.col(j))]
        assert non_multiplicative_at(k3, k3, mat) == (failing[0] if failing else None)
        assert algebra_map_check(k3, k3, mat) == (not failing and mat.mul_vec(k3.unit) == k3.unit)
    # a map that fails at (0,1) and later pairs but not at (0,0): the first is named
    swap_in = Matrix.from_rows(F, [[F.one, F.one, F.zero], [F.zero] * 3, [F.zero, F.zero, F.one]])
    assert non_multiplicative_at(k3, k3, swap_in) == (0, 1)


def test_regular_bimodule_valid(a_quad):
    FBimodule.regular(a_quad).validate()


def test_module_validation_names_the_first_pair_of_actions_that_do_not_commute(a_quad):
    # A (+) A with A acting blockwise on the left, and on the right through
    # the regular right action conjugated by a shear that mixes the blocks:
    # each side is a module, but the two sides do not commute
    reg = FBimodule.regular(a_quad)
    two = FBimodule.direct_sum([reg, reg], name="AA")
    shear = Matrix.identity(F, 4)
    shear.data[0][2] = F.one
    right = [shear.mul(r).mul(inverse(shear)) for r in two.right_act]
    bad = FBimodule(a_quad, a_quad, 4, two.left_act, right, name="bad")
    failing = [(i, j) for i, l in enumerate(bad.left_act) for j, r in enumerate(right)
               if l.mul(r) != r.mul(l)]
    assert failing and not bad.actions_commute()
    with pytest.raises(AxiomError) as err:
        bad.validate()
    assert str(err.value) == "module bad: left and right actions do not commute at (%d,%d)" \
        % failing[0]


def test_tensor_unit_balancing(a_quad):
    reg = FBimodule.regular(a_quad)
    t = BalancedTensor([reg, reg], [a_quad])
    assert t.dim == a_quad.dim


def test_tensor_over_field_no_relations():
    m = FBimodule.trivial(F, 2)
    n = FBimodule.trivial(F, 3)
    k = m.left_alg
    n.left_alg = k
    n.right_alg = k
    t = BalancedTensor([m, n], [k])
    assert t.dim == 6


def test_tensor_over_subfield(a_quad):
    # A (x)_Q A for the quadratic algebra: no collapsing, dimension 4
    k = trivial_algebra(F)
    ab = FBimodule(a_quad, k, 2, [a_quad.lmul(i) for i in range(2)],
                   [Matrix.identity(F, 2)], name="A")
    ba = FBimodule(k, a_quad, 2, [Matrix.identity(F, 2)],
                   [a_quad.rmul(i) for i in range(2)], name="A")
    t = BalancedTensor([ab, ba], [k])
    assert t.dim == 4


def test_tensor_dim_bound(a_quad):
    reg = FBimodule.regular(a_quad)
    t = BalancedTensor([reg, reg], [a_quad])
    assert t.dim <= reg.dim * reg.dim


def test_tensor_associativity_comparison(a_quad):
    reg = FBimodule.regular(a_quad)
    left = BalancedTensor([reg, reg, reg], [a_quad, a_quad])
    assert left.dim == a_quad.dim
    # the canonical comparison with the two-step build is invertible
    pair = BalancedTensor([reg, reg], [a_quad])
    ident = Matrix.identity(F, reg.dim)
    cmp_map = _proj(left).mul(_sect(pair).kron(ident).mul(
        _proj(pair).kron(ident))).mul(_sect(left))
    assert rank(cmp_map) == left.dim
    assert inverse(cmp_map) is not None


def test_hom_space_endomorphisms(a_quad):
    reg = FBimodule.regular(a_quad)
    homs = hom_space(reg, reg, right_linear=True).basis
    assert len(homs) == 2  # left multiplications


def test_hom_space_from_field():
    m = FBimodule.trivial(F, 5)
    k = m.left_alg
    one = FBimodule.trivial(F, 1)
    one.left_alg = k
    one.right_alg = k
    m.left_alg = k
    m.right_alg = k
    homs = hom_space(one, m, right_linear=True).basis
    assert len(homs) == 5


def test_hom_space_schur():
    prod = product_field_algebra(F, 2, name="QxQ")
    k = trivial_algebra(F)
    e1 = FBimodule(k, prod, 1, [Matrix.identity(F, 1)],
                   [Matrix.from_rows(F, [[F.one]]), Matrix.zero(F, 1, 1)],
                   name="S1")
    e2 = FBimodule(k, prod, 1, [Matrix.identity(F, 1)],
                   [Matrix.zero(F, 1, 1), Matrix.from_rows(F, [[F.one]])],
                   name="S2")
    e1.validate()
    e2.validate()
    assert hom_space(e1, e2, right_linear=True).basis == []


def test_linearity_flags_verified(a_quad):
    reg = FBimodule.regular(a_quad)
    from coringlab.algmod import FLinearMap
    bad = Matrix.from_rows(F, [[F.one, F.zero], [F.zero, F.zero]])
    with pytest.raises(AxiomError):
        FLinearMap(reg, reg, bad, right_linear=True)


def test_fgp_regular(a_quad):
    reg = FBimodule.regular(a_quad)
    witness = fgp_check(reg, "right", a_quad)
    assert witness is not None
    elements, functionals = witness
    # reconstruction: sum x_i Xi_i(v) = v on the basis
    for j in range(reg.dim):
        acc = [F.zero] * reg.dim
        for x, h in zip(elements, functionals):
            val = h.col(j)
            term = reg.right_act_vec(val).mul_vec(x)
            acc = [F.add(u, v) for u, v in zip(acc, term)]
        target = [F.one if i == j else F.zero for i in range(reg.dim)]
        assert acc == target


def test_fgp_free_over_field():
    m = FBimodule.trivial(F, 2)
    k = m.left_alg
    assert fgp_check(m, "right", k) is not None
    zero = FBimodule.trivial(F, 0)
    assert fgp_check(zero, "right", zero.left_alg) == ([], [])


def test_fgp_idempotent_ideal():
    prod = product_field_algebra(F, 2, name="QxQ")
    k = trivial_algebra(F)
    ideal = FBimodule(k, prod, 1, [Matrix.identity(F, 1)],
                      [Matrix.from_rows(F, [[F.one]]), Matrix.zero(F, 1, 1)],
                      name="e1A")
    ideal.validate()
    assert fgp_check(ideal, "right", prod) is not None


def test_non_projective_module_detected():
    # k[x]/(x^2) acting on k through x -> 0: not projective
    nil = FiniteAlgebra(F, 2, [[[F.one, F.zero], [F.zero, F.one]],
                               [[F.zero, F.one], [F.zero, F.zero]]],
                        [F.one, F.zero], name="k[x]/(x^2)")
    nil.validate()
    k = trivial_algebra(F)
    m = FBimodule(k, nil, 1, [Matrix.identity(F, 1)],
                  [Matrix.identity(F, 1), Matrix.zero(F, 1, 1)], name="k")
    m.validate()
    assert fgp_check(m, "right", nil) is None


def test_generator_regular(a_quad):
    reg = FBimodule.regular(a_quad)
    witness = generator_check(reg, "right", a_quad)
    assert witness is not None
    functionals, elements = witness
    acc = [F.zero] * a_quad.dim
    for h, x in zip(functionals, elements):
        acc = [F.add(u, v) for u, v in zip(acc, h.mul_vec(x))]
    assert acc == list(a_quad.unit)


def test_generator_zero_module(a_quad):
    zero = FBimodule(trivial_algebra(F), a_quad, 0, [Matrix.zero(F, 0, 0)],
                     [Matrix.zero(F, 0, 0), Matrix.zero(F, 0, 0)], name="0")
    assert generator_check(zero, "right", a_quad) is None


def test_span_witness_keeps_labels_in_pair_order_and_drops_zeros():
    e0, e1, e2 = (unit_vec(F, 3, i) for i in range(3))
    # no pairs: only the zero target is reached
    assert span_witness(F, [], [F.zero] * 3) == []
    assert span_witness(F, [], e0) is None
    # a target outside the span
    assert span_witness(F, [("a", e0), ("b", e1)], e2) is None
    # the canonical solution sets the free column c to zero, and b's
    # coefficient is zero: only a and d are named, in pair order
    pairs = [("a", e0), ("b", e1), ("c", [F.one, F.one, F.zero]), ("d", e2)]
    assert span_witness(F, pairs, [F.of_int(2), F.zero, F.of_int(3)]) == \
        [("a", F.of_int(2)), ("d", F.of_int(3))]


def test_group_algebra_builder():
    c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    alg = group_algebra(F, c3, name="QC3")
    alg.validate()
    assert alg.dim == 3


# ---------------------------------------------------------------------------
# descend_map / descend_slot against the relation-kernel definition


def _ref_descend_map(tens, amb_map):
    rels = kernel(_proj(tens)).basis
    if any(any(amb_map.mul_vec(rel)) for rel in rels):
        return None
    return amb_map.mul(_sect(tens))


def _ref_operator(tens, factors):
    """The ambient operator F_1 (x) ... (x) F_k with the identity krons built
    out; factors are (first slot, number of slots read, matrix)."""
    f = tens.field
    op = Matrix.identity(f, 1)
    pos = 0
    for slot, width, mat in factors:
        for d in tens.dims[pos:slot]:
            op = op.kron(Matrix.identity(f, d))
        op = op.kron(mat)
        pos = slot + width
    for d in tens.dims[pos:]:
        op = op.kron(Matrix.identity(f, d))
    return op


def _ref_induced(src, dst, factors):
    out = _ref_operator(src, factors).mul(_sect(src))
    return out if dst is None else _proj(dst).mul(out)


def _ref_descend_slot(tens, slot, mat):
    rels = kernel(_proj(tens)).basis
    proj_op = _proj(tens).mul(_ref_operator(tens, [(slot, 1, mat)]))
    if any(any(proj_op.mul_vec(rel)) for rel in rels):
        return None
    return proj_op.mul(_sect(tens))


def _ref_carried_actions(tens):
    """The outer actions carried through every pairwise quotient, step by
    step with the krons built out: the quotient q of Q (x) M by the images
    of R_b (x) I - I (x) L_b, then q.proj·(A (x) I)·q.sect for each left
    action A of Q and q.proj·(I (x) A)·q.sect for each right action A of M."""
    f = tens.field
    cur_dim = tens.factors[0].dim
    left, right = list(tens.factors[0].left_act), list(tens.factors[0].right_act)
    for step, alg in enumerate(tens.algebras):
        nxt = tens.factors[step + 1]
        n = nxt.dim
        ident_q, ident_n = Matrix.identity(f, cur_dim), Matrix.identity(f, n)
        rels = []
        for b in _balancing_indices(tens.factors[step], alg, nxt):
            op = right[b].kron(ident_n).sub(ident_q.kron(nxt.left_act[b]))
            rels += [{k: c for k, c in enumerate(col) if c} for col in op.transpose().data]
        q = quotient(f, cur_dim * n, rels)
        proj = from_sparse_cols(f, q.dim, q.cols)
        sect = Matrix.from_cols(f, cur_dim * n, [unit_vec(f, cur_dim * n, p) for p in q.kept])
        left = [proj.mul(a.kron(ident_n)).mul(sect) for a in left]
        right = [proj.mul(ident_q.kron(a)).mul(sect) for a in nxt.right_act]
        cur_dim = q.dim
    return left, right


def _fixture_tensors(ws):
    """The balanced tensors of the corings, comodules and extensions of a
    workspace (C (x) C and C (x) C (x) C, M (x) C and M (x) C (x) C, and the
    extension's C (x)_L D, C (x)_L D (x)_L D and C (x)_A C (x)_L D), lazy ones
    built here, so the set does not depend on what ran before; each with the
    slot operators it must carry: the outer actions, and the right L-action
    on the inner coring's C (x)_A C."""
    seen = {}
    tensors = [t for c in ws.corings.values() for t in (c.cc, c.ccc)]
    tensors += [t for m in ws.comodules.values() for t in (m.mc, m.mcc)]
    tensors += [t for e in ws.extensions.values() for t in (e.cld, e.cldd, e.ccld)]
    for tens in tensors:
        seen.setdefault(id(tens), (tens, []))
    for ext in ws.extensions.values():
        seen[id(ext.inner.cc)][1].extend((1, r) for r in ext.right_l_act)
    for tens, slots in seen.values():
        last = len(tens.factors) - 1
        slots.extend((0, a) for a in tens.factors[0].left_act)
        slots.extend((last, a) for a in tens.factors[-1].right_act)
        yield tens, slots


def _bump(mat, i, j):
    bad = mat.copy()
    bad.data[i][j] = mat.field.add(bad.data[i][j], mat.field.one)
    return bad


def test_descend_matches_relation_kernel(workspaces):
    rng = random.Random(7)
    rejected_slots = 0
    for ws in workspaces.values():
        for tens, slots in _fixture_tensors(ws):
            f = tens.field
            rels = kernel(_proj(tens)).basis
            # a balanced map R·proj, and the same map bumped on a relation
            r = Matrix.from_rows(f, [[f.of_int(rng.randint(-2, 2)) for _ in range(tens.dim)]
                                     for _ in range(3)])
            good = r.mul(_proj(tens))
            assert tens.descend_map(good) == r == _ref_descend_map(tens, good)
            if rels:
                k = next(i for i, v in enumerate(rels[0]) if v)
                bad = _bump(good, 0, k)
                assert tens.descend_map(bad) is None
                assert _ref_descend_map(tens, bad) is None
            for slot, mat in slots:
                got = tens.descend_slot(slot, mat)
                assert got is not None
                assert got == _ref_descend_slot(tens, slot, mat)
                for i in range(mat.rows):
                    for j in range(mat.cols):
                        bad = _bump(mat, i, j)
                        got = tens.descend_slot(slot, bad)
                        assert got == _ref_descend_slot(tens, slot, bad)
                        rejected_slots += got is None
    assert rejected_slots > 0


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_carried_outer_actions_match_both_descent_routes(field):
    # the outer actions carried through the pairwise quotients are the ones
    # the tensor builds on demand, and what descend_slot and the
    # relation-kernel definition give; sect is a coordinate selection,
    # which the column picks rely on
    checked = 0
    for name in sorted(FIXTURES):
        ws = load_workspace_file(fixture_path(name), field_override=field)
        for tens, _ in _fixture_tensors(ws):
            for q in range(tens.dim):
                assert [v for v in _sect(tens).col(q) if v] == [field.one]
            last = len(tens.factors) - 1
            ref_left, ref_right = _ref_carried_actions(tens)
            for slot, acts, got, ref in ((0, tens.factors[0].left_act, tens.left_act, ref_left),
                                         (last, tens.factors[-1].right_act, tens.right_act,
                                          ref_right)):
                assert len(got) == len(acts) == len(ref)
                for mat, built, carried in zip(acts, got, ref):
                    assert built == carried
                    assert carried == tens.descend_slot(slot, mat)
                    assert carried == _ref_descend_slot(tens, slot, mat)
                    checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# BalancedTensor.induced against the explicit kron composite


def _random_matrix(field, rows, cols, rng):
    return Matrix(field, rows, cols, [[field.of_int(rng.randint(-2, 2)) for _ in range(cols)]
                                      for _ in range(rows)])


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_induced_matches_kron_composite_on_fixture_tensors(field):
    rng = random.Random(5)
    checked = 0
    for name in sorted(FIXTURES):
        ws = load_workspace_file(fixture_path(name), field_override=field)
        for tens, slots in _fixture_tensors(ws):
            for slot, mat in slots:
                ref = _ref_induced(tens, None, [(slot, 1, mat)])
                assert tens.induced(None, [(slot, mat)]) == ref
                assert tens.induced(tens, [(slot, mat)]) == _proj(tens).mul(ref)
                checked += 1
            # a map on every slot at once, each changing its slot's size
            maps = [_random_matrix(field, rng.randint(0, 3), d, rng) for d in tens.dims]
            assert tens.induced(None, list(enumerate(maps))) == \
                _ref_induced(tens, None, [(i, 1, m) for i, m in enumerate(maps)])
        for ext in ws.extensions.values():
            c, d = ext.inner, ext.outer
            lift = _sect(c.cc).mul(c.coproduct)
            for slot in (0, 1):
                assert c.cc.induced(c.ccc, [(slot, lift)]) == \
                    _ref_induced(c.cc, c.ccc, [(slot, 1, lift)])
            tau = _sect(ext.cld).mul(ext.tau)
            assert c.cc.induced(ext.ccld, [(1, tau)]) == \
                _ref_induced(c.cc, ext.ccld, [(1, 1, tau)])
            assert ext.cld.induced(None, [(0, c.counit), (1, d.counit)]) == \
                _ref_induced(ext.cld, None, [(0, 1, c.counit), (1, 1, d.counit)])
    assert checked > 100


def _hopf_entwinings():
    f7 = FieldFp(7)
    for table in ([[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]):
        bial = group_hopf_algebra(f7, table, name="H")
        ent = hopf_entwining(bial, bial.algebra, bial.delta)
        yield ent, entwining_coring(ent)


def test_induced_matches_kron_composite_on_hopf_entwinings():
    rng = random.Random(3)
    for ent, (c, ext) in _hopf_entwinings():
        f, l, d = ent.field, ent.base, ent.d
        mult, psi_amb = ent.a.mult_eval(), ent.psi_amb
        daa = BalancedTensor([d.carrier, ent.a_bim, ent.a_bim], [l, l])
        ada = BalancedTensor([ent.a_bim, d.carrier, ent.a_bim], [l, l])
        # two-slot factors, with and without a change in the slot count
        assert daa.induced(ent.da, [(1, mult)]) == _ref_induced(daa, ent.da, [(1, 2, mult)])
        assert daa.induced(ada, [(0, psi_amb)]) == _ref_induced(daa, ada, [(0, 2, psi_amb)])
        # slot-count-changing factors on the coring
        lift = _sect(c.cc).mul(c.coproduct)
        for slot in (0, 1):
            assert c.cc.induced(c.ccc, [(slot, lift)]) == \
                _ref_induced(c.cc, c.ccc, [(slot, 1, lift)])
        assert c.cc.induced(None, [(1, c.counit)]) == \
            _ref_induced(c.cc, None, [(1, 1, c.counit)])
        # two non-identity factors at once, into a quotient and into the ambient
        x, y = (_random_matrix(f, c.dim, c.dim, rng) for _ in range(2))
        assert c.cc.induced(c.cc, [(0, x), (1, y)]) == \
            _ref_induced(c.cc, c.cc, [(0, 1, x), (1, 1, y)])
        tau = _sect(ext.cld).mul(ext.tau)
        assert ext.cld.induced(None, [(0, tau), (1, d.counit)]) == \
            _ref_induced(ext.cld, None, [(0, 1, tau), (1, 1, d.counit)])


def test_induced_refuses_factors_that_do_not_fit(e2):
    c = e2.corings["C"]
    with pytest.raises(UsageError, match="does not fit"):
        c.cc.induced(None, [(1, Matrix.identity(c.field, c.dim + 1))])
    with pytest.raises(UsageError, match="out of order"):
        c.cc.induced(None, [(1, c.counit), (0, c.counit)])


def test_outer_action_that_does_not_descend_is_rejected(a_quad):
    # x acting on the left as the projection onto 1 is not A-balanced:
    # it sends x (x) 1 - 1 (x) x to -(1 (x) x), which is -x, not 0, in A (x)_A A
    reg = FBimodule.regular(a_quad)
    e00 = Matrix.from_rows(F, [[F.one, F.zero], [F.zero, F.zero]])
    left = FBimodule(a_quad, a_quad, reg.dim, [Matrix.identity(F, 2), e00],
                     reg.right_act, name="bad")
    with pytest.raises(AxiomError, match="outer left action does not descend"):
        BalancedTensor([left, reg], [a_quad])


def test_non_bimodule_end_factor_keeps_the_exact_descent_check(e2, capsys, tmp_path):
    # a bumped right action of E2's carrier no longer commutes with the left
    # one, so the carried action is not installed: the exact check runs and
    # rejects the left action, as on the library and the command line
    c = e2.corings["C"].carrier
    bad_right = [_bump(c.right_act[0], 0, 1)] + list(c.right_act[1:])
    bad = FBimodule(c.left_alg, c.right_alg, c.dim, c.left_act, bad_right, name="C")
    assert c.actions_commute() and not bad.actions_commute()
    with pytest.raises(AxiomError, match=r"^tensor C\(x\)C: outer left action does not descend$"):
        BalancedTensor([bad, bad], [c.right_alg])
    with open(fixture_path("E2")) as handle:
        data = json.load(handle)
    doc = apply_perturbation(data, ("modules", "C_carrier", "right_act", 0, 1))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "axiom failure: tensor C(x)C: outer left action does not descend"


# ---------------------------------------------------------------------------
# balancing by the generators of the algebra


def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_generators_of_group_and_product_algebras(field):
    for n in (2, 3, 4):
        assert len(group_algebra(field, _cyclic(n)).generators()) == 1
    klein = [[i ^ j for j in range(4)] for i in range(4)]
    assert len(group_algebra(field, klein).generators()) == 2
    assert trivial_algebra(field).generators() == []
    assert zero_algebra(field).generators() == []
    for n in (1, 2, 3, 4):
        assert len(product_field_algebra(field, n).generators()) == n - 1


def _every_basis_element(left, alg, right):
    return range(alg.dim)


def _rebuilt_by_every_basis_element(tens, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(algmod, "_balancing_indices", _every_basis_element)
        return BalancedTensor(tens.factors, tens.algebras, name=tens.name)


def _assert_same_build(got, ref):
    # repr keeps the scalar types, so equal entries are also equal bytes
    assert repr(_proj(got).data) == repr(_proj(ref).data)
    assert got._picks == ref._picks
    for acts, ref_acts in ((got.left_act, ref.left_act), (got.right_act, ref.right_act)):
        assert [repr(a.data) for a in acts] == [repr(a.data) for a in ref_acts]


def _uses_fewer_rows(tens):
    return any(len(_balancing_indices(tens.factors[s], alg, tens.factors[s + 1])) < alg.dim
               for s, alg in enumerate(tens.algebras))


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_generator_build_matches_the_all_basis_build(field, monkeypatch):
    shortened = 0
    for name in sorted(FIXTURES):
        ws = load_workspace_file(fixture_path(name), field_override=field)
        for tens, _ in _fixture_tensors(ws):
            _assert_same_build(tens, _rebuilt_by_every_basis_element(tens, monkeypatch))
            shortened += _uses_fewer_rows(tens)
    assert shortened > 10


def test_generator_build_matches_on_the_c4_chain(c4_chain, monkeypatch):
    # C (x)_A C (x)_A C of the C4 Hopf entwining over F7 has ambient 4096,
    # the cap
    ccc = c4_chain[2].ccc
    assert ccc.ambient_dim == 4096 and _uses_fewer_rows(ccc)
    _assert_same_build(ccc, _rebuilt_by_every_basis_element(ccc, monkeypatch))


# ---------------------------------------------------------------------------
# the sparse projection against its dense definitions, and sizes that were
# too slow for a dense row reduction


def _hopf_chain(field, table):
    """The Hopf entwining coring of a group table, with the coalgebra, the
    entwining and the coring each checked in full: the builders vouch for
    them, and the checks build the three-factor tensors the tests compare."""
    bial = group_hopf_algebra(field, table, name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    c, _ = entwining_coring(ent)
    for structure in (bial.coring, ent, c):
        assert structure.validate() is True
    return bial, ent, c


@pytest.fixture(scope="module")
def klein_chain():
    # the C2 x C2 Hopf entwining over F7: C (x)_A C (x)_A C has ambient 4096
    return _hopf_chain(FieldFp(7), [[i ^ j for j in range(4)] for i in range(4)])


@pytest.fixture(scope="module")
def c4_chain():
    # the C4 Hopf entwining over F7, with the same tensor sizes
    return _hopf_chain(FieldFp(7), _cyclic(4))


@pytest.mark.parametrize("chain", ["c4_chain", "klein_chain"])
def test_outer_actions_match_the_carry_at_the_cap(chain, request):
    c = request.getfixturevalue(chain)[2]
    for tens in (c.cc, c.ccc):
        ref_left, ref_right = _ref_carried_actions(tens)
        assert tens.left_act == ref_left
        assert tens.right_act == ref_right


def test_c2xc2_chain_at_the_cap(klein_chain):
    bial, ent, c = klein_chain
    unit = list(bial.algebra.unit)
    assert (c.dim, c.cc.dim, c.ccc.dim, c.ccc.ambient_dim) == (16, 64, 256, 4096)
    assert Grouplike(c, ent.ad.pure_tensor([unit, unit])).validate() is True


def test_grouplike_coalgebra_at_the_cap_builds_no_outer_action_of_its_cubes(monkeypatch):
    # k^16 with a basis of grouplikes, a coring over k: there are no
    # balancing relations, so C (x) C (x) C and Creg (x) C (x) C keep all
    # 4096 ambient coordinates, and validation reads no outer action of them;
    # k has no generators, so the k-linearity checks read none of C (x) C
    # either; each structure identity is evaluated at Delta or rho, so every induced
    # map out of C (x) C or Creg (x) C pushes C.dim = 16 vectors, one per
    # column, and not one per basis vector of the 256-dimensional tensor
    built = []
    slot_cols = BalancedTensor._slot_cols
    monkeypatch.setattr(BalancedTensor, "_slot_cols",
                        lambda tens, *args: built.append(tens) or slot_cols(tens, *args))
    pushed = []  # [src, dst, vectors pushed] per induced call
    inside = []  # the entry of the induced call running, if any
    induced, push = BalancedTensor.induced, algmod._push

    def counting_induced(src, dst, factors, at=None):
        pushed.append([src, dst, 0])
        inside.append(pushed[-1])
        try:
            return induced(src, dst, factors, at=at)
        finally:
            inside.pop()

    def counting_push(vecs, *args):
        if inside:
            inside[-1][2] += len(vecs)
        return push(vecs, *args)

    monkeypatch.setattr(BalancedTensor, "induced", counting_induced)
    monkeypatch.setattr(algmod, "_push", counting_push)
    c = grouplike_basis_coalgebra(FieldFp(7), 16)
    assert c.validate() is True
    carrier = FBimodule.right_module(c.base, c.dim, list(c.carrier.right_act), name="Creg")
    creg = Comodule(c, carrier, c.coproduct, name="Creg")
    assert creg.validate() is True
    assert (c.cc.dim, c.ccc.dim, creg.mc.dim, creg.mcc.dim) == (256, 4096, 256, 4096)
    assert not any(tens is c.cc or tens is c.ccc or tens is creg.mcc for tens in built)
    assert c.cc._left_act is None and c.cc._right_act is None
    into_cubes = [(src, n) for src, dst, n in pushed if dst is c.ccc or dst is creg.mcc]
    # two sides per coassociativity check (the builder vouches for the
    # coalgebra, so only the check above runs)
    assert sum(src is c.cc for src, _ in into_cubes) == 2
    assert sum(src is creg.mc for src, _ in into_cubes) == 2
    assert [n for _, n in into_cubes] == [16] * 4
    assert all(n == 16 for src, _, n in pushed if src is c.cc or src is creg.mc)


def test_grouplike_coalgebra_cubes_run_only_their_last_step(monkeypatch):
    # k^16 as above: C (x) C (x) C resumes from C (x) C and Creg (x) C (x) C
    # from Creg (x) C; over k every step is relation-free, so none of the
    # four runs a quotient, and every step keeps None; and no batch of 4096
    # vectors, one per ambient coordinate of a cube, goes through the
    # kernel: validation composes no projection of the cubes
    built, runs = [], {}  # tensors built; tensor -> quotients run meanwhile
    building, batches = [], []
    init, quotient, apply_sparse = BalancedTensor.__init__, algmod.quotient, \
        algmod._apply_sparse

    def counting_init(self, *args, **kwargs):
        building.append(self)
        built.append(self)
        try:
            init(self, *args, **kwargs)
        finally:
            building.pop()

    def counting_quotient(*args):
        runs[building[-1]] = runs.get(building[-1], 0) + 1
        return quotient(*args)

    def counting_apply(vecs, *args):
        batches.append(len(vecs))
        return apply_sparse(vecs, *args)

    monkeypatch.setattr(BalancedTensor, "__init__", counting_init)
    monkeypatch.setattr(algmod, "quotient", counting_quotient)
    monkeypatch.setattr(algmod, "_apply_sparse", counting_apply)
    c = grouplike_basis_coalgebra(FieldFp(7), 16)
    carrier = FBimodule.right_module(c.base, c.dim, list(c.carrier.right_act), name="Creg")
    creg = Comodule(c, carrier, c.coproduct, name="Creg")
    assert creg.validate() is True
    assert (c.ccc.ambient_dim, creg.mcc.ambient_dim) == (4096, 4096)
    cubes = (c.cc, c.ccc, creg.mc, creg.mcc)
    assert [runs.get(t, 0) for t in cubes] == [0, 0, 0, 0]
    assert [t._steps for t in cubes] == [[None], [None, None], [None], [None, None]]
    assert batches and max(batches) < 4096
    # the builder hands Coring its ambient coproduct and builds no C (x) C
    # of its own: one C (x) C is built, not two
    squares = [t for t in built if len(t.factors) == 2 and
               all(m is c.carrier for m in t.factors)]
    assert squares == [c.cc]


def _relation_free_tensors(field):
    """Tensors no step of which has a balancing relation: the k^16
    C (x) C (x) C (ambient 4096), E5's D (x) D over k and E2's C (x)_L D
    over L = k."""
    e5 = load_workspace_file(fixture_path("E5"), field_override=field)
    e2 = load_workspace_file(fixture_path("E2"), field_override=field)
    return [grouplike_basis_coalgebra(field, 16).ccc, e5.corings["D"].cc,
            e2.extensions["ext"].cld]


def _slot_image(field, dims, slot, mat, vec):
    """(I (x) mat (x) I)·vec, mat on one slot of the dims, by index
    arithmetic: the kron-free reference on an ambient space too large for
    a dense operator."""
    left, right = prod(dims[:slot]), prod(dims[slot + 1:])
    out = []
    for a in range(left):
        for o in range(mat.rows):
            for b in range(right):
                acc = field.zero
                for i in range(mat.cols):
                    v = vec[(a * mat.cols + i) * right + b]
                    if v and mat.data[o][i]:
                        acc = field.add(acc, field.mul(mat.data[o][i], v))
                out.append(acc)
    return out


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_relation_free_tensors_keep_no_quotient_and_match_the_dense_definitions(
        field, monkeypatch):
    rng = random.Random(28)
    tensors = _relation_free_tensors(field)

    def refuse(*args):
        raise AssertionError("a relation-free step ran a row reduction")

    monkeypatch.setattr(algmod, "quotient", refuse)
    for tens in tensors:
        # rebuilt from scratch, and resumed from its leading factors
        for built in (tens, BalancedTensor(tens.factors, tens.algebras),
                      BalancedTensor(tens.factors, tens.algebras,
                                     prefix=BalancedTensor(tens.factors[:2],
                                                           tens.algebras[:1]))):
            assert built._steps == [None] * len(tens.algebras)
            assert built._picks == list(range(tens.ambient_dim)) and \
                built.dim == tens.ambient_dim
        n, one = tens.ambient_dim, field.one
        assert tens._proj_cols() == [[(a, one)] for a in range(n)]
        x = _random_matrix(field, n, 2, rng)
        rest = _random_matrix(field, 2 * n, 3, rng)
        amb = _random_matrix(field, 3, n, rng)
        slot = len(tens.dims) - 1
        end = _random_matrix(field, tens.dims[slot], tens.dims[slot], rng)
        if n > 64:
            # sect and proj are the identity: the dense definitions read
            # off without a 4096 x 4096 operator
            assert tens.lift(x) == x
            assert tens.project_head(rest, 2) == rest
            assert tens.descend_map(amb) == amb
            ref = Matrix.from_cols(field, n, [_slot_image(field, tens.dims, slot, end, col)
                                              for col in x.transpose().data])
            assert tens.induced(tens, [(slot, end)], at=x) == ref
            assert tens.induced(None, [(slot, end)], at=x) == ref
            continue
        sect, proj = _sect(tens), _proj(tens)
        assert sect == proj == Matrix.identity(field, n)
        assert tens.lift(x) == sect.mul(x)
        assert tens.project_head(rest, 2) == proj.kron(Matrix.identity(field, 2)).mul(rest)
        assert tens.descend_map(amb) == _ref_descend_map(tens, amb) == amb
        factors = [(0, _random_matrix(field, tens.dims[0], tens.dims[0], rng)), (slot, end)]
        ref = _ref_induced(tens, tens, [(s, 1, mat) for s, mat in factors])
        assert tens.induced(tens, factors) == ref
        assert tens.induced(tens, factors, at=x) == ref.mul(x)


def test_cached_nonzero_columns_are_never_stale(capsys, monkeypatch):
    # every answer _sparse_cols gives, kept from an earlier call or not,
    # equals a fresh conversion of the matrix's entries, through the
    # bundled commands on E2 and E4, over Q and with --reduce 7
    sparse_cols = algmod._sparse_cols
    kept = []

    def checked(mat, rows=None):
        kept.append(mat._nonzero_cols is not None)
        got = sparse_cols(mat, rows)
        fresh = [[] for _ in range(mat.cols)]
        for r, row in enumerate(mat.data):
            for j, v in enumerate(row):
                if v:
                    fresh[j].append((r if rows is None else rows[r], v))
        assert got == fresh
        return got

    monkeypatch.setattr(algmod, "_sparse_cols", checked)
    monkeypatch.chdir(ROOT)
    argvs = [argv for argv in WORKLOADS.cli_argvs([]) + WORKLOADS.cli_argvs(["--reduce", "7"])
             if argv[1] in (WORKLOADS.fixture_path("E2"), WORKLOADS.fixture_path("E4"))]
    assert len(argvs) == 24
    for argv in argvs:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert sum(kept) > len(kept) // 2


def _recording_resumed(monkeypatch):
    """Record (tensor, prefix) for every tensor built with a prefix while
    the returned list lives in the patched constructor."""
    resumed = []
    init = BalancedTensor.__init__

    def recording_init(self, factors, algebras, name=None, prefix=None):
        init(self, factors, algebras, name=name, prefix=prefix)
        if prefix is not None:
            resumed.append((self, prefix))

    monkeypatch.setattr(BalancedTensor, "__init__", recording_init)
    return resumed


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_resumed_tensors_match_the_build_from_scratch(field, monkeypatch):
    # every tensor built on a prefix (C (x) C (x) C on C (x) C, M (x) C (x) C
    # on M (x) C, C (x)_L D (x)_L D on C (x)_L D, and the triples of the
    # entwining axioms on D (x) A, A (x) D and D (x) D), over the eight
    # fixtures and the C3, C4 and C2 x C2 chains (the last two at the cap):
    # the same picks, projection and outer actions as the tensor built from
    # factor 0, and the same induced maps into it, at Delta, rho and tau
    # and through a seeded random map on the prefix's last slot
    rng = random.Random(29)
    resumed = _recording_resumed(monkeypatch)
    cases = []
    for name in sorted(FIXTURES):
        ws = load_workspace_file(fixture_path(name), field_override=field)
        list(_fixture_tensors(ws))
        cases += list(_structure_cases(ws))
    tables = [_cyclic(3)]
    if field != QQ:
        tables += [_cyclic(4), [[i ^ j for j in range(4)] for i in range(4)]]
    for table in tables:
        _, _, c = _hopf_chain(field, table)
        lift = _sect(c.cc).mul(c.coproduct)
        cases += [(c.cc, c.ccc, [(slot, lift)], c.coproduct) for slot in (0, 1)]
    monkeypatch.undo()
    scratch = {}
    for tens, prefix in resumed:
        ref = BalancedTensor(tens.factors, tens.algebras, name=tens.name)
        scratch[tens] = ref
        _assert_same_build(tens, ref)
        last = len(prefix.dims) - 1
        step = _random_matrix(field, prefix.dims[last] * tens.dims[last + 1],
                              prefix.dims[last], rng)
        at = _random_matrix(field, prefix.dim, 2, rng)
        assert prefix.induced(tens, [(last, step)], at=at) == \
            prefix.induced(ref, [(last, step)], at=at)
    checked = 0
    for src, dst, factors, at in cases:
        if dst in scratch:
            assert src.induced(dst, factors, at=at) == \
                src.induced(scratch[dst], factors, at=at)
            checked += 1
    # per chain: D (x) A (x) A and D (x) A (x) D on D (x) A, A (x) D (x) A
    # and A (x) D (x) D on A (x) D, and D (x) D (x) A and the coalgebra's
    # cube on D (x) D
    on = [prefix.name for _, prefix in resumed]
    assert [on.count(n) for n in ("D(x)A", "A(x)D", "H(x)H")] == [2 * len(tables)] * 3
    assert checked > 40


def test_resumed_grouplike_coalgebra_cubes_match_the_build_from_scratch(monkeypatch):
    # at the cap over k the cubes keep all 4096 coordinates: their sparse
    # projection columns and picks are compared, not a dense 4096 x 4096
    # projection or outer action
    resumed = _recording_resumed(monkeypatch)
    c = grouplike_basis_coalgebra(FieldFp(7), 16)
    c.validate()
    carrier = FBimodule.right_module(c.base, c.dim, list(c.carrier.right_act), name="Creg")
    creg = Comodule(c, carrier, c.coproduct, name="Creg")
    creg.validate()
    monkeypatch.undo()
    assert [t for t, _ in resumed] == [c.ccc, creg.mcc]
    cases = [(c.cc, c.ccc, [(slot, _sect(c.cc).mul(c.coproduct))], c.coproduct)
             for slot in (0, 1)]
    cases += [(creg.mc, creg.mcc, [(0, _sect(creg.mc).mul(creg.coaction))], creg.coaction)]
    for src, dst, factors, at in cases:
        ref = BalancedTensor(dst.factors, dst.algebras, name=dst.name)
        assert dst._picks == ref._picks
        assert repr(dst._proj_cols()) == repr(ref._proj_cols())
        assert src.induced(dst, factors, at=at) == src.induced(ref, factors, at=at)


def test_a_prefix_over_other_factors_or_algebras_is_refused(e2):
    c = e2.corings["C"]
    carrier, base = c.carrier, c.base
    twin = FBimodule(carrier.left_alg, carrier.right_alg, carrier.dim, carrier.left_act,
                     carrier.right_act, name=carrier.name)
    other = BalancedTensor([carrier, twin], [base], name="C(x)C")
    with pytest.raises(UsageError) as err:
        BalancedTensor([carrier, carrier, carrier], [base, base], name="C(x)C(x)C",
                       prefix=other)
    assert str(err.value) == "tensor C(x)C(x)C cannot resume from C(x)C: its factors " \
        "and algebras are not the leading ones"
    # k^2 over two trivial algebras: equal matrices, other module and
    # algebra objects (a factor fixes its algebras); and a longer prefix
    k = trivial_algebra(c.field)
    left = FBimodule.trivial(c.field, 2, over=k)
    flat = FBimodule.trivial(c.field, 2)
    with pytest.raises(UsageError, match="^tensor .* cannot resume from .*leading ones$"):
        BalancedTensor([left, left], [k], prefix=BalancedTensor([flat, flat], [flat.right_alg]))
    with pytest.raises(UsageError, match="^tensor .* cannot resume from .*leading ones$"):
        BalancedTensor([carrier, carrier], [base], prefix=c.ccc)


@pytest.mark.parametrize("chain", ["C3 Q", "C3 F7", "C2xC2 F7"])
def test_sparse_paths_match_their_dense_definitions(chain, klein_chain):
    if chain == "C2xC2 F7":
        _, ent, c = klein_chain
    else:
        _, ent, c = _hopf_chain(QQ if chain == "C3 Q" else FieldFp(7), _cyclic(3))
    f = c.field
    lift = _sect(c.cc).mul(c.coproduct)
    maps = [(c.cc, c.ccc, [(0, lift)]), (c.cc, c.ccc, [(1, lift)])]
    maps += [(tens, tens, [(0, act)]) for tens in (ent.ad, c.cc)
             for act in tens.factors[0].left_act]
    for src, dst, factors in maps:
        assert src.induced(dst, factors) == _proj(dst).mul(src.induced(None, factors))
    rng = random.Random(17)
    for tens in (ent.ad, c.cc, c.ccc):
        assert _proj(tens).mul(_sect(tens)) == Matrix.identity(f, tens.dim)
        vecs = [[f.of_int(rng.randint(-2, 2)) for _ in range(d)] for d in tens.dims]
        amb = [functools.reduce(f.mul, entries, f.one)
               for entries in itertools.product(*vecs)]
        assert tens.pure_tensor(vecs) == _proj(tens).mul_vec(amb)


def _structure_cases(ws):
    """(src, dst, factors, X) of the structure checks of a workspace: the
    coassociativity sides and a counit collapse of each coring at Delta, of
    each comodule at rho and of each extension's outer coaction at tau, and
    the bicomodule sides into the mixed chain."""
    for c in ws.corings.values():
        lift = _sect(c.cc).mul(c.coproduct)
        yield from ((c.cc, c.ccc, [(slot, lift)], c.coproduct) for slot in (0, 1))
        yield c.cc, None, [(1, c.counit)], c.coproduct
    for m in ws.comodules.values():
        c = m.coring
        yield m.mc, m.mcc, [(0, _sect(m.mc).mul(m.coaction))], m.coaction
        yield m.mc, m.mcc, [(1, _sect(c.cc).mul(c.coproduct))], m.coaction
        yield m.mc, None, [(1, c.counit)], m.coaction
    for ext in ws.extensions.values():
        c, d = ext.inner, ext.outer
        tau = _sect(ext.cld).mul(ext.tau)
        yield ext.cld, ext.cldd, [(0, tau)], ext.tau
        yield ext.cld, ext.cldd, [(1, _sect(d.cc).mul(d.coproduct))], ext.tau
        yield ext.cld, None, [(0, c.counit), (1, d.counit)], ext.tau
        yield c.cc, ext.ccld, [(1, tau)], c.coproduct
        yield ext.cld, ext.ccld, [(0, _sect(c.cc).mul(c.coproduct))], ext.tau


def _slot_map_cases(tensors, rng):
    """(src, dst, factors) on each tensor: one slot map into the tensor
    itself and into the ambient space, and two, each changing its slot's
    size when read in the ambient space."""
    for tens, slots in tensors:
        f, last = tens.field, len(tens.dims) - 1
        for slot, mat in slots[:2]:
            yield tens, tens, [(slot, mat)]
            yield tens, None, [(slot, mat)]
        ends = [_random_matrix(f, tens.dims[s], tens.dims[s], rng) for s in (0, last)]
        yield tens, tens, [(0, ends[0]), (last, ends[1])]
        ends = [_random_matrix(f, rng.randint(1, 3), tens.dims[s], rng) for s in (0, last)]
        yield tens, None, [(0, ends[0]), (last, ends[1])]


def _chain_tensors(ent, c):
    """The tensors of a Hopf entwining chain with the slot maps they carry."""
    for tens in (ent.ad, ent.da, c.cc, c.ccc):
        yield tens, [(0, a) for a in tens.factors[0].left_act]


@pytest.mark.parametrize("over", ["Q", "F7"])
def test_induced_at_matches_the_induced_map_times_at(over, workspaces, workspaces_f7,
                                                     klein_chain):
    # src.induced(dst, F, at=X) == src.induced(dst, F)·X on the 2- and
    # 3-factor tensors of the eight fixtures and of the C3 (and, over F7,
    # C2 x C2) chains: at the structure map a check evaluates at, at a
    # seeded random X and at an X with no columns
    field = QQ if over == "Q" else FieldFp(7)
    rng = random.Random(23)
    cases, tensors = [], []
    for ws in (workspaces if over == "Q" else workspaces_f7).values():
        cases += list(_structure_cases(ws))
        tensors += list(_fixture_tensors(ws))
    chains = [_hopf_chain(field, _cyclic(3))] + ([klein_chain] if over == "F7" else [])
    for _, ent, c in chains:
        lift = _sect(c.cc).mul(c.coproduct)
        cases += [(c.cc, c.ccc, [(slot, lift)], c.coproduct) for slot in (0, 1)]
        cases.append((c.cc, None, [(0, c.counit)], c.coproduct))
        tensors += list(_chain_tensors(ent, c))
    checked = 0
    for src, dst, factors, delta in cases:
        for at in (delta, _random_matrix(field, src.dim, 2, rng), Matrix.zero(field, src.dim, 0)):
            assert src.induced(dst, factors, at=at) == src.induced(dst, factors).mul(at)
            checked += 1
    for src, dst, factors in _slot_map_cases(tensors, rng):
        for at in (_random_matrix(field, src.dim, 3, rng), Matrix.zero(field, src.dim, 0)):
            assert src.induced(dst, factors, at=at) == src.induced(dst, factors).mul(at)
            checked += 1
    assert checked > 1000


def test_induced_at_a_matrix_of_the_wrong_height_is_refused(e2):
    c = e2.corings["C"]
    for rows in (c.cc.dim - 1, c.cc.dim + 1):
        with pytest.raises(UsageError) as err:
            c.cc.induced(None, [(1, c.counit)], at=Matrix.zero(c.field, rows, 2))
        message = str(err.value)
        assert "\n" not in message
        assert message == "a map out of C(x)C (dimension %d) cannot be evaluated at a " \
            "%dx2 matrix" % (c.cc.dim, rows)


def _random_basis_module(field, dim):
    """A = k[x]/(x^2 - 2) and the bimodule A^(dim/2) written in a random
    basis: its actions conjugated by the first invertible P with entries in
    -3..3 that random.Random(1) draws.  The balancing relations of M (x)_A M
    then fill in under elimination."""
    a = quotient_polynomial_algebra(field, [field.of_int(2), field.zero], name="A")
    rng = random.Random(1)
    while True:
        p = Matrix.from_rows(field, [[field.of_int(rng.randint(-3, 3)) for _ in range(dim)]
                                     for _ in range(dim)])
        if rank(p) == dim:
            break
    p_inv = inverse(p)
    blocks = Matrix.identity(field, dim // 2)
    acts = [[p.mul(blocks.kron(op(i))).mul(p_inv) for i in range(a.dim)]
            for op in (a.lmul, a.rmul)]
    return FBimodule(a, a, dim, acts[0], acts[1], name="M"), a


@pytest.mark.parametrize("field, dim", [(FieldFp(7), 16), (QQ, 8)], ids=["F7 16", "Q 8"])
def test_balanced_tensor_of_a_random_basis_module(field, dim):
    m, a = _random_basis_module(field, dim)
    tens = BalancedTensor([m, m], [a])
    assert tens.dim == dim * dim // 2
    assert _proj(tens).mul(_sect(tens)) == Matrix.identity(field, tens.dim)


def test_invalid_or_foreign_factors_balance_by_every_basis_element(monkeypatch):
    c3 = group_algebra(F, _cyclic(3), name="C3")
    assert c3.generators() == [1]
    reg = FBimodule.regular(c3)
    # the unit acts as zero on the left: not unital, so x (x) y is itself a
    # relation (from b = 1), and the tensor collapses
    zero_unit = FBimodule(c3, c3, 3, [Matrix.zero(F, 3, 3)] + reg.left_act[1:],
                          reg.right_act, name="u")
    # g^2 acts on the left by something else than g·g: not associative, so
    # the relations from b = g^2 are not those of the generator g
    twisted = FBimodule(c3, c3, 3, reg.left_act[:2] + [_bump(reg.left_act[2], 0, 0)],
                        reg.right_act, name="t")
    for bad in (zero_unit, twisted):
        assert not bad.is_valid()
        assert list(_balancing_indices(reg, c3, bad)) == [0, 1, 2]
        assert list(_balancing_indices(bad, c3, reg)) == [0, 1, 2]
        full = BalancedTensor([reg, bad], [c3])
        with monkeypatch.context() as patch:
            patch.setattr(algmod, "_balancing_indices",
                          lambda left, alg, right: alg.generators())
            assert BalancedTensor([reg, bad], [c3]).dim > full.dim
    # an algebra with the same name is another algebra: the tensor asks for
    # the very object the modules are over, and so does the shortcut
    twin = group_algebra(F, _cyclic(3), name="C3")
    assert reg.is_valid()
    assert list(_balancing_indices(reg, twin, reg)) == [0, 1, 2]
    with pytest.raises(UsageError, match="factor 0 is not a right C3-module"):
        BalancedTensor([reg, reg], [twin])


def _ref_lift_pairs(tens, vec):
    amb = _sect(tens).mul_vec(vec)
    # the ambient index of a multi-index is its row-major rank, so the
    # product runs through the ambient coordinates in order
    multis = itertools.product(*(range(d) for d in tens.dims))
    return [(multi, c) for multi, c in zip(multis, amb) if c]


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_lift_pairs_matches_the_section_route(field):
    rng = random.Random(13)
    checked = 0
    for name in sorted(FIXTURES):
        ws = load_workspace_file(fixture_path(name), field_override=field)
        for tens, _ in _fixture_tensors(ws):
            vecs = [unit_vec(field, tens.dim, q) for q in range(tens.dim)]
            vecs += [[field.of_int(rng.randint(-2, 2)) for _ in range(tens.dim)]
                     for _ in range(3)]
            for vec in vecs:
                assert tens.lift_pairs(vec) == _ref_lift_pairs(tens, vec)
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# the ambient forms of Delta, rho and tau against the dense section


_FORMS = {Coring: ("cc", "coproduct"), Comodule: ("mc", "coaction"),
          CoringExtension: ("cld", "tau")}


def _structures(ws):
    return [*ws.corings.values(), *ws.comodules.values(), *ws.extensions.values()]


def _forms(obj):
    """(tensor, quotient form, ambient form) of Delta, rho or tau."""
    tens, form = _FORMS[type(obj)]
    return getattr(obj, tens), getattr(obj, form), getattr(obj, form + "_amb")


def _rebuild(obj, x):
    """obj built again with x in place of its Delta, rho or tau."""
    if isinstance(obj, Coring):
        return Coring(obj.base, obj.carrier, x, obj.counit, name=obj.name)
    if isinstance(obj, Comodule):
        return Comodule(obj.coring, obj.carrier, x, name=obj.name)
    return CoringExtension(obj.inner, obj.outer, obj.right_l_act, x,
                           split_map=obj.split_map, name=obj.name)


def _chain_structures(table):
    """The structures of a Hopf entwining chain over F7: its coring, the
    outer coring, Sigma through the grouplike 1 (x) 1, and the extension."""
    bial, ent, _ = _hopf_chain(FieldFp(7), table)
    c, ext = entwining_coring(ent)
    unit = list(bial.algebra.unit)
    return [c, ext.outer, grouplike_comodule(Grouplike(c, ent.ad.pure_tensor([unit, unit]))),
            ext]


def _sweedler_structures(field):
    """The Sweedler corings of M2 ⊇ diagonal and T2 ⊇ diagonal and Sigma
    through each grouplike."""
    out = []
    for c, g in matrix_unit_sweedler_corings(field).values():
        assert c.cc.dim < c.cc.ambient_dim
        out += [c, grouplike_comodule(g)]
    return out


@pytest.mark.parametrize("over", ["Q", "F7", "C2 F7", "C3 F7"])
def test_lift_and_the_ambient_forms_match_the_dense_section(over, workspaces,
                                                            workspaces_f7):
    # lift(X) is sect·X, and the ambient form each structure keeps is sect
    # times its quotient form; lift at the quotient form, at a seeded random
    # X and at an X with no columns
    if over in ("Q", "F7"):
        structures = [obj for ws in (workspaces if over == "Q" else workspaces_f7).values()
                      for obj in _structures(ws)]
    else:
        structures = _chain_structures(_cyclic(2 if over == "C2 F7" else 3))
    rng = random.Random(31)
    for obj in structures:
        tens, quot, amb = _forms(obj)
        sect = _sect(tens)
        assert amb == sect.mul(quot)
        for x in (quot, _random_matrix(tens.field, tens.dim, 2, rng),
                  Matrix.zero(tens.field, tens.dim, 0)):
            assert tens.lift(x) == sect.mul(x)
    assert {type(obj) for obj in structures} == set(_FORMS)


def test_lift_refuses_a_matrix_of_the_wrong_height(e2):
    c = e2.corings["C"]
    with pytest.raises(UsageError) as err:
        c.cc.lift(Matrix.zero(c.field, c.cc.dim + 1, 2))
    assert str(err.value) == "a %dx2 matrix cannot be lifted from C(x)C (dimension %d)" \
        % (c.cc.dim + 1, c.cc.dim)


@pytest.mark.parametrize("over", ["Q", "F7", "Sweedler Q", "Sweedler F3"])
def test_constructors_project_ambient_input_like_the_dense_projection(
        over, workspaces, workspaces_f7):
    # an ambient Delta, rho or tau is projected through the sparse steps;
    # the structure equals the one built from the dense proj·X, at X the
    # structure's own ambient form (which gives the structure back) and at
    # that form plus a fixed matrix with entries off the picked coordinates
    if over in ("Q", "F7"):
        structures = [obj for ws in (workspaces if over == "Q" else workspaces_f7).values()
                      for obj in _structures(ws)]
    else:
        structures = _sweedler_structures(QQ if over == "Sweedler Q" else FieldFp(3))
    for obj in structures:
        tens, quot, amb = _forms(obj)
        f = tens.field
        filler = Matrix(f, tens.ambient_dim, quot.cols,
                        [[f.of_int((3 * r + 5 * j) % 7 - 3) for j in range(quot.cols)]
                         for r in range(tens.ambient_dim)])
        for x in (amb, amb.add(filler)):
            got, ref = _rebuild(obj, x), _rebuild(obj, _proj(tens).mul(x))
            got_tens, got_quot, got_amb = _forms(got)
            assert got_quot == _forms(ref)[1]
            assert got_amb == _forms(ref)[2] == _sect(got_tens).mul(got_quot)
            if x is amb:
                assert got_quot == quot


@pytest.mark.parametrize("over", ["Q", "F7"])
def test_to_json_writes_sect_times_each_quotient_form(over, workspaces, workspaces_f7):
    # the coproduct, coaction and tau blocks a workspace writes are sect
    # times the quotient form, whichever route builds the ambient form
    for ws in (workspaces if over == "Q" else workspaces_f7).values():
        out, f = ws.to_json(), ws.field
        blocks = [(out["corings"][n]["coproduct"], c.cc, c.coproduct)
                  for n, c in ws.corings.items()]
        blocks += [(out["comodules"][n]["coaction"], m.mc, m.coaction)
                   for n, m in ws.comodules.items()]
        blocks += [(out["extensions"][n]["tau"], e.cld, e.tau)
                   for n, e in ws.extensions.items()]
        for block, tens, quot in blocks:
            assert block == _ser_matrix(f, _sect(tens).mul(quot))


# ---------------------------------------------------------------------------
# MatrixSpace coordinates against the solve_linear definition


def _solved_coords(basis, mat):
    """The coordinates of mat in a list of matrices as solve_linear's
    canonical solution, or None; the empty list spans only zero."""
    if not basis:
        return [] if mat.is_zero() else None
    cols = [flatten_matrix(b) for b in basis]
    return solve_linear(Matrix.from_cols(mat.field, len(cols[0]), cols),
                        flatten_matrix(mat))


def _solved_spaces(ws):
    """The solved spaces a run over the workspace builds: both contexts of
    each comodule, the hom space of its canonical map at the base, and the
    extension context wherever the comodule's left algebra is the outer
    base of a pure extension."""
    for name in sorted(ws.comodules):
        sigma = ws.comodules[name]
        cm = context_M(sigma)
        cn = ModuleContext(cm)
        yield from (cm.dual.space, cm.end.space, cm.q.space, cm.q.sigma_dual.space,
                    cn.end_space, cn.homs)
        yield CanonicalMap(sigma, regular_right_module(sigma.coring.base), end=cm.end).homs
        for ext in ws.extensions.values():
            if ext.inner is not sigma.coring or \
                    sigma.carrier.left_alg.dim != ext.outer.base.dim:
                continue
            purity_check(ext, [sigma])
            if ext.purity_certificate == "not-pure":
                continue
            ec = ExtContext(ext, cm)
            yield from (ec.v_space, ec.u_space, ec.p_space, ec.qt.space)


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
def test_space_coords_match_solve_linear(field):
    rng = random.Random(11)
    checked = rejected = 0
    for name in sorted(FIXTURES):
        ws = load_workspace_file(fixture_path(name), field_override=field)
        for space in _solved_spaces(ws):
            f, n = space.field, space.dim
            combos = [[f.of_int(int(i == k)) for i in range(n)] for k in range(n)]
            combos += [[f.of_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(3)]
            for coeffs in combos:
                mat = space.element(coeffs)
                assert space.coords(mat) == coeffs == _solved_coords(space.basis, mat)
                size = space.rows * space.cols
                if not size:
                    continue
                pivots = set(space.span.pivots)
                spots = [rng.randrange(size) for _ in range(2)]
                spots += [i for i in range(size) if i not in pivots][:1]
                for spot in spots:
                    bad = _bump(mat, spot // space.cols, spot % space.cols)
                    got = space.coords(bad)
                    assert got == _solved_coords(space.basis, bad)
                    rejected += got is None
            checked += 1
    assert checked > 100 and rejected > 0


def test_matrix_space_refuses_a_non_canonical_list(e2):
    space = context_M(e2.comodules["Sigma"]).dual.space
    f, basis = space.field, space.basis
    assert space.dim >= 2
    zero = Matrix.zero(f, space.rows, space.cols)
    # a non-unit pivot, unsorted, a repeated vector, unreduced (nonzero at
    # a later pivot), and a zero vector: the shape of the RREF decides each
    for bad in ([b.scale(f.of_int(2)) for b in basis], basis[::-1],
                basis + [basis[0]], [basis[0].add(basis[1])] + basis[1:],
                basis + [zero], [zero]):
        with pytest.raises(UsageError, match="not the canonical basis"):
            MatrixSpace(f, space.rows, space.cols, bad)
    assert MatrixSpace(f, space.rows, space.cols, basis).span == space.span
    assert [flatten_matrix(b) for b in basis] == space.span.basis


# ---------------------------------------------------------------------------
# action matrices against their dense definitions


def _ref_combination(field, dim, mats, vec):
    """sum_i vec[i]·mats[i] as it was built before the one-pass kernel: a
    zero matrix, then a scaled copy and a sum per nonzero coefficient."""
    out = Matrix.zero(field, dim, dim)
    for i, c in enumerate(vec):
        if c != field.zero:
            out = out.add(mats[i].scale(c))
    return out


def _ref_mult_eval(alg):
    n = alg.dim
    out = Matrix.zero(alg.field, n, n * n)
    for i in range(n):
        for j in range(n):
            for r in range(n):
                out.data[r][i * n + j] = alg.mul[i][j][r]
    return out


def _ref_left_eval(m):
    n, d = m.left_alg.dim, m.dim
    out = Matrix.zero(m.field, d, n * d)
    for i in range(n):
        for j in range(d):
            for r in range(d):
                out.data[r][i * d + j] = m.left_act[i].data[r][j]
    return out


def _ref_right_eval(m):
    n, d = m.right_alg.dim, m.dim
    out = Matrix.zero(m.field, d, d * n)
    for j in range(d):
        for i in range(n):
            col = m.right_act[i].col(j)
            for r in range(d):
                out.data[r][j * n + i] = col[r]
    return out


def _ref_orbit(field, dim, acts, x):
    """a -> a acting on e_x, column i the action of e_i applied to e_x."""
    return Matrix.from_cols(field, dim, [act.col(x) for act in acts])


def _probe_vectors(field, n):
    """The basis vectors, the zero vector, the all-ones vector and one with
    entries 1, -2, 3, ..., so scaling, cancellation and fill-in all show."""
    return ([unit_vec(field, n, i) for i in range(n)] +
            [[field.zero] * n, [field.one] * n,
             [field.of_int((-1) ** i * (i + 1)) for i in range(n)]])


@pytest.mark.parametrize("over", ["Q", "F7"])
def test_action_matrices_match_their_dense_definitions(over, workspaces, workspaces_f7):
    """On every algebra and module of every fixture: the one-pass
    combination against summing scaled copies, the evaluation maps against
    their row-major loops (built once), and the orbit maps against the
    columns of the actions, also as the actions of the probe vectors read at
    one column."""
    spaces = workspaces if over == "Q" else workspaces_f7
    algebras = modules = 0
    for name in FIXTURES:
        ws = spaces[name]
        for alg in ws.algebras.values():
            f, n = alg.field, alg.dim
            lmuls = [alg.lmul(i) for i in range(n)]
            rmuls = [alg.rmul(i) for i in range(n)]
            for vec in _probe_vectors(f, n):
                assert alg.lmul_vec(vec) == _ref_combination(f, n, lmuls, vec)
                assert alg.rmul_vec(vec) == _ref_combination(f, n, rmuls, vec)
            assert alg.mult_eval() == _ref_mult_eval(alg)
            assert alg.mult_eval() is alg.mult_eval()
            algebras += 1
        for m in ws.modules.values():
            f, d = m.field, m.dim
            assert m.left_eval() == _ref_left_eval(m)
            assert m.right_eval() == _ref_right_eval(m)
            assert m.left_eval() is m.left_eval() and m.right_eval() is m.right_eval()
            for side, acts, alg in (("left", m.left_act, m.left_alg),
                                    ("right", m.right_act, m.right_alg)):
                act_vec = getattr(m, side + "_act_vec")
                orbits = getattr(m, side + "_orbits")()
                assert orbits == [_ref_orbit(f, d, acts, x) for x in range(d)]
                for vec in _probe_vectors(f, alg.dim):
                    action = act_vec(vec)
                    assert action == _ref_combination(f, d, acts, vec)
                    assert [orbit.mul_vec(vec) for orbit in orbits] == \
                        [action.col(x) for x in range(d)]
            modules += 1
    assert (algebras, modules) == (11, 33)


def test_module_shapes_match_their_dense_definitions():
    """The block-diagonal direct sum and the bimodule through a unit map,
    against building the matrices entry by entry."""
    f = QQ
    a = product_field_algebra(f, 2, name="A")
    b = quotient_polynomial_algebra(f, [f.of_int(2), f.zero], name="B")
    free = regular_right_module(b, 3)
    for i in range(b.dim):
        ref = Matrix.zero(f, 3 * b.dim, 3 * b.dim)
        for copy in range(3):
            for r in range(b.dim):
                for s in range(b.dim):
                    ref.data[copy * b.dim + r][copy * b.dim + s] = b.rmul(i).data[r][s]
        assert free.right_act[i] == ref
    assert free.left_act == [Matrix.identity(f, 3 * b.dim)]
    # A over itself through the identity is the regular bimodule
    eta = Matrix.identity(f, 2)
    through = FBimodule.through(a, a, eta)
    assert through.left_act == [a.lmul(i) for i in range(2)]
    assert through.right_act == [a.rmul(i) for i in range(2)]
    through.validate()


# ---------------------------------------------------------------------------
# action identities decided on the generators (FiniteAlgebra.first_failing)


def _both_ways(run, monkeypatch):
    """run() as it is, and again with every basis index deciding each
    action identity, hom-space linearity and balancing step."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(FiniteAlgebra, "deciding_indices",
                      lambda alg, premise: range(alg.dim))
        ref = run()
    return got, ref


def _command(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def test_generator_checks_give_the_commands_the_same_stdout(monkeypatch):
    argvs = WORKLOADS.cli_argvs([]) + WORKLOADS.cli_argvs(["--reduce", "7"])
    got, ref = _both_ways(lambda: [_command(argv) for argv in argvs], monkeypatch)
    assert len(got) == 96 and got == ref


def _verdicts(text):
    """Each validator's verdict on a workspace document, every one run, in
    the order of the validate command."""
    try:
        ws = load_workspace(text)
    except (AxiomError, UsageError, ParseError) as exc:
        return ["load: %s" % exc]
    out = []
    for table in (ws.algebras, ws.modules, ws.corings, ws.comodules, ws.grouplikes,
                  ws.extensions):
        for name in sorted(table):
            try:
                out.append(table[name].validate())
            except (AxiomError, UsageError) as exc:
                out.append(str(exc))
    return out


def test_generator_checks_give_the_perturbations_the_same_verdicts(monkeypatch):
    docs = []
    for name in sorted(FIXTURES):
        with open(fixture_path(name)) as handle:
            data = json.load(handle)
        ws = load_workspace_file(fixture_path(name))
        docs += [json.dumps(apply_perturbation(data, site, delta=delta))
                 for site, delta in chosen_perturbations(data, ws)]
    got, ref = _both_ways(lambda: [_verdicts(doc) for doc in docs], monkeypatch)
    assert len(got) == 160 and got == ref
    assert all(any(v is not True for v in verdicts) for verdicts in got)


def _chain_results(table):
    bial, ent, c = _hopf_chain(FieldFp(7), table)
    unit = list(bial.algebra.unit)
    sigma = grouplike_comodule(Grouplike(c, ent.ad.pure_tensor([unit, unit])))
    return [repr(x) for x in (c.coproduct.data, c.counit.data, c.cc._picks,
                              sigma.coaction.data, sigma.mc._picks)] + \
        [c.validate(), sigma.validate(), c.ccc.dim]


@pytest.mark.parametrize("table", [_cyclic(2), _cyclic(3), _cyclic(4),
                                   [[i ^ j for j in range(4)] for i in range(4)]],
                         ids=["C2", "C3", "C4", "C2xC2"])
def test_generator_checks_give_the_zoo_chains_the_same_results(table, monkeypatch):
    got, ref = _both_ways(lambda: _chain_results(table), monkeypatch)
    assert got == ref


def _twisted_c3():
    """k·1 + k·x + k·y with x·x = y, x·y = y·x = 1 as in C3, but y·y = 0:
    unital, generated by x, not associative."""
    f = F
    e = [unit_vec(f, 3, i) for i in range(3)]
    zero = [f.zero] * 3
    mul = [[e[0], e[1], e[2]], [e[1], e[2], e[0]], [e[2], e[0], zero]]
    return FiniteAlgebra(f, 3, mul, e[0], name="T")


def test_a_non_associative_algebra_names_its_first_failing_pair():
    t = _twisted_c3()
    assert t.generators() == [1]
    with pytest.raises(AxiomError) as err:
        t.validate()
    assert str(err.value) == "algebra T: associativity fails at basis pair (1,1)"
    assert not t.is_valid()


def test_a_module_over_a_non_associative_algebra_names_its_first_failing_pair():
    # C3's regular action: associative at every (i, x) for the generator x,
    # and not at (y, y), since y·y = 0 in T
    t = _twisted_c3()
    c3 = FBimodule.regular(group_algebra(F, _cyclic(3)))
    m = FBimodule.left_module(t, 3, c3.left_act, name="M")
    assert all(m.left_act[i].mul(m.left_act[1]) == m.left_act_vec(t.mul[i][1])
               for i in range(3))
    with pytest.raises(AxiomError) as err:
        m.validate()
    assert str(err.value) == "module M: left action not associative at (2,2)"


def test_a_comodule_over_a_coring_with_a_non_unital_carrier_keeps_its_message():
    # E1's base is k, which has no generators: only the coring's carrier in
    # the premise sends the check over the basis, where it fails
    with open(fixture_path("E1")) as handle:
        data = json.load(handle)
    doc = apply_perturbation(data, ("modules", "C_carrier", "right_act", 0, 0))
    ws = load_workspace(json.dumps(doc))
    sigma = ws.comodules["Sigma"]
    assert sigma.coring.base.generators() == [] and sigma.carrier.is_valid()
    assert not sigma.coring.carrier.is_valid()
    with pytest.raises(AxiomError) as err:
        sigma.validate()
    assert str(err.value) == "comodule Sigma: coaction not right A-linear at basis 0"
