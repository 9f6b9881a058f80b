"""Algebra/bimodule layer: balanced tensors, hom spaces, certificates."""

import functools
import itertools
import json
import random

import pytest

from conftest import fixture_path
from perturb import apply_perturbation
from coringlab import algmod
from coringlab.algmod import (BalancedTensor, FBimodule, FiniteAlgebra,
                              MatrixSpace, _balancing_indices, algebra_map_check,
                              fgp_check, generator_check, hom_space,
                              non_multiplicative_at, span_witness, tensor_algebra,
                              trivial_algebra, zero_algebra)
from coringlab.cli import main
from coringlab.coring import Grouplike
from coringlab.exactla import (AxiomError, FieldFp, Matrix, QQ, UsageError,
                               flatten_matrix, kernel, rank, solve_linear, solve_many,
                               unit_vec)
from coringlab.extension import ExtContext, purity_check
from coringlab.galois import CanonicalMap, regular_right_module
from coringlab.morita import ModuleContext, context_M
from coringlab.workspace import load_workspace_file
from coringlab.zoo import (FIXTURES, entwining_coring, group_algebra,
                           group_hopf_algebra, hopf_entwining,
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
    cmp_map = left.proj().mul(pair.sect().kron(ident).mul(
        pair.proj().kron(ident))).mul(left.sect())
    assert rank(cmp_map) == left.dim
    assert solve_many(cmp_map, Matrix.identity(F, left.dim)) is not None


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
    rels = kernel(tens.proj()).basis
    if any(any(amb_map.mul_vec(rel)) for rel in rels):
        return None
    return amb_map.mul(tens.sect())


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
    out = _ref_operator(src, factors).mul(src.sect())
    return out if dst is None else dst.proj().mul(out)


def _ref_descend_slot(tens, slot, mat):
    rels = kernel(tens.proj()).basis
    proj_op = tens.proj().mul(_ref_operator(tens, [(slot, 1, mat)]))
    if any(any(proj_op.mul_vec(rel)) for rel in rels):
        return None
    return proj_op.mul(tens.sect())


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
            rels = kernel(tens.proj()).basis
            # a balanced map R·proj, and the same map bumped on a relation
            r = Matrix.from_rows(f, [[f.of_int(rng.randint(-2, 2)) for _ in range(tens.dim)]
                                     for _ in range(3)])
            good = r.mul(tens.proj())
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
    # the outer actions carried through the pairwise quotients are what
    # descend_slot and the relation-kernel definition give, and sect is a
    # coordinate selection, which the column picks rely on
    checked = 0
    for name in sorted(FIXTURES):
        ws = load_workspace_file(fixture_path(name), field_override=field)
        for tens, _ in _fixture_tensors(ws):
            for q in range(tens.dim):
                assert [v for v in tens.sect().col(q) if v] == [field.one]
            last = len(tens.factors) - 1
            for slot, acts, got in ((0, tens.factors[0].left_act, tens.left_act),
                                    (last, tens.factors[-1].right_act, tens.right_act)):
                assert len(got) == len(acts)
                for mat, carried in zip(acts, got):
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
                assert tens.induced(tens, [(slot, mat)]) == tens.proj().mul(ref)
                checked += 1
            # a map on every slot at once, each changing its slot's size
            maps = [_random_matrix(field, rng.randint(0, 3), d, rng) for d in tens.dims]
            assert tens.induced(None, list(enumerate(maps))) == \
                _ref_induced(tens, None, [(i, 1, m) for i, m in enumerate(maps)])
        for ext in ws.extensions.values():
            c, d = ext.inner, ext.outer
            lift = c.cc.sect().mul(c.coproduct)
            for slot in (0, 1):
                assert c.cc.induced(c.ccc, [(slot, lift)]) == \
                    _ref_induced(c.cc, c.ccc, [(slot, 1, lift)])
            tau = ext.cld.sect().mul(ext.tau)
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
        mult, psi_amb = ent.a.mult_eval(), ent.psi_ambient()
        daa = BalancedTensor([d.carrier, ent.a_bim, ent.a_bim], [l, l])
        ada = BalancedTensor([ent.a_bim, d.carrier, ent.a_bim], [l, l])
        # two-slot factors, with and without a change in the slot count
        assert daa.induced(ent.da, [(1, mult)]) == _ref_induced(daa, ent.da, [(1, 2, mult)])
        assert daa.induced(ada, [(0, psi_amb)]) == _ref_induced(daa, ada, [(0, 2, psi_amb)])
        # slot-count-changing factors on the coring
        lift = c.cc.sect().mul(c.coproduct)
        for slot in (0, 1):
            assert c.cc.induced(c.ccc, [(slot, lift)]) == \
                _ref_induced(c.cc, c.ccc, [(slot, 1, lift)])
        assert c.cc.induced(None, [(1, c.counit)]) == \
            _ref_induced(c.cc, None, [(1, 1, c.counit)])
        # two non-identity factors at once, into a quotient and into the ambient
        x, y = (_random_matrix(f, c.dim, c.dim, rng) for _ in range(2))
        assert c.cc.induced(c.cc, [(0, x), (1, y)]) == \
            _ref_induced(c.cc, c.cc, [(0, 1, x), (1, 1, y)])
        tau = ext.cld.sect().mul(ext.tau)
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
    assert repr(got.proj().data) == repr(ref.proj().data)
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


def test_generator_build_matches_on_the_c4_chain(monkeypatch):
    # C (x)_A C (x)_A C of the C4 Hopf entwining over F7 has ambient 4096,
    # the cap
    bial = group_hopf_algebra(FieldFp(7), _cyclic(4), name="H")
    c, _ = entwining_coring(hopf_entwining(bial, bial.algebra, bial.delta))
    ccc = c.ccc
    assert ccc.ambient_dim == 4096 and _uses_fewer_rows(ccc)
    _assert_same_build(ccc, _rebuilt_by_every_basis_element(ccc, monkeypatch))


# ---------------------------------------------------------------------------
# the sparse projection against its dense definitions, and sizes that were
# too slow for a dense row reduction


def _hopf_chain(field, table):
    bial = group_hopf_algebra(field, table, name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    c, _ = entwining_coring(ent)
    return bial, ent, c


@pytest.fixture(scope="module")
def klein_chain():
    # the C2 x C2 Hopf entwining over F7: C (x)_A C (x)_A C has ambient 4096
    return _hopf_chain(FieldFp(7), [[i ^ j for j in range(4)] for i in range(4)])


def test_c2xc2_chain_at_the_cap(klein_chain):
    bial, ent, c = klein_chain
    unit = list(bial.algebra.unit)
    assert (c.dim, c.cc.dim, c.ccc.dim, c.ccc.ambient_dim) == (16, 64, 256, 4096)
    assert Grouplike(c, ent.ad.pure_tensor([unit, unit])).validate() is True


@pytest.mark.parametrize("chain", ["C3 Q", "C3 F7", "C2xC2 F7"])
def test_sparse_paths_match_their_dense_definitions(chain, klein_chain):
    if chain == "C2xC2 F7":
        _, ent, c = klein_chain
    else:
        _, ent, c = _hopf_chain(QQ if chain == "C3 Q" else FieldFp(7), _cyclic(3))
    f = c.field
    lift = c.cc.sect().mul(c.coproduct)
    maps = [(c.cc, c.ccc, [(0, lift)]), (c.cc, c.ccc, [(1, lift)])]
    maps += [(tens, tens, [(0, act)]) for tens in (ent.ad, c.cc)
             for act in tens.factors[0].left_act]
    for src, dst, factors in maps:
        assert src.induced(dst, factors) == dst.proj().mul(src.induced(None, factors))
    rng = random.Random(17)
    for tens in (ent.ad, c.cc, c.ccc):
        assert tens.proj().mul(tens.sect()) == Matrix.identity(f, tens.dim)
        vecs = [[f.of_int(rng.randint(-2, 2)) for _ in range(d)] for d in tens.dims]
        amb = [functools.reduce(f.mul, entries, f.one)
               for entries in itertools.product(*vecs)]
        assert tens.pure_tensor(vecs) == tens.proj().mul_vec(amb)


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
    p_inv = solve_many(p, Matrix.identity(field, dim))
    blocks = Matrix.identity(field, dim // 2)
    acts = [[p.mul(blocks.kron(op(i))).mul(p_inv) for i in range(a.dim)]
            for op in (a.lmul, a.rmul)]
    return FBimodule(a, a, dim, acts[0], acts[1], name="M"), a


@pytest.mark.parametrize("field, dim", [(FieldFp(7), 16), (QQ, 8)], ids=["F7 16", "Q 8"])
def test_balanced_tensor_of_a_random_basis_module(field, dim):
    m, a = _random_basis_module(field, dim)
    tens = BalancedTensor([m, m], [a])
    assert tens.dim == dim * dim // 2
    assert tens.proj().mul(tens.sect()) == Matrix.identity(field, tens.dim)


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
    amb = tens.sect().mul_vec(vec)
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
    for bad in ([b.scale(f.of_int(2)) for b in basis], basis[::-1],
                basis + [basis[0]], [basis[0].add(basis[1])] + basis[1:]):
        with pytest.raises(UsageError, match="not the canonical basis"):
            MatrixSpace(f, space.rows, space.cols, bad)
    assert MatrixSpace(f, space.rows, space.cols, basis).span == space.span
    assert [flatten_matrix(b) for b in basis] == space.span.basis
