"""Constructor families and the bundled fixtures."""

import itertools
import json
from collections import Counter

import pytest

from coringlab import zoo
from coringlab.algmod import BalancedTensor, FiniteAlgebra, tensor_algebra, trivial_algebra
from coringlab.coring import Comodule, Grouplike, grouplike_comodule
from coringlab.exactla import AxiomError, FieldFp, Matrix, QQ, side_by_side, unit_vec
from coringlab.extension import ExtContext, purity_check
from coringlab.morita import context_M
from coringlab.galois import cleft_check
from coringlab.zoo import (BialgebraData, EntwiningStructure, PartialGroupAction,
                           build_fixture, entwining_coring, group_algebra,
                           group_hopf_algebra, grouplike_basis_coalgebra,
                           hopf_entwining, partial_action_coring,
                           product_field_algebra, quotient_polynomial_algebra,
                           subalgebra_from_span, sweedler_coring,
                           weak_entwining_coring, weak_cleft_translation)
from conftest import _proj, _sect
from perturb import run_perturbations

F = QQ
C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


# ---------------------------------------------------------------------------
# entwining constructors


def test_trivial_flip_entwining_gives_the_coalgebra():
    a = trivial_algebra(F)
    d = grouplike_basis_coalgebra(F, 2, name="D")
    psi = Matrix.identity(F, 2)
    ent = EntwiningStructure(a, d, psi, name="flip")
    ent.validate()
    c, ext = entwining_coring(ent)
    assert c.dim == d.dim
    assert ext.purity_certificate == "pure-by-split"


def test_entwining_axiom_failure_is_named():
    a = group_algebra(F, C2, name="A")
    d = grouplike_basis_coalgebra(F, 2, name="D")
    psi = Matrix.zero(F, 4, 4)  # violates the unit axiom
    ent = EntwiningStructure(a, d, psi, name="bad")
    with pytest.raises(AxiomError) as err:
        ent.validate()
    assert "axiom" in str(err.value)


def test_hopf_entwining_e2_shape():
    bial = group_hopf_algebra(F, C2, name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    c, ext = entwining_coring(ent)
    assert c.dim == 4


def test_hopf_entwining_c3_over_f7():
    f7 = FieldFp(7)
    bial = group_hopf_algebra(f7, C3, name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    c, ext = entwining_coring(ent)
    assert c.dim == 9
    g = Grouplike(c, ent.ad.pure_tensor([list(bial.algebra.unit),
                                         list(bial.algebra.unit)]))
    g.validate()


def _l_trivial(psi, name="L-trivial"):
    """An entwining of L = k x k with the trivial L-coring D = L over L."""
    l = product_field_algebra(F, 2, name="L")
    d = zoo.trivial_coring(l, name="D")
    return EntwiningStructure(l, d, psi, base=l, eta=Matrix.identity(F, 2), name=name)


def _flip():
    """The flip d (x) a -> a (x) d on the ambient L x L."""
    psi = Matrix.zero(F, 4, 4)
    for i in range(2):
        for j in range(2):
            psi.data[j * 2 + i][i * 2 + j] = F.one
    return psi


def test_l_base_entwining_trivial():
    # D (x)_L L collapses to L, where the flip is the identity
    ent = _l_trivial(_flip())
    l = ent.a
    assert ent.psi == Matrix.identity(F, 2)
    ent.validate()
    c, ext = entwining_coring(ent)
    assert c.dim == l.dim
    cert = purity_check(ext, [])
    assert cert.verdict == "pure-by-split"


def test_entwining_that_is_not_balanced_is_refused():
    # e_0 (x) e_1 is a balancing relation of D (x)_L L; sending it to
    # e_0 (x) e_0, which is not zero in L (x)_L D, is not a map on the
    # quotient
    psi = Matrix.zero(F, 4, 4)
    psi.data[0][1] = F.one
    with pytest.raises(AxiomError, match=r"^entwining bad: the map is not balanced$"):
        _l_trivial(psi, name="bad")


def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _entwinings():
    """The Hopf entwinings of C2, C3 and C4 over F7, E5's weak entwining and
    the flip over L = k x k, each built once."""
    f7 = FieldFp(7)
    for n in (2, 3, 4):
        bial = group_hopf_algebra(f7, _cyclic(n), name="H")
        yield hopf_entwining(bial, bial.algebra, bial.delta)
    yield _weak_e5()
    ent = _l_trivial(_flip())
    ent.validate()
    yield ent


def _ref_psi_ambient(ent):
    """psi's ambient form rebuilt from the quotient form, lift·proj: the
    reference form."""
    return ent.ad.lift(ent.psi).mul(_proj(ent.da))


def _ref_right_act(ent, psi_amb):
    """a (x) d -> a·psi(d (x) a_j) through dense krons and the dense
    projection: proj·(mult (x) D)·(A (x) psi_amb·ins_j)·sect, ins_j the
    insertion d -> d (x) a_j."""
    f, n, m = ent.field, ent.a.dim, ent.d.dim
    out = []
    for j in range(n):
        ins_j = Matrix.zero(f, m * n, m)
        for dd in range(m):
            ins_j.data[dd * n + j][dd] = f.one
        amb = ent.a.mult_eval().kron(Matrix.identity(f, m)).mul(
            Matrix.identity(f, n).kron(psi_amb.mul(ins_j)))
        out.append(_proj(ent.ad).mul(amb).mul(_sect(ent.ad)))
    return out


def _built(ent):
    """The coring and outer coaction an entwining builds."""
    if ent.weak:
        c, ext, _, _ = weak_entwining_coring(ent)
    else:
        c, ext = entwining_coring(ent)
    return c.carrier.left_act, c.carrier.right_act, c.coproduct, c.counit, ext.tau


def test_entwinings_keep_psi_as_given_and_build_what_the_lift_proj_form_builds():
    # over the trivial base the given ambient form is the lift·proj form;
    # over L it is another representative of the same classes, and both
    # build the same coring
    for ent in _entwinings():
        ref_amb = _ref_psi_ambient(ent)
        proj_ad = _proj(ent.ad)
        assert proj_ad.mul(ent.psi_amb) == proj_ad.mul(ref_amb)
        assert (ent.psi_amb == ref_amb) == (ent.base.dim == 1)
        assert ent.right_act == _ref_right_act(ent, ref_amb)
        twin = EntwiningStructure(ent.a, ent.d, ref_amb, base=ent.base, eta=ent.eta,
                                  weak=ent.weak, name=ent.name)
        assert twin.psi == ent.psi
        assert twin.validate()
        assert _built(twin) == _built(ent)


def _ref_unit_failure(ent, rhs):
    """The first j with psi(d_j (x) 1) != column j of rhs, one pure tensor
    at a time, or None."""
    f, one = ent.field, list(ent.a.unit)
    for j in range(ent.d.dim):
        if ent.psi.mul_vec(ent.da.pure_tensor([unit_vec(f, ent.d.dim, j), one])) != rhs.col(j):
            return j
    return None


def test_unit_axiom_names_the_first_failing_basis_element():
    bial = group_hopf_algebra(F, C3, name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    assert _ref_unit_failure(ent, ent.one_d) is None
    ent._unit_axiom(ent.one_d, "entwining")
    for j in (2, 1, 0):
        rhs = ent.one_d.copy()
        rhs.data[0][j] = F.add(rhs.data[0][j], F.one)
        if j == 1:
            rhs.data[0][2] = F.add(rhs.data[0][2], F.one)
        assert _ref_unit_failure(ent, rhs) == j
        with pytest.raises(AxiomError, match=r"^weak entwining psi: unit axiom fails at "
                                             r"basis %d$" % j):
            ent._unit_axiom(rhs, "weak entwining")


def test_each_entwining_keeps_one_ambient_psi(monkeypatch):
    # psi is descended once per structure and its ambient form is never
    # rebuilt from the quotient form (rebuilding it as lift·proj on every
    # read would lift 3, 4 and 5 times on the C2, C3 and C4 chains)
    calls = Counter()
    for attr in ("descend_map", "lift"):
        func = getattr(BalancedTensor, attr)

        def wrapped(self, *args, func=func, attr=attr):
            calls[attr, id(self)] += 1
            return func(self, *args)
        monkeypatch.setattr(BalancedTensor, attr, wrapped)
    for n in (2, 3, 4):
        calls.clear()
        bial = group_hopf_algebra(FieldFp(7), _cyclic(n), name="H")
        ent = hopf_entwining(bial, bial.algebra, bial.delta)
        entwining_coring(ent)
        assert calls["descend_map", id(ent.da)] == 1
        assert calls["lift", id(ent.ad)] == 0


def test_comodule_algebra_axioms_rejected():
    bial = group_hopf_algebra(F, C2, name="H")
    bad_coaction = Matrix.zero(F, 4, 2)
    with pytest.raises(AxiomError):
        hopf_entwining(bial, bial.algebra, bad_coaction)


# ---------------------------------------------------------------------------
# every multiplicativity axiom rejects bad input with its own message

FIELDS = pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])


def _grouplike_delta(field, n):
    delta = Matrix.zero(field, n * n, n)
    for i in range(n):
        delta.data[i * n + i][i] = field.one
    return delta


def _coaction(field, n, m, rows):
    """The A (x) H coaction sending e_i to the pair-basis vector rows[i]."""
    rho = Matrix.zero(field, n * m, n)
    for i, row in enumerate(rows):
        rho.data[row][i] = field.one
    return rho


@FIELDS
def test_bialgebra_coproduct_fails_at_the_named_pair(field):
    # a primitive x in k[x]/(x^2): Delta(x)^2 = 2 x (x) x, but Delta(x^2) = 0
    dual = quotient_polynomial_algebra(field, [field.zero, field.zero], name="D")
    delta = Matrix.zero(field, 4, 2)
    for row, col in ((0, 0), (1, 1), (2, 1)):  # 1 -> 1 (x) 1, x -> 1 (x) x + x (x) 1
        delta.data[row][col] = field.one
    bial = BialgebraData(dual, delta, Matrix.from_rows(field, [[field.one, field.zero]]))
    with pytest.raises(AxiomError) as err:
        bial.validate()
    assert str(err.value) == "bialgebra D: coproduct is not multiplicative at (1,1)"


@FIELDS
def test_bialgebra_counit_not_multiplicative(field):
    # basis 1, e1, e2 with orthogonal idempotents e1, e2 and a grouplike
    # basis: Delta is an algebra map, but eps(e1 e2) = 0 != eps(e1) eps(e2)
    e = lambda i: unit_vec(field, 3, i)
    z = [field.zero] * 3
    alg = FiniteAlgebra(field, 3, [[e(0), e(1), e(2)], [e(1), e(1), z], [e(2), z, e(2)]],
                        e(0), name="S")
    alg.validate()
    bial = BialgebraData(alg, _grouplike_delta(field, 3),
                         Matrix.from_rows(field, [[field.one] * 3]))
    with pytest.raises(AxiomError) as err:
        bial.validate()
    assert str(err.value) == "bialgebra S: counit is not multiplicative"


@FIELDS
def test_bialgebra_broken_antipode(field):
    c3 = group_algebra(field, C3, name="C3")
    eps = Matrix.from_rows(field, [[field.one] * 3])
    for s in (Matrix.identity(field, 3), Matrix.zero(field, 3, 3)):
        bial = BialgebraData(c3, _grouplike_delta(field, 3), eps, antipode=s)
        with pytest.raises(AxiomError) as err:
            bial.validate()
        assert str(err.value) == "bialgebra C3: antipode axiom fails"


@FIELDS
def test_comodule_algebra_coaction_fails_at_the_named_pair(field):
    # C3 graded by C2 with g and g^2 in the odd degree: a comodule, but
    # rho(g·g) = g^2 (x) h while rho(g)·rho(g) = g^2 (x) 1
    h2 = group_hopf_algebra(field, C2, name="H")
    a3 = group_algebra(field, C3, name="A")
    with pytest.raises(AxiomError) as err:
        hopf_entwining(h2, a3, _coaction(field, 3, 2, [0, 3, 5]))
    assert str(err.value) == "comodule algebra A: coaction not multiplicative at (1,1)"


@FIELDS
def test_comodule_algebra_coaction_not_unital(field):
    # the monoid bialgebra of {1, z}, z^2 = z, coacting on k^2 by e0 -> e0 (x) 1
    # and e1 -> e1 (x) z: multiplicative, but rho(1) != 1 (x) 1
    e = lambda i: unit_vec(field, 2, i)
    monoid = FiniteAlgebra(field, 2, [[e(0), e(1)], [e(1), e(1)]], e(0), name="M")
    bial = BialgebraData(monoid, _grouplike_delta(field, 2),
                         Matrix.from_rows(field, [[field.one] * 2]))
    assert bial.validate()
    k2 = product_field_algebra(field, 2, name="A")
    with pytest.raises(AxiomError) as err:
        hopf_entwining(bial, k2, _coaction(field, 2, 2, [0, 3]))
    assert str(err.value) == "comodule algebra A: coaction not unital"


@FIELDS
def test_partial_action_alpha_not_multiplicative(field):
    # a global C2 action on k^2 by an invertible unital map that is not an
    # algebra map: alpha(e0)^2 != alpha(e0)
    a = product_field_algebra(field, 2, name="A")
    two, mone = field.of_int(2), field.neg(field.one)
    alpha = Matrix.from_rows(field, [[two, mone], [mone, two]])
    pa = PartialGroupAction(C2, a, [[field.one] * 2] * 2,
                            [Matrix.identity(field, 2), alpha], name="P")
    with pytest.raises(AxiomError) as err:
        pa.validate()
    assert str(err.value) == "partial action P: alpha_1 is not multiplicative"


def test_hopf_chain_validates_each_structure_once(monkeypatch):
    # group_hopf_algebra checks the group table and vouches for the
    # bialgebra and its coalgebra coring; hopf_entwining vouches for the
    # regular coaction (H over itself by Delta, whose axioms are the
    # bialgebra's), checks any other coaction once, and vouches for the
    # entwining; entwining_coring reads the vouched verdicts and checks
    # nothing again
    counts = Counter()

    def count(attr, label, keep=lambda *args: True):
        func = getattr(zoo, attr)

        def wrapped(*args, **kwargs):
            counts[label] += keep(*args)
            return func(*args, **kwargs)
        monkeypatch.setattr(zoo, attr, wrapped)

    count("k_coalgebra_coring", "coalgebra corings")
    count("non_multiplicative_at", "multiplicativity checks")
    count("tensor_algebra", "tensor algebras")
    count("BalancedTensor", "three-factor tensors", lambda factors, *_: len(factors) == 3)
    check = Comodule.validate
    monkeypatch.setattr(Comodule, "validate",
                        lambda self: counts.update(["comodule checks"]) or check(self))
    labels = ("coalgebra corings", "multiplicativity checks", "tensor algebras",
              "comodule checks", "three-factor tensors")
    f7 = FieldFp(7)
    bial = group_hopf_algebra(f7, C3, name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    entwining_coring(ent)
    # no checked coalgebra coring, coaction or A (x) H; and none of the six
    # three-factor tensors of EntwiningStructure.validate
    assert [counts[label] for label in labels] == [0, 0, 0, 0, 0]
    # kC3 with the trivial coaction a -> a (x) 1 over kC2: not the regular
    # comodule algebra, so its coaction is checked once, as a comodule and
    # as an algebra map
    counts.clear()
    h2 = group_hopf_algebra(f7, C2, name="H")
    ent = hopf_entwining(h2, group_algebra(f7, C3, name="A"), _coaction(f7, 3, 2, [0, 2, 4]))
    assert ent._vouched
    entwining_coring(ent)
    assert [counts[label] for label in labels] == [0, 1, 1, 1, 0]


def _reference_psi(bial, a, rho):
    """The entwining map of a comodule algebra as it was first written,
    psi(d (x) a) = (1 (x) d)·rho(a), multiplied in the algebra A (x) H."""
    f, h = bial.field, bial.algebra
    ah = tensor_algebra(a, h)
    one_d = ([u if q == dd else f.zero for u in a.unit for q in range(h.dim)]
             for dd in range(h.dim))
    return side_by_side(f, ah.dim, (ah.lmul_vec(v).mul(rho) for v in one_d))


C4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
KLEIN = [[i ^ j for j in range(4)] for i in range(4)]
_S3 = list(itertools.permutations(range(3)))  # the identity first
S3 = [[_S3.index(tuple(p[q[i]] for i in range(3))) for q in _S3] for p in _S3]


@pytest.mark.parametrize("field", [QQ, FieldFp(2), FieldFp(7)], ids=["Q", "F2", "F7"])
@pytest.mark.parametrize("table", [C2, C3, C4, KLEIN, S3],
                         ids=["C2", "C3", "C4", "C2xC2", "S3"])
def test_regular_psi_is_the_product_formula(field, table):
    # the regular entwining's psi, I (x) L_d at the coaction, is the former
    # product in H (x) H, and the coring and extension built from either
    # are the same; S3, where d·a_[1] and a_[1]·d differ, tells the sides
    # of the product apart
    bial = group_hopf_algebra(field, table, name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    ref = EntwiningStructure(bial.algebra, bial.coring,
                             _reference_psi(bial, bial.algebra, bial.delta), name="psi")
    assert ent.psi_amb == ref.psi_amb and ent.psi == ref.psi
    built = [entwining_coring(e) for e in (ent, ref)]
    (c, ext), (c_ref, ext_ref) = built
    assert (c.coproduct, c.counit, c.carrier.left_act, c.carrier.right_act) == \
        (c_ref.coproduct, c_ref.counit, c_ref.carrier.left_act, c_ref.carrier.right_act)
    assert (ext.tau, ext.right_l_act, ext.split_map) == \
        (ext_ref.tau, ext_ref.right_l_act, ext_ref.split_map)
    assert ext.purity_certificate == ext_ref.purity_certificate == "pure-by-split"


# ---------------------------------------------------------------------------
# weak entwinings


def _weak_e5():
    a = trivial_algebra(F)
    a.name = "A"
    d = grouplike_basis_coalgebra(F, 2, name="D")
    psi = Matrix.zero(F, 2, 2)
    psi.data[0][0] = F.one
    ent = EntwiningStructure(a, d, psi, weak=True, name="E5")
    ent.validate()
    return ent


def test_weak_entwining_image_coring():
    ent = _weak_e5()
    c, ext, inc, ret = weak_entwining_coring(ent)
    assert c.dim == 1
    assert ext.purity_certificate == "pure-by-split"


def test_weak_entwining_with_full_weights_is_strict():
    a = trivial_algebra(F)
    d = grouplike_basis_coalgebra(F, 2, name="D")
    psi = Matrix.identity(F, 2)  # weights (1, 1)
    ent = EntwiningStructure(a, d, psi, weak=True, name="strict-as-weak")
    ent.validate()
    c, ext, inc, ret = weak_entwining_coring(ent)
    assert c.dim == d.dim  # the projection is the identity
    strict = EntwiningStructure(a, d, psi, weak=False, name="strict")
    strict.validate()
    c2, ext2 = entwining_coring(strict)
    assert c2.dim == c.dim


def test_hopf_entwining_read_as_weak_gives_the_strict_coring():
    # a strict entwining satisfies the weak axioms with e = eps(-)1, so the
    # canonical projection a (x) d -> a·psi(d (x) 1) is the identity
    bial = group_hopf_algebra(F, C3, name="H")
    strict = hopf_entwining(bial, bial.algebra, bial.delta)
    ent = EntwiningStructure(strict.a, strict.d, strict.psi, weak=True, name="w")
    c, ext, inc, ret = weak_entwining_coring(ent)
    c2, _ = entwining_coring(strict)
    assert inc == ret == Matrix.identity(F, 9)
    assert c.carrier.left_act == c2.carrier.left_act
    assert c.carrier.right_act == c2.carrier.right_act
    assert (c.coproduct, c.counit) == (c2.coproduct, c2.counit)


def test_weak_cleft_translation_round_trip(bundles):
    # the dictionary between convolution data and context elements, both ways
    ent = _weak_e5()
    c, ext, inc, ret = weak_entwining_coring(ent)
    lam = Matrix.from_rows(F, [[F.one, F.zero]])
    lam_bar = Matrix.from_rows(F, [[F.one, F.zero]])
    j, jt_amb = weak_cleft_translation(ent, c, inc, ret, lam, lam_bar)
    b = bundles["E5"]
    sd = b.ec.qt.sigma_dual
    a = ext.inner.base
    jt = Matrix.from_cols(F, sd.dim, [sd.coords(a.lmul_vec(jt_amb.col(k)))
                                      for k in range(c.dim)])
    cd = cleft_check(b.ec, j=j, jtilde=jt)
    assert cd.grade == "weak-cleft"
    # back: the solved intertwiner recovers a normalized convolution partner
    solved = cleft_check(b.ec, j=j)
    assert solved.grade == "weak-cleft"
    lam_back = solved.j
    assert lam_back == j


def test_cleft_entwining_round_trip(bundles):
    # convolution-invertible section <-> invertible context pair (E2)
    b = bundles["E2"]
    from coringlab.extension import convolution_inverse
    lam = b.ws.maps["lambda_id"]
    lam_bar = convolution_inverse(b.ext.outer, b.ext.inner.base, lam)
    assert lam_bar is not None
    # dictionary: j = lam, jtilde(a (x) h) = a·lam_bar(h)
    a = b.ext.inner.base
    cols = []
    for i in range(a.dim):
        for h in range(b.ext.outer.dim):
            cols.append(a.multiply(unit_vec(F, a.dim, i), lam_bar.col(h)))
    jt_alg = Matrix.from_cols(F, a.dim, cols)
    sd = b.ec.qt.sigma_dual
    jt = Matrix.from_cols(F, sd.dim, [sd.coords(a.lmul_vec(jt_alg.col(k)))
                                      for k in range(b.ext.inner.dim)])
    cd = cleft_check(b.ec, j=lam, jtilde=jt)
    assert cd.grade == "cleft"
    # back: from an invertible pair, the section is convolution invertible
    cd2 = cleft_check(b.ec, j=lam)
    assert cd2.grade == "cleft"


# ---------------------------------------------------------------------------
# partial actions


def test_partial_action_axiom_validation():
    a = product_field_algebra(F, 3, name="A")
    swap = Matrix.from_rows(F, [[F.zero, F.one, F.zero],
                                [F.one, F.zero, F.zero],
                                [F.zero] * 3])
    pa = PartialGroupAction(C2, a, [[F.one] * 3, [F.one, F.one, F.zero]],
                            [Matrix.identity(F, 3), swap], name="ok")
    assert pa.validate()
    bad = PartialGroupAction(C2, a, [[F.one] * 3, [F.one, F.one, F.zero]],
                             [Matrix.identity(F, 3), Matrix.identity(F, 3)],
                             name="bad")
    with pytest.raises(AxiomError):
        bad.validate()


def test_partial_action_counit_formula(e4):
    c = e4.corings["C"]
    # eps(a nu_sigma) = a at the unit component, 0 elsewhere
    assert c.counit.col(0) == [F.one, F.zero, F.zero]
    assert c.counit.col(3) == [F.zero] * 3


def test_partial_action_global_case_matches_shift_formula():
    a = product_field_algebra(F, 2, name="A")
    swap = Matrix.from_rows(F, [[F.zero, F.one], [F.one, F.zero]])
    pa = PartialGroupAction(C2, a, [[F.one] * 2, [F.one] * 2],
                            [Matrix.identity(F, 2), swap], name="global")
    out = partial_action_coring(pa)
    assert out["tau_matches_shift_formula"]
    assert out["coring"].dim == 4


def test_partial_action_proper_case_uses_repair():
    ws = build_fixture("E4")
    a = product_field_algebra(F, 3, name="A")
    swap = Matrix.from_rows(F, [[F.zero, F.one, F.zero],
                                [F.one, F.zero, F.zero],
                                [F.zero] * 3])
    pa = PartialGroupAction(C2, a, [[F.one] * 3, [F.one, F.one, F.zero]],
                            [Matrix.identity(F, 3), swap], name="E4")
    out = partial_action_coring(pa)
    assert not out["tau_matches_shift_formula"]
    assert out["component_dims"] == [3, 2]


def test_partial_action_colinear_sections_satisfy_shift_identity(bundles):
    # every colinear section D -> Sigma intertwines the induced grading
    b = bundles["E4"]
    d = b.ext.outer
    sigma_d = b.ec.sigma_d
    table = C2
    inv = [0, 1]
    # the grading components pi_t on Sigma
    comps = []
    amb = _sect(sigma_d.mc).mul(sigma_d.coaction)
    for t in range(2):
        mat = Matrix.zero(F, 3, 3)
        for j in range(3):
            col = amb.col(j)
            for r in range(3):
                mat.data[r][j] = col[r * 2 + t]
        comps.append(mat)
    for h in b.ec.p_basis:
        for s in range(2):
            for t in range(2):
                lhs = comps[t].mul_vec(h.col(s))
                rhs = h.col(table[s][inv[t]])
                assert lhs == rhs


def test_global_action_colinear_sections_satisfy_literal_identity(bundles):
    # for a global action the identity uses the partial maps themselves
    b = bundles["G1"]
    swap = Matrix.from_rows(F, [[F.zero, F.one], [F.one, F.zero]])
    alpha = [Matrix.identity(F, 2), swap]
    table = C2
    inv = [0, 1]
    for h in b.ec.p_basis:
        for s in range(2):
            for t in range(2):
                lhs = alpha[t].mul_vec(h.col(s))
                rhs = h.col(table[s][inv[t]])
                assert lhs == rhs


# ---------------------------------------------------------------------------
# canonical corings over a subalgebra


def _ref_sweedler(a, c, tens):
    """Delta(a (x) b) = (a (x) 1) (x) (1 (x) b) and eps(a (x) b) = ab summed
    one lifted vector at a time over the basis of tens = A (x)_B A."""
    f, cc = a.field, c.cc
    one = list(a.unit)
    delta_cols, eps_cols = [], []
    for q in range(tens.dim):
        dcol, ecol = [f.zero] * cc.dim, [f.zero] * a.dim
        for ((i, j), w) in tens.lift_pairs(unit_vec(f, tens.dim, q)):
            left = tens.pure_tensor([unit_vec(f, a.dim, i), one])
            right = tens.pure_tensor([one, unit_vec(f, a.dim, j)])
            dcol = [f.add(u, f.mul(w, v)) for u, v in zip(dcol, cc.pure_tensor([left, right]))]
            ecol = [f.add(u, f.mul(w, v)) for u, v in zip(ecol, a.mul[i][j])]
        delta_cols.append(dcol)
        eps_cols.append(ecol)
    return Matrix.from_cols(f, cc.dim, delta_cols), Matrix.from_cols(f, a.dim, eps_cols)


def _checked_sweedler(a, b, inc):
    c, g, tens = sweedler_coring(a, b, inc)
    assert (c.coproduct, c.counit) == _ref_sweedler(a, c, tens)
    return c, g


def test_sweedler_trivial_inclusion():
    a = quotient_polynomial_algebra(F, [F.of_int(2), F.zero], name="A")
    b, inc = subalgebra_from_span(a, [[F.one, F.zero], [F.zero, F.one]],
                                  name="A")
    c, g = _checked_sweedler(a, b, inc)
    assert c.dim == a.dim  # A (x)_A A collapses


def test_sweedler_e3_shape(e3):
    assert e3.corings["C"].dim == 4
    # E3's construction: Q(sqrt 2) over Q
    a = quotient_polynomial_algebra(F, [F.of_int(2), F.zero], name="A")
    b, inc = subalgebra_from_span(a, [[F.one, F.zero]], name="B")
    assert _checked_sweedler(a, b, inc)[0].dim == 4


def test_sweedler_coring_builds_its_square_once(monkeypatch):
    # E3's inclusion Q ⊂ Q(sqrt 2): Delta is handed over on the ambient
    # C x C and the coring projects it, so C (x)_A C is built once
    from coringlab import algmod
    built = []
    init = algmod.BalancedTensor.__init__

    def counting_init(self, factors, algebras, name=None, prefix=None):
        built.append(list(factors))
        init(self, factors, algebras, name=name, prefix=prefix)

    monkeypatch.setattr(algmod.BalancedTensor, "__init__", counting_init)
    a = quotient_polynomial_algebra(F, [F.of_int(2), F.zero], name="A")
    b, inc = subalgebra_from_span(a, [[F.one, F.zero]], name="B")
    c, _, _ = sweedler_coring(a, b, inc, name="C")
    squares = [f for f in built if len(f) == 2 and all(m is c.carrier for m in f)]
    assert len(squares) == 1 and c.cc.factors == [c.carrier, c.carrier]


def test_sweedler_diagonal_in_product():
    a = product_field_algebra(F, 2, name="A")
    b, inc = subalgebra_from_span(a, [[F.one, F.one]], name="B")
    c, g = _checked_sweedler(a, b, inc)
    assert c.dim == 4
    sigma = grouplike_comodule(g, name="S")
    from coringlab.galois import galois_check
    assert galois_check(sigma).verdict == "certified-Galois"


def test_subalgebra_rejects_non_closed_span():
    a = quotient_polynomial_algebra(F, [F.of_int(2), F.zero], name="A")
    with pytest.raises(AxiomError):
        subalgebra_from_span(a, [[F.zero, F.one]], name="bad")  # x alone


# ---------------------------------------------------------------------------
# golden fixtures and perturbations


def test_fixture_files_match_builders(workspaces):
    import os
    from conftest import fixture_path
    for name in sorted(workspaces):
        with open(fixture_path(name)) as handle:
            frozen = handle.read()
        assert build_fixture(name).canonical_text() == frozen, name


def test_fixture_golden_dimensions(workspaces):
    dims = {name: ws.corings["C"].dim for name, ws in workspaces.items()}
    assert dims == {"D1": 2, "E1": 1, "E2": 4, "E3": 4, "E4": 5, "E5": 1,
                    "G1": 4, "L1": 2}
    assert workspaces["E4"].comodules["Sigma"].dim == 3


def test_fixture_reduction_mod7(workspaces):
    from conftest import fixture_path
    from coringlab.workspace import load_workspace_file
    for name in ("E1", "E2", "E3", "E4", "E5"):
        ws = load_workspace_file(fixture_path(name), field_override=FieldFp(7))
        from perturb import validate_everything
        validate_everything(ws)


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5"])
def test_fixture_perturbations_rejected(name, workspaces):
    import time
    from conftest import fixture_path
    with open(fixture_path(name)) as handle:
        data = json.load(handle)
    start = time.perf_counter()
    outcomes = run_perturbations(data, workspaces[name], count=20)
    elapsed = time.perf_counter() - start
    assert len(outcomes) == 20
    assert elapsed < 5.0, "perturbation run took %.1fs" % elapsed


def test_dual_ring_free_rank_scaling(e3):
    # the canonical coring is free of rank 2 over the quadratic algebra
    from coringlab.coring import DualRing
    assert DualRing(e3.corings["C"]).dim == 4


def test_c3_over_f7_antipode_is_convolution_inverse():
    from coringlab.extension import convolution_inverse
    f7 = FieldFp(7)
    bial = group_hopf_algebra(f7, C3, name="H")
    d = bial.coalgebra_coring()
    lam = Matrix.identity(f7, 3)
    inv = convolution_inverse(d, bial.algebra, lam)
    assert inv == bial.antipode


def test_degenerate_partial_action_computed_only():
    # ideals with trivial intersection: values are recorded, not asserted
    # against any published expectation
    from conftest import fixture_path
    from coringlab.workspace import load_workspace_file
    from coringlab.extension import ExtContext, purity_check
    from coringlab.galois import cleft_check
    ws = load_workspace_file(fixture_path("D1"))
    sigma = ws.comodules["Sigma"]
    ext = ws.extensions["ext"]
    purity_check(ext, [sigma])
    cm = context_M(sigma)
    ec = ExtContext(ext, cm)
    computed = (ws.corings["C"].dim, len(ec.p_basis), cleft_check(ec).grade)
    # determinism regression for the degenerate instance
    assert computed == (2, 2, "weak-cleft")
