"""Kernel tests: exact solving, kernels, images, quotients, and witnesses in
spans of products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coringlab import exactla
from coringlab.algmod import span_witness
from coringlab.cli import main
from coringlab.exactla import (FieldFp, FieldQ, Matrix, QQ, Subspace, UsageError,
                               flatten_matrix, from_sparse_cols, image, inverse,
                               kernel, quotient, rank, rank_inverse, rref, solve_linear)
from conftest import fixture_path

F = QQ


def mat(rows):
    return Matrix.from_rows(F, [[F.of_int(v) if isinstance(v, int) else v
                                 for v in row] for row in rows])


def test_solve_identity():
    a = Matrix.identity(F, 3)
    assert solve_linear(a, [F.of_int(1), F.of_int(2), F.of_int(3)]) == \
        [F.of_int(1), F.of_int(2), F.of_int(3)]


def test_solve_inconsistent():
    a = mat([[1, 1], [2, 2]])
    assert solve_linear(a, [F.of_int(1), F.of_int(3)]) is None


def test_solve_scalar_division():
    a = mat([[2]])
    x = solve_linear(a, [F.one])
    assert x == [F.inv(F.of_int(2))] == [Fraction(1, 2)]
    assert not any(isinstance(v, float) for v in x)


def test_solve_shape_mismatch():
    with pytest.raises(UsageError):
        solve_linear(mat([[1, 2]]), [F.one, F.one])


def test_outside_rows_are_shape_checked():
    for rows, cols, data in ((2, 2, [[1, 2], [3]]), (2, 2, [[1, 2]]), (1, 2, [[1, 2, 3]])):
        with pytest.raises(UsageError, match="matrix data shape mismatch"):
            Matrix(F, rows, cols, data)
    with pytest.raises(UsageError, match="matrix data shape mismatch"):
        Matrix.from_rows(F, [[1, 2], [3]])
    # the kernel's own results keep their stated shape
    a = mat([[1, 2, 3], [4, 5, 6]])
    for m, shape in ((a.mul(a.transpose()), (2, 2)), (a.kron(a), (4, 9)),
                     (rref(a)[0], (2, 3))):
        assert (m.rows, m.cols) == shape
        assert len(m.data) == shape[0] and all(len(r) == shape[1] for r in m.data)


def test_kernel_zero_matrix():
    assert kernel(Matrix.zero(F, 3, 3)).dim == 3


def test_kernel_identity():
    assert kernel(Matrix.identity(F, 3)).dim == 0


def test_kernel_hand_row_reduction():
    # row reduction by hand: pivots in columns 0 and 2, free column 1,
    # kernel spanned by (1, -1, 0)
    a = mat([[1, 1, 0], [0, 0, 1]])
    k = kernel(a)
    expected = Subspace.from_span(F, 3, [[F.one, F.of_int(-1), F.zero]])
    assert k == expected
    for v in k.basis:
        assert not any(a.mul_vec(v))


def test_image_full_and_zero():
    assert image(Matrix.identity(F, 2)) == Subspace.full(F, 2)
    assert image(Matrix.zero(F, 2, 2)).dim == 0


def test_image_rank_one():
    a = mat([[1, 2], [2, 4]])
    im = image(a)
    assert im.dim == 1
    assert im == Subspace.from_span(F, 2, [[F.one, F.of_int(2)]])


def _quotient(n, rel):
    """quotient by the span of rel, with its projection and section as
    matrices: the section is the unit vectors at the kept coordinates."""
    q = quotient(F, n, [{j: v for j, v in enumerate(vec) if v} for vec in rel.basis])
    proj = from_sparse_cols(F, q.dim, q.cols)
    sect = from_sparse_cols(F, n, [[(j, F.one)] for j in q.kept])
    return q, proj, sect


def test_quotient_trivial_relations():
    q, proj, _ = _quotient(3, Subspace.from_span(F, 3, []))
    assert q.dim == 3
    assert proj == Matrix.identity(F, 3)


def test_quotient_full_relations():
    q, proj, _ = _quotient(2, Subspace.full(F, 2))
    assert q.dim == 0 and (proj.rows, proj.cols) == (0, 2)


def test_quotient_canonical_choice():
    rel = Subspace.from_span(F, 2, [[F.one, F.of_int(-1)]])
    q, proj, sect = _quotient(2, rel)
    assert q.dim == 1
    assert proj.mul(sect) == Matrix.identity(F, 1)
    assert kernel(proj) == rel
    # (a, b) and (a+b, 0)-style representatives agree modulo the relation
    assert proj.mul_vec([F.of_int(2), F.of_int(5)]) == \
        proj.mul_vec([F.of_int(7), F.zero])


def _products(us, vs):
    """The products g·u, g in vs and u in us, flattened and labelled by
    their index pair, as span_witness takes them."""
    return [((i, j), flatten_matrix(g.mul(u)))
            for i, g in enumerate(vs) for j, u in enumerate(us)]


def test_product_span_identity():
    i2 = Matrix.identity(F, 2)
    assert span_witness(F, _products([i2], [i2]), flatten_matrix(i2)) == [((0, 0), F.one)]


def test_product_span_idempotents():
    e11 = mat([[1, 0], [0, 0]])
    e22 = mat([[0, 0], [0, 1]])
    prods = _products([e11], [e11, e22])
    # e22·e11 = 0, so e11 is reached by e11·e11 alone and e22 not at all
    assert span_witness(F, prods, flatten_matrix(e11)) == [((0, 0), F.one)]
    assert span_witness(F, prods, flatten_matrix(e22)) is None


def test_product_span_offdiagonal_contains_identity():
    e12 = mat([[0, 1], [0, 0]])
    e21 = mat([[0, 0], [1, 0]])
    assert span_witness(F, _products([e12, e21], [e12, e21]),
                        flatten_matrix(Matrix.identity(F, 2))) == \
        [((0, 1), F.one), ((1, 0), F.one)]


# ---------------------------------------------------------------------------
# invariants

small_entries = st.integers(min_value=-4, max_value=4)


def matrices(rows, cols):
    return st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: Matrix.from_rows(F, [[F.of_int(v) for v in row]
                                          for row in data]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: matrices(r, c))))
def test_rank_nullity(a):
    assert rank(a) == image(a).dim == a.cols - kernel(a).dim


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=0, max_size=3))))
def test_quotient_roundtrip(data):
    n, rel_rows = data
    rel = Subspace.from_span(F, n, [[F.of_int(v) for v in row]
                                    for row in rel_rows])
    q, proj, sect = _quotient(n, rel)
    assert proj.mul(sect) == Matrix.identity(F, q.dim)
    assert kernel(proj) == rel
    assert q.dim == n - rel.dim


def test_determinism_bit_identical():
    a = mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    k1 = kernel(a)
    k2 = kernel(mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
    assert k1.basis == k2.basis
    assert solve_linear(a, [F.one, F.one, F.one]) == \
        solve_linear(a, [F.one, F.one, F.one])


# ---------------------------------------------------------------------------
# rationals: integral values are ints, the rest Fractions


class FractionQ(FieldQ):
    """Q with every scalar a Fraction, integral or not: the reference that the
    int/Fraction representation of FieldQ must agree with."""

    zero = Fraction(0)
    one = Fraction(1)

    def of_int(self, n):
        return Fraction(n)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def parse(self, s):
        return Fraction(s)


FQ = FractionQ()

# ints, integral Fractions and proper Fractions, mixed within one matrix
rationals = st.one_of(small_entries,
                      st.fractions(min_value=-4, max_value=4, max_denominator=3))


def _kernels(a, b):
    """The scalars and the shape data that the row-reduction kernels return."""
    red, pivots = rref(a)
    sol = solve_linear(a, b)
    scalars = [v for row in red.data for v in row] + \
        [v for vec in kernel(a).basis for v in vec] + (sol or [])
    return scalars, (pivots, rank(a), sol is None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.tuples(
            st.lists(st.lists(rationals, min_size=c, max_size=c),
                     min_size=r, max_size=r),
            st.lists(rationals, min_size=r, max_size=r)))))
def test_mixed_int_fraction_matches_all_fraction(system):
    rows, rhs = system
    got, got_shape = _kernels(Matrix.from_rows(F, rows), list(rhs))
    want, want_shape = _kernels(
        Matrix.from_rows(FQ, [[Fraction(v) for v in row] for row in rows]),
        [Fraction(v) for v in rhs])
    assert got_shape == want_shape
    assert got == want
    assert [F.fmt(v) for v in got] == [FQ.fmt(v) for v in want]
    assert all(type(v) in (int, Fraction) for v in got)
    assert all(type(v) is Fraction for v in want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fractions(max_denominator=60))
def test_q_scalar_is_int_exactly_when_integral(q):
    kind = int if q.denominator == 1 else Fraction
    x = F.parse(str(q))
    assert x == q and type(x) is kind
    assert type(F.of_int(q.numerator)) is int
    if q:
        y = F.inv(x)
        assert y * q == 1
        assert type(y) is (int if abs(q.numerator) == 1 else Fraction)
    assert type(F.zero) is type(F.one) is int


@pytest.mark.parametrize("argv", [
    ["cleft", "E2", "--sigma", "Sigma", "--extension", "ext"],
    ["cleft", "E2", "--sigma", "Sigma", "--extension", "ext",
     "--j", "lambda_id", "--jtilde", "jtilde"],
    ["theorems", "E2", "--sigma", "Sigma", "--extension", "ext"],
    ["cleft", "E4", "--sigma", "Sigma", "--extension", "ext"],
    ["theorems", "E4", "--sigma", "Sigma", "--extension", "ext"],
])
def test_no_float_reaches_a_matrix(monkeypatch, capsys, argv):
    init, make = Matrix.__init__, exactla._matrix

    def float_free(rows, cols, data):
        if any(isinstance(v, float) for row in data for v in row):
            raise AssertionError("float entry in a %dx%d matrix" % (rows, cols))

    def float_free_init(self, field, rows, cols, data):
        float_free(rows, cols, data)
        init(self, field, rows, cols, data)

    def float_free_make(field, rows, cols, data):
        float_free(rows, cols, data)
        return make(field, rows, cols, data)

    # outside rows go through Matrix(...), the kernel's own results through
    # exactla._matrix: watch both
    monkeypatch.setattr(Matrix, "__init__", float_free_init)
    monkeypatch.setattr(exactla, "_matrix", float_free_make)
    code = main([argv[0], fixture_path(argv[1])] + argv[2:])
    capsys.readouterr()
    assert code == 0


# ---------------------------------------------------------------------------
# prime fields


def test_fp_arithmetic():
    f7 = FieldFp(7)
    assert f7.inv(3) == 5
    assert f7.parse("1/2") == f7.mul(1, f7.inv(2)) == 4
    assert f7.parse("3 mod 7") == 3
    assert f7.fmt(10) == "3 mod 7"


def test_fp_rejects_bad_modulus():
    with pytest.raises(UsageError):
        FieldFp(6)
    f7 = FieldFp(7)
    with pytest.raises(UsageError):
        f7.parse("1/7")


def test_fp_linear_algebra():
    f5 = FieldFp(5)
    a = Matrix.from_rows(f5, [[2, 1], [1, 1]])
    x = solve_linear(a, [1, 0])
    assert a.mul_vec(x) == [1, 0]


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_verdicts_unchanged_on_small_moduli():
    from coringlab.exactla import _is_prime
    for n in range(-3, 5000):
        assert _is_prime(n) == _trial_division(n), n
    assert [_is_prime(n) for n in (1, 4, 7, 561)] == [False, False, True, False]
    # a strong pseudoprime to the bases 2..23, and the largest prime below 2**64
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 64 - 59)
    with pytest.raises(UsageError):
        FieldFp(561)


def test_modulus_bound():
    FieldFp(2 ** 64 - 59)
    with pytest.raises(UsageError, match="too large"):
        FieldFp(2 ** 64)


# ---------------------------------------------------------------------------
# the elimination work budget


def test_elimination_budget_stops_a_reduction(monkeypatch):
    a = mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    want = rref(a)
    monkeypatch.setattr(exactla, "ELIMINATION_BUDGET", 4)
    with pytest.raises(UsageError, match=r"^row reduction of a 3x3 matrix needs more "
                                         r"than 4 entry updates$"):
        rref(a)
    monkeypatch.setattr(exactla, "ELIMINATION_BUDGET", 100)
    assert rref(a) == want


def test_elimination_budget_exits_two_on_validate(monkeypatch, capsys):
    monkeypatch.setattr(exactla, "ELIMINATION_BUDGET", 5)
    code = main(["validate", fixture_path("E2")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1:] == ["usage error: row reduction of a 16x16 matrix "
                                     "needs more than 5 entry updates"]


# ---------------------------------------------------------------------------
# rref against sympy's DomainMatrix.rref, an independent reference


def _sparse_rows(rows, cols, zero_only):
    """Rows of mostly-zero rational entries (every entry zero when
    zero_only), as Fractions with denominators up to 3."""
    entry = st.just(Fraction(0)) if zero_only else st.one_of(
        st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)),
        st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# up to 6 rows and 16 columns, 0-row matrices included; one in four
# matrices is all zero
sparse_matrices = st.tuples(st.integers(min_value=0, max_value=6),
                            st.integers(min_value=1, max_value=16),
                            st.sampled_from([False, False, False, True])).flatmap(
    lambda shape: st.tuples(st.just(shape[0]), st.just(shape[1]),
                            _sparse_rows(*shape)))


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_matrices)
def test_rref_matches_sympy(field, system):
    dm = pytest.importorskip("sympy.polys.matrices")
    sympy = pytest.importorskip("sympy")
    rows, cols, entries = system
    a = Matrix(field, rows, cols, [[field.parse(str(v)) for v in row] for row in entries])
    if field == QQ:
        dom = sympy.QQ
        ref_entries = [[dom(v.numerator, v.denominator) for v in row] for row in entries]

        def back(x):
            return Fraction(int(x.numerator), int(x.denominator))
    else:
        dom = sympy.GF(field.p)
        ref_entries = [[dom(v.numerator) / dom(v.denominator) for v in row] for row in entries]

        def back(x):
            return int(x) % field.p
    ref_r, ref_pivots = dm.DomainMatrix(ref_entries, (rows, cols), dom).rref()
    red, pivots = rref(a)
    assert (red.rows, red.cols) == (rows, cols) == ref_r.shape
    assert pivots == list(ref_pivots)
    assert red.data == [[back(x) for x in row] for row in ref_r.to_list()]


# square matrices up to 6x6, the 0x0 one included; one in four is all zero
square_matrices = st.tuples(st.integers(min_value=0, max_value=6),
                            st.sampled_from([False, False, False, True])).flatmap(
    lambda shape: st.tuples(st.just(shape[0]), _sparse_rows(shape[0], shape[0], shape[1])))


@pytest.mark.parametrize("field", [QQ, FieldFp(7)], ids=["Q", "F7"])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(square_matrices)
def test_inverse_matches_sympy(field, system):
    dm = pytest.importorskip("sympy.polys.matrices")
    sympy = pytest.importorskip("sympy")
    n, entries = system
    a = Matrix(field, n, n, [[field.parse(str(v)) for v in row] for row in entries])
    inv = inverse(a)
    if n == 0:
        assert inv == Matrix(field, 0, 0, [])
        return
    if field == QQ:
        dom = sympy.QQ
        ref = dm.DomainMatrix([[dom(v.numerator, v.denominator) for v in row]
                               for row in entries], (n, n), dom)

        def back(x):
            return Fraction(int(x.numerator), int(x.denominator))
    else:
        dom = sympy.GF(field.p)
        ref = dm.DomainMatrix([[dom(v.numerator) / dom(v.denominator) for v in row]
                               for row in entries], (n, n), dom)

        def back(x):
            return int(x) % field.p
    # the reduction that inverts also counts the rank
    assert rank_inverse(a)[0] == ref.rank() == rank(a)
    if ref.rank() < n:
        assert inv is None
        return
    assert inv.data == [[back(x) for x in row] for row in ref.inv().to_list()]
    assert a.mul(inv) == Matrix.identity(field, n) == inv.mul(a)


def test_inverse_needs_a_square_matrix():
    with pytest.raises(UsageError):
        inverse(Matrix.zero(QQ, 2, 3))
