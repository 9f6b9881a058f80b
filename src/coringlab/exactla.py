"""Exact linear algebra kernel: fields, dense matrices, subspaces, quotients.

Everything is computed over an exact field (arbitrary-precision rationals or
a prime field); there are no tolerances anywhere.  Every row reduction
(``rref``, ``rank``, ``solve_linear``, ``kernel``, ``image``, the spans of
``Subspace`` and ``quotient``) runs through one sparse elimination kernel,
``_echelon``, which keeps rows as {col: value} maps, touches only nonzero
entries and stops with a UsageError past ELIMINATION_BUDGET entry updates.
``quotient`` keeps its projection as sparse columns.  A rational scalar is a
Python ``int`` when it is integral and a ``fractions.Fraction`` otherwise:
the structure constants of group and Hopf algebras are almost all 0 and ±1,
and int arithmetic on them skips the cost of ``Fraction``.  Mixed
int/``Fraction`` arithmetic is exact, so the kernels need not tell the two
apart.  All basis choices are made canonical through reduced row echelon
form, so identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import index


class UsageError(Exception):
    """Malformed call: dimension mismatch, bad scalar string, unknown name."""


class AxiomError(Exception):
    """A structural axiom failed; the message names the axiom."""


# ---------------------------------------------------------------------------
# fields


def _canon(q):
    """The rational q as an int when its denominator is 1, else q itself."""
    return q.numerator if q.denominator == 1 else q


class FieldQ:
    """Arbitrary-precision rationals: an integral value is an ``int``, any
    other a ``Fraction``.  ``of_int``, ``inv`` and ``parse`` return ints for
    integral values; sums and products are plain operators and may return an
    integral ``Fraction``, which is the same scalar and prints the same."""

    name = "Q"

    zero = 0
    one = 1

    def of_int(self, n):
        return index(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _canon(1 / Fraction(a))

    def parse(self, s):
        s = s.strip()
        if " mod " in s:
            raise UsageError("prime-field scalar %r in a rational file" % s)
        try:
            return _canon(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError("bad rational scalar %r" % s) from exc

    def fmt(self, a):
        return str(a)

    def __repr__(self):
        return "FieldQ()"

    def __eq__(self, other):
        return isinstance(other, FieldQ)

    def __hash__(self):
        return hash("FieldQ")


MAX_MODULUS = 2 ** 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    """Deterministic Miller-Rabin: the prime bases up to 37 decide every
    n < 3.18·10^23, which covers all moduli below MAX_MODULUS."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldFp:
    """Integers modulo a prime p; representatives are kept in [0, p)."""

    def __init__(self, p):
        if p >= MAX_MODULUS:
            raise UsageError("modulus %r is too large (the bound is 2**64)" % (p,))
        if not _is_prime(p):
            raise UsageError("modulus %r is not prime" % (p,))
        self.p = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1 % p

    def of_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def parse(self, s):
        s = s.strip()
        if " mod " in s:
            n, modp = s.split(" mod ")
            if int(modp) != self.p:
                raise UsageError("scalar %r has wrong modulus (field F%d)" % (s, self.p))
            return int(n) % self.p
        try:
            frac = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError("bad scalar %r" % s) from exc
        if frac.denominator % self.p == 0:
            raise UsageError("scalar %r has no reduction mod %d" % (s, self.p))
        return (frac.numerator * pow(frac.denominator, self.p - 2, self.p)) % self.p

    def fmt(self, a):
        return "%d mod %d" % (a % self.p, self.p)

    def __repr__(self):
        return "FieldFp(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, FieldFp) and other.p == self.p

    def __hash__(self):
        return hash(("FieldFp", self.p))


QQ = FieldQ()


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Dense matrix over an exact field.  Immutable after creation: every
    constructor builds its rows first, and nothing writes into ``data``
    afterwards.

    ``Matrix(...)`` checks that ``data`` has the stated shape; the kernel's
    own operations, whose results have their shape by construction, build
    through ``_matrix`` and skip that check.  ``_nonzero_cols`` holds the
    nonzero (row, value) entries of each column once
    ``algmod._sparse_cols`` has read them, which it does once per matrix.
    """

    __slots__ = ("field", "rows", "cols", "data", "_nonzero_cols")

    def __init__(self, field, rows, cols, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise UsageError("matrix data shape mismatch")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        self._nonzero_cols = None

    # -- constructors

    @staticmethod
    def zero(field, rows, cols):
        z = field.zero
        return _matrix(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return _matrix(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rows(field, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        return Matrix(field, rows, cols, [list(r) for r in rows_list])

    @staticmethod
    def from_cols(field, nrows, cols_list):
        if any(len(col) != nrows for col in cols_list):
            raise UsageError("column length mismatch")
        data = [list(row) for row in zip(*cols_list)] if cols_list else \
            [[] for _ in range(nrows)]
        return _matrix(field, nrows, len(cols_list), data)

    @staticmethod
    def column(field, vec):
        return Matrix(field, len(vec), 1, [[v] for v in vec])

    # -- basic ops

    def copy(self):
        return _matrix(self.field, self.rows, self.cols, [list(r) for r in self.data])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def row(self, i):
        return list(self.data[i])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.rows == self.rows
                and other.cols == self.cols and other.data == self.data)

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return "Matrix(%dx%d over %s)" % (self.rows, self.cols, self.field.name)

    def is_zero(self):
        return not any(v for row in self.data for v in row)

    def add(self, other):
        self._shape_check(other, same=True)
        f = self.field
        return _matrix(f, self.rows, self.cols,
                       [[f.add(a, b) for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.data, other.data)])

    def sub(self, other):
        self._shape_check(other, same=True)
        f = self.field
        return _matrix(f, self.rows, self.cols,
                       [[f.sub(a, b) for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.data, other.data)])

    def scale(self, c):
        f = self.field
        return _matrix(f, self.rows, self.cols, [[f.mul(c, v) for v in row] for row in self.data])

    def mul(self, other):
        if self.cols != other.rows:
            raise UsageError("matrix product shape mismatch: %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        z = f.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i in range(self.rows):
            srow = self.data[i]
            orow = out[i]
            for k in range(self.cols):
                a = srow[k]
                if not a:
                    continue
                brow = odata[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] = f.add(orow[j], f.mul(a, b))
        return _matrix(f, self.rows, other.cols, out)

    def mul_vec(self, vec):
        if self.cols != len(vec):
            raise UsageError("matrix-vector shape mismatch")
        f = self.field
        z = f.zero
        out = [z] * self.rows
        for i in range(self.rows):
            acc = z
            row = self.data[i]
            for j, v in enumerate(vec):
                if v and row[j]:
                    acc = f.add(acc, f.mul(row[j], v))
            out[i] = acc
        return out

    def transpose(self):
        data = [list(col) for col in zip(*self.data)] if self.rows else \
            [[] for _ in range(self.cols)]
        return _matrix(self.field, self.cols, self.rows, data)

    def kron(self, other):
        """Kronecker product, row-major index convention (i*n + j)."""
        f = self.field
        z = f.zero
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = [[z] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if not a:
                    continue
                for p in range(other.rows):
                    orow = out[i * other.rows + p]
                    brow = other.data[p]
                    for q in range(other.cols):
                        b = brow[q]
                        if b:
                            orow[j * other.cols + q] = f.add(orow[j * other.cols + q], f.mul(a, b))
        return _matrix(f, rows, cols, out)

    def _shape_check(self, other, same=False):
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise UsageError("matrix shape mismatch: %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))


def _matrix(field, rows, cols, data):
    """A Matrix whose data has the stated shape by construction."""
    m = object.__new__(Matrix)
    m.field = field
    m.rows = rows
    m.cols = cols
    m.data = data
    m._nonzero_cols = None
    return m


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]

def zero_vec(field, n):
    return [field.zero] * n

def unit_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


# ---------------------------------------------------------------------------
# row reduction

# The most entry updates one row reduction may make; past it the reduction
# stops with a UsageError.  A count, not a time, so every verdict stays
# deterministic.  The bundled fixtures, the benchmark workloads and the
# C4 and C2xC2 chains at the 4096 cap need under 10^4; a 256x256 reduction
# with full fill-in over F7 needs under 10^6 (about 0.3 s).
ELIMINATION_BUDGET = 10 ** 7


def modulus(field):
    """p over F_p, None over Q: how the sparse kernels do their arithmetic
    inline, one reduction mod p per update over F_p."""
    return field.p if isinstance(field, FieldFp) else None


def _echelon(field, rows, ncols):
    """Incremental sparse Gauss-Jordan elimination of rows, {col: value}
    maps without zero values, which it consumes.

    Returns (pivots, prows): the pivot columns, increasing, and the rows of
    the reduced row echelon form as {col: value} maps in pivot order.  Each
    new row is reduced at the pivot columns it holds, its leading column
    becomes a pivot, and that column is cleared from the earlier pivot rows;
    every step visits only nonzero entries, with inline arithmetic.  A
    pivot row keeps its pivot as its leading column (clearing column d from
    it adds entries only to the right of d, and d lies right of its pivot),
    so sorted by pivot the rows are the RREF.

    Raises UsageError once the entry updates pass ELIMINATION_BUDGET.
    """
    p = modulus(field)
    inv = field.inv
    piv = {}
    work = 0
    for row in rows:
        for col in [j for j in row if j in piv]:
            prow = piv[col]
            work += len(prow)
            _subtract(row, row[col], prow, p)
        if work > ELIMINATION_BUDGET:
            raise UsageError("row reduction of a %dx%d matrix needs more than %d entry "
                             "updates" % (len(rows), ncols, ELIMINATION_BUDGET))
        if not row:
            continue
        lead = min(row)
        a = inv(row[lead])
        if a != 1:
            row = {j: a * v for j, v in row.items()} if p is None else \
                {j: a * v % p for j, v in row.items()}
        for prow in piv.values():
            c = prow.get(lead)
            if c:
                work += len(row)
                _subtract(prow, c, row, p)
        piv[lead] = row
        work += len(row)
    pivots = sorted(piv)
    return pivots, [piv[c] for c in pivots]


def _subtract(row, c, other, p):
    """row -= c·other in place, over Q (p None) or F_p; zeros are dropped."""
    get = row.get
    if p is None:
        for j, v in other.items():
            w = get(j, 0) - c * v
            if w:
                row[j] = w
            else:
                del row[j]
    else:
        for j, v in other.items():
            w = (get(j, 0) - c * v) % p
            if w:
                row[j] = w
            else:
                del row[j]


def _sparse_rows(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m.data]


def _dense(field, row, n):
    out = [field.zero] * n
    for j, v in row.items():
        out[j] = v
    return out


def rref(m):
    """Reduced row echelon form.

    Returns (R, pivot_cols).  R has the same shape as m, its zero rows at
    the bottom; pivot entries are 1, pivot columns are elementary, pivot
    column indices strictly increase.
    """
    f = m.field
    pivots, prows = _echelon(f, _sparse_rows(m), m.cols)
    data = [_dense(f, row, m.cols) for row in prows]
    data += [[f.zero] * m.cols for _ in range(m.rows - len(prows))]
    return _matrix(f, m.rows, m.cols, data), pivots


def rank(m):
    return len(_echelon(m.field, _sparse_rows(m), m.cols)[0])


def solve_linear(a, b):
    """Solve a·x = b exactly.

    `b` is a column matrix (or list).  Returns the canonical solution with
    free variables set to zero, or None when the system is inconsistent.
    """
    rhs = b if isinstance(b, list) else b.col(0)
    if a.rows != len(rhs):
        raise UsageError("solve_linear: %d equations but rhs of length %d"
                         % (a.rows, len(rhs)))
    f = a.field
    n = a.cols
    rows = _sparse_rows(a)
    for row, v in zip(rows, rhs):
        if v:
            row[n] = v
    pivots, prows = _echelon(f, rows, n + 1)
    if pivots and pivots[-1] == n:
        return None  # pivot in the rhs column: inconsistent
    x = [f.zero] * n
    for pc, row in zip(pivots, prows):
        x[pc] = row.get(n, f.zero)
    return x


def inverse(m):
    """The inverse of the square matrix m, or None when m is singular."""
    return rank_inverse(m)[1]


def rank_inverse(m):
    """(rank, inverse) of the square matrix m, the inverse None when m is
    singular: one reduction of [m | I].  Its pivots in the columns of m
    count the rank, and they are all of them exactly when m is invertible;
    then the right half is the inverse."""
    if m.rows != m.cols:
        raise UsageError("inverse of a non-square %dx%d matrix" % (m.rows, m.cols))
    f = m.field
    n = m.cols
    rows = _sparse_rows(m)
    for i, row in enumerate(rows):
        row[n + i] = f.one
    pivots, prows = _echelon(f, rows, 2 * n)
    if pivots[:n] != list(range(n)):
        return bisect_left(pivots, n), None
    return n, _matrix(f, n, n, [[row.get(n + j, f.zero) for j in range(n)] for row in prows])


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Subspace of k^n with a canonical (RREF) basis.

    Two subspaces are equal as sets iff their canonical bases agree entrywise.
    Each basis vector is 1 at its pivot, where every other basis vector is 0,
    so the coordinates of a vector in the span are its entries at the pivots.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis  # list of vectors (already canonical)
        self.pivots = pivots

    @staticmethod
    def from_span(field, ambient_dim, vectors):
        if any(len(vec) != ambient_dim for vec in vectors):
            raise UsageError("vector/ambient dimension mismatch")
        return Subspace._spanned(field, ambient_dim,
                                 [{j: v for j, v in enumerate(vec) if v} for vec in vectors])

    @staticmethod
    def _spanned(field, ambient_dim, rows):
        """The span of {col: value} rows, which the row reduction consumes."""
        pivots, prows = _echelon(field, rows, ambient_dim)
        return Subspace(field, ambient_dim, [_dense(field, row, ambient_dim) for row in prows],
                        pivots)

    @staticmethod
    def full(field, n):
        return Subspace(field, n, [unit_vec(field, n, i) for i in range(n)], list(range(n)))

    @property
    def dim(self):
        return len(self.basis)

    def basis_matrix_rows(self):
        return Matrix.from_rows(self.field, self.basis) if self.basis else Matrix.zero(self.field, 0, self.ambient_dim)

    def basis_matrix_cols(self):
        """Basis vectors as columns (ambient_dim x dim)."""
        return self.basis_matrix_rows().transpose()

    def contains(self, vec):
        return self.coords(vec) is not None

    def combination(self, coords):
        """The vector sum_k coords[k]·basis[k]."""
        f = self.field
        out = [f.zero] * self.ambient_dim
        for c, vec in zip(coords, self.basis):
            if c:
                for i, v in enumerate(vec):
                    if v:
                        out[i] = f.add(out[i], f.mul(c, v))
        return out

    def coords(self, vec):
        """Coordinates of vec in the canonical basis, or None if outside: the
        entries at the pivots, kept when they recombine to vec exactly."""
        if len(vec) != self.ambient_dim:
            raise UsageError("vector/ambient dimension mismatch")
        coords = [vec[p] for p in self.pivots]
        return coords if self.combination(coords) == list(vec) else None

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.ambient_dim == self.ambient_dim
                and other.basis == self.basis)

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def kernel(a):
    """Canonical basis of {x : a·x = 0} as a Subspace of k^cols: for each
    free column j, e_j minus the RREF entries of column j at the pivots."""
    f = a.field
    pivots, prows = _echelon(f, _sparse_rows(a), a.cols)
    pivot_set = set(pivots)
    vecs = {j: {j: f.one} for j in range(a.cols) if j not in pivot_set}
    for pc, row in zip(pivots, prows):
        for j, v in row.items():
            if j != pc:
                vecs[j][pc] = f.neg(v)
    return Subspace._spanned(f, a.cols, list(vecs.values()))


def image(a):
    """Canonical column span of a, as a Subspace of k^rows."""
    return Subspace._spanned(a.field, a.rows, _sparse_rows(a.transpose()))


class QuotientSpace:
    """k^n / relations, with the projection kept as sparse columns.

    The non-pivot coordinates of the relation echelon form are the quotient
    representatives: the section picks them (column q is the unit vector at
    kept[q]).  cols[a] lists the (row, value) entries of column a of the
    projection: (q, 1) at kept[q], and at the pivot of an echelon relation
    row, minus that row's entries at the kept coordinates.  So
    projection·section is the identity and the kernel of the projection is
    the relation span.  from_sparse_cols gives the projection as a Matrix.
    """

    __slots__ = ("dim", "kept", "cols")

    def __init__(self, kept, cols):
        self.dim = len(kept)
        self.kept = kept
        self.cols = cols


def quotient(field, ambient_dim, relations):
    """Quotient of k^ambient_dim by the span of relations, {col: value} rows
    that the row reduction consumes."""
    pivots, prows = _echelon(field, relations, ambient_dim)
    pivot_set = set(pivots)
    kept = [j for j in range(ambient_dim) if j not in pivot_set]
    index = {j: q for q, j in enumerate(kept)}
    cols = [None] * ambient_dim
    for q, j in enumerate(kept):
        cols[j] = [(q, field.one)]
    for pc, row in zip(pivots, prows):
        cols[pc] = [(index[j], field.neg(v)) for j, v in row.items() if j != pc]
    return QuotientSpace(kept, cols)


def from_sparse_cols(field, rows, cols):
    """The rows x len(cols) Matrix whose column a has the (row, value)
    entries cols[a]."""
    data = [[field.zero] * len(cols) for _ in range(rows)]
    for a, col in enumerate(cols):
        for i, v in col:
            data[i][a] = v
    return _matrix(field, rows, len(cols), data)


def flatten_matrix(m):
    return [v for row in m.data for v in row]


def side_by_side(field, rows, mats):
    """The matrices [M_0 | M_1 | ...], each with the given number of rows."""
    return Matrix.from_cols(field, rows, [col for m in mats for col in m.transpose().data])


def unflatten(field, rows, cols, vec):
    if len(vec) != rows * cols:
        raise UsageError("unflatten length mismatch")
    return Matrix(field, rows, cols, [list(vec[i * cols:(i + 1) * cols]) for i in range(rows)])
