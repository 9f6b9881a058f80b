"""Finite-dimensional algebras, bimodules, hom-spaces and balanced tensors.

One-sided modules are bimodules with the trivial one-dimensional algebra
acting on the inert side, so a single hom-space solver with linearity flags
(hom_space, which returns a MatrixSpace) covers all four hom flavours, and
every further relation reaches it as operator terms.
"""

from __future__ import annotations

from math import prod

from .exactla import (AxiomError, Matrix, Subspace, UsageError, flatten_matrix,
                      from_sparse_cols, kernel, quotient, solve_linear, unflatten,
                      unit_vec, vec_scale, zero_vec)


class FiniteAlgebra:
    """Associative unital algebra given by structure constants.

    mul[i][j] is the coordinate vector of e_i * e_j; unit is the coordinate
    vector of 1.  Validation checks associativity and unitality exactly.
    """

    def __init__(self, field, dim, mul, unit, name="A"):
        self.field = field
        self.dim = dim
        self.mul = mul
        self.unit = list(unit)
        self.name = name
        if len(mul) != dim or any(len(row) != dim for row in mul):
            raise UsageError("algebra %s: structure tensor shape mismatch" % name)
        if len(self.unit) != dim:
            raise UsageError("algebra %s: unit vector length mismatch" % name)
        # left/right multiplication matrices, by basis index
        self._lmul = [Matrix.from_cols(field, dim, [mul[i][j] for j in range(dim)])
                      for i in range(dim)]
        self._rmul = [Matrix.from_cols(field, dim, [mul[i][j] for i in range(dim)])
                      for j in range(dim)]
        self._gens = None

    def lmul(self, i):
        return self._lmul[i]

    def rmul(self, j):
        return self._rmul[j]

    def lmul_vec(self, vec):
        """Matrix of left multiplication by the element with coordinates vec."""
        f = self.field
        out = Matrix.zero(f, self.dim, self.dim)
        for i, c in enumerate(vec):
            if c != f.zero:
                out = out.add(self._lmul[i].scale(c))
        return out

    def rmul_vec(self, vec):
        f = self.field
        out = Matrix.zero(f, self.dim, self.dim)
        for j, c in enumerate(vec):
            if c != f.zero:
                out = out.add(self._rmul[j].scale(c))
        return out

    def multiply(self, x, y):
        return self.lmul_vec(x).mul_vec(y)

    def generators(self):
        """Basis indices whose words span the algebra (decided once per
        algebra).  Greedy: a basis element outside the span of the words so
        far joins them, and that span is closed again under right
        multiplication by the chosen ones.  [] for the ground field, [g] for
        the group algebra of a cyclic group generated by g."""
        if self._gens is None:
            f, n = self.field, self.dim
            gens = []
            words = [self.unit] if any(self.unit) else []
            # a one-dimensional algebra is spanned by its unit: no row reduction
            span = Subspace.full(f, n) if n == 1 and words else Subspace.from_span(f, n, words)
            for i in range(n):
                if span.contains(unit_vec(f, n, i)):
                    continue
                gens.append(i)
                words = span.basis + [unit_vec(f, n, i)]
                while True:
                    grown = Subspace.from_span(
                        f, n, words + [self._rmul[g].mul_vec(w) for w in words for g in gens])
                    if grown.dim == len(words):
                        break
                    words = grown.basis
                span = grown
            self._gens = gens
        return self._gens

    def validate(self):
        f = self.field
        n = self.dim
        lu = self.lmul_vec(self.unit)
        ru = self.rmul_vec(self.unit)
        ident = Matrix.identity(f, n)
        if lu != ident:
            raise AxiomError("algebra %s: unitality fails (1*a != a)" % self.name)
        if ru != ident:
            raise AxiomError("algebra %s: unitality fails (a*1 != a)" % self.name)
        for i in range(n):
            for j in range(n):
                # (e_i e_j) e_k  vs  e_i (e_j e_k), as matrices acting on e_k
                lhs = self.lmul_vec(self.mul[i][j])
                rhs = self._lmul[i].mul(self._lmul[j])
                if lhs != rhs:
                    raise AxiomError("algebra %s: associativity fails at basis pair (%d,%d)"
                                     % (self.name, i, j))
        return True

    def mult_eval(self):
        """Matrix of multiplication A (x) A -> A on the row-major pair basis."""
        f = self.field
        n = self.dim
        out = Matrix.zero(f, n, n * n)
        for i in range(n):
            for j in range(n):
                v = self.mul[i][j]
                for r in range(n):
                    out.data[r][i * n + j] = v[r]
        return out

    def __repr__(self):
        return "FiniteAlgebra(%s, dim %d)" % (self.name, self.dim)


def trivial_algebra(field):
    """The ground field as a one-dimensional algebra."""
    return FiniteAlgebra(field, 1, [[[field.one]]], [field.one], name="k")


def tensor_algebra(a, b):
    """A (x) B on the row-major pair basis e_i (x) e_j -> i*b.dim + j, with
    (x (x) y)(x' (x) y') = xx' (x) yy' and unit 1 (x) 1."""
    f = a.field

    def pure(u, v):
        return [f.mul(x, y) for x in u for y in v]

    mul = [[pure(a.mul[i][k], b.mul[j][l]) for k in range(a.dim) for l in range(b.dim)]
           for i in range(a.dim) for j in range(b.dim)]
    return FiniteAlgebra(f, a.dim * b.dim, mul, pure(a.unit, b.unit),
                         name="%s(x)%s" % (a.name, b.name))


def non_multiplicative_at(src, dst, mat):
    """The first basis pair (i, j), in row-major order, at which
    mat(e_i e_j) != mat(e_i)·mat(e_j), or None when the linear map mat
    (dst.dim x src.dim) is multiplicative."""
    images = [mat.col(i) for i in range(src.dim)]
    for i, image in enumerate(images):
        left = dst.lmul_vec(image)
        for j in range(src.dim):
            if mat.mul_vec(src.mul[i][j]) != left.mul_vec(images[j]):
                return (i, j)
    return None


def algebra_map_check(src, dst, mat):
    """Whether mat (dst.dim x src.dim) is a unital algebra map src -> dst:
    the unit test plus non_multiplicative_at."""
    return mat.mul_vec(src.unit) == dst.unit and non_multiplicative_at(src, dst, mat) is None


class FBimodule:
    """Finite-dimensional (left_alg, right_alg)-bimodule with action matrices.

    left_act[i] is the matrix of the action of the i-th basis element of
    left_alg; right_act likewise.  One-sided modules use trivial_algebra on
    the inert side.
    """

    def __init__(self, left_alg, right_alg, dim, left_act, right_act, name="M"):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_act = left_act
        self.right_act = right_act
        self.name = name
        self.field = left_alg.field
        self._commute = None
        self._valid = None
        self._fgp = {}

    def actions_commute(self):
        """Whether every left action matrix commutes with every right one
        (decided once per module; validate reports where it fails)."""
        if self._commute is None:
            self._commute = all(l.mul(r) == r.mul(l)
                                for l in self.left_act for r in self.right_act)
        return self._commute

    def is_valid(self):
        """Whether validate passes (decided once per module)."""
        if self._valid is None:
            try:
                self.validate()
            except (AxiomError, UsageError):
                self._valid = False
        return self._valid

    @staticmethod
    def trivial(field, dim, name="V"):
        k = trivial_algebra(field)
        ident = Matrix.identity(field, dim)
        return FBimodule(k, k, dim, [ident], [ident.copy()], name=name)

    @staticmethod
    def regular(alg, name=None):
        """The algebra as a bimodule over itself."""
        return FBimodule(alg, alg, alg.dim,
                         [alg.lmul(i) for i in range(alg.dim)],
                         [alg.rmul(j) for j in range(alg.dim)],
                         name=name or alg.name)

    def left_act_vec(self, vec):
        f = self.field
        out = Matrix.zero(f, self.dim, self.dim)
        for i, c in enumerate(vec):
            if c != f.zero:
                out = out.add(self.left_act[i].scale(c))
        return out

    def right_act_vec(self, vec):
        f = self.field
        out = Matrix.zero(f, self.dim, self.dim)
        for i, c in enumerate(vec):
            if c != f.zero:
                out = out.add(self.right_act[i].scale(c))
        return out

    def validate(self):
        if self._valid:
            return True
        f = self.field
        ident = Matrix.identity(f, self.dim)
        la, ra = self.left_alg, self.right_alg
        if len(self.left_act) != la.dim or len(self.right_act) != ra.dim:
            raise UsageError("module %s: action list length mismatch" % self.name)
        if self.left_act_vec(la.unit) != ident:
            raise AxiomError("module %s: left action not unital" % self.name)
        if self.right_act_vec(ra.unit) != ident:
            raise AxiomError("module %s: right action not unital" % self.name)
        for i in range(la.dim):
            for j in range(la.dim):
                if self.left_act[i].mul(self.left_act[j]) != self.left_act_vec(la.mul[i][j]):
                    raise AxiomError("module %s: left action not associative at (%d,%d)"
                                     % (self.name, i, j))
        for i in range(ra.dim):
            for j in range(ra.dim):
                # (m.e_i).e_j = m.(e_i e_j)
                if self.right_act[j].mul(self.right_act[i]) != self.right_act_vec(ra.mul[i][j]):
                    raise AxiomError("module %s: right action not associative at (%d,%d)"
                                     % (self.name, i, j))
        for i in range(la.dim):
            for j in range(ra.dim):
                if self.left_act[i].mul(self.right_act[j]) != self.right_act[j].mul(self.left_act[i]):
                    raise AxiomError("module %s: left and right actions do not commute at (%d,%d)"
                                     % (self.name, i, j))
        self._valid = True
        return True

    def left_eval(self):
        """Matrix of the action map left_alg (x) M -> M (row-major pairs)."""
        f = self.field
        n, m = self.left_alg.dim, self.dim
        out = Matrix.zero(f, m, n * m)
        for i in range(n):
            act = self.left_act[i]
            for j in range(m):
                for r in range(m):
                    out.data[r][i * m + j] = act.data[r][j]
        return out

    def right_eval(self):
        """Matrix of the action map M (x) right_alg -> M."""
        f = self.field
        n, m = self.right_alg.dim, self.dim
        out = Matrix.zero(f, m, m * n)
        for j in range(m):
            for i in range(n):
                col = self.right_act[i].col(j)
                for r in range(m):
                    out.data[r][j * n + i] = col[r]
        return out

    def __repr__(self):
        return "FBimodule(%s: %s-%s, dim %d)" % (self.name, self.left_alg.name,
                                                 self.right_alg.name, self.dim)


class FLinearMap:
    """Linear map between bimodule carriers with verified linearity flags."""

    def __init__(self, source, target, matrix, left_linear=False, right_linear=False):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise UsageError("map matrix is %dx%d, expected %dx%d"
                             % (matrix.rows, matrix.cols, target.dim, source.dim))
        self.source = source
        self.target = target
        self.matrix = matrix
        self.left_linear = left_linear
        self.right_linear = right_linear
        self.verify_flags()

    def verify_flags(self):
        if self.left_linear:
            la, lb = self.source.left_alg, self.target.left_alg
            if la.dim != lb.dim:
                raise UsageError("left algebras differ")
            for i in range(la.dim):
                if self.matrix.mul(self.source.left_act[i]) != self.target.left_act[i].mul(self.matrix):
                    raise AxiomError("map is not left %s-linear at basis %d" % (la.name, i))
        if self.right_linear:
            ra, rb = self.source.right_alg, self.target.right_alg
            if ra.dim != rb.dim:
                raise UsageError("right algebras differ")
            for i in range(ra.dim):
                if self.matrix.mul(self.source.right_act[i]) != self.target.right_act[i].mul(self.matrix):
                    raise AxiomError("map is not right %s-linear at basis %d" % (ra.name, i))
        return True

    def __repr__(self):
        return "FLinearMap(%s -> %s)" % (self.source.name, self.target.name)


# ---------------------------------------------------------------------------
# balanced tensor products


def _chain_index(dims):
    """Row-major multi-index helpers for an iterated tensor product."""
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


def _slot_group(left, mat, right):
    """(left, nonzero entries of each column of mat, mat.rows, right): the
    operator I_left (x) mat (x) I_right in the form _apply_group reads."""
    cols = [[(i, c) for i, c in enumerate(col) if c] for col in mat.transpose().data]
    return left, cols, mat.rows, right


def _apply_group(field, vec, group):
    """(I_left (x) mat (x) I_right)·vec for an ambient vector laid out
    row-major as (left, mat.cols, right); the result is laid out as
    (left, mat.rows, right).  Only the nonzero entries of vec are visited."""
    return _apply_pairs(field, enumerate(vec), group)


def _apply_pairs(field, pairs, group):
    """_apply_group for a vector given by its (index, value) entries."""
    left, cols, n_out, right = group
    out = [field.zero] * (left * n_out * right)
    block_in = len(cols) * right
    block_out = n_out * right
    add, mul = field.add, field.mul
    for p, v in pairs:
        if not v:
            continue
        l, rest = divmod(p, block_in)
        j, off = divmod(rest, right)
        base = l * block_out + off
        for i, c in cols[j]:
            k = base + i * right
            out[k] = add(out[k], mul(c, v))
    return out


def _combine_cols(field, cols, pairs):
    """The sparse column sum of v·cols[p] over the (p, v) in pairs."""
    add, mul, zero = field.add, field.mul, field.zero
    acc = {}
    for p, v in pairs:
        for i, c in cols[p]:
            acc[i] = add(acc.get(i, zero), mul(c, v))
    return [(i, c) for i, c in acc.items() if c]


def _unit_image(group, p):
    """The nonzero (index, value) entries of the group's operator applied to
    the unit vector e_p."""
    _, cols, n_out, right = group
    l, rest = divmod(p, len(cols) * right)
    j, off = divmod(rest, right)
    base = l * n_out * right + off
    return [(base + i * right, c) for i, c in cols[j]]


def _balancing_indices(left, alg, right):
    """The basis indices b whose relations ρ_b = R_b (x) I - I (x) L_b span
    the balancing of left (x)_alg right.  When both are valid modules over this
    very algebra, its generators do: ρ_1 = 0 by unitality, and
    ρ_{sg}(x (x) y) = ρ_g(x·s (x) y) + ρ_s(x (x) g·y) by associativity.
    Otherwise every basis index does."""
    if left.right_alg is alg and right.left_alg is alg and \
            left.is_valid() and right.is_valid():
        return alg.generators()
    return range(alg.dim)


class BalancedTensor:
    """Iterated balanced tensor M1 (x)_{B1} M2 (x)_{B2} ... (x) Mn.

    A quotient of the full k-tensor product by the balancing relations in
    every adjacent slot, built as iterated pairwise quotients (this keeps
    every row reduction small).  A step balances by the images of
    R_b (x) I - I (x) L_b for b in the algebra's generators alone when both
    factors are valid modules over that very algebra object; these span the
    same relations, so the quotient is the same (over the ground field:
    no relations and no row reduction).  Otherwise every basis element b
    takes part.  The relation rows are sparse, and the projection is kept
    as sparse columns (``_pcols``, column a the nonzero (row, value)
    entries of proj·e_a), which the slot-group kernel applies directly; the
    section picks the ambient coordinates ``_picks``.  ``proj()`` and
    ``sect()`` build the dense matrices on demand, once per tensor, for
    callers that want a Matrix.  The pair splits the full ambient space
    (proj·sect = 1), so the relations are ker(proj) = im(1 - sect·proj) and
    balancing is decided by two operator identities, without ever forming
    the relation kernel:

    - a map M out of the ambient space vanishes on the relations iff
      M = (M·sect)·proj (``descend_map``);
    - an operator A on one slot preserves them iff proj·A = induced·proj
      with induced = proj·A·sect (``descend_slot``).

    ``src.induced(dst, [(slot, F), ...])`` is the one way to build a map
    between balanced tensors out of per-slot maps: it owns the row-major
    ambient layout, so callers never form identity krons.  When the image
    is to be read in a tensor whose first factor is this quotient,
    ``project_head`` collapses its leading slots first.

    The outer bimodule structure (the left action of the first factor, the
    right action of the last) is carried through every pairwise quotient as
    q.proj·(A (x) I)·q.sect, which equals proj·A·sect, the value
    ``descend_slot`` gives.  It is installed as is when it is known to
    descend: the right action when the last factor's actions commute, the
    left one when those of every factor but the last do (each module decides
    this once).  Otherwise the exact ``descend_slot`` check runs for that
    side, and an action that does not descend raises AxiomError.
    """

    def __init__(self, factors, algebras, name=None):
        if len(algebras) != len(factors) - 1:
            raise UsageError("need one balancing algebra per adjacent pair")
        field = factors[0].field
        for mid, alg in enumerate(algebras):
            if factors[mid].right_alg is not alg:
                raise UsageError("factor %d is not a right %s-module" % (mid, alg.name))
            if factors[mid + 1].left_alg is not alg:
                raise UsageError("factor %d is not a left %s-module" % (mid + 1, alg.name))
        self.factors = factors
        self.algebras = algebras
        self.field = field
        dims = [m.dim for m in factors]
        self.dims = dims
        self.strides = _chain_index(dims)
        ambient = 1
        for d in dims:
            ambient *= d
        if ambient > 4096:
            raise UsageError("tensor ambient dimension %d exceeds the supported "
                             "cap of 4096" % ambient)
        self.ambient_dim = ambient
        self.name = name or "(x)".join(m.name for m in factors)
        # outer bimodule structure over (left alg of first, right alg of last)
        self.left_alg = factors[0].left_alg
        self.right_alg = factors[-1].right_alg
        self._build()
        self.dim = len(self._picks)
        if not all(m.actions_commute() for m in factors[:-1]):
            self.left_act = [self.descend_slot(0, a) for a in factors[0].left_act]
        if not factors[-1].actions_commute():
            self.right_act = [self.descend_slot(len(factors) - 1, a)
                              for a in factors[-1].right_act]
        for side, acts in (("left", self.left_act), ("right", self.right_act)):
            if None in acts:
                raise AxiomError("tensor %s: outer %s action does not descend"
                                 % (self.name, side))

    def _build(self):
        """Iterated pairwise quotients Q_k = Q_{k-1} (x)_{B_k} M_k.  The
        relation rows come sparse from the slot-group kernel, and the
        projection on the full ambient space is kept as sparse columns
        (_pcols, in the form _apply_group reads), composed column by column
        through each step, as are the outer actions; every section is a
        coordinate selection, so sect is kept as the ambient coordinate each
        quotient coordinate picks."""
        f = self.field
        zero = f.zero
        cur = self.factors[0]
        cur_dim = cur.dim
        pcols = [[(a, f.one)] for a in range(cur_dim)]
        picks = list(range(cur_dim))
        left_acts = list(cur.left_act)
        right_acts = list(cur.right_act)
        for step, alg in enumerate(self.algebras):
            nxt = self.factors[step + 1]
            n = nxt.dim
            # the relations span the images of R_b (x) I - I (x) L_b
            rels = []
            for b in _balancing_indices(self.factors[step], alg, nxt):
                r_b = _slot_group(1, right_acts[b], n)
                l_b = _slot_group(cur_dim, nxt.left_act[b], 1)
                for p in range(cur_dim * n):
                    row = {}
                    for k, c in _unit_image(r_b, p):
                        row[k] = f.add(row.get(k, zero), c)
                    for k, c in _unit_image(l_b, p):
                        row[k] = f.sub(row.get(k, zero), c)
                    rels.append({k: c for k, c in row.items() if c})
            q = quotient(f, cur_dim * n, rels)
            to_q = (1, q.cols, q.dim, 1)

            def carry(group):
                # q.proj·X·q.sect for X = I_left (x) mat (x) I_right
                cols = [_apply_pairs(f, _unit_image(group, p), to_q) for p in q.kept]
                return Matrix(f, q.dim, q.dim, cols).transpose()

            # column (a, j) of q.proj·(proj (x) I_n) combines the columns
            # (r, j) of q.proj with the entries (r, v) of column a of proj,
            # which is the identity at the first step
            pcols = q.cols if step == 0 else \
                [_combine_cols(f, q.cols, [(r * n + j, v) for r, v in col])
                 for col in pcols for j in range(n)]
            picks = [picks[p // n] * n + p % n for p in q.kept]
            left_acts = [carry(_slot_group(1, a, n)) for a in left_acts]
            right_acts = [carry(_slot_group(cur_dim, a, 1)) for a in nxt.right_act]
            cur_dim = q.dim
        self._pcols = pcols
        self._picks = picks
        self._proj = self._sect = None
        self.left_act = left_acts
        self.right_act = right_acts

    def _to_q(self):
        """The projection in the slot-group form _apply_group reads."""
        return 1, self._pcols, self.dim, 1

    def induced(self, dst, factors):
        """dst.proj·(F_1 (x) ... (x) F_k)·sect, or the ambient image when dst
        is None.  factors are (slot, F) pairs in slot order: F reads the
        fewest slots from there whose dimensions multiply to its column count
        and may have any number of rows; other slots carry the identity.  The
        F act on the columns of sect slot group by slot group, and the sparse
        columns of dst.proj last, so no ambient operator is built."""
        dims = self.dims
        groups = []
        left, pos = 1, 0
        for slot, mat in factors:
            if slot < pos:
                raise UsageError("slot maps overlap or are out of order")
            left *= prod(dims[pos:slot])
            width, pos = dims[slot], slot + 1
            while width != mat.cols:
                if pos == len(dims):
                    raise UsageError("a %dx%d slot map does not fit the slots of %s "
                                     "from %d on" % (mat.rows, mat.cols, self.name, slot))
                width *= dims[pos]
                pos += 1
            groups.append(_slot_group(left, mat, prod(dims[pos:])))
            left *= mat.rows
        left *= prod(dims[pos:])
        if dst is not None:
            if left != dst.ambient_dim:
                raise UsageError("the image of %s has %d coordinates, but %s has ambient "
                                 "dimension %d" % (self.name, left, dst.name, dst.ambient_dim))
            groups.append(dst._to_q())
            left = dst.dim
        cols = []
        for p in self._picks:
            vec = unit_vec(self.field, self.ambient_dim, p)
            for group in groups:
                vec = _apply_group(self.field, vec, group)
            cols.append(vec)
        return Matrix(self.field, self.dim, left, cols).transpose()

    def project_head(self, image, rest):
        """(proj (x) I_rest)·image for an image whose rows are laid out as
        (this tensor's ambient, rest): the leading slots collapse to the
        quotient through the sparse columns of proj, with no ambient
        operator."""
        group = (1, self._pcols, self.dim, rest)
        cols = [_apply_group(self.field, col, group) for col in image.transpose().data]
        return Matrix(self.field, image.cols, self.dim * rest, cols).transpose()

    def _descends(self, cols):
        """Whether the map with these ambient columns vanishes on the
        relations: each column equals the combination of the picked columns
        that the same column of proj names, i.e. map = (map·sect)·proj."""
        f = self.field
        picked = [cols[p] for p in self._picks]
        for col, pcol in zip(cols, self._pcols):
            acc = [f.zero] * len(col)
            for i, c in pcol:
                for r, v in enumerate(picked[i]):
                    if v:
                        acc[r] = f.add(acc[r], f.mul(c, v))
            if acc != col:
                return False
        return True

    def descend_map(self, amb_map):
        """Quotient form amb_map·sect of a map out of the ambient space, or
        None when amb_map does not vanish on the balancing relations."""
        if not self._descends(amb_map.transpose().data):
            return None
        return Matrix(self.field, amb_map.rows, self.dim,
                      [[row[p] for p in self._picks] for row in amb_map.data])

    def descend_slot(self, slot, mat):
        """Quotient matrix proj·A·sect induced by an endomorphism A of one
        slot, or None when it does not preserve the balancing relations:
        column a of proj·A is the sparse columns of proj combined along
        A's image of e_a, so no ambient operator is built."""
        f = self.field
        group = _slot_group(prod(self.dims[:slot]), mat, self.strides[slot])
        to_q = self._to_q()
        proj_a = [_apply_pairs(f, _unit_image(group, p), to_q)
                  for p in range(self.ambient_dim)]
        if not self._descends(proj_a):
            return None
        return Matrix(f, self.dim, self.dim, [proj_a[p] for p in self._picks]).transpose()

    def proj(self):
        """The projection as a dense Matrix, built on first use."""
        if self._proj is None:
            self._proj = from_sparse_cols(self.field, self.dim, self._pcols)
        return self._proj

    def sect(self):
        """The section as a dense Matrix, built on first use."""
        if self._sect is None:
            self._sect = from_sparse_cols(
                self.field, self.ambient_dim,
                [[(p, self.field.one)] for p in self._picks])
        return self._sect

    def as_bimodule(self, name=None):
        return FBimodule(self.left_alg, self.right_alg, self.dim,
                         self.left_act, self.right_act, name=name or self.name)

    def pure_tensor(self, vecs):
        """Quotient coordinates of v1 (x) ... (x) vn: the nonzero entries of
        the ambient vector, projected through the sparse columns of proj."""
        f = self.field
        pairs = [(0, f.one)]
        for d, vec in zip(self.dims, vecs):
            pairs = [(p * d + i, f.mul(c, v)) for p, c in pairs
                     for i, v in enumerate(vec) if v]
        return _apply_pairs(f, pairs, self._to_q())

    def lift_pairs(self, quot_vec):
        """Lift a quotient vector to a list of (multi-index, coefficient), in
        row-major order: sect picks coordinates, and the picks increase."""
        if len(quot_vec) != self.dim:
            raise UsageError("matrix-vector shape mismatch")
        out = []
        for p, c in zip(self._picks, quot_vec):
            if c:
                multi = []
                for s in self.strides:
                    i, p = divmod(p, s)
                    multi.append(i)
                out.append((tuple(multi), c))
        return out

    def __repr__(self):
        return "BalancedTensor(%s, dim %d)" % (self.name, self.dim)


# ---------------------------------------------------------------------------
# hom spaces


def solve_map_space(src_dim, tgt_dim, constraints, field):
    """The space {X : all constraints vanish}, in its canonical basis.

    Each constraint is a list of (U, V, sign) triples meaning
    sum sign * U·X·V = 0; unknown X is tgt_dim x src_dim, flattened row-major.
    """
    nunk = src_dim * tgt_dim
    rows = []
    for terms in constraints:
        if not terms:
            continue
        p_rows = terms[0][0].rows
        q_cols = terms[0][1].cols
        for p in range(p_rows):
            for q in range(q_cols):
                row = zero_vec(field, nunk)
                nonzero = False
                for (u, v, sign) in terms:
                    for i in range(tgt_dim):
                        uc = u.data[p][i]
                        if uc == field.zero:
                            continue
                        for j in range(src_dim):
                            vc = v.data[j][q]
                            if vc == field.zero:
                                continue
                            c = field.mul(uc, vc)
                            if sign < 0:
                                c = field.neg(c)
                            row[i * src_dim + j] = field.add(row[i * src_dim + j], c)
                            nonzero = True
                if nonzero:
                    rows.append(row)
    if not rows:
        sub = Subspace.full(field, nunk)
    else:
        sub = kernel(Matrix.from_rows(field, rows))
    return MatrixSpace(field, tgt_dim, src_dim,
                       [unflatten(field, tgt_dim, src_dim, v) for v in sub.basis])


def sandwich_terms(p, w, left, right, sign=1):
    """Terms (U, V, sign), one per index pair of the identity slots, whose
    sum of U·X·V is P·(I_left (x) X (x) I_right)·W."""
    field = p.field
    tgt = p.cols // (left * right)
    src = w.rows // (left * right)
    out = []
    for a in range(left):
        for c in range(right):
            u = Matrix.from_cols(field, p.rows,
                                 [p.col((a * tgt + n) * right + c) for n in range(tgt)])
            v = Matrix(field, src, w.cols,
                       [w.row((a * src + m) * right + c) for m in range(src)])
            out.append((u, v, sign))
    return out


def hom_space(m, n, left_linear=False, right_linear=False, extra_constraints=()):
    """The space of linear maps M -> N with the flagged linearities, as a
    MatrixSpace in its canonical basis; every basis map has its flags
    verified.

    extra_constraints follow the solve_map_space convention and are imposed
    on top of the linearity equations.
    """
    field = m.field
    constraints = []
    if left_linear:
        if m.left_alg.dim != n.left_alg.dim:
            raise UsageError("hom_space: left algebras differ")
        for i in range(m.left_alg.dim):
            constraints.append([(Matrix.identity(field, n.dim), m.left_act[i], +1),
                                (n.left_act[i], Matrix.identity(field, m.dim), -1)])
    if right_linear:
        if m.right_alg.dim != n.right_alg.dim:
            raise UsageError("hom_space: right algebras differ")
        for i in range(m.right_alg.dim):
            constraints.append([(Matrix.identity(field, n.dim), m.right_act[i], +1),
                                (n.right_act[i], Matrix.identity(field, m.dim), -1)])
    constraints.extend(extra_constraints)
    space = solve_map_space(m.dim, n.dim, constraints, field)
    for mat in space.basis:
        FLinearMap(m, n, mat, left_linear=left_linear, right_linear=right_linear)
    return space


def span_witness(field, pairs, target):
    """Write target as a combination of the vectors of pairs, a list of
    (label, vector), matrices entering flattened (flatten_matrix).

    Returns [(label, c)] for the nonzero coefficients of solve_linear's
    canonical solution, in pair order, or None when target is outside the
    span.  With no pairs, [] exactly when target is zero.
    """
    if not pairs:
        return None if any(v != field.zero for v in target) else []
    a = Matrix.from_cols(field, len(target), [vec for _, vec in pairs])
    coeffs = solve_linear(a, list(target))
    if coeffs is None:
        return None
    return [(label, c) for (label, _), c in zip(pairs, coeffs) if c != field.zero]


def summand_witnesses(maps_mn, maps_nm):
    """Witnesses that M is a direct summand of a finite direct sum of copies
    of N, from MatrixSpaces of maps M -> N and N -> M: pairs (kappa, lam),
    one per basis map kappa that takes part, with lam in the span of
    maps_nm and sum lam∘kappa = id_M; None when id_M is no such sum, [] when
    M = 0."""
    field = maps_mn.field
    pairs = [((j, i), flatten_matrix(lam.mul(kap)))
             for j, kap in enumerate(maps_mn.basis)
             for i, lam in enumerate(maps_nm.basis)]
    wit = span_witness(field, pairs, flatten_matrix(Matrix.identity(field, maps_mn.cols)))
    if wit is None:
        return None
    grouped = {}
    for (j, i), c in wit:
        lam = maps_nm.basis[i].scale(c)
        grouped[j] = grouped[j].add(lam) if j in grouped else lam
    return [(maps_mn.basis[j], lam) for j, lam in grouped.items()]


def _say(message, *at):
    """An error message given as text or as a function of where it failed."""
    return message(*at) if callable(message) else message


class MatrixSpace:
    """A solved space of rows x cols matrices, kept in its canonical basis.

    Flattened row-major, the basis is the RREF basis of its span, as every
    solver here returns it, so the coordinates of a matrix are its entries
    at the pivots and one exact recombination decides membership
    (Subspace.coords); no basis is row-reduced again.
    """

    def __init__(self, field, rows, cols, basis):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.basis = list(basis)
        flat = [flatten_matrix(b) for b in self.basis]
        self.span = Subspace.from_span(field, rows * cols, flat)
        if self.span.basis != flat:
            raise UsageError("matrix space: the list is not the canonical basis "
                             "of its span")

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, mat):
        """Coordinates of mat, or None when it is outside the space."""
        return self.span.coords(flatten_matrix(mat))

    def coords_matrix(self, mats, message):
        """The coordinate columns of mats, taken in order; raises
        AxiomError(message) at the first matrix outside the space (message
        may be a function of that matrix's index)."""
        cols = []
        for i, mat in enumerate(mats):
            coords = self.coords(mat)
            if coords is None:
                raise AxiomError(_say(message, i))
            cols.append(coords)
        return Matrix.from_cols(self.field, self.dim, cols)

    def element(self, coords):
        """The matrix sum_k coords[k]·basis[k]."""
        return unflatten(self.field, self.rows, self.cols, self.span.combination(coords))

    def algebra(self, product, unit, name, product_message, unit_message):
        """The algebra on the space with e_i·e_j = product(b_i, b_j) and unit
        matrix unit, validated; the zero algebra when the space is 0.
        Raises AxiomError(product_message) when a product leaves the space
        (product_message may be a function of (i, j)), and
        AxiomError(unit_message) when the unit does."""
        if not self.basis:
            return zero_algebra(self.field, name=name)
        n = self.dim
        mul = [[None] * n for _ in range(n)]
        for i, bi in enumerate(self.basis):
            for j, bj in enumerate(self.basis):
                mul[i][j] = self.coords(product(bi, bj))
                if mul[i][j] is None:
                    raise AxiomError(_say(product_message, i, j))
        unit_coords = self.coords(unit)
        if unit_coords is None:
            raise AxiomError(unit_message)
        alg = FiniteAlgebra(self.field, n, mul, unit_coords, name=name)
        alg.validate()
        return alg


def endo_algebra(space, name="End", opposite=False):
    """FiniteAlgebra structure on a composition-closed space of endomorphisms.

    Multiplication is composition t*t' = t∘t' (or t'∘t when opposite=True).
    Raises AxiomError when the span is not closed under composition.
    """
    return space.algebra(
        (lambda s, t: t.mul(s)) if opposite else (lambda s, t: s.mul(t)),
        Matrix.identity(space.field, space.rows), name,
        lambda i, j: "%s: not closed under composition at (%d,%d)" % (name, i, j),
        "%s: identity map is not in the span" % name)


def zero_algebra(field, name="0"):
    """The zero ring as a 0-dimensional algebra (only the zero module over it)."""
    return FiniteAlgebra(field, 0, [], [], name=name)


# ---------------------------------------------------------------------------
# projectivity / generator certificates


def fgp_check(m, side, alg):
    """Dual-basis witness that m is f.g. projective over alg on the given side.

    Returns (elements, functionals), the functionals as matrices, with
    sum x_i xi_i(v) = v for all v (right side; mirrored for left), or None
    when no dual basis exists.  Decided once per (side, algebra) and kept on
    the module, whose actions never change after construction.
    """
    if (side, alg) not in m._fgp:
        m._fgp[side, alg] = _dual_basis(m, side, alg)
    return m._fgp[side, alg]


def _dual_basis(m, side, alg):
    """fgp_check's search: id_M inside the image of the evaluation pairing."""
    field = m.field
    if side == "right":
        homs = hom_space(m, FBimodule.regular(alg), right_linear=True)
    elif side == "left":
        homs = hom_space(m, FBimodule.regular(alg), left_linear=True)
    else:
        raise UsageError("side must be 'left' or 'right'")
    if m.dim == 0:
        return ([], [])
    pairs = []
    act_vec = m.right_act_vec if side == "right" else m.left_act_vec
    for h in homs.basis:
        acts = [act_vec(h.col(j)) for j in range(m.dim)]
        for x in range(m.dim):
            # v -> x · h(v)   (right side),  v -> h(v) · x  (left side)
            pairs.append(((h, x), flatten_matrix(
                Matrix.from_cols(field, m.dim, [act.col(x) for act in acts]))))
    wit = span_witness(field, pairs, flatten_matrix(Matrix.identity(field, m.dim)))
    if wit is None:
        return None
    return ([vec_scale(field, c, unit_vec(field, m.dim, x)) for (_, x), c in wit],
            [h for (h, _), _ in wit])


def generator_check(m, side, alg):
    """Witness that m generates alg-modules on the given side.

    Finds functionals xi_i (as matrices) and elements x_i with
    sum xi_i(x_i) = 1, by linear membership of the unit in the trace span;
    None when m is not a generator.
    """
    field = m.field
    homs = hom_space(m, FBimodule.regular(alg),
                     right_linear=(side == "right"), left_linear=(side == "left"))
    wit = span_witness(field, [((h, x), h.col(x)) for h in homs.basis
                               for x in range(m.dim)], alg.unit)
    if not wit:
        return None
    return ([h for (h, _), _ in wit],
            [vec_scale(field, c, unit_vec(field, m.dim, x)) for (_, x), c in wit])
