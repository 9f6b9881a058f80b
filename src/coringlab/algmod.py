"""Finite-dimensional algebras, bimodules, hom-spaces and balanced tensors.

FBimodule owns the matrices of a module's actions: the action of an element
(left_act_vec, right_act_vec; lmul_vec and rmul_vec on an algebra), the
orbit maps a -> a·x and a -> x·a of the basis elements (left_orbits,
right_orbits) and the evaluation maps A (x) M -> M and M (x) A -> M
(left_eval, right_eval; mult_eval), the last two built once.  It also owns
the module shapes: one-sided modules (right_module, left_module, with the
trivial one-dimensional algebra on the inert side, so a single hom-space
solver with linearity flags, hom_space, covers all four hom flavours and
every further relation reaches it as operator terms), an algebra over a base
through a unit map (through), direct sums (direct_sum), regular and trivial.
"""

from __future__ import annotations

from math import prod

from .exactla import (AxiomError, Matrix, Subspace, UsageError, flatten_matrix,
                      from_sparse_cols, kernel, modulus, quotient, side_by_side,
                      solve_linear, unflatten, unit_vec, vec_scale, zero_vec)


def _combination(field, dim, mats, vec):
    """The dim x dim matrix sum_i vec[i]·mats[i], built row by row in one
    pass over the nonzero coefficients."""
    terms = [(c, m.data) for c, m in zip(vec, mats) if c]
    if not terms:
        return Matrix.zero(field, dim, dim)
    (c0, first), rest = terms[0], terms[1:]
    add, mul, one = field.add, field.mul, field.one
    data = []
    for r in range(dim):
        row = list(first[r]) if c0 == one else [mul(c0, v) for v in first[r]]
        for c, mat in rest:
            for j, v in enumerate(mat[r]):
                if v:
                    row[j] = add(row[j], mul(c, v))
        data.append(row)
    return Matrix(field, dim, dim, data)


def _orbits(field, dim, acts):
    """For each basis element x of a dim-dimensional module, the matrix of
    the algebra's basis elements acting on x through acts: column i is
    acts[i]·e_x."""
    return [Matrix(field, dim, len(acts), [[act.data[r][x] for act in acts]
                                           for r in range(dim)])
            for x in range(dim)]


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
        self._mult_eval = None
        self._valid = None

    def is_valid(self):
        """Whether validate passes (decided once per algebra)."""
        if self._valid is None:
            try:
                self.validate()
            except (AxiomError, UsageError):
                self._valid = False
        return self._valid

    def lmul(self, i):
        return self._lmul[i]

    def rmul(self, j):
        return self._rmul[j]

    def lmul_vec(self, vec):
        """Matrix of left multiplication by the element with coordinates vec."""
        return _combination(self.field, self.dim, self._lmul, vec)

    def rmul_vec(self, vec):
        """Matrix of right multiplication by the element with coordinates vec."""
        return _combination(self.field, self.dim, self._rmul, vec)

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

    def generators_decide(self, *modules):
        """The premise of first_failing for identities between the actions
        of this algebra on the given modules (and on itself): the algebra
        and every module are valid.  A caller also checks that each module
        is over this very algebra object on the side that acts."""
        return self.is_valid() and all(m.is_valid() for m in modules)

    def deciding_indices(self, premise):
        """The generators when premise holds, every basis index otherwise."""
        return self.generators() if premise else range(self.dim)

    def first_failing(self, holds, premise, rows=None):
        """The first basis index b at which holds(b) is false, or None; with
        rows, the first pair (i, b), i in range(rows), in row-major order at
        which holds(i, b) is false.

        When premise holds, holds is first tried at the generators b alone
        (generators_decide gives the usual premise); only when one of them
        fails is every index scanned, in order, so the first failure found
        is the one a scan of the whole basis finds.  The generators decide
        every identity between two unital actions that are multiplicative
        (φ(ab) = φ(a)φ(b), or φ(b)φ(a) for a right action): the actions of
        a valid algebra on itself, of valid modules over it, and those made
        of them, such as the outer actions of a balanced tensor of valid
        modules.  Each set S below is a subspace containing 1, and closed
        under b -> b·g for every generator g once the check holds at g (at
        every (a, g) for a pair); the words in the generators span the
        algebra (generators() is that closure), so S is everything.

        - Multiplicativity of φ, checked at (a, g):
          S = {b : φ(ab) = φ(a)φ(b) for all a}, and for b in S
          φ(a(bg)) = φ((ab)g) = φ(ab)φ(g) = φ(a)φ(b)φ(g) = φ(a)φ(bg),
          by associativity of A in the first step (for the algebra's own
          multiplication that step is b in S, so there unitality is the
          whole premise).
        - A map X intertwining two actions φ and ψ (a linear map, a
          commuting action, an operator that descends to a quotient):
          S = {b : X·φ(b) = ψ(b)·X}, and X·φ(bg) = X·φ(b)φ(g) =
          ψ(b)·X·φ(g) = ψ(b)ψ(g)·X = ψ(bg)·X.
        """
        def first(indices):
            if rows is None:
                return next((b for b in indices if not holds(b)), None)
            return next(((i, b) for i in range(rows) for b in indices
                         if not holds(i, b)), None)

        indices = self.deciding_indices(premise)
        found = first(indices)
        if found is not None and len(indices) < self.dim:
            found = first(range(self.dim))
        return found

    def validate(self):
        if self._valid:
            return True
        f = self.field
        n = self.dim
        lu = self.lmul_vec(self.unit)
        ru = self.rmul_vec(self.unit)
        ident = Matrix.identity(f, n)
        if lu != ident:
            raise AxiomError("algebra %s: unitality fails (1*a != a)" % self.name)
        if ru != ident:
            raise AxiomError("algebra %s: unitality fails (a*1 != a)" % self.name)
        # (e_i e_j) e_k  vs  e_i (e_j e_k), as matrices acting on e_k; the
        # unitality just checked is the whole premise
        at = self.first_failing(
            lambda i, j: self.lmul_vec(self.mul[i][j]) == self._lmul[i].mul(self._lmul[j]),
            True, rows=n)
        if at is not None:
            raise AxiomError("algebra %s: associativity fails at basis pair (%d,%d)"
                             % ((self.name,) + at))
        self._valid = True
        return True

    def mult_eval(self):
        """Matrix of multiplication A (x) A -> A on the row-major pair basis,
        [L_0 | L_1 | ...] for the left multiplications L_i; built once."""
        if self._mult_eval is None:
            self._mult_eval = side_by_side(self.field, self.dim, self._lmul)
        return self._mult_eval

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
    the inert side (right_module, left_module).  The actions never change
    after construction, so the orbit and evaluation maps are built once.
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
        self._built = {}

    def actions_commute(self):
        """Whether every left action matrix commutes with every right one
        (decided once per module: by validate, on the generators, once both
        actions are known to be multiplicative, and over every pair when
        read first; validate reports where it fails)."""
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
    def trivial(field, dim, name="V", over=None):
        """k^dim with the one-dimensional algebra over (a new trivial_algebra
        unless given) acting by scalars on both sides."""
        k = trivial_algebra(field) if over is None else over
        ident = Matrix.identity(field, dim)
        return FBimodule(k, k, dim, [ident], [ident.copy()], name=name)

    @staticmethod
    def right_module(alg, dim, acts, name="M"):
        """A right alg-module with action matrices acts; the ground field
        acts on the left by scalars."""
        return FBimodule(trivial_algebra(alg.field), alg, dim,
                         [Matrix.identity(alg.field, dim)], acts, name=name)

    @staticmethod
    def left_module(alg, dim, acts, name="M"):
        """A left alg-module with action matrices acts; the ground field
        acts on the right by scalars."""
        return FBimodule(alg, trivial_algebra(alg.field), dim, acts,
                         [Matrix.identity(alg.field, dim)], name=name)

    @staticmethod
    def regular(alg, name=None):
        """The algebra as a bimodule over itself."""
        return FBimodule(alg, alg, alg.dim,
                         [alg.lmul(i) for i in range(alg.dim)],
                         [alg.rmul(j) for j in range(alg.dim)],
                         name=name or alg.name)

    @staticmethod
    def through(alg, base, eta, name=None):
        """alg as a (base, base)-bimodule through the unit map eta (alg.dim x
        base.dim): l acts by left and by right multiplication with eta(l)."""
        return FBimodule(base, base, alg.dim,
                         [alg.lmul_vec(eta.col(i)) for i in range(base.dim)],
                         [alg.rmul_vec(eta.col(i)) for i in range(base.dim)],
                         name=name or alg.name)

    @staticmethod
    def direct_sum(mods, name):
        """M_1 (+) ... (+) M_n over the algebras of M_1, every action matrix
        block diagonal."""
        first = mods[0]
        f = first.field
        dim = sum(m.dim for m in mods)

        def block(mats):
            data, off = [], 0
            for mat in mats:
                data += [[f.zero] * off + list(row) + [f.zero] * (dim - off - mat.cols)
                         for row in mat.data]
                off += mat.cols
            return Matrix(f, dim, dim, data)

        return FBimodule(first.left_alg, first.right_alg, dim,
                         [block(mats) for mats in zip(*(m.left_act for m in mods))],
                         [block(mats) for mats in zip(*(m.right_act for m in mods))],
                         name=name)

    def left_act_vec(self, vec):
        """Matrix of the left action of the element with coordinates vec."""
        return _combination(self.field, self.dim, self.left_act, vec)

    def right_act_vec(self, vec):
        """Matrix of the right action of the element with coordinates vec."""
        return _combination(self.field, self.dim, self.right_act, vec)

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def left_orbits(self):
        """For each basis element x, the matrix of a -> a·x; built once."""
        return self._once("left_orbits", lambda: _orbits(self.field, self.dim, self.left_act))

    def right_orbits(self):
        """For each basis element x, the matrix of a -> x·a; built once."""
        return self._once("right_orbits",
                          lambda: _orbits(self.field, self.dim, self.right_act))

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
        l, r = self.left_act, self.right_act
        at = la.first_failing(lambda i, j: l[i].mul(l[j]) == self.left_act_vec(la.mul[i][j]),
                              la.is_valid(), rows=la.dim)
        if at is not None:
            raise AxiomError("module %s: left action not associative at (%d,%d)"
                             % ((self.name,) + at))
        # (m.e_i).e_j = m.(e_i e_j)
        at = ra.first_failing(lambda i, j: r[j].mul(r[i]) == self.right_act_vec(ra.mul[i][j]),
                              ra.is_valid(), rows=ra.dim)
        if at is not None:
            raise AxiomError("module %s: right action not associative at (%d,%d)"
                             % ((self.name,) + at))
        if self._commute is not True:
            # both actions are multiplicative now: decided on the generators,
            # naming the first pair that fails
            def first_noncommuting(i):
                return ra.first_failing(lambda j: l[i].mul(r[j]) == r[j].mul(l[i]),
                                        ra.is_valid())

            i = la.first_failing(lambda i: first_noncommuting(i) is None, la.is_valid())
            self._commute = i is None
            if i is not None:
                raise AxiomError("module %s: left and right actions do not commute at (%d,%d)"
                                 % (self.name, i, first_noncommuting(i)))
        self._valid = True
        return True

    def left_eval(self):
        """Matrix of the action map left_alg (x) M -> M (row-major pairs),
        the left action matrices side by side; built once."""
        return self._once("left_eval",
                          lambda: side_by_side(self.field, self.dim, self.left_act))

    def right_eval(self):
        """Matrix of the action map M (x) right_alg -> M (row-major pairs),
        the right orbit maps side by side; built once."""
        return self._once("right_eval",
                          lambda: side_by_side(self.field, self.dim, self.right_orbits()))

    def __repr__(self):
        return "FBimodule(%s: %s-%s, dim %d)" % (self.name, self.left_alg.name,
                                                 self.right_alg.name, self.dim)


def _linearity_premise(alg, other, m, n):
    """Whether linearity of maps m -> n over alg (other on n's side) is
    decided on alg's generators: the same algebra object, and valid
    modules (FiniteAlgebra.first_failing)."""
    return alg is other and alg.generators_decide(m, n)


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
        src, tgt, mat = self.source, self.target, self.matrix
        if self.left_linear:
            la, lb = src.left_alg, tgt.left_alg
            if la.dim != lb.dim:
                raise UsageError("left algebras differ")
            i = la.first_failing(
                lambda i: mat.mul(src.left_act[i]) == tgt.left_act[i].mul(mat),
                _linearity_premise(la, lb, src, tgt))
            if i is not None:
                raise AxiomError("map is not left %s-linear at basis %d" % (la.name, i))
        if self.right_linear:
            ra, rb = src.right_alg, tgt.right_alg
            if ra.dim != rb.dim:
                raise UsageError("right algebras differ")
            i = ra.first_failing(
                lambda i: mat.mul(src.right_act[i]) == tgt.right_act[i].mul(mat),
                _linearity_premise(ra, rb, src, tgt))
            if i is not None:
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


def _sparse_cols(mat, rows=None):
    """The nonzero (row, value) entries of each column of mat, row r named
    rows[r] when rows is given."""
    cols = [[] for _ in range(mat.cols)]
    for r, row in enumerate(mat.data):
        name = r if rows is None else rows[r]
        for j, v in enumerate(row):
            if v:
                cols[j].append((name, v))
    return cols


def _slot_group(left, mat, right):
    """(left, nonzero entries of each column of mat, mat.rows, right): the
    operator I_left (x) mat (x) I_right in the form _apply_sparse reads."""
    return left, _sparse_cols(mat), mat.rows, right


def _apply_sparse(vecs, group, p):
    """(I_left (x) mat (x) I_right)·v for each v in vecs, given by its
    nonzero (index, value) entries laid out row-major as (left, mat.cols,
    right): the nonzero entries of the images, in order, laid out as (left,
    mat.rows, right).  The arithmetic is inline, one reduction mod p per
    update over F_p (p None over Q), so no vector is ever dense.  The one
    slot-group kernel: induced maps, the carried actions of _build, the
    projection steps, the slot actions, the descent checks and pure tensors
    all go through it, a whole batch of vectors per call."""
    _, cols, n_out, right = group
    block_in = len(cols) * right
    block_out = n_out * right
    images = []
    for pairs in vecs:
        acc = {}
        get = acc.get
        for q, v in pairs:
            l, rest = divmod(q, block_in)
            j, off = divmod(rest, right)
            base = l * block_out + off
            if p is None:
                for i, c in cols[j]:
                    k = base + i * right
                    acc[k] = get(k, 0) + c * v
            else:
                for i, c in cols[j]:
                    k = base + i * right
                    acc[k] = (get(k, 0) + c * v) % p
        images.append([(k, c) for k, c in acc.items() if c])
    return images


def _push(vecs, groups, p):
    """Sparse vectors through the slot groups in turn."""
    for group in groups:
        vecs = _apply_sparse(vecs, group, p)
    return vecs


def _balancing_indices(left, alg, right):
    """The basis indices b whose relations ρ_b = R_b (x) I - I (x) L_b span
    the balancing of left (x)_alg right.  Under first_failing's premise (the
    algebra and both modules valid, over this very algebra), its generators
    do: ρ_1 = 0 by unitality, and ρ_{sg}(x (x) y) = ρ_g(x·s (x) y) +
    ρ_s(x (x) g·y) by associativity.  Otherwise every basis index does."""
    return alg.deciding_indices(left.right_alg is alg and right.left_alg is alg and
                                alg.generators_decide(left, right))


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
    as one factor per step (``_steps``, each step's quotient), which the
    slot-group kernel applies in turn (``_chain``); the section picks the
    ambient coordinates ``_picks``.  A tensor built with ``prefix=T``, T a
    tensor over its leading factors and algebras (the very objects), resumes
    from T's steps and picks and runs only the new steps: C (x)_A C (x)_A C
    on C (x)_A C.  The composed sparse columns (``_proj_cols``) and the
    dense ``proj()`` and ``sect()`` are built on demand, once per tensor,
    for the descent checks and for callers that want a Matrix.  The pair
    splits the full ambient space (proj·sect = 1), so the relations are
    ker(proj) = im(1 - sect·proj) and balancing is decided by two operator
    identities, without ever forming the relation kernel:

    - a map M out of the ambient space vanishes on the relations iff
      M = (M·sect)·proj (``descend_map``);
    - an operator A on one slot preserves them iff proj·A = induced·proj
      with induced = proj·A·sect (``descend_slot``).

    ``src.induced(dst, [(slot, F), ...], at=X)`` is the one way to build a
    map between balanced tensors out of per-slot maps: it owns the
    row-major ambient layout, so callers never form identity krons.  It
    returns the map evaluated at the columns of X (the whole map when X is
    omitted), each pushed through the slots as its nonzero (index, value)
    entries, so a composite (F (x) G)∘Delta costs C.dim sparse vectors and
    never the whole map on C (x)_A C.  When the image is to be read in a
    tensor whose first factor is this quotient, ``project_head`` collapses
    its leading slots first.

    The outer bimodule structure (the left action of the first factor, the
    right action of the last) is proj·A·sect, the value ``descend_slot``
    gives.  It is built on first read of ``left_act``/``right_act``, column
    by column over the picks, when it is known to descend: the right action
    when the last factor's actions commute, the left one when those of every
    factor but the last do (each module decides this once).  Otherwise the
    exact ``descend_slot`` check runs for that side in the constructor, and
    an action that does not descend raises AxiomError.
    """

    def __init__(self, factors, algebras, name=None, prefix=None):
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
        # the factors fix the algebras (checked above), so the same factor
        # objects mean the same steps
        if prefix is not None and not (len(prefix.factors) <= len(factors) and all(
                a is b for a, b in zip(prefix.factors, factors))):
            raise UsageError("tensor %s cannot resume from %s: its factors and algebras "
                             "are not the leading ones" % (self.name, prefix.name))
        # outer bimodule structure over (left alg of first, right alg of last)
        self.left_alg = factors[0].left_alg
        self.right_alg = factors[-1].right_alg
        self._build(prefix)
        self.dim = len(self._picks)
        self._left_act = self._right_act = None
        if not all(m.actions_commute() for m in factors[:-1]):
            self._left_act = [self.descend_slot(0, a) for a in factors[0].left_act]
        if not factors[-1].actions_commute():
            self._right_act = [self.descend_slot(len(factors) - 1, a)
                               for a in factors[-1].right_act]
        for side, acts in (("left", self._left_act), ("right", self._right_act)):
            if acts is not None and None in acts:
                raise AxiomError("tensor %s: outer %s action does not descend"
                                 % (self.name, side))

    @property
    def left_act(self):
        """The outer left action, of the first factor's left algebra; built
        on first read."""
        if self._left_act is None:
            self._left_act = [self._slot_action(0, a) for a in self.factors[0].left_act]
        return self._left_act

    @property
    def right_act(self):
        """The outer right action, of the last factor's right algebra; built
        on first read."""
        if self._right_act is None:
            last = len(self.factors) - 1
            self._right_act = [self._slot_action(last, a)
                               for a in self.factors[last].right_act]
        return self._right_act

    def _build(self, prefix):
        """Iterated pairwise quotients Q_k = Q_{k-1} (x)_{B_k} M_k, resumed
        after the steps of prefix when given: its steps are the same echelon
        results, so the tensor is the same.  The relation rows of
        R_b (x) I - I (x) L_b are read off the sparse columns of R_b and
        L_b, with no vector pushed.  R_b is the right action of the quotient
        so far, at that step's balancing indices b alone: after the first
        step, the last factor's R_b carried through the last quotient q as
        q.proj·(I (x) R_b)·q.sect.  Each step keeps its QuotientSpace
        (_steps): the projection is their chain, one slot group per step
        (_chain), and its composed sparse columns (_proj_cols) are built on
        first read.  Every section is a coordinate selection, so sect is
        kept as the ambient coordinate each quotient coordinate picks.  The
        outer actions are built on first read (left_act, right_act)."""
        f = self.field
        zero, mod = f.zero, modulus(f)
        if prefix is None:
            steps, picks = [], list(range(self.dims[0]))
        else:
            steps, picks = list(prefix._steps), prefix._picks
        cur_dim = len(picks)
        for step, alg in enumerate(self.algebras[len(steps):], len(steps)):
            last, nxt = self.factors[step], self.factors[step + 1]
            n = nxt.dim
            rels = []
            for b in _balancing_indices(last, alg, nxt):
                r_cols = _sparse_cols(last.right_act[b])
                if steps:
                    # column j of q.proj·(I (x) R_b)·q.sect: R_b's column i
                    # shifted into block a, for kept[j] = (a, i), then q.proj
                    q, d = steps[-1], last.dim
                    r_cols = _apply_sparse([[(k - k % d + r, c) for r, c in r_cols[k % d]]
                                            for k in q.kept], (1, q.cols, q.dim, 1), mod)
                l_cols = _sparse_cols(nxt.left_act[b])
                # the relation at e_i (x) e_j: column i of R_b laid out as
                # (., j), minus column j of L_b laid out as (i, .)
                for i in range(cur_dim):
                    for j in range(n):
                        row = {r * n + j: c for r, c in r_cols[i]}
                        for r, c in l_cols[j]:
                            k = i * n + r
                            row[k] = f.sub(row.get(k, zero), c)
                        rels.append({k: c for k, c in row.items() if c})
            q = quotient(f, cur_dim * n, rels)
            steps.append(q)
            picks = [picks[p // n] * n + p % n for p in q.kept]
            cur_dim = q.dim
        self._steps = steps
        self._picks = picks
        self._pcols = self._proj = self._sect = None

    def _chain(self, rest=1):
        """The projection (x) I_rest as one slot group per step, in the
        form _push reads: step s applies its quotient to the leading slots
        and the identity to the factors after it and to rest."""
        dims = self.dims
        return [(1, q.cols, q.dim, prod(dims[s + 2:]) * rest)
                for s, q in enumerate(self._steps)]

    def _proj_cols(self):
        """The sparse columns of the whole projection, column a the nonzero
        (row, value) entries of proj·e_a: the ambient unit vectors pushed
        through the steps, on first read (_descends and proj() read it)."""
        if self._pcols is None:
            one = self.field.one
            self._pcols = _push([[(a, one)] for a in range(self.ambient_dim)],
                                self._chain(), modulus(self.field))
        return self._pcols

    def induced(self, dst, factors, at=None):
        """dst.proj·(F_1 (x) ... (x) F_k)·sect·X, or the ambient image when
        dst is None, for X = at (the identity when at is None).  factors are
        (slot, F) pairs in slot order: F reads the fewest slots from there
        whose dimensions multiply to its column count and may have any
        number of rows; other slots carry the identity.  Each column of X,
        lifted through sect to its nonzero entries at the picks, passes
        through the F slot group by slot group and the sparse columns of
        dst.proj last, as (index, value) entries, so no ambient operator or
        vector is built and the cost follows the columns of X: a structure
        check (F (x) G)∘Delta passes at=Delta and pushes C.dim vectors, not
        one per basis vector of C (x)_A C."""
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
            groups += dst._chain()
            left = dst.dim
        if at is None:
            starts = [[(q, self.field.one)] for q in self._picks]
        elif at.rows != self.dim:
            raise UsageError("a map out of %s (dimension %d) cannot be evaluated at "
                             "a %dx%d matrix" % (self.name, self.dim, at.rows, at.cols))
        else:
            starts = _sparse_cols(at, self._picks)
        p = modulus(self.field)
        return from_sparse_cols(self.field, left, _push(starts, groups, p))

    def project_head(self, image, rest):
        """(proj (x) I_rest)·image for an image whose rows are laid out as
        (this tensor's ambient, rest): the leading slots collapse to the
        quotient through the steps of proj, column by column over the
        nonzero entries of the image, with no ambient operator."""
        p = modulus(self.field)
        return from_sparse_cols(self.field, self.dim * rest,
                                _push(_sparse_cols(image), self._chain(rest), p))

    def _descends(self, cols, rows):
        """Whether the map with these ambient columns, given by their
        nonzero (row, value) entries among rows rows, vanishes on the
        relations: each column equals the combination of the picked columns
        that the same column of proj names, i.e. map = (map·sect)·proj."""
        picked = (1, [cols[p] for p in self._picks], rows, 1)
        mod = modulus(self.field)
        return all(dict(comb) == dict(col)
                   for col, comb in zip(cols, _apply_sparse(self._proj_cols(), picked, mod)))

    def descend_map(self, amb_map):
        """Quotient form amb_map·sect of a map out of the ambient space, or
        None when amb_map does not vanish on the balancing relations."""
        if not self._descends(_sparse_cols(amb_map), amb_map.rows):
            return None
        return Matrix(self.field, amb_map.rows, self.dim,
                      [[row[p] for p in self._picks] for row in amb_map.data])

    def _slot_cols(self, slot, mat, points):
        """The nonzero entries of the columns p of proj·A at the given
        ambient points, for an endomorphism A of one slot: A's image of e_p,
        then the steps of proj, so no ambient operator is built."""
        group = _slot_group(prod(self.dims[:slot]), mat, self.strides[slot])
        one, mod = self.field.one, modulus(self.field)
        return _push([[(p, one)] for p in points], [group] + self._chain(), mod)

    def _slot_action(self, slot, mat):
        """proj·A·sect for an endomorphism A of one slot: the columns of
        proj·A at the picks."""
        return from_sparse_cols(self.field, self.dim,
                                self._slot_cols(slot, mat, self._picks))

    def descend_slot(self, slot, mat):
        """Quotient matrix proj·A·sect induced by an endomorphism A of one
        slot, or None when it does not preserve the balancing relations."""
        proj_a = self._slot_cols(slot, mat, range(self.ambient_dim))
        if not self._descends(proj_a, self.dim):
            return None
        return from_sparse_cols(self.field, self.dim, [proj_a[p] for p in self._picks])

    def proj(self):
        """The projection as a dense Matrix, built on first use."""
        if self._proj is None:
            self._proj = from_sparse_cols(self.field, self.dim, self._proj_cols())
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
        the ambient vector, projected through the steps of proj."""
        f = self.field
        pairs = [(0, f.one)]
        for d, vec in zip(self.dims, vecs):
            pairs = [(p * d + i, f.mul(c, v)) for p, c in pairs
                     for i, v in enumerate(vec) if v]
        out = [f.zero] * self.dim
        for i, c in _push([pairs], self._chain(), modulus(f))[0]:
            out[i] = c
        return out

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


def constraint_rows(src_dim, tgt_dim, terms, field):
    """For the (U, V, sign) terms of one constraint, the coefficient rows of
    the entries (p, q) of sum sign * U·X·V, row-major in (p, q), in the
    unknown X (tgt_dim x src_dim, flattened row-major)."""
    nunk = src_dim * tgt_dim
    out = []
    for p in range(terms[0][0].rows):
        for q in range(terms[0][1].cols):
            row = zero_vec(field, nunk)
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
            out.append(row)
    return out


def solve_map_space(src_dim, tgt_dim, constraints, field):
    """The space {X : all constraints vanish}, in its canonical basis.

    Each constraint is a list of (U, V, sign) triples meaning
    sum sign * U·X·V = 0; unknown X is tgt_dim x src_dim, flattened row-major.
    """
    nunk = src_dim * tgt_dim
    rows = [row for terms in constraints if terms
            for row in constraint_rows(src_dim, tgt_dim, terms, field)]
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
    verified.  A linearity is imposed at the algebra's generators alone when
    both modules are valid over that very algebra object: the same
    equations hold (FiniteAlgebra.first_failing), so the same space.

    extra_constraints follow the solve_map_space convention and are imposed
    on top of the linearity equations.
    """
    field = m.field
    constraints = []
    if left_linear:
        la = m.left_alg
        if la.dim != n.left_alg.dim:
            raise UsageError("hom_space: left algebras differ")
        for i in la.deciding_indices(_linearity_premise(la, n.left_alg, m, n)):
            constraints.append([(Matrix.identity(field, n.dim), m.left_act[i], +1),
                                (n.left_act[i], Matrix.identity(field, m.dim), -1)])
    if right_linear:
        ra = m.right_alg
        if ra.dim != n.right_alg.dim:
            raise UsageError("hom_space: right algebras differ")
        for i in ra.deciding_indices(_linearity_premise(ra, n.right_alg, m, n)):
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
    # v -> x·h(v) (right side), v -> h(v)·x (left side): the orbit of x after h
    orbits = m.right_orbits() if side == "right" else m.left_orbits()
    pairs = [((h, x), flatten_matrix(orbit.mul(h)))
             for h in homs.basis for x, orbit in enumerate(orbits)]
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
