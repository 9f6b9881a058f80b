"""Example families: entwining structures (strict and weak), comodule
algebras over a bialgebra, idempotent partial group actions and canonical
corings over a subalgebra, plus the bundled fixtures E1-E5.

Every constructor checks what it is handed exactly (input checks): a group
table, a coalgebra or bialgebra given by its matrices, an entwining, the
coaction of a comodule algebra, a partial action, a spanning set, and the
structures a fixture writes out by hand.  Failures name the first broken
axiom and basis pair.  An input already checked or vouched for is not
checked again (Checked.require_valid).  What a constructor derives from
valid inputs is valid by a standard result, written in its docstring, and
is handed to algmod.vouch rather than re-validated: the algebras k^n, k[x]/(f) and a
subalgebra, the grouplike and dual group coalgebras, kG as a Hopf algebra,
the coaction of the regular comodule algebra (H over itself by Delta), A
over a one-dimensional base through the default unit map, the entwining of
a comodule algebra, the corings and extensions of strict and weak
entwinings, the Sweedler coring with its grouplike, the trivial
extension, and C as a comodule over itself.  When an input is invalid the
former check runs and raises its former message.  Only partial_action_coring
still checks its outputs: its outer coaction is a repaired family that no
written argument covers.  Every multiplicativity axiom (of a coproduct, a
counit, a comodule-algebra coaction or a partial action's alpha_s) is one
non_multiplicative_at check, against a tensor_algebra or the ground field
where the target needs one.
"""

from __future__ import annotations

from functools import cached_property

from .algmod import (BalancedTensor, Checked, FBimodule, FiniteAlgebra, MatrixSpace,
                     non_multiplicative_at, tensor_algebra, trivial_algebra, vouch)
from .coring import (Comodule, Coring, Grouplike, comodule_direct_sum,
                     grouplike_comodule, trivial_coring, zero_comodule)
from .exactla import (AxiomError, Matrix, Subspace, UsageError, from_sparse_cols, image,
                      rank, side_by_side, unit_vec, zero_vec)
from .extension import CoringExtension, purity_check


# ---------------------------------------------------------------------------
# small algebra builders


def _table_algebra(field, table, name):
    """The algebra with basis the indices of table and e_i·e_j = e_table[i][j]
    (0 where table[i][j] is no index), unit e_0; not checked."""
    n = len(table)
    mul = [[[field.one if table[i][j] == k else field.zero for k in range(n)]
            for j in range(n)] for i in range(n)]
    return FiniteAlgebra(field, n, mul, unit_vec(field, n, 0), name=name)


def group_algebra(field, table, name="kG"):
    """Group algebra from a multiplication table (table[i][j] = index of g_i g_j).

    Index 0 must be the unit element.  The algebra is checked: that is the
    check of the table's associativity.
    """
    n = len(table)
    if any(table[0][j] != j or table[j][0] != j for j in range(n)):
        raise UsageError("group table: index 0 is not the unit")
    alg = _table_algebra(field, table, name)
    alg.validate()
    return alg


def product_field_algebra(field, n, name=None):
    """k x k x ... x k with componentwise product.  Vouched for with no
    premise: a product of copies of the field is associative with unit
    (1, ..., 1)."""
    mul = [[[field.one if i == j == k else field.zero for k in range(n)]
            for j in range(n)] for i in range(n)]
    unit = [field.one] * n
    alg = FiniteAlgebra(field, n, mul, unit, name=name or "k^%d" % n)
    vouch(alg, check=alg.validate)
    return alg


def quotient_polynomial_algebra(field, coeffs, name=None):
    """k[x]/(x^n - c_{n-1}x^{n-1} - ... - c_0), basis 1, x, ..., x^{n-1}.
    Vouched for with no premise: e_i·e_j is x^(i+j) reduced modulo the
    monic polynomial, which is the product of the quotient ring k[x]/(f),
    associative and commutative with unit 1."""
    n = len(coeffs)
    pows = [unit_vec(field, n, i) for i in range(n)]
    xn = list(coeffs)

    def times_x(v):
        out = zero_vec(field, n)
        for i in range(n - 1):
            out[i + 1] = v[i]
        if v[n - 1] != field.zero:
            out = [field.add(a, field.mul(v[n - 1], b)) for a, b in zip(out, xn)]
        return out

    mul = []
    for i in range(n):
        row = []
        vi = pows[i]
        for j in range(n):
            v = list(vi)
            for _ in range(j):
                v = times_x(v)
            row.append(v)
        mul.append(row)
    alg = FiniteAlgebra(field, n, mul, unit_vec(field, n, 0), name=name or "k[x]/f")
    vouch(alg, check=alg.validate)
    return alg


def inverse_table(table):
    n = len(table)
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inv[i] = j
    if any(v is None for v in inv):
        raise UsageError("group table has no inverses")
    return inv


def group_function_coring(field, table, name="k(G)"):
    """The dual basis coalgebra of a finite group, as a coring over k.

    Vouched for when the table is a group (and checked otherwise): k(G) is
    the coalgebra dual to the group algebra kG, Delta(u_s) the sum of
    u_t (x) u_t' over the pairs with t·t' = s and eps(u_s) = [s = 1], so
    coassociativity and counitality are the associativity and the unit of
    the group.  The table is a group when kG, built from it with unit e_0,
    is associative and unital and every row holds the unit (inverse_table):
    a finite monoid in which every element has a right inverse is a group.
    """
    n = len(table)
    inv = inverse_table(table)
    carrier = FBimodule.trivial(field, n, name=name)
    # Delta(u_s) = sum_t u_t (x) u_{t^{-1} s}, in the plain tensor square:
    # over k, C (x) C has no balancing relations, so Coring takes it as it is
    coproduct = from_sparse_cols(field, n * n, [[(t * n + table[inv[t]][s], field.one)
                                                 for t in range(n)] for s in range(n)])
    counit = Matrix.from_rows(field, [[field.one if s == 0 else field.zero
                                       for s in range(n)]])
    c = Coring(carrier.right_alg, carrier, coproduct, counit, name=name)
    vouch(c, _table_algebra(field, table, "kG"), check=c.validate)
    return c


def _k_coalgebra(field, dim, delta_ambient, eps_row, name):
    """A coalgebra over the ground field as a coring, not checked.

    delta_ambient maps basis vectors to the plain tensor square (dim^2
    column entries, row-major), which over k is C (x) C itself: there are no
    balancing relations.
    """
    carrier = FBimodule.trivial(field, dim, name=name)
    return Coring(carrier.right_alg, carrier, delta_ambient, eps_row, name=name)


def k_coalgebra_coring(field, dim, delta_ambient, eps_row, name="D"):
    """A coalgebra over the ground field, wrapped as a coring and checked
    (see _k_coalgebra for the shape of delta_ambient)."""
    c = _k_coalgebra(field, dim, delta_ambient, eps_row, name)
    c.validate()
    return c


def grouplike_basis_coalgebra(field, n, name="D"):
    """Coalgebra with a basis of grouplikes: Delta(u_i) = u_i (x) u_i and
    eps(u_i) = 1.  Vouched for with no premise: both sides of
    coassociativity send u_i to u_i (x) u_i (x) u_i, and both counit laws
    send it to u_i; over k every map is k-linear."""
    delta = from_sparse_cols(field, n * n, [[(i * n + i, field.one)] for i in range(n)])
    eps = Matrix.from_rows(field, [[field.one] * n])
    c = _k_coalgebra(field, n, delta, eps, name)
    vouch(c, check=c.validate)
    return c


# ---------------------------------------------------------------------------
# bialgebras and comodule algebras


class BialgebraData(Checked):
    """An algebra with a compatible coalgebra structure over k.  validate
    keeps the coalgebra coring it checks as ``coring`` and runs once; a
    construction that vouches for the bialgebra sets ``coring`` itself."""

    def __init__(self, algebra, delta_ambient, eps_row, antipode=None, name=None):
        self.algebra = algebra
        self.delta = delta_ambient  # dim^2 x dim
        self.eps = eps_row          # 1 x dim
        self.antipode = antipode
        self.name = name or algebra.name
        self.field = algebra.field
        self.coring = None

    def coalgebra_coring(self):
        return k_coalgebra_coring(self.field, self.algebra.dim, self.delta,
                                  self.eps, name=self.name)

    def validate(self):
        if self._valid:
            return True
        h = self.algebra
        f = self.field
        d = self.coring = self.coalgebra_coring()  # coassociativity and counitality
        # Delta and eps are algebra maps
        hh = tensor_algebra(h, h)
        at = non_multiplicative_at(h, hh, self.delta)
        if at is not None:
            raise AxiomError("bialgebra %s: coproduct is not multiplicative "
                             "at (%d,%d)" % ((self.name,) + at))
        if self.delta.mul_vec(list(h.unit)) != hh.unit:
            raise AxiomError("bialgebra %s: coproduct not unital" % self.name)
        if non_multiplicative_at(h, trivial_algebra(f), self.eps) is not None:
            raise AxiomError("bialgebra %s: counit is not multiplicative"
                             % self.name)
        if self.eps.mul_vec(list(h.unit))[0] != f.one:
            raise AxiomError("bialgebra %s: counit not unital" % self.name)
        if self.antipode is not None:
            # S(x_(1))·x_(2) = eps(x)·1 = x_(1)·S(x_(2))
            mult = h.mult_eval()
            target = Matrix.column(f, list(h.unit)).mul(self.eps)
            for slot in (0, 1):
                conv = mult.mul(d.cc.induced(None, [(slot, self.antipode)], at=d.coproduct))
                if conv != target:
                    raise AxiomError("bialgebra %s: antipode axiom fails" % self.name)
        self._valid = True
        return True


def group_hopf_algebra(field, table, name="kG"):
    """Group algebra with its standard Hopf structure (grouplike basis),
    its coalgebra coring kept as ``coring``.

    The table is checked as a group: kG is checked (associativity, unit e_0)
    and every element has an inverse (inverse_table).  The Hopf algebra and
    its coalgebra coring (grouplike_basis_coalgebra) are then vouched for:
    kG of a group is a Hopf algebra with Delta(g) = g (x) g, eps(g) = 1 and
    S(g) = g^-1.  Delta and eps are algebra maps because a product of
    grouplikes is grouplike, and S(g_(1))·g_(2) = g^-1·g = 1 = eps(g)·1 =
    g_(1)·S(g_(2)).
    """
    h = group_algebra(field, table, name=name)
    n = h.dim
    inv = inverse_table(table)
    d = grouplike_basis_coalgebra(field, n, name=name)
    s = from_sparse_cols(field, n, [[(inv[i], field.one)] for i in range(n)])
    data = BialgebraData(h, d.coproduct, d.counit, antipode=s, name=name)
    data.coring = d
    vouch(data, h, check=data.validate)
    return data


# ---------------------------------------------------------------------------
# entwining structures


class EntwiningStructure(Checked):
    """A compatibility map D (x)_L A -> A (x)_L D (strict or weak).

    psi is given in its ambient form D x A -> A x D, kept as psi_amb, and
    projected and descended once to the quotient form psi; a map whose
    projection does not vanish on the balancing relations of D (x)_L A
    raises AxiomError.  Then psi_amb takes every ambient d (x) a to a
    representative of psi of its class, so psi_amb on two slots of a longer
    tensor, projected, is psi there: the relations of A (x)_L D, tensored
    with any factor, are relations of the longer tensor.  Over the trivial
    base the tensor quotients are plain tensor products, so both forms are
    the same matrix.  The weak axioms replace the unit/counit laws through the
    induced map e = (A (x) eps) ∘ psi ∘ (D (x) 1).  The base defaults to
    that of D.  validate checks the axioms, not A or D, and runs once;
    is_valid() decides it once (algmod.Checked).

    A is a bimodule over L through the unit map eta (a_bim).  It is checked
    when eta is handed in, and vouched for when eta is the default, L sends
    its unit e_0 to 1_A (L one-dimensional with unit e_0), and A and L are
    valid (checked otherwise): e_0 then acts on both sides by multiplication
    with 1_A, the identity, so each action is unital, associative since
    e_0·e_0 = e_0 acts as I·I = I, and the two commute.
    """

    def __init__(self, a, d, psi, base=None, eta=None, weak=False, name="psi"):
        self.a = a
        self.d = d
        self.weak = weak
        self.name = name
        field = a.field
        self.field = field
        self.base = base or d.base
        l = self.base
        default_eta = eta is None
        if default_eta:
            if l.dim != 1:
                raise UsageError("entwining over a nontrivial base needs the unit "
                                 "map L -> A")
            eta = Matrix.from_cols(field, a.dim, [list(a.unit)])
        self.eta = eta
        a_bim = FBimodule.through(a, l, eta)
        if default_eta and l.unit == [field.one]:
            vouch(a_bim, a, l, check=a_bim.validate)
        else:
            a_bim.validate()
        self.a_bim = a_bim
        self.da = BalancedTensor([d.carrier, a_bim], [l], name="D(x)A")
        self.ad = BalancedTensor([a_bim, d.carrier], [l], name="A(x)D")
        if psi.rows != self.ad.ambient_dim or psi.cols != self.da.ambient_dim:
            raise UsageError("entwining map has shape %dx%d, expected %dx%d"
                             % (psi.rows, psi.cols, self.ad.ambient_dim,
                                self.da.ambient_dim))
        self.psi = self.da.descend_map(self.ad.project_head(psi, 1))
        if self.psi is None:
            raise AxiomError("entwining %s: the map is not balanced" % name)
        self.psi_amb = psi

    @cached_property
    def d_one(self):
        """D -> D (x)_L A, d -> d (x) 1."""
        f, one_a = self.field, list(self.a.unit)
        return Matrix.from_cols(f, self.da.dim, [
            self.da.pure_tensor([unit_vec(f, self.d.dim, j), one_a]) for j in range(self.d.dim)])

    @cached_property
    def one_d(self):
        """D -> A (x)_L D, d -> 1 (x) d."""
        f, one_a = self.field, list(self.a.unit)
        return Matrix.from_cols(f, self.ad.dim, [
            self.ad.pure_tensor([one_a, unit_vec(f, self.d.dim, j)]) for j in range(self.d.dim)])

    @cached_property
    def right_act(self):
        """The entwined right action of A on A (x)_L D, a (x) d -> a·psi(d (x) a_j),
        one matrix per basis element a_j: psi's ambient columns at d (x) a_j
        on the D slot, then the multiplication in A, a second ambient layer
        with no quotient before it, projected."""
        f, a, d, ad = self.field, self.a, self.d, self.ad
        mult_d = ad.project_head(a.mult_eval().kron(Matrix.identity(f, d.dim)), 1)
        psi = self.psi_amb
        return [mult_d.mul(ad.induced(None, [(1, Matrix.from_cols(
            f, psi.rows, [psi.col(dd * a.dim + j) for dd in range(d.dim)]))]))
            for j in range(a.dim)]

    def _unit_axiom(self, rhs, kind):
        """psi∘(D (x) 1) = rhs, naming the first basis element of D where it
        fails."""
        lhs = self.psi.mul(self.d_one)
        if lhs != rhs:
            j = next(j for j in range(self.d.dim) if lhs.col(j) != rhs.col(j))
            raise AxiomError("%s %s: unit axiom fails at basis %d" % (kind, self.name, j))

    def validate(self):
        if self._valid:
            return True
        a, d, l = self.a, self.d, self.base
        psi, psi_amb = self.psi, self.psi_amb
        mult = a.mult_eval()
        delta_amb = d.coproduct_amb
        daa = BalancedTensor([d.carrier, self.a_bim, self.a_bim], [l, l], prefix=self.da)
        ada = BalancedTensor([self.a_bim, d.carrier, self.a_bim], [l, l], prefix=self.ad)
        aad = BalancedTensor([self.a_bim, self.a_bim, d.carrier], [l, l])
        # (entwa): psi∘(D (x) mult) = (mult (x) D)∘(A (x) psi)∘(psi (x) A)
        lhs = psi.mul(daa.induced(self.da, [(1, mult)]))
        s1 = daa.induced(ada, [(0, psi_amb)])
        s2 = ada.induced(aad, [(1, psi_amb)], at=s1)
        if lhs != aad.induced(self.ad, [(0, mult)], at=s2):
            raise AxiomError("entwining %s: multiplicativity axiom fails" % self.name)
        # (entwc): (A (x) Delta)∘psi = (psi (x) D)∘(D (x) psi)∘(Delta (x) A)
        add = BalancedTensor([self.a_bim, d.carrier, d.carrier], [l, l], prefix=self.ad)
        dda = BalancedTensor([d.carrier, d.carrier, self.a_bim], [l, l], prefix=d.cc)
        dad = BalancedTensor([d.carrier, self.a_bim, d.carrier], [l, l], prefix=self.da)
        lhs = self.ad.induced(add, [(1, delta_amb)], at=psi)
        s1 = self.da.induced(dda, [(0, delta_amb)])
        s2 = dda.induced(dad, [(1, psi_amb)], at=s1)
        if lhs != dad.induced(add, [(0, psi_amb)], at=s2):
            raise AxiomError("entwining %s: comultiplicativity axiom fails" % self.name)
        if not self.weak:
            # (entwb): psi(d (x) 1) = 1 (x) d
            self._unit_axiom(self.one_d, "entwining")
            # (entwd): (A (x) eps)∘psi = eps (x) A
            if self._a_eps(at=psi) != self._eps_a():
                raise AxiomError("entwining %s: counit axiom fails" % self.name)
        else:
            e_map = self._e_map()
            # (wentwb): psi∘(D (x) 1) = (e (x) D)∘Delta
            self._unit_axiom(d.cc.induced(self.ad, [(0, e_map)], at=d.coproduct),
                             "weak entwining")
            # (wentwd): (A (x) eps)∘psi = mult∘(e (x) A)
            lhs = self._a_eps(at=psi)
            rhs = mult.mul(self.da.induced(None, [(0, e_map)]))
            if lhs != rhs:
                raise AxiomError("weak entwining %s: counit axiom fails" % self.name)
        self._valid = True
        return True

    def _a_eps(self, at=None):
        """[A (x) D] -> A, a (x) d -> a·eps(d) (through the right L-action),
        evaluated at the columns of at (see BalancedTensor.induced)."""
        return self.a_bim.right_eval().mul(self.ad.induced(None, [(1, self.d.counit)], at=at))

    def _eps_a(self):
        """[D (x) A] -> A, d (x) a -> eps(d)·a."""
        return self.a_bim.left_eval().mul(self.da.induced(None, [(0, self.d.counit)]))

    def _e_map(self):
        """e = (A (x) eps)∘psi∘(D (x) 1): D -> A."""
        return self._a_eps(at=self.psi.mul(self.d_one))


# ---------------------------------------------------------------------------
# corings from entwining structures


def _entwining_parts(ent):
    """What the structures built from an entwining rest on: the entwining,
    its algebra, its coring and the base."""
    return ent, ent.a, ent.d, ent.base


def entwining_coring(ent):
    """The coring on A (x)_L D attached to a strict entwining, with its
    extension to the outer coring.

    Returns (coring, extension).  The entwining is checked on entry, unless
    it has been checked or vouched for.  The carrier, the coring and the
    extension are vouched for when the entwining, A, D and L are valid (and
    checked otherwise): an entwining (A, D, psi)_L gives the A-coring
    A (x)_L D with a'·(a (x) d)·a'' = a'a·psi(d (x) a''),
    Delta(a (x) d) = (a (x) d_(1)) (x)_A (1 (x) d_(2)) and
    eps(a (x) d) = a·eps(d), and (D:L) extends it through
    tau = A (x) Delta_D (Brzezinski, "The structure of corings", 2002).  The
    right action is unital and multiplicative by the unit and
    multiplicativity axioms; Delta and eps are right A-linear by the
    comultiplicativity and counit axioms; coassociativity, counitality and
    the axioms of tau are those of D; and Delta followed by C (x) tau and tau
    followed by Delta (x) D both send a (x) d to
    (a (x) d_(1)) (x)_A (1 (x) d_(2)) (x)_L d_(3).  The extension is
    certified pure through the split fast path whenever the right L-action
    on the carrier is induced by the unit map L -> A (always the case over
    the trivial base).
    """
    if ent.weak:
        raise UsageError("strict constructor called on a weak entwining")
    ent.require_valid()
    parts = _entwining_parts(ent)
    f = ent.field
    a, d, l = ent.a, ent.d, ent.base
    ad = ent.ad
    left_act = [ad.induced(ad, [(0, a.lmul(i))]) for i in range(a.dim)]
    carrier = FBimodule(a, a, ad.dim, left_act, list(ent.right_act),
                        name=a.name + "(x)" + d.name)
    vouch(carrier, *parts, check=carrier.validate)
    # tau(a (x) d) = (a (x) d^(1)) (x) d^(2); Delta puts 1 (x) d^(2) in the last slot
    tau_amb = ad.project_head(ad.induced(None, [(1, d.coproduct_amb)]), d.dim)
    delta_cols = Matrix.identity(f, ad.dim).kron(ent.one_d).mul(tau_amb)
    counit = ent._a_eps()
    c = Coring(a, carrier, delta_cols, counit, name=a.name + "(x)" + d.name)
    vouch(c, *parts, check=c.validate)
    right_l = list(ad.right_act)
    split = None
    induced = all(right_l[i] == carrier.right_act_vec(ent.eta.col(i))
                  for i in range(l.dim))
    if induced:
        split = ent.eta
    ext = CoringExtension(c, d, right_l, tau_amb, split_map=split,
                          name="(%s:%s) over (%s:%s)" % (d.name, l.name, c.name, a.name))
    vouch(ext, *parts, check=ext.validate)
    purity_check(ext, [])
    return c, ext


def _coaction_is_algebra_map(a_alg, h, coaction_amb):
    """Raise unless the coaction A -> A (x) H is multiplicative and unital,
    naming the first basis pair at which multiplicativity fails."""
    ah = tensor_algebra(a_alg, h)
    at = non_multiplicative_at(a_alg, ah, coaction_amb)
    if at is not None:
        raise AxiomError("comodule algebra %s: coaction not multiplicative "
                         "at (%d,%d)" % ((a_alg.name,) + at))
    if coaction_amb.mul_vec(list(a_alg.unit)) != ah.unit:
        raise AxiomError("comodule algebra %s: coaction not unital" % a_alg.name)
    return True


def hopf_entwining(bial, a_alg, coaction_amb, name="psi"):
    """The entwining of a comodule algebra with the underlying coalgebra:
    d (x) a -> a_[0] (x) d·a_[1].

    The bialgebra is checked on entry, unless it has been checked or
    vouched for; the coaction is checked as a comodule of the coalgebra and
    as a unital multiplicative map.  For the regular comodule algebra (A
    is H, coacting by Delta: a_alg is bial.algebra and coaction_amb is
    bial.delta) the coaction is vouched for instead, with the bialgebra as
    its premise: the comodule axioms are coassociativity and counitality of
    Delta, and A (x) H is H (x) H, so the algebra map axioms are those of
    Delta, all of them the bialgebra's own.  The entwining is then vouched
    for when the bialgebra, A and the comodule are valid (and checked
    otherwise): a right comodule algebra over a bialgebra H gives the
    entwining (A, H, psi) with psi(h (x) a) = a_[0] (x) h·a_[1] (Brzezinski
    and Majid, "Coalgebra bundles", 1998).  Multiplicativity of psi is that
    of the coaction and associativity of H, its unit axiom is
    rho(1) = 1 (x) 1, comultiplicativity is coassociativity of rho and
    multiplicativity of Delta_H, and the counit axiom is counitality of rho
    and multiplicativity of eps_H.  psi at d is (1 (x) d)·rho, the map
    I (x) L_d evaluated at the coaction, so no algebra A (x) H is formed.
    """
    bial.require_valid()
    f = bial.field
    h = bial.algebra
    d_coring = bial.coring
    k = d_coring.base
    a_bim = FBimodule.trivial(f, a_alg.dim, name=a_alg.name, over=k)
    probe = Comodule(d_coring, a_bim, coaction_amb, name=a_alg.name)
    if a_alg is h and coaction_amb is bial.delta:
        vouch(probe, bial, check=lambda: probe.validate() and
              _coaction_is_algebra_map(a_alg, h, coaction_amb))
    else:
        probe.validate()
        _coaction_is_algebra_map(a_alg, h, coaction_amb)
    # psi(d (x) a) = a_[0] (x) d·a_[1] = (1 (x) d)·rho(a)
    psi_amb = side_by_side(f, probe.mc.ambient_dim, (
        probe.mc.induced(None, [(1, h.lmul(dd))], at=probe.coaction) for dd in range(h.dim)))
    ent = EntwiningStructure(a_alg, d_coring, psi_amb, weak=False, name=name)
    vouch(ent, bial, a_alg, probe, check=ent.validate)
    return ent


def weak_entwining_coring(ent):
    """The image coring of a weak entwining over the trivial base.

    Returns (coring, extension, inclusion, retraction); the carrier is the
    image of the projection p(a (x) d) = a·psi(d (x) 1) inside the plain
    tensor square, with the actions, A (x) Delta_D and the outer coaction
    checked to preserve it as they are restricted, and the two equivalent
    forms of the outer coaction computed and asserted equal.

    The entwining is checked on entry, unless it has been checked or
    vouched for.  The carrier, the coring and the extension are vouched for
    when the entwining, A, D and the base are valid (and checked
    otherwise): a weak entwining (A, D, psi) gives the A-coring
    p(A (x) D) with Delta(p(a (x) d)) = p(a (x) d_(1)) (x)_A p(1 (x) d_(2))
    and eps(p(a (x) d)) = a·e(d) (Brzezinski, "The structure of corings",
    2002; Caenepeel and De Groot, "Modules over weak entwining structures",
    2000).  A (x) Delta_D keeps the carrier in the first factor (checked
    below as it is formed), so its restriction tau is coassociative,
    counital and left A-linear as A (x) Delta_D is, and Delta followed by
    C (x) tau and tau followed by Delta (x) D agree by coassociativity of D:
    (D:k) extends the coring.
    """
    ent.require_valid()
    parts = _entwining_parts(ent)
    f = ent.field
    a, d = ent.a, ent.d
    if ent.base.dim != 1:
        raise UsageError("weak entwining corings are built over the trivial base")
    n, m = a.dim, d.dim
    # trivial base: quotient coordinates are the plain tensor ones
    chi = ent.psi.mul(ent.d_one)  # d -> psi(d (x) 1)
    # p(a (x) d) = a·psi(d (x) 1), one block of columns per basis element a
    p_amb = side_by_side(f, n * m, (ent.ad.induced(None, [(0, a.lmul(i))], at=chi)
                                    for i in range(n)))
    if p_amb.mul(p_amb) != p_amb:
        raise AxiomError("weak entwining: the canonical projection is not idempotent")
    sub = image(p_amb)
    dim = sub.dim
    inc = sub.basis_matrix_cols()
    ret = Matrix(f, dim, n * m, [unit_vec(f, n * m, piv) for piv in sub.pivots])

    def restrict(amb_op, what):
        img = amb_op.mul(inc)
        back = ret.mul(img)
        if inc.mul(back) != img:
            raise AxiomError("weak entwining: %s does not preserve the carrier" % what)
        return back

    ident_d = Matrix.identity(f, m)
    left_act = [restrict(a.lmul(i).kron(ident_d), "the left action")
                for i in range(n)]
    right_act = [restrict(amb, "the right action") for amb in ent.right_act]
    carrier = FBimodule(a, a, dim, left_act, right_act, name="C(%s)" % ent.name)
    vouch(carrier, *parts, check=carrier.validate)
    # (A (x) Delta) on the carrier, formed once
    a_delta = Matrix.identity(f, n).kron(d.coproduct_amb).mul(inc)
    # closure: (A (x) Delta) keeps the first two slots inside the carrier
    first_two = (p_amb.sub(Matrix.identity(f, n * m))).kron(ident_d).mul(a_delta)
    if not first_two.is_zero():
        raise AxiomError("weak entwining: the coproduct leaves the carrier")
    delta_cols = ret.kron(ret.mul(chi)).mul(a_delta)
    counit = a.mult_eval().mul(Matrix.identity(f, n).kron(ent._e_map())).mul(inc)
    c = Coring(a, carrier, delta_cols, counit, name="C(%s)" % ent.name)
    vouch(c, *parts, check=c.validate)
    tau_form1 = ret.kron(ident_d).mul(a_delta)
    tau_form2 = (ret.mul(p_amb)).kron(ident_d).mul(a_delta)
    if tau_form1 != tau_form2:
        raise AxiomError("weak entwining: the two forms of the outer coaction differ")
    right_l = [Matrix.identity(f, dim)]
    ext = CoringExtension(c, d, right_l, tau_form1, split_map=ent.eta,
                          name="(%s:k) over (%s:%s)" % (d.name, c.name, a.name))
    vouch(ext, *parts, check=ext.validate)
    purity_check(ext, [])
    return c, ext, inc, ret


def weak_cleft_translation(ent, coring, inc, ret, lam, lam_bar):
    """Candidate invertibility data from a weak entwining: j = lam and the
    intertwining map a (x) d -> a·lam_bar(d) restricted to the carrier."""
    f = ent.field
    a = ent.a
    n, m = a.dim, ent.d.dim
    q_amb = Matrix.from_cols(f, n, [a.multiply(unit_vec(f, n, i), lam_bar.col(dd))
                                    for i in range(n) for dd in range(m)])
    return lam, q_amb.mul(inc)


def trivial_extension(c, name=None):
    """The ground field as a trivial coring extending any coring.

    Vouched for when c is valid (and checked otherwise): tau(x) = x (x) 1
    in C (x)_k k = C, so tau is the identity, coassociative and counital as
    the coring k over itself is, k acts on the right by scalars, and both
    sides of the bicomodule law are Delta(x) (x) 1."""
    f = c.field
    k = trivial_algebra(f)
    d = trivial_coring(k, name="k")
    tau_amb = Matrix.identity(f, c.dim)  # C (x) k has one slot of dimension 1
    split = Matrix.from_cols(f, c.base.dim, [list(c.base.unit)])
    ext = CoringExtension(c, d, [Matrix.identity(f, c.dim)], tau_amb,
                          split_map=split,
                          name=name or "(k:k) over (%s:%s)" % (c.name, c.base.name))
    vouch(ext, c, d, check=ext.validate)
    purity_check(ext, [])
    return ext


# ---------------------------------------------------------------------------
# partial group actions


class PartialGroupAction:
    """Central idempotents e_s and ideal isomorphisms alpha_s: Ae_{s^-1} -> Ae_s.

    alpha matrices are given full-size and must kill the complementary
    ideal, i.e. alpha_s = alpha_s ∘ (mult by e_{s^-1}).
    """

    def __init__(self, table, a, idempotents, alpha, name="partial action"):
        self.table = table
        self.a = a
        self.e = [list(v) for v in idempotents]
        self.alpha = alpha
        self.name = name
        self.field = a.field
        self.inv = inverse_table(table)

    def validate(self):
        a = self.a
        n = len(self.table)
        if len(self.e) != n or len(self.alpha) != n:
            raise UsageError("partial action: need one idempotent and one map per "
                             "group element")
        for s in range(n):
            ev = self.e[s]
            if a.multiply(ev, ev) != ev:
                raise AxiomError("partial action %s: e_%d is not idempotent"
                                 % (self.name, s))
            if a.lmul_vec(ev) != a.rmul_vec(ev):
                raise AxiomError("partial action %s: e_%d is not central"
                                 % (self.name, s))
        if self.e[0] != list(a.unit):
            raise AxiomError("partial action %s: the unit idempotent is not 1"
                             % self.name)
        if self.alpha[0] != a.lmul_vec(self.e[0]):
            raise AxiomError("partial action %s: the unit map is not the identity"
                             % self.name)
        for s in range(n):
            mat = self.alpha[s]
            proj_in = a.lmul_vec(self.e[self.inv[s]])
            if mat.mul(proj_in) != mat:
                raise AxiomError("partial action %s: alpha_%d does not factor "
                                 "through its domain ideal" % (self.name, s))
            if a.lmul_vec(self.e[s]).mul(mat) != mat:
                raise AxiomError("partial action %s: alpha_%d does not land in "
                                 "its range ideal" % (self.name, s))
            if rank(mat) != rank(proj_in):
                raise AxiomError("partial action %s: alpha_%d is not injective on "
                                 "its domain ideal" % (self.name, s))
            if mat.mul_vec(self.e[self.inv[s]]) != self.e[s]:
                raise AxiomError("partial action %s: alpha_%d does not preserve "
                                 "the ideal unit" % (self.name, s))
            if non_multiplicative_at(a, a, mat) is not None:
                raise AxiomError("partial action %s: alpha_%d is not "
                                 "multiplicative" % (self.name, s))
        for s in range(n):
            for t in range(n):
                lhs = self.alpha[s].mul(a.lmul_vec(self.e[self.inv[s]])).mul(self.alpha[t])
                st = self.table[s][t]
                rhs = a.lmul_vec(self.e[s]).mul(self.alpha[st])
                if lhs != rhs:
                    raise AxiomError("partial action %s: composition law fails at "
                                     "(%d,%d)" % (self.name, s, t))
        return True


def partial_action_coring(pa):
    """The coring of an idempotent partial action, its grouplike, and the
    extension to the dual group coalgebra.

    Returns a dict with the coring, grouplike, extension, the inclusion data
    of the ideal components, and a flag recording whether the outer coaction
    agrees with the naive component-shift formula (it does exactly when that
    formula is coassociative, e.g. for global actions).
    """
    pa.validate()
    f = pa.field
    a = pa.a
    n = len(pa.table)
    sel = []
    inc = []
    dims = []
    for s in range(n):
        sub = image(a.lmul_vec(pa.e[s]))
        dims.append(sub.dim)
        inc_s = sub.basis_matrix_cols()
        sel.append(Matrix(f, sub.dim, a.dim, [unit_vec(f, a.dim, piv) for piv in sub.pivots]))
        inc.append(inc_s)
    offs = [0]
    for dcomp in dims:
        offs.append(offs[-1] + dcomp)
    cdim = offs[-1]

    def embed(s, avec):
        """Coordinates of (a e_s) nu_s in the carrier."""
        out = zero_vec(f, cdim)
        comp = sel[s].mul_vec(a.multiply(avec, pa.e[s]))
        for r, v in enumerate(comp):
            out[offs[s] + r] = v
        return out

    # component s is A·e_s: e_i acts on the left by multiplication with e_i
    # and on the right by multiplication with alpha_s(e_i)
    carrier = FBimodule.direct_sum(
        [FBimodule(a, a, dims[s], [sel[s].mul(a.lmul(i)).mul(inc[s]) for i in range(a.dim)],
                   [sel[s].mul(a.rmul_vec(pa.alpha[s].col(i))).mul(inc[s])
                    for i in range(a.dim)])
         for s in range(n)], name="C(%s)" % pa.name)
    carrier.validate()
    # coproduct and counit
    eps_cols = []
    amb_cols = []
    for s in range(n):
        for q in range(dims[s]):
            x = inc[s].mul_vec(unit_vec(f, dims[s], q))
            amb = zero_vec(f, cdim * cdim)
            for t in range(n):
                u = embed(t, x)
                v = embed(pa.table[pa.inv[t]][s], pa.e[pa.table[pa.inv[t]][s]])
                for r1, w1 in enumerate(u):
                    if w1 == f.zero:
                        continue
                    for r2, w2 in enumerate(v):
                        if w2 != f.zero:
                            amb[r1 * cdim + r2] = f.add(amb[r1 * cdim + r2],
                                                        f.mul(w1, w2))
            amb_cols.append(amb)
            eps_cols.append(x if s == 0 else zero_vec(f, a.dim))
    delta_amb = Matrix.from_cols(f, cdim * cdim, amb_cols)
    counit = Matrix.from_cols(f, a.dim, eps_cols)
    c = Coring(a, carrier, delta_amb, counit, name="C(%s)" % pa.name)
    c.validate()
    gvec = zero_vec(f, cdim)
    for s in range(n):
        gvec = [f.add(u, v) for u, v in zip(gvec, embed(s, pa.e[s]))]
    g = Grouplike(c, gvec)
    g.validate()
    d = group_function_coring(f, pa.table, name="k(G)")
    # outer coaction from the repaired evaluation family; for global actions it
    # coincides with the naive component shift
    pi_mats = []
    for w in range(n):
        fw_cols = []
        for s in range(n):
            for q in range(dims[s]):
                x = inc[s].mul_vec(unit_vec(f, dims[s], q))
                weight = zero_vec(f, a.dim)
                if s == w:
                    weight = list(pa.e[w])
                if s == 0:
                    one_minus = [f.sub(u, v) for u, v in zip(a.unit, pa.e[w])]
                    weight = [f.add(u, v) for u, v in zip(weight, one_minus)]
                fw_cols.append(a.multiply(x, weight))
        fw = Matrix.from_cols(f, a.dim, fw_cols)
        # pi_w(c) = c^(1)·f_w(c^(2))
        pi_mats.append(carrier.right_eval().mul(c.cc.induced(None, [(1, fw)],
                                                             at=c.coproduct)))
    tau_amb = Matrix.from_cols(f, cdim * n, [[pi_mats[w].data[r][j] for r in range(cdim)
                                              for w in range(n)] for j in range(cdim)])
    naive_cols = []
    for s in range(n):
        for q in range(dims[s]):
            x = inc[s].mul_vec(unit_vec(f, dims[s], q))
            col = zero_vec(f, cdim * n)
            for t in range(n):
                u = embed(t, x)
                uw = pa.table[pa.inv[t]][s]
                for r, wv in enumerate(u):
                    if wv != f.zero:
                        col[r * n + uw] = f.add(col[r * n + uw], wv)
            naive_cols.append(col)
    naive_tau = Matrix.from_cols(f, cdim * n, naive_cols)
    split = Matrix.from_cols(f, a.dim, [list(a.unit)])
    ext = CoringExtension(c, d, [Matrix.identity(f, cdim)], tau_amb,
                          split_map=split, name="(k(G):k) over (%s:%s)"
                          % (c.name, a.name))
    ext.validate()
    purity_check(ext, [])
    return {"coring": c, "grouplike": g, "extension": ext,
            "tau_matches_shift_formula": tau_amb == naive_tau,
            "component_dims": dims}


# ---------------------------------------------------------------------------
# canonical corings over a subalgebra


def subalgebra_from_span(a, vectors, name="B"):
    """Verify a spanning set generates a unital subalgebra; return it with
    its inclusion matrix.  The span is checked to hold the unit and to be
    closed under multiplication; the subalgebra is then vouched for when A
    is valid (and checked otherwise): its product and unit are A's,
    associative and unital."""
    f = a.field
    sub = Subspace.from_span(f, a.dim, [list(v) for v in vectors])
    unit_message = "subalgebra %s does not contain the unit" % name
    if not sub.contains(list(a.unit)):
        raise AxiomError(unit_message)
    space = MatrixSpace(f, a.dim, 1, [Matrix.column(f, v) for v in sub.basis])
    b = space.algebra(lambda x, y: Matrix.column(f, a.multiply(x.col(0), y.col(0))),
                      Matrix.column(f, list(a.unit)), name,
                      "span is not closed under multiplication", unit_message)
    vouch(b, a, check=b.validate)
    return b, sub.basis_matrix_cols()


def sweedler_coring(a, b, b_inc, name=None):
    """The canonical coring A (x)_B A of a subalgebra inclusion, with its
    grouplike element.

    A as an A-B and a B-A bimodule through b_inc is checked: that is the
    check that b_inc is a unital algebra map.  The coring is then vouched
    for when A, B and both bimodules are valid (and checked otherwise): the
    Sweedler coring of an algebra map B -> A (Sweedler, "The predual
    theorem to the Jacobson-Bourbaki theorem", 1975).  Delta and eps are
    A-bilinear, both sides of coassociativity send a (x) b to
    a (x) 1 (x) 1 (x) b, and both counit laws send it to a (x) b.  The
    grouplike 1 (x) 1 is vouched for when the coring is valid:
    Delta(1 (x) 1) = (1 (x) 1) (x)_A (1 (x) 1) and eps(1 (x) 1) = 1."""
    f = a.field
    ab = FBimodule(a, b, a.dim, [a.lmul(i) for i in range(a.dim)],
                   [a.rmul_vec(b_inc.col(i)) for i in range(b.dim)],
                   name=a.name)
    ba = FBimodule(b, a, a.dim, [a.lmul_vec(b_inc.col(i)) for i in range(b.dim)],
                   [a.rmul(j) for j in range(a.dim)], name=a.name)
    ab.validate()
    ba.validate()
    tens = BalancedTensor([ab, ba], [b], name=(name or "A(x)A"))
    carrier = tens.as_bimodule(name=name or "A(x)A")
    one = list(a.unit)
    # Delta(a (x) b) = (a (x) 1) (x)_A (1 (x) b) and eps(a (x) b) = ab; the
    # multiplication descends since A is associative, which ab.validate
    # checked.  Delta is given on the ambient C x C, and the coring projects
    # it to the C (x)_A C it builds.
    units = [unit_vec(f, a.dim, i) for i in range(a.dim)]
    left = Matrix.from_cols(f, tens.dim, [tens.pure_tensor([e, one]) for e in units])
    right = Matrix.from_cols(f, tens.dim, [tens.pure_tensor([one, e]) for e in units])
    coproduct = tens.induced(None, [(0, left), (1, right)])
    counit = tens.descend_map(a.mult_eval())
    c = Coring(a, carrier, coproduct, counit, name=name or "A(x)A")
    vouch(c, a, b, ab, ba, check=c.validate)
    g = Grouplike(c, tens.pure_tensor([one, one]))
    vouch(g, c, check=g.validate)
    return c, g, tens


# ---------------------------------------------------------------------------
# bundled fixtures


def _comodule_of_regular_coring(ws, cname, name):
    """The coring carrier as a right comodule over itself (coaction =
    coproduct).  Its carrier and the comodule are vouched for when the
    coring is valid (and checked otherwise): the right action is C's, and
    the comodule axioms are the right A-linearity, counitality and
    coassociativity of Delta."""
    c = ws.corings[cname]
    carrier = FBimodule.right_module(c.base, c.dim, list(c.carrier.right_act), name=name)
    vouch(carrier, c)
    ws.add_module(name + "_carrier", carrier, None,
                  ws.coring_meta[cname][0])
    com = Comodule(c, carrier, c.coproduct, name=name)
    vouch(com, c, check=com.validate)
    ws.add_comodule(name, com, cname, name + "_carrier")
    return com


def _zero_comodule_named(ws, cname, name):
    c = ws.corings[cname]
    z = zero_comodule(c, name=name)
    ws.add_module(name + "_carrier", z.carrier, None, ws.coring_meta[cname][0])
    ws.add_comodule(name, z, cname, name + "_carrier")
    return z


def fixture_E1(field):
    """Trivial coring over the ground field with the trivial extension."""
    ws = __import__("coringlab.workspace", fromlist=["Workspace"]).Workspace(field)
    a = trivial_algebra(field)
    a.name = "A"
    ws.add_algebra("A", a)
    c = trivial_coring(a, name="C")
    ws.add_module("C_carrier", c.carrier, "A", "A")
    ws.add_coring("C", c, "A", "C_carrier")
    g = Grouplike(c, [field.one])
    ws.add_grouplike("g", g, "C")
    sigma = grouplike_comodule(g, name="Sigma")
    ws.add_module("Sigma_carrier", sigma.carrier, None, "A")
    ws.add_comodule("Sigma", sigma, "C", "Sigma_carrier")
    dcor = trivial_coring(a, name="D")
    ws.add_module("D_carrier", dcor.carrier, "A", "A")
    ws.add_coring("D", dcor, "A", "D_carrier")
    ext = CoringExtension(c, dcor, [Matrix.identity(field, 1)],
                          Matrix.identity(field, 1),
                          split_map=Matrix.identity(field, 1), name="ext")
    ext.validate()
    ws.add_extension("ext", ext, "C", "D")
    ws.add_map("j_id", Matrix.identity(field, 1), ("coring", "D"),
               ("comodule", "Sigma"))
    ws.add_map("jtilde_id", Matrix.identity(field, 1), ("coring", "C"),
               ("algebra", "A"))
    return ws


def fixture_E2(field):
    """The order-two group algebra coacting on itself: a cleft fixture."""
    ws = __import__("coringlab.workspace", fromlist=["Workspace"]).Workspace(field)
    table = [[0, 1], [1, 0]]
    bial = group_hopf_algebra(field, table, name="A")
    a = bial.algebra
    ws.add_algebra("A", a)
    d = bial.coalgebra_coring()
    d.name = "D"
    ws.add_module("D_carrier", d.carrier, None, None)
    ws.add_coring("D", d, None, "D_carrier")
    ent = hopf_entwining(bial, a, bial.delta)
    c, ext = entwining_coring(ent)
    c.name = "C"
    ws.add_module("C_carrier", c.carrier, "A", "A")
    ws.add_coring("C", c, "A", "C_carrier")
    ws.add_extension("ext", ext, "C", "D")
    # 1 (x) 1: 1 is grouplike in the bialgebra, whose Delta and eps are
    # unital, so Delta(1 (x) 1) = (1 (x) 1) (x)_A (1 (x) 1) and eps(1 (x) 1) = 1
    g = Grouplike(c, ent.ad.pure_tensor([list(a.unit), list(a.unit)]))
    vouch(g, c, bial, check=g.validate)
    ws.add_grouplike("g", g, "C")
    sigma = grouplike_comodule(g, name="Sigma")
    ws.add_module("Sigma_carrier", sigma.carrier, None, "A")
    ws.add_comodule("Sigma", sigma, "C", "Sigma_carrier")
    _comodule_of_regular_coring(ws, "C", "Creg")
    plus = comodule_direct_sum(sigma, sigma, name="SigmaPlus")
    ws.add_module("SigmaPlus_carrier", plus.carrier, None, "A")
    ws.add_comodule("SigmaPlus", plus, "C", "SigmaPlus_carrier")
    _zero_comodule_named(ws, "C", "Sigma0")
    ws.add_map("lambda_id", Matrix.identity(field, 2), ("coring", "D"),
               ("comodule", "Sigma"))
    ws.add_map("lambda_bar", bial.antipode, ("coring", "D"), ("algebra", "A"))
    # jtilde(a (x) h) = a·S(h), as a map from the coring carrier to the algebra
    cols = []
    for i in range(2):
        for j in range(2):
            cols.append(a.multiply(unit_vec(field, 2, i), bial.antipode.col(j)))
    ws.add_map("jtilde", Matrix.from_cols(field, 2, cols), ("coring", "C"),
               ("algebra", "A"))
    return ws


def fixture_E3(field):
    """The canonical coring of a quadratic field extension (trivial outer)."""
    ws = __import__("coringlab.workspace", fromlist=["Workspace"]).Workspace(field)
    a = quotient_polynomial_algebra(field, [field.of_int(2), field.zero], name="A")
    ws.add_algebra("A", a)
    b, inc = subalgebra_from_span(a, [[field.one, field.zero]], name="B")
    ws.add_algebra("B", b)
    c, g, _ = sweedler_coring(a, b, inc, name="C")
    ws.add_module("C_carrier", c.carrier, "A", "A")
    ws.add_coring("C", c, "A", "C_carrier")
    ws.add_grouplike("g", g, "C")
    sigma = grouplike_comodule(g, name="Sigma")
    ws.add_module("Sigma_carrier", sigma.carrier, None, "A")
    ws.add_comodule("Sigma", sigma, "C", "Sigma_carrier")
    k = trivial_algebra(field)
    k.name = "k"
    ws.add_algebra("k", k)
    dcor = trivial_coring(k, name="D")
    ws.add_module("D_carrier", dcor.carrier, "k", "k")
    ws.add_coring("D", dcor, "k", "D_carrier")
    ext2 = CoringExtension(c, dcor, [Matrix.identity(field, c.dim)],
                           Matrix.identity(field, c.dim),
                           split_map=Matrix.from_cols(field, a.dim,
                                                      [list(a.unit)]),
                           name="ext")
    ext2.validate()
    purity_check(ext2, [])
    ws.add_extension("ext", ext2, "C", "D")
    _comodule_of_regular_coring(ws, "C", "Creg")
    _zero_comodule_named(ws, "C", "Sigma0")
    return ws


def fixture_E4(field):
    """A proper idempotent partial action of the order-two group."""
    ws = __import__("coringlab.workspace", fromlist=["Workspace"]).Workspace(field)
    table = [[0, 1], [1, 0]]
    a = product_field_algebra(field, 3, name="A")
    ws.add_algebra("A", a)
    swap = Matrix.from_rows(field, [[field.zero, field.one, field.zero],
                                    [field.one, field.zero, field.zero],
                                    [field.zero, field.zero, field.zero]])
    pa = PartialGroupAction(table, a, [[field.one] * 3,
                                       [field.one, field.one, field.zero]],
                            [Matrix.identity(field, 3), swap], name="E4")
    out = partial_action_coring(pa)
    c, ext, g = out["coring"], out["extension"], out["grouplike"]
    c.name = "C"
    ws.add_module("C_carrier", c.carrier, "A", "A")
    ws.add_coring("C", c, "A", "C_carrier")
    d = ext.outer
    d.name = "D"
    ws.add_module("D_carrier", d.carrier, None, None)
    ws.add_coring("D", d, None, "D_carrier")
    ws.add_extension("ext", ext, "C", "D")
    ws.add_grouplike("g", g, "C")
    sigma = grouplike_comodule(g, name="Sigma")
    ws.add_module("Sigma_carrier", sigma.carrier, None, "A")
    ws.add_comodule("Sigma", sigma, "C", "Sigma_carrier")
    _comodule_of_regular_coring(ws, "C", "Creg")
    _zero_comodule_named(ws, "C", "Sigma0")
    return ws


def fixture_E5(field):
    """A genuinely weak entwining with a one-dimensional image coring."""
    ws = __import__("coringlab.workspace", fromlist=["Workspace"]).Workspace(field)
    a = trivial_algebra(field)
    a.name = "A"
    ws.add_algebra("A", a)
    d = grouplike_basis_coalgebra(field, 2, name="D")
    ws.add_module("D_carrier", d.carrier, None, None)
    ws.add_coring("D", d, None, "D_carrier")
    psi = Matrix.from_rows(field, [[field.one, field.zero], [field.zero, field.zero]])
    ent = EntwiningStructure(a, d, psi, weak=True, name="E5")
    ent.validate()
    c, ext, inc, ret = weak_entwining_coring(ent)
    c.name = "C"
    ws.add_module("C_carrier", c.carrier, "A", "A")
    ws.add_coring("C", c, "A", "C_carrier")
    ws.add_extension("ext", ext, "C", "D")
    carrier = FBimodule.right_module(a, 1, [a.rmul(0)], name="Sigma")
    sigma = Comodule(c, carrier, Matrix.identity(field, 1), name="Sigma")
    sigma.validate()
    ws.add_module("Sigma_carrier", carrier, None, "A")
    ws.add_comodule("Sigma", sigma, "C", "Sigma_carrier")
    lam = Matrix.from_rows(field, [[field.one, field.zero]])
    lam_bar = Matrix.from_rows(field, [[field.one, field.zero]])
    _, jt_amb = weak_cleft_translation(ent, c, inc, ret, lam, lam_bar)
    ws.add_map("lambda", lam, ("coring", "D"), ("comodule", "Sigma"))
    ws.add_map("lambda_bar", lam_bar, ("coring", "D"), ("algebra", "A"))
    ws.add_map("jtilde", jt_amb, ("coring", "C"), ("algebra", "A"))
    _zero_comodule_named(ws, "C", "Sigma0")
    return ws


def fixture_G1(field):
    """A global order-two action by coordinate swap: a cleft partial-action
    fixture with all idempotents equal to one."""
    ws = __import__("coringlab.workspace", fromlist=["Workspace"]).Workspace(field)
    table = [[0, 1], [1, 0]]
    a = product_field_algebra(field, 2, name="A")
    ws.add_algebra("A", a)
    swap = Matrix.from_rows(field, [[field.zero, field.one],
                                    [field.one, field.zero]])
    pa = PartialGroupAction(table, a, [[field.one] * 2, [field.one] * 2],
                            [Matrix.identity(field, 2), swap], name="G1")
    out = partial_action_coring(pa)
    c, ext, g = out["coring"], out["extension"], out["grouplike"]
    if not out["tau_matches_shift_formula"]:
        raise AxiomError("global action: outer coaction must equal the "
                         "component shift")
    c.name = "C"
    ws.add_module("C_carrier", c.carrier, "A", "A")
    ws.add_coring("C", c, "A", "C_carrier")
    d = ext.outer
    d.name = "D"
    ws.add_module("D_carrier", d.carrier, None, None)
    ws.add_coring("D", d, None, "D_carrier")
    ws.add_extension("ext", ext, "C", "D")
    ws.add_grouplike("g", g, "C")
    sigma = grouplike_comodule(g, name="Sigma")
    ws.add_module("Sigma_carrier", sigma.carrier, None, "A")
    ws.add_comodule("Sigma", sigma, "C", "Sigma_carrier")
    lam = Matrix.from_rows(field, [[field.one, field.zero],
                                   [field.zero, field.one]])
    ws.add_map("lambda", lam, ("coring", "D"), ("comodule", "Sigma"))
    ws.add_map("lambda_bar", lam.copy(), ("coring", "D"), ("algebra", "A"))
    # jtilde(a nu_s) = a·lambda_bar(u_s) on the component basis
    cols = []
    for s in range(2):
        for q in range(2):
            x = unit_vec(field, 2, q)
            cols.append(a.multiply(x, lam.col(s)))
    ws.add_map("jtilde", Matrix.from_cols(field, 2, cols), ("coring", "C"),
               ("algebra", "A"))
    _zero_comodule_named(ws, "C", "Sigma0")
    return ws


def fixture_L1(field):
    """An extension over a two-dimensional base whose right action is not
    induced by any algebra map, exercising the computed purity path."""
    ws = __import__("coringlab.workspace", fromlist=["Workspace"]).Workspace(field)
    a = trivial_algebra(field)
    a.name = "A"
    ws.add_algebra("A", a)
    l = product_field_algebra(field, 2, name="L")
    ws.add_algebra("L", l)
    c = grouplike_basis_coalgebra(field, 2, name="C")
    ws.add_module("C_carrier", c.carrier, None, None)
    ws.add_coring("C", c, None, "C_carrier")
    d = trivial_coring(l, name="D")
    ws.add_module("D_carrier", d.carrier, "L", "L")
    ws.add_coring("D", d, "L", "D_carrier")
    # right L-action: w_i·(l1, l2) = l_i·w_i -- not induced by any map L -> A
    one, zero = field.one, field.zero
    acts = [Matrix.from_rows(field, [[one, zero], [zero, zero]]),
            Matrix.from_rows(field, [[zero, zero], [zero, one]])]
    # w_i -> w_i (x) e_i = w_i (x) 1·e_i
    tau_amb = from_sparse_cols(field, 2 * 2, [[(i * 2 + i, one)] for i in range(2)])
    ext = CoringExtension(c, d, acts, tau_amb, split_map=None, name="ext")
    ext.validate()
    ws.add_extension("ext", ext, "C", "D")
    _comodule_of_regular_coring(ws, "C", "Creg")
    return ws


def fixture_D1(field):
    """A degenerate partial action whose nonunit idempotent is zero, so the
    component ideals have trivial intersection; the colinear-section space
    is computed, with no verdict asserted beyond the computation."""
    ws = __import__("coringlab.workspace", fromlist=["Workspace"]).Workspace(field)
    table = [[0, 1], [1, 0]]
    a = product_field_algebra(field, 2, name="A")
    ws.add_algebra("A", a)
    pa = PartialGroupAction(table, a, [[field.one] * 2, [field.zero] * 2],
                            [Matrix.identity(field, 2), Matrix.zero(field, 2, 2)],
                            name="D1")
    out = partial_action_coring(pa)
    c, ext, g = out["coring"], out["extension"], out["grouplike"]
    c.name = "C"
    ws.add_module("C_carrier", c.carrier, "A", "A")
    ws.add_coring("C", c, "A", "C_carrier")
    d = ext.outer
    d.name = "D"
    ws.add_module("D_carrier", d.carrier, None, None)
    ws.add_coring("D", d, None, "D_carrier")
    ws.add_extension("ext", ext, "C", "D")
    ws.add_grouplike("g", g, "C")
    sigma = grouplike_comodule(g, name="Sigma")
    ws.add_module("Sigma_carrier", sigma.carrier, None, "A")
    ws.add_comodule("Sigma", sigma, "C", "Sigma_carrier")
    return ws


FIXTURES = {
    "D1": fixture_D1,
    "E1": fixture_E1,
    "E2": fixture_E2,
    "E3": fixture_E3,
    "E4": fixture_E4,
    "E5": fixture_E5,
    "G1": fixture_G1,
    "L1": fixture_L1,
}


def build_fixture(name, field=None):
    from .exactla import QQ
    if name not in FIXTURES:
        raise UsageError("unknown fixture %r (have: %s)"
                         % (name, ", ".join(sorted(FIXTURES))))
    return FIXTURES[name](field or QQ)
