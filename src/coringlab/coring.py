"""Corings, comodules, grouplike elements, dual rings and colinear hom-spaces.

Coproducts and coactions always land in the balanced-tensor quotient, never
in the ambient k-tensor space; each structure also keeps the ambient form of
its map, the section applied once at construction (coproduct_amb,
coaction_amb), for the slot maps that read it.  Every compatibility identity
is an exact matrix equality between composites built by
BalancedTensor.induced.
"""

from __future__ import annotations

from .algmod import (BalancedTensor, Checked, FBimodule, FiniteAlgebra,
                     colinearity_constraint, endo_algebra, hom_space, vouch)
from .exactla import AxiomError, Matrix, UsageError, side_by_side, unit_vec


class Coring(Checked):
    """A-coring: an A-A bimodule with coassociative counital coproduct.
    validate() checks the base, the carrier and every coring axiom each time
    it is called; is_valid() decides it once (algmod.Checked)."""

    def __init__(self, base, carrier, coproduct, counit, name="C"):
        self.base = base
        self.carrier = carrier
        self.name = name
        self.field = base.field
        self.cc = BalancedTensor([carrier, carrier], [base], name=name + "(x)" + name)
        self._ccc = None
        if coproduct.rows == self.cc.ambient_dim and coproduct.rows != self.cc.dim:
            coproduct = self.cc.project_head(coproduct, 1)
        if coproduct.rows != self.cc.dim or coproduct.cols != carrier.dim:
            raise UsageError("coring %s: coproduct has wrong shape" % name)
        if counit.rows != base.dim or counit.cols != carrier.dim:
            raise UsageError("coring %s: counit has wrong shape" % name)
        self.coproduct = coproduct
        self.coproduct_amb = self.cc.lift(coproduct)
        self.counit = counit

    @property
    def dim(self):
        return self.carrier.dim

    @property
    def ccc(self):
        if self._ccc is None:
            self._ccc = BalancedTensor([self.carrier, self.carrier, self.carrier],
                                       [self.base, self.base], prefix=self.cc)
        return self._ccc

    def validate(self):
        self.base.validate()
        self.carrier.validate()
        f = self.field
        a, cc = self.base, self.cc

        def failure(i):
            la, ra = self.carrier.left_act[i], self.carrier.right_act[i]
            if self.coproduct.mul(la) != cc.left_act[i].mul(self.coproduct):
                return "coproduct not left A-linear"
            if self.coproduct.mul(ra) != cc.right_act[i].mul(self.coproduct):
                return "coproduct not right A-linear"
            if self.counit.mul(la) != a.lmul(i).mul(self.counit):
                return "counit not left A-linear"
            if self.counit.mul(ra) != a.rmul(i).mul(self.counit):
                return "counit not right A-linear"
            return None

        # the actions of A on C, on C (x)_A C (made of C) and on itself
        i = a.first_failing(lambda i: failure(i) is None, a.generators_decide(*cc.factors))
        if i is not None:
            raise AxiomError("coring %s: %s at basis %d" % (self.name, failure(i), i))
        # each identity is evaluated at Delta: C.dim vectors through the tensors
        ident = Matrix.identity(f, self.dim)
        delta, lift = self.coproduct, self.coproduct_amb
        if self.carrier.left_eval().mul(
                self.cc.induced(None, [(0, self.counit)], at=delta)) != ident:
            raise AxiomError("coring %s: counitality (eps(x)C)∘Delta = id fails" % self.name)
        if self.carrier.right_eval().mul(
                self.cc.induced(None, [(1, self.counit)], at=delta)) != ident:
            raise AxiomError("coring %s: counitality (C(x)eps)∘Delta = id fails" % self.name)
        if self.cc.induced(self.ccc, [(0, lift)], at=delta) != \
                self.cc.induced(self.ccc, [(1, lift)], at=delta):
            raise AxiomError("coring %s: coassociativity fails" % self.name)
        self._valid = True
        return True

    def __repr__(self):
        return "Coring(%s over %s, dim %d)" % (self.name, self.base.name, self.dim)


class Comodule(Checked):
    """Right comodule of a coring, optionally with a compatible left action.

    The left slot carries the trivial algebra for plain comodules; filling it
    with an algebra L (and checking the coaction is left L-linear) makes the
    comodule an L-C bicomodule.  validate() checks the carrier and every
    comodule axiom each time it is called, not the coring; is_valid()
    decides it once (algmod.Checked).
    """

    def __init__(self, coring, carrier, coaction, name="M", mc=None):
        self.coring = coring
        self.carrier = carrier
        self.name = name
        self.field = coring.field
        # mc: the tensor M (x)_A C over these very carriers, when the caller
        # has already built it
        self.mc = mc or BalancedTensor([carrier, coring.carrier], [coring.base],
                                       name=name + "(x)C")
        self._mcc = None
        if coaction.rows == self.mc.ambient_dim and coaction.rows != self.mc.dim:
            coaction = self.mc.project_head(coaction, 1)
        if coaction.rows != self.mc.dim or coaction.cols != carrier.dim:
            raise UsageError("comodule %s: coaction has wrong shape" % name)
        self.coaction = coaction
        self.coaction_amb = self.mc.lift(coaction)

    @property
    def dim(self):
        return self.carrier.dim

    @property
    def mcc(self):
        if self._mcc is None:
            self._mcc = BalancedTensor([self.carrier, self.coring.carrier,
                                        self.coring.carrier],
                                       [self.coring.base, self.coring.base], prefix=self.mc)
        return self._mcc

    @property
    def left_alg(self):
        return self.carrier.left_alg

    def coaction_on_left(self, at=None):
        """[M (x)_A C] -> [M (x)_A C (x)_A C] applying the coaction on slot 0,
        evaluated at the columns of at (see BalancedTensor.induced)."""
        return self.mc.induced(self.mcc, [(0, self.coaction_amb)], at=at)

    def delta_on_right(self, at=None):
        """Same, applying the coproduct on slot 1."""
        return self.mc.induced(self.mcc, [(1, self.coring.coproduct_amb)], at=at)

    def validate(self):
        self.carrier.validate()
        if self.carrier.right_alg.dim != self.coring.base.dim:
            raise UsageError("comodule %s: carrier is not a module over the base" % self.name)
        rho, mc, m = self.coaction, self.mc, self.carrier
        # M (x)_A C is made of M and of the coring's carrier, so both are in
        # the premise: an invalid C can leave its right action not
        # multiplicative
        a = self.coring.base
        i = a.first_failing(lambda i: rho.mul(m.right_act[i]) == mc.right_act[i].mul(rho),
                            m.right_alg is a and mc.right_alg is a and
                            a.generators_decide(m, *mc.factors))
        if i is not None:
            raise AxiomError("comodule %s: coaction not right A-linear at basis %d"
                             % (self.name, i))
        l = m.left_alg
        i = l.first_failing(lambda i: rho.mul(m.left_act[i]) == mc.left_act[i].mul(rho),
                            mc.left_alg is l and l.generators_decide(m, *mc.factors))
        if i is not None:
            raise AxiomError("comodule %s: coaction not left %s-linear at basis %d"
                             % (self.name, l.name, i))
        collapse = self.carrier.right_eval().mul(
            self.mc.induced(None, [(1, self.coring.counit)], at=rho))
        if collapse != Matrix.identity(self.field, self.dim):
            raise AxiomError("comodule %s: counitality fails" % self.name)
        if self.coaction_on_left(at=rho) != self.delta_on_right(at=rho):
            raise AxiomError("comodule %s: coassociativity fails" % self.name)
        self._valid = True
        return True

    def __repr__(self):
        return "Comodule(%s over %s, dim %d)" % (self.name, self.coring.name, self.dim)


class Grouplike(Checked):
    """Element g with Delta(g) = g (x) g and eps(g) = 1.  validate() checks
    both each time it is called, not the coring; is_valid() decides it once
    (algmod.Checked)."""

    def __init__(self, coring, element):
        self.coring = coring
        self.element = list(element)

    def validate(self):
        c = self.coring
        if len(self.element) != c.dim:
            raise UsageError("grouplike vector has wrong length")
        lhs = c.coproduct.mul_vec(self.element)
        rhs = c.cc.pure_tensor([self.element, self.element])
        if lhs != rhs:
            raise AxiomError("grouplike: Delta(g) != g (x) g")
        if c.counit.mul_vec(self.element) != list(c.base.unit):
            raise AxiomError("grouplike: eps(g) != 1")
        self._valid = True
        return True


# ---------------------------------------------------------------------------
# dual rings


class DualRing:
    """The left dual ring of a coring: the left A-linear maps C -> A.

    Carries the algebra structure, the defining evaluation matrices of the
    canonical basis, the A-A bimodule structure and the unit map from A,
    and keeps ``hits``, the hit map x -> x^(1)·f(x^(2)) of each basis map
    f, computed once.

    Both structures are vouched for when the coring is valid (and checked
    otherwise).  The product is associative: (f(gh))(x) and ((fg)h)(x) are
    both h(x^(1)·g(x^(2)·f(x^(3)))) by coassociativity and the left
    A-linearity of the maps.  The counit is its unit: (eps f)(x) =
    f(x^(1)·eps(x^(2))) = f(x) and (f eps)(x) = eps(x^(1))·f(x^(2)) =
    f(x) by counitality.  (a·f)(c) = f(c·a) and (f·a)(c) = f(c)·a make an
    A-A bimodule because C is one and A is associative.
    """

    def __init__(self, coring):
        self.coring = coring
        a = coring.base
        self.space = hom_space(coring.carrier, FBimodule.regular(a), left_linear=True)
        self.eval_mats = self.space.basis  # each a.dim x c.dim
        name = "*" + coring.name
        # (fg)(x) = g(x^(1)·f(x^(2))): one hit per basis map
        self.hits = [self.hit(f) for f in self.eval_mats]
        hit_of = {id(f): h for f, h in zip(self.eval_mats, self.hits)}
        self.algebra = self.space.algebra(
            lambda f, g: g.mul(hit_of[id(f)]), coring.counit, name,
            "dual ring of %s: product escapes the hom space" % coring.name,
            "dual ring of %s: counit is not in the hom space" % coring.name)
        vouch(self.algebra, coring, check=self.algebra.validate)
        # A-A bimodule structure: (a·f)(c) = f(c·a), (f·a)(c) = f(c)·a
        escape = "dual ring: bimodule action escapes the hom space"
        left_act = [self.space.coords_matrix(
            (m.mul(coring.carrier.right_act[i]) for m in self.eval_mats), escape)
            for i in range(a.dim)]
        right_act = [self.space.coords_matrix(
            (a.rmul(i).mul(m) for m in self.eval_mats), escape) for i in range(a.dim)]
        self.module = FBimodule(a, a, self.space.dim, left_act, right_act, name=name)
        vouch(self.module, coring, check=self.module.validate)

    def hit(self, f):
        """C -> C, x -> x^(1)·f(x^(2)), for f in the left dual."""
        c = self.coring
        return c.carrier.right_eval().mul(c.cc.induced(None, [(1, f)], at=c.coproduct))

    @property
    def dim(self):
        return self.algebra.dim

    def element_eval(self, coords):
        """Evaluation matrix (A.dim x C.dim) of the element with given coords."""
        return self.space.element(coords)


def dual_action(comodule, dual=None):
    """Right action of the left dual ring on a comodule: x·f = x^[0] f(x^[1]).

    Returns (dual, module) where module is the carrier rewrapped as a
    (left_alg, *C)-bimodule.  It is vouched for when the comodule and its
    coring are valid (and checked otherwise): x·eps = x^[0]·eps(x^[1]) = x
    by counitality, (x·f)·g = x^[0]·g(x^[1]·f(x^[2])) = x·(fg) by
    coassociativity and right A-linearity of the coaction, and the left
    action commutes with it because the coaction is left linear.
    """
    dual = dual or DualRing(comodule.coring)
    right_eval = comodule.carrier.right_eval()
    acts = [right_eval.mul(comodule.mc.induced(None, [(1, f)], at=comodule.coaction))
            for f in dual.eval_mats]
    mod = FBimodule(comodule.carrier.left_alg, dual.algebra, comodule.dim,
                    list(comodule.carrier.left_act), acts,
                    name=comodule.name + " as *%s-module" % comodule.coring.name)
    vouch(mod, comodule, comodule.coring, check=mod.validate)
    return dual, mod


# ---------------------------------------------------------------------------
# colinear hom spaces


def colinear_homs(m, n, left_linear=False):
    """The space (a MatrixSpace) of right colinear, right A-linear maps M -> N.

    With left_linear=True the maps are additionally left linear over the
    shared left algebra (the bicomodule hom space).
    """
    if m.coring is not n.coring:
        raise UsageError("colinear_homs: comodules over different corings")
    colinear = colinearity_constraint(n.coaction, n.mc, m.coaction_amb)
    return hom_space(m.carrier, n.carrier, left_linear=left_linear,
                     right_linear=True, extra_constraints=[colinear])


class EndAlgebra:
    """End^C(Sigma) with composition product, plus the L-ring unit when
    Sigma carries a left action."""

    def __init__(self, sigma):
        self.sigma = sigma
        self.space = colinear_homs(sigma, sigma)
        self.basis_maps = self.space.basis
        self.algebra = endo_algebra(self.space, name="End^%s(%s)"
                                    % (sigma.coring.name, sigma.name))

    @property
    def dim(self):
        return self.algebra.dim

    def coords(self, mat):
        return self.space.coords(mat)

    def unit_map_from(self, lalg):
        """L -> T, l -> (x -> l·x); fails when left multiplications are not colinear."""
        return self.space.coords_matrix(
            self.sigma.carrier.left_act,
            lambda i: "left multiplication by %s basis %d is not colinear" % (lalg.name, i))


# ---------------------------------------------------------------------------
# constructions


def grouplike_comodule(g, name=None):
    """The base algebra as a comodule via a grouplike: rho(a) = g·a.

    The grouplike is checked on entry, unless it has been checked or
    vouched for; the comodule is vouched for when the coring is valid (and
    checked otherwise): eps(g·a) = eps(g)·a = a and Delta(g·a) = g (x) g·a,
    by the right A-linearity of eps and Delta."""
    g.require_valid()
    c = g.coring
    a = c.base
    field = c.field
    carrier = FBimodule.right_module(a, a.dim, [a.rmul(j) for j in range(a.dim)],
                                     name=name or a.name)
    vouch(carrier, a)
    mc = BalancedTensor([carrier, c.carrier], [a])
    cols = []
    for j in range(a.dim):
        ga = c.carrier.right_act[j].mul_vec(g.element)
        cols.append(mc.pure_tensor([list(a.unit), ga]))
    coaction = Matrix.from_cols(field, mc.dim, cols)
    out = Comodule(c, carrier, coaction, name=name or a.name)
    vouch(out, c, check=out.validate)
    return out


def trivial_coring(a, name=None):
    """The base algebra as a coring over itself (Delta = canonical iso, eps = id).
    Vouched for when the algebra is valid (and checked otherwise): every
    axiom is the unitality or associativity of A."""
    carrier = FBimodule.regular(a, name=name or a.name)
    cc = BalancedTensor([carrier, carrier], [a])
    cols = [cc.pure_tensor([unit_vec(a.field, a.dim, j), list(a.unit)])
            for j in range(a.dim)]
    coproduct = Matrix.from_cols(a.field, cc.dim, cols)
    counit = Matrix.identity(a.field, a.dim)
    c = Coring(a, carrier, coproduct, counit, name=name or a.name)
    vouch(c, a, check=c.validate)
    return c


def comodule_direct_sum(m1, m2, name=None):
    """Direct sum of two comodules over the same coring (and left algebra).
    Vouched for when both are valid (and checked otherwise): every comodule
    identity holds block by block."""
    if m1.coring is not m2.coring:
        raise UsageError("direct sum of comodules over different corings")
    if m1.carrier.left_alg is not m2.carrier.left_alg:
        raise UsageError("direct sum with mismatched left algebras")
    c = m1.coring
    field = m1.field
    name = name or (m1.name + "+" + m2.name)
    carrier = FBimodule.direct_sum([m1.carrier, m2.carrier], name=name)
    mc = BalancedTensor([carrier, c.carrier], [c.base], name=name + "(x)C")
    # each summand's coaction, with its inclusion into the sum on the M slot
    blocks = []
    for src, offset in ((m1, 0), (m2, m1.dim)):
        inclusion = Matrix.from_cols(field, carrier.dim, [
            unit_vec(field, carrier.dim, offset + i) for i in range(src.dim)])
        blocks.append(src.mc.induced(mc, [(0, inclusion)], at=src.coaction))
    coaction = side_by_side(field, mc.dim, blocks)
    out = Comodule(c, carrier, coaction, name=name, mc=mc)
    vouch(out, m1, m2, check=out.validate)
    return out


def zero_comodule(c, name="0"):
    field = c.field
    carrier = FBimodule.right_module(c.base, 0, [Matrix.zero(field, 0, 0)
                                                 for _ in range(c.base.dim)], name=name)
    mc = BalancedTensor([carrier, c.carrier], [c.base])
    coaction = Matrix.zero(field, mc.dim, 0)
    return Comodule(c, carrier, coaction, name=name)


def opposite_algebra(a):
    """A^op, vouched for when A is valid (and checked otherwise): the same
    products read backwards are associative with the same unit."""
    mul = [[a.mul[j][i] for j in range(a.dim)] for i in range(a.dim)]
    out = FiniteAlgebra(a.field, a.dim, mul, a.unit, name=a.name + "^op")
    vouch(out, a, check=out.validate)
    return out


def co_opposite(c, name=None):
    """The co-opposite coring over A^op: same carrier with sides swapped and
    twisted coproduct, handed over in the ambient C x C, where row (j, i)
    is row (i, j) of c's.  Left comodules of c are right comodules of this.
    Vouched for when c is valid (and checked otherwise): each axiom is the
    mirror image of one of c's."""
    aop = opposite_algebra(c.base)
    carrier = FBimodule(aop, aop, c.dim, list(c.carrier.right_act),
                        list(c.carrier.left_act), name=(name or c.name + "^cop"))
    vouch(carrier, c)
    n, amb = c.dim, c.coproduct_amb.data
    twisted = Matrix(c.field, n * n, n, [list(amb[i * n + j]) for j in range(n)
                                         for i in range(n)])
    out = Coring(aop, carrier, twisted, c.counit, name=name or c.name + "^cop")
    vouch(out, c, check=out.validate)
    return out
