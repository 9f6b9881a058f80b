"""Coring extensions: purity, induced coactions, the extension context with
its eight structure formulas, and convolution algebras.

An extension pairs an inner coring over A with an outer coring over L; the
inner carrier is an A-L bimodule and carries a compatible outer coaction.
Purity of the defining equalizer is certified either through the split fast
path (an algebra map L -> A inducing the right L-action) or by explicitly
tensoring the equalizer and comparing ranks, comodule by comodule.  Each
corner of the extension context is one hom_space solve: the bilinear maps
D -> T are the convolution algebra, the bicolinear endomorphisms and the
colinear maps D -> Sigma are cut out by colinearity terms, and the
intertwining bimodule Qtilde by its defining relation, written as one
operator identity per basis element of Sigma.

The extension context keeps the comodule context of its bicomodule
(morita.context_M) it is built from, shares its endomorphism algebra,
Sigma* and Q, and embeds Qtilde into Q.  Over the trivial outer coring it
coincides with that context: remark_k_coincidence checks the canonical
identifications with morita.morphism_failure.
"""

from __future__ import annotations

from functools import cached_property

from .algmod import (BalancedTensor, Checked, FBimodule, Verdict, algebra_map_check,
                     colinearity_constraint, constraint_rows, endo_algebra, hom_space,
                     sandwich_terms, summand_witnesses, vouch)
from .coring import Comodule, colinear_homs
from .exactla import (AxiomError, Matrix, UsageError, flatten_matrix, image, kernel,
                      rank, side_by_side, solve_linear, unflatten)
from .morita import MoritaContext, morphism_failure


class CoringExtension(Checked):
    """An outer coring (over L) extending an inner coring (over A).
    validate() checks the inner carrier as an A-L bimodule and every axiom
    of the extension each time it is called, not the two corings;
    is_valid() decides it once (algmod.Checked).

    The inner carrier as an A-L bimodule (carrier_l) is vouched for when L
    is one-dimensional with unit e_0, the right L-action is the identity,
    and C's carrier and L are valid (validate checks it otherwise): the left
    action is C's, a valid A-module, and e_0 acts on the right by I, which
    is unital, associative since e_0·e_0 = e_0, and commutes with every
    left action; so C is an A-k bimodule.  The tensors C (x)_L D (x)_L D
    (cldd) and C (x)_A C (x)_L D (ccld) are built on first use."""

    def __init__(self, inner, outer, right_l_act, tau, split_map=None, name="ext"):
        self.inner = inner
        self.outer = outer
        self.right_l_act = right_l_act
        self.split_map = split_map
        self.name = name
        self.field = inner.field
        l = outer.base
        if len(right_l_act) != l.dim:
            raise UsageError("extension %s: right action list has wrong length" % name)
        self.carrier_l = FBimodule(inner.base, l, inner.dim,
                                   list(inner.carrier.left_act), right_l_act,
                                   name=inner.name + " as A-L")
        if l.unit == [self.field.one] and \
                right_l_act == [Matrix.identity(self.field, inner.dim)]:
            vouch(self.carrier_l, l, inner.carrier)
        self.cld = BalancedTensor([self.carrier_l, outer.carrier], [l],
                                  name=inner.name + "(x)" + outer.name)
        self._cldd = None
        self._ccld = None
        if tau.rows == self.cld.ambient_dim and tau.rows != self.cld.dim:
            tau = self.cld.project_head(tau, 1)
        if tau.rows != self.cld.dim or tau.cols != inner.dim:
            raise UsageError("extension %s: coaction matrix has wrong shape" % name)
        self.tau = tau
        self.tau_amb = self.cld.lift(tau)
        self.purity_certificate = "unchecked"

    @property
    def is_pure(self):
        """Whether purity_check has certified the defining equalizer pure."""
        return self.purity_certificate in ("pure", "pure-by-split")

    @property
    def cldd(self):
        """C (x)_L D (x)_L D, resumed from cld, built on first use."""
        if self._cldd is None:
            self._cldd = BalancedTensor([self.carrier_l, self.outer.carrier,
                                         self.outer.carrier],
                                        [self.outer.base, self.outer.base], prefix=self.cld)
        return self._cldd

    @property
    def ccld(self):
        """The mixed chain C (x)_A C (x)_L D, built on first use."""
        if self._ccld is None:
            self._ccld = BalancedTensor([self.inner.carrier, self.carrier_l,
                                         self.outer.carrier],
                                        [self.inner.base, self.outer.base])
        return self._ccld

    # -- structural composites, evaluated at Delta or tau

    def bicomodule_lhs(self):
        """(C (x) tau) ∘ Delta, into the mixed chain."""
        c = self.inner
        return c.cc.induced(self.ccld, [(1, self.tau_amb)], at=c.coproduct)

    def bicomodule_rhs(self):
        """(Delta (x) D) ∘ tau, into the mixed chain."""
        return self.cld.induced(self.ccld, [(0, self.inner.coproduct_amb)], at=self.tau)

    def validate(self):
        c, d = self.inner, self.outer
        f = self.field
        self.carrier_l.validate()
        tau, cld = self.tau, self.cld
        # C (x)_L D is made of D's carrier and of C as an A-L bimodule, whose
        # left action matrices are C's
        a, l = c.base, d.base
        i = a.first_failing(
            lambda i: tau.mul(c.carrier.left_act[i]) == cld.left_act[i].mul(tau),
            cld.left_alg is a and a.generators_decide(*cld.factors))
        if i is not None:
            raise AxiomError("extension %s: outer coaction not left A-linear at "
                             "basis %d" % (self.name, i))
        i = l.first_failing(
            lambda i: tau.mul(self.right_l_act[i]) == cld.right_act[i].mul(tau),
            cld.right_alg is l and l.generators_decide(*cld.factors))
        if i is not None:
            raise AxiomError("extension %s: outer coaction not right L-linear at "
                             "basis %d" % (self.name, i))
        collapse = self.carrier_l.right_eval().mul(
            self.cld.induced(None, [(1, d.counit)], at=tau))
        if collapse != Matrix.identity(f, c.dim):
            raise AxiomError("extension %s: outer coaction not counital" % self.name)
        if self.cld.induced(self.cldd, [(0, self.tau_amb)], at=tau) != \
                self.cld.induced(self.cldd, [(1, d.coproduct_amb)], at=tau):
            raise AxiomError("extension %s: outer coaction not coassociative" % self.name)
        # the operators I (x) r of the right L-action on C (x)_A C: those
        # that keep the balancing relations form an algebra, and the induced
        # ones are multiplicative, so the generators decide both checks

        def right_l_linear(i):
            induced = c.cc.descend_slot(1, self.right_l_act[i])
            return induced is not None and \
                c.coproduct.mul(self.right_l_act[i]) == induced.mul(c.coproduct)

        i = l.first_failing(right_l_linear, l.generators_decide(self.carrier_l))
        if i is not None:
            if c.cc.descend_slot(1, self.right_l_act[i]) is None:
                raise AxiomError("extension %s: right L-action does not descend to "
                                 "C (x)_A C" % self.name)
            raise AxiomError("extension %s: coproduct not right L-linear at "
                             "basis %d" % (self.name, i))
        if self.bicomodule_lhs() != self.bicomodule_rhs():
            raise AxiomError("extension %s: coproduct is not colinear for the outer "
                             "coaction" % self.name)
        self._valid = True
        return True

    def __repr__(self):
        return "CoringExtension(%s: %s over %s)" % (self.name, self.outer.name,
                                                    self.inner.name)


# ---------------------------------------------------------------------------
# induced structures on comodules


def _extension_parts(ext, m):
    """What the structures induced on a comodule m of the inner coring rest
    on: the extension, both corings and m."""
    return ext, ext.inner, ext.outer, m


def induced_right_l_action(ext, m):
    """Right L-action m·l = m^[0]·eps(m^[1]·l) on a comodule of the inner
    coring.

    Vouched for when the extension, both corings and m are valid (and
    checked otherwise: a right L-module, with the coaction right L-linear).
    Delta(c·l) = c^(1) (x) c^(2)·l and counitality give
    c^(1)·eps(c^(2)·l) = c·l, so by coassociativity of the coaction
    rho(m·l) = m^[0] (x) m^[1]·eps(m^[2]·l) = m^[0] (x) m^[1]·l, and then
    (m·l)·l' = m^[0]·eps(m^[1]·l·l') = m·(ll') and m·1 = m."""
    counit = ext.inner.counit
    right_eval = m.carrier.right_eval()
    acts = [right_eval.mul(m.mc.induced(None, [(1, counit.mul(r))], at=m.coaction))
            for r in ext.right_l_act]
    l = ext.outer.base
    probe = FBimodule.right_module(l, m.dim, acts, name=m.name + " as L-module")
    vouch(probe, *_extension_parts(ext, m),
          check=lambda: probe.validate() and _coaction_l_linear(ext, m, acts))
    return acts


def _coaction_l_linear(ext, m, acts):
    """Raise unless the coaction of m is right L-linear for the induced
    action acts, at every basis index of L."""
    for i, act in enumerate(acts):
        if m.coaction.mul(act) != \
                m.mc.induced(m.mc, [(1, ext.right_l_act[i])], at=m.coaction):
            raise AxiomError("induced right L-action is not compatible with the "
                             "coaction on %s" % m.name)
    return True


def purity_check(ext, comodules):
    """Certify purity of the defining equalizer; the certificate is kept as
    ext.purity_certificate and returned as a Verdict with its detail.

    Fast path: a supplied algebra map L -> A inducing the right L-action
    gives an unconditional split certificate, graded certified.  Otherwise
    the equalizer is tensored with the square of the outer coring and the
    canonical comparison map is required to be bijective for every listed
    comodule, graded on-samples.
    """
    a, l = ext.inner.base, ext.outer.base
    if ext.split_map is not None:
        phi = ext.split_map
        if not algebra_map_check(l, a, phi):
            raise AxiomError("extension %s: split map is not an algebra map" % ext.name)
        for i in range(l.dim):
            if ext.right_l_act[i] != ext.inner.carrier.right_act_vec(phi.col(i)):
                raise AxiomError("extension %s: split map does not induce the right "
                                 "L-action" % ext.name)
        ext.purity_certificate = "pure-by-split"
        return Verdict(ext.purity_certificate, "certified",
                       "right L-action induced by an algebra map L -> A")
    for m in comodules:
        if not _pure_for(ext, m):
            ext.purity_certificate = "not-pure"
            return Verdict(ext.purity_certificate, "on-samples",
                           "comparison map fails for comodule %s" % m.name)
    ext.purity_certificate = "pure"
    return Verdict(ext.purity_certificate, "on-samples", "comparison bijective for: " +
                   ", ".join(m.name for m in comodules))


def _pure_for(ext, m):
    """Whether the equalizer comparison is bijective for m, with X = D (x)_L D:
    rho_M (x) X is injective (one image, whose dimension decides) and that
    image is the kernel of the difference of the two maps
    (M (x) C) (x)_L X -> (M (x) C (x) C) (x)_L X.

    The three right L-modules are vouched for when the extension, both
    corings and m are valid: M with the induced action
    (induced_right_l_action), and M (x)_A C and M (x)_A C (x)_A C with L
    acting on the last slot, where each r of the right L-action on C is
    left A-linear, so I (x) r descends and the actions are C's."""
    l = ext.outer.base
    parts = _extension_parts(ext, m)
    m_l = FBimodule.right_module(l, m.dim, induced_right_l_action(ext, m), name=m.name)
    mc_l = FBimodule.right_module(l, m.mc.dim, [m.mc.induced(m.mc, [(1, r)])
                                                for r in ext.right_l_act],
                                  name=m.name + "(x)C")
    mcc_l = FBimodule.right_module(l, m.mcc.dim, [m.mcc.induced(m.mcc, [(2, r)])
                                                  for r in ext.right_l_act],
                                   name=m.name + "(x)C(x)C")
    for mod in (m_l, mc_l, mcc_l):
        vouch(mod, *parts)
    x_mod = ext.outer.cc.as_bimodule(name="D(x)D")
    t1 = BalancedTensor([m_l, x_mod], [l])
    t2 = BalancedTensor([mc_l, x_mod], [l])
    t3 = BalancedTensor([mcc_l, x_mod], [l])
    im = image(t1.induced(t2, [(0, m.coaction)]))
    if im.dim != t1.dim:
        return False
    g1 = t2.induced(t3, [(0, m.coaction_on_left())])
    g2 = t2.induced(t3, [(0, m.delta_on_right())])
    return im == kernel(g1.sub(g2))


def induced_D_coaction(ext, m):
    """The outer comodule structure on a comodule of the inner coring.

    Requires a purity certificate.  Installs the induced right L-action
    first, then returns a comodule of the outer coring, with the coaction
    m -> m^[0]·eps(m^[1]_[0]) (x) m^[1]_[1].  It is vouched for when the
    extension, both corings and m are valid (and checked otherwise), by
    the lemma that a coring extension makes every right C-comodule a right
    D-comodule this way: the bicomodule identity of C gives
    c^(1) (x) c^(2)_[0] (x) c^(2)_[1] = c_[0]^(1) (x) c_[0]^(2) (x) c_[1],
    so the formula sends C itself to tau, and counitality and
    coassociativity follow from those of tau and of the coaction of m.
    """
    if not ext.is_pure:
        raise UsageError("induced coaction refused: extension %s has purity "
                         "certificate %r" % (ext.name, ext.purity_certificate))
    f = ext.field
    c = ext.inner
    carrier = FBimodule(m.carrier.left_alg, ext.outer.base, m.dim,
                        list(m.carrier.left_act), induced_right_l_action(ext, m),
                        name=m.name)
    # the left action commutes with the induced right one: rho is left linear
    vouch(carrier, *_extension_parts(ext, m))
    md = BalancedTensor([carrier, ext.outer.carrier], [ext.outer.base])
    # m -> m^[0]·eps(m^[1]_[0]) (x) m^[1]_[1] = sum_a m^[0]·a (x) z_a(m^[1]), where
    # (eps (x) D)∘tau = sum_a a (x) z_a over the basis of A
    z = ext.cld.induced(None, [(0, c.counit)], at=ext.tau)
    ddim = ext.outer.dim
    tau_m = Matrix.zero(f, md.dim, m.dim)
    for a, act in enumerate(m.carrier.right_act):
        z_a = Matrix(f, ddim, c.dim, z.data[a * ddim:(a + 1) * ddim])
        tau_m = tau_m.add(m.mc.induced(md, [(0, act), (1, z_a)], at=m.coaction))
    out = Comodule(ext.outer, carrier, tau_m, name=m.name, mc=md)
    vouch(out, *_extension_parts(ext, m), check=out.validate)
    return out


def tensor_comodule(m, n_carrier, coring, rho, name):
    """M (x)_B N with the coaction M (x) rho_N, for a right B-module m and a
    right comodule N of coring given by its carrier (a left B-module) and
    rho, the ambient form of rho_N (coaction_amb), laid out N x C.  Returns
    (comodule, tensor), the comodule neither checked nor vouched for: that
    is its caller's.

    M (x) rho_N lands in M x N x C; proj (x) C takes that to the image's
    layout (M (x)_B N) x C, which the comodule projects to its own tensor."""
    x = BalancedTensor([m, n_carrier], [m.right_alg], name=name)
    coaction = x.project_head(x.induced(None, [(1, rho)]), coring.dim)
    return Comodule(coring, x.as_bimodule(name=name), coaction, name=name), x


def check_colinear_maps_remain_colinear(pairs):
    """Every inner-colinear map between listed comodules is outer-colinear."""
    for (m, n, dm, dn) in pairs:
        for h in colinear_homs(m, n).basis:
            lhs = dn.coaction.mul(h)
            rhs = dm.mc.induced(dn.mc, [(0, h)], at=dm.coaction)
            if lhs != rhs:
                raise AxiomError("an inner-colinear map %s -> %s fails to be "
                                 "outer-colinear" % (m.name, n.name))
    return True


# ---------------------------------------------------------------------------
# the connecting bimodule of the extension context


class QTildeModule:
    """Bilinear maps from the inner coring to the comodule dual satisfying the
    intertwining relation, as a solved space.

    The space is one hom_space solve: A-L-bilinear maps q: C -> Sigma* with
    c^(1)·q(c^(2))(x_j) = q(c)(x_j^[0])·x_j^[1], one operator identity per
    basis element x_j of Sigma: P_j·(C (x) X)·Delta = U_j·X, where P_j sends
    c (x) xi_s to c·xi_s(x_j) and column s of U_j is xi_s(x_j^[0])·x_j^[1].
    """

    def __init__(self, ext, sigma_dual):
        sigma = sigma_dual.sigma
        f = ext.field
        c = ext.inner
        self.sigma_dual = sd = sigma_dual
        # (xi_s (x) C)∘rho for each basis element xi_s of Sigma*
        self.xi_rho = [sigma.mc.induced(None, [(0, xi)], at=sigma.coaction)
                       for xi in sd.basis]
        left_eval = c.carrier.left_eval()
        xi_coact = [left_eval.mul(comp) for comp in self.xi_rho]
        delta = c.coproduct_amb
        ident = Matrix.identity(f, c.dim)
        relations = []
        a_dim = c.base.dim
        for j in range(sigma.dim):
            # column (k, s) of P_j is c_k·xi_s(x_j): the orbit of c_k after X_j
            x_j = Matrix.from_cols(f, a_dim, [xi.col(j) for xi in sd.basis])
            p_j = side_by_side(f, c.dim, (orbit.mul(x_j)
                                          for orbit in c.carrier.right_orbits()))
            u_j = Matrix.from_cols(f, c.dim, [comp.col(j) for comp in xi_coact])
            relations.append(sandwich_terms(p_j, delta, c.dim, 1) + [(u_j, ident, -1)])
        self.space = hom_space(ext.carrier_l, sd.module, left_linear=True,
                               right_linear=True, extra_constraints=relations)
        self.basis = self.space.basis

    @property
    def dim(self):
        return self.space.dim

    def coords(self, mat):
        return self.space.coords(mat)


# ---------------------------------------------------------------------------
# the extension context


class ExtContext:
    """The four-corner context attached to a bicomodule of a pure extension.

    Corners: bilinear maps D -> T; the opposite algebra of bicolinear coring
    endomorphisms; colinear maps D -> Sigma; and the intertwining bimodule.
    All eight structure formulas are realized as matrices and the two forms
    of the first connecting map are computed independently and compared on
    every basis pair.  The basis-pair values of both connecting maps are
    kept as structure constants (see connecting_matrix).

    Built from the comodule context cm of Sigma, kept as cm, whose
    endomorphism algebra, Sigma* and Q it shares; the intertwining bimodule
    embeds into Q by switching arguments (embedding, verified injective).
    """

    def __init__(self, ext, cm):
        if not ext.is_pure:
            raise UsageError("extension context refused: purity certificate is %r"
                             % ext.purity_certificate)
        sigma = cm.sigma
        self.ext = ext
        self.cm = cm
        self.sigma = sigma
        f = ext.field
        self.field = f
        c, d = ext.inner, ext.outer
        l = d.base
        self.end = cm.end
        t_alg = self.end.algebra
        self.t_alg = t_alg
        # Sigma as an L-C bicomodule needs sigma.left_alg == L
        if sigma.carrier.left_alg.dim != l.dim:
            raise UsageError("the comodule's left algebra does not match the outer base")
        eta = self.end.unit_map_from(l) if t_alg.dim else Matrix.zero(f, 0, l.dim)
        self.eta = eta
        # T as a (T, L)-bimodule: left multiplication, and L through eta;
        # vouched for when Sigma is valid over this very L: eta(l) is left
        # multiplication by l, so eta is a unital algebra map into T, whose
        # product is composition
        self.t_bim = FBimodule(t_alg, l, t_alg.dim,
                               [t_alg.lmul(i) for i in range(t_alg.dim)],
                               [t_alg.rmul_vec(eta.col(i)) for i in range(l.dim)],
                               name="T")
        if sigma.carrier.left_alg is l:
            vouch(self.t_bim, sigma, l)
        self.sigma_d = induced_D_coaction(ext, sigma)
        self._outer = {sigma: self.sigma_d}
        # ----- corner 2: bicolinear coring endomorphisms, opposite product
        self.u_space = self._solve_u()
        self.u_basis = self.u_space.basis
        self.u_alg = endo_algebra(self.u_space, name="bicolinear End(%s)^op" % c.name,
                                  opposite=True)
        # ----- corner 3: colinear maps D -> Sigma
        self.p_space = hom_space(d.carrier, self.sigma_d.carrier, left_linear=True,
                                 extra_constraints=[colinearity_constraint(
                                     self.sigma_d.coaction, self.sigma_d.mc,
                                     d.coproduct_amb)])
        self.p_basis = self.p_space.basis
        # ----- corner 4, and its embedding into Q
        self.qt = QTildeModule(ext, cm.q.sigma_dual)
        self.embedding = cm.q.space.coords_matrix(
            (self._switch_into(cm.dual, qt) for qt in self.qt.basis),
            "an element of the extension bimodule does not embed into the comodule "
            "bimodule")
        if rank(self.embedding) != self.qt.dim:
            raise AxiomError("the embedding into the comodule bimodule is not "
                             "injective")
        # ----- corner 1: bilinear maps D -> T under convolution
        self.v_alg, self.v_space = convolution_algebra(d, t_alg, eta, name="Hom(D,T)")
        self.v_basis = self.v_space.basis
        self._build_actions()
        self._build_context()
        # the undirected invertibility search, run once per context by
        # galois.cleft_check, and the verified counit inverse of each sample
        # comodule (galois.verify_weak_structure)
        self.cleft_search = None
        self.counit_inverses = {}

    # -- the bicomodules of the normal-basis checks, built on first use

    @cached_property
    def td(self):
        """(comodule, tensor) of T (x)_L D: the T-D bicomodule with left
        multiplication and the coaction T (x) Delta_D.  Vouched for when T
        (as a (T, L)-bimodule) and D are valid (and checked otherwise): the
        coaction is Delta_D on the D slot, so it is counital, coassociative
        and left T-linear because Delta_D is counital, coassociative and
        left L-linear."""
        d = self.ext.outer
        com, tens = tensor_comodule(self.t_bim, d.carrier, d, d.coproduct_amb, "T(x)D")
        vouch(com, self.t_bim, d, check=com.validate)
        return com, tens

    @cached_property
    def sigma_bi(self):
        """Sigma as a T-D bicomodule: the outer comodule with T acting on the
        left.  Its carrier is vouched for when the outer comodule and what
        it is induced from are valid: T acts by composition, and a colinear
        t commutes with the induced right L-action,
        t(x·l) = t(x)^[0]·eps(t(x)^[1]·l) = t(x)·l."""
        sigma, sigma_d = self.sigma, self.sigma_d
        carrier = FBimodule(self.t_alg, self.ext.outer.base, sigma.dim,
                            list(self.end.basis_maps), sigma_d.carrier.right_act,
                            name=sigma.name)
        vouch(carrier, sigma_d, *_extension_parts(self.ext, sigma))
        return Comodule(self.ext.outer, carrier, sigma_d.coaction, name=sigma.name)

    @cached_property
    def bicomodule_homs(self):
        """The left T-linear colinear maps Sigma -> T (x)_L D and back, as
        two MatrixSpaces."""
        sig, td = self.sigma_bi, self.td[0]
        return (colinear_homs(sig, td, left_linear=True),
                colinear_homs(td, sig, left_linear=True))

    @cached_property
    def sigma_summand(self):
        """Witnesses (kappa, lam) that Sigma is a summand of a power of
        T (x)_L D as a T-D bicomodule (algmod.summand_witnesses), or None."""
        return summand_witnesses(*self.bicomodule_homs)

    @cached_property
    def first_witnesses(self):
        """Witness pairs (jtilde_l, j_l) whose first-connecting values sum to
        the identity, or None when the first connecting map is not
        surjective; built once per context, None included."""
        ok, wit = self.context.connecting(1)
        if not ok:
            return None
        return [(self.qt.space.element(qvec), self.p_space.element(pvec))
                for qvec, pvec in wit]

    def outer_comodule(self, m):
        """The outer comodule induced by a comodule m of the inner coring,
        built once per comodule (Sigma's with the context); a build that
        fails is not kept, so every caller sees its AxiomError."""
        if m not in self._outer:
            self._outer[m] = induced_D_coaction(self.ext, m)
        return self._outer[m]

    def _switch_into(self, dual, qt):
        """Switch arguments: qt as a map Sigma -> dual ring, in dual coordinates."""
        c = self.ext.inner
        evals = [self.qt.sigma_dual.space.element(qt.col(k)) for k in range(c.dim)]
        return dual.space.coords_matrix(
            (Matrix.from_cols(self.field, c.base.dim, [ev.col(x) for ev in evals])
             for x in range(self.sigma.dim)),
            "switched element leaves the dual ring")

    # -- corner solvers

    def _solve_u(self):
        """The bicolinear endomorphisms u: left colinear over C,
        Delta∘u = (C (x) u)∘Delta, and right colinear over D through tau."""
        ext = self.ext
        c = ext.inner
        return hom_space(ext.carrier_l, ext.carrier_l, left_linear=True,
                         right_linear=True,
                         extra_constraints=[
                             colinearity_constraint(c.coproduct, c.cc, c.coproduct_amb, slot=1),
                             colinearity_constraint(ext.tau, ext.cld, ext.tau_amb)])

    def _v_unit_matrix(self):
        """d -> eps_D(d)·1_T."""
        return self.eta.mul(self.ext.outer.counit)

    @cached_property
    def apply_t(self):
        """Evaluation T (x) Sigma -> Sigma."""
        return side_by_side(self.field, self.sigma.dim, self.end.basis_maps)

    @cached_property
    def pair_eval(self):
        """Evaluation Sigma* (x) Sigma -> A."""
        return side_by_side(self.field, self.ext.inner.base.dim, self.qt.sigma_dual.basis)

    def _sigma_dual_t_action(self):
        """Right action of the endomorphism algebra on Sigma*: xi·t = xi ∘ t."""
        sd = self.qt.sigma_dual
        return [sd.space.coords_matrix((b.mul(t) for b in sd.basis),
                                       "Sigma*: endomorphism action escapes the space")
                for t in self.end.basis_maps]

    def _build_actions(self):
        """The two bimodules P (colinear maps D -> Sigma) and Qtilde, with
        the four action formulas."""
        ext, sigma = self.ext, self.sigma
        c, d = ext.inner, ext.outer
        napply = self.apply_t
        vp_mats = [self.p_space.coords_matrix(
            (napply.mul(d.cc.induced(None, [(0, v), (1, p)], at=d.coproduct))
             for p in self.p_basis),
            "extension context: the first action formula escapes the colinear maps")
            for v in self.v_basis]
        right_eval = sigma.carrier.right_eval()
        pu_mats = []
        uq_mats = []
        for u in self.u_basis:
            pu_op = right_eval.mul(sigma.mc.induced(None, [(1, c.counit.mul(u))],
                                                    at=sigma.coaction))
            pu_mats.append(self.p_space.coords_matrix(
                (pu_op.mul(p) for p in self.p_basis),
                "extension context: the second action formula escapes the colinear "
                "maps"))
            uq_mats.append(self.qt.space.coords_matrix(
                (q.mul(u) for q in self.qt.basis),
                "extension context: the third action formula escapes the bimodule"))
        # Sigma* (x) T -> Sigma*, xi (x) t -> xi∘t
        ev_compose = FBimodule.right_module(self.t_alg, self.qt.sigma_dual.dim,
                                            self._sigma_dual_t_action()).right_eval()
        qv_mats = [self.qt.space.coords_matrix(
            (ev_compose.mul(ext.cld.induced(None, [(0, q), (1, v)], at=ext.tau))
             for q in self.qt.basis),
            "extension context: the fourth action formula escapes the bimodule")
            for v in self.v_basis]
        self.p_mod = FBimodule(self.v_alg, self.u_alg, len(self.p_basis), vp_mats,
                               pu_mats, name="Hom(D,Sigma)")
        self.p_mod.validate()
        self.q_mod = FBimodule(self.u_alg, self.v_alg, self.qt.dim, uq_mats, qv_mats,
                               name="Qtilde")
        self.q_mod.validate()

    @cached_property
    def _black_parts(self):
        """What diamond_black needs besides its pair: the two actions of A
        on C and, for each basis element xi_s of Sigma*, (xi_s (x) C)∘rho,
        kept on the extension bimodule."""
        c = self.ext.inner
        return c.carrier.right_eval(), c.carrier.left_eval(), self.qt.xi_rho

    def diamond_black(self, q, p):
        """First connecting map on elements, both equivalent forms compared."""
        f = self.field
        ext = self.ext
        c = ext.inner
        right_eval, left_eval, xi_rho = self._black_parts
        # form 1: c^(1)·q(c^(2)_[0])( p(c^(2)_[1]) )
        inner = self.pair_eval.mul(ext.cld.induced(None, [(0, q), (1, p)], at=ext.tau))
        form1 = right_eval.mul(c.cc.induced(None, [(1, inner)], at=c.coproduct))
        # form 2: q(c_[0])( p(c_[1])^[0] )·p(c_[1])^[1]: q lands in Sigma* (x) D,
        # then xi_s (x) d -> xi_s(p(d)^[0]) (x) p(d)^[1] for the basis xi_s of Sigma*
        evaluate = side_by_side(f, c.base.dim * c.dim, (comp.mul(p) for comp in xi_rho))
        form2 = left_eval.mul(evaluate).mul(ext.cld.induced(None, [(0, q)], at=ext.tau))
        if form1 != form2:
            raise AxiomError("the two forms of the first connecting map disagree "
                             "(broken outer coaction)")
        return form1

    def diamond_white(self, p, q):
        """Second connecting map on elements: d -> p(d)^[0] q(p(d)^[1])(-)."""
        sd = self.qt.sigma_dual
        return self.end.space.coords_matrix(
            sd.pairing(self.sigma, p, q),
            "second connecting map leaves the endomorphism algebra")

    def _build_context(self):
        f = self.field
        npdim, nqdim = len(self.p_basis), self.qt.dim
        tens21 = BalancedTensor([self.q_mod, self.p_mod], [self.v_alg])
        tens12 = BalancedTensor([self.p_mod, self.q_mod], [self.u_alg])
        black = self.u_space.coords_matrix(
            (self.diamond_black(q, p) for q in self.qt.basis for p in self.p_basis),
            "first connecting map leaves the bicolinear endomorphisms")
        white = self.v_space.coords_matrix(
            (self.diamond_white(p, q) for p in self.p_basis for q in self.qt.basis),
            "second connecting map leaves the bilinear maps")
        # values on basis pairs, flattened: column j of _conn_sc stacks, for
        # each b, black(q_b, p_j) over white(p_j, q_b)
        black_vals = self.u_space.span.basis_matrix_cols().mul(black)
        white_vals = self.v_space.span.basis_matrix_cols().mul(white)
        cdim = self.ext.inner.dim
        self.conn_rows = cdim * cdim + self.t_alg.dim * self.ext.outer.dim
        self._conn_sc = Matrix.from_cols(
            f, nqdim * self.conn_rows,
            [[v for b in range(nqdim)
              for v in black_vals.col(b * npdim + j) + white_vals.col(j * nqdim + b)]
             for j in range(npdim)])
        self.context = MoritaContext(self.v_alg, self.u_alg, self.p_mod, self.q_mod,
                                     black, white, tens21, tens12,
                                     name="extension context(%s)" % self.sigma.name)
        self.context.validate()

    def connecting_matrix(self, j_coords):
        """Both connecting maps at j = sum_k j_coords[k]·p_k, linear in the
        intertwiner: column b stacks diamond_black(q_b, j) over
        diamond_white(j, q_b), each flattened row-major (conn_rows rows).

        Contracts the basis-pair values kept at construction, where the two
        forms of the first map were compared; both maps are bilinear, so
        that comparison covers every pair and the value at (jtilde, j) is
        this matrix times the coordinates of jtilde.
        """
        vec = self._conn_sc.mul_vec(j_coords)
        n = self.conn_rows
        return Matrix.from_cols(self.field, n,
                                [vec[b * n:(b + 1) * n] for b in range(self.qt.dim)])


# ---------------------------------------------------------------------------
# convolution algebras


def convolution_algebra(d, alg, eta=None, name=None):
    """Bilinear maps D -> A under (fg)(x) = f(x_(1))·g(x_(2)), with unit
    eta∘eps_D.

    alg is an L-ring via eta: L -> alg (defaults to the identity when L is
    the trivial algebra).  Returns (algebra, space of bilinear maps).  The
    algebra is vouched for when D and alg are valid (and checked otherwise):
    x (x) y -> f(x)·g(y) is balanced, f(x·l)·g(y) = f(x)·eta(l)·g(y) =
    f(x)·g(l·y), so the product is well defined; it is associative by
    coassociativity of D and associativity of alg, and eta∘eps_D is its
    unit by counitality, f(x_(1))·eta(eps(x_(2))) = f(x_(1)·eps(x_(2))).
    """
    f = d.field
    if d.base.dim != 1 and eta is None:
        raise UsageError("convolution algebra over a nontrivial base needs the "
                         "unit map L -> A")
    if eta is None:
        eta = Matrix.from_cols(f, alg.dim, [list(alg.unit)])
    ring = FBimodule.through(alg, d.base, eta)
    space = hom_space(d.carrier, ring, left_linear=True, right_linear=True)
    mult = alg.mult_eval()
    alg_out = space.algebra(
        lambda x, y: mult.mul(d.cc.induced(None, [(0, x), (1, y)], at=d.coproduct)),
        eta.mul(d.counit),
        name or ("Conv(%s,%s)" % (d.name, alg.name) if space.dim else "Conv"),
        "convolution product escapes the bilinear maps",
        "convolution unit escapes the bilinear maps")
    vouch(alg_out, d, alg, check=alg_out.validate)
    return alg_out, space


def convolution_inverse(d, alg, lam):
    """Convolution inverse of a k-linear map D -> A, or None.

    Solves lam * x = unit alone; the returned inverse is the canonical
    echelon solution.  Only over the trivial base, where the unit is
    1_A·eps_D.  For a valid coring D and algebra A, Hom(D, A) under
    convolution is a finite-dimensional algebra, and there a right inverse
    is unique and two-sided: lam * x = 1 makes r -> lam * r surjective,
    hence injective, and lam * (x * lam) = lam = lam * 1 gives x * lam = 1;
    any other right inverse x' = (x * lam) * x' = x.  So the solutions of
    lam * x = 1 are exactly the two-sided inverse, when there is one, and
    solving x * lam = 1 as well would only double the rows.  The product is
    the sandwich mult·(A (x) X)·(lam (x) D)·Delta, its rows assembled by
    constraint_rows as solve_map_space assembles its own.
    """
    f = d.field
    if d.base.dim != 1:
        raise UsageError("convolution inverse over a nontrivial base needs the "
                         "unit map L -> A")
    addim, ddim = alg.dim, d.dim
    unit = flatten_matrix(Matrix.from_cols(f, addim, [list(alg.unit)]).mul(d.counit))
    terms = sandwich_terms(alg.mult_eval(),
                           d.cc.induced(None, [(0, lam)], at=d.coproduct), addim, 1)
    sol = solve_linear(Matrix.from_rows(f, constraint_rows(ddim, addim, terms, f)), unit)
    if sol is None:
        return None
    return unflatten(f, addim, ddim, sol)


# ---------------------------------------------------------------------------
# collapse onto the comodule context over the trivial outer coring


# what differs, for each part morphism_failure names other than an action
_COINCIDENCE_FAILURES = {
    "first algebra": "endomorphism-valued multiplication differs",
    "second algebra": "dual-ring-valued multiplication differs",
    "first connecting map": "first connecting maps differ",
    "second connecting map": "second connecting maps differ"}


def remark_k_coincidence(ext_ctx):
    """Comparison of the extension context with its comodule context when
    the outer coring is the ground field.

    The canonical identifications send a bilinear map to its value at 1, a
    bicolinear endomorphism to its counit shadow, and the intertwining
    bimodule to the comodule-context bimodule by switching arguments.  They
    must be bijective and form a morphism of contexts (morphism_failure):
    all multiplication tensors, action matrices and connecting maps agree
    exactly after transport.  Returns Verdict("coincides"), or raises
    AxiomError naming what differs.
    """
    ext = ext_ctx.ext
    if ext.outer.dim != 1 or ext.outer.base.dim != 1:
        raise UsageError("coincidence check requires the trivial outer coring")
    f = ext.field
    sigma = ext_ctx.sigma
    cm = ext_ctx.cm
    t_alg = cm.end.algebra
    dual = cm.dual
    phi_v = Matrix.from_cols(f, t_alg.dim, [v.col(0) for v in ext_ctx.v_basis])
    phi_p = Matrix.from_cols(f, sigma.dim, [p.col(0) for p in ext_ctx.p_basis])
    phi_u = dual.space.coords_matrix(
        (ext.inner.counit.mul(u) for u in ext_ctx.u_basis),
        "coincidence: a bicolinear endomorphism has no dual ring shadow")
    phi_q = ext_ctx.embedding
    for phi, n1, n2, label in ((phi_v, t_alg.dim, len(ext_ctx.v_basis), "algebra 1"),
                               (phi_u, dual.dim, len(ext_ctx.u_basis), "algebra 2"),
                               (phi_p, sigma.dim, len(ext_ctx.p_basis), "comodule"),
                               (phi_q, cm.q.dim, ext_ctx.qt.dim, "bimodule")):
        if n1 != n2 or rank(phi) != n1:
            raise AxiomError("coincidence: the %s identification is not bijective"
                             % label)
    part = morphism_failure(ext_ctx.context, cm.context, phi_v, phi_u, phi_p, phi_q)
    if part is not None:
        raise AxiomError("coincidence: %s" % _COINCIDENCE_FAILURES.get(
            part, part + " formula differs"))
    return Verdict("coincides")

