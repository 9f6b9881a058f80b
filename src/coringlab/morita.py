"""Morita contexts attached to a comodule: the colinear-endomorphism context,
its module-theoretic companion, and the comparison morphism between them.

Both contexts connect End-type algebras with the left dual ring of the
coring through the comodule and a hom-type bimodule; connecting maps are
given on pairs, descended once to matrices on balanced-tensor quotients,
and all bilinearity and mixed-associativity identities are verified
exactly.  Every corner space is one hom_space solve; for the connecting
bimodule Q its defining relation is written as operator terms, one identity
per basis element of the coring.

Each context is built one way and validated once, when built.  The comodule
context (context_M) holds the comodule, its endomorphism algebra, the dual
ring, Sigma* and Q, and keeps the facts galois decides about it (see
ComoduleContext); the module context and the extension context are built
from it.  A MoritaContext decides each of its connecting maps (connecting)
and its strictness (strict) once, and every morphism of contexts is checked
by morphism_failure.
"""

from __future__ import annotations

from functools import cached_property

from .algmod import (BalancedTensor, FBimodule, Verdict, endo_algebra, fgp_check,
                     hom_space, non_multiplicative_at, sandwich_terms, vouch)
from .coring import DualRing, EndAlgebra, dual_action
from .exactla import (AxiomError, Matrix, UsageError, rank, side_by_side,
                      solve_linear, unflatten, unit_vec)


class MoritaContext:
    """Two algebras, two bimodules and two balanced connecting maps.

    conn1 : [bim21 (x)_{alg1} bim12] -> alg2
    conn2 : [bim12 (x)_{alg2} bim21] -> alg1

    The maps are given on pairs, as the paper gives them: conn1_amb and
    conn2_amb are maps on the ambient pair bases, kept as conn_amb.  Each is
    descended once to its quotient form (conn1, conn2), and a map that does
    not vanish on the balancing relations raises AxiomError.
    """

    def __init__(self, alg1, alg2, bim12, bim21, conn1_amb, conn2_amb, tens21, tens12,
                 name="context"):
        self.alg1 = alg1
        self.alg2 = alg2
        self.bim12 = bim12
        self.bim21 = bim21
        self.tens21 = tens21
        self.tens12 = tens12
        self.name = name
        self.field = alg1.field
        self.conn_amb = (conn1_amb, conn2_amb)
        self.conn1 = tens21.descend_map(conn1_amb)
        self.conn2 = tens12.descend_map(conn2_amb)
        for which, conn in (("first", self.conn1), ("second", self.conn2)):
            if conn is None:
                raise AxiomError("%s: %s connecting map is not balanced" % (name, which))
        self._connecting = {}

    def validate(self):
        self.bim12.validate()
        self.bim21.validate()
        # conn1 is alg2-alg2 bilinear on [bim21 (x) bim12], conn2 alg1-alg1:
        # at the first basis element where either side fails, the left one
        # is named first
        for which, conn, tens, alg in (("first", self.conn1, self.tens21, self.alg2),
                                       ("second", self.conn2, self.tens12, self.alg1)):
            def failing_side(i):
                if conn.mul(tens.left_act[i]) != alg.lmul(i).mul(conn):
                    return "left"
                if conn.mul(tens.right_act[i]) != alg.rmul(i).mul(conn):
                    return "right"
                return None

            i = alg.first_failing(lambda i: failing_side(i) is None,
                                  tens.left_alg is alg and tens.right_alg is alg and
                                  alg.generators_decide(*tens.factors))
            if i is not None:
                raise AxiomError("%s: %s connecting map not %s %s-linear"
                                 % (self.name, which, failing_side(i), alg.name))
        self._mixed_associativity()
        return True

    def _mixed_associativity(self):
        conn1_amb, conn2_amb = self.conn_amb
        # conn2(p (x) q)·p' = p·conn1(q (x) p')
        if not _associative(self.bim12, self.bim21.dim, conn2_amb, conn1_amb):
            raise AxiomError("%s: mixed associativity fails (module side)" % self.name)
        # conn1(q (x) p)·q' = q·conn2(p (x) q')
        if not _associative(self.bim21, self.bim12.dim, conn1_amb, conn2_amb):
            raise AxiomError("%s: mixed associativity fails (dual side)" % self.name)

    def connecting(self, which):
        """(surjective, witnesses) for the first or second connecting map,
        decided on the first call and kept.

        validate has checked that the map is bilinear, so its image is a
        two-sided ideal of the target algebra, which is everything exactly
        when it holds the unit: one solve of conn·z = 1 decides.  The
        witnesses are element pairs whose images under the map sum to the
        unit, or None when the map is not surjective: z lifted to the
        ambient pair basis (tens.induced with no slot map), read as
        dims[0] blocks of length dims[1], one pair (e_i, block i) for each
        nonzero block, i ascending.
        """
        if which == 1:
            conn, tens, target = self.conn1, self.tens21, self.alg2
        elif which == 2:
            conn, tens, target = self.conn2, self.tens12, self.alg1
        else:
            raise UsageError("which must be 1 or 2")
        if which not in self._connecting:
            z = solve_linear(conn, list(target.unit))
            witnesses = None
            if z is not None:
                f = self.field
                lift = tens.induced(None, [], at=Matrix.column(f, z)).col(0)
                n = tens.dims[1]
                witnesses = [(unit_vec(f, tens.dims[0], i), lift[i * n:(i + 1) * n])
                             for i in range(tens.dims[0]) if any(lift[i * n:(i + 1) * n])]
            self._connecting[which] = (z is not None, witnesses)
        return self._connecting[which]

    @cached_property
    def strict(self):
        """strictness(self), decided on first use and kept (unless it raises)."""
        return strictness(self)


def _associative(x, ydim, left_amb, right_amb):
    """Whether left(u (x) v)·u' = u·right(v (x) u') for all basis elements
    u, u' of the bimodule x and v of the other one (dimension ydim), where
    left (on x (x) y, columns u·ydim + v) lands in the algebra acting on x
    from the left and right (on y (x) x) in the one acting from the right.

    Both sides are compared as maps of u', one operator per pair (u, v):
    the left action of left(u (x) v), and the right orbit map of u applied
    to the block of right at v."""
    f = x.field
    dx = x.dim
    blocks = [Matrix(f, right_amb.rows, dx, [row[v * dx:(v + 1) * dx]
                                             for row in right_amb.data])
              for v in range(ydim)]
    for u, orbit in enumerate(x.right_orbits()):
        for v in range(ydim):
            if x.left_act_vec(left_amb.col(u * ydim + v)) != orbit.mul(blocks[v]):
                return False
    return True


def strictness(ctx):
    """Both connecting maps surjective; bijectivity is verified directly.
    Read it as ctx.strict, decided once per context."""
    if not (ctx.connecting(1)[0] and ctx.connecting(2)[0]):
        return False
    bij1 = rank(ctx.conn1) == ctx.alg2.dim == ctx.tens21.dim
    bij2 = rank(ctx.conn2) == ctx.alg1.dim == ctx.tens12.dim
    if not (bij1 and bij2):
        raise AxiomError("%s: surjective connecting maps failed the bijectivity "
                         "cross-check" % ctx.name)
    return True


def morphism_failure(src, dst, phi1, phi2, phi12, phi21):
    """The first part at which the corner maps phi1: src.alg1 -> dst.alg1,
    phi2: src.alg2 -> dst.alg2, phi12: src.bim12 -> dst.bim12 and
    phi21: src.bim21 -> dst.bim21 fail to form a morphism of Morita
    contexts, or None.

    The parts, in the order checked: "first algebra" and "second algebra"
    (multiplicativity); the four actions, basis element by basis element,
    alg1 on bim12 ("first action") and on bim21 ("fourth action"), then alg2
    on bim12 ("second action") and on bim21 ("third action"); "first
    connecting map" and "second connecting map", on the ambient pair bases.
    """
    if non_multiplicative_at(src.alg1, dst.alg1, phi1) is not None:
        return "first algebra"
    if non_multiplicative_at(src.alg2, dst.alg2, phi2) is not None:
        return "second algebra"
    for phi, alg, parts in (
            (phi1, src.alg1, (("first", src.bim12, dst.bim12, phi12, True),
                              ("fourth", src.bim21, dst.bim21, phi21, False))),
            (phi2, src.alg2, (("second", src.bim12, dst.bim12, phi12, False),
                              ("third", src.bim21, dst.bim21, phi21, True)))):
        for i in range(alg.dim):
            for label, s, d, phi_m, left in parts:
                if left:
                    moved, acted = d.left_act_vec(phi.col(i)), s.left_act[i]
                else:
                    moved, acted = d.right_act_vec(phi.col(i)), s.right_act[i]
                if moved.mul(phi_m) != phi_m.mul(acted):
                    return label + " action"
    conn1_src, conn2_src = src.conn_amb
    conn1_dst, conn2_dst = dst.conn_amb
    if phi2.mul(conn1_src) != conn1_dst.mul(phi21.kron(phi12)):
        return "first connecting map"
    if phi1.mul(conn2_src) != conn2_dst.mul(phi12.kron(phi21)):
        return "second connecting map"
    return None


# ---------------------------------------------------------------------------
# the comodule context


class SigmaDual:
    """Hom_A(Sigma, A) as an (A, L)-bimodule with canonical basis.

    The bimodule is vouched for when A and Sigma's carrier are valid (and
    checked otherwise): A acts by left multiplication and L by precomposing
    with its left action on Sigma, and the two commute."""

    def __init__(self, sigma):
        self.sigma = sigma
        a = sigma.coring.base
        self.space = hom_space(sigma.carrier, FBimodule.regular(a), right_linear=True)
        self.basis = self.space.basis
        lalg = sigma.carrier.left_alg
        escape = "dual module: action escapes the hom space"
        left_act = [self.space.coords_matrix((a.lmul(i).mul(m) for m in self.basis), escape)
                    for i in range(a.dim)]
        right_act = [self.space.coords_matrix(
            (m.mul(sigma.carrier.left_act[i]) for m in self.basis), escape)
            for i in range(lalg.dim)]
        self.module = FBimodule(a, lalg, self.dim, left_act, right_act,
                                name=sigma.name + "*")
        vouch(self.module, a, sigma.carrier, check=self.module.validate)

    @property
    def dim(self):
        return self.space.dim

    def coords(self, mat):
        return self.space.coords(mat)

    def pairing(self, m, at, jt):
        """The maps Sigma -> M, y -> v^[0]·jt(v^[1])(y), one at each column v
        of at, an element of the comodule m, for jt: C -> Sigma* in
        Sigma*-coordinates: jt(c) as an A x Sigma block (the flattened
        basis of Sigma* times jt) on the C slot of the lifted coaction, then
        M's right action on the (M, A) slots."""
        f, n = self.sigma.field, self.sigma.dim
        adim = self.sigma.coring.base.dim
        blocks = self.space.span.basis_matrix_cols().mul(jt)
        lifted = m.mc.induced(None, [(1, blocks)], at=m.coaction.mul(at))
        right_eval = m.carrier.right_eval()
        return [right_eval.mul(unflatten(f, m.dim * adim, n, lifted.col(v)))
                for v in range(at.cols)]


class QModule:
    """The connecting bimodule of the comodule context.

    Elements are right A-linear maps Sigma -> *C whose evaluations intertwine
    the coaction with the coproduct; they form a (*C, T)-bimodule.  The
    switched-argument isomorph (maps C -> Sigma*) is produced alongside.
    """

    def __init__(self, sigma, dual, end):
        self.sigma = sigma
        c = sigma.coring
        self.dual = dual
        self.end = end
        field = sigma.field
        self.field = field
        # the defining relation q(x^[0])(c_k)·x^[1] = c_k^(1)·q(x)(c_k^(2)) is
        # one operator identity per basis element c_k of C:
        # P_k·(X (x) C)·rho = U_k·X, where P_k sends f (x) c to f(c_k)·c and
        # column b of U_k is c_k^(1)·f_b(c_k^(2))
        rho = sigma.coaction_amb
        ident = Matrix.identity(field, sigma.dim)
        relations = []
        for k in range(c.dim):
            p_k = side_by_side(field, c.dim, (c.carrier.left_act_vec(f.col(k))
                                              for f in self.dual.eval_mats))
            u_k = Matrix.from_cols(field, c.dim, [h.col(k) for h in self.dual.hits])
            relations.append(sandwich_terms(p_k, rho, 1, c.dim) + [(u_k, ident, -1)])
        self.space = hom_space(sigma.carrier, self.dual.module, right_linear=True,
                               extra_constraints=relations)
        self.basis = self.space.basis
        self._verify_pointwise()
        self.module = _hom_bimodule(self.space, self.dual, self.end.algebra,
                                    self.end.basis_maps, "Q(%s)" % sigma.name,
                                    "Q: left dual action leaves the solution space",
                                    "Q: right endomorphism action leaves the "
                                    "solution space")
        self.sigma_dual = SigmaDual(sigma)
        self.switched = [self._switch(q) for q in self.basis]

    # -- element helpers

    def _verify_pointwise(self):
        """Re-check of the defining relation q(x^[0])(c)·x^[1] =
        c^(1)·q(x)(c^(2)) at every basis pair (x_j, c_k), for every basis
        element q, naming the first failing pair in (j, k) order.  Each side
        is one induced map for all pairs: the coaction with x -> (q(x)(c_k))_k
        on the Sigma slot, then C's left_eval; the coproduct with
        c -> (q(x_j)(c))_j on its second slot, then C's right_eval.  It stays
        independent of the solve in __init__: it evaluates q on elements and
        reads none of the solve's terms (P_k, U_k and the hits behind them,
        sandwich_terms, the ambient coaction)."""
        sigma, c = self.sigma, self.sigma.coring
        f, n, cdim, adim = self.field, sigma.dim, c.dim, c.base.dim
        left_eval, right_eval = c.carrier.left_eval(), c.carrier.right_eval()
        block = adim * cdim
        for q in self.basis:
            evals = [self.dual.element_eval(q.col(m)) for m in range(n)]
            # x_m -> q(x_m)(c_k) for every k, rows (k, a)
            at_c = Matrix(f, cdim * adim, n, [[ev.data[a][k] for ev in evals]
                                              for k in range(cdim) for a in range(adim)])
            lhs = sigma.mc.induced(None, [(0, at_c)], at=sigma.coaction)
            lhs = [left_eval.mul(Matrix(f, block, n, lhs.data[k * block:(k + 1) * block]))
                   for k in range(cdim)]
            # c -> q(x_j)(c) for every j, rows (a, j)
            of_x = Matrix(f, adim * n, cdim, [ev.row(a) for a in range(adim) for ev in evals])
            rhs = c.cc.induced(None, [(1, of_x)], at=c.coproduct)
            rhs = [right_eval.mul(unflatten(f, block, n, rhs.col(k))) for k in range(cdim)]
            if lhs != rhs:
                j, k = next((j, k) for j in range(n) for k in range(cdim)
                            if lhs[k].col(j) != rhs[k].col(j))
                raise AxiomError("Q basis element fails its defining relation "
                                 "at basis pair (%d,%d)" % (j, k))

    def _switch(self, q):
        """The switched-argument element of Hom(C, Sigma*), in Sigma*-coords."""
        c = self.sigma.coring
        evals = [self.dual.element_eval(q.col(x)) for x in range(self.sigma.dim)]
        return self.sigma_dual.space.coords_matrix(
            (Matrix.from_cols(self.field, c.base.dim, [ev.col(k) for ev in evals])
             for k in range(c.dim)),
            "Q: switched element escapes Hom_A(Sigma, A)")

    @property
    def dim(self):
        return self.space.dim

    def element(self, coords):
        return self.space.element(coords)


def _hom_bimodule(space, dual, t_alg, t_basis, name, left_message, right_message):
    """The validated (*C, T)-bimodule on a space of maps Sigma -> *C: *C acts
    by left multiplication and T, spanned by t_basis, by composition."""
    left_act = [space.coords_matrix((dual.algebra.lmul(i).mul(q) for q in space.basis),
                                    left_message)
                for i in range(dual.dim)]
    right_act = [space.coords_matrix((q.mul(t) for q in space.basis), right_message)
                 for t in t_basis]
    mod = FBimodule(dual.algebra, t_alg, space.dim, left_act, right_act, name=name)
    mod.validate()
    return mod


def _eval_context(t_alg, t_space, dual, dualact_mats, q_space, bim21, sigma, name):
    """Context (T?, *C, Sigma, Q?) with evaluation connecting maps.

    Shared between the colinear context and the module-theoretic one; the
    caller supplies the endomorphism algebra and space, the hom-type space
    and its bimodule.
    """
    q_basis = q_space.basis
    bim12 = FBimodule(t_alg, dual.algebra, sigma.dim, list(t_space.basis),
                      dualact_mats, name=sigma.name)
    bim12.validate()
    tens21 = BalancedTensor([bim21, bim12], [t_alg], name="Q(x)Sigma")
    tens12 = BalancedTensor([bim12, bim21], [dual.algebra], name="Sigma(x)Q")
    # conn1: q (x) x -> q(x)
    conn1 = side_by_side(sigma.field, dual.dim, q_basis)
    # conn2: x (x) q -> (y -> x·q(y)), the right orbit map of x after q
    conn2 = t_space.coords_matrix(
        (orbit.mul(q) for orbit in bim12.right_orbits() for q in q_basis),
        "%s: second connecting map leaves the endomorphism algebra" % name)
    ctx = MoritaContext(t_alg, dual.algebra, bim12, bim21, conn1, conn2,
                        tens21, tens12, name=name)
    ctx.validate()
    return ctx


class ComoduleContext:
    """The context built from colinear endomorphisms and the Q bimodule.

    Holds the comodule, its endomorphism algebra, the left dual ring, the
    right action of the dual ring on the comodule and Q (with Sigma*); the
    module context and the extension context are built from it.  It keeps
    the facts galois decides on first use: Sigma's Galois verdict
    (sigma_galois), the adjunction unit (tensor_fullyfaithful_check) and the
    evaluation counit of each sample comodule (sample_counit)."""

    def __init__(self, sigma):
        self.sigma = sigma
        self.dual = DualRing(sigma.coring)
        self.end = EndAlgebra(sigma)
        _, dmod = dual_action(sigma, self.dual)
        self.dualact_mats = dmod.right_act
        self.q = QModule(sigma, self.dual, self.end)
        self.context = _eval_context(self.end.algebra, self.end.space, self.dual,
                                     self.dualact_mats, self.q.space, self.q.module,
                                     sigma, name="comodule context(%s)" % sigma.name)
        self.galois = None
        self.fullyfaithful = None
        self.counits = {}


class ModuleContext:
    """The module-theoretic context over the dual ring of a comodule
    context: the endomorphisms and the maps into the dual ring that are
    linear over it.  Sigma as a right *C-module is vouched for when Sigma
    and its coring are valid (coring.dual_action's argument), and *C over
    itself when *C is valid."""

    def __init__(self, cm):
        sigma, dual = cm.sigma, cm.dual
        plain = FBimodule.right_module(dual.algebra, sigma.dim, cm.dualact_mats,
                                       name=sigma.name)
        vouch(plain, sigma, sigma.coring)
        self.end_space = hom_space(plain, plain, right_linear=True)
        end_alg = endo_algebra(self.end_space, name="End_*%s(%s)"
                               % (sigma.coring.name, sigma.name))
        dual_reg = FBimodule.right_module(dual.algebra, dual.dim,
                                          [dual.algebra.rmul(i) for i in range(dual.dim)],
                                          name=dual.algebra.name)
        vouch(dual_reg, dual.algebra)
        self.homs = hom_space(plain, dual_reg, right_linear=True)
        name = "module context(%s)" % sigma.name
        bim21 = _hom_bimodule(self.homs, dual, end_alg, self.end_space.basis, "Q",
                              "%s: dual action leaves the hom basis" % name,
                              "%s: endomorphism action leaves the hom basis" % name)
        self.context = _eval_context(end_alg, self.end_space, dual, cm.dualact_mats,
                                     self.homs, bim21, sigma, name)


def context_M(sigma):
    return ComoduleContext(sigma)


def morphism_M_to_N(cm, cn):
    """The inclusion morphism from the comodule context cm to the module
    context cn built from it, checked to commute with both contexts.

    Returns Verdict("isomorphism") exactly when the coring is f.g.
    projective as a left module over its base (both corner inclusions are
    then verified bijective), else Verdict("morphism").
    """
    sigma = cm.sigma
    field = sigma.field
    # corner inclusions; the dual ring and the comodule are shared
    iota_t = cn.end_space.coords_matrix(cm.end.basis_maps, "a colinear endomorphism "
                                        "is not linear over the dual ring")
    iota_q = cn.homs.coords_matrix(cm.q.basis, "a Q element is not linear over the "
                                   "dual ring")
    part = morphism_failure(cm.context, cn.context, iota_t,
                            Matrix.identity(field, cm.dual.dim),
                            Matrix.identity(field, sigma.dim), iota_q)
    if part is not None:
        if part.endswith("algebra"):
            raise AxiomError("corner map is not an algebra map")
        raise AxiomError("%ss do not commute with the inclusions" % part)
    if fgp_check(sigma.coring.carrier, "left", sigma.coring.base) is None:
        return Verdict("morphism")
    ok_t = iota_t.rows == iota_t.cols and rank(iota_t) == iota_t.rows
    ok_q = iota_q.rows == iota_q.cols and rank(iota_q) == iota_q.rows
    if not (ok_t and ok_q):
        raise AxiomError("coring is f.g. projective but the context morphism "
                         "is not bijective")
    return Verdict("isomorphism")
