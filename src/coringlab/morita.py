"""Morita contexts attached to a comodule: the colinear-endomorphism context,
its module-theoretic companion, and the comparison morphism between them.

Both contexts connect End-type algebras with the left dual ring of the
coring through the comodule and a hom-type bimodule; connecting maps are
realized as matrices on balanced-tensor quotients and all bilinearity and
mixed-associativity identities are verified exactly.  Every corner space is
one hom_space solve; for the connecting bimodule Q its defining relation is
written as operator terms, one identity per basis element of the coring.
"""

from __future__ import annotations

from .algmod import (BalancedTensor, FBimodule, endo_algebra, fgp_check,
                     hom_space, non_multiplicative_at, sandwich_terms)
from .coring import DualRing, EndAlgebra, dual_action
from .exactla import (AxiomError, Matrix, UsageError, rank, side_by_side,
                      solve_linear, unit_vec, vec_scale, zero_vec)


class MoritaContext:
    """Two algebras, two bimodules and two balanced connecting maps.

    conn1 : [bim21 (x)_{alg1} bim12] -> alg2
    conn2 : [bim12 (x)_{alg2} bim21] -> alg1
    """

    def __init__(self, alg1, alg2, bim12, bim21, conn1, conn2, tens21, tens12,
                 name="context"):
        self.alg1 = alg1
        self.alg2 = alg2
        self.bim12 = bim12
        self.bim21 = bim21
        self.conn1 = conn1
        self.conn2 = conn2
        self.tens21 = tens21
        self.tens12 = tens12
        self.name = name
        self.field = alg1.field

    def validate(self):
        self.bim12.validate()
        self.bim21.validate()
        # conn1 is alg2-alg2 bilinear on [bim21 (x) bim12]
        for i in range(self.alg2.dim):
            if self.conn1.mul(self.tens21.left_act[i]) != self.alg2.lmul(i).mul(self.conn1):
                raise AxiomError("%s: first connecting map not left %s-linear"
                                 % (self.name, self.alg2.name))
            if self.conn1.mul(self.tens21.right_act[i]) != self.alg2.rmul(i).mul(self.conn1):
                raise AxiomError("%s: first connecting map not right %s-linear"
                                 % (self.name, self.alg2.name))
        for i in range(self.alg1.dim):
            if self.conn2.mul(self.tens12.left_act[i]) != self.alg1.lmul(i).mul(self.conn2):
                raise AxiomError("%s: second connecting map not left %s-linear"
                                 % (self.name, self.alg1.name))
            if self.conn2.mul(self.tens12.right_act[i]) != self.alg1.rmul(i).mul(self.conn2):
                raise AxiomError("%s: second connecting map not right %s-linear"
                                 % (self.name, self.alg1.name))
        self._mixed_associativity()
        return True

    def _mixed_associativity(self):
        f = self.field
        d12, d21 = self.bim12.dim, self.bim21.dim
        # conn2(p (x) q)·p' = p·conn1(q (x) p') for basis p, q, p'
        for p in range(d12):
            ep = unit_vec(f, d12, p)
            for q in range(d21):
                eq = unit_vec(f, d21, q)
                t = self.conn2.mul_vec(self.tens12.pure_tensor([ep, eq]))
                for pp in range(d12):
                    epp = unit_vec(f, d12, pp)
                    lhs = self.bim12.left_act_vec(t).mul_vec(epp)
                    s = self.conn1.mul_vec(self.tens21.pure_tensor([eq, epp]))
                    rhs = self.bim12.right_act_vec(s).mul_vec(ep)
                    if lhs != rhs:
                        raise AxiomError("%s: mixed associativity fails (module side)"
                                         % self.name)
        # conn1(q (x) p)·q' = q·conn2(p (x) q')
        for q in range(d21):
            eq = unit_vec(f, d21, q)
            for p in range(d12):
                ep = unit_vec(f, d12, p)
                s = self.conn1.mul_vec(self.tens21.pure_tensor([eq, ep]))
                for qq in range(d21):
                    eqq = unit_vec(f, d21, qq)
                    lhs = self.bim21.left_act_vec(s).mul_vec(eqq)
                    t = self.conn2.mul_vec(self.tens12.pure_tensor([ep, eqq]))
                    rhs = self.bim21.right_act_vec(t).mul_vec(eq)
                    if lhs != rhs:
                        raise AxiomError("%s: mixed associativity fails (dual side)"
                                         % self.name)


def connecting_surjective(ctx, which):
    """Decide surjectivity of a connecting map by rank; extract unit witnesses.

    Returns (verdict, witnesses) where witnesses is a list of element pairs
    whose images under the connecting map sum to the unit of the target
    algebra, or None when not surjective.
    """
    if which == 1:
        conn, tens, target = ctx.conn1, ctx.tens21, ctx.alg2
    elif which == 2:
        conn, tens, target = ctx.conn2, ctx.tens12, ctx.alg1
    else:
        raise UsageError("which must be 1 or 2")
    if rank(conn) != target.dim:
        return False, None
    z = solve_linear(conn, list(target.unit))
    if z is None:
        return False, None
    f = ctx.field
    merged = {}
    for (multi, coeff) in tens.lift_pairs(z):
        i, j = multi
        if i not in merged:
            merged[i] = zero_vec(f, tens.dims[1])
        merged[i][j] = f.add(merged[i][j], coeff)
    witnesses = [(unit_vec(f, tens.dims[0], i), vec) for i, vec in merged.items()]
    return True, witnesses


def strictness(ctx):
    """Both connecting maps surjective; bijectivity is verified directly."""
    s1, w1 = connecting_surjective(ctx, 1)
    s2, w2 = connecting_surjective(ctx, 2)
    if not (s1 and s2):
        return {"strict": False, "surjective1": s1, "surjective2": s2}
    bij1 = rank(ctx.conn1) == ctx.alg2.dim == ctx.tens21.dim
    bij2 = rank(ctx.conn2) == ctx.alg1.dim == ctx.tens12.dim
    if not (bij1 and bij2):
        raise AxiomError("%s: surjective connecting maps failed the bijectivity "
                         "cross-check" % ctx.name)
    return {"strict": True, "surjective1": True, "surjective2": True,
            "witness1": w1, "witness2": w2}


# ---------------------------------------------------------------------------
# the comodule context


class SigmaDual:
    """Hom_A(Sigma, A) as an (A, L)-bimodule with canonical basis."""

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
        self.module.validate()

    @property
    def dim(self):
        return self.space.dim

    def coords(self, mat):
        return self.space.coords(mat)

    def pairing(self, m, vec, jt):
        """The map Sigma -> M, y -> v^[0]·jt(v^[1])(y), at the element v = vec
        of the comodule m, for jt: C -> Sigma* in Sigma*-coordinates."""
        f = self.sigma.field
        out = Matrix.zero(f, m.dim, self.sigma.dim)
        for ((x, ck), w) in m.mc.lift_pairs(m.coaction.mul_vec(vec)):
            xi = self.space.element(vec_scale(f, w, jt.col(ck)))
            act_x = Matrix.from_cols(f, m.dim, [act.col(x) for act in m.carrier.right_act])
            out = out.add(act_x.mul(xi))
        return out


class QModule:
    """The connecting bimodule of the comodule context.

    Elements are right A-linear maps Sigma -> *C whose evaluations intertwine
    the coaction with the coproduct; they form a (*C, T)-bimodule.  The
    switched-argument isomorph (maps C -> Sigma*) is produced alongside.
    """

    def __init__(self, sigma, dual=None, end=None):
        self.sigma = sigma
        c = sigma.coring
        self.dual = dual or DualRing(c, side="left")
        self.end = end or EndAlgebra(sigma)
        field = sigma.field
        self.field = field
        # the defining relation q(x^[0])(c_k)·x^[1] = c_k^(1)·q(x)(c_k^(2)) is
        # one operator identity per basis element c_k of C:
        # P_k·(X (x) C)·rho = U_k·X, where P_k sends f (x) c to f(c_k)·c and
        # column b of U_k is c_k^(1)·f_b(c_k^(2))
        rho = sigma.mc.sect().mul(sigma.coaction)
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
        """Independent pointwise re-check of the defining relation."""
        sigma, c = self.sigma, self.sigma.coring
        field = self.field
        for q in self.basis:
            for j in range(sigma.dim):
                for k in range(c.dim):
                    lhs = zero_vec(field, c.dim)
                    for ((m, cp), w) in sigma.mc.lift_pairs(sigma.coaction.col(j)):
                        fvec = self.dual.element_eval(q.col(m)).col(k)
                        lhs = [field.add(u, v) for u, v in zip(
                            lhs, c.carrier.left_act_vec(vec_scale(field, w, fvec)).mul_vec(
                                unit_vec(field, c.dim, cp)))]
                    rhs = zero_vec(field, c.dim)
                    for ((c1, c2), w) in c.cc.lift_pairs(c.coproduct.col(k)):
                        fvec = self.dual.element_eval(q.col(j)).col(c2)
                        rhs = [field.add(u, v) for u, v in zip(
                            rhs, c.carrier.right_act_vec(vec_scale(field, w, fvec)).mul_vec(
                                unit_vec(field, c.dim, c1)))]
                    if lhs != rhs:
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

    def coords(self, mat):
        return self.space.coords(mat)

    def element(self, coords):
        return self.space.element(coords)


def compute_Q(sigma, dual=None, end=None):
    return QModule(sigma, dual=dual, end=end)


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
    field = sigma.field
    sdim = sigma.dim
    q_basis = q_space.basis
    bim12 = FBimodule(t_alg, dual.algebra, sdim, list(t_space.basis),
                      dualact_mats, name=sigma.name)
    bim12.validate()
    tens21 = BalancedTensor([bim21, bim12], [t_alg], name="Q(x)Sigma")
    tens12 = BalancedTensor([bim12, bim21], [dual.algebra], name="Sigma(x)Q")
    # conn1: q (x) x -> q(x)
    cols = []
    for q in q_basis:
        for j in range(sdim):
            cols.append(q.col(j))
    conn1 = tens21.descend_map(Matrix.from_cols(field, dual.dim, cols))
    if conn1 is None:
        raise AxiomError("%s: evaluation map is not balanced" % name)
    # conn2: x (x) q -> (y -> x·q(y)); column y of x·q is acts_at[x]·q(y)
    acts_at = [Matrix.from_cols(field, sdim, [act.col(j) for act in dualact_mats])
               for j in range(sdim)]
    conn2 = tens12.descend_map(t_space.coords_matrix(
        (acts_at[j].mul(q) for j in range(sdim) for q in q_basis),
        "%s: second connecting map leaves the endomorphism algebra" % name))
    if conn2 is None:
        raise AxiomError("%s: second connecting map is not balanced" % name)
    ctx = MoritaContext(t_alg, dual.algebra, bim12, bim21, conn1, conn2,
                        tens21, tens12, name=name)
    ctx.validate()
    return ctx


class ComoduleContext:
    """The context built from colinear endomorphisms and the Q bimodule."""

    def __init__(self, sigma, dual=None):
        self.sigma = sigma
        self.dual = dual or DualRing(sigma.coring, side="left")
        self.end = EndAlgebra(sigma)
        _, dmod = dual_action(sigma, self.dual)
        self.dualact_mats = dmod.right_act
        self.q = QModule(sigma, dual=self.dual, end=self.end)
        self.context = _eval_context(self.end.algebra, self.end.space, self.dual,
                                     self.dualact_mats, self.q.space, self.q.module,
                                     sigma, name="comodule context(%s)" % sigma.name)
        # (sample modules, result) of the last galois.tensor_fullyfaithful_check
        # that returned, so the checks of one command share its run
        self.fullyfaithful = None


class ModuleContext:
    """The module-theoretic context over the dual ring, given the dual ring
    and the matrices of its right action on Sigma."""

    def __init__(self, sigma, dual, dualact_mats):
        self.sigma = sigma
        self.dual = dual
        self.dualact_mats = dualact_mats
        field = sigma.field
        plain = FBimodule(_trivial_left(sigma), dual.algebra, sigma.dim,
                          [Matrix.identity(field, sigma.dim)], dualact_mats,
                          name=sigma.name)
        self.end_space = hom_space(plain, plain, right_linear=True)
        self.end_maps = self.end_space.basis
        self.end_alg = endo_algebra(self.end_space, name="End_*%s(%s)"
                                    % (sigma.coring.name, sigma.name))
        dual_reg = FBimodule(_trivial_left(sigma), dual.algebra, dual.dim,
                             [Matrix.identity(field, dual.dim)],
                             [dual.algebra.rmul(i) for i in range(dual.dim)],
                             name=dual.algebra.name)
        self.homs = hom_space(plain, dual_reg, right_linear=True)
        self.hom_maps = self.homs.basis
        name = "module context(%s)" % sigma.name
        bim21 = _hom_bimodule(self.homs, dual, self.end_alg, self.end_maps, "Q",
                              "%s: dual action leaves the hom basis" % name,
                              "%s: endomorphism action leaves the hom basis" % name)
        self.context = _eval_context(self.end_alg, self.end_space, dual,
                                     dualact_mats, self.homs, bim21, sigma, name)


def _trivial_left(sigma):
    from .algmod import trivial_algebra
    return trivial_algebra(sigma.field)


def context_M(sigma, dual=None):
    return ComoduleContext(sigma, dual=dual)


def context_N(sigma, dual=None):
    dual, dmod = dual_action(sigma, dual)
    return ModuleContext(sigma, dual, dmod.right_act)


def morphism_M_to_N(sigma, cm=None, cn=None):
    """The inclusion morphism between the two contexts, with its verdict.

    Returns a dict with the four corner maps, commutation confirmation, the
    projectivity witness for the coring, and verdict 'isomorphism' exactly
    when the coring is f.g. projective as a left module over its base (all
    four corner maps are then verified bijective).
    """
    cm = cm or context_M(sigma)
    cn = cn or ModuleContext(sigma, cm.dual, cm.dualact_mats)
    field = sigma.field
    # corner inclusions
    iota_t = cn.end_space.coords_matrix(cm.end.basis_maps, "a colinear endomorphism "
                                        "is not linear over the dual ring")
    iota_q = cn.homs.coords_matrix(cm.q.basis, "a Q element is not linear over the "
                                   "dual ring")
    # the inclusions respect multiplication and the connecting maps
    mctx, nctx = cm.context, cn.context
    if non_multiplicative_at(mctx.alg1, nctx.alg1, iota_t) is not None:
        raise AxiomError("corner map is not an algebra map")
    sdim = sigma.dim
    conn1_m_amb = mctx.conn1.mul(mctx.tens21.proj())
    conn1_n_amb = nctx.conn1.mul(nctx.tens21.proj())
    iq_kron = iota_q.kron(Matrix.identity(field, sdim))
    if conn1_n_amb.mul(iq_kron) != conn1_m_amb:
        raise AxiomError("first connecting maps do not commute with the inclusions")
    conn2_m_amb = mctx.conn2.mul(mctx.tens12.proj())
    conn2_n_amb = nctx.conn2.mul(nctx.tens12.proj())
    si_kron = Matrix.identity(field, sdim).kron(iota_q)
    if conn2_n_amb.mul(si_kron) != iota_t.mul(conn2_m_amb):
        raise AxiomError("second connecting maps do not commute with the inclusions")
    witness = fgp_check(sigma.coring.carrier, "left", sigma.coring.base)
    verdict = "morphism"
    if witness is not None:
        ok_t = iota_t.rows == iota_t.cols and rank(iota_t) == iota_t.rows
        ok_q = iota_q.rows == iota_q.cols and rank(iota_q) == iota_q.rows
        if not (ok_t and ok_q):
            raise AxiomError("coring is f.g. projective but the context morphism "
                             "is not bijective")
        verdict = "isomorphism"
    return {"verdict": verdict, "iota_end": iota_t, "iota_q": iota_q,
            "coring_fgp": witness is not None}
