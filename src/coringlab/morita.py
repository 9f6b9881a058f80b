"""Morita contexts attached to a comodule: the colinear-endomorphism context,
its module-theoretic companion, and the comparison morphism between them.

Both contexts connect End-type algebras with the left dual ring of the
coring through the comodule and a hom-type bimodule; connecting maps are
realized as matrices on balanced-tensor quotients and all bilinearity and
mixed-associativity identities are verified exactly.
"""

from __future__ import annotations

from .algmod import (BalancedTensor, FBimodule, coords_in_basis, endo_algebra,
                     fgp_check, hom_space, zero_algebra)
from .coring import DualRing, EndAlgebra, dual_action
from .exactla import (AxiomError, Matrix, Subspace, UsageError, kernel, rank,
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
        f = self.field
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
        reg = FBimodule.regular(a)
        self.basis = [h.matrix for h in hom_space(sigma.carrier, reg, right_linear=True)]
        n = len(self.basis)
        field = sigma.field
        lalg = sigma.carrier.left_alg
        left_act = []
        for i in range(a.dim):
            left_act.append(self._coords_matrix([a.lmul(i).mul(m) for m in self.basis]))
        right_act = []
        for i in range(lalg.dim):
            right_act.append(self._coords_matrix(
                [m.mul(sigma.carrier.left_act[i]) for m in self.basis]))
        self.module = FBimodule(a, lalg, n, left_act, right_act,
                                name=sigma.name + "*")
        self.module.validate()

    def _coords_matrix(self, mats):
        cols = []
        for m in mats:
            c = coords_in_basis(self.basis, m)
            if c is None:
                raise AxiomError("dual module: action escapes the hom space")
            cols.append(c)
        return Matrix.from_cols(self.sigma.field, len(self.basis), cols)

    @property
    def dim(self):
        return len(self.basis)

    def element_matrix(self, coords):
        f = self.sigma.field
        out = Matrix.zero(f, self.sigma.coring.base.dim, self.sigma.dim)
        for c, m in zip(coords, self.basis):
            if c != f.zero:
                out = out.add(m.scale(c))
        return out

    def coords(self, mat):
        return coords_in_basis(self.basis, mat)


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
        sdim, ddim, cdim = sigma.dim, self.dual.dim, c.dim
        rows = []
        nunk = ddim * sdim  # X[b, m] row-major

        def idx(b, m):
            return b * sdim + m

        # right A-linearity: X·R^Sigma_a = R^{*C}_a·X
        for a_i in range(c.base.dim):
            rs = sigma.carrier.right_act[a_i]
            rd = self.dual.module.right_act[a_i]
            for b in range(ddim):
                for m in range(sdim):
                    row = zero_vec(field, nunk)
                    for mm in range(sdim):
                        if rs.data[mm][m] != field.zero:
                            row[idx(b, mm)] = field.add(row[idx(b, mm)], rs.data[mm][m])
                    for bb in range(ddim):
                        if rd.data[b][bb] != field.zero:
                            row[idx(bb, m)] = field.sub(row[idx(bb, m)], rd.data[b][bb])
                    rows.append(row)
        # defining relation: q(x^[0])(c)·x^[1] = c^(1)·q(x)(c^(2)) for basis x, c
        coact_lifts = [sigma.mc.lift_pairs(sigma.coaction.col(j)) for j in range(sdim)]
        cop_lifts = [c.cc.lift_pairs(c.coproduct.col(k)) for k in range(cdim)]
        for j in range(sdim):
            for k in range(cdim):
                coeff_rows = [zero_vec(field, nunk) for _ in range(cdim)]
                for ((m, cp), w) in coact_lifts[j]:
                    for b in range(ddim):
                        fa = self.dual.eval_mats[b].col(k)  # f_b(c_k) in A
                        col = c.carrier.left_act_vec(vec_scale(field, w, fa)).col(cp)
                        for r in range(cdim):
                            if col[r] != field.zero:
                                coeff_rows[r][idx(b, m)] = field.add(
                                    coeff_rows[r][idx(b, m)], col[r])
                for ((c1, c2), w) in cop_lifts[k]:
                    for b in range(ddim):
                        fa = self.dual.eval_mats[b].col(c2)
                        col = c.carrier.right_act_vec(vec_scale(field, w, fa)).col(c1)
                        for r in range(cdim):
                            if col[r] != field.zero:
                                coeff_rows[r][idx(b, j)] = field.sub(
                                    coeff_rows[r][idx(b, j)], col[r])
                rows.extend(coeff_rows)
        if rows:
            sol = kernel(Matrix.from_rows(field, rows))
        else:
            sol = Subspace.full(field, nunk)
        self.basis = [Matrix(field, ddim, sdim,
                             [list(v[i * sdim:(i + 1) * sdim]) for i in range(ddim)])
                      for v in sol.basis]
        self._verify_pointwise()
        self._install_actions()
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

    def _install_actions(self):
        field = self.field
        n = len(self.basis)
        left_act = []
        for i in range(self.dual.dim):
            lm = self.dual.algebra.lmul(i)
            mats = [lm.mul(q) for q in self.basis]
            left_act.append(self._coords_matrix(mats, "left dual action"))
        right_act = []
        for i in range(self.end.dim):
            t = self.end.basis_maps[i]
            mats = [q.mul(t) for q in self.basis]
            right_act.append(self._coords_matrix(mats, "right endomorphism action"))
        self.module = FBimodule(self.dual.algebra, self.end.algebra, n,
                                left_act, right_act,
                                name="Q(%s)" % self.sigma.name)
        self.module.validate()

    def _coords_matrix(self, mats, what):
        cols = []
        for m in mats:
            cod = coords_in_basis(self.basis, m)
            if cod is None:
                raise AxiomError("Q: %s leaves the solution space" % what)
            cols.append(cod)
        return Matrix.from_cols(self.field, len(self.basis), cols)

    def _switch(self, q):
        """The switched-argument element of Hom(C, Sigma*), in Sigma*-coords."""
        field = self.field
        c = self.sigma.coring
        cols = []
        for k in range(c.dim):
            mat = Matrix.zero(field, c.base.dim, self.sigma.dim)
            for x in range(self.sigma.dim):
                fvec = self.dual.element_eval(q.col(x)).col(k)
                for r in range(c.base.dim):
                    mat.data[r][x] = fvec[r]
            coords = self.sigma_dual.coords(mat)
            if coords is None:
                raise AxiomError("Q: switched element escapes Hom_A(Sigma, A)")
            cols.append(coords)
        return Matrix.from_cols(field, self.sigma_dual.dim, cols)

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, mat):
        return coords_in_basis(self.basis, mat)

    def element(self, coords):
        f = self.field
        out = Matrix.zero(f, self.dual.dim, self.sigma.dim)
        for c, m in zip(coords, self.basis):
            if c != f.zero:
                out = out.add(m.scale(c))
        return out


def compute_Q(sigma, dual=None, end=None):
    return QModule(sigma, dual=dual, end=end)


def _eval_context(t_alg, t_basis_maps, t_coords, dual, dualact_mats, q_basis,
                  sigma, name):
    """Context (T?, *C, Sigma, Q?) with evaluation connecting maps.

    Shared between the colinear context and the module-theoretic one; the
    caller supplies the endomorphism algebra and the hom-type basis.
    """
    field = sigma.field
    sdim = sigma.dim
    qdim = len(q_basis)
    bim12 = FBimodule(t_alg, dual.algebra, sdim, [m for m in t_basis_maps],
                      dualact_mats, name=sigma.name)
    bim12.validate()
    qleft = []
    for i in range(dual.dim):
        lm = dual.algebra.lmul(i)
        cols = []
        for q in q_basis:
            cod = coords_in_basis(q_basis, lm.mul(q))
            if cod is None:
                raise AxiomError("%s: dual action leaves the hom basis" % name)
            cols.append(cod)
        qleft.append(Matrix.from_cols(field, qdim, cols))
    qright = []
    for i in range(t_alg.dim):
        t = t_basis_maps[i]
        cols = []
        for q in q_basis:
            cod = coords_in_basis(q_basis, q.mul(t))
            if cod is None:
                raise AxiomError("%s: endomorphism action leaves the hom basis" % name)
            cols.append(cod)
        qright.append(Matrix.from_cols(field, qdim, cols))
    bim21 = FBimodule(dual.algebra, t_alg, qdim, qleft, qright, name="Q")
    bim21.validate()
    tens21 = BalancedTensor([bim21, bim12], [t_alg], name="Q(x)Sigma")
    tens12 = BalancedTensor([bim12, bim21], [dual.algebra], name="Sigma(x)Q")
    # conn1: q (x) x -> q(x)
    cols = []
    for b in range(qdim):
        for j in range(sdim):
            cols.append(q_basis[b].col(j))
    conn1 = tens21.descend_map(Matrix.from_cols(field, dual.dim, cols))
    if conn1 is None:
        raise AxiomError("%s: evaluation map is not balanced" % name)
    # conn2: x (x) q -> (y -> x·q(y))
    cols = []
    for j in range(sdim):
        for b in range(qdim):
            mat = Matrix.zero(field, sdim, sdim)
            for y in range(sdim):
                qy = q_basis[b].col(y)
                col = zero_vec(field, sdim)
                for bb in range(dual.dim):
                    if qy[bb] != field.zero:
                        dcol = dualact_mats[bb].col(j)
                        col = [field.add(u, field.mul(qy[bb], v))
                               for u, v in zip(col, dcol)]
                for r in range(sdim):
                    mat.data[r][y] = col[r]
            coords = t_coords(mat)
            if coords is None:
                raise AxiomError("%s: second connecting map leaves the "
                                 "endomorphism algebra" % name)
            cols.append(coords)
    conn2 = tens12.descend_map(Matrix.from_cols(field, t_alg.dim, cols))
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
        self.context = _eval_context(self.end.algebra, self.end.basis_maps,
                                     self.end.coords, self.dual,
                                     self.dualact_mats, self.q.basis, sigma,
                                     name="comodule context(%s)" % sigma.name)


class ModuleContext:
    """The module-theoretic context over the dual ring."""

    def __init__(self, sigma, dual=None):
        self.sigma = sigma
        self.dual = dual or DualRing(sigma.coring, side="left")
        field = sigma.field
        _, dmod = dual_action(sigma, self.dual)
        self.dualact_mats = dmod.right_act
        plain = FBimodule(_trivial_left(sigma), self.dual.algebra, sigma.dim,
                          [Matrix.identity(field, sigma.dim)], self.dualact_mats,
                          name=sigma.name)
        end_maps = [h.matrix for h in hom_space(plain, plain, right_linear=True)]
        if end_maps:
            self.end_alg = endo_algebra(end_maps, name="End_*%s(%s)"
                                        % (sigma.coring.name, sigma.name))
        else:
            self.end_alg = zero_algebra(field, name="End_*%s(%s)"
                                        % (sigma.coring.name, sigma.name))
        self.end_maps = end_maps
        dual_reg = FBimodule(_trivial_left(sigma), self.dual.algebra, self.dual.dim,
                             [Matrix.identity(field, self.dual.dim)],
                             [self.dual.algebra.rmul(i) for i in range(self.dual.dim)],
                             name=self.dual.algebra.name)
        self.hom_maps = [h.matrix for h in hom_space(plain, dual_reg, right_linear=True)]
        self.context = _eval_context(self.end_alg, end_maps,
                                     lambda m: coords_in_basis(end_maps, m),
                                     self.dual, self.dualact_mats, self.hom_maps,
                                     sigma, name="module context(%s)" % sigma.name)


def _trivial_left(sigma):
    from .algmod import trivial_algebra
    return trivial_algebra(sigma.field)


def context_M(sigma, dual=None):
    return ComoduleContext(sigma, dual=dual)


def context_N(sigma, dual=None):
    return ModuleContext(sigma, dual=dual)


def morphism_M_to_N(sigma, cm=None, cn=None):
    """The inclusion morphism between the two contexts, with its verdict.

    Returns a dict with the four corner maps, commutation confirmation, the
    projectivity witness for the coring, and verdict 'isomorphism' exactly
    when the coring is f.g. projective as a left module over its base (all
    four corner maps are then verified bijective).
    """
    cm = cm or context_M(sigma)
    cn = cn or context_N(sigma, dual=cm.dual)
    field = sigma.field
    # corner inclusions
    t_cols = []
    for t in cm.end.basis_maps:
        c = coords_in_basis(cn.end_maps, t)
        if c is None:
            raise AxiomError("a colinear endomorphism is not linear over "
                             "the dual ring")
        t_cols.append(c)
    iota_t = Matrix.from_cols(field, len(cn.end_maps), t_cols)
    q_cols = []
    for q in cm.q.basis:
        c = coords_in_basis(cn.hom_maps, q)
        if c is None:
            raise AxiomError("a Q element is not linear over the dual ring")
        q_cols.append(c)
    iota_q = Matrix.from_cols(field, len(cn.hom_maps), q_cols)
    # the inclusions respect multiplication and the connecting maps
    mctx, nctx = cm.context, cn.context
    for i in range(mctx.alg1.dim):
        for j in range(mctx.alg1.dim):
            lhs = iota_t.mul_vec(mctx.alg1.mul[i][j])
            rhs = nctx.alg1.multiply(iota_t.col(i), iota_t.col(j))
            if lhs != rhs:
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
