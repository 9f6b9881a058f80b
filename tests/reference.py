"""Dense reference forms the differential tests compare the library with.

The weak-entwining and partial-action corings are written out here as they
were first built: the carrier picked inside the ambient tensor by the pivots
of its canonical basis (``ret``, ``sel``), every structure map restricted
through dense Kronecker products, and the partial-action carrier assembled
component by component (``embed``).  Each returns the structures the
library's builder returns, in its quotient form.
"""

from coringlab.algmod import FBimodule
from coringlab.coring import Coring
from coringlab.exactla import Matrix, image, side_by_side, unit_vec, zero_vec


def _pick(sub):
    """The retraction onto a subspace's canonical basis: its entries at the
    pivots."""
    f, amb = sub.field, sub.ambient_dim
    return Matrix(f, sub.dim, amb, [unit_vec(f, amb, piv) for piv in sub.pivots])


def weak_entwining_coring(ent, lam_bar):
    """The image coring of a weak entwining over the trivial base: carrier
    actions, coproduct, counit, outer coaction and the j~ of lam_bar, with
    p(a (x) d) = a·psi(d (x) 1) formed densely and every map restricted by
    ret·map·inc."""
    f = ent.field
    a, d = ent.a, ent.d
    n, m = a.dim, d.dim
    ident_a, ident_d = Matrix.identity(f, n), Matrix.identity(f, m)
    chi = ent.psi.mul(ent.d_one)
    p_amb = side_by_side(f, n * m, (a.lmul(i).kron(ident_d).mul(chi) for i in range(n)))
    sub = image(p_amb)
    inc, ret = sub.basis_matrix_cols(), _pick(sub)
    left = [ret.mul(a.lmul(i).kron(ident_d)).mul(inc) for i in range(n)]
    right = [ret.mul(act).mul(inc) for act in ent.right_act]
    a_delta = ident_a.kron(d.coproduct_amb).mul(inc)
    counit = a.mult_eval().mul(ident_a.kron(ent._e_map())).mul(inc)
    carrier = FBimodule(a, a, sub.dim, left, right)
    c = Coring(a, carrier, ret.kron(ret.mul(chi)).mul(a_delta), counit)
    q_amb = Matrix.from_cols(f, n, [a.multiply(unit_vec(f, n, i), lam_bar.col(dd))
                                    for i in range(n) for dd in range(m)])
    return {"left": left, "right": right, "coproduct": c.coproduct, "counit": counit,
            "tau": ret.kron(ident_d).mul(a_delta), "jtilde": q_amb.mul(inc)}


def partial_action_coring(pa):
    """The coring of an idempotent partial action on the concatenated ideal
    components A·e_s: carrier actions, coproduct, counit, grouplike, outer
    coaction, whether it is the component shift, and the component
    dimensions."""
    f = pa.field
    a = pa.a
    n = len(pa.table)
    subs = [image(a.lmul_vec(e)) for e in pa.e]
    dims = [sub.dim for sub in subs]
    sel = [_pick(sub) for sub in subs]
    inc = [sub.basis_matrix_cols() for sub in subs]
    offs = [sum(dims[:s]) for s in range(n + 1)]
    cdim = offs[-1]

    def embed(s, avec):
        """Coordinates of (a e_s) nu_s in the carrier."""
        out = zero_vec(f, cdim)
        for r, v in enumerate(sel[s].mul_vec(a.multiply(avec, pa.e[s]))):
            out[offs[s] + r] = v
        return out

    basis = [(s, inc[s].col(q)) for s in range(n) for q in range(dims[s])]
    carrier = FBimodule.direct_sum(
        [FBimodule(a, a, dims[s], [sel[s].mul(a.lmul(i)).mul(inc[s]) for i in range(a.dim)],
                   [sel[s].mul(a.rmul_vec(pa.alpha[s].col(i))).mul(inc[s])
                    for i in range(a.dim)])
         for s in range(n)], name="C")
    delta_cols = []
    for s, x in basis:
        col = zero_vec(f, cdim * cdim)
        for t in range(n):
            u = pa.table[pa.inv[t]][s]
            for r1, w1 in enumerate(embed(t, x)):
                for r2, w2 in enumerate(embed(u, pa.e[u])):
                    col[r1 * cdim + r2] = f.add(col[r1 * cdim + r2], f.mul(w1, w2))
        delta_cols.append(col)
    delta_amb = Matrix.from_cols(f, cdim * cdim, delta_cols)
    counit = Matrix.from_cols(f, a.dim, [x if s == 0 else zero_vec(f, a.dim)
                                         for s, x in basis])
    c = Coring(a, carrier, delta_amb, counit)
    gvec = zero_vec(f, cdim)
    for s in range(n):
        gvec = [f.add(u, v) for u, v in zip(gvec, embed(s, pa.e[s]))]
    # pi_w(c) = c^(1)·f_w(c^(2)) on the ambient coproduct: f_w is left
    # A-linear, so c (x) c' -> c·f_w(c') vanishes on the balancing relations
    pi_mats = []
    for w in range(n):
        fw_cols = []
        for s, x in basis:
            weight = list(pa.e[w]) if s == w else zero_vec(f, a.dim)
            if s == 0:
                weight = [f.add(u, f.sub(v, e)) for u, v, e in zip(weight, a.unit, pa.e[w])]
            fw_cols.append(a.multiply(x, weight))
        fw = Matrix.from_cols(f, a.dim, fw_cols)
        pi_mats.append(carrier.right_eval().mul(
            Matrix.identity(f, cdim).kron(fw)).mul(delta_amb))
    tau = Matrix.from_cols(f, cdim * n, [[pi_mats[w].data[r][j] for r in range(cdim)
                                          for w in range(n)] for j in range(cdim)])
    naive_cols = []
    for s, x in basis:
        col = zero_vec(f, cdim * n)
        for t in range(n):
            uw = pa.table[pa.inv[t]][s]
            for r, wv in enumerate(embed(t, x)):
                col[r * n + uw] = f.add(col[r * n + uw], wv)
        naive_cols.append(col)
    return {"left": carrier.left_act, "right": carrier.right_act,
            "coproduct": c.coproduct, "counit": counit, "grouplike": gvec, "tau": tau,
            "tau_matches_shift_formula": tau == Matrix.from_cols(f, cdim * n, naive_cols),
            "component_dims": dims}
