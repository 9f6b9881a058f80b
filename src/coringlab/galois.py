"""Canonical maps, Galois certification, normal-basis checks, cleftness,
and the structure-theorem verifier suite.

Universally quantified statements are certified either through the finitely
generated projective reduction or verified on explicit sample lists; every
report states which grade applies.  The comodule context keeps the facts the
verifiers share, each decided once: Sigma's Galois verdict (sigma_galois),
the adjunction unit (tensor_fullyfaithful_check) and each sample comodule's
evaluation counit (sample_counit); the extension context keeps the witnesses
that Sigma is a summand of a power of T (x)_L D (ExtContext.sigma_summand)
and each sample's verified counit inverse.  Every witness that a target is a
sum of products (summands, the weak normal-basis split, the unit
decomposition of 1_T) is one algmod.span_witness solve.

Each construction has one builder, and every map into a balanced tensor is
built with BalancedTensor.induced: sigma_over_end (Sigma as a left
T-module), hom_tensor_sigma (Hom(Sigma, N) (x)_T Sigma, for the canonical
map and the evaluation counit), witness_splitting (the map
x -> sum_l x^[0]^[0]·jtilde_l(x^[0]^[1])(-) (x) j_l(x^[1]) behind the
normal-basis candidate, the coretraction and the counit inverse) and
extension.tensor_comodule (M (x)_B N with the coaction M (x) rho_N, for
T (x)_L Sigma and N (x)_T Sigma).  T (x)_L D, Sigma as a T-D bicomodule and
the hom spaces between them are built once, on first use, by ExtContext.
check_jids and check_dual_basis_from_witnesses stay element by element: they
are the independent routes the operator forms are checked against.

Searches for invertible elements are deterministic: a candidate derived from
invertibility data first, then a bounded small-integer sweep, then a fixed
number of seeded pseudorandom trials, with "not found" always reported as
inconclusive unless dimensions already refute.
"""

from __future__ import annotations

import itertools
import random

from .algmod import (BalancedTensor, FBimodule, fgp_check, generator_check,
                     hom_space, span_witness, summand_witnesses, trivial_algebra)
from .coring import EndAlgebra, colinear_homs
from .exactla import (AxiomError, Matrix, UsageError, flatten_matrix, rank,
                      side_by_side, solve_linear, solve_many, unflatten,
                      unit_vec, vec_scale, zero_vec)
from .extension import tensor_comodule

SEARCH_SWEEP_CAP = 6      # exhaustive {-1,0,1} sweep up to this many basis maps
SEARCH_TRIALS = 64        # seeded pseudorandom trials after the sweep
SEARCH_SEED = 20060410


# ---------------------------------------------------------------------------
# Sigma over its endomorphism algebra, and Hom(Sigma, N) (x)_T Sigma


def sigma_over_end(sigma, end):
    """Sigma as a (T, A)-bimodule, T = End^C(Sigma) acting by evaluation."""
    return FBimodule(end.algebra, sigma.carrier.right_alg, sigma.dim,
                     list(end.basis_maps), list(sigma.carrier.right_act),
                     name=sigma.name)


def hom_tensor_sigma(space, sigma, end, name, message):
    """Hom(Sigma, N) (x)_T Sigma for a MatrixSpace of maps Sigma -> N, with T
    acting on the maps by precomposition; AxiomError(message) when that
    action leaves the space."""
    f = sigma.field
    right_acts = [space.coords_matrix((h.mul(t) for h in space.basis), message)
                  for t in end.basis_maps]
    hom_mod = FBimodule(trivial_algebra(f), end.algebra, space.dim,
                        [Matrix.identity(f, space.dim)], right_acts, name=name)
    return BalancedTensor([hom_mod, sigma_over_end(sigma, end)], [end.algebra])


# ---------------------------------------------------------------------------
# canonical maps and the Galois property


class CanonicalMap:
    """Hom_A(Sigma, N) (x)_T Sigma -> N (x)_A C,  phi (x) x -> phi(x^[0]) (x) x^[1]."""

    def __init__(self, sigma, n_mod, end=None):
        self.sigma = sigma
        self.n_mod = n_mod
        f = sigma.field
        c = sigma.coring
        self.end = end or EndAlgebra(sigma)
        self.homs = hom_space(sigma.carrier, n_mod, right_linear=True)
        self.hom_basis = self.homs.basis
        self.tens = hom_tensor_sigma(
            self.homs, sigma, self.end, "Hom(Sigma,%s)" % n_mod.name,
            "canonical map: endomorphism action escapes the hom space")
        self.nc = BalancedTensor([n_mod, c.carrier], [c.base])
        # the block of h_b (x) - is (h_b (x) C)∘rho
        self.matrix = self.tens.descend_map(side_by_side(
            f, self.nc.dim, (sigma.mc.induced(self.nc, [(0, h)]).mul(sigma.coaction)
                             for h in self.hom_basis)))
        if self.matrix is None:
            raise AxiomError("canonical map is not balanced over the "
                             "endomorphism algebra")
        self.bijective = (self.tens.dim == self.nc.dim ==
                          rank(self.matrix))

    def inverse(self):
        if not self.bijective:
            raise UsageError("canonical map is not invertible")
        inv = solve_many(self.matrix, Matrix.identity(self.sigma.field, self.nc.dim))
        if inv is None:
            raise AxiomError("bijective canonical map failed to invert")
        return inv


def regular_right_module(alg, copies=1, name=None):
    """The free right module of the given rank over an algebra."""
    f = alg.field
    k = trivial_algebra(f)
    dim = alg.dim * copies
    rights = []
    for i in range(alg.dim):
        m = Matrix.zero(f, dim, dim)
        blk = alg.rmul(i)
        for cidx in range(copies):
            for r in range(alg.dim):
                for s in range(alg.dim):
                    m.data[cidx * alg.dim + r][cidx * alg.dim + s] = blk.data[r][s]
        rights.append(m)
    return FBimodule(k, alg, dim, [Matrix.identity(f, dim)], rights,
                     name=name or ("%s^%d" % (alg.name, copies)))


def default_sample_modules(sigma):
    """Right modules used by on-samples verdicts: free rank 1 and 2, the
    coring carrier, and the comodule itself."""
    a = sigma.coring.base
    mods = [regular_right_module(a, 1), regular_right_module(a, 2)]
    c = sigma.coring.carrier
    k = trivial_algebra(sigma.field)
    mods.append(FBimodule(k, a, c.dim, [Matrix.identity(sigma.field, c.dim)],
                          list(c.right_act), name=sigma.coring.name))
    mods.append(FBimodule(k, a, sigma.dim, [Matrix.identity(sigma.field, sigma.dim)],
                          list(sigma.carrier.right_act), name=sigma.name))
    return mods


def galois_check(sigma, end=None, samples=None):
    """Certified-Galois via the f.g. projective reduction, else on samples.

    When the comodule is f.g. projective over the base, bijectivity of the
    canonical map at the base algebra decides the Galois property exactly;
    otherwise each sample module is tested and the verdict says so.
    """
    end = end or EndAlgebra(sigma)
    a = sigma.coring.base
    witness = fgp_check(sigma.carrier, "right", a)
    can_a = CanonicalMap(sigma, regular_right_module(a, 1), end=end)
    if witness is not None:
        if can_a.bijective:
            return {"verdict": "certified-Galois", "grade": "certified", "can_A": can_a}
        return {"verdict": "not-Galois", "grade": "certified", "can_A": can_a,
                "failing": "base module"}
    sample_list = samples if samples is not None else default_sample_modules(sigma)
    for n_mod in sample_list:
        if not CanonicalMap(sigma, n_mod, end=end).bijective:
            return {"verdict": "not-Galois", "grade": "on-samples", "can_A": can_a,
                    "failing": n_mod.name}
    return {"verdict": "Galois-on-samples", "grade": "on-samples", "can_A": can_a}


def sigma_galois(cm):
    """galois_check of Sigma on the default samples, kept on cm."""
    if cm.galois is None:
        cm.galois = galois_check(cm.sigma, end=cm.end)
    return cm.galois


# ---------------------------------------------------------------------------
# invertibility data


class CleftData:
    """A pair of mutually inverse elements in the extension context.

    j maps the outer coring to the comodule; jtilde is an element of the
    intertwining bimodule (a map from the inner coring to the comodule
    dual).  Grade 'weak' certifies one composite; grade 'cleft' both.
    """

    def __init__(self, j, jtilde, grade):
        self.j = j
        self.jtilde = jtilde
        self.grade = grade


def _candidate_vectors(dim, field):
    """Deterministic search order: small-integer sweep, then seeded trials."""
    if dim == 0:
        return
    if dim <= SEARCH_SWEEP_CAP:
        for tup in itertools.product((0, 1, -1), repeat=dim):
            if any(tup):
                yield [field.of_int(v) for v in tup]
    rng = random.Random(SEARCH_SEED)
    for _ in range(SEARCH_TRIALS):
        yield [field.of_int(rng.randint(-9, 9)) for _ in range(dim)]


def witness_splitting(ext_ctx, m, dst, pairs, space, message):
    """m -> sum_l K_l(m^[0]) (x) j_l(m^[1]) into dst, over the outer coaction
    of the comodule m, for pairs (jtilde_l, j_l): column m0 of K_l holds the
    coordinates in space of y -> m0^[0]·jtilde_l(m0^[1])(y).  Raises
    AxiomError(message) when such a map leaves space."""
    f = ext_ctx.field
    md = ext_ctx.outer_comodule(m)
    sd = ext_ctx.qt.sigma_dual
    total = Matrix.zero(f, dst.dim, md.mc.dim)
    for jt, j in pairs:
        k = space.coords_matrix((sd.pairing(m, unit_vec(f, m.dim, m0), jt)
                                 for m0 in range(m.dim)), message)
        total = total.add(md.mc.induced(dst, [(0, k), (1, j)]))
    return total.mul(md.coaction)


def normal_basis_check(ext_ctx, cleft_data=None):
    """Weak/full normal basis verdicts with witnesses.

    Full: an invertible left-linear colinear map onto T (x) D, searched for
    deterministically (candidate from invertibility data, then sweep, then
    seeded trials); weak: a single split pair, searched the same way, with
    the family-level membership test as a sound negative certificate.
    """
    sigma = ext_ctx.sigma
    f = ext_ctx.field
    td_com, td_tens = ext_ctx.td
    space_st, space_ts = ext_ctx.bicomodule_homs
    family = ext_ctx.sigma_summand
    report = {"td_dim": td_com.dim, "sigma_dim": sigma.dim,
              "family_summand": family is not None,
              "family_witnesses": family}
    if family is None:
        report["grade"] = "none"
        report["full"] = "disproved"
        report["weak"] = "disproved"
        return report
    if sigma.dim == 0:
        # the zero comodule splits off anything; it is the whole of T (x) D
        # exactly when that space is zero as well
        full = td_com.dim == 0
        report["grade"] = "full" if full else "weak"
        report["full"] = "found" if full else "disproved (dimension)"
        report["weak"] = "implied" if full else "found"
        if full:
            report["iso"] = Matrix.zero(f, 0, 0)
            report["iso_inverse"] = Matrix.zero(f, 0, 0)
        else:
            report["split_pair"] = (Matrix.zero(f, td_com.dim, 0),
                                    Matrix.zero(f, 0, td_com.dim))
        return report
    candidates = []
    if cleft_data is not None and cleft_data.jtilde is not None:
        # x -> [y -> x_[0]^[0]·jtilde(x_[0]^[1])(y)] (x) x_[1]
        kappa = witness_splitting(
            ext_ctx, sigma, td_tens,
            [(cleft_data.jtilde, Matrix.identity(f, ext_ctx.ext.outer.dim))],
            ext_ctx.end.space, "invertibility candidate leaves the endomorphism "
            "algebra")
        if space_st.coords(kappa) is None:
            raise AxiomError("the candidate built from invertibility data is not "
                             "a bicomodule map")
        candidates.append(kappa)
    seen_coeffs = (list(vec) for vec in _candidate_vectors(space_st.dim, f))
    full_found = None
    weak_found = None
    dim_ok_full = sigma.dim == td_com.dim

    def try_kappa(kappa):
        nonlocal full_found, weak_found
        if weak_found is None:
            back = span_witness(f, [(h, flatten_matrix(h.mul(kappa)))
                                    for h in space_ts.basis],
                                flatten_matrix(Matrix.identity(f, sigma.dim)))
            if back is not None:
                lam = Matrix.zero(f, sigma.dim, td_com.dim)
                for h, c in back:
                    lam = lam.add(h.scale(c))
                weak_found = (kappa, lam)
        if dim_ok_full and full_found is None:
            if rank(kappa) == sigma.dim:
                full_found = kappa

    for kappa in candidates:
        try_kappa(kappa)
        if full_found is not None and weak_found is not None:
            break
    if full_found is None or weak_found is None:
        for coeffs in seen_coeffs:
            kappa = space_st.element(coeffs)
            try_kappa(kappa)
            if (full_found is not None or not dim_ok_full) and weak_found is not None:
                break
    if full_found is not None:
        inv = solve_many(full_found, Matrix.identity(f, sigma.dim))
        report["grade"] = "full"
        report["full"] = "found"
        report["weak"] = "implied"
        report["iso"] = full_found
        report["iso_inverse"] = inv
        return report
    report["full"] = "disproved (dimension)" if not dim_ok_full \
        else "not found (inconclusive)"
    if weak_found is not None:
        report["grade"] = "weak"
        report["weak"] = "found"
        report["split_pair"] = weak_found
    elif sigma.dim > td_com.dim:
        report["grade"] = "none"
        report["weak"] = "disproved (dimension)"
    else:
        report["grade"] = "inconclusive"
        report["weak"] = "not found (inconclusive)"
    return report


def cleft_check(ext_ctx, j=None, jtilde=None):
    """Decide the (weak) invertibility property of the extension context.

    With both elements given, both composite identities are verified.  With
    only j, the two identities become linear systems over the intertwining
    bimodule and are solved exactly.  With neither, candidates for j are
    swept deterministically; a failed span test for the first connecting map
    certifies a negative answer, otherwise an unsuccessful search is
    reported as unresolved.  The search runs once per context; its result is
    kept on the context and returned by every later call.

    Both identities are read off ExtContext.connecting_matrix, so no
    candidate evaluates a connecting map element by element.
    """
    if j is not None:
        return _cleft_for_j(ext_ctx, j, jtilde)
    if ext_ctx.cleft_search is None:
        ext_ctx.cleft_search = _cleft_without_data(ext_ctx)
    return ext_ctx.cleft_search


def _cleft_targets(ext_ctx):
    """The flattened identity of the inner coring over the flattened unit of
    the bilinear maps: the value both connecting maps must take together."""
    f = ext_ctx.field
    return (flatten_matrix(Matrix.identity(f, ext_ctx.ext.inner.dim)) +
            flatten_matrix(ext_ctx._v_unit_matrix()))


def _grade_coords(ext_ctx, j_coords, target, weak_wanted=True):
    """Grade the section with coordinates j_coords in the colinear maps.

    The first identity alone is solved for the intertwiner, then both
    jointly; a section failing the first fails both.  Returns (grade,
    intertwiner coordinates) or None.  With weak_wanted False only the
    grade 'cleft' is looked for.
    """
    f = ext_ctx.field
    conn = ext_ctx.connecting_matrix(j_coords)
    weak = None
    if weak_wanted:
        nblack = ext_ctx.ext.inner.dim ** 2
        weak = solve_linear(Matrix(f, nblack, conn.cols, conn.data[:nblack]),
                            target[:nblack])
        if weak is None:
            return None
    full = solve_linear(conn, target) if conn.cols else None
    if full is not None:
        return "cleft", full
    if weak is not None:
        return "weak-cleft", weak
    return None


def _cleft_for_j(ext_ctx, j, jtilde):
    qt = ext_ctx.qt
    jt_coords = None
    if jtilde is not None:
        jt_coords = qt.coords(jtilde)
        if jt_coords is None:
            raise UsageError("the supplied intertwiner is not in the bimodule")
    j_coords = ext_ctx.p_space.coords(j)
    if j_coords is None:
        raise UsageError("the supplied section is not a colinear map")
    target = _cleft_targets(ext_ctx)
    if jt_coords is None:
        got = _grade_coords(ext_ctx, j_coords, target)
        if got is None:
            return None
        return CleftData(j, qt.space.element(got[1]), got[0])
    values = ext_ctx.connecting_matrix(j_coords).mul_vec(jt_coords)
    nblack = ext_ctx.ext.inner.dim ** 2
    if values[:nblack] != target[:nblack]:
        return None
    if values[nblack:] == target[nblack:]:
        return CleftData(j, jtilde, "cleft")
    return CleftData(j, jtilde, "weak-cleft")


def _cleft_without_data(ext_ctx):
    f = ext_ctx.field
    # no data: a failed identity-membership certifies the negative
    surj, _ = ext_ctx.context.connecting(1)
    if not surj:
        return CleftData(None, None, "not-cleft")
    # a single invertible pair forces the comodule to split off one copy of
    # T (x) D, so a dimension excess refutes even the weak grade
    if ext_ctx.sigma.dim > ext_ctx.td[0].dim:
        return CleftData(None, None, "not-cleft")
    target = _cleft_targets(ext_ctx)
    best = None
    for coeffs in _candidate_vectors(len(ext_ctx.p_basis), f):
        got = _grade_coords(ext_ctx, coeffs, target, weak_wanted=best is None)
        if got is None:
            continue
        best = CleftData(ext_ctx.p_space.element(coeffs),
                         ext_ctx.qt.space.element(got[1]), got[0])
        if got[0] == "cleft":
            return best
    if best is not None:
        return best
    return CleftData(None, None, "unresolved")


def can_inverse_from_witnesses(ext_ctx, can):
    """The inverse of a canonical map rebuilt from unit-decomposition
    witnesses: n (x) c -> sum_l n·jtilde_l(c_[0])(-) (x) j_l(c_[1]).

    Returns the matrix and asserts both composites are identities.
    """
    ext = ext_ctx.ext
    f = ext_ctx.field
    witnesses = ext_ctx.first_witnesses
    if witnesses is None:
        raise UsageError("no unit decomposition: the first connecting map is "
                         "not surjective")
    n_mod = can.n_mod
    sd = ext_ctx.qt.sigma_dual
    cols = []
    for q in range(can.nc.dim):
        out = zero_vec(f, can.tens.dim)
        for ((ni, ck), w) in can.nc.lift_pairs(unit_vec(f, can.nc.dim, q)):
            for ((c0, dd), w2) in ext.cld.lift_pairs(ext.tau.col(ck)):
                for (jt, j) in witnesses:
                    xi = sd.space.element(jt.col(c0))
                    phi = Matrix.zero(f, n_mod.dim, ext_ctx.sigma.dim)
                    for x in range(ext_ctx.sigma.dim):
                        col = n_mod.right_act_vec(xi.col(x)).col(ni)
                        for r in range(n_mod.dim):
                            phi.data[r][x] = col[r]
                    coords = can.homs.coords(phi)
                    if coords is None:
                        raise AxiomError("rebuilt inverse leaves the hom space")
                    contrib = can.tens.pure_tensor(
                        [vec_scale(f, f.mul(w, w2), coords), j.col(dd)])
                    out = [f.add(u, v) for u, v in zip(out, contrib)]
        cols.append(out)
    inv = Matrix.from_cols(f, can.tens.dim, cols)
    if can.matrix.mul(inv) != Matrix.identity(f, can.nc.dim):
        raise AxiomError("rebuilt canonical inverse fails on the right")
    if inv.mul(can.matrix) != Matrix.identity(f, can.tens.dim):
        raise AxiomError("rebuilt canonical inverse fails on the left")
    return inv


# ---------------------------------------------------------------------------
# theorem verifiers


def check_jids(ext_ctx, witnesses, comodules):
    """The two scalar identities that follow from a unit decomposition of the
    first connecting map: the counit identity on the coring and the
    reconstruction identity on every listed comodule."""
    ext = ext_ctx.ext
    f = ext_ctx.field
    c = ext.inner
    sd = ext_ctx.qt.sigma_dual
    # (1) sum_l jtilde_l(c_[0])( j_l(c_[1]) ) = eps(c)
    pair = ext_ctx.pair_eval
    total = None
    for (jt, j) in witnesses:
        term = pair.mul(ext.cld.induced(None, [(0, jt), (1, j)])).mul(ext.tau)
        total = term if total is None else total.add(term)
    if total is None:
        total = Matrix.zero(f, c.base.dim, c.dim)
    if total != c.counit:
        raise AxiomError("unit decomposition: the counit identity fails")
    # (2) sum_l m_[0]^[0] jtilde_l(m_[0]^[1])( j_l(m_[1]) ) = m, for each comodule
    for m in comodules:
        md = ext_ctx.outer_comodule(m)
        acc = Matrix.zero(f, m.dim, m.dim)
        for (jt, j) in witnesses:
            for col in range(m.dim):
                for ((m0, dd), w) in md.mc.lift_pairs(md.coaction.col(col)):
                    jd = j.mul_vec(unit_vec(f, ext.outer.dim, dd))
                    for ((m1, ck), w2) in m.mc.lift_pairs(m.coaction.col(m0)):
                        a_val = sd.space.element(jt.col(ck)).mul_vec(jd)
                        contrib = m.carrier.right_act_vec(
                            vec_scale(f, f.mul(w, w2), a_val)).col(m1)
                        for r in range(m.dim):
                            acc.data[r][col] = f.add(acc.data[r][col], contrib[r])
        if acc != Matrix.identity(f, m.dim):
            raise AxiomError("unit decomposition: the reconstruction identity "
                             "fails on %s" % m.name)
    return True


def check_generator_property(ext_ctx):
    """When the first connecting map and the inner counit are surjective, the
    comodule generates the right modules of the base algebra; the witness is
    rebuilt from the unit decomposition and evaluated."""
    ext = ext_ctx.ext
    f = ext_ctx.field
    c = ext.inner
    sigma = ext_ctx.sigma
    witnesses = ext_ctx.first_witnesses
    if witnesses is None:
        return {"applicable": False, "reason": "first connecting map not surjective"}
    if rank(c.counit) != c.base.dim:
        return {"applicable": False, "reason": "counit not surjective"}
    cvec = solve_linear(c.counit, list(c.base.unit))
    sd = ext_ctx.qt.sigma_dual
    total = zero_vec(f, c.base.dim)
    for (jt, j) in witnesses:
        for ((ck, dd), w) in ext.cld.lift_pairs(ext.tau.mul_vec(cvec)):
            xi = sd.space.element(vec_scale(f, w, jt.col(ck)))
            jd = j.col(dd)
            total = [f.add(u, v) for u, v in zip(total, xi.mul_vec(jd))]
    if total != list(c.base.unit):
        raise AxiomError("generator witness does not evaluate to the unit")
    gen = generator_check(sigma.carrier, "right", c.base)
    if gen is None:
        raise AxiomError("generator check failed although the witness exists")
    return {"applicable": True, "passed": True}


def check_equivariant_projectivity(ext_ctx):
    """From a unit decomposition, the left action of the endomorphism algebra
    splits equivariantly: the constructed coretraction is verified linear,
    colinear and a section of the action."""
    f = ext_ctx.field
    sigma = ext_ctx.sigma
    end = ext_ctx.end
    witnesses = ext_ctx.first_witnesses
    if witnesses is None:
        return {"applicable": False, "reason": "first connecting map not surjective"}
    d = ext_ctx.ext.outer
    sigma_d = ext_ctx.sigma_d
    sig_l = FBimodule(d.base, d.base, sigma.dim, list(sigma.carrier.left_act),
                      sigma_d.carrier.right_act, name=sigma.name)
    tsd, ts = tensor_comodule(ext_ctx.t_bim, sig_l, d,
                              sigma_d.mc.sect().mul(sigma_d.coaction), "T(x)Sigma")
    sect = witness_splitting(ext_ctx, sigma, ts, witnesses, end.space,
                             "coretraction leaves the endomorphism algebra")
    # the action map and the section compose to the identity
    if ext_ctx.apply_t.mul(ts.sect()).mul(sect) != Matrix.identity(f, sigma.dim):
        raise AxiomError("coretraction is not a section of the action")
    # T-linearity: sect(t(x)) = t·sect(x)
    for t, t_map in enumerate(end.basis_maps):
        if sect.mul(t_map) != ts.left_act[t].mul(sect):
            raise AxiomError("coretraction is not equivariant")
    # colinearity over the outer coring
    lhs = tsd.coaction.mul(sect)
    rhs = sigma_d.mc.induced(tsd.mc, [(0, sect)]).mul(sigma_d.coaction)
    if lhs != rhs:
        raise AxiomError("coretraction is not colinear")
    return {"applicable": True, "passed": True}


def evaluation_counit(sigma, end, m):
    """The evaluation Hom(Sigma, M) (x)_T Sigma -> M on the balanced quotient.

    Returns (counit, tens, space of colinear maps)."""
    f = sigma.field
    space = colinear_homs(sigma, m)
    tens = hom_tensor_sigma(space, sigma, end, "Hom(Sigma,%s)" % m.name,
                            "counit check: endomorphism action escapes the "
                            "colinear maps")
    counit = tens.descend_map(side_by_side(f, m.dim, space.basis))
    if counit is None:
        raise AxiomError("evaluation counit is not balanced")
    return counit, tens, space


def sample_counit(cm, m):
    """evaluation_counit at the comodule m, kept on cm unless it raises."""
    if m not in cm.counits:
        cm.counits[m] = evaluation_counit(cm.sigma, cm.end, m)
    return cm.counits[m]


def verify_weak_structure(ext_ctx, samples):
    """For every sample comodule the evaluation counit is bijective, with the
    explicit inverse built from the unit decomposition verified two-sided."""
    witnesses = ext_ctx.first_witnesses
    if witnesses is None:
        return {"applicable": False,
                "reason": "first connecting map not surjective"}
    for m in samples:
        _counit_inverse(ext_ctx, m, witnesses)
    return {"applicable": True, "passed": True,
            "samples": [(m.name, True) for m in samples]}


def _counit_inverse(ext_ctx, m, witnesses):
    """The inverse of the evaluation counit at the comodule m, built from the
    unit decomposition witnesses (ExtContext.first_witnesses) and verified
    two-sided; kept on ext_ctx unless it raises."""
    if m not in ext_ctx.counit_inverses:
        f = ext_ctx.field
        counit, tens, homs = sample_counit(ext_ctx.cm, m)
        # inverse: m -> sum_l [x -> m_[0]^[0]·jtilde_l(m_[0]^[1])(x)] (x) j_l(m_[1])
        inverse = witness_splitting(ext_ctx, m, tens, witnesses, homs,
                                    "counit inverse leaves the colinear maps")
        if counit.mul(inverse) != Matrix.identity(f, m.dim):
            raise AxiomError("counit inverse fails on %s (right)" % m.name)
        if inverse.mul(counit) != Matrix.identity(f, tens.dim):
            raise AxiomError("counit inverse fails on %s (left)" % m.name)
        ext_ctx.counit_inverses[m] = inverse
    return ext_ctx.counit_inverses[m]


def unit_decomposition_of_one(ext_ctx):
    """Elements v_j, d_j with sum v_j(d_j) = 1_T, using the counit fast path
    first; None when the membership fails."""
    f = ext_ctx.field
    d = ext_ctx.ext.outer
    t_alg = ext_ctx.t_alg
    if t_alg.dim == 0:
        return {"pairs": [], "path": "zero algebra"}
    if rank(d.counit) == d.base.dim:
        unit_v = ext_ctx._v_unit_matrix()
        if ext_ctx.v_space.coords(unit_v) is None:
            raise AxiomError("convolution unit is not a bilinear map")
        # unit_v(d) = eps(d)·1_T, so any d with eps(d) = 1 decomposes 1_T
        wit = span_witness(f, [((unit_v, dd), d.counit.col(dd)) for dd in range(d.dim)],
                           d.base.unit)
        path = "counit surjective"
    else:
        wit = span_witness(f, [((v, dd), v.col(dd)) for v in ext_ctx.v_basis
                               for dd in range(d.dim)], t_alg.unit)
        path = "membership solve"
    if wit is None:
        return None
    return {"pairs": [(v.scale(c), unit_vec(f, d.dim, dd)) for (v, dd), c in wit],
            "path": path}


def tensor_fullyfaithful_check(cm):
    """Bijectivity of the unit of the induced-module adjunction on the free
    T-modules of rank 1 and 2 (none when T = 0), with the explicit inverse
    built from second-connecting-map witnesses verified two-sided.  Kept on
    cm; a failure raises and is not kept, so each caller sees it."""
    if cm.fullyfaithful is None:
        cm.fullyfaithful = _tensor_fullyfaithful(cm)
    return cm.fullyfaithful


def _tensor_fullyfaithful(cm):
    ok, wit = cm.context.connecting(2)
    if not ok:
        return {"applicable": False,
                "reason": "second connecting map not surjective"}
    t_alg = cm.end.algebra
    samples_t = [regular_right_module(t_alg, 1, name="T"),
                 regular_right_module(t_alg, 2, name="T^2")] if t_alg.dim else []
    sigma = cm.sigma
    f = sigma.field
    sdim = sigma.dim
    sigma_t = sigma_over_end(sigma, cm.end)
    rho = sigma.mc.sect().mul(sigma.coaction)
    # for each witness (x, q): x and the map y -> conn2(y (x) q), Sigma -> T
    conn2_amb = cm.context.conn_amb[1]
    qdim = cm.q.dim
    splits = [(xvec, Matrix(f, conn2_amb.rows, sdim,
                            [unflatten(f, sdim, qdim, row).mul_vec(qvec)
                             for row in conn2_amb.data]))
              for (xvec, qvec) in wit]
    results = []
    for n_mod in samples_t:
        ncom, tens_n = tensor_comodule(n_mod, sigma_t, sigma.coring, rho,
                                       n_mod.name + "(x)Sigma")
        ncom.validate()
        space = colinear_homs(sigma, ncom)
        homs = space.basis
        # the unit n -> (x -> n (x) x): block n of the columns of proj
        proj = tens_n.proj()
        eta = space.coords_matrix(
            (Matrix.from_cols(f, tens_n.dim, [proj.col(ni * sdim + x) for x in range(sdim)])
             for ni in range(n_mod.dim)),
            "adjunction unit is not colinear on %s" % n_mod.name)
        # explicit inverse from the witnesses: h -> sum h(x)·conn2(- (x) q),
        # through n (x) y -> n·conn2(y (x) q)
        etainv = Matrix.zero(f, n_mod.dim, len(homs))
        right_eval = n_mod.right_eval()
        for xvec, c_q in splits:
            act = right_eval.mul(tens_n.induced(None, [(1, c_q)]))
            etainv = etainv.add(act.mul(Matrix.from_cols(
                f, tens_n.dim, [hmat.mul_vec(xvec) for hmat in homs])))
        if etainv.mul(eta) != Matrix.identity(f, n_mod.dim):
            raise AxiomError("adjunction unit inverse fails on %s (left)" % n_mod.name)
        if eta.mul(etainv) != Matrix.identity(f, len(homs)):
            raise AxiomError("adjunction unit inverse fails on %s (right)" % n_mod.name)
        results.append((n_mod.name, True))
    return {"applicable": True, "passed": True, "samples": results}


def verify_strong_structure(ext_ctx, samples_c):
    """Strictness plus a unit decomposition give inverse equivalences on the
    sample lists; the verdict is labeled as verified on samples."""
    ctx = ext_ctx.context
    if not ctx.strict:
        missing = [name for k, name in ((1, "first connecting map"),
                                        (2, "second connecting map"))
                   if not ctx.connecting(k)[0]]
        return {"applicable": False,
                "reason": "context not strict (%s)" % ", ".join(missing)}
    decomp = unit_decomposition_of_one(ext_ctx)
    if decomp is None:
        return {"applicable": False, "reason": "no unit decomposition of 1_T"}
    ff = tensor_fullyfaithful_check(ext_ctx.cm)
    if not ff.get("applicable"):
        raise AxiomError("strict context but the second connecting map of the "
                         "comodule context is not surjective")
    ws = verify_weak_structure(ext_ctx, samples_c)
    if not ws.get("applicable"):
        raise AxiomError("strict context but the first connecting map is not "
                         "surjective")
    return {"applicable": True, "passed": True,
            "verdict": "equivalence verified on samples",
            "unit_path": decomp["path"],
            "unit_samples": ff["samples"], "counit_samples": ws["samples"]}


def verify_surjectivity_thm(ext_ctx):
    """Both sides of the two summand biconditionals, computed independently;
    disagreement raises (the statements are proved, so it means a bug)."""
    ext = ext_ctx.ext
    f = ext_ctx.field
    lhs1, _ = ext_ctx.context.connecting(1)
    gal = sigma_galois(ext_ctx.cm)
    galois = gal["verdict"] in ("certified-Galois", "Galois-on-samples")
    td_tens = ext_ctx.td[1]
    space_st, space_ts = ext_ctx.bicomodule_homs
    s_fam = ext_ctx.sigma_summand
    rhs1 = galois and s_fam is not None
    if lhs1 != rhs1:
        raise AxiomError("surjectivity criterion part 1: the two sides disagree "
                         "(implementation error)")
    out = {"passed": True, "part1": lhs1, "galois": gal["verdict"],
           "s": len(s_fam) if s_fam else None}
    if lhs1:
        # constructive re-derivation of a unit decomposition from the summand data
        rebuilt = _rebuild_witnesses(ext_ctx, td_tens, s_fam, gal["can_A"])
        total = None
        for (jt, j) in rebuilt:
            term = ext_ctx.diamond_black(jt, j)
            total = term if total is None else total.add(term)
        if total != Matrix.identity(f, ext.inner.dim):
            raise AxiomError("rebuilt summand witnesses do not decompose the "
                             "identity")
        out["rebuilt_pairs"] = len(rebuilt)
    z_fam = summand_witnesses(space_ts, space_st)
    lhs2 = ext_ctx.context.strict
    rhs2 = rhs1 and z_fam is not None
    if lhs2 != rhs2:
        raise AxiomError("surjectivity criterion part 2: the two sides disagree "
                         "(implementation error)")
    out["part2"] = lhs2
    out["z"] = len(z_fam) if z_fam else None
    return out


def _rebuild_witnesses(ext_ctx, td_tens, pairs, can_a):
    """From summand data (kappa_l, kappatilde_l) rebuild the context elements
    j_l = kappatilde_l(1 (x) -) and jtilde_l through the inverse of can_a,
    the canonical map at the base algebra."""
    ext = ext_ctx.ext
    sigma = ext_ctx.sigma
    f = ext_ctx.field
    end = ext_ctx.end
    t_alg = end.algebra
    d = ext.outer
    if not can_a.bijective:
        raise AxiomError("constructive direction needs an invertible canonical map")
    caninv = can_a.inverse()
    sd = ext_ctx.qt.sigma_dual
    # T (x)_L D -> T, t (x) d -> t·eps(d)
    t_eps = ext_ctx.t_bim.right_eval().mul(td_tens.induced(None, [(1, d.counit)]))
    out = []
    for (kappa, kappatilde) in pairs:
        j_cols = [kappatilde.mul_vec(td_tens.pure_tensor(
            [list(t_alg.unit), unit_vec(f, d.dim, dd)])) for dd in range(d.dim)]
        j_mat = Matrix.from_cols(f, sigma.dim, j_cols)
        jt_cols = []
        for ck in range(ext.inner.dim):
            vtarget = can_a.nc.pure_tensor([list(ext.inner.base.unit),
                                            unit_vec(f, ext.inner.dim, ck)])
            y = caninv.mul_vec(vtarget)
            acc = zero_vec(f, sd.dim)
            for ((hb, xj), w) in can_a.tens.lift_pairs(y):
                tmat = end.space.element(t_eps.mul_vec(kappa.col(xj)))
                phi = can_a.hom_basis[hb].mul(tmat)
                coords = sd.coords(phi)
                if coords is None:
                    raise AxiomError("rebuilt intertwiner leaves the dual module")
                acc = [f.add(u, f.mul(w, v)) for u, v in zip(acc, coords)]
            jt_cols.append(acc)
        jt_mat = Matrix.from_cols(f, sd.dim, jt_cols)
        if ext_ctx.qt.coords(jt_mat) is None:
            raise AxiomError("rebuilt intertwiner is not in the bimodule")
        if ext_ctx.p_space.coords(j_mat) is None:
            raise AxiomError("rebuilt section is not a colinear map")
        out.append((jt_mat, j_mat))
    return out


def verify_diamond_to_triangle(ext_ctx):
    """A surjective second connecting map plus a unit decomposition force the
    comodule context's second map to be surjective, the comodule to be f.g.
    projective over the base, and the endomorphism algebra to be a summand
    of a power of the comodule as a left module."""
    ok2, _ = ext_ctx.context.connecting(2)
    decomp = unit_decomposition_of_one(ext_ctx) if ok2 else None
    if not ok2 or decomp is None:
        return {"applicable": False,
                "reason": "second connecting map not surjective" if not ok2
                else "no unit decomposition of 1_T"}
    okm, _ = ext_ctx.cm.context.connecting(2)
    if not okm:
        raise AxiomError("second connecting map of the comodule context is not "
                         "surjective (implementation error)")
    sigma = ext_ctx.sigma
    witness = fgp_check(sigma.carrier, "right", sigma.coring.base)
    if witness is None:
        raise AxiomError("comodule is not f.g. projective although the second "
                         "connecting map is surjective")
    f = ext_ctx.field
    t_alg = ext_ctx.t_alg
    k = trivial_algebra(f)
    t_left = FBimodule(t_alg, k, t_alg.dim,
                       [t_alg.lmul(i) for i in range(t_alg.dim)],
                       [Matrix.identity(f, t_alg.dim)], name="T")
    sig_left = FBimodule(t_alg, k, sigma.dim, list(ext_ctx.end.basis_maps),
                         [Matrix.identity(f, sigma.dim)], name=sigma.name)
    wit = summand_witnesses(hom_space(t_left, sig_left, left_linear=True),
                            hom_space(sig_left, t_left, left_linear=True))
    if wit is None:
        raise AxiomError("endomorphism algebra is not a summand of a power of "
                         "the comodule")
    return {"applicable": True, "passed": True, "triangle_surjective": True,
            "sigma_fgp": True, "z": len(wit)}


def verify_cor_jJ(ext_ctx, j=None, jtilde=None):
    """Independent evaluation of cleftness, the Galois property and normal
    bases, with both biconditionals asserted whenever all sides are decided."""
    cleft = cleft_check(ext_ctx, j=j, jtilde=jtilde)
    gal = sigma_galois(ext_ctx.cm)
    galois = gal["verdict"] in ("certified-Galois", "Galois-on-samples")
    cleft_for_nb = cleft if cleft is not None and cleft.grade in ("cleft", "weak-cleft") \
        and cleft.j is not None else None
    nb = normal_basis_check(ext_ctx, cleft_data=cleft_for_nb)
    grade = cleft.grade if cleft is not None else "not-cleft"
    out = {"cleft_grade": grade, "galois": gal["verdict"], "normal_basis": nb["grade"],
           "decided": True, "passed": True}
    if grade == "unresolved" or nb["grade"] == "inconclusive":
        out["decided"] = False
        out["verdict"] = "undecided (search inconclusive)"
        return out
    is_cleft = grade == "cleft"
    is_weak = grade in ("cleft", "weak-cleft")
    rhs_full = galois and nb["grade"] == "full"
    rhs_weak = galois and nb["grade"] in ("full", "weak")
    if is_cleft != rhs_full:
        raise AxiomError("invertibility criterion (full) sides disagree "
                         "(implementation error)")
    if is_weak != rhs_weak:
        raise AxiomError("invertibility criterion (weak) sides disagree "
                         "(implementation error)")
    return out


def verify_fgp_corollary(ext_ctx):
    """With a surjective first connecting map, surjectivity of the comodule
    context's first map is equivalent to the coring being f.g. projective
    over its base on the left."""
    ok, _ = ext_ctx.context.connecting(1)
    if not ok:
        return {"applicable": False,
                "reason": "first connecting map not surjective"}
    okm, _ = ext_ctx.cm.context.connecting(1)
    c = ext_ctx.ext.inner
    witness = fgp_check(c.carrier, "left", c.base)
    if okm != (witness is not None):
        raise AxiomError("projectivity corollary sides disagree "
                         "(implementation error)")
    return {"applicable": True, "passed": True, "triangle1_surjective": okm,
            "coring_fgp": witness is not None}


def check_dual_basis_from_witnesses(cm):
    """Rebuild dual bases from connecting-map witnesses, per the two
    surjectivity consequences, and verify the reconstruction identities."""
    ctx = cm.context
    sigma = cm.sigma
    f = sigma.field
    c = sigma.coring
    out = {}
    ok1, wit1 = ctx.connecting(1)
    if ok1:
        # sum q_i(x_i^[0]) (x) x_i^[1] is a dual basis for the coring
        dual = cm.dual
        star_bim = dual.module
        cstar_c = BalancedTensor([star_bim, c.carrier], [c.base])
        tensor_elt = zero_vec(f, cstar_c.dim)
        for (qvec, xvec) in wit1:
            qmat = cm.q.element(qvec)
            for ((m, ck), w) in sigma.mc.lift_pairs(sigma.coaction.mul_vec(xvec)):
                contrib = cstar_c.pure_tensor([vec_scale(f, w, qmat.col(m)),
                                               unit_vec(f, c.dim, ck)])
                tensor_elt = [f.add(u, v) for u, v in zip(tensor_elt, contrib)]
        for cidx in range(c.dim):
            acc = zero_vec(f, c.dim)
            for ((fb, cj), w) in cstar_c.lift_pairs(tensor_elt):
                a_val = dual.eval_mats[fb].col(cidx)
                contrib = c.carrier.left_act_vec(vec_scale(f, w, a_val)).col(cj)
                acc = [f.add(u, v) for u, v in zip(acc, contrib)]
            if acc != unit_vec(f, c.dim, cidx):
                raise AxiomError("dual basis reconstruction fails for the coring")
        witness = fgp_check(c.carrier, "left", c.base)
        if witness is None:
            raise AxiomError("coring not f.g. projective although the first "
                             "connecting map is surjective")
        out["coring_dual_basis"] = True
    ok2, wit2 = ctx.connecting(2)
    if ok2:
        # sum x_i^[0] (x) q_i(-)(x_i^[1]) is a dual basis for the comodule
        for y in range(sigma.dim):
            acc = zero_vec(f, sigma.dim)
            for (xvec, qvec) in wit2:
                qmat = cm.q.element(qvec)
                for ((m, ck), w) in sigma.mc.lift_pairs(sigma.coaction.mul_vec(xvec)):
                    a_val = cm.dual.element_eval(qmat.col(y)).col(ck)
                    contrib = sigma.carrier.right_act_vec(
                        vec_scale(f, w, a_val)).col(m)
                    acc = [f.add(u, v) for u, v in zip(acc, contrib)]
            if acc != unit_vec(f, sigma.dim, y):
                raise AxiomError("dual basis reconstruction fails for the comodule")
        witness = fgp_check(sigma.carrier, "right", c.base)
        if witness is None:
            raise AxiomError("comodule not f.g. projective although the second "
                             "connecting map is surjective")
        out["comodule_dual_basis"] = True
    return out


def verify_strictness_three_way(cm, samples_c):
    """Three-way agreement for a left f.g. projective coring: strictness of
    the comodule context, the Galois-plus-projectivity side, and the
    sample-equivalence surrogate must coincide.

    The universally quantified flatness clause has no finite certificate; it
    is replaced by bijectivity of the adjunction unit on the context's
    T-samples and of the counit on samples_c, and the report says so.
    """
    sigma = cm.sigma
    c = sigma.coring
    if fgp_check(c.carrier, "left", c.base) is None:
        return {"applicable": False,
                "reason": "coring not f.g. projective over its base"}
    strict = cm.context.strict
    gal = sigma_galois(cm)
    galois = gal["verdict"] in ("certified-Galois", "Galois-on-samples")
    sigma_fgp = fgp_check(sigma.carrier, "right", c.base) is not None
    ff = tensor_fullyfaithful_check(cm)
    equivalence = bool(ff.get("applicable") and ff.get("passed"))
    if equivalence:
        for m in samples_c:
            counit, tens, _ = sample_counit(cm, m)
            if not (rank(counit) == tens.dim == m.dim):
                equivalence = False
                break
    rhs = galois and sigma_fgp and equivalence
    if strict != rhs:
        raise AxiomError("strictness three-way agreement fails "
                         "(implementation error)")
    return {"applicable": True, "passed": True, "strict": strict,
            "galois": gal["verdict"], "sigma_fgp": sigma_fgp,
            "equivalence": "verified on samples" if equivalence else "fails",
            "grade": "on-samples"}
