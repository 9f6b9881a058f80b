"""Canonical maps, Galois certification, normal-basis checks, cleftness,
and the structure-theorem verifier suite.

Universally quantified statements are certified either through the finitely
generated projective reduction or verified on explicit sample lists; every
check returns an algmod.Verdict whose grade states which applies, decided
where the check runs.  galois_check's record (GaloisVerdict) carries the
canonical map at the base and one answer, holds, that the verifiers read;
verify_cor_jJ's (InvertibilityVerdict) carries the four lines of the cleft
report.  The weak and strong structure checks, the adjunction unit and the
three-way strictness check grade every line on-samples, a fail line too,
and state it as their grade attribute.  The comodule context keeps the facts the
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
Every Sweedler sum is one induced(..., at=X) map followed by an evaluation
matrix: the generator witness is the pairing after (jtilde (x) j)∘tau, and
the rebuilt intertwiners compose after one lift of can_A^-1(1 (x) c_k) for
all k.  check_jids and check_dual_basis_from_witnesses stay element by
element: they are the independent routes the operator forms are checked
against; can_inverse_from_witnesses rebuilds the canonical inverse element
by element as the oracle it is compared with.

Searches for invertible elements are deterministic: a candidate derived from
invertibility data first, then a bounded small-integer sweep, then a fixed
number of seeded pseudorandom trials, with "not found" always reported as
inconclusive unless dimensions already refute.  The dimensions are compared
before any candidate is tried, and no search looks for a grade they refute.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .algmod import (BalancedTensor, FBimodule, Verdict, fgp_check, generator_check,
                     hom_space, span_witness, summand_witnesses, vouch)
from .coring import EndAlgebra, colinear_homs
from .exactla import (AxiomError, Matrix, UsageError, flatten_matrix, from_sparse_cols,
                      inverse, rank, rank_inverse, side_by_side, solve_linear,
                      unflatten, unit_vec, vec_scale, zero_vec)
from .extension import tensor_comodule

SEARCH_SWEEP_CAP = 6      # exhaustive {-1,0,1} sweep up to this many basis maps
SEARCH_TRIALS = 64        # seeded pseudorandom trials after the sweep
SEARCH_SEED = 20060410
SAMPLED = "on-samples"    # the grade of what is verified on sample lists only


# ---------------------------------------------------------------------------
# Sigma over its endomorphism algebra, and Hom(Sigma, N) (x)_T Sigma


def sigma_over_end(sigma, end):
    """Sigma as a (T, A)-bimodule, T = End^C(Sigma) acting by evaluation;
    vouched for when Sigma's carrier is valid: T's product is composition
    and its maps are right A-linear."""
    out = FBimodule(end.algebra, sigma.carrier.right_alg, sigma.dim,
                    list(end.basis_maps), list(sigma.carrier.right_act),
                    name=sigma.name)
    vouch(out, sigma.carrier, end.algebra)
    return out


def hom_tensor_sigma(space, sigma, end, name, message):
    """Hom(Sigma, N) (x)_T Sigma for a MatrixSpace of maps Sigma -> N, with T
    acting on the maps by precomposition; AxiomError(message) when that
    action leaves the space.  The maps form a right T-module, vouched for:
    h·t·t' = h∘t∘t' = h·(tt') and h·1 = h, T's product being composition."""
    right_acts = [space.coords_matrix((h.mul(t) for h in space.basis), message)
                  for t in end.basis_maps]
    hom_mod = FBimodule.right_module(end.algebra, space.dim, right_acts, name=name)
    vouch(hom_mod, end.algebra)
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
            f, self.nc.dim, (sigma.mc.induced(self.nc, [(0, h)], at=sigma.coaction)
                             for h in self.hom_basis)))
        if self.matrix is None:
            raise AxiomError("canonical map is not balanced over the "
                             "endomorphism algebra")
        # one reduction decides bijectivity and gives the inverse and the rank
        square = self.tens.dim == self.nc.dim
        self._rank, self._inverse = rank_inverse(self.matrix) if square else (None, None)
        self.bijective = self._inverse is not None

    def rank(self):
        """The rank of the map: kept from the inversion when the map is
        square, else one reduction on first use."""
        if self._rank is None:
            self._rank = rank(self.matrix)
        return self._rank

    def inverse(self):
        if not self.bijective:
            raise UsageError("canonical map is not invertible")
        return self._inverse

    def bijectivity(self):
        """Whether the map is bijective, with its shape and rank."""
        return Verdict("bijective" if self.bijective else "not bijective",
                       details="%dx%d, rank %d" % (self.matrix.rows, self.matrix.cols,
                                                   self.rank()))


def regular_right_module(alg, copies=1, name=None):
    """The free right module of the given rank over an algebra, vouched for
    when the algebra is valid (FBimodule.regular, direct_sum)."""
    free = FBimodule.right_module(alg, alg.dim, [alg.rmul(i) for i in range(alg.dim)])
    vouch(free, alg)
    return FBimodule.direct_sum([free] * copies,
                                name=name or ("%s^%d" % (alg.name, copies)))


def default_sample_modules(sigma):
    """Right modules used by on-samples verdicts: free rank 1 and 2, the
    coring carrier, and the comodule itself."""
    a = sigma.coring.base
    c = sigma.coring.carrier
    return [regular_right_module(a, 1), regular_right_module(a, 2),
            FBimodule.right_module(a, c.dim, list(c.right_act), name=sigma.coring.name),
            FBimodule.right_module(a, sigma.dim, list(sigma.carrier.right_act),
                                   name=sigma.name)]


class GaloisVerdict(namedtuple("GaloisVerdict", Verdict._fields + ("can_a",),
                               defaults=(None, None))):
    """galois_check's record: the three Verdict fields, and can_a, the
    canonical map at the base algebra, which rides along unprinted for the
    checks that invert it."""

    __slots__ = ()

    @property
    def holds(self):
        """Whether Sigma is Galois, certified or on the samples."""
        return self.verdict != "not-Galois"


def galois_check(sigma, end=None, samples=None):
    """Certified-Galois via the f.g. projective reduction, else on samples.

    When the comodule is f.g. projective over the base, bijectivity of the
    canonical map at the base algebra decides the Galois property exactly,
    graded certified; otherwise each sample module is tested, graded
    on-samples.
    """
    end = end or EndAlgebra(sigma)
    a = sigma.coring.base
    witness = fgp_check(sigma.carrier, "right", a)
    can_a = CanonicalMap(sigma, regular_right_module(a, 1), end=end)
    if witness is not None:
        return GaloisVerdict("certified-Galois" if can_a.bijective else "not-Galois",
                             "certified", can_a=can_a)
    sample_list = samples if samples is not None else default_sample_modules(sigma)
    if all(CanonicalMap(sigma, n_mod, end=end).bijective for n_mod in sample_list):
        return GaloisVerdict("Galois-on-samples", SAMPLED, can_a=can_a)
    return GaloisVerdict("not-Galois", SAMPLED, can_a=can_a)


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
    total = Matrix.zero(f, dst.dim, m.dim)
    for jt, j in pairs:
        k = space.coords_matrix(sd.pairing(m, Matrix.identity(f, m.dim), jt), message)
        total = total.add(md.mc.induced(dst, [(0, k), (1, j)], at=md.coaction))
    return total


def normal_basis_check(ext_ctx, cleft_data=None):
    """Weak/full normal basis verdicts with witnesses.

    Full: an invertible left-linear colinear map onto T (x) D, searched for
    deterministically (candidate from invertibility data, then sweep, then
    seeded trials); weak: a single split pair, searched the same way, with
    the family-level membership test as a sound negative certificate.

    The dimensions decide first, and the sweep looks only for what they
    leave open.  An isomorphism needs dim Sigma = dim T (x) D, so any gap
    disproves the full grade and the sweep stops at its first split pair.
    A split pair lam∘kappa = id_Sigma makes kappa injective, so
    dim Sigma > dim T (x) D disproves the weak grade as well, and no
    candidate is swept.
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
            kappa_inv = inverse(kappa)
            if kappa_inv is not None:
                full_found = (kappa, kappa_inv)

    for kappa in candidates:
        try_kappa(kappa)
        if full_found is not None and weak_found is not None:
            break
    # a dimension excess has settled both grades: no candidate is swept
    if (full_found is None or weak_found is None) and sigma.dim <= td_com.dim:
        for coeffs in seen_coeffs:
            kappa = space_st.element(coeffs)
            try_kappa(kappa)
            if (full_found is not None or not dim_ok_full) and weak_found is not None:
                break
    if full_found is not None:
        report["grade"] = "full"
        report["full"] = "found"
        report["weak"] = "implied"
        report["iso"], report["iso_inverse"] = full_found
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

    The dimensions of Sigma and T (x)_L D (T = End^C(Sigma)) settle what
    the search is for.  Sigma is cleft exactly when it is Galois with a
    normal basis Sigma ≅ T (x)_L D, so when the dimensions differ no j is
    graded 'cleft': the joint system is not solved, and the sweep returns
    its first weak hit.  A weak pair makes Sigma a summand of T (x)_L D
    (the weak normal basis lam∘kappa = id_Sigma, kappa injective), so
    dim Sigma > dim T (x)_L D refutes the weak grade before any candidate.

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
    jointly; a section failing the first fails both, and the joint system
    is not solved when the dimensions refute 'cleft' (_cleft_possible).
    Returns (grade, intertwiner coordinates) or None.  With weak_wanted
    False only the grade 'cleft' is looked for.
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
    full = solve_linear(conn, target) \
        if conn.cols and _cleft_possible(ext_ctx) else None
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


def _cleft_possible(ext_ctx):
    """Whether the dimensions leave the grade 'cleft' open: cleft is Galois
    with a normal basis Sigma ≅ T (x)_L D, so dim Sigma = dim T (x)_L D."""
    return ext_ctx.sigma.dim == ext_ctx.td[0].dim


def _cleft_without_data(ext_ctx):
    """The undirected sweep over the colinear sections j (see cleft_check).

    A dimension excess of Sigma over T (x)_L D refutes even the weak grade
    (a weak pair splits Sigma off T (x)_L D); a deficit refutes 'cleft'
    (cleft is Galois with Sigma ≅ T (x)_L D), so the sweep returns its
    first weak hit and solves no joint system."""
    f = ext_ctx.field
    # no data: a failed identity-membership certifies the negative
    surj, _ = ext_ctx.context.connecting(1)
    if not surj:
        return CleftData(None, None, "not-cleft")
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
        if got[0] == "cleft" or not _cleft_possible(ext_ctx):
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
                    # x -> n_ni·xi(x)
                    phi = n_mod.right_orbits()[ni].mul(sd.space.element(jt.col(c0)))
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
    first connecting map (witnesses, ExtContext.first_witnesses): the counit
    identity on the coring and the reconstruction identity on every listed
    comodule.  Not applicable when there are no witnesses."""
    if witnesses is None:
        return Verdict("not applicable: first connecting map not surjective")
    ext = ext_ctx.ext
    f = ext_ctx.field
    c = ext.inner
    sd = ext_ctx.qt.sigma_dual
    # (1) sum_l jtilde_l(c_[0])( j_l(c_[1]) ) = eps(c)
    pair = ext_ctx.pair_eval
    total = None
    for (jt, j) in witnesses:
        term = pair.mul(ext.cld.induced(None, [(0, jt), (1, j)], at=ext.tau))
        total = term if total is None else total.add(term)
    if total is None:
        total = Matrix.zero(f, c.base.dim, c.dim)
    if total != c.counit:
        raise AxiomError("unit decomposition: the counit identity fails")
    # (2) sum_l m_[0]^[0] jtilde_l(m_[0]^[1])( j_l(m_[1]) ) = m, for each comodule
    for m in comodules:
        md = ext_ctx.outer_comodule(m)
        acc = []
        for col in range(m.dim):
            rebuilt = zero_vec(f, m.dim)
            for (jt, j) in witnesses:
                for ((m0, dd), w) in md.mc.lift_pairs(md.coaction.col(col)):
                    jd = j.mul_vec(unit_vec(f, ext.outer.dim, dd))
                    for ((m1, ck), w2) in m.mc.lift_pairs(m.coaction.col(m0)):
                        a_val = sd.space.element(jt.col(ck)).mul_vec(jd)
                        contrib = m.carrier.right_orbits()[m1].mul_vec(
                            vec_scale(f, f.mul(w, w2), a_val))
                        rebuilt = [f.add(u, v) for u, v in zip(rebuilt, contrib)]
            acc.append(rebuilt)
        if Matrix.from_cols(f, m.dim, acc) != Matrix.identity(f, m.dim):
            raise AxiomError("unit decomposition: the reconstruction identity "
                             "fails on %s" % m.name)
    return Verdict("pass")


def check_generator_property(ext_ctx):
    """When the first connecting map and the inner counit are surjective, the
    comodule generates the right modules of the base algebra; the witness is
    rebuilt from the unit decomposition and evaluated.

    The counit is bilinear, so its image is an ideal of the base algebra,
    which is everything exactly when it holds 1 (the argument of
    MoritaContext.connecting): one solve of eps(c) = 1 decides surjectivity
    and gives the element c the witness is evaluated at."""
    ext = ext_ctx.ext
    f = ext_ctx.field
    c = ext.inner
    sigma = ext_ctx.sigma
    witnesses = ext_ctx.first_witnesses
    if witnesses is None:
        return Verdict("not applicable: first connecting map not surjective")
    cvec = solve_linear(c.counit, list(c.base.unit))
    if cvec is None:
        return Verdict("not applicable: counit not surjective")
    # sum_l jtilde_l(c_[0])(j_l(c_[1])), the pairing after tau at c
    at = ext.tau.mul(Matrix.column(f, cvec))
    total = Matrix.zero(f, c.base.dim, 1)
    for (jt, j) in witnesses:
        total = total.add(ext_ctx.pair_eval.mul(
            ext.cld.induced(None, [(0, jt), (1, j)], at=at)))
    if total.col(0) != list(c.base.unit):
        raise AxiomError("generator witness does not evaluate to the unit")
    gen = generator_check(sigma.carrier, "right", c.base)
    if gen is None:
        raise AxiomError("generator check failed although the witness exists")
    return Verdict("pass", details={})


def check_equivariant_projectivity(ext_ctx):
    """From a unit decomposition, the left action of the endomorphism algebra
    splits equivariantly: the constructed coretraction is verified linear,
    colinear and a section of the action."""
    f = ext_ctx.field
    sigma = ext_ctx.sigma
    end = ext_ctx.end
    witnesses = ext_ctx.first_witnesses
    if witnesses is None:
        return Verdict("not applicable: first connecting map not surjective")
    d = ext_ctx.ext.outer
    sigma_d = ext_ctx.sigma_d
    sig_l = FBimodule(d.base, d.base, sigma.dim, list(sigma.carrier.left_act),
                      sigma_d.carrier.right_act, name=sigma.name)
    tsd, ts = tensor_comodule(ext_ctx.t_bim, sig_l, d, sigma_d.coaction_amb, "T(x)Sigma")
    sect = witness_splitting(ext_ctx, sigma, ts, witnesses, end.space,
                             "coretraction leaves the endomorphism algebra")
    # the action map and the section compose to the identity
    if ext_ctx.apply_t.mul(ts.lift(sect)) != Matrix.identity(f, sigma.dim):
        raise AxiomError("coretraction is not a section of the action")
    # T-linearity: sect(t(x)) = t·sect(x)
    for t, t_map in enumerate(end.basis_maps):
        if sect.mul(t_map) != ts.left_act[t].mul(sect):
            raise AxiomError("coretraction is not equivariant")
    # colinearity over the outer coring
    lhs = tsd.coaction.mul(sect)
    rhs = sigma_d.mc.induced(tsd.mc, [(0, sect)], at=sigma_d.coaction)
    if lhs != rhs:
        raise AxiomError("coretraction is not colinear")
    return Verdict("pass", details={})


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
    explicit inverse built from the unit decomposition verified two-sided;
    graded on-samples."""
    witnesses = ext_ctx.first_witnesses
    if witnesses is None:
        return Verdict("not applicable: first connecting map not surjective", SAMPLED)
    for m in samples:
        _counit_inverse(ext_ctx, m, witnesses)
    return Verdict("pass", SAMPLED, {"samples": [[m.name, True] for m in samples]})


verify_weak_structure.grade = SAMPLED


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
    first; None when the membership fails.

    The outer counit is bilinear, so its image is an ideal of L, which is
    everything exactly when it holds 1 (the argument of
    MoritaContext.connecting): one solve of eps(d) = 1 decides whether the
    counit is surjective and, when it is, gives the decomposition."""
    f = ext_ctx.field
    d = ext_ctx.ext.outer
    t_alg = ext_ctx.t_alg
    if t_alg.dim == 0:
        return {"pairs": [], "path": "zero algebra"}
    # unit_v(d) = eps(d)·1_T, so any d with eps(d) = 1 decomposes 1_T
    unit_v = ext_ctx._v_unit_matrix()
    wit = span_witness(f, [((unit_v, dd), d.counit.col(dd)) for dd in range(d.dim)],
                       d.base.unit)
    if wit is not None:
        if ext_ctx.v_space.coords(unit_v) is None:
            raise AxiomError("convolution unit is not a bilinear map")
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
    built from second-connecting-map witnesses verified two-sided; graded
    on-samples, and not applicable unless the second connecting map is
    surjective.  Kept on cm; a failure raises and is not kept, so each
    caller sees it."""
    if cm.fullyfaithful is None:
        cm.fullyfaithful = _tensor_fullyfaithful(cm)
    return cm.fullyfaithful


tensor_fullyfaithful_check.grade = SAMPLED


def _tensor_fullyfaithful(cm):
    ok, wit = cm.context.connecting(2)
    if not ok:
        return Verdict("not applicable: second connecting map not surjective", SAMPLED)
    t_alg = cm.end.algebra
    samples_t = [regular_right_module(t_alg, 1, name="T"),
                 regular_right_module(t_alg, 2, name="T^2")] if t_alg.dim else []
    sigma = cm.sigma
    f = sigma.field
    sdim = sigma.dim
    sigma_t = sigma_over_end(sigma, cm.end)
    rho = sigma.coaction_amb
    # for each witness (x, q): x and the map y -> conn2(y (x) q), Sigma -> T
    conn2_amb = cm.context.conn_amb[1]
    qdim = cm.q.dim
    splits = [(xvec, Matrix(f, conn2_amb.rows, sdim,
                            [unflatten(f, sdim, qdim, row).mul_vec(qvec)
                             for row in conn2_amb.data]))
              for (xvec, qvec) in wit]
    results = []
    for n_mod in samples_t:
        # N (x)_T Sigma with N (x) rho: vouched for when N and Sigma are
        # valid (and checked otherwise), since rho is left T-linear (T is
        # colinear) and counital and coassociative
        ncom, tens_n = tensor_comodule(n_mod, sigma_t, sigma.coring, rho,
                                       n_mod.name + "(x)Sigma")
        vouch(ncom, n_mod, sigma_t, sigma, check=ncom.validate)
        space = colinear_homs(sigma, ncom)
        homs = space.basis
        # the unit n -> (x -> n (x) x): the insertion x -> e_n (x) x, projected
        eta = space.coords_matrix(
            (tens_n.project_head(from_sparse_cols(f, tens_n.ambient_dim,
                                                  [[(ni * sdim + x, f.one)]
                                                   for x in range(sdim)]), 1)
             for ni in range(n_mod.dim)),
            "adjunction unit is not colinear on %s" % n_mod.name)
        # explicit inverse from the witnesses: h -> sum h(x)·conn2(- (x) q),
        # through n (x) y -> n·conn2(y (x) q)
        etainv = Matrix.zero(f, n_mod.dim, len(homs))
        right_eval = n_mod.right_eval()
        for xvec, c_q in splits:
            at = Matrix.from_cols(f, tens_n.dim, [hmat.mul_vec(xvec) for hmat in homs])
            etainv = etainv.add(right_eval.mul(tens_n.induced(None, [(1, c_q)], at=at)))
        if etainv.mul(eta) != Matrix.identity(f, n_mod.dim):
            raise AxiomError("adjunction unit inverse fails on %s (left)" % n_mod.name)
        if eta.mul(etainv) != Matrix.identity(f, len(homs)):
            raise AxiomError("adjunction unit inverse fails on %s (right)" % n_mod.name)
        results.append([n_mod.name, True])
    return Verdict("pass", SAMPLED, {"samples": results})


def verify_strong_structure(ext_ctx, samples_c):
    """Strictness plus a unit decomposition give inverse equivalences on the
    sample lists; graded on-samples."""
    ctx = ext_ctx.context
    if not ctx.strict:
        missing = [name for k, name in ((1, "first connecting map"),
                                        (2, "second connecting map"))
                   if not ctx.connecting(k)[0]]
        return Verdict("not applicable: context not strict (%s)" % ", ".join(missing),
                       SAMPLED)
    decomp = unit_decomposition_of_one(ext_ctx)
    if decomp is None:
        return Verdict("not applicable: no unit decomposition of 1_T", SAMPLED)
    if not ext_ctx.cm.context.connecting(2)[0]:
        raise AxiomError("strict context but the second connecting map of the "
                         "comodule context is not surjective")
    ff = tensor_fullyfaithful_check(ext_ctx.cm)
    if ext_ctx.first_witnesses is None:
        raise AxiomError("strict context but the first connecting map is not "
                         "surjective")
    ws = verify_weak_structure(ext_ctx, samples_c)
    return Verdict("equivalence verified on samples", SAMPLED,
                   {"unit_path": decomp["path"], "unit_samples": ff.details["samples"],
                    "counit_samples": ws.details["samples"]})


verify_strong_structure.grade = SAMPLED


def verify_surjectivity_thm(ext_ctx):
    """Both sides of the two summand biconditionals, computed independently;
    disagreement raises (the statements are proved, so it means a bug)."""
    ext = ext_ctx.ext
    f = ext_ctx.field
    lhs1, _ = ext_ctx.context.connecting(1)
    gal = sigma_galois(ext_ctx.cm)
    td_tens = ext_ctx.td[1]
    space_st, space_ts = ext_ctx.bicomodule_homs
    s_fam = ext_ctx.sigma_summand
    rhs1 = gal.holds and s_fam is not None
    if lhs1 != rhs1:
        raise AxiomError("surjectivity criterion part 1: the two sides disagree "
                         "(implementation error)")
    if lhs1:
        # constructive re-derivation of a unit decomposition from the summand data
        rebuilt = _rebuild_witnesses(ext_ctx, td_tens, s_fam, gal.can_a)
        total = None
        for (jt, j) in rebuilt:
            term = ext_ctx.diamond_black(jt, j)
            total = term if total is None else total.add(term)
        if total != Matrix.identity(f, ext.inner.dim):
            raise AxiomError("rebuilt summand witnesses do not decompose the "
                             "identity")
    z_fam = summand_witnesses(space_ts, space_st)
    lhs2 = ext_ctx.context.strict
    rhs2 = rhs1 and z_fam is not None
    if lhs2 != rhs2:
        raise AxiomError("surjectivity criterion part 2: the two sides disagree "
                         "(implementation error)")
    return Verdict("pass", details={"part1": lhs1, "galois": gal.verdict,
                                    "s": len(s_fam) if s_fam else None,
                                    "part2": lhs2, "z": len(z_fam) if z_fam else None})


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
    sd = ext_ctx.qt.sigma_dual
    t_eval = ext_ctx.t_bim.right_eval()
    c = ext.inner
    # can_a^-1(1 (x) c_k) for every k, in Hom(Sigma, A) (x)_T Sigma
    ys = can_a.inverse().mul(Matrix.from_cols(f, can_a.nc.dim, [
        can_a.nc.pure_tensor([list(c.base.unit), unit_vec(f, c.dim, ck)])
        for ck in range(c.dim)]))
    # h_b (x) t -> h_b∘t, flattened, on the ambient Hom(Sigma, A) x T
    compose = Matrix.from_cols(f, c.base.dim * sigma.dim, [
        flatten_matrix(h.mul(t)) for h in can_a.hom_basis for t in end.basis_maps])
    out = []
    for (kappa, kappatilde) in pairs:
        # T (x)_L D -> T, t (x) d -> t·eps(d), after kappa
        t_eps = t_eval.mul(td_tens.induced(None, [(1, d.counit)], at=kappa))
        j_cols = [kappatilde.mul_vec(td_tens.pure_tensor(
            [list(t_alg.unit), unit_vec(f, d.dim, dd)])) for dd in range(d.dim)]
        j_mat = Matrix.from_cols(f, sigma.dim, j_cols)
        # jtilde(c_k) = sum h_b∘t_eps(x) over can_a^-1(1 (x) c_k) = sum h_b (x) x
        phis = compose.mul(can_a.tens.induced(None, [(1, t_eps)], at=ys))
        jt_mat = sd.space.coords_matrix(
            (unflatten(f, c.base.dim, sigma.dim, phis.col(ck)) for ck in range(c.dim)),
            "rebuilt intertwiner leaves the dual module")
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
    if not ok2:
        return Verdict("not applicable: second connecting map not surjective")
    if unit_decomposition_of_one(ext_ctx) is None:
        return Verdict("not applicable: no unit decomposition of 1_T")
    okm, _ = ext_ctx.cm.context.connecting(2)
    if not okm:
        raise AxiomError("second connecting map of the comodule context is not "
                         "surjective (implementation error)")
    sigma = ext_ctx.sigma
    witness = fgp_check(sigma.carrier, "right", sigma.coring.base)
    if witness is None:
        raise AxiomError("comodule is not f.g. projective although the second "
                         "connecting map is surjective")
    t_alg = ext_ctx.t_alg
    t_left = FBimodule.left_module(t_alg, t_alg.dim,
                                   [t_alg.lmul(i) for i in range(t_alg.dim)], name="T")
    sig_left = FBimodule.left_module(t_alg, sigma.dim, list(ext_ctx.end.basis_maps),
                                     name=sigma.name)
    wit = summand_witnesses(hom_space(t_left, sig_left, left_linear=True),
                            hom_space(sig_left, t_left, left_linear=True))
    if wit is None:
        raise AxiomError("endomorphism algebra is not a summand of a power of "
                         "the comodule")
    return Verdict("pass", details={"triangle_surjective": True, "sigma_fgp": True,
                                    "z": len(wit)})


class InvertibilityVerdict(namedtuple("InvertibilityVerdict", Verdict._fields + (
        "cleft", "galois", "normal_basis", "agreement"))):
    """verify_cor_jJ's record: the three Verdict fields, and the records of
    the four lines `coringlab cleft` prints from the same run: the
    invertibility grade, Sigma's Galois record, the normal-basis grade and
    whether the criterion was decided."""

    __slots__ = ()


def verify_cor_jJ(ext_ctx, j=None, jtilde=None):
    """Independent evaluation of cleftness, the Galois property and normal
    bases, with both biconditionals asserted whenever all sides are decided;
    graded inconclusive when a search left a side undecided."""
    cleft = cleft_check(ext_ctx, j=j, jtilde=jtilde)
    gal = sigma_galois(ext_ctx.cm)
    cleft_for_nb = cleft if cleft is not None and cleft.grade in ("cleft", "weak-cleft") \
        and cleft.j is not None else None
    nb = normal_basis_check(ext_ctx, cleft_data=cleft_for_nb)["grade"]
    grade = cleft.grade if cleft is not None else "not-cleft"
    decided = grade != "unresolved" and nb != "inconclusive"
    if decided:
        if (grade == "cleft") != (gal.holds and nb == "full"):
            raise AxiomError("invertibility criterion (full) sides disagree "
                             "(implementation error)")
        if (grade in ("cleft", "weak-cleft")) != (gal.holds and nb in ("full", "weak")):
            raise AxiomError("invertibility criterion (weak) sides disagree "
                             "(implementation error)")
    sure = "exact" if decided else "inconclusive"
    return InvertibilityVerdict(
        "pass" if decided else "undecided (search inconclusive)", sure,
        {"cleft_grade": grade, "galois": gal.verdict, "normal_basis": nb},
        cleft=Verdict(grade, "inconclusive" if grade == "unresolved" else "exact"),
        galois=gal,
        normal_basis=Verdict(nb, "inconclusive" if nb == "inconclusive" else "exact"),
        agreement=Verdict("agree" if decided else "undecided", sure))


def verify_fgp_corollary(ext_ctx):
    """With a surjective first connecting map, surjectivity of the comodule
    context's first map is equivalent to the coring being f.g. projective
    over its base on the left."""
    ok, _ = ext_ctx.context.connecting(1)
    if not ok:
        return Verdict("not applicable: first connecting map not surjective")
    okm, _ = ext_ctx.cm.context.connecting(1)
    c = ext_ctx.ext.inner
    witness = fgp_check(c.carrier, "left", c.base)
    if okm != (witness is not None):
        raise AxiomError("projectivity corollary sides disagree "
                         "(implementation error)")
    return Verdict("pass", details={"triangle1_surjective": okm,
                                    "coring_fgp": witness is not None})


def check_dual_basis_from_witnesses(cm):
    """Rebuild dual bases from connecting-map witnesses, per the two
    surjectivity consequences, and verify the reconstruction identities.
    The verdict names the dual bases rebuilt, as the repr of a dict, and is
    "not applicable" when neither connecting map is surjective."""
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
                contrib = c.carrier.left_orbits()[cj].mul_vec(vec_scale(f, w, a_val))
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
                    contrib = sigma.carrier.right_orbits()[m].mul_vec(vec_scale(f, w, a_val))
                    acc = [f.add(u, v) for u, v in zip(acc, contrib)]
            if acc != unit_vec(f, sigma.dim, y):
                raise AxiomError("dual basis reconstruction fails for the comodule")
        witness = fgp_check(sigma.carrier, "right", c.base)
        if witness is None:
            raise AxiomError("comodule not f.g. projective although the second "
                             "connecting map is surjective")
        out["comodule_dual_basis"] = True
    return Verdict(str(out) if out else "not applicable")


def verify_strictness_three_way(cm, samples_c):
    """Three-way agreement for a left f.g. projective coring: strictness of
    the comodule context, the Galois-plus-projectivity side, and the
    sample-equivalence surrogate must coincide.

    The universally quantified flatness clause has no finite certificate; it
    is replaced by bijectivity of the adjunction unit on the context's
    T-samples and of the counit on samples_c, so the check is graded
    on-samples.
    """
    sigma = cm.sigma
    c = sigma.coring
    if fgp_check(c.carrier, "left", c.base) is None:
        return Verdict("not applicable: coring not f.g. projective over its base",
                       SAMPLED)
    strict = cm.context.strict
    gal = sigma_galois(cm)
    sigma_fgp = fgp_check(sigma.carrier, "right", c.base) is not None
    # raises unless the adjunction unit is bijective where it applies, which
    # is where the second connecting map is surjective
    tensor_fullyfaithful_check(cm)
    equivalence = cm.context.connecting(2)[0]
    if equivalence:
        for m in samples_c:
            counit, tens, _ = sample_counit(cm, m)
            if not (rank(counit) == tens.dim == m.dim):
                equivalence = False
                break
    if strict != (gal.holds and sigma_fgp and equivalence):
        raise AxiomError("strictness three-way agreement fails "
                         "(implementation error)")
    return Verdict("pass", SAMPLED, {"strict": strict, "galois": gal.verdict,
                                     "sigma_fgp": sigma_fgp,
                                     "equivalence": "verified on samples" if equivalence
                                     else "fails"})


verify_strictness_three_way.grade = SAMPLED
