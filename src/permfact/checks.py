"""The verification checks: the dictionary, one check per entry.

Each check ties a factorisation-side computation to a minimal-model fact.  It
is one top-level function ``(d, l) -> (ok, detail)`` declared once by
``@check(suite, paper_ref, applies=None)``; its name is the function's name,
and declaration order is report order.  ``applies(d)`` leaves a check out of
the report at the moduli where another check stands in for it.

``build_checks(d, l, suites)`` validates its inputs (odd ``d >= 3``,
``gcd(l, d) = 1``, suites from ``SUITES``; ``ValueError`` otherwise) and
returns the applicable checks of the selected suites bound to ``(d, l)``.
Check bodies reach the domain functions through their modules
(``mfcore.perm_mf``), so a patched module attribute reaches them too.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, NamedTuple, Optional

from . import cftside, correspondence, graded, invariants, mfcore, temperleylieb
from .cyclofield import CycNum, kappa
from .graded import GradedLabel
from .polyring import MPoly

__all__ = ["SUITES", "FULL_EQUIVARIANCE_MAX_D", "CheckSpec", "REGISTRY", "check", "Check", "build_checks"]

SUITES = ("core", "graded", "tl", "cft", "equivariance", "equivalence")

# tau_cocycle covers every proper subset up to this d and only the
# consecutive ones beyond it, naming the cut in its detail: with one cocycle
# per rotation orbit the whole equivariance suite takes about 1.4 s and 36 MB
# at d = 11, while the uncut cocycle alone would take 7-8.5 s and 104 MB at
# d = 13 and 31-36 s and 388 MB at d = 15 (l = 2, 2-core x86-64 VM, CPython 3.11).
FULL_EQUIVARIANCE_MAX_D = 11


class CheckSpec(NamedTuple):
    name: str
    suite: str
    paper_ref: str
    fn: Callable
    applies: Optional[Callable]


REGISTRY: list[CheckSpec] = []


def check(suite, paper_ref, applies=None):
    """Declare the decorated function as the check of its name."""

    def declare(fn):
        REGISTRY.append(CheckSpec(fn.__name__, suite, paper_ref, fn, applies))
        return fn

    return declare


class Check:
    """A declared check bound to one modulus d and root exponent l."""

    def __init__(self, spec: CheckSpec, d: int, l: int):
        self.name, self.suite, self.paper_ref = spec.name, spec.suite, spec.paper_ref
        self.fn, self.d, self.l = spec.fn, d, l

    def run(self):
        ok, detail = self.fn(self.d, self.l)
        return {"name": self.name, "paper_ref": self.paper_ref, "status": "pass" if ok else "fail", "detail": detail}


def build_checks(d, l, suites):
    for name, value in (("d", d), ("the root exponent", l)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {value!r}")
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be an odd integer >= 3, got {d}")
    if gcd(l, d) != 1:
        raise ValueError(f"the root exponent must be coprime to d = {d}, got {l}")
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    return [
        Check(spec, d, l)
        for spec in REGISTRY
        if spec.suite in suites and (spec.applies is None or spec.applies(d))
    ]


def _consecutive_subsets(d):
    return [GradedLabel(d, a, lam).subset for a in range(d) for lam in range(d - 1)]


def _rotation_detail(d, S):
    """For a subset that failed its orbit certificate (correspondence
    docstring): the detail when sigma_c does not take its base onto it, or
    None when it is a base, whose own certificate failed."""
    R, c = correspondence.orbit_base(d, S)
    return f"{sorted(S)} is not the rotation of {sorted(R)}" if c else None


def _proper_subsets(d):
    return [frozenset(i for i in range(d) if mask >> i & 1) for mask in range(1, 2**d - 1)]


# -- core suite -------------------------------------------------------------------


@check("core", "d1.d0 = d0.d1 = (x^d - y^d).1")
def factorisation_conditions(d, l):
    # the orbit bases P_{0:lam}, carried to every other label (correspondence docstring)
    certify = lambda R: mfcore.verify_factorisation(mfcore.perm_mf(d, R, l=l))
    bad = correspondence.orbit_failure(d, _consecutive_subsets(d), certify, l)
    if bad is not None:
        return False, _rotation_detail(d, bad) or f"failed on {sorted(bad)}"
    A = mfcore.perm_mf(d, {0, 1}, "x", "y1", l=l)
    B = mfcore.perm_mf(d, {1, 2}, "y1", "z", l=l)
    if not mfcore.verify_factorisation(mfcore.tensor_mf(A, B)):
        return False, "tensor product failed"
    return True, f"{d * (d - 1)} consecutive objects + a tensor product"


@check("core", "(P_S)+ ~ P_{-S}")
def dual_comparison_isos(d, l):
    for lab in _consecutive_subsets(d):
        if not invariants.is_homotopy_iso(mfcore.perm_dual_iso(d, lab, l=l)):
            return False, f"failed on {sorted(lab)}"
    return True, "dual comparison cycles are homology isomorphisms"


@check("core", "lambda_M, rho_M with strict sections")
def unit_isomorphisms(d, l):
    T = mfcore.perm_mf(d, mfcore.self_dual_subset(d), "x", "z", l=l)
    lam, rho = mfcore.unit_isos(T)
    sl, sr = mfcore.unit_sections(T)
    ok = sl.is_cycle() and sr.is_cycle()
    ok = ok and lam.compose(sl).equals(mfcore.identity_morphism(T))
    ok = ok and rho.compose(sr).equals(mfcore.identity_morphism(T))
    # is_homotopy_iso tests that lam and rho are cycles
    ok = ok and invariants.is_homotopy_iso(lam) and invariants.is_homotopy_iso(rho)
    return ok, "unit isos are cycles with strict sections; homology-invertible"


@check("core", "residue-operator duality maps")
def ev_coev_cycles(d, l):
    T = mfcore.perm_mf(d, mfcore.self_dual_subset(d), l=l)
    ev, coev = mfcore.ev_coev(T)
    return ev.is_cycle() and coev.is_cycle(), "ev and coev are cycles"


@check("core", "u.n = kappa.1_I, kappa = 2cos(pi/d)")
def kappa_identity(d, l):
    u, n, T, t = mfcore.duality_un(d, l)
    un = u.compose(n)
    k = MPoly.constant(d, kappa(d, l))
    ok = un.f0[0][0] == k and un.f1[0][0] == k
    extra = ""
    if d == 3 and l == 1:
        extra = "; kappa(3) = 1" if kappa(3) == CycNum.one(3) else "; kappa(3) != 1"
        ok = ok and kappa(3) == CycNum.one(3)
    return ok, f"u.n = kappa exactly (2cos(pi*{l}/{d}) ~ {kappa(d, l).to_complex().real:+.6f}){extra}"


@check("core", "duality zig-zags for (T, u, n)")
def zigzag_identities(d, l):
    zz1, zz2 = mfcore.zigzag_morphisms(d, l)
    # an odd charge -1 homotopy hat(T) -> hat(T) has every entry forced to
    # zero, so homotopic to 1_T means equal to 1_T
    T_hat = graded.hat_p(d, mfcore.self_dual_subset(d), l=l)
    table0, table1 = graded.graded_homotopy_degrees(T_hat, T_hat)
    if any(deg is not None for row in table0 + table1 for deg in row):
        return False, "graded degrees leave room for a nonzero homotopy"
    idT = mfcore.identity_morphism(zz1.src)
    if not (zz1.equals(idT) and zz2.equals(idT)):
        return False, "a composite differs from 1_T"
    return True, "both composites equal 1_T on the nose (graded bound leaves no homotopy freedom)"


# -- graded suite -----------------------------------------------------------------


@check("graded", "hat(P_S) = P_S{(1-|S|)/d}")
def graded_objects(d, l):
    for lab in _consecutive_subsets(d):
        if not graded.graded_check(graded.hat_p(d, lab, l=l)):
            return False, f"failed on {sorted(lab)}"
    return True, "charge-1 condition on every consecutive hat object"


@check("graded", "g-/g+ embeddings of the two summands")
def decomposition_certificates(d, l):
    # each (0, 0, mu) pair is certified and carried to every (a, b) along
    # sigma, which acts on the four objects by label rotations (graded
    # module docstring)
    for mu in range(1, d - 1):
        res = graded.g_pair_certified(d, 0, 0, mu, l)
        if not res["ok"]:
            return False, f"(a,b,mu)=(0,0,{mu}): {res}"
    bad = correspondence.orbit_failure(d, _consecutive_subsets(d), lambda R: True, l)
    if bad is not None:
        return False, _rotation_detail(d, bad)
    return True, f"{d * d * (d - 2)} certified embedding pairs (cycles, charge 0, homology isos, dims)"


@check("graded", "charge-0 cycles are C.1 iff R = S")
def graded_hom_rigidity(d, l):
    # the rows of the orbit bases: dim hom(R + a, S + a) = dim hom(R, S)
    # (correspondence docstring)
    subsets = _consecutive_subsets(d)

    def off_delta(R):
        """The detail naming the first S with dim hom(R, S) != delta_RS, or None."""
        for S in subsets:
            dim = graded.graded_hom_dim(d, R, S, l)
            if dim != (1 if R == S else 0):
                return f"dim hom({sorted(R)}, {sorted(S)}) = {dim}"
        return None

    bad = correspondence.orbit_failure(d, subsets, lambda R: off_delta(R) is None, l)
    if bad is not None:
        # a failed base row is computed again, to name the pair
        return False, _rotation_detail(d, bad) or off_delta(bad)
    return True, f"hom dimension is delta_RS over {len(subsets)}^2 pairs"


@check("graded", "summand index fixed by rigidity of T")
def fusion_index_convention(d, l):
    aT = (d - 1) // 2
    unit = GradedLabel(d, 0, 0)
    plus = graded.decompose_product(d, aT, 1, aT, 1, l, index_sign=1)
    minus = graded.decompose_product(d, aT, 1, aT, 1, l, index_sign=-1)
    ok = unit in plus and unit not in minus
    detail = (
        "first summand index a+b+(lam+mu-nu)/2 certified by the homology oracle; "
        "the alternative a+b-(lam+mu-nu)/2 fails rigidity (unit absent from T (x) T: "
        f"{[s.key() for s in minus]})"
    )
    return ok, detail


# -- temperley-lieb suite -----------------------------------------------------------


@check("tl", "e_i^2 = kappa e_i; e_i e_{i+-1} e_i = e_i")
def tl_relations(d, l):
    for n in (2, 3, 4):
        for i in range(1, n):
            e = temperleylieb.tl_e(d, n, i, l)
            if not e.compose(e).equals(e.scaled(kappa(d, l))):
                return False, f"e_{i}^2 != kappa e_{i} on {n} strands"
            if i + 1 < n:
                e2 = temperleylieb.tl_e(d, n, i + 1, l)
                if not e.compose(e2).compose(e).equals(e):
                    return False, f"e_{i} e_{i + 1} e_{i} != e_{i}"
            for j in range(1, n):
                if abs(i - j) > 1:
                    ej = temperleylieb.tl_e(d, n, j, l)
                    if not e.compose(ej).equals(ej.compose(e)):
                        return False, f"[e_{i}, e_{j}] != 0"
    return True, "loop, absorption, and commutation relations on up to 4 strands"


@check("tl", "recursion with [n]/[n+1] coefficients")
def jones_wenzl_projectors(d, l):
    # idempotence follows from the characterisation (temperleylieb.certify_jw)
    for n in range(1, d):
        try:
            temperleylieb.certify_jw(temperleylieb.jw(n, d, l))
        except temperleylieb.NotJonesWenzl as exc:
            return False, str(exc)
    return True, f"p_1..p_{d - 1}: idempotent, cap-killed, trace [n+1]"


@check("tl", "cap -> u, cup -> n functor data")
def functor_respects_relations(d, l):
    e1 = temperleylieb.tl_e(d, 2, 1, l)
    Fe1 = temperleylieb.evaluate_F(e1)
    if not Fe1.is_cycle():
        return False, "F(e_1) is not a cycle"
    if not Fe1.compose(Fe1).equals(Fe1.scaled(kappa(d, l))):
        return False, "F(e_1)^2 != kappa F(e_1)"
    zz1, zz2 = mfcore.zigzag_morphisms(d, l)
    idT = mfcore.identity_morphism(zz1.src)
    ok = zz1.equals(idT) and zz2.equals(idT)
    return ok, "F(e_1)^2 = kappa F(e_1) strictly; zig-zag composites equal 1_T"


@check("tl", "null-homotopy of F(p_{d-1})", applies=lambda d: d == 3)
def jw_vanishing_direct(d, l):
    p2 = temperleylieb.jw(2, d, l)
    Fp2 = temperleylieb.evaluate_F(p2)
    gm, gp, Qm, Qp, AB = graded.g_pair(d, 1, 1, 1, l)
    c_minus = Fp2.compose(gm.renamed({"y": "y1"}))
    c_plus = Fp2.compose(gp.renamed({"y": "y1"}))
    if not c_minus.is_zero():
        return False, "F(p_2) does not kill the surviving summand"
    # the forced degrees depend only on the charges, which the renaming keeps
    h = invariants.homotopy_solve(c_plus, c_plus.scaled(0), graded.graded_homotopy_degrees(Qp, AB))
    ok = h is not None and h.delta().equals(c_plus)
    return ok, "F(p_2).g- = 0 strictly; F(p_2).g+ null-homotopic at the forced charge"


@check("tl", "non-faithfulness by dimension count", applies=lambda d: d != 3)
def jw_vanishing_endomorphism_count(d, l):
    # factorisation side: T (x) P_{a:d-2} is a single simple summand
    aT = (d - 1) // 2
    summands = graded.decompose_product(d, aT, 1, 0, d - 2, l)
    if len(summands) != 1:
        return False, f"tensor with the top label has {len(summands)} summands"
    s = summands[0]
    mf_dim = graded.graded_hom_dim(d, s.subset, s.subset, l)
    res = graded.g_pair_certified(d, aT, 0, d - 2, l)
    if not res["ok"]:
        return False, "decomposition certificate failed at mu = d-2"
    # diagram side: End(T (x) T_{d-2}) is 2-dimensional
    try:
        tl_dim_end = temperleylieb.tl_end_dimension(d, l)
    except temperleylieb.NotJonesWenzl as exc:
        return False, f"the spanning set needs p_{d - 2}: {exc}"
    ok = mf_dim == 1 and tl_dim_end == 2
    return ok, (
        f"dim End(T^ (x) P^_{{a:{d - 2}}}) = {mf_dim} < {tl_dim_end} = "
        "dim End_TL(T (x) T_{d-2}): the functor is not faithful"
    )


# -- cft suite --------------------------------------------------------------------


@check("cft", "h = l(l+2)/4d + s^2/8 - r^2/4d")
def conformal_weights(d, l):
    ok = cftside.h_weight(d, d - 2, d, 2) == 0
    ok = ok and cftside.h_weight(d, 0, 0, 0) == 0
    return ok, "h(d-2, d, 2) = 0 mod 1; h(0,0,0) = 0"


@check("cft", "local iff l+r+s even")
def locality_classification(d, l):
    for ll in range(d - 1):
        for r in range(2 * d):
            for s in range(4):
                a, b = cftside.induce(d, ll, r, s)
                diff = cftside.h_weight(d, b.l, b.r, b.s) - cftside.h_weight(d, a.l, a.r, a.s)
                if (diff.denominator == 1) != cftside.is_local(d, ll, r, s):
                    return False, f"mismatch at [{ll},{r},{s}]"
    return True, f"parity criterion matches the weight computation on all {8 * d * (d - 1)} labels"


@check("cft", "Muger-centraliser membership of [0,2,0]")
def twist_additivity(d, l):
    ok = cftside.twist_additive(d, cftside.SimpleE(d, 0, 2, 0), cftside.SimpleE(d, 1, d, 0))
    return ok, "[0,2,0] centralises the tensor generator"


@check("cft", "dim[l] = [l+1]_q at q = e^{i pi/d}")
def quantum_dimensions(d, l):
    if cftside.quantum_dim(d, 1, l) != kappa(d, l):
        return False, "dim[1] != kappa"
    if not cftside.su2_fusion_ring(d).dimension_homomorphism_ok(lambda m: cftside.quantum_dim(d, m, l)):
        return False, "dimension homomorphism fails"
    return True, "dim[1] = kappa; dims are multiplicative on fusion"


@check("cft", "NS sector = su(2)-type part x Z_d")
def ns_fusion_ring(d, l):
    R = cftside.cft_fusion_ring(d)
    ok = (
        len(R.labels) == d * (d - 1)
        and R.unit_ok()
        and R.is_commutative()
        # associativity of the su(2) part suffices once factorisation_ok
        # shows NS fusion is that part times Z_d
        and cftside.su2_fusion_ring(d).is_associative()
        and R.rigid_dual_ok(lambda L: L.dual())
        and cftside.generators_reach_all(d)
        and cftside.factorisation_ok(d)
    )
    return ok, f"{d * (d - 1)} NS labels; ring axioms, generators, and the product factorisation"


# -- equivariance suite --------------------------------------------------------------


@check("equivariance", "((a)tau_b).tau_a = tau_{a+b}")
def tau_cocycle(d, l):
    if d <= FULL_EQUIVARIANCE_MAX_D:
        subsets, scope = _proper_subsets(d), ""
    else:
        subsets = _consecutive_subsets(d)
        scope = f" (the consecutive ones of {2**d - 2} proper subsets, cut at d > {FULL_EQUIVARIANCE_MAX_D})"
    # one cocycle per rotation orbit, carried to the rest (correspondence docstring)
    bad = correspondence.orbit_failure(d, subsets, lambda R: correspondence.tau_cocycle_ok(d, R, l), l)
    if bad is not None:
        return False, f"failed on {sorted(bad)}"
    return True, f"tau cocycle over {len(subsets)} subsets{scope}, all group pairs"


@check("equivariance", "equivariance squares of u, n")
def duality_maps_equivariant(d, l):
    return correspondence.un_equivariant_ok(d, l), "u and n intertwine the twists"


@check("equivariance", "coev squares of P_S")
def coev_equivariant(d, l):
    for S in ({0}, {1, 2}):
        if not correspondence.coev_square_ok(d, S, l):
            return False, f"failed on {sorted(S)}"
    return True, "coevaluation squares commute"


@check("equivariance", "mu_{a,b+c}(1 x mu) = mu_{a+b,c}(mu x 1)")
def mu_hexagon_strict(d, l):
    # the (0, 0, 0) hexagon carried to every triple (correspondence docstring)
    bad = correspondence.mu_hexagon_failure(d, l)
    if bad is not None:
        return False, f"failed at {bad}"
    return True, f"strict associativity of mu over {d**3} triples"


@check("equivariance", "(a)I ~ P_{-a}")
def chi_is_permutation_type(d, l):
    for a in range(d):
        if not invariants.is_homotopy_iso(mfcore.s_iso(d, {0}, a, 0, l=l)):
            return False, f"failed at a = {a}"
    return True, "chi(a) ~ P_{-a} certified by homology"


# -- equivalence suite ----------------------------------------------------------------


@check("equivalence", "[l, l+2m] -> m:l matches all structure constants")
def fusion_ring_equivalence(d, l):
    results = correspondence.verify_equivalence(d, l)
    bad = [name for name, ok, _ in results if not ok]
    detail = "; ".join(f"{name}: {detail}" for name, _, detail in results)
    return not bad, detail
