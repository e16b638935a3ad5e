"""Cyclic-group equivariance on the factorisation side and the label
dictionary between the two fusion rings.

The order-d twists act by scaling the external variables; each permutation
object carries the comparison maps tau (a scalar multiple of the twist
isomorphism) satisfying the cocycle condition on the nose.  The dictionary
sends the NS label [l, l+2m] to the consecutive graded label m:l, and the
main verification checks that it is a fusion-ring isomorphism compatible
with units, duals, and quantum dimensions.

The Z_d data is certified once per orbit and carried to the rest.  A
variable scaling sigma (each variable times a d-th root of unity) is a ring
automorphism of the polynomial ring that fixes x^d - z^d, so it carries a
factorisation to a factorisation, and a morphism f to sigma . f . sigma^-1
entry by entry.  That transport commutes with composition, with the tensor
product (each entry of f (x) g is +- an entry product of f and g, with
Koszul signs fixed by the parities alone), with `reassoc` (constant
permutation matrices) and with `twist_morphism` (another scaling), and it
is injective on entries.

mu: the hexagon is computed at (0, 0, 0) only (`mu_hexagon_ok`).
tau_ab: x -> eta^{l(a+b)} x, y1 -> eta^{lb} y1, z -> z carries each entry of
mu_{0,0} onto the entry of mu_{a,b}; it carries chi(0)(y1, z) and the
target chi(0)(x, z) onto chi(b) and chi(a+b) exactly, and chi(0)(x, y1) onto
chi(a) with d1 scaled by eta^{lb} and d0 by eta^{-lb}.  psi = (1 on chi(a)_0,
eta^{-lb} on chi(a)_1) is a strict isomorphism from chi(a) onto that object,
and it is the identity on the summand chi(a)_0 that mu reads, so
mu_{a,b} = tau_ab(mu_{0,0}) . (psi (x) 1).  mu_{0,0} is also invariant under
the uniform scaling of all its variables.  The hexagon at (a, b, c) is the
one at (0, 0, 0) carried along tau_abc = (eta^{l(a+b+c)}, eta^{l(b+c)},
eta^{lc}, 1) on (x, y1, y2, z): tau_abc restricts to tau_{a,b+c} on the
variables of mu_{a,b+c}, to tau_{b,c} on those of mu_{b,c} and to
tau_{a+b,c} on those of mu_{a+b,c}, and on those of mu_{a,b} it is tau_ab
times the uniform scaling by eta^{lc}.  The constant psi's are strict
isomorphisms, the same on both sides, so they cancel, and both composites at
(a, b, c) are the carried composites at (0, 0, 0): equal, since those are.

Rotation orbits: sigma_c: y -> eta^{lc} y takes P_R onto P_{R+c} exactly,
and sigma_a sigma_c = sigma_{a+c}.  It fixes x^d - y^d and constants,
commutes with the twists and is invertible, so it carries each of these
properties of P_R to P_{R+c}: the product identity d1 d0 = d0 d1 =
x^d - y^d; the constant pairs (p, q) with p d1_R = q d1_S, so
graded_hom_dim(R + c, S) = graded_hom_dim(R, S - c); and the tau cocycle,
since tau_{S;a} has constant components that depend only on |S| and a, so
sigma_c takes tau_{R;a} onto tau_{R+c;a}.  `orbit_failure` computes such a
property once per rotation orbit, at its base R (the rotation with the
smallest bit mask; P_{0:lam} for a consecutive label), and every other
subset R + c needs only sigma_c(P_R) = P_{R+c} in d1 and d0.  The
decomposition certificates are a fourth consumer, with nothing to compute
at the base: the (0, 0, mu) pairs reach every (a, b) by variable scalings
that act on their objects as these rotations (`graded` docstring), so
there every consecutive P_{k:lam} needs only to be sigma_k(P_{0:lam}).

The Z_d constructors and certificates (tau, tau_cocycle_ok, mu_hexagon_ok
here, s_iso, twist_mf, diag_twist_mf, twist_morphism, chi and mu in mfcore)
take labels through `mfcore.z_labels`: EvenModulus unless d is odd and >= 3,
TypeError for a label that is not an int, and every label reduced mod d
before any memo.
"""

from __future__ import annotations

from .cftside import ParityViolation, cft_fusion_ring, quantum_dim
from .cyclofield import CycNum, eta_power, q_root, quantum_int
from .graded import GradedLabel, mf_fusion_ring
from .linop import Subst, as_linop
from .mfcore import (
    MFMorphism,
    carries,
    chi,
    coev_into_dual,
    duality_un,
    identity_morphism,
    mu,
    perm_mf,
    reassoc,
    s_iso,
    self_dual_subset,
    tensor_morphism,
    twist_morphism,
    z_labels,
)
from .polyring import residues

__all__ = [
    "tau",
    "tau_cocycle_ok",
    "rotation_sigma",
    "orbit_base",
    "orbit_failure",
    "mu_hexagon_ok",
    "mu_transport_ok",
    "mu_hexagon_failure",
    "check_equivariant",
    "un_equivariant_ok",
    "coev_square_ok",
    "label_map",
    "verify_equivalence",
]


def tau(d: int, S, a: int, left="x", right="y", l: int = 1) -> MFMorphism:
    """tau_{S;a} = eta^{(d+1)/2 * a * (|S|-1)} * s_{a,-a}: P_S -> ((a)P_S(-a))."""
    (a,) = z_labels(d, a)
    S = residues(d, S)
    scalar = eta_power(d, ((d + 1) // 2) * a * (len(S) - 1), l)
    return s_iso(d, S, a, -a, left, right, l).scaled(scalar)


def tau_cocycle_ok(d: int, S, l: int = 1) -> bool:
    """((a)tau_b(-a)) . tau_a = tau_{a+b} for all a, b."""
    taus = [tau(d, S, a, l=l) for a in range(d)]
    for a, ta in enumerate(taus):
        for b, tb in enumerate(taus):
            if not twist_morphism(tb, a, l).compose(ta).equals(taus[(a + b) % d]):
                return False
    return True


def rotation_sigma(d: int, c: int, l: int = 1) -> dict:
    """sigma_c: y -> eta^{lc} y, as an MPoly.subs map."""
    return {"y": (eta_power(d, c, l), "y")}


def orbit_base(d: int, S) -> tuple:
    """(R, c): the rotation R of S with the smallest bit mask, and the least c
    with R + c = S; c = 0 exactly when S is its own base."""
    S = residues(d, S)
    mask = lambda c: sum(1 << ((s - c) % d) for s in S)
    c = min(range(d), key=lambda c: (mask(c), c))
    return residues(d, [s - c for s in S]), c


def orbit_failure(d: int, subsets, certify, l: int = 1):
    """None when every one of `subsets` is certified, else the first failure:
    the orbit base R where certify(R) is False, or the subset S = R + c that
    sigma_c does not take P_R onto.

    certify(R) computes a property that sigma_c carries (module docstring)
    once per rotation orbit, at its base R (`orbit_base`); each other subset
    of the orbit then needs only sigma_c(P_R) = P_S in d1 and d0."""
    one = CycNum.one(d)
    certified = set()
    for S in subsets:
        R, c = orbit_base(d, S)
        if R not in certified:
            if not certify(R):
                return R
            certified.add(R)
        if c and not carries(rotation_sigma(d, c, l), perm_mf(d, R, l=l), perm_mf(d, S, l=l), one):
            return residues(d, S)
    return None


def mu_hexagon_ok(d: int, a: int, b: int, c: int, l: int = 1) -> bool:
    """mu_{a,b+c} . (1 (x) mu_{b,c}) = mu_{a+b,c} . (mu_{a,b} (x) 1) strictly on
    (chi(a) (x) chi(b)) (x) chi(c), each side reassociated from that source."""
    a, b, c = z_labels(d, a, b, c)
    mu_bc = mu(d, b, c, l).renamed({"x": "y1", "y1": "y2"})
    step1 = tensor_morphism(identity_morphism(chi(d, a, "x", "y1", l)), mu_bc)
    mu_ab = mu(d, a, b, l).renamed({"z": "y2"})
    step2 = tensor_morphism(mu_ab, identity_morphism(chi(d, c, "y2", "z", l)))
    # step2 starts at (chi(a) (x) chi(b)) (x) chi(c) itself
    p1 = mu(d, a, b + c, l).compose(step1).compose(reassoc(step2.src, step1.src))
    p2 = mu(d, a + b, c, l).renamed({"y1": "y2"}).compose(step2)
    return p1.equals(p2)


def mu_transport_ok(d: int, a: int, b: int, l: int = 1) -> bool:
    """tau_ab: x -> eta^{l(a+b)} x, y1 -> eta^{lb} y1 carries mu_{0,0} onto
    mu_{a,b}: its first source factor up to eta^{lb} on d1 (and eta^{-lb} on
    d0), its second source factor and its target exactly, and each of its
    four entries e to out . e . in (module docstring)."""
    a, b = z_labels(d, a, b)
    base, image = mu(d, 0, 0, l), mu(d, a, b, l)
    sub = {"x": (eta_power(d, a + b, l), "x"), "y1": (eta_power(d, b, l), "y1")}
    one = CycNum.one(d)
    scales = (eta_power(d, b, l), one, one)
    for M, N, k in zip(base.src.factors + (base.tgt,), image.src.factors + (image.tgt,), scales):
        if not carries(sub, M, N, k):
            return False
    out_map = Subst(d, {"x": sub["x"]})
    in_map = Subst(d, sub).inverse_scaling()
    return all(
        as_linop(e, d).conjugated(out_map, in_map) == f
        for mats in ((base.f0, image.f0), (base.f1, image.f1))
        for rows in zip(*mats)
        for e, f in zip(*rows)
    )


def mu_hexagon_failure(d: int, l: int = 1):
    """None when the strict mu hexagon is certified at every triple, else a
    triple where it is not.

    The hexagon is computed at (0, 0, 0), with the d - 1 identities that make
    mu_{0,0} invariant under the uniform scalings, and carried to every
    triple along tau_abc; each pair (a, b) needs mu_transport_ok (module
    docstring).  A failure there names (0, 0, 0); the first pair (a, b) that
    fails names (a, b, 0), whose hexagon has mu_{a,b} on both sides."""
    base = mu(d, 0, 0, l)
    if not mu_hexagon_ok(d, 0, 0, 0, l) or not all(twist_morphism(base, k, l).equals(base) for k in range(1, d)):
        return (0, 0, 0)
    for a in range(d):
        for b in range(d):
            if not mu_transport_ok(d, a, b, l):
                return (a, b, 0)
    return None


def check_equivariant(f: MFMorphism, src_taus, tgt_taus, d: int, l: int = 1) -> bool:
    """The equivariance square tgt_taus[a] . f = ((a)f(-a)) . src_taus[a] for all a."""
    for a in range(d):
        lhs = tgt_taus[a].compose(f)
        rhs = twist_morphism(f, a, l).compose(src_taus[a])
        if not lhs.equals(rhs):
            return False
    return True


def _unit_taus(d: int, l: int) -> list:
    """tau_{{0};a} on the unit I(x, z), for a = 0, ..., d - 1."""
    return [tau(d, {0}, a, "x", "z", l) for a in range(d)]


def _pair_taus(d: int, S, l: int) -> list:
    """tau_{S;a} (x) tau_{-S;a} on P_S(x, y) (x) P_{-S}(y, z), for each a."""
    minusS = {-s for s in S}
    return [tensor_morphism(tau(d, S, a, "x", "y", l), tau(d, minusS, a, "y", "z", l)) for a in range(d)]


def un_equivariant_ok(d: int, l: int = 1) -> bool:
    """u and n intertwine the twists of T (x) T and of the unit."""
    u, n, T, _ = duality_un(d, l)
    units, pairs = _unit_taus(d, l), _pair_taus(d, self_dual_subset(d), l)
    u_ok = check_equivariant(u, pairs, units, d, l)
    n_ok = check_equivariant(n, units, pairs, d, l)
    return u_ok and n_ok


def coev_square_ok(d: int, S, l: int = 1) -> bool:
    """The coevaluation of P_S, rewritten to land in P_S (x) P_{-S}, is equivariant."""
    return check_equivariant(coev_into_dual(d, S, l), _unit_taus(d, l), _pair_taus(d, S, l), d, l)


# -- the label dictionary -----------------------------------------------------------


def label_map(d: int, l: int, r: int) -> GradedLabel:
    """[l, l+2m] -> m:l."""
    if (l + r) % 2:
        raise ParityViolation(f"l + r must be even, got ({l}, {r})")
    m = ((r - l) // 2) % d
    return GradedLabel(d, m, l)


def verify_equivalence(d: int, root_exponent: int = 1):
    """All Grothendieck-level checks of the dictionary; list of (name, ok, detail)."""
    results = []
    cft = cft_fusion_ring(d)
    mf = mf_fusion_ring(d, root_exponent)

    fmap = lambda lbl: label_map(d, lbl.l, lbl.r)
    image = [fmap(x) for x in cft.labels]
    bijective = len(set(image)) == len(cft.labels) and set(image) == set(mf.labels)
    results.append(("label_map_bijective", bijective, f"{len(cft.labels)} labels"))

    unit_ok = fmap(cft.unit) == mf.unit
    results.append(("unit_correspondence", unit_ok, f"{cft.unit!r} -> {mf.unit!r}"))

    iso = cft.isomorphic_under(mf, fmap)
    results.append(
        ("fusion_ring_isomorphism", iso, f"{len(cft.labels) ** 2} product comparisons")
    )

    dual_ok = all(fmap(x.dual()) == fmap(x).dual() for x in cft.labels)
    results.append(("duality_compatibility", dual_ok, "NS dual matches the -S dual"))

    q = q_root(d, root_exponent)
    dim_mf = lambda lbl: quantum_int(lbl.lam + 1, q)
    dim_cft = lambda x: quantum_dim(d, x.l, root_exponent)
    dims_match = all(dim_cft(x) == dim_mf(fmap(x)) for x in cft.labels)
    results.append(("quantum_dimension_match", dims_match, "[l+1]_q on both sides"))

    hom_mf = mf.dimension_homomorphism_ok(dim_mf)
    hom_cft = cft.dimension_homomorphism_ok(dim_cft)
    results.append(
        ("dimension_homomorphism", hom_mf and hom_cft, "dims are eigenvectors of fusion")
    )
    return results
