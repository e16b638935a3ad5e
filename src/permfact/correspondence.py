"""Cyclic-group equivariance on the factorisation side and the label
dictionary between the two fusion rings.

The order-d twists act by scaling the external variables; each permutation
object carries the comparison maps tau (a scalar multiple of the twist
isomorphism) satisfying the cocycle condition on the nose.  The dictionary
sends the NS label [l, l+2m] to the consecutive graded label m:l, and the
main verification checks that it is a fusion-ring isomorphism compatible
with units, duals, and quantum dimensions.
"""

from __future__ import annotations

from functools import lru_cache

from .cftside import ParityViolation, cft_fusion_ring, quantum_dim
from .cyclofield import eta_power, q_root, quantum_int
from .graded import GradedLabel, mf_fusion_ring
from .mfcore import (
    MFMorphism,
    chi,
    coev_into_dual,
    duality_un,
    identity_morphism,
    mu,
    reassoc,
    renamed_mu,
    s_iso,
    self_dual_subset,
    tensor_morphism,
    twist_morphism,
)
from .polyring import residues

__all__ = [
    "tau",
    "tau_cocycle_ok",
    "mu_hexagon_ok",
    "check_equivariant",
    "un_equivariant_ok",
    "coev_square_ok",
    "label_map",
    "verify_equivalence",
]


def tau(d: int, S, a: int, left="x", right="y", l: int = 1) -> MFMorphism:
    """tau_{S;a} = eta^{(d+1)/2 * a * (|S|-1)} * s_{a,-a}: P_S -> ((a)P_S(-a))."""
    return _tau(d, residues(d, S), a, left, right, l)


@lru_cache(maxsize=None)
def _tau(d: int, S: frozenset, a: int, left: str, right: str, l: int) -> MFMorphism:
    base = s_iso(d, S, a, -a, left, right, l)
    scalar = eta_power(d, ((d + 1) // 2) * a * (len(S) - 1), l)
    return base.scaled(scalar)


def tau_cocycle_ok(d: int, S, l: int = 1) -> bool:
    """((a)tau_b(-a)) . tau_a = tau_{a+b} for all a, b."""
    for a in range(d):
        ta = tau(d, S, a, l=l)
        for b in range(d):
            tb = tau(d, S, b, l=l)
            lhs = twist_morphism(tb, a, l).compose(ta)
            rhs = tau(d, S, (a + b) % d, l=l)
            if not lhs.equals(rhs):
                return False
    return True


def mu_hexagon_ok(d: int, a: int, b: int, c: int, l: int = 1) -> bool:
    """mu_{a,b+c} . (1 (x) mu_{b,c}) = mu_{a+b,c} . (mu_{a,b} (x) 1) strictly on
    (chi(a) (x) chi(b)) (x) chi(c), each side reassociated from that source."""
    mu_bc = renamed_mu(d, b, c, {"x": "y1", "y1": "y2"}, l)
    step1 = tensor_morphism(identity_morphism(chi(d, a, "x", "y1", l)), mu_bc)
    mu_ab = renamed_mu(d, a, b, {"z": "y2"}, l)
    step2 = tensor_morphism(mu_ab, identity_morphism(chi(d, c, "y2", "z", l)))
    # step2 starts at (chi(a) (x) chi(b)) (x) chi(c) itself
    p1 = mu(d, a, (b + c) % d, l).compose(step1).compose(reassoc(step2.src, step1.src))
    p2 = renamed_mu(d, (a + b) % d, c, {"y1": "y2"}, l).compose(step2)
    return p1.equals(p2)


def check_equivariant(f: MFMorphism, src_tau, tgt_tau, d: int, l: int = 1) -> bool:
    """The equivariance square tgt_tau(a) . f = ((a)f(-a)) . src_tau(a) for all a."""
    for a in range(d):
        lhs = tgt_tau(a).compose(f)
        rhs = twist_morphism(f, a, l).compose(src_tau(a))
        if not lhs.equals(rhs):
            return False
    return True


def _tau_unit(d: int, a: int, l: int = 1) -> MFMorphism:
    return tau(d, {0}, a, "x", "z", l)


def un_equivariant_ok(d: int, l: int = 1) -> bool:
    """u and n intertwine the twists of T (x) T and of the unit."""
    u, n, T, _ = duality_un(d, l)
    S = self_dual_subset(d)

    def tt_tau(a):
        t1 = tau(d, S, a, "x", "y", l)
        t2 = tau(d, S, a, "y", "z", l)
        return tensor_morphism(t1, t2)

    u_ok = check_equivariant(u, tt_tau, lambda a: _tau_unit(d, a, l), d, l)
    n_ok = check_equivariant(n, lambda a: _tau_unit(d, a, l), tt_tau, d, l)
    return u_ok and n_ok


def coev_square_ok(d: int, S, l: int = 1) -> bool:
    """The coevaluation of P_S, rewritten to land in P_S (x) P_{-S}, is equivariant."""
    minusS = {-s for s in S}

    def pair_tau(a):
        return tensor_morphism(tau(d, S, a, "x", "y", l), tau(d, minusS, a, "y", "z", l))

    return check_equivariant(coev_into_dual(d, S, l), lambda a: _tau_unit(d, a, l), pair_tau, d, l)


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
