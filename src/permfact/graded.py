"""Graded permutation-type bifactorisations and their tensor decompositions.

Charge conventions: the variables carry charge 2/d, the differential has
charge 1, and hat(P_S) is P_S with its degree-0 generator at (1-|S|)/d (the
degree-1 generator then sits at (1-|S|)/d + (2/d)|S| - 1).  With these
charges the family is closed under duals and tensor products, and the
pairwise product decomposes through the explicit embeddings g-/g+ whose
components are pinned by charge bookkeeping.

Every pair (a, b) of one mu is the (0, 0) pair carried along
sigma: x -> x, y -> eta^{la} y, z -> eta^{l(a+b)} z.  With c = eta^{la(mu+1)},
sigma takes P_{0:1}(x, y) to P_{a:1}, the two summands at (0, 0) to those at
(a, b), and P_{0:mu}(y, z) to P_{b:mu} with d1 scaled by c and d0 by c^-1;
psi = (c^-1 on B_0, 1 on B_1) is a strict isomorphism from that object to
P_{b:mu}.  sigma is a K-algebra automorphism of K[x, y, z] that fixes
x^d - z^d and keeps degrees, so applied entrywise it keeps cycles and
charges; it commutes with killing x and z, and on what is left, K[y], it is
an automorphism, so it keeps homology isomorphisms and homology dimensions.
A strict isomorphism 1 (x) psi and a nonzero constant keep them too.  So once
the (0, 0, mu) pair is certified, checking those object identities certifies
(1 (x) psi) sigma(g-) and c (1 (x) psi) sigma(g+) at (a, b, mu); they are
g_pair's closed-form maps there (tests/test_graded.py).  g_pair_transported
checks the identities and builds the maps.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclofield import CycNum, eta_power
from .fusionring import FusionRing
from .invariants import HomologyData, is_homotopy_iso, row_reduce
from .linop import LinOp
from .mfcore import (
    MatrixBifact,
    MFMorphism,
    mat_scale,
    perm_mf,
    sum_morphism,
    tensor_mf,
)
from .polyring import MPoly, as_poly, exact_div, perm_product, residues

__all__ = [
    "GradedMF",
    "GradedLabel",
    "ChargeCountMismatch",
    "hat_p",
    "graded_tensor",
    "graded_check",
    "morphism_c_degree",
    "graded_hom_dim",
    "g_pair",
    "g_pair_certified",
    "PairCertificate",
    "TransportMismatch",
    "transport_sigma",
    "g_pair_transported",
    "decompose_product",
    "mf_fusion_ring",
    "graded_homotopy_degrees",
]


class ChargeCountMismatch(ValueError):
    """A graded object needs one charge per free generator."""


class GradedLabel:
    """Consecutive index label a:lam, the set {a, ..., a+lam} in Z_d."""

    __slots__ = ("d", "a", "lam")

    def __init__(self, d: int, a: int, lam: int):
        if not (0 <= lam <= d - 2):
            raise ValueError(f"lam = {lam} outside 0..{d - 2}")
        self.d = d
        self.a = a % d
        self.lam = lam

    @property
    def subset(self):
        return frozenset((self.a + j) % self.d for j in range(self.lam + 1))

    def dual(self) -> "GradedLabel":
        return GradedLabel(self.d, -(self.a + self.lam) % self.d, self.lam)

    def key(self):
        return (self.a, self.lam)

    def __eq__(self, other):
        return isinstance(other, GradedLabel) and (self.d, self.a, self.lam) == (other.d, other.a, other.lam)

    def __hash__(self):
        return hash((self.d, self.a, self.lam))

    def __repr__(self):
        return f"{self.a}:{self.lam}"


class GradedMF:
    """A bifactorisation with rational charges on each free generator."""

    def __init__(self, mf: MatrixBifact, charges0, charges1):
        if len(charges0) != mf.rank0 or len(charges1) != mf.rank1:
            raise ChargeCountMismatch(
                f"{len(charges0)}, {len(charges1)} charges for ranks {mf.rank0}, {mf.rank1}"
            )
        self.mf = mf
        self.charges0 = tuple(Fraction(c) for c in charges0)
        self.charges1 = tuple(Fraction(c) for c in charges1)

    @property
    def d(self):
        return self.mf.d

    def __repr__(self):
        return f"GradedMF({self.mf!r}, q0={self.charges0}, q1={self.charges1})"


def hat_p(d: int, S, left="x", right="y", l: int = 1) -> GradedMF:
    """hat(P_S) = P_S{(1-|S|)/d}."""
    S = residues(d, S)
    mf = perm_mf(d, S, left, right, l)
    alpha = Fraction(1 - len(S), d)
    return GradedMF(mf, (alpha,), (alpha + Fraction(2 * len(S), d) - 1,))


def graded_tensor(A: GradedMF, B: GradedMF) -> GradedMF:
    mf = tensor_mf(A.mf, B.mf)
    c0 = [a + b for a in A.charges0 for b in B.charges0] + [a + b for a in A.charges1 for b in B.charges1]
    c1 = [a + b for a in A.charges1 for b in B.charges0] + [a + b for a in A.charges0 for b in B.charges1]
    return GradedMF(mf, c0, c1)


def _entry_degree(entry, d):
    """(uniform polynomial-degree shift, ok) of a matrix entry; (None, True) when it is zero.

    A polynomial (or scalar) entry shifts by its degree when it is
    homogeneous; an operator entry by its degree_shift."""
    if isinstance(entry, LinOp):
        shift = entry.degree_shift()
        if shift is None:
            return None, entry.is_zero()
        return shift, True
    entry = as_poly(d, entry)
    if entry.is_zero():
        return None, True
    if entry.is_homogeneous():
        return entry.degree(), True
    return None, False


def graded_check(A: GradedMF) -> bool:
    """The differential, as an odd endomorphism, has charge exactly 1."""
    return morphism_c_degree(MFMorphism(A.mf, A.mf, 1, A.mf.d0, A.mf.d1), A, A) == 1


def morphism_c_degree(f: MFMorphism, srcg: GradedMF, tgtg: GradedMF) -> Fraction | None:
    """The uniform charge of a morphism, or None when entries disagree."""
    d = f.d
    q = Fraction(2, d)
    degrees = set()
    if f.z2_degree == 0:
        blocks = ((f.f0, tgtg.charges0, srcg.charges0), (f.f1, tgtg.charges1, srcg.charges1))
    else:
        blocks = ((f.f0, tgtg.charges1, srcg.charges0), (f.f1, tgtg.charges0, srcg.charges1))
    for mat, tgt_c, src_c in blocks:
        for i, row in enumerate(mat):
            for j, e in enumerate(row):
                deg, ok = _entry_degree(e, d)
                if not ok:
                    return None
                if deg is None:
                    continue
                degrees.add(tgt_c[i] + q * deg - src_c[j])
    if len(degrees) > 1:
        return None
    return degrees.pop() if degrees else Fraction(0)


def graded_hom_dim(d: int, R, S, l: int = 1) -> int:
    """dim of charge-0 cycles hat(P_R) -> hat(P_S): constants (p, q) with
    p * d1_R = d1_S * q after the charge bookkeeping forces them constant."""
    R, S = residues(d, R), residues(d, S)
    if not R or not S or len(R) == d or len(S) == d:
        raise ValueError("R, S must be proper nonempty subsets")
    if len(R) != len(S):
        return 0
    return _hom_dim_of_products(perm_product(d, R, "x", "y", l), perm_product(d, S, "x", "y", l))


def _hom_dim_of_products(d1R: MPoly, d1S: MPoly) -> int:
    """dim of constant pairs (p, q) with p * d1R = q * d1S."""
    # p*d1R - q*d1S = 0: one row per monomial in the unknowns p (column 0), q (column 1)
    rows = {}
    for m, c in d1R.terms.items():
        rows.setdefault(m, {})[0] = c
    for m, c in d1S.terms.items():
        rows.setdefault(m, {})[1] = -c
    return 2 - len(row_reduce(rows.values()))


# -- the explicit tensor decomposition ------------------------------------------


def _g_objects(d: int, a: int, b: int, mu: int, l: int):
    """(A, B, Q-, Q+): hat(P_{a:1})(x, y), hat(P_{b:mu})(y, z) and the two
    summands hat(P_{a+b+1:mu-1}), hat(P_{a+b:mu+1}) over (x, z)."""
    A = hat_p(d, {a, a + 1}, "x", "y", l)
    B = hat_p(d, {b + j for j in range(mu + 1)}, "y", "z", l)
    Qm = hat_p(d, {a + b + 1 + j for j in range(mu)}, "x", "z", l)
    Qp = hat_p(d, {a + b + j for j in range(mu + 2)}, "x", "z", l)
    return A, B, Qm, Qp


def g_pair(d: int, a: int, b: int, mu: int, l: int = 1):
    """(g-, g+): the charge-0 embeddings of the two summands of
    hat(P_{a:1}) (x) hat(P_{b:mu}), with the closed-form components."""
    if not (1 <= mu <= d - 2):
        raise ValueError("mu must lie in 1..d-2")
    x, y, z = (MPoly.var(d, v) for v in "xyz")
    eta = lambda k: eta_power(d, k, l)
    one = CycNum.one(d)

    A, B, Qm, Qp = _g_objects(d, a, b, mu, l)
    AB = graded_tensor(A, B)

    # d1 of P_S is the product over S, d0 the product over its complement
    [[p1]], [[pmu]], [[pmu_c]] = A.mf.d1, B.mf.d1, B.mf.d0
    [[q_minus]], [[q_minus_c]] = Qm.mf.d1, Qm.mf.d0
    [[q_plus]], [[q_plus_c]] = Qp.mf.d1, Qp.mf.d0

    ratio = lambda num, den: num * den.inverse()

    # g-: hat(P_{a+b+1:mu-1}) -> A (x) B
    gm01 = MPoly.one(d)
    c = eta(-a * mu)
    gm00 = (
        x * (-(eta(-a - 1)) * ratio(one - eta(-mu), one - eta(-1)))
        + y * ratio(one - eta(-mu - 1), one - eta(-1))
        - z * eta(b)
    ) * c
    gm10 = exact_div(q_minus * gm00 - pmu, p1)
    gm11 = exact_div(q_minus_c - pmu_c * gm00, p1)

    # g+: hat(P_{a+b:mu+1}) -> A (x) B
    gp00 = MPoly.one(d)
    cp = eta(a * (mu + 1))
    gp01 = (
        x * ratio(one - eta(mu + 2), one - eta(1))
        - y * (eta(a + 1) * ratio(one - eta(mu + 1), one - eta(1)))
        - z * eta(a + b + mu + 1)
    ) * cp
    gp10 = exact_div(q_plus - pmu * gp01, p1)
    gp11 = exact_div(q_plus_c * gp01 - pmu_c, p1)

    g_minus = MFMorphism(Qm.mf, AB.mf, 0, [[gm00], [gm11]], [[gm10], [gm01]])
    g_plus = MFMorphism(Qp.mf, AB.mf, 0, [[gp00], [gp11]], [[gp10], [gp01]])
    return g_minus, g_plus, Qm, Qp, AB


class PairCertificate(dict):
    """The verdicts of g_pair_certified by name; `pair` is the certified
    (g-, g+, Q-, Q+, A (x) B) as g_pair built it."""

    pair = None


def g_pair_certified(d: int, a: int, b: int, mu: int, l: int = 1) -> PairCertificate:
    """Run every checkable property of the pair; returns a result dict."""
    pair = g_pair(d, a, b, mu, l)
    g_minus, g_plus, Qm, Qp, AB = pair
    out = PairCertificate(
        cycle_minus=g_minus.is_cycle(),
        cycle_plus=g_plus.is_cycle(),
        graded_endpoints=graded_check(Qm) and graded_check(Qp) and graded_check(AB),
        degree_minus=morphism_c_degree(g_minus, Qm, AB),
        degree_plus=morphism_c_degree(g_plus, Qp, AB),
    )
    out.pair = pair
    # a map on homology is induced by cycles only; a non-cycle pair fails here
    cycles = out["cycle_minus"] and out["cycle_plus"]
    out["homology_iso"] = cycles and is_homotopy_iso(sum_morphism(g_minus, g_plus))
    H = HomologyData.of(AB.mf)  # the target's, shared with is_homotopy_iso
    out["dims"] = (H.dim_h0, H.dim_h1)
    out["dims_expected"] = (1, 1) if mu == d - 2 else (2, 2)
    out["ok"] = (
        out["cycle_minus"]
        and out["cycle_plus"]
        and out["graded_endpoints"]
        and out["degree_minus"] == 0
        and out["degree_plus"] == 0
        and out["homology_iso"]
        and out["dims"] == out["dims_expected"]
    )
    return out


class TransportMismatch(ValueError):
    """sigma does not carry the (0, 0, mu) objects onto the (a, b, mu) ones."""


def transport_sigma(d: int, a: int, b: int, l: int = 1) -> dict:
    """sigma: x -> x, y -> eta^{la} y, z -> eta^{l(a+b)} z, as an MPoly.subs map."""
    return {"y": (eta_power(d, a, l), "y"), "z": (eta_power(d, a + b, l), "z")}


def g_pair_transported(base, d: int, a: int, b: int, mu: int, l: int = 1):
    """(g-, g+, Q-, Q+, A (x) B) at (a, b, mu), carried from `base`, the
    certified (0, 0, mu) pair of g_pair, along sigma (module docstring).

    Raises TransportMismatch naming the object unless sigma(P_{0:1}) =
    P_{a:1}, sigma(d1, d0 of P_{0:mu}) = (c d1, c^-1 d0) of P_{b:mu} with
    c = eta^{la(mu+1)}, and sigma(Q-+ at (0, 0)) = Q-+ at (a, b).  Then
    g- = (1 (x) psi) sigma(g-_00) and g+ = c (1 (x) psi) sigma(g+_00), where
    psi = (c^-1 on B_0, 1 on B_1): row 0 of f0 and of f1."""
    g_minus0, g_plus0, Qm0, Qp0, AB0 = base
    A0, B0 = AB0.mf.factors
    A, B, Qm, Qp = _g_objects(d, a, b, mu, l)
    sigma = transport_sigma(d, a, b, l)
    c, one = eta_power(d, a * (mu + 1), l), CycNum.one(d)
    carried = lambda mat: [[e.subs(sigma) for e in row] for row in mat]
    for name, M0, M, k in (
        ("P_{a:1}", A0, A.mf, one),
        ("P_{b:mu}", B0, B.mf, c),
        ("Q-", Qm0.mf, Qm.mf, one),
        ("Q+", Qp0.mf, Qp.mf, one),
    ):
        if carried(M0.d1) != mat_scale(M.d1, k) or carried(M0.d0) != mat_scale(M.d0, k.inverse()):
            raise TransportMismatch(f"sigma does not carry {name} from (0, 0, {mu}) to ({a}, {b}, {mu})")
    AB = graded_tensor(A, B)

    def moved(g, Q, row, k):
        f0, f1 = carried(g.f0), carried(g.f1)
        f0[row], f1[row] = ([e * k for e in f[row]] for f in (f0, f1))
        return MFMorphism(Q.mf, AB.mf, 0, f0, f1)

    return moved(g_minus0, Qm, 0, c.inverse()), moved(g_plus0, Qp, 1, c), Qm, Qp, AB


def decompose_product(d: int, a: int, lam: int, b: int, mu: int, l: int = 1, index_sign: int = 1):
    """Summands of hat(P_{a:lam}) (x) hat(P_{b:mu}) as GradedLabels.

    The first index of each summand is a + b + index_sign*(lam + mu - nu)/2;
    index_sign=+1 is the convention certified by the homology oracle
    (index_sign=-1 fails rigidity: the unit drops out of T (x) T)."""
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be an odd integer >= 3, got {d}")
    if not (0 <= lam <= d - 2 and 0 <= mu <= d - 2):
        raise ValueError(f"lambda indices must lie in 0..{d - 2}, got {lam} and {mu}")
    out = []
    for nu in range(abs(lam - mu), min(lam + mu, 2 * d - 4 - lam - mu) + 1, 2):
        shift = index_sign * (lam + mu - nu) // 2
        out.append(GradedLabel(d, (a + b + shift) % d, nu))
    return out


def mf_fusion_ring(d: int, l: int = 1) -> FusionRing:
    labels = [GradedLabel(d, a, lam) for a in range(d) for lam in range(d - 1)]
    products = {}
    for i in labels:
        for j in labels:
            outcome = {}
            for s in decompose_product(d, i.a, i.lam, j.a, j.lam, l):
                outcome[s] = outcome.get(s, 0) + 1
            products[(i, j)] = outcome
    return FusionRing(labels, GradedLabel(d, 0, 0), products)


def graded_homotopy_degrees(srcg: GradedMF, tgtg: GradedMF):
    """Exact entry degrees for an odd charge-(-1) homotopy src -> tgt.

    Returns (table0, table1): table0[i][j] is the forced polynomial degree of
    the entry src0_j -> tgt1_i (None = forced zero), and mirrors for table1."""
    d = srcg.d

    def forced(c_src, c_tgt):
        val = Fraction(d) * (c_src - c_tgt - 1) / 2
        if val.denominator != 1 or val < 0:
            return None
        return int(val)

    table0 = [[forced(cs, ct) for cs in srcg.charges0] for ct in tgtg.charges1]
    table1 = [[forced(cs, ct) for cs in srcg.charges1] for ct in tgtg.charges0]
    return table0, table1
