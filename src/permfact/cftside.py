"""NS-sector combinatorics of the minimal-model side.

Labels [l, r, s] with l = 0..d-2, r mod 2d, s mod 4 carry the conformal
weight h = l(l+2)/4d + s^2/8 - r^2/4d (mod 1).  Induction along the order-two
algebra object pairs [l,r,s] with [d-2-l, r+d, s+2]; local modules are the
labels with l+r+s even, and the NS sector keeps even s.  NS simples are
written [l, r] with l+r even, and their fusion is su(2) level d-2 on l with
charge addition on r; su2_fusion_ring is that su(2) part as a ring of its own.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclofield import CycNum, q_root, quantum_int
from .fusionring import FusionRing

__all__ = [
    "SimpleE",
    "NSLabel",
    "ParityViolation",
    "h_weight",
    "su2_fuse",
    "su2_fusion_ring",
    "is_local",
    "induce",
    "ns_simples",
    "ns_fuse",
    "quantum_dim",
    "twist_additive",
    "cft_fusion_ring",
    "generators_reach_all",
    "factorisation_ok",
]


class ParityViolation(ValueError):
    pass


class SimpleE:
    """A simple label [l, r, s] of the ambient product category."""

    __slots__ = ("d", "l", "r", "s")

    def __init__(self, d: int, l: int, r: int, s: int):
        if not 0 <= l <= d - 2:
            raise ValueError(f"l = {l} outside 0..{d - 2}")
        self.d = d
        self.l = l
        self.r = r % (2 * d)
        self.s = s % 4

    def key(self):
        return (self.l, self.r, self.s)

    def __eq__(self, other):
        return isinstance(other, SimpleE) and (self.d,) + self.key() == (other.d,) + other.key()

    def __hash__(self):
        return hash((self.d,) + self.key())

    def __repr__(self):
        return f"[{self.l},{self.r},{self.s}]"


class NSLabel:
    """An NS simple [l, r]: l + r even."""

    __slots__ = ("d", "l", "r")

    def __init__(self, d: int, l: int, r: int):
        if not 0 <= l <= d - 2:
            raise ValueError(f"l = {l} outside 0..{d - 2}")
        r = r % (2 * d)
        if (l + r) % 2:
            raise ParityViolation(f"l + r must be even, got [{l},{r}]")
        self.d = d
        self.l = l
        self.r = r

    def key(self):
        return (self.l, self.r)

    def dual(self) -> "NSLabel":
        return NSLabel(self.d, self.l, -self.r)

    def __eq__(self, other):
        return isinstance(other, NSLabel) and (self.d, self.l, self.r) == (other.d, other.l, other.r)

    def __hash__(self):
        return hash((self.d, self.l, self.r))

    def __repr__(self):
        return f"[{self.l},{self.r}]"


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def h_weight(d: int, l: int, r: int, s: int) -> Fraction:
    """l(l+2)/4d + s^2/8 - r^2/4d, reduced mod 1 into [0, 1)."""
    if not 0 <= l <= d - 2:
        raise ValueError(f"l = {l} outside 0..{d - 2}")
    h = Fraction(l * (l + 2), 4 * d) + Fraction(s * s, 8) - Fraction(r * r, 4 * d)
    return _mod1(h)


def su2_fuse(d: int, l: int, lp: int) -> list[int]:
    """Level d-2 truncated su(2) outcomes: |l-l'| step 2 up to min(l+l', 2d-4-l-l')."""
    if not (0 <= l <= d - 2 and 0 <= lp <= d - 2):
        raise ValueError("labels out of range")
    return list(range(abs(l - lp), min(l + lp, 2 * d - 4 - l - lp) + 1, 2))


def su2_fusion_ring(d: int) -> FusionRing:
    """The su(2) part of NS fusion: su2_fuse on the labels 0..d-2."""
    labels = range(d - 1)
    return FusionRing(labels, 0, {(a, b): dict.fromkeys(su2_fuse(d, a, b), 1) for a in labels for b in labels})


def is_local(d: int, l: int, r: int, s: int) -> bool:
    return (l + r + s) % 2 == 0


def induce(d: int, l: int, r: int, s: int):
    """The two simple constituents of the induced module."""
    return (SimpleE(d, l, r, s), SimpleE(d, d - 2 - l, r + d, s + 2))


def ns_simples(d: int) -> list[NSLabel]:
    return [NSLabel(d, l, r) for l in range(d - 1) for r in range(2 * d) if (l + r) % 2 == 0]


def ns_fuse(d: int, a: NSLabel, b: NSLabel) -> dict:
    """Multiset of outcomes of [l,r] (x) [l',r']."""
    out = {}
    for m in su2_fuse(d, a.l, b.l):
        lbl = NSLabel(d, m, a.r + b.r)
        out[lbl] = out.get(lbl, 0) + 1
    return out


def quantum_dim(d: int, l: int, root_exponent: int = 1) -> CycNum:
    """[l+1] at the half root q (the dimension of the su(2) part)."""
    return quantum_int(l + 1, q_root(d, root_exponent))


def twist_additive(d: int, A: SimpleE, B: SimpleE) -> bool:
    """h_C - h_A - h_B integral for every fusion outcome C of A (x) B."""
    hA = h_weight(d, A.l, A.r, A.s)
    hB = h_weight(d, B.l, B.r, B.s)
    for m in su2_fuse(d, A.l, B.l):
        hC = h_weight(d, m, A.r + B.r, A.s + B.s)
        if _mod1(hC - hA - hB) != 0:
            return False
    return True


def cft_fusion_ring(d: int) -> FusionRing:
    labels = ns_simples(d)
    products = {(a, b): ns_fuse(d, a, b) for a in labels for b in labels}
    return FusionRing(labels, NSLabel(d, 0, 0), products)


def generators_reach_all(d: int) -> bool:
    """Every NS label is a product of copies of [1, d] and [0, 2]."""
    gen1 = NSLabel(d, 1, d)
    gen2 = NSLabel(d, 0, 2)
    reached = {NSLabel(d, 0, 0)}
    frontier = [NSLabel(d, 0, 0)]
    while frontier:
        cur = frontier.pop()
        for g in (gen1, gen2):
            for lbl in ns_fuse(d, cur, g):
                if lbl not in reached:
                    reached.add(lbl)
                    frontier.append(lbl)
    return set(ns_simples(d)) == reached


def factorisation_ok(d: int) -> bool:
    """NS fusion factorises as (su(2)-type part) x Z_d.

    A label [l, r] has coordinates (l, j) with r = l*d + 2j and j in Z_d (the
    power of the invertible [0, 2]); the product of (l_a, j_a) and (l_b, j_b)
    must be the sum of (m, j_a + j_b) over m in su2_fuse(d, l_a, l_b)."""
    for a in ns_simples(d):
        ja = ((a.r - a.l * d) // 2) % d if (a.r - a.l * d) % 2 == 0 else None
        if ja is None:
            return False
        for b in ns_simples(d):
            jb = ((b.r - b.l * d) // 2) % d
            outcome = ns_fuse(d, a, b)
            expected = {}
            for m in su2_fuse(d, a.l, b.l):
                lbl = NSLabel(d, m, m * d + 2 * (ja + jb))
                expected[lbl] = expected.get(lbl, 0) + 1
            if outcome != expected:
                return False
    return True
