"""Exact arithmetic in the cyclotomic field Q(zeta_{2d}).

Every scalar in the package lives here: with zeta = e^{i*pi/d} the primitive
2d-th root of unity, the two roots the constructions need are

    eta = zeta^2 = e^{2*pi*i/d}      (the order-d root used in index sets)
    q   = zeta   = e^{i*pi/d}        (the half root used in quantum numbers)

and kappa(d) = -(eta^{(d-1)/2} + eta^{(d+1)/2}) = q + q^{-1} = 2*cos(pi/d).

Elements are residues modulo the 2d-th cyclotomic polynomial, stored as
coefficient vectors of length phi(2d) over Q.  Reduction is applied after
every product, so equality of elements is equality of coefficient tuples.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

Rational = Fraction

__all__ = [
    "Rational",
    "CycNum",
    "DivisionByZero",
    "ModulusMismatch",
    "DegenerateRoot",
    "EvenModulus",
    "NotCoprime",
    "field_arith",
    "eta_power",
    "quantum_int",
    "kappa",
]


class DivisionByZero(ZeroDivisionError):
    pass


class ModulusMismatch(ValueError):
    pass


class DegenerateRoot(ValueError):
    pass


class EvenModulus(ValueError):
    pass


class NotCoprime(ValueError):
    pass


def _mobius(n: int) -> int:
    m, p, count = 1, 2, 0
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_divmod(num, den):
    """Exact division with remainder of Q[t] coefficient lists (low to high)."""
    num = list(num)
    dn = len(den) - 1
    while len(den) > 1 and not den[-1]:
        den = den[:-1]
        dn -= 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 1)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k] / lead
        if c:
            quot[k - dn] = c
            for j in range(dn + 1):
                num[k - dn + j] -= c * den[j]
    while len(num) > 1 and not num[-1]:
        num.pop()
    return quot, num


def cyclotomic_poly(n: int):
    """Coefficients of Phi_n(t), via the Mobius factorisation of t^n - 1."""
    num = [Fraction(1)]
    den = [Fraction(1)]
    for k in range(1, n + 1):
        if n % k:
            continue
        mu = _mobius(k)
        if mu == 0:
            continue
        factor = [Fraction(-1)] + [Fraction(0)] * (n // k - 1) + [Fraction(1)]
        if mu == 1:
            num = _poly_mul(num, factor)
        else:
            den = _poly_mul(den, factor)
    quot, rem = _poly_divmod(num, den)
    assert rem == [Fraction(0)], "cyclotomic division must be exact"
    return quot


class _FieldData:
    """Per-modulus tables: Phi_{2d} and reductions of t^k for k < 2*phi."""

    _cache: dict[int, "_FieldData"] = {}

    def __init__(self, d: int):
        self.d = d
        self.n = 2 * d
        phi_poly = cyclotomic_poly(self.n)
        self.degree = len(phi_poly) - 1
        self.phi_poly = phi_poly
        # t^k mod Phi for k up to 2*degree - 2 (largest power a product can hit)
        rows = []
        cur = [Fraction(0)] * self.degree
        for k in range(2 * self.degree - 1):
            if k < self.degree:
                row = [Fraction(0)] * self.degree
                row[k] = Fraction(1)
            else:
                prev = rows[k - 1]
                shifted = [Fraction(0)] + list(prev)
                top = shifted.pop()
                row = [shifted[i] - top * phi_poly[i] for i in range(self.degree)]
            rows.append(row)
            cur = row
        self.power_table = rows

    @classmethod
    def get(cls, d: int) -> "_FieldData":
        if d not in cls._cache:
            cls._cache[d] = _FieldData(d)
        return cls._cache[d]


class CycNum:
    """An element of Q(zeta_{2d}), reduced modulo Phi_{2d}."""

    __slots__ = ("d", "coeffs", "_hash")

    def __init__(self, d: int, coeffs):
        data = _FieldData.get(d)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != data.degree:
            raise ValueError(f"need {data.degree} coefficients, got {len(coeffs)}")
        self.d = d
        self.coeffs = coeffs
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(d: int, value) -> "CycNum":
        data = _FieldData.get(d)
        coeffs = [Fraction(value)] + [Fraction(0)] * (data.degree - 1)
        return CycNum(d, coeffs)

    @staticmethod
    def zero(d: int) -> "CycNum":
        return CycNum.from_rational(d, 0)

    @staticmethod
    def one(d: int) -> "CycNum":
        return CycNum.from_rational(d, 1)

    @staticmethod
    def zeta(d: int, k: int = 1) -> "CycNum":
        """zeta^k for zeta the generating 2d-th root."""
        data = _FieldData.get(d)
        k %= 2 * d
        if k < data.degree:
            coeffs = [Fraction(0)] * data.degree
            coeffs[k] = Fraction(1)
            return CycNum(d, coeffs)
        # reduce t^k by repeated multiplication of the tabulated powers
        out = CycNum.one(d)
        base = CycNum(d, data.power_table[1]) if data.degree > 1 else CycNum.from_rational(d, -1)
        for _ in range(k):
            out = out * base
        return out

    # -- helpers -----------------------------------------------------------

    def _check(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            if other.d != self.d:
                raise ModulusMismatch(f"moduli differ: {self.d} vs {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(self.d, other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.d, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.d, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.d, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        data = _FieldData.get(self.d)
        deg = data.degree
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        out = [Fraction(0)] * deg
        for k, c in enumerate(prod):
            if not c:
                continue
            row = data.power_table[k]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
        return CycNum(self.d, out)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Extended Euclid on polynomial representatives modulo Phi_{2d}."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        data = _FieldData.get(self.d)
        # gcd(self, Phi) = 1 since Phi is irreducible over Q
        r0, r1 = list(data.phi_poly), list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            quot, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            qs = _poly_mul(quot, s1)
            new_s = [Fraction(0)] * max(len(s0), len(qs))
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(qs):
                new_s[i] -= c
            s0, s1 = s1, new_s
        unit = r0[0]  # r0 is the gcd, a nonzero constant
        assert len([c for c in r0 if c]) == 1 and r0[0] != 0
        inv = [c / unit for c in s0]
        inv += [Fraction(0)] * (data.degree - len(inv))
        return CycNum(self.d, inv[: data.degree])

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNum.one(self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(self.d, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.d == other.d and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.d, self.coeffs))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"CycNum[2d={2 * self.d}]({body})"

    # -- analytic view -------------------------------------------------------

    def to_complex(self) -> complex:
        z = cmath.exp(1j * cmath.pi / self.d)
        return sum(float(c) * z**k for k, c in enumerate(self.coeffs))

    def galois(self, l: int) -> "CycNum":
        """Image under the field automorphism zeta -> zeta^l, gcd(l, 2d) = 1."""
        if gcd(l, 2 * self.d) != 1:
            raise NotCoprime(f"{l} is not coprime to {2 * self.d}")
        out = CycNum.zero(self.d)
        for k, c in enumerate(self.coeffs):
            if c:
                out = out + CycNum.zeta(self.d, k * l) * c
        return out


# -- module-level operations ---------------------------------------------------


def field_arith(a: CycNum, b: CycNum, op: str) -> CycNum:
    if not isinstance(a, CycNum) or not isinstance(b, CycNum):
        raise TypeError("field_arith needs CycNum operands")
    if a.d != b.d:
        raise ModulusMismatch(f"moduli differ: {a.d} vs {b.d}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b.is_zero():
            raise DivisionByZero("division by zero")
        return a / b
    raise ValueError(f"unknown op {op!r}")


def eta_power(d: int, k: int, l: int = 1) -> CycNum:
    """eta^k with eta = zeta^2; pass l to use the Galois sibling eta^l instead."""
    return CycNum.zeta(d, 2 * ((k * l) % d))


def q_root(d: int, l: int = 1) -> CycNum:
    """The half root pairing with eta^l: the odd power q_l with q_l^2 = eta^l.

    For odd l this is zeta^l, for even l zeta^{l+d}; either way
    q_l + q_l^{-1} equals the loop parameter of the eta^l theory.
    """
    e = l if l % 2 else l + d
    return CycNum.zeta(d, e % (2 * d))


def quantum_int(n: int, q: CycNum) -> CycNum:
    """[n]_q = (q^n - q^{-n}) / (q - q^{-1})."""
    denom = q - q.inverse()
    if denom.is_zero():
        raise DegenerateRoot("q = q^{-1}: quantum integers undefined")
    return (q**n - q ** (-n)) / denom


def kappa(d: int, l: int = 1) -> CycNum:
    """-(eta^{l(d-1)/2} + eta^{l(d+1)/2}) = 2*cos(pi*l~/d) with l~ = l or d-l."""
    if d % 2 == 0 or d < 3:
        raise EvenModulus("kappa needs odd d >= 3")
    return -(eta_power(d, (d - 1) // 2, l) + eta_power(d, (d + 1) // 2, l))
