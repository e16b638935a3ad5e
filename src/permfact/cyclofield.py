"""Exact arithmetic in the cyclotomic field Q(zeta_{2d}).

Every scalar in the package lives here: with zeta = e^{i*pi/d} the primitive
2d-th root of unity, the two roots the constructions need are

    eta = zeta^2 = e^{2*pi*i/d}      (the order-d root used in index sets)
    q   = zeta   = e^{i*pi/d}        (the half root used in quantum numbers)

and kappa(d) = -(eta^{(d-1)/2} + eta^{(d+1)/2}) = q + q^{-1} = 2*cos(pi/d).

Elements are residues modulo the 2d-th cyclotomic polynomial Phi_{2d}, of
degree phi(2d), stored fraction-free as number-field libraries such as
FLINT/Antic store them: a tuple ``num`` of phi(2d) integer numerators over one
positive integer denominator ``den``, the element being
sum(num[k] * zeta^k) / den.  The form is normalised, gcd(den, *num) = 1 (so
zero is all-zero numerators over 1), hence canonical: equality of elements is
equality of (d, num, den).  ``coeffs`` is a read-only view of the same element
as a tuple of ``Fraction`` coefficients.

Phi_{2d} is monic with integer coefficients, so a product is an integer
convolution followed by an integer reduction of t^k mod Phi_{2d} and one gcd;
a sum of elements over the same denominator adds numerators.  An inverse is
integer arithmetic too: the product of the other Galois conjugates of the
numerator, sigma_k(x) for the units k != 1 mod 2d, over the norm N(x), which
is rational.  The tables of a modulus are built on first use of that d,
from Phi_{2d} (the Mobius factorisation of t^{2d} - 1, over Z): all 2d powers
of zeta (``zeta(d, k)`` is a lookup), the exponent of each of them, the
terms of t^k mod Phi_{2d}, the units mod 2d, and a memo of inverses.
``quantum_int`` is memoised per (n, q).

Roots of unity are recognised by value, not by how they were built: the
table elements carry their exponent k, and any other element looks its
numerators up in the exponent table once, on first use, and keeps the
answer (``root_exponent``).  Their arithmetic is exponent arithmetic:
zeta^j * zeta^k is the table element zeta^{j+k mod 2d}, the inverse of
zeta^k is zeta^{-k}, and a power is the lookup zeta^{k*e mod 2d}, for
negative e too.  Any other element times zeta^k is its numerators times the
table rows t^{i+k} mod Phi_{2d}, with no convolution and no gcd, since
zeta^k is a unit of Z[zeta].  Every other product goes through the integer
kernel, and any other base is raised by repeated squaring.  A product with
a factor equal to one returns the other factor itself, and
``from_rational(d, 0)`` and ``(d, 1)`` return the shared table elements.
This is safe because elements are never mutated: nothing writes to ``num``
or ``den`` after construction.

Scalars enter the field exactly, through ``as_scalar(d, value)``: a CycNum of
modulus d as it is (ModulusMismatch for another), an int or Fraction (not a
bool) through ``from_rational``, TypeError for anything else, floats included.
Arithmetic operands and the layers above (``polyring.as_poly``, ``linop``,
``temperleylieb``) coerce every scalar through it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "CycNum",
    "as_scalar",
    "DivisionByZero",
    "ModulusMismatch",
    "InvalidModulus",
    "FieldIdentityError",
    "DegenerateRoot",
    "EvenModulus",
    "NotCoprime",
    "eta_power",
    "require_coprime",
    "quantum_int",
    "kappa",
]


class DivisionByZero(ZeroDivisionError):
    pass


class ModulusMismatch(ValueError):
    pass


class InvalidModulus(ValueError):
    """The modulus d of Q(zeta_{2d}) is not an int >= 1."""


class FieldIdentityError(ArithmeticError):
    """An exact identity the field arithmetic rests on does not hold."""


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


def cyclotomic_poly(n: int) -> list[int]:
    """Integer coefficients of Phi_n(t) (low to high), via the Mobius
    factorisation of t^n - 1: the factors t^m - 1 with mu = 1 multiplied,
    then those with mu = -1 divided out, each division exact over Z."""
    num = [1]
    divisors = []
    for k in range(1, n + 1):
        if n % k:
            continue
        mu, m = _mobius(k), n // k
        if mu == 1:
            out = [0] * m + num
            for i, c in enumerate(num):
                out[i] -= c
            num = out
        elif mu == -1:
            divisors.append(m)
    for m in divisors:
        # synthetic division by the monic t^m - 1: t^k = t^{k-m} (t^m - 1) + t^{k-m}
        rem = list(num)
        quot = [0] * max(len(rem) - m, 0)
        for k in range(len(rem) - 1, m - 1, -1):
            c = rem[k]
            if c:
                quot[k - m] = c
                rem[k - m] += c
                rem[k] = 0
        if any(rem):
            raise FieldIdentityError(f"Phi_{n}: the cyclotomic division is not exact over Z")
        num = quot
    return num


def _exact(value):
    """value itself if it is an int or a Fraction (bool excluded); TypeError otherwise."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise TypeError(f"{value!r} is not an exact rational")


def _make(d: int, num, den: int) -> "CycNum":
    """The element num/den, which the caller guarantees is normalised."""
    x = object.__new__(CycNum)
    x.d = d
    x.num = tuple(num)
    x.den = den
    x._hash = None
    x._root = None
    return x


def _normal(d: int, num, den: int) -> "CycNum":
    """The element num/den (den > 0) in normal form: gcd(den, *num) = 1."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _make(d, num, den)


class _FieldData:
    """Per-modulus tables of Q(zeta_{2d}), built on first use of d.

    ``units``: the residues k mod 2d coprime to 2d, ascending (so 1 first),
    whose zeta -> zeta^k are the Galois automorphisms.
    ``zeta_powers``: zeta^k for k in range(2d), as elements.
    ``zeta_exponent``: k for the numerators of zeta^k (each has den 1).
    ``power_terms``: for k in range(2d), the nonzero terms (i, c) of
    t^k mod Phi.
    ``reduction``: its entries for k = degree .. 2*degree - 2, every power a
    product of two reduced elements reaches.
    ``inverses``: the memo of ``CycNum.inverse``, keyed by (num, den).
    """

    _cache: dict[int, "_FieldData"] = {}

    def __init__(self, d: int):
        self.d = d
        self.n = 2 * d
        phi = cyclotomic_poly(self.n)
        deg = len(phi) - 1
        self.degree = deg
        self.units = tuple(k for k in range(1, self.n) if gcd(k, self.n) == 1)
        # t^k mod Phi for k < 2d: multiply by t, then replace t^deg by
        # -(phi[0] + ... + phi[deg-1] t^{deg-1}) (Phi is monic)
        powers = []
        row = [1] + [0] * (deg - 1)
        for _ in range(self.n):
            powers.append(tuple(row))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [r - top * p for r, p in zip(row, phi)]
        self.zeta_powers = tuple(_make(d, p, 1) for p in powers)
        for k, z in enumerate(self.zeta_powers):
            z._root = k
        self.zeta_exponent = {p: k for k, p in enumerate(powers)}
        self.power_terms = tuple(tuple((i, c) for i, c in enumerate(p) if c) for p in powers)
        self.reduction = self.power_terms[deg : 2 * deg - 1]
        self.zero = _make(d, [0] * deg, 1)
        self.inverses: dict[tuple, CycNum] = {}

    @classmethod
    def get(cls, d: int) -> "_FieldData":
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InvalidModulus(f"the modulus d must be an int >= 1, got {d!r}")
        data = cls._cache.get(d)
        if data is None:
            data = cls._cache[d] = cls(d)
        return data


class CycNum:
    """An element sum(num[k] * zeta^k) / den of Q(zeta_{2d}), reduced modulo
    Phi_{2d} and normalised so that gcd(den, *num) = 1.

    ``_hash`` and ``_root`` (the exponent k of an element equal to zeta^k,
    or -1) are filled on first use; the coefficients are ints or Fractions,
    TypeError otherwise."""

    __slots__ = ("d", "num", "den", "_hash", "_root")

    def __init__(self, d: int, coeffs):
        data = _FieldData.get(d)
        coeffs = [Fraction(_exact(c)) for c in coeffs]
        if len(coeffs) != data.degree:
            raise ValueError(f"need {data.degree} coefficients, got {len(coeffs)}")
        # over the lcm of reduced denominators, gcd(den, *num) is already 1
        den = lcm(*(c.denominator for c in coeffs))
        self.d = d
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den
        self._hash = None
        self._root = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, zeta, ..., zeta^{phi(2d)-1} as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(d: int, value) -> "CycNum":
        """value (an int or a Fraction; TypeError otherwise) as an element;
        0 and 1 are the shared table elements."""
        data = _FieldData.get(d)
        value = _exact(value)
        top, den = value.numerator, value.denominator
        if den == 1 and top in (0, 1):
            return data.zeta_powers[0] if top else data.zero
        return _make(d, (top,) + (0,) * (data.degree - 1), den)

    @staticmethod
    def zero(d: int) -> "CycNum":
        return _FieldData.get(d).zero

    @staticmethod
    def one(d: int) -> "CycNum":
        return _FieldData.get(d).zeta_powers[0]

    @staticmethod
    def zeta(d: int, k: int = 1) -> "CycNum":
        """zeta^k for zeta the generating 2d-th root."""
        return _FieldData.get(d).zeta_powers[k % (2 * d)]

    # -- helpers -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.root_exponent() == 0

    def root_exponent(self) -> int:
        """k in range(2d) with self = zeta^k, or -1 when self is no root of
        unity; looked up by value on first call and kept."""
        k = self._root
        if k is None:
            k = self._root = _FieldData._cache[self.d].zeta_exponent.get(self.num, -1) if self.den == 1 else -1
        return k

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = as_scalar(self.d, other)
        a, b = self.den, other.den
        if a == b:
            return _normal(self.d, [x + y for x, y in zip(self.num, other.num)], a)
        return _normal(self.d, [x * b + y * a for x, y in zip(self.num, other.num)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.d, [-x for x in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = as_scalar(self.d, other)
        a, b = self.den, other.den
        if a == b:
            return _normal(self.d, [x - y for x, y in zip(self.num, other.num)], a)
        return _normal(self.d, [x * b - y * a for x, y in zip(self.num, other.num)], a * b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = as_scalar(self.d, other)
        data = _FieldData._cache[self.d]
        # roots of unity, however they were built, multiply by adding
        # exponents, and a factor equal to one returns the other one
        r, s = self._root, other._root
        if r is None:
            r = self.root_exponent()
        if s is None:
            s = other.root_exponent()
        if r >= 0 and s >= 0:
            return data.zeta_powers[(r + s) % data.n]
        if s == 0:
            return self
        if r == 0:
            return other
        if r > 0 or s > 0:
            # zeta^k times a non-root: the numerators weight the rows
            # t^{i+k} mod Phi.  zeta^k is a unit of Z[zeta], so the content
            # of the numerators, hence the normal form, is kept
            x, k = (self, s) if s > 0 else (other, r)
            n, rows = data.n, data.power_terms
            out = [0] * data.degree
            for i, c in enumerate(x.num):
                if c:
                    for j, z in rows[(i + k) % n]:
                        out[j] += c * z
            y = _make(self.d, out, x.den)
            y._root = -1  # a non-root times a root is no root
            return y
        deg = data.degree
        terms = [(j, y) for j, y in enumerate(other.num) if y]
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in terms:
                    prod[i + j] += x * y
        out = prod[:deg]
        for k, row in enumerate(data.reduction, deg):
            c = prod[k]
            if c:
                for i, r in row:
                    out[i] += c * r
        return _normal(self.d, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """x^{-1} = prod_{k != 1} sigma_k(x) / N(x), memoised per field.

        sigma_k is zeta -> zeta^k over the units k mod 2d, and the norm
        N(x) = prod_k sigma_k(x) is rational.  The product runs over the
        integral numerator, so it is integer arithmetic with one division
        by the integer norm; FieldIdentityError when that norm is not a
        nonzero rational.  The inverse of zeta^k is zeta^{-k}."""
        data = _FieldData._cache[self.d]
        k = self.root_exponent()
        if k >= 0:
            return data.zeta_powers[-k % data.n]
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        key = (self.num, self.den)
        hit = data.inverses.get(key)
        if hit is not None:
            return hit
        # (num/den)^{-1} = den * a^{-1} for the integral a = num
        a = _make(self.d, self.num, 1)
        conj = CycNum.one(self.d)
        for k in data.units[1:]:
            conj = conj * a.galois(k)
        norm = (a * conj).num
        if not norm[0] or any(norm[1:]):
            raise FieldIdentityError(f"the norm of {self!r} is not a nonzero rational")
        scale = self.den if norm[0] > 0 else -self.den
        out = data.inverses[key] = _normal(self.d, [c * scale for c in conj.num], abs(norm[0]))
        return out

    def __truediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = as_scalar(self.d, other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        j = self.root_exponent()
        if j >= 0:
            return _FieldData._cache[self.d].zeta_powers[j * k % (2 * self.d)]
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
        if isinstance(other, bool):
            return NotImplemented  # no exact scalar: unequal, as a float is
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(self.d, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.d == other.d and self.den == other.den and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            # an integral Fraction hashes as its int, so over den = 1 the
            # numerators give hash((d, coeffs)) without building Fractions
            self._hash = hash((self.d, self.num if self.den == 1 else self.coeffs))
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
        data = _FieldData._cache[self.d]
        out = [0] * data.degree
        for k, c in enumerate(self.num):
            if c:
                for i, z in enumerate(data.zeta_powers[k * l % data.n].num):
                    if z:
                        out[i] += c * z
        return _normal(self.d, out, self.den)


# -- module-level operations ---------------------------------------------------

_SCALARS = (CycNum, int, Fraction)  # the operand types as_scalar accepts


def as_scalar(d: int, value) -> CycNum:
    """value as an element of Q(zeta_{2d}); the one coercion of a scalar."""
    if isinstance(value, CycNum):
        if value.d != d:
            raise ModulusMismatch(f"moduli differ: {d} vs {value.d}")
        return value
    return CycNum.from_rational(d, value)


def eta_power(d: int, k: int, l: int = 1) -> CycNum:
    """eta^k with eta = zeta^2; pass l to use the Galois sibling eta^l instead."""
    return CycNum.zeta(d, 2 * ((k * l) % d))


def require_coprime(d: int, l: int) -> None:
    """Raise NotCoprime unless gcd(l, d) = 1, i.e. unless eta^l is a primitive d-th root."""
    if gcd(l, d) != 1:
        raise NotCoprime(f"the root exponent {l} is not coprime to d = {d}")


def q_root(d: int, l: int = 1) -> CycNum:
    """The half root pairing with eta^l: the odd power q_l with q_l^2 = eta^l.

    For odd l this is zeta^l, for even l zeta^{l+d}; either way
    q_l + q_l^{-1} equals the loop parameter of the eta^l theory.
    """
    e = l if l % 2 else l + d
    return CycNum.zeta(d, e % (2 * d))


@lru_cache(maxsize=None)
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
    require_coprime(d, l)
    return -(eta_power(d, (d - 1) // 2, l) + eta_power(d, (d + 1) // 2, l))
