"""Sparse multivariate polynomials over Q(zeta_{2d}).

The variable universe is fixed and ordered: the external pair x < z sandwiches
the internal tensor variables y, y1, y2, ...  A polynomial is a dict from
monomials to nonzero CycNum coefficients.  A monomial is a frozenset of
(variable, exponent) pairs listing only the variables with positive exponent,
so it is canonical and hashable, the constant monomial is the empty set, and
two polynomials are equal iff their term dicts coincide.  Substitution maps
each variable to scalar * variable or to 0, so it rewrites monomials one term
at a time; a scaling (every variable to a multiple of itself) keeps each
monomial and only multiplies its coefficient; `monomial_image` normalises
each image, for `linop.Subst` too.  `div_rem` is the one division routine, by
the graded-lex leading term of the divisor; `exact_div` is the case of a zero
remainder, and the Smith form and `linop`'s residue operators divide through
it too.

`perm_product(d, S, u, v, l)` = prod_{j in S} (u - eta^{lj} v) is a binary
form, so it is built from its coefficient list, memoised per (d, S, l)
whatever the variable names: the product over S extends the memoised one
over the sorted prefix S[:-1] by c'_k = c_k - eta^{lj} c_{k-1}, with no
general polynomial product.

A product with the unit polynomial returns the other operand itself, and a
product with another nonzero constant scales the other operand's
coefficients without forming monomial products.  This is safe because
polynomials are never mutated: nothing writes to `terms` after construction.
Operands enter through `as_poly` (scalars through `cyclofield.as_scalar`):
another modulus d raises ModulusMismatch, and `==` answers False.  A subset
of Z/d is keyed by `residues(d, S)`, wherever a constructor is memoised on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from bisect import insort

from .cyclofield import CycNum, ModulusMismatch, as_scalar, eta_power, require_coprime

__all__ = [
    "MPoly",
    "as_poly",
    "monomial_image",
    "residues",
    "NotDivisible",
    "div_rem",
    "exact_div",
    "leading_coeff",
    "coeff_of",
    "perm_product",
    "difference_quotient",
]

_UNIT = frozenset()


class NotDivisible(ArithmeticError):
    pass


def _var_key(name: str):
    if name == "x":
        return (0, 0)
    if name == "z":
        return (2, 0)
    if name == "y":
        return (1, 0)
    if name.startswith("y") and name[1:].isdigit():
        return (1, int(name[1:]))
    return (3, name)


def sort_vars(names) -> tuple:
    return tuple(sorted(set(names), key=_var_key))


def _mono_mul(a: frozenset, b: frozenset) -> frozenset:
    if not a:
        return b
    if not b:
        return a
    e = dict(a)
    for v, k in b:
        e[v] = e.get(v, 0) + k
    return frozenset(e.items())


def monomial_image(d: int, v: str, img):
    """img, the image of v, as None or (nonzero scalar of modulus d, variable); TypeError otherwise."""
    if img is None:
        return None
    if not (isinstance(img, tuple) and len(img) == 2 and isinstance(img[1], str)):
        raise TypeError(f"image of {v!r} must be (scalar, variable) or None, got {img!r}")
    c = as_scalar(d, img[0])
    return None if c.is_zero() else (c, img[1])


class MPoly:
    """Polynomial in named variables with CycNum coefficients."""

    __slots__ = ("d", "terms", "_hash", "_vars")

    def __init__(self, d: int, terms: dict, _normalize: bool = True):
        if _normalize:
            terms = {m: c for m, c in terms.items() if not c.is_zero()}
        self.d = d
        self.terms = terms
        self._hash = None
        self._vars = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(d: int, value) -> "MPoly":
        return MPoly(d, {_UNIT: as_scalar(d, value)})

    @staticmethod
    def zero(d: int) -> "MPoly":
        return MPoly(d, {}, _normalize=False)

    @staticmethod
    @lru_cache(maxsize=None)
    def one(d: int) -> "MPoly":
        """The unit polynomial, one shared object per modulus (polynomials are never mutated)."""
        return MPoly.constant(d, 1)

    @staticmethod
    def var(d: int, name: str, power: int = 1) -> "MPoly":
        """The monomial name^power."""
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return MPoly.one(d)
        return MPoly(d, {frozenset(((name, power),)): CycNum.one(d)}, _normalize=False)

    # -- plumbing --------------------------------------------------------------

    @property
    def vars(self) -> frozenset:
        """The variables that occur with positive exponent."""
        if self._vars is None:
            self._vars = frozenset(v for m in self.terms for v, _ in m)
        return self._vars

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> CycNum:
        if self.is_zero():
            return CycNum.zero(self.d)
        if self.vars:
            raise ValueError(f"{self} is not constant")
        return self.terms[_UNIT]

    def _coerce(self, other):
        if isinstance(other, (MPoly, CycNum, int, Fraction)):
            return as_poly(self.d, other)
        return NotImplemented

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return MPoly(self.d, out, _normalize=False)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.d, {m: -c for m, c in self.terms.items()}, _normalize=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        for c, f in ((self, other), (other, self)):
            if len(c.terms) == 1 and _UNIT in c.terms:
                # a nonzero constant: 1 * f is f, and c * f scales f's
                # coefficients, none of which becomes zero
                c = c.terms[_UNIT]
                if c.is_one():
                    return f
                return MPoly(self.d, {m: c * x for m, x in f.terms.items()}, _normalize=False)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                if m in out:
                    out[m] = out[m] + c
                else:
                    out[m] = c
        return MPoly(self.d, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.one(self.d)
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
        if isinstance(other, (MPoly, CycNum)) and other.d != self.d:
            return False
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.d, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- structure ---------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return max(sum(k for _, k in m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(k for _, k in m) for m in self.terms}) <= 1

    def degree_in(self, v: str) -> int:
        """Highest exponent of v; -1 for the zero polynomial."""
        return max((dict(m).get(v, 0) for m in self.terms), default=-1)

    def coeff_dict_in(self, v: str) -> dict:
        """Decompose along v: {k: coefficient of v^k, an MPoly in the rest}."""
        out: dict = {}
        for m, c in self.terms.items():
            k = dict(m).get(v, 0)
            out.setdefault(k, {})[m - {(v, k)} if k else m] = c
        return {k: MPoly(self.d, t, _normalize=False) for k, t in out.items()}

    def subs(self, mapping: dict) -> "MPoly":
        """Apply the monomial map v -> c * w (image (c, w)) or v -> 0 (image None).

        Every variable is replaced at once; variables not in `mapping` stay.
        Any other image raises TypeError.
        """
        images = {v: monomial_image(self.d, v, img) for v, img in mapping.items()}
        if not any(v in images for v in self.vars):
            return self
        if all(img is not None and img[1] == v for v, img in images.items()):
            return self._rescaled({v: img[0] for v, img in images.items() if not img[0].is_one()})
        return self._mapped(images)

    def _rescaled(self, scales: dict) -> "MPoly":
        """The scaling v -> scales[v] * v: every monomial stays, its coefficient
        gains prod_v scales[v]^k, and none becomes zero."""
        if not scales:
            return self
        out = {}
        for m, c in self.terms.items():
            for v, k in m:
                s = scales.get(v)
                if s is not None:
                    c = c * s**k
            out[m] = c
        return MPoly(self.d, out, _normalize=False)

    def _mapped(self, images: dict) -> "MPoly":
        """The general monomial map: images are (nonzero c, w) or None."""
        one = CycNum.one(self.d)
        out: dict = {}
        for m, c in self.terms.items():
            e: dict = {}
            for v, k in m:
                img = images.get(v, (one, v))
                if img is None:
                    break
                s, w = img
                if s != one:
                    c = c * s**k
                e[w] = e.get(w, 0) + k
            else:
                m2 = frozenset(e.items())
                out[m2] = out[m2] + c if m2 in out else c
        return MPoly(self.d, out)

    def __repr__(self):
        if self.is_zero():
            return "0"
        vars = sort_vars(self.vars)
        parts = []
        for e, c in sorted((tuple(dict(m).get(v, 0) for v in vars), c) for m, c in self.terms.items()):
            mono = "*".join(f"{v}^{p}" if p > 1 else v for v, p in zip(vars, e) if p)
            cs = repr(c)
            parts.append(f"({cs})*{mono}" if mono else f"({cs})")
        return " + ".join(parts)


# -- module operations -------------------------------------------------------------


def as_poly(d: int, x) -> MPoly:
    """x as a polynomial of modulus d, a scalar as a constant; the one coercion of a polynomial."""
    if isinstance(x, MPoly):
        if x.d != d:
            raise ModulusMismatch(f"moduli differ: {d} vs {x.d}")
        return x
    return MPoly.constant(d, x)


def residues(d: int, S) -> frozenset:
    """The residues mod d of S, the one key of a subset of Z/d."""
    return frozenset(s % d for s in S)


def _glex(vars: tuple):
    """Graded lexicographic key on monomials in `vars`: total degree, then
    exponents in variable order.  Keys are cached per monomial."""
    keys: dict = {}

    def key(m):
        k = keys.get(m)
        if k is None:
            e = dict(m)
            k = keys[m] = (sum(e.values()), tuple(e.get(v, 0) for v in vars))
        return k

    return key


def leading_coeff(f: MPoly) -> CycNum:
    """The coefficient of the graded-lex leading monomial; 0 for f = 0."""
    if f.is_zero():
        return CycNum.zero(f.d)
    return f.terms[max(f.terms, key=_glex(sort_vars(f.vars)))]


def div_rem(f: MPoly, g: MPoly) -> tuple[MPoly, MPoly]:
    """(q, r) with f = g*q + r and no term of r divisible by the leading term of g.

    Graded-lex division by the leading term of g.  A step reduces the largest
    divisible term and changes only smaller ones, so only the divisible terms
    are kept in order, and q and r list their terms largest first.  For
    univariate f, g this is Euclidean division, deg r < deg g.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    glex = _glex(sort_vars(f.vars | g.vars))
    glead = max(g.terms, key=glex)
    gexp = dict(glead)
    gcoef = g.terms[glead]
    tail = [(m, c) for m, c in g.terms.items() if m != glead]

    def divisible(m):
        e = dict(m)
        return all(e.get(v, 0) >= k for v, k in gexp.items())

    rem = dict(f.terms)
    todo = sorted((glex(m), m) for m in rem if divisible(m))  # the largest last
    quot: dict = {}
    zero = CycNum.zero(f.d)
    while todo:
        rlead = todo.pop()[1]
        if rlead not in rem:
            continue  # cancelled, or a second entry of a term that came back
        qm = frozenset((v, k - gexp.get(v, 0)) for v, k in rlead if k > gexp.get(v, 0))
        qc = quot[qm] = rem.pop(rlead) / gcoef
        # the leading term of qm * g cancels rlead exactly
        for m, c in tail:
            tm = _mono_mul(m, qm)
            old = rem.get(tm)
            nc = (zero if old is None else old) - qc * c
            if nc.is_zero():
                del rem[tm]
            else:
                if old is None and divisible(tm):
                    insort(todo, (glex(tm), tm))
                rem[tm] = nc
    out = {m: rem[m] for m in sorted(rem, key=glex, reverse=True)}
    return MPoly(f.d, quot, _normalize=False), MPoly(f.d, out, _normalize=False)


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    """The h with g*h = f, or NotDivisible."""
    q, r = div_rem(f, g)
    if r:
        raise NotDivisible(f"{f!r} is not divisible by {g!r}")
    return q


def coeff_of(f: MPoly, v: str, k: int) -> MPoly:
    if k < 0:
        raise ValueError("k must be >= 0")
    return f.coeff_dict_in(v).get(k, MPoly.zero(f.d))


def perm_product(d: int, S, u: str, v: str, l: int = 1) -> MPoly:
    """prod_{j in S} (u - eta^{lj} v); the empty product is 1.

    Raises NotCoprime unless gcd(l, d) = 1: otherwise eta^l is not a
    primitive d-th root and the factors do not split x^d - y^d.  Raises
    ValueError when u and v are the same variable."""
    require_coprime(d, l)
    if u == v:
        raise ValueError(f"perm_product needs two distinct variables, got {u!r} twice")
    return _perm_product(d, residues(d, S), u, v, l)


@lru_cache(maxsize=None)
def _perm_product(d: int, S: frozenset, u: str, v: str, l: int) -> MPoly:
    n = len(S)
    terms = {}
    for k, c in enumerate(_perm_coeffs(d, tuple(sorted(S)), l)):
        if c:
            terms[frozenset((w, e) for w, e in ((u, n - k), (v, k)) if e)] = c
    return MPoly(d, terms, _normalize=False)


@lru_cache(maxsize=None)
def _perm_coeffs(d: int, S: tuple, l: int) -> tuple:
    """The coefficients c_k of u^{|S|-k} v^k in prod_{j in S} (u - eta^{lj} v)
    for ascending S.  They do not depend on the variable names, and each is
    one factor (u - e v) times the memoised product over S[:-1]:
    c'_k = c_k - e c_{k-1}."""
    if not S:
        return (CycNum.one(d),)
    prev = _perm_coeffs(d, S[:-1], l)
    e = eta_power(d, S[-1], l)
    return (prev[0], *(c - e * b for b, c in zip(prev, prev[1:])), -(e * prev[-1]))


def difference_quotient(f: MPoly, v: str, w: str) -> MPoly:
    """(f - f[v := w]) / (v - w), always a polynomial."""
    num = f - f.subs({v: (1, w)})
    den = MPoly.var(f.d, v) - MPoly.var(f.d, w)
    return exact_div(num, den)
