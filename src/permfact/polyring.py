"""Sparse multivariate polynomials over Q(zeta_{2d}).

The variable universe is fixed and ordered: the external pair x < z sandwiches
the internal tensor variables y, y1, y2, ...  A polynomial is a dict from
monomials to nonzero CycNum coefficients, so two polynomials are equal iff
their term dicts coincide.

A monomial is one packed int, the packed exponent vector of Monagan and
Pearce ("Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  The int is a row of fields of _WIDTH bits: the field
at shift 0 holds the total degree, and every variable owns one field for its
exponent.  The constant monomial is 0.  The field table `_SHIFT`, from
variable name to shift, is the only module state.  A name gets the next free
field the first time it is seen, and is validated there: TypeError unless it
is a str, ValueError for y followed by a digit string that is not an index
>= 1 in decimal without leading zeros (y0 would tie with y and y01 with y1 in
the variable order).  The top bit of each field is its guard bit, zero in
every monomial: every exponent, and so the degree, stays below 2^(_WIDTH-1).

- A product of monomials is m1 + m2.  The degree bounds every exponent, so a
  product that overflows a field sets the degree field's guard bit:
  `MPoly.__mul__` ORs its result monomials together and tests the guard
  bits once per product.  It raises OverflowError, and so does `MPoly.var` for
  an exponent at the bound and `**` through the products; no overflow yields
  a wrong monomial.
- lead divides m iff ((m | G) - lead) & G == G, where G holds the guard bits
  of every field in the table: a field of m below lead's field borrows its
  guard bit away.  The quotient monomial is m - lead.
- `degree` and `is_homogeneous` read the degree field; `degree_in` and
  `coeff_dict_in` read one variable's field.
- Substitution maps each variable to scalar * variable or to 0.  It moves the
  exponent of each mapped variable's field to the image's field, which keeps
  the degree, so it cannot overflow; a scaling (every variable to a multiple
  of itself) keeps each monomial and only multiplies its coefficient.
  `monomial_image` normalises each image, for `linop.Subst` too.
- Monomials are opaque outside this module: `monomial(exps)` packs one (an
  exponent that is not an int raises TypeError) and `exponents(m)` unpacks
  it.  The graded-lex order compares the degree, then the exponents in
  `sort_vars` order, read field by field, so it does not depend on the order
  in which names got their fields.

`div_rem` is the one division routine, by the graded-lex leading term of the
divisor; `exact_div` is the case of a zero remainder, and the Smith form and
`linop`'s residue operators divide through it too.

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
of Z/d is keyed by `residues(d, S)`, wherever a constructor is memoised on it;
an element that is not an int (a bool included) raises TypeError there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from bisect import insort
from operator import or_

from .cyclofield import CycNum, ModulusMismatch, as_scalar, eta_power, require_coprime

__all__ = [
    "MPoly",
    "as_poly",
    "monomial",
    "exponents",
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

_WIDTH = 16  # bits per field; the top one is the field's guard bit
_FIELD = (1 << _WIDTH) - 1  # the mask of the field at shift 0, the degree
_BOUND = 1 << (_WIDTH - 1)  # exponents and degrees stay below; the degree field's guard bit
_UNIT = 0  # the constant monomial
_SHIFT: dict = {}  # variable name -> shift of its exponent field


class NotDivisible(ArithmeticError):
    pass


def _var_key(name: str):
    """The position of a variable in the order x < y < y1 < y2 < ... < z < others."""
    if not isinstance(name, str):
        raise TypeError(f"a variable name must be a str, got {name!r}")
    if name == "x":
        return (0, 0)
    if name == "z":
        return (2, 0)
    if name == "y":
        return (1, 0)
    index = name[1:]
    if name.startswith("y") and index.isdigit():
        if not index.isascii() or index.startswith("0"):
            raise ValueError(f"variable {name!r}: an index after y is a decimal integer >= 1 without leading zeros")
        return (1, int(index))
    return (3, name)


def sort_vars(names) -> tuple:
    return tuple(sorted(set(names), key=_var_key))


def _shift(name: str) -> int:
    """The shift of name's field; a new name is validated and gets the next free field."""
    s = _SHIFT.get(name)
    if s is None:
        _var_key(name)
        s = _SHIFT[name] = _WIDTH * (len(_SHIFT) + 1)
    return s


def _guards() -> int:
    """The guard bits of the degree field and of every field in the table."""
    return (1 << _WIDTH * (len(_SHIFT) + 1)) // _FIELD * _BOUND


def monomial(exps: dict) -> int:
    """The packed monomial prod_v v^exps[v]; OverflowError for a degree at the field bound."""
    m = deg = 0
    for v, k in exps.items():
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError(f"the exponent of {v!r} must be an int, got {k!r}")
        if k < 0:
            raise ValueError(f"negative exponent {k} of {v!r}")
        m += k << _shift(v)
        deg += k
    if deg >= _BOUND:
        raise OverflowError(f"degree {deg} of {exps} reaches the field bound {_BOUND}")
    return m + deg


def exponents(m: int) -> dict:
    """{variable: positive exponent} of the packed monomial m."""
    return {v: k for v, s in _SHIFT.items() if (k := m >> s & _FIELD)}


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
        m = monomial({name: power})
        if m == _UNIT:
            return MPoly.one(d)
        return MPoly(d, {m: CycNum.one(d)}, _normalize=False)

    # -- plumbing --------------------------------------------------------------

    @property
    def vars(self) -> frozenset:
        """The variables that occur with positive exponent."""
        if self._vars is None:
            union = reduce(or_, self.terms, 0)
            self._vars = frozenset(v for v, s in _SHIFT.items() if union >> s & _FIELD)
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
                m = m1 + m2
                c = c1 * c2
                if m in out:
                    out[m] = out[m] + c
                else:
                    out[m] = c
        # the degree bounds every exponent, so an overflow in any field sets the degree's guard bit
        if reduce(or_, out, 0) & _BOUND:
            raise OverflowError(f"a product of {self!r} and {other!r} reaches the degree bound {_BOUND}")
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
            k >>= 1
            if k:
                base = base * base
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
        return max(m & _FIELD for m in self.terms)

    def is_homogeneous(self) -> bool:
        return len({m & _FIELD for m in self.terms}) <= 1

    def degree_in(self, v: str) -> int:
        """Highest exponent of v; -1 for the zero polynomial."""
        s = _shift(v)
        return max((m >> s & _FIELD for m in self.terms), default=-1)

    def coeff_dict_in(self, v: str) -> dict:
        """Decompose along v: {k: coefficient of v^k, an MPoly in the rest}."""
        s = _shift(v)
        out: dict = {}
        for m, c in self.terms.items():
            k = m >> s & _FIELD
            out.setdefault(k, {})[m - (k << s) - k] = c
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
        fields = [(_shift(v), x) for v, x in scales.items()]
        out = {}
        for m, c in self.terms.items():
            for s, x in fields:
                k = m >> s & _FIELD
                if k:
                    c = c * x**k
            out[m] = c
        return MPoly(self.d, out, _normalize=False)

    def _mapped(self, images: dict) -> "MPoly":
        """The general monomial map: images are (nonzero c, w) or None.

        Each mapped field moves to w's field (None: the term vanishes), and
        the degree stays, so no field can overflow."""
        one = CycNum.one(self.d)
        moves = []
        for v, img in images.items():
            if img is None:
                moves.append((_shift(v), None, None))
            else:
                c, w = img
                moves.append((_shift(v), None if c == one else c, _shift(w)))
        out: dict = {}
        for m, c in self.terms.items():
            m2 = m
            for s, x, t in moves:
                k = m >> s & _FIELD
                if k:
                    if t is None:
                        break
                    if x is not None:
                        c = c * x**k
                    m2 += (k << t) - (k << s)
            else:
                out[m2] = out[m2] + c if m2 in out else c
        return MPoly(self.d, out)

    def __repr__(self):
        if self.is_zero():
            return "0"
        vars = sort_vars(self.vars)
        shifts = [_SHIFT[v] for v in vars]
        parts = []
        for e, c in sorted((tuple([m >> s & _FIELD for s in shifts]), c) for m, c in self.terms.items()):
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
    """The residues mod d of S, the one key of a subset of Z/d; TypeError for
    an element that is not an int (a bool included)."""
    return frozenset(_residue(d, s) for s in S)


def _residue(d: int, s) -> int:
    if not isinstance(s, int) or isinstance(s, bool):
        raise TypeError(f"an element of a subset of Z/{d} must be an int, got {s!r}")
    return s % d


def _glex(vars: tuple):
    """Graded lexicographic key on monomials in `vars`: total degree, then
    exponents in variable order.  Keys are cached per monomial."""
    shifts = [_SHIFT[v] for v in vars]
    keys: dict = {}

    def key(m):
        k = keys.get(m)
        if k is None:
            k = keys[m] = (m & _FIELD, tuple([m >> s & _FIELD for s in shifts]))
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
    gcoef = g.terms[glead]
    tail = [(m, c) for m, c in g.terms.items() if m != glead]
    guards = _guards()

    def divisible(m):
        # a field of m below glead's borrows its guard bit away
        return ((m | guards) - glead) & guards == guards

    rem = dict(f.terms)
    todo = sorted((glex(m), m) for m in rem if divisible(m))  # the largest last
    quot: dict = {}
    zero = CycNum.zero(f.d)
    while todo:
        rlead = todo.pop()[1]
        if rlead not in rem:
            continue  # cancelled, or a second entry of a term that came back
        qm = rlead - glead
        qc = quot[qm] = rem.pop(rlead) / gcoef
        # the leading term of qm * g cancels rlead exactly
        for m, c in tail:
            tm = m + qm
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
            terms[monomial({u: n - k, v: k})] = c
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
