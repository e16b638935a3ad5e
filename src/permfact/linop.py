"""Exact linear operators used as matrix-morphism entries.

Most morphism components between bifactorisations are plain polynomial
multiplications, but the unit isomorphisms substitute the shared internal
variable into an external one, and the evaluation maps extract a residue-type
coefficient.  Both are linear over the external pair, and together with
polynomial multiplication they close under every composition this package
performs.  An operator is a finite sum of terms

    f  |->  num * phi( core(f) )

where phi is a monomial substitution homomorphism (each variable goes to
scalar * variable, possibly to 0) and core is the optional residue extractor

    core(f) = sum_{m >= 0} (injc*inj)^{step*m} * coeff_elim(prem * f, step*(m+1)).

No term has a denominator: the one quotient the duality maps need, the odd
entry of ev, is divided exactly when `mfcore.ev_coev` builds it.

Both the core and its normal form are `polyring.div_rem` by the modulus
g = elim^step - (injc*inj)^step.  Its graded-lex leading term is elim^step
(elim precedes inj in `sort_vars` order), so the remainder has elim-degree
below step.  The core is the quotient at elim = 0: with c = (injc*inj)^step
and prem * f = sum_k p_k elim^k = g*q + r, comparing the coefficients of
elim^k gives q_j = p_{j+step} + c*q_{j+step}, so q(elim = 0) is the sum above.

Normal form: every stored term has prem replaced by its remainder modulo g.
For prem = g*q + r, core_prem(f) = core_r(f) + q(0) * f(elim = 0), so the
quotient splits off as a term phi(q(0)) * phi . {elim -> 0} without a core.
Terms are normalised once: `Term.normalized` returns a normal term as it is,
`_compose_terms` returns only normal terms, and sums and constant multiples
of normal premultipliers stay normal, so `compose`, `+` and `-` only regroup.

The normal form is not unique, so `LinOp.is_zero` decides zero by rewriting
every term over maps that are linearly independent over the field of
rational functions: monomial substitutions, and f |-> phi(coeff_elim(f, j))
for j >= 1.  A residue core is a roots-of-unity filter: with g = prem * f and
omega over the step-th roots of unity (in Q(zeta_{2d}), as step divides 2d),

    (injc*inj)^step * core(f) = (1/step) sum_omega g(elim -> omega*injc*inj) - g(elim -> 0),

a sum of substitutions once phi is applied, unless phi kills inj; then only
phi(coeff_elim(g, step)) survives.  The rewrite is exact: on monomials
x^a, each map is a product over variables of an exponential lambda^{a_v}
(lambda != 0) or a point mass [a_v = j], and such products with distinct
factors are linearly independent (induct on the variables; on N, point masses
and exponentials with distinct nonzero bases are independent by Vandermonde).
So an operator is zero iff, for each map, its coefficients sum to zero.

Most residue terms need no expansion.  The residue terms that keep injc*inj
and share (phi, elim, inj, injc, step) form a filter group.  With
phi(injc*inj) = c*w (c != 0) and Q_k = sum_t num_t * phi(prem_{t,k}), k < step,
the group's coefficient on phi . sigma_j, sigma_j: elim -> omega_j*injc*inj,
is sum_k omega_j^k (c*w)^k Q_k / (step * (c*w)^step), and on
phi . {elim -> 0} it is -Q_0 / (c*w)^step.  The maps phi . sigma_j are
distinct (the omega_j are, and c != 0), and (omega_j^k) over j, k < step is
an invertible Vandermonde (DFT) matrix, so all of the group's coefficients
vanish iff every Q_k does; the normal form matters here, since k < step keeps
the powers omega_j^k apart.  When no other group or term reaches any of these
step + 1 maps, nothing else adds to their coefficients, so `is_zero` decides
the group by its sums Q_k alone.  A group that shares a map with another group
or term (injc differing by a step-th root of unity, or a substitution landing
on a filter map) is expanded as above.

As matrix entries, operators, polynomials and scalars combine by `+`, `-`,
`*` and `==` whatever their type, through `as_linop`: `a * b` is a after b
(for a polynomial p, `op * p` precomposes with multiplication by p and
`p * op` multiplies the output by p), and `a == b` is the exact zero test of
`a - b`.
`MPoly` and `CycNum` return NotImplemented for an operator operand, so mixed
expressions reach the operator's methods.  Operators are not hashable.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclofield import CycNum, ModulusMismatch, as_scalar
from .polyring import MPoly, as_poly, div_rem, exact_div, monomial_image, sort_vars

__all__ = [
    "Subst",
    "ResidueCore",
    "Term",
    "LinOp",
    "LinOpCompositionError",
    "ResidueVariableClash",
    "as_linop",
]


class LinOpCompositionError(RuntimeError):
    pass


class ResidueVariableClash(ValueError):
    """A residue core whose eliminated and injected variables coincide."""


class Subst:
    """Monomial substitution homomorphism: each var maps to c*w or to 0.

    Images are normalised by `polyring.monomial_image`, as in `MPoly.subs`,
    and identity images dropped."""

    __slots__ = ("d", "mapping")

    def __init__(self, d: int, mapping: dict):
        clean = {}
        for v, img in mapping.items():
            img = monomial_image(d, v, img)
            if img is None or img[1] != v or not img[0].is_one():
                clean[v] = img
        self.d = d
        self.mapping = clean

    @staticmethod
    def identity(d: int) -> "Subst":
        return Subst(d, {})

    def is_identity(self) -> bool:
        return not self.mapping

    def image_of(self, v: str):
        """(scalar, var) image of v, or None when v maps to 0."""
        if v in self.mapping:
            return self.mapping[v]
        return (CycNum.one(self.d), v)

    def apply(self, p: MPoly) -> MPoly:
        return p.subs(self.mapping)

    def compose(self, other: "Subst") -> "Subst":
        """self after other."""
        out = dict(self.mapping)
        for v, img in other.mapping.items():
            img2 = None if img is None else self.image_of(img[1])
            out[v] = None if img2 is None else (img[0] * img2[0], img2[1])
        return Subst(self.d, out)

    def key(self):
        return tuple(sorted(self.mapping.items()))

    def touches(self, v: str) -> bool:
        return v in self.mapping

    def maps_onto(self, var: str) -> bool:
        """True if some explicitly mapped variable lands on `var`."""
        return any(img is not None and img[1] == var for img in self.mapping.values())

    def restricted_without(self, v: str) -> "Subst":
        return Subst(self.d, {w: img for w, img in self.mapping.items() if w != v})

    def inverse_scaling(self) -> "Subst":
        """Inverse, defined when every image is a nonzero scaling of the same var."""
        out = {}
        for v, img in self.mapping.items():
            if img is None or img[1] != v:
                raise LinOpCompositionError(f"{self!r} is not a pure scaling")
            out[v] = (img[0].inverse(), v)
        return Subst(self.d, out)

    def __repr__(self):
        if self.is_identity():
            return "id"
        bits = []
        for v, img in sorted(self.mapping.items()):
            bits.append(f"{v}->0" if img is None else f"{v}->({img[0]!r})*{img[1]}")
        return "{" + ", ".join(bits) + "}"


class ResidueCore:
    """f |-> the quotient of prem*f by elim^step - (injc*inj)^step, at elim = 0.

    `div_rem` divides by the graded-lex leading term, elim^step only when elim
    precedes inj in `sort_vars` order; any other pair raises ResidueVariableClash.
    injc is a CycNum of prem's modulus, or an int or Fraction taken as one;
    another modulus raises ModulusMismatch and any other type TypeError."""

    __slots__ = ("prem", "elim", "inj", "injc", "step", "injc_step")

    def __init__(self, prem: MPoly, elim: str, inj: str, injc: CycNum, step: int):
        injc = as_scalar(prem.d, injc)
        if sort_vars((elim, inj)) != (elim, inj):
            raise ResidueVariableClash(f"residue core needs its eliminated {elim!r} to precede its injected {inj!r} in variable order")
        if step < 1 or (2 * prem.d) % step:
            raise ValueError(f"residue step {step} is not a positive divisor of 2d = {2 * prem.d}")
        self.prem = prem
        self.elim = elim
        self.inj = inj
        self.injc = injc
        self.step = step
        # the map depends on injc only through injc**step
        self.injc_step = injc**step

    def modulus(self) -> MPoly:
        """elim^step - (injc*inj)^step, with graded-lex leading term elim^step."""
        d = self.prem.d
        return MPoly.var(d, self.elim, self.step) - MPoly.var(d, self.inj, self.step) * self.injc_step

    def apply(self, f: MPoly) -> MPoly:
        quot, _ = div_rem(self.prem * f, self.modulus())
        return quot.subs({self.elim: None})

    def key(self):
        return (self.elim, self.inj, self.injc_step, self.step)


class Term:
    """f |-> num * phi(core(f)), with core optional."""

    __slots__ = ("num", "phi", "core")

    def __init__(self, num: MPoly, phi: Subst, core: ResidueCore | None = None):
        self.num = num
        self.phi = phi
        self.core = core

    def apply(self, f: MPoly) -> MPoly:
        out = self.core.apply(f) if self.core is not None else f
        return self.num * self.phi.apply(out)

    def output_free_of(self, var: str) -> bool:
        """True if no input can produce `var` in this term's image."""
        if var in self.num.vars:
            return False
        if self.phi.maps_onto(var):
            return False
        consumed = self.core is not None and self.core.elim == var
        if self.core is not None and not consumed:
            img = self.phi.image_of(self.core.inj)
            if img is not None and img[1] == var:
                return False
            for v in self.core.prem.vars:
                if v == self.core.elim:
                    continue
                img = self.phi.image_of(v)
                if img is not None and img[1] == var:
                    return False
        return consumed or (self.phi.touches(var) and not self.phi.maps_onto(var))

    def normalized(self) -> list["Term"]:
        """Replace prem by its remainder modulo the core's modulus; split off the quotient at elim = 0.

        A term already in normal form (elim-degree of prem below step) is
        returned as [self]."""
        if self.num.is_zero():
            return []
        if self.core is None:
            return [self]
        d = self.num.d
        core = self.core
        if core.prem.is_zero():
            return []
        elim = core.elim
        if core.prem.degree_in(elim) < core.step:
            return [self]
        quot, rem = div_rem(core.prem, core.modulus())
        out = []
        if not rem.is_zero():
            out.append(Term(self.num, self.phi, ResidueCore(rem, elim, core.inj, core.injc, core.step)))
        q0 = quot.subs({elim: None})
        if not q0.is_zero():
            ev = Subst(d, {elim: None})
            out.append(Term(self.num * self.phi.apply(q0), self.phi.compose(ev)))
        return out

    def __repr__(self):
        core = "" if self.core is None else f" . Res[{self.core.prem!r}; {self.core.elim}=>{self.core.injc!r}*{self.core.inj}]"
        return f"[({self.num!r}) . {self.phi!r}{core}]"


def _compose_terms(t2: Term, t1: Term) -> list[Term]:
    """t2 after t1, rewritten into normal-form terms."""
    d = t1.num.d
    if t2.core is None:
        num = t2.num * t2.phi.apply(t1.num)
        return Term(num, t2.phi.compose(t1.phi), t1.core).normalized()
    elim = t2.core.elim
    # Absorb t1's numerator into the premultiplier; what remains of t1 is
    # phi1(core1(f)).
    prem = t2.core.prem * t1.num
    stripped = Term(MPoly.one(d), t1.phi, t1.core)
    if stripped.output_free_of(elim):
        # core2 sees an elim-free input: it collapses to its value at 1
        const = ResidueCore(prem, elim, t2.core.inj, t2.core.injc, t2.core.step).apply(MPoly.one(d))
        outer = Term(t2.num * t2.phi.apply(const), t2.phi)
        return _compose_terms(outer, stripped)
    if t1.core is None:
        img = t1.phi.image_of(elim)
        if img is not None and img[1] == elim:
            # phi1 scales elim (possibly trivially): conjugate it through the core
            s = img[0]
            rest = t1.phi.restricted_without(elim)
            rest_inv = rest.inverse_scaling()
            prem2 = prem.subs({**rest_inv.mapping, elim: (s.inverse(), elim)})
            inj_scale = rest.image_of(t2.core.inj)
            if inj_scale is None or inj_scale[1] != t2.core.inj:
                raise LinOpCompositionError("substitution moves the injection variable")
            injc2 = t2.core.injc * s / inj_scale[0]
            core = ResidueCore(prem2, elim, t2.core.inj, injc2, t2.core.step)
            num = t2.num * s**t2.core.step
            return Term(num, t2.phi.compose(rest), core).normalized()
        raise LinOpCompositionError(f"unsupported composition through {t1.phi!r}")
    raise LinOpCompositionError("residue core fed by an image still carrying its variable")


class LinOp:
    """A finite sum of Terms; the entry type for non-polynomial morphisms."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms):
        flat: list[Term] = []
        for t in terms:
            flat.extend(t.normalized())
        self.d = d
        self.terms = tuple(self._group(flat))

    @classmethod
    def _regrouped(cls, d: int, terms) -> "LinOp":
        """A LinOp from terms already in normal form.

        Sums and constant multiples of premultipliers reduced below
        elim^step stay reduced, so such terms only need grouping."""
        op = cls.__new__(cls)
        op.d = d
        op.terms = tuple(cls._group(terms))
        return op

    @staticmethod
    def _group(terms):
        homs: dict = {}
        cores: dict = {}
        order: list = []
        for t in terms:
            if t.core is not None and t.num.is_constant() and t.num != MPoly.one(t.num.d):
                # a constant numerator scales the premultiplier, so such terms share a key
                c = t.core
                core = ResidueCore(c.prem * t.num, c.elim, c.inj, c.injc, c.step)
                t = Term(MPoly.one(t.num.d), t.phi, core)
            if t.core is None:
                key = ("h", t.phi.key())
                if key in homs:
                    prev = homs[key]
                    homs[key] = Term(prev.num + t.num, t.phi)
                else:
                    homs[key] = t
                    order.append(key)
            else:
                key = ("c", t.phi.key(), t.core.key(), t.num)
                if key in cores:
                    prev = cores[key]
                    core = ResidueCore(prev.core.prem + t.core.prem, t.core.elim, t.core.inj, t.core.injc, t.core.step)
                    cores[key] = Term(t.num, t.phi, core)
                else:
                    cores[key] = t
                    order.append(key)
        out = []
        for key in order:
            t = homs[key] if key[0] == "h" else cores[key]
            if t.num.is_zero():
                continue
            if t.core is not None and t.core.prem.is_zero():
                continue
            out.append(t)
        return out

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def poly(p: MPoly) -> "LinOp":
        return LinOp(p.d, [Term(p, Subst.identity(p.d))])

    @staticmethod
    def substitution(d: int, mapping: dict, coeff=None) -> "LinOp":
        num = MPoly.one(d) if coeff is None else as_poly(d, coeff)
        return LinOp(d, [Term(num, Subst(d, mapping))])

    @staticmethod
    def zero(d: int) -> "LinOp":
        return LinOp(d, [])

    def as_multiplication(self, input_vars) -> MPoly | None:
        """Multiplication polynomial on inputs drawn from `input_vars`.

        Valid when every term is manifestly linear over those variables (no
        substitution touches them and no residue core eliminates one); then
        the operator acts as multiplication by its value at 1.
        """
        one = CycNum.one(self.d)
        for t in self.terms:
            if t.core is not None and t.core.elim in input_vars:
                return None
            for v in input_vars:
                img = t.phi.image_of(v)
                if img is None or img != (one, v):
                    return None
        return self.apply(MPoly.one(self.d))

    # -- algebra -----------------------------------------------------------------

    def __add__(self, other):
        other = as_linop(other, self.d)
        return LinOp._regrouped(self.d, self.terms + other.terms)

    def __radd__(self, other):
        return as_linop(other, self.d) + self

    def __mul__(self, other):
        """self after other."""
        return self.compose(other)

    def __rmul__(self, other):
        """Multiplication of the output by the polynomial or scalar `other`."""
        return self.scaled(other)

    def __neg__(self):
        return LinOp._regrouped(self.d, [Term(-t.num, t.phi, t.core) for t in self.terms])

    def __sub__(self, other):
        other = as_linop(other, self.d)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, c) -> "LinOp":
        p = as_poly(self.d, c)
        return LinOp(self.d, [Term(t.num * p, t.phi, t.core) for t in self.terms])

    def compose(self, other) -> "LinOp":
        """self after other."""
        other = as_linop(other, self.d)
        out: list[Term] = []
        for t2 in self.terms:
            for t1 in other.terms:
                out.extend(_compose_terms(t2, t1))
        return LinOp._regrouped(self.d, out)

    def conjugated(self, out_map: Subst, in_map: Subst) -> "LinOp":
        """out_map . self . in_map (coordinate change by scalings/renames)."""
        left = LinOp(self.d, [Term(MPoly.one(self.d), out_map)])
        right = LinOp(self.d, [Term(MPoly.one(self.d), in_map)])
        return left.compose(self).compose(right)

    def pruned_for_source(self, src_vars) -> "LinOp":
        """Drop substitution assignments for variables no input can contain.

        A term's substitution acts on the residue-core output, whose variables
        lie in (src_vars minus the eliminated one) + the injection variable +
        the premultiplier's variables; assignments outside that set are
        vacuous and only obstruct composition rewrites.  Returns self when no
        assignment is vacuous."""
        terms, pruned = [], False
        for t in self.terms:
            allowed = set(src_vars)
            if t.core is not None:
                allowed.discard(t.core.elim)
                allowed.add(t.core.inj)
                allowed.update(v for v in t.core.prem.vars if v != t.core.elim)
            mapping = {v: img for v, img in t.phi.mapping.items() if v in allowed}
            if len(mapping) < len(t.phi.mapping):
                t, pruned = Term(t.num, Subst(self.d, mapping), t.core), True
            terms.append(t)
        return LinOp(self.d, terms) if pruned else self

    def renamed(self, mapping: dict) -> "LinOp":
        """Rename variables throughout (mapping must be injective where applied)."""
        d = self.d

        sub = {v: (1, w) for v, w in mapping.items()}
        rp = lambda p: p.subs(sub)

        terms = []
        for t in self.terms:
            phi2 = {}
            for v, img in t.phi.mapping.items():
                tgt = None if img is None else (img[0], mapping.get(img[1], img[1]))
                phi2[mapping.get(v, v)] = tgt
            core2 = None
            if t.core is not None:
                core2 = ResidueCore(
                    rp(t.core.prem),
                    mapping.get(t.core.elim, t.core.elim),
                    mapping.get(t.core.inj, t.core.inj),
                    t.core.injc,
                    t.core.step,
                )
            terms.append(Term(rp(t.num), Subst(d, phi2), core2))
        return LinOp(d, terms)

    # -- action -----------------------------------------------------------------

    def apply(self, f: MPoly) -> MPoly:
        return sum((t.apply(f) for t in self.terms), MPoly.zero(self.d))

    # -- equality ------------------------------------------------------------------

    def is_zero(self) -> bool:
        """True iff each independent map's coefficients sum to zero (see the module docstring)."""
        isolated, parts = _zero_test_parts(self.terms)
        return all(_filter_sums_vanish(g) for g in isolated) and all(
            _sum_fractions(self.d, p)[0].is_zero() for p in parts.values()
        )

    def equals(self, other) -> bool:
        return (self - other).is_zero()

    def __eq__(self, other):
        if isinstance(other, bool) or not isinstance(other, (LinOp, MPoly, int, CycNum, Fraction)):
            return NotImplemented
        if isinstance(other, (LinOp, MPoly, CycNum)) and other.d != self.d:
            return False
        return self.equals(other)

    __hash__ = None

    def degree_shift(self) -> Fraction | None:
        """Uniform polynomial-degree shift of the operator, None if mixed."""
        shifts = set()
        for t in self.terms:
            if not t.num.is_homogeneous():
                return None
            s = t.num.degree()
            if t.core is not None:
                # the modulus is homogeneous of degree step
                if not t.core.prem.is_homogeneous():
                    return None
                s += t.core.prem.degree() - t.core.step
            shifts.add(s)
        if len(shifts) != 1:
            return None
        return Fraction(shifts.pop())

    def __repr__(self):
        return " + ".join(repr(t) for t in self.terms) if self.terms else "0op"


def as_linop(entry, d: int) -> LinOp:
    """entry as an operator of modulus d, a polynomial or scalar (`as_poly`) as a multiplication."""
    if isinstance(entry, LinOp):
        if entry.d != d:
            raise ModulusMismatch(f"moduli differ: {d} vs {entry.d}")
        return entry
    return LinOp.poly(as_poly(d, entry))


def _sum_fractions(d: int, parts) -> tuple[MPoly, MPoly]:
    """(numerator, denominator) of sum num/den over the product of the distinct dens."""
    common = MPoly.one(d)
    for q in dict.fromkeys(den for _, den in parts):
        common = common * q
    total = MPoly.zero(d)
    for num, den in parts:
        total = total + (num if den == common else num * exact_div(common, den))
    return total, common


def _injection_image(t: Term):
    """(c, w) with phi(injc*inj) = c*w for a residue term; None if phi kills it."""
    img = t.phi.image_of(t.core.inj)
    if img is None or t.core.injc.is_zero():
        return None
    return t.core.injc * img[0], img[1]


def _filter_keys(t: Term) -> list:
    """Keys of the maps a residue term's filter reaches: phi . sigma_j for
    j < step, with sigma_j: elim -> omega_j*injc*inj, then phi . {elim -> 0}."""
    d = t.num.d
    core, phi = t.core, t.phi
    unit = 2 * d // core.step  # omega_j = zeta^(unit*j)
    keys = [
        phi.compose(Subst(d, {core.elim: (CycNum.zeta(d, unit * j) * core.injc, core.inj)})).key()
        for j in range(core.step)
    ]
    keys.append(phi.compose(Subst(d, {core.elim: None})).key())
    return keys


def _zero_test_parts(terms):
    """(isolated filter groups, {key: [(num, den)]} from expanding every other term).

    A filter group is the residue terms that keep injc*inj and share
    (phi, elim, inj, injc, step); it is isolated when no other group or term
    reaches any of its filter keys."""
    groups: dict = {}
    parts: dict = {}

    def expand(t):
        for key, num, den in _basis_expansion(t):
            parts.setdefault(key, []).append((num, den))

    for t in terms:
        if t.core is None or _injection_image(t) is None:
            expand(t)
        else:
            c = t.core
            groups.setdefault((t.phi.key(), c.elim, c.inj, c.injc, c.step), []).append(t)
    keys_of = [(group, _filter_keys(group[0])) for group in groups.values()]
    plain = set(parts)
    reached: dict = {}
    for _, keys in keys_of:
        for key in keys:
            reached[key] = reached.get(key, 0) + 1
    isolated = []
    for group, keys in keys_of:
        if all(reached[key] == 1 and key not in plain for key in keys):
            isolated.append(group)
        else:
            for t in group:
                expand(t)
    return isolated, parts


def _filter_sums_vanish(group) -> bool:
    """True iff Q_k = sum_t num_t * phi(prem_{t,k}) vanishes for every k."""
    phi, elim = group[0].phi, group[0].core.elim
    sums: dict = {}
    for t in group:
        for k, pk in t.core.prem.coeff_dict_in(elim).items():
            q = t.num * phi.apply(pk)
            sums[k] = sums[k] + q if k in sums else q
    return all(q.is_zero() for q in sums.values())


def _basis_expansion(t: Term):
    """Triples (key, num, den) with t(f) = sum num * B_key(f) / den.

    den is 1, or w^step for the roots-of-unity filter of a residue core.

    B_key is the monomial substitution with that Subst.key(), or, for
    key = ("coeff", elim, j, phi.key()), the map f |-> phi(coeff_elim(f, j)).
    """
    if t.core is None:
        yield t.phi.key(), t.num, MPoly.one(t.num.d)
        return
    d = t.num.d
    core, phi = t.core, t.phi
    elim, step = core.elim, core.step
    image = _injection_image(t)
    if image is None:
        # phi kills injc*inj: t(f) = num * phi(coeff_elim(prem * f, step))
        rest = phi.restricted_without(elim)
        one = MPoly.one(d)
        for k, pk in core.prem.coeff_dict_in(elim).items():
            if k == step:
                yield phi.compose(Subst(d, {elim: None})).key(), t.num * phi.apply(pk), one
            elif k < step:
                yield ("coeff", elim, step - k, rest.key()), t.num * phi.apply(pk), one
        return
    # the roots-of-unity filter over phi(injc*inj)^step = (c*w)^step, with
    # phi(prem(elim -> omega*injc*inj)) = sum_k omega^k * (c*w)^k * phi(prem_k)
    c, w = image
    den = MPoly.var(d, w, step)
    scale = (c**step * step).inverse()
    parts = {}
    for k, pk in core.prem.coeff_dict_in(elim).items():
        parts[k] = phi.apply(pk) * MPoly.var(d, w, k) * (c**k * scale)
    keys = _filter_keys(t)
    unit = 2 * d // step  # omega_j = zeta^(unit*j)
    for j in range(step):
        value = MPoly.zero(d)
        for k, part in parts.items():
            value = value + (part * CycNum.zeta(d, unit * j * k) if j * k else part)
        yield keys[j], t.num * value, den
    if 0 in parts:
        yield keys[step], t.num * parts[0] * -step, den
