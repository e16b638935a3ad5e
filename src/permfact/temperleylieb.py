"""Planar Temperley-Lieb calculus and its realisation on bifactorisations.

Diagrams are perfect non-crossing matchings of boundary points (bottom row
left to right, then top row); composition stacks diagrams and converts each
closed loop into a factor of the loop parameter kappa = 2 cos(pi/d).  The
functor into bifactorisations sends k strands to the k-fold product of the
self-dual generator T (left-bracketed, strand variables x, y1, ..., z), a cap
to the evaluation map u, and a cup to the coevaluation map n.  Each layer is
one of the spliced pieces of `mfcore.duality_pieces` (u or n with the unit
absorbed by rho or lambda, or made by a strict section), renamed into its slot
and tensored with identities.

The Jones-Wenzl projector p_n is built once per (n, d, l) by the one-sided
expansion of Wenzl's recursion, p_{k+1} extending p_k (see `jw`), and is
certified by its characterisation, not by expanding p_n p_n: identity
coefficient 1, e_i p_n = p_n e_i = 0 for every i, and trace [n+1].
Idempotence follows from the Jones normal form: every diagram of TL_n other
than the identity is a word e_{i_1} ... e_{i_k} in the generators with
coefficient 1 (no closed loops), so p_n D = (p_n e_{i_1}) e_{i_2} ... e_{i_k}
= 0 for each such D, and p_n p_n = p_n . 1 = p_n.  Two reflections, which
keep loops, make most of the products redundant (Kauffman-Lins,
Temperley-Lieb Recoupling Theory, 1994; Wenzl, On sequences of
projections, 1987).  The left-right mirror M is an automorphism with
M(e_i) = e_{n-i}, so when M(p_n) = p_n, e_{n-i} p_n = M(e_i p_n): the left
products for i <= floor(n/2) give all of them.  The top-bottom flip F is an
anti-automorphism fixing each e_i, so Y = F(p_n) has Y e_i = F(e_i p_n) = 0;
expanding p_n = 1 + sum x_D D in normal words gives Y p_n = Y, expanding Y
gives Y p_n = p_n, so p_n = F(p_n) and p_n e_i = F(e_i p_n) = 0.
`certify_jw` therefore forms floor(n/2) products and one mirror scan.

The functor is not faithful: End_TL(T (x) T_{d-2}) is 2-dimensional while its
image is 1-dimensional.  `tl_end_dimension` gets the 2 from a spanning
argument and one Markov trace, with no sandwich P e_1 P expanded.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .cyclofield import CycNum, EvenModulus, as_scalar, kappa, q_root, quantum_int
from .mfcore import (
    MFMorphism,
    duality_pieces,
    identity_morphism,
    perm_mf,
    reassoc,
    self_dual_subset,
    tensor_mf,
    tensor_morphism,
    unit_mf,
)
from .polyring import MPoly

__all__ = [
    "StrandMismatch",
    "RootMismatch",
    "UndefinedProjector",
    "NotJonesWenzl",
    "TraceVanishes",
    "TLDiagram",
    "TLMorphism",
    "tl_identity",
    "tl_e",
    "enumerate_diagrams",
    "jw",
    "certify_jw",
    "tl_end_dimension",
    "strand_object",
    "evaluate_F",
]


class StrandMismatch(ValueError):
    pass


class RootMismatch(ValueError):
    """Morphisms of different moduli d or root exponents l are combined."""


class UndefinedProjector(ValueError):
    pass


class NotJonesWenzl(ValueError):
    """A morphism fails the characterisation of the Jones-Wenzl projector."""


class TraceVanishes(ArithmeticError):
    """The trace that separates P from P e_1 P in tl_end_dimension is zero."""


class TLDiagram:
    """Planar matching on n_bottom + n_top boundary points.

    Points 0..n_bottom-1 run along the bottom left to right; points
    n_bottom..n_bottom+n_top-1 along the top left to right.  Point p is
    joined to mate[p]; the mate table is all a diagram stores.
    """

    __slots__ = ("n_bottom", "n_top", "mate", "_hash")

    def __init__(self, n_bottom: int, n_top: int, pairs):
        total = n_bottom + n_top
        if total % 2:
            raise ValueError("odd number of boundary points")
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        seen = [q for p in norm for q in p]
        if sorted(seen) != list(range(total)):
            raise ValueError(f"not a perfect matching on {total} points: {norm}")
        mate = [0] * total
        for p, q in norm:
            mate[p], mate[q] = q, p
        self._fill(n_bottom, n_top, tuple(mate))
        if not self._planar():
            raise ValueError(f"matching is not planar: {norm}")

    @classmethod
    def _from_mate(cls, n_bottom: int, n_top: int, mate) -> "TLDiagram":
        """The diagram joining p to mate[p], for a mate known to be a planar
        perfect matching (a composite or tensor of diagrams); nothing is checked."""
        dg = object.__new__(cls)
        dg._fill(n_bottom, n_top, tuple(mate))
        return dg

    def _fill(self, n_bottom, n_top, mate):
        self.n_bottom = n_bottom
        self.n_top = n_top
        self.mate = mate
        self._hash = hash((n_bottom, n_top, mate))

    @property
    def pairs(self) -> tuple:
        """The chords (p, mate[p]) with p < mate[p], by ascending p."""
        return tuple((p, q) for p, q in enumerate(self.mate) if p < q)

    def _circle_pos(self, p: int) -> int:
        # circular boundary order: bottom left-to-right, then top right-to-left
        if p < self.n_bottom:
            return p
        return self.n_bottom + (self.n_top - 1 - (p - self.n_bottom))

    def _planar(self) -> bool:
        chords = [tuple(sorted((self._circle_pos(a), self._circle_pos(b)))) for a, b in self.pairs]
        for i, (a, b) in enumerate(chords):
            for c, e in chords[i + 1 :]:
                if (a < c < b) != (a < e < b):
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, TLDiagram)
            and (self.n_bottom, self.n_top, self.mate) == (other.n_bottom, other.n_top, other.mate)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TLDiagram({self.n_bottom}->{self.n_top}, {list(self.pairs)})"


def tl_identity_diagram(n: int) -> TLDiagram:
    return TLDiagram(n, n, [(i, n + i) for i in range(n)])


def e_diagram(n: int, i: int) -> TLDiagram:
    """The generator e_i (1-indexed): cap-cup on strands i, i+1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"e_{i} does not exist on {n} strands")
    pairs = [(i - 1, i), (n + i - 1, n + i)]
    for j in range(n):
        if j not in (i - 1, i):
            pairs.append((j, n + j))
    return TLDiagram(n, n, pairs)


def _compose_mates(f: TLDiagram, g: TLDiagram):
    """(f . g) for g: a -> b, f: b -> c; returns (the composite's mate, loop_count).

    The union of the two matchings decomposes into alternating paths (between
    outer boundary points) and alternating loops inside the interface.  g
    numbers the interface a..a+b-1 and f numbers it 0..b-1."""
    if g.n_top != f.n_bottom:
        raise StrandMismatch(f"{g!r} then {f!r}")
    a, b = g.n_bottom, g.n_top
    gm, fm = g.mate, f.mate
    mate = [-1] * (a + f.n_top)
    seen = bytearray(b)
    for start in range(len(mate)):
        if mate[start] >= 0:
            continue
        # a point of the composite's top is f's point start - a + b
        p, in_g = (gm[start], True) if start < a else (fm[start - a + b], False)
        while True:
            if in_g:
                if p < a:
                    break
                seen[p - a] = 1
                p, in_g = fm[p - a], False
            else:
                if p >= b:
                    p += a - b
                    break
                seen[p] = 1
                p, in_g = gm[p + a], True
        mate[start], mate[p] = p, start
    loops = 0
    for i in range(b):
        if seen[i]:
            continue
        loops += 1
        j = i
        while True:
            j = fm[j]
            seen[j] = 1
            j = gm[j + a] - a
            seen[j] = 1
            if j == i:
                break
    return tuple(mate), loops


class TLMorphism:
    """Formal CycNum-combination of diagrams with common source and target."""

    def __init__(self, d: int, src: int, tgt: int, combo: dict, l: int = 1):
        self.d = d
        self.l = l
        self.src = src
        self.tgt = tgt
        self.combo = {dg: c for dg, c in combo.items() if not c.is_zero()}
        for dg in self.combo:
            if (dg.n_bottom, dg.n_top) != (src, tgt):
                raise StrandMismatch(f"{dg!r} in a {src}->{tgt} morphism")

    @staticmethod
    def from_diagram(d: int, dg: TLDiagram, l: int = 1) -> "TLMorphism":
        """One diagram with coefficient 1.  Validates the root as jw does:
        EvenModulus unless d is odd and >= 3, NotCoprime unless gcd(l, d) = 1."""
        kappa(d, l)
        return TLMorphism(d, dg.n_bottom, dg.n_top, {dg: CycNum.one(d)}, l)

    def _same_root(self, other: "TLMorphism") -> None:
        if (self.d, self.l) != (other.d, other.l):
            raise RootMismatch(f"(d, l) = {(other.d, other.l)} meets (d, l) = {(self.d, self.l)}")

    def __add__(self, other):
        self._same_root(other)
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise StrandMismatch(f"cannot add a {other.src}->{other.tgt} to a {self.src}->{self.tgt} morphism")
        combo = dict(self.combo)
        for dg, c in other.combo.items():
            combo[dg] = combo.get(dg, CycNum.zero(self.d)) + c
        return TLMorphism(self.d, self.src, self.tgt, combo, self.l)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "TLMorphism":
        c = as_scalar(self.d, c)
        return TLMorphism(self.d, self.src, self.tgt, {dg: v * c for dg, v in self.combo.items()}, self.l)

    def compose(self, other: "TLMorphism") -> "TLMorphism":
        """self after other."""
        self._same_root(other)
        if other.tgt != self.src:
            raise StrandMismatch(f"{other.tgt} strands into {self.src}")
        # sum the c2 that share a composite (mate, loops) before one product
        # with c1; kappa^loops once per composite; one diagram per surviving mate
        by_loops: dict = {}
        for dg1, c1 in other.combo.items():
            inner: dict = {}
            for dg2, c2 in self.combo.items():
                key = _compose_mates(dg2, dg1)
                inner[key] = inner[key] + c2 if key in inner else c2
            for key, c2 in inner.items():
                c = c1 * c2
                by_loops[key] = by_loops[key] + c if key in by_loops else c
        by_mate: dict = {}
        for (mate, loops), c in by_loops.items():
            if loops:
                c = c * _kappa_power(self.d, self.l, loops)
            by_mate[mate] = by_mate[mate] + c if mate in by_mate else c
        combo = {
            TLDiagram._from_mate(other.src, self.tgt, mate): c for mate, c in by_mate.items() if not c.is_zero()
        }
        return TLMorphism(self.d, other.src, self.tgt, combo, self.l)

    def tensor(self, other: "TLMorphism") -> "TLMorphism":
        """self beside other; distinct factor pairs give distinct diagrams, so nothing is summed."""
        self._same_root(other)
        nb1, nt1, nb2 = self.src, self.tgt, other.src
        nb, nt = nb1 + nb2, nt1 + other.tgt
        # where each factor's points land among the product's
        pos1 = [*range(nb1), *range(nb, nb + nt1)]
        pos2 = [*range(nb1, nb), *range(nb + nt1, nb + nt)]
        combo: dict = {}
        for dg1, c1 in self.combo.items():
            mate = [0] * (nb + nt)
            for p, q in enumerate(dg1.mate):
                mate[pos1[p]] = pos1[q]
            for dg2, c2 in other.combo.items():
                for p, q in enumerate(dg2.mate):
                    mate[pos2[p]] = pos2[q]
                combo[TLDiagram._from_mate(nb, nt, mate)] = c1 * c2
        return TLMorphism(self.d, nb, nt, combo, self.l)

    def trace(self) -> CycNum:
        """Markov closure: join bottom i to top i, count loops.

        The diagram pairing and the closure pairing are two perfect matchings
        on the same points; their union is a disjoint set of loops.  The
        coefficients are summed per loop count before one power of kappa."""
        if self.src != self.tgt:
            raise StrandMismatch("trace needs equal strand counts")
        n = self.src
        closure = [(p + n) % (2 * n) for p in range(2 * n)]
        by_loops: dict = {}
        for dg, c in self.combo.items():
            mate, seen, loops = dg.mate, bytearray(2 * n), 0
            for start in range(2 * n):
                if seen[start]:
                    continue
                loops += 1
                cur = start
                while not seen[cur]:
                    seen[cur] = seen[mate[cur]] = 1
                    cur = closure[mate[cur]]
            by_loops[loops] = by_loops[loops] + c if loops in by_loops else c
        return sum((c * _kappa_power(self.d, self.l, loops) for loops, c in by_loops.items()), CycNum.zero(self.d))

    def equals(self, other: "TLMorphism") -> bool:
        return (self - other).combo == {}

    def __repr__(self):
        return f"TLMorphism({self.src}->{self.tgt}, {len(self.combo)} diagrams)"


@lru_cache(maxsize=None)
def _kappa_power(d: int, l: int, k: int) -> CycNum:
    """kappa^k, the weight of k closed loops, once per (d, l, k)."""
    return kappa(d, l) ** k


def tl_identity(d: int, n: int, l: int = 1) -> TLMorphism:
    return TLMorphism.from_diagram(d, tl_identity_diagram(n), l)


def tl_e(d: int, n: int, i: int, l: int = 1) -> TLMorphism:
    return TLMorphism.from_diagram(d, e_diagram(n, i), l)


def enumerate_diagrams(nb: int, nt: int):
    """All planar matchings with nb bottom and nt top points."""
    total = nb + nt
    if total % 2:
        return []
    # enumerate non-crossing matchings along the circular boundary order
    circle = list(range(nb)) + [nb + nt - 1 - i for i in range(nt)]

    def rec(points):
        if not points:
            return [[]]
        first = points[0]
        out = []
        for idx in range(1, len(points), 2):
            for inside in rec(points[1:idx]):
                for outside in rec(points[idx + 1 :]):
                    out.append([(first, points[idx])] + inside + outside)
        return out

    return [TLDiagram(nb, nt, pairs) for pairs in rec(circle)]


def jw(n: int, d: int, l: int = 1) -> TLMorphism:
    """Jones-Wenzl idempotent on n >= 1 strands at q = q_root(d, l).

    Raises EvenModulus unless d is odd and >= 3, NotCoprime unless
    gcd(l, d) = 1, ValueError for n < 1 and UndefinedProjector when some
    [k + 1], k < n, vanishes (n >= d).  Built once per (n, d, l), however
    l is spelled, by the one-sided expansion of Wenzl's recursion

        p_{k+1} = P - sum_{j=1..k} (-1)^{k-j} [j]/[k+1] . P e_k e_{k-1} ... e_j,

    P = p_k (x) 1, from the memoised p_k.  Derivation: Wenzl's two-sided
    recursion is p_{k+1} = P - [k]/[k+1] . P e_k P.  Write Q_j for
    p_j (x) 1 (x) ... (x) 1 on k + 1 strands, so P = Q_k and Q_1 = 1.  A
    word W = e_k ... e_j commutes with Q_{j-1}, which lives on the strands
    left of j, and P Q_{j-1} = P, so expanding Q_j by the recursion gives
    P W Q_j = P W - [j-1]/[j] . P W e_{j-1} Q_{j-1}.  From P e_k P =
    P e_k Q_k the coefficients telescope to P e_k P = sum_j (-1)^{k-j}
    [j]/[k] . P e_k ... e_j.  One step composes P with k single diagrams,
    in place of the C_k x C_k diagram pairs of P e_k P.  The projector is
    unique, so this is the same p_n; certify_jw checks it.
    """
    kappa(d, l)  # the root is validated before the memo is consulted
    if n < 1:
        raise ValueError(f"p_n needs n >= 1 strands, got n = {n}")
    return _jw(n, d, l)


@lru_cache(maxsize=None)
def _jw(n: int, d: int, l: int) -> TLMorphism:
    if n == 1:
        return tl_identity(d, 1, l)
    k, q = n - 1, q_root(d, l)
    denom = quantum_int(n, q)
    if denom.is_zero():
        raise UndefinedProjector(f"[{n}] vanishes; p_{n} undefined")
    inv = denom.inverse()
    P = _jw(k, d, l).tensor(tl_identity(d, 1, l))
    p, word = P, tl_e(d, n, k, l)
    for j in range(k, 0, -1):
        c = quantum_int(j, q) * inv
        p = p + P.compose(word.scaled(c if (k - j) % 2 else -c))
        if j > 1:
            word = word.compose(tl_e(d, n, j - 1, l))
    return p


def _mirror(dg: TLDiagram) -> TLDiagram:
    """The left-right reflection of dg: each row read right to left.

    A reflected planar matching is planar, so nothing is checked."""
    nb, nt = dg.n_bottom, dg.n_top
    # point p lands on at[p]; each row reverses in place
    at = [*range(nb - 1, -1, -1), *range(nb + nt - 1, nb - 1, -1)]
    mate = [0] * (nb + nt)
    for p, q in enumerate(dg.mate):
        mate[at[p]] = at[q]
    return TLDiagram._from_mate(nb, nt, mate)


_CERTIFIED: dict = {}  # (n, d, l) -> the TLMorphism certify_jw last accepted there


def certify_jw(p: TLMorphism) -> None:
    """Certify that p is the Jones-Wenzl projector on p.src strands.

    Checks, in this order: identity coefficient 1, e_i p = 0 for
    i = 1 .. floor(n/2), p equal to its left-right mirror, and trace [n+1];
    that is floor(n/2) diagram products and one coefficient scan.  Raises
    NotJonesWenzl naming the first condition that fails.

    These imply e_i p = p e_i = 0 for every i, which determine p_n uniquely
    and make it idempotent (Jones normal form, see the module docstring):
    - The mirror M reflects diagrams left to right.  It keeps loops,
      M(a b) = M(a) M(b) and M(e_i) = e_{n-i}, so with M(p) = p,
      e_{n-i} p = M(e_i p) = 0, and the left products cover every i.
    - The flip F turns diagrams upside down.  It keeps loops,
      F(a b) = F(b) F(a) and F(e_i) = e_i.  Write p = 1 + sum x_D D; each
      D != 1 is a word e_{i_1} ... e_{i_k} with coefficient 1.  Put
      Y = F(p); then Y e_i = F(e_i p) = 0 for every i.
    - Expanding p: Y D = (Y e_{i_1}) ... = 0 for each D != 1, so Y p = Y.
    - Expanding Y: F(D) p = ... (e_{i_1} p) = 0 for each D != 1, so
      Y p = p.
    - Hence p = F(p), and p e_i = F(e_i p) = 0.

    A success is remembered per (n, d, l) for that very object (morphisms
    are never mutated), so certifying the memoised jw(n, d, l) again costs
    nothing; any other morphism, and every failure, is checked in full.
    """
    d, l, n = p.d, p.l, p.src
    if p.tgt != n:
        raise StrandMismatch(f"a projector is an endomorphism, got {n}->{p.tgt} strands")
    if _CERTIFIED.get((n, d, l)) is p:
        return
    if p.combo.get(tl_identity_diagram(n)) != CycNum.one(d):
        raise NotJonesWenzl(f"identity coefficient of p_{n} != 1")
    for i in range(1, n // 2 + 1):
        if tl_e(d, n, i, l).compose(p).combo:
            raise NotJonesWenzl(f"e_{i} p_{n} != 0")
    combo = p.combo
    if any(combo.get(_mirror(dg)) != c for dg, c in combo.items()):
        raise NotJonesWenzl(f"p_{n} differs from its left-right reflection")
    if p.trace() != quantum_int(n + 1, q_root(d, l)):
        raise NotJonesWenzl(f"trace p_{n} != [{n + 1}]")
    _CERTIFIED[(n, d, l)] = p


def tl_end_dimension(d: int, l: int = 1) -> int:
    """dim of (1 (x) p_{d-2}) TL_{d-1} (1 (x) p_{d-2}), which is 2.

    Validates d and l as jw does.  Upper bound: the sandwiches P D P of the
    diagrams D of TL_{d-1}, P = 1 (x) p with p = p_{d-2} on strands 2..d-1,
    span the space.  Once p is certified (certify_jw; raises NotJonesWenzl
    otherwise), all but two vanish: a diagram with a bottom cap on strands
    i, i+1 >= 2 satisfies D = kappa^{-1} D e_i, and e_i P = 0 because
    e_{i-1} p = 0; a top cup on such strands gives D = kappa^{-1} e_i D, and
    P e_i = 0 likewise.  Every cap of a diagram encloses an innermost one on
    adjacent points, so a survivor's only possible bottom cap and top cup
    join strands 1 and 2: the survivors are the identity and e_1, whose
    sandwiches are P (p is idempotent) and P e_1 P.

    Lower bound: two functionals separate P and P e_1 P.  The identity
    coefficient is 1 on P and 0 on P e_1 P, since a composite through e_1
    has fewer than d - 1 through-strands.  The Markov trace gives
    tr(P e_1 P) = tr(e_1 P P) = tr(e_1 P) by cyclicity and P P = P.  So
    a P + b P e_1 P = 0 forces a = 0 and then b = 0 when tr(e_1 P) != 0
    (it is [d-1] = 1).  That trace composes P with one diagram; if it
    vanishes, TraceVanishes is raised.
    """
    p = jw(d - 2, d, l)
    certify_jw(p)
    proj = tl_identity(d, 1, l).tensor(p)
    if tl_e(d, d - 1, 1, l).compose(proj).trace().is_zero():
        raise TraceVanishes(f"tr(e_1 (1 (x) p_{d - 2})) = 0 at d = {d}, l = {l}: the lower bound is unproven")
    return 2


# -- the functor into bifactorisations ---------------------------------------------


def _strand_vars(m: int):
    if m == 0:
        return ["x", "z"]
    return ["x"] + [f"y{i}" for i in range(1, m)] + ["z"]


def strand_object(d: int, m: int, l: int = 1):
    """T^{(x) m}, left-bracketed, on variables x, y1, ..., y_{m-1}, z."""
    if m == 0:
        return unit_mf(d, "x", "z")
    v = _strand_vars(m)
    return reduce(tensor_mf, (perm_mf(d, self_dual_subset(d), a, b, l) for a, b in zip(v, v[1:])))


def cap_layer(d: int, m: int, i: int, l: int = 1) -> MFMorphism:
    """id^i (x) u (x) id^{m-i-2} followed by splicing out the unit: T^m -> T^{m-2}."""
    if not 0 <= i <= m - 2:
        raise StrandMismatch(f"no cap at slot {i} of {m} strands")
    p = duality_pieces(d, l)
    return _splice(d, m, i, m - 2, p.u if m == 2 else p.cap_rho if i else p.cap_lambda, l)


def cup_layer(d: int, m: int, i: int, l: int = 1) -> MFMorphism:
    """Splice the unit in at slot i and apply n: T^m -> T^{m+2}."""
    if not 0 <= i <= m:
        raise StrandMismatch(f"no cup at slot {i} of {m} strands")
    p = duality_pieces(d, l)
    return _splice(d, m, i, m + 2, p.n if m == 0 else p.cup_rho if i else p.cup_lambda, l)


def _splice(d: int, m: int, i: int, m_out: int, piece: MFMorphism, l: int) -> MFMorphism:
    """The layer T^m -> T^{m_out} applying `piece` at slot i.

    A rho piece starts on the strand left of the slot, any other at strand 0.
    The piece is renamed onto its strands' variables, the variables only its
    target has taking the names T^{m_out} has and T^m lacks; it is tensored
    with identities, its target renamed to T^{m_out}'s variables, and both
    ends reassociated to the left-bracketed strand objects.
    """
    v, w = _strand_vars(m), _strand_vars(m_out)
    j, ins = max(i - 1, 0), piece.src.all_vars
    place = dict(zip(ins, v[j:]))
    place.update(zip((a for a in piece.tgt.all_vars if a not in ins), (b for b in w if b not in v)))
    place = {a: b for a, b in place.items() if a != b}
    if place:
        piece = piece.renamed(place)
    ids = [identity_morphism(perm_mf(d, self_dual_subset(d), v[k], v[k + 1], l)) for k in range(m)]
    F = reduce(tensor_morphism, ids[:j] + [piece] + ids[j + len(ins) - 1 :])
    g = F.compose(reassoc(strand_object(d, m, l), F.src))
    rename = {a: b for a, b in zip(v[:j] + list(piece.tgt.all_vars) + v[j + len(ins) :], w) if a != b}
    if rename:
        g = g.rename_target(rename)
    return reassoc(g.tgt, strand_object(d, m_out, l)).compose(g)


def _factor_diagram(dg: TLDiagram):
    """(caps, cups): peel positions; caps applied in order, cups in reverse."""
    nb, nt = dg.n_bottom, dg.n_top

    def peel(points):
        out = []
        pts = list(points)
        changed = True
        while changed:
            changed = False
            for idx in range(len(pts) - 1):
                p, q = pts[idx], pts[idx + 1]
                if dg.mate[p] == q:
                    out.append(idx)
                    del pts[idx : idx + 2]
                    changed = True
                    break
        return out, pts

    caps, through_b = peel(range(nb))
    cups, through_t = peel(range(nb, nb + nt))
    if len(through_b) != len(through_t):
        raise StrandMismatch(f"factorisation of {dg!r} lost strands")
    for p, q in zip(through_b, through_t):
        if dg.mate[p] != q:
            raise StrandMismatch(f"through strands of {dg!r} are not order preserving")
    return caps, cups


def evaluate_F(f: TLMorphism) -> MFMorphism:
    """Image of a TL morphism under the duality-data functor over f's own field.

    Strand count k goes to T^{(x) k}; a cap layer to u (spliced), a cup layer
    to n (spliced); linear combinations are taken entrywise.
    """
    d, l = f.d, f.l
    if d % 2 == 0:
        raise EvenModulus("the functor needs odd d")
    total = None
    for dg, c in f.combo.items():
        caps, cups = _factor_diagram(dg)
        m = dg.n_bottom
        morph = identity_morphism(strand_object(d, m, l))
        for pos in caps:
            layer = cap_layer(d, m, pos, l)
            morph = layer.compose(morph)
            m -= 2
        for pos in reversed(cups):
            layer = cup_layer(d, m, pos, l)
            morph = layer.compose(morph)
            m += 2
        if m != dg.n_top:
            raise StrandMismatch(f"the layers of {dg!r} end on {m} strands")
        piece = morph.scaled(c)
        total = piece if total is None else total + piece
    if total is None:
        src = strand_object(d, f.src, l)
        tgt = strand_object(d, f.tgt, l)
        return MFMorphism(
            src, tgt, 0,
            [[MPoly.zero(d) for _ in range(src.rank0)] for _ in range(tgt.rank0)],
            [[MPoly.zero(d) for _ in range(src.rank1)] for _ in range(tgt.rank1)],
        )
    return total
