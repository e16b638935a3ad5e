"""Matrix bifactorisations of x^d - y^d and their morphism calculus.

Objects are Z2-graded free modules over the polynomial ring in an external
pair of variables (plus internal tensor variables), with an odd twisted
differential squaring to left^d - right^d.  Bimodule twists are kept in
"honest" matrix form: the twisted object ((a)M(b)) is the same free module
with the left variable scaled by eta^a and the right variable by eta^{-b}
inside the differentials, so twist isomorphisms have constant components.

Morphism components are matrices whose entries are polynomials or the exact
operators of :mod:`permfact.linop` (the unit isomorphisms substitute the
middle variable into an external one; evaluation maps extract residues).
Entries combine by `+`, `*` (a after b) and `==` whatever their type, so the
matrix calculus never asks which kind an entry is.  A matrix product starts
each entry from its first nonzero product and adds the rest to it; an entry
with no such product is the zero polynomial.  One rule decides the
stored type: a morphism prunes each operator entry for its source and stores
it as a polynomial p when it acts on the source as multiplication by p
(`LinOp.as_multiplication`), so such an entry is an MPoly from construction
on.  The tensor product of morphisms carries the Koszul sign, and the
differential of M (x) N is d_M (x) 1 + 1 (x) d_N, built by the same routine.
`tensor_mf` returns a `TensorBifact`, which keeps its two factors: its shape,
variables and tags are set at once, and its differential is written on the
first read of d1 or d0, then kept.  Most tensor objects are only the source
or target of a morphism and never have it read.

delta(f) has one definition: `delta` and `is_cycle` share the two products
d_tgt . f and f . d_src.  Renaming and both twists are one routine on each
side, for an invertible monomial map sigma (`linop.transport_images`).  On
objects it is `MatrixBifact.substituted`, sigma applied to every differential
entry; on a tensor object it is the tensor product of the substituted
factors, which writes no differential: each entry of d_M (x) 1 + 1 (x) d_N is
+- an entry of d_M or d_N, and a monomial map is a ring homomorphism.  On
morphisms it is `MFMorphism.transported`, each entry e sent to
sigma . e . sigma^-1 by `e.subs`, polynomial or operator alike.

The duality maps u and n of the self-dual generator T are spliced between
strands once, by `duality_pieces`: the caps rho . (1 (x) u) and
lambda . (u (x) 1) and the cups (1 (x) n) . sec_rho and (n (x) 1) . sec_lambda.
Each zig-zag is a cup spliced in on one side followed by a cap spliced out on
the other, and the Temperley-Lieb functor's layers are the same pieces.

Memos are kept only where the checks come back to the same arguments.
unit_mf, perm_mf, chi, mu, duality_un, duality_pieces and zigzag_morphisms
are memoised for the life of the process (with polyring.perm_product,
temperleylieb's Jones-Wenzl projectors and cyclofield.quantum_int): on
`verify --d 5` perm_mf answers 597 of its 669 calls from the memo, chi 61
of 77 and mu 30 of 55, duality_un and duality_pieces are each read three
times, and a rebuilt zigzag_morphisms pair costs about 2 ms at d = 5.  A
subset S is keyed by `polyring.residues(d, S)`, however it is spelled, and
a twist label of chi and mu by its residue mod d (`z_labels`, which also
rejects an even d and a label that is not an int; the twists, s_iso and
correspondence.tau take theirs through it too).  perm_dual_iso, s_iso and
coev_into_dual are built on each call: a check asks for each of them about
once, and what they are built from is memoised.  ev_coev keeps its pair on
the object, as `invariants.HomologyData.of` keeps the homology, so the pair
dies with the object.  The twists of an object are memoised on the object
itself: twist_mf and diag_twist_mf build ((a)M(b)) once per (M, a mod d,
b mod d, l), through `MatrixBifact.rescaled`, keyed by the variable
scalings, and the memo dies with M.  Every tau and s_iso of P_S twists the
memoised P_S, so this memo serves them all (without it, `verify --d 11
--suites equivariance --root-exponent 2` takes about 4 s instead of 1.4 s).  A
tensor object is rescaled as the product of its factors' own rescalings, so
every twist of a leaf is built once, on the leaf.  A twist of a twisted
object is a twist of its base, so the twists of P_S that tau and its
cocycle reach are d objects, not d^2.  A memo hands every caller with the
same arguments the same object, so no caller may write to a returned object
or its matrices.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import NamedTuple

from .cyclofield import CycNum, EvenModulus, eta_power, require_coprime
from .linop import LinOp, ResidueCore, Subst, Term, VariableMismatch, transport_images
from .polyring import MPoly, difference_quotient, exact_div, perm_product, residues

__all__ = [
    "MatrixBifact",
    "TensorBifact",
    "MFMorphism",
    "InvalidDifferential",
    "VariableMismatch",
    "MorphismShapeMismatch",
    "RankUnsupported",
    "unit_mf",
    "perm_mf",
    "verify_factorisation",
    "carries",
    "tensor_mf",
    "direct_sum_mf",
    "reassoc",
    "identity_morphism",
    "unit_isos",
    "unit_sections",
    "dual_rank1",
    "perm_dual_iso",
    "ev_coev",
    "self_dual_subset",
    "coev_into_dual",
    "duality_un",
    "DualityPieces",
    "duality_pieces",
    "twist_mf",
    "diag_twist_mf",
    "twist_morphism",
    "s_iso",
    "z_labels",
    "chi",
    "mu",
    "tensor_morphism",
    "sum_morphism",
    "zigzag_morphisms",
]


class RankUnsupported(ValueError):
    pass


class MorphismShapeMismatch(ValueError):
    """Morphisms that must share sources, targets or parities do not."""


class InvalidDifferential(ValueError):
    """A differential is not a matrix of the object's shape with polynomial entries of its modulus."""


def _entry_factor_product(a, b):
    """Tensor product of entries acting on disjoint variable groups.

    The polynomial factor multiplies the operator's output."""
    if isinstance(a, LinOp):
        if isinstance(b, LinOp):
            raise VariableMismatch("tensor of two operator entries is not supported")
        return b * a
    return a * b


def mat_mul(A, B, d):
    """A B, skipping every pair with a zero polynomial factor (a zero
    polynomial is falsy, an operator entry is not).  Each entry starts from
    its first product; one with no product is the zero polynomial."""
    zero = MPoly.zero(d)
    cols = range(len(B[0]) if B else 0)
    out = []
    for row in A:
        out_row = []
        for j in cols:
            entry = None
            for a, b in zip(row, B):
                p = b[j]
                if a and p:
                    p = a * p
                    entry = p if entry is None else entry + p
            out_row.append(zero if entry is None else entry)
        out.append(out_row)
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[c * e for e in row] for row in A]


def _identity_matrix(n, d):
    one, zero = MPoly.one(d), MPoly.zero(d)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _zero_matrix(rows, cols, d):
    zero = MPoly.zero(d)
    return [[zero for _ in range(cols)] for _ in range(rows)]


def _require_differential(d, d1, d0) -> None:
    """InvalidDifferential unless d1 is len(d1) x len(d0) and d0 len(d0) x len(d1), with MPoly entries of modulus d."""
    for name, mat, cols in (("d1", d1, len(d0)), ("d0", d0, len(d1))):
        for row in mat:
            if len(row) != cols:
                raise InvalidDifferential(f"{name} needs rows of length {cols}, got {len(row)}")
            for e in row:
                if not (isinstance(e, MPoly) and e.d == d):
                    raise InvalidDifferential(f"{name} entry {e!r} is not a polynomial over Q(zeta_{2 * d})")


class MatrixBifact:
    """Z2-graded factorisation data: d1: M1 -> M0, d0: M0 -> M1, of ranks len(d1), len(d0).

    InvalidDifferential unless d1 is rank0 x rank1 and d0 rank1 x rank0, with MPoly entries of modulus d."""

    _rescaled = None  # {scales: object}, filled by rescaled
    _origin = None  # (weak reference to the base, scales) of a rescaled object
    _homology = None  # filled by invariants.HomologyData.of
    _ev_coev = None  # filled by ev_coev

    def __init__(self, d, left, right, int_vars, d1, d0, tags0=None, tags1=None):
        _require_differential(d, d1, d0)
        self.d = d
        self.left = left
        self.right = right
        self.int_vars = tuple(int_vars)
        self.d1 = d1
        self.d0 = d0
        self.rank0 = len(d1)
        self.rank1 = len(d0)
        self.tags0 = tuple(tags0) if tags0 is not None else tuple((("0", i),) for i in range(self.rank0))
        self.tags1 = tuple(tags1) if tags1 is not None else tuple((("1", i),) for i in range(self.rank1))

    @property
    def all_vars(self):
        return (self.left,) + self.int_vars + (self.right,)

    def potential(self) -> MPoly:
        x = MPoly.var(self.d, self.left)
        z = MPoly.var(self.d, self.right)
        return x**self.d - z**self.d

    def same_shape(self, other) -> bool:
        return (
            self.d == other.d
            and self.left == other.left
            and self.right == other.right
            and self.int_vars == other.int_vars
            and self.rank0 == other.rank0
            and self.rank1 == other.rank1
        )

    def __eq__(self, other):
        if not isinstance(other, MatrixBifact):
            return NotImplemented
        return self.same_shape(other) and self.d1 == other.d1 and self.d0 == other.d0

    def substituted(self, sub: dict) -> "MatrixBifact":
        """The monomial map v -> c * w (sub[v] = (c, w)) applied to every entry
        of d1 and d0, with each such variable v renamed w; VariableMismatch unless
        the map is invertible on all_vars (`linop.transport_images`)."""
        images = transport_images(self.d, sub, self.all_vars)
        name = lambda v: images[v][1] if v in images else v
        subs = lambda mat: [[e.subs(images) for e in row] for row in mat]
        return MatrixBifact(
            self.d, name(self.left), name(self.right), tuple(map(name, self.int_vars)),
            subs(self.d1), subs(self.d0), self.tags0, self.tags1,
        )

    def rescaled(self, scales: tuple) -> "MatrixBifact":
        """This object with the variable all_vars[i] scaled by scales[i].

        A rescaled object is its base rescaled by the products of the two
        scalings, so a twist of a twist is a twist of the base.  Each scaling
        of a base is built once and kept on the base, and it dies with the base;
        the rescaled object refers to its base weakly, so no cycle keeps either
        alive.
        """
        base = self
        if self._origin is not None:
            root, prior = self._origin[0](), self._origin[1]
            if root is not None:
                base, scales = root, tuple(p * c for p, c in zip(prior, scales))
        if all(c.is_one() for c in scales):
            return base
        if base._rescaled is None:
            base._rescaled = {}
        out = base._rescaled.get(scales)
        if out is None:
            out = base._rescaling(scales)
            out._origin = (weakref.ref(base), scales)
            base._rescaled[scales] = out
        return out

    def _rescaling(self, scales: tuple) -> "MatrixBifact":
        """A new object: this one with all_vars[i] scaled by scales[i]."""
        return self.substituted({v: (c, v) for v, c in zip(self.all_vars, scales) if not c.is_one()})

    def renamed(self, mapping: dict) -> "MatrixBifact":
        """Rename variables (an isomorphism of the presentation)."""
        return self.substituted({v: (1, w) for v, w in mapping.items()})

    def leaves(self) -> tuple:
        """The factors of this tensor word, left to right, unbracketed."""
        return (self,)

    def __repr__(self):
        return (
            f"MatrixBifact(d={self.d}, {self.left}|{','.join(self.int_vars)}|{self.right}, "
            f"ranks=({self.rank0},{self.rank1}))"
        )


class MFMorphism:
    """Matrix morphism between bifactorisations.

    For even degree, f0: src0 -> tgt0 and f1: src1 -> tgt1; for odd degree,
    f0: src0 -> tgt1 and f1: src1 -> tgt0.
    """

    def __init__(self, src, tgt, z2_degree, f0, f1):
        self.src = src
        self.tgt = tgt
        self.z2_degree = z2_degree % 2
        sv = src.all_vars
        self.f0 = [[_collapsed(e, sv) for e in row] for row in f0]
        self.f1 = [[_collapsed(e, sv) for e in row] for row in f1]

    @property
    def d(self):
        return self.src.d

    def compose(self, other: "MFMorphism") -> "MFMorphism":
        """self after other."""
        if not other.tgt.same_shape(self.src):
            raise VariableMismatch(f"cannot compose: {other.tgt!r} -> {self.src!r}")
        deg = (self.z2_degree + other.z2_degree) % 2
        mine = [self.f0, self.f1]
        f0 = mat_mul(mine[other.z2_degree % 2], other.f0, self.d)
        f1 = mat_mul(mine[(1 + other.z2_degree) % 2], other.f1, self.d)
        return MFMorphism(other.src, self.tgt, deg, f0, f1)

    def __add__(self, other):
        if not (
            self.src.same_shape(other.src) and self.tgt.same_shape(other.tgt) and self.z2_degree == other.z2_degree
        ):
            raise MorphismShapeMismatch(f"cannot add {self!r} and {other!r}")
        return MFMorphism(
            self.src, self.tgt, self.z2_degree,
            mat_add(self.f0, other.f0), mat_add(self.f1, other.f1),
        )

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "MFMorphism":
        return MFMorphism(self.src, self.tgt, self.z2_degree, mat_scale(self.f0, c), mat_scale(self.f1, c))

    def _delta_terms(self):
        """[(d_tgt . f_p, f_{p+1} . d_src) for p = 0, 1]: the two products of
        component p of delta(f), the one starting at src_p."""
        d = self.d
        out_of = (self.tgt.d0, self.tgt.d1)  # the target differential leaving tgt_0, tgt_1
        return [
            (mat_mul(out_of[self.z2_degree], self.f0, d), mat_mul(self.f1, self.src.d0, d)),
            (mat_mul(out_of[1 - self.z2_degree], self.f1, d), mat_mul(self.f0, self.src.d1, d)),
        ]

    def is_cycle(self) -> bool:
        """delta(f) = 0, checked exactly as d_tgt . f = (-1)^{|f|} f . d_src."""
        if self.z2_degree:  # odd cycles anticommute with the differentials
            return all(a == mat_scale(b, -1) for a, b in self._delta_terms())
        return all(a == b for a, b in self._delta_terms())

    def delta(self) -> "MFMorphism":
        """delta(f) = d_tgt . f - (-1)^{|f|} f . d_src, as component matrices."""
        c0, c1 = (mat_add(a, b if self.z2_degree else mat_scale(b, -1)) for a, b in self._delta_terms())
        return MFMorphism(self.src, self.tgt, 1 - self.z2_degree, c0, c1)

    def equals(self, other: "MFMorphism") -> bool:
        return self.z2_degree == other.z2_degree and self.f0 == other.f0 and self.f1 == other.f1

    def is_zero(self) -> bool:
        return all(e == 0 for mat in (self.f0, self.f1) for row in mat for e in row)

    def transported(self, sub: dict, src, tgt) -> "MFMorphism":
        """The morphism src -> tgt whose entries are sigma . e . sigma^-1 (`subs`)
        for the entries e of this one and the monomial map sigma = `sub`."""
        f0, f1 = ([[e.subs(sub) for e in row] for row in mat] for mat in (self.f0, self.f1))
        return MFMorphism(src, tgt, self.z2_degree, f0, f1)

    def renamed(self, mapping: dict) -> "MFMorphism":
        """Rename variables in source, target, and all entries."""
        sub = {v: (1, w) for v, w in mapping.items()}
        return self.transported(sub, self.src.renamed(mapping), self.tgt.renamed(mapping))

    def rename_target(self, mapping: dict) -> "MFMorphism":
        """Compose with the renaming isomorphism of the target presentation."""
        ren = LinOp.substitution(self.d, {v: (1, w) for v, w in mapping.items()})
        f0 = [[ren * e for e in row] for row in self.f0]
        f1 = [[ren * e for e in row] for row in self.f1]
        return MFMorphism(self.src, self.tgt.renamed(mapping), self.z2_degree, f0, f1)

    def __repr__(self):
        return f"MFMorphism({self.src!r} -> {self.tgt!r}, deg={self.z2_degree})"


def _collapsed(e, src_vars):
    """An operator entry pruned for its source; the polynomial it multiplies
    by, when it acts on its source as a multiplication."""
    if not isinstance(e, LinOp):
        return e
    e = e.pruned_for_source(src_vars)
    p = e.as_multiplication(src_vars)
    return e if p is None else p


def identity_morphism(M: MatrixBifact) -> MFMorphism:
    return MFMorphism(M, M, 0, _identity_matrix(M.rank0, M.d), _identity_matrix(M.rank1, M.d))


# -- constructors ---------------------------------------------------------------


@lru_cache(maxsize=None)
def unit_mf(d: int, left="x", right="y") -> MatrixBifact:
    """The tensor unit: d1 = left - right, d0 = (left^d - right^d)/(left - right)."""
    x = MPoly.var(d, left)
    y = MPoly.var(d, right)
    d1 = x - y
    d0 = exact_div(x**d - y**d, d1)
    return MatrixBifact(d, left, right, (), [[d1]], [[d0]], tags0=((0,),), tags1=((1,),))


def perm_mf(d: int, S, left="x", right="y", l: int = 1) -> MatrixBifact:
    """Permutation-type object: d1 = prod_{j in S}(left - eta^{lj} right)."""
    return _perm_mf(d, residues(d, S), left, right, l)


@lru_cache(maxsize=None)
def _perm_mf(d: int, S: frozenset, left: str, right: str, l: int) -> MatrixBifact:
    d1 = perm_product(d, S, left, right, l)
    d0 = perm_product(d, frozenset(range(d)) - S, left, right, l)
    return MatrixBifact(d, left, right, (), [[d1]], [[d0]], tags0=((0,),), tags1=((1,),))


def verify_factorisation(M: MatrixBifact) -> bool:
    d = M.d
    W = M.potential()
    target0 = mat_scale(_identity_matrix(M.rank0, d), W)
    target1 = mat_scale(_identity_matrix(M.rank1, d), W)
    return mat_mul(M.d1, M.d0, d) == target0 and mat_mul(M.d0, M.d1, d) == target1


def carries(sub: dict, M: MatrixBifact, N: MatrixBifact, k: CycNum) -> bool:
    """The monomial map `sub` (as in MPoly.subs, every variable kept) takes d1
    of M to k * d1 of N and d0 to k^-1 * d0; then (1 on N_0, k^-1 on N_1) is a
    strict isomorphism from N to the carried M."""
    moved = M.substituted(sub)
    return moved.d1 == mat_scale(N.d1, k) and moved.d0 == mat_scale(N.d0, k.inverse())


# summands (i, j) of M_i (x) N_j in the storage order of (M (x) N)_0 and (M (x) N)_1
_SUMMANDS = (((0, 0), (1, 1)), ((1, 0), (0, 1)))


def _rank(M: MatrixBifact, par: int) -> int:
    return M.rank1 if par % 2 else M.rank0


def _summand_offset(M: MatrixBifact, N: MatrixBifact, i: int, j: int) -> int:
    """Offset of the summand M_i (x) N_j inside (M (x) N)_{i+j}."""
    first = _SUMMANDS[(i + j) % 2][0]
    return 0 if (i, j) == first else _rank(M, first[0]) * _rank(N, first[1])


def _write_tensor_blocks(out, f: MFMorphism, g: MFMorphism) -> None:
    """Write the blocks of f (x) g into its components out = [c0, c1].

    The Koszul sign is (-1)^{|g| * i} on the M_i summands.  Each block of
    f (x) g is written over the entries it covers, so the summands of
    d_M (x) 1 + 1 (x) d_N fill disjoint blocks; an entry with a zero
    polynomial factor keeps what `out` holds there.
    """
    M, N = f.src, g.src
    for par in (0, 1):
        mat = out[par]
        for i, j in _SUMMANDS[par]:
            fi, gj = (f.f0, f.f1)[i], (g.f0, g.f1)[j]
            ti, tj = (i + f.z2_degree) % 2, (j + g.z2_degree) % 2
            row_off = _summand_offset(f.tgt, g.tgt, ti, tj)
            col_off = _summand_offset(M, N, i, j)
            rows_g, cols_g = _rank(g.tgt, tj), _rank(N, j)
            negate = g.z2_degree and i
            for a, f_row in enumerate(fi):
                for a2, fa in enumerate(f_row):
                    if not fa:  # a zero polynomial is falsy
                        continue
                    for b, g_row in enumerate(gj):
                        for b2, gb in enumerate(g_row):
                            if not gb:
                                continue
                            e = _entry_factor_product(fa, gb)
                            mat[row_off + a * rows_g + b][col_off + a2 * cols_g + b2] = -e if negate else e


def _tensor_differential(T: "TensorBifact") -> tuple[list, list]:
    """(d1, d0) of T = M (x) N: d_M (x) 1 + 1 (x) d_N, each differential the odd endomorphism."""
    M, N = T.factors
    d0, d1 = _zero_matrix(T.rank1, T.rank0, T.d), _zero_matrix(T.rank0, T.rank1, T.d)
    _write_tensor_blocks([d0, d1], MFMorphism(M, M, 1, M.d0, M.d1), identity_morphism(N))
    _write_tensor_blocks([d0, d1], identity_morphism(M), MFMorphism(N, N, 1, N.d0, N.d1))
    _require_differential(T.d, d1, d0)
    return d1, d0


class TensorBifact(MatrixBifact):
    """M (x) N over the shared middle variable, keeping its two factors.

    The shape, variables and tags are set at once; the differential is
    written from the factors on the first read of d1 or d0 and kept.  A
    substitution is applied to the factors: every entry of the differential
    is +- an entry of d_M or d_N, and a monomial map is a ring homomorphism.
    """

    def __init__(self, M: MatrixBifact, N: MatrixBifact):
        self.factors = (M, N)
        self.d = M.d
        self.left = M.left
        self.right = N.right
        self.int_vars = M.int_vars + (M.right,) + N.int_vars
        self.rank0 = M.rank0 * N.rank0 + M.rank1 * N.rank1
        self.rank1 = M.rank1 * N.rank0 + M.rank0 * N.rank1
        self.tags0 = tuple(a + b for a in M.tags0 for b in N.tags0) + tuple(a + b for a in M.tags1 for b in N.tags1)
        self.tags1 = tuple(a + b for a in M.tags1 for b in N.tags0) + tuple(a + b for a in M.tags0 for b in N.tags1)
        self._differential = None  # (d1, d0), written on first read

    @property
    def d1(self):
        return self._written()[0]

    @property
    def d0(self):
        return self._written()[1]

    def _written(self):
        if self._differential is None:
            self._differential = _tensor_differential(self)
        return self._differential

    def substituted(self, sub: dict) -> "TensorBifact":
        M, N = self.factors
        return tensor_mf(M.substituted(sub), N.substituted(sub))

    def _rescaling(self, scales: tuple) -> "TensorBifact":
        """The product of the factors' own rescalings, so every rescaling of a
        leaf is built once, on the leaf; the factors share the middle scale."""
        M, N = self.factors
        m = len(M.all_vars)
        return tensor_mf(M.rescaled(scales[:m]), N.rescaled(scales[m - 1 :]))

    def leaves(self) -> tuple:
        M, N = self.factors
        return M.leaves() + N.leaves()


def tensor_mf(M: MatrixBifact, N: MatrixBifact) -> TensorBifact:
    """Koszul-signed tensor product over the shared middle variable: d = d_M (x) 1 + 1 (x) d_N,
    written on the first read of d1 or d0."""
    if M.right != N.left:
        raise VariableMismatch(f"middle variables differ: {M.right} vs {N.left}")
    if M.d != N.d:
        raise VariableMismatch("moduli differ")
    overlap = set((M.left,) + M.int_vars) & set(N.int_vars + (N.right,))
    if overlap:
        raise VariableMismatch(f"variable collision: {overlap}")
    return TensorBifact(M, N)


def tensor_morphism(f: MFMorphism, g: MFMorphism) -> MFMorphism:
    """f (x) g with the Koszul sign (-1)^{|g| * |m|} on the M_i summands."""
    src = tensor_mf(f.src, g.src)
    tgt = tensor_mf(f.tgt, g.tgt)
    d = f.d
    deg = (f.z2_degree + g.z2_degree) % 2
    out = [_zero_matrix(_rank(tgt, par + deg), _rank(src, par), d) for par in (0, 1)]
    _write_tensor_blocks(out, f, g)
    return MFMorphism(src, tgt, deg, *out)


def direct_sum_mf(A: MatrixBifact, B: MatrixBifact) -> MatrixBifact:
    if not (A.d == B.d and A.left == B.left and A.right == B.right and A.int_vars == B.int_vars):
        raise VariableMismatch("direct sum needs identical variable data")
    d = A.d

    def block(PA, PB):
        rows = len(PA) + len(PB)
        cols = len(PA[0]) + len(PB[0])
        out = _zero_matrix(rows, cols, d)
        for i, row in enumerate(PA):
            for j, e in enumerate(row):
                out[i][j] = e
        for i, row in enumerate(PB):
            for j, e in enumerate(row):
                out[len(PA) + i][len(PA[0]) + j] = e
        return out

    tags0 = tuple(("L",) + t for t in A.tags0) + tuple(("R",) + t for t in B.tags0)
    tags1 = tuple(("L",) + t for t in A.tags1) + tuple(("R",) + t for t in B.tags1)
    return MatrixBifact(d, A.left, A.right, A.int_vars, block(A.d1, B.d1), block(A.d0, B.d0), tags0, tags1)


def sum_morphism(f: MFMorphism, g: MFMorphism) -> MFMorphism:
    """(f, g): src(f) (+) src(g) -> common target."""
    if not (f.tgt.same_shape(g.tgt) and f.z2_degree == g.z2_degree == 0):
        raise MorphismShapeMismatch(f"cannot sum {f!r} and {g!r} into one target")
    src = direct_sum_mf(f.src, g.src)
    f0 = [rf + rg for rf, rg in zip(f.f0, g.f0)]
    f1 = [rf + rg for rf, rg in zip(f.f1, g.f1)]
    return MFMorphism(src, f.tgt, 0, f0, f1)


def reassoc(A: MatrixBifact, B: MatrixBifact) -> MFMorphism:
    """The permutation isomorphism between two bracketings of one tensor word.

    VariableMismatch unless A and B have the same variables and equal leaf
    factors in the same order; tags alone do not tell two words apart."""
    if A.all_vars != B.all_vars or A.leaves() != B.leaves():
        raise VariableMismatch("objects are not bracketings of the same word")
    d = A.d
    one, zero = MPoly.one(d), MPoly.zero(d)

    def perm(ta, tb):
        out = [[zero for _ in ta] for _ in tb]
        for j, t in enumerate(ta):
            out[tb.index(t)][j] = one
        return out

    return MFMorphism(A, B, 0, perm(A.tags0, B.tags0), perm(A.tags1, B.tags1))


# -- unit isomorphisms ----------------------------------------------------------


def unit_isos(M: MatrixBifact, mid: str = "y1") -> tuple[MFMorphism, MFMorphism]:
    """lambda_M: I (x) M -> M and rho_M: M (x) I -> M (middle-variable substitutions)."""
    d = M.d
    if mid in M.all_vars:
        raise VariableMismatch(f"middle name {mid} already used")
    # lambda: I(left, mid) (x) M(mid, ...) -> M
    I_left = unit_mf(d, M.left, mid)
    M_shift = M.renamed({M.left: mid})
    IM = tensor_mf(I_left, M_shift)
    sub = LinOp.substitution(d, {mid: (1, M.left)})
    zero = MPoly.zero(d)

    lam0 = [[sub if (i == j) else zero for j in range(IM.rank0)] for i in range(M.rank0)]
    # degree-1 source order: (I1 M0 | I0 M1); only the I0 M1 block maps
    lam1 = [[sub if (j == M.rank0 + i) else zero for j in range(IM.rank1)] for i in range(M.rank1)]
    lam = MFMorphism(IM, M, 0, lam0, lam1)

    I_right = unit_mf(d, mid, M.right)
    M_shift2 = M.renamed({M.right: mid})
    MI = tensor_mf(M_shift2, I_right)
    sub2 = LinOp.substitution(d, {mid: (1, M.right)})
    rho0 = [[sub2 if (i == j) else zero for j in range(MI.rank0)] for i in range(M.rank0)]
    rho1 = [[sub2 if (i == j) else zero for j in range(MI.rank1)] for i in range(M.rank1)]
    rho = MFMorphism(MI, M, 0, rho0, rho1)
    return lam, rho


def unit_sections(M: MatrixBifact, mid: str = "y1") -> tuple[MFMorphism, MFMorphism]:
    """Strict polynomial sections: lambda . sec_l = 1_M and rho . sec_r = 1_M."""
    if M.rank0 != 1 or M.rank1 != 1:
        raise RankUnsupported("sections are implemented for rank-(1,1) objects")
    d = M.d
    lam, rho = unit_isos(M, mid)
    one = MPoly.one(d)
    m1 = M.d1[0][0]
    m0 = M.d0[0][0]
    # section of lambda: M -> I(left, mid) (x) M(mid, right)
    dq = lambda p: difference_quotient(p, M.left, mid)
    sec_l = MFMorphism(M, lam.src, 0, [[one], [dq(m0)]], [[dq(m1)], [one]])
    # section of rho: M -> M(left, mid) (x) I(mid, right)
    dq2 = lambda p: difference_quotient(p, M.right, mid)
    sec_r = MFMorphism(M, rho.src, 0, [[one], [dq2(m0)]], [[one], [-dq2(m1)]])
    return sec_l, sec_r


# -- duals, evaluation, coevaluation ----------------------------------------------


def dual_rank1(M: MatrixBifact) -> MatrixBifact:
    if M.rank0 != 1 or M.rank1 != 1 or M.int_vars:
        raise RankUnsupported("duals are implemented for rank-(1,1) objects")
    d = M.d
    swap = {M.left: (1, M.right), M.right: (1, M.left)}
    d1 = -(M.d1[0][0].subs(swap))
    d0 = M.d0[0][0].subs(swap)
    return MatrixBifact(d, M.left, M.right, (), [[d1]], [[d0]], M.tags0, M.tags1)


def perm_dual_iso(d: int, S, left="x", right="y", l: int = 1) -> MFMorphism:
    """The cycle P_{-S} -> (P_S)^+ with components ((-1)^{|S|+1} prod eta^{-lj}, 1)."""
    S = residues(d, S)
    src = perm_mf(d, residues(d, [-s for s in S]), left, right, l)
    tgt = dual_rank1(perm_mf(d, S, left, right, l))
    c = CycNum.one(d)
    for j in S:
        c = c * eta_power(d, -j, l)
    sign = 1 if (len(S) + 1) % 2 == 0 else -1
    f1 = MPoly.constant(d, c * sign)
    return MFMorphism(src, tgt, 0, [[MPoly.one(d)]], [[f1]])


def ev_coev(M: MatrixBifact) -> tuple[MFMorphism, MFMorphism]:
    """Evaluation M+ (x) M -> I and coevaluation I -> M (x) M+ (variables x,y,z).

    The pair is built on first request and kept on M, so it dies with M."""
    if M._ev_coev is None:
        M._ev_coev = _ev_coev(M)
    return M._ev_coev


def _ev_coev(M: MatrixBifact) -> tuple[MFMorphism, MFMorphism]:
    if M.rank0 != 1 or M.rank1 != 1:
        raise RankUnsupported("duality maps need a rank-(1,1) object")
    d = M.d
    x, y, z = (MPoly.var(d, v) for v in "xyz")
    Mxy = M.renamed(dict(zip((M.left, M.right), ("x", "y"))))
    Myz = M.renamed(dict(zip((M.left, M.right), ("y", "z"))))
    dual_xy = dual_rank1(Mxy)
    dual_yz = dual_rank1(Mxy).renamed({"x": "y", "y": "z"})
    I_xz = unit_mf(d, "x", "z")

    d1 = Mxy.d1[0][0]
    d0 = Mxy.d0[0][0]
    d0_yz = d0.subs({"x": (1, "y"), "y": (1, "z")})
    d1_yx = d1.subs({"x": (1, "y"), "y": (1, "x")})

    # ev: dual(x,y) (x) M(y,z) -> I(x,z)
    src_ev = tensor_mf(dual_xy, Myz)
    prem = (x - z - y) * d0_yz
    one, ident = MPoly.one(d), Subst.identity(d)
    A = LinOp(d, [Term(-one, ident, ResidueCore(prem, "y", "z", CycNum.one(d), d))])
    # B = Res[prem * d1_yx] / (x - z), divided exactly here, so that no operator
    # term carries a denominator: the residue core is K[x, z]-linear, and once
    # its premultiplier is reduced modulo y^d - z^d (normalized), the reduced
    # premultiplier and the telescoped evaluation term are both divisible by x - z.
    B_terms = []
    for t in Term(one, ident, ResidueCore(prem * d1_yx, "y", "z", CycNum.one(d), d)).normalized():
        if t.core is None:
            B_terms.append(Term(exact_div(t.num, x - z), t.phi))
        else:
            c = t.core
            B_terms.append(Term(t.num, t.phi, ResidueCore(exact_div(c.prem, x - z), c.elim, c.inj, c.injc, c.step)))
    B = LinOp(d, B_terms)
    C = LinOp.substitution(d, {"y": None}, coeff=-1)
    ev = MFMorphism(src_ev, I_xz, 0, [[A, MPoly.zero(d)]], [[B, C]])

    # coev: I(x,z) -> M(x,y) (x) dual(y,z)
    tgt_coev = tensor_mf(Mxy, dual_yz)
    col0 = [[difference_quotient(d1, "x", "z")], [difference_quotient(d0, "x", "z")]]
    col1 = [[MPoly.one(d)], [MPoly.one(d)]]
    coev = MFMorphism(I_xz, tgt_coev, 0, col0, col1)
    return ev, coev


def self_dual_subset(d: int) -> frozenset:
    """The subset {(d-1)/2, (d+1)/2} of the generator T = P_S; -S = S for odd d."""
    return frozenset({(d - 1) // 2, (d + 1) // 2})


def coev_into_dual(d: int, S, l: int = 1) -> MFMorphism:
    """n_S = (1 (x) iso^{-1}) . coev: I(x,z) -> P_S(x,y) (x) P_{-S}(y,z), where
    iso = perm_dual_iso(d, S, "y", "z") is the comparison P_{-S} -> (P_S)^+."""
    S = residues(d, S)
    M = perm_mf(d, S, "x", "y", l)
    _, coev = ev_coev(M)
    iso = perm_dual_iso(d, S, "y", "z", l)
    inv0 = exact_div(MPoly.one(d), iso.f0[0][0])
    inv1 = MPoly.constant(d, iso.f1[0][0].constant_value().inverse())
    iso_inv = MFMorphism(iso.tgt, iso.src, 0, [[inv0]], [[inv1]])
    return tensor_morphism(identity_morphism(M), iso_inv).compose(coev)


@lru_cache(maxsize=None)
def duality_un(d: int, l: int = 1):
    """(u, n, T, t): the self-dual generator T and its duality maps.

    u = ev_T . (t (x) 1): T(x,y) (x) T(y,z) -> I(x,z)
    n = (1 (x) t^{-1}) . coev_T: I(x,z) -> T(x,y) (x) T(y,z), coev_into_dual at T's subset
    """
    if d % 2 == 0:
        raise EvenModulus("the self-dual consecutive pair needs odd d")
    S = self_dual_subset(d)
    T = perm_mf(d, S, "x", "y", l)
    t = perm_dual_iso(d, S, "x", "y", l)  # source is P_{-S} = T
    if t.src != T:
        raise MorphismShapeMismatch(f"the dual comparison starts at {t.src!r}, not at {T!r}")
    ev, _ = ev_coev(T)
    u = ev.compose(tensor_morphism(t, identity_morphism(perm_mf(d, S, "y", "z", l))))
    return u, coev_into_dual(d, S, l), T, t


class DualityPieces(NamedTuple):
    """u, n and the four pieces splicing them between strands x, y1, y2, z."""

    u: MFMorphism  # T(x,y) (x) T(y,z) -> I(x,z)
    n: MFMorphism  # I(x,z) -> T(x,y) (x) T(y,z)
    cap_rho: MFMorphism  # rho . (1 (x) u): T(x,y1) (x) (T(y1,y2) (x) T(y2,z)) -> T(x,z)
    cap_lambda: MFMorphism  # lambda . (u (x) 1): (T(x,y1) (x) T(y1,y2)) (x) T(y2,z) -> T(x,z)
    cup_rho: MFMorphism  # (1 (x) n) . sec_rho: T(x,z) -> T(x,y1) (x) (T(y1,y2) (x) T(y2,z))
    cup_lambda: MFMorphism  # (n (x) 1) . sec_lambda: T(x,z) -> (T(x,y1) (x) T(y1,y2)) (x) T(y2,z)


@lru_cache(maxsize=None)
def duality_pieces(d: int, l: int = 1) -> DualityPieces:
    """The spliced duality maps of T, shared by the zig-zags and the TL functor."""
    u, n, _, _ = duality_un(d, l)
    S = self_dual_subset(d)
    T = perm_mf(d, S, "x", "z", l)
    id_left = identity_morphism(perm_mf(d, S, "x", "y1", l))
    id_right = identity_morphism(perm_mf(d, S, "y2", "z", l))
    on_right, on_left = {"x": "y1", "y": "y2"}, {"y": "y1", "z": "y2"}
    _, rho = unit_isos(T, mid="y1")
    lam, _ = unit_isos(T, mid="y2")
    _, sec_rho = unit_sections(T, mid="y1")
    sec_lambda, _ = unit_sections(T, mid="y2")
    return DualityPieces(
        u,
        n,
        rho.compose(tensor_morphism(id_left, u.renamed(on_right))),
        lam.compose(tensor_morphism(u.renamed(on_left), id_right)),
        tensor_morphism(id_left, n.renamed(on_right)).compose(sec_rho),
        tensor_morphism(n.renamed(on_left), id_right).compose(sec_lambda),
    )


# -- Z_d twists -------------------------------------------------------------------


def twist_mf(M: MatrixBifact, a: int, b: int, l: int = 1) -> MatrixBifact:
    """((a)M(b)) in honest form: left var scaled by eta^{la}, right by eta^{-lb}.

    Like every twist below (and chi and mu, which are built from it),
    raises NotCoprime unless gcd(l, d) = 1."""
    require_coprime(M.d, l)
    a, b = z_labels(M.d, a, b)
    inner = (CycNum.one(M.d),) * len(M.int_vars)
    return M.rescaled((eta_power(M.d, a, l),) + inner + (eta_power(M.d, -b, l),))


def diag_twist_mf(M: MatrixBifact, a: int, l: int = 1) -> MatrixBifact:
    """((a)M(-a)) with every variable scaled: the per-factor form for tensor words."""
    require_coprime(M.d, l)
    (a,) = z_labels(M.d, a)
    return M.rescaled((eta_power(M.d, a, l),) * len(M.all_vars))


def twist_morphism(f: MFMorphism, a: int, l: int = 1) -> MFMorphism:
    """Apply the diagonal twist functor ((a)(-)(-a)) to a morphism (honest form):
    its entries are transported along the scaling of every source and target
    variable by eta^{la}."""
    d = f.d
    require_coprime(d, l)
    (a,) = z_labels(d, a)
    e = eta_power(d, a, l)
    sub = {v: (e, v) for v in f.src.all_vars + f.tgt.all_vars}
    return f.transported(sub, diag_twist_mf(f.src, a, l), diag_twist_mf(f.tgt, a, l))


def s_iso(d: int, S, a: int, b: int, left="x", right="y", l: int = 1) -> MFMorphism:
    """The twist comparison P_{S-a-b} -> ((a)P_S(b)), components (1, eta^{-l|S|a})."""
    S = residues(d, S)
    a, b = z_labels(d, a, b)
    src = perm_mf(d, residues(d, [s - a - b for s in S]), left, right, l)
    tgt = twist_mf(perm_mf(d, S, left, right, l), a, b, l)
    f1 = MPoly.constant(d, eta_power(d, -len(S) * a, l))
    return MFMorphism(src, tgt, 0, [[MPoly.one(d)]], [[f1]])


def z_labels(d: int, *labels) -> tuple:
    """The labels as residues mod d: elements of the group Z_d of twists.

    EvenModulus unless d is odd and >= 3; TypeError for a label that is not
    an int (a bool included)."""
    if d % 2 == 0 or d < 3:
        raise EvenModulus(f"the Z_d twists need odd d >= 3, got {d}")
    for a in labels:
        if not isinstance(a, int) or isinstance(a, bool):
            raise TypeError(f"a Z_{d} label must be an int, got {a!r}")
    return tuple(a % d for a in labels)


def chi(d: int, a: int, left="x", right="y", l: int = 1) -> MatrixBifact:
    """chi(a) = ((a)I): d1 = eta^{la} left - right."""
    (a,) = z_labels(d, a)
    return _chi(d, a, left, right, l)


@lru_cache(maxsize=None)
def _chi(d: int, a: int, left: str, right: str, l: int) -> MatrixBifact:
    return twist_mf(unit_mf(d, left, right), a, 0, l)


def mu(d: int, a: int, b: int, l: int = 1) -> MFMorphism:
    """mu_{a,b} = ((a)(lambda_{(b)I})): chi(a) (x) chi(b) -> chi(a+b).

    In honest form it projects to the I0-summands and substitutes the middle
    variable by eta^{la} * left.
    """
    return _mu(d, *z_labels(d, a, b), l)


@lru_cache(maxsize=None)
def _mu(d: int, a: int, b: int, l: int) -> MFMorphism:
    ca = chi(d, a, "x", "y1", l)
    cb = chi(d, b, "y1", "z", l)
    src = tensor_mf(ca, cb)
    tgt = chi(d, (a + b) % d, "x", "z", l)
    sub = LinOp.substitution(d, {"y1": (eta_power(d, a, l), "x")})
    zero = MPoly.zero(d)
    f0 = [[sub, zero]]
    f1 = [[zero, sub]]
    return MFMorphism(src, tgt, 0, f0, f1)


# -- duality zig-zags --------------------------------------------------------------


@lru_cache(maxsize=None)
def zigzag_morphisms(d: int, l: int = 1) -> tuple[MFMorphism, MFMorphism]:
    """Both zig-zag composites for (T, u, n): a cup spliced in on one side, then
    a cap spliced out on the other, zz1 = cap_rho . reassoc . cup_lambda and
    zz2 = cap_lambda . reassoc . cup_rho.  The duality identities make each
    T -> T endomorphism homotopic to 1_T.  The unit isomorphisms are invertible
    only up to homotopy, so a cup enters the unit by a strict polynomial
    section of lambda or rho (a certified homotopy inverse).
    """
    p = duality_pieces(d, l)
    zz1 = p.cap_rho.compose(reassoc(p.cup_lambda.tgt, p.cap_rho.src)).compose(p.cup_lambda)
    zz2 = p.cap_lambda.compose(reassoc(p.cup_rho.tgt, p.cap_lambda.src)).compose(p.cup_rho)
    return zz1, zz2
