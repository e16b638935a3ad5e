"""Homology of bifactorisations and the homotopy-equation solver.

The isomorphism detector: kill the external pair in the differentials, compute
the homology of the resulting 2-periodic complex over the coefficient field
(no internal variable) or over the univariate polynomial ring K[y] (one
internal variable).  Matrix entries stay MPoly throughout: constants in the
first case, polynomials in y alone in the second, divided by
polyring.div_rem.  A degree-zero cycle between two objects is invertible up to
homotopy exactly when the induced map on this homology is a linear
isomorphism.  The homology of an object is built once: `HomologyData.of(M)`
keeps it on M, so is_homotopy_iso, induced_h and graded.g_pair_certified
share it, and it dies with M.

Each reduced differential gets one Smith form, S d_in T = D with nonzero
diagonal f_0 | ... | f_{r-1}, and only its row transform S and inverse S^-1
are kept: H = ker(d_out)/im(d_in) is read off them.  With R the base ring,
im(d_in) = S^-1 (f_0 R + ... + f_{r-1} R + 0).  Over R = K[y], ker(d_out) is
saturated (a v in it with a != 0 puts v in it), contains im(d_in) and has
rank n - rank(d_out).  When rank(d_out) + rank(d_in) = n it therefore equals
the saturation S^-1 (K[y]^r + 0) of im(d_in), since two saturated submodules
of one rank, one inside the other, are equal.  So H = K[y]/(f_0) + ... +
K[y]/(f_{r-1}), with basis y^e S^-1 e_i (e < deg f_i), and a cycle v has
coordinates (S v)_i mod f_i.  When the ranks fall short, H has a free summand
and is infinite dimensional.  Over R = K the f_i are units, so ker(d_out) is
S^-1 (K^r + ker(d_out S^-1 restricted to the last n - r coordinates)), and H
is that second kernel: one basis vector per free column of its row echelon
form, with coordinate (S v)_{r+j} at free column j.

Only a cycle induces a map on homology, so is_homotopy_iso answers False
for any other morphism before it reads anything else.  A strict isomorphism
needs no homology: an even cycle whose two components are square, constant
and invertible has the constant inverse, which is a cycle too, so H(f) is
invertible.  is_homotopy_iso answers such a cycle from the ranks of its
components (`row_reduce`), and every other cycle from the homology.

The homotopy solver has one mode, the graded one: the entry degrees of h are
forced by the charges and passed in, and it writes f - g = delta(h) as a
linear system over the field in the coefficients of h on that monomial
basis.  Each column is MFMorphism.delta of one basis map, so delta has one
definition.
"""

from __future__ import annotations

from .cyclofield import CycNum
from .linop import LinOp
from .mfcore import MatrixBifact, MFMorphism, MorphismShapeMismatch, mat_mul
from .polyring import MPoly, coeff_of, div_rem, leading_coeff

__all__ = [
    "TooManyInternalVariables",
    "MorphismShapeMismatch",
    "smith_normal_form",
    "HomologyData",
    "induced_h",
    "row_reduce",
    "is_homotopy_iso",
    "homotopy_solve",
]


class TooManyInternalVariables(ValueError):
    pass


def smith_normal_form(A, d):
    """(S, D, Sinv) with S*A*T = D diagonal, entries successively dividing.

    Entries are MPoly in at most one variable; each nonzero diagonal entry is
    made monic, and the nonzero ones come first.  Column operations act on D
    alone: the column transform T is never formed, since the homology reads
    only the row transform S and its inverse Sinv.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    eye = lambda k: [[MPoly.one(d) if i == j else MPoly.zero(d) for j in range(k)] for i in range(k)]
    D = [row[:] for row in A]
    S = eye(m)
    Sinv = eye(m)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        S[i], S[j] = S[j], S[i]
        for r in Sinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):
        # row_i += q * row_j ; Sinv col_j -= q * col_i
        D[i] = [a + q * b for a, b in zip(D[i], D[j])]
        S[i] = [a + q * b for a, b in zip(S[i], S[j])]
        for r in Sinv:
            r[j] = r[j] - q * r[i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for r in D:
            r[i] = r[i] + q * r[j]

    def row_scale(i, c):
        D[i] = [a * c for a in D[i]]
        S[i] = [a * c for a in S[i]]
        cinv = c.inverse()
        for r in Sinv:
            r[i] = r[i] * cinv

    for t in range(min(m, n)):
        while True:
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    if not D[i][j].is_zero():
                        if pivot is None or D[i][j].degree() < D[pivot[0]][pivot[1]].degree():
                            pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])
            clean = True
            for i in range(t + 1, m):
                if D[i][t].is_zero():
                    continue
                q, _ = div_rem(D[i][t], D[t][t])
                row_add(i, t, -q)
                if not D[i][t].is_zero():
                    clean = False
            for j in range(t + 1, n):
                if D[t][j].is_zero():
                    continue
                q, _ = div_rem(D[t][j], D[t][t])
                col_add(j, t, -q)
                if not D[t][j].is_zero():
                    clean = False
            if not clean:
                continue
            # divisibility of the remaining block
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not D[i][j].is_zero():
                        _, r = div_rem(D[i][j], D[t][t])
                        if not r.is_zero():
                            offender = i
                            break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, MPoly.one(d))
        lead = leading_coeff(D[t][t])
        if not lead.is_zero() and lead != CycNum.one(d):
            row_scale(t, lead.inverse())
    return S, D, Sinv


def _rank(D) -> int:
    """The rank of a Smith form D: its nonzero diagonal entries come first."""
    return sum(1 for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i])


class _ParityHomology:
    """ker(d_out)/im(d_in) for one parity, read off the Smith form
    (S, D, Sinv) of d_in and the rank of d_out (see the module docstring)."""

    def __init__(self, d, var, d_out, in_form, out_rank):
        S, D, Sinv = in_form
        n, r = len(S), _rank(D)
        self.d, self.var, self.d_out, self.S = d, var, d_out, S
        if var is not None:
            if out_rank + r != n:
                raise ValueError("homology has a free summand: not finite dimensional")
            self.factors = [D[i][i] for i in range(r)]
            self.labels = [(i, e) for i, f in enumerate(self.factors) for e in range(f.degree())]
            self.reps = [[row[i] * MPoly.var(d, var, e) for row in Sinv] for i, e in self.labels]
        else:
            # H = ker(d_out Sinv[:, r:]): the kernel vector of free column j is
            # 1 at j and -rref[p][j] at each pivot p, its coordinate (S v)_{r+j}
            tail = [row[r:] for row in Sinv]
            rows = ({j: e.constant_value() for j, e in enumerate(row) if e} for row in mat_mul(d_out, tail, d))
            rref = row_reduce(rows)
            free = [j for j in range(n - r) if j not in rref]
            self.labels = [r + j for j in free]
            self.reps = []
            for j in free:
                w = {j: CycNum.one(d), **{p: -row[j] for p, row in rref.items() if j in row}}
                self.reps.append([sum((row[c] * v for c, v in w.items()), MPoly.zero(d)) for row in tail])
        self.dims = len(self.labels)

    def reduce(self, vec) -> list[CycNum]:
        """K-coordinates of the homology class of a cycle vector."""
        col = [[v] for v in vec]
        if any(e for [e] in mat_mul(self.d_out, col, self.d)):
            raise ValueError("vector is not a cycle")
        u = [e for [e] in mat_mul(self.S, col, self.d)]
        if self.var is None:
            # constant_value raises ValueError on a nonconstant entry
            return [u[i].constant_value() for i in self.labels]
        return [coeff_of(div_rem(u[i], self.factors[i])[1], self.var, e).constant_value() for i, e in self.labels]

    def basis(self):
        """Cycle representatives of the K-basis, as MPoly vectors."""
        return self.reps


def _univariate(p: MPoly, var: str | None) -> MPoly:
    """p, after checking that no variable other than var occurs in it."""
    extra = sorted(v for v in p.vars if v != var)
    if extra:
        raise ValueError(f"{p!r} involves {extra}, not univariate in {var}")
    return p


class HomologyData:
    """dim H_0, dim H_1 and basis representatives of the reduced complex."""

    def __init__(self, M: MatrixBifact):
        if len(M.int_vars) > 1:
            raise TooManyInternalVariables(f"{M!r} has internal variables {M.int_vars}")
        d = M.d
        var = M.int_vars[0] if M.int_vars else None
        kill = {M.left: None, M.right: None}

        def reduce_mat(mat):
            return [[_univariate(e.subs(kill), var) for e in row] for row in mat]

        self.var = var
        self.d = d
        self.d1_bar = reduce_mat(M.d1)  # C1 -> C0
        self.d0_bar = reduce_mat(M.d0)  # C0 -> C1
        form1 = smith_normal_form(self.d1_bar, d)
        form0 = smith_normal_form(self.d0_bar, d)
        self.h0 = _ParityHomology(d, var, self.d0_bar, form1, _rank(form0[1]))
        self.h1 = _ParityHomology(d, var, self.d1_bar, form0, _rank(form1[1]))

    @classmethod
    def of(cls, M: MatrixBifact) -> "HomologyData":
        """The homology of M, built on first request and kept on M."""
        if M._homology is None:
            M._homology = cls(M)
        return M._homology

    @property
    def dim_h0(self):
        return self.h0.dims

    @property
    def dim_h1(self):
        return self.h1.dims

    def __repr__(self):
        return f"HomologyData(dims=({self.dim_h0},{self.dim_h1}))"


def _apply_reduced_entry(entry, vec_poly, kill):
    image = entry.apply(vec_poly) if isinstance(entry, LinOp) else entry * vec_poly
    return image.subs(kill)


def induced_h(f: MFMorphism):
    """Matrices of H(f) on (H_0, H_1), as lists of K-coordinate columns."""
    if f.z2_degree != 0:
        raise ValueError("induced map is defined for even morphisms")
    src_h = HomologyData.of(f.src)
    tgt_h = HomologyData.of(f.tgt)
    d = f.d
    kill = {v: None for v in (f.tgt.left, f.tgt.right, f.src.left, f.src.right)}
    out = []
    for par, mat, src_par, tgt_par in ((0, f.f0, src_h.h0, tgt_h.h0), (1, f.f1, src_h.h1, tgt_h.h1)):
        cols = []
        for rep in src_par.basis():
            image = []
            for i in range(len(mat)):
                acc = MPoly.zero(d)
                for j, v in enumerate(rep):
                    if v.is_zero():
                        continue
                    e = mat[i][j]
                    if isinstance(e, MPoly) and e.is_zero():
                        continue
                    acc = acc + _apply_reduced_entry(e, v, kill)
                image.append(_univariate(acc, tgt_h.var))
            cols.append(tgt_par.reduce(image))
        out.append(cols)
    return out


def _subtract(vec, factor, row):
    """vec -= factor * row in place, dropping entries that cancel."""
    for c, v in row.items():
        if c in vec:
            nv = vec[c] - factor * v
            if nv.is_zero():
                del vec[c]
            else:
                vec[c] = nv
        else:
            vec[c] = -(factor * v)


def row_reduce(rows) -> dict[int, dict[int, CycNum]]:
    """Reduced row echelon form of sparse rows over the field.

    Each row is a dict column -> CycNum; zero entries are skipped.  Returns
    {pivot column: row}, each row scaled to 1 at its pivot (its smallest
    nonzero column) and zero at every other pivot column.  The RREF is
    unique, so the result does not depend on the order of the rows, and its
    length is the rank.
    """
    pivots: dict[int, dict[int, CycNum]] = {}
    for row in rows:
        vec = {c: v for c, v in row.items() if not v.is_zero()}
        # pivot rows vanish on each other's pivots: one pass clears them all
        for p in [c for c in vec if c in pivots]:
            _subtract(vec, vec[p], pivots[p])
        if not vec:
            continue
        p = min(vec)
        inv = vec[p].inverse()
        new = {c: v * inv for c, v in vec.items()}
        for other in pivots.values():
            if p in other:
                _subtract(other, other[p], new)
        pivots[p] = new
    return pivots


def _is_strict_iso(f: MFMorphism) -> bool:
    """The cycle f is even and its two components are square, constant and
    invertible matrices."""
    if f.z2_degree != 0 or (f.src.rank0, f.src.rank1) != (f.tgt.rank0, f.tgt.rank1):
        return False
    for mat in (f.f0, f.f1):
        if not all(isinstance(e, MPoly) and e.is_constant() for row in mat for e in row):
            return False
        if len(row_reduce({j: e.constant_value() for j, e in enumerate(row)} for row in mat)) != len(mat):
            return False
    return True


def is_homotopy_iso(f: MFMorphism) -> bool:
    """True iff f is a cycle and H(f) is a linear isomorphism in both
    parities; a strict isomorphism is one without its homology (module
    docstring)."""
    if not f.is_cycle():
        return False
    if _is_strict_iso(f):
        return True
    m0, m1 = induced_h(f)
    src_h, tgt_h = HomologyData.of(f.src), HomologyData.of(f.tgt)
    if src_h.dim_h0 != tgt_h.dim_h0 or src_h.dim_h1 != tgt_h.dim_h1:
        return False
    # rank H(f) = rank H(f)^T: each K-coordinate column enters as one row
    rank = lambda cols: len(row_reduce(dict(enumerate(col)) for col in cols))
    return rank(m0) == src_h.dim_h0 and rank(m1) == src_h.dim_h1


# -- homotopy solving -----------------------------------------------------------


def _monomials(vars, total, d):
    """The monomials in `vars` of total degree `total`, in lexicographic order
    of their exponents."""
    out = [(0, MPoly.one(d))]
    for v in vars:
        out = [(n + k, p * MPoly.var(d, v, k)) for n, p in out for k in range(total + 1 - n)]
    return [p for n, p in out if n == total]


def _system_entries(f: MFMorphism):
    """((parity, i, j, monomial), coefficient) for every term of f's entries."""
    for par, mat in ((0, f.f0), (1, f.f1)):
        for i, row in enumerate(mat):
            for j, e in enumerate(row):
                if not isinstance(e, MPoly):
                    raise ValueError("homotopy_solve needs polynomial difference entries")
                for m, c in e.terms.items():
                    yield (par, i, j, m), c


def homotopy_solve(f: MFMorphism, g: MFMorphism, entry_degrees) -> MFMorphism | None:
    """An odd h with f - g = d_tgt . h + h . d_src, or None when none exists.

    `entry_degrees` = (table0, table1) are the forced degrees of the graded
    case (`graded.graded_homotopy_degrees`): entry (i, j) of h_p is
    homogeneous of degree table_p[i][j], or zero where that is None, so the
    outcome is definitive.  The linear system is delta on the monomial basis
    of h: its column k is `MFMorphism.delta` of the odd map whose only entry
    is unknown k.
    """
    if not (f.src.same_shape(g.src) and f.tgt.same_shape(g.tgt) and f.z2_degree == g.z2_degree):
        raise MorphismShapeMismatch(f"cannot compare {f!r} with {g!r}")
    d = f.d
    shapes = ((f.tgt.rank1, f.src.rank0), (f.tgt.rank0, f.src.rank1))

    def odd_map(entries):
        """The odd map src -> tgt with entries {(par, i, j): p}, zero elsewhere."""
        h = [[[MPoly.zero(d) for _ in range(cols)] for _ in range(rows)] for rows, cols in shapes]
        for (par, i, j), p in entries.items():
            h[par][i][j] = p
        return MFMorphism(f.src, f.tgt, 1, *h)

    diff = f - g
    if diff.is_zero():
        return odd_map({})
    rhs = list(_system_entries(diff))
    vars = tuple(dict.fromkeys(f.src.all_vars + f.tgt.all_vars))

    # unknown k is the coefficient of one monomial in one entry of h
    unknowns = []
    for par, (rows, cols) in enumerate(shapes):
        for i in range(rows):
            for j in range(cols):
                deg = entry_degrees[par][i][j]
                monos = [] if deg is None else _monomials(vars, deg, d)
                unknowns.extend(((par, i, j), mono) for mono in monos)

    # rows of the linear system: (par, i, j, monomial) of delta(h) -> coeffs
    system: dict = {}
    for k, (cell, mono) in enumerate(unknowns):
        for key, c in _system_entries(odd_map({cell: mono}).delta()):
            system.setdefault(key, {})[k] = c
    # the right-hand side is column nunk: a pivot there means 0 = c != 0
    nunk = len(unknowns)
    for key, c in rhs:
        system.setdefault(key, {})[nunk] = c
    rref = row_reduce(system.values())
    if nunk in rref:
        return None
    # free unknowns are 0; each pivot unknown reads off its row's rhs entry
    h: dict = {}
    for k in sorted(rref):
        c = rref[k].get(nunk)
        if c is not None:
            cell, mono = unknowns[k]
            h[cell] = h.get(cell, MPoly.zero(d)) + mono * c
    return odd_map(h)
