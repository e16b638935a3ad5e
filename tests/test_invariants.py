import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permfact
from permfact import invariants
from permfact.correspondence import tau
from permfact.cyclofield import CycNum
from permfact.graded import GradedMF, g_pair, graded_homotopy_degrees, graded_tensor, hat_p
from permfact.invariants import (
    HomologyData,
    MorphismShapeMismatch,
    TooManyInternalVariables,
    _ParityHomology,
    homotopy_solve,
    induced_h,
    is_homotopy_iso,
    row_reduce,
    smith_normal_form,
)
from permfact.mfcore import (
    MatrixBifact,
    MFMorphism,
    direct_sum_mf,
    identity_morphism,
    perm_dual_iso,
    perm_mf,
    s_iso,
    sum_morphism,
    tensor_mf,
    unit_isos,
    unit_sections,
)
from permfact.polyring import MPoly, coeff_of, div_rem, leading_coeff
from permfact.temperleylieb import evaluate_F, jw

D = 3


def ypoly(*coeffs, d=D):
    """sum_k coeffs[k] * y^k."""
    return sum((MPoly.var(d, "y", k) * c for k, c in enumerate(coeffs)), MPoly.zero(d))


def _matmul(P, Q, d=D):
    cols = range(len(Q[0]))
    return [[sum((a * q[j] for a, q in zip(row, Q)), MPoly.zero(d)) for j in cols] for row in P]


def _eye(n, d=D):
    return [[MPoly.one(d) if i == j else MPoly.zero(d) for j in range(n)] for i in range(n)]


def _monic(p):
    return p * leading_coeff(p).inverse() if p else p


def _gcd(polys):
    """The monic gcd of univariate polynomials, by Euclid's algorithm."""
    g = MPoly.zero(D)
    for p in polys:
        while p:
            g, p = p, div_rem(g, p)[1]
    return _monic(g)


def _minors2(A):
    """Every 2 x 2 minor of A."""
    m, n = len(A), len(A[0])
    return [
        A[i][j] * A[k][l] - A[i][l] * A[k][j]
        for i in range(m) for k in range(i + 1, m) for j in range(n) for l in range(j + 1, n)
    ]


def _smith_form_holds(A):
    """(S, D, Sinv) = smith_normal_form(A), after checking it: S is invertible
    with inverse Sinv, S A = D T^-1 (row i of S A is a multiple of D_ii), the
    diagonal is monic and each entry divides the next, and D_00 and D_00 D_11
    are the monic gcds of the entries and of the 2 x 2 minors of A."""
    S, Dg, Si = smith_normal_form(A, D)
    m, n = len(A), len(A[0])
    k = min(m, n)
    diag = [Dg[i][i] for i in range(k)]
    assert _matmul(S, Si) == _eye(m) == _matmul(Si, S)
    assert all(not Dg[i][j] for i in range(m) for j in range(n) if i != j)
    SA = _matmul(S, A)
    for i, row in enumerate(SA):
        f = diag[i] if i < k else MPoly.zero(D)
        assert all((not e) if not f else not div_rem(e, f)[1] for e in row)
    assert all(leading_coeff(f) == CycNum.one(D) for f in diag if f)
    for f, g in zip(diag, diag[1:]):
        assert (not g) if not f else not div_rem(g, f)[1]
    assert diag[0] == _gcd(e for row in A for e in row)
    if k > 1:
        assert diag[0] * diag[1] == _gcd(_minors2(A))
    return S, Dg, Si


class TestSmith:
    def test_scalar(self):
        S, Dg, Si = _smith_form_holds([[MPoly.one(D)]])
        assert Dg[0][0] == MPoly.one(D)

    def test_already_diagonal(self):
        y2, y3 = MPoly.var(D, "y", 2), MPoly.var(D, "y", 3)
        S, Dg, Si = _smith_form_holds([[y2, MPoly.zero(D)], [MPoly.zero(D), y3]])
        assert Dg[0][0] == y2 and Dg[1][1] == y3
        # y - 1 does not divide y: the diagonal becomes (1, y^2 - y)
        S, Dg, Si = _smith_form_holds([[ypoly(-1, 1), MPoly.zero(D)], [MPoly.zero(D), ypoly(0, 1)]])
        assert Dg[0][0] == MPoly.one(D) and Dg[1][1] == ypoly(0, -1, 1)

    def test_transform_identity(self):
        A = [[ypoly(0, 1), ypoly(1)], [ypoly(2), ypoly(0, 0, 3)]]
        S, Dg, Si = _smith_form_holds(A)
        # D_00 D_11 is the monic determinant
        assert Dg[0][0] * Dg[1][1] == _monic(A[0][0] * A[1][1] - A[0][1] * A[1][0])

    def test_rectangular(self):
        # A = U diag(y, y^2 - y) V with U, V unimodular (2 x 2 and 3 x 3), and its transpose
        A = [[ypoly(0, 1), ypoly(0, 1), ypoly(0, 1)], [ypoly(0, 0, 1), ypoly(0, -1, 2), ypoly(0, -2, 3)]]
        for M in (A, [list(col) for col in zip(*A)]):
            S, Dg, Si = _smith_form_holds(M)
            assert Dg[0][0] == ypoly(0, 1) and Dg[1][1] == ypoly(0, -1, 1)


def _sheared(M):
    """M conjugated by the shear [[1, 1], [0, 1]] in both parities: an isomorphic object."""
    d = M.d
    one, zero = MPoly.one(d), MPoly.zero(d)
    P, Pinv = [[one, one], [zero, one]], [[one, -one], [zero, one]]
    conj = lambda mat: _matmul(_matmul(P, mat, d), Pinv, d)
    return MatrixBifact(d, M.left, M.right, M.int_vars, conj(M.d1), conj(M.d0))


class TestHomology:
    @pytest.mark.parametrize("d", [3, 5])
    def test_perm_objects(self, d):
        for S in ({0}, {1, 2}, {0, 1}):
            H = HomologyData(perm_mf(d, S))
            assert (H.dim_h0, H.dim_h1) == (1, 1)

    def test_zero_objects(self):
        assert HomologyData(perm_mf(5, set())).dim_h0 == 0
        H = HomologyData(perm_mf(5, range(5)))
        assert (H.dim_h0, H.dim_h1) == (0, 0)

    def test_pair_tensor_dims(self):
        d = 5
        for mu, expect in ((1, (2, 2)), (2, (2, 2)), (3, (1, 1))):
            A = perm_mf(d, {0, 1}, "x", "y1")
            B = perm_mf(d, {j % d for j in range(mu + 1)}, "y1", "z")
            H = HomologyData(tensor_mf(A, B))
            assert (H.dim_h0, H.dim_h1) == expect

    def test_two_periodicity_symmetry(self):
        for d in (3, 5):
            for S in ({0}, {0, 1}, {1, 2}):
                H = HomologyData(perm_mf(d, S))
                assert H.dim_h0 == H.dim_h1

    def test_direct_sum_additivity(self):
        d = 5
        A = perm_mf(d, {0, 1})
        B = perm_mf(d, {2})
        HA, HB = HomologyData(A), HomologyData(B)
        HS = HomologyData(direct_sum_mf(A, B))
        assert HS.dim_h0 == HA.dim_h0 + HB.dim_h0
        assert HS.dim_h1 == HA.dim_h1 + HB.dim_h1

    def test_reduced_differential_must_be_univariate(self):
        d = 3
        M = tensor_mf(perm_mf(d, {0, 1}, "x", "y1"), perm_mf(d, {1, 2}, "y1", "z"))
        for int_vars in ((), ("y2",)):
            with pytest.raises(ValueError, match="not univariate"):
                HomologyData(MatrixBifact(d, M.left, M.right, int_vars, M.d1, M.d0))

    def test_field_mode_reduce_rejects_nonconstant_entry(self):
        zero = [[MPoly.zero(D)]]
        H = _ParityHomology(D, None, zero, smith_normal_form(zero, D), 0)
        assert H.reduce([MPoly.constant(D, 2)]) == [CycNum.from_rational(D, 2)]
        with pytest.raises(ValueError, match="not constant"):
            H.reduce([MPoly.var(D, "y")])

    def test_free_summand_over_k_y_raises(self):
        zero = [[MPoly.zero(3)]]
        with pytest.raises(ValueError, match="free summand"):
            HomologyData(MatrixBifact(3, "x", "z", ("y",), zero, zero))

    def test_nonzero_reduced_differential_over_k(self):
        # the reduced d1 of P_{} is 1: one Smith pivot, and H_0 is what the zero d0
        # leaves; sheared, the kernel vector of H_1 has a pivot entry too
        M = direct_sum_mf(perm_mf(5, set()), perm_mf(5, {0}))
        for N in (M, _sheared(M)):
            H = HomologyData(N)
            assert (H.dim_h0, H.dim_h1) == (1, 1)
            assert is_homotopy_iso(identity_morphism(N))
            assert not is_homotopy_iso(identity_morphism(N).scaled(0))

    def test_coordinates_are_remainders(self):
        # H_0 = K[y]/(y^2 - y) with basis (1, y), and H_1 = 0
        d = 3
        y, one, zero = MPoly.var(d, "y"), MPoly.one(d), MPoly.zero(d)
        M = MatrixBifact(d, "x", "z", ("y",), [[y**2 - y, zero], [zero, zero]], [[zero, zero], [zero, one]])
        H = HomologyData(M)
        assert (H.dim_h0, H.dim_h1) == (2, 0)
        assert H.h0.reduce([y**3, zero]) == [CycNum.zero(d), CycNum.one(d)]
        # y - 1 kills y there, since y^2 = y: rank 1, not an isomorphism
        f = MFMorphism(M, M, 0, *[[[y - 1, zero], [zero, y - 1]]] * 2)
        assert rank(induced_h(f)[0]) == 1 and not is_homotopy_iso(f)

    def test_reduce_rejects_a_non_cycle(self):
        one, zero = MPoly.one(5), MPoly.zero(5)
        over_k = HomologyData(direct_sum_mf(perm_mf(5, set()), perm_mf(5, {0})))
        with pytest.raises(ValueError, match="not a cycle"):
            over_k.h1.reduce([one, zero])
        d = 3
        over_k_y = HomologyData(tensor_mf(perm_mf(d, {0, 1}, "x", "y1"), perm_mf(d, {1, 2}, "y1", "z")))
        with pytest.raises(ValueError, match="not a cycle"):
            over_k_y.h0.reduce([MPoly.one(d), MPoly.zero(d)])

    def test_too_many_internal_variables(self):
        d = 3
        T = lambda a, b: perm_mf(d, {1, 2}, a, b)
        triple = tensor_mf(tensor_mf(T("x", "y1"), T("y1", "y2")), T("y2", "z"))
        with pytest.raises(TooManyInternalVariables):
            HomologyData(triple)


def _proper_subsets(d):
    return [frozenset(i for i in range(d) if mask >> i & 1) for mask in range(1, 2**d - 1)]


@pytest.fixture
def homology_path(monkeypatch):
    """Counts the induced_h calls of is_homotopy_iso: one per morphism that
    the strict-isomorphism rule leaves to the homology."""
    calls = []
    real = invariants.induced_h
    monkeypatch.setattr(invariants, "induced_h", lambda f: calls.append(f) or real(f))
    return calls


class TestStrictIsomorphism:
    """An even cycle with square, constant, invertible components is an
    isomorphism without its homology; everything else keeps the homology."""

    @pytest.mark.parametrize("d,l", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
    def test_agrees_with_the_homology_path(self, d, l, monkeypatch):
        subsets = _proper_subsets(d)
        maps = [perm_dual_iso(d, S, l=l) for S in subsets]
        maps += [s_iso(d, S, a, b, l=l) for S in subsets for a in range(d) for b in range(d)]
        maps += [tau(d, S, a, l=l) for S in subsets for a in range(d)]
        assert all(invariants._is_strict_iso(f) for f in maps)
        by_rule = [is_homotopy_iso(f) for f in maps]
        monkeypatch.setattr(invariants, "_is_strict_iso", lambda f: False)
        assert [is_homotopy_iso(f) for f in maps] == by_rule == [True] * len(maps)

    def test_no_homology_is_built(self, monkeypatch, homology_path):
        built = []
        init = HomologyData.__init__
        monkeypatch.setattr(HomologyData, "__init__", lambda self, M: built.append(M) or init(self, M))
        f = s_iso(5, {0, 1}, 2, 0)
        assert is_homotopy_iso(f) and is_homotopy_iso(perm_dual_iso(5, {1, 2}))
        assert built == [] and homology_path == []

    @pytest.mark.parametrize(
        "f0,f1,verdict",
        [
            pytest.param(1, 0, False, id="zero-odd-component"),
            pytest.param(0, 0, False, id="zero-map"),
            pytest.param(1, 2, True, id="non-cycle"),
            pytest.param("1 + x", "1 + x", True, id="polynomial-cycle"),
        ],
    )
    def test_a_map_outside_the_rule_keeps_its_homology_answer(self, f0, f1, verdict, homology_path):
        d = 5
        P = perm_mf(d, {1, 2}).renamed({})
        entry = lambda c: MPoly.one(d) + MPoly.var(d, "x") if c == "1 + x" else MPoly.constant(d, c)
        f = MFMorphism(P, P, 0, [[entry(f0)]], [[entry(f1)]])
        assert not invariants._is_strict_iso(f)
        assert is_homotopy_iso(f) is verdict
        assert homology_path == [f]

    def test_a_singular_constant_cycle_keeps_its_homology_answer(self, homology_path):
        d = 5
        P = perm_mf(d, {1, 2})
        PP = direct_sum_mf(P, P)
        one, zero = MPoly.one(d), MPoly.zero(d)
        proj = [[one, zero], [zero, zero]]
        f = MFMorphism(PP, PP, 0, proj, proj)
        assert f.is_cycle() and not invariants._is_strict_iso(f)
        assert not is_homotopy_iso(f) and homology_path == [f]


class TestSharedHomology:
    def test_consecutive_objects_d5(self):
        d = 5
        for a in range(d):
            for lam in range(d - 1):
                M = perm_mf(d, {(a + j) % d for j in range(lam + 1)})
                H = HomologyData.of(M)
                assert H is HomologyData.of(M)
                fresh = HomologyData(M)
                assert (H.dim_h0, H.dim_h1) == (fresh.dim_h0, fresh.dim_h1) == (1, 1)

    def test_one_smith_form_per_differential(self, monkeypatch):
        calls = []
        real = invariants.smith_normal_form
        monkeypatch.setattr(invariants, "smith_normal_form", lambda A, d: calls.append(A) or real(A, d))
        M = tensor_mf(perm_mf(5, {0, 1}, "x", "y1"), perm_mf(5, {1, 2}, "y1", "z"))
        H = HomologyData(M)
        assert calls == [H.d1_bar, H.d0_bar]

    def test_is_homotopy_iso_shares_the_homology(self, monkeypatch):
        built = []
        init = HomologyData.__init__

        def counting(self, M):
            built.append(M)
            init(self, M)

        monkeypatch.setattr(HomologyData, "__init__", counting)
        d = 5
        # lambda has operator entries, so the strict-isomorphism rule leaves
        # it to the homology; a renamed copy of T has no homology kept yet
        f, _ = unit_isos(perm_mf(d, {2, 3}, "x", "z").renamed({}))
        H_tgt = HomologyData.of(f.tgt)
        assert is_homotopy_iso(f) and is_homotopy_iso(f)
        assert len(built) == 2 and built[1] is f.src
        # equal objects built apart build their own homology, with the same induced map
        apart = MFMorphism(f.src.renamed({}), f.tgt.renamed({}), 0, f.f0, f.f1)
        assert induced_h(apart) == induced_h(f)
        assert HomologyData.of(f.tgt) is H_tgt and len(built) == 4


class TestInducedMaps:
    def test_identity_and_zero(self):
        M = perm_mf(5, {0})
        assert is_homotopy_iso(identity_morphism(M))
        assert not is_homotopy_iso(identity_morphism(M).scaled(0))

    @pytest.mark.parametrize("d", [3, 5])
    def test_dual_isos(self, d):
        for S in ({0}, {1}, {1, 2}):
            assert is_homotopy_iso(perm_dual_iso(d, S))

    def test_composite_of_isos(self):
        d = 5
        f = s_iso(d, {0}, 2, 0)
        g = MFMorphism(f.tgt, f.tgt, 0, [[MPoly.constant(d, 3)]], [[MPoly.constant(d, 3)]])
        assert is_homotopy_iso(f) and is_homotopy_iso(g)
        assert is_homotopy_iso(g.compose(f))

    @pytest.mark.parametrize("d", [3, 5])
    def test_unit_isos_and_sections(self, d):
        M = perm_mf(d, {(d - 1) // 2, (d + 1) // 2}, "x", "z")
        lam, rho = unit_isos(M)
        sl, sr = unit_sections(M)
        for f in (lam, rho, sl, sr):
            assert is_homotopy_iso(f)


# -- the two-Smith-form homology, kept as a reference -----------------------------


def _five_tuple_smith(A, d):
    """(S, D, T, Sinv, Tinv) with S A T = D: the Smith form with both
    transforms, which the reference homology below reads.  Its diagonal is not
    made monic: K[y]/(f) and remainders mod f do not see a unit factor."""
    m = len(A)
    n = len(A[0]) if m else 0
    D_ = [row[:] for row in A]
    S, Sinv, T, Tinv = _eye(m, d), _eye(m, d), _eye(n, d), _eye(n, d)

    def row_add(i, j, q):
        D_[i] = [a + q * b for a, b in zip(D_[i], D_[j])]
        S[i] = [a + q * b for a, b in zip(S[i], S[j])]
        for r in Sinv:
            r[j] = r[j] - q * r[i]

    def col_add(i, j, q):
        for r in D_ + T:
            r[i] = r[i] + q * r[j]
        Tinv[j] = [a - q * b for a, b in zip(Tinv[j], Tinv[i])]

    for t in range(min(m, n)):
        while True:
            nonzero = [(D_[i][j].degree(), i, j) for i in range(t, m) for j in range(t, n) if D_[i][j]]
            if not nonzero:
                break
            _, pi, pj = min(nonzero)
            D_[t], D_[pi], S[t], S[pi] = D_[pi], D_[t], S[pi], S[t]
            for r in Sinv:
                r[t], r[pi] = r[pi], r[t]
            for r in D_ + T:
                r[t], r[pj] = r[pj], r[t]
            Tinv[t], Tinv[pj] = Tinv[pj], Tinv[t]
            for i in range(t + 1, m):
                row_add(i, t, -div_rem(D_[i][t], D_[t][t])[0])
            for j in range(t + 1, n):
                col_add(j, t, -div_rem(D_[t][j], D_[t][t])[0])
            if any(D_[i][t] for i in range(t + 1, m)) or any(D_[t][j] for j in range(t + 1, n)):
                continue
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if D_[i][j] and div_rem(D_[i][j], D_[t][t])[1]),
                None,
            )
            if offender is None:
                break
            row_add(t, offender, MPoly.one(d))
    return S, D_, T, Sinv, Tinv


class _TwoSmithParity:
    """ker(d_out)/im(d_in) from the Smith form of d_out (its column transform
    gives ker d_out) and a second one of d_in written on that kernel."""

    def __init__(self, d, var, d_out, d_in):
        self.d, self.var = d, var
        n = len(d_out[0])
        _, D1, T, _, self.Tinv = _five_tuple_smith(d_out, d)
        self.pivots = [i for i in range(min(len(D1), n)) if D1[i][i]]
        self.kernel = [i for i in range(n) if i not in self.pivots]
        image = [self._coords(col) for col in zip(*d_in)]
        X = [[w[i] for w in image] for i in self.kernel]
        self.S2, D2, _, S2inv, _ = _five_tuple_smith(X, d)
        factors = [D2[i][i] if i < len(D2[0]) else MPoly.zero(d) for i in range(len(X))]
        if var is None:
            self.labels = [(i, 0) for i, f in enumerate(factors) if not f]
        else:
            assert all(factors), "free summand"
            self.labels = [(i, e) for i, f in enumerate(factors) for e in range(f.degree())]
        self.factors = factors
        # kernel coordinates of each basis vector, carried back by T
        power = lambda e: MPoly.var(d, var, e) if var else MPoly.one(d)
        self.reps = [
            [sum((T[r][k] * S2inv[a][i] * power(e) for a, k in enumerate(self.kernel)), MPoly.zero(d)) for r in range(n)]
            for i, e in self.labels
        ]
        self.dims = len(self.labels)

    def _coords(self, vec):
        return [sum((a * v for a, v in zip(row, vec)), MPoly.zero(self.d)) for row in self.Tinv]

    def reduce(self, vec):
        w = self._coords(vec)
        assert not any(w[i] for i in self.pivots), "not a cycle"
        u = _matmul(self.S2, [[w[i]] for i in self.kernel], self.d)
        if self.var is None:
            return [u[i][0].constant_value() for i, _ in self.labels]
        return [coeff_of(div_rem(u[i][0], self.factors[i])[1], self.var, e).constant_value() for i, e in self.labels]

    def basis(self):
        return self.reps


class _TwoSmithHomology:
    def __init__(self, M):
        var = M.int_vars[0] if M.int_vars else None
        kill = {M.left: None, M.right: None}
        d1, d0 = ([[e.subs(kill) for e in row] for row in mat] for mat in (M.d1, M.d0))
        self.var = var
        self.h0 = _TwoSmithParity(M.d, var, d0, d1)
        self.h1 = _TwoSmithParity(M.d, var, d1, d0)
        self.dim_h0, self.dim_h1 = self.h0.dims, self.h1.dims


def _verdict_and_ranks(f):
    """(dims of source and target, is_homotopy_iso, rank of each induced_h block)."""
    rank = lambda cols: len(row_reduce(dict(enumerate(col)) for col in cols))
    dims = [(H.dim_h0, H.dim_h1) for H in (HomologyData.of(f.src), HomologyData.of(f.tgt))]
    return dims, is_homotopy_iso(f), [rank(m) for m in induced_h(f)]


def _with_reference_homology(f):
    """f between fresh copies of its ends, each carrying the two-Smith-form homology."""
    src = f.src.renamed({})
    tgt = src if f.tgt is f.src else f.tgt.renamed({})
    for M in {id(src): src, id(tgt): tgt}.values():
        M._homology = _TwoSmithHomology(M)
    return MFMorphism(src, tgt, 0, f.f0, f.f1)


def _certificate_morphisms(d):
    arcs = [_arc(d, a, lam) for a in range(d) for lam in range(d - 1)]
    for S in arcs:
        M = perm_mf(d, S)
        yield identity_morphism(M)
        yield perm_dual_iso(d, S)
        yield s_iso(d, S, 1, d - 1)
    yield identity_morphism(perm_mf(d, {0})).scaled(0)  # the negative control
    nonzero = direct_sum_mf(perm_mf(d, set()), perm_mf(d, {0}))  # reduced d1 = diag(1, 0)
    for N in (nonzero, _sheared(nonzero)):
        yield identity_morphism(N)
        yield identity_morphism(N).scaled(0)
    for a in range(d):
        for b in range(d):
            for mu in range(1, d - 1):
                g_minus, g_plus, _, _, AB = g_pair(d, a, b, mu)
                yield sum_morphism(g_minus, g_plus)
                yield identity_morphism(AB.mf)  # a source over K[y]
    M = perm_mf(d, {(d - 1) // 2, (d + 1) // 2}, "x", "z")
    yield from unit_isos(M)
    yield from unit_sections(M)


class TestAgainstTwoSmithForms:
    @pytest.mark.parametrize("d", [3, 5])
    def test_same_dims_verdicts_and_ranks(self, d):
        verdicts = set()
        for f in _certificate_morphisms(d):
            ours = _verdict_and_ranks(f)
            assert ours == _verdict_and_ranks(_with_reference_homology(f)), f
            verdicts.add(ours[1])
        assert verdicts == {True, False}


NO_HOMOTOPY = ([[None]], [[None]])  # forced degrees of a rank-(1,1) map with every entry zero


class TestHomotopySolve:
    def test_equal_inputs_give_zero(self):
        M = perm_mf(3, {1, 2})
        idm = identity_morphism(M)
        h = homotopy_solve(idm, idm, NO_HOMOTOPY)
        assert h is not None and h.is_zero()

    def test_finds_null_homotopy_of_boundary(self):
        d = 3
        M = perm_mf(d, {1, 2}, "x", "z")
        h0 = MFMorphism(M, M, 1, [[MPoly.var(d, "x")]], [[MPoly.var(d, "z")]])
        bdry = h0.delta()
        zero = identity_morphism(M).scaled(0)
        sol = homotopy_solve(bdry, zero, ([[1]], [[1]]))
        assert sol is not None
        assert sol.delta().equals(bdry)

    def test_obstructed_case_returns_none(self):
        # the identity of a nonzero object is not null-homotopic at any degree
        M = perm_mf(3, {1, 2})
        idm = identity_morphism(M)
        zero = idm.scaled(0)
        for deg in range(4):
            assert homotopy_solve(idm, zero, ([[deg]], [[deg]])) is None

    def test_rows_keyed_by_monomial(self):
        # delta(h) = y^2 in both components, while the differentials carry x:
        # a row key that kept zero exponents split the y^2 rows and found no h
        d = 3
        M = perm_mf(d, {0}, "x", "y")
        x, y = MPoly.var(d, "x"), MPoly.var(d, "y")
        h = MFMorphism(M, M, 1, [[(x + y * 2) * Fraction(-1, 3)]], [[MPoly.constant(d, Fraction(1, 3))]])
        bdry = h.delta()
        assert bdry.f0 == [[y**2]] and bdry.f1 == [[y**2]]
        sol = homotopy_solve(bdry, identity_morphism(M).scaled(0), ([[1]], [[0]]))
        assert sol is not None
        assert sol.delta().equals(bdry)

    def test_shape_mismatch_raises(self):
        idm = identity_morphism(perm_mf(3, {1, 2}))
        other = identity_morphism(perm_mf(3, {1, 2}, "x", "z"))
        with pytest.raises(MorphismShapeMismatch):
            homotopy_solve(idm, other, NO_HOMOTOPY)
        odd = MFMorphism(idm.src, idm.tgt, 1, idm.f0, idm.f1)
        with pytest.raises(MorphismShapeMismatch):
            homotopy_solve(idm, odd, NO_HOMOTOPY)

    def test_boundary_checks_survive_optimize_flag(self):
        # python -O strips assert statements; these checks must still raise
        script = (
            "from permfact.cyclofield import CycNum\n"
            "from permfact.invariants import MorphismShapeMismatch, homotopy_solve\n"
            "from permfact.linop import ResidueCore, ResidueVariableClash\n"
            "from permfact.mfcore import identity_morphism, perm_mf\n"
            "from permfact.polyring import MPoly\n"
            "try:\n"
            "    ResidueCore(MPoly.one(3), 'y', 'y', CycNum.one(3), 3)\n"
            "except ResidueVariableClash:\n"
            "    print('raised')\n"
            "f = identity_morphism(perm_mf(3, {1, 2}))\n"
            "g = identity_morphism(perm_mf(3, {1, 2}, 'x', 'z'))\n"
            "try:\n"
            "    homotopy_solve(f, g, ([[None]], [[None]]))\n"
            "except MorphismShapeMismatch:\n"
            "    print('raised')\n"
        )
        src = str(Path(permfact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["raised", "raised"]


# -- the sparse elimination routine -----------------------------------------------


def entries(d):
    """Small field elements, zero half the time so that ranks drop."""
    deg = len(CycNum.zero(d).coeffs)
    nonzero = st.lists(st.integers(-2, 2), min_size=deg, max_size=deg).map(lambda cs: CycNum(d, cs))
    return st.one_of(st.just(CycNum.zero(d)), nonzero)


def matrices(d):
    """Matrices with 1 to 4 rows and 1 to 4 columns."""
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entries(d), min_size=n, max_size=n), min_size=1, max_size=4)
    )


fields = st.sampled_from([3, 5])


def rank(A):
    return len(row_reduce(dict(enumerate(row)) for row in A))


def dot(row, x, d):
    acc = CycNum.zero(d)
    for a, b in zip(row, x):
        acc = acc + a * b
    return acc


class TestRowReduce:
    @given(data=st.data(), d=fields)
    @settings(max_examples=30, deadline=None)
    def test_reduced_echelon_form(self, data, d):
        A = data.draw(matrices(d))
        rref = row_reduce(dict(enumerate(row)) for row in A)
        for p, row in rref.items():
            assert min(row) == p and row[p] == 1
            assert all(not v.is_zero() for v in row.values())
            assert not any(q in row for q in rref if q != p)
        assert row_reduce(dict(enumerate(row)) for row in reversed(A)) == rref

    @given(data=st.data(), d=fields)
    @settings(max_examples=30, deadline=None)
    def test_rank_of_transpose(self, data, d):
        A = data.draw(matrices(d))
        At = [list(col) for col in zip(*A)]
        assert rank(A) == rank(At)

    @given(data=st.data(), d=fields)
    @settings(max_examples=30, deadline=None)
    def test_dependent_row_keeps_rank(self, data, d):
        A = data.draw(matrices(d))
        c = data.draw(st.lists(entries(d), min_size=len(A), max_size=len(A)))
        combo = [dot(col, c, d) for col in zip(*A)]
        assert rank(A + [combo]) == rank(A)

    @given(data=st.data(), d=fields)
    @settings(max_examples=30, deadline=None)
    def test_solve_reads_off_a_solution(self, data, d):
        A = data.draw(matrices(d))
        n = len(A[0])
        x0 = data.draw(st.lists(entries(d), min_size=n, max_size=n))
        b = [dot(row, x0, d) for row in A]
        rref = row_reduce(dict(enumerate(row + [rhs])) for row, rhs in zip(A, b))
        assert n not in rref
        x = [CycNum.zero(d)] * n
        for c, row in rref.items():
            x[c] = row.get(n, CycNum.zero(d))
        assert [dot(row, x, d) for row in A] == b

    @given(data=st.data(), d=fields)
    @settings(max_examples=30, deadline=None)
    def test_inconsistent_row_pivots_on_rhs(self, data, d):
        A = data.draw(matrices(d))
        n = len(A[0])
        rows = [dict(enumerate(row + [CycNum.zero(d)])) for row in A] + [{n: CycNum.one(d)}]
        assert n in row_reduce(rows)

    def test_inconsistent_system_solves_to_none(self):
        # 0 = 1 with no unknowns: the right-hand side is the pivot
        idm = identity_morphism(perm_mf(3, {1, 2}))
        assert homotopy_solve(idm, idm.scaled(0), NO_HOMOTOPY) is None

    def test_pinned_jw_null_homotopy(self):
        # the d = 3 jw_vanishing_direct system; h recorded with the dense solver
        d = 3
        gp = g_pair(d, 1, 1, 1)[1]
        c_plus = evaluate_F(jw(2, d)).compose(gp.renamed({"y": "y1"}))
        ABG = graded_tensor(hat_p(d, {1, 2}, "x", "y1"), hat_p(d, {1, 2}, "y1", "z"))
        tables = graded_homotopy_degrees(hat_p(d, {0, 1, 2}), ABG)
        h = homotopy_solve(c_plus, c_plus.scaled(0), entry_degrees=tables)
        zero, one = MPoly.zero(d), MPoly.one(d)
        assert h.f0 == [[zero], [zero]]
        assert h.f1 == [[one], [zero]]

    def test_pinned_free_unknowns_are_zero(self):
        # at entry degrees (2, 3) the odd cycles ((x - z) t, -(x^2 + xz + z^2) t),
        # t linear, are free unknowns; set to 0 they leave delta's preimage (x^2, z^3)
        d = 3
        M = perm_mf(d, {1, 2}, "x", "z")
        x, z = MPoly.var(d, "x"), MPoly.var(d, "z")
        cycle = MFMorphism(M, M, 1, [[M.d0[0][0] * x]], [[-(M.d1[0][0] * x)]])
        assert cycle.is_cycle() and not cycle.is_zero()
        bdry = MFMorphism(M, M, 1, [[x**2]], [[z**3]]).delta()
        h = homotopy_solve(bdry, identity_morphism(M).scaled(0), ([[2]], [[3]]))
        assert h.f0 == [[x**2]]
        assert h.f1 == [[z**3]]


# -- the homotopy system is delta on a monomial basis ---------------------------


def _monomials(vars, deg, d):
    """Every monomial of total degree deg in vars."""
    out = []
    for combo in combinations_with_replacement(vars, deg):
        m = MPoly.one(d)
        for v in combo:
            m = m * MPoly.var(d, v)
        out.append(m)
    return out


def _arc(d, a, lam):
    return {(a + j) % d for j in range(lam + 1)}


class TestDeltaSystem:
    @given(data=st.data(), d=fields)
    @settings(max_examples=25, deadline=None)
    def test_solves_back_the_boundary_of_a_random_graded_h(self, data, d):
        # a random odd h of charge -1 (every entry a combination of the
        # monomials of its forced degree); delta(h) must be solved back
        arc = lambda: st.tuples(st.integers(0, d - 1), st.integers(0, d - 2)).map(lambda al: _arc(d, *al))
        src = hat_p(d, data.draw(arc()), "x", "z")
        if data.draw(st.booleans()):
            tgt = hat_p(d, data.draw(arc()), "x", "z")
        else:
            tgt = graded_tensor(hat_p(d, data.draw(arc()), "x", "y1"), hat_p(d, data.draw(arc()), "y1", "z"))
        # shift the target so that the first entry of h has degree 0, 1 or 2
        deg = data.draw(st.integers(0, 2))
        q = src.charges0[0] - tgt.charges1[0] - 1 - Fraction(2 * deg, d)
        tgt = GradedMF(tgt.mf, [c + q for c in tgt.charges0], [c + q for c in tgt.charges1])
        tables = graded_homotopy_degrees(src, tgt)
        vars = tuple(dict.fromkeys(src.mf.all_vars + tgt.mf.all_vars))

        def entry(deg):
            if deg is None:
                return MPoly.zero(d)
            monos = _monomials(vars, deg, d)
            coeffs = data.draw(st.lists(entries(d), min_size=len(monos), max_size=len(monos)))
            return sum((m * c for m, c in zip(monos, coeffs)), MPoly.zero(d))

        h = MFMorphism(src.mf, tgt.mf, 1, *[[[entry(deg) for deg in row] for row in t] for t in tables])
        bdry = h.delta()
        sol = homotopy_solve(bdry, bdry.scaled(0), entry_degrees=tables)
        assert sol is not None
        assert sol.delta().equals(bdry)
