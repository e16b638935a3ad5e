import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import permfact
from permfact import cli, invariants, mfcore
from permfact.checks import build_checks
from permfact.correspondence import mu_hexagon_ok, tau
from permfact.cyclofield import CycNum, EvenModulus, NotCoprime, eta_power, kappa
from permfact.invariants import HomologyData
from permfact.mfcore import (
    InvalidDifferential,
    MatrixBifact,
    MFMorphism,
    MorphismShapeMismatch,
    RankUnsupported,
    VariableMismatch,
    chi,
    coev_into_dual,
    diag_twist_mf,
    dual_rank1,
    duality_pieces,
    duality_un,
    ev_coev,
    identity_morphism,
    mat_mul,
    mu,
    perm_dual_iso,
    perm_mf,
    reassoc,
    s_iso,
    sum_morphism,
    tensor_mf,
    tensor_morphism,
    twist_mf,
    twist_morphism,
    unit_isos,
    unit_mf,
    unit_sections,
    verify_factorisation,
    zigzag_morphisms,
)
from permfact.linop import LinOp, ResidueCore, Subst, as_linop
from permfact.polyring import MPoly, exact_div, perm_product

TENSOR_PINS = Path(__file__).parent / "reference" / "tensor-blocks.d5.json"


class TestPermObjects:
    def test_unit_is_p_zero(self):
        for d in (3, 5):
            assert perm_mf(d, {0}) == unit_mf(d)

    def test_empty_set_gives_unit_differential(self):
        P = perm_mf(5, set())
        assert P.d1[0][0] == MPoly.one(5)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_factorisation_condition(self, d):
        for a in range(d):
            for lam in range(d - 1):
                S = {(a + j) % d for j in range(lam + 1)}
                assert verify_factorisation(perm_mf(d, S))

    def test_broken_factorisation_detected(self):
        M = perm_mf(5, {1, 2})
        bad = MatrixBifact(5, "x", "y", (), [[M.d1[0][0] + 1]], [[M.d0[0][0]]])
        assert not verify_factorisation(bad)



class TestTensor:
    def test_ranks_add(self):
        d = 5
        AB = tensor_mf(perm_mf(d, {0}, "x", "y1"), perm_mf(d, {0}, "y1", "z"))
        assert (AB.rank0, AB.rank1) == (2, 2)

    def test_block_signs_match_display(self):
        # d1 = [[m1, n1], [-n0, m0]], d0 = [[m0, -n1], [n0, m1]]
        d = 5
        A = perm_mf(d, {0, 1}, "x", "y1")
        B = perm_mf(d, {1, 2}, "y1", "z")
        AB = tensor_mf(A, B)
        m1, m0 = A.d1[0][0], A.d0[0][0]
        n1, n0 = B.d1[0][0], B.d0[0][0]
        assert AB.d1 == [[m1, n1], [-n0, m0]]
        assert AB.d0 == [[m0, -n1], [n0, m1]]

    @pytest.mark.parametrize("d", [3, 5])
    def test_tensor_factorises(self, d):
        A = perm_mf(d, {0, 1}, "x", "y1")
        B = perm_mf(d, {1, 2}, "y1", "z")
        assert verify_factorisation(tensor_mf(A, B))

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            tensor_mf(perm_mf(3, {0}, "x", "y1"), perm_mf(3, {0}, "y2", "z"))

    def test_reassoc_is_cycle(self):
        d = 3
        T = lambda a, b: perm_mf(d, {1, 2}, a, b)
        left = tensor_mf(tensor_mf(T("x", "y1"), T("y1", "y2")), T("y2", "z"))
        right = tensor_mf(T("x", "y1"), tensor_mf(T("y1", "y2"), T("y2", "z")))
        al = reassoc(right, left)
        assert al.is_cycle()
        back = reassoc(left, right)
        assert al.compose(back).equals(identity_morphism(right))

    def test_reassoc_rejects_bracketings_of_different_words(self):
        # both words have the tags of three rank-(1,1) factors; only the factors differ
        d = 3
        A = tensor_mf(chi(d, 1, "x", "y1"), tensor_mf(chi(d, 0, "y1", "y2"), chi(d, 2, "y2", "z")))
        B = tensor_mf(tensor_mf(chi(d, 2, "x", "y1"), chi(d, 2, "y1", "y2")), chi(d, 2, "y2", "z"))
        with pytest.raises(VariableMismatch):
            reassoc(B, A)
        with pytest.raises(VariableMismatch):
            reassoc(A, A.renamed({"y1": "w"}))


def _odd_differential(M):
    return MFMorphism(M, M, 1, M.d0, M.d1)


def _tensor_pin_cases():
    d = 5
    A = perm_mf(d, {0, 1}, "x", "y1")
    B = perm_mf(d, {2}, "y1", "y2")
    C = perm_mf(d, {1, 2, 3}, "y2", "z")
    lam_B, _ = unit_isos(B, mid="y3")
    lam_A, _ = unit_isos(A, mid="y3")
    return {
        "tensor_mf(tensor_mf(A, B), C)": tensor_mf(tensor_mf(A, B), C),
        "tensor_mf(A, tensor_mf(B, C))": tensor_mf(A, tensor_mf(B, C)),
        "tensor_morphism(dA, lambda_B)": tensor_morphism(_odd_differential(A), lam_B),
        "tensor_morphism(dA, dB)": tensor_morphism(_odd_differential(A), _odd_differential(B)),
        "tensor_morphism(lambda_A, dB)": tensor_morphism(lam_A, _odd_differential(B)),
    }


def _entries(f):
    """Every entry of a morphism's components, f0 first."""
    return [e for mat in (f.f0, f.f1) for row in mat for e in row]


def _entry_reprs(obj):
    reprs = lambda mat: [[repr(e) for e in row] for row in mat]
    if isinstance(obj, MFMorphism):
        return {"deg": obj.z2_degree, "f0": reprs(obj.f0), "f1": reprs(obj.f1)}
    return {"d1": reprs(obj.d1), "d0": reprs(obj.d0), "tags0": reprs(obj.tags0), "tags1": reprs(obj.tags1)}


class TestTensorBlocks:
    """Every entry of iterated tensor objects and of tensor morphisms with an
    odd first factor, against reprs recorded from the kron/hstack/vstack
    construction: a block-order or sign change shows here even when a
    verdict would not notice it."""

    def test_entries_match_recorded(self):
        pins = json.loads(TENSOR_PINS.read_text())
        assert {name: _entry_reprs(obj) for name, obj in _tensor_pin_cases().items()} == pins


def _eager_tensor_mf(M, N):
    """M (x) N with d_M (x) 1 + 1 (x) d_N written at construction: the
    reference for the lazily written tensor differential."""
    d = M.d
    rank0 = M.rank0 * N.rank0 + M.rank1 * N.rank1
    rank1 = M.rank1 * N.rank0 + M.rank0 * N.rank1
    d0, d1 = mfcore._zero_matrix(rank1, rank0, d), mfcore._zero_matrix(rank0, rank1, d)
    mfcore._write_tensor_blocks([d0, d1], _odd_differential(M), identity_morphism(N))
    mfcore._write_tensor_blocks([d0, d1], identity_morphism(M), _odd_differential(N))
    tags0 = tuple(a + b for a in M.tags0 for b in N.tags0) + tuple(a + b for a in M.tags1 for b in N.tags1)
    tags1 = tuple(a + b for a in M.tags1 for b in N.tags0) + tuple(a + b for a in M.tags0 for b in N.tags1)
    return MatrixBifact(d, M.left, N.right, M.int_vars + (M.right,) + N.int_vars, d1, d0, tags0, tags1)


def _bracketed(tensor, word):
    """The tensor object of a nested pair of factors, built by `tensor`."""
    if isinstance(word, tuple):
        return tensor(_bracketed(tensor, word[0]), _bracketed(tensor, word[1]))
    return word


def _lazy_tensor_words(d):
    """Four bracketings of one word of perm_mf, chi, unit_mf and a rank-(2,2) factor."""
    P = perm_mf(d, {0, 1}, "x", "y1")
    C = chi(d, 1, "y1", "y2")
    U = unit_mf(d, "y2", "y3")
    R = mfcore.direct_sum_mf(perm_mf(d, {1}, "y3", "z"), perm_mf(d, {0, 2}, "y3", "z"))
    return {
        "((PC)U)R": (((P, C), U), R),
        "P(C(UR))": (P, (C, (U, R))),
        "(PC)(UR)": ((P, C), (U, R)),
        "P((CU)R)": (P, ((C, U), R)),
    }


_TRANSFORMS = {
    "none": lambda M: M,
    "renamed": lambda M: M.renamed({"x": "w", "y2": "v"}),
    "twist_mf": lambda M: twist_mf(M, 1, 2, 2),
    "diag_twist_mf": lambda M: diag_twist_mf(M, 2, 2),
}


@pytest.fixture
def tensor_writes(monkeypatch):
    """Counts the tensor differentials written while the test runs."""
    count = [0]
    write = mfcore._tensor_differential

    def counted(T):
        count[0] += 1
        return write(T)

    monkeypatch.setattr(mfcore, "_tensor_differential", counted)
    return count


class TestLazyTensor:
    """tensor_mf against the eager construction, entry by entry."""

    @staticmethod
    def _described(M):
        return _entry_reprs(M), M.int_vars, (M.left, M.right, M.rank0, M.rank1)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("transform", list(_TRANSFORMS))
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_matches_eager_construction(self, d, transform, read_first, tensor_writes):
        apply = _TRANSFORMS[transform]
        for name, word in _lazy_tensor_words(d).items():
            lazy = _bracketed(tensor_mf, word)
            if read_first:
                lazy.d1
            written = tensor_writes[0]
            out = apply(lazy)
            if transform != "none":
                # a substitution is applied to the factors, writing nothing
                assert tensor_writes[0] == written, name
            ref = apply(_bracketed(_eager_tensor_mf, word))
            assert self._described(out) == self._described(ref), name
            assert out.d1 == ref.d1 and out.d0 == ref.d0, name

    def test_differential_written_once_on_first_read(self, tensor_writes):
        word = _lazy_tensor_words(3)["P(C(UR))"]
        T = _bracketed(tensor_mf, word)
        assert tensor_writes[0] == 0
        assert (T.rank0, T.rank1, len(T.tags0), len(T.tags1)) == (16, 16, 16, 16)
        assert tensor_writes[0] == 0
        d1 = T.d1
        assert tensor_writes[0] == 3  # T and its two nested factors
        assert T.d0 is T.d0 and T.d1 is d1
        assert tensor_writes[0] == 3

    @pytest.mark.parametrize("d", [3, 5])
    def test_three_factor_word_factorises(self, d, tensor_writes):
        word = _lazy_tensor_words(d)["((PC)U)R"][0]
        assert verify_factorisation(_bracketed(tensor_mf, word))
        assert verify_factorisation(diag_twist_mf(_bracketed(tensor_mf, word), 1, 2))
        assert tensor_writes[0] == 4

    def test_hexagon_writes_no_differential(self, tensor_writes):
        d = 3
        triples = [(a, b, c) for a in range(d) for b in range(d) for c in range(d)]
        assert all(mu_hexagon_ok(d, *t) for t in triples)  # warm-up: fills the constructor caches
        written = tensor_writes[0]
        assert all(mu_hexagon_ok(d, *t) for t in triples)
        assert tensor_writes[0] == written


def _mat_mul_every_pair(A, B, d):
    """The matrix product summing a * b over every pair, zero factors included."""
    cols = range(len(B[0]) if B else 0)
    return [[sum((a * b[j] for a, b in zip(row, B)), MPoly.zero(d)) for j in cols] for row in A]


def _hexagon_composites(d, a, b, c):
    """Both sides of the mu hexagon at (a, b, c), as correspondence.mu_hexagon_ok builds them."""
    step1 = tensor_morphism(identity_morphism(chi(d, a, "x", "y1")), mu(d, b, c).renamed({"x": "y1", "y1": "y2"}))
    step2 = tensor_morphism(mu(d, a, b).renamed({"z": "y2"}), identity_morphism(chi(d, c, "y2", "z")))
    return {
        "step1": step1,
        "step2": step2,
        "p1": mu(d, a, (b + c) % d).compose(step1).compose(reassoc(step2.src, step1.src)),
        "p2": mu(d, (a + b) % d, c).renamed({"y1": "y2"}).compose(step2),
        "delta": step1.delta(),
    }


def _mat_mul_from_zero(A, B, d):
    """Each entry summed from a zero polynomial over the pairs with no zero
    polynomial factor: the reference for mat_mul's first-term start."""
    cols = range(len(B[0]) if B else 0)
    return [[sum((a * b[j] for a, b in zip(row, B) if a and b[j]), MPoly.zero(d)) for j in cols] for row in A]


class TestMatMul:
    @pytest.mark.parametrize("d", [3, 5])
    def test_first_term_start_matches_a_sum_from_zero(self, d, monkeypatch):
        """Every product the core, tl and equivariance suites form: equal
        entries of the same type, an entry with no product the zero polynomial."""
        kinds = {"operator": 0, "polynomial": 0, "zero": 0}

        def checked(A, B, d):
            out, ref = mat_mul(A, B, d), _mat_mul_from_zero(A, B, d)
            assert [len(row) for row in out] == [len(row) for row in ref]
            for e, r in zip(sum(out, []), sum(ref, [])):
                assert type(e) is type(r) and e == r
                kinds["operator" if isinstance(e, LinOp) else "polynomial" if e else "zero"] += 1
            return out

        monkeypatch.setattr(mfcore, "mat_mul", checked)
        monkeypatch.setattr(invariants, "mat_mul", checked)
        for c in build_checks(d, 1, {"core", "tl", "equivariance"}):
            assert c.run()["status"] == "pass", c.name
        assert all(kinds.values()), kinds

    def test_zero_pairs_change_no_value(self):
        d = 5
        x, y1 = MPoly.var(d, "x"), MPoly.var(d, "y1")
        L = LinOp.substitution(d, {"y1": (eta_power(d, 2), "x")})
        Z, P = MPoly.zero(d), x - y1 * eta_power(d, 1)
        A = [[P, Z, L], [Z, Z, P], [L, Z, Z]]
        B = [[L, Z, P], [P, L, Z], [Z, P, L]]
        fast, full = mat_mul(A, B, d), _mat_mul_every_pair(A, B, d)
        changed = 0
        for e, ref in zip(sum(fast, []), sum(full, [])):
            assert e == ref
            if repr(e) != repr(ref):
                # a 0 * operator term made the whole sum an operator; the
                # entry is now that operator's polynomial form
                assert isinstance(ref, LinOp) and isinstance(e, MPoly)
                assert repr(ref.as_multiplication(("x", "y1"))) == repr(e)
                changed += 1
        assert changed == 3

    @pytest.mark.parametrize("abc", [(1, 2, 3), (0, 4, 2), (3, 3, 3)])
    def test_composites_keep_their_entry_reprs(self, monkeypatch, abc):
        fast = {name: _entry_reprs(f) for name, f in _hexagon_composites(5, *abc).items()}
        monkeypatch.setattr(mfcore, "mat_mul", _mat_mul_every_pair)
        full = {name: _entry_reprs(f) for name, f in _hexagon_composites(5, *abc).items()}
        assert fast == full


class TestUnitIsos:
    @pytest.mark.parametrize("d,S", [(3, (0,)), (3, (1, 2)), (5, (2, 3)), (5, (0,))])
    def test_cycles_and_sections(self, d, S):
        M = perm_mf(d, set(S), "x", "z")
        lam, rho = unit_isos(M)
        sl, sr = unit_sections(M)
        assert lam.is_cycle() and rho.is_cycle() and sl.is_cycle() and sr.is_cycle()
        for f in (lam.compose(sl), rho.compose(sr)):
            # a multiplication on its source: stored as polynomials when built
            assert all(isinstance(e, MPoly) for e in _entries(f))
            assert f.equals(identity_morphism(M))

    def test_lambda_rho_agree_on_unit_square(self):
        # both unit isos of I (x) I compose with the same section to the identity
        I = unit_mf(3, "x", "z")
        lam, rho = unit_isos(I)
        sl, _ = unit_sections(I)
        assert lam.compose(sl).equals(identity_morphism(I))
        assert rho.compose(sl).equals(identity_morphism(I))


class TestDuals:
    def test_unit_self_dual(self):
        for d in (3, 5):
            assert dual_rank1(unit_mf(d)) == unit_mf(d)

    def test_double_dual(self):
        M = perm_mf(5, {1, 2})
        assert dual_rank1(dual_rank1(M)) == M

    def test_rank_guard(self):
        AB = tensor_mf(perm_mf(3, {0}, "x", "y1"), perm_mf(3, {0}, "y1", "z"))
        with pytest.raises(RankUnsupported):
            dual_rank1(AB)

    @pytest.mark.parametrize("d", [3, 5])
    def test_dual_comparison_cycles(self, d):
        for S in ({0}, {1}, {1, 2}, {0, 2}):
            f = perm_dual_iso(d, S)
            assert f.is_cycle()
            assert f.src == perm_mf(d, {(-s) % d for s in S})
            assert f.tgt == dual_rank1(perm_mf(d, S))

    def test_prefactor_example(self):
        # |S| = 2 at d = 5: (-1)^3 eta^{-5} = -1
        f = perm_dual_iso(5, {2, 3})
        assert f.f1[0][0] == MPoly.constant(5, -1)
        g = perm_dual_iso(5, {0})
        assert g.f1[0][0] == MPoly.one(5)


def g_residue(M, f):
    """G_M(f) = Res[(x - z - y) d0(y, z) f], the negative of ev's even entry A."""
    return -ev_coev(M)[0].f0[0][0].apply(f)


class TestResidue:
    def test_unit_examples(self):
        d = 3
        I = unit_mf(d)
        one = MPoly.one(d)
        x, y, z = (MPoly.var(d, v) for v in "xyz")
        assert g_residue(I, one) == -one
        d1yz = y - z
        assert g_residue(I, d1yz) == x - z
        assert g_residue(I, d1yz * y**2).is_zero()

    @pytest.mark.parametrize("d,S", [(3, (1, 2)), (5, (2, 3)), (5, (1,))])
    def test_residue_sum_oracle(self, d, S):
        """Independent oracle: sum of residues at y = 0 and the roots of d1."""
        S = set(S)
        M = perm_mf(d, S)
        x, y, z = (MPoly.var(d, v) for v in "xyz")
        probes = [MPoly.one(d), y, y**2, x + z * y, y ** (d + 1), x * z * y**3]
        for f in probes:
            # common denominator z^{|S|}; each residue contributes a polynomial
            # numerator times a unit scalar
            num = MPoly.zero(d)
            d1_at = lambda yy: perm_product(d, S, "u", "v").subs(
                {"u": (1, yy), "v": (1, "z")}
            )
            # residue at y = 0: (x - z) f(x, 0, z) / d1(0, z)
            c0 = CycNum.one(d)
            for j in S:
                c0 = c0 * (-eta_power(d, j))
            f0 = f.subs({"y": None})
            num = num + (x - z) * f0 * c0.inverse()
            # residues at y = eta^j z
            for j in S:
                cj = CycNum.one(d)
                for i in S:
                    if i != j:
                        cj = cj * (eta_power(d, j) - eta_power(d, i))
                ej = eta_power(d, j)
                fj = f.subs({"y": (ej, "z")})
                num = num + (x - z - z * ej) * fj * (ej * cj).inverse()
            oracle = exact_div(num, z ** len(S))
            assert g_residue(M, f) == oracle, f


class TestEvCoev:
    @pytest.mark.parametrize("d,S", [(3, (1, 2)), (5, (2, 3)), (5, (0,))])
    def test_cycles(self, d, S):
        ev, coev = ev_coev(perm_mf(d, set(S)))
        assert ev.is_cycle()
        assert coev.is_cycle()

    @pytest.mark.parametrize("d", [3, 5])
    def test_odd_entry_is_the_residue_divided_by_x_minus_z(self, d):
        """ev's odd entry B, divided at construction, against its definition
        Res[(x - z - y) d0(y, z) d1(y, x)] / (x - z) divided after the residue."""
        x, y, z = (MPoly.var(d, v) for v in "xyz")
        subsets = [{i for i in range(d) if mask >> i & 1} for mask in range(1, 2**d - 1)]
        probes = [x**a * y**b * z**c for a in range(2) for b in range(2 * d + 1) for c in range(2)]
        for M in [perm_mf(d, S) for S in subsets] + [unit_mf(d)]:
            d1_yx = M.d1[0][0].subs({"x": (1, "y"), "y": (1, "x")})
            d0_yz = M.d0[0][0].subs({"x": (1, "y"), "y": (1, "z")})
            core = ResidueCore((x - z - y) * d0_yz * d1_yx, "y", "z", CycNum.one(d), d)
            B = ev_coev(M)[0].f1[0][0]
            for f in probes:
                assert B.apply(f) == exact_div(core.apply(f), x - z), (M, f)

    def test_the_pair_is_built_once_per_object(self, monkeypatch):
        built = []
        build = mfcore._ev_coev
        monkeypatch.setattr(mfcore, "_ev_coev", lambda M: built.append(M) or build(M))
        M = perm_mf(5, {1, 2}).renamed({})
        pair = ev_coev(M)
        assert ev_coev(M) is pair and built == [M]
        # an equal object built apart builds its own pair
        apart = M.renamed({})
        assert ev_coev(apart) is not pair and built == [M, apart]

    def test_coev_components_match_display(self):
        d = 3
        M = perm_mf(d, {1, 2})
        _, coev = ev_coev(M)
        x, y, z = (MPoly.var(d, v) for v in "xyz")
        d1 = M.d1[0][0]
        d0 = M.d0[0][0]
        dq = lambda p: exact_div(p - p.subs({"x": (1, "z")}), x - z)
        assert coev.f0 == [[dq(d1)], [dq(d0)]]
        assert coev.f1 == [[MPoly.one(d)], [MPoly.one(d)]]


class TestDualityMaps:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_un_equals_kappa(self, d):
        u, n, T, t = duality_un(d)
        un = u.compose(n)
        # u.n multiplies by kappa, so its entries are stored as polynomials
        assert all(isinstance(e, MPoly) for e in _entries(un))
        k = MPoly.constant(d, kappa(d))
        assert un.f0[0][0] == k
        assert un.f1[0][0] == k

    def test_t_components(self):
        _, _, _, t = duality_un(5)
        assert t.f0[0][0] == MPoly.one(5)
        assert t.f1[0][0] == MPoly.constant(5, -1)

    @pytest.mark.parametrize("d", [3, 5])
    def test_un_cycles(self, d):
        u, n, _, _ = duality_un(d)
        assert u.is_cycle()
        assert n.is_cycle()

    @pytest.mark.parametrize("d", [3, 5])
    def test_zigzags_reduce_to_identity(self, d):
        zz1, zz2 = zigzag_morphisms(d)
        idT = identity_morphism(zz1.src)
        assert zz1.equals(idT)
        assert zz2.equals(idT)


class TestTwists:
    def test_twist_objects_factorise(self):
        for d in (3, 5):
            for a in range(d):
                for b in (0, 1, d - 1):
                    assert verify_factorisation(twist_mf(perm_mf(d, {1, 2}), a, b))

    def test_s_iso_cycle_and_identity_at_zero(self):
        for d in (3, 5):
            for S in ({0}, {1, 2}):
                f = s_iso(d, S, 0, 0)
                assert f.equals(identity_morphism(f.src))
                for a in range(d):
                    g = s_iso(d, S, a, -a)
                    assert g.is_cycle()

    def test_prefactor_example(self):
        # d=5, S={1,2}, a=1, b=-1: eta^{-|S|a} = eta^{-2}
        f = s_iso(5, {1, 2}, 1, -1)
        assert f.f1[0][0] == MPoly.constant(5, eta_power(5, -2))

    def test_chi_object(self):
        d = 5
        for a in range(d):
            c = chi(d, a)
            assert verify_factorisation(c)
            f = s_iso(d, {0}, a, 0)
            assert f.tgt == c
            assert f.is_cycle()

    def test_diag_twist_is_tensor_compatible(self):
        d = 3
        A = perm_mf(d, {0, 1}, "x", "y1")
        B = perm_mf(d, {1, 2}, "y1", "z")
        lhs = diag_twist_mf(tensor_mf(A, B), 1)
        rhs = tensor_mf(diag_twist_mf(A, 1), diag_twist_mf(B, 1))
        assert lhs == rhs

    @pytest.mark.parametrize("a", [1, 3])
    def test_twist_of_a_polynomial_entry(self, a):
        # sec_l: M -> I (x) M has nonconstant polynomial entries and every
        # source variable is a target variable: p twists to out_map(p)
        d = 5
        M = perm_mf(d, {1, 2}, "x", "z")
        sec_l, _ = unit_sections(M)
        tw = twist_morphism(sec_l, a)
        assert tw.is_cycle()
        e, einv = eta_power(d, a), eta_power(d, -a)
        out_map = Subst(d, {v: (e, v) for v in sec_l.tgt.all_vars})
        in_map = Subst(d, {v: (einv, v) for v in sec_l.src.all_vars})
        g = MPoly.var(d, "x") ** 2 * MPoly.var(d, "z") + 1  # a source polynomial
        for p, q in zip(_entries(sec_l), _entries(tw)):
            assert isinstance(q, MPoly) and q == out_map.apply(p)
            assert q * g == as_linop(p, d).conjugated(out_map, in_map).apply(g)

    def test_twist_morphism_functorial(self):
        d = 5
        f = perm_dual_iso(d, {1, 2})
        tw = twist_morphism(f, 2)
        assert tw.is_cycle()

    @pytest.mark.parametrize("l", [1, 2])
    def test_twisted_objects_are_built_once_per_object(self, l):
        d = 5
        M = perm_mf(d, {1, 2}, l=l)
        for a in range(d):
            for b in (0, 1, d - 1):
                tw = twist_mf(M, a, b, l)
                assert tw is twist_mf(M, a + d, b, l) is twist_mf(M, a, b - d, l)
                fresh = M.substituted({"x": (eta_power(d, a, l), "x"), "y": (eta_power(d, -b, l), "y")})
                assert tw == fresh and tw is not fresh
            diag = diag_twist_mf(M, a, l)
            assert diag is diag_twist_mf(M, a - d, l)
            assert diag == M.substituted({v: (eta_power(d, a, l), v) for v in M.all_vars})
        assert twist_mf(M, 1, 0, 1) != twist_mf(M, 1, 0, 3)
        assert twist_mf(M, 1, 0, l) is twist_mf(M, 1, 0, l + d)  # eta^l depends on l mod d
        # an equal object built apart keeps its own memo
        assert twist_mf(M.renamed({}), 1, 0, l) is not twist_mf(M, 1, 0, l)

    def test_both_twists_share_one_memo_without_collision(self):
        d = 5
        T = tensor_mf(perm_mf(d, {0, 1}, "x", "y1"), perm_mf(d, {1, 2}, "y1", "z"))
        for a in range(1, d):
            # the diagonal twist also scales the internal variable y1
            diag, ends = diag_twist_mf(T, a), twist_mf(T, a, -a)
            assert diag != ends
            assert diag == T.substituted({v: (eta_power(d, a), v) for v in T.all_vars})
            assert ends == T.substituted({v: (eta_power(d, a), v) for v in ("x", "z")})
        f = identity_morphism(T)
        assert twist_morphism(f, 2).src is diag_twist_mf(T, 2) is twist_morphism(f, 2).tgt
        # with no internal variable the two twists are one substitution
        P = perm_mf(d, {1, 2})
        assert diag_twist_mf(P, 2) is twist_mf(P, 2, -2)

    def test_twists_of_a_word_share_the_twisted_leaves(self):
        d, l = 5, 2
        A, B, C = perm_mf(d, {0, 1}, "x", "y1"), chi(d, 1, "y1", "y2"), perm_mf(d, {2}, "y2", "z")
        for word in (tensor_mf(tensor_mf(A, B), C), tensor_mf(A, tensor_mf(B, C))):
            for a in range(1, d):
                tw = diag_twist_mf(word, a, l)
                scale = eta_power(d, a, l)
                assert len(tw.leaves()) == 3
                for leaf, twisted in zip(word.leaves(), tw.leaves()):
                    assert twisted is leaf.rescaled((scale,) * len(leaf.all_vars))
                    assert twisted is diag_twist_mf(leaf, a, l)
                assert tw == word.substituted({v: (scale, v) for v in word.all_vars})
            # an end twist rescales the outer leaves and keeps the inner one
            ends = twist_mf(word, 1, 2, l)
            assert all(x is y for x, y in zip(ends.leaves(), (twist_mf(A, 1, 0, l), B, twist_mf(C, 0, 2, l))))

    def test_a_twist_of_a_twist_is_a_twist_of_the_base(self):
        d = 5
        P = perm_mf(d, {1, 2})
        assert twist_mf(P, 0, 0) is P and diag_twist_mf(P, d) is P
        for a in range(d):
            for b in range(d):
                twice = diag_twist_mf(twist_mf(P, b, -b), a)
                assert twice is twist_mf(P, a + b, -a - b)
        T = tensor_mf(perm_mf(d, {0, 1}, "x", "y1"), perm_mf(d, {1, 2}, "y1", "z"))
        e = lambda k: eta_power(d, k)
        inner = twist_mf(T, 1, 0)
        twice = diag_twist_mf(inner, 2)
        assert twice is twist_mf(diag_twist_mf(T, 2), 1, 0)
        # the products of the scalings give what substituting twice gives
        assert twice == inner.substituted({v: (e(2), v) for v in T.all_vars})
        assert twice == T.substituted({"x": (e(3), "x"), "y1": (e(2), "y1"), "z": (e(2), "z")})

    def test_a_twisted_object_does_not_keep_its_base_alive(self):
        d = 5
        M = perm_mf(d, {1, 2}).renamed({})  # a base no cache holds
        tw = twist_mf(M, 1, -1)
        base = weakref.ref(M)
        del M
        assert base() is None
        # with its base gone the twisted object is its own base
        again = twist_mf(tw, 2, -2)
        assert again is twist_mf(tw, 2, -2)
        assert again == tw.substituted({v: (eta_power(d, 2), v) for v in ("x", "y")})


class TestTwistLabels:
    """s_iso and the twists take their labels through z_labels."""

    def test_s_iso_rejects_a_bool_label(self):
        with pytest.raises(TypeError, match="label must be an int"):
            s_iso(3, {0}, True, 0)

    def test_s_iso_rejects_an_even_modulus(self):
        with pytest.raises(EvenModulus):
            s_iso(4, {0}, 1, 0)

    def test_s_iso_reduces_its_labels_before_the_memo(self):
        # s_iso keeps no memo; the reduced labels build the same map
        assert s_iso(3, {0}, 4, 0).equals(s_iso(3, {0}, 1, 0))
        assert s_iso(5, {1, 2}, -1, 7).equals(s_iso(5, {1, 2}, 4, 2))

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda a: twist_mf(perm_mf(3, {0}), a, 0), id="twist_mf"),
            pytest.param(lambda a: twist_mf(perm_mf(3, {0}), 0, a), id="twist_mf-right"),
            pytest.param(lambda a: diag_twist_mf(perm_mf(3, {0}), a), id="diag_twist_mf"),
            pytest.param(lambda a: twist_morphism(identity_morphism(perm_mf(3, {0})), a), id="twist_morphism"),
        ],
    )
    def test_twists_reject_a_label_that_is_not_an_int(self, build):
        # twist_mf(perm_mf(3, {0}), 0.5, 0) used to die on tuple indices in cyclofield
        with pytest.raises(TypeError, match="label must be an int"):
            build(0.5)


class TestMu:
    @pytest.mark.parametrize("d", [3, 5])
    def test_mu_cycles(self, d):
        for a in range(d):
            for b in range(d):
                assert mu(d, a, b).is_cycle()

    def test_mu_00_is_unit_iso(self):
        d = 3
        m = mu(d, 0, 0)
        lam, _ = unit_isos(unit_mf(d, "x", "z"))
        assert m.equals(lam)


class TestInputGuards:
    def test_matrix_bifact_needs_polynomial_entries_of_its_modulus(self):
        y, one, zero = MPoly.var(3, "y"), MPoly.one(3), MPoly.zero(3)
        with pytest.raises(InvalidDifferential, match="d1 entry 0 is not a polynomial"):
            MatrixBifact(3, "x", "z", ("y",), [[0]], [[zero]])
        with pytest.raises(InvalidDifferential, match="d0 entry"):
            MatrixBifact(3, "x", "z", ("y",), [[zero]], [[CycNum.one(3)]])
        with pytest.raises(InvalidDifferential, match="not a polynomial over Q\\(zeta_6\\)"):
            MatrixBifact(3, "x", "z", ("y",), [[MPoly.var(5, "y")]], [[zero]])
        # the plain-int zeros used to reach HomologyData and fail there with an AttributeError
        with pytest.raises(InvalidDifferential):
            HomologyData(MatrixBifact(3, "x", "z", ("y",), [[0]], [[0]]))
        assert MatrixBifact(3, "x", "z", ("y",), [[y]], [[one]]).rank0 == 1

    def test_matrix_bifact_needs_matching_shapes(self):
        one, zero = MPoly.one(3), MPoly.zero(3)
        # d1 is rank0 x rank1 and d0 is rank1 x rank0, with rank0 = len(d1), rank1 = len(d0)
        with pytest.raises(InvalidDifferential, match="d1 needs rows of length 2, got 1"):
            MatrixBifact(3, "x", "z", (), [[one, zero], [one]], [[one, zero], [zero, one]])
        with pytest.raises(InvalidDifferential, match="d0 needs rows of length 1, got 2"):
            MatrixBifact(3, "x", "z", (), [[one]], [[one, zero]])
        with pytest.raises(InvalidDifferential, match="d1 needs rows of length 2, got 1"):
            MatrixBifact(3, "x", "z", (), [[one]], [[one], [zero]])
        M = MatrixBifact(3, "x", "z", (), [[one, zero]], [[one], [zero]])
        assert (M.rank0, M.rank1) == (1, 2)
        assert issubclass(InvalidDifferential, ValueError) and "InvalidDifferential" in mfcore.__all__

    def test_add_needs_equal_parity_and_shapes(self):
        M = perm_mf(3, {1, 2})
        idm = identity_morphism(M)
        odd = MFMorphism(M, M, 1, [[MPoly.zero(3)]], [[MPoly.zero(3)]])
        with pytest.raises(MorphismShapeMismatch):
            idm + odd
        with pytest.raises(MorphismShapeMismatch):
            idm + identity_morphism(perm_mf(3, {1, 2}, "x", "z"))

    def test_sum_morphism_needs_common_target_and_degree_zero(self):
        M = perm_mf(3, {1, 2})
        idm = identity_morphism(M)
        with pytest.raises(MorphismShapeMismatch):
            sum_morphism(idm, identity_morphism(perm_mf(3, {0}, "x", "z")))
        odd = MFMorphism(M, M, 1, [[MPoly.zero(3)]], [[MPoly.zero(3)]])
        with pytest.raises(MorphismShapeMismatch):
            sum_morphism(odd, odd)

    @pytest.mark.parametrize("d,S,l", [(5, {0}, 5), (9, {0, 1}, 3), (15, {2}, 6), (3, {0}, 0)])
    def test_perm_mf_rejects_a_root_exponent_not_coprime_to_d(self, d, S, l):
        # eta^l is then no primitive d-th root: the object would not factorise
        with pytest.raises(NotCoprime):
            perm_mf(d, S, l=l)
        with pytest.raises(NotCoprime):
            perm_product(d, S, "x", "y", l)

    @pytest.mark.parametrize("d,l", [(3, 3), (9, 6), (15, 5)])
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda d, l: chi(d, 1, l=l), id="chi"),
            pytest.param(lambda d, l: mu(d, 1, 1, l), id="mu"),
            pytest.param(lambda d, l: mu(d, 1, 1, l).renamed({"z": "y2"}), id="renamed_mu"),
            pytest.param(lambda d, l: twist_mf(perm_mf(d, {0}), 1, 1, l), id="twist_mf"),
            pytest.param(lambda d, l: diag_twist_mf(perm_mf(d, {0}), 1, l), id="diag_twist_mf"),
            pytest.param(lambda d, l: twist_morphism(identity_morphism(perm_mf(d, {0})), 1, l), id="twist_morphism"),
        ],
    )
    def test_twists_reject_a_root_exponent_not_coprime_to_d(self, build, d, l):
        # chi(3, 1, l=3) used to return the untwisted unit, and mu(3, 1, 1, 3) passed is_cycle
        with pytest.raises(NotCoprime):
            build(d, l)

    def test_duality_un_checks_the_dual_comparison_source(self, monkeypatch):
        other = identity_morphism(perm_mf(3, {0}))
        monkeypatch.setattr(mfcore, "perm_dual_iso", lambda *args: other)
        with pytest.raises(MorphismShapeMismatch):
            duality_un(3)

    def test_input_guards_survive_optimize_flag(self):
        # python -O strips assert statements; each guard must still raise
        script = (
            "from permfact.graded import GradedMF\n"
            "from permfact.invariants import _ParityHomology, smith_normal_form\n"
            "from permfact.mfcore import MFMorphism, identity_morphism, perm_mf, sum_morphism\n"
            "from permfact.polyring import MPoly\n"
            "from permfact.temperleylieb import cap_layer, cup_layer, tl_e, tl_identity\n"
            "M = perm_mf(3, {1, 2})\n"
            "idm = identity_morphism(M)\n"
            "odd = MFMorphism(M, M, 1, [[MPoly.zero(3)]], [[MPoly.zero(3)]])\n"
            "zero = [[MPoly.zero(3)]]\n"
            "cases = [\n"
            "    lambda: idm + odd,\n"
            "    lambda: sum_morphism(odd, odd),\n"
            "    lambda: perm_mf(5, {0}, l=5),\n"
            "    lambda: GradedMF(M, [0, 0], [0]),\n"
            "    lambda: tl_identity(3, 2) + tl_e(3, 3, 1),\n"
            "    lambda: cap_layer(3, 2, 1),\n"
            "    lambda: cup_layer(3, 1, 2),\n"
            "    lambda: _ParityHomology(3, None, zero, smith_normal_form(zero, 3), 0).reduce([MPoly.var(3, 'y')]),\n"
            "]\n"
            "for case in cases:\n"
            "    try:\n"
            "        case()\n"
            "    except ValueError as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        src = str(Path(permfact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [
            "MorphismShapeMismatch",
            "MorphismShapeMismatch",
            "NotCoprime",
            "ChargeCountMismatch",
            "StrandMismatch",
            "StrandMismatch",
            "StrandMismatch",
            "ValueError",
        ]


def _snapshot(obj):
    """The reprs of every matrix entry and tag of a constructor's result."""
    if isinstance(obj, tuple):
        return [_snapshot(x) for x in obj]
    if isinstance(obj, MFMorphism):
        return [_entry_reprs(obj), _entry_reprs(obj.src), _entry_reprs(obj.tgt)]
    if isinstance(obj, MatrixBifact):
        return _entry_reprs(obj)
    return repr(obj)


def _cached_results(d, l):
    """What the memoised constructors return at (d, l), keyed by the call
    (the memos mfcore keeps, with polyring.perm_product and the twists kept
    on P_S)."""
    subsets = [frozenset(i for i in range(d) if mask >> i & 1) for mask in range(2**d)]
    out = {
        ("duality_un",): duality_un(d, l),
        ("duality_pieces",): duality_pieces(d, l),
        ("zigzag_morphisms",): zigzag_morphisms(d, l),
    }
    for left, right in (("x", "y"), ("x", "z"), ("x", "y1"), ("y1", "y2"), ("y1", "z"), ("y2", "z")):
        out["unit_mf", left, right] = unit_mf(d, left, right)
        for a in range(d):
            out["chi", a, left, right] = chi(d, a, left, right, l)
        for S in subsets:
            out["perm_product", S, left, right] = perm_product(d, S, left, right, l)
            out["perm_mf", S, left, right] = perm_mf(d, S, left, right, l)
    for a in range(d):
        for b in range(d):
            out["mu", a, b] = mu(d, a, b, l)
            # the twists every s_iso and tau reaches, memoised on P_S
            for S in subsets[1:-1]:
                out["twist_mf", S, a, b] = twist_mf(perm_mf(d, S, l=l), a, b, l)
    return out


def _shared_scalars(d):
    """The field's table elements, which products now return as they are."""
    out = {("CycNum.one",): CycNum.one(d), ("CycNum.zero",): CycNum.zero(d)}
    for k in range(2 * d):
        out["CycNum.zeta", k] = CycNum.zeta(d, k)
    return out


def _state(x):
    """Every stored field of a scalar or polynomial."""
    if isinstance(x, MPoly):
        return (x.d, sorted((sorted(m), _state(c)) for m, c in x.terms.items()))
    return (x.d, x.num, x.den)


class TestConstructorCache:
    def test_spellings_of_one_subset_share_an_object(self):
        # every constructor on a subset is keyed by polyring.residues
        spellings = ({1, 2}, frozenset({1, 2}), [2, 1], {6, 7}, [1 + 5, 2 - 5], {1 - 5, 2 + 10})
        for S in spellings:
            assert perm_mf(5, S) is perm_mf(5, {1, 2})
            assert perm_product(5, S, "x", "y") is perm_product(5, {1, 2}, "x", "y")
            # built on each call, from the shared objects above
            assert perm_dual_iso(5, S).equals(perm_dual_iso(5, {1, 2}))
            assert s_iso(5, S, 1, 3).equals(s_iso(5, {1, 2}, 1, 3))
            assert coev_into_dual(5, S).equals(coev_into_dual(5, {1, 2}))
            assert tau(5, S, 2).equals(tau(5, {1, 2}, 2))

    @pytest.mark.parametrize("l", [1, 2])
    def test_shared_objects_unchanged_by_a_full_verify(self, l):
        d = 3
        before = _cached_results(d, l)
        reprs = {key: _snapshot(obj) for key, obj in before.items()}
        scalars = _shared_scalars(d)
        unit = MPoly.one(d)
        states = {key: _state(x) for key, x in scalars.items()}
        unit_state = _state(unit)
        for check in cli.build_checks(d, l, set(cli.SUITES)):
            assert check.run()["status"] == "pass", check.name
        after = _cached_results(d, l)
        assert all(after[key] is obj for key, obj in before.items())
        assert {key: _snapshot(obj) for key, obj in before.items()} == reprs
        shared_after = _shared_scalars(d)
        assert all(shared_after[key] is x for key, x in scalars.items())
        assert {key: _state(x) for key, x in scalars.items()} == states
        assert _state(unit) == _state(MPoly.one(d)) == unit_state
