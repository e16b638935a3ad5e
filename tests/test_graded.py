from fractions import Fraction

import sys

import pytest

from permfact import checks, cli, correspondence, graded, mfcore
from permfact.correspondence import label_map
from permfact.cyclofield import CycNum, EvenModulus, eta_power
from permfact.graded import (
    ChargeCountMismatch,
    GradedLabel,
    _hom_dim_of_products,
    GradedMF,
    decompose_product,
    g_pair,
    g_pair_certified,
    graded_check,
    graded_hom_dim,
    graded_homotopy_degrees,
    graded_tensor,
    hat_p,
    mf_fusion_ring,
    morphism_c_degree,
)
from permfact.invariants import HomologyData
from permfact.mfcore import MatrixBifact, MFMorphism, carries, perm_mf
from permfact.polyring import MPoly, perm_product


class TestHatObjects:
    def test_unit_charges(self):
        h = hat_p(3, {0})
        assert h.charges0 == (Fraction(0),)
        assert h.charges1 == (Fraction(2, 3) - 1,)

    @pytest.mark.parametrize("d", [3, 5])
    def test_charge_one_condition(self, d):
        for a in range(d):
            for lam in range(d - 1):
                assert graded_check(hat_p(d, GradedLabel(d, a, lam).subset))

    def test_wrong_shift_fails(self):
        bad = GradedMF(perm_mf(5, {1, 2}), (Fraction(0),), (Fraction(0),))
        assert not graded_check(bad)

    def test_degree_one_charge_formula(self):
        d = 5
        for S in ({0}, {1, 2}, {0, 1, 2}):
            h = hat_p(d, S)
            alpha = Fraction(1 - len(S), d)
            assert h.charges0 == (alpha,)
            assert h.charges1 == (alpha + Fraction(2 * len(S), d) - 1,)


    def test_charge_count_must_match_ranks(self):
        M = perm_mf(3, {0})
        with pytest.raises(ChargeCountMismatch):
            GradedMF(M, [0, 0], [0])
        with pytest.raises(ChargeCountMismatch):
            GradedMF(M, [0], [])


class TestHomRigidity:
    @pytest.mark.parametrize("d", [3, 5])
    def test_delta_rs(self, d):
        subsets = [GradedLabel(d, a, lam).subset for a in range(d) for lam in range(d - 1)]
        for R in subsets:
            for S in subsets:
                expect = 1 if R == S else 0
                assert graded_hom_dim(d, R, S) == expect

    def test_size_mismatch_is_zero(self):
        assert graded_hom_dim(5, {0}, {0, 1}) == 0

    @pytest.mark.parametrize("d", [3, 5])
    def test_products_helper_matches_public(self, d):
        subsets = [GradedLabel(d, a, lam).subset for a in range(d) for lam in range(d - 1)]
        products = {S: perm_product(d, S, "x", "y", 2) for S in subsets}
        for R in subsets:
            for S in subsets:
                assert _hom_dim_of_products(products[R], products[S]) == graded_hom_dim(d, R, S, 2)

    @pytest.mark.parametrize("d", [3, 5])
    def test_rigidity_check_report(self, d):
        (check,) = [c for c in cli.build_checks(d, 1, {"graded"}) if c.name == "graded_hom_rigidity"]
        result = check.run()
        assert result["status"] == "pass"
        assert result["detail"] == f"hom dimension is delta_RS over {d * (d - 1)}^2 pairs"


class TestGPair:
    def test_normalisation_components(self):
        d, a, b, mu = 5, 1, 2, 2
        gm, gp, Qm, Qp, AB = g_pair(d, a, b, mu)
        assert gm.f1[1][0] == MPoly.one(d)  # g-_{01} = 1
        assert gp.f0[0][0] == MPoly.one(d)  # g+_{00} = 1

    def test_degree_table(self):
        # deg g_10 = mu - (1-eps)/2, deg g_00 = (1-eps)/2,
        # deg g_01 = (1+eps)/2, deg g_11 = d - 2 - mu - (1+eps)/2
        d = 7
        for mu in (1, 3, 5):
            gm, gp, *_ = g_pair(d, 2, 3, mu)
            for eps, g in ((-1, gm), (1, gp)):
                g00, g11 = g.f0[0][0], g.f0[1][0]
                g10, g01 = g.f1[0][0], g.f1[1][0]
                assert g00.degree() == (1 - eps) // 2
                assert g01.degree() == (1 + eps) // 2
                assert g10.degree() == mu - (1 - eps) // 2
                expected11 = d - 2 - mu - (1 + eps) // 2
                if expected11 >= 0:
                    assert g11.degree() == expected11
                else:
                    assert g11.is_zero()

    @pytest.mark.parametrize("d", [3, 5])
    def test_certificates(self, d):
        for a in range(d):
            for b in (0, 2):
                for mu in range(1, d - 1):
                    res = g_pair_certified(d, a, b, mu)
                    assert res["ok"], (a, b, mu, res)

    def test_homology_dims_match_listing(self):
        d = 5
        for mu, expect in ((1, (2, 2)), (3, (1, 1))):
            res = g_pair_certified(d, 0, 0, mu)
            assert res["dims"] == expect

    def test_the_sum_certifies_both_cycles(self, monkeypatch):
        # delta of (g-, g+) is the two deltas side by side: one cycle test
        tested, is_cycle = [], MFMorphism.is_cycle
        monkeypatch.setattr(MFMorphism, "is_cycle", lambda f: tested.append(f) or is_cycle(f))
        res = g_pair_certified(5, 1, 2, 1)
        assert res["ok"] and res["cycle_minus"] is res["cycle_plus"] is True
        assert len(tested) == 1 and tested[0].src.rank0 == 2

    def test_certificate_builds_the_product_homology_once(self, monkeypatch):
        built = []
        init = HomologyData.__init__

        def counting(self, M):
            built.append(M)
            init(self, M)

        monkeypatch.setattr(HomologyData, "__init__", counting)
        d = 5
        for mu in range(1, d - 1):
            built.clear()
            res = g_pair_certified(d, 1, 2, mu)
            assert res["ok"]
            # the summands' direct sum and the tensor product A (x) B, once each
            products = [M for M in built if M.int_vars]
            assert len(built) == 2 and len(products) == 1
            H = HomologyData.of(products[0])
            assert res["dims"] == (H.dim_h0, H.dim_h1) and len(built) == 2

    def test_charge_zero(self):
        d = 5
        gm, gp, Qm, Qp, AB = g_pair(d, 1, 1, 2)
        assert morphism_c_degree(gm, Qm, AB) == 0
        assert morphism_c_degree(gp, Qp, AB) == 0


def _same_pair(p, q):
    """Two (g-, g+, Q-, Q+, A (x) B) agree entry by entry, on the same objects."""
    return all(
        g.equals(h) and g.src == h.src and g.tgt == h.tgt for g, h in zip(p[:2], q[:2])
    ) and all(P.mf == Q.mf for P, Q in zip(p[2:], q[2:]))


def _carried_pair(base, d, a, b, mu, l):
    """(g-, g+, Q-, Q+, A (x) B) at (a, b, mu), carried from `base`, the
    (0, 0, mu) pair of g_pair, along sigma: y -> eta^{la} y, z -> eta^{l(a+b)} z
    (graded module docstring).

    Asserts the four object identities directly: sigma takes P_{0:1},
    Q- and Q+ at (0, 0) onto those at (a, b), and P_{0:mu} onto P_{b:mu}
    with d1 scaled by c = eta^{la(mu+1)} and d0 by c^-1.  Then
    g- = (1 (x) psi) sigma(g-_00) and g+ = c (1 (x) psi) sigma(g+_00), where
    psi = (c^-1 on B_0, 1 on B_1): row 0 of f0 and of f1."""
    g_minus0, g_plus0, Qm0, Qp0, AB0 = base
    A = hat_p(d, {a, a + 1}, "x", "y", l)
    B = hat_p(d, {b + j for j in range(mu + 1)}, "y", "z", l)
    Qm = hat_p(d, {a + b + 1 + j for j in range(mu)}, "x", "z", l)
    Qp = hat_p(d, {a + b + j for j in range(mu + 2)}, "x", "z", l)
    sigma = {"y": (eta_power(d, a, l), "y"), "z": (eta_power(d, a + b, l), "z")}
    c, one = eta_power(d, a * (mu + 1), l), CycNum.one(d)
    for M0, M, k in zip(AB0.mf.factors + (Qm0.mf, Qp0.mf), (A.mf, B.mf, Qm.mf, Qp.mf), (one, c, one, one)):
        assert carries(sigma, M0, M, k), (a, b, mu, M)
    AB = graded_tensor(A, B)
    carried = lambda mat: [[e.subs(sigma) for e in row] for row in mat]

    def moved(g, Q, row, k):
        f0, f1 = carried(g.f0), carried(g.f1)
        f0[row], f1[row] = ([e * k for e in f[row]] for f in (f0, f1))
        return MFMorphism(Q.mf, AB.mf, 0, f0, f1)

    return moved(g_minus0, Qm, 0, c.inverse()), moved(g_plus0, Qp, 1, c), Qm, Qp, AB


class TestTransport:
    """The (0, 0, mu) pair carried along sigma is g_pair's closed form, and
    the check certifies the carrying by label rotations alone."""

    @pytest.mark.parametrize("d, l", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (9, 2)])
    def test_every_triple_is_the_closed_form(self, d, l):
        for mu in range(1, d - 1):
            base = g_pair(d, 0, 0, mu, l)
            for a in range(d):
                for b in range(d):
                    assert _same_pair(_carried_pair(base, d, a, b, mu, l), g_pair(d, a, b, mu, l)), (a, b, mu)

    def test_composite_modulus_sample(self):
        d, l = 15, 2
        for mu in range(1, d - 1):
            base = g_pair(d, 0, 0, mu, l)
            for a, b in ((1, 0), (7, 11), (14, 14)):
                assert _same_pair(_carried_pair(base, d, a, b, mu, l), g_pair(d, a, b, mu, l)), (a, b, mu)

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    @pytest.mark.parametrize("l", [1, 2])
    def test_an_object_on_other_variables_is_the_renamed_one(self, d, l):
        # a rotation certified on (x, y) is the same rotation of the right
        # variable on (y, z) and (x, z): the check builds no object there
        # away from (0, 0)
        full = frozenset(range(d))
        for S in [GradedLabel(d, a, lam).subset for a in range(d) for lam in range(d - 1)] + [full]:
            M = perm_mf(d, S, "x", "y", l)
            for u, v in (("y", "z"), ("x", "z")):
                N = M.renamed({"x": u, "y": v})
                assert perm_mf(d, S, u, v, l).d1 == N.d1 and perm_mf(d, S, u, v, l).d0 == N.d0, (S, u, v)
        # Q+ at mu = d - 2, fixed by every rotation
        x, z = MPoly.var(d, "x"), MPoly.var(d, "z")
        Q = perm_mf(d, full, "x", "z", l)
        assert Q.d1 == [[x**d - z**d]] and Q.d0 == [[MPoly.one(d)]]

    def test_sigma_off_by_one_in_y_is_rejected(self, monkeypatch):
        d = 5
        off = lambda d, c, l=1: {"y": (eta_power(d, c + 1, l), "y")}
        monkeypatch.setattr(correspondence, "rotation_sigma", off)
        ok, detail = checks.decomposition_certificates(d, 1)
        assert not ok and detail == "[1] is not the rotation of [0]"

    def test_a_wrong_rotated_object_is_rejected(self, monkeypatch):
        d = 5
        real = correspondence.perm_mf

        def doubled(d, S, left="x", right="y", l=1):
            M = real(d, S, left, right, l)
            if frozenset(S) != {2, 3} or (left, right) != ("x", "y"):
                return M
            return MatrixBifact(d, left, right, (), M.d1, [[e * 2 for e in row] for row in M.d0])

        monkeypatch.setattr(correspondence, "perm_mf", doubled)
        ok, detail = checks.decomposition_certificates(d, 1)
        assert not ok and detail == "[2, 3] is not the rotation of [0, 1]"

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_a_broken_base_fails_at_its_own_triple(self, monkeypatch, mu):
        d = 5
        closed_form = graded.g_pair

        def broken(d, a, b, m, l=1):
            pair = closed_form(d, a, b, m, l)
            if (a, b, m) != (0, 0, mu):
                return pair
            gm, *rest = pair
            f0 = [row[:] for row in gm.f0]
            f0[0][0] = f0[0][0] * 2
            return (MFMorphism(gm.src, gm.tgt, 0, f0, gm.f1), *rest)

        monkeypatch.setattr(graded, "g_pair", broken)
        ok, detail = checks.decomposition_certificates(d, 1)
        assert not ok and detail.startswith(f"(a,b,mu)=(0,0,{mu}): ")
        assert "'cycle_minus': False" in detail

    def test_the_check_certifies_once_per_mu(self, monkeypatch):
        # one certificate per mu, not one per (a, b, mu), each building its pair once
        d = 5
        calls = {"g_pair_certified": [], "g_pair": []}
        for name, log in calls.items():
            fn = getattr(graded, name)
            monkeypatch.setattr(graded, name, lambda *args, fn=fn, log=log: log.append(args) or fn(*args))
        ok, detail = checks.decomposition_certificates(d, 1)
        assert ok and detail.startswith("75 certified embedding pairs")
        assert calls["g_pair_certified"] == calls["g_pair"] == [(d, 0, 0, mu, 1) for mu in range(1, d - 1)]

    def test_the_check_rotates_each_label_once(self, monkeypatch):
        # one carries per consecutive label off its orbit base, d (d - 1) - (d - 1)
        d, calls = 5, []
        counting = lambda *args: calls.append(args) or carries(*args)
        for name, module in list(sys.modules.items()):
            if name.startswith("permfact") and getattr(module, "carries", None) is carries:
                monkeypatch.setattr(module, "carries", counting)
        ok, _ = checks.decomposition_certificates(d, 1)
        assert ok and len(calls) == 16


class TestDecompose:
    def test_examples(self):
        assert [s.key() for s in decompose_product(5, 0, 1, 0, 2)] == [(1, 1), (0, 3)]
        assert [s.key() for s in decompose_product(3, 1, 1, 1, 1)] == [(0, 0)]
        assert [s.key() for s in decompose_product(5, 0, 0, 2, 3)] == [(2, 3)]

    @pytest.mark.parametrize("args", [(5, 0, 7, 0, 1), (5, 0, 1, 0, 4), (5, 0, -1, 0, 1), (5, 0, 1, 0, -2)])
    def test_labels_out_of_range_raise(self, args):
        # unguarded, (5, 0, 7, 0, 1) gives [], an empty product
        with pytest.raises(ValueError, match="lambda indices"):
            decompose_product(*args)

    @pytest.mark.parametrize("d", [4, 1, 2, -3])
    def test_modulus_must_be_odd_and_at_least_3(self, d):
        with pytest.raises(ValueError, match="odd integer >= 3"):
            decompose_product(d, 0, 0, 0, 0)

    def test_rigidity_selects_index_convention(self):
        d = 5
        aT = (d - 1) // 2
        unit = GradedLabel(d, 0, 0)
        assert unit in decompose_product(d, aT, 1, aT, 1, index_sign=1)
        assert unit not in decompose_product(d, aT, 1, aT, 1, index_sign=-1)

    @pytest.mark.parametrize("d", [3, 5])
    def test_symmetry(self, d):
        for a in range(d):
            for lam in range(d - 1):
                for b in (0, 1):
                    for mu in range(d - 1):
                        left = sorted(s.key() for s in decompose_product(d, a, lam, b, mu))
                        right = sorted(s.key() for s in decompose_product(d, b, mu, a, lam))
                        assert left == right


class TestFusionRing:
    @pytest.mark.parametrize("d", [3, 5])
    def test_axioms(self, d):
        R = mf_fusion_ring(d)
        assert len(R.labels) == d * (d - 1)
        assert R.unit_ok()
        assert R.is_commutative()
        assert R.is_associative()
        assert R.rigid_dual_ok(lambda L: L.dual())

    def test_unit_row(self):
        R = mf_fusion_ring(5)
        unit = GradedLabel(5, 0, 0)
        for lbl in R.labels:
            assert R.product(unit, lbl) == {lbl: 1}


class TestLabelValidation:
    """GradedLabel takes a through mfcore.z_labels and lam only as an int in 0..d-2."""

    def test_an_even_modulus_is_rejected(self):
        # GradedLabel(4, 0, 1) used to build a label
        with pytest.raises(EvenModulus):
            GradedLabel(4, 0, 1)

    def test_a_bool_index_is_rejected(self):
        # GradedLabel(5, True, 1) used to build 1:1
        with pytest.raises(TypeError, match="label must be an int"):
            GradedLabel(5, True, 1)

    def test_a_fractional_index_is_rejected(self):
        # GradedLabel(5, 0.5, 1).subset used to be {0.5, 1.5}
        with pytest.raises(TypeError, match="label must be an int"):
            GradedLabel(5, 0.5, 1)

    def test_label_map_rejects_an_even_modulus(self):
        # label_map(4, 0, 2) used to return 1:0
        with pytest.raises(EvenModulus):
            label_map(4, 0, 2)

    @pytest.mark.parametrize("lam", [True, 1.0, "1", None])
    def test_lam_must_be_an_int(self, lam):
        with pytest.raises(TypeError, match="lam must be an int"):
            GradedLabel(5, 0, lam)

    @pytest.mark.parametrize("lam", [-1, 4])
    def test_lam_outside_its_range_is_rejected(self, lam):
        with pytest.raises(ValueError, match="outside 0..3"):
            GradedLabel(5, 0, lam)

    def test_the_index_is_reduced_mod_d(self):
        assert GradedLabel(5, -1, 2) == GradedLabel(5, 9, 2)
        assert GradedLabel(5, -1, 2).subset == frozenset({4, 0, 1})

    @pytest.mark.parametrize("bad", [True, 0.5])
    def test_hat_p_subset_elements_must_be_ints(self, bad):
        # hat_p(5, {True}) used to build hat(P_{1}), hat_p(5, {0.5}) to die inside cyclofield
        with pytest.raises(TypeError, match="must be an int"):
            hat_p(5, {bad})

    @pytest.mark.parametrize("R, S", [({True}, {1}), ({1}, {0.5}), ({0, "1"}, {0, 1})])
    def test_graded_hom_dim_subset_elements_must_be_ints(self, R, S):
        # graded_hom_dim(5, {True}, {1}) used to answer 1
        with pytest.raises(TypeError, match="must be an int"):
            graded_hom_dim(5, R, S)


class TestPairLabelValidation:
    """g_pair (so g_pair_certified) and decompose_product take a and b
    through mfcore.z_labels; g_pair takes mu only as an int."""

    def test_an_even_modulus_is_rejected(self):
        # g_pair_certified(4, 0, 0, 1)["ok"] used to be True
        with pytest.raises(EvenModulus):
            g_pair_certified(4, 0, 0, 1)

    def test_a_bool_index_is_rejected(self):
        # g_pair(5, True, 0, 1) used to build the pair at (1, 0, 1)
        with pytest.raises(TypeError, match="label must be an int"):
            g_pair(5, True, 0, 1)

    def test_a_bool_mu_is_rejected(self):
        # g_pair(5, 0, 0, True) used to build the pair at (0, 0, 1)
        with pytest.raises(TypeError, match="mu must be an int"):
            g_pair(5, 0, 0, True)

    def test_a_fractional_index_is_rejected(self):
        # g_pair(5, 0.5, 0, 1) used to die inside cyclofield
        with pytest.raises(TypeError, match="label must be an int"):
            g_pair(5, 0.5, 0, 1)

    def test_decompose_product_rejects_a_bool_index(self):
        # decompose_product(5, True, 1, 0, 1) used to return summands
        with pytest.raises(TypeError, match="label must be an int"):
            decompose_product(5, True, 1, 0, 1)

    @pytest.mark.parametrize("args", [(5, 0, True, 0, 1), (5, 0, 1, 0, True)])
    def test_decompose_product_rejects_a_bool_lambda(self, args):
        # decompose_product(5, 0, True, 0, 1) used to return [1:0, 0:2]
        with pytest.raises(TypeError, match="lambda indices must be ints"):
            decompose_product(*args)


class TestGradedHomotopyDegrees:
    def test_endomorphisms_of_t_are_rigid(self):
        d = 5
        T = hat_p(d, {2, 3})
        t0, t1 = graded_homotopy_degrees(T, T)
        assert t0 == [[None]]
        assert t1 == [[None]]

    @pytest.mark.parametrize("d", [3, 7, 9, 15])
    def test_homotopies_of_t_forced_zero_for_odd_d(self, d):
        # zigzag_identities relies on this: homotopic to 1_T means equal to 1_T
        a = (d - 1) // 2
        T = hat_p(d, {a, a + 1})
        assert graded_homotopy_degrees(T, T) == ([[None]], [[None]])

    def test_tensor_target(self):
        d = 3
        Q = hat_p(d, {0, 1, 2})
        AB = graded_tensor(hat_p(d, {1, 2}, "x", "y1"), hat_p(d, {1, 2}, "y1", "z"))
        t0, t1 = graded_homotopy_degrees(Q, AB)
        # only constant entries in the odd direction survive the charge count
        flat = [e for row in t0 + t1 for e in row]
        assert set(flat) <= {None, 0}
        assert 0 in flat
