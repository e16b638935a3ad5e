from fractions import Fraction

import pytest

from permfact import checks, cli, graded
from permfact.correspondence import label_map
from permfact.cyclofield import EvenModulus, eta_power
from permfact.graded import (
    ChargeCountMismatch,
    GradedLabel,
    _hom_dim_of_products,
    GradedMF,
    TransportMismatch,
    decompose_product,
    g_pair,
    g_pair_certified,
    g_pair_transported,
    graded_check,
    graded_hom_dim,
    graded_homotopy_degrees,
    graded_tensor,
    hat_p,
    mf_fusion_ring,
    morphism_c_degree,
)
from permfact.invariants import HomologyData
from permfact.mfcore import MFMorphism, perm_mf
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


class TestTransport:
    """The (0, 0, mu) pair carried along sigma is g_pair's closed form."""

    @pytest.mark.parametrize("d, l", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (9, 2)])
    def test_every_triple_is_the_closed_form(self, d, l):
        for mu in range(1, d - 1):
            base = g_pair(d, 0, 0, mu, l)
            for a in range(d):
                for b in range(d):
                    assert _same_pair(g_pair_transported(base, d, a, b, mu, l), g_pair(d, a, b, mu, l)), (a, b, mu)

    def test_composite_modulus_sample(self):
        d, l = 15, 2
        for mu in range(1, d - 1):
            base = g_pair(d, 0, 0, mu, l)
            for a, b in ((1, 0), (7, 11), (14, 14)):
                assert _same_pair(g_pair_transported(base, d, a, b, mu, l), g_pair(d, a, b, mu, l)), (a, b, mu)

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_wrong_base_is_rejected(self, mu):
        d = 5
        wrong = g_pair(d, 0, 1, mu)
        for a in range(d):
            for b in range(d):
                with pytest.raises(TransportMismatch, match=r"P_\{b:mu\}"):
                    g_pair_transported(wrong, d, a, b, mu)

    def test_sigma_off_by_one_in_y_is_rejected(self, monkeypatch):
        d = 5
        off = lambda d, a, b, l=1: {"y": (eta_power(d, a + 1, l), "y"), "z": (eta_power(d, a + b, l), "z")}
        monkeypatch.setattr(graded, "transport_sigma", off)
        base = g_pair(d, 0, 0, 1)
        for a in range(d):
            for b in range(d):
                with pytest.raises(TransportMismatch, match=r"P_\{a:1\}"):
                    g_pair_transported(base, d, a, b, 1)
        ok, detail = checks.decomposition_certificates(d, 1)
        assert not ok and detail.startswith("(a,b,mu)=(0,1,1): sigma does not carry P_{a:1}")

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
