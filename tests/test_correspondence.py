import hashlib
import json
from pathlib import Path

import pytest

from permfact import checks, correspondence, mfcore
from permfact.cftside import NSLabel, ParityViolation, cft_fusion_ring, ns_fuse
from permfact.correspondence import (
    check_equivariant,
    coev_square_ok,
    label_map,
    mu_hexagon_failure,
    mu_hexagon_ok,
    mu_transport_ok,
    tau,
    tau_cocycle_failure,
    tau_cocycle_ok,
    un_equivariant_ok,
    verify_equivalence,
)
from permfact.cyclofield import EvenModulus, eta_power
from permfact.graded import GradedLabel, decompose_product
from permfact.linop import LinOp
from permfact.mfcore import MFMorphism, chi, duality_un, identity_morphism, mu, renamed_mu, twist_morphism
from permfact.polyring import MPoly

TWIST_PINS = Path(__file__).parent / "reference" / "twisted-morphisms.d5.json"


class TestTau:
    def test_zero_is_identity(self):
        t = tau(5, {2, 3}, 0)
        assert t.equals(identity_morphism(t.src))

    @pytest.mark.parametrize("d", [3, 5])
    def test_cocycle(self, d):
        for S in ({0}, {1, 2}, {0, 1}):
            assert tau_cocycle_ok(d, S)

    def test_cocycle_nonconsecutive(self):
        assert tau_cocycle_ok(5, {0, 2})
        assert tau_cocycle_ok(5, {1, 3, 4})

    def test_spellings_of_one_subset_share_an_object(self):
        for S in (frozenset({1, 2}), [2, 1], {6, 7}):
            assert tau(5, S, 3) is tau(5, {1, 2}, 3)

    def test_unit_structure_is_bare_twist(self):
        # on P_{0} the prefactor eta^{...(|S|-1)} is 1
        from permfact.mfcore import s_iso

        for a in range(5):
            assert tau(5, {0}, a, "x", "z").equals(s_iso(5, {0}, a, -a, "x", "z"))


class TestEquivariance:
    @pytest.mark.parametrize("d", [3, 5])
    def test_duality_maps(self, d):
        assert un_equivariant_ok(d)

    @pytest.mark.parametrize("d", [3, 5])
    def test_coev_squares(self, d):
        for S in ({0}, {1, 2}):
            assert coev_square_ok(d, S)

    def test_identity_trivially_equivariant(self):
        d = 3
        S = {1, 2}
        from permfact.mfcore import perm_mf

        M = perm_mf(d, S)
        f = identity_morphism(M)
        struct = lambda a: tau(d, S, a)
        assert check_equivariant(f, struct, struct, d)


def _proper_subsets(d):
    return [frozenset(i for i in range(d) if mask >> i & 1) for mask in range(1, 2**d - 1)]


def _mu_off_by_eta(pair):
    """mu, except that mu_{a,b} at (a, b) = pair substitutes y1 -> eta^{l(a+1)} x."""
    closed_form = mfcore.mu

    def broken(d, a, b, l=1):
        m = closed_form(d, a, b, l)
        if (a % d, b % d) != pair:
            return m
        sub = LinOp.substitution(d, {"y1": (eta_power(d, a + 1, l), "x")})
        zero = MPoly.zero(d)
        return MFMorphism(m.src, m.tgt, 0, [[sub, zero]], [[zero, sub]])

    return broken


class TestOrbitCertificates:
    """The mu hexagon and the tau cocycle computed once per orbit and carried
    to the rest (correspondence module docstring)."""

    @pytest.mark.parametrize("d,l", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
    def test_agree_with_brute_force(self, d, l):
        subsets = _proper_subsets(d)
        assert tau_cocycle_failure(d, subsets, l) is None
        assert all(tau_cocycle_ok(d, S, l) for S in subsets)
        assert mu_hexagon_failure(d, l) is None
        assert all(mu_hexagon_ok(d, a, b, c, l) for a in range(d) for b in range(d) for c in range(d))

    def test_one_hexagon_and_one_cocycle_per_orbit(self, monkeypatch):
        d = 5
        calls = {"mu_hexagon_ok": [], "tau_cocycle_ok": []}
        for name, log in calls.items():
            fn = getattr(correspondence, name)
            monkeypatch.setattr(correspondence, name, lambda *args, fn=fn, log=log: log.append(args) or fn(*args))
        assert checks.mu_hexagon_strict(d, 1) == (True, "strict associativity of mu over 125 triples")
        assert checks.tau_cocycle(d, 1) == (True, "tau cocycle over 30 subsets, all group pairs")
        assert calls["mu_hexagon_ok"] == [(d, 0, 0, 0, 1)]
        assert len(calls["tau_cocycle_ok"]) == 6

    def test_orbits_of_a_composite_modulus(self, monkeypatch):
        # at d = 9 the subsets fixed by rotation by 3 make orbits of size 3
        d, calls = 9, []
        fn = correspondence.tau_cocycle_ok
        monkeypatch.setattr(correspondence, "tau_cocycle_ok", lambda *args: calls.append(args[1]) or fn(*args))
        assert tau_cocycle_failure(d, [{0, 3, 6}, {1, 4, 7}, {2, 5, 8}, {1, 2, 4, 5, 7, 8}], 2) is None
        assert calls == [frozenset({0, 3, 6}), frozenset({0, 1, 3, 4, 6, 7})]
        assert checks.tau_cocycle(d, 1) == (True, "tau cocycle over 510 subsets, all group pairs")
        assert len(calls) == 2 + 58

    def test_a_mu_off_by_eta_fails_at_a_triple_that_uses_it(self, monkeypatch):
        d = 5
        broken = _mu_off_by_eta((1, 2))
        monkeypatch.setattr(mfcore, "mu", broken)
        monkeypatch.setattr(correspondence, "mu", broken)
        assert not mu_transport_ok(d, 1, 2)
        assert checks.mu_hexagon_strict(d, 1) == (False, "failed at (1, 2, 0)")
        assert not mu_hexagon_ok(d, 1, 2, 0)

    def test_a_mu_on_the_wrong_target_is_rejected(self, monkeypatch):
        # the entries are carried correctly; only the object identities see it
        d, closed_form = 5, mfcore.mu

        def moved(d, a, b, l=1):
            m = closed_form(d, a, b, l)
            if (a % d, b % d) != (2, 1):
                return m
            return MFMorphism(m.src, chi(d, a + b + 1, "x", "z", l), 0, m.f0, m.f1)

        monkeypatch.setattr(correspondence, "mu", moved)
        assert not mu_transport_ok(d, 2, 1)
        assert checks.mu_hexagon_strict(d, 1) == (False, "failed at (2, 1, 0)")

    def test_a_broken_base_fails_at_the_base(self, monkeypatch):
        broken = _mu_off_by_eta((0, 0))
        monkeypatch.setattr(mfcore, "mu", broken)
        monkeypatch.setattr(correspondence, "mu", broken)
        assert checks.mu_hexagon_strict(5, 1) == (False, "failed at (0, 0, 0)")

    def test_a_base_not_invariant_under_uniform_scaling_fails_at_the_base(self, monkeypatch):
        # every mu_{a,b} is tau_ab of mu_{0,0} = x . mu_{0,0}, and the (0, 0, 0)
        # hexagon holds, but x is not invariant: the hexagon fails at (0, 0, 1)
        d, closed_form = 5, mfcore.mu
        bent = lambda d, a, b, l=1: closed_form(d, a, b, l).scaled(MPoly.var(d, "x") * eta_power(d, a + b, l))
        monkeypatch.setattr(mfcore, "mu", bent)
        monkeypatch.setattr(correspondence, "mu", bent)
        assert all(mu_transport_ok(d, a, b) for a in range(d) for b in range(d))
        assert mu_hexagon_ok(d, 0, 0, 0) and not mu_hexagon_ok(d, 0, 0, 1)
        assert checks.mu_hexagon_strict(d, 1) == (False, "failed at (0, 0, 0)")

    def test_a_rotation_off_by_one_step_is_rejected(self, monkeypatch):
        d = 5
        off = lambda d, c, l=1: {"y": (eta_power(d, c + 1, l), "y")}
        monkeypatch.setattr(correspondence, "rotation_sigma", off)
        assert tau_cocycle_failure(d, [{0}, {2, 3}], 1) == frozenset({2, 3})
        assert checks.tau_cocycle(d, 1) == (False, "failed on [1]")


class TestZdLabels:
    """The Z_d constructors and certificates validate d and their labels."""

    CALLS = {
        "tau": lambda d, a: tau(d, {0}, a),
        "tau_cocycle_ok": lambda d, a: tau_cocycle_ok(d, {a}),
        "chi": lambda d, a: chi(d, a),
        "mu": lambda d, a: mu(d, a, 0),
        "renamed_mu": lambda d, a: renamed_mu(d, 0, a, {"z": "y2"}),
        "mu_hexagon_ok": lambda d, a: mu_hexagon_ok(d, a, 0, 0),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("d", [4, 6, 1])
    def test_even_modulus(self, name, d):
        # tau_cocycle_ok(4, {0}) used to return True
        with pytest.raises(EvenModulus):
            self.CALLS[name](d, 0)

    @pytest.mark.parametrize("name", sorted(set(CALLS) - {"tau_cocycle_ok"}))
    @pytest.mark.parametrize("label", [True, False, 0.5, 1.0, "1", None])
    def test_label_must_be_an_int(self, name, label):
        # mu(3, True, 0) used to build a morphism, mu_hexagon_ok(3, 0.5, 0, 0)
        # to die on tuple indices
        with pytest.raises(TypeError, match="label must be an int"):
            self.CALLS[name](3, label)

    def test_labels_reduced_before_the_memo(self):
        assert mu(3, 4, 0) is mu(3, 1, 0)
        assert mu(5, -1, 7) is mu(5, 4, 2)
        assert tau(3, {0}, 4) is tau(3, {0}, 1)
        assert chi(5, -2, "y1", "z") is chi(5, 3, "y1", "z")
        assert renamed_mu(5, 6, -1, {"z": "y2"}) is renamed_mu(5, 1, 4, {"z": "y2"})
        assert mu_hexagon_ok(5, 6, -1, 12)


def _twist_pin_digests():
    """Count and sha256 of the entry reprs of ((a)f(-a)) at d = 5, for
    f = tau_{S;b} over every proper S and all a, b, and for f = u, n."""
    d = 5

    def digest(morphs):
        h = hashlib.sha256()
        for f in morphs:
            h.update(repr((f.f0, f.f1)).encode())
        return {"count": len(morphs), "sha256": h.hexdigest()}

    subsets = [frozenset(i for i in range(d) if mask >> i & 1) for mask in range(1, 2**d - 1)]
    u, n, _, _ = duality_un(d)
    return {
        "tau": digest([twist_morphism(tau(d, S, b), a) for S in subsets for a in range(d) for b in range(d)]),
        "u, n": digest([twist_morphism(f, a) for f in (u, n) for a in range(d)]),
    }


class TestTwistPins:
    """The twisted entries themselves, not only the verdicts built on them:
    a constant entry and a residue operator must come out as recorded."""

    def test_entries_match_recorded(self):
        assert _twist_pin_digests() == json.loads(TWIST_PINS.read_text())


class TestLabelMap:
    def test_examples(self):
        for d in (5, 7):
            assert label_map(d, 1, d).key() == ((d - 1) // 2, 1)
        assert label_map(5, 0, 4).key() == (2, 0)
        assert label_map(5, 0, 0).key() == (0, 0)

    def test_parity(self):
        with pytest.raises(ParityViolation):
            label_map(5, 1, 0)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_bijective(self, d):
        labels = [(l, r) for l in range(d - 1) for r in range(2 * d) if (l + r) % 2 == 0]
        images = {label_map(d, l, r).key() for (l, r) in labels}
        assert len(images) == len(labels) == d * (d - 1)


class TestEquivalence:
    @pytest.mark.parametrize("d", [3, 5])
    def test_all_checks(self, d):
        for name, ok, detail in verify_equivalence(d):
            assert ok, (name, detail)

    def test_example_product_both_sides(self):
        # [1,5] (x) [1,5] corresponds to T^ (x) T^: {unit, the 4:2 label}
        d = 5
        cft_out = ns_fuse(d, NSLabel(d, 1, 5), NSLabel(d, 1, 5))
        mapped = sorted(label_map(d, x.l, x.r).key() for x in cft_out)
        aT = (d - 1) // 2
        mf_out = sorted(s.key() for s in decompose_product(d, aT, 1, aT, 1))
        assert mapped == mf_out == [(0, 0), (4, 2)]

    def test_galois_variant(self):
        for name, ok, detail in verify_equivalence(5, root_exponent=2):
            assert ok, (name, detail)
