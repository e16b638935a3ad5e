import hashlib
import json
from pathlib import Path

import pytest

from permfact import checks, correspondence, graded, mfcore
from permfact.cftside import NSLabel, ParityViolation, cft_fusion_ring, ns_fuse
from permfact.correspondence import (
    check_equivariant,
    coev_square_ok,
    label_map,
    mu_hexagon_failure,
    mu_hexagon_ok,
    mu_transport_ok,
    orbit_failure,
    tau,
    tau_cocycle_ok,
    un_equivariant_ok,
    verify_equivalence,
)
from permfact.cyclofield import EvenModulus, eta_power
from permfact.graded import GradedLabel, decompose_product, graded_hom_dim
from permfact.linop import LinOp
from permfact.mfcore import MatrixBifact, MFMorphism, chi, duality_un, identity_morphism, mu, twist_morphism
from permfact.polyring import MPoly, residues

REFERENCE = Path(__file__).parent / "reference"
TWIST_PINS = {1: REFERENCE / "twisted-morphisms.d5.json", 2: REFERENCE / "twisted-morphisms.d5.l2.json"}


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
            assert tau(5, S, 3).equals(tau(5, {1, 2}, 3))

    @pytest.mark.parametrize("d,l", [(3, 1), (5, 2), (7, 1)])
    def test_cocycle_builds_each_tau_once(self, monkeypatch, d, l):
        calls, fn = [], correspondence.tau
        monkeypatch.setattr(correspondence, "tau", lambda *args, **kw: calls.append(args[2]) or fn(*args, **kw))
        assert tau_cocycle_ok(d, {0, 2}, l)
        assert calls == list(range(d))

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
        struct = [tau(d, S, a) for a in range(d)]
        assert check_equivariant(f, struct, struct, d)


def _proper_subsets(d):
    return [frozenset(i for i in range(d) if mask >> i & 1) for mask in range(1, 2**d - 1)]


def _tau_failure(d, subsets, l):
    """orbit_failure with the tau cocycle as the certificate, as tau_cocycle runs it."""
    return orbit_failure(d, subsets, lambda R: correspondence.tau_cocycle_ok(d, R, l), l)


def _factorisation_failure(d, l):
    """orbit_failure with the product identity on the consecutive labels, as
    factorisation_conditions runs it."""
    certify = lambda R: mfcore.verify_factorisation(mfcore.perm_mf(d, R, l=l))
    return orbit_failure(d, checks._consecutive_subsets(d), certify, l)


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
        assert _tau_failure(d, subsets, l) is None
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
        assert _tau_failure(d, [{0, 3, 6}, {1, 4, 7}, {2, 5, 8}, {1, 2, 4, 5, 7, 8}], 2) is None
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

    def test_a_failed_certificate_names_the_base(self):
        # the base is certified when its orbit is first met, listed or not
        certified = []
        fails_at = lambda R: certified.append(R) or R != frozenset({0, 2})
        assert orbit_failure(5, [{1}, {2, 3}, [4, 1], {3, 0}], fails_at, 1) == frozenset({0, 2})
        assert certified == [frozenset({0}), frozenset({0, 1}), frozenset({0, 2})]

    def test_a_rotation_off_by_one_step_is_rejected(self, monkeypatch):
        d = 5
        off = lambda d, c, l=1: {"y": (eta_power(d, c + 1, l), "y")}
        monkeypatch.setattr(correspondence, "rotation_sigma", off)
        assert _tau_failure(d, [{0}, {2, 3}], 1) == frozenset({2, 3})
        assert checks.tau_cocycle(d, 1) == (False, "failed on [1]")


def _double_d0(monkeypatch, d, S):
    """perm_mf, except that P_S at d has its d0 doubled, wherever mfcore or
    correspondence builds it."""
    closed_form, broken = mfcore.perm_mf, residues(d, S)

    def patched(dd, T, left="x", right="y", l=1):
        M = closed_form(dd, T, left, right, l)
        if (dd, residues(dd, T)) != (d, broken):
            return M
        return MatrixBifact(dd, M.left, M.right, (), M.d1, [[M.d0[0][0] * 2]])

    monkeypatch.setattr(mfcore, "perm_mf", patched)
    monkeypatch.setattr(correspondence, "perm_mf", patched)


class TestLabelOrbits:
    """The core and graded label loops computed on the orbit bases P_{0:lam}
    and carried to every consecutive label along sigma_a (correspondence
    module docstring)."""

    @pytest.mark.parametrize("d,l", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (9, 2)])
    def test_agree_with_brute_force(self, d, l):
        subsets = checks._consecutive_subsets(d)
        assert all(mfcore.verify_factorisation(mfcore.perm_mf(d, S, l=l)) for S in subsets)
        assert all(graded_hom_dim(d, R, S, l) == (R == S) for R in subsets for S in subsets)
        assert _factorisation_failure(d, l) is None
        n = d * (d - 1)
        assert checks.factorisation_conditions(d, l) == (True, f"{n} consecutive objects + a tensor product")
        assert checks.graded_hom_rigidity(d, l) == (True, f"hom dimension is delta_RS over {n}^2 pairs")

    def test_only_the_bases_are_computed(self, monkeypatch):
        d, calls = 5, {"verify_factorisation": [], "graded_hom_dim": []}
        for module, name in ((mfcore, "verify_factorisation"), (graded, "graded_hom_dim")):
            fn, log = getattr(module, name), calls[name]
            monkeypatch.setattr(module, name, lambda *args, fn=fn, log=log: log.append(args) or fn(*args))
        assert checks.factorisation_conditions(d, 1)[0] and checks.graded_hom_rigidity(d, 1)[0]
        assert len(calls["verify_factorisation"]) == (d - 1) + 1  # the bases and the tensor product
        assert len(calls["graded_hom_dim"]) == (d - 1) * d * (d - 1)
        assert {args[1] for args in calls["graded_hom_dim"]} == {GradedLabel(d, 0, lam).subset for lam in range(d - 1)}

    def test_a_broken_base_fails_at_the_base(self, monkeypatch):
        d = 5
        _double_d0(monkeypatch, d, {0, 1})
        assert _factorisation_failure(d, 1) == frozenset({0, 1})
        assert checks.factorisation_conditions(d, 1) == (False, "failed on [0, 1]")
        # graded_hom_dim reads the products themselves: P_{0:1} given those of P_{1:1}
        closed_form = graded.perm_product
        swapped = lambda d, S, *rest: closed_form(d, {1, 2} if S == frozenset({0, 1}) else S, *rest)
        monkeypatch.setattr(graded, "perm_product", swapped)
        assert checks.graded_hom_rigidity(d, 1) == (False, "dim hom([0, 1], [1, 2]) = 1")

    def test_a_rotation_off_by_one_step_is_rejected(self, monkeypatch):
        d = 5
        off = lambda d, c, l=1: {"y": (eta_power(d, c + 1, l), "y")}
        monkeypatch.setattr(correspondence, "rotation_sigma", off)
        assert _factorisation_failure(d, 1) == frozenset({1})
        assert checks.factorisation_conditions(d, 1) == (False, "[1] is not the rotation of [0]")
        assert checks.graded_hom_rigidity(d, 1) == (False, "[1] is not the rotation of [0]")

    def test_a_label_that_is_not_the_image_of_its_base_is_rejected(self, monkeypatch):
        # P_{2:1} with d0 doubled: no factorisation, and not sigma_2(P_{0:1})
        d = 5
        _double_d0(monkeypatch, d, {2, 3})
        assert not mfcore.verify_factorisation(mfcore.perm_mf(d, {2, 3}))
        assert _factorisation_failure(d, 1) == frozenset({2, 3})
        assert checks.factorisation_conditions(d, 1) == (False, "[2, 3] is not the rotation of [0, 1]")
        assert checks.graded_hom_rigidity(d, 1) == (False, "[2, 3] is not the rotation of [0, 1]")


class TestZdLabels:
    """The Z_d constructors and certificates validate d and their labels."""

    CALLS = {
        "tau": lambda d, a: tau(d, {0}, a),
        "tau_cocycle_ok": lambda d, a: tau_cocycle_ok(d, {a}),
        "chi": lambda d, a: chi(d, a),
        "mu": lambda d, a: mu(d, a, 0),
        # the renamed mu that mu_hexagon_ok composes
        "renamed_mu": lambda d, a: mu(d, 0, a).renamed({"z": "y2"}),
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

    @pytest.mark.parametrize("bad", [True, 0.5, "1"])
    def test_tau_subset_elements_must_be_ints(self, bad):
        # tau(5, {True}, 1) used to build tau on P_{1}
        with pytest.raises(TypeError, match="must be an int"):
            tau(5, {0, bad}, 1)

    @pytest.mark.parametrize("bad", [True, 0.5, "1"])
    def test_orbit_base_subset_elements_must_be_ints(self, bad):
        # orbit_base(5, {True}) used to return ({0}, 1)
        with pytest.raises(TypeError, match="must be an int"):
            correspondence.orbit_base(5, {bad})

    def test_labels_reduced_before_the_memo(self):
        assert mu(3, 4, 0) is mu(3, 1, 0)
        assert mu(5, -1, 7) is mu(5, 4, 2)
        assert tau(3, {0}, 4).equals(tau(3, {0}, 1))
        assert chi(5, -2, "y1", "z") is chi(5, 3, "y1", "z")
        assert mu_hexagon_ok(5, 6, -1, 12)


def _twist_pin_digests(l):
    """Count and sha256 of the entry reprs of ((a)f(-a)) at d = 5 and root
    exponent l, for f = tau_{S;b} over every proper S and all a, b, and for
    f = u, n."""
    d = 5

    def digest(morphs):
        h = hashlib.sha256()
        for f in morphs:
            h.update(repr((f.f0, f.f1)).encode())
        return {"count": len(morphs), "sha256": h.hexdigest()}

    subsets = [frozenset(i for i in range(d) if mask >> i & 1) for mask in range(1, 2**d - 1)]
    u, n, _, _ = duality_un(d, l)
    return {
        "tau": digest([twist_morphism(tau(d, S, b, l=l), a, l) for S in subsets for a in range(d) for b in range(d)]),
        "u, n": digest([twist_morphism(f, a, l) for f in (u, n) for a in range(d)]),
    }


class TestTwistPins:
    """The twisted entries themselves, not only the verdicts built on them:
    a constant entry and a residue operator must come out as recorded."""

    def test_entries_match_recorded(self):
        assert _twist_pin_digests(1) == json.loads(TWIST_PINS[1].read_text())

    def test_galois_twisted_entries_match_recorded(self):
        assert _twist_pin_digests(2) == json.loads(TWIST_PINS[2].read_text())


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
