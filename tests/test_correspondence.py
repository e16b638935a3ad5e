import hashlib
import json
from pathlib import Path

import pytest

from permfact.cftside import NSLabel, ParityViolation, cft_fusion_ring, ns_fuse
from permfact.correspondence import (
    check_equivariant,
    coev_square_ok,
    label_map,
    tau,
    tau_cocycle_ok,
    un_equivariant_ok,
    verify_equivalence,
)
from permfact.graded import GradedLabel, decompose_product
from permfact.mfcore import duality_un, identity_morphism, twist_morphism

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
