from fractions import Fraction

import pytest

from permfact.cftside import (
    NSLabel,
    ParityViolation,
    SimpleE,
    cft_fusion_ring,
    factorisation_ok,
    generators_reach_all,
    h_weight,
    induce,
    is_local,
    ns_fuse,
    ns_simples,
    quantum_dim,
    su2_fuse,
    su2_fusion_ring,
    twist_additive,
)
from permfact.cyclofield import CycNum, kappa, quantum_int, q_root


class TestWeights:
    def test_vacuum(self):
        assert h_weight(5, 0, 0, 0) == 0

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_order_two_object_has_integral_weight(self, d):
        assert h_weight(d, d - 2, d, 2) == 0

    def test_example_value(self):
        assert h_weight(5, 1, 5, 0) == Fraction(9, 10)


class TestFusion:
    def test_unit(self):
        for l in range(4):
            assert su2_fuse(5, 0, l) == [l]

    def test_truncation(self):
        assert su2_fuse(5, 1, 2) == [1, 3]
        assert su2_fuse(3, 1, 1) == [0]

    def test_top_label_edge(self):
        # fusion with the top label reflects: [1] (x) [d-2] = [d-3]
        for d in (3, 5, 7):
            assert su2_fuse(d, 1, d - 2) == [d - 3]

    def test_ns_examples(self):
        assert ns_fuse(3, NSLabel(3, 1, 3), NSLabel(3, 1, 3)) == {NSLabel(3, 0, 0): 1}
        assert ns_fuse(5, NSLabel(5, 1, 5), NSLabel(5, 1, 5)) == {
            NSLabel(5, 0, 0): 1,
            NSLabel(5, 2, 0): 1,
        }
        assert ns_fuse(5, NSLabel(5, 0, 2), NSLabel(5, 2, 4)) == {NSLabel(5, 2, 6): 1}


class TestLocality:
    def test_examples(self):
        assert is_local(5, 0, 0, 0)
        assert is_local(5, 1, 1, 0)
        assert not is_local(5, 1, 0, 0)

    @pytest.mark.parametrize("d", [3, 5])
    def test_parity_matches_weight_criterion(self, d):
        for l in range(d - 1):
            for r in range(2 * d):
                for s in range(4):
                    a, b = induce(d, l, r, s)
                    diff = h_weight(d, b.l, b.r, b.s) - h_weight(d, a.l, a.r, a.s)
                    assert (diff.denominator == 1) == is_local(d, l, r, s)


class TestInduction:
    def test_algebra_object(self):
        d = 5
        a, b = induce(d, 0, 0, 0)
        assert b.key() == (d - 2, d, 2)

    def test_fermion(self):
        d = 5
        a, b = induce(d, 0, 0, 2)
        assert b.key() == (d - 2, d, 0)

    def test_involution(self):
        d = 7
        first = set(x.key() for x in induce(d, 3, 9, 1))
        again = set(x.key() for x in induce(d, *induce(d, 3, 9, 1)[1].key()))
        assert first == again


class TestNSLabels:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_count(self, d):
        assert len(ns_simples(d)) == d * (d - 1)

    def test_contains_unit(self):
        assert NSLabel(3, 0, 0) in ns_simples(3)

    def test_parity_guard(self):
        with pytest.raises(ParityViolation):
            NSLabel(5, 1, 0)


class TestDimensions:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_examples(self, d):
        assert quantum_dim(d, 0) == 1
        assert quantum_dim(d, 1) == kappa(d)
        assert quantum_dim(d, d - 2) == quantum_int(d - 1, q_root(d))

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_homomorphism(self, d):
        for a in range(d - 1):
            for b in range(d - 1):
                lhs = quantum_dim(d, a) * quantum_dim(d, b)
                rhs = CycNum.zero(d)
                for m in su2_fuse(d, a, b):
                    rhs = rhs + quantum_dim(d, m)
                assert lhs == rhs


class TestTwistsAndForms:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_generator_centralised(self, d):
        assert twist_additive(d, SimpleE(d, 0, 2, 0), SimpleE(d, 1, d, 0))

    def test_unit_always(self):
        assert twist_additive(5, SimpleE(5, 0, 0, 0), SimpleE(5, 2, 4, 2))

    def test_negative_case(self):
        assert not twist_additive(5, SimpleE(5, 0, 1, 0), SimpleE(5, 1, 5, 0))


class TestRing:
    @pytest.mark.parametrize("d", [3, 5])
    def test_axioms(self, d):
        R = cft_fusion_ring(d)
        assert R.unit_ok()
        assert R.is_commutative()
        assert R.is_associative()
        assert R.rigid_dual_ok(lambda L: L.dual())

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_ns_ring_associative(self, d):
        # ns_fusion_ring checks associativity on the su(2) part only; this is
        # the full (d(d-1))^3 check it stands in for
        assert cft_fusion_ring(d).is_associative()

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_su2_part(self, d):
        R = su2_fusion_ring(d)
        assert R.labels == list(range(d - 1)) and R.unit == 0
        assert R.unit_ok() and R.is_commutative() and R.is_associative()
        assert R.rigid_dual_ok(lambda a: a)
        assert R.product(1, d - 2) == {d - 3: 1}

    @pytest.mark.parametrize("d", [3, 5])
    def test_generated_and_factorised(self, d):
        assert generators_reach_all(d)
        assert factorisation_ok(d)

    def test_tensor_generator_fusion_pattern(self):
        # [1,d] (x) [l, dl] loses the top rung at l = d-2
        d = 5
        gen = NSLabel(d, 1, d)
        for l in range(1, d - 2):
            out = ns_fuse(d, gen, NSLabel(d, l, d * l))
            assert set(x.l for x in out) == {l - 1, l + 1}
        out = ns_fuse(d, gen, NSLabel(d, d - 2, d * (d - 2)))
        assert set(x.l for x in out) == {d - 3}
