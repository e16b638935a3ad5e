import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfact.cyclofield import (
    CycNum,
    DegenerateRoot,
    DivisionByZero,
    EvenModulus,
    ModulusMismatch,
    NotCoprime,
    eta_power,
    field_arith,
    kappa,
    q_root,
    quantum_int,
)


def elements(d):
    data = CycNum.zero(d)
    deg = len(data.coeffs)
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.lists(rationals, min_size=deg, max_size=deg).map(lambda cs: CycNum(d, cs))


class TestBasics:
    def test_root_of_unity_order(self):
        for d in (3, 5, 7, 9):
            z = CycNum.zeta(d)
            assert z ** (2 * d) == 1
            assert z**d == -1
            assert CycNum.zeta(d, 1) * CycNum.zeta(d, 2 * d - 1) == 1

    def test_eta_sum_d3(self):
        assert eta_power(3, 1) + eta_power(3, 2) + 1 == 0

    def test_eta_periodicity(self):
        assert eta_power(5, 7) == eta_power(5, 2)
        assert eta_power(3, 0) == 1

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            field_arith(CycNum.one(3), CycNum.one(5), "add")

    def test_division(self):
        assert field_arith(CycNum.one(3), kappa(3), "div") == 1
        with pytest.raises(DivisionByZero):
            field_arith(CycNum.one(3), CycNum.zero(3), "div")


class TestQuantumData:
    def test_kappa_values(self):
        assert kappa(3) == 1
        assert abs(kappa(5).to_complex() - 2 * math.cos(math.pi / 5)) < 1e-12
        assert abs(kappa(7).to_complex() - 2 * math.cos(math.pi / 7)) < 1e-12
        with pytest.raises(EvenModulus):
            kappa(4)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_quantum_int_identities(self, d):
        q = CycNum.zeta(d)
        assert quantum_int(1, q) == 1
        assert quantum_int(2, q) == kappa(d)
        assert quantum_int(d, q).is_zero()

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_three_term_recursion(self, d):
        q = CycNum.zeta(d)
        lhs = quantum_int(d - 1, q) * kappa(d)
        assert lhs == quantum_int(d - 2, q) + quantum_int(d, q)

    def test_degenerate_root(self):
        with pytest.raises(DegenerateRoot):
            quantum_int(2, CycNum.one(3))

    def test_q_root_squares_to_eta(self):
        for d, l in ((5, 1), (5, 2), (5, 3), (7, 2), (7, 4)):
            q = q_root(d, l)
            assert q * q == eta_power(d, 1, l)
            assert q + q.inverse() == kappa(d, l)


class TestGalois:
    def test_identity_and_rationals(self):
        a = kappa(5) + eta_power(5, 2)
        assert a.galois(1) == a
        assert CycNum.one(5).galois(7) == 1

    def test_kappa_image(self):
        g = kappa(5).galois(3)
        assert abs(g.to_complex() - 2 * math.cos(3 * math.pi / 5)) < 1e-12

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            kappa(5).galois(5)

    @given(a=elements(5), b=elements(5))
    @settings(max_examples=25, deadline=None)
    def test_ring_homomorphism(self, a, b):
        assert (a * b).galois(3) == a.galois(3) * b.galois(3)
        assert (a + b).galois(3) == a.galois(3) + b.galois(3)


class TestFieldAxioms:
    @given(a=elements(5), b=elements(5), c=elements(5))
    @settings(max_examples=25, deadline=None)
    def test_associativity_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(a=elements(3))
    @settings(max_examples=25, deadline=None)
    def test_inverses(self, a):
        assert a + (-a) == 0
        if not a.is_zero():
            assert a * a.inverse() == 1


class TestFloats:
    def test_display_values(self):
        assert abs(kappa(3).to_complex() - 1.0) < 1e-12
        assert abs(eta_power(3, 1).to_complex() - complex(-0.5, math.sqrt(3) / 2)) < 1e-12
        assert CycNum.zero(5).to_complex() == 0
