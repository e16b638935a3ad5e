import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permfact
from permfact.cyclofield import (
    CycNum,
    DegenerateRoot,
    DivisionByZero,
    EvenModulus,
    FieldIdentityError,
    InvalidModulus,
    ModulusMismatch,
    NotCoprime,
    _FieldData,
    _normal,
    as_scalar,
    cyclotomic_poly,
    eta_power,
    kappa,
    q_root,
    quantum_int,
)


def elements(d):
    """Elements with varied denominators and some zero coefficients."""
    deg = len(CycNum.zero(d).coeffs)
    rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12))
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
            CycNum.one(3) + CycNum.one(5)

    def test_division(self):
        assert CycNum.one(3) / kappa(3) == 1
        with pytest.raises(DivisionByZero):
            CycNum.one(3) / CycNum.zero(3)


class TestQuantumData:
    def test_kappa_values(self):
        assert kappa(3) == 1
        assert abs(kappa(5).to_complex() - 2 * math.cos(math.pi / 5)) < 1e-12
        assert abs(kappa(7).to_complex() - 2 * math.cos(math.pi / 7)) < 1e-12
        with pytest.raises(EvenModulus):
            kappa(4)

    @pytest.mark.parametrize("d, l", [(5, 5), (5, 0), (9, 3), (15, 10)])
    def test_kappa_needs_a_coprime_root_exponent(self, d, l):
        # unguarded, kappa(5, 5) is -2: a loop value no coprime root gives
        with pytest.raises(NotCoprime):
            kappa(d, l)

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

    def test_quantum_int_is_memoised_by_value(self):
        d = 7
        q = CycNum.zeta(d)
        built = CycNum(d, q.coeffs)
        assert built is not q and built == q
        assert quantum_int(3, built) is quantum_int(3, q)
        assert quantum_int(3, q) == q**2 + 1 + q**-2

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


# -- the fraction-free kernel against a Fraction reference -----------------------

KERNEL_DS = [3, 5, 7, 9, 15]


def _ref_mul(d, a, b):
    """Schoolbook product of Fraction coefficient lists, reduced modulo Phi_{2d}."""
    phi = [Fraction(c) for c in cyclotomic_poly(2 * d)]
    deg = len(phi) - 1
    prod = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, deg - 1, -1):  # long division by the monic Phi
        c = prod[k]
        for i, p in enumerate(phi):
            prod[k - deg + i] -= c * p
    return tuple(prod[:deg])


def _ref_one(d):
    deg = len(cyclotomic_poly(2 * d)) - 1
    return (Fraction(1),) + (Fraction(0),) * (deg - 1)


def _ref_t_power(d, k):
    """t^k mod Phi_{2d} by k reference products with t."""
    t = (Fraction(0), Fraction(1)) + (Fraction(0),) * (len(_ref_one(d)) - 2)
    out = _ref_one(d)
    for _ in range(k):
        out = _ref_mul(d, out, t)
    return out


def _normalised(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1


def _poly_divmod(num, den):
    """Division with remainder of Q[t] coefficient lists (low to high)."""
    num = list(num)
    while len(den) > 1 and not den[-1]:
        den = den[:-1]
    dn = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - dn, 1)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k] / den[-1]
        if c:
            quot[k - dn] = c
            for j in range(dn + 1):
                num[k - dn + j] -= c * den[j]
    while len(num) > 1 and not num[-1]:
        num.pop()
    return quot, num


def _euclid_inverse(x):
    """x^{-1} by extended Euclid over Q[t] modulo Phi_{2d}: the reference
    the norm-based CycNum.inverse is checked against."""
    deg = len(x.coeffs)
    r0 = [Fraction(c) for c in cyclotomic_poly(2 * x.d)]
    r1 = list(x.coeffs)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        quot, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        new_s = s0 + [Fraction(0)] * max(len(quot) + len(s1) - 1 - len(s0), 0)
        for i, a in enumerate(quot):
            for j, b in enumerate(s1):
                new_s[i + j] -= a * b
        s0, s1 = s1, new_s
    assert r0[0] and not any(r0[1:]), "Phi_{2d} is irreducible, so the gcd is a unit"
    inv = [c / r0[0] for c in s0[:deg]]
    return CycNum(x.d, inv + [Fraction(0)] * (deg - len(inv)))


class TestNormInverse:
    @pytest.mark.parametrize("d", [3, 5, 7, 9, 15])
    def test_inverse_against_euclid(self, d):
        rng = random.Random(d)
        deg = len(CycNum.zero(d).coeffs)
        done = 0
        while done < 12:
            x = CycNum(d, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)])
            if x.is_zero():
                continue
            inv = x.inverse()
            assert x * inv == 1
            assert inv == _euclid_inverse(x)
            assert _normalised(inv)
            done += 1

    def test_rational_and_root_inverses(self):
        # d = 1 is Q itself: no other conjugate, and the only field here with a negative norm
        for d in (1, 3, 9):
            assert CycNum.from_rational(d, Fraction(-3, 7)).inverse() == Fraction(-7, 3)
            for k in range(2 * d):
                assert CycNum.zeta(d, k).inverse() == CycNum.zeta(d, -k)


class TestKernel:
    @pytest.mark.parametrize("d", KERNEL_DS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_against_fraction_reference(self, d, data):
        a = data.draw(elements(d))
        b = data.draw(elements(d))
        pa, pb = a.coeffs, b.coeffs
        prod, total, diff = a * b, a + b, a - b
        assert prod.coeffs == _ref_mul(d, pa, pb)
        assert total.coeffs == tuple(x + y for x, y in zip(pa, pb))
        assert diff.coeffs == tuple(x - y for x, y in zip(pa, pb))
        results = [prod, total, diff]
        if not a.is_zero():
            inv = a.inverse()
            assert _ref_mul(d, pa, inv.coeffs) == _ref_one(d)
            results.append(inv)
        assert all(_normalised(x) for x in results)

    @pytest.mark.parametrize("d", KERNEL_DS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_hash_and_coeffs_view(self, d, data):
        x = data.draw(elements(d))
        assert hash(x) == hash((x.d, x.coeffs))
        assert isinstance(x.coeffs, tuple)
        assert all(type(c) is Fraction for c in x.coeffs)
        with pytest.raises(AttributeError):
            x.coeffs = (Fraction(0),) * len(x.coeffs)

    @pytest.mark.parametrize("d", KERNEL_DS)
    def test_canonical_form(self, d):
        deg = len(CycNum.zero(d).coeffs)
        tail = [Fraction(0)] * (deg - 2)
        halves = CycNum(d, [Fraction(1, 2), Fraction(3, 2)] + tail)
        unreduced = CycNum(d, [Fraction(2, 4), Fraction(6, 4)] + tail)
        scaled = _normal(d, [2, 6] + [0] * (deg - 2), 4)
        round_trip = (halves * 6) / 6 + halves - halves
        for x in (unreduced, scaled, round_trip):
            assert x == halves
            assert hash(x) == hash(halves)
            assert (x.num, x.den) == ((1, 3) + (0,) * (deg - 2), 2)
        quarters = halves / 2  # same numerators, other denominator
        assert quarters != halves and quarters * 2 == halves
        zero = halves - unreduced
        assert (zero.num, zero.den) == ((0,) * deg, 1)
        assert zero == 0 and hash(zero) == hash(CycNum.zero(d))

    @pytest.mark.parametrize("d", KERNEL_DS)
    def test_zeta_table(self, d):
        z = CycNum.zeta(d, 1)
        power = CycNum.one(d)
        for k in range(4 * d):
            assert CycNum.zeta(d, k) == power
            assert power.coeffs == _ref_t_power(d, k % (2 * d))
            power = power * z
        for k in range(-2 * d, 0):
            assert _ref_mul(d, CycNum.zeta(d, k).coeffs, _ref_t_power(d, -k)) == _ref_one(d)

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 15])
    def test_zeta_powers_by_table(self, d):
        for k in range(2 * d):
            x = CycNum.zeta(d, k)
            inv = x.inverse()
            up = down = CycNum.one(d)  # x^e and x^{-e} by repeated multiplication
            for e in range(2 * d + 1):
                for exp, ref in ((e, up), (-e, down)):
                    power = x**exp
                    assert power is CycNum.zeta(d, k * exp)
                    assert power == ref
                up, down = up * x, down * inv

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_pow_lookup_decides_by_value(self, d, monkeypatch):
        # a power of zeta built by arithmetic takes the lookup, with no inverse
        def no_inverse(self):
            raise AssertionError("the lookup must not invert")

        built = CycNum(d, CycNum.zeta(d, 3).coeffs)
        assert built is not CycNum.zeta(d, 3)
        monkeypatch.setattr(CycNum, "inverse", no_inverse)
        assert built ** -1 is CycNum.zeta(d, -3)
        assert (eta_power(d, 1) * eta_power(d, -1)) ** -5 is CycNum.one(d)

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_pow_of_other_elements(self, d):
        k = kappa(d)
        assert k**3 == k * k * k
        assert k**-3 * k**3 == 1 and k**-3 == (k * k * k).inverse()
        half = CycNum.from_rational(d, Fraction(1, 2))
        assert half**-2 == 4 and half**0 == 1
        zero = CycNum.zero(d)
        assert zero**2 == 0
        with pytest.raises(DivisionByZero):
            zero**-1

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_products_by_one(self, d):
        x = CycNum(d, [Fraction(k - 2, k + 3) for k in range(len(CycNum.zero(d).coeffs))])
        built_ones = [CycNum(d, (eta_power(d, a) * eta_power(d, -a)).coeffs) for a in range(1, d)]
        assert all(y == 1 and y is not CycNum.one(d) for y in built_ones)
        for one in [CycNum.one(d), 1, Fraction(1)] + built_ones:
            for prod in (x * one, one * x):
                assert prod.coeffs == _ref_mul(d, x.coeffs, _ref_one(d))
                assert prod is x  # the other factor itself, with no arithmetic
        assert (CycNum.one(d) * CycNum.one(d)) is CycNum.one(d)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_zero_and_one_are_shared(self, d):
        for value in (1, Fraction(1), Fraction(2, 2)):
            assert CycNum.from_rational(d, value) is CycNum.one(d)
        for value in (0, Fraction(0)):
            assert CycNum.from_rational(d, value) is CycNum.zero(d)
        assert CycNum.from_rational(d, 2) == 2 and CycNum.from_rational(d, Fraction(1, 2)) * 2 == 1

    def test_product_by_one_checks_the_modulus(self):
        with pytest.raises(ModulusMismatch):
            CycNum.zeta(5, 1) * CycNum.one(3)
        with pytest.raises(ModulusMismatch):
            CycNum.one(3) * CycNum.zeta(5, 1)

    @pytest.mark.parametrize("d", KERNEL_DS)
    def test_galois_matches_substitution(self, d):
        x = CycNum(d, [Fraction(k + 1, k + 2) for k in range(len(CycNum.zero(d).coeffs))])
        for l in (1, -1, 2 * d + 1, 2 * d - 1):
            image = CycNum.zero(d)
            for k, c in enumerate(x.coeffs):
                image = image + CycNum.zeta(d, 1) ** (k * (l % (2 * d))) * c
            assert x.galois(l) == image


class TestRootsOfUnity:
    """zeta^j * zeta^k and (zeta^k)^{-1} are exponent arithmetic; every other
    operand takes the integer kernel.  Both against the Fraction reference."""

    @pytest.mark.parametrize("d", KERNEL_DS)
    def test_root_products_are_table_elements(self, d):
        for i in range(2 * d):
            zi = CycNum.zeta(d, i)
            for j in range(2 * d):
                zj = CycNum.zeta(d, j)
                prod = zi * zj
                assert prod.coeffs == _ref_mul(d, zi.coeffs, zj.coeffs)
                assert prod is CycNum.zeta(d, i + j)

    @pytest.mark.parametrize("d", KERNEL_DS)
    def test_root_times_other_elements(self, d):
        # zeta^k times a non-root weights the table rows t^{i+k} mod Phi by
        # the numerators: the denominator is kept, and the product is no root
        rng = random.Random(d)
        deg = len(CycNum.zero(d).coeffs)
        for top in (1, 1, 6, 6):  # integral elements, then den > 1
            x = CycNum(d, [Fraction(rng.randint(-9, 9), rng.randint(1, top)) for _ in range(deg)])
            assert (x.den == 1) == (top == 1) and x.root_exponent() == -1
            for i in range(2 * d):
                z = CycNum.zeta(d, i)
                for prod in (z * x, x * z):
                    assert prod.coeffs == _ref_mul(d, z.coeffs, x.coeffs)
                    assert _normalised(prod) and prod.den == x.den
                    assert prod.root_exponent() == -1
                    assert CycNum(d, prod.coeffs).root_exponent() == -1
        for c in (2, -3, Fraction(-3, 4)):
            for i in range(2 * d):
                z = CycNum.zeta(d, i)
                for prod in (z * c, c * z):
                    assert prod.coeffs == _ref_mul(d, z.coeffs, CycNum.from_rational(d, c).coeffs)

    @pytest.mark.parametrize("d", KERNEL_DS)
    def test_root_inverses(self, d):
        for k in range(2 * d):
            z = CycNum.zeta(d, k)
            inv = z.inverse()
            assert inv == _euclid_inverse(z)
            assert inv is CycNum.zeta(d, -k)

    @pytest.mark.parametrize("d", KERNEL_DS)
    def test_roots_are_recognised_by_value(self, d):
        for k in range(2 * d):
            fresh = CycNum(d, CycNum.zeta(d, k).coeffs)
            assert fresh is not CycNum.zeta(d, k)
            assert fresh.root_exponent() == k
            assert fresh * fresh is CycNum.zeta(d, 2 * k)
            assert fresh.inverse() is CycNum.zeta(d, -k)

    @pytest.mark.parametrize("d", KERNEL_DS)
    def test_other_elements_take_the_kernel(self, d):
        for k in range(2 * d):
            z = CycNum.zeta(d, k)
            for x in (z + 1, z / 2):
                # |1 + zeta^k| = 2|cos(pi k / 2d)| is 1 for k = 2d/3, 4d/3,
                # where 1 + zeta^k is itself a root, and 0 for k = d
                if x.is_zero() or abs(abs(x.to_complex()) - 1) < 1e-9:
                    assert x.is_zero() or x.root_exponent() >= 0
                    continue
                assert x.root_exponent() == -1
                assert (x * x).coeffs == _ref_mul(d, x.coeffs, x.coeffs)
                assert (x * z).coeffs == _ref_mul(d, x.coeffs, z.coeffs)
                assert x.inverse() == _euclid_inverse(x)


class TestExactScalars:
    """Only ints and Fractions (not bools) become field elements."""

    @pytest.mark.parametrize("bad", [0.1, 0.5, True, "1/2", 1j, None])
    def test_constructor_rejects_inexact_coefficients(self, bad):
        with pytest.raises(TypeError):
            CycNum(3, [bad, 0])
        with pytest.raises(TypeError):
            CycNum(3, [0, bad])

    @pytest.mark.parametrize("bad", [0.1, 0.5, True, "1/2", 1j, None])
    def test_from_rational_rejects_inexact_values(self, bad):
        with pytest.raises(TypeError):
            CycNum.from_rational(3, bad)

    def test_as_scalar_is_the_one_coercion(self):
        z = CycNum.zeta(3)
        assert as_scalar(3, z) is z
        assert as_scalar(3, 1) is CycNum.one(3)
        assert as_scalar(3, Fraction(2, 3)) == CycNum.from_rational(3, Fraction(2, 3))
        with pytest.raises(ModulusMismatch):
            as_scalar(3, CycNum.one(5))
        for bad in (0.1, True, "1/2", 1j, None):
            with pytest.raises(TypeError):
                as_scalar(3, bad)
        # arithmetic operands go through it
        with pytest.raises(ModulusMismatch):
            z * CycNum.one(5)
        with pytest.raises(TypeError):
            z + 0.5

    def test_equality_with_a_bool_is_false(self):
        # used to raise TypeError: True is not an exact rational
        for x in (CycNum.one(3), CycNum.zero(3), CycNum.zeta(3)):
            for b in (True, False):
                assert not x == b and x != b
                assert not b == x and b != x
        assert True not in [CycNum.one(3)] and False not in [CycNum.zero(3)]
        assert CycNum.one(3) == 1 and CycNum.one(3) != 1.0


class TestModulusValidation:
    @pytest.mark.parametrize("d", [0, -3])
    def test_non_positive(self, d):
        assert issubclass(InvalidModulus, ValueError)
        with pytest.raises(InvalidModulus):
            CycNum.one(d)
        with pytest.raises(InvalidModulus):
            CycNum.zeta(d)

    @pytest.mark.parametrize("d", [3.0, True, "3", None])
    def test_not_an_int(self, d):
        with pytest.raises(InvalidModulus):
            CycNum.one(d)
        with pytest.raises(InvalidModulus):
            CycNum.zeta(d)

    def test_smallest_moduli(self):
        assert CycNum.zeta(1) == -1
        assert CycNum.zeta(2) ** 2 == -1


class TestFieldIdentityChecks:
    def test_non_unit_gcd(self, monkeypatch):
        # t^2 - 1 in place of Phi_4 = t^2 + 1: t - 1 shares a factor with it.
        # The norm reads the reduction t^2 = 1 and the powers 1, t, 1, t of
        # the fake modulus, and N(t - 1) = (t - 1)^2 = 2 - 2t is not rational.
        fake = _FieldData(2)
        fake.reduction = (((0, 1),),)
        fake.zeta_powers = tuple(_normal(2, p, 1) for p in ((1, 0), (0, 1), (1, 0), (0, 1)))
        monkeypatch.setitem(_FieldData._cache, 2, fake)
        with pytest.raises(FieldIdentityError):
            CycNum(2, [-1, 1]).inverse()

    def test_checks_survive_optimize_flag(self):
        # python -O strips assert statements; these checks must still raise
        script = (
            "import permfact.cyclofield as cf\n"
            "cf._mobius = lambda n: -1\n"
            "try:\n"
            "    cf.cyclotomic_poly(6)\n"
            "except cf.FieldIdentityError:\n"
            "    print('raised')\n"
        )
        src = str(Path(permfact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"
