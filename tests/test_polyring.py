import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfact.cyclofield import CycNum, ModulusMismatch, eta_power
from permfact.polyring import (
    MPoly,
    NotDivisible,
    as_poly,
    coeff_of,
    difference_quotient,
    div_rem,
    exact_div,
    leading_coeff,
    perm_product,
    residues,
)

D = 3
X, Y, Z = (MPoly.var(D, v) for v in "xyz")


def polys(d=D, vars="xy", max_terms=4):
    coeff = st.integers(min_value=-3, max_value=3)
    exps = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in vars))
    term = st.tuples(exps, coeff)
    def build(terms):
        out = MPoly.zero(d)
        for e, c in terms:
            mono = MPoly.constant(d, c)
            for v, k in zip(vars, e):
                mono = mono * MPoly.var(d, v) ** k
            out = out + mono
        return out
    return st.lists(term, min_size=0, max_size=max_terms).map(build)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X - Y) * (X + Y) == X**2 - Y**2

    def test_eta_product(self):
        p = (X - Y * eta_power(3, 1)) * (X - Y * eta_power(3, 2))
        assert p == X**2 + X * Y + Y**2

    def test_add_zero(self):
        f = X**2 * Y + 3 * Y
        assert f + MPoly.zero(D) == f

    @given(f=polys(), g=polys())
    @settings(max_examples=30, deadline=None)
    def test_commutativity(self, f, g):
        assert f * g == g * f
        assert f + g == g + f


def _schoolbook(f, g):
    """The term dict of f * g by every pair of terms, with zero sums dropped."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            e = dict(m1)
            for v, k in m2:
                e[v] = e.get(v, 0) + k
            m = frozenset(e.items())
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if not c.is_zero()}


class TestTrivialProducts:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_unit_operand_returns_the_other(self, d):
        x, y = MPoly.var(d, "x"), MPoly.var(d, "y")
        f = x**2 * y - y * eta_power(d, 1) + 3
        built_one = MPoly.constant(d, CycNum(d, (eta_power(d, 2) * eta_power(d, -2)).coeffs))
        assert built_one.terms[frozenset()] is not CycNum.one(d)
        for one in (MPoly.one(d), built_one, 1, CycNum.one(d)):
            for prod in (f * one, one * f):
                assert prod.terms == _schoolbook(f, MPoly.constant(d, 1))
                assert prod is f

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_constant_operand_scales(self, d):
        x, y = MPoly.var(d, "x"), MPoly.var(d, "y")
        f = x**2 * y - y * eta_power(d, 1) + Fraction(1, 2)
        for c in (2, Fraction(-1, 3), eta_power(d, 1), eta_power(d, 1) - 1):
            const = MPoly.constant(d, c)
            for prod in (f * c, c * f, f * const, const * f):
                assert prod.terms == _schoolbook(f, const)
        zero = MPoly.zero(d)
        for prod in (f * 0, 0 * f, f * zero, zero * f, zero * MPoly.one(d)):
            assert prod.is_zero()


class TestExactScalars:
    @pytest.mark.parametrize("bad", [0.1, 0.5, True, "1/2", None])
    def test_constant_rejects_inexact_values(self, bad):
        with pytest.raises(TypeError):
            MPoly.constant(3, bad)


class TestModulusGuard:
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_operands_of_another_modulus_raise(self, op):
        mine = [MPoly.zero(3), MPoly.one(3), MPoly.constant(3, 2), X + Y]
        theirs = [
            MPoly.zero(5), MPoly.one(5), MPoly.constant(5, 2), MPoly.var(5, "x"),
            CycNum.zero(5), CycNum.one(5), CycNum.zeta(5, 1),
        ]
        for f in mine:
            for g in theirs:
                with pytest.raises(ModulusMismatch):
                    op(f, g)
                with pytest.raises(ModulusMismatch):
                    op(g, f)

    def test_equality_across_moduli_is_false(self):
        assert MPoly.one(3) != MPoly.one(5)
        assert MPoly.zero(3) != MPoly.zero(5)
        assert MPoly.one(3) != CycNum.one(5)

    def test_equality_with_a_bool_is_false(self):
        # used to raise TypeError: True is not an exact rational
        for f in (MPoly.one(3), MPoly.zero(3), X + Y):
            for b in (True, False):
                assert not f == b and f != b
                assert not b == f and b != f
        assert True not in [MPoly.one(3)] and False not in [MPoly.zero(3)]
        assert MPoly.one(3) == 1 and MPoly.one(3) != 0.5

    @pytest.mark.parametrize("c", [CycNum.one(5), CycNum.zeta(5, 1), CycNum.zero(5)])
    def test_constant_of_another_modulus_raises(self, c):
        with pytest.raises(ModulusMismatch):
            MPoly.constant(3, c)

    def test_as_poly_is_the_one_coercion(self):
        assert as_poly(3, X) is X
        assert as_poly(3, 2) == MPoly.constant(3, 2)
        assert as_poly(3, eta_power(3, 1)) == MPoly.constant(3, eta_power(3, 1))
        for other in (MPoly.one(5), CycNum.one(5)):
            with pytest.raises(ModulusMismatch):
                as_poly(3, other)
        for bad in (0.5, True, "x", None):
            with pytest.raises(TypeError):
                as_poly(3, bad)

    def test_residues_is_the_key_of_a_subset(self):
        key = residues(5, {1, 2})
        assert key == frozenset({1, 2})
        for S in ([2, 1], (1, 2), {6, 7}, [1 - 5, 2 + 10], range(1, 3)):
            assert residues(5, S) == key


class TestExactDiv:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_unit_quotient(self, d):
        x, y = MPoly.var(d, "x"), MPoly.var(d, "y")
        q = exact_div(x**d - y**d, x - y)
        expect = MPoly.zero(d)
        for j in range(d):
            expect = expect + x**j * y ** (d - 1 - j)
        assert q == expect

    def test_trivial(self):
        f = X**2 * Y + 3 * Y
        assert exact_div(f, MPoly.one(D)) == f
        with pytest.raises(NotDivisible):
            exact_div(X, Y)

    @given(f=polys(), g=polys())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, f, g):
        if g.is_zero():
            return
        assert exact_div(f * g, g) == f


class TestDivRem:
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("vars", ["y", "xy"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_division_contract(self, d, vars, data):
        f = data.draw(polys(d, vars, max_terms=5))
        g = data.draw(polys(d, vars).filter(lambda p: not p.is_zero()))
        g = g * eta_power(d, data.draw(st.integers(0, 2 * d - 1)))
        q, r = div_rem(f, g)
        assert f == g * q + r
        # graded lex with x before y
        glex = lambda m: (sum(k for _, k in m), tuple(dict(m).get(v, 0) for v in vars))
        lead = dict(max(g.terms, key=glex))
        for m in r.terms:
            assert any(dict(m).get(v, 0) < k for v, k in lead.items())
        if vars == "y":
            assert r.degree() < g.degree()
        if r.is_zero():
            assert exact_div(f, g) == q
        else:
            with pytest.raises(NotDivisible):
                exact_div(f, g)

    def test_euclidean_example(self):
        q, r = div_rem(Y**3 + 2 * Y + 1, 2 * Y**2 - Y)
        assert q == Y * Fraction(1, 2) + Fraction(1, 4)
        assert r == Y * Fraction(9, 4) + 1

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            div_rem(X, MPoly.zero(D))

    def test_leading_coeff(self):
        # degree 3 first, then the larger x exponent: x^2*y leads
        assert leading_coeff(3 * X**2 * Y + 5 * X * Y**2 + 7 * Y**3 + 11 * X) == CycNum.from_rational(D, 3)
        assert leading_coeff(2 * Y**3 + Y + 4) == CycNum.from_rational(D, 2)
        assert leading_coeff(MPoly.constant(D, 6)) == CycNum.from_rational(D, 6)
        assert leading_coeff(MPoly.zero(D)).is_zero()


class TestScaleAndCoeff:
    def test_scale_examples(self):
        e = eta_power(3, 2)
        assert (X - Y).subs({"x": (e, "x")}) == X * e - Y
        assert (X**2).subs({"x": (eta_power(3, 1), "x")}) == X**2 * eta_power(3, 2)
        f = X**2 * Y + 3 * Y
        assert f.subs({"y": (1, "y")}) == f

    @given(f=polys())
    @settings(max_examples=25, deadline=None)
    def test_scale_inverse(self, f):
        c = eta_power(3, 1)
        assert f.subs({"x": (c, "x")}).subs({"x": (c.inverse(), "x")}) == f

    def test_coeff_examples(self):
        f = X**2 * Y + 3 * Y
        assert coeff_of(f, "y", 1) == X**2 + 3
        assert coeff_of(f, "y", 5).is_zero()

    @given(f=polys())
    @settings(max_examples=25, deadline=None)
    def test_coeff_reassembly(self, f):
        acc = MPoly.zero(D)
        for k in range(max((dict(m).get("y", 0) for m in f.terms), default=-1) + 1):
            acc = acc + coeff_of(f, "y", k) * MPoly.var(D, "y") ** k
        assert acc == f


class TestPermProduct:
    def test_singleton_is_x_minus_y(self):
        assert perm_product(3, {0}, "x", "y") == X - Y

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_full_set(self, d):
        x, y = MPoly.var(d, "x"), MPoly.var(d, "y")
        assert perm_product(d, range(d), "x", "y") == x**d - y**d

    def test_empty(self):
        assert perm_product(3, set(), "x", "y") == MPoly.one(3)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_complement_identity(self, d):
        x, y = MPoly.var(d, "x"), MPoly.var(d, "y")
        full = x**d - y**d
        for mask in range(1, min(2**d - 1, 64)):
            S = {i for i in range(d) if mask >> i & 1}
            comp = set(range(d)) - S
            assert perm_product(d, S, "x", "y") * perm_product(d, comp, "x", "y") == full

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_prefix_recurrence_matches_naive_product(self, d):
        # the coefficient recurrence against the product of linear factors,
        # on every nonempty subset, every coprime l and two variable pairs
        for l in (l for l in range(1, d) if math.gcd(l, d) == 1):
            for r in range(1, d + 1):
                for S in itertools.combinations(range(d), r):
                    for u, v in (("x", "y"), ("y", "z")):
                        naive = MPoly.one(d)
                        for j in S:
                            naive = naive * (MPoly.var(d, u) - MPoly.var(d, v) * eta_power(d, j, l))
                        assert perm_product(d, S, u, v, l) == naive

    def test_variables_must_differ(self):
        with pytest.raises(ValueError):
            perm_product(3, {0}, "x", "x")


def test_difference_quotient():
    K = X**2 + Y**2 + X * Y
    assert difference_quotient(K, "y", "z") == X + Y + Z


def scalars(d):
    deg = len(CycNum.zero(d).coeffs)
    return st.lists(st.integers(-2, 2), min_size=deg, max_size=deg).map(lambda cs: CycNum(d, cs))


def monomial_maps(d, vars="xyz"):
    """v -> (c, w) or None; zero scalars included, so (0, w) also means 0."""
    image = st.one_of(st.none(), st.tuples(scalars(d), st.sampled_from(vars + "w")))
    return st.dictionaries(st.sampled_from(vars), image, max_size=len(vars))


class TestSubs:
    @pytest.mark.parametrize("d", [3, 5])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_ring_homomorphism(self, d, data):
        f = data.draw(polys(d, "xyz"))
        g = data.draw(polys(d, "xyz"))
        m = data.draw(monomial_maps(d))
        assert (f * g).subs(m) == f.subs(m) * g.subs(m)
        assert (f + g).subs(m) == f.subs(m) + g.subs(m)
        # a ring homomorphism is fixed by the images of the generators
        for v in "xyz":
            c, w = m.get(v, (1, v)) or (0, v)
            assert MPoly.var(d, v).subs(m) == MPoly.var(d, w) * c

    @pytest.mark.parametrize("d", [3, 5])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_scaling_path_equals_the_general_path(self, d, data):
        f = data.draw(polys(d, "xyz"))
        nonzero = scalars(d).filter(lambda c: not c.is_zero())
        scales = data.draw(st.dictionaries(st.sampled_from("xyz"), nonzero, max_size=3))
        mapping = {v: (c, v) for v, c in scales.items()}
        out = f.subs(mapping)
        assert out == f._mapped(mapping)
        assert out.terms.keys() == f.terms.keys()  # a scaling keeps every monomial

    def test_only_scalings_take_the_scaling_path(self, monkeypatch):
        f = X**2 * Y + 3 * Z
        monkeypatch.setattr(MPoly, "_rescaled", None)  # the scaling path would now raise
        assert f.subs({"x": (1, "y"), "y": (1, "x")}) == Y**2 * X + 3 * Z
        assert f.subs({"x": (2, "x"), "z": None}) == X**2 * Y * 4
        assert f.subs({"x": (0, "x")}) == 3 * Z
        with pytest.raises(TypeError):
            f.subs({"x": (2, "x")})
        monkeypatch.undo()
        monkeypatch.setattr(MPoly, "_mapped", None)  # the general path would now raise
        assert f.subs({"x": (2, "x"), "z": (eta_power(3, 1), "z")}) == X**2 * Y * 4 + Z * (3 * eta_power(3, 1))
        assert f.subs({"x": (1, "x")}) is f

    def test_simultaneous(self):
        assert (X**2 * Y).subs({"x": (1, "y"), "y": (2, "x")}) == Y**2 * X * 2
        assert (X - Y).subs({"x": (1, "y")}).is_zero()
        assert (X * Y + Z).subs({"y": None}) == Z

    @pytest.mark.parametrize(
        "image",
        [Y + Z, Y, 0, "y", (1, Y), ("1", "y"), (1, "y", 2), (True, "y")],
    )
    def test_non_monomial_or_unknown_image_raises(self, image):
        with pytest.raises(TypeError):
            (X + Y).subs({"x": image})
        # checked even for a variable the polynomial does not contain
        with pytest.raises(TypeError):
            Y.subs({"x": image})

    def test_scalar_of_another_field_raises(self):
        with pytest.raises(ModulusMismatch):
            X.subs({"x": (CycNum.one(5), "y")})

    def test_vars_derived_and_read_only(self):
        f = X**2 * Y + 3
        assert f.vars == {"x", "y"}
        assert (f - f).vars == frozenset()
        assert MPoly.constant(D, 2).is_constant()
        with pytest.raises(AttributeError):
            f.vars = ("x",)

    def test_repr_text(self):
        # recorded with the exponent-tuple representation this one replaced
        v = {n: MPoly.var(D, n) for n in ("y1", "y2", "y10")}
        f = X**2 * v["y10"] - v["y2"] * v["y1"] * eta_power(3, 1) + Z * Y**3 * 5 + 7 - X * Z
        assert repr(f) == (
            "(CycNum[2d=6](7)) + (CycNum[2d=6](1 + -1*z))*y1*y2 + (CycNum[2d=6](5))*y^3*z"
            " + (CycNum[2d=6](-1))*x*z + (CycNum[2d=6](1))*x^2*y10"
        )
