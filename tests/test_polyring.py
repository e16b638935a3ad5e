import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfact.cyclofield import CycNum, ModulusMismatch, eta_power
from permfact.polyring import (
    _BOUND,
    MPoly,
    NotDivisible,
    as_poly,
    coeff_of,
    difference_quotient,
    div_rem,
    exact_div,
    exponents,
    leading_coeff,
    monomial,
    perm_product,
    residues,
    sort_vars,
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
            e = exponents(m1)
            for v, k in exponents(m2).items():
                e[v] = e.get(v, 0) + k
            m = monomial(e)
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if not c.is_zero()}


class TestTrivialProducts:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_unit_operand_returns_the_other(self, d):
        x, y = MPoly.var(d, "x"), MPoly.var(d, "y")
        f = x**2 * y - y * eta_power(d, 1) + 3
        built_one = MPoly.constant(d, CycNum(d, (eta_power(d, 2) * eta_power(d, -2)).coeffs))
        assert built_one.terms[monomial({})] is not CycNum.one(d)
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

    @pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, "1", None, Fraction(1)])
    def test_residues_rejects_an_element_that_is_not_an_int(self, bad):
        # residues(5, {True}) used to be {1}, and residues(5, {0.5}) {0.5}
        with pytest.raises(TypeError, match=re.escape(f"must be an int, got {bad!r}")):
            residues(5, [1, bad])


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
        glex = lambda m: (sum(exponents(m).values()), tuple(exponents(m).get(v, 0) for v in vars))
        lead = exponents(max(g.terms, key=glex))
        for m in r.terms:
            assert any(exponents(m).get(v, 0) < k for v, k in lead.items())
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
        for k in range(max((exponents(m).get("y", 0) for m in f.terms), default=-1) + 1):
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


# -- the packed representation against a reference on exponent dicts ----------

VARS = ("x", "y", "y1", "y2", "z")  # already in sort_vars order


def _ref(f):
    """f as {exponent tuple over VARS: coefficient}."""
    return {tuple(exponents(m).get(v, 0) for v in VARS): c for m, c in f.terms.items()}


def _from_ref(d, ref):
    return MPoly(d, {monomial(dict(zip(VARS, e))): c for e, c in ref.items()})


def _ref_add_term(out, e, c):
    s = out[e] + c if e in out else c
    if s.is_zero():
        out.pop(e, None)
    else:
        out[e] = s


def _ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            _ref_add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def _ref_subs(d, f, mapping):
    """mapping: variable -> (CycNum, variable) or None, applied at once;
    a zero scalar maps to 0."""
    out = {}
    for e, c in f.items():
        new = dict.fromkeys(VARS, 0)
        for v, k in zip(VARS, e):
            img = mapping.get(v, (CycNum.one(d), v))
            if k and (img is None or img[0].is_zero()):
                break
            if k:
                c = c * img[0] ** k
                new[img[1]] += k
        else:
            _ref_add_term(out, tuple(new[v] for v in VARS), c)
    return out


def _ref_div_rem(f, g):
    """The textbook division by the graded-lex leading term of g."""
    glex = lambda e: (sum(e), e)
    lead = max(g, key=glex)
    p, q, r = dict(f), {}, {}
    while p:
        e = max(p, key=glex)
        c = p[e]
        if all(a >= b for a, b in zip(e, lead)):
            qe = tuple(a - b for a, b in zip(e, lead))
            qc = c / g[lead]
            q[qe] = qc
            for ge, gc in g.items():
                _ref_add_term(p, tuple(a + b for a, b in zip(ge, qe)), -(qc * gc))
        else:
            r[e] = c
            del p[e]
    return q, r


def _random_poly(rng, d, n_terms, max_exp=3):
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randrange(max_exp + 1) if rng.random() < 0.6 else 0 for _ in VARS)
        c = CycNum.from_rational(d, Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * CycNum.zeta(d, rng.randrange(2 * d))
        _ref_add_term(terms, e, c)
    return _from_ref(d, terms)


class TestPackedMonomials:
    """Products, substitution, decomposition and division on packed monomials
    agree with the same operations on exponent dicts."""

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_against_exponent_dicts(self, d):
        rng = random.Random(d)
        one, two, eta = CycNum.one(d), CycNum.from_rational(d, 2), eta_power(d, 1)
        maps = [
            {"x": (one, "y")},  # merges x into y
            {"y1": (eta, "y2"), "y2": (two, "y1")},  # swaps two variables with scalars
            {"y": None, "z": (eta, "x")},  # y to 0, z merged into x
            {"x": (CycNum.zero(d), "x"), "y2": (one, "y")},  # a zero scalar is the map to 0
            {"x": (eta, "x"), "z": (two, "z")},  # a scaling
        ]
        for _ in range(12):
            f, g = _random_poly(rng, d, rng.randint(0, 6)), _random_poly(rng, d, rng.randint(1, 5))
            rf, rg = _ref(f), _ref(g)
            assert _ref(f * g) == _ref_mul(rf, rg)
            assert f.degree() == max((sum(e) for e in rf), default=-1)
            for v in VARS:
                i = VARS.index(v)
                assert f.degree_in(v) == max((e[i] for e in rf), default=-1)
                parts = f.coeff_dict_in(v)
                expect = {}
                for e, c in rf.items():
                    expect.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
                assert {k: _ref(p) for k, p in parts.items()} == expect
            for mapping in maps:
                assert _ref(f.subs(mapping)) == _ref_subs(d, rf, mapping)
            # a variable that gets its field here, and back
            w = f.subs({"y": (one, "w")})
            assert w.degree_in("w") == f.degree_in("y") and w.subs({"w": (one, "y")}) == f
            if g:
                q, r = div_rem(f, g)
                assert (_ref(q), _ref(r)) == _ref_div_rem(rf, rg)
                assert div_rem(f * g, g) == (f, MPoly.zero(d))
                q, r = div_rem(f * g + r, g)
                assert (_ref(q), _ref(r)) == _ref_div_rem(_ref(f * g + r), rg)

    def test_divisibility_reads_the_newest_field(self):
        # the guard mask covers the field of a name seen only now
        v = MPoly.var(D, "fresh")
        assert div_rem(X * Y, v) == (MPoly.zero(D), X * Y)
        assert div_rem(X * v**2 + Y, v) == (X * v, Y)

    def test_encode_decode_roundtrip(self):
        for e in ({}, {"x": 1}, {"y": 2, "y10": 3}, {"x": 1, "y": 1, "y1": 1, "y2": 1, "z": 1}):
            assert exponents(monomial(e)) == e
        assert monomial({"x": 0, "y": 2}) == monomial({"y": 2})
        assert monomial({}) == 0  # the constant monomial
        assert MPoly.var(D, "y", 2) == MPoly(D, {monomial({"y": 2}): CycNum.one(D)})
        with pytest.raises(ValueError):
            monomial({"x": -1})
        for bad in (True, 2.0, Fraction(2)):
            # MPoly.var(3, "x", 2.0) used to build the monomial {("x", 2.0)}
            with pytest.raises(TypeError, match="must be an int"):
                MPoly.var(D, "x", bad)


class TestOverflow:
    """An exponent or degree at the field bound raises; it never wraps into
    a neighbouring field."""

    def test_var_at_the_bound_raises(self):
        assert MPoly.var(D, "x", _BOUND - 1).degree_in("x") == _BOUND - 1
        for v in ("x", "y2"):
            with pytest.raises(OverflowError):
                MPoly.var(D, v, _BOUND)
        with pytest.raises(OverflowError):
            monomial({"x": _BOUND - 1, "y": 1})

    def test_power_that_would_carry_raises(self):
        half = MPoly.var(D, "x", _BOUND // 2)
        assert half**1 == half  # no needless square past the last bit
        with pytest.raises(OverflowError):
            half**2
        with pytest.raises(OverflowError):
            (X + MPoly.var(D, "y", _BOUND // 4)) ** 2 * MPoly.var(D, "z", _BOUND // 2)
        near = MPoly.var(D, "x", _BOUND // 2 - 1) ** 2
        assert near.degree() == near.degree_in("x") == _BOUND - 2

    def test_product_past_the_degree_bound_raises(self):
        # no single exponent overflows: the degree does
        top = MPoly.var(D, "x", _BOUND - 1)
        for other in (X, Y, Z + 1, MPoly.var(D, "y1", 3)):
            with pytest.raises(OverflowError):
                top * other
            with pytest.raises(OverflowError):
                other * top
        assert top * 2 == top * MPoly.constant(D, 2)  # a constant factor adds no degree


class TestVariableNames:
    """A name is validated when it gets its field: a str, and no second
    spelling of y or of an index y<n>."""

    @pytest.mark.parametrize("name", ["y0", "y01", "y007", "y00", "y\u0663", "y\u00b2"])
    def test_non_canonical_index_raises(self, name):
        # leading_coeff(2*y + 3*y0) at d = 3 used to depend on PYTHONHASHSEED
        with pytest.raises(ValueError, match="index after y"):
            MPoly.var(D, name)
        with pytest.raises(ValueError):
            Y.subs({"y": (1, name)})
        with pytest.raises(ValueError):
            sort_vars(["y", name])

    @pytest.mark.parametrize("name", [1, None, ("y",), b"y"])
    def test_name_must_be_a_str(self, name):
        with pytest.raises(TypeError, match="must be a str"):
            MPoly.var(D, name)

    def test_canonical_names_keep_their_order(self):
        assert sort_vars(["z", "y10", "w", "y2", "y", "x", "y1"]) == ("x", "y", "y1", "y2", "y10", "z", "w")
        f = 2 * Y + 3 * MPoly.var(D, "y1")
        assert leading_coeff(f) == CycNum.from_rational(D, 2)
