import pytest

from permfact.cyclofield import CycNum, eta_power, kappa
from permfact.linop import LinOp, ResidueCore, ResidueVariableClash, Subst, Term
from permfact.polyring import MPoly, exact_div


D = 3
X, Y, Z = (MPoly.var(D, v) for v in "xyz")
ONE = MPoly.one(D)


def residue_op(d0_yz):
    prem = (X - Z - Y) * d0_yz
    core = ResidueCore(prem, "y", "z", CycNum.one(D), D)
    return LinOp(D, [Term(ONE, Subst.identity(D), core)])


def test_residue_of_unit_object():
    d0 = exact_div(Y**3 - Z**3, Y - Z)
    G = residue_op(d0)
    assert G.apply(ONE) == -ONE


def test_first_residue_property_as_operator():
    d0 = exact_div(Y**3 - Z**3, Y - Z)
    G = residue_op(d0)
    d1 = Y - Z
    target = LinOp.substitution(D, {"y": None}, coeff=(X - Z))
    assert G.compose(LinOp.poly(d1)).equals(target, sample_vars=("x", "y", "z"))
    for m in range(7):
        expect = (X - Z) if m == 0 else MPoly.zero(D)
        assert G.apply(d1 * Y**m) == expect


def test_second_residue_property_divisibility():
    K = Y**2 + Z**2 + Y * Z
    d0 = exact_div(Y**3 - Z**3, K)
    G = residue_op(d0)
    d1_yx = Y**2 + X**2 + Y * X
    for f in (ONE, Y, X * Y**2, Z + Y**4):
        exact_div(G.apply(d1_yx * f), X - Z)


def test_substitution_composition():
    lam = LinOp.substitution(D, {"y": (1, "x")})
    q = LinOp.poly(X + Y)
    composed = lam.compose(q)
    # substitution after multiplication = multiplication by the substituted poly
    assert composed.apply(Y**2) == (X + X) * X**2


def test_scaling_conjugation_matches_pointwise():
    K = Y**2 + Z**2 + Y * Z
    d0 = exact_div(Y**3 - Z**3, K)
    G = residue_op(d0)
    e = eta_power(3, 1)
    out_map = Subst(D, {v: (e, v) for v in "xyz"})
    in_map = Subst(D, {v: (e.inverse(), v) for v in "xyz"})
    conj = G.conjugated(out_map, in_map)
    for f in (ONE, Y, Y**2, X * Y, Z * Y**4):
        assert conj.apply(f) == out_map.apply(G.apply(in_map.apply(f)))


def test_renaming():
    d0 = exact_div(Y**3 - Z**3, Y - Z)
    G = residue_op(d0)
    G2 = G.renamed({"y": "y1", "z": "y2"})
    f = MPoly.var(D, "y1") ** 3
    assert G2.apply(f) == G.apply(Y**3).subs({"z": (1, "y2")})


def test_collapse_through_eliminated_variable():
    # outer residue fed by an image that already consumed y collapses exactly
    d0 = exact_div(Y**3 - Z**3, Y - Z)
    G = residue_op(d0)
    n_like = LinOp.poly(X + Z)  # y-free multiplier
    outer = G.compose(n_like.compose(G))
    for f in (ONE, Y, Y**4):
        assert outer.apply(f) == G.apply((X + Z) * G.apply(f))


def test_degree_shift():
    d0 = exact_div(Y**3 - Z**3, Y - Z)
    G = residue_op(d0)
    # (x-z-y)*d0 is weighted homogeneous of degree 3 = step, so G preserves degree
    assert G.degree_shift() == 0
    sub = LinOp.substitution(D, {"y": (1, "x")})
    assert sub.degree_shift() == 0
    assert LinOp.poly(X**2).degree_shift() == 2


def test_indivisible_denominator_is_kept():
    t = Term(X, Subst.identity(D), None, Y + ONE)
    assert t._cancelled() is t


def test_residue_core_rejects_equal_variables():
    with pytest.raises(ResidueVariableClash):
        ResidueCore(Y - Z, "y", "y", CycNum.one(D), D)
