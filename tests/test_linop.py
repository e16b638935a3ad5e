import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfact.checks import build_checks
from permfact.cyclofield import CycNum, ModulusMismatch, eta_power, kappa
from permfact.graded import _entry_degree
from permfact.linop import (
    LinOp,
    ResidueCore,
    ResidueVariableClash,
    Subst,
    Term,
    _basis_expansion,
    _compose_terms,
    _sum_fractions,
    _zero_test_parts,
    as_linop,
)
from permfact.mfcore import duality_un, ev_coev, twist_morphism, zigzag_morphisms
from permfact.polyring import MPoly, exact_div
from permfact.temperleylieb import evaluate_F, tl_e


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
    assert G.compose(LinOp.poly(d1)).equals(target)
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


def test_pruning_for_a_source():
    # y -> x is vacuous on a source in x, z alone; on one with y it acts
    op = LinOp.substitution(D, {"y": (1, "x"), "z": (2, "z")})
    pruned = op.pruned_for_source(("x", "z"))
    assert pruned.terms[0].phi.mapping == {"z": (CycNum.from_rational(D, 2), "z")}
    assert pruned.pruned_for_source(("x", "z")) is pruned
    assert op.pruned_for_source(("x", "y", "z")) is op


def test_degree_shift():
    d0 = exact_div(Y**3 - Z**3, Y - Z)
    G = residue_op(d0)
    # (x-z-y)*d0 is weighted homogeneous of degree 3 = step, so G preserves degree
    assert G.degree_shift() == 0
    sub = LinOp.substitution(D, {"y": (1, "x")})
    assert sub.degree_shift() == 0
    assert LinOp.poly(X**2).degree_shift() == 2


def test_degree_shift_needs_a_homogeneous_premultiplier():
    # each y-power of x*y + x^2*y has one weight k + degree = 3, yet y^2 goes to x + x^2
    op = LinOp(D, [Term(ONE, ID, ResidueCore(X * Y + X**2 * Y, "y", "z", CycNum.one(D), D))])
    assert op.apply(Y**2) == X + X**2
    assert op.degree_shift() is None
    assert _entry_degree(op, D) == (None, False)
    # a homogeneous premultiplier of degree 4 and step 3 raises degrees by 1
    op = LinOp(D, [Term(ONE, ID, ResidueCore(X**3 * Y - X * Z**2 * Y, "y", "z", CycNum.one(D), D))])
    assert op.apply(Y**2) == X**3 - X * Z**2
    assert op.degree_shift() == 1
    assert _entry_degree(op, D) == (1, True)


def test_residue_core_rejects_equal_variables():
    with pytest.raises(ResidueVariableClash):
        ResidueCore(Y - Z, "y", "y", CycNum.one(D), D)


@pytest.mark.parametrize("elim,inj", [("z", "y"), ("y2", "y1"), ("z", "x"), ("y", "x")])
def test_residue_core_needs_the_eliminated_variable_first(elim, inj):
    # div_rem divides by the graded-lex leading term, elim^step only in this order
    with pytest.raises(ResidueVariableClash, match="to precede"):
        ResidueCore(Y - Z, elim, inj, CycNum.one(D), D)


def test_residue_core_rejects_bad_step():
    for step in (0, -3, 4):
        with pytest.raises(ValueError):
            ResidueCore(Y, "y", "z", CycNum.one(D), step)
    with pytest.raises(ValueError):
        LinOp(D, [Term(ONE, Subst.identity(D), ResidueCore(Y, "y", "z", 1, 0))])


def test_residue_core_coerces_a_rational_injection_scalar():
    prem = X * Y + X**2 * Y
    op = lambda injc: LinOp(D, [Term(ONE, ID, ResidueCore(prem, "y", "z", injc, D))])
    assert not op(1).is_zero()
    assert op(1) == op(CycNum.one(D))
    assert op(Fraction(1, 2)).terms[0].core.injc == CycNum.from_rational(D, Fraction(1, 2))
    with pytest.raises(ModulusMismatch):
        ResidueCore(prem, "y", "z", CycNum.one(5), D)
    for bad in (1.0, "1", None):
        with pytest.raises(TypeError):
            ResidueCore(prem, "y", "z", bad, D)


# -- the zero test ---------------------------------------------------------------


def grid_zero(op, variables):
    """Reference zero test: evaluate on a monomial grid in `variables`.

    Along each variable every term scales by a fixed multiplier when the
    exponent grows by `step`, so per residue class the sampled sequence is a
    sum of at most n_v geometric sequences and exponents 0..step*n_v decide
    it (Vandermonde).  Sound only when `variables` holds every variable a
    term substitutes or eliminates.
    """
    d = op.d
    steps = [t.core.step for t in op.terms if t.core is not None]
    step = max(steps) if steps else 1
    grid = [MPoly.one(d)]
    for v in variables:
        touched, muls = False, set()
        for t in op.terms:
            if t.core is not None and t.core.elim == v:
                touched = True
                muls.add(("res", t.core.injc**t.core.step, t.core.inj))
                continue
            img = t.phi.image_of(v)
            touched = touched or img != (CycNum.one(d), v)
            muls.add(None if img is None else (img[0] ** step, img[1]))
        if touched:
            grid = [g * MPoly.var(d, v, k) for g in grid for k in range(step * len(muls) + 1)]
    return all(op.apply(g).is_zero() for g in grid)


Y2 = MPoly.var(D, "y2")
P = (X - Z - Y) * exact_div(Y**3 - Z**3, Y - Z)
ID = Subst.identity(D)


def res(prem, injc=1, num=ONE, phi=ID):
    return Term(num, phi, ResidueCore(prem, "y", "z", CycNum.from_rational(D, 1) * injc, D))


OMEGA = eta_power(D, 1)  # a primitive cube root of unity
KILL_Z = Subst(D, {"z": None})
RES_THEN_KILL_Z = LinOp(D, [Term(ONE, KILL_Z)]).compose(LinOp(D, [res(P)]))  # its term's phi kills inj = z
ZERO_TEST_CASES = [
    # (name, zero operator, the same with one term perturbed, variables)
    (
        "multiplier moved to the numerator",
        LinOp(D, [res(P * X**2), res(-P, num=X**2)]),
        LinOp(D, [res(P * X**2), res(-P, num=X * Z)]),
        "xyz",
    ),
    (
        "numerators carrying the eliminated variable",
        LinOp(D, [res(P, num=Y + X), res(P, num=-Y), res(P, num=-X)]),
        LinOp(D, [res(P, num=Y + X), res(P, num=-Y), res(P, num=-Z)]),
        "xyz",
    ),
    (
        "substitution killing the premultiplier",
        LinOp(D, [res(Y * (Y2 - X), phi=Subst(D, {"y2": (1, "x")}))]),
        LinOp(D, [res(Y * (Y2 - 2 * X), phi=Subst(D, {"y2": (1, "x")}))]),
        ("x", "y", "y2", "z"),
    ),
    (
        "roots-of-unity filter across keys",
        LinOp(D, [res(Z**3), Term(ONE, Subst(D, {"y": None}))]
              + [Term(MPoly.constant(D, Fraction(-1, 3)), Subst(D, {"y": (OMEGA**j, "z")})) for j in range(3)]),
        LinOp(D, [res(Z**3), Term(ONE, Subst(D, {"y": None}))]
              + [Term(MPoly.constant(D, Fraction(-1, 3)), Subst(D, {"y": (OMEGA**j, "z")})) for j in range(2)]),
        "yz",
    ),
    (
        "injection scalars differing by a root of unity",
        LinOp(D, [res(P), res(-P, injc=OMEGA)]),
        LinOp(D, [res(P), res(-P, injc=-OMEGA)]),
        "xyz",
    ),
    (
        "substitution killing the injection variable",
        RES_THEN_KILL_Z - LinOp(D, [res(P, injc=0, phi=KILL_Z)]),
        RES_THEN_KILL_Z - LinOp(D, [res(P + X * Y**2, injc=0, phi=KILL_Z)]),
        "xyz",
    ),
]


@pytest.mark.parametrize("name,zero,perturbed,variables", ZERO_TEST_CASES, ids=[c[0] for c in ZERO_TEST_CASES])
def test_zero_test_decides_and_agrees_with_grid(name, zero, perturbed, variables):
    if name == "injection scalars differing by a root of unity":
        # injc enters only through injc**step, so the normal form cancels the two terms
        assert not zero.terms
    else:
        assert zero.terms
    assert zero.is_zero() and zero.equals(LinOp.zero(D))
    assert grid_zero(zero, variables)
    assert not perturbed.is_zero() and not perturbed.equals(LinOp.zero(D))
    assert not grid_zero(perturbed, variables)


def test_residue_seen_only_above_degree_zero_is_not_zero():
    # G(1) = 0 but G(y^3) = 1: sampling f = 1 alone would call G zero
    G = LinOp(D, [res(ONE)])
    assert G.apply(ONE).is_zero() and G.apply(Y**3) == ONE
    assert not G.equals(LinOp.zero(D))
    assert not grid_zero(G, "yz")


SCALARS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(SCALARS, min_size=len(ZERO_TEST_CASES), max_size=len(ZERO_TEST_CASES)),
    probe=st.integers(min_value=0, max_value=len(ZERO_TEST_CASES) - 1),
    c0=st.one_of(st.just(Fraction(0)), SCALARS),
)
def test_zero_test_on_combinations(coeffs, probe, c0):
    # a combination of zero operators is zero; adding c0 * (a nonzero operator) is not, unless c0 = 0
    op = LinOp.zero(D)
    for c, case in zip(coeffs, ZERO_TEST_CASES):
        op = op + case[1].scaled(CycNum.from_rational(D, c))
    op = op + ZERO_TEST_CASES[probe][2].scaled(CycNum.from_rational(D, c0))
    assert op.is_zero() == (c0 == 0)


def test_constant_numerators_on_one_core_cancel_in_the_normal_form():
    assert LinOp(D, [res(P, num=-ONE), res(P, num=ONE)]).terms == ()


def test_zero_entry_of_mixed_degree_shifts_has_no_degree_but_is_fine():
    z = ZERO_TEST_CASES[0][1] + ZERO_TEST_CASES[1][1]
    assert len(z.terms) == 5 and z.degree_shift() is None
    assert _entry_degree(z, D) == (None, True)


def test_polynomial_entry_degree_is_read_off_the_polynomial(monkeypatch):
    # no operator is built for a polynomial or scalar entry
    monkeypatch.setattr(LinOp, "poly", None)
    x, y = MPoly.var(D, "x"), MPoly.var(D, "y")
    assert _entry_degree(MPoly.zero(D), D) == (None, True)
    assert _entry_degree(CycNum.zero(D), D) == (None, True)
    assert _entry_degree(CycNum.one(D), D) == (0, True)
    assert _entry_degree(x * y - y**2, D) == (2, True)
    assert _entry_degree(x * y + x, D) == (None, False)


# -- the zero test by filter groups, against the full expansion ----------------------


def _expanded_is_zero(op):
    """Reference zero test: every term expanded over the independent maps."""
    groups: dict = {}
    for t in op.terms:
        for key, num, den in _basis_expansion(t):
            groups.setdefault(key, []).append((num, den))
    return all(_sum_fractions(op.d, parts)[0].is_zero() for parts in groups.values())


def _duality_morphisms(d):
    """u, n, ev, coev, F(e_1), the two zig-zags, and their twists by a = 1."""
    u, n, T, _ = duality_un(d)
    ev, coev = ev_coev(T)
    base = [u, n, ev, coev, evaluate_F(tl_e(d, 2, 1)), *zigzag_morphisms(d)]
    return base + [twist_morphism(f, 1) for f in base]


def _operator_entries(morphisms):
    return [e for f in morphisms for mat in (f.f0, f.f1) for row in mat for e in row if isinstance(e, LinOp)]


def _delta_differences(f):
    """d_tgt . f - (-1)^|f| f . d_src entry by entry: zero operators when f is a cycle."""
    sign = -1 if f.z2_degree else 1
    for a, b in f._delta_terms():
        for ra, rb in zip(a, b):
            for x, y in zip(ra, rb):
                yield as_linop(x, f.d) - as_linop(y, f.d).scaled(sign)


def _perturbed(op, group):
    """op with one premultiplier coefficient of the group's first term raised by 1,
    at a monomial its substitution keeps."""
    t = group[0]
    m = next(m for m in t.core.prem.terms if not t.phi.apply(MPoly(op.d, {m: CycNum.one(op.d)})).is_zero())
    c = t.core
    core = ResidueCore(c.prem + MPoly(op.d, {m: CycNum.one(op.d)}), c.elim, c.inj, c.injc, c.step)
    return LinOp(op.d, [Term(t.num, t.phi, core) if u is t else u for u in op.terms])


@pytest.mark.parametrize("d", [3, 5, 7])
def test_zero_test_agrees_with_the_full_expansion_on_the_duality_data(d):
    morphisms = _duality_morphisms(d)
    entries = _operator_entries(morphisms)
    deltas = [diff for f in morphisms for diff in _delta_differences(f)]
    ops = entries + [a - b for i, a in enumerate(entries) for b in entries[:i]] + deltas
    for op in ops:
        assert op.is_zero() == _expanded_is_zero(op)
    # every morphism is a cycle, and the filter-group sums decide some of its squares
    assert all(op.is_zero() for op in deltas)
    decided = [(op, g) for op in deltas for g in _zero_test_parts(op.terms)[0]]
    assert decided
    # negative control: one perturbed coefficient in an isolated group is seen
    for op, group in decided:
        bad = _perturbed(op, group)
        assert _zero_test_parts(bad.terms)[0]
        assert not bad.is_zero() and not _expanded_is_zero(bad)


COLLIDING_CASES = [
    # (name, zero operator, the same with one coefficient perturbed)
    (
        "injection scalars differing by a root of unity",
        LinOp(D, [res(P, num=X), res(P, num=Z), res(-P, injc=OMEGA, num=X + Z)]),
        LinOp(D, [res(P, num=X), res(P, num=Z), res(-P, injc=OMEGA, num=X + 2 * Z)]),
    ),
    ("substitutions landing on filter maps", ZERO_TEST_CASES[3][1], ZERO_TEST_CASES[3][2]),
]


@pytest.mark.parametrize("name,zero,perturbed", COLLIDING_CASES, ids=[c[0] for c in COLLIDING_CASES])
def test_filter_groups_that_share_maps_are_expanded(name, zero, perturbed):
    for op, expect in ((zero, True), (perturbed, False)):
        isolated, parts = _zero_test_parts(op.terms)
        assert not isolated and parts
        assert op.is_zero() == _expanded_is_zero(op) == expect


# -- normal form once, and composition by regrouping ---------------------------------


@pytest.mark.parametrize("d", [3, 5])
def test_normal_terms_normalise_to_themselves(d):
    terms = [t for op in _operator_entries(_duality_morphisms(d)) for t in op.terms]
    assert any(t.core is not None for t in terms)
    for t in terms:
        out = t.normalized()
        assert len(out) == 1 and out[0] is t


def test_a_term_above_the_normal_form_is_rewritten():
    t = res(P * Y**3)
    out = t.normalized()
    assert out and all(u is not t for u in out)
    assert all(u.core is None or u.core.prem.degree_in("y") < D for u in out)
    for f in (ONE, Y, X * Y**2, Y**5 + Z):
        assert LinOp(D, out).apply(f) == t.apply(f)


def _term_key(t):
    core = None if t.core is None else (t.core.prem, t.core.elim, t.core.inj, t.core.injc, t.core.step)
    return t.num, t.phi.key(), core


@pytest.mark.parametrize("d", [3, 5])
def test_compose_builds_what_the_normalising_constructor_builds(d, monkeypatch):
    compose = LinOp.compose
    agree = []

    def checked(self, other):
        out = compose(self, other)
        b = as_linop(other, self.d)
        ref = LinOp(self.d, [t for t2 in self.terms for t1 in b.terms for t in _compose_terms(t2, t1)])
        agree.append([_term_key(t) for t in out.terms] == [_term_key(t) for t in ref.terms])
        return out

    monkeypatch.setattr(LinOp, "compose", checked)
    for check in build_checks(d, 1, ["core", "tl", "equivariance"]):
        assert check.run()["status"] == "pass"
    assert agree and all(agree)


# -- the operator protocol of matrix entries ----------------------------------------

OPERATORS = [op for case in ZERO_TEST_CASES for op in case[1:3]]


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("p", [X * Z - Y**2 + 3 * ONE, MPoly.constant(D, OMEGA)], ids=["poly", "constant"])
def test_operators_combine_with_polynomials(op, p):
    assert isinstance(p * op, LinOp) and p * op == op.scaled(p)
    assert op * p == op.compose(p)
    assert p + op == op + p
    assert (op == p) == op.equals(p)
    assert (op + p == p) == op.is_zero()


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("c", [-1, Fraction(2, 3), OMEGA], ids=["int", "fraction", "cycnum"])
def test_operators_combine_with_scalars(op, c):
    assert c * op == op.scaled(c)
    assert op * c == op.scaled(c)
    assert (op == c) == op.equals(c)


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("other", [X * Z - Y**2 + 3 * ONE, 2], ids=["poly", "int"])
def test_polynomial_or_scalar_minus_an_operator(op, other):
    # MPoly.var(3, 'x') - op and 2 - op used to raise TypeError while + worked
    diff = other - op
    assert isinstance(diff, LinOp)
    assert diff == as_linop(other, D) - op
    assert diff + op == other


OTHER = 5  # a modulus other than D
OTHER_OPERANDS = pytest.mark.parametrize(
    "other",
    [MPoly.var(OTHER, "x"), MPoly.one(OTHER), CycNum.one(OTHER), LinOp.poly(MPoly.one(OTHER))],
    ids=["poly", "one", "scalar", "operator"],
)


@OTHER_OPERANDS
def test_operator_arithmetic_with_another_modulus_raises(other):
    op = LinOp.substitution(D, {"y": (1, "x")})
    for combine in (
        lambda: op + other, lambda: other + op,
        lambda: op - other,
        lambda: op * other, lambda: other * op,
    ):
        with pytest.raises(ModulusMismatch):
            combine()


@OTHER_OPERANDS
def test_operator_equality_with_another_modulus_is_false(other):
    for op in (LinOp.substitution(D, {"y": (1, "x")}), LinOp.poly(ONE), LinOp.poly(X)):
        assert not op == other and op != other
        assert not other == op and other != op


@pytest.mark.parametrize("c", [CycNum.one(OTHER), CycNum.zeta(OTHER, 1), MPoly.var(OTHER, "x")])
def test_operator_scalings_of_another_modulus_raise(c):
    with pytest.raises(ModulusMismatch):
        LinOp.substitution(D, {"y": (1, "x")}).scaled(c)
    with pytest.raises(ModulusMismatch):
        LinOp.substitution(D, {"y": (1, "x")}, coeff=c)
    with pytest.raises(ModulusMismatch):
        _entry_degree(c, D)


def test_substitution_scalar_of_another_modulus_raises():
    with pytest.raises(ModulusMismatch):
        Subst(D, {"x": (CycNum.one(OTHER), "y")})
    with pytest.raises(ModulusMismatch):
        LinOp.substitution(D, {"x": (CycNum.zeta(OTHER, 1), "x")})


@pytest.mark.parametrize("image", ["y", (1, "y", 2), (1, Y), [1, "y"]])
def test_malformed_substitution_image_raises_type_error(image):
    with pytest.raises(TypeError):
        Subst(D, {"x": image})
    # the same rule as MPoly.subs
    with pytest.raises(TypeError):
        X.subs({"x": image})


def test_substitution_images_are_normalised():
    half = CycNum.from_rational(D, Fraction(1, 2))
    phi = Subst(D, {"x": (0, "y"), "y": (1, "y"), "z": (Fraction(1, 2), "x")})
    assert phi.mapping == {"x": None, "z": (half, "x")}


def test_operators_are_unhashable_and_unequal_to_other_types():
    op = ZERO_TEST_CASES[0][2]
    with pytest.raises(TypeError):
        hash(op)
    assert op != "op" and op != None  # noqa: E711
    assert ZERO_TEST_CASES[0][1] == 0 and 0 == ZERO_TEST_CASES[0][1]


def test_operator_equality_with_a_bool_is_false():
    # a bool is no exact scalar, so it compares unequal, as a float does
    op = LinOp.poly(ONE)
    assert not op == True and op != True  # noqa: E712
    assert True not in [op]


# -- the residue reductions through div_rem, against the loops they replace --------------


def _loop_apply(core, f):
    """Reference core(f) = sum_m (injc*inj)^{step*m} coeff_elim(prem*f, step*(m+1)), summed power by power."""
    d = f.d
    g = core.prem * f
    out = MPoly.zero(d)
    if g.is_zero():
        return out
    parts = g.coeff_dict_in(core.elim)
    rhs = MPoly.var(d, core.inj, core.step) * core.injc_step
    weight = MPoly.one(d)  # (injc*inj)^{step*m} for k = step*(m+1)
    for k in range(core.step, max(parts) + 1, core.step):
        c = parts.get(k)
        if c is not None:
            out = out + weight * c
        weight = weight * rhs
    return out


def _loop_normalized(t):
    """Reference normal form: the top elim-power of prem rewritten by elim^step = (injc*inj)^step until
    every power is below step; the quotient, at elim = 0, splits off as an evaluation term."""
    d, core = t.num.d, t.core
    if core.prem.is_zero():
        return []
    elim = core.elim
    if core.prem.degree_in(elim) < core.step:
        return [t]
    rhs = MPoly.var(d, core.inj, core.step) * core.injc_step
    rem_parts = dict(core.prem.coeff_dict_in(elim))
    quot = MPoly.zero(d)
    while True:
        high = [k for k in rem_parts if k >= core.step and not rem_parts[k].is_zero()]
        if not high:
            break
        k = max(high)
        cur = rem_parts.pop(k)
        lower = k - core.step
        quot = quot + cur * MPoly.var(d, elim, lower)
        rem_parts[lower] = rem_parts.get(lower, MPoly.zero(d)) + cur * rhs
    rem = MPoly.zero(d)
    for k, c in rem_parts.items():
        rem = rem + c * MPoly.var(d, elim, k)
    out = []
    if not rem.is_zero():
        out.append(Term(t.num, t.phi, ResidueCore(rem, elim, core.inj, core.injc, core.step)))
    q0 = quot.subs({elim: None})
    if not q0.is_zero():
        out.append(Term(t.num * t.phi.apply(q0), t.phi.compose(Subst(d, {elim: None}))))
    return out


def _random_poly(rng, d, variables, max_exp, n_terms):
    """A seeded sparse polynomial with small rational multiples of roots of unity as coefficients."""
    terms = {}
    for _ in range(n_terms):
        m = frozenset((v, e) for v in variables if (e := rng.randrange(max_exp + 1)))
        c = CycNum.from_rational(d, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) * CycNum.zeta(d, rng.randrange(2 * d))
        terms[m] = terms[m] + c if m in terms else c
    return MPoly(d, terms)


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("elim,inj", [("y", "z"), ("y1", "y2"), ("y2", "z")])
def test_div_rem_reductions_agree_with_the_loops(d, elim, inj):
    rng = random.Random(1000 * d + len(elim + inj))
    steps = [s for s in range(1, 2 * d + 1) if (2 * d) % s == 0]
    variables = ("x", elim, inj)
    num, phi = MPoly.var(d, "x") + MPoly.one(d), Subst(d, {"x": (CycNum.zeta(d, 1), "x")})
    checked = rewritten = 0
    for step in steps:
        for injc in (CycNum.one(d), CycNum.zeta(d, 1), CycNum.zeta(d, 3)):
            for _ in range(2):
                prem = _random_poly(rng, d, variables, 2 * step + 1, 6)
                core = ResidueCore(prem, elim, inj, injc, step)
                t = Term(num, phi, core)
                out = t.normalized()
                assert [_term_key(u) for u in out] == [_term_key(u) for u in _loop_normalized(t)]
                rewritten += out != [t]
                for f in (MPoly.one(d), _random_poly(rng, d, variables, step + 2, 3)):
                    assert core.apply(f) == _loop_apply(core, f)
                    checked += 1
    assert checked == len(steps) * 3 * 2 * 2 and rewritten > len(steps) * 3
