import itertools
from fractions import Fraction
from math import gcd

import pytest

from permfact import temperleylieb
from permfact.cyclofield import CycNum, EvenModulus, NotCoprime, kappa, q_root, quantum_int
from permfact.graded import g_pair, graded_homotopy_degrees, graded_tensor, hat_p
from permfact.invariants import homotopy_solve, row_reduce
from permfact.mfcore import identity_morphism
from permfact.polyring import MPoly
from permfact.temperleylieb import (
    NotJonesWenzl,
    RootMismatch,
    StrandMismatch,
    TLDiagram,
    TLMorphism,
    TraceVanishes,
    UndefinedProjector,
    cap_layer,
    certify_jw,
    cup_layer,
    enumerate_diagrams,
    evaluate_F,
    jw,
    strand_object,
    tl_e,
    tl_end_dimension,
    tl_identity,
)

D = 5


class TestDiagrams:
    def test_planarity_enforced(self):
        with pytest.raises(ValueError):
            TLDiagram(4, 0, [(0, 2), (1, 3)])
        TLDiagram(4, 0, [(0, 3), (1, 2)])

    def test_catalan(self):
        assert [len(enumerate_diagrams(n, n)) for n in range(5)] == [1, 1, 2, 5, 14]

    def test_mixed_boundary(self):
        assert len(enumerate_diagrams(3, 1)) == 2
        assert len(enumerate_diagrams(2, 0)) == 1


class TestRelations:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ei_relations(self, n):
        for i in range(1, n):
            e = tl_e(D, n, i)
            assert e.compose(e).equals(e.scaled(kappa(D)))
            if i + 1 < n:
                e2 = tl_e(D, n, i + 1)
                assert e.compose(e2).compose(e).equals(e)
                assert e2.compose(e).compose(e2).equals(e2)
            for j in range(1, n):
                if abs(i - j) > 1:
                    ej = tl_e(D, n, j)
                    assert e.compose(ej).equals(ej.compose(e))

    def test_identity_unit(self):
        f = tl_e(D, 3, 2)
        assert tl_identity(D, 3).compose(f).equals(f)

    def test_tensor_of_identities(self):
        assert tl_identity(D, 2).tensor(tl_identity(D, 3)).equals(tl_identity(D, 5))

    def test_e1_as_tensor(self):
        e = tl_e(D, 2, 1).tensor(tl_identity(D, 1))
        assert e.equals(tl_e(D, 3, 1))

    def test_tensor_places_each_factor_in_one_mate_table(self):
        cup = TLMorphism.from_diagram(D, TLDiagram(0, 2, [(0, 1)]))
        [dg] = cup.tensor(tl_identity(D, 1)).combo
        assert dg == TLDiagram(1, 3, [(1, 2), (0, 3)]) and dg.pairs == ((0, 3), (1, 2))
        # distinct factor pairs give distinct diagrams, each equal to the validated one
        a, b = jw(3, D), jw(2, D)
        ab = a.tensor(b)
        assert len(ab.combo) == len(a.combo) * len(b.combo)
        factors = [(c1, c2) for c1 in a.combo.values() for c2 in b.combo.values()]
        for (c1, c2), (dg, c) in zip(factors, ab.combo.items()):
            checked = TLDiagram(dg.n_bottom, dg.n_top, dg.pairs)
            assert checked == dg and hash(checked) == hash(dg) and checked.mate == dg.mate
            assert c == c1 * c2

    def test_diagram_zigzag(self):
        cap = TLMorphism.from_diagram(D, TLDiagram(2, 0, [(0, 1)]))
        cup = TLMorphism.from_diagram(D, TLDiagram(0, 2, [(0, 1)]))
        one = tl_identity(D, 1)
        assert cap.tensor(one).compose(one.tensor(cup)).equals(one)
        assert one.tensor(cap).compose(cup.tensor(one)).equals(one)

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            tl_e(D, 2, 1).compose(tl_identity(D, 3))


class TestTrace:
    def test_identity_loops(self):
        for n in (1, 2, 3):
            assert tl_identity(D, n).trace() == kappa(D) ** n

    def test_e_trace(self):
        assert tl_e(D, 2, 1).trace() == kappa(D)


def _unchecked_diagram(n_bottom, n_top, pairs):
    """A TLDiagram built without the planarity check."""
    mate = [0] * (n_bottom + n_top)
    for p, q in pairs:
        mate[p], mate[q] = q, p
    return TLDiagram._from_mate(n_bottom, n_top, mate)


class TestJonesWenzl:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_idempotent_killed_traced(self, d):
        """The two-sided reference: the expansion of p p and of every e_i p
        and p e_i cross-checks the one-sided certificate of certify_jw."""
        q = q_root(d)
        for n in range(1, d):
            p = jw(n, d)
            certify_jw(p)
            assert p.compose(p).equals(p)
            for i in range(1, n):
                assert not tl_e(d, n, i).compose(p).combo
                assert not p.compose(tl_e(d, n, i)).combo
            assert p.trace() == quantum_int(n + 1, q)

    def test_perturbed_coefficient_fails_characterisation(self):
        # e_1 D is a nonzero multiple of a diagram for every D, so e_1 is
        # the first generator to see any single bumped coefficient
        p = jw(4, D)
        for dg in enumerate_diagrams(4, 4):
            if dg == temperleylieb.tl_identity_diagram(4):
                continue
            bumped = p + TLMorphism.from_diagram(D, dg).scaled(Fraction(1, 3))
            with pytest.raises(NotJonesWenzl, match=r"^e_1 p_4 != 0$"):
                certify_jw(bumped)

    def test_perturbed_identity_coefficient_fails_characterisation(self):
        p = jw(4, D)
        with pytest.raises(NotJonesWenzl, match="identity coefficient"):
            certify_jw(p + tl_identity(D, 4))

    def test_certificate_is_remembered_for_that_projector_only(self, monkeypatch):
        p = jw(4, D)
        certify_jw(p)
        with monkeypatch.context() as m:
            m.setattr(TLMorphism, "compose", None)  # certifying p again composes nothing
            certify_jw(p)
        bumped = p + tl_e(D, 4, 2)
        for _ in range(2):  # another morphism on the same (n, d, l); a failure is never remembered
            with pytest.raises(NotJonesWenzl):
                certify_jw(bumped)

    def test_certificate_needs_an_endomorphism(self):
        with pytest.raises(StrandMismatch):
            certify_jw(TLMorphism.from_diagram(D, TLDiagram(2, 0, [(0, 1)])))

    def test_p2_closed_form(self):
        p2 = jw(2, D)
        expect = tl_identity(D, 2) - tl_e(D, 2, 1).scaled(kappa(D).inverse())
        assert p2.equals(expect)

    def test_undefined_beyond_the_wall(self):
        with pytest.raises(UndefinedProjector):
            jw(D, D)

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_at_least_one_strand(self, n):
        # jw(0) used to return the 1-strand identity, which certify_jw accepts as p_1
        with pytest.raises(ValueError):
            jw(n, D)

    def test_cap_layers_kill(self):
        for n in (2, 3):
            p = jw(n, D)
            cap = TLMorphism.from_diagram(D, TLDiagram(2, 0, [(0, 1)]))
            for i in range(n - 1):
                layer = tl_identity(D, i).tensor(cap).tensor(tl_identity(D, n - i - 2))
                assert not layer.compose(p).combo


def _flip(dg):
    """The top-bottom flip of dg: bottom point j becomes top point j and back."""
    nb, nt = dg.n_bottom, dg.n_top
    at = [*range(nt, nt + nb), *range(nt)]
    mate = [0] * (nb + nt)
    for p, q in enumerate(dg.mate):
        mate[at[p]] = at[q]
    return TLDiagram._from_mate(nt, nb, mate)


def _reflected(m, reflect):
    """The morphism m with each diagram reflected, coefficients kept."""
    dgs = {reflect(dg): c for dg, c in m.combo.items()}
    [(nb, nt)] = {(dg.n_bottom, dg.n_top) for dg in dgs}
    return TLMorphism(m.d, nb, nt, dgs, m.l)


class TestOneSidedCertificate:
    """certify_jw forms e_i p for i <= n/2 and scans p against its mirror."""

    def test_reflections_respect_composition_and_loops(self):
        mirror = temperleylieb._mirror
        pairs = 0
        for a, b, c in itertools.product(range(5), repeat=3):
            for g in enumerate_diagrams(a, b):
                for h in (mirror(g), _flip(g)):  # planar, involutive
                    assert TLDiagram(h.n_bottom, h.n_top, h.pairs) == h
                assert mirror(mirror(g)) == g and _flip(_flip(g)) == g
                gm = TLMorphism.from_diagram(D, g)
                for f in enumerate_diagrams(b, c):
                    fm = TLMorphism.from_diagram(D, f)
                    fg = fm.compose(gm)  # one diagram times kappa^loops
                    # the mirror is an automorphism, the flip an anti-automorphism
                    assert _reflected(fg, mirror).combo == _reflected(fm, mirror).compose(_reflected(gm, mirror)).combo
                    assert _reflected(fg, _flip).combo == _reflected(gm, _flip).compose(_reflected(fm, _flip)).combo
                    pairs += 1
        assert pairs > 100
        for n in range(2, 5):
            for i in range(1, n):
                e = temperleylieb.e_diagram(n, i)
                assert mirror(e) == temperleylieb.e_diagram(n, n - i) and _flip(e) == e

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_projectors_are_reflection_symmetric(self, d):
        for n in range(1, d):
            p = jw(n, d)
            assert _reflected(p, temperleylieb._mirror).combo == p.combo
            assert _reflected(p, _flip).combo == p.combo

    def test_left_products_alone_do_not_certify(self):
        # identity coefficient 1 and e_1 X = 0, but X is not its mirror
        e1, e2 = tl_e(D, 3, 1), tl_e(D, 3, 2)
        x = jw(3, D) + e2 - e1.compose(e2).scaled(kappa(D).inverse())
        assert x.combo[temperleylieb.tl_identity_diagram(3)] == CycNum.one(D)
        assert not e1.compose(x).combo
        with pytest.raises(NotJonesWenzl, match=r"^p_3 differs from its left-right reflection$"):
            certify_jw(x)

    def test_floor_half_left_products_and_no_right_ones(self, monkeypatch):
        projectors = [jw(n, 7) for n in range(1, 7)]
        monkeypatch.setattr(temperleylieb, "_CERTIFIED", {})
        calls = []
        compose = TLMorphism.compose

        def counted(self, other):
            calls.append((self, other))
            return compose(self, other)

        monkeypatch.setattr(TLMorphism, "compose", counted)
        for n, p in enumerate(projectors, start=1):
            calls.clear()
            certify_jw(p)
            assert [left.combo for left, _ in calls] == [tl_e(7, n, i).combo for i in range(1, n // 2 + 1)]
            assert all(right is p for _, right in calls)
            assert not any(left is p for left, _ in calls)


def _two_sided_jw(n, d, l):
    """p_1, ..., p_n by Wenzl's two-sided recursion p_{k+1} = P - [k]/[k+1] P e_k P,
    P = p_k (x) 1: the reference for jw's one-sided expansion."""
    q = q_root(d, l)
    p = tl_identity(d, 1, l)
    yield p
    for k in range(1, n):
        coeff = quantum_int(k, q) * quantum_int(k + 1, q).inverse()
        pk1 = p.tensor(tl_identity(d, 1, l))
        p = pk1 - pk1.compose(tl_e(d, k + 1, k, l)).compose(pk1).scaled(coeff)
        yield p


def _coprime(d):
    return [l for l in range(1, d) if gcd(l, d) == 1]


class TestOneSidedRecursion:
    @pytest.mark.parametrize("d, n_max", [(3, 2), (5, 4), (7, 6), (9, 7)])
    def test_equals_two_sided_recursion(self, d, n_max):
        for l in _coprime(d):
            for n, ref in enumerate(_two_sided_jw(n_max, d, l), start=1):
                assert jw(n, d, l).combo == ref.combo, (n, l)

    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_trace_separating_sandwich(self, d):
        """tr(e_1 (1 (x) p_{d-2})) = [d-1] = 1: the functional tl_end_dimension uses."""
        for l in _coprime(d):
            proj = tl_identity(d, 1, l).tensor(jw(d - 2, d, l))
            tr = tl_e(d, d - 1, 1, l).compose(proj).trace()
            assert tr == quantum_int(d - 1, q_root(d, l)) == CycNum.one(d)

    def test_built_once_however_l_is_spelled(self):
        p = jw(3, D)
        assert jw(3, D, 1) is p
        assert jw(3, D, l=1) is p
        assert jw(n=3, d=D, l=1) is p
        assert jw(3, D, 2) is jw(3, D, l=2)

    @pytest.mark.parametrize("fn, args", [(jw, (1, 4)), (jw, (1, 1)), (jw, (0, 4)), (tl_end_dimension, (4,))])
    def test_even_or_small_modulus(self, fn, args):
        # jw(1, 4) used to return the 1-strand identity
        with pytest.raises(EvenModulus):
            fn(*args)

    @pytest.mark.parametrize(
        "fn, args", [(jw, (1, 5, 5)), (jw, (2, 5, 5)), (jw, (2, 9, 3)), (tl_end_dimension, (5, 10))]
    )
    def test_root_exponent_not_coprime(self, fn, args):
        # jw(1, 5, 5) used to return the identity and jw(2, 5, 5) to raise DegenerateRoot
        with pytest.raises(NotCoprime):
            fn(*args)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (tl_e, (3, 2, 1, 3)),
            (tl_e, (9, 3, 1, 6)),
            (tl_identity, (5, 2, 10)),
            (TLMorphism.from_diagram, (15, TLDiagram(2, 0, [(0, 1)]), 5)),
        ],
    )
    def test_morphisms_reject_a_root_exponent_not_coprime(self, fn, args):
        # tl_e(3, 2, 1, 3) used to build a morphism that failed only at its first compose
        with pytest.raises(NotCoprime):
            fn(*args)

    @pytest.mark.parametrize(
        "fn, args",
        [(tl_e, (4, 2, 1)), (tl_identity, (1, 2)), (TLMorphism.from_diagram, (6, TLDiagram(0, 2, [(0, 1)])))],
    )
    def test_morphisms_reject_an_even_or_small_modulus(self, fn, args):
        with pytest.raises(EvenModulus):
            fn(*args)

    def test_vanishing_trace_is_not_a_dimension(self, monkeypatch):
        # certify_jw still traces p_{d-2}; only the trace on d - 1 strands is zeroed
        trace = TLMorphism.trace
        monkeypatch.setattr(TLMorphism, "trace", lambda m: CycNum.zero(D) if m.src == D - 1 else trace(m))
        with pytest.raises(TraceVanishes):
            tl_end_dimension(D)


def _full_span_rank(d, l):
    """Rank of the sandwiches of every diagram of TL_{d-1} by 1 (x) p_{d-2}."""
    n = d - 1
    proj = tl_identity(d, 1, l).tensor(jw(d - 2, d, l))
    basis_index = {}

    def vectorize(dg):
        m = proj.compose(TLMorphism.from_diagram(d, dg, l)).compose(proj)
        return {basis_index.setdefault(b, len(basis_index)): c for b, c in m.combo.items()}

    return len(row_reduce(vectorize(dg) for dg in enumerate_diagrams(n, n)))


def _joins_projector_strands(dg):
    """Some cap or cup joins two points of one row on strands 2..n."""
    n = dg.n_bottom
    return any(a // n == b // n and a % n and b % n for a, b in dg.pairs)


class TestEndDimensionSpanningSet:
    """tl_end_dimension spans by the identity and e_1 only."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_only_identity_and_e1_survive(self, n):
        survivors = {dg for dg in enumerate_diagrams(n, n) if not _joins_projector_strands(dg)}
        assert survivors == {temperleylieb.tl_identity_diagram(n), temperleylieb.e_diagram(n, 1)}

    @pytest.mark.parametrize("d", [5, 7])
    def test_two_diagrams_span_as_much_as_all(self, d):
        for l in range(1, d):
            if gcd(l, d) == 1:
                assert _full_span_rank(d, l) == tl_end_dimension(d, l) == 2


class TestInputGuards:
    def test_add_needs_equal_strand_counts(self):
        with pytest.raises(StrandMismatch):
            tl_identity(D, 2) + tl_e(D, 3, 1)

    def test_add_needs_one_root_exponent(self):
        # unguarded, the sum of an l = 1 and an l = 2 generator was an l = 1 morphism
        with pytest.raises(RootMismatch):
            tl_e(D, 2, 1, 1) + tl_e(D, 2, 1, 2)
        with pytest.raises(RootMismatch):
            tl_e(D, 2, 1, 1) - tl_e(7, 2, 1, 1)
        assert isinstance(RootMismatch(), ValueError)

    def test_compose_needs_one_root_exponent(self):
        # unguarded, e1 . e1 took kappa from the left factor: the two orders differed
        e1, e1_l2 = tl_e(D, 2, 1, 1), tl_e(D, 2, 1, 2)
        with pytest.raises(RootMismatch):
            e1.compose(e1_l2)
        with pytest.raises(RootMismatch):
            e1_l2.compose(e1)
        with pytest.raises(RootMismatch):
            tl_identity(D, 2, 1).compose(tl_identity(3, 2, 1))
        assert e1.compose(e1).equals(e1.scaled(kappa(D, 1)))

    def test_tensor_needs_one_root_exponent(self):
        with pytest.raises(RootMismatch):
            tl_identity(D, 1, 1).tensor(tl_identity(D, 1, 2))
        with pytest.raises(RootMismatch):
            tl_identity(D, 1, 1).tensor(tl_identity(3, 1, 1))
        assert tl_identity(D, 1, 2).tensor(tl_identity(D, 1, 2)).equals(tl_identity(D, 2, 2))

    @pytest.mark.parametrize("m, i", [(2, 1), (2, -1), (1, 0), (0, 0)])
    def test_cap_slot_out_of_range(self, m, i):
        with pytest.raises(StrandMismatch):
            cap_layer(3, m, i)

    @pytest.mark.parametrize("m, i", [(1, 2), (2, -1)])
    def test_cup_slot_out_of_range(self, m, i):
        with pytest.raises(StrandMismatch):
            cup_layer(3, m, i)

    def test_factorisation_that_loses_strands(self):
        # bottom 1 sits inside the bottom arc 0-2 but runs to the top
        dg = _unchecked_diagram(3, 1, [(0, 2), (1, 3)])
        with pytest.raises(StrandMismatch, match="lost strands"):
            evaluate_F(TLMorphism.from_diagram(3, dg))

    def test_through_strands_that_cross(self):
        dg = _unchecked_diagram(2, 2, [(0, 3), (1, 2)])
        with pytest.raises(StrandMismatch, match="not order preserving"):
            evaluate_F(TLMorphism.from_diagram(3, dg))

    def test_layers_that_end_on_the_wrong_strand_count(self, monkeypatch):
        monkeypatch.setattr(temperleylieb, "_factor_diagram", lambda dg: ([], [0]))
        with pytest.raises(StrandMismatch, match="end on 3 strands"):
            evaluate_F(tl_identity(3, 1))


class TestFunctor:
    def test_cap_cup_values(self):
        d = 3
        from permfact.mfcore import duality_un

        u, n, _, _ = duality_un(d)
        Fcap = evaluate_F(TLMorphism.from_diagram(d, TLDiagram(2, 0, [(0, 1)])))
        Fcup = evaluate_F(TLMorphism.from_diagram(d, TLDiagram(0, 2, [(0, 1)])))
        assert Fcap.equals(u.renamed({"y": "y1"}))
        assert Fcup.equals(n.renamed({"y": "y1"}))

    @pytest.mark.parametrize("d", [3, 5])
    def test_layers_are_cycles(self, d):
        # cap (5, 2) and cups (3, 1), (3, 2) have strands on both sides of the piece
        for m, i in ((3, 0), (3, 1), (5, 2)):
            assert cap_layer(d, m, i).is_cycle()
        for m, i in ((1, 0), (1, 1), (3, 1), (3, 2)):
            assert cup_layer(d, m, i).is_cycle()

    @pytest.mark.parametrize("d", [3, 5])
    def test_four_strand_relations(self, d):
        F = {i: evaluate_F(tl_e(d, 4, i)) for i in (1, 2, 3)}
        for f in F.values():
            assert f.compose(f).equals(f.scaled(kappa(d)))
        assert F[1].compose(F[2]).compose(F[1]).equals(F[1])
        assert F[2].compose(F[1]).compose(F[2]).equals(F[2])

    @pytest.mark.parametrize("d", [3, 5])
    def test_e1_squared(self, d):
        Fe1 = evaluate_F(tl_e(d, 2, 1))
        assert Fe1.is_cycle()
        assert Fe1.compose(Fe1).equals(Fe1.scaled(kappa(d)))

    @pytest.mark.parametrize("d", [3, 5])
    def test_three_strand_relations_strict(self, d):
        F1 = evaluate_F(tl_e(d, 3, 1))
        F2 = evaluate_F(tl_e(d, 3, 2))
        assert F1.compose(F2).compose(F1).equals(F1)
        assert F2.compose(F1).compose(F2).equals(F2)

    def test_identity_strand(self):
        d = 3
        F = evaluate_F(tl_identity(d, 2))
        assert F.equals(identity_morphism(strand_object(d, 2)))

    def test_linearity(self):
        d = 3
        e = tl_e(d, 2, 1)
        F = evaluate_F(e.scaled(2) - e)
        assert F.equals(evaluate_F(e))

    def test_jw2_vanishing_d3(self):
        d = 3
        Fp2 = evaluate_F(jw(2, d))
        gm, gp, Qm, Qp, AB = g_pair(d, 1, 1, 1)
        gm1 = gm.renamed({"y": "y1"})
        gp1 = gp.renamed({"y": "y1"})
        c_minus = Fp2.compose(gm1)
        assert c_minus.is_zero()
        c_plus = Fp2.compose(gp1)
        # both composites act as multiplications, so they are stored as polynomials
        for f in (c_minus, c_plus):
            assert all(isinstance(e, MPoly) for mat in (f.f0, f.f1) for row in mat for e in row)
        QpG = hat_p(d, {0, 1, 2})
        ABG = graded_tensor(hat_p(d, {1, 2}, "x", "y1"), hat_p(d, {1, 2}, "y1", "z"))
        tables = graded_homotopy_degrees(QpG, ABG)
        h = homotopy_solve(c_plus, c_plus.scaled(0), entry_degrees=tables)
        assert h is not None
        assert h.delta().equals(c_plus)
