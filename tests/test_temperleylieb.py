import pytest

from permfact.cyclofield import CycNum, kappa, q_root, quantum_int
from permfact.graded import g_pair, graded_homotopy_degrees, graded_tensor, hat_p
from permfact.invariants import homotopy_solve
from permfact.mfcore import identity_morphism, morphism_poly_form
from permfact.temperleylieb import (
    StrandMismatch,
    TLDiagram,
    TLMorphism,
    UndefinedProjector,
    cap_diagram,
    cap_layer,
    cup_diagram,
    cup_layer,
    enumerate_diagrams,
    evaluate_F,
    jw,
    strand_object,
    tl_dim,
    tl_e,
    tl_identity,
)

D = 5


class TestDiagrams:
    def test_planarity_enforced(self):
        with pytest.raises(ValueError):
            TLDiagram(4, 0, [(0, 2), (1, 3)])
        TLDiagram(4, 0, [(0, 3), (1, 2)])

    def test_catalan(self):
        assert tl_dim(0) == 1
        assert tl_dim(1) == 1
        assert tl_dim(2) == 2
        assert tl_dim(3) == 5
        assert tl_dim(4) == 14

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

    def test_diagram_zigzag(self):
        cap = TLMorphism.from_diagram(D, cap_diagram())
        cup = TLMorphism.from_diagram(D, cup_diagram())
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


class TestJonesWenzl:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_idempotent_killed_traced(self, d):
        q = q_root(d)
        for n in range(1, d):
            p = jw(n, d)
            assert p.compose(p).equals(p)
            for i in range(1, n):
                assert not tl_e(d, n, i).compose(p).combo
                assert not p.compose(tl_e(d, n, i)).combo
            assert p.trace() == quantum_int(n + 1, q)

    def test_p2_closed_form(self):
        p2 = jw(2, D)
        expect = tl_identity(D, 2) - tl_e(D, 2, 1).scaled(kappa(D).inverse())
        assert p2.equals(expect)

    def test_undefined_beyond_the_wall(self):
        with pytest.raises(UndefinedProjector):
            jw(D, D)

    def test_cap_layers_kill(self):
        for n in (2, 3):
            p = jw(n, D)
            cap = TLMorphism.from_diagram(D, cap_diagram())
            for i in range(n - 1):
                layer = tl_identity(D, i).tensor(cap).tensor(tl_identity(D, n - i - 2))
                assert not layer.compose(p).combo


class TestInputGuards:
    def test_add_needs_equal_strand_counts(self):
        with pytest.raises(StrandMismatch):
            tl_identity(D, 2) + tl_e(D, 3, 1)

    @pytest.mark.parametrize("m, i", [(2, 1), (2, -1), (1, 0), (0, 0)])
    def test_cap_slot_out_of_range(self, m, i):
        with pytest.raises(StrandMismatch):
            cap_layer(3, m, i)

    @pytest.mark.parametrize("m, i", [(1, 2), (2, -1)])
    def test_cup_slot_out_of_range(self, m, i):
        with pytest.raises(StrandMismatch):
            cup_layer(3, m, i)


class TestFunctor:
    def test_cap_cup_values(self):
        d = 3
        from permfact.mfcore import duality_un

        u, n, _, _ = duality_un(d)
        Fcap = evaluate_F(TLMorphism.from_diagram(d, cap_diagram()))
        Fcup = evaluate_F(TLMorphism.from_diagram(d, cup_diagram()))
        assert Fcap.equals(u.renamed({"y": "y1"}))
        assert Fcup.equals(n.renamed({"y": "y1"}))

    @pytest.mark.parametrize("d", [3, 5])
    def test_layers_are_cycles(self, d):
        for i in (0, 1):
            assert cap_layer(d, 3, i).is_cycle()
        for i in (0, 1):
            assert cup_layer(d, 1, i).is_cycle()

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
        c_minus = morphism_poly_form(Fp2.compose(gm1))
        assert c_minus.is_zero()
        c_plus = morphism_poly_form(Fp2.compose(gp1))
        QpG = hat_p(d, {0, 1, 2})
        ABG = graded_tensor(hat_p(d, {1, 2}, "x", "y1"), hat_p(d, {1, 2}, "y1", "z"))
        tables = graded_homotopy_degrees(QpG, ABG)
        h = homotopy_solve(c_plus, c_plus.scaled(0), entry_degrees=tables)
        assert h is not None
        assert h.delta().equals(c_plus)
