"""Command-line interface: verification suites, fusion tables, decompositions.

Exit codes: 0 = success, 1 = verification failure, 2 = usage error.
Report schema (JSON, sorted keys):

    {"d": int, "root_exponent": int,
     "checks": [{"name": str, "paper_ref": str, "status": "pass"|"fail"|"skipped",
                 "detail": str}],
     "tables": {...}}

Factorisation-side labels serialise as {"a": int, "lambda": int}, minimal-model
labels as {"l": int, "r": int}.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from . import cftside, correspondence, graded, invariants, mfcore, temperleylieb
from .cyclofield import CycNum, kappa
from .graded import GradedLabel
from .polyring import MPoly

SUITES = ("core", "graded", "tl", "cft", "equivariance", "equivalence")


class Check:
    def __init__(self, name, suite, ref, fn):
        self.name = name
        self.suite = suite
        self.ref = ref
        self.fn = fn

    def run(self):
        ok, detail = self.fn()
        return {"name": self.name, "paper_ref": self.ref, "status": "pass" if ok else "fail", "detail": detail}


def _consecutive_subsets(d):
    return [GradedLabel(d, a, lam).subset for a in range(d) for lam in range(d - 1)]


def _proper_subsets(d):
    out = []
    for mask in range(1, 2**d - 1):
        out.append(frozenset(i for i in range(d) if mask >> i & 1))
    return out


# -- core suite -------------------------------------------------------------------


def _core_checks(d, l):
    checks = []

    def factorisations():
        for lab in _consecutive_subsets(d):
            if not mfcore.verify_factorisation(mfcore.perm_mf(d, lab, l=l)):
                return False, f"failed on {sorted(lab)}"
        A = mfcore.perm_mf(d, {0, 1}, "x", "y1", l=l)
        B = mfcore.perm_mf(d, {1, 2}, "y1", "z", l=l)
        if not mfcore.verify_factorisation(mfcore.tensor_mf(A, B)):
            return False, "tensor product failed"
        return True, f"{d * (d - 1)} consecutive objects + a tensor product"

    checks.append(Check("factorisation_conditions", "core", "d1.d0 = d0.d1 = (x^d - y^d).1", factorisations))

    def duals():
        for lab in _consecutive_subsets(d):
            f = mfcore.perm_dual_iso(d, lab, l=l)
            if not f.is_cycle() or not invariants.is_homotopy_iso(f):
                return False, f"failed on {sorted(lab)}"
        return True, "dual comparison cycles are homology isomorphisms"

    checks.append(Check("dual_comparison_isos", "core", "(P_S)+ ~ P_{-S}", duals))

    def units():
        T = mfcore.perm_mf(d, {(d - 1) // 2, (d + 1) // 2}, "x", "z", l=l)
        lam, rho = mfcore.unit_isos(T)
        sl, sr = mfcore.unit_sections(T)
        ok = lam.is_cycle() and rho.is_cycle() and sl.is_cycle() and sr.is_cycle()
        ok = ok and mfcore.morphism_poly_form(lam.compose(sl)).equals(mfcore.identity_morphism(T))
        ok = ok and mfcore.morphism_poly_form(rho.compose(sr)).equals(mfcore.identity_morphism(T))
        ok = ok and invariants.is_homotopy_iso(lam) and invariants.is_homotopy_iso(rho)
        return ok, "unit isos are cycles with strict sections; homology-invertible"

    checks.append(Check("unit_isomorphisms", "core", "lambda_M, rho_M with strict sections", units))

    def evco():
        T = mfcore.perm_mf(d, {(d - 1) // 2, (d + 1) // 2}, l=l)
        ev, coev = mfcore.ev_coev(T)
        return ev.is_cycle() and coev.is_cycle(), "ev and coev are cycles"

    checks.append(Check("ev_coev_cycles", "core", "residue-operator duality maps", evco))

    def kap():
        u, n, T, t = mfcore.duality_un(d, l)
        un = mfcore.morphism_poly_form(u.compose(n))
        k = MPoly.constant(d, kappa(d, l))
        ok = un is not None and un.f0[0][0] == k and un.f1[0][0] == k
        extra = ""
        if d == 3 and l == 1:
            extra = "; kappa(3) = 1" if kappa(3) == CycNum.one(3) else "; kappa(3) != 1"
            ok = ok and kappa(3) == CycNum.one(3)
        return ok, f"u.n = kappa exactly (2cos(pi*{l}/{d}) ~ {kappa(d, l).to_complex().real:+.6f}){extra}"

    checks.append(Check("kappa_identity", "core", "u.n = kappa.1_I, kappa = 2cos(pi/d)", kap))

    def zigzag():
        zz1, zz2 = mfcore.zigzag_morphisms(d, l)
        p1 = mfcore.morphism_poly_form(zz1)
        p2 = mfcore.morphism_poly_form(zz2)
        if p1 is None or p2 is None:
            return False, "composites did not reduce to polynomial form"
        # an odd charge -1 homotopy hat(T) -> hat(T) has every entry forced to
        # zero, so homotopic to 1_T means equal to 1_T
        a = (d - 1) // 2
        T_hat = graded.hat_p(d, {a, a + 1}, l=l)
        table0, table1 = graded.graded_homotopy_degrees(T_hat, T_hat)
        if any(deg is not None for row in table0 + table1 for deg in row):
            return False, "graded degrees leave room for a nonzero homotopy"
        idT = mfcore.identity_morphism(zz1.src)
        if not (p1.equals(idT) and p2.equals(idT)):
            return False, "a composite differs from 1_T"
        return True, "both composites equal 1_T on the nose (graded bound leaves no homotopy freedom)"

    checks.append(Check("zigzag_identities", "core", "duality zig-zags for (T, u, n)", zigzag))
    return checks


# -- graded suite -----------------------------------------------------------------


def _graded_checks(d, l):
    checks = []

    def hats():
        for lab in _consecutive_subsets(d):
            if not graded.graded_check(graded.hat_p(d, lab, l=l)):
                return False, f"failed on {sorted(lab)}"
        return True, "charge-1 condition on every consecutive hat object"

    checks.append(Check("graded_objects", "graded", "hat(P_S) = P_S{(1-|S|)/d}", hats))

    def gpairs():
        count = 0
        for a in range(d):
            for b in range(d):
                for mu in range(1, d - 1):
                    res = graded.g_pair_certified(d, a, b, mu, l)
                    if not res["ok"]:
                        return False, f"(a,b,mu)=({a},{b},{mu}): {res}"
                    count += 1
        return True, f"{count} certified embedding pairs (cycles, charge 0, homology isos, dims)"

    checks.append(
        Check("decomposition_certificates", "graded", "g-/g+ embeddings of the two summands", gpairs)
    )

    def rigidity():
        subsets = _consecutive_subsets(d)
        for R in subsets:
            for S in subsets:
                dim = graded.graded_hom_dim(d, R, S, l)
                if dim != (1 if R == S else 0):
                    return False, f"dim hom({sorted(R)}, {sorted(S)}) = {dim}"
        return True, f"hom dimension is delta_RS over {len(subsets)}^2 pairs"

    checks.append(Check("graded_hom_rigidity", "graded", "charge-0 cycles are C.1 iff R = S", rigidity))

    def index_convention():
        aT = (d - 1) // 2
        unit = GradedLabel(d, 0, 0)
        plus = graded.decompose_product(d, aT, 1, aT, 1, l, index_sign=1)
        minus = graded.decompose_product(d, aT, 1, aT, 1, l, index_sign=-1)
        ok = unit in plus and unit not in minus
        detail = (
            "first summand index a+b+(lam+mu-nu)/2 certified by the homology oracle; "
            "the alternative a+b-(lam+mu-nu)/2 fails rigidity (unit absent from T (x) T: "
            f"{[s.key() for s in minus]})"
        )
        return ok, detail

    checks.append(
        Check("fusion_index_convention", "graded", "summand index fixed by rigidity of T", index_convention)
    )
    return checks


# -- temperley-lieb suite -----------------------------------------------------------


def _tl_checks(d, l):
    checks = []

    def relations():
        for n in (2, 3, 4):
            for i in range(1, n):
                e = temperleylieb.tl_e(d, n, i, l)
                if not e.compose(e).equals(e.scaled(kappa(d, l))):
                    return False, f"e_{i}^2 != kappa e_{i} on {n} strands"
                if i + 1 < n:
                    e2 = temperleylieb.tl_e(d, n, i + 1, l)
                    if not e.compose(e2).compose(e).equals(e):
                        return False, f"e_{i} e_{i + 1} e_{i} != e_{i}"
                for j in range(1, n):
                    if abs(i - j) > 1:
                        ej = temperleylieb.tl_e(d, n, j, l)
                        if not e.compose(ej).equals(ej.compose(e)):
                            return False, f"[e_{i}, e_{j}] != 0"
        return True, "loop, absorption, and commutation relations on up to 4 strands"

    checks.append(Check("tl_relations", "tl", "e_i^2 = kappa e_i; e_i e_{i+-1} e_i = e_i", relations))

    def projectors():
        # idempotence follows from the characterisation (temperleylieb.certify_jw)
        for n in range(1, d):
            try:
                temperleylieb.certify_jw(temperleylieb.jw(n, d, l))
            except temperleylieb.NotJonesWenzl as exc:
                return False, str(exc)
        return True, f"p_1..p_{d - 1}: idempotent, cap-killed, trace [n+1]"

    checks.append(Check("jones_wenzl_projectors", "tl", "recursion with [n]/[n+1] coefficients", projectors))

    def functor_relations():
        e1 = temperleylieb.tl_e(d, 2, 1, l)
        Fe1 = temperleylieb.evaluate_F(e1)
        if not Fe1.is_cycle():
            return False, "F(e_1) is not a cycle"
        if not Fe1.compose(Fe1).equals(Fe1.scaled(kappa(d, l))):
            return False, "F(e_1)^2 != kappa F(e_1)"
        zz1, zz2 = mfcore.zigzag_morphisms(d, l)
        idT = mfcore.identity_morphism(zz1.src)
        ok = mfcore.morphism_poly_form(zz1).equals(idT) and mfcore.morphism_poly_form(zz2).equals(idT)
        return ok, "F(e_1)^2 = kappa F(e_1) strictly; zig-zag composites equal 1_T"

    checks.append(Check("functor_respects_relations", "tl", "cap -> u, cup -> n functor data", functor_relations))

    if d == 3:

        def jw_vanishing():
            p2 = temperleylieb.jw(2, d, l)
            Fp2 = temperleylieb.evaluate_F(p2)
            gm, gp, Qm, Qp, AB = graded.g_pair(d, 1, 1, 1, l)
            gm1 = gm.renamed({"y": "y1"})
            gp1 = gp.renamed({"y": "y1"})
            c_minus = mfcore.morphism_poly_form(Fp2.compose(gm1))
            c_plus = mfcore.morphism_poly_form(Fp2.compose(gp1))
            if not c_minus.is_zero():
                return False, "F(p_2) does not kill the surviving summand"
            QpG = graded.hat_p(d, {0, 1, 2}, l=l)
            ABG = graded.graded_tensor(
                graded.hat_p(d, {1, 2}, "x", "y1", l=l), graded.hat_p(d, {1, 2}, "y1", "z", l=l)
            )
            t0g, t1g = graded.graded_homotopy_degrees(QpG, ABG)
            zero = c_plus.scaled(0)
            h = invariants.homotopy_solve(c_plus, zero, entry_degrees=(t0g, t1g))
            ok = h is not None and h.delta().equals(c_plus)
            return ok, "F(p_2).g- = 0 strictly; F(p_2).g+ null-homotopic at the forced charge"

        checks.append(Check("jw_vanishing_direct", "tl", "null-homotopy of F(p_{d-1})", jw_vanishing))
    else:

        def jw_vanishing_indirect():
            # factorisation side: T (x) P_{a:d-2} is a single simple summand
            aT = (d - 1) // 2
            summands = graded.decompose_product(d, aT, 1, 0, d - 2, l)
            if len(summands) != 1:
                return False, f"tensor with the top label has {len(summands)} summands"
            s = summands[0]
            mf_dim = graded.graded_hom_dim(d, s.subset, s.subset, l)
            res = graded.g_pair_certified(d, aT, 0, d - 2, l)
            if not res["ok"]:
                return False, "decomposition certificate failed at mu = d-2"
            # diagram side: End(T (x) T_{d-2}) is 2-dimensional
            try:
                tl_dim_end = _tl_end_dimension(d, l)
            except temperleylieb.NotJonesWenzl as exc:
                return False, f"the spanning set needs p_{d - 2}: {exc}"
            ok = mf_dim == 1 and tl_dim_end == 2
            return ok, (
                f"dim End(T^ (x) P^_{{a:{d - 2}}}) = {mf_dim} < {tl_dim_end} = "
                "dim End_TL(T (x) T_{d-2}): the functor is not faithful"
            )

        checks.append(
            Check("jw_vanishing_endomorphism_count", "tl", "non-faithfulness by dimension count", jw_vanishing_indirect)
        )
    return checks


def _tl_end_dimension(d, l):
    """dim of (1 (x) p_{d-2}) TL_{d-1} (1 (x) p_{d-2}), spanned by 2 diagrams.

    The sandwiches P D P of the diagrams D of TL_{d-1}, P = 1 (x) p with
    p = p_{d-2} on strands 2..d-1, span the space.  Once p is certified
    (temperleylieb.certify_jw; raises NotJonesWenzl otherwise), all but two
    vanish: a diagram with a bottom cap on strands i, i+1 >= 2 satisfies
    D = kappa^{-1} D e_i, and e_i P = 0 because e_{i-1} p = 0; a top cup on
    such strands gives D = kappa^{-1} e_i D, and P e_i = 0 likewise.  Every
    cap of a diagram encloses an innermost one on adjacent points, so a
    survivor's only possible bottom cap and top cup join strands 1 and 2:
    the survivors are the identity and e_1.  The identity's sandwich is
    P P = P, as p is idempotent; e_1's is expanded.  The rank of the two
    vectors is the dimension.
    """
    n = d - 1
    p = temperleylieb.jw(d - 2, d, l)
    temperleylieb.certify_jw(p)
    proj = temperleylieb.tl_identity(d, 1, l).tensor(p)
    e1 = temperleylieb.tl_e(d, n, 1, l)
    basis_index = {}

    def vectorize(m):
        return {basis_index.setdefault(b, len(basis_index)): c for b, c in m.combo.items()}

    return len(invariants.row_reduce([vectorize(proj), vectorize(proj.compose(e1).compose(proj))]))


# -- cft suite --------------------------------------------------------------------


def _cft_checks(d, l):
    checks = []

    def weights():
        ok = cftside.h_weight(d, d - 2, d, 2) == 0
        ok = ok and cftside.h_weight(d, 0, 0, 0) == 0
        return ok, "h(d-2, d, 2) = 0 mod 1; h(0,0,0) = 0"

    checks.append(Check("conformal_weights", "cft", "h = l(l+2)/4d + s^2/8 - r^2/4d", weights))

    def locality():
        for ll in range(d - 1):
            for r in range(2 * d):
                for s in range(4):
                    a, b = cftside.induce(d, ll, r, s)
                    diff = cftside.h_weight(d, b.l, b.r, b.s) - cftside.h_weight(d, a.l, a.r, a.s)
                    if (diff.denominator == 1) != cftside.is_local(d, ll, r, s):
                        return False, f"mismatch at [{ll},{r},{s}]"
        return True, f"parity criterion matches the weight computation on all {8 * d * (d - 1)} labels"

    checks.append(Check("locality_classification", "cft", "local iff l+r+s even", locality))

    def twists():
        ok = cftside.twist_additive(d, cftside.SimpleE(d, 0, 2, 0), cftside.SimpleE(d, 1, d, 0))
        return ok, "[0,2,0] centralises the tensor generator"

    checks.append(Check("twist_additivity", "cft", "Muger-centraliser membership of [0,2,0]", twists))

    def dims():
        if cftside.quantum_dim(d, 1, l) != kappa(d, l):
            return False, "dim[1] != kappa"
        for a in range(d - 1):
            for b in range(d - 1):
                lhs = cftside.quantum_dim(d, a, l) * cftside.quantum_dim(d, b, l)
                rhs = CycNum.zero(d)
                for m in cftside.su2_fuse(d, a, b):
                    rhs = rhs + cftside.quantum_dim(d, m, l)
                if lhs != rhs:
                    return False, f"dimension homomorphism fails at ({a},{b})"
        return True, "dim[1] = kappa; dims are multiplicative on fusion"

    checks.append(Check("quantum_dimensions", "cft", "dim[l] = [l+1]_q at q = e^{i pi/d}", dims))

    def ring():
        R = cftside.cft_fusion_ring(d)
        ok = (
            len(R.labels) == d * (d - 1)
            and R.unit_ok()
            and R.is_commutative()
            and R.is_associative()
            and R.rigid_dual_ok(lambda L: L.dual())
            and cftside.generators_reach_all(d)
            and cftside.factorisation_ok(d)
        )
        return ok, f"{d * (d - 1)} NS labels; ring axioms, generators, and the product factorisation"

    checks.append(Check("ns_fusion_ring", "cft", "NS sector = su(2)-type part x Z_d", ring))
    return checks


# -- equivariance suite --------------------------------------------------------------


# tau_cocycle and mu_hexagon_strict cover every proper subset and every triple
# up to this d.  Beyond it they cover a declared part, named in the detail,
# until the full runs at d = 9 are measured.
FULL_EQUIVARIANCE_MAX_D = 7


def _equivariance_checks(d, l):
    checks = []
    full = d <= FULL_EQUIVARIANCE_MAX_D
    cut = f"cut at d > {FULL_EQUIVARIANCE_MAX_D}"

    def cocycle():
        if full:
            subsets, scope = _proper_subsets(d), ""
        else:
            subsets = _consecutive_subsets(d)
            scope = f" (the consecutive ones of {2**d - 2} proper subsets, {cut})"
        for S in subsets:
            if not correspondence.tau_cocycle_ok(d, S, l):
                return False, f"failed on {sorted(S)}"
        return True, f"tau cocycle over {len(subsets)} subsets{scope}, all group pairs"

    checks.append(Check("tau_cocycle", "equivariance", "((a)tau_b).tau_a = tau_{a+b}", cocycle))

    def un_eq():
        return correspondence.un_equivariant_ok(d, l), "u and n intertwine the twists"

    checks.append(Check("duality_maps_equivariant", "equivariance", "equivariance squares of u, n", un_eq))

    def coev_eq():
        for S in ({0}, {1, 2}):
            if not correspondence.coev_square_ok(d, S, l):
                return False, f"failed on {sorted(S)}"
        return True, "coevaluation squares commute"

    checks.append(Check("coev_equivariant", "equivariance", "coev squares of P_S", coev_eq))

    def hexagon():
        if full:
            triples, scope = [(a, b, c) for a in range(d) for b in range(d) for c in range(d)], ""
        else:
            triples = [(a, b, c) for a in range(d) for b in (0, 1, d - 1) for c in (0, 2)]
            scope = f" (b in {{0, 1, d-1}}, c in {{0, 2}}, of {d**3}, {cut})"
        for (a, b, c) in triples:
            if not _hexagon_ok(d, a, b, c, l):
                return False, f"failed at {(a, b, c)}"
        return True, f"strict associativity of mu over {len(triples)} triples{scope}"

    checks.append(Check("mu_hexagon_strict", "equivariance", "mu_{a,b+c}(1 x mu) = mu_{a+b,c}(mu x 1)", hexagon))

    def chi_perm():
        for a in range(d):
            si = mfcore.s_iso(d, {0}, a, 0, l=l)
            if not (si.is_cycle() and invariants.is_homotopy_iso(si)):
                return False, f"failed at a = {a}"
        return True, "chi(a) ~ P_{-a} certified by homology"

    checks.append(Check("chi_is_permutation_type", "equivariance", "(a)I ~ P_{-a}", chi_perm))
    return checks


def _hexagon_ok(d, a, b, c, l=1):
    mu_bc = mfcore.renamed_mu(d, b, c, {"x": "y1", "y1": "y2"}, l)
    ca = mfcore.chi(d, a, "x", "y1", l)
    step1 = mfcore.tensor_morphism(mfcore.identity_morphism(ca), mu_bc)
    mu_a_bc = mfcore.mu(d, a, (b + c) % d, l)
    src_left = mfcore.tensor_mf(
        mfcore.tensor_mf(ca, mfcore.chi(d, b, "y1", "y2", l)), mfcore.chi(d, c, "y2", "z", l)
    )
    p1 = mu_a_bc.compose(step1).compose(mfcore.reassoc(src_left, step1.src))
    mu_ab = mfcore.renamed_mu(d, a, b, {"z": "y2"}, l)
    cc = mfcore.chi(d, c, "y2", "z", l)
    step2 = mfcore.tensor_morphism(mu_ab, mfcore.identity_morphism(cc))
    mu_ab_c = mfcore.renamed_mu(d, (a + b) % d, c, {"y1": "y2"}, l)
    p2 = mu_ab_c.compose(step2).compose(mfcore.reassoc(src_left, step2.src))
    return p1.equals(p2)


# -- equivalence suite ----------------------------------------------------------------


def _equivalence_checks(d, l):
    checks = []

    def run_all():
        results = correspondence.verify_equivalence(d, l)
        bad = [name for name, ok, _ in results if not ok]
        detail = "; ".join(f"{name}: {detail}" for name, _, detail in results)
        return not bad, detail

    checks.append(
        Check("fusion_ring_equivalence", "equivalence", "[l, l+2m] -> m:l matches all structure constants", run_all)
    )
    return checks


def build_checks(d, l, suites):
    builders = {
        "core": _core_checks,
        "graded": _graded_checks,
        "tl": _tl_checks,
        "cft": _cft_checks,
        "equivariance": _equivariance_checks,
        "equivalence": _equivalence_checks,
    }
    out = []
    for s in SUITES:
        if s in suites:
            out.extend(builders[s](d, l))
    return out


# -- tables and serialisation ---------------------------------------------------------


def mf_label_json(lbl: GradedLabel):
    return {"a": lbl.a, "lambda": lbl.lam}


def cft_label_json(lbl):
    return {"l": lbl.l, "r": lbl.r}


def fusion_table(d, l, side):
    if side == "mf":
        ring = graded.mf_fusion_ring(d, l)
        ser = mf_label_json
        key = lambda lbl: (lbl.a, lbl.lam)
    else:
        ring = cftside.cft_fusion_ring(d)
        ser = cft_label_json
        key = lambda lbl: (lbl.l, lbl.r)
    labels = sorted(ring.labels, key=key)
    rows = []
    for i in labels:
        for j in labels:
            summands = [
                {"label": ser(k), "multiplicity": m}
                for k, m in sorted(ring.product(i, j).items(), key=lambda kv: key(kv[0]))
            ]
            rows.append({"left": ser(i), "right": ser(j), "summands": summands})
    return {"side": side, "labels": [ser(x) for x in labels], "products": rows}


def render_markdown_table(table):
    labels = table["labels"]
    def name(lab):
        if "lambda" in lab:
            return f"{lab['a']}:{lab['lambda']}"
        return f"[{lab['l']},{lab['r']}]"
    index = {json.dumps(lab, sort_keys=True): k for k, lab in enumerate(labels)}
    lines = ["| (x) | " + " | ".join(name(lab) for lab in labels) + " |"]
    lines.append("|" + "---|" * (len(labels) + 1))
    grid = {}
    for row in table["products"]:
        i = index[json.dumps(row["left"], sort_keys=True)]
        j = index[json.dumps(row["right"], sort_keys=True)]
        cell = " + ".join(
            (f"{s['multiplicity']}." if s["multiplicity"] > 1 else "") + name(s["label"])
            for s in row["summands"]
        )
        grid[(i, j)] = cell or "0"
    for i, lab in enumerate(labels):
        lines.append(
            "| " + name(lab) + " | " + " | ".join(grid[(i, j)] for j in range(len(labels))) + " |"
        )
    return "\n".join(lines)


def report_json(d, l, results, tables=None):
    return {
        "d": d,
        "root_exponent": l,
        "checks": results,
        "tables": tables or {},
    }


def render_markdown_report(rep):
    lines = [f"# verification report (d = {rep['d']}, root exponent = {rep['root_exponent']})", ""]
    lines.append("| check | status | detail |")
    lines.append("|---|---|---|")
    for c in rep["checks"]:
        lines.append(f"| {c['name']} | {c['status']} | {c['detail']} |")
    return "\n".join(lines)


# -- commands --------------------------------------------------------------------------


def _emit(payload, fmt, markdown_renderer):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        print(markdown_renderer(payload))


def cmd_verify(args):
    suites = set(args.suites.split(",")) if args.suites else set(SUITES)
    unknown = suites - set(SUITES)
    if unknown:
        raise UsageError(f"unknown suites: {sorted(unknown)}")
    results = [c.run() for c in build_checks(args.d, args.root_exponent, suites)]
    rep = report_json(args.d, args.root_exponent, results)
    _emit(rep, args.format, render_markdown_report)
    return 0 if all(c["status"] == "pass" for c in results) else 1


def cmd_fusion_table(args):
    table = fusion_table(args.d, args.root_exponent, args.side)
    rep = report_json(args.d, args.root_exponent, [], {"fusion": table})
    if args.format == "json":
        _emit(rep, "json", None)
    else:
        print(render_markdown_table(table))
    return 0


def _parse_label(text):
    try:
        a, lam = text.split(":")
        return int(a), int(lam)
    except ValueError as exc:
        raise UsageError(f"labels look like a:lambda, got {text!r}") from exc


def cmd_decompose(args):
    a, lam = _parse_label(args.left)
    b, mu = _parse_label(args.right)
    d = args.d
    if not (0 <= lam <= d - 2 and 0 <= mu <= d - 2):
        raise UsageError(f"lambda indices must lie in 0..{d - 2}")
    summands = graded.decompose_product(d, a, lam, b, mu, args.root_exponent)
    payload = {
        "left": {"a": a % d, "lambda": lam},
        "right": {"a": b % d, "lambda": mu},
        "summands": [mf_label_json(s) for s in summands],
    }
    certificate = None
    if lam == 1 and 1 <= mu <= d - 2:
        res = graded.g_pair_certified(d, a, b, mu, args.root_exponent)
        certificate = {
            "cycles": res["cycle_minus"] and res["cycle_plus"],
            "charge_zero": res["degree_minus"] == 0 and res["degree_plus"] == 0,
            "homology_isomorphism": res["homology_iso"],
            "homology_dims": list(res["dims"]),
        }
    elif lam == 0:
        certificate = {"route": "unit-type factor absorbed by the twist comparison"}
    if certificate:
        payload["certificate"] = certificate
    rep = report_json(d, args.root_exponent, [], {"decomposition": payload})

    def render(rep):
        lines = [
            f"{payload['left']['a']}:{payload['left']['lambda']} (x) "
            f"{payload['right']['a']}:{payload['right']['lambda']} = "
            + " (+) ".join(f"{s['a']}:{s['lambda']}" for s in payload["summands"])
        ]
        if certificate:
            lines.append(f"certificate: {json.dumps(certificate, sort_keys=True)}")
        return "\n".join(lines)

    _emit(rep, args.format, render)
    return 0


def cmd_compare(args):
    suites = {"equivalence", "graded"}
    results = [c.run() for c in build_checks(args.d, args.root_exponent, suites)]
    rep = report_json(args.d, args.root_exponent, results)
    _emit(rep, args.format, render_markdown_report)
    return 0 if all(c["status"] == "pass" for c in results) else 1


class UsageError(ValueError):
    pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="permfact",
        description="Exact verification of the permutation-type factorisation / NS-sector dictionary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--d", type=int, required=True, help="odd modulus >= 3")
        p.add_argument("--root-exponent", type=int, default=1, dest="root_exponent",
                       help="use the primitive root eta^l (gcd(l, d) = 1)")
        p.add_argument("--format", choices=("json", "markdown"), default="json")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--suites", default=None, help=f"comma-separated from {','.join(SUITES)}")
    p_verify.set_defaults(fn=cmd_verify)

    p_table = sub.add_parser("fusion-table", help="print all pairwise products")
    common(p_table)
    p_table.add_argument("--side", choices=("cft", "mf"), required=True)
    p_table.set_defaults(fn=cmd_fusion_table)

    p_dec = sub.add_parser("decompose", help="decompose a product of consecutive labels")
    common(p_dec)
    p_dec.add_argument("left", help="label a:lambda")
    p_dec.add_argument("right", help="label b:mu")
    p_dec.set_defaults(fn=cmd_decompose)

    p_cmp = sub.add_parser("compare", help="compare the two fusion rings under the dictionary")
    common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def validate(args, parser):
    if args.d < 3 or args.d % 2 == 0:
        parser.error(f"--d must be an odd integer >= 3, got {args.d}")
    if gcd(args.root_exponent, args.d) != 1:
        parser.error(f"--root-exponent must be coprime to d, got {args.root_exponent}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate(args, parser)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
