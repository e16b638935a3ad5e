"""Acceptance suite: every criterion is exact arithmetic; each test prints one
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import pytest

from permfact import cftside, correspondence, graded, invariants, mfcore, temperleylieb
from permfact.checks import build_checks
from permfact.correspondence import label_map, verify_equivalence
from permfact.cyclofield import CycNum, kappa, q_root, quantum_int
from permfact.graded import GradedLabel
from permfact.polyring import MPoly


def report(n, title, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {n}: {title}{(' -- ' + extra) if extra else ''}")
    assert ok, f"criterion {n} failed: {title}"


def test_criterion_01_kappa_identity():
    """u.n = kappa(d).1_I exactly in Q(zeta_2d) for d in {3,5,7}; kappa(3) = 1."""
    start = time.time()
    ok = kappa(3) == CycNum.one(3)
    for d in (3, 5, 7):
        t0 = time.time()
        u, n, _, _ = mfcore.duality_un(d)
        un = u.compose(n)
        k = MPoly.constant(d, kappa(d))
        ok = ok and un.f0[0][0] == k and un.f1[0][0] == k
        ok = ok and (time.time() - t0) < 1.0
    report(1, "kappa identity (exact, < 1 s per d)", ok, f"{time.time() - start:.2f} s total")


def test_criterion_02_zigzag_identities():
    """Both zig-zag composites homotopic to 1_T, graded bound definitive, d in {3,5}."""
    ok = True
    for d in (3, 5):
        zz1, zz2 = mfcore.zigzag_morphisms(d)
        idT = mfcore.identity_morphism(zz1.src)
        # charge bookkeeping forces the homotopy to vanish, so homotopic = equal
        T_hat = graded.hat_p(d, {(d - 1) // 2, (d + 1) // 2}, "x", "z")
        t0, t1 = graded.graded_homotopy_degrees(T_hat, T_hat)
        forced_trivial = all(e is None for row in t0 + t1 for e in row)
        ok = ok and forced_trivial
        ok = ok and zz1.equals(idT) and zz2.equals(idT)
    report(2, "duality zig-zags for (T, u, n), d in {3,5}", ok)


def test_criterion_03_decomposition_certificates():
    """g-/g+ are charge-0 cycles inducing homology isos; dims (2,2)/(1,1)."""
    start = time.time()
    ok = True
    for d in (3, 5, 7):
        t0 = time.time()
        for a in range(d):
            for b in range(d):
                for mu in range(1, d - 1):
                    res = graded.g_pair_certified(d, a, b, mu)
                    ok = ok and res["ok"]
        if d == 7:
            ok = ok and (time.time() - t0) < 60.0
    report(3, "graded decomposition certificates, d in {3,5,7}", ok, f"{time.time() - start:.1f} s")


def test_criterion_04_fusion_ring_isomorphism():
    """Structure constants agree under the label dictionary for every pair."""
    start = time.time()
    ok = True
    for d in (3, 5, 7):
        t0 = time.time()
        results = verify_equivalence(d)
        ok = ok and all(flag for _, flag, _ in results)
        if d == 7:
            ok = ok and (time.time() - t0) < 300.0
    report(
        4,
        "fusion-ring isomorphism: 36 + 400 + 1764 product comparisons",
        ok,
        f"{time.time() - start:.1f} s",
    )


def test_criterion_05_graded_hom_rigidity():
    """hom dimension between hat objects is delta_RS over all consecutive pairs."""
    ok = True
    for d in (3, 5, 7):
        subsets = [GradedLabel(d, a, lam).subset for a in range(d) for lam in range(d - 1)]
        for R in subsets:
            for S in subsets:
                if graded.graded_hom_dim(d, R, S) != (1 if R == S else 0):
                    ok = False
    report(5, "graded hom rigidity, d in {3,5,7}", ok)


def test_criterion_06_temperley_lieb_suite():
    """Relations, projectors with traces, direct vanishing at d=3, dimension
    certificate at d in {5,7}."""
    ok = True
    # e_i relations in the diagram algebra
    for d in (3, 5, 7):
        for n in (2, 3, 4, 5):
            for i in range(1, n):
                e = temperleylieb.tl_e(d, n, i)
                ok = ok and e.compose(e).equals(e.scaled(kappa(d)))
                if i + 1 < n:
                    e2 = temperleylieb.tl_e(d, n, i + 1)
                    ok = ok and e.compose(e2).compose(e).equals(e)
                for j in range(1, n):
                    if abs(i - j) > 1:
                        ej = temperleylieb.tl_e(d, n, j)
                        ok = ok and e.compose(ej).equals(ej.compose(e))
        # projectors up to the wall
        q = q_root(d)
        for n in range(1, d):
            p = temperleylieb.jw(n, d)
            ok = ok and p.compose(p).equals(p)
            ok = ok and p.trace() == quantum_int(n + 1, q)
    # direct null-homotopy route at d = 3
    d = 3
    Fp2 = temperleylieb.evaluate_F(temperleylieb.jw(2, d))
    gm, gp, _, _, _ = graded.g_pair(d, 1, 1, 1)
    c_minus = Fp2.compose(gm.renamed({"y": "y1"}))
    c_plus = Fp2.compose(gp.renamed({"y": "y1"}))
    QpG = graded.hat_p(d, {0, 1, 2})
    ABG = graded.graded_tensor(
        graded.hat_p(d, {1, 2}, "x", "y1"), graded.hat_p(d, {1, 2}, "y1", "z")
    )
    h = invariants.homotopy_solve(
        c_plus, c_plus.scaled(0), entry_degrees=graded.graded_homotopy_degrees(QpG, ABG)
    )
    ok = ok and c_minus.is_zero() and h is not None and h.delta().equals(c_plus)
    # endomorphism count route at d in {5, 7}
    for d in (5, 7):
        aT = (d - 1) // 2
        summands = graded.decompose_product(d, aT, 1, 0, d - 2)
        single = len(summands) == 1
        mf_dim = graded.graded_hom_dim(d, summands[0].subset, summands[0].subset)
        cert = graded.g_pair_certified(d, aT, 0, d - 2)
        tl_end = temperleylieb.tl_end_dimension(d, 1)
        ok = ok and single and mf_dim == 1 and tl_end == 2 and cert["ok"]
    report(6, "diagram algebra, projectors, and the vanishing certificates", ok)


def test_criterion_07_cft_data_suite():
    """Weights, locality classification, twist additivity, dim[1] = kappa."""
    ok = True
    for d in (3, 5, 7):
        ok = ok and cftside.h_weight(d, d - 2, d, 2) == 0
        for l in range(d - 1):
            for r in range(2 * d):
                for s in range(4):
                    a, b = cftside.induce(d, l, r, s)
                    diff = cftside.h_weight(d, b.l, b.r, b.s) - cftside.h_weight(d, a.l, a.r, a.s)
                    ok = ok and (diff.denominator == 1) == cftside.is_local(d, l, r, s)
        ok = ok and cftside.twist_additive(d, cftside.SimpleE(d, 0, 2, 0), cftside.SimpleE(d, 1, d, 0))
        ok = ok and cftside.quantum_dim(d, 1) == kappa(d)
    report(7, "minimal-model data suite, d in {3,5,7}", ok)


def _equivariance_suite_ok(d):
    """tau cocycle over all proper subsets; u, n equivariant; strict hexagon
    over all triples; chi(a) ~ P_{-a}."""
    ok = True
    for mask in range(1, 2**d - 1):
        S = {i for i in range(d) if mask >> i & 1}
        ok = ok and correspondence.tau_cocycle_ok(d, S)
    ok = ok and correspondence.un_equivariant_ok(d)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                ok = ok and correspondence.mu_hexagon_ok(d, a, b, c)
    for a in range(d):
        si = mfcore.s_iso(d, {0}, a, 0)
        ok = ok and si.is_cycle() and invariants.is_homotopy_iso(si)
    return ok


def test_criterion_08_equivariance_suite():
    """tau cocycle over all subsets; u, n equivariant; strict hexagon; chi(a) ~ P_{-a}."""
    ok = _equivariance_suite_ok(3) and _equivariance_suite_ok(5)
    report(8, "equivariance suite, d in {3,5}", ok)


def test_criterion_08_equivariance_suite_d7():
    """Criterion 08 at d = 7: 126 proper subsets, 343 hexagon triples."""
    report(8, "equivariance suite, d = 7", _equivariance_suite_ok(7))


def test_criterion_09_galois_variant():
    """Root exponent 2 at d = 5: twisted loop parameter, same multiplicities."""
    d, l = 5, 2
    ok = kappa(d, l) == kappa(d).galois(3)
    u, n, _, _ = mfcore.duality_un(d, l)
    un = u.compose(n)
    k = MPoly.constant(d, kappa(d, l))
    ok = ok and un.f0[0][0] == k and un.f1[0][0] == k
    # same fusion multiplicities as the untwisted ring
    base = graded.mf_fusion_ring(d, 1)
    twisted = graded.mf_fusion_ring(d, l)
    ok = ok and base.isomorphic_under(twisted, lambda x: x)
    for a in range(d):
        for b in range(d):
            for mu in range(1, d - 1):
                ok = ok and graded.g_pair_certified(d, a, b, mu, l)["ok"]
    ok = ok and all(flag for _, flag, _ in verify_equivalence(d, root_exponent=l))
    ok = ok and correspondence.un_equivariant_ok(d, l)
    report(9, "Galois-twisted pipeline at root exponent 2, d = 5", ok)


def test_criterion_10_index_convention_ledger():
    """The report records the certified index convention and the rigidity
    failure of the alternative."""
    results = [c.run() for c in build_checks(3, 1, {"graded"})]
    conv = next(c for c in results if c["name"] == "fusion_index_convention")
    ok = conv["status"] == "pass"
    ok = ok and "a+b+(lam+mu-nu)/2" in conv["detail"]
    ok = ok and "a+b-(lam+mu-nu)/2" in conv["detail"]
    ok = ok and "fails rigidity" in conv["detail"]
    ok = ok and "unit absent" in conv["detail"]
    # and the arithmetic fact behind it, at every d in scope
    for d in (3, 5, 7):
        aT = (d - 1) // 2
        unit = GradedLabel(d, 0, 0)
        ok = ok and unit in graded.decompose_product(d, aT, 1, aT, 1, index_sign=1)
        ok = ok and unit not in graded.decompose_product(d, aT, 1, aT, 1, index_sign=-1)
    report(10, "index-convention record in the verification report", ok)
