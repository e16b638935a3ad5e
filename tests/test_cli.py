import io
import json
import contextlib
from pathlib import Path

import pytest

from permfact import cli, mfcore

TESTS = Path(__file__).parent
REFERENCE = TESTS / "reference"
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"


def run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code
    return rc, buf.getvalue(), err.getvalue()


class TestUsage:
    def test_even_d_rejected(self):
        rc, _, _ = run(["verify", "--d", "4"])
        assert rc == 2

    def test_non_coprime_root(self):
        rc, _, _ = run(["verify", "--d", "9", "--root-exponent", "3"])
        assert rc == 2

    def test_out_of_range_label(self):
        rc, _, err = run(["decompose", "--d", "5", "0:4", "0:2"])
        assert rc == 2
        assert err == "error: lambda indices must lie in 0..3\n"

    def test_bad_label_syntax(self):
        rc, _, _ = run(["decompose", "--d", "5", "01", "0:2"])
        assert rc == 2

    def test_degree_bound_option_removed(self):
        rc, _, err = run(["verify", "--d", "3", "--suites", "cft", "--degree-bound", "4"])
        assert rc == 2 and "--degree-bound" in err


class TestVerify:
    def test_single_suite(self):
        rc, out, _ = run(["verify", "--d", "3", "--suites", "cft"])
        assert rc == 0
        rep = json.loads(out)
        assert rep["d"] == 3 and rep["root_exponent"] == 1
        names = {c["name"] for c in rep["checks"]}
        assert "ns_fusion_ring" in names
        assert all(c["status"] == "pass" for c in rep["checks"])
        assert all("paper_ref" in c for c in rep["checks"])

    def test_tl_suite(self):
        rc, out, _ = run(["verify", "--d", "3", "--suites", "tl"])
        assert rc == 0
        names = {c["name"] for c in json.loads(out)["checks"]}
        assert {"tl_relations", "jones_wenzl_projectors", "jw_vanishing_direct"} <= names

    def test_markdown_format(self):
        rc, out, _ = run(["verify", "--d", "3", "--suites", "cft", "--format", "markdown"])
        assert rc == 0
        assert out.startswith("# verification report")

    def test_injected_sign_error_fails(self, monkeypatch):
        original = mfcore.tensor_mf

        def broken(M, N):
            out = original(M, N)
            out.d1[0][0] = -out.d1[0][0]
            return out

        monkeypatch.setattr(mfcore, "tensor_mf", broken)
        rc, out, _ = run(["verify", "--d", "3", "--suites", "core"])
        assert rc == 1
        rep = json.loads(out)
        failed = {c["name"] for c in rep["checks"] if c["status"] == "fail"}
        assert "factorisation_conditions" in failed

    def test_zigzag_needs_strict_equality(self, monkeypatch):
        # a scaled identity is not homotopic to 1_T, and no homotopy is searched
        def scaled(d, l=1):
            zz1, zz2 = original(d, l)
            return zz1.scaled(2), zz2

        original = mfcore.zigzag_morphisms
        monkeypatch.setattr(mfcore, "zigzag_morphisms", scaled)
        check = next(c for c in cli.build_checks(3, 1, {"core"}) if c.name == "zigzag_identities")
        res = check.run()
        assert (res["status"], res["detail"]) == ("fail", "a composite differs from 1_T")


class TestTables:
    def test_mf_table_counts(self):
        rc, out, _ = run(["fusion-table", "--d", "3", "--side", "mf"])
        assert rc == 0
        table = json.loads(out)["tables"]["fusion"]
        assert len(table["labels"]) == 6
        assert len(table["products"]) == 36
        assert all("a" in lab and "lambda" in lab for lab in table["labels"])

    def test_cft_table_label_schema(self):
        rc, out, _ = run(["fusion-table", "--d", "3", "--side", "cft"])
        table = json.loads(out)["tables"]["fusion"]
        assert all(set(lab) == {"l", "r"} for lab in table["labels"])

    def test_sides_agree_under_dictionary(self):
        from permfact.correspondence import label_map

        rc1, out1, _ = run(["fusion-table", "--d", "3", "--side", "cft"])
        rc2, out2, _ = run(["fusion-table", "--d", "3", "--side", "mf"])
        cft = json.loads(out1)["tables"]["fusion"]
        mf = json.loads(out2)["tables"]["fusion"]
        rename = lambda lab: label_map(3, lab["l"], lab["r"])
        mf_products = {
            (json.dumps(r["left"], sort_keys=True), json.dumps(r["right"], sort_keys=True)): r["summands"]
            for r in mf["products"]
        }
        for row in cft["products"]:
            la = rename(row["left"])
            lb = rename(row["right"])
            key = (
                json.dumps({"a": la.a, "lambda": la.lam}, sort_keys=True),
                json.dumps({"a": lb.a, "lambda": lb.lam}, sort_keys=True),
            )
            got = mf_products[key]
            expected = sorted(
                (
                    {"label": {"a": rename(s["label"]).a, "lambda": rename(s["label"]).lam},
                     "multiplicity": s["multiplicity"]}
                    for s in row["summands"]
                ),
                key=lambda s: (s["label"]["a"], s["label"]["lambda"]),
            )
            assert got == expected

    def test_determinism(self):
        _, out1, _ = run(["fusion-table", "--d", "3", "--side", "cft"])
        _, out2, _ = run(["fusion-table", "--d", "3", "--side", "cft"])
        assert out1 == out2


class TestDecompose:
    def test_example(self):
        rc, out, _ = run(["decompose", "--d", "5", "0:1", "0:2"])
        assert rc == 0
        payload = json.loads(out)["tables"]["decomposition"]
        assert payload["summands"] == [{"a": 1, "lambda": 1}, {"a": 0, "lambda": 3}]
        cert = payload["certificate"]
        assert cert["cycles"] and cert["homology_isomorphism"] and cert["charge_zero"]
        assert cert["homology_dims"] == [2, 2]

    def test_markdown_matches_the_reference(self):
        rc, out, _ = run(["decompose", "--d", "5", "0:1", "0:2", "--format", "markdown"])
        assert rc == 0
        assert out == (REFERENCE / "decompose-d5-0_1-0_2.md").read_text()

    def test_unit_passthrough(self):
        rc, out, _ = run(["decompose", "--d", "5", "0:0", "2:3"])
        payload = json.loads(out)["tables"]["decomposition"]
        assert payload["summands"] == [{"a": 2, "lambda": 3}]
        assert "route" in payload["certificate"]


class TestCompare:
    def test_d3(self):
        rc, out, _ = run(["compare", "--d", "3"])
        assert rc == 0
        rep = json.loads(out)
        names = {c["name"] for c in rep["checks"]}
        assert "fusion_ring_equivalence" in names
        assert "fusion_index_convention" in names

    def test_index_convention_documented(self):
        rc, out, _ = run(["compare", "--d", "3"])
        rep = json.loads(out)
        conv = next(c for c in rep["checks"] if c["name"] == "fusion_index_convention")
        assert conv["status"] == "pass"
        assert "a+b+(lam+mu-nu)/2" in conv["detail"]
        assert "a+b-(lam+mu-nu)/2" in conv["detail"]
        assert "fails rigidity" in conv["detail"]


class TestReferences:
    def test_every_reference_is_named_by_ci_or_a_test(self):
        # a reference nothing compares against would drift unnoticed
        texts = [WORKFLOW.read_text()] + [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
        orphans = [p.name for p in sorted(REFERENCE.iterdir()) if not any(p.name in t for t in texts)]
        assert orphans == []
