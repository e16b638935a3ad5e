import io
import json
import contextlib
from pathlib import Path

import pytest

from permfact import cli
from permfact.checks import REGISTRY, SUITES, build_checks

REFERENCE = Path(__file__).parent / "reference"
GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden"


class TestRegistry:
    def test_names_are_unique(self):
        names = [spec.name for spec in REGISTRY]
        assert len(names) == len(set(names))

    def test_every_suite_is_known(self):
        assert {spec.suite for spec in REGISTRY} <= set(SUITES)

    @pytest.mark.parametrize("d", [5, 7])
    def test_report_order_is_the_reference_order(self, d):
        reference = json.loads((REFERENCE / f"verify-d{d}.l1.json").read_text())
        assert [c.name for c in build_checks(d, 1, set(SUITES))] == [c["name"] for c in reference["checks"]]

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_one_jw_vanishing_check_applies(self, d):
        names = {c.name for c in build_checks(d, 1, {"tl"})}
        assert len(names & {"jw_vanishing_direct", "jw_vanishing_endomorphism_count"}) == 1
        assert ("jw_vanishing_direct" in names) == (d == 3)

    def test_bound_check_reports_its_declaration(self):
        (spec,) = [s for s in REGISTRY if s.name == "conformal_weights"]
        (bound,) = [c for c in build_checks(5, 2, {"cft"}) if c.name == "conformal_weights"]
        assert (bound.suite, bound.d, bound.l) == ("cft", 5, 2)
        assert bound.run() == {
            "name": "conformal_weights",
            "paper_ref": spec.paper_ref,
            "status": "pass",
            "detail": spec.fn(5, 2)[1],
        }


class TestBoundary:
    @pytest.mark.parametrize("d", [4, 10, 1, -3])
    def test_d_must_be_odd_and_at_least_3(self, d):
        with pytest.raises(ValueError, match="odd integer >= 3"):
            build_checks(d, 1, {"core"})

    @pytest.mark.parametrize("d, l", [(5, 5), (9, 3), (15, 10)])
    def test_root_exponent_must_be_coprime(self, d, l):
        with pytest.raises(ValueError, match="coprime"):
            build_checks(d, l, {"core"})

    @pytest.mark.parametrize("d, l", [(5, True), (True, 1), (5.0, 1), (5, 1.0), (5, False)])
    def test_d_and_root_exponent_must_be_ints(self, d, l):
        # a bool is not an int here: (5, True) used to run as l = 1 and report "root_exponent": true
        with pytest.raises(TypeError, match="must be an int"):
            build_checks(d, l, {"core"})

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match=r"unknown suites: \['nope'\]"):
            build_checks(5, 1, {"nope"})
        with pytest.raises(ValueError, match=r"unknown suites: \['nope'\]"):
            build_checks(5, 1, {"core", "nope"})

    def test_cli_reports_the_unknown_suite(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", "--d", "5", "--suites", "core,nope"])
        assert rc == 2
        assert err.getvalue() == "error: unknown suites: ['nope']\n"
        assert out.getvalue() == ""


class TestBenchmarkGolden:
    """Each benchmark reference report is rebuilt byte for byte, as the
    benchmark's child process serialises it."""

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
    def test_report_bytes(self, path):
        golden = path.read_text()
        ref = json.loads(golden)
        d, l = ref["d"], ref["root_exponent"]
        names = [c["name"] for c in ref["checks"]]
        checks = [c for c in build_checks(d, l, set(SUITES)) if c.name in names]
        assert [c.name for c in checks] == names
        report = json.dumps(cli.report_json(d, l, [c.run() for c in checks]), sort_keys=True, indent=2, default=str)
        assert report == golden
