"""Command-line interface: argument parsing, tables, report rendering.

The checks themselves are declared in ``checks``; ``verify`` and ``compare``
run the ones ``checks.build_checks`` returns and render their results.
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

from . import cftside, graded
from .checks import SUITES, Check, build_checks  # noqa: F401 (perfbench wraps cli.Check.run)
from .graded import GradedLabel

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
    """One line per left label: fusion_table emits its rows label-major."""
    labels = table["labels"]
    n = len(labels)
    def name(lab):
        if "lambda" in lab:
            return f"{lab['a']}:{lab['lambda']}"
        return f"[{lab['l']},{lab['r']}]"
    def cell(row):
        return " + ".join(
            (f"{s['multiplicity']}." if s["multiplicity"] > 1 else "") + name(s["label"])
            for s in row["summands"]
        ) or "0"
    lines = ["| (x) | " + " | ".join(name(lab) for lab in labels) + " |"]
    lines.append("|" + "---|" * (n + 1))
    for i, lab in enumerate(labels):
        row_cells = (cell(row) for row in table["products"][i * n : (i + 1) * n])
        lines.append("| " + name(lab) + " | " + " | ".join(row_cells) + " |")
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


def _run_checks(args, suites):
    try:
        checks = build_checks(args.d, args.root_exponent, suites)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    results = [c.run() for c in checks]
    _emit(report_json(args.d, args.root_exponent, results), args.format, render_markdown_report)
    return 0 if all(c["status"] == "pass" for c in results) else 1


def cmd_verify(args):
    return _run_checks(args, set(args.suites.split(",")) if args.suites else set(SUITES))


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
    return _run_checks(args, {"equivalence", "graded"})


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
