#!/usr/bin/env python3
"""The permfact benchmark: timed ``permfact verify`` workloads.

    python3 perfbench/run.py --workload verify-d5 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every timed repetition is a fresh
interpreter (``child.py``), one at a time, because every user of the CLI pays
cold caches and lazy field tables.  The seed orders the root exponents l
coprime to d, and a run times every one of them, because the cost depends on
l; the program receives only (d, l, checks).  Each report is compared entry
by entry with the one recorded for that workload and l at the seed commit
(``golden/``).  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines before it
print every metric with its unit and the verdict.

--trace 0 reports the end-to-end metrics (setup_s, verify_s, peak_rss_mb);
setup_s and verify_s are scaled to a reference host speed measured while the
child runs (``child.HostSpeed``), and the raw wall time is printed beside them.
--trace 1 runs the workload twice untraced and twice traced, with the first l,
and reports the per-layer metrics; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden")

SUITES = ["core", "graded", "tl", "cft", "equivariance", "equivalence"]

# Check selections keep one repetition per root exponent within
# BENCHMARK.json's run_seconds (the full d = 5 and d = 7 runs take 45-90 s
# once); README.md says what each workload leaves out and why.
WORKLOADS = {
    "verify-d5": {
        "d": 5,
        "suites": SUITES,
        "checks": [
            "factorisation_conditions", "dual_comparison_isos", "unit_isomorphisms",
            "ev_coev_cycles", "kappa_identity", "zigzag_identities",
            "graded_objects", "graded_hom_rigidity", "fusion_index_convention",
            "tl_relations", "jones_wenzl_projectors", "functor_respects_relations",
            "jw_vanishing_endomorphism_count",
            "conformal_weights", "locality_classification", "twist_additivity",
            "quantum_dimensions", "ns_fusion_ring",
            "duality_maps_equivariant", "coev_equivariant", "chi_is_permutation_type",
        ],
    },
    "certify-d7": {
        "d": 7,
        "suites": ["graded", "tl", "equivalence"],
        "checks": [
            "graded_objects", "fusion_index_convention", "tl_relations",
            "jw_vanishing_endomorphism_count",
        ],
    },
    "verify-d3": {"d": 3, "suites": SUITES, "checks": None},
}

SETUP_SAMPLES = 7  # setup-only interpreters per run, besides one per repetition
CHILD_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s"), ("verify_s", "s"), ("peak_rss_mb", "MB")]

CHECK_NAMES = [
    "factorisation_conditions", "dual_comparison_isos", "unit_isomorphisms", "ev_coev_cycles",
    "kappa_identity", "zigzag_identities", "graded_objects", "decomposition_certificates",
    "graded_hom_rigidity", "fusion_index_convention", "tl_relations", "jones_wenzl_projectors",
    "functor_respects_relations", "jw_vanishing_direct", "jw_vanishing_endomorphism_count",
    "conformal_weights", "locality_classification", "twist_additivity", "quantum_dimensions",
    "ns_fusion_ring", "tau_cocycle", "duality_maps_equivariant", "coev_equivariant",
    "mu_hexagon_strict", "chi_is_permutation_type", "fusion_ring_equivalence",
]


def _layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def add(prefix, stats):
        for stat in stats:
            unit, better = {
                "calls": ("count", "lower"),
                "self_s": ("s", "lower"),
                "distinct_ratio": ("ratio", "higher"),
                "cells": ("count", "lower"),
            }[stat]
            out.append((f"{prefix}.{stat}", unit, better))

    for fn in ("mul", "inverse", "zeta"):
        add(f"cyclofield.{fn}", ("calls", "self_s"))
    add("cyclofield.pow", ("calls",))
    add("cyclofield.quantum_int", ("calls", "distinct_ratio"))
    for fn in ("mul", "subs", "exact_div"):
        add(f"polyring.{fn}", ("calls", "self_s"))
    add("polyring.pow", ("calls",))
    for fn in ("compose", "equals"):
        add(f"linop.{fn}", ("calls", "self_s"))
    for fn in ("compose", "equals", "is_cycle", "twist_morphism"):
        add(f"mfcore.{fn}", ("calls", "self_s"))
    for fn in ("tensor_mf", "tensor_morphism"):
        add(f"mfcore.{fn}", ("calls",))
    for fn in ("perm_mf", "s_iso", "chi", "mu"):
        add(f"mfcore.{fn}", ("calls", "distinct_ratio"))
    add("correspondence.tau", ("calls", "distinct_ratio"))
    add("invariants.smith_normal_form", ("calls", "self_s", "cells"))
    add("invariants.homology", ("calls", "self_s"))
    add("invariants.is_homotopy_iso", ("calls",))
    add("invariants.homotopy_solve", ("calls", "self_s"))
    for fn in ("g_pair", "graded_hom_dim"):
        add(f"graded.{fn}", ("calls", "self_s"))
    for fn in ("compose", "jw", "evaluate_F"):
        add(f"temperleylieb.{fn}", ("calls", "self_s"))
    add("temperleylieb.enumerate_diagrams", ("calls",))
    out += [("fusionring.self_s", "s", "lower"), ("cftside.self_s", "s", "lower")]
    out += [(f"cli.check.{name}_s", "s", "lower") for name in CHECK_NAMES]
    out += [(f"{suite}_s", "s", "lower") for suite in ("equivariance", "graded", "tl", "equivalence")]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


PER_LAYER = _layer_metrics()


class BenchError(RuntimeError):
    pass


def root_exponents(d, seed):
    """Every residue 1..d-1 coprime to d, in the order the seed draws."""
    choices = [l for l in range(1, d) if gcd(l, d) == 1]
    random.Random(seed).shuffle(choices)
    return choices


def golden_path(workload, l):
    return os.path.join(GOLDEN, f"{workload}.l{l}.json")


def invoke(workload, l, trace=False, setup_only=False):
    """Run one child interpreter; return its result dict plus setup_s and peak_rss_mb."""
    os.makedirs(OUT, exist_ok=True)
    w = WORKLOADS[workload]
    result_path = os.path.join(OUT, f"child-{os.getpid()}.json")
    spec = {
        "d": w["d"], "l": l, "suites": w["suites"], "checks": w["checks"],
        "trace": int(trace), "setup_only": int(setup_only),
        "spans": os.path.join(OUT, f"spans-{workload}.bin"),
    }
    env = dict(os.environ, PYTHONPATH=SRC)
    # byte-code is cached in the checkout, as for an installed package
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    if os.path.exists(result_path):
        os.remove(result_path)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec), result_path],
        cwd=ROOT, env=env,
    )
    deadline = spawned + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"{workload} (l={l}) exceeded {CHILD_TIMEOUT_S} s")
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{workload} (l={l}, trace={int(trace)}) child exited with {proc.returncode}")
    with open(result_path) as fh:
        res = json.load(fh)
    os.remove(result_path)
    res["setup_wall_s"] = res["built_at"] - spawned
    res["setup_s"] = res["setup_wall_s"] * res["setup_scale"]
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return res


def compare_report(text, golden_text):
    """(attempted, failed): checks that failed or differ from the recorded entry."""
    want = json.loads(golden_text)
    got = json.loads(text)
    attempted = max(len(want["checks"]), len(got["checks"]))
    if {k: v for k, v in got.items() if k != "checks"} != {k: v for k, v in want.items() if k != "checks"}:
        return attempted, attempted
    failed = 0
    for i in range(attempted):
        g = got["checks"][i] if i < len(got["checks"]) else None
        w = want["checks"][i] if i < len(want["checks"]) else None
        if g is None or g != w or g.get("status") != "pass":
            failed += 1
    if failed == 0 and text != golden_text:
        failed = attempted  # same entries, different bytes: the serialisation changed
    return attempted, failed


def load_golden(workload, l):
    path = golden_path(workload, l)
    if not os.path.exists(path):
        raise BenchError(f"no recorded report {os.path.relpath(path, ROOT)}")
    with open(path) as fh:
        return fh.read()


def balanced(reps, key):
    """Mean over root exponents of the median of key over each one's repetitions."""
    by_l = {}
    for l, res in reps:
        by_l.setdefault(l, []).append(res[key])
    return statistics.fmean(statistics.median(v) for v in by_l.values())


def run_untraced(workload, ls, seconds):
    """Repetitions cycle through every root exponent in ls, at least one full cycle."""
    golden = {l: load_golden(workload, l) for l in ls}
    invoke(workload, ls[0], setup_only=True)  # warm-up: byte-compiles the package once
    start = time.monotonic()
    setups = [invoke(workload, ls[0], setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps, walls, attempted, failed = [], [], 0, 0
    while len(reps) < len(ls) or time.monotonic() + max(walls) <= start + seconds:
        l = ls[len(reps) % len(ls)]
        t = time.monotonic()
        res = invoke(workload, l)
        walls.append(time.monotonic() - t)
        reps.append((l, res))
        a, f = compare_report(res["report"], golden[l])
        attempted += a
        failed += f
    setups += [res["setup_s"] for _, res in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "verify_s": balanced(reps, "verify_s"),
        "peak_rss_mb": balanced(reps, "peak_rss_mb"),
    }
    notes = {
        "l": ",".join(map(str, ls)), "repetitions": len(reps), "setup_samples": len(setups),
        "verify_wall_s": round(balanced(reps, "verify_wall_s"), 6),
        "slowdown": round(statistics.median(res["verify_wall_s"] / res["verify_s"] for _, res in reps), 4),
    }
    return metrics, dict(END_TO_END), attempted, failed, notes


def layer_values(plain, traced, overhead):
    """Per-layer metric values from one untraced and one traced result."""
    spans, distinct, cells = traced["spans"], traced["distinct"], traced["cells"]
    values = {}
    for name, _, _ in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = overhead
        elif name.startswith("cli.check."):
            values[name] = spans.get(name[: -len("_s")], [0, 0.0, 0.0])[1]
        elif name.endswith("_s") and "." not in name:
            values[name] = plain["suite_s"].get(name[: -len("_s")], 0.0)
        elif name in ("fusionring.self_s", "cftside.self_s"):
            module = name.split(".")[0] + "."
            values[name] = sum(row[2] for key, row in spans.items() if key.startswith(module))
        elif stat == "calls":
            values[name] = spans.get(prefix, [0, 0.0, 0.0])[0]
        elif stat == "self_s":
            values[name] = spans.get(prefix, [0, 0.0, 0.0])[2]
        elif stat == "distinct_ratio":
            calls = spans.get(prefix, [0])[0]
            values[name] = distinct.get(prefix, 0) / calls if calls else 0.0
        elif stat == "cells":
            values[name] = cells.get(prefix, 0)
        else:
            raise BenchError(f"no rule computes {name}")
    return values


def run_traced(workload, l):
    """Untraced, traced, traced, untraced: the order cancels a linear drift in host speed."""
    golden = load_golden(workload, l)
    invoke(workload, l, setup_only=True)  # warm-up, as in the untraced run
    reps = [invoke(workload, l, trace=trace) for trace in (False, True, True, False)]
    attempted, failed = 0, 0
    for res in reps:
        a, f = compare_report(res["report"], golden)
        attempted += a
        failed += f
    if any(res["report"] != reps[0]["report"] for res in reps):
        raise BenchError("the traced report differs from the untraced one: a wrapper is not transparent")
    plain, traced = reps[0], reps[1]
    overhead = (reps[1]["verify_s"] + reps[2]["verify_s"] - reps[0]["verify_s"] - reps[3]["verify_s"]) / 2
    units = {name: unit for name, unit, _ in PER_LAYER}
    notes = {"l": l, "spans": sum(row[0] for row in traced["spans"].values())}
    return layer_values(plain, traced, overhead), units, attempted, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "permfact", "cli.py")):
        print(f"error: no permfact sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    ls = root_exponents(WORKLOADS[args.workload]["d"], args.seed)
    try:
        if args.trace:
            values, units, attempted, failed, notes = run_traced(args.workload, ls[0])
        else:
            values, units, attempted, failed, notes = run_untraced(args.workload, ls, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  d={WORKLOADS[args.workload]['d']}  seed={args.seed}  "
          + "  ".join(f"{k}={v}" for k, v in notes.items()))
    for name, value in values.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:48s} {shown} {units[name]}")
    print(f"  {'fail_ratio':48s} {failed / attempted:>16.6f} ({failed} of {attempted} checks)")
    print("verdict:", "correct" if failed == 0 else "INCORRECT")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
