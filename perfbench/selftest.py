#!/usr/bin/env python3
"""Quick self-test of the benchmark (a few seconds): d = 3 with the cft suite.

    python3 perfbench/selftest.py

Checks that
- an untraced and a traced run print every metric BENCHMARK.json declares,
  each with its declared unit, and nothing else;
- the report of both runs is byte-identical to what ``permfact verify``
  prints for the same arguments (same digest);
- the wrappers are transparent: wrapped functions return what the originals
  return, ``CycNum.__mul__``/``__rmul__`` are one hook, and a hook point that
  does not exist raises ``HookMissing``.
Exits non-zero on the first failure.
"""

import hashlib
import json
import os
import subprocess
import sys

import run
import tracing

WORKLOAD = "selftest-d3-cft"
D, L = 3, 1


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def cli_report():
    out = subprocess.run(
        [sys.executable, "-m", "permfact.cli", "verify", "--d", str(D), "--root-exponent", str(L),
         "--suites", "cft"],
        cwd=run.ROOT, env=dict(os.environ, PYTHONPATH=run.SRC), capture_output=True, text=True, check=True,
    ).stdout
    expect(out.endswith("\n"), "the CLI report does not end with a newline")
    return out[:-1]


def check_runs():
    end_to_end, per_layer = declared()
    expect(dict(run.END_TO_END) == end_to_end, "run.END_TO_END differs from BENCHMARK.json end_to_end")
    expect({n: u for n, u, _ in run.PER_LAYER} == per_layer, "run.PER_LAYER differs from BENCHMARK.json per_layer")

    reference = cli_report()
    run.WORKLOADS[WORKLOAD] = {"d": D, "suites": ["cft"], "checks": None}
    run.GOLDEN = os.path.join(run.OUT, "selftest-golden")
    os.makedirs(run.GOLDEN, exist_ok=True)
    with open(run.golden_path(WORKLOAD, L), "w") as fh:
        fh.write(reference)

    values, units, attempted, failed, _ = run.run_untraced(WORKLOAD, [L], seconds=1)
    expect(failed == 0 and attempted >= 5 and attempted % 5 == 0,
           f"untraced run: {failed} of {attempted} checks failed")
    expect(set(values) == set(end_to_end), f"untraced metrics {sorted(values)}")
    expect(all(units[n] == end_to_end[n] for n in values), "untraced units differ from the declared ones")
    expect(all(values[n] > 0 for n in values), "an end-to-end metric is 0")

    values, units, attempted, failed, _ = run.run_traced(WORKLOAD, L)
    expect(failed == 0 and attempted == 20, f"traced run: {failed} of {attempted} checks failed")
    expect(set(values) == set(per_layer), f"traced metrics missing: {sorted(set(per_layer) - set(values))}")
    expect(all(units[n] == per_layer[n] for n in values), "traced units differ from the declared ones")
    expect(values["cli.check.ns_fusion_ring_s"] > 0 and values["cftside.self_s"] > 0,
           "the cft checks left no spans")

    plain = run.invoke(WORKLOAD, L)
    traced = run.invoke(WORKLOAD, L, trace=True)
    expect(digest(plain["report"]) == digest(reference), "untraced report digest differs from the CLI's")
    expect(digest(traced["report"]) == digest(reference), "traced report digest differs from the CLI's")


def check_wrappers():
    sys.path.insert(0, run.SRC)
    from permfact import cftside, cyclofield, mfcore, polyring
    from permfact.cyclofield import CycNum

    q = cyclofield.q_root(D, L)
    calls = [
        lambda: CycNum.zeta(D, 5) * q,
        lambda: 3 * q,
        lambda: q.inverse() ** 3,
        lambda: cyclofield.quantum_int(2, q),
        lambda: polyring.MPoly.var(D, "x") * polyring.MPoly.var(D, "y") ** 2,
        lambda: mfcore.perm_mf(D, {0, 1}, l=L).d1,
        lambda: cftside.quantum_dim(D, 1, L),
        lambda: cftside.cft_fusion_ring(D).N,
    ]
    before = [f() for f in calls]
    tracer = tracing.Tracer()
    tracer.install()
    after = [f() for f in calls]
    expect(before == after, "a wrapped function returned something else than the original")
    expect(CycNum.__rmul__ is CycNum.__mul__, "CycNum.__mul__ and __rmul__ are not one hook")
    spans = tracer.aggregate()
    for name in ("cyclofield.mul", "cyclofield.zeta", "cyclofield.inverse", "cyclofield.pow",
                 "cyclofield.quantum_int", "polyring.mul", "mfcore.perm_mf"):
        expect(spans.get(name, [0])[0] > 0, f"no span recorded for {name}")
    try:
        tracer._patch("cyclofield", "CycNum.no_such_method", "cyclofield.none")
    except tracing.HookMissing:
        pass
    else:
        raise SystemExit("selftest FAILED: a missing hook point did not raise HookMissing")


def main():
    if not os.path.isfile(os.path.join(run.SRC, "permfact", "cli.py")):
        raise SystemExit(f"no permfact sources under {run.SRC}")
    check_runs()
    check_wrappers()
    print("selftest passed")


if __name__ == "__main__":
    main()
