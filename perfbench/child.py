"""One timed ``permfact verify`` invocation in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON RESULT_PATH

SPEC_JSON holds d, l, suites, checks (a list of check names, or null for
every check of the suites), trace (0/1), setup_only (0/1) and spans (a path
for the span dump).  The checks are built and run through the CLI's own
registry (``cli.build_checks``, ``Check.run``, ``cli.report_json``) and the
report is serialised exactly as ``permfact verify`` prints it.  The result
file gets the monotonic time at which the checks were built, the verify
time, per-suite times, the report text and, when traced, per-span totals.

Times are scaled to a reference host speed (see ``HostSpeed``); the raw
wall times are kept beside the scaled ones.
"""

import bisect
import itertools
import json
import os
import signal
import statistics
import sys
import time
from fractions import Fraction

CAL_REF_S = 0.03  # calibration_s on the reference host (2-core shared Xeon, CPython 3.11)
SEGMENT_S = 0.25  # program wall time between two calibrations


def _calibration_block():
    acc = [Fraction(0)] * 4
    for i in range(1, 400):
        a = Fraction(i % 7 + 1, i % 5 + 2)
        for j in range(4):
            acc[j] += a * Fraction(j + 1, i % 3 + 1)
    return acc


def calibration_s():
    """Wall time of the fixed calibration work: three times the median of three blocks."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _calibration_block()
        times.append(time.perf_counter() - t)
    return 3 * statistics.median(times)


class HostSpeed:
    """The host's speed, measured while the program runs.

    ``calibration_s`` (stdlib-only work, like the program's inner loops, but
    no permfact code) runs when ``start`` is called and then from a SIGALRM
    handler after every SEGMENT_S of wall time, also in the middle of a
    check, until ``stop`` runs it a last time.  The program time between
    two calibrations is scaled by CAL_REF_S over their mean; the time spent
    calibrating is left out of every span.
    """

    def __init__(self):
        self.marks = []  # (start, end, calibration_s), in perf_counter time
        self._armed = False
        self._starts = self._before = None

    def calibrate(self):
        t = time.perf_counter()
        cal = calibration_s()
        self.marks.append((t, time.perf_counter(), cal))

    def _on_alarm(self, signum, frame):
        if self._armed:
            self.calibrate()
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def start(self):
        self.calibrate()
        self._armed = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def stop(self):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.calibrate()

    def _gaps(self):
        """(start, end, scale) of the program time between consecutive calibrations."""
        for (_, a, c0), (b, _, c1) in zip(self.marks, self.marks[1:]):
            yield a, b, 2 * CAL_REF_S / (c0 + c1)

    def wall(self, a, b):
        """Wall time in [a, b] outside the calibrations."""
        return sum(max(0.0, min(b, hi) - max(a, lo)) for lo, hi, _ in self._gaps())

    def scaled(self, a, b):
        """Program time in [a, b], scaled to the reference host speed."""
        return sum(s * max(0.0, min(b, hi) - max(a, lo)) for lo, hi, s in self._gaps())

    def program_time(self, t):
        """t minus the time calibrated before it."""
        if self._starts is None:
            self._starts = [lo for lo, _, _ in self.marks]
            self._before = list(itertools.accumulate((hi - lo for lo, hi, _ in self.marks), initial=0.0))
        k = bisect.bisect_right(self._starts, t)
        if k == 0:
            return t
        lo, hi, _ = self.marks[k - 1]
        return t - self._before[k - 1] - (min(t, hi) - lo)


def main():
    spec = json.loads(sys.argv[1])
    result_path = sys.argv[2]
    import permfact
    from permfact import cli

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(permfact.__file__))) != src:
        raise SystemExit(f"permfact imported from {permfact.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    d, l = spec["d"], spec["l"]
    checks = cli.build_checks(d, l, set(spec["suites"]))
    if spec["checks"] is not None:
        missing = set(spec["checks"]) - {c.name for c in checks}
        if missing:
            raise SystemExit(f"checks not built by the CLI: {sorted(missing)}")
        checks = [c for c in checks if c.name in spec["checks"]]
    out = {"built_at": time.monotonic()}
    host = HostSpeed()
    if spec["setup_only"]:
        host.calibrate()
    else:
        host.start()
        spans, results = [], []
        for c in checks:
            t = time.perf_counter()
            results.append(c.run())
            spans.append((c.suite, t, time.perf_counter()))
        report = json.dumps(cli.report_json(d, l, results), sort_keys=True, indent=2, default=str)
        host.stop()
        t0, t1 = host.marks[0][1], host.marks[-1][0]
        suite_s = {}
        for suite, a, b in spans:
            suite_s[suite] = suite_s.get(suite, 0.0) + host.scaled(a, b)
        out.update(
            verify_s=host.scaled(t0, t1),
            verify_wall_s=host.wall(t0, t1),
            calibrations=len(host.marks),
            suite_s=suite_s,
            report=report,
        )
        if tracer is not None:
            for arr in (tracer.start, tracer.end):
                for i, t in enumerate(arr):
                    arr[i] = host.program_time(t)
            out["spans"] = tracer.aggregate()
            out["distinct"] = {k: len(v) for k, v in tracer.distinct.items()}
            out["cells"] = tracer.cells
            tracer.dump(spec["spans"])
    out["setup_scale"] = CAL_REF_S / host.marks[0][2]
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
