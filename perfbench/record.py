#!/usr/bin/env python3
"""Record the reference report of every workload for every root exponent.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose reports are the
reference.  Writes golden/<workload>.l<l>.json and refuses to record a report
in which any check did not pass.
"""

import json
import sys

import run


def main(names):
    for workload in names or sorted(run.WORKLOADS):
        for l in sorted(run.root_exponents(run.WORKLOADS[workload]["d"], seed=0)):
            report = run.invoke(workload, l)["report"]
            bad = [c["name"] for c in json.loads(report)["checks"] if c["status"] != "pass"]
            if bad:
                raise SystemExit(f"{workload} l={l}: checks did not pass: {bad}")
            with open(run.golden_path(workload, l), "w") as fh:
                fh.write(report)
            print(f"recorded {workload} l={l}")


if __name__ == "__main__":
    main(sys.argv[1:])
