#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workloads paper-matrix emit-check \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--out FILE]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, which is
(q3 - q1) / median. The runs are made one after another, never in
parallel, untraced, with run_seconds from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--out", help="also write the report here (JSON)")
    args = parser.parse_args()

    report = {}
    failed = False
    for workload in args.workloads:
        values = {}
        elapsed = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed",
                                   str(seed), "--seconds",
                                   str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            elapsed.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("{} seed {}: exit {}\n{}".format(
                    workload, seed, proc.returncode, proc.stderr[-2000:]),
                    file=sys.stderr)
                failed = True
                continue
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = (statistics.quantiles(series, n=4)
                         if len(series) > 1 else (series[0],) * 3)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else 0.0,
                          "runs": len(series), "values": series}
            print("{:16} {:28} median {:<14.6g} q1 {:<14.6g} q3 {:<14.6g} "
                  "spread {:.4f}".format(workload, name, median, q1, q3,
                                         rows[name]["spread"]))
        print("{:16} {:28} median {:.1f} s, max {:.1f} s per run".format(
            workload, "(invocation)", statistics.median(elapsed),
            max(elapsed)))
        report[workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
