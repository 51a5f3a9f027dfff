#!/usr/bin/env python3
"""Spread of the benchmark over seeds: run one or more workloads once per
seed, one run at a time, and print per metric the median, the quartiles and
the quartile distance as a share of the median.

    python3 qllbench/stability.py --workloads quantum image classical \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 15 [--trace 0]

Each run's JSON line is appended to qllbench/out/stability.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        values: dict = {}
        failed_share = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line) if line.startswith("{") else {}
            with open(HERE / "out" / "stability.jsonl", "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "exit": proc.returncode, "result": result}) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode,
                                                    proc.stdout[-2000:] + proc.stderr[-2000:]))
                continue
            failed_share.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s: %d runs, failed/attempted %s" % (
            workload, len(args.seeds), sorted({f / a for f, a in failed_share})))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-24s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  % (name, med, q1, q3, spread))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
