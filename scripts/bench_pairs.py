#!/usr/bin/env python3
"""Alternated parent/change pairs of benchmark runs, written to BENCH_<pr>.json.

The parent commit and the change, the commit HEAD, are each exported with
``git archive`` to a temporary directory (removed afterwards), so both sides
run from trees made the same way.  The working tree must hold no
uncommitted change to a tracked file, so that HEAD is the change.  For every
workload and each of K seeds, ``python3 qllbench/run.py`` runs once in each
tree for BENCHMARK.json's ``run_seconds``, the two runs of a pair in
alternating order, one run at a time.  The last JSON line of each run is
kept.  The output file holds both commit ids, the Python version and
platform, every run's correct/attempted/failed and metrics, and per workload
and metric the median and quartiles of each side and the number of pairs the
change wins, the direction of "better" being read from BENCHMARK.json.

Example, from the root of a clean checkout:
    python3 scripts/bench_pairs.py --parent HEAD~1 --pr <n> \\
        --workloads classical --pairs 10 --first-seed 101
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json(stdout: str) -> dict:
    """The last line of a run's standard output that parses as a JSON object."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    raise ValueError("no JSON line in the run's output")


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per workload and metric: both sides' quartiles and the change's pair
    wins.  ``runs`` are records with workload, seed, side ("parent" or
    "change"), correct, failed and metrics (name to value); ``better`` maps
    a metric to "lower" or "higher"."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run
    summary = {}
    for workload, by_seed in pairs.items():
        complete = [p for _, p in sorted(by_seed.items()) if len(p) == 2]
        names = sorted({name for p in complete for run in p.values()
                        for name in run["metrics"]})
        metrics = {}
        for name in names:
            both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                    for p in complete
                    if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
            if not both:  # a run that printed no metrics
                continue
            entry = {"parent": quartiles([a for a, _ in both]),
                     "change": quartiles([b for _, b in both]),
                     "pairs": len(both)}
            if name in better:
                sign = 1 if better[name] == "higher" else -1
                entry["better"] = better[name]
                entry["change_wins"] = sum(1 for a, b in both if sign * (b - a) > 0)
            metrics[name] = entry
        summary[workload] = {
            "pairs": len(complete),
            "all_correct": all(run["correct"] is True and run["failed"] == 0
                               for p in complete for run in p.values()),
            "metrics": metrics,
        }
    return summary


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path):
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError("git archive %s failed" % commit)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "qllbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=tree, capture_output=True, text=True)
    wall = time.monotonic() - start
    try:
        result = last_json(proc.stdout)
    except ValueError:
        result = {"correct": False}
        print(proc.stderr[-2000:], file=sys.stderr)
    return result, proc.returncode, wall


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    if git("status", "--porcelain", "--untracked-files=no"):
        parser.error("the working tree has uncommitted changes; commit them first")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", "HEAD")}
    record = {
        "parent": {"commit": commits["parent"]},
        "change": {"commit": commits["change"]},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seconds": seconds,
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, tree in trees.items():
            tree.mkdir()
            export(commits[side], tree)
        k = 0
        for workload in args.workloads:
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                k += 1
                for side in order:
                    result, code, wall = run_once(trees[side], workload, seed, seconds)
                    metrics = {name: m["value"]
                               for name, m in result.get("metrics", {}).items()}
                    record["runs"].append({
                        "workload": workload, "seed": seed, "side": side,
                        "first": side == order[0], "exit": code, "wall_s": round(wall, 2),
                        "correct": result.get("correct"),
                        "attempted": result.get("attempted"),
                        "failed": result.get("failed"), "metrics": metrics})
                    print("%-9s seed %-4d %-6s exit %d %s" % (
                        workload, seed, side, code,
                        " ".join("%s=%.4g" % kv for kv in metrics.items())), flush=True)
    record["summary"] = summarize(record["runs"], better)
    out = ROOT / ("BENCH_%s.json" % args.pr)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, s in record["summary"].items():
        print("%s: %d pairs, all correct: %s" % (workload, s["pairs"], s["all_correct"]))
        for name, m in s["metrics"].items():
            print("  %-12s parent %-10.4g change %-10.4g wins %s/%d" % (
                name, m["parent"]["median"], m["change"]["median"],
                m.get("change_wins", "-"), m["pairs"]))
    print("wrote %s" % out.name)
    return 0 if all(s["all_correct"] for s in record["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
