"""Aggregation of scripts/bench_pairs.py on canned run outputs."""

import json
import runpy
from pathlib import Path

import pytest

PAIRS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts"
                           / "bench_pairs.py"))
BETTER = {"jobs_per_s": "higher", "setup_s": "lower"}


def output(correct, failed, jobs, setup):
    metrics = {"jobs_per_s": {"value": jobs, "unit": "1/s"},
               "setup_s": {"value": setup, "unit": "s"}}
    return ("jobs_per_s %g 1/s\nnot json {\n"
            + json.dumps({"correct": correct, "attempted": 40, "failed": failed,
                          "metrics": metrics}) + "\n")


def run(seed, side, text, workload="classical"):
    result = PAIRS["last_json"](text)
    return {"workload": workload, "seed": seed, "side": side,
            "correct": result["correct"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def test_last_json_takes_the_last_object_line():
    assert PAIRS["last_json"]('{"a": 1}\nx\n{"a": 2}\n  \n') == {"a": 2}
    with pytest.raises(ValueError):
        PAIRS["last_json"]("no json here\n{broken\n")


def test_summary_medians_quartiles_and_wins():
    runs = [
        run(1, "parent", output(True, 0, 20.0, 0.020)),
        run(1, "change", output(True, 0, 40.0, 0.021)),
        run(2, "change", output(True, 0, 44.0, 0.019)),
        run(2, "parent", output(True, 0, 22.0, 0.020)),
        run(3, "parent", output(True, 0, 24.0, 0.018)),
        run(3, "change", output(True, 0, 42.0, 0.020)),
        run(4, "parent", output(True, 0, 99.0, 0.001)),  # no change run: dropped
    ]
    s = PAIRS["summarize"](runs, BETTER)["classical"]
    assert s["pairs"] == 3 and s["all_correct"] is True
    jobs = s["metrics"]["jobs_per_s"]
    assert jobs["parent"] == {"q1": 21.0, "median": 22.0, "q3": 23.0}
    assert jobs["change"] == {"q1": 41.0, "median": 42.0, "q3": 43.0}
    assert jobs["change_wins"] == 3 and jobs["better"] == "higher"
    setup = s["metrics"]["setup_s"]
    assert setup["change_wins"] == 1 and setup["pairs"] == 3


def test_summary_flags_a_failed_run_per_workload():
    crashed = {"workload": "quantum", "seed": 1, "side": "change",
               "correct": False, "failed": None, "metrics": {}}
    runs = [run(1, "parent", output(True, 0, 20.0, 0.02), "image"),
            run(1, "change", output(True, 1, 21.0, 0.02), "image"),
            run(1, "parent", output(True, 0, 20.0, 0.02)),
            run(1, "change", output(True, 0, 21.0, 0.02)),
            run(1, "parent", output(True, 0, 20.0, 0.02), "quantum"), crashed]
    summary = PAIRS["summarize"](runs, BETTER)
    assert summary["image"]["all_correct"] is False
    assert summary["classical"]["all_correct"] is True
    assert summary["image"]["metrics"]["jobs_per_s"]["parent"]["median"] == 20.0
    assert summary["quantum"] == {"pairs": 1, "all_correct": False, "metrics": {}}
