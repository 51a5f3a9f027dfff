#!/usr/bin/env python3
"""Benchmark of qll: one workload, one seed, one run.

    python3 qllbench/run.py --workload quantum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  A run compiles the package's bytecode, sets up several times
(import of qll and the builds every job shares), runs the workload's fixed
job list in whole rounds for about ``--seconds`` seconds, one call at a time,
each round ending with one ``python -m qll`` invocation on the workload's
representative input, reads its peak memory, and only then checks every
output against independent references (checks.py).  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` spans are recorded around
every call into qll's public functions and the metrics are the per-layer
ones.  Every time is normalised by calibration slices (timing.py).  The full
record of a run, raw seconds included, goes to qllbench/out/.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
program cannot be found or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import timing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
MIN_ROUNDS = 3
EXTRA_REPEATS = 5  # CLI start-up, in-process CLI and microbenchmarks
LAYERS = ("algebra", "braid", "tl_jones", "burau", "homcount", "image")

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "cli_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "tl_jones.build_s": "s", "tl_jones.apply_l5_s": "s", "tl_jones.apply_l10_s": "s",
    "tl_jones.trace_s": "s", "tl_jones.live_terms": "count",
    "algebra.cyc_mul_o12_ns": "ns", "algebra.cyc_mul_o20_ns": "ns",
    "algebra.cyc_mul_o40_ns": "ns",
    "image.build_s": "s", "image.rep_dim": "count", "image.witness_s": "s",
    "image.closure_s": "s",
    "burau.apply_s": "s", "burau.alexander_s": "s", "burau.elim_s": "s",
    "burau.cover_s": "s", "algebra.corank_s": "s", "algebra.laurent_mul_ns": "ns",
    "homcount.group_build_s": "s", "homcount.exact_s": "s",
    "homcount.exact_steps": "count", "homcount.draw_us": "us",
    "homcount.wirtinger_s": "s",
    "cli.start_s": "s", "cli.inproc_s": "s",
}

# Spans recorded in a traced run: (module, attribute, span name).
TRACED = (
    ("tl_jones", "jones_at_root", "tl_jones.jones_at_root"),
    ("tl_jones", "braid_to_tl", "tl_jones.braid_to_tl"),
    ("tl_jones", "markov_trace", "tl_jones.markov_trace"),
    ("image", "classify_image", "image.classify_image"),
    ("image", "rep_generators", "image.rep_generators"),
    ("image", "infinite_order_witness", "image.infinite_order_witness"),
    ("image", "group_closure", "image.group_closure"),
    ("burau", "alexander_poly", "burau.alexander_poly"),
    ("burau", "reduced_burau", "burau.reduced_burau"),
    ("burau", "double_cover_homology", "burau.double_cover_homology"),
    ("burau", "double_cover_presentation", "burau.double_cover_presentation"),
    # burau calls algebra's corank_mod_p through its own module namespace
    ("burau", "corank_mod_p", "algebra.corank_mod_p"),
    ("homcount", "builtin_group", "homcount.builtin_group"),
    ("homcount", "hom_count_exact", "homcount.hom_count_exact"),
    ("homcount", "hom_count_estimate", "homcount.hom_count_estimate"),
    ("homcount", "wirtinger_hom_count", "homcount.wirtinger_hom_count"),
)


class Program:
    """The qll modules of the current import, by layer name."""

    def __init__(self):
        importlib.import_module("qll")
        for layer in LAYERS:
            setattr(self, layer, sys.modules["qll." + layer])

    def word(self, n, letters):
        return self.braid.BraidWord(n, tuple(letters))

    def spec(self, params):
        if params[0] == "tl":
            return self.image.RepSpec(family="tl", strands=params[1], l=params[2])
        _, n, p, t0 = params
        return self.image.RepSpec(family="burau", strands=n, p=p, t0=t0)


def _level_label(name, args):
    return "%s@l%d" % (name, args[1])


def _gens_dim(gens):
    return gens[0].dim if gens else 1


def install_tracer(tracer: timing.Tracer, q: Program) -> None:
    for module, attr, name in TRACED:
        label = _level_label if attr == "braid_to_tl" else None
        note = None
        if attr == "braid_to_tl":
            note = lambda element: len(element.coeffs)  # noqa: E731
        elif attr == "rep_generators":
            note = _gens_dim
        tracer.wrap(getattr(q, module), attr, name, label=label, note=note)


def _purge_qll() -> None:
    for name in [m for m in sys.modules if m == "qll" or m.startswith("qll.")]:
        del sys.modules[name]


def setup_once(wl: workloads.Workload, tracer):
    """Import qll afresh and make the builds every job shares."""
    q = Program()
    if tracer is not None:
        install_tracer(tracer, q)
    shared = {}
    if wl.name == "quantum":
        for n, l in wl.setup_params:
            q.tl_jones.braid_to_tl(q.word(n, range(1, n)), l)
    elif wl.name == "image":
        for params in wl.setup_params:
            shared[params] = q.image.rep_generators(q.spec(params))
    else:
        for group in wl.setup_params:
            shared[group] = q.homcount.builtin_group(group)
    return q, shared


def bind(job: workloads.Job, q: Program, shared: dict):
    """The callable and arguments of a job.  The function is looked up on
    its module at call time, so a traced run goes through the wrappers."""
    fn = getattr(getattr(q, job.layer), job.func)
    p = job.params
    if job.func == "jones_at_root":
        return fn, (q.word(p[0], p[1]), p[2])
    if job.func == "classify_image":
        return fn, (q.spec(p),)
    if job.func == "alexander_poly":
        return fn, (q.word(p[0], p[1]),)
    if job.func == "double_cover_homology":
        return fn, (q.word(p[0], p[1]), p[2])
    if job.func == "hom_count_exact":
        return fn, (q.word(p[0], p[1]), shared[p[2]])
    if job.func == "hom_count_estimate":
        return fn, (q.word(p[0], p[1]), shared[p[2]], p[3], p[4])
    raise ValueError("no binding for %s" % job.func)


def _median(values):
    return statistics.median(values) if values else 0.0


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# The child runs qll as ``python -m qll`` does (runpy with alter_sys) between
# two calibration slices of its own: a bracket taken in the parent follows the
# child's speed poorly (between runs, medians of such brackets spread by
# 15-37 %).  The slices are measured in the child and subtracted from the wall
# time taken in the parent, which includes interpreter start.
_CHILD = """
import runpy, sys
sys.path.insert(0, %r)
import timing
before = timing.slice_time()
sys.argv = ["qll"] + sys.argv[1:]
code = 0
try:
    runpy.run_module("qll", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
after = timing.slice_time()
sys.stderr.write("\\nqllbench-slices %%r %%r\\n" %% (before, after))
sys.exit(code)
""" % str(HERE)


def run_cli(args: list[str]):
    """One qll CLI process.  Returns (completed process, Bracket)."""
    env = _cli_env()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    raw = time.perf_counter() - t0
    tail = proc.stderr.rsplit("qllbench-slices", 1)
    if len(tail) != 2:
        return proc, None
    before, after = map(float, tail[1].split())
    proc.stderr = tail[0]
    return proc, timing.Bracket(raw - 3 * (before + after), before, after)


class Run:
    """State of one workload run."""

    def __init__(self, wl: workloads.Workload, trace: bool):
        self.wl = wl
        self.tracer = timing.Tracer() if trace else None
        self.factors: dict = {}  # job key -> calibration factor
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.record: dict = {"workload": wl.name, "seed": wl.seed, "trace": int(trace)}
        self._alexander_refs: dict = {}
        self._wirtinger_refs: dict = {}

    def _key(self, phase, index, job_id=""):
        key = (phase, index, job_id)
        if self.tracer is not None:
            self.tracer.job = key
        return key

    # -- timed phases -------------------------------------------------------
    def setup(self):
        norm, raw = [], []
        for k in range(SETUP_REPEATS):
            _purge_qll()
            key = self._key("setup", k)
            (self.q, self.shared), br = timing.timed(setup_once, self.wl, self.tracer)
            self.factors[key] = br.factor
            norm.append(br.norm)
            raw.append(br.raw)
        self.record["setup"] = {"norm_s": norm, "raw_s": raw}
        return _median(norm)

    def rounds(self, seconds: float):
        """Whole rounds of the job list, each in a seeded order and followed
        by ``python -m qll`` invocations on the workload's CLI input,
        until the next round would end after ``seconds``.  Spreading the CLI
        invocations over the run lets their median span the machine's speed
        phases, which the bracket around a subprocess follows poorly.
        Returns jobs_per_s, job_p50_s and cli_s."""
        jobs = self.wl.jobs
        bound = {job.id: bind(job, self.q, self.shared) for job in jobs}
        self.outputs = {job.id: [] for job in jobs}
        self.cli_reports = []
        norm = {job.id: [] for job in jobs}
        raw = {job.id: [] for job in jobs}
        cli_norm, cli_raw = [], []
        rng = random.Random("order:%s:%d" % (self.wl.name, self.wl.seed))
        started = time.perf_counter()
        n_rounds = 0
        while True:
            order = list(jobs)
            rng.shuffle(order)
            for job in order:
                key = self._key("job", n_rounds, job.id)
                fn, args = bound[job.id]
                self.attempted += 1
                try:
                    out, br = timing.timed(fn, *args)
                except Exception:  # a failing call is counted, the run goes on
                    self.failed += 1
                    self.errors.append("%s: %s" % (job.id, traceback.format_exc(limit=3)))
                    continue
                self.factors[key] = br.factor
                self.outputs[job.id].append(out)
                norm[job.id].append(br.norm)
                raw[job.id].append(br.raw)
            self._key("cli", n_rounds)
            for _ in range(workloads.CLI_PER_ROUND[self.wl.name]):
                self.attempted += 1
                gc.collect()
                proc, br = run_cli(self.wl.cli_args)
                if proc.returncode == 0 and br is not None:
                    self.cli_reports.append(json.loads(proc.stdout))
                    cli_norm.append(br.norm)
                    cli_raw.append(br.raw)
                else:
                    self.failed += 1
                    self.errors.append("cli exit %d: %s" % (proc.returncode, proc.stderr[-500:]))
            n_rounds += 1
            elapsed = time.perf_counter() - started
            if n_rounds >= MIN_ROUNDS and elapsed * (n_rounds + 1) / n_rounds > seconds:
                break
        self.n_rounds = n_rounds
        med = {j: _median(v) for j, v in norm.items() if v}
        self.record["rounds"] = n_rounds
        self.record["jobs"] = {j: {"norm_s": norm[j], "raw_s": raw[j]} for j in norm}
        self.record["jobs_raw_s_total"] = sum(_median(v) for v in raw.values())
        self.record["cli"] = {"args": self.wl.cli_args, "norm_s": cli_norm, "raw_s": cli_raw}
        total = sum(med.values())
        return (len(med) / total if total else 0.0), _median(list(med.values())), \
            _median(cli_norm)

    # -- traced-only measurements -------------------------------------------
    def extras(self) -> dict:
        """Per-layer figures that need calls of their own: CLI start-up, the
        in-process CLI, scalar microbenchmarks and exact-count step counts."""
        out = {}
        q = self.q
        self._key("extra", 0)
        out["cli.start_s"] = _median([run_cli(["version"])[1].norm
                                      for _ in range(EXTRA_REPEATS)])
        cli = importlib.import_module("qll.cli")

        def inproc():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(self.wl.cli_args))
        out["cli.inproc_s"] = _median([timing.timed(inproc)[1].norm
                                       for _ in range(EXTRA_REPEATS)])
        rng = random.Random(20080308)
        for order in (12, 20, 40):
            phi = q.algebra.euler_phi(order)
            pairs = [(q.algebra.CyclotomicNumber(order, [rng.randint(-50, 50) for _ in range(phi)]),
                      q.algebra.CyclotomicNumber(order, [rng.randint(-50, 50) for _ in range(phi)]))
                     for _ in range(500)]
            out["algebra.cyc_mul_o%d_ns" % order] = _micro(pairs)
        # degree 40: the span of reduced Burau entries of a 40-letter word,
        # the size of the classical Alexander jobs
        pairs = [(q.algebra.LaurentPoly(rng.randint(-20, 0), [rng.randint(-20, 20) for _ in range(41)]),
                  q.algebra.LaurentPoly(rng.randint(-20, 0), [rng.randint(-20, 20) for _ in range(41)]))
                 for _ in range(200)]
        out["algebra.laurent_mul_ns"] = _micro(pairs)
        steps = 0
        for job in self.wl.jobs:
            if job.func == "hom_count_exact":
                fn, args = bind(job, q, self.shared)
                try:
                    fn(*args, budget=1)
                except q.algebra.BudgetError as exc:
                    steps += exc.required
        out["homcount.exact_steps"] = steps
        return out

    # -- checks ---------------------------------------------------------------
    def check(self):
        import checks

        key = self._key("check", 0)
        before = timing.slice_time()
        problems, outs = self.problems, self.outputs
        for job in self.wl.jobs:
            if not outs[job.id]:
                continue
            first = outs[job.id][0]
            if any(o != first for o in outs[job.id][1:]):
                problems.append("%s: outputs differ between rounds" % job.id)
            p, link = job.params, job.link
            found = []
            if job.func == "jones_at_root":
                found = checks.check_jones(first, self._statesum(link, p[2]))
            elif job.func == "classify_image":
                gens = self.shared[p]
                found = checks.image_problems(p, gens, first,
                                              checks.reference_order(p, gens))
            elif job.func == "alexander_poly":
                found = checks.check_alexander(first.coeffs, self._alexander(link), link)
            elif job.func == "double_cover_homology":
                found = checks.check_dp(first, p[2], link)
            elif job.func == "hom_count_exact":
                found = checks.check_count(first, self._wirtinger(link, p[2]), link, p[2])
            elif job.func == "hom_count_estimate":
                found = checks.check_estimate(first[0], first[1], self._wirtinger(link, p[2]))
            problems += ["%s: %s" % (job.id, f) for f in found]
        for report in self.cli_reports:
            problems += ["cli: %s" % f for f in self._check_cli(checks, report)]
        after = timing.slice_time()
        self.factors[key] = timing.Bracket(0.0, before, after).factor

    def _statesum(self, link, l):
        q = self.q
        return q.tl_jones.kauffman_bracket_statesum(q.word(link.strands, link.word), l)

    def _alexander(self, link):
        import checks

        if link not in self._alexander_refs:
            self._alexander_refs[link] = checks.alexander_reference(link.strands, link.word)
        return self._alexander_refs[link]

    def _wirtinger(self, link, group):
        if (link, group) not in self._wirtinger_refs:
            q = self.q
            self._wirtinger_refs[link, group] = q.homcount.wirtinger_hom_count(
                q.word(link.strands, link.word), self.shared[group])
        return self._wirtinger_refs[link, group]

    def _check_cli(self, checks, report) -> list[str]:
        q, link = self.q, self.wl.cli_link
        if self.wl.name == "quantum":
            found = []
            for l, value in sorted(report["results"]["jones"].items()):
                got = q.algebra.CyclotomicNumber(value["order"], value["coeffs"])
                found += checks.check_jones(got, self._statesum(link, int(l)))
            return found
        if self.wl.name == "image":
            params = ("tl", report["input"]["strands"], report["input"]["l"])
            gens = self.shared.get(params) or q.image.rep_generators(q.spec(params))
            ref = checks.reference_order(params, gens)
            found = checks.check_order(report["order"], ref)
            if report["verdict"] != checks.expected_tl_verdict(params[2], params[1]):
                found.append("CLI verdict %s" % report["verdict"])
            return found
        res = report["results"]
        found = checks.check_alexander(tuple(res["alexander"]["coeffs"]),
                                       self._alexander(link), link)
        if res["det"] != link.literals["det"]:
            found.append("CLI det %d, corpus det %d" % (res["det"], link.literals["det"]))
        for p, value in res["dp"].items():
            found += checks.check_dp(value, int(p), link)
        return found

    # -- per-layer metrics ----------------------------------------------------
    def layer_metrics(self, extras: dict) -> dict:
        tracer = self.tracer
        selfs = tracer.self_times()
        # phase -> index -> name -> [total, self] normalised seconds
        sums: dict = {}
        notes: dict = {}
        for span, own in zip(tracer.spans, selfs):
            name, start, end, _, key, note = span
            f = self.factors.get(key, 1.0)
            per = sums.setdefault(key[0], {}).setdefault(key[1], {}).setdefault(name, [0.0, 0.0])
            per[0] += (end - start) * f
            per[1] += own * f
            if note is not None:
                notes.setdefault((key[0], name), []).append(note)

        def busy(name, phase="job", own=False):
            per_index = sums.get(phase, {})
            return _median([sum(v[1 if own else 0] for n, v in names.items()
                                if n == name or n.startswith(name + "@"))
                            for names in per_index.values()])

        samples = sum(j.params[3] for j in self.wl.jobs if j.func == "hom_count_estimate")
        live = notes.get(("job", "tl_jones.braid_to_tl@l5"), []) + \
            notes.get(("job", "tl_jones.braid_to_tl@l10"), [])
        dims = notes.get(("setup", "image.rep_generators"), [])
        metrics = {
            "tl_jones.build_s": busy("tl_jones.braid_to_tl", "setup"),
            "tl_jones.apply_l5_s": busy("tl_jones.braid_to_tl@l5"),
            "tl_jones.apply_l10_s": busy("tl_jones.braid_to_tl@l10"),
            "tl_jones.trace_s": busy("tl_jones.markov_trace"),
            "tl_jones.live_terms": statistics.fmean(live) if live else 0.0,
            "image.build_s": busy("image.rep_generators", "setup"),
            "image.rep_dim": sum(dims) // SETUP_REPEATS,
            "image.witness_s": busy("image.infinite_order_witness"),
            "image.closure_s": busy("image.group_closure"),
            "burau.apply_s": busy("burau.reduced_burau"),
            "burau.alexander_s": busy("burau.alexander_poly"),
            "burau.elim_s": busy("burau.alexander_poly", own=True),
            "burau.cover_s": busy("burau.double_cover_presentation"),
            "algebra.corank_s": busy("algebra.corank_mod_p"),
            "homcount.group_build_s": busy("homcount.builtin_group", "setup"),
            "homcount.exact_s": busy("homcount.hom_count_exact"),
            "homcount.draw_us": (busy("homcount.hom_count_estimate") / samples * 1e6
                                 if samples else 0.0),
            "homcount.wirtinger_s": busy("homcount.wirtinger_hom_count", "check"),
        }
        metrics.update(extras)
        return {name: metrics[name] for name in PER_LAYER_UNITS}


def _micro(pairs) -> float:
    """Nanoseconds per product, the median of EXTRA_REPEATS bracketed passes."""
    def products():
        for a, b in pairs:
            a * b
    return _median([timing.timed(products)[1].norm
                    for _ in range(EXTRA_REPEATS)]) / len(pairs) * 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one qll workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qll" / "__init__.py").is_file():
        print("qll sources not found under %s" % SRC, file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "qll"), quiet=1)
    sys.path.insert(0, str(SRC))
    gc.collect()

    wl = workloads.build(args.workload, args.seed, workloads.read_corpus(ROOT))
    run = Run(wl, bool(args.trace))
    e2e = {"setup_s": run.setup()}
    e2e["jobs_per_s"], e2e["job_p50_s"], e2e["cli_s"] = run.rounds(args.seconds)
    extras = run.extras() if args.trace else {}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.check()

    correct = not run.problems
    if args.trace:
        metrics = {n: {"value": v, "unit": PER_LAYER_UNITS[n]}
                   for n, v in run.layer_metrics(extras).items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in e2e.items()}
    run.record.update(end_to_end=e2e, metrics=metrics, problems=run.problems,
                      errors=run.errors, attempted=run.attempted, failed=run.failed)
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (wl.name, wl.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(run.record, indent=1, default=repr))
    if args.trace:
        (OUT / (stem + "-spans.json")).write_text(json.dumps(
            {"factors": [[list(k), f] for k, f in run.factors.items()],
             "spans": run.tracer.spans}, default=repr))
    for problem in run.problems + run.errors:
        print("FAIL %s" % problem)
    for name, m in metrics.items():
        print("%-26s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
