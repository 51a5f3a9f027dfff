"""Self-test of the benchmark at tiny sizes: the scrambler keeps every
invariant, a tiny run of each workload passes its checks and reports every
metric, and each checker rejects a wrong value.

    python3 -m pytest -q qllbench/test_bench.py
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Workload  # noqa: E402

LINKS = {link.name: link for link in workloads.read_corpus(HERE.parent)}
TREFOIL = LINKS["trefoil"]
FIG8 = LINKS["figure_eight"]


def scrambled(link, n, m, seed=1):
    return workloads.scramble(link, n, m, random.Random(seed))


def test_scramble_keeps_invariants_and_stays_reduced():
    import qll

    for name in ("trefoil", "figure_eight", "whitehead", "unknot_b1", "hopf_neg"):
        link = LINKS[name]
        seed_braid = qll.BraidWord(link.strands, link.word)
        for seed in range(3):
            word = scrambled(link, 4, 14, seed)
            assert workloads.is_reduced(word) and len(word) in (14, 15)
            b = qll.BraidWord(4, word)
            assert qll.jones_at_root(b, 5) == qll.jones_at_root(seed_braid, 5)
            assert qll.alexander_poly(b) == qll.alexander_poly(seed_braid)
            assert qll.double_cover_homology(b, 3) == link.literals["d3"]


def test_build_is_deterministic_per_seed():
    links = list(LINKS.values())
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 5, links)
        assert a == workloads.build(name, 5, links)
        assert len(a.jobs) < 40


def _tiny(name):
    if name == "quantum":
        word = scrambled(TREFOIL, 4, 12)
        jobs = [Job("jones-l%d" % l, "tl_jones", "jones_at_root", (4, word, l), TREFOIL)
                for l in (5, 10)]
        cli = ["invariants", "--strands", "4", "--word", " ".join(map(str, word)),
               "--jones", "5"]
        return Workload(name, 1, jobs, cli + ["--json", "--no-timings"], TREFOIL,
                        ((4, 5), (4, 10)))
    if name == "image":
        params = [("tl", 3, 3), ("tl", 3, 4), ("tl", 3, 5), ("burau", 3, 5, 2)]
        jobs = [Job("img%d" % k, "image", "classify_image", p) for k, p in enumerate(params)]
        return Workload(name, 1, jobs, ["image", "--tl", "4", "--strands", "3",
                                        "--json", "--no-timings"], None, tuple(params))
    word = scrambled(FIG8, 4, 10)
    jobs = [Job("alex", "burau", "alexander_poly", (4, word), FIG8),
            Job("cover", "burau", "double_cover_homology", (5, scrambled(FIG8, 5, 12), 5), FIG8),
            Job("exact", "homcount", "hom_count_exact", (3, scrambled(TREFOIL, 3, 10),
                                                          "symmetric 3"), TREFOIL),
            Job("estimate", "homcount", "hom_count_estimate",
                (3, scrambled(TREFOIL, 3, 10), "symmetric 3", 2000, 7), TREFOIL)]
    cli = ["invariants", "--strands", "4", "--word", " ".join(map(str, word)),
           "--alexander", "--det", "--dp", "3", "--dp", "5"]
    return Workload(name, 1, jobs, cli + ["--json", "--no-timings"], FIG8,
                    ("symmetric 3",))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_checks_and_reports_every_metric(name):
    r = run.Run(_tiny(name), trace=True)
    assert r.setup() > 0
    jobs_per_s, p50, cli_s = r.rounds(0.0)
    assert jobs_per_s > 0 and p50 > 0 and cli_s > 0
    assert r.n_rounds == run.MIN_ROUNDS
    assert len(r.cli_reports) == run.MIN_ROUNDS * workloads.CLI_PER_ROUND[name]
    extras = r.extras()
    r.check()
    assert r.failed == 0 and r.problems == [], r.problems + r.errors
    metrics = r.layer_metrics(extras)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    busy = {"quantum": "tl_jones.apply_l5_s", "image": "image.closure_s",
            "classical": "homcount.exact_s"}[name]
    assert metrics[busy] > 0 and metrics["cli.start_s"] > 0


def test_checkers_reject_wrong_values():
    import qll
    from qll.image import RepSpec, classify_image, rep_generators

    trefoil = qll.BraidWord(TREFOIL.strands, TREFOIL.word)
    at5 = qll.kauffman_bracket_statesum(trefoil, 5)
    assert checks.check_jones(qll.jones_at_root(trefoil, 5), at5) == []
    assert checks.check_jones(qll.jones_at_root(trefoil, 10), at5) != []

    s3 = qll.builtin_group("symmetric 3")
    exact = qll.hom_count_exact(trefoil, s3)
    assert checks.check_count(exact, exact, TREFOIL, "symmetric 3") == []
    assert checks.check_count(exact + 1, exact, TREFOIL, "symmetric 3") != []
    assert checks.check_count(exact + 1, exact + 1, TREFOIL, "symmetric 3") != []
    assert checks.check_estimate(Fraction(exact), Fraction(1), exact) == []
    assert checks.check_estimate(Fraction(exact + 7), Fraction(1), exact) != []
    assert checks.check_estimate(Fraction(0), Fraction(0), exact) != []

    spec = ("tl", 3, 4)
    gens = rep_generators(RepSpec(family="tl", strands=3, l=4))
    report = classify_image(RepSpec(family="tl", strands=3, l=4))
    order = checks.reference_order(spec, gens)
    assert order == report.order
    assert checks.image_problems(spec, gens, report, order) == []
    assert checks.image_problems(spec, gens, report, order + 1) != []
    # a word of a finite image has finite order at every embedding
    assert not checks.witness_certified(gens, (1, -2))
    inf = rep_generators(RepSpec(family="tl", strands=3, l=5))
    assert checks.witness_certified(inf, classify_image(RepSpec(family="tl", strands=3, l=5)).witness)

    ref = checks.alexander_reference(FIG8.strands, FIG8.word)
    assert ref == (1, -3, 1)
    assert checks.check_alexander(ref, ref, FIG8) == []
    assert checks.check_alexander((1, -1, 1), ref, FIG8) != []
    assert checks.check_dp(1, 5, FIG8) == [] and checks.check_dp(0, 5, FIG8) != []
