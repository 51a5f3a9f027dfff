"""Command-line interface: parsing, reports, exit codes, determinism."""

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qll.algebra import UsageError
from qll.braid import BraidWord, closure_components, parse_braid
from qll.cli import (
    INVARIANTS,
    bundled_corpus_text,
    main,
    parse_corpus,
)
from qll.homcount import builtin_group, hom_count_estimate
from qll.tl_jones import _compose_right_table, _matchings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# corpus parsing

def test_bundled_corpus_parses():
    entries = parse_corpus(bundled_corpus_text(), "bundled")
    assert len(entries) >= 12
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    for required in ("unknot_b1", "trefoil", "trefoil_mirror", "figure_eight",
                     "hopf_pos", "hopf_neg", "cinquefoil", "granny",
                     "unlink2", "unlink3"):
        assert required in names
    for e in entries:
        assert len(e.braid.word) <= 10
        assert e.braid.strands <= 4


def test_bundled_corpus_entry_shapes():
    entries = {e.name: e for e in parse_corpus(bundled_corpus_text())}
    assert entries["trefoil"].braid == BraidWord(2, (1, 1, 1))
    expected = dict(entries["trefoil"].expected)
    assert expected["det"] == 3
    assert expected["hom.symmetric 3"] == 12
    assert entries["unknot_b1"].braid == BraidWord(1, ())


def test_parse_corpus_comments_and_blanks():
    text = "# header\n\ntrefoil ; 2 ; 1 1 1 ; det=3  # trailing\n"
    (entry,) = parse_corpus(text)
    assert entry.name == "trefoil"
    assert entry.expected == (("det", 3),)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("just one field", "expected"),
        ("a ; 2 ; 1 ; det=3 ; extra", "expected"),
        (" ; 2 ; 1", "empty entry name"),
        ("a ; two ; 1", "not an integer"),
        ("a ; 2 ; 9", "strands"),
        ("a ; 2 ; 1 ; det", "malformed"),
        ("a ; 2 ; 1 ; volume=3", "unknown expected key"),
        ("a ; 2 ; 1 ; det=x", "not an integer"),
        ("a ; 2 ; 1 ; det=3, det=4", "duplicate expected key"),
        ("a ; 2 ; 1 ; det=3\na ; 2 ; 1", "duplicate entry name"),
        ("a ; 2 ; 1 ; hom.symetric 3=6", "test:1: .*unknown group spec"),
        ("a ; 2 ; 1 ; hom.symmetric 9=6", "test:1: .*exceeds the order cap"),
    ],
)
def test_parse_corpus_rejects(line, fragment):
    with pytest.raises(UsageError, match=fragment):
        parse_corpus(line, "test")


def test_parse_corpus_reports_line_numbers():
    with pytest.raises(UsageError, match="test:3"):
        parse_corpus("# one\n# two\nbroken line\n", "test")


# ---------------------------------------------------------------------------
# invariants command

def test_invariants_trefoil_jones3(capsys):
    code, out, _ = run(capsys, "invariants", "--strands", "2", "--word",
                       "1 1 1", "--jones", "3", "--no-timings")
    assert code == 0
    assert "jones[3]: 1" in out


def test_invariants_trefoil_dp3(capsys):
    code, out, _ = run(capsys, "invariants", "--strands", "2", "--word",
                       "1 1 1", "--dp", "3", "--no-timings")
    assert code == 0
    assert "d3: 1" in out


def test_invariants_dp_at_two(capsys):
    # the connected sum of two Hopf links: H_1 of the double cover is Z2^2
    code, out, _ = run(capsys, "invariants", "--strands", "3", "--word",
                       "1 1 2 2", "--dp", "2", "--no-timings")
    assert code == 0
    assert "d2: 2" in out.splitlines()


def test_invariants_full_text(capsys):
    code, out, _ = run(
        capsys, "invariants", "--strands", "3", "--word", "1 -2 1 -2",
        "--components", "--linking", "--jones", "5", "--jones", "3",
        "--alexander", "--det", "--dp", "3", "--dp", "2", "--arf",
        "--hom", "cyclic 3", "--hom-estimate", "symmetric 3", "50", "7",
        "--budget", "100000", "--no-timings")
    assert code == 0
    assert out == (
        "strands: 3\n"
        "word: 1 -2 1 -2\n"
        "components: 1\n"
        "linking: total=0 matrix=0\n"
        "jones[3]: 1\n"
        "jones[5]: (-2*z^4 +2*z^6 in Q(zeta_20)) ~ -1.236068+0.000000i\n"
        "alexander: t^2 - 3t + 1\n"
        "det: 5\n"
        "d2: 0\n"
        "d3: 0\n"
        "arf: 1\n"
        "hom[cyclic 3]: 3\n"
        "hom-estimate[symmetric 3]: 108/25 +- 5874425567/1000000000 "
        "(samples=50, seed=7)\n"
    )


def test_invariants_hopf_hom_z2(capsys):
    code, out, _ = run(capsys, "invariants", "--strands", "2", "--word",
                       "1 1", "--hom", "cyclic 2", "--no-timings")
    assert code == 0
    assert "hom[cyclic 2]: 4" in out


def test_invariants_alexander_text(capsys):
    code, out, _ = run(capsys, "invariants", "--strands", "2", "--word",
                       "1 1 1", "--alexander", "--no-timings")
    assert code == 0
    assert "alexander: t^2 - t + 1" in out
    code, out, _ = run(capsys, "invariants", "--strands", "3", "--word",
                       "1 -2 1 -2", "--alexander", "--no-timings")
    assert "alexander: t^2 - 3t + 1" in out


def test_invariants_computes_the_alexander_polynomial_once(capsys, monkeypatch):
    # only --alexander forms the polynomial; --det and --arf read the
    # double-cover presentation
    import qll.burau
    import qll.cli
    calls, alexander_poly = [], qll.burau.alexander_poly

    def counted(b):
        calls.append(b)
        return alexander_poly(b)
    monkeypatch.setattr(qll.cli, "alexander_poly", counted)
    monkeypatch.setattr(qll.burau, "alexander_poly", counted)
    code, out, _ = run(capsys, "invariants", "--strands", "3", "--word",
                       "1 -2 1 -2", "--alexander", "--det", "--arf", "--no-timings")
    assert code == 0
    assert "alexander: t^2 - 3t + 1" in out and "det: 5" in out and "arf: 1" in out
    assert calls == [BraidWord(3, (1, -2, 1, -2))]


def test_invariants_det_and_arf_form_no_alexander_polynomial(capsys, monkeypatch):
    import qll.burau
    import qll.cli

    def refused(b):
        raise AssertionError("alexander_poly called")
    monkeypatch.setattr(qll.cli, "alexander_poly", refused)
    monkeypatch.setattr(qll.burau, "alexander_poly", refused)
    code, out, _ = run(capsys, "invariants", "--strands", "3", "--word",
                       "1 -2 1 -2", "--det", "--arf", "--no-timings")
    assert code == 0
    assert "det: 5" in out and "arf: 1" in out


def test_invariants_det_of_thirty_strands_is_prompt(capsys):
    # the Alexander polynomial alone takes seconds at n = 30, m = 200
    rng = random.Random(1)
    word = " ".join(str(rng.randint(1, 29)) for _ in range(200))
    started = time.perf_counter()
    code, out, _ = run(capsys, "invariants", "--strands", "30", "--word", word,
                       "--det", "--no-timings")
    assert time.perf_counter() - started < 1.0
    assert code == 0 and out.splitlines()[-1].startswith("det: ")


def test_invariants_linking_and_components(capsys):
    code, out, _ = run(capsys, "invariants", "--strands", "2", "--word", "1 1",
                       "--components", "--linking", "--no-timings")
    assert code == 0
    assert "components: 2" in out
    assert "linking: total=1" in out


def test_invariants_non_integer_jones_rendering(capsys):
    code, out, _ = run(capsys, "invariants", "--strands", "2", "--word", "",
                       "--jones", "4", "--no-timings")
    assert code == 0
    assert "Q(zeta_16)" in out and "~" in out


def test_invariants_estimate_deterministic(capsys):
    argv = ("invariants", "--strands", "2", "--word", "1 1 1",
            "--hom-estimate", "symmetric 3", "400", "9", "--json",
            "--no-timings")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)["results"]["hom_estimate"][0]
    assert record["samples"] == 400
    assert record["estimate"]["denominator"] >= 1


def test_invariants_requires_a_request(capsys):
    code, _, err = run(capsys, "invariants", "--strands", "2", "--word", "1")
    assert code == 2
    assert err == (
        "usage error: no invariants requested; pass at least one of "
        "--components, --linking, --jones, --alexander, --det, --dp, --arf, "
        "--hom, --hom-estimate\n")


# the argument each INVARIANTS flag takes in the test below
_ROW_ARGUMENTS = {"--jones": ["5"], "--dp": ["3"], "--hom": ["cyclic 2"],
                  "--hom-estimate": ["cyclic 2", "20", "1"]}


@pytest.mark.parametrize("row", INVARIANTS, ids=[row[0] for row in INVARIANTS])
def test_each_invariants_row_gives_one_report_key(capsys, row):
    flag = row[0]
    code, out, _ = run(capsys, "invariants", "--strands", "2", "--word", "1 1 1",
                       flag, *_ROW_ARGUMENTS.get(flag, []), "--json", "--no-timings")
    assert code == 0
    assert list(json.loads(out)["results"]) == [flag[2:].replace("-", "_")]
    with pytest.raises(SystemExit):
        main(["invariants", "--help"])
    assert re.search(r"(?<![\w-])%s(?![\w-])" % flag, capsys.readouterr().out)


def test_invariants_arf_on_link_is_usage_error(capsys):
    code, _, err = run(capsys, "invariants", "--strands", "2", "--word", "1 1",
                       "--arf")
    assert code == 2
    assert "usage error" in err


def test_invariants_bad_word_is_usage_error(capsys):
    code, _, err = run(capsys, "invariants", "--strands", "2", "--word",
                       "1 2 1", "--det")
    assert code == 2
    assert "usage error" in err


def test_invariants_json_round_trips(capsys):
    code, out, _ = run(capsys, "invariants", "--strands", "2", "--word",
                       "1 1 1", "--jones", "4", "--det", "--arf", "--json",
                       "--no-timings")
    assert code == 0
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    assert report["results"]["det"] == 3
    assert report["results"]["jones"]["4"]["integer"] == -1


# ---------------------------------------------------------------------------
# check-table command

def test_check_table_bundled_passes(capsys):
    code, out, _ = run(capsys, "check-table", "--no-timings")
    assert code == 0
    assert "failed=0" in out
    assert "[FAIL]" not in out


def test_check_table_every_entry_reported_once(capsys):
    code, out, _ = run(capsys, "check-table", "--json", "--no-timings")
    report = json.loads(out)
    names = [e["name"] for e in report["entries"]]
    corpus_names = [e.name for e in parse_corpus(bundled_corpus_text())]
    assert names == corpus_names


def test_check_table_negative_control(tmp_path, capsys):
    corpus = tmp_path / "bad.corpus"
    corpus.write_text("trefoil ; 2 ; 1 1 1 ; det=7\n")
    code, out, _ = run(capsys, "check-table", "--corpus", str(corpus),
                       "--no-timings")
    assert code == 1
    assert "[FAIL] trefoil :: expected:det :: expected 7, got 3" in out


def test_check_table_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.corpus"
    corpus.write_text("# nothing here\n")
    code, out, _ = run(capsys, "check-table", "--corpus", str(corpus),
                       "--no-timings")
    assert code == 0
    assert "entries=0" in out


@pytest.mark.parametrize("spec", ["symetric 3", "symmetric 9"])
def test_check_table_malformed_group_spec_is_usage_error(tmp_path, capsys, spec):
    corpus = tmp_path / "spec.corpus"
    corpus.write_text("# header\ntrefoil ; 2 ; 1 1 1 ; hom.%s=6\n" % spec)
    code, out, err = run(capsys, "check-table", "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert err.startswith("usage error: %s:2: " % corpus)


def test_check_table_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check-table", "--corpus", "/nonexistent.corpus")
    assert code == 2
    assert "usage error" in err


def test_check_table_non_utf8_corpus_is_usage_error(tmp_path, capsys):
    corpus = tmp_path / "latin1.corpus"
    corpus.write_bytes("tr\u00e8fle ; 2 ; 1 1 1 ; det=3\n".encode("latin-1"))
    code, _, err = run(capsys, "check-table", "--corpus", str(corpus))
    assert code == 2
    assert "usage error" in err and "Traceback" not in err


def test_check_table_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "check-table", "--json", "--no-timings")
    code2, out2, _ = run(capsys, "check-table", "--json", "--no-timings")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert json.loads(json.dumps(report)) == report
    assert report["summary"]["failed"] == 0
    assert report["summary"]["checks"] == sum(
        len(e["checks"]) for e in report["entries"]
    )


def test_check_table_logs_l6_sign(capsys):
    code, out, _ = run(capsys, "check-table", "--json", "--no-timings")
    report = json.loads(out)
    rows = [row for e in report["entries"] for row in e["checks"]
            if row["check"] == "l6-d3-identity"]
    assert rows and all("sign=" in row["detail"] for row in rows)
    assert {row["detail"][-1] for row in rows} <= {"+", "-"}


@pytest.mark.parametrize("argv, golden", [
    ((), "check_table.txt"),
    (("--budget", "13", "--json"), "check_table_budget13.json"),
])
def test_check_table_matches_the_golden_report(capsys, monkeypatch, argv, golden):
    # every row's detail text, frozen from an earlier release of the suite
    monkeypatch.delenv("QLL_BUDGET", raising=False)
    code, out, _ = run(capsys, "check-table", "--no-timings", *argv)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / golden).read_text("utf-8")


_IMAGE_GOLDEN = {
    # every Temperley-Lieb spec of acceptance criterion 11
    "image_tl_grid.json": [("--tl", str(l), "--strands", str(n))
                           for l in range(3, 13) for n in (2, 3, 4)],
    # the specs of test_verdicts_of_larger_specs, and more at six strands
    "image_tl_larger.json": [("--tl", str(l), "--strands", str(n))
                             for l, n in ((10, 3), (6, 4), (5, 5), (5, 6),
                                          (7, 6), (9, 6), (12, 6))],
    # the Burau specs of the image tests above
    "image_burau.json": [
        ("--burau", "5", "2", "--strands", "3"),
        ("--burau", "5", "2", "--strands", "5"),
        ("--burau", "7", "3", "--strands", "4", "--bound", "10"),
        ("--burau", "1000000000000000003", "2", "--strands", "3"),
    ],
}


@pytest.mark.parametrize("golden", sorted(_IMAGE_GOLDEN))
def test_image_matches_the_golden_reports(capsys, golden):
    # each file is the JSON reports of its specs, one after another, frozen
    # from an earlier release of the suite
    out = []
    for argv in _IMAGE_GOLDEN[golden]:
        code, text, _ = run(capsys, "image", *argv, "--json", "--no-timings")
        assert code == 0
        out.append(text)
    assert "".join(out) == (Path(__file__).parent / "data" / golden).read_text("utf-8")


def test_image_text_matches_the_golden_report(capsys, monkeypatch):
    # the text reports of the same specs, one spec without generators and
    # the least Burau spec, frozen from an earlier release of the suite
    monkeypatch.delenv("QLL_BUDGET", raising=False)
    out = []
    for argv in [*(argv for golden in sorted(_IMAGE_GOLDEN)
                   for argv in _IMAGE_GOLDEN[golden]),
                 ("--tl", "3", "--strands", "1"),
                 ("--burau", "2", "1", "--strands", "2")]:
        code, text, _ = run(capsys, "image", *argv, "--no-timings")
        assert code == 0
        out.append(text)
    golden = Path(__file__).parent / "data" / "image_text.txt"
    assert "".join(out) == golden.read_text("utf-8")


_INVARIANTS_FLAGS = ([a for l in range(3, 13) for a in ("--jones", str(l))]
                     + ["--components", "--linking", "--alexander", "--det",
                        "--dp", "3", "--dp", "5"])

# two 7-strand, 40-letter words drawn with random.Random(3201) and (3202),
# each with a braid relator r = s_i s_i+1 s_i s_i+1^-1 s_i^-1 s_i+1^-1
# conjugated in as g r g^-1
_RELATOR_WORDS = [
    "5 5 -4 -4 -3 -1 -3 -5 6 3 5 6 5 -6 -5 -6 -3 -6 5 3 -5 1 3 -6 2 3 -4 3 1 3 "
    "-1 3 3 -4 -2 6 1 1 2 -5",
    "-1 -4 1 -2 6 -6 -1 5 -4 -2 4 4 6 -3 4 -5 -5 6 3 4 3 -4 -3 -4 -6 5 5 -4 -6 "
    "1 -5 -2 1 -4 6 -5 2 6 -3 2",
]


def _invariants_golden_argv():
    braids = [e.braid for e in parse_corpus(bundled_corpus_text(), "bundled")]
    for b in braids + [parse_braid(word, 7) for word in _RELATOR_WORDS]:
        arf = ["--arf"] if closure_components(b) == 1 else []  # a link exits 2
        yield ["--strands", str(b.strands), "--word", " ".join(map(str, b.word)),
               *_INVARIANTS_FLAGS, *arf]


def test_invariants_match_the_golden_reports(capsys):
    # the JSON reports of every corpus entry and both relator words, one
    # after another, frozen from an earlier release of the suite
    out = []
    for argv in _invariants_golden_argv():
        code, text, _ = run(capsys, "invariants", *argv, "--json", "--no-timings")
        assert code == 0
        out.append(text)
    golden = Path(__file__).parent / "data" / "invariants_corpus.json"
    assert "".join(out) == golden.read_text("utf-8")


def test_invariants_text_matches_the_golden_report(capsys):
    # the text reports of the same runs, frozen from an earlier release
    out = []
    for argv in _invariants_golden_argv():
        code, text, _ = run(capsys, "invariants", *argv, "--no-timings")
        assert code == 0
        out.append(text)
    golden = Path(__file__).parent / "data" / "invariants_corpus.txt"
    assert "".join(out) == golden.read_text("utf-8")


_HOM_LINKS = [("2", "1 1 1"), ("3", "1 -2 1 -2"), ("2", "1 1"),
              ("3", "1 -2 1 -2 1"), ("3", "1 -2 1 -2 1 -2")]
_HOM_GROUPS = ["symmetric 3", "quaternion8", "dihedral 4 x cyclic 2"]


def _hom_golden_argv():
    for strands, word in _HOM_LINKS:
        link = ["--strands", strands, "--word", word]
        for fmt in ([], ["--json"]):
            for group in _HOM_GROUPS:
                for method in ([], ["--wirtinger"], ["--estimate", "500", "7"]):
                    yield ["hom", *link, "--group", group, *method, *fmt]
            yield ["invariants", *link,
                   *[a for g in _HOM_GROUPS for a in ("--hom", g)],
                   "--hom", _HOM_GROUPS[0],  # a repeated spec is counted once
                   "--hom-estimate", _HOM_GROUPS[0], "500", "7",
                   "--hom-estimate", _HOM_GROUPS[2], "300", "11", *fmt]


def test_hom_matches_the_golden_reports(capsys):
    # Hurwitz, Wirtinger and the estimate on five corpus links, as text and
    # JSON, and the same counts through invariants, frozen from an earlier
    # release of the suite
    out = []
    for argv in _hom_golden_argv():
        code, text, _ = run(capsys, *argv, "--no-timings")
        assert code == 0
        out.append(text)
    golden = Path(__file__).parent / "data" / "hom_corpus.txt"
    assert "".join(out) == golden.read_text("utf-8")


def test_check_table_budget_skips_not_failures(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QLL_BUDGET", "10")
    code, out, _ = run(capsys, "check-table", "--no-timings")
    assert code == 0
    assert "[SKIP]" in out and "[FAIL]" not in out


# ---------------------------------------------------------------------------
# image command

def test_image_tl3_finite_abelian(capsys):
    code, out, _ = run(capsys, "image", "--tl", "3", "--strands", "3",
                       "--no-timings")
    assert code == 0
    assert "verdict: finite-abelian" in out


def test_image_tl5_infinite_with_witness(capsys):
    code, out, _ = run(capsys, "image", "--tl", "5", "--strands", "3",
                       "--no-timings")
    assert code == 0
    assert "verdict: infinite" in out
    assert "witness:" in out


def test_image_burau_finite_with_order(capsys):
    code, out, _ = run(capsys, "image", "--burau", "5", "2", "--strands", "3",
                       "--json", "--no-timings")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "finite"
    # projective order; divides |PGL_2(F_5)| = 120
    assert report["order"] == 24
    assert 120 % report["order"] == 0


def test_image_burau_pgl4_f5(capsys):
    code, out, _ = run(capsys, "image", "--burau", "5", "2", "--strands", "5",
                       "--json", "--no-timings")
    assert code == 0
    report = json.loads(out)
    assert (report["verdict"], report["order"]) == ("finite", 29016000000)


def test_image_tl6_five_strands(capsys):
    # |W(E6)| = 51,840, by reduction mod p; under 1,000 elements, unknown
    code, out, _ = run(capsys, "image", "--tl", "6", "--strands", "5",
                       "--json", "--no-timings")
    assert code == 0
    report = json.loads(out)
    assert (report["verdict"], report["order"]) == ("finite", 51840)
    code, out, _ = run(capsys, "image", "--tl", "6", "--strands", "5",
                       "--bound", "1000", "--json", "--no-timings")
    assert code == 0
    report = json.loads(out)
    assert (report["verdict"], report["order"]) == ("unknown", None)
    assert report["notes"][-1] == ("closure exceeded bound 1000 without a "
                                   "certificate")


def test_image_tl4_six_strands(capsys):
    # 23,040 = 2^5 6!, from point orbits over Z[zeta_16], not from an
    # enumeration of the group
    started = time.perf_counter()
    code, out, _ = run(capsys, "image", "--tl", "4", "--strands", "6",
                       "--json", "--no-timings")
    assert time.perf_counter() - started < 30
    assert code == 0
    report = json.loads(out)
    assert (report["verdict"], report["order"]) == ("finite", 23040)


def test_image_requires_exactly_one_family(capsys):
    code, _, err = run(capsys, "image", "--strands", "3")
    assert code == 2
    code, _, err = run(capsys, "image", "--strands", "3", "--tl", "4",
                       "--burau", "5", "2")
    assert code == 2


@pytest.mark.parametrize("strands,message", [
    ("0", "strand count must be >= 1"),
    ("7", "TL images are capped at 6 strands"),
])
def test_image_tl_strand_count_messages(capsys, strands, message):
    code, _, err = run(capsys, "image", "--tl", "5", "--strands", strands)
    assert code == 2
    assert err == "usage error: %s\n" % message


def test_image_unknown_on_tiny_bound(capsys):
    code, out, _ = run(capsys, "image", "--burau", "7", "3", "--strands", "4",
                       "--bound", "10", "--no-timings")
    assert code == 0
    assert "verdict: unknown" in out


@pytest.mark.parametrize("argv", [
    ["invariants", "--strands", "2", "--word", "1 1 1",
     "--dp", "1000000000000000003"],
    ["image", "--burau", "1000000000000000003", "2", "--strands", "3"],
])
def test_large_prime_modulus_answers_promptly(argv):
    # a fresh interpreter, so a primality test that hangs is cut at 2 s
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (src, env.get("PYTHONPATH")) if x)
    done = subprocess.run([sys.executable, "-m", "qll", *argv], env=env,
                          capture_output=True, text=True, timeout=2)
    assert done.returncode == 0, done.stderr


def test_modulus_past_primality_limit_is_usage_error(capsys):
    code, _, err = run(capsys, "invariants", "--strands", "2", "--word",
                       "1 1 1", "--dp", str(3317044064679887385961981))
    assert code == 2
    assert "primality is decided only below" in err


def test_image_nonpositive_bound_is_usage_error(capsys):
    code, _, err = run(capsys, "image", "--burau", "5", "2", "--strands", "3",
                       "--bound", "0")
    assert code == 2
    assert "usage error: --bound must be positive, got 0" in err


# ---------------------------------------------------------------------------
# hom command

def test_hom_exact_and_wirtinger_agree(capsys):
    code1, out1, _ = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                         "--group", "symmetric 3", "--no-timings")
    code2, out2, _ = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                         "--group", "symmetric 3", "--wirtinger",
                         "--no-timings")
    assert code1 == code2 == 0
    assert "count: 12" in out1
    assert "count: 12" in out2
    assert "method: hurwitz" in out1
    assert "method: wirtinger" in out2


def test_hom_estimate_mode(capsys):
    code, out, _ = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 3", "--estimate", "2000", "7",
                       "--no-timings")
    assert code == 0
    assert "method: estimate" in out
    assert "samples=2000, seed=7" in out


def test_hom_estimate_full_text(capsys):
    code, out, _ = run(capsys, "hom", "--strands", "3", "--word", "1 -2 1 -2",
                       "--group", "symmetric 3", "--estimate", "100", "5",
                       "--no-timings")
    assert code == 0
    assert out == (
        "strands: 3\n"
        "word: 1 -2 1 -2\n"
        "group: symmetric 3 (order 6)\n"
        "method: estimate\n"
        "estimate: 216/25 +- 4663633881/1000000000 (samples=100, seed=5)\n"
    )


def test_hom_estimate_budget_refusal(capsys):
    # the price is samples x (letters + strands): 100 x (4 + 3) = 700
    argv = ("hom", "--strands", "3", "--word", "1 -2 1 -2", "--group",
            "symmetric 3", "--estimate", "100", "5", "--no-timings")
    code, _, err = run(capsys, *argv, "--budget", "699")
    assert code == 3
    assert "needs 700 elementary steps (budget 699)" in err
    code, out, _ = run(capsys, *argv, "--budget", "700")
    assert code == 0
    assert "estimate: 216/25 +- 4663633881/1000000000 (samples=100, seed=5)" in out
    code, _, err = run(capsys, "invariants", "--strands", "3", "--word",
                       "1 -2 1 -2", "--hom-estimate", "symmetric 3", "100",
                       "5", "--budget", "699")
    assert code == 3
    assert "budget refused" in err


def test_hom_estimate_unbounded_samples_refused(capsys):
    code, _, err = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 3", "--estimate",
                       "1000000000000", "7")
    assert code == 3
    assert "needs 5000000000000 elementary steps" in err


def test_hom_estimate_error_nonzero_without_hits(capsys):
    # no sample of 20 hits one of the 600 fixed pairs among 120^2
    code, out, _ = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 5", "--estimate", "20", "2",
                       "--json", "--no-timings")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["estimate"]["numerator"] == 0
    assert results["stderr"]["numerator"] > 0


def test_hom_estimate_excludes_wirtinger(capsys):
    code, _, err = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 3", "--estimate", "100", "1",
                       "--wirtinger")
    assert code == 2
    assert "mutually exclusive" in err


@pytest.mark.parametrize("argv", [
    ("hom", "--strands", "2", "--word", "1", "--group", "symmetric 7",
     "--estimate", "abc", "1"),
    ("invariants", "--strands", "2", "--word", "1", "--hom-estimate",
     "symmetric 7", "10", "x"),
])
def test_malformed_estimate_is_a_usage_error_before_any_price(capsys, argv):
    # the S7 table, 5040^2 steps, is over the budget
    code, _, err = run(capsys, *argv, "--budget", "1000")
    assert code == 2
    assert err.startswith("usage error: ") and "budget" not in err


@pytest.mark.parametrize("method", [(), ("--wirtinger",)])
def test_hom_prices_the_table_first_like_invariants(capsys, method):
    table = "multiplication table of order 5040 needs 25401600 elementary steps"
    code, _, err = run(capsys, "hom", "--strands", "3", "--word", "1 2",
                       "--group", "symmetric 7", "--budget", "1000000", *method)
    assert code == 3 and table in err
    code, _, err = run(capsys, "invariants", "--strands", "3", "--word", "1 2",
                       "--hom", "symmetric 7", "--budget", "1000000")
    assert code == 3 and table in err


def test_hom_budget_refusal_exit_code(capsys):
    code, _, err = run(capsys, "hom", "--strands", "3", "--word", "1 2",
                       "--group", "symmetric 4", "--budget", "10")
    assert code == 3
    assert "budget refused" in err


def test_jones_refused_before_any_table_is_built(capsys):
    # C_13 (m + 13^2) = 742900 * 181 steps; a 13-strand basis and its twelve
    # e_i tables would take seconds to build
    word = " ".join(str(i) for i in range(1, 13))
    tables, bases = _compose_right_table.cache_info(), _matchings.cache_info()
    code, _, err = run(capsys, "invariants", "--strands", "13", "--word", word,
                       "--jones", "5", "--budget", "1000")
    assert code == 3
    assert "Jones route needs %d elementary steps (budget 1000)" % (
        742900 * 181) in err
    assert _compose_right_table.cache_info() == tables
    assert _matchings.cache_info() == bases


def test_jones_price_stays_on_the_word_as_given(capsys, monkeypatch):
    # the closure is the unknot on one strand, but the 15-strand word is
    # priced: C_15 (14 + 15^2) steps against the default budget of 10^9
    monkeypatch.delenv("QLL_BUDGET", raising=False)
    word = " ".join(str(i) for i in range(1, 15))
    code, _, err = run(capsys, "invariants", "--strands", "15", "--word", word,
                       "--jones", "5")
    assert code == 3
    assert "Jones route needs 2317067955 elementary steps (budget 1000000000)" in err


def test_check_table_jones_refusal_skips_the_level_laws(capsys):
    # the trefoil's price is C_2 (3 + 4) = 14 steps, the unknot's 1 * (0 + 1)
    code, out, _ = run(capsys, "check-table", "--budget", "13", "--json",
                       "--no-timings")
    assert code == 0
    entries = {e["name"]: {r["check"]: r for r in e["checks"]}
               for e in json.loads(out)["entries"]}
    for check in ("l3-component-sign", "l4-modulus-arf", "l6-d3-identity"):
        row = entries["trefoil"][check]
        assert row["verdict"] == "skip"
        assert row["detail"] == \
            "Jones route needs 14 elementary steps (budget 13)"
        assert entries["unknot_b1"][check]["verdict"] == "pass"


def test_budget_refusal_names_the_knob(capsys):
    # the S4 table, 576 steps, fits; the count is refused
    code, _, err = run(capsys, "hom", "--strands", "4", "--word", "1 2 3",
                       "--group", "symmetric 4", "--budget", "1000")
    assert code == 3
    assert "needs 995328 elementary steps (budget 1000)" in err
    assert "--budget" in err.split("(budget 1000)", 1)[1]
    assert "QLL_BUDGET" in err


@pytest.mark.parametrize("argv", [
    ("hom", "--strands", "5000", "--word", "", "--group", "cyclic 10",
     "--estimate", "10", "1"),
    ("invariants", "--strands", "8000", "--word", "", "--jones", "5"),
    ("hom", "--strands", "5000", "--word", "", "--group", "cyclic 10"),
])
def test_no_budget_hint_where_no_budget_lifts_the_refusal(capsys, argv):
    # a budget is parsed from text, so it stays below 10^4300
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("budget refused: ")
    assert "QLL_BUDGET" not in err and len(err.splitlines()) == 1


def test_budget_hint_follows_a_refusal_a_budget_lifts(capsys):
    code, _, err = run(capsys, "hom", "--strands", "3", "--word", "1 2",
                       "--group", "symmetric 3", "--budget", "5")
    assert code == 3
    assert err.splitlines()[-1] == "raise the limit with --budget or QLL_BUDGET"


@pytest.mark.parametrize("argv", [
    ("invariants", "--strands", "8000", "--word", "", "--jones", "5"),
    ("hom", "--strands", "5000", "--word", "", "--group", "cyclic 10"),
    ("hom", "--strands", "7000", "--word", "", "--group", "cyclic 10", "--wirtinger"),
    ("invariants", "--strands", "5000", "--word", "", "--hom", "cyclic 10"),
])
def test_refusal_of_a_price_too_long_to_print(capsys, argv):
    # each price has more than 4300 decimal digits, which CPython will not
    # write as text by default
    code, _, err = run(capsys, *argv)
    assert code == 3
    line, = [l for l in err.splitlines() if l.startswith("budget refused:")]
    assert "needs at least 2^" in line and len(line) < 120


def test_huge_jones_price_refused_at_once(capsys):
    # C_n for a million strands has about 600,000 digits; it is never formed
    started = time.perf_counter()
    code, _, err = run(capsys, "invariants", "--strands", "1000000", "--word", "",
                       "--jones", "5")
    assert code == 3 and "Jones route needs at least 2^" in err
    assert time.perf_counter() - started < 1.0


def _assert_approx_rounds(record):
    # approx is the fraction to six places, also past the float range
    f = Fraction(record["numerator"], record["denominator"])
    assert re.fullmatch(r"\d+\.\d{6}", record["approx"])
    assert abs(Fraction(record["approx"]) - f) <= Fraction(1, 2 * 10 ** 6)


def test_hom_estimate_past_the_float_range(capsys):
    b = BraidWord(400, (1,))
    code, out, _ = run(capsys, "hom", "--strands", "400", "--word", "1",
                       "--group", "cyclic 10", "--estimate", "10", "1",
                       "--json", "--no-timings")
    assert code == 0
    results = json.loads(out)["results"]
    estimate, stderr = hom_count_estimate(b, builtin_group("cyclic 10"), 10, 1)
    assert Fraction(results["estimate"]["numerator"],
                    results["estimate"]["denominator"]) == estimate
    assert Fraction(results["stderr"]["numerator"],
                    results["stderr"]["denominator"]) == stderr
    assert stderr > 2 ** 1024  # past the largest float
    for key in ("estimate", "stderr"):
        _assert_approx_rounds(results[key])


def test_invariants_hom_estimate_past_the_float_range(capsys):
    code, out, err = run(capsys, "invariants", "--strands", "400", "--word", "1",
                         "--hom-estimate", "cyclic 10", "10", "1", "--no-timings")
    assert code == 0 and err == ""
    assert "(samples=10, seed=1)" in out.splitlines()[-1]


def test_exact_estimate_of_a_thousand_strands(capsys):
    code, out, _ = run(capsys, "hom", "--strands", "1000", "--word", "",
                       "--group", "cyclic 10", "--estimate", "1", "1",
                       "--json", "--no-timings")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["estimate"]["numerator"] == 10 ** 1000
    assert results["estimate"]["approx"] == "1" + "0" * 1000 + ".000000"
    assert results["stderr"]["numerator"] == 0


@pytest.mark.parametrize("strands, samples", [("5000", "10"), ("1000000", "1")])
def test_estimate_too_long_to_print_refused_at_once(capsys, strands, samples):
    # 10^5000 alone has more than 4300 digits; 10^1000000 is never formed
    started = time.perf_counter()
    code, _, err = run(capsys, "hom", "--strands", strands, "--word", "",
                       "--group", "cyclic 10", "--estimate", samples, "1")
    assert time.perf_counter() - started < 1.0
    assert code == 3
    line, = [l for l in err.splitlines() if l.startswith("budget refused:")]
    assert "more than 4300 digits" in line and len(line) < 120


def test_check_table_skips_a_state_sum_too_long_to_price(tmp_path, capsys):
    # 2^m (n + m) at m = 15,000 letters has 4,520 digits
    corpus = tmp_path / "long.corpus"
    corpus.write_text("long ; 2 ; %s\n" % " ".join(["1", "-1", "1"] * 5000))
    code, out, _ = run(capsys, "check-table", "--corpus", str(corpus),
                       "--no-timings")
    assert code == 0
    assert ("[SKIP] long :: jones-vs-statesum :: state sum needs at least "
            "2^15013 elementary steps (budget 1000000000)") in out


def test_hom_nonpositive_budget_is_usage_error(capsys):
    code, _, err = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 3", "--budget", "-5")
    assert code == 2
    assert "usage error: --budget must be positive, got -5" in err


def test_estimate_seed_parsed_alike(capsys):
    # invariants --hom-estimate and hom --estimate share one SAMPLES/SEED parser
    code1, out1, _ = run(capsys, "invariants", "--strands", "2", "--word",
                         "1 1 1", "--hom-estimate", "symmetric 3", "50", "+7",
                         "--json", "--no-timings")
    code2, out2, _ = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                         "--group", "symmetric 3", "--estimate", "50", "+7",
                         "--json", "--no-timings")
    assert code1 == code2 == 0
    record = json.loads(out1)["results"]["hom_estimate"][0]
    results = json.loads(out2)["results"]
    for key in ("samples", "seed", "estimate", "stderr"):
        assert record[key] == results[key]
    assert record["seed"] == 7


def test_hom_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("QLL_BUDGET", "10")
    code, _, err = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 3")
    assert code == 3
    monkeypatch.setenv("QLL_BUDGET", "not a number")
    code, _, err = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 3")
    assert code == 2
    assert "QLL_BUDGET" in err


def test_explicit_budget_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("QLL_BUDGET", "10")
    code, out, _ = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 3", "--budget", "1000000",
                       "--no-timings")
    assert code == 0
    assert "count: 12" in out


# ---------------------------------------------------------------------------
# timings

TIMED = [
    ("invariants", "--strands", "2", "--word", "1 1 1", "--det"),
    ("check-table",),
    ("image", "--strands", "3", "--tl", "3"),
    ("hom", "--strands", "2", "--word", "1 1 1", "--group", "symmetric 3"),
]


@pytest.mark.parametrize("argv", TIMED, ids=lambda argv: argv[0])
def test_timed_text_ends_with_one_elapsed_line(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    elapsed = [line for line in lines if line.startswith("elapsed:")]
    assert elapsed == [lines[-1]]
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s", lines[-1])


@pytest.mark.parametrize("argv", TIMED, ids=lambda argv: argv[0])
def test_timed_json_carries_total(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["timings"]["total_s"] >= 0


def test_version_is_untimed(capsys):
    code, out, _ = run(capsys, "version")
    assert code == 0 and "elapsed" not in out
    code, out, _ = run(capsys, "version", "--json")
    assert code == 0 and "timings" not in json.loads(out)


# ---------------------------------------------------------------------------
# version and dispatch

def test_version(capsys):
    import qll

    code, out, _ = run(capsys, "version")
    assert code == 0
    assert out.strip() == "qll %s" % qll.__version__


def test_version_json(capsys):
    code, out, _ = run(capsys, "version", "--json")
    assert json.loads(out)["package"] == "qll"


def test_internal_error_exit_code(capsys, monkeypatch):
    import qll.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(qll.cli, "_cmd_version", broken)
    code, out, err = run(capsys, "version")
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert err.rstrip().endswith("internal error: RuntimeError: boom")


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "subcommand" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 2
