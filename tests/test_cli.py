"""Command-line interface: parsing, reports, exit codes, determinism."""

import json

import pytest

from qll.algebra import UsageError
from qll.braid import BraidWord
from qll.cli import (
    bundled_corpus_text,
    main,
    parse_corpus,
)


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
    assert "usage error" in err


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


def test_image_requires_exactly_one_family(capsys):
    code, _, err = run(capsys, "image", "--strands", "3")
    assert code == 2
    code, _, err = run(capsys, "image", "--strands", "3", "--tl", "4",
                       "--burau", "5", "2")
    assert code == 2


def test_image_unknown_on_tiny_bound(capsys):
    code, out, _ = run(capsys, "image", "--burau", "7", "3", "--strands", "4",
                       "--bound", "10", "--no-timings")
    assert code == 0
    assert "verdict: unknown" in out


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


def test_hom_estimate_error_nonzero_without_hits(capsys):
    # no sample of 20 hits one of the 600 fixed pairs among 120^2
    code, out, _ = run(capsys, "hom", "--strands", "2", "--word", "1 1 1",
                       "--group", "symmetric 5", "--estimate", "20", "1",
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


def test_hom_budget_refusal_exit_code(capsys):
    code, _, err = run(capsys, "hom", "--strands", "3", "--word", "1 2",
                       "--group", "symmetric 4", "--budget", "10")
    assert code == 3
    assert "budget refused" in err


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
