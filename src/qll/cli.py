"""Command-line front end for braid-closure link invariants.

Subcommands:

* ``invariants``  -- evaluate selected invariants of one braid closure.  Its
  flags, report keys, text lines and usage message all come from the one
  table ``INVARIANTS``, in report order.
* ``check-table`` -- run the identity-check suite over a corpus of links
  with frozen expected values (bundled corpus by default).
* ``image``       -- classify the image of a braid-group representation.
* ``hom``         -- count or estimate homomorphisms from a link group.
* ``version``     -- print the package version.

Reports are emitted as text (default) or machine-readable JSON (``--json``).
``timings.total_s`` (text: the closing ``elapsed:`` line) times the whole
subcommand, argument and corpus parsing included; ``version`` is untimed.
With ``--no-timings`` two runs on identical inputs produce byte-identical
JSON.  Exit codes: 0 all checks pass, 1 identity failure, 2 usage error,
3 budget refusal, 4 internal error (a traceback and an ``internal error:``
line go to stderr).  The ``QLL_BUDGET`` environment variable overrides the
default enumeration budget where no explicit ``--budget``/``--bound`` flag
is given.

Corpus files are UTF-8 lines ``name ; strands ; word ; key=value, ...``
with ``#`` comments.  Braid words are space-separated nonzero integers
(sign = crossing sign, magnitude = strand position).  Expected-value keys
are those of ``LITERALS`` (``components``, ``det``, ``d3``, ``d5``,
``arf``, ``jones.l3``, ``jones.l4``; the Jones keys for integer-valued
specializations only) and ``hom.<groupspec>`` for the built-in group specs
of :func:`qll.homcount.builtin_group`.  An unknown key, or a malformed or
over-cap group spec, is a usage error naming the file and line.

``check-table`` reports one row per check on each entry, in order: the
``LAWS`` (closed form against the state-sum oracle, and the level-3, 4 and
6 laws), one row per expected literal, and the abelian law |G|^c for each
of ``ABELIAN_LAW_GROUPS``.  ``_run_check`` runs every row alike: a check
whose work the budget refuses is a skip row, not a failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from fractions import Fraction
from importlib import resources

from . import __version__
from .algebra import (_DECIMAL_CAP, _DEFAULT_BUDGET, BudgetError, CyclotomicNumber,
                      LaurentPoly, UsageError)
from .braid import BraidWord, closure_components, linking_matrix, parse_braid
from .burau import alexander_poly, arf_knot, determinant, double_cover_homology
from .homcount import (
    FiniteGroup,
    _parse_group,
    _require_estimate_budget,
    _require_hom_budget,
    _require_printable_estimate,
    _require_table_budget,
    builtin_group,
    hom_count_estimate,
    hom_count_exact,
    wirtinger_hom_count,
)
from .image import _DEFAULT_BOUND, RepSpec, classify_image
from .tl_jones import jones_at_root, kauffman_bracket_statesum

# Levels checked by the closed-form-vs-state-sum oracle in check-table.
ORACLE_LEVELS = (3, 4, 5, 6, 7, 10)

# Abelian groups for the |G|^components law, checked on every corpus entry.
ABELIAN_LAW_GROUPS = ("cyclic 2", "cyclic 3", "cyclic 6")

# ---------------------------------------------------------------------------
# corpus files


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus line: a named braid plus frozen expected values."""

    name: str
    braid: BraidWord
    expected: tuple[tuple[str, int], ...]


def parse_corpus(text: str, source: str = "<corpus>") -> list[CorpusEntry]:
    """Parse corpus text; raise UsageError with line numbers on bad input."""
    entries: list[CorpusEntry] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = "%s:%d: " % (source, lineno)
        fields = [f.strip() for f in line.split(";")]
        if len(fields) not in (3, 4):
            raise UsageError(
                at + "expected 'name ; strands ; word [; key=value, ...]'"
            )
        name = fields[0]
        if not name:
            raise UsageError(at + "empty entry name")
        if name in seen:
            raise UsageError(at + "duplicate entry name %r" % name)
        seen.add(name)
        try:
            strands = int(fields[1])
        except ValueError:
            raise UsageError(
                at + "strand count %r is not an integer" % fields[1]
            ) from None
        try:
            braid = parse_braid(fields[2], strands)
        except UsageError as exc:
            raise UsageError(at + str(exc)) from None
        expected: list[tuple[str, int]] = []
        if len(fields) == 4 and fields[3]:
            for item in fields[3].split(","):
                key, sep, value_text = item.partition("=")
                key, value_text = key.strip(), value_text.strip()
                if not sep or not key or not value_text:
                    raise UsageError(
                        at + "malformed expected value %r" % item.strip()
                    )
                if key.startswith("hom."):
                    try:
                        _parse_group(key[4:])
                    except UsageError as exc:
                        raise UsageError(
                            at + "expected key %r: %s" % (key, exc)) from None
                elif key not in LITERALS:
                    raise UsageError(at + "unknown expected key %r" % key)
                if any(key == k for k, _ in expected):
                    raise UsageError(at + "duplicate expected key %r" % key)
                try:
                    value = int(value_text)
                except ValueError:
                    raise UsageError(
                        at + "expected value for %r is not an integer: %r"
                        % (key, value_text)
                    ) from None
                expected.append((key, value))
        entries.append(CorpusEntry(name, braid, tuple(expected)))
    return entries


def bundled_corpus_text() -> str:
    return (
        resources.files("qll").joinpath("data/links.corpus").read_text("utf-8")
    )


# ---------------------------------------------------------------------------
# value rendering


def _approx(v: CyclotomicNumber) -> str:
    z = v.to_complex()
    return "%.6f%+.6fi" % (z.real, z.imag)


def _cyc_json(v: CyclotomicNumber) -> dict:
    out: dict = {"order": v.order, "coeffs": list(v.coeffs), "approx": _approx(v)}
    if v.is_rational_integer():
        out["integer"] = v.as_int()
    return out


def _cyc_text(v: CyclotomicNumber) -> str:
    return _json_value_text(_cyc_json(v))


def _poly_text(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for power in range(p.high, p.low - 1, -1):
        coeff = p.coeffs[power - p.low]
        if not coeff:
            continue
        magnitude = abs(coeff)
        if power == 0:
            body = str(magnitude)
        else:
            body = ("t" if magnitude == 1 else "%dt" % magnitude) + (
                "" if power == 1 else "^%d" % power
            )
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def _poly_json(p: LaurentPoly) -> dict:
    return {"low": p.low, "coeffs": list(p.coeffs), "text": _poly_text(p)}


def _fraction_json(f: Fraction) -> dict:
    try:
        approx = "%.6f" % float(f)
    except OverflowError:  # past the float range: round to 6 places exactly
        approx = "%d.%06d" % divmod(round(f * 10 ** 6), 10 ** 6)
    return {
        "numerator": f.numerator,
        "denominator": f.denominator,
        "approx": approx,
    }


def _word_text(word: tuple[int, ...]) -> str:
    return " ".join(str(letter) for letter in word) if word else "(empty)"


# ---------------------------------------------------------------------------
# identity-check suite


@dataclass(frozen=True)
class _Link:
    """One corpus braid under check: its closure's component count, its
    Jones values (each level computed once), the run's budget and its group
    builder ``groups(spec, budget)``."""

    braid: BraidWord
    c: int
    jones: Callable[[int], CyclotomicNumber]
    budget: int
    groups: Callable[[str, int], FiniteGroup]

    def hom(self, spec: str) -> tuple[int, int]:
        """The exact homomorphism count into the group of spec, and |G|."""
        group = _count_group(self.braid, spec, self.budget, self.groups)
        return hom_count_exact(self.braid, group, self.budget), group.size


def _integer_or_text(v: CyclotomicNumber) -> int | str:
    return v.as_int() if v.is_rational_integer() else _cyc_text(v)


# Corpus key -> its value on a checked link; ``hom.<groupspec>`` keys, one
# per built-in group, are read by `_Link.hom` instead.
LITERALS: dict[str, Callable[[_Link], int | str]] = {
    "components": lambda x: x.c,
    "det": lambda x: determinant(x.braid),
    "d3": lambda x: double_cover_homology(x.braid, 3),
    "d5": lambda x: double_cover_homology(x.braid, 5),
    "arf": lambda x: arf_knot(x.braid),
    "jones.l3": lambda x: _integer_or_text(x.jones(3)),
    "jones.l4": lambda x: _integer_or_text(x.jones(4)),
}


def _l6_targets(c: int, d3: int) -> tuple[CyclotomicNumber, CyclotomicNumber]:
    """The pair ±i^(c-1) (i√3)^d3 in Q(zeta_24)."""
    i_unit = CyclotomicNumber.zeta(24, 6)
    sqrt3 = CyclotomicNumber.zeta(24, 2) + CyclotomicNumber.zeta(24, 22)
    target = i_unit ** (c - 1) * (i_unit * sqrt3) ** d3
    return target, -target


def _statesum_oracle(x: _Link) -> tuple[bool, str]:
    """Closed form vs the state-sum oracle, exact cyclotomic equality."""
    for l in ORACLE_LEVELS:
        lhs, rhs = x.jones(l), kauffman_bracket_statesum(x.braid, l, x.budget)
        if lhs != rhs:
            return False, "l=%d: closed form %s, state sum %s" % (
                l, _cyc_text(lhs), _cyc_text(rhs))
    return True, "equal at l=%s" % ",".join(str(l) for l in ORACLE_LEVELS)


def _l3_component_sign(x: _Link) -> tuple[bool, str]:
    """Level 3: V = (-1)^(c-1)."""
    sign = -1 if (x.c - 1) % 2 else 1
    v3 = x.jones(3)
    return (v3.is_rational_integer() and v3.as_int() == sign,
            "V=%s, (-1)^(c-1)=%d with c=%d" % (_cyc_text(v3), sign, x.c))


def _l4_modulus_arf(x: _Link) -> tuple[bool, str]:
    """Level 4: V = 0 or |V|^2 = 2^(c-1); knots carry the Arf sign."""
    v4 = x.jones(4)
    if v4.is_zero():
        return True, "V=0"
    modulus_sq = v4 * v4.conjugate()
    ok = (
        modulus_sq.is_rational_integer()
        and modulus_sq.as_int() == 2 ** (x.c - 1)
    )
    detail = "V*Vbar=%s, 2^(c-1)=%d" % (_cyc_text(modulus_sq), 2 ** (x.c - 1))
    if ok and x.c == 1:
        arf = arf_knot(x.braid)
        ok = v4.is_rational_integer() and v4.as_int() == (-1) ** arf
        detail += "; V(i)=%s, (-1)^Arf=%d" % (_cyc_text(v4), (-1) ** arf)
    return ok, detail


def _l6_d3_identity(x: _Link) -> tuple[bool, str]:
    """Level 6: V = +-i^(c-1) (i sqrt 3)^d3, the sign observed and logged."""
    v6 = x.jones(6)
    d3 = double_cover_homology(x.braid, 3)
    plus, minus = _l6_targets(x.c, d3)
    observed = "+" if v6 == plus else "-" if v6 == minus else "none"
    return observed != "none", "V=%s, i^(c-1)(i*sqrt3)^d3=%s, d3=%d, sign=%s" % (
        _cyc_text(v6), _cyc_text(plus), d3, observed)


# The laws checked on every corpus entry, in report order.  The Jones
# route's price does not depend on the level, so a budget that refuses one
# level law refuses all three.
LAWS = (
    ("jones-vs-statesum", _statesum_oracle),
    ("l3-component-sign", _l3_component_sign),
    ("l4-modulus-arf", _l4_modulus_arf),
    ("l6-d3-identity", _l6_d3_identity),
)


def _expected(x: _Link, key: str, value: int) -> tuple[bool, str]:
    """A frozen corpus literal against its computed value."""
    try:
        actual = x.hom(key[4:])[0] if key.startswith("hom.") else LITERALS[key](x)
    except UsageError as exc:
        actual = "error: %s" % exc
    return actual == value, "expected %d, got %s" % (value, actual)


def _abelian_law(x: _Link, spec: str) -> tuple[bool, str]:
    """The hom count into an abelian group G is |G|^c."""
    count, size = x.hom(spec)
    return count == size ** x.c, "H=%d, |G|^c=%d with c=%d" % (
        count, size ** x.c, x.c)


def _run_check(name: str, body: Callable[[], tuple[bool, str]]) -> dict:
    """One report row from body() = (ok, detail); a budget refusal skips
    the row and gives the refusal as its detail."""
    try:
        ok, detail = body()
    except BudgetError as exc:
        return {"check": name, "verdict": "skip", "detail": str(exc)}
    return {"check": name, "verdict": "pass" if ok else "fail", "detail": detail}


def run_entry_checks(entry: CorpusEntry, budget: int,
                     groups: Callable[[str, int], FiniteGroup]) -> list[dict]:
    """All identity checks for one corpus entry, in a fixed order: the laws,
    the entry's literals, then the abelian laws; `groups(spec, budget)`
    builds a group (one cache per run)."""
    b = entry.braid
    x = _Link(b, closure_components(b),
              functools.cache(functools.partial(jones_at_root, b, budget=budget)),
              budget, groups)
    checks = [(name, functools.partial(law, x)) for name, law in LAWS]
    checks += [("expected:%s" % key, functools.partial(_expected, x, key, value))
               for key, value in entry.expected]
    checks += [("abelian-law:%s" % spec, functools.partial(_abelian_law, x, spec))
               for spec in ABELIAN_LAW_GROUPS]
    return [_run_check(name, body) for name, body in checks]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-able report dict and an exit code)


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (what, text)) from None
    if value <= 0:
        raise UsageError("%s must be positive, got %d" % (what, value))
    return value


def _limit(text: str | None, flag: str, default: int) -> int:
    """The positive integer given by the flag, else by ``QLL_BUDGET``, else
    the route's default."""
    if text is not None:
        return _positive_int(text, flag)
    raw = os.environ.get("QLL_BUDGET")
    return default if raw is None else _positive_int(raw, "QLL_BUDGET")


def _count_group(b: BraidWord, spec: str, budget: int,
                 groups: Callable[[str, int], FiniteGroup] = builtin_group,
                 wirtinger: bool = False) -> FiniteGroup:
    """groups(spec, budget) for `hom_count_exact`, or `wirtinger_hom_count`,
    on b, called only once the spec's table and then the count fit the
    budget: a refused count builds no table."""
    order = _parse_group(spec)[1]
    _require_table_budget(order, budget)
    _require_hom_budget(b, order, budget, wirtinger)
    return groups(spec, budget)


def _hom_estimate(b: BraidWord, spec: str, samples_text: str,
                  seed_text: str, budget: int) -> dict:
    """Parse SAMPLES and SEED, then run the seeded sampling estimate over
    the group of spec, built only once its table and then the estimate fit
    the budget."""
    order = _parse_group(spec)[1]
    samples = _positive_int(samples_text, "sample count")
    try:
        seed = int(seed_text)
    except ValueError:
        raise UsageError("seed must be an integer, got %r" % seed_text) from None
    _require_table_budget(order, budget)
    _require_estimate_budget(b, samples, budget)
    _require_printable_estimate(b, order, samples)
    estimate, stderr = hom_count_estimate(b, builtin_group(spec, budget), samples,
                                          seed, budget)
    return {
        "samples": samples,
        "seed": seed,
        "estimate": _fraction_json(estimate),
        "stderr": _fraction_json(stderr),
    }


def _linking(b: BraidWord) -> dict:
    matrix = [list(row) for row in linking_matrix(b)]
    total = sum(sum(row[i + 1:]) for i, row in enumerate(matrix))
    return {"matrix": matrix, "total": total}


def _each(values: list[int], value: Callable[[int], object]) -> dict:
    """value(v) keyed by str(v), for each distinct v in increasing order."""
    return {str(v): value(v) for v in sorted(set(values))}


# The invariants of one closure, in report order: (flag, argparse options,
# value(braid, argument, budget) for the JSON report, lines(value) for the
# text report).  The report key is the flag's argparse dest, `_key(flag)`.
INVARIANTS = (
    ("--components", {"action": "store_true"},
     lambda b, _, budget: closure_components(b),
     lambda v: ["components: %d" % v]),
    ("--linking", {"action": "store_true"},
     lambda b, _, budget: _linking(b),
     lambda v: ["linking: total=%d matrix=%s" % (
         v["total"], ";".join(",".join(map(str, row)) for row in v["matrix"]))]),
    ("--jones", {"type": int, "action": "append", "metavar": "L",
                 "help": "Jones at level L"},
     lambda b, levels, budget: _each(
         levels, lambda l: _cyc_json(jones_at_root(b, l, budget))),
     lambda v: ["jones[%s]: %s" % (l, _json_value_text(x)) for l, x in v.items()]),
    ("--alexander", {"action": "store_true"},
     lambda b, _, budget: _poly_json(alexander_poly(b)),
     lambda v: ["alexander: %s" % v["text"]]),
    ("--det", {"action": "store_true"},
     lambda b, _, budget: determinant(b),
     lambda v: ["det: %d" % v]),
    ("--dp", {"type": int, "action": "append", "metavar": "P",
              "help": "double-cover homology rank at prime P"},
     lambda b, primes, budget: _each(
         primes, lambda p: double_cover_homology(b, p)),
     lambda v: ["d%s: %d" % item for item in v.items()]),
    ("--arf", {"action": "store_true", "help": "Arf invariant (knots)"},
     lambda b, _, budget: arf_knot(b),
     lambda v: ["arf: %d" % v]),
    ("--hom", {"action": "append", "metavar": "GROUP",
               "help": "exact homomorphism count into a built-in group"},
     lambda b, specs, budget: {
         spec: hom_count_exact(b, _count_group(b, spec, budget), budget)
         for spec in dict.fromkeys(specs)},
     lambda v: ["hom[%s]: %d" % item for item in v.items()]),
    ("--hom-estimate", {"nargs": 3, "action": "append",
                        "metavar": ("GROUP", "SAMPLES", "SEED"),
                        "help": "seeded sampling estimate of the homomorphism count"},
     lambda b, requests, budget: [
         {"group": spec, **_hom_estimate(b, spec, samples, seed, budget)}
         for spec, samples, seed in requests],
     lambda v: ["hom-estimate[%s]: %s" % (r["group"], _estimate_text(r))
                for r in v]),
)


def _key(flag: str) -> str:
    """The report key of an `INVARIANTS` flag: its argparse dest."""
    return flag[2:].replace("-", "_")


def _cmd_invariants(args: argparse.Namespace) -> tuple[dict, int]:
    budget = _limit(args.budget, "--budget", _DEFAULT_BUDGET)
    b = parse_braid(args.word, args.strands)
    results: dict = {}
    for flag, _, value, _ in INVARIANTS:
        argument = getattr(args, _key(flag))
        if argument:
            results[_key(flag)] = value(b, argument, budget)
    if not results:
        raise UsageError("no invariants requested; pass at least one of "
                         + ", ".join(flag for flag, *_ in INVARIANTS))
    return {
        "command": "invariants",
        "input": {"strands": b.strands, "word": list(b.word)},
        "results": results,
    }, 0


def _cmd_check_table(args: argparse.Namespace) -> tuple[dict, int]:
    budget = _limit(args.budget, "--budget", _DEFAULT_BUDGET)
    if args.corpus is not None:
        try:
            with open(args.corpus, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError("cannot read corpus: %s" % exc) from None
        source = args.corpus
    else:
        text, source = bundled_corpus_text(), "bundled"
    entries = parse_corpus(text, source)
    groups = functools.cache(builtin_group)
    entry_reports = []
    passed = failed = skipped = 0
    for entry in entries:
        entry_started = time.perf_counter()
        rows = run_entry_checks(entry, budget, groups)
        passed += sum(1 for r in rows if r["verdict"] == "pass")
        failed += sum(1 for r in rows if r["verdict"] == "fail")
        skipped += sum(1 for r in rows if r["verdict"] == "skip")
        entry_report = {
            "name": entry.name,
            "strands": entry.braid.strands,
            "word": list(entry.braid.word),
            "checks": rows,
        }
        if not args.no_timings:
            entry_report["elapsed_s"] = time.perf_counter() - entry_started
        entry_reports.append(entry_report)
    return {
        "command": "check-table",
        "source": source,
        "entries": entry_reports,
        "summary": {
            "entries": len(entries),
            "checks": passed + failed + skipped,
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
        },
    }, 1 if failed else 0


def _cmd_image(args: argparse.Namespace) -> tuple[dict, int]:
    if (args.tl is None) == (args.burau is None):
        raise UsageError("pass exactly one of --tl L or --burau P T0")
    if args.tl is not None:
        spec = RepSpec(family="tl", strands=args.strands, l=args.tl)
    else:
        p, t0 = args.burau
        spec = RepSpec(family="burau", strands=args.strands, p=p, t0=t0)
    bound = _limit(args.bound, "--bound", _DEFAULT_BOUND)
    return {"command": "image", "input": {**asdict(spec), "bound": bound},
            **asdict(classify_image(spec, bound))}, 0


def _cmd_hom(args: argparse.Namespace) -> tuple[dict, int]:
    budget = _limit(args.budget, "--budget", _DEFAULT_BUDGET)
    b = parse_braid(args.word, args.strands)
    if args.estimate is not None and args.wirtinger:
        raise UsageError("--estimate and --wirtinger are mutually exclusive")
    order = _parse_group(args.group)[1]
    results: dict = {"group": args.group, "group_order": order}
    if args.estimate is not None:
        results["method"] = "estimate"
        results.update(_hom_estimate(b, args.group, *args.estimate, budget))
    else:
        counter = wirtinger_hom_count if args.wirtinger else hom_count_exact
        results["method"] = "wirtinger" if args.wirtinger else "hurwitz"
        results["count"] = counter(
            b, _count_group(b, args.group, budget, wirtinger=args.wirtinger), budget)
    return {
        "command": "hom",
        "input": {"strands": b.strands, "word": list(b.word)},
        "results": results,
    }, 0


def _cmd_version(args: argparse.Namespace) -> tuple[dict, int]:
    return {"command": "version", "package": "qll", "version": __version__}, 0


# ---------------------------------------------------------------------------
# text rendering


def _input_lines(report: dict) -> list[str]:
    return [
        "strands: %d" % report["input"]["strands"],
        "word: %s" % _word_text(tuple(report["input"]["word"])),
    ]


def _estimate_text(record: dict) -> str:
    return "%s +- %s (samples=%d, seed=%d)" % (
        _json_fraction_text(record["estimate"]),
        _json_fraction_text(record["stderr"]),
        record["samples"],
        record["seed"],
    )


def _render_invariants(report: dict) -> str:
    results = report["results"]
    return "\n".join(_input_lines(report) + [
        line for flag, _, _, lines in INVARIANTS if _key(flag) in results
        for line in lines(results[_key(flag)])])


def _json_value_text(value: dict) -> str:
    if "integer" in value:
        return str(value["integer"])
    terms = " ".join(
        "%+d*z^%d" % (coeff, power)
        for power, coeff in enumerate(value["coeffs"])
        if coeff
    )
    return "(%s in Q(zeta_%d)) ~ %s" % (terms, value["order"], value["approx"])


def _json_fraction_text(value: dict) -> str:
    if value["denominator"] == 1:
        return str(value["numerator"])
    return "%d/%d" % (value["numerator"], value["denominator"])


def _render_check_table(report: dict) -> str:
    lines = [
        "check-table: source=%s entries=%d"
        % (report["source"], report["summary"]["entries"])
    ]
    for entry in report["entries"]:
        for row in entry["checks"]:
            lines.append(
                "[%s] %s :: %s :: %s"
                % (
                    row["verdict"].upper(),
                    entry["name"],
                    row["check"],
                    row["detail"],
                )
            )
    summary = report["summary"]
    lines.append(
        "summary: checks=%d passed=%d failed=%d skipped=%d"
        % (
            summary["checks"],
            summary["passed"],
            summary["failed"],
            summary["skipped"],
        )
    )
    return "\n".join(lines)


def _render_image(report: dict) -> str:
    spec = report["input"]
    # the family's own parameters: RepSpec leaves the other family's at 0
    params = "".join(" %s=%d" % (k, spec[k]) for k in ("l", "p", "t0") if spec[k])
    head = "image: %s%s strands=%d bound=%d" % (
        spec["family"], params, spec["strands"], spec["bound"])
    lines = [head, "verdict: %s" % report["verdict"]]
    if report["order"] is not None:
        lines.append("order: %d" % report["order"])
    if report["witness"] is not None:
        lines.append("witness: %s" % _word_text(report["witness"]))
    for note in report["notes"]:
        lines.append("note: %s" % note)
    return "\n".join(lines)


def _render_hom(report: dict) -> str:
    results = report["results"]
    lines = _input_lines(report) + [
        "group: %s (order %d)" % (results["group"], results["group_order"]),
        "method: %s" % results["method"],
    ]
    if results["method"] == "estimate":
        lines.append("estimate: %s" % _estimate_text(results))
    else:
        lines.append("count: %d" % results["count"])
    return "\n".join(lines)


def _render_version(report: dict) -> str:
    return "%s %s" % (report["package"], report["version"])


_RENDERERS = {
    "invariants": _render_invariants,
    "check-table": _render_check_table,
    "image": _render_image,
    "hom": _render_hom,
    "version": _render_version,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _ArgumentParser(argparse.ArgumentParser):
    # raise instead of exiting so main() can map parse problems to exit code 2
    def error(self, message: str):
        raise UsageError(message)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument(
        "--no-timings",
        action="store_true",
        help="omit timings (byte-deterministic output)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qll", description="Link invariants of braid closures."
    )
    sub = parser.add_subparsers(dest="cmd")

    inv = sub.add_parser("invariants", help="invariants of one braid closure")
    inv.add_argument("--strands", type=int, required=True)
    inv.add_argument("--word", required=True, help="space-separated letters")
    for flag, options, _, _ in INVARIANTS:
        inv.add_argument(flag, **options)
    inv.add_argument("--budget")
    _add_common_flags(inv)
    inv.set_defaults(handler=_cmd_invariants)

    check = sub.add_parser(
        "check-table", help="identity-check suite over a link corpus"
    )
    check.add_argument(
        "--corpus", help="corpus file path (default: bundled corpus)"
    )
    check.add_argument("--budget")
    _add_common_flags(check)
    check.set_defaults(handler=_cmd_check_table)

    image = sub.add_parser("image", help="classify a braid representation image")
    image.add_argument("--strands", type=int, required=True)
    image.add_argument("--tl", type=int, metavar="L")
    image.add_argument("--burau", type=int, nargs=2, metavar=("P", "T0"))
    image.add_argument(
        "--bound",
        help="work cap: projective order (--tl), or projective "
        "points x stored permutations (--burau)",
    )
    _add_common_flags(image)
    image.set_defaults(handler=_cmd_image)

    hom = sub.add_parser("hom", help="homomorphism count for one braid closure")
    hom.add_argument("--strands", type=int, required=True)
    hom.add_argument("--word", required=True)
    hom.add_argument("--group", required=True, metavar="GROUP")
    hom.add_argument(
        "--wirtinger",
        action="store_true",
        help="count via the planar-diagram oracle",
    )
    hom.add_argument(
        "--estimate", nargs=2, metavar=("SAMPLES", "SEED"), help="sampling mode"
    )
    hom.add_argument("--budget")
    _add_common_flags(hom)
    hom.set_defaults(handler=_cmd_hom)

    version = sub.add_parser("version", help="print package version")
    _add_common_flags(version)
    version.set_defaults(handler=_cmd_version, no_timings=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cmd", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        started = time.perf_counter()
        report, code = args.handler(args)
        if not args.no_timings:
            report["timings"] = {"total_s": time.perf_counter() - started}
        if args.json:
            text = json.dumps(report, indent=2, sort_keys=True)
        else:
            text = _RENDERERS[report["command"]](report)
            if not args.no_timings:
                text += "\nelapsed: %.3fs" % report["timings"]["total_s"]
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetError as exc:
        print("budget refused: %s" % exc, file=sys.stderr)
        if exc.required is not None and exc.required < _DECIMAL_CAP:
            # a budget is parsed from text, so no budget lifts a larger price
            print("raise the limit with --budget or QLL_BUDGET", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, not of its input
        import traceback  # here, not at the top: it would slow every start-up
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
