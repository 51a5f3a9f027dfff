"""Seeded inputs of the three workloads.

Every braid input is a Markov-scrambled presentation of a link of qll's
bundled corpus, made here and not by ``qll.braid``: the seed word is
stabilised up to n strands, given one inserted relator conjugated by a random
word (so the partial products of the word wander far from the identity, as
in a hard input), grown with further relator rewrites of the braid group
(inserted relators, and subwords replaced by the rest of a relator), mixed
with length-preserving braid-relation and commutation rewrites, and rotated
(a conjugation).  Every intermediate word stays freely and cyclically reduced,
so no letter-level reduction undoes the scrambling, and every invariant of
the corpus link is known in advance.

A word's length parity is fixed by its exponent sum, which relator moves do
not change, so a slot asking for m letters gets m or m + 1.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

CORPUS = Path("src") / "qll" / "data" / "links.corpus"

WORKLOADS = ("quantum", "image", "classical")

# quantum: every word is evaluated at both levels.  l = 10 >= n + 1, so a
# path-model basis could not shrink the representation there; at l = 5 it
# could.
QUANTUM_WORDS = ((6, 40), (6, 40), (7, 40), (7, 40), (7, 40), (8, 40), (8, 40))
QUANTUM_LEVELS = (5, 10)

# image: (l, n) Temperley-Lieb specs, finite exactly when l in {3, 4, 6} or
# (l, n) = (10, 3); (3, 5) gives the set-up a 42-diagram generator build.
# (4, 4) and (10, 3) are left out of the job list: single calls of 1.2-1.7 s
# are longer than the machine's speed phases, and with them the workload did
# not prove steady (see README.md).  (4, 4) is the CLI input.
IMAGE_TL = ((3, 3), (3, 5), (4, 3), (6, 3),
            (5, 3), (7, 3), (8, 3), (12, 3), (5, 4), (7, 4))
# (p, t0, n) reduced Burau specs with projective image orders in the thousands.
IMAGE_BURAU = ((5, 2, 4), (5, 4, 4), (13, 12, 3))

CLASSICAL_ALEXANDER = ((7, 40), (8, 40), (8, 40), (9, 40))
CLASSICAL_COVER = ((20, 200), (24, 240))
COVER_PRIMES = (3, 5)
# (group, strands, letters): the Hurwitz enumeration visits |G|^n tuples.
CLASSICAL_EXACT = (("symmetric 4", 3, 24), ("quaternion8 x symmetric 3", 3, 16),
                   ("dihedral 7", 4, 20), ("symmetric 3", 6, 20))
ESTIMATE_GROUP = "symmetric 3"
CLASSICAL_ESTIMATE = ((3, 20), (4, 20))
ESTIMATE_SAMPLES = 10_000
MIN_EXPECTED_HITS = 50  # and as many misses, so the binomial error is not 0

CLI_QUANTUM = (8, 40)
CLI_CLASSICAL = (9, 40)
# python -m qll invocations closing each round.  The classical CLI call is
# mostly interpreter start-up, whose noise the calibration slices do not
# follow, so it is sampled three times as often.
CLI_PER_ROUND = {"quantum": 1, "image": 1, "classical": 3}


@dataclass(frozen=True)
class Link:
    """A corpus entry: the seed word and its frozen literals."""

    name: str
    strands: int
    word: tuple[int, ...]
    literals: dict = field(compare=False)


@dataclass(frozen=True)
class Job:
    """One call into a public function of qll.  ``params`` are plain values;
    run.py turns them into qll objects after set-up."""

    id: str
    layer: str
    func: str
    params: tuple
    link: Link | None = None


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    cli_args: list
    cli_link: Link | None
    setup_params: tuple


def read_corpus(root: Path) -> list[Link]:
    links = []
    for raw in (root / CORPUS).read_text("utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(";")]
        literals = {}
        if len(fields) > 3 and fields[3]:
            for item in fields[3].split(","):
                key, _, value = item.partition("=")
                literals[key.strip()] = int(value)
        links.append(Link(fields[0], int(fields[1]),
                          tuple(int(x) for x in fields[2].split()), literals))
    return links


# ---------------------------------------------------------------------------
# scrambling

def inverse(word) -> tuple:
    return tuple(-x for x in reversed(word))


def is_reduced(word) -> bool:
    """Freely and cyclically reduced."""
    if any(word[k] == -word[k + 1] for k in range(len(word) - 1)):
        return False
    return len(word) < 2 or word[0] != -word[-1]


def relator_rotations(n: int) -> list[tuple]:
    """Cyclic rotations of the braid relators of B_n and their inverses."""
    rels = [(i, i + 1, i, -(i + 1), -i, -(i + 1)) for i in range(1, n - 1)]
    rels += [(i, j, -i, -j) for i in range(1, n) for j in range(i + 2, n)]
    out = set()
    for r in rels:
        for s in (r, inverse(r)):
            out.update(s[k:] + s[:k] for k in range(len(s)))
    return sorted(out)


def _rewrite(w, rels, rng, grow: int):
    """One relator move: replace the prefix r[:k] of a relator rotation r,
    found in w, by the inverse of the rest.  Returns the new word, or None
    when the move does not apply or would leave the word unreduced.  With
    grow = 0 only length-preserving moves are tried; otherwise the length
    may grow by at most ``grow``."""
    r = rng.choice(rels)
    k = rng.randrange(len(r) + 1) if grow else len(r) // 2
    delta = len(r) - 2 * k
    if grow and not 0 < delta <= grow:
        return None
    if k == 0:
        p = rng.randrange(len(w) + 1)
    else:
        head = r[:k]
        places = [p for p in range(len(w) - k + 1) if w[p:p + k] == head]
        if not places:
            return None
        p = rng.choice(places)
    new = w[:p] + inverse(r[k:]) + w[p + k:]
    return new if is_reduced(new) else None


def scramble(link: Link, n: int, m: int, rng: random.Random) -> tuple:
    """A presentation of ``link`` on n strands with m or m + 1 letters."""
    if n < max(link.strands, 3):
        raise ValueError("cannot scramble %s onto %d strands" % (link.name, n))
    w = link.word
    for k in range(link.strands, n):
        w += (rng.choice((1, -1)) * k,)
    target = m + (m - len(w)) % 2
    if target < len(w):
        raise ValueError("slot of %d letters is too short for %s" % (m, link.name))
    rels = relator_rotations(n)
    # conjugator of about half the growth; an empty word (an unlink on n
    # strands) cannot take a conjugate and stay cyclically reduced
    reach = (target - len(w) - 6) // 4 if w else 0
    for _ in range(10_000 if reach > 0 else 0):
        g = [rng.choice((1, -1)) * rng.randrange(1, n)]
        while len(g) < reach:
            x = rng.choice((1, -1)) * rng.randrange(1, n)
            if x != -g[-1]:
                g.append(x)
        r = rng.choice([r for r in rels if len(r) == 6])
        p = rng.randrange(len(w) + 1)
        new = w[:p] + tuple(g) + inverse(r) + inverse(g) + w[p:]
        if is_reduced(new):
            w = new
            break
    attempts = 0
    while len(w) < target:
        attempts += 1
        if attempts > 200_000:
            raise RuntimeError("scrambling %s did not reach %d letters"
                               % (link.name, target))
        new = _rewrite(w, rels, rng, target - len(w))
        if new is not None:
            w = new
    for _ in range(2 * len(w)):
        new = _rewrite(w, rels, rng, 0)
        if new is not None:
            w = new
    shift = rng.randrange(len(w)) if w else 0
    w = w[shift:] + w[:shift]
    assert is_reduced(w) and len(w) == target
    return w


# ---------------------------------------------------------------------------
# workloads

def _cli_word(word) -> str:
    return " ".join(str(x) for x in word)


def build(name: str, seed: int, links: list[Link]) -> Workload:
    """The job list, CLI input and set-up parameters of a workload; the same
    seed gives the same inputs.

    The cost of a Jones, Alexander or double-cover call depends on the
    content of its word: between scrambles of the same size the work of a
    job list spreads by 20-80 % (quartile distance over median of operation
    counts), wider than any regression bound.  Those words are therefore
    made from a fixed construction seed.  The run seed picks the links and
    scrambles of the homomorphism-count jobs, whose cost depends only on
    |G|, n and the word length, the estimator's sampling seeds, and the
    order of the jobs in each round (run.py)."""
    fixed = random.Random("qllbench-inputs:%s" % name)
    rng = random.Random("%s:%d" % (name, seed))

    def pick(r, n, m=None, ok=lambda link: True):
        # with m given, only links whose scramble has exactly m letters
        return r.choice([lk for lk in links if lk.strands <= n and ok(lk) and (
            m is None or (m - len(lk.word) - n + lk.strands) % 2 == 0)])

    jobs: list[Job] = []
    if name == "quantum":
        for w_idx, (n, m) in enumerate(QUANTUM_WORDS):
            link = pick(fixed, n)
            word = scramble(link, n, m, fixed)
            for l in QUANTUM_LEVELS:
                jobs.append(Job("jones-w%d-l%d" % (w_idx, l), "tl_jones",
                                "jones_at_root", (n, word, l), link))
        n, m = CLI_QUANTUM
        cli_link = pick(fixed, n)
        word = scramble(cli_link, n, m, fixed)
        cli = ["invariants", "--strands", str(n), "--word", _cli_word(word)]
        for l in QUANTUM_LEVELS:
            cli += ["--jones", str(l)]
        setup = tuple(sorted({(n, l) for n, _ in QUANTUM_WORDS for l in QUANTUM_LEVELS}))
    elif name == "image":
        for l, n in IMAGE_TL:
            jobs.append(Job("tl-l%d-n%d" % (l, n), "image", "classify_image",
                            ("tl", n, l)))
        for p, t0, n in IMAGE_BURAU:
            jobs.append(Job("burau-p%d-t%d-n%d" % (p, t0, n), "image",
                            "classify_image", ("burau", n, p, t0)))
        cli_link = None
        cli = ["image", "--tl", "4", "--strands", "4"]
        setup = tuple(job.params for job in jobs)
    elif name == "classical":
        for k, (n, m) in enumerate(CLASSICAL_ALEXANDER):
            link = pick(fixed, n)
            jobs.append(Job("alexander-w%d" % k, "burau", "alexander_poly",
                            (n, scramble(link, n, m, fixed)), link))
        for k, (n, m) in enumerate(CLASSICAL_COVER):
            link = pick(fixed, n)
            word = scramble(link, n, m, fixed)
            for p in COVER_PRIMES:
                jobs.append(Job("cover-w%d-p%d" % (k, p), "burau",
                                "double_cover_homology", (n, word, p), link))
        for k, (group, n, m) in enumerate(CLASSICAL_EXACT):
            link = pick(rng, n, m)
            jobs.append(Job("exact-w%d" % k, "homcount", "hom_count_exact",
                            (n, scramble(link, n, m, rng), group), link))
        key = "hom." + ESTIMATE_GROUP
        for k, (n, m) in enumerate(CLASSICAL_ESTIMATE):
            order_n = 6 ** n  # |S3|^n tuples
            link = pick(rng, n, m, lambda lk: key in lk.literals and MIN_EXPECTED_HITS
                        * order_n <= ESTIMATE_SAMPLES * lk.literals[key]
                        <= (ESTIMATE_SAMPLES - MIN_EXPECTED_HITS) * order_n)
            jobs.append(Job("estimate-w%d" % k, "homcount", "hom_count_estimate",
                            (n, scramble(link, n, m, rng), ESTIMATE_GROUP,
                             ESTIMATE_SAMPLES, rng.randrange(10 ** 6)), link))
        n, m = CLI_CLASSICAL
        cli_link = pick(fixed, n)
        word = scramble(cli_link, n, m, fixed)
        cli = ["invariants", "--strands", str(n), "--word", _cli_word(word),
               "--alexander", "--det"]
        for p in COVER_PRIMES:
            cli += ["--dp", str(p)]
        setup = tuple(sorted({g for g, _, _ in CLASSICAL_EXACT} | {ESTIMATE_GROUP}))
    else:
        raise ValueError("unknown workload %r" % name)
    return Workload(name, seed, jobs, cli + ["--json", "--no-timings"],
                    cli_link, setup)
