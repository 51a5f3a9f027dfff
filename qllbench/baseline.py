#!/usr/bin/env python3
"""Raw single-run re-measurements of the baseline rows of ROADMAP.md, one
row per command:

    python3 qllbench/baseline.py jones       # Jones l=5, random braid n=10 m=40
    python3 qllbench/baseline.py alexander   # Alexander, random positive braid n=10 m=60
    python3 qllbench/baseline.py dp3         # d_3, random braid n=30 m=300
    python3 qllbench/baseline.py statesum    # Kauffman state sum, m=18
    python3 qllbench/baseline.py hom-s4      # S4 count n=4 m=12, Hurwitz and Wirtinger
    python3 qllbench/baseline.py image       # image TL l=4 n=4

Each row prints its raw wall seconds (one call, after the import) and the
same time normalised by the calibration bracket of timing.py.  Inputs are
random words from a fixed seed; these rows are reference figures, not the
benchmark's metrics.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import timing

SRC = Path(__file__).resolve().parent.parent / "src"


def random_word(rng, n, m, positive=False):
    word = []
    while len(word) < m:
        x = rng.randrange(1, n) * (1 if positive else rng.choice((1, -1)))
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


def rows():
    import qll
    from qll.image import RepSpec, classify_image

    rng = random.Random(20080308)

    def braid(n, m, positive=False):
        return qll.BraidWord(n, random_word(rng, n, m, positive))

    s4 = qll.builtin_group("symmetric 4")
    b4 = braid(4, 12)
    return {
        "jones": [("jones_at_root l=5 n=10 m=40", qll.jones_at_root, (braid(10, 40), 5))],
        "alexander": [("alexander_poly positive n=10 m=60", qll.alexander_poly,
                       (braid(10, 60, positive=True),))],
        "dp3": [("double_cover_homology p=3 n=30 m=300", qll.double_cover_homology,
                 (braid(30, 300), 3))],
        "statesum": [("kauffman_bracket_statesum l=5 n=4 m=18",
                      qll.kauffman_bracket_statesum, (braid(4, 18), 5))],
        "hom-s4": [("hom_count_exact S4 n=4 m=12", qll.hom_count_exact, (b4, s4)),
                   ("wirtinger_hom_count S4 n=4 m=12", qll.wirtinger_hom_count, (b4, s4))],
        "image": [("classify_image tl l=4 n=4", classify_image,
                   (RepSpec(family="tl", strands=4, l=4),))],
    }


def main(argv) -> int:
    names = ("jones", "alexander", "dp3", "statesum", "hom-s4", "image")
    if len(argv) != 1 or argv[0] not in names:
        print("usage: baseline.py {%s}" % ",".join(names), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for label, fn, args in rows()[argv[0]]:
        result, br = timing.timed(fn, *args)
        print("%-44s raw %.3f s  normalised %.3f s  -> %s"
              % (label, br.raw, br.norm, str(result)[:60]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
