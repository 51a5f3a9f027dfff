#!/usr/bin/env python3
"""Survey braid-representation image classifications over a parameter grid.

Tabulates the verdict (finite-abelian / finite / infinite / unknown), the
projective order where finite, and the infinite-order witness word where
one was certified, for Temperley-Lieb levels and small Burau reductions.
An unknown cell ends with its report's last note, which tells a closure or
point count past --bound apart from a search that found no witness.

Example:
    python3 scripts/survey_images.py --levels 3 4 5 6 7 --strands 2 3 4
"""
from __future__ import annotations

import argparse
import time

from qll.image import RepSpec, classify_image


def _cell(spec: RepSpec, bound: int) -> str:
    started = time.perf_counter()
    report = classify_image(spec, bound)
    elapsed = time.perf_counter() - started
    note = ""
    if report.verdict in ("finite", "finite-abelian"):
        body = "%s(%d)" % (report.verdict, report.order)
    elif report.verdict == "infinite":
        body = "infinite[%s]" % " ".join(map(str, report.witness))
    else:  # the last note says which certificate ran and why it stopped
        body, note = "unknown", "  " + report.notes[-1]
    return "%-24s %6.2fs%s" % (body, elapsed, note)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=int, nargs="+",
                        default=list(range(3, 13)))
    parser.add_argument("--strands", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--burau-primes", type=int, nargs="*", default=[3, 5])
    parser.add_argument("--bound", type=int, default=10**6)
    args = parser.parse_args()

    print("temperley-lieb:")
    for l in args.levels:
        for n in args.strands:
            spec = RepSpec(family="tl", strands=n, l=l)
            print("  l=%-2d n=%d  %s" % (l, n, _cell(spec, args.bound)))
    if args.burau_primes:
        print("burau mod p (t0 = p - 1):")
        for p in args.burau_primes:
            for n in args.strands:
                spec = RepSpec(family="burau", strands=n, p=p, t0=p - 1)
                print("  p=%-2d n=%d  %s" % (p, n, _cell(spec, args.bound)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
