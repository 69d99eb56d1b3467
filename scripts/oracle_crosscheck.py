#!/usr/bin/env python3
"""Randomized stress test: determinant constructors against the wedge oracle.

Draws random partitions with random shift vectors and random two-component
column specs as ``oracle-compare`` case objects, and runs each through
``tauforge.cli.compare_case``, which builds it by determinants and by the
exterior-algebra route and demands exact equality.  Exit status 0 when every
comparison matches, 1 otherwise, and 2 with the CLI's one-line diagnostic
when a drawn case is refused or no comparison ran.

    python3 scripts/oracle_crosscheck.py --trials 40 --seed 1
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from tauforge import expected_shift_lengths
from tauforge.cli import UsageError, compare_case


def random_fraction(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))


def random_term(rng: random.Random, args: argparse.Namespace) -> dict:
    degree = rng.randint(1, args.max_degree)
    coeff = random_fraction(rng)
    return {"degree": degree, "coeff": coeff,
            "shift": [random_fraction(rng) for _ in range(degree - 1)]}


def random_cases(rng: random.Random, args: argparse.Namespace):
    """One kp case, then one mkp case of 1 to 3 two-component columns, per trial;
    the draws come in a fixed order, so a seed names the same cases."""
    for _ in range(args.trials):
        rows = rng.randint(0, args.max_rows)
        p = sorted((rng.randint(1, args.max_part) for _ in range(rows)), reverse=True)
        shifts = {
            str(j): [random_fraction(rng) for _ in range(n)]
            for j, n in enumerate(expected_shift_lengths(p), start=1)
        }
        yield {"kind": "kp", "partition": p, "shifts": shifts}
        specs = [[random_term(rng, args) for _ in range(2)] for _ in range(rng.randint(1, 3))]
        for column in specs:
            if all(term["coeff"] == "0" for term in column):
                column[0]["coeff"] = "1"
        yield {"kind": "mkp", "specs": specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-part", type=int, default=4)
    parser.add_argument("--max-rows", type=int, default=4)
    parser.add_argument("--max-degree", type=int, default=3)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        results = [
            row for case in random_cases(random.Random(args.seed), args)
            for row in compare_case(case)
        ]
        if not results:
            raise UsageError("no comparisons were run; nothing was compared")
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0

    for tag, ok in results:
        print(f"{'MATCH   ' if ok else 'MISMATCH'} {tag}")
    mismatches = sum(1 for _, ok in results if not ok)
    if mismatches:
        print(f"{mismatches} of {len(results)} comparisons MISMATCHED in {elapsed:.1f} s")
        return 1
    print(f"all {len(results)} comparisons match in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
