#!/usr/bin/env python3
"""Randomized stress test: determinant constructors against the wedge oracle.

Draws random partitions with random shift vectors and random two-component
column specs, builds each tau-function twice (determinant route and the
exterior-algebra route), and demands exact equality.  Exit status 0 when
every comparison matches, 1 otherwise.

    python3 scripts/oracle_crosscheck.py --trials 40 --seed 1
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from tauforge import (
    HSpec,
    charge_vectors,
    expected_shift_lengths,
    generators_from_partition,
    oracle_tau,
    tau_kp,
    tau_mkp_collection,
)
from tauforge.fock import generator_from_hspec


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def random_partition(rng: random.Random, args: argparse.Namespace) -> tuple[int, ...]:
    rows = rng.randint(0, args.max_rows)
    parts = sorted((rng.randint(1, args.max_part) for _ in range(rows)), reverse=True)
    return tuple(parts)


def random_spec(rng: random.Random, args: argparse.Namespace) -> HSpec:
    comps = []
    for _ in range(2):
        degree = rng.randint(1, args.max_degree)
        coeff = random_fraction(rng)
        shift = [random_fraction(rng) for _ in range(degree - 1)]
        comps.append((degree, coeff, shift))
    if all(c == 0 for _, c, _ in comps):
        degree, _, shift = comps[0]
        comps[0] = (degree, Fraction(1), shift)
    return HSpec.make(comps)


def kp_trial(rng: random.Random, args: argparse.Namespace) -> tuple[str, bool]:
    p = random_partition(rng, args)
    shifts = [
        [random_fraction(rng) for _ in range(n)] for n in expected_shift_lengths(p)
    ]
    lhs = tau_kp(p, shifts)
    rhs = oracle_tau(generators_from_partition(p, shifts), (len(p),))
    return f"kp {p}", lhs == rhs


def mkp_trial(rng: random.Random, args: argparse.Namespace) -> list[tuple[str, bool]]:
    m = rng.randint(1, 3)
    specs = [random_spec(rng, args) for _ in range(m)]
    coll = tau_mkp_collection(specs)
    gens = [generator_from_hspec(spec, 2) for spec in specs]
    out = []
    for charge in charge_vectors(m, 2):
        lhs = coll.get(charge)
        rhs = oracle_tau(gens, charge)
        out.append((f"mkp m={m} charge={charge}", lhs == rhs))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-part", type=int, default=4)
    parser.add_argument("--max-rows", type=int, default=4)
    parser.add_argument("--max-degree", type=int, default=3)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)

    t0 = time.perf_counter()
    results: list[tuple[str, bool]] = []
    for _ in range(args.trials):
        results.append(kp_trial(rng, args))
        results.extend(mkp_trial(rng, args))
    elapsed = time.perf_counter() - t0

    mismatches = [tag for tag, ok in results if not ok]
    for tag, ok in results:
        print(f"{'MATCH   ' if ok else 'MISMATCH'} {tag}")
    if mismatches:
        print(f"{len(mismatches)} of {len(results)} comparisons MISMATCHED in {elapsed:.1f} s")
        return 1
    print(f"all {len(results)} comparisons match in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
