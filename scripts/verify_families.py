#!/usr/bin/env python3
"""Sweep every tau-function family and verify its defining identities.

One line per family member with the verdict and timing, then a summary.
Exit status 0 when every check passes, 1 otherwise.

    python3 scripts/verify_families.py --max-size 6 --seed 0
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from tauforge import (
    HSpec,
    KdVProfile,
    akns_collection,
    akns_pde_check,
    all_partitions,
    enumerate_n_periodic,
    expected_shift_lengths,
    hirota_kp_check,
    reduction_check,
    tau_kp,
    tau_mnkdv_collection,
    tau_nkdv,
    verify_kp,
    verify_mkp_collection,
)


def random_shift_vector(rng: random.Random, length: int) -> list[Fraction]:
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(length)]


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - t0) * 1000.0


def sweep_kp(args: argparse.Namespace) -> list[str]:
    rng = random.Random(args.seed)
    failures = []
    for p in all_partitions(args.max_size):
        for trial in range(args.trials):
            shifts = [random_shift_vector(rng, n) for n in expected_shift_lengths(p)]
            report, ms = timed(lambda: hirota_kp_check(tau_kp(p, shifts), j=0))
            tag = f"kp {tuple(p)} trial={trial}"
            print(f"{'ok  ' if report.passed else 'FAIL'} {tag} ({ms:.1f} ms)")
            if not report.passed:
                failures.append(tag)
    return failures


def sweep_nkdv(args: argparse.Namespace) -> list[str]:
    rng = random.Random(args.seed)
    failures = []
    for n in (2, 3):
        for p in enumerate_n_periodic(n, args.max_size):
            shifts = {k: random_shift_vector(rng, 4) for k in range(n)}
            tau = tau_nkdv(p, n, shifts)

            def run():
                reports = [reduction_check(tau, (n,), j_max=3)]
                reports += verify_kp(tau, n, range(args.j_max + 1))
                return reports

            reports, ms = timed(run)
            ok = all(r.passed for r in reports)
            tag = f"nkdv {tuple(p)} n={n}"
            print(f"{'ok  ' if ok else 'FAIL'} {tag} [{len(reports)} checks] ({ms:.1f} ms)")
            if not ok:
                failures.append(tag)
    return failures


def default_profiles(rng: random.Random) -> list[KdVProfile]:
    out = []
    for m in (2, 3, 4):
        out.append(KdVProfile((2,), (HSpec.make([(m, 1, None)]),)))
    for m1, m2 in ((2, 2), (3, 2), (3, 3)):
        out.append(
            KdVProfile(
                (1, 1),
                (
                    HSpec.make(
                        [
                            (m1, Fraction(rng.randint(1, 5)),
                             random_shift_vector(rng, m1 - 1)),
                            (m2, Fraction(rng.randint(1, 5)),
                             random_shift_vector(rng, m2 - 1)),
                        ]
                    ),
                ),
            )
        )
    # with unit coefficients D h_1 would equal h_2 and kill every minor
    out.append(
        KdVProfile(
            (2, 1),
            (
                HSpec.make([(4, 1, None), (2, 1, None)]),
                HSpec.make([(2, 3, None), (1, 1, None)]),
            ),
        )
    )
    return out


def sweep_mnkdv(args: argparse.Namespace) -> list[str]:
    rng = random.Random(args.seed)
    failures = []
    for idx, profile in enumerate(default_profiles(rng)):
        def run():
            coll = tau_mnkdv_collection(profile)
            reports = [
                reduction_check(coll.entries[label], profile.n_parts, j_max=3)
                for label in coll.labels()
            ]
            reports += verify_mkp_collection(
                coll, profile.n_parts, j_values=tuple(range(args.j_max + 1))
            )
            return reports

        reports, ms = timed(run)
        ok = all(r.passed for r in reports)
        tag = f"mnkdv profile#{idx} n_parts={profile.n_parts}"
        print(f"{'ok  ' if ok else 'FAIL'} {tag} [{len(reports)} checks] ({ms:.1f} ms)")
        if not ok:
            failures.append(tag)
    return failures


def sweep_akns(args: argparse.Namespace) -> list[str]:
    rng = random.Random(args.seed)
    failures = []
    for m1 in (2, 3):
        for m2 in (2, 3):
            big_k = max(m1, m2)
            coll = akns_collection(
                m1,
                m2,
                Fraction(rng.randint(1, 5)),
                Fraction(rng.randint(1, 5)),
                random_shift_vector(rng, m1 - 1),
                random_shift_vector(rng, m2 - 1),
            )
            bases = [
                (p, big_k - p)
                for p in range(1, big_k)
                if coll.get((p, big_k - p)).terms
            ]

            def run():
                return [akns_pde_check(coll, base) for base in bases]

            reports, ms = timed(run)
            ok = bool(reports) and all(r.passed for r in reports)
            tag = f"akns M=({m1},{m2}) K={big_k}"
            print(f"{'ok  ' if ok else 'FAIL'} {tag} [{len(reports)} bases] ({ms:.1f} ms)")
            if not ok:
                failures.append(tag)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=2,
                        help="random shift sets per partition in the KP sweep")
    parser.add_argument("--j-max", type=int, default=2)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures = []
    failures += sweep_kp(args)
    failures += sweep_nkdv(args)
    failures += sweep_mnkdv(args)
    failures += sweep_akns(args)
    elapsed = time.perf_counter() - t0
    if failures:
        print(f"{len(failures)} families FAILED in {elapsed:.1f} s:")
        for tag in failures:
            print(f"  {tag}")
        return 1
    print(f"all families verified in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
