#!/usr/bin/env python3
"""Sweep every tau-function family and verify its defining identities.

One line per family member with the verdict, the number of checks and the
timing, then a summary.  A member passes when it ran at least one check and
every check passed; a perturbed control, tagged ``control``, passes when it
ran at least one check and one of them failed.  Exit status 0 when every
member passes, 1 otherwise.

    python3 scripts/verify_families.py --max-size 6 --seed 0
    python3 scripts/verify_families.py --max-size 11 --max-kp-size 13 --trials 0
    python3 scripts/verify_families.py --max-akns-order 8

The second run adds the KP frontier at sizes 12 and 13, the third the AKNS
frontier at orders 4 to 8.
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from tauforge import (
    HSpec,
    KdVProfile,
    Partition,
    TauCollection,
    akns_collection,
    akns_pde_check,
    all_partitions,
    enumerate_n_periodic,
    expected_shift_lengths,
    hirota_kp_check,
    reduction_check,
    tau_kp,
    tau_mkp_collection,
    tau_mnkdv_collection,
    tau_nkdv,
    tvar,
    verify_kp,
    verify_mkp_collection,
    xvar,
)
from tauforge.partitions import partitions_of


def random_shift_vector(rng: random.Random, length: int) -> list[Fraction]:
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(length)]


def default_profiles(rng: random.Random) -> list[KdVProfile]:
    out = [KdVProfile((2,), (HSpec.make([(m, 1, None)]),)) for m in (2, 3, 4)]
    for m1, m2 in ((2, 2), (3, 2), (3, 3)):
        spec = HSpec.make([
            (m, Fraction(rng.randint(1, 5)), random_shift_vector(rng, m - 1)) for m in (m1, m2)
        ])
        out.append(KdVProfile((1, 1), (spec,)))
    # with unit coefficients D h_1 would equal h_2 and kill every minor
    out.append(KdVProfile((2, 1), (
        HSpec.make([(4, 1, None), (2, 1, None)]),
        HSpec.make([(2, 3, None), (1, 1, None)]),
    )))
    return out


def mkp_columns(rng: random.Random, ncomp: int, ncol: int, degree: int) -> list[HSpec]:
    """Columns of one degree in every component, with seeded coefficients and shifts."""
    return [
        HSpec.make([
            (degree, Fraction(rng.randint(1, 5)), random_shift_vector(rng, degree))
            for _ in range(ncomp)
        ])
        for _ in range(ncol)
    ]


def members(args: argparse.Namespace):
    """(tag, checks, control) for every family member, where ``checks()`` returns
    its reports and a control must fail.  Each family draws from its own generator
    seeded with --seed, and each member is checked before the next one is drawn."""
    j_values = range(args.j_max + 1)
    rng = random.Random(args.seed)
    for p in all_partitions(args.max_size):
        for trial in range(args.trials):
            shifts = [random_shift_vector(rng, n) for n in expected_shift_lengths(p)]
            yield (f"kp {tuple(p)} trial={trial}",
                   lambda: [hirota_kp_check(tau_kp(p, shifts), j=0)], False)

    # the KP frontier: one member per size n above --max-size, tau_kp of every
    # partition of n with seeded shifts, each checked by verify_kp; its tag carries
    # the construction time.  The control adds t_2 to the first tau.
    rng = random.Random(args.seed)
    for n in range(args.max_size + 1, args.max_kp_size + 1):
        start = time.perf_counter()
        taus = [tau_kp(p, [random_shift_vector(rng, k) for k in expected_shift_lengths(p)])
                for p in map(Partition, partitions_of(n))]
        build_ms = (time.perf_counter() - start) * 1000.0
        yield (f"kp n={n} partitions={len(taus)} build={build_ms:.1f} ms",
               lambda: [r for tau in taus for r in verify_kp(tau)], False)
        yield f"kp n={n} control", lambda: verify_kp(taus[0] + tvar(2)), True

    def nkdv_checks(tau, n):
        return lambda: [reduction_check(tau, (n,), j_max=3), *verify_kp(tau, n, j_values)]

    # each n ends with a control: t_n added to the last tau of its sweep, which
    # breaks D_1 tau = 0
    rng = random.Random(args.seed)
    for n in (2, 3):
        for p in enumerate_n_periodic(n, args.max_size):
            tau = tau_nkdv(p, n, {k: random_shift_vector(rng, 4) for k in range(n)})
            yield f"nkdv {tuple(p)} n={n}", nkdv_checks(tau, n), False
        yield f"nkdv n={n} control", nkdv_checks(tau + tvar(n), n), True

    for idx, profile in enumerate(default_profiles(random.Random(args.seed))):
        def checks():
            coll = tau_mnkdv_collection(profile)
            return [
                reduction_check(coll.entries[label], profile.n_parts, j_max=3)
                for label in coll.labels()
            ] + verify_mkp_collection(coll, profile.n_parts, j_values=tuple(j_values))

        yield f"mnkdv profile#{idx} n_parts={profile.n_parts}", checks, False

    # the mKP frontier: 4 columns of degree 4 in s components, its tag carrying
    # the construction time, and the same collection with t_2^(1) added to its
    # lowest entry
    rng = random.Random(args.seed)
    for s in range(3, args.max_components + 1):
        start = time.perf_counter()
        coll = tau_mkp_collection(mkp_columns(rng, s, 4, 4))
        build_ms = (time.perf_counter() - start) * 1000.0
        entries = dict(coll.entries)
        low = min(entries)
        entries[low] = entries[low] + tvar(2, 1, s)
        control = TauCollection(coll.total, s, entries)
        yield f"mkp s={s} 4x4 build={build_ms:.1f} ms", lambda: verify_mkp_collection(coll), False
        yield f"mkp s={s} 4x4 control", lambda: verify_mkp_collection(control), True

    # AKNS, then the frontier: one (m, m) member per order m above 3 up to
    # --max-akns-order, checked over its interior bases.  Each tag carries the
    # construction time, and each member has a control, x_2 added to tau^(0, K).
    rng = random.Random(args.seed)
    orders = [(2, 2), (2, 3), (3, 2), (3, 3)] + [(m, m) for m in range(4, args.max_akns_order + 1)]
    for m1, m2 in orders:
        big_k = max(m1, m2)
        start = time.perf_counter()
        coll = akns_collection(
            m1, m2, Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5)),
            random_shift_vector(rng, m1 - 1), random_shift_vector(rng, m2 - 1),
        )
        build_ms = (time.perf_counter() - start) * 1000.0
        bases = [(p, big_k - p) for p in range(1, big_k) if coll.get((p, big_k - p))]
        entries = dict(coll.entries)
        entries[0, big_k] = coll.get((0, big_k)) + xvar(2)
        control = TauCollection(coll.total, 2, entries, ambient=1)
        tag = f"akns M=({m1},{m2}) K={big_k}"
        yield (f"{tag} build={build_ms:.1f} ms",
               lambda: [akns_pde_check(coll, b) for b in bases], False)
        yield f"{tag} control", lambda: [akns_pde_check(control, b) for b in bases], True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=2,
                        help="random shift sets per partition in the KP sweep")
    parser.add_argument("--j-max", type=int, default=2)
    parser.add_argument("--max-components", type=int, default=4,
                        help="largest component count of the mKP frontier members, from 3")
    parser.add_argument("--max-kp-size", type=int, default=0,
                        help="largest size of the KP frontier members, one per size above "
                             "--max-size; none by default")
    parser.add_argument("--max-akns-order", type=int, default=3,
                        help="largest order m of the AKNS frontier members (m, m), one per "
                             "order above 3; none by default")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures = []
    for tag, checks, control in members(args):
        start = time.perf_counter()
        reports = checks()
        ms = (time.perf_counter() - start) * 1000.0
        ok = bool(reports) and all(r.passed for r in reports) != control
        print(f"{'ok  ' if ok else 'FAIL'} {tag} [{len(reports)} checks] ({ms:.1f} ms)")
        if not ok:
            failures.append(tag)
    elapsed = time.perf_counter() - t0
    if failures:
        print(f"{len(failures)} families FAILED in {elapsed:.1f} s:", *failures, sep="\n  ")
        return 1
    print(f"all families verified in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
