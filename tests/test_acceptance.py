"""Acceptance gate: nine exact criteria, one printed verdict line each.

Every check is exact rational arithmetic with zero tolerance; a criterion
passes only if every inner comparison holds and the wall-clock budget is
met.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.
"""

import random
import time
from fractions import Fraction

from oracles import random_fraction, random_shifts_for, schur_by_series, shift_vars
from tauforge import (
    Family,
    HSpec,
    KdVProfile,
    Partition,
    Poly,
    TauCollection,
    VarId,
    akns_collection,
    akns_pde_check,
    akns_tau,
    all_partitions,
    charge_vectors,
    elementary_schur,
    enumerate_n_periodic,
    free_parameter_count,
    generator_from_hspec,
    generators_from_partition,
    hirota_kp_check,
    oracle_tau,
    reduction_check,
    schur_constant,
    schur_shifted,
    solve_shifts,
    tau_kp,
    tau_mkp_collection,
    tau_mkp_entry,
    tau_mnkdv_collection,
    tau_nkdv,
    tvar,
    verify_mkp_collection,
    xvar,
)


def _verdict(name: str, budget_s: float, failures: list, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget_s
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget_s, f"{elapsed:.2f}s exceeds the {budget_s}s budget"


def _nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        f = random_fraction(rng)
        if f:
            return f


def test_criterion_1_schur_recurrence_vs_series():
    t0 = time.perf_counter()
    failures = []
    series = schur_by_series(8)
    for j in range(9):
        if elementary_schur(j) != series[j]:
            failures.append(f"degree {j} disagrees with the series expansion")
    _verdict("criterion 1: Schur recurrence vs series expansion", 1.0, failures, t0)


def test_criterion_2_residue_identity_with_random_shifts():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0)
    for p in all_partitions(6):
        for trial in range(5):
            shifts = random_shifts_for(rng, p)
            report = hirota_kp_check(tau_kp(p, shifts), j=0)
            if not report.passed:
                failures.append(f"{tuple(p)} trial {trial}: nonzero obstruction")
    _verdict(
        "criterion 2: residue identity, all |partition| <= 6, 5 shift sets each",
        60.0,
        failures,
        t0,
    )


def test_criterion_3_determinants_equal_exterior_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0)
    for p in all_partitions(8):
        shifts = random_shifts_for(rng, p)
        det = tau_kp(p, shifts)
        orc = oracle_tau(generators_from_partition(p, shifts), (len(p),))
        if det != orc:
            failures.append(f"single-component {tuple(p)}")

    def random_spec():
        while True:
            terms = []
            for _ in range(2):
                degree = rng.randint(1, 3)
                coeff = random_fraction(rng)
                shift = [random_fraction(rng) for _ in range(degree - 1)]
                terms.append((degree, coeff, shift))
            if any(t[1] for t in terms):
                return HSpec.make(terms)

    for m in (1, 2, 3):
        for trial in range(4):
            specs = [random_spec() for _ in range(m)]
            gens = [generator_from_hspec(spec, 2) for spec in specs]
            for charge in charge_vectors(m, 2):
                if tau_mkp_entry(specs, charge) != oracle_tau(gens, charge):
                    failures.append(f"two-component m={m} trial={trial} charge={charge}")
    _verdict(
        "criterion 3: determinant constructors equal the exterior-algebra oracle",
        120.0,
        failures,
        t0,
    )


def test_criterion_4_shifted_schur_routes_and_coefficient_solver():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0)
    for j in range(9):
        c = [random_fraction(rng) for _ in range(j)]
        direct = schur_shifted(j, c)
        substituted = shift_vars(
            elementary_schur(j),
            {VarId(Family.T, 1, i + 1): c[i] for i in range(len(c))},
        )
        if direct != substituted:
            failures.append(f"shifted-argument routes differ at degree {j}")
    for m in range(1, 9):
        b = [random_fraction(rng) for _ in range(m)] + [_nonzero_fraction(rng)]
        c = solve_shifts(b)
        recombined = schur_shifted(m, c).scale(b[m])
        direct = sum(
            (elementary_schur(i).scale(b[i]) for i in range(m + 1)), start=Poly.zero()
        )
        if recombined != direct:
            failures.append(f"solver round trip fails at degree {m}")
        if any(schur_constant(k, c) != b[m - k] / b[m] for k in range(m + 1)):
            failures.append(f"solved constants wrong at degree {m}")
    _verdict(
        "criterion 4: shifted-argument expansion routes and shift solver round trip",
        5.0,
        failures,
        t0,
    )


def test_criterion_5_periodic_partitions_give_reduced_taus():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3):
        for p in enumerate_n_periodic(n, 8):
            tau = tau_nkdv(p, n)
            bad_vars = [v for v in tau.variables() if v.index % n == 0]
            if bad_vars:
                failures.append(f"{tuple(p)} n={n}: reduced variable {bad_vars[0]}")
            for j in range(3):
                if not hirota_kp_check(tau, j, n).passed:
                    failures.append(f"{tuple(p)} n={n}: residue fails at weight j={j}")
    _verdict(
        "criterion 5: 2- and 3-periodic partitions (size <= 8) pass reduced identities",
        60.0,
        failures,
        t0,
    )


def test_criterion_6_free_parameter_count_is_partition_size():
    t0 = time.perf_counter()
    failures = []
    box = set()
    for a in range(5):
        for b in range(a + 1):
            for c in range(b + 1):
                for d in range(c + 1):
                    box.add(tuple(x for x in (a, b, c, d) if x))
    if len(box) != 70:
        failures.append(f"expected 70 partitions in the 4x4 box, found {len(box)}")
    for parts in sorted(box):
        p = Partition(parts)
        got = free_parameter_count(p)
        if got != p.size:
            failures.append(f"{parts}: {got} free parameters, size {p.size}")
    _verdict(
        "criterion 6: free shift parameters equal the partition size (4x4 box)",
        1.0,
        failures,
        t0,
    )


def test_criterion_7_reduced_collections_satisfy_both_identities():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0)

    profiles: list[KdVProfile] = []
    for m in range(1, 5):
        profiles.append(KdVProfile((2,), (HSpec.make([(m, 1, None)]),)))
        shift = [random_fraction(rng) for _ in range(m - 1)]
        profiles.append(
            KdVProfile((2,), (HSpec.make([(m, _nonzero_fraction(rng), shift)]),))
        )
    for m1 in (1, 2, 3):
        for m2 in (1, 2, 3):
            profiles.append(
                KdVProfile((1, 1), (HSpec.make([(m1, 1, None), (m2, 1, None)]),))
            )
            profiles.append(
                KdVProfile(
                    (1, 1),
                    (
                        HSpec.make(
                            [
                                (m1, _nonzero_fraction(rng),
                                 [random_fraction(rng) for _ in range(m1 - 1)]),
                                (m2, _nonzero_fraction(rng),
                                 [random_fraction(rng) for _ in range(m2 - 1)]),
                            ]
                        ),
                    ),
                )
            )

    for idx, profile in enumerate(profiles):
        coll = tau_mnkdv_collection(profile)
        if not coll.entries:
            failures.append(f"profile {idx}: empty collection")
            continue
        for label in coll.labels():
            if not reduction_check(coll.entries[label], profile.n_parts, j_max=3).passed:
                failures.append(f"profile {idx} entry {label}: derivative check fails")
        for report in verify_mkp_collection(coll, profile.n_parts, j_values=(0, 1)):
            if not report.passed:
                failures.append(f"profile {idx}: {report}")
    _verdict(
        "criterion 7: reduced collections pass derivative and residue identities",
        120.0,
        failures,
        t0,
    )


def test_criterion_8_akns_families_solve_the_flow_equations():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0)
    for m1, m2 in ((2, 2), (3, 2)):
        big_k = max(m1, m2)
        variants = [(Fraction(1), Fraction(1), None, None)]
        variants.append(
            (
                _nonzero_fraction(rng),
                _nonzero_fraction(rng),
                [random_fraction(rng) for _ in range(m1 - 1)],
                [random_fraction(rng) for _ in range(m2 - 1)],
            )
        )
        for b1, b2, c1, c2 in variants:
            coll = akns_collection(m1, m2, b1, b2, c1, c2)
            checked = 0
            for p in range(1, big_k):
                base = (p, big_k - p)
                if not coll.get(base).terms:
                    continue
                if not akns_pde_check(coll, base).passed:
                    failures.append(f"M=({m1},{m2}) base {base}: flow residual nonzero")
                checked += 1
            if not checked:
                failures.append(f"M=({m1},{m2}): no interior base to check")
    for p in range(4):
        if akns_tau(2, 2, 1, 1, None, None, 3, p) != 0:
            failures.append(f"K=3 > max degree 2 but tau^(p={p}) is nonzero")
    _verdict(
        "criterion 8: AKNS families solve the flows; oversized K vanishes",
        30.0,
        failures,
        t0,
    )


def test_criterion_9_negative_controls_are_rejected():
    t0 = time.perf_counter()
    failures = []

    report = hirota_kp_check(tvar(2))
    if report.passed or not report.obstruction.terms:
        failures.append("t2 sailed through the residue identity")

    try:
        tau_nkdv((2, 2), 2)
        failures.append("non-periodic partition accepted by the reduced constructor")
    except ValueError:
        pass

    coll = akns_collection(2, 2, 1, 1, None, None)
    entries = dict(coll.entries)
    entries[(1, 1)] = entries[(1, 1)] + xvar(1) ** 2
    if akns_pde_check(TauCollection(2, 2, entries), (1, 1)).passed:
        failures.append("perturbed AKNS entry passed the flow check")

    specs = [
        HSpec.make([(2, 1, None), (1, 1, None)]),
        HSpec.make([(1, 1, None), (2, Fraction(1, 2), None)]),
    ]
    clean = tau_mkp_collection(specs)
    corrupted = dict(clean.entries)
    label = clean.labels()[0]
    corrupted[label] = corrupted[label] + tvar(1, 1, 2) ** 3
    bad = TauCollection(clean.total, clean.ncomp, corrupted)
    if all(r.passed for r in verify_mkp_collection(bad)):
        failures.append("corrupted collection passed every residue identity")

    _verdict("criterion 9: negative controls produce nonzero obstructions", 10.0, failures, t0)
