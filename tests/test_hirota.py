import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (
    akns_bilinear_forms,
    akns_check_by_sum_of_products,
    akns_flow_residuals,
    miwa_by_operator,
    mkp_pairs_by_offset_scan,
    random_fraction,
    random_shifts_for,
    relabel_vars,
    residue_by_convolution,
)
from tauforge import (
    Family,
    GeneratorVector,
    HSpec,
    HTerm,
    KdVProfile,
    Partition,
    Poly,
    TauCollection,
    akns_collection,
    akns_pde_check,
    apply_D,
    compute_kj,
    elementary_schur,
    hirota,
    hirota_kp_check,
    hirota_mkp_check,
    kp_specs_from_partition,
    reduction_check,
    tau_kp,
    tau_mkp_collection,
    tau_mnkdv_collection,
    tau_nkdv,
    tvar,
    verify_kp,
    verify_mkp_collection,
    xvar,
    yvar,
)


# -- report plumbing -----------------------------------------------------------


def test_report_formatting():
    r = hirota_kp_check(tvar(1))
    assert r.identity == "kp-residue"
    assert r.passed and r.obstruction == 0
    assert str(r) == "PASS kp-residue j=0 n=1"
    assert r.time_ms >= 0
    obj = r.to_json_obj()
    assert sorted(obj) == ["identity", "obstruction", "params", "pass"]
    assert obj["pass"] is True and obj["obstruction"] == "0"
    assert "time_ms" in r.to_json_obj(include_timing=True)


def test_report_failure_formatting():
    r = hirota_kp_check(tvar(2))
    assert not r.passed
    assert str(r).startswith("FAIL kp-residue")
    assert r.to_json_obj()["pass"] is False


# -- single-component residue identity ----------------------------------------


def test_kp_residue_validation():
    with pytest.raises(ValueError, match="need j >= 0"):
        hirota_kp_check(tvar(1), j=-1)
    with pytest.raises(ValueError, match="reduction orders must be >= 1"):
        hirota_kp_check(tvar(1), n=0)


def test_verify_kp_reads_its_j_values_once():
    # a one-shot iterable still gives one report per j
    tau = tau_nkdv((3, 2, 1), 2)
    reports = verify_kp(tau, 2, iter(range(3)))
    assert [r.params for r in reports] == [{"j": j, "n": 2} for j in range(3)]
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError, match="need j >= 0$"):
        verify_kp(tau, 2, iter([0, -1]))


def test_kp_residue_takes_t_variables_of_component_1_only():
    for bad in [yvar(1), xvar(1), tvar(1, 2, 2), tvar(2) + yvar(1) ** 2]:
        with pytest.raises(ValueError):
            hirota_kp_check(bad)
    # other components of the ambient may exist as long as tau does not use them
    r = hirota_kp_check(tvar(1, 1, 2) ** 2 + tvar(2, 1, 2), 1, 2)
    assert r.obstruction.ncomp == 2 and r.obstruction.terms


def test_kp_residue_passes_on_schur():
    assert hirota_kp_check(Poly.const(1)).passed
    for k in range(7):
        assert hirota_kp_check(elementary_schur(k)).passed, k


def test_kp_residue_passes_on_partitions():
    for parts in [(2, 1), (2, 2), (3, 1), (1, 1, 1), (3, 2, 1)]:
        assert hirota_kp_check(tau_kp(parts)).passed, parts


def test_kp_residue_passes_with_random_shifts():
    rng = random.Random(3)
    for parts in [(2, 1), (2, 2), (3, 1, 1)]:
        p = Partition(parts)
        tau = tau_kp(p, random_shifts_for(rng, p))
        assert hirota_kp_check(tau).passed, parts


def test_kp_residue_rejects_non_tau():
    for bad in [tvar(2), tvar(1) ** 2, tvar(1) * tvar(2), Poly.const(1) + tvar(1) ** 3]:
        r = hirota_kp_check(bad)
        assert not r.passed
        assert r.obstruction.terms
        families = {v.family for v in r.obstruction.variables()}
        assert families <= {Family.T, Family.Y}


def test_kp_residue_higher_j_detects_reduction():
    for parts, n in [((2, 1), 2), ((3, 2, 1), 2), ((3, 1, 1), 3)]:
        tau = tau_nkdv(parts, n)
        for j in range(3):
            assert hirota_kp_check(tau, j, n).passed, (parts, j)
    # a KP tau that is not 2-reduced passes j = 0 but fails j = 1
    tau = tau_kp((1, 1))
    assert hirota_kp_check(tau, 0, 2).passed
    assert not hirota_kp_check(tau, 1, 2).passed



def test_kp_obstruction_matches_full_convolution_reference():
    # perturbed n-KdV taus leave nonzero obstructions at every j; each must
    # equal the one built from operator Miwa shifts and the full product
    for parts, n in [((3, 2, 1), 2), ((4, 2), 3)]:
        tau = tau_nkdv(parts, n) + tvar(1) ** 4 * tvar(2)
        left = miwa_by_operator(tau, Family.T, 1, -1)
        in_y = relabel_vars(tau, lambda v: (v._replace(family=Family.Y), 1))
        right = miwa_by_operator(in_y, Family.Y, 1, +1)
        for j in range(3):
            r = hirota_kp_check(tau, j, n)
            assert not r.passed, (parts, j)
            assert r.obstruction == residue_by_convolution(left, right, j * n, 1), (parts, j)

# -- multicomponent residue identity --------------------------------------------


def two_component_collection():
    specs = [
        HSpec.make([(2, 1, None), (1, 1, None)]),
        HSpec.make([(1, 1, None), (2, Fraction(1, 2), None)]),
    ]
    return tau_mkp_collection(specs)


def test_mkp_check_validation():
    coll = two_component_collection()
    with pytest.raises(ValueError):
        hirota_mkp_check(coll, (2, 1, 0), (1, 0))  # m arity
    with pytest.raises(ValueError):
        hirota_mkp_check(coll, (2, 2), (1, 0))  # m sums to total + 2
    with pytest.raises(ValueError):
        hirota_mkp_check(coll, (2, 1), (1, 1))  # q sums to total
    with pytest.raises(ValueError):
        hirota_mkp_check(coll, (2, 1), (1, 0), n_parts=(1,))
    with pytest.raises(ValueError):
        hirota_mkp_check(coll, (2, 1), (1, 0), j=-1)


def test_reduction_orders_below_1_are_rejected():
    # a shift j * n_a < 0 would move a psi-insertion past the top of its species' field
    coll = two_component_collection()
    for parts in ((-1, 1), (0, 1), (1, 0)):
        with pytest.raises(ValueError, match="reduction orders must be >= 1"):
            verify_mkp_collection(coll, parts, (1,))
        with pytest.raises(ValueError, match="reduction orders must be >= 1"):
            hirota_mkp_check(coll, (2, 1), (1, 0), 1, parts)
    # every other reader of the orders: reduction_check passed tvar(2) at (0,) and (-1,)
    spec = HSpec.make([(3, 1, None)])
    calls = [
        lambda parts: apply_D(tvar(2), 1, parts),
        lambda parts: reduction_check(tvar(2), parts),
        lambda parts: compute_kj(spec, parts),
        lambda parts: KdVProfile(parts, (spec,)),
        lambda parts: GeneratorVector.basis(1, 2).lambda_shift(parts),
    ]
    for i, call in enumerate(calls):
        for parts in ((0,), (-1,)):
            with pytest.raises(ValueError, match="reduction orders must be >= 1"):
                call(parts)
                pytest.fail(f"call {i} accepted {parts}")
        with pytest.raises(ValueError, match="n_parts"):
            call((2, 2))  # two orders for one component
            pytest.fail(f"call {i} accepted two orders")
    assert not reduction_check(tvar(2), (2,)).passed


def test_mkp_check_single_component_reduces_to_kp():
    p = Partition((2, 1))
    coll = tau_mkp_collection(kp_specs_from_partition(p))
    m = coll.total
    report = hirota_mkp_check(coll, (m + 1,), (m - 1,))
    assert report.obstruction == hirota_kp_check(tau_kp(p)).obstruction
    assert report.passed


def test_verify_mkp_collection_passes():
    reports = verify_mkp_collection(two_component_collection())
    assert len(reports) == 8  # nontrivial (m, q) pairs at this level
    assert all(r.passed for r in reports)


def test_verify_mkp_collection_catches_corruption():
    coll = two_component_collection()
    entries = dict(coll.entries)
    label = coll.labels()[0]
    entries[label] = entries[label] + tvar(1, 1, 2) ** 3
    bad = TauCollection(total=coll.total, ncomp=coll.ncomp, entries=entries)
    reports = verify_mkp_collection(bad)
    assert sum(1 for r in reports if not r.passed) == 3


def test_a_level_zero_collection_checks_its_e_a_pairs():
    # no label on level 0 has a positive charge, so the visited pairs are the
    # (e_a, -e_a); without them a collection with an entry passed on no checks
    tau = tau_kp((2, 1))
    [report] = verify_mkp_collection(TauCollection(0, 1, {(0,): tau}))
    assert report.passed and report.obstruction == hirota_kp_check(tau).obstruction

    def in_component(p, a):
        return Poly({tuple((v._replace(component=a), e) for v, e in mono): c
                     for mono, c in p.terms.items()}, 2)

    product = in_component(tau_kp((2, 1), [[1, 2], [Fraction(-1, 3)]]), 1) * in_component(
        tau_kp((3,), [[2, 0, 5]]), 2)
    good = verify_mkp_collection(TauCollection(0, 2, {(0, 0): product}))
    assert [(r.params["m"], r.params["q"], r.passed) for r in good] == [
        ([0, 1], [0, -1], True), ([1, 0], [-1, 0], True)]
    bad = TauCollection(0, 2, {(0, 0): product + tvar(2, 2, 2)})
    reports = verify_mkp_collection(bad)
    assert len(reports) == 2 and not any(r.passed for r in reports)
    for r in reports:
        assert r.obstruction == hirota_mkp_check(bad, r.params["m"], r.params["q"]).obstruction


def test_verify_mkp_collection_visits_the_offset_scan_pairs():
    # the pairs built from the entries, against the |ms| x |qs| scan they replaced
    rng = random.Random(3)

    def spec(*degrees):
        return HSpec.make([(d, random_fraction(rng) or 1, [random_fraction(rng) for _ in range(d)])
                           for d in degrees])

    collections = [
        two_component_collection(),
        tau_mkp_collection([spec(2, 1, 2), spec(1, 2, 2)]),
        TauCollection(3, 3, {(3, 0, 0): tvar(1, 1, 3), (0, 1, 2): tvar(2, 2, 3)}),
        tau_mnkdv_collection(KdVProfile((3, 2), (spec(6, 2),))),
    ]
    for coll in collections:
        assert any(0 in label for label in coll.entries)  # an entry with a zero part
        reports = verify_mkp_collection(coll, j_values=(0, 1))
        got = [(r.params["m"], r.params["q"], r.params["j"]) for r in reports]
        assert got and got == mkp_pairs_by_offset_scan(coll, (0, 1))


def _count_sectors(monkeypatch) -> list[int]:
    """The j of every sector the kernel runs from here on."""
    calls: list[int] = []
    run = hirota._sector

    def counted(fock, mv, qv, j, parts, ambient):
        calls.append(j)
        return run(fock, mv, qv, j, parts, ambient)

    monkeypatch.setattr(hirota, "_sector", counted)
    return calls


def _reduced_cases():
    """(collection, n_parts, sectors run at j = 0, 1, 2 by one call over all three):
    true reduced profiles, each sector certified; c t1^2 t2 in component 1 at
    n_parts (3, 3), which keeps D_j tau = 0, and c t3 in component 1, which breaks
    D_1 tau = 0 but not D_2 tau = 0: neither is certified, so every sector runs."""
    rng = random.Random(26)

    def columns(ncomp, ncol, degree):
        return tuple(HSpec.make([(degree, random_fraction(rng) or 1,
                                  [random_fraction(rng) for _ in range(degree)])
                                 for _ in range(ncomp)])
                     for _ in range(ncol))

    def bumped(coll, mono):
        entries = dict(coll.entries)
        low = min(entries)
        entries[low] = entries[low] + mono.scale(Fraction(rng.choice([-3, 2, 5]), 7))
        return TauCollection(coll.total, coll.ncomp, entries)

    for n_parts, ncol, degree in [((3, 2), 1, 3), ((2, 1), 1, 3), ((2, 2), 2, 3), ((3, 3), 2, 4)]:
        yield tau_mnkdv_collection(KdVProfile(n_parts, columns(2, ncol, degree))), n_parts, ()
    coll = tau_mnkdv_collection(KdVProfile((3, 3), columns(2, 2, 4)))
    yield bumped(coll, tvar(1, 1, 2) ** 2 * tvar(2, 1, 2)), (3, 3), (0, 1, 2)
    yield bumped(coll, tvar(3, 1, 2)), (3, 3), (0, 1, 2)


def test_derived_reduced_reports_equal_each_pair_at_every_j(monkeypatch):
    preserved_nonzero = 0
    for coll, n_parts, ran in _reduced_cases():
        preserving = not any(apply_D(tau, 1, n_parts).terms for tau in coll.entries.values())
        calls = _count_sectors(monkeypatch)
        reports = verify_mkp_collection(coll, n_parts, (0, 1, 2))
        pairs = len(reports) // 3
        assert calls == [j for j in ran for _ in range(pairs)], (n_parts, ran)
        for r in reports:
            p = r.params
            single = hirota_mkp_check(coll, p["m"], p["q"], p["j"], n_parts)
            assert str(r) == str(single) and r.obstruction == single.obstruction, p
            preserved_nonzero += preserving and p["j"] > 0 and bool(r.obstruction.terms)
        # a call at j >= 1 alone runs no sector only for a certified collection
        calls.clear()
        single_j = verify_mkp_collection(coll, n_parts, (2,))
        assert calls == ([] if not ran else [2] * pairs)
        assert [r.obstruction for r in single_j] == [r.obstruction for r in reports[2 * pairs:]]
        monkeypatch.undo()
    assert preserved_nonzero > 3  # the reduction-preserving control fails at j >= 1 too


def test_derived_kp_reports_equal_the_single_pair(monkeypatch):
    # c t1^4 t2 keeps D_j tau = 0 at n = 3; at n = 2 it breaks D_1 tau = 0 but not
    # D_2 tau = 0.  Sectors run by verify_kp over j = 0, 1, 2, then by
    # hirota_kp_check at each j: every sector of a tau that is not certified runs.
    rng = random.Random(27)
    bump = (tvar(1) ** 4 * tvar(2)).scale(Fraction(3, 2))
    for parts, n in [((3, 2, 1), 2), ((4, 2), 3)]:
        tau = tau_nkdv(parts, n, {k: [random_fraction(rng) for _ in range(6)] for k in range(n)})
        for candidate, sectors in ((tau, []), (tau + bump, [0, 1, 2] * 2)):
            coll = TauCollection(0, 1, {(0,): candidate})
            expected = [hirota_mkp_check(coll, (1,), (-1,), j, (n,)).obstruction
                        for j in range(3)]
            calls = _count_sectors(monkeypatch)
            assert [r.obstruction for r in verify_kp(candidate, n, range(3))] == expected
            assert [hirota_kp_check(candidate, j, n).obstruction for j in range(3)] == expected
            assert calls == sectors, (parts, n)
            assert any(p.terms for p in expected) == bool(sectors)
            monkeypatch.undo()


def test_mkp_check_takes_t_variables_of_components_1_to_s_only():
    y_entry = TauCollection(1, 1, {(1,): yvar(1) + tvar(2)})
    spectator = TauCollection(1, 2, {(1, 0): tvar(1, 1, 3) + tvar(1, 3, 3), (0, 1): tvar(1, 2, 3)})
    akns = akns_collection(2, 2, 1, 1, None, None)
    for coll, m, q in [(y_entry, (2,), (0,)), (spectator, (2, 0), (0, 0)), (akns, (2, 1), (1, 0))]:
        with pytest.raises(ValueError):
            hirota_mkp_check(coll, m, q)
        with pytest.raises(ValueError):
            verify_mkp_collection(coll)
    # components of the ambient beyond s may exist as long as no entry uses them
    fine = TauCollection(1, 2, {(1, 0): tvar(1, 1, 3), (0, 1): tvar(1, 2, 3)})
    assert all(r.obstruction.ncomp == 3 for r in verify_mkp_collection(fine))


# -- differential reduction check -----------------------------------------------


def test_reduction_check_passes_on_reduced_tau():
    r = reduction_check(tau_nkdv((2, 1), 2), (2,), j_max=3)
    assert r.identity == "reduction-derivative"
    assert r.passed
    assert sorted(r.per_param) == ["j=1", "j=2", "j=3"]
    assert all(p == 0 for p in r.per_param.values())


def test_reduction_check_fails_on_unreduced_tau():
    r = reduction_check(tau_kp((1, 1)), (2,), j_max=3)
    assert not r.passed
    assert r.per_param["j=1"].terms
    assert not r.per_param["j=2"].terms


def test_reduction_check_needs_one_order_per_component():
    # with one order for two components, D_j read only component 1 and t_1^(2)
    # passed as (1,)-reduced; with both orders it fails
    with pytest.raises(ValueError, match="n_parts"):
        reduction_check(tvar(1, 2, 2), (1,), 2)
    with pytest.raises(ValueError, match="n_parts"):
        reduction_check(tvar(1), (1, 1), 2)
    assert not reduction_check(tvar(1, 2, 2), (1, 1), 2).passed


def test_reduction_obstruction_is_the_first_nonzero_residual():
    r = reduction_check(tau_kp((1, 1)), (2,), j_max=3)
    assert r.obstruction == r.per_param["j=1"]
    # D_1 = d/dt_2 kills t_4^2, so the obstruction is D_2 t_4^2 = 2 t_4
    r = reduction_check(tvar(4) ** 2, (2,), j_max=3)
    assert not r.per_param["j=1"].terms
    assert r.obstruction == r.per_param["j=2"] == tvar(4).scale(2)


def test_reduction_check_validation():
    with pytest.raises(ValueError):
        reduction_check(tvar(1), (2,), j_max=0)


# -- AKNS flow check ----------------------------------------------------------------


def test_akns_pde_passes_zero_shifts():
    coll = akns_collection(2, 2, 1, 1, None, None)
    for base in [(2, 0), (1, 1), (0, 2)]:
        r = akns_pde_check(coll, base)
        assert r.identity == "akns-pde"
        assert r.passed, base
        assert sorted(r.per_param) == ["q_flow", "r_flow"]


def test_akns_pde_passes_generic_parameters():
    coll = akns_collection(2, 2, 2, 3, [Fraction(1, 2)], [Fraction(-1, 3)])
    assert akns_pde_check(coll, (1, 1)).passed
    coll = akns_collection(
        3, 2, 1, -2, [Fraction(1, 3), Fraction(2)], [Fraction(1, 5)]
    )
    for p in (1, 2):
        assert akns_pde_check(coll, (p, 3 - p)).passed, p


def test_akns_pde_fails_when_k_is_truncated():
    coll = akns_collection(3, 3, 1, 1, None, None, big_k=2)
    r = akns_pde_check(coll, (1, 1))
    assert not r.passed
    assert r.per_param["q_flow"].terms or r.per_param["r_flow"].terms
    # at zero shifts the K=1 ratios degenerate to constants and pass, so the
    # truncation only shows up with generic parameters
    coll = akns_collection(2, 2, 1, 1, None, None, big_k=1)
    assert akns_pde_check(coll, (1, 0)).passed
    coll = akns_collection(2, 2, 2, 3, [Fraction(1, 2)], [Fraction(-1, 3)], big_k=1)
    assert not akns_pde_check(coll, (1, 0)).passed
    assert not akns_pde_check(coll, (0, 1)).passed


def test_akns_obstruction_is_the_first_nonzero_flow():
    coll = akns_collection(2, 2, 2, 3, [Fraction(1, 2)], [Fraction(-1, 3)], big_k=1)
    for base in [(1, 0), (0, 1)]:
        r = akns_pde_check(coll, base)
        q_flow, r_flow = r.per_param["q_flow"], r.per_param["r_flow"]
        assert r.obstruction == (q_flow if q_flow.terms else r_flow) != 0, base


def test_akns_pde_fails_on_perturbation():
    coll = akns_collection(2, 2, 1, 1, None, None)
    entries = dict(coll.entries)
    entries[(1, 1)] = entries[(1, 1)] + xvar(1) ** 2
    bad = TauCollection(total=2, ncomp=2, entries=entries)
    assert not akns_pde_check(bad, (1, 1)).passed


def test_akns_residuals_match_the_unfactored_reference():
    rng = random.Random(10)

    def rational():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    checked = 0
    for m1, m2 in [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5)]:
        coll = akns_collection(m1, m2, rational(), rational(),
                               [rational() for _ in range(m1)], [rational() for _ in range(m2)])
        entries = dict(coll.entries)
        label = sorted(entries)[len(entries) // 2]
        entries[label] = entries[label] + xvar(1) ** 2 * xvar(2) * rational()
        perturbed = TauCollection(coll.total, 2, entries)
        for c, control in [(coll, False), (perturbed, True)]:
            verdicts = []
            for p in range(1, c.total):
                base = (p, c.total - p)
                if not c.get(base).terms:
                    continue
                r = akns_pde_check(c, base)
                want = akns_flow_residuals(c, base)
                assert r.per_param == want, (m1, m2, base, control)
                assert r.obstruction == (want["q_flow"] if want["q_flow"].terms else want["r_flow"])
                verdicts.append(r.passed)
            assert all(verdicts) != control, (m1, m2, control)
            checked += len(verdicts)
    assert checked == 32


def _seeded_akns(rng: random.Random, m1: int, m2: int) -> TauCollection:
    def rational():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    return akns_collection(m1, m2, rational(), rational(),
                           [rational() for _ in range(m1)], [rational() for _ in range(m2)])


def _akns_bases(collection: TauCollection) -> list[tuple[int, int]]:
    """Every base p = 0..K whose entry is nonzero, edges included."""
    k = collection.total
    return [(p, k - p) for p in range(k + 1) if collection.get((p, k - p)).terms]


def test_akns_edge_bases_match_the_unfactored_reference():
    # At p = 0 and p = K one neighbour is off the lattice and reads as zero.
    rng = random.Random(19)
    checked = 0
    for m1, m2 in [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5)]:
        coll = _seeded_akns(rng, m1, m2)
        k = coll.total
        entries = dict(coll.entries)
        for label in [(0, k), (k, 0)]:
            if label in entries:
                entries[label] = entries[label] + xvar(1) ** 2 * xvar(2) * rng.randint(1, 9)
        perturbed = TauCollection(k, 2, entries)
        for c, control in [(coll, False), (perturbed, True)]:
            for base in [(0, k), (k, 0)]:
                if not c.get(base).terms:
                    continue
                r = akns_pde_check(c, base)
                want = akns_flow_residuals(c, base)
                assert r.per_param == want, (m1, m2, base, control)
                assert r.obstruction == (want["q_flow"] if want["q_flow"].terms else want["r_flow"])
                assert r.passed != control, (m1, m2, base, control)
                checked += 1
    assert checked == 16


def test_akns_bilinear_forms_vanish_on_every_true_base():
    # akns_pde_check skips its two products per flow exactly when P_f and Q
    # vanish; a collection where they did not would still be checked
    # correctly, only slowly, so this is the one test that sees it.
    rng = random.Random(19)
    interior = edge = 0
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            for coll in [akns_collection(m1, m2, 1, 1, None, None), _seeded_akns(rng, m1, m2)]:
                for base in _akns_bases(coll):
                    p_u, p_v, q = akns_bilinear_forms(coll, base)
                    assert not (p_u.terms or p_v.terms or q.terms), (m1, m2, base)
                    if 0 < base[0] < coll.total:
                        interior += 1
                    else:
                        edge += 1
    assert (interior, edge) == (100, 60)


def test_akns_residuals_split_into_bilinear_forms():
    # R_f = w P_f + f Q, checked against the unfactored pair where P_f and Q
    # do not vanish.
    rng = random.Random(20)
    nonzero = checked = 0
    for m1, m2 in [(2, 2), (3, 3), (4, 3), (4, 4)]:
        coll = _seeded_akns(rng, m1, m2)
        bump = xvar(1) * xvar(2) ** 2
        perturbed = TauCollection(coll.total, 2, {
            label: e + bump * (m1 - label[0]) for label, e in coll.entries.items()
        })
        for base in _akns_bases(perturbed):
            p, k = base
            w = perturbed.get(base)
            u, v = -perturbed.get((p + 1, k - 1)), perturbed.get((p - 1, k + 1))
            p_u, p_v, q = akns_bilinear_forms(perturbed, base)
            want = akns_flow_residuals(perturbed, base)
            assert want["q_flow"] == w * p_u + u * q, (m1, m2, base)
            assert want["r_flow"] == w * p_v + v * q, (m1, m2, base)
            nonzero += bool(p_u.terms and p_v.terms and q.terms)
            checked += 1
    assert (nonzero, checked) == (8, 16)


def test_akns_gauge_control_passes_through_the_fallback():
    # Multiplying every entry by g leaves q = u/w and r = v/w unchanged, so
    # R_f becomes g^3 R_f = 0 while P_f and Q no longer vanish (Q becomes
    # g^2 Q + w^2 D_x1^2 (g.g)): the pass must come from the full residual.
    g = 1 + xvar(1) - xvar(2)
    rng = random.Random(21)
    checked = 0
    for m1, m2 in [(2, 2), (3, 2), (3, 3), (4, 4)]:
        coll = _seeded_akns(rng, m1, m2)
        gauged = TauCollection(coll.total, 2, {label: g * e for label, e in coll.entries.items()})
        entries = dict(gauged.entries)
        label = sorted(entries)[len(entries) // 2]
        entries[label] = entries[label] + xvar(1) ** 3
        perturbed = TauCollection(coll.total, 2, entries)
        for c, control in [(gauged, False), (perturbed, True)]:
            verdicts = {}
            for base in _akns_bases(c):
                assert akns_bilinear_forms(c, base)[2].terms, (m1, m2, base, control)
                r = akns_pde_check(c, base)
                assert r.per_param == akns_flow_residuals(c, base), (m1, m2, base, control)
                verdicts[base] = r.passed
                checked += 1
            assert all(verdicts.values()) != control, (m1, m2, control)
            assert verdicts[label] != control, (m1, m2, label)
    assert checked == 30


def test_packed_akns_check_matches_the_sum_of_products_reference():
    # Every order up to (5, 5), at every base p = 0..K whose entry is nonzero (at p = 0
    # and K a neighbour reads zero), on a seeded collection, on the collections with
    # b1 = 0 (only tau^(0, K) is nonzero) and b2 = 0 (only tau^(K, 0)), and on a
    # perturbed control.  Reports agree with the Poly-level check and the unfactored
    # pair in numerators, denominator and ambient.
    def form(p: Poly):
        return p.numerators, p.den, p.ncomp

    rng = random.Random(34)
    checked: Counter = Counter()
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            coll = _seeded_akns(rng, m1, m2)
            c1 = [random_fraction(rng) for _ in range(m1)]
            c2 = [random_fraction(rng) for _ in range(m2)]
            entries = dict(coll.entries)
            label = sorted(entries)[len(entries) // 2]
            entries[label] = entries[label] + xvar(1) ** 2 * xvar(2) * (random_fraction(rng) or 1)
            cases = [("seeded", coll),
                     ("control", TauCollection(coll.total, 2, entries, ambient=1)),
                     ("b1=0", akns_collection(m1, m2, 0, random_fraction(rng) or 1, c1, c2)),
                     ("b2=0", akns_collection(m1, m2, random_fraction(rng) or 1, 0, c1, c2))]
            for kind, c in cases:
                verdicts = []
                for base in _akns_bases(c):
                    r = akns_pde_check(c, base)
                    ref = akns_check_by_sum_of_products(c, base)
                    flows = akns_flow_residuals(c, base)
                    assert list(r.per_param) == list(ref.per_param) == ["q_flow", "r_flow"]
                    for key, got in r.per_param.items():
                        assert form(got) == form(ref.per_param[key]) == form(flows[key]), (
                            m1, m2, base, kind, key)
                    assert form(r.obstruction) == form(ref.obstruction), (m1, m2, base, kind)
                    assert r.passed == ref.passed, (m1, m2, base, kind)
                    assert (r.identity, r.params) == (ref.identity, ref.params)
                    verdicts.append(r.passed)
                    checked[kind, 0 < base[0] < c.total] += 1
                # a control checks some base and fails it
                assert all(verdicts) != (kind == "control"), (m1, m2, kind)
    # (kind, interior base): with b1 = 0 or b2 = 0, 15 of the 25 orders keep their one entry
    assert checked == {("seeded", True): 50, ("seeded", False): 30, ("control", True): 50,
                       ("control", False): 30, ("b1=0", False): 15, ("b2=0", False): 15}


def test_akns_pde_rejects_variables_other_than_x_of_component_one():
    # A t-variable collection used to be checked with every t-variable read as a
    # constant, and failed with obstruction -64.
    coll = tau_mkp_collection([HSpec.make([(2, 1, [1, 2]), (2, 1, [0, 1])]),
                               HSpec.make([(2, 1, [3, 0]), (1, 2, [0])])])
    with pytest.raises(ValueError, match=r"x-variables of component 1 only, got "
                                         r"VarId\(family=<Family.T: 0>, component=1, index=1\)"):
        akns_pde_check(coll, (1, 1))
    # an x-collection with t_3, or in ambient 2 with x_2 of component 2, added to tau^(0, 2)
    akns = akns_collection(2, 2, 1, 1, None, None)
    for bad, ambient, name in [(tvar(3), 1, "family=<Family.T: 0>, component=1, index=3"),
                               (xvar(2, 2, 2), 2, "family=<Family.X: 2>, component=2, index=2")]:
        entries = {label: Poly(e.terms, ambient) for label, e in akns.entries.items()}
        entries[0, 2] = entries[0, 2] + bad
        with pytest.raises(ValueError, match=rf"got VarId\({name}\)$"):
            akns_pde_check(TauCollection(2, 2, entries), (1, 1))


def test_akns_pde_validation():
    coll = akns_collection(2, 2, 1, 1, None, None)
    with pytest.raises(ValueError):
        akns_pde_check(coll, (1, 1, 0))
    hole = TauCollection(total=2, ncomp=2, entries={(2, 0): Poly.const(1)})
    with pytest.raises(ValueError):
        akns_pde_check(hole, (1, 1))  # base entry is zero
    one_comp = TauCollection(total=1, ncomp=1, entries={(1,): tvar(1)})
    with pytest.raises(ValueError):
        akns_pde_check(one_comp, (1,))


def test_non_integer_orders_raise_type_error():
    # t_{2.5} does not exist, so an order of 2.5 must not read as a vacuous PASS,
    # and True must not read as 1.
    tau = tau_kp((3,))
    spec = HSpec.make([(2, 1, None), (1, 1, None)])
    collection = tau_mkp_collection([spec])
    calls = [
        lambda: reduction_check(tau, (2.5,), 1),
        lambda: reduction_check(tau, (2,), 1.0),
        lambda: apply_D(tau, True, (2,)),
        lambda: apply_D(tau, 1, (Fraction(2),)),
        lambda: compute_kj(spec, (1, 1.5)),
        lambda: HTerm(2.5, 1),
        lambda: HTerm(True, 1),
        lambda: KdVProfile((2.0,), ()),
        lambda: hirota_kp_check(tau, True),
        lambda: hirota_kp_check(tau, 0, 1.0),
        lambda: hirota_mkp_check(collection, (2, 0), (0, 0), j=0.0),
        lambda: hirota_mkp_check(collection, (2, 0), (0, 0), n_parts=(1, 1.0)),
        lambda: verify_mkp_collection(collection, n_parts=(True, 1)),
        lambda: verify_mkp_collection(collection, j_values=(0, 0.5)),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(TypeError, match="integer"):
            call()
            pytest.fail(f"call {i} accepted a non-integer order")
    assert not reduction_check(tau, (2,), 1).passed


# Every subcommand, with files named by key; the verify targets pass and fail.
EVERY_SUBCOMMAND = [
    ["schur", "5", "--component", "2"],
    ["tau-kp", "--partition", "3,1", "--shifts", "@kp_shifts"],
    ["tau-mkp", "--specs", "@specs"],
    ["tau-mkp", "--specs", "@specs", "--charge", "1,1"],
    ["tau-nkdv", "--partition", "3,2,1", "--n", "2"],
    ["tau-mnkdv", "--profile", "@profile"],
    ["tau-mnkdv", "--profile", "@profile", "--charge", "1,0"],
    ["akns", "--m1", "3", "--m2", "2", "--c1", "1/2,-1"],
    ["akns", "--m1", "3", "--m2", "2", "--p", "1"],
    ["verify", "--what", "kp", "--partition", "3,2,1", "--shifts", "random", "--trials", "2"],
    ["verify", "--what", "kp", "--partition", "3,2,1", "--j", "1"],
    ["verify", "--what", "nkdv", "--partition", "2,1", "--n", "2"],
    ["verify", "--what", "nkdv", "--partition", "3,2,1", "--n", "2", "--shifts", "@nkdv_shifts"],
    ["verify", "--what", "mkp", "--specs", "@specs"],
    ["verify", "--what", "mnkdv", "--profile", "@profile"],
    ["verify", "--what", "reduction", "--profile", "@profile"],
    ["verify", "--what", "akns", "--m1", "3", "--m2", "2", "--b1", "2"],
    ["verify", "--what", "akns", "--m1", "3", "--m2", "3", "--k", "2"],
    ["oracle-compare", "--case", "@case"],
    ["list-periodic", "--n", "2", "--max-size", "6"],
]


def test_nothing_in_the_package_reads_the_fraction_view(monkeypatch, tmp_path, capsys):
    # the checks, the reports and the command line read the integer numerators
    # alone: passing and failing library checks, and every subcommand in text and
    # --json mode, with Poly.terms raising
    from tauforge.cli import main

    specs = [[{"degree": 2}, {"degree": 1, "shift": ["1/2"]}], [{"degree": 1}, {"degree": 2}]]
    files = {"kp_shifts": {"1": ["1/2", -1, 2], "2": [3]}, "nkdv_shifts": {"0": [1], "1": [2]},
             "specs": {"specs": specs}, "profile": {"n_parts": [2, 1], "specs": specs[:1]},
             "case": [{"kind": "kp", "partition": [2, 1]}, {"kind": "mkp", "specs": specs}]}
    for key, obj in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(obj), encoding="utf-8")
    rng = random.Random(30)
    tau = tau_kp((3, 2, 1), random_shifts_for(rng, (3, 2, 1)))
    mkp = tau_mkp_collection([
        HSpec.make([(3, random_fraction(rng) or 1, [random_fraction(rng) for _ in range(3)])
                    for _ in range(2)])
        for _ in range(2)
    ])
    akns = akns_collection(4, 4, 2, Fraction(1, 3), [Fraction(1, 2)] * 3, [Fraction(-2, 5)] * 3)
    bad_akns = TauCollection(akns.total, 2, {**akns.entries, (2, 2): akns.get((2, 2)) + 1}, 1)
    bad_mkp = TauCollection(mkp.total, 2, {**mkp.entries, (1, 1): mkp.get((1, 1)) + tvar(2, 1, 2)})

    def unread(p):
        raise AssertionError("Poly.terms was read")

    monkeypatch.setattr(Poly, "terms", property(unread))
    checks = {  # (passing, failing) reports of each check
        "verify_kp": (verify_kp(tau), verify_kp(tau + tvar(2))),
        "verify_mkp_collection": (verify_mkp_collection(mkp), verify_mkp_collection(bad_mkp)),
        "reduction_check": ([reduction_check(tau_nkdv((2, 1), 2), (2,), 2)],
                            [reduction_check(tau, (2,), 2)]),
        "akns_pde_check": ([akns_pde_check(akns, (2, 2))], [akns_pde_check(bad_akns, (2, 2))]),
    }
    for name, (good, bad) in checks.items():
        assert all(r.passed for r in good) and not all(r.passed for r in bad), name
        for r in good + bad:
            assert r.to_json_obj(include_timing=True)["obstruction"] == str(r.obstruction)
    monkeypatch.chdir(tmp_path)
    codes = set()
    for argv in EVERY_SUBCOMMAND:
        argv = [f"{a[1:]}.json" if a.startswith("@") else a for a in argv]
        for mode in ([], ["--json"]):
            codes.add(main([argv[0], *mode, *argv[1:]]))
            assert capsys.readouterr().err == "", argv
    assert codes == {0, 1}
