"""The fermionic KP and multicomponent checks: their characters, and their
obstructions against the residue path they replaced (kept in ``oracles``)."""

import random
import sys
import threading
from fractions import Fraction
from math import factorial

from oracles import (
    boson_image_by_state_loop,
    kp_residue_obstructions,
    mkp_residue_obstruction,
    random_fraction,
    random_shifts_for,
)
from tauforge import (
    Family,
    HSpec,
    KdVProfile,
    Partition,
    TauCollection,
    all_partitions,
    fermion,
    generator_from_hspec,
    hirota_kp_check,
    oracle_tau,
    tau_kp,
    tau_mkp_collection,
    tau_mkp_entry,
    tau_mnkdv_collection,
    tau_nkdv,
    tvar,
    verify_kp,
    verify_mkp_collection,
    wedge_from_generators,
)
from tauforge.partitions import partitions_of


def _nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        f = random_fraction(rng)
        if f:
            return f


def _z(nu: tuple[int, ...]) -> int:
    """Centralizer order prod_k k^{m_k} m_k! of the class nu."""
    out = 1
    for k in set(nu):
        m = nu.count(k)
        out *= k**m * factorial(m)
    return out


def _state(lam: tuple[int, ...]) -> tuple[tuple[int, ...]]:
    """lambda as a one-species state at charge 0: the Maya set {lambda_i - i}."""
    return (tuple(p - i for i, p in enumerate(lam, 1)),)


# -- Murnaghan-Nakayama characters ------------------------------------------------


def test_character_schur_functions_equal_the_jacobi_trudi_determinant():
    for lam in all_partitions(10):
        assert fermion.boson_image({_state(lam.parts): Fraction(1)}, (0,), 1) == tau_kp(lam), lam


def test_characters_are_orthogonal():
    for n in range(8):
        classes = list(partitions_of(n))
        for lam in classes:
            for mu in classes:
                total = sum(
                    Fraction(
                        fermion.characters(lam).get(nu, 0) * fermion.characters(mu).get(nu, 0),
                        _z(nu),
                    )
                    for nu in classes
                )
                assert total == (1 if lam == mu else 0), (lam, mu)


def test_schur_expansion_recovers_the_coefficients():
    rng = random.Random(11)
    xi = {lam.parts: _nonzero_fraction(rng) for lam in all_partitions(5)}
    tau = fermion.boson_image({_state(lam): c for lam, c in xi.items()}, (0,), 1)
    assert fermion.schur_expansion(tau, 1) == {(lam,): c for lam, c in xi.items()}


# -- the boson image against the state loop it replaced ----------------------------


def _wedge_sectors(rng: random.Random, ncomp: int, ncol: int, degree: int):
    """The charge sectors of a seeded wedge; some generators are lowered by one
    or two places, so that their bottom entries sit at index <= 0."""
    gens = []
    for spec in _columns(rng, ncomp, ncol, degree):
        power = rng.choice((0, 0, 1, 2))
        gens.append(generator_from_hspec(spec, ncomp).lambda_shift((1,) * ncomp, power))
    sectors: dict[tuple[int, ...], dict] = {}
    for state, c in wedge_from_generators(gens, ncomp).items():
        sectors.setdefault(tuple(map(len, state)), {})[state] = c
    return sectors


def test_boson_image_equals_the_state_loop_on_every_wedge_sector():
    rng = random.Random(20)
    cases = [(1, 3, 4), (1, 4, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 2)]
    images = 0
    for ncomp, ncol, degree in cases:
        for _ in range(3):
            for label, vector in _wedge_sectors(rng, ncomp, ncol, degree).items():
                got = fermion.boson_image(vector, label, ncomp)
                assert got == boson_image_by_state_loop(vector, label, ncomp), (ncomp, label)
                images += bool(got.terms)
    # the Jacobi-Trudi shapes: s_lambda as one state at charge 0
    for lam in all_partitions(8):
        vector = {_state(lam.parts): Fraction(1)}
        assert fermion.boson_image(vector, (0,), 1) == boson_image_by_state_loop(vector, (0,), 1)
    assert images > 40  # the comparison is not vacuous


def test_the_oracle_keeps_no_character_rows():
    # the oracle bosonizes with rows of its own; only the Schur expansion keeps rows
    specs = _columns(random.Random(21), 2, 3, 3)
    fermion._CHARACTERS.clear()
    fermion._EXPANSIONS.clear()
    tau = oracle_tau([generator_from_hspec(spec, 2) for spec in specs], (2, 1))
    assert tau.terms and tau == tau_mkp_entry(specs, (2, 1))
    assert fermion._EXPANSIONS
    assert not fermion._CHARACTERS


# -- obstructions against the residue reference ------------------------------------


def _kp_taus():
    """Every |lambda| <= 5 with seeded shifts, plus c*t1^4*t2 and c*t2 copies."""
    rng = random.Random(5)
    for lam in all_partitions(5):
        tau = tau_kp(lam, random_shifts_for(rng, lam))
        c = _nonzero_fraction(rng)
        yield tau
        yield tau + (tvar(1) ** 4 * tvar(2)).scale(c)
        yield tau + tvar(2).scale(c)


def _nkdv_taus():
    rng = random.Random(6)
    for parts, n in [((3, 2, 1), 2), ((4, 2), 3)]:
        shifts = {k: [random_fraction(rng) for _ in range(6)] for k in range(n)}
        tau = tau_nkdv(parts, n, shifts)
        yield tau, n
        yield tau + (tvar(1) ** 4 * tvar(2)).scale(_nonzero_fraction(rng)), n


def test_kp_obstruction_matches_the_residue_reference():
    cases = [(tau, range(1, 4)) for tau in _kp_taus()]
    cases += [(tau, (n,)) for tau, n in _nkdv_taus()]
    failing = 0
    for tau, ns in cases:
        reference = kp_residue_obstructions(tau, {j * n for j in range(3) for n in ns})
        for j in range(3):
            for n in ns:
                report = hirota_kp_check(tau, j, n)
                assert report.obstruction == reference[j * n], (str(tau), j, n)
                failing += not report.passed
        for n in ns:
            listed = verify_kp(tau, n, range(3))
            assert [r.obstruction for r in listed] == [reference[j * n] for j in range(3)]
            assert [r.params for r in listed] == [{"j": j, "n": n} for j in range(3)]
    assert failing > 300  # the comparison is not vacuous


def _columns(rng: random.Random, ncomp: int, ncol: int, degree: int) -> list[HSpec]:
    """Columns with seeded leading coefficients and shifts in every component."""
    return [
        HSpec.make([
            (degree, _nonzero_fraction(rng), [random_fraction(rng) for _ in range(degree)])
            for _ in range(ncomp)
        ])
        for _ in range(ncol)
    ]


def _perturbed(coll: TauCollection, rng: random.Random) -> TauCollection:
    """``coll`` with c * t1^2 * t2 of component 1 added to its lowest entry."""
    entries = dict(coll.entries)
    first = min(entries)
    s = coll.ambient
    bump = (tvar(1, 1, s) ** 2 * tvar(2, 1, s)).scale(_nonzero_fraction(rng))
    entries[first] = entries[first] + bump
    return TauCollection(coll.total, coll.ncomp, entries)


def test_mkp_obstruction_matches_the_residue_reference():
    rng = random.Random(9)
    cases = [
        (tau_mkp_collection(_columns(rng, 2, 2, 2)), None, (0,)),
        (tau_mkp_collection(_columns(rng, 3, 3, 2)), None, (0,)),
        (tau_mkp_collection(_columns(rng, 3, 2, 3)), None, (0,)),
        (tau_mnkdv_collection(KdVProfile((3, 2), tuple(_columns(rng, 2, 1, 3)))), (3, 2),
         (0, 1, 2)),
    ]
    cases += [(_perturbed(coll, rng), n_parts, js) for coll, n_parts, js in cases]
    checks = failing = 0
    for coll, n_parts, js in cases:
        parts = n_parts or (1,) * coll.ncomp
        for report in verify_mkp_collection(coll, n_parts, js):
            p = report.params
            reference = mkp_residue_obstruction(coll, p["m"], p["q"], p["j"], parts)
            assert report.obstruction == reference, (coll.ncomp, p)
            checks += 1
            failing += not report.passed
    assert failing > 20 and checks > 2 * failing  # neither vacuous nor all failing


def test_four_components_with_three_degree_3_columns():
    coll = tau_mkp_collection(_columns(random.Random(4), 4, 3, 3))
    reports = verify_mkp_collection(coll)
    assert len(reports) > 100 and all(r.passed for r in reports)
    bad = verify_mkp_collection(_perturbed(coll, random.Random(4)))
    assert any(not r.passed for r in bad)


def test_every_partition_of_8_passes_and_a_perturbed_copy_fails():
    rng = random.Random(8)
    for parts in partitions_of(8):
        tau = tau_kp(parts, random_shifts_for(rng, Partition(parts)))
        assert hirota_kp_check(tau).passed, parts
        bad = tau + tvar(2).scale(_nonzero_fraction(rng))
        assert not hirota_kp_check(bad).passed, parts


def test_a_failing_check_keeps_no_characters_beyond_the_input():
    # The bosonization reads s_lambda(t) up to |lambda| = 11 here; only the
    # rows of the expansion, of size at most 6, may stay cached.
    tau = tau_kp((3, 2, 1)) + (tvar(1) ** 4 * tvar(2)).scale(Fraction(3, 2))
    fermion._CHARACTERS.clear()
    report = hirota_kp_check(tau)
    t_weights = [
        sum(v.index * e for v, e in mono if v.family == Family.T)
        for mono in report.obstruction.terms
    ]
    assert max(t_weights) == 11
    assert max(sum(lam) for lam, _ in fermion._CHARACTERS) == 6


def _top_t_weight(obstruction) -> int:
    return max(
        sum(v.index * e for v, e in mono if v.family == Family.T) for mono in obstruction.terms
    )


def test_a_failing_check_keeps_term_lists_no_larger_than_its_obstruction():
    tau = tau_kp((3, 2, 1)) + (tvar(1) ** 4 * tvar(2)).scale(Fraction(3, 2))
    fermion._EXPANSIONS.clear()
    report = hirota_kp_check(tau)
    assert _top_t_weight(report.obstruction) == 11
    assert max(sum(lam) for lam, family, _ in fermion._EXPANSIONS if family == Family.T) == 11
    assert max(sum(lam) for lam, _, _ in fermion._EXPANSIONS) <= 11


def test_a_repeated_failing_check_keeps_no_new_term_list():
    tau = tau_kp((3, 2, 1)) + (tvar(1) ** 4 * tvar(2)).scale(Fraction(3, 2))
    fermion._EXPANSIONS.clear()
    first = hirota_kp_check(tau)
    kept = dict(fermion._EXPANSIONS)
    second = hirota_kp_check(tau)
    assert not first.passed
    assert second.obstruction == first.obstruction
    assert fermion._EXPANSIONS.keys() == kept.keys()
    assert all(fermion._EXPANSIONS[key] is terms for key, terms in kept.items())


def test_cold_and_warm_term_lists_give_the_residue_reference():
    kp = tau_nkdv((4, 2), 3) + (tvar(1) ** 4 * tvar(2)).scale(Fraction(-2, 3))
    kp_expected = kp_residue_obstructions(kp, [0])[0]
    rng = random.Random(12)
    mkp = _perturbed(tau_mkp_collection(_columns(rng, 2, 2, 2)), rng)
    mkp_expected = [
        mkp_residue_obstruction(mkp, r.params["m"], r.params["q"], r.params["j"], (1, 1))
        for r in verify_mkp_collection(mkp)
    ]
    assert kp_expected.terms and any(p.terms for p in mkp_expected)
    fermion._EXPANSIONS.clear()
    fermion._CHARACTERS.clear()
    for _ in ("cold", "warm"):
        assert hirota_kp_check(kp).obstruction == kp_expected
        assert [r.obstruction for r in verify_mkp_collection(mkp)] == mkp_expected


def test_concurrent_cold_caches_give_the_same_obstruction():
    # Four threads fill the emptied character and term-list caches at a 1 us
    # switch interval; every obstruction must equal the reference one.
    tau = tau_nkdv((3, 2, 1), 2) + (tvar(1) ** 4 * tvar(2)).scale(Fraction(3, 2))
    expected = kp_residue_obstructions(tau, [0])[0]
    assert expected.terms
    fermion._CHARACTERS.clear()
    fermion._EXPANSIONS.clear()
    results, errors = [], []

    def check():
        try:
            results.append(hirota_kp_check(tau).obstruction)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=check) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 4
    assert all(r == expected for r in results)
