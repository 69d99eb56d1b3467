"""The fermionic KP and multicomponent checks: their characters, and their
obstructions against the residue path they replaced (kept in ``oracles``)."""

import random
import sys
import threading
from fractions import Fraction
from math import factorial, lcm

from oracles import (
    boson_image_by_state_loop,
    bosonize_by_maya,
    characters,
    decode_wedge,
    encode_wedge,
    fock_states_by_maya,
    kp_residue_obstructions,
    maya_state,
    mkp_residue_obstruction,
    random_fraction,
    random_shifts_for,
    sato_b_by_maya,
    schur_expansion_by_rows,
    sector_terms,
)
from tauforge import (
    Family,
    HSpec,
    KdVProfile,
    Partition,
    Poly,
    TauCollection,
    all_partitions,
    fermion,
    generator_from_hspec,
    hirota_kp_check,
    hirota_mkp_check,
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
    wedge_tau,
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


def _state(lam: tuple[int, ...], charge: int) -> tuple[tuple[int, ...]]:
    """lambda as a one-species state at a charge >= len(lambda): the occupied
    positions {lambda_i - i + charge} for i = 1..charge, all >= 0."""
    parts = lam + (0,) * (charge - len(lam))
    return (tuple(p - i + charge for i, p in enumerate(parts, 1)),)


def _schur_image(xi) -> Poly:
    """sum_lambda xi_lambda s_lambda through ``wedge_tau``: one wedge of the states
    ``_state(lambda, m)`` at the charge m, the longest len(lambda)."""
    m = max(map(len, xi))
    return wedge_tau(encode_wedge({_state(lam, m): c for lam, c in xi.items()}, 1), (m,))


# -- Murnaghan-Nakayama characters ------------------------------------------------


def test_character_schur_functions_equal_the_jacobi_trudi_determinant():
    for lam in all_partitions(10):
        assert _schur_image({lam.parts: Fraction(1)}) == tau_kp(lam), lam


def test_characters_are_orthogonal():
    for n in range(8):
        classes = list(partitions_of(n))
        for lam in classes:
            for mu in classes:
                total = sum(
                    Fraction(
                        characters(lam).get(nu, 0) * characters(mu).get(nu, 0),
                        _z(nu),
                    )
                    for nu in classes
                )
                assert total == (1 if lam == mu else 0), (lam, mu)


def test_schur_expansion_recovers_the_coefficients():
    rng = random.Random(11)
    xi = {lam.parts: _nonzero_fraction(rng) for lam in all_partitions(5)}
    tau = _schur_image(xi)
    numerators, d = fermion.schur_expansion(tau, 1)
    assert {key: Fraction(n, d) for key, n in numerators.items()} == {
        (lam,): c for lam, c in xi.items()
    }
    assert d == lcm(*(c.denominator for c in xi.values()))  # the numerators share no factor


# -- the boson image against the state loop it replaced ----------------------------


def _wedge_sectors(rng: random.Random, ncomp: int, ncol: int, degree: int):
    """A seeded wedge and its charge sectors as tuple-state vectors; some
    generators are lowered by one or two places, so that their bottom entries sit
    at index <= 0."""
    gens = []
    for spec in _columns(rng, ncomp, ncol, degree):
        power = rng.choice((0, 0, 1, 2))
        gens.append(generator_from_hspec(spec, ncomp).lambda_shift((1,) * ncomp, power))
    wedge = wedge_from_generators(gens, ncomp)
    sectors: dict[tuple[int, ...], dict] = {}
    for state, c in decode_wedge(wedge).items():
        sectors.setdefault(tuple(map(len, state)), {})[state] = c
    return wedge, sectors


def test_boson_image_equals_the_state_loop_on_every_wedge_sector():
    rng = random.Random(20)
    cases = [(1, 3, 4), (1, 4, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 2)]
    images = 0
    for ncomp, ncol, degree in cases:
        for _ in range(3):
            wedge, sectors = _wedge_sectors(rng, ncomp, ncol, degree)
            for label, vector in sectors.items():
                got = wedge_tau(wedge, label)
                assert got == boson_image_by_state_loop(vector, label, ncomp), (ncomp, label)
                images += bool(got.terms)
    # the Jacobi-Trudi shapes: s_lambda as one state at charge len(lambda)
    for lam in all_partitions(8):
        vector, label = {_state(lam.parts, len(lam.parts)): Fraction(1)}, (len(lam.parts),)
        got = wedge_tau(encode_wedge(vector, 1), label)
        assert got == boson_image_by_state_loop(vector, label, 1)
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


# -- the integer kernel against the tuple-state kernel it replaced ------------------


def _assert_kernels_agree(coll: TauCollection, parts, sectors, reports) -> tuple[int, int]:
    """Fock states, B of every (m, q, j) sector and its obstruction, from the integer
    kernel and from the tuple-state reference; returns (nonzero B, reports)."""
    states, den, layout = fermion.fock_states(coll.entries, coll.ncomp)
    reference, ref_den = fock_states_by_maya(coll.entries, coll.ncomp)
    assert den == ref_den
    decoded = {l: [(maya_state(s, layout), c) for s, c in v] for l, v in states.items()}
    assert decoded == reference
    nonzero = 0
    for (mv, qv, j), report in zip(sectors, reports, strict=True):
        terms = sector_terms(coll.entries, mv, qv, j, parts)
        b = fermion.sato_b(states, layout, terms)
        expected = sato_b_by_maya(reference, terms)
        assert {
            maya_state(a, layout): {maya_state(s, layout): c for s, c in row.items()}
            for a, row in b.items()
        } == expected, (mv, qv, j)
        obstruction = (
            bosonize_by_maya(expected, den**2, mv, qv, coll.ambient)
            if expected else Poly.zero(coll.ambient)
        )
        assert report.obstruction == obstruction, (mv, qv, j)
        nonzero += bool(b)
    return nonzero, len(reports)


def _mkp_agree(coll: TauCollection, n_parts, js) -> tuple[int, int]:
    reports = verify_mkp_collection(coll, n_parts, js)
    sectors = [(tuple(r.params["m"]), tuple(r.params["q"]), r.params["j"]) for r in reports]
    return _assert_kernels_agree(coll, n_parts or (1,) * coll.ncomp, sectors, reports)


def _kp_agree(tau, n: int, js) -> tuple[int, int]:
    coll = TauCollection(0, 1, {(0,): tau})
    sectors = [((1,), (-1,), j) for j in js]
    return _assert_kernels_agree(coll, (n,), sectors, verify_kp(tau, n, js))


def test_integer_kernel_equals_the_tuple_state_kernel():
    rng = random.Random(23)
    nonzero = checks = 0

    def tally(counts: tuple[int, int]) -> None:
        nonlocal nonzero, checks
        nonzero, checks = nonzero + counts[0], checks + counts[1]

    for lam in all_partitions(6):
        tau = tau_kp(lam, random_shifts_for(rng, lam))
        for control in (tau, tau + tvar(2).scale(_nonzero_fraction(rng))):
            tally(_kp_agree(control, 1, (0,)))
    for parts, n in [((3, 2, 1), 2), ((4, 2), 3), ((2, 1), 2)]:
        shifts = {k: [random_fraction(rng) for _ in range(6)] for k in range(n)}
        tau = tau_nkdv(parts, n, shifts)
        for control in (tau, tau + (tvar(1) ** 4 * tvar(2)).scale(_nonzero_fraction(rng))):
            tally(_kp_agree(control, n, range(3)))
    # a 3-component collection; a (3,2)-reduced profile, whose shifts j * n_a up to
    # 6 carry positions below the floor of their field; and a 3-component
    # collection whose middle component is absent, so its species' field is empty
    absent = [
        HSpec.make([(2, _nonzero_fraction(rng), [random_fraction(rng)] * 2), (2, 0, None),
                    (3, _nonzero_fraction(rng), [random_fraction(rng)] * 3)])
        for _ in range(3)
    ]
    collections = [
        (tau_mkp_collection(_columns(rng, 3, 3, 2)), None, (0,)),
        (tau_mnkdv_collection(KdVProfile((3, 2), tuple(_columns(rng, 2, 1, 3)))), (3, 2),
         range(3)),
        (tau_mkp_collection(absent), None, (0, 1)),
    ]
    assert fermion.fock_states(collections[2][0].entries, 3)[2][1].width == 0
    for coll, n_parts, js in collections:
        tally(_mkp_agree(coll, n_parts, js))
        tally(_mkp_agree(_perturbed(coll, rng), n_parts, js))
    assert nonzero > 50 and checks > 2 * nonzero  # neither vacuous nor all failing


# -- the Plucker certificate against every sector -------------------------------------


def _every_pair(coll: TauCollection) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(l + e_a, r - e_a) for all entries l, r and every a: each sector with a term
    whose two labels are entries, the q_a = -1 ones that ``verify_mkp_collection``
    skips included."""
    return sorted({
        (left[:a] + (left[a] + 1,) + left[a + 1:], right[:a] + (right[a] - 1,) + right[a + 1:])
        for left in coll.entries for right in coll.entries for a in range(coll.ncomp)
    })


def _unsigned(states):
    """Fock states whose label sign (-1)^{sum_b C(l_b, 2)} in ``decomposable`` cancels."""
    return {
        label: [(state, -c if sum(x * (x - 1) // 2 for x in label) & 1 else c)
                for state, c in listed]
        for label, listed in states.items()
    }


def _seeded_collection(rng: random.Random, ncomp: int, ncol: int) -> TauCollection:
    """Columns of degrees 1..3 per component, one leading coefficient in five zero."""
    specs = []
    for _ in range(ncol):
        terms = [
            (d, _nonzero_fraction(rng) if rng.randrange(5) else 0,
             [random_fraction(rng) for _ in range(d)])
            for d in (rng.randint(1, 3) for _ in range(ncomp))
        ]
        if not any(b for _, b, _ in terms):
            terms[0] = (terms[0][0], 1, terms[0][2])
        specs.append(HSpec.make(terms))
    return tau_mkp_collection(specs)


# An entry that is no KP tau in t^(2): its one pair with r_a >= 1 passes, and only the
# pair m = (2, 1), q = (2, -1), with r_a = 0, fails; ``verify_mkp_collection`` runs
# that pair only because the certificate refutes the entry.
SKIPPED_SECTOR = TauCollection(
    2, 2, {(2, 0): Poly.const(Fraction(1, 4), 2) - tvar(2, 2, 2).scale(Fraction(2, 3))}
)


def _certificate_cases():
    """The wedge oracle's collections, seeded collections with s <= 4 and perturbed
    copies, the perturbed controls of this file, ``SKIPPED_SECTOR`` and seeded
    collections like it."""
    rng = random.Random(26)
    for ncomp, ncol, degree in [(1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 2)]:
        wedge, sectors = _wedge_sectors(rng, ncomp, ncol, degree)
        entries = {label: wedge_tau(wedge, label) for label in sectors}
        yield TauCollection(ncol, ncomp, {label: p for label, p in entries.items() if p.terms})
    for _ in range(40):
        s = rng.randint(2, 4)
        coll = _seeded_collection(rng, s, rng.randint(1, 2 if s == 4 else 3))
        if not coll.entries:
            continue
        yield coll
        entries = dict(coll.entries)
        label = rng.choice(sorted(entries))
        a = rng.randint(1, s)
        bump = tvar(1, a, s) ** rng.randint(0, 2) * tvar(2, a, s)
        entries[label] = entries[label] + bump.scale(_nonzero_fraction(rng))
        yield TauCollection(coll.total, s, entries)
    for coll in (tau_mkp_collection(_columns(rng, 2, 2, 2)),
                 tau_mkp_collection(_columns(rng, 3, 3, 2)),
                 tau_mnkdv_collection(KdVProfile((3, 2), tuple(_columns(rng, 2, 1, 3))))):
        yield coll
        yield _perturbed(coll, rng)
    for tau in [*_kp_taus(), *(tau for tau, _ in _nkdv_taus())]:
        yield TauCollection(0, 1, {(0,): tau})
    yield SKIPPED_SECTOR
    rng = random.Random(31)
    for _ in range(6):  # one entry, no KP tau in a component a where its charge is 0
        s = rng.randint(2, 3)
        a = rng.randrange(s)
        label = tuple(0 if b == a else rng.randint(1, 2) for b in range(s))
        bump = tvar(1, a + 1, s) ** rng.randint(0, 2) * tvar(2, a + 1, s)
        entry = bump.scale(_nonzero_fraction(rng)) + _nonzero_fraction(rng)
        yield TauCollection(sum(label), s, {label: entry})


def test_the_certificate_holds_exactly_when_every_sector_passes():
    verdicts, unsigned_wrong, unvisited_fails = [], 0, 0
    for coll in _certificate_cases():
        states = fermion.fock_states(coll.entries, coll.ncomp)[0]
        certified = fermion.decomposable(states)
        every = all(hirota_mkp_check(coll, m, q).passed for m, q in _every_pair(coll))
        assert certified == every, coll.entries
        verdicts.append(certified)
        unsigned_wrong += fermion.decomposable(_unsigned(states)) != every
        if not certified:
            # the per-pair path decides, so each report is the single pair's, and
            # no refuted collection passes
            kp = coll.total == 0
            reports = verify_mkp_collection(coll)
            for r in verify_kp(coll.get((0,))) if kp else reports:
                m, q = ((1,), (-1,)) if kp else (r.params["m"], r.params["q"])
                single = hirota_mkp_check(coll, m, q)
                assert r.obstruction == single.obstruction and r.passed == single.passed
            assert not all(r.passed for r in reports), coll.entries
            unvisited_fails += not kp and min(reports[-1].params["q"]) < 0  # some r_a = 0
    assert verdicts.count(True) > 40 and verdicts.count(False) > 40
    assert unsigned_wrong > 5  # labels with odd charges make the sign matter
    # SKIPPED_SECTOR and the six like it pass every visited pair, and no other case does
    assert unvisited_fails == 7, unvisited_fails
    # the certificate refutes SKIPPED_SECTOR, whose one visited pair passes, so the
    # unvisited pair runs and its FAIL is appended
    assert not fermion.decomposable(fermion.fock_states(SKIPPED_SECTOR.entries, 2)[0])
    visited, skipped = verify_mkp_collection(SKIPPED_SECTOR)
    assert visited.passed and (visited.params["m"], visited.params["q"]) == ([3, 0], [1, 0])
    assert not skipped.passed and (skipped.params["m"], skipped.params["q"]) == ([2, 1], [2, -1])
    assert skipped.obstruction == hirota_mkp_check(SKIPPED_SECTOR, (2, 1), (2, -1)).obstruction
    assert len(skipped.obstruction.numerators) == 10


def test_dense_expansion_matches_the_row_dict_reference():
    # every entry of the certificate's collections, and every partition of 6 with
    # seeded shifts and a perturbed copy: the same numerators in the same order
    rng = random.Random(27)
    taus = [(tau, coll.ncomp) for coll in _certificate_cases() for tau in coll.entries.values()]
    for lam in all_partitions(6):
        tau = tau_kp(lam, random_shifts_for(rng, lam))
        taus += [(tau, 1), (tau + tvar(2).scale(_nonzero_fraction(rng)), 1)]
    for tau, species in taus:
        got, den = fermion.schur_expansion(tau, species)
        expected, ref_den = schur_expansion_by_rows(tau, species)
        assert den == ref_den and list(got.items()) == list(expected.items()), str(tau)
    assert len(taus) > 300 and max(s for _, s in taus) == 4


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
    # character columns of the expansion, of size at most 6, may stay cached.
    tau = tau_kp((3, 2, 1)) + (tvar(1) ** 4 * tvar(2)).scale(Fraction(3, 2))
    fermion._CHARACTERS.clear()
    report = hirota_kp_check(tau)
    t_weights = [
        sum(v.index * e for v, e in mono if v.family == Family.T)
        for mono in report.obstruction.terms
    ]
    assert max(t_weights) == 11
    assert max(fermion._CHARACTERS) == 6  # keyed by size


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
