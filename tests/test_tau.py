import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    akns_by_args,
    det_by_decoded_minors,
    det_by_permutations,
    generating_poly,
    mnkdv_columns_by_derivatives,
    nkdv_by_chain_tops,
    nkdv_by_row_shifts,
    random_fraction,
    random_shifts_for,
    tau_by_derivatives,
    tau_kp_by_windowed_tables,
)
from tauforge import (
    BasisVector,
    Family,
    GeneratorVector,
    HSpec,
    HTerm,
    KdVProfile,
    Partition,
    Poly,
    ShiftVector,
    TauCollection,
    VarId,
    akns_collection,
    all_partitions,
    akns_pde_check,
    akns_tau,
    apply_D,
    charge_vectors,
    compute_kj,
    det_poly,
    elementary_schur,
    enumerate_n_periodic,
    expected_shift_lengths,
    generator_from_hspec,
    generators_from_partition,
    hirota_mkp_check,
    is_n_periodic,
    kp_specs_from_partition,
    oracle_tau,
    schur_shifted,
    solve_shifts,
    tau_kp,
    tau_mkp_collection,
    tau_mkp_entry,
    tau_mnkdv_collection,
    tau_mnkdv_entry,
    tau_nkdv,
    tvar,
    xvar,
)
from tauforge import tau as tau_module
from tauforge.polycore import exact_fraction
from tauforge.tau import _spec_column, tau_mkp_entries

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)

T1 = VarId(Family.T, 1, 1)


def cube_tau():
    return (tvar(1) ** 3).scale(Fraction(1, 3)) - tvar(3)


# -- determinants -------------------------------------------------------------------


@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(
            st.lists(
                st.builds(
                    lambda c, e: (tvar(1) ** e).scale(c) + tvar(2).scale(e),
                    rationals,
                    st.integers(0, 2),
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_permutation_expansion(rows):
    assert det_poly(rows) == det_by_permutations(rows)


def test_det_matches_permutations_on_seeded_matrices_with_zero_and_constant_entries():
    rng = random.Random(41)
    for ncomp in (1, 2, 3):
        pool = [Poly.zero(ncomp), Poly.const(random_fraction(rng) or 1, ncomp)]
        for _ in range(4):
            term = Poly.const(random_fraction(rng), ncomp)
            for _ in range(rng.randint(1, 3)):
                v = tvar(rng.randint(1, 3), rng.randint(1, ncomp), ncomp)
                term = term + (v ** rng.randint(1, 3)).scale(random_fraction(rng))
            pool.append(term)
        for n in range(1, 6):
            for _ in range(3):
                # entries drawn from a small pool, so one Poly object sits in several cells
                rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
                assert det_poly(rows) == det_by_permutations(rows), (ncomp, n)


@st.composite
def packed_matrices(draw):
    """Square matrices over a small pool of entries in the T, Y and X families
    of several components, with zero entries and rational coefficients; one
    Poly object often sits in several cells."""
    ncomp = draw(st.integers(1, 3))
    variables = st.builds(VarId, st.sampled_from(list(Family)), st.integers(1, ncomp),
                          st.integers(1, 3))
    pool = [Poly.zero(ncomp), Poly.const(draw(rationals.filter(bool)), ncomp)]
    for _ in range(draw(st.integers(1, 4))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            mono = draw(st.dictionaries(variables, st.integers(1, 3), max_size=2))
            terms[tuple(sorted(mono.items()))] = draw(rationals)
        pool.append(Poly(terms, ncomp))
    n = draw(st.integers(1, 5))
    picks = st.integers(0, len(pool) - 1)
    return [[pool[draw(picks)] for _ in range(n)] for _ in range(n)]


@given(packed_matrices())
def test_det_matches_the_decoded_minor_reference(rows):
    got = det_poly(rows)
    assert got == det_by_decoded_minors(rows)
    if len(rows) <= 4:
        assert got == det_by_permutations(rows)
    for mono, c in got.terms.items():
        assert type(c) is Fraction and c != 0 and gcd(c.numerator, c.denominator) == 1
        assert list(mono) == sorted(mono) and all(e >= 1 for _, e in mono)


def edge_rows(k, data):
    """A square matrix whose rows' largest exponents sum to 2^k, and a variable
    v whose power 2^k is a monomial of its determinant."""
    n = data.draw(st.integers(1, min(4, 2**k)))
    cuts = sorted(data.draw(st.lists(st.integers(1, 2**k - 1), min_size=n - 1, max_size=n - 1,
                                     unique=True)))
    tops = [b - a for a, b in zip([0] + cuts, cuts + [2**k])]
    v = VarId(Family.T, 2, 1)
    perm = data.draw(st.permutations(range(n)))
    rows = []
    for i, top in enumerate(tops):
        row = []
        for j in range(n):
            below = data.draw(st.integers(0, top - 1))
            other = VarId(data.draw(st.sampled_from(list(Family))), 1, data.draw(st.integers(1, 2)))
            terms = {((other, data.draw(st.integers(1, top))),): data.draw(rationals)}
            if below:
                terms[((v, below),)] = data.draw(rationals)
            if j == perm[i]:
                terms[((v, top),)] = data.draw(rationals.filter(bool))
            row.append(Poly(terms, 2))
        rows.append(row)
    return rows, v


@given(st.integers(1, 40), st.data())
def test_det_at_the_field_width_edge(k, data):
    # The rows' largest exponents sum to 2^k and one monomial of the
    # determinant reaches it.  det_poly sizes its fields by the columns' sum,
    # which is at least that monomial's exponent; the transposed matrix below
    # sits at that bound.
    rows, v = edge_rows(k, data)
    got = det_poly(rows)
    assert got == det_by_decoded_minors(rows)
    assert ((v, 2**k),) in got.terms
    if len(rows) <= 3:
        assert got == det_by_permutations(rows)


@given(st.integers(1, 40), st.data())
def test_det_at_the_column_field_width_edge(k, data):
    # The transpose: the columns' largest exponents sum to 2^k, the bound the
    # determinant kernel sizes its fields by, and one monomial of the
    # determinant reaches it: a field of one bit less would carry.
    rows, v = edge_rows(k, data)
    columns = [list(col) for col in zip(*rows)]
    got = det_poly(columns)
    assert got == det_by_decoded_minors(columns) == det_by_decoded_minors(rows)
    assert ((v, 2**k),) in got.terms
    if len(rows) <= 3:
        assert got == det_by_permutations(columns)


def test_one_packing_per_construction(monkeypatch):
    # every label of a construction reads one packing of its columns' tables
    made = []

    class Counted(tau_module.Packing):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(tau_module, "Packing", Counted)
    rng = random.Random(5)
    specs = [HSpec.make([(3, random_fraction(rng) or 1, [random_fraction(rng)] * 2)
                         for _ in range(3)]) for _ in range(3)]
    profile = KdVProfile((2, 1), (HSpec.make([(4, 1, None), (2, 1, None)]),
                                  HSpec.make([(2, 3, None), (1, 1, None)])))
    constructions = [  # (the nonzero entries it builds, how many)
        (lambda: list(tau_mkp_collection(specs).entries.values()), 10),
        (lambda: list(tau_mnkdv_collection(profile).entries.values()), 2),
        (lambda: list(akns_collection(3, 3, 2, 3, [Fraction(1, 2)] * 2, None).entries.values()),
         4),
        (lambda: list(tau_mkp_entries(specs, charge_vectors(3, 3))), 10),
        (lambda: [det_poly([[tvar(1), tvar(2)], [Poly.const(1), tvar(1) + tvar(3)]])], 1),
    ]
    for build, count in constructions:
        made.clear()
        taus = build()
        assert len(made) == 1 and len(taus) == count and all(taus), build


def test_tau_mkp_entries_checks_each_charge_when_reached():
    spec = HSpec.make([(2, 1, None), (2, 3, None)])
    entries = tau_mkp_entries([spec], iter([(1, 0), (2, 0)]))
    assert next(entries) == tau_mkp_entry([spec], (1, 0)) != 0
    with pytest.raises(ValueError, match="must sum to the column count 1"):
        next(entries)


def test_det_validation():
    with pytest.raises(ValueError):
        det_poly([])
    with pytest.raises(ValueError):
        det_poly([[Poly.const(1), Poly.const(2)]])
    with pytest.raises(ValueError, match="matrix must be square"):
        det_poly([[]])  # raised IndexError


def test_det_triangular():
    one = Poly.const(1)
    rows = [[tvar(1), one], [Poly.zero(), tvar(2)]]
    assert det_poly(rows) == tvar(1) * tvar(2)


# -- single-component KP ---------------------------------------------------------


def test_library_boundary_rejects_floats():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    calls = [
        lambda: tau_kp((1,), [[0.1]]),
        lambda: HSpec.make([(2, 0.5, None)]),
        lambda: HTerm(2, Fraction(1), [0.5]),
        lambda: ShiftVector.coerce([0.5]),
        lambda: solve_shifts([0.5, 1]),
        lambda: akns_tau(2, 2, 0.5, 1, None, None, 2, 1),
        lambda: akns_tau(2, 2, 1, 0.5, None, None, 2, 1),
        lambda: GeneratorVector({BasisVector(1, 1): 0.5}),
        lambda: GeneratorVector.basis(1, 1).scale(0.5),
        lambda: Poly.from_json_obj({"terms": [{"coeff": 0.1, "monomial": []}]}),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(TypeError):
            call()
            pytest.fail(f"call {i} accepted a float")
    # exact strings still read as rationals
    assert HSpec.make([(2, "1/2", ["1/3"])]) == HSpec.make([(2, Fraction(1, 2), [Fraction(1, 3)])])
    assert tau_kp((1,), [["-1/3"]]) == tau_kp((1,), [[Fraction(-1, 3)]])


def test_library_boundary_rejects_strings_and_inexact_integers():
    def monomial(component, index, exponent):
        return {"ncomp": 2, "terms": [{"coeff": "1", "monomial": [["T", component, index, exponent]]}]}

    calls = [
        lambda: ShiftVector.coerce("12"),  # was read digit by digit as (1, 2)
        lambda: tau_kp((2,), ["3"]),
        lambda: Partition.coerce("32"),  # was (3, 2)
        lambda: tau_kp("21"),
        lambda: Partition.coerce([2.5, 1]),  # was truncated to (2, 1)
        lambda: Partition.coerce([True]),  # was (1,)
        lambda: Poly.from_json_obj(monomial(1, 1, 2.7)),  # float fields were truncated
        lambda: Poly.from_json_obj(monomial(1, 2.7, 1)),
        lambda: Poly.from_json_obj(monomial(1.5, 1, 1)),
        lambda: Poly.from_json_obj(monomial(1, 1, True)),
        lambda: Poly.from_json_obj({"ncomp": 2.0, "terms": []}),
        lambda: exact_fraction(True),  # was 1
        lambda: HTerm(2, True),  # its coeff was 1
        lambda: tau_kp((1,), [[True]]),  # was 1 + t1
        lambda: Poly.const(False),
        lambda: tvar(1) + True,
        lambda: GeneratorVector({(1, 2.7): 1}),  # read e_2, and oracle_tau answered t1
        lambda: GeneratorVector({(True, 2): 1}),  # read component 1
        lambda: GeneratorVector({(1, 2): 1}, 2.0),  # kept ncomp 2.0
        lambda: GeneratorVector.basis(1, 2, True),  # kept ncomp True
        lambda: GeneratorVector.basis(1, 2).lambda_shift((1.5,)),  # moved e_2 by 1
        lambda: GeneratorVector.basis(1, 2).lambda_shift((1,), 1.5),  # power was truncated
        lambda: tau_nkdv((2, 1), 2, {0.9: [5]}),  # read class 0
        lambda: tau_nkdv((2, 1), 2, {False: [5]}),
        lambda: tau_nkdv((2, 1), 2.0),
        lambda: is_n_periodic((2, 1), 2.0),
        lambda: is_n_periodic((2, 1), 2.5),  # answered False
        lambda: enumerate_n_periodic(2.0, 3),
        lambda: enumerate_n_periodic(2.0, -1),  # answered []
        lambda: tvar(2.0),  # printed t2.0, and its JSON did not read back
        lambda: tvar(1, True),  # read component 1
        lambda: Poly.var(VarId(2, 1, 1)),  # its str raised AttributeError
        lambda: tvar(1) ** True,  # was t1
        lambda: tvar(1) ** 2.0,  # raised ValueError
        lambda: tvar(1, 1, 2.0),  # its JSON wrote "ncomp": 2.0, which did not read back
        lambda: Poly.zero(1.5),
        lambda: Poly.const(1, True),
        lambda: tvar(1, 1, True) + tvar(1),  # was 2*t1
        lambda: Poly({}, 2.0),
        lambda: tvar(1).diff(VarId(Family.T, 1, 1), 1.5),  # was Poly(0)
        lambda: (tvar(1) ** 2).diff(VarId(Family.T, 1, 1), True),  # was 2*t1
        lambda: akns_collection(True, 2, 1, 1, None, None),  # was built with m1 = 1
        lambda: akns_collection(2.0, 2, 1, 1, None, None),  # raised on m1 - 1 = 1.0
        lambda: akns_collection(2, 2, 1, 1, None, None, 2.0),
        lambda: akns_tau(2, 2, 1, 1, None, None, 2, True),  # was tau^(1,1)
        lambda: akns_tau(2, True, 1, 1, None, None, 2, 1),
        lambda: TauCollection(True, 1, {}),  # serialized as "total": true
        lambda: TauCollection(1.5, 1, {}),
        lambda: TauCollection(1, 1, {(1,): tvar(1)}).get([1.0]),  # read label (1,)
        lambda: enumerate_n_periodic(2, True),  # enumerated up to size 1
        lambda: enumerate_n_periodic(2, 2.5),  # raised Python's own TypeError
    ]
    for i, call in enumerate(calls):
        with pytest.raises(TypeError):
            call()
            pytest.fail(f"call {i} was accepted")
    assert Partition.coerce([3, 2]) == Partition((3, 2))
    assert ShiftVector.coerce(["1/2", 3]) == ShiftVector((Fraction(1, 2), Fraction(3)))
    assert Poly.from_json_obj(monomial(2, 3, 2)) == tvar(3, 2, 2) ** 2
    # comparing with a bool answers False rather than raising
    assert (Poly.const(1) == True) is False and (Poly.const(1) == 1) is True  # noqa: E712
    assert (Poly.zero() == False) is False and (Poly.zero() == 0) is True  # noqa: E712


def test_tau_kp_frozen_values():
    assert tau_kp(()) == 1
    assert tau_kp((1,)) == tvar(1)
    assert tau_kp((2, 1)) == cube_tau()
    for k in range(1, 6):
        assert tau_kp((k,)) == elementary_schur(k)


def test_tau_kp_matches_the_windowed_tables():
    # the spec-column path against the per-column windows tau_kp built before
    rng = random.Random(4)
    for p in all_partitions(6):
        shifts = random_shifts_for(rng, p)
        assert tau_kp(p, shifts) == tau_kp_by_windowed_tables(p, shifts)
        assert tau_kp(p, shifts[:1]) == tau_kp_by_windowed_tables(p, shifts[:1])


def test_reduced_tables_start_at_the_lowest_entry_a_row_reads():
    # n = (3, 2): degrees (3, 2) give k = 0 and one row, so tables [s_2] and [s_1];
    # degrees (6, 2) give k = 1 and two rows, so s_1.. and s_0..
    rng = random.Random(5)
    for degrees, lowest in [((3, 2), (2, 1)), ((6, 2), (1, 0))]:
        spec = HSpec.make([(d, random_fraction(rng) or 1, [random_fraction(rng) for _ in range(d)])
                           for d in degrees])
        profile = KdVProfile((3, 2), (spec,))
        column = _spec_column(spec, profile.total_charge, profile.n_parts, profile.k_values()[0])
        for a, (table, term, low) in enumerate(zip(column, spec.terms, lowest), start=1):
            assert len(table) == term.degree - low
            terms, den = table[0]  # the integer table as a Poly
            first = Poly({mono: Fraction(n, den) for mono, n in terms}, 2)
            assert first == schur_shifted(low, term.shift, a, 2).scale(term.coeff)
        coll = tau_mnkdv_collection(profile)
        reference = mnkdv_columns_by_derivatives(profile)
        assert coll.entries
        for label in charge_vectors(profile.total_charge, 2):
            assert coll.get(label) == tau_by_derivatives(reference, label, 2)


def test_tau_kp_hook_partition():
    # (2, 1, 1): det of s_{l_j + i - j}, a 3 x 3 example worked out by hand
    rows = [
        [elementary_schur(2 + i - 1), elementary_schur(1 + i - 2), elementary_schur(1 + i - 3)]
        for i in range(1, 4)
    ]
    assert tau_kp((2, 1, 1)) == det_by_permutations(rows)


def test_tau_kp_column_shift_convention():
    # lambda = (1,1) with distinct column shifts; the asymmetry between a and b
    # pins down which column receives which shift vector
    a, b = Fraction(1), Fraction(2)
    got = tau_kp((1, 1), [[a], [b]])
    expected = (
        (tvar(1) ** 2).scale(Fraction(1, 2))
        + tvar(1).scale(b)
        - tvar(2)
        + Poly.const(a * b - a * a / 2)
    )
    assert got == expected


def test_tau_kp_shift_validation():
    with pytest.raises(ValueError):
        tau_kp((2, 1), [[1, 2, 3, 4], []])  # column 1 takes at most 3 entries
    with pytest.raises(ValueError):
        tau_kp((1,), [[1], [2]])  # more shift vectors than columns
    with pytest.raises(ValueError):
        tau_kp((), [[1]])  # the empty partition has no column; was 1
    # shorter vectors are zero-padded
    assert tau_kp((2, 1), [[], []]) == tau_kp((2, 1))
    assert tau_kp((2, 1), None) == tau_kp((2, 1))


def test_tau_kp_shifted_single_row():
    cs = [Fraction(1, 2), Fraction(-1)]
    assert tau_kp((2,), [cs]) == schur_shifted(2, cs)


# -- multicomponent KP --------------------------------------------------------------


def test_charge_vectors():
    assert list(charge_vectors(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(charge_vectors(0, 3)) == [(0, 0, 0)]
    assert list(charge_vectors(3, 1)) == [(3,)]
    assert list(charge_vectors(-1, 1)) == list(charge_vectors(-1, 2)) == []
    with pytest.raises(ValueError, match="component count must be >= 1"):
        list(charge_vectors(2, 0))  # leaked itertools' "r must be non-negative"
    assert sorted(charge_vectors(3, 3)) == sorted(
        (a, b, 3 - a - b) for a in range(4) for b in range(4 - a) if 3 - a - b >= 0
    )


def test_hspec_validation():
    with pytest.raises(ValueError):
        HTerm(0, Fraction(1))
    with pytest.raises(ValueError):
        HSpec(())
    with pytest.raises(ValueError):
        HSpec.make([(2, 0, None), (1, 0, None)])
    spec = HSpec.make([(2, 1, [Fraction(1, 2)]), (1, 0, None)])
    assert spec.ncomp == 2
    assert spec.terms[0].shift == ShiftVector((Fraction(1, 2),))


def test_generating_poly():
    # the reference column of the derivative-tower construction
    spec = HSpec.make([(2, 1, None), (1, Fraction(1, 2), None)])
    h = generating_poly(spec, 2)
    expected = elementary_schur(2, 1, 2) + elementary_schur(1, 2, 2).scale(
        Fraction(1, 2)
    )
    assert h == expected
    with pytest.raises(ValueError):
        generating_poly(spec, 3)


def test_tau_mkp_entry_small():
    # one column, s = 2: charge (1,0) differentiates in t1^(1), charge (0,1)
    # in t1^(2)
    spec = HSpec.make([(2, 1, None), (2, Fraction(1, 3), None)])
    t_a = tau_mkp_entry([spec], (1, 0))
    t_b = tau_mkp_entry([spec], (0, 1))
    assert t_a == elementary_schur(1, 1, 2)
    assert t_b == elementary_schur(1, 2, 2).scale(Fraction(1, 3))


def test_tau_mkp_entry_validation():
    spec = HSpec.make([(2, 1, None), (1, 1, None)])
    with pytest.raises(ValueError):
        tau_mkp_entry([spec], (2, 1))  # sums to 3, but only one column
    with pytest.raises(ValueError):
        tau_mkp_entry([spec], (1,))  # arity mismatch
    assert tau_mkp_entry([], (0,)) == Poly.const(1, 1)
    with pytest.raises(ValueError):
        tau_mkp_entry([], ())  # zero-component ambient is not representable


def test_tau_mkp_collection_drops_zero_entries():
    # second component never appears, so any charge with m_2 > 0 vanishes
    specs = [
        HSpec.make([(2, 1, None), (1, 0, None)]),
        HSpec.make([(1, 1, None), (1, 0, None)]),
    ]
    coll = tau_mkp_collection(specs)
    assert coll.total == 2 and coll.ncomp == 2
    assert coll.labels() == [(2, 0)]
    assert coll.get((1, 1)) == 0
    assert coll.get((0, 2)) == 0


def test_charge_labels_reject_floats_strings_and_bools():
    spec = HSpec.make([(2, 1, None), (2, 1, None)])
    coll = tau_mkp_collection([spec, HSpec.make([(1, 1, None), (3, 2, None)])])
    profile = KdVProfile((2, 1), (HSpec.make([(3, 1, None), (2, 1, None)]),))
    akns = akns_collection(2, 2, 1, 1, None, None)
    calls = [
        lambda: tau_mkp_entry([spec], (0.9, 1.1)),  # was read as (0, 1)
        lambda: tau_mkp_entry([spec], "01"),  # was read digit by digit
        lambda: tau_mkp_entry([spec], (True, False)),
        lambda: tau_mnkdv_entry(profile, (1.0, 1)),
        lambda: oracle_tau([generator_from_hspec(spec, 2)], (1.0, 0)),
        lambda: hirota_mkp_check(coll, (2.9, 1), (1, 0)),  # reported PASS at m=[2, 1]
        lambda: hirota_mkp_check(coll, (2, 1), (1, False)),
        lambda: akns_pde_check(akns, (1.0, 1)),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(TypeError):
            call()
            pytest.fail(f"call {i} was accepted")
    assert tau_mkp_entry([spec], [1, 0]) == tau_mkp_entry([spec], (1, 0)) == tvar(1, 1, 2)
    assert hirota_mkp_check(coll, [2, 1], [1, 0]).passed


def test_tau_collection_validation():
    with pytest.raises(ValueError):
        TauCollection(total=1, ncomp=2, entries={(1, 1): Poly.const(1, 2)})
    with pytest.raises(ValueError):
        TauCollection(total=2, ncomp=2, entries={(3, -1): Poly.const(1, 2)})
    with pytest.raises(ValueError):
        TauCollection(total=2, ncomp=2, entries={(1, 1): Poly.zero(2)})
    for ncomp, ambient in ((0, None), (2, 0)):
        with pytest.raises(ValueError, match="component count must be >= 1"):
            TauCollection(0, ncomp, {}, ambient)  # was built with ambient 0
    coll = TauCollection(total=2, ncomp=2, entries={(1, 1): Poly.const(1, 2)})
    with pytest.raises(ValueError):
        coll.get((1, 1, 0))


def test_collection_entries_share_one_ambient():
    with pytest.raises(ValueError):
        TauCollection(1, 2, {(1, 0): tvar(1, 1, 2), (0, 1): tvar(1, 2, 3)})
    coll = TauCollection(1, 2, {(1, 0): tvar(1, 1, 3)})
    assert coll.ambient == 3 and coll.get((0, 1)) == Poly.zero(3)
    # AKNS entries are polynomials in x alone: ambient 1 under labels of arity 2
    akns = akns_collection(2, 2, 1, 1, None, None)
    assert akns.ambient == 1 and akns.get((2, 0)).ncomp == 1
    empty = TauCollection(1, 2, {})
    assert empty.ambient == 2 and empty.get((1, 0)) == Poly.zero(2)
    # an AKNS collection without a nonzero entry still reads zeros in x alone
    none = akns_collection(1, 1, 1, 1, None, None, big_k=2)
    assert not none.entries and none.ambient == 1 and none.get((1, 1)) == Poly.zero(1)


def test_kp_bridge_degrees():
    specs = kp_specs_from_partition((2, 1))
    assert [spec.terms[0].degree for spec in specs] == [4, 2]
    specs = kp_specs_from_partition((3, 1, 1))
    assert [spec.terms[0].degree for spec in specs] == [6, 3, 2]


def test_kp_bridge_reproduces_tau_kp():
    rng = random.Random(7)
    for parts in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1)]:
        p = Partition(parts)
        shifts = random_shifts_for(rng, p)
        specs = kp_specs_from_partition(p, shifts)
        assert tau_mkp_entry(specs, (len(p),)) == tau_kp(p, shifts), parts


def test_kp_bridge_reads_shifts_as_tau_kp_does():
    # a missing column was an IndexError here, while tau_kp read it as zero
    assert kp_specs_from_partition((2, 1), [[1]]) == kp_specs_from_partition((2, 1), [[1], []])
    assert oracle_tau(generators_from_partition((2, 1), [[1]]), (2,)) == tau_kp((2, 1), [[1]])
    for bad in ([[1], [], []], [[1, 2, 3, 4]]):
        with pytest.raises(ValueError):
            kp_specs_from_partition((2, 1), bad)


# -- n-KdV ---------------------------------------------------------------------------


def test_tau_nkdv_matches_kp_for_zero_shifts():
    assert tau_nkdv((2, 1), 2) == tau_kp((2, 1))
    assert tau_nkdv((3, 2, 1), 2) == tau_kp((3, 2, 1))
    assert tau_nkdv((), 2) == 1


def test_tau_nkdv_rejects_nonperiodic():
    with pytest.raises(ValueError):
        tau_nkdv((2, 2), 2)
    with pytest.raises(ValueError):
        tau_nkdv((2, 1), 3)


def test_tau_nkdv_class_validation():
    with pytest.raises(ValueError):
        tau_nkdv((2, 1), 2, {2: [1]})
    with pytest.raises(ValueError):
        tau_nkdv((2, 1), 2, {-1: [1]})


def test_tau_nkdv_is_transposed_kp_with_class_shifts():
    # row i of the reduced determinant carries the shift of the class of
    # l_i - i + 1 mod n; transposing the matrix turns those into per-column
    # shifts, so the determinant equals tau_kp with the class vectors spread
    # over columns (truncated to the length each column can use)
    rng = random.Random(11)
    for parts, n in [((2, 1), 2), ((3, 2, 1), 2), ((2, 1, 1), 3), ((4, 2), 3)]:
        p = Partition(parts)
        classes = {k: [random_fraction(rng) for _ in range(4)] for k in range(n)}
        lengths = expected_shift_lengths(p)
        cols = [
            classes[(p.parts[j] - (j + 1) + 1) % n][: lengths[j]]
            for j in range(len(p))
        ]
        assert tau_nkdv(p, n, classes) == tau_kp(p, cols), (parts, n)


def test_tau_nkdv_matches_row_shift_reference():
    # every n-periodic partition up to size 8 for n = 2..5, with class vectors
    # longer than any column of the determinant reads; size 8 keeps the
    # permutation-sum reference near a second
    rng = random.Random(23)
    for n in (2, 3, 4, 5):
        for p in enumerate_n_periodic(n, 8):
            width = max(expected_shift_lengths(p), default=0) + 2
            classes = {k: [random_fraction(rng) for _ in range(width)] for k in range(n)}
            assert tau_nkdv(p, n, classes) == nkdv_by_row_shifts(p, n, classes), (p, n)


def test_tau_nkdv_matches_chain_tops_and_row_shifts():
    # every n-periodic partition up to size 10 for n = 2..5 against the chain-top
    # construction tau_nkdv replaced and the row-shift determinant; the rows take
    # the decoded-minor Laplace reference, since a permutation sum over the 7 rows
    # of (2, 2, 2, 1, 1, 1, 1) alone takes over ten seconds
    rng = random.Random(29)
    for n in (2, 3, 4, 5):
        for p in enumerate_n_periodic(n, 10):
            width = max(expected_shift_lengths(p), default=0) + 2
            classes = {k: [random_fraction(rng) for _ in range(width)] for k in range(n)}
            tau = tau_nkdv(p, n, classes)
            assert tau == nkdv_by_chain_tops(p, n, classes), (p, n)
            assert tau == nkdv_by_row_shifts(p, n, classes, det_by_decoded_minors), (p, n)


def test_tau_nkdv_has_no_reduced_variables():
    for parts, n in [((2, 1), 2), ((3, 2, 1), 2), ((3, 1, 1), 3), ((2, 2, 1, 1), 3)]:
        tau = tau_nkdv(parts, n)
        assert tau.terms
        for v in tau.variables():
            assert v.index % n != 0, (parts, n, v)


# -- reduced multicomponent collections ------------------------------------------------


def test_compute_kj():
    spec = HSpec.make([(2, 1, None), (2, 1, None)])
    assert compute_kj(spec, (1, 1)) == 1
    spec = HSpec.make([(3, 1, None)])
    assert compute_kj(spec, (2,)) == 1
    spec = HSpec.make([(4, 1, None)])
    assert compute_kj(spec, (2,)) == 1
    spec = HSpec.make([(5, 1, None)])
    assert compute_kj(spec, (2,)) == 2
    # zero-coefficient components do not count
    spec = HSpec.make([(9, 0, None), (2, 1, None)])
    assert compute_kj(spec, (1, 1)) == 1
    with pytest.raises(ValueError):
        compute_kj(spec, (1,))


def test_apply_D_on_schur():
    # D_j acting on s_M in one component is d/dt_{jn}, stepping M down by jn
    for n in (2, 3):
        for m in range(8):
            for j in (1, 2):
                got = apply_D(elementary_schur(m), j, (n,))
                assert got == elementary_schur(m - j * n)
    with pytest.raises(ValueError):
        apply_D(tvar(1), 0, (2,))


def test_apply_D_iterates_like_higher_modes_on_columns():
    # on column generating functions, applying D_1 p times equals D_p
    spec = HSpec.make([(6, 1, [Fraction(1, 2)]), (4, Fraction(-2), None)])
    h = generating_poly(spec, 2)
    n_parts = (2, 1)
    iterated = h
    for p in range(1, 4):
        iterated = apply_D(iterated, 1, n_parts)
        assert iterated == apply_D(h, p, n_parts), p


def _random_spec(rng: random.Random, ncomp: int, max_degree: int) -> HSpec:
    comps = [
        (
            rng.randint(1, max_degree),
            rng.choice([0, 1, random_fraction(rng)]),
            [random_fraction(rng) for _ in range(rng.randint(0, 3))],
        )
        for _ in range(ncomp)
    ]
    if not any(coeff for _, coeff, _ in comps):
        comps[0] = (comps[0][0], Fraction(2, 3), comps[0][2])
    return HSpec.make(comps)


def _assert_matches_derivatives(coll, entry, columns, ncomp, case):
    for label in charge_vectors(coll.total, ncomp):
        want = tau_by_derivatives(columns, label, ncomp)
        assert coll.get(label) == want == entry(label), (case, label)
    if ncomp > 1:
        assert entry((coll.total + 1, -1) + (0,) * (ncomp - 2)) == 0


def test_block_constructors_match_the_derivative_towers():
    # every entry is read off a shifted Schur table; the reference builds the
    # columns h_j, their D-towers and the t_1-derivatives of each
    rng = random.Random(41)
    for parts in [(1,), (4,), (2, 1), (3, 1, 1), (2, 2, 1), (4, 2)]:
        shifts = random_shifts_for(rng, parts)
        columns = [generating_poly(spec, 1) for spec in kp_specs_from_partition(parts, shifts)]
        assert tau_kp(parts, shifts) == tau_by_derivatives(columns, (len(parts),), 1), parts
    for case in range(24):
        ncomp, r = 1 + case % 3, case % 4  # 1-3 components, 0-3 columns
        specs = [_random_spec(rng, ncomp, 4) for _ in range(r)]
        columns = [generating_poly(spec, ncomp) for spec in specs]
        coll = tau_mkp_collection(specs, ncomp)
        _assert_matches_derivatives(
            coll, lambda label: tau_mkp_entry(specs, label), columns, ncomp, specs
        )
    fixed = [
        # n_1 = 3 > M_1 = 2: component 1 runs out of its tower first
        KdVProfile((3, 1), (HSpec.make([(2, 1, [1]), (3, Fraction(-1, 2), [0, 2])]),)),
        # degree-1 terms and a zero coefficient
        KdVProfile((2, 2, 1), (HSpec.make([(1, 1, None), (3, 0, [1]), (1, 2, [3])]),)),
        KdVProfile((2, 1), ()),
    ]
    randomized = []
    while len(randomized) < 18:
        ncomp = 1 + len(randomized) % 3
        n_parts = tuple(sorted((rng.randint(1, 4) for _ in range(ncomp)), reverse=True))
        r = rng.randint(0, min(2, sum(n_parts) - 1))
        profile = KdVProfile(n_parts, tuple(_random_spec(rng, ncomp, 5) for _ in range(r)))
        if profile.total_charge <= 5:
            randomized.append(profile)
    for profile in fixed + randomized:
        _assert_matches_derivatives(
            tau_mnkdv_collection(profile),
            lambda label: tau_mnkdv_entry(profile, label),
            mnkdv_columns_by_derivatives(profile),
            profile.ncomp,
            profile,
        )


def test_kdv_profile_validation():
    spec1 = HSpec.make([(2, 1, None)])
    with pytest.raises(ValueError):
        KdVProfile((), ())
    with pytest.raises(ValueError):
        KdVProfile((0,), ())
    with pytest.raises(ValueError):
        KdVProfile((1, 2), ())  # must be weakly decreasing
    with pytest.raises(ValueError):
        KdVProfile((2,), (HSpec.make([(2, 1, None), (1, 1, None)]),))
    with pytest.raises(ValueError):
        KdVProfile((2,), (spec1, spec1))  # r = 2 not < n = 2
    profile = KdVProfile((2,), (spec1,))
    assert profile.r == 1 and profile.ncomp == 1
    assert profile.k_values() == [0]
    assert profile.total_charge == 1


def test_mnkdv_single_component_matches_nkdv():
    # degree 4 under n = 2 gives the tower {s4, s2}, whose wedge is the
    # staircase (2, 1); degree 3 gives {s3, s1} and the partition (1)
    profile = KdVProfile((2,), (HSpec.make([(4, 1, None)]),))
    assert profile.total_charge == 2
    assert tau_mnkdv_entry(profile, (2,)) == tau_nkdv((2, 1), 2)
    profile = KdVProfile((2,), (HSpec.make([(3, 1, None)]),))
    assert profile.total_charge == 2
    assert tau_mnkdv_entry(profile, (2,)) == tau_nkdv((1,), 2)
    profile = KdVProfile((2,), (HSpec.make([(2, 1, None)]),))
    assert tau_mnkdv_entry(profile, (1,)) == tvar(1)


def test_mnkdv_collection_two_component():
    profile = KdVProfile(
        (1, 1), (HSpec.make([(2, 1, None), (2, 1, None)]),)
    )
    coll = tau_mnkdv_collection(profile)
    assert coll.total == 2
    assert set(coll.labels()) <= {(0, 2), (1, 1), (2, 0)}
    # every entry is killed by D_j
    for label in coll.labels():
        for j in (1, 2, 3):
            assert apply_D(coll.entries[label], j, (1, 1)) == 0, (label, j)


def test_mnkdv_entry_validation():
    profile = KdVProfile((2,), (HSpec.make([(4, 1, None)]),))
    with pytest.raises(ValueError):
        tau_mnkdv_entry(profile, (1,))  # must sum to 2
    with pytest.raises(ValueError):
        tau_mnkdv_entry(profile, (1, 1))  # arity


# -- AKNS -----------------------------------------------------------------------------


def test_akns_frozen_family():
    assert akns_tau(2, 2, 1, 1, None, None, 2, 2) == Poly.const(-1)
    assert akns_tau(2, 2, 1, 1, None, None, 2, 1) == xvar(1).scale(2)
    assert akns_tau(2, 2, 1, 1, None, None, 2, 0) == Poly.const(-1)


def test_akns_prefactor():
    base = akns_tau(2, 2, 1, 1, None, None, 2, 1)
    scaled = akns_tau(2, 2, 2, 3, None, None, 2, 1)
    assert scaled == base.scale(6)


def test_akns_zero_coefficient_blocks():
    # p > 0 rows need b1 != 0
    assert akns_tau(2, 2, 0, 1, None, None, 2, 1) == 0
    assert akns_tau(2, 2, 1, 0, None, None, 2, 1) == 0
    # but the pure blocks survive
    assert akns_tau(2, 2, 0, 1, None, None, 2, 0) == Poly.const(-1)


def test_akns_vanishes_beyond_max_degree():
    for p in range(4):
        assert akns_tau(2, 2, 1, 1, None, None, 3, p) == 0
    # K = max(m1, m2) itself does not vanish
    assert akns_tau(3, 2, 1, 1, None, None, 3, 1).terms


def test_akns_out_of_range_label():
    assert akns_tau(2, 2, 1, 1, None, None, 2, 5) == 0
    assert akns_tau(2, 2, 1, 1, None, None, 2, -1) == 0


def test_akns_shift_dependence():
    c = [Fraction(1, 2), Fraction(3)]
    got = akns_tau(2, 1, 1, 1, c, None, 1, 1)
    # 1 x 1 determinant: b1 * s_{m1 - 1}(x + c) = x1 + c1
    assert got == xvar(1) + Poly.const(Fraction(1, 2))


def test_akns_matches_argument_table_reference():
    rng = random.Random(29)
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            b1, b2 = (Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for _ in range(2))
            # one side switched off: its rows vanish, so only p = 0 or p = K survives
            if (m1 + m2) % 4 == 0:
                b1 = Fraction(0)
            elif (m1 + m2) % 4 == 1:
                b2 = Fraction(0)
            c1 = [random_fraction(rng) for _ in range(m1)]
            c2 = [random_fraction(rng) for _ in range(m2)]
            # K = 1, the default max(m1, m2), and one past it, where every entry
            # vanishes (up to K = 5: the reference sums K! permutations)
            for big_k in sorted({1, max(m1, m2), min(max(m1, m2) + 1, 5)}):
                coll = akns_collection(m1, m2, b1, b2, c1, c2, big_k)
                for p in range(-1, big_k + 2):
                    if 0 <= p <= big_k:
                        want = akns_by_args(m1, m2, b1, b2, c1, c2, big_k, p)
                        # the collection reads every entry off one set of towers
                        got = coll.entries.get((p, big_k - p), Poly.zero())
                        assert got == want, (m1, m2, big_k, p)
                    else:
                        want = Poly.zero()
                    got = akns_tau(m1, m2, b1, b2, c1, c2, big_k, p)
                    assert got == want, (m1, m2, big_k, p)


def test_akns_collection_default_k():
    coll = akns_collection(3, 2, 1, 1, None, None)
    assert coll.total == 3
    assert coll.ncomp == 2
    assert all(sum(label) == 3 for label in coll.labels())
    # explicit K overrides
    coll2 = akns_collection(2, 2, 1, 1, None, None, big_k=2)
    assert coll2.labels() == [(0, 2), (1, 1), (2, 0)]


def test_akns_argument_validation():
    with pytest.raises(ValueError):
        akns_tau(0, 2, 1, 1, None, None, 2, 1)
    with pytest.raises(ValueError):
        akns_tau(2, 2, 1, 1, None, None, 0, 0)
