import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    alpha_action,
    decode_wedge,
    encode_wedge,
    evolve,
    generator_by_fractions,
    maya_state,
    oracle_by_permutations,
    random_fraction,
    random_shifts_for,
    wedge_by_fractions,
    wedges_to_zero_against_vacuum,
)
from tauforge import (
    BasisVector,
    Family,
    GeneratorVector,
    HSpec,
    KdVProfile,
    Partition,
    Poly,
    VarId,
    all_partitions,
    charge_vectors,
    compute_kj,
    elementary_schur,
    fermion,
    generator_from_hspec,
    generators_from_partition,
    generators_from_profile,
    kp_specs_from_partition,
    oracle_tau,
    tau_kp,
    tau_mkp_entry,
    tau_nkdv,
    tvar,
    wedge_from_generators,
    wedge_tau,
)
from tauforge.cli import main

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def basis(index, component=1, ncomp=1):
    return GeneratorVector.basis(component, index, ncomp)


generator_entries = st.dictionaries(
    st.integers(1, 4),
    rationals,
    min_size=1,
    max_size=4,
).filter(lambda d: any(d.values()))


def build_generator(entries):
    return GeneratorVector({BasisVector(1, i): c for i, c in entries.items()})


generators = generator_entries.map(build_generator)


# -- generator algebra ---------------------------------------------------------


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorVector({})
    with pytest.raises(ValueError):
        GeneratorVector({BasisVector(1, 2): 0})
    with pytest.raises(ValueError):
        GeneratorVector({BasisVector(0, 2): 1})
    with pytest.raises(ValueError):
        GeneratorVector({BasisVector(3, 2): 1}, ncomp=2)
    g = basis(2)
    with pytest.raises(ValueError):
        g.scale(0)
    with pytest.raises(ValueError):
        g.add(basis(2, ncomp=2))
    with pytest.raises(ValueError):
        g.lambda_shift((2, 2))
    with pytest.raises(ValueError):
        g.lambda_shift((2,), -1)


@pytest.mark.parametrize("key", [(1, 1, 1), (1,), (), "12", 5, (1.0, 2), (True, 2), (1, None)])
def test_generator_rejects_a_key_that_is_not_a_pair_of_integers(key):
    with pytest.raises(TypeError) as err:
        GeneratorVector({key: 1})
    assert str(err.value) == (
        f"a generator key is a (component, index) pair of integers, got {key!r}")


def test_generator_merges_duplicate_entries():
    g = basis(2).add(basis(2).scale(3))
    assert g.entries == {BasisVector(1, 2): Fraction(4)}
    with pytest.raises(ValueError):
        basis(2).add(basis(2).scale(-1))  # cancels to nothing


def test_lambda_shift_keeps_dead_entries():
    g = basis(2).lambda_shift((2,))
    assert g.entries == {BasisVector(1, 0): Fraction(1)}
    assert wedges_to_zero_against_vacuum(g)


def test_lambda_shift_death_matches_compute_kj():
    for degree, n in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 1), (5, 3), (6, 3)]:
        spec = HSpec.make([(degree, 1, [1, 1])])
        k = compute_kj(spec, (n,))
        g = generator_from_hspec(spec, 1)
        assert not wedges_to_zero_against_vacuum(g.lambda_shift((n,), k))
        assert wedges_to_zero_against_vacuum(g.lambda_shift((n,), k + 1))


def test_lambda_shift_death_multicomponent():
    spec = HSpec.make([(2, 1, None), (5, 1, None)])
    n_parts = (2, 1)
    k = compute_kj(spec, n_parts)
    assert k == 4
    g = generator_from_hspec(spec, 2)
    assert not wedges_to_zero_against_vacuum(g.lambda_shift(n_parts, k))
    assert wedges_to_zero_against_vacuum(g.lambda_shift(n_parts, k + 1))


def test_generator_from_hspec_frozen():
    spec = HSpec.make([(3, 2, [1, 1])])
    g = generator_from_hspec(spec, 1)
    # entries 2 * s_{3-l}(c) with s_0 = 1, s_1 = 1, s_2 = 3/2
    assert g.entries == {
        BasisVector(1, 3): Fraction(2),
        BasisVector(1, 2): Fraction(2),
        BasisVector(1, 1): Fraction(3),
    }


def test_generator_from_hspec_skips_zero_components():
    spec = HSpec.make([(3, 0, None), (2, 1, None)])
    g = generator_from_hspec(spec, 2)
    assert set(g.entries) == {BasisVector(2, 2)}


# -- time evolution (the reference in oracles) ------------------------------------


def test_evolve_frozen():
    got = evolve(basis(3))
    assert got == {
        BasisVector(1, 3): Poly.const(1),
        BasisVector(1, 2): elementary_schur(1),
        BasisVector(1, 1): elementary_schur(2),
    }


def test_evolve_combination():
    g = basis(2).scale(2).add(basis(1).scale(3))
    got = evolve(g)
    assert got == {
        BasisVector(1, 2): Poly.const(2),
        BasisVector(1, 1): tvar(1).scale(2) + Poly.const(3),
    }


def test_evolve_drops_vacuum_entries():
    g = GeneratorVector({BasisVector(1, 0): 1, BasisVector(1, -2): 5})
    assert evolve(g) == {}


def test_evolve_component_isolation():
    got = evolve(basis(2, component=2, ncomp=2))
    assert got == {
        BasisVector(2, 2): Poly.const(1, 2),
        BasisVector(2, 1): elementary_schur(1, 2, 2),
    }


# -- the wedge coefficient oracle ---------------------------------------------


def test_oracle_validation():
    with pytest.raises(ValueError):
        oracle_tau([basis(2)], (-1, 3))
    with pytest.raises(ValueError):
        oracle_tau([basis(2)], (2,))
    with pytest.raises(ValueError):
        oracle_tau([basis(2, ncomp=1)], (0, 1))  # ambient mismatch
    for call in [lambda: oracle_tau([], ()), lambda: wedge_from_generators([], 0),
                 lambda: wedge_from_generators([], -1)]:
        with pytest.raises(ValueError, match="component count must be >= 1"):
            call()  # oracle_tau answered 1, the wedges were built
    assert oracle_tau([], (0,)) == Poly.const(1, 1)
    assert oracle_tau([], (0, 0)) == Poly.const(1, 2)


def test_oracle_frozen_two_factor():
    assert oracle_tau([basis(2), basis(1)], (2,)) == Poly.const(1)
    assert oracle_tau([basis(1), basis(2)], (2,)) == Poly.const(-1)
    # indices (3, 1) encode parts l_i = idx_i - (m - i) - 1 = (1, 0), so the
    # coefficient is the tau-function of the padded partition (1)
    got = oracle_tau([basis(3), basis(1)], (2,))
    assert got == tau_kp((1,))


@given(generators, generators)
def test_oracle_antisymmetry(g1, g2):
    forward = oracle_tau([g1, g2], (2,))
    backward = oracle_tau([g2, g1], (2,))
    assert forward == -backward


@given(generators)
def test_oracle_repeated_factor_vanishes(g):
    assert oracle_tau([g, g], (2,)) == 0


@given(generators, generators, generators)
def test_oracle_multilinearity(g1, g2, g3):
    if _addable(g1, g2):
        combined = oracle_tau([g1.add(g2), g3], (2,))
        split = oracle_tau([g1, g3], (2,)) + oracle_tau([g2, g3], (2,))
        assert combined == split
    scaled = oracle_tau([g1.scale(5), g3], (2,))
    assert scaled == oracle_tau([g1, g3], (2,)).scale(5)


def _addable(g1, g2):
    # g1.add(g2) refuses to produce the zero vector
    merged = dict(g1.entries)
    for bv, c in g2.entries.items():
        merged[bv] = merged.get(bv, Fraction(0)) + c
    return any(merged.values())


def test_oracle_reproduces_tau_kp():
    rng = random.Random(5)
    for parts in [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1)]:
        p = Partition(parts)
        shifts = random_shifts_for(rng, p)
        gens = generators_from_partition(p, shifts)
        assert oracle_tau(gens, (len(p),)) == tau_kp(p, shifts), parts


def test_oracle_reproduces_mkp_collection():
    specs = [
        HSpec.make([(2, 1, [Fraction(1, 2)]), (1, Fraction(-1), None)]),
        HSpec.make([(1, 1, None), (2, Fraction(2), [Fraction(1, 3)])]),
    ]
    gens = [generator_from_hspec(spec, 2) for spec in specs]
    for charge in charge_vectors(2, 2):
        assert oracle_tau(gens, charge) == tau_mkp_entry(specs, charge), charge


def test_profile_generators_reproduce_reduced_tau():
    profile = KdVProfile((2,), (HSpec.make([(4, 1, None)]),))
    gens = generators_from_profile(profile)
    assert [sorted(g.entries) for g in gens] == [
        [BasisVector(1, 4)],
        [BasisVector(1, 2)],
    ]
    assert oracle_tau(gens, (2,)) == tau_nkdv((2, 1), 2)


# -- the oracle against the permutation-sum reference ------------------------------


def _specs(rng: random.Random, ncomp: int, ncol: int) -> list[HSpec]:
    """Columns of degree 1..3 with seeded coefficients (some zero) and shifts."""
    out = []
    while len(out) < ncol:
        terms = []
        for _ in range(ncomp):
            degree = rng.randint(1, 3)
            shift = [random_fraction(rng) for _ in range(degree)]
            terms.append((degree, random_fraction(rng), shift))
        if any(t[1] for t in terms):
            out.append(HSpec.make(terms))
    return out


def _differential_cases():
    """(generators, charge) for m <= 6: partitions, 1- to 3-component specs, towers."""
    rng = random.Random(12)
    for p in all_partitions(6):
        yield generators_from_partition(p, random_shifts_for(rng, p)), (len(p),)
    for ncomp in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for _ in range(3):
                gens = [generator_from_hspec(spec, ncomp) for spec in _specs(rng, ncomp, m)]
                for charge in charge_vectors(m, ncomp):
                    yield gens, charge
    for _ in range(3):
        for n_parts, ncol in [((2,), 1), ((3,), 2), ((3, 2), 1), ((3, 2), 2), ((2, 1), 2)]:
            profile = KdVProfile(n_parts, tuple(_specs(rng, len(n_parts), ncol)))
            gens = generators_from_profile(profile)
            if len(gens) <= 6:
                for charge in charge_vectors(len(gens), profile.ncomp):
                    yield gens, charge


def test_oracle_matches_the_permutation_sum_reference():
    compared = odd = dead = 0
    for gens, charge in _differential_cases():
        got = oracle_tau(gens, charge)
        assert got == oracle_by_permutations(gens, charge), (charge, [g.entries for g in gens])
        compared += 1
        odd += bool(got.terms) and len(gens) % 4 in (2, 3)  # a reversed order flips these
        dead += any(bv.index <= 0 for g in gens for bv in g.entries)
    assert compared > 200 and odd > 60 and dead > 10


# -- the wedge and the algebra action ------------------------------------------------


def test_wedge_add_term_normalizes_sign():
    # e_1 ^ e_2 = -e_2 ^ e_1, and e_i is Maya position i - 1
    assert decode_wedge(wedge_from_generators([basis(1), basis(2)], 1)) == {((1, 0),): -1}
    assert decode_wedge(wedge_from_generators([basis(2), basis(1)], 1)) == {((1, 0),): 1}


def test_wedge_add_term_kills_repeats_and_vacuum_collisions():
    assert decode_wedge(wedge_from_generators([basis(1), basis(1)], 1)) == {}
    assert decode_wedge(wedge_from_generators([basis(0)], 1)) == {}
    assert decode_wedge(wedge_from_generators([basis(3)], 1)) == {((2,),): 1}
    assert oracle_tau([basis(-1)], (1,)) == Poly.zero()  # every entry below index 1


def test_wedge_terms_cancel():
    g = GeneratorVector({BasisVector(1, 1): Fraction(3, 2), BasisVector(1, 2): Fraction(3, 2)})
    assert decode_wedge(wedge_from_generators([g, g], 1)) == {}


def test_wedge_rejects_a_generator_of_another_component_count():
    with pytest.raises(ValueError, match="has 3 components, the wedge 2"):
        wedge_from_generators([basis(1, ncomp=2), basis(2, 3, ncomp=3)], 2)
    with pytest.raises(ValueError, match="has 1 components, the wedge 2"):
        wedge_from_generators([basis(1, ncomp=1)], 2)
    # oracle_tau leaves the check to the wedge
    with pytest.raises(ValueError, match="has 3 components, the wedge 2"):
        oracle_tau([basis(1, ncomp=2), basis(2, 3, ncomp=3)], (1, 1))


def test_wedge_tau_rejects_a_charge_of_another_arity():
    w = wedge_from_generators([basis(1, 1, 2), basis(1, 2, 2)], 2)
    assert wedge_tau(w, (1, 1)) == Poly.const(1, 2)
    for charge in [(2,), (1,), (2, 0, 0), ()]:
        with pytest.raises(ValueError, match="for a wedge of 2 components"):
            wedge_tau(w, charge)
    # the wedge's other charge rules: both gave Poly(0) on the two factors of (2, 1)
    w21 = wedge_from_generators(generators_from_partition((2, 1)), 1)
    with pytest.raises(ValueError, match=r"charge \(-1,\) has negative parts"):
        wedge_tau(w21, (-1,))
    with pytest.raises(ValueError, match=r"charge \(5,\) must sum to the factor count 2"):
        wedge_tau(w21, (5,))
    # no factor: the general path gives 1, and oracle_tau([], (0, 0)) now takes it
    assert wedge_tau(wedge_from_generators([], 2), (0, 0)) == oracle_tau([], (0, 0)) == 1


def test_wedge_expansion_matches_oracle():
    # the t = 0 wedge holds the Plucker coordinates: the target's is tau(0),
    # and the boson image at the charge is tau itself
    shifts = random_shifts_for(random.Random(3), Partition((2, 1)))
    gens = generators_from_partition((2, 1), shifts)
    w = wedge_from_generators(gens, 1)
    tau = tau_kp((2, 1), shifts)
    assert decode_wedge(w).get(((1, 0),), 0) == tau.terms.get((), 0)
    assert wedge_tau(w, (2,)) == tau == oracle_by_permutations(gens, (2,))


def test_alpha_action_requires_lowering():
    with pytest.raises(ValueError):
        alpha_action({}, 1, 0)


def test_alpha_action_frozen():
    w = {((2, 0),): Fraction(1)}  # e_3 ^ e_1
    moved = alpha_action(w, 1, 1)
    # e_3 -> e_2 survives; e_1 -> e_0 hits the vacuum
    assert moved == {((1, 0),): 1}
    dead = alpha_action(moved, 1, 1)
    # e_2 -> e_1 repeats, e_1 -> e_0 collides: nothing left
    assert dead == {}


def test_alpha_action_is_time_derivative():
    # evolution is exp(sum_j t_j alpha_j) acting on the wedge, and lowering
    # modes commute, so the boson image of alpha_j w is d tau / d t_j
    shifts = random_shifts_for(random.Random(4), Partition((3, 2, 1)))
    gens = generators_from_partition((3, 2, 1), shifts)
    w = decode_wedge(wedge_from_generators(gens, 1))
    tau = oracle_tau(gens, (3,))
    for j in range(1, 6):
        derivative = tau.diff(VarId(Family.T, 1, j))
        assert derivative.terms
        assert wedge_tau(encode_wedge(alpha_action(w, 1, j), 1), (3,)) == derivative, j


def test_alpha_action_is_time_derivative_multicomponent():
    specs = [
        HSpec.make([(2, 1, None), (1, 1, None)]),
        HSpec.make([(1, 1, None), (2, Fraction(1, 2), None)]),
    ]
    gens = [generator_from_hspec(spec, 2) for spec in specs]
    w = decode_wedge(wedge_from_generators(gens, 2))
    assert w
    for charge in charge_vectors(2, 2):
        tau = oracle_tau(gens, charge)
        for a in (1, 2):
            for j in (1, 2):
                moved = wedge_tau(encode_wedge(alpha_action(w, a, j), 2), charge)
                assert moved == tau.diff(VarId(Family.T, a, j)), (charge, a, j)


# -- one state type for the oracle and the kernel ---------------------------------


def _from_zero(state: int, layout) -> tuple[tuple[int, ...], ...]:
    """``maya_state``, each species also listing its implicit positions from its
    floor down to 0, as the wedge's states do."""
    return tuple(
        maya + tuple(range(floor - 1, -1, -1))
        for maya, (_, floor, _) in zip(maya_state(state, layout), layout)
    )


def _oracle_and_kernel_cases():
    """(specs, s, charges) for every KP partition of size <= 6 with seeded
    shifts, and for seeded 2- and 3-component spec sets."""
    rng = random.Random(24)
    for lam in all_partitions(6):
        specs = kp_specs_from_partition(lam, random_shifts_for(rng, lam))
        yield specs, 1, [(len(lam),)]
    for ncomp, ncol in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]:
        for _ in range(3):
            yield _specs(rng, ncomp, ncol), ncomp, list(charge_vectors(ncol, ncomp))


def test_the_wedge_states_are_the_kernel_states():
    # the Plucker coordinates of a charge sector are the Schur-expansion
    # coefficients of that entry, state for state
    sectors = states = 0
    for specs, s, charges in _oracle_and_kernel_cases():
        wedge = decode_wedge(wedge_from_generators([generator_from_hspec(g, s) for g in specs], s))
        for label in charges:
            sector = {state: c for state, c in wedge.items() if tuple(map(len, state)) == label}
            kernel, den, layout = fermion.fock_states({label: tau_mkp_entry(specs, label)}, s)
            expanded = {_from_zero(state, layout): Fraction(c, den) for state, c in kernel[label]}
            assert sector == expanded, (specs, label)
            sectors += bool(sector)
            states += len(sector)
    assert sectors > 100 and states > 500  # the comparison is not vacuous


# -- integer numerators against the Fraction reference -------------------------------


def _generator_families():
    """(generators, their Fraction references, ncomp, n_parts) for seeded KP,
    1- to 3-component mKP and reduced-profile columns."""
    rng = random.Random(33)
    for p in all_partitions(5):
        shifts = random_shifts_for(rng, p)
        ref = [generator_by_fractions(spec, 1) for spec in kp_specs_from_partition(p, shifts)]
        yield generators_from_partition(p, shifts), ref, 1, (rng.randint(1, 3),)
    for ncomp in (1, 2, 3):
        for m in (1, 2, 3, 4):
            specs = _specs(rng, ncomp, m)
            n_parts = tuple(rng.randint(1, 3) for _ in range(ncomp))
            yield ([generator_from_hspec(spec, ncomp) for spec in specs],
                   [generator_by_fractions(spec, ncomp) for spec in specs], ncomp, n_parts)
    for n_parts, ncol in [((2,), 1), ((3,), 2), ((3, 2), 1), ((3, 2), 2), ((2, 1), 2)]:
        profile = KdVProfile(n_parts, tuple(_specs(rng, len(n_parts), ncol)))
        ref = [generator_by_fractions(spec, profile.ncomp).lambda_shift(n_parts, power)
               for spec, k in zip(profile.specs, profile.k_values()) for power in range(k + 1)]
        yield generators_from_profile(profile), ref, profile.ncomp, n_parts


def _same(g, r):
    return g.entries == r.entries and g.ncomp == r.ncomp


def _outcome(op):
    try:
        return op()
    except ValueError as exc:
        return str(exc)


def test_generators_match_the_fraction_reference():
    rng = random.Random(34)
    charges = 0
    for gens, ref, ncomp, n_parts in _generator_families():
        assert len(gens) == len(ref)
        for g, r in zip(gens, ref):
            assert _same(g, r)
            assert GeneratorVector(r.entries, ncomp) == g  # one canonical form
            twin = Poly._raw(dict(g.numerators), g.den, g.ncomp)  # the same three fields
            assert (g == twin) is False and (twin == g) is False
            c = random_fraction(rng) or Fraction(-3, 2)
            assert _same(g.scale(c), r.scale(c))
            power = rng.randint(0, 2)
            assert _same(g.lambda_shift(n_parts, power), r.lambda_shift(n_parts, power))
        for i, (g1, r1) in enumerate(zip(gens, ref)):
            for g2, r2 in zip(gens, ref):
                assert (g1 == g2) == (r1 == r2)
                common = [bv for bv in r1.entries if bv in r2.entries]
                # a multiple of g2 that cancels one entry of g1, or all of it
                x = -r1.entries[common[0]] / r2.entries[common[0]] if common else Fraction(1, 3)
                got = _outcome(lambda: g1.add(g2.scale(x)))
                want = _outcome(lambda: r1.add(r2.scale(x)))
                assert got == want if isinstance(want, str) else _same(got, want)
        wedge, den, layout = wedge_from_generators(gens, ncomp)
        ref_wedge = wedge_by_fractions(ref, ncomp)
        assert layout == ref_wedge[2]
        assert ({s: Fraction(c, den) for s, c in wedge.items()}
                == {s: Fraction(c, ref_wedge[1]) for s, c in ref_wedge[0].items()})
        for charge in charge_vectors(len(gens), ncomp):
            assert oracle_tau(gens, charge) == wedge_tau(ref_wedge, charge), charge
            charges += 1
    assert charges > 50


def test_nothing_in_the_package_reads_the_entries_view(monkeypatch, capsys, tmp_path):
    def refuse(self):
        raise AssertionError("GeneratorVector.entries was read")

    monkeypatch.setattr(GeneratorVector, "entries", property(refuse))
    cases = [
        {"kind": "kp", "partition": [2, 1], "shifts": {"1": ["1/2", 2], "2": [3]}},
        {"kind": "mkp", "specs": [[{"degree": 2, "shift": ["1/3"]}, {"degree": 1}],
                                  [{"degree": 1}, {"degree": 2, "coeff": "1/2"}]]},
    ]
    for case in cases:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        assert main(["oracle-compare", "--case", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("MATCH") for line in lines[:-1])
        assert main(["oracle-compare", "--case", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)
    shifts = [[Fraction(1, 2), 2], [3]]
    assert oracle_tau(generators_from_partition((2, 1), shifts), (2,)) == tau_kp((2, 1), shifts)
    profile = KdVProfile((2,), (HSpec.make([(4, 1, None)]),))
    wedge = wedge_from_generators(generators_from_profile(profile), 1)
    assert wedge_tau(wedge, (2,)) == tau_nkdv((2, 1), 2)
