import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    FractionPoly,
    difference_series,
    eval_poly,
    miwa_by_operator,
    poly_mul_by_merge,
    relabel_vars,
    residue_by_convolution,
    shift_vars,
    sum_of_products_by_factors,
    weighted_degree,
)
from tauforge import Family, Poly, VarId, tvar, xvar, yvar
from tauforge.polycore import Packing

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
t_vars = st.builds(VarId, st.just(Family.T), st.just(1), st.integers(1, 4))


@st.composite
def polys(draw, ncomp=1, families=(Family.T,), max_index=4, max_terms=4, max_exp=3,
          exponents=None):
    terms: dict = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono_vars: dict[VarId, int] = {}
        for _ in range(draw(st.integers(0, 2))):
            v = VarId(
                draw(st.sampled_from(list(families))),
                draw(st.integers(1, ncomp)),
                draw(st.integers(1, max_index)),
            )
            mono_vars[v] = draw(st.integers(1, max_exp) if exponents is None else exponents)
        mono = tuple(sorted(mono_vars.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + draw(rationals)
    return Poly(terms, ncomp)


def full_assignment(p: Poly, rng_values):
    return {v: val for v, val in zip(sorted(p.variables()), rng_values)}


# -- construction and rendering -------------------------------------------------


def test_zero_and_const():
    assert not Poly.zero()
    assert Poly.zero() == 0
    assert not Poly.const(0)
    assert Poly.const(Fraction(3, 2)) == Fraction(3, 2)
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(-2)) == "-2"


def test_inexact_coefficients_are_type_errors():
    # a float is not the rational it prints, True is not the integer 1 here, and a
    # string is parsed only by exact_fraction and from_json_obj
    for bad in (0.5, True, "1/2"):
        with pytest.raises(TypeError):
            Poly({(): bad})
        with pytest.raises(TypeError):
            Poly({((VarId(Family.T, 1, 1), 1),): bad})


def test_poly_holds_canonical_integer_numerators():
    p = Poly({(): Fraction(2, 4), ((VarId(Family.T, 1, 1), 1),): Fraction(1, 3)})
    assert (p.numerators, p.den) == ({(): 3, ((VarId(Family.T, 1, 1), 1),): 2}, 6)
    q = (tvar(1) ** 2).scale(Fraction(1, 2)).diff(VarId(Family.T, 1, 1))  # 1/2 * 2 t1
    assert (q.numerators, q.den) == ({((VarId(Family.T, 1, 1), 1),): 1}, 1) and q == tvar(1)
    zero = tvar(1).scale(Fraction(1, 3)) - tvar(1).scale(Fraction(1, 3))
    assert (zero.numerators, zero.den) == ({}, 1) and zero == Poly.zero()
    assert p.terms == {(): Fraction(1, 2), ((VarId(Family.T, 1, 1), 1),): Fraction(1, 3)}


def test_var_validation():
    with pytest.raises(ValueError):
        Poly.var(VarId(Family.T, 1, 0))
    with pytest.raises(ValueError):
        Poly.var(VarId(Family.T, 2, 1), ncomp=1)
    with pytest.raises(ValueError):
        Poly.zero(0)


def test_str_canonical_order():
    # graded by total exponent degree, ties broken lexicographically
    assert str(tvar(2) - tvar(1)) == "-t1 + t2"
    assert str(tvar(1) ** 2 - 2) == "-2 + t1^2"
    p = tvar(3) + tvar(1) * tvar(2) + (tvar(1) ** 3).scale(Fraction(1, 6))
    assert str(p) == "t3 + t1*t2 + 1/6*t1^3"


def test_multicomponent_rendering():
    assert str(tvar(2, component=2, ncomp=2)) == "t2[2]"
    assert str(xvar(1)) == "x1"
    assert str(yvar(5)) == "y5"


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        tvar(1, ncomp=1) + tvar(1, ncomp=2)
    with pytest.raises(ValueError):
        tvar(1, ncomp=1) * tvar(1, ncomp=2)


# -- ring axioms -----------------------------------------------------------------


@given(polys(), polys(), polys())
def test_addition_group(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p + Poly.zero() == p
    assert p - p == 0
    assert p + (-p) == 0


@given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
def test_multiplication_ring(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * Poly.const(1) == p
    assert p * Poly.zero() == 0


@given(polys(max_terms=3), rationals)
def test_scalar_ops(p, c):
    assert p.scale(c) == p * c
    assert c * p == p * c
    assert p + c == p + Poly.const(c)
    assert (c - p) == -(p - c)


# exponents next to a power of two, up to 2^40, so that a sum of two lands on
# the top bit of a packed field
carry_exponents = st.one_of(
    st.integers(1, 3),
    st.builds(lambda k, d: 2**k + d, st.integers(1, 40), st.sampled_from([-1, 0, 1])),
)


@st.composite
def poly_pairs(draw):
    kw = dict(ncomp=draw(st.integers(1, 3)), families=tuple(Family), max_index=3,
              max_terms=5, exponents=carry_exponents)
    return draw(polys(**kw)), draw(polys(**kw))


def assert_product_matches_merge(p, q):
    got = p * q
    want = poly_mul_by_merge(p, q)
    assert got.ncomp == want.ncomp
    assert got.terms == want.terms
    for mono, c in got.terms.items():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
        assert list(mono) == sorted(mono) and all(e >= 1 for _, e in mono)


@given(poly_pairs())
def test_product_matches_the_merge_reference(pair):
    assert_product_matches_merge(*pair)


def test_product_edge_cases_match_the_merge_reference():
    def power(v, e, ncomp=2):
        return Poly({((v, e),): Fraction(1)}, ncomp)

    t1, t2 = VarId(Family.T, 1, 1), VarId(Family.T, 2, 1)
    x, y = VarId(Family.X, 1, 2), VarId(Family.Y, 2, 3)
    pairs = [(tvar(1), tvar(1)), (tvar(1) * tvar(2), tvar(1) + tvar(2))]
    for k in range(1, 41):
        e = 2**k - 1
        field = power(t1, e) * power(t2, e) + power(x, 1)
        pairs += [(field, power(t1, 1) + power(t2, 1)), (field, field),
                  (power(y, 2**k), power(y, 2**k) + power(t2, e))]
    # a coefficient that cancels completely, mixed denominators, a zero factor
    half, third = Fraction(1, 2), Fraction(1, 3)
    a, b = xvar(1).scale(half) + yvar(2).scale(third), xvar(1).scale(half) - yvar(2).scale(third)
    pairs += [(tvar(1) + tvar(2), tvar(1) - tvar(2)), (a, b),
              (a + Poly.const(Fraction(5, 6)), b.scale(Fraction(6, 7))), (a, Poly.zero())]
    for p, q in pairs:
        assert_product_matches_merge(p, q)
    assert (tvar(1) + tvar(2)) * (tvar(1) - tvar(2)) == tvar(1) ** 2 - tvar(2) ** 2
    assert (a * b).terms == {((VarId(Family.X, 1, 1), 2),): Fraction(1, 4),
                             ((VarId(Family.Y, 1, 2), 2),): Fraction(-1, 9)}
    for mul in (Poly.__mul__, poly_mul_by_merge):
        with pytest.raises(ValueError):
            mul(tvar(1, ncomp=1), tvar(1, ncomp=2))


@st.composite
def product_sums(draw):
    """(ncomp, triples) over a small pool of factors, so one Poly object serves
    several triples and both sides of one; the pool holds a constant, and
    half the cases end with a triple that cancels an earlier one."""
    ncomp = draw(st.integers(1, 3))
    kw = dict(ncomp=ncomp, families=tuple(Family), max_index=3, max_terms=4,
              exponents=carry_exponents)
    pool = draw(st.lists(polys(**kw), min_size=1, max_size=4))
    pool.append(Poly.const(draw(rationals), ncomp))
    picks = st.integers(0, len(pool) - 1)
    coeffs = st.one_of(st.just(0), st.integers(-3, 3), rationals)
    triples = [(c, pool[i], pool[j])
               for c, i, j in draw(st.lists(st.tuples(coeffs, picks, picks), max_size=6))]
    if triples and draw(st.booleans()):
        c, a, b = draw(st.sampled_from(triples))
        triples.append((-c, b, a))
    return ncomp, triples


def products_by_operators(triples, ncomp: int) -> Poly:
    """sum_k c_k * a_k * b_k through ``*``, ``scale`` and ``+``, from the ambient's zero."""
    total = Poly.zero(ncomp)
    for c, a, b in triples:
        total = total + (a * b).scale(c)
    return total


@given(product_sums())
def test_sum_of_products_matches_the_merge_reference(case):
    ncomp, triples = case
    want = Poly.zero(ncomp)
    for c, a, b in triples:
        got = a * b
        assert got.ncomp == ncomp and got.terms == poly_mul_by_merge(a, b).terms
        assert gcd(got.den, *got.numerators.values()) == 1
        for mono, n in got.numerators.items():
            assert type(n) is int and n != 0
            assert list(mono) == sorted(mono) and all(e >= 1 for _, e in mono)
        want = want + poly_mul_by_merge(a, b).scale(c)
    got = products_by_operators(triples, ncomp)
    assert got.ncomp == ncomp and got.terms == want.terms
    assert got == sum_of_products_by_factors(triples, ncomp)


def test_sum_of_products_edge_cases():
    a = xvar(1).scale(Fraction(1, 2)) + yvar(2).scale(Fraction(1, 3))
    b = xvar(1).scale(Fraction(2, 5)) - Poly.const(Fraction(3, 7))
    # complete cancellation under Fraction weights, with one object on both sides of a pair
    assert products_by_operators([(Fraction(2, 3), a, b), (Fraction(-2, 3), b, a)], 1) == 0
    assert products_by_operators([(1, a, a), (-1, a, a)], 1) == 0
    # a zero factor on either side, and the empty sum, are the ambient's zero
    for got, ncomp in ((a * Poly.zero(), 1), (Poly.zero() * b, 1),
                       (tvar(1, ncomp=2) * Poly.zero(2), 2)):
        assert got == Poly.zero(ncomp)
    assert products_by_operators([], 2) == Poly.zero(2)
    got = products_by_operators([(3, a, b), (Fraction(1, 4), a, a), (0, b, b)], 1)
    assert got == poly_mul_by_merge(a, b).scale(3) + poly_mul_by_merge(a, a).scale(Fraction(1, 4))
    # every factor must share the ambient, zero coefficient or not
    for triples in ([(1, tvar(1, ncomp=2), tvar(1, ncomp=2))],
                    [(1, tvar(1), tvar(1)), (0, tvar(1), tvar(1, ncomp=2))]):
        with pytest.raises(ValueError, match="ambient"):
            products_by_operators(triples, 1)


def test_packed_derivative_matches_poly_diff():
    # Packing.diff on the packed numerators, decoded, is Poly.diff, for orders 0-3
    # in every variable of seeded polys over 1-3 components, and in variables that
    # are absent from the layout
    rng = random.Random(34)
    absent = [VarId(Family.Y, 1, 4), VarId(Family.X, 1, 4)]  # indices run 1..3
    checked = empty = 0
    for trial in range(120):
        ncomp = 1 + trial % 3
        p = _random_poly(rng, ncomp, tuple(Family))
        layout = Packing(p.numerators, p.max_exponent())
        packed = layout.pack(p.numerators.items(), 1)
        for v in sorted(p.variables()) + absent:
            for order in range(4):
                got = layout.diff(packed, v, order)
                assert layout.unpack(got, p.den, ncomp) == p.diff(v, order), (p, v, order)
                if v not in layout.shift:
                    assert got == (packed if order == 0 else []), (p, v, order)
                    empty += order > 0
                checked += 1
    assert (empty, checked) == (720, 2420)
    # a term whose exponent is below the order drops; x2 is kept as a factor
    x1, x2 = VarId(Family.X, 1, 1), VarId(Family.X, 1, 2)
    p = xvar(1) ** 2 * xvar(2) + xvar(1) ** 5 * xvar(2) ** 3 - xvar(2)
    layout = Packing(p.numerators, p.max_exponent())
    packed = layout.pack(p.numerators.items(), 1)
    third = layout.unpack(layout.diff(packed, x1, 3), 1, 1)
    assert third == (xvar(1) ** 2 * xvar(2) ** 3).scale(60)
    assert layout.unpack(layout.diff(packed, x2, 2), 1, 1) == (xvar(1) ** 5 * xvar(2)).scale(6)
    assert layout.diff(packed, x2, 3) == [(layout.pack([(((x1, 5),), 6)], 1)[0][0], 6)]


@given(polys(max_terms=3))
def test_pow_matches_repeated_product(p):
    assert p**0 == 1
    assert p**1 == p
    assert p**3 == p * p * p


def test_negative_exponent_is_a_value_error():
    with pytest.raises(ValueError):
        tvar(1) ** -1


# -- calculus ---------------------------------------------------------------------


@given(polys(max_terms=3), polys(max_terms=3), t_vars)
def test_leibniz(p, q, v):
    assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


@given(polys(), t_vars, t_vars)
def test_mixed_partials_commute(p, v, w):
    assert p.diff(v).diff(w) == p.diff(w).diff(v)


@given(polys(), t_vars)
def test_higher_order_derivative(p, v):
    assert p.diff(v, 2) == p.diff(v).diff(v)
    assert p.diff(v, 0) == p


def test_derivative_examples():
    p = (tvar(1) ** 3).scale(Fraction(1, 3)) - tvar(3)
    assert p.diff(VarId(Family.T, 1, 1)) == tvar(1) ** 2
    assert p.diff(VarId(Family.T, 1, 3)) == Poly.const(-1)
    assert Poly.const(5).diff(VarId(Family.T, 1, 1)) == 0


# -- substitution ------------------------------------------------------------------


@given(polys(), rationals, rationals)
def test_shift_roundtrip(p, a, b):
    forward = {VarId(Family.T, 1, 1): a, VarId(Family.T, 1, 2): b}
    backward = {VarId(Family.T, 1, 1): -a, VarId(Family.T, 1, 2): -b}
    assert shift_vars(shift_vars(p, forward), backward) == p


@given(polys(max_index=3), rationals, st.lists(rationals, min_size=3, max_size=3))
def test_shift_agrees_with_evaluation(p, c, vals):
    v1 = VarId(Family.T, 1, 1)
    assignment = {VarId(Family.T, 1, i): vals[i - 1] for i in range(1, 4)}
    shifted_assignment = dict(assignment)
    shifted_assignment[v1] = assignment[v1] + c
    assert eval_poly(shift_vars(p, {v1: c}), assignment) == eval_poly(
        p, shifted_assignment
    )


def test_relabel_collision_rejected():
    # two variables of one monomial may not collapse to the same target
    p = tvar(1) * tvar(2)
    with pytest.raises(ValueError):
        relabel_vars(p, lambda v: (VarId(Family.T, 1, 1), 1))


def test_relabel_merging_across_terms_accumulates():
    p = tvar(1) + tvar(2)
    assert relabel_vars(p, lambda v: (VarId(Family.T, 1, 1), 1)) == tvar(1).scale(2)


def test_relabel_scaling():
    p = tvar(2) ** 2
    q = relabel_vars(p, lambda v: (v, -1))
    assert q == tvar(2) ** 2
    q = relabel_vars(tvar(2), lambda v: (v, Fraction(1, 2)))
    assert q == tvar(2).scale(Fraction(1, 2))


# -- structure ---------------------------------------------------------------------


def test_weighted_degree():
    assert weighted_degree(Poly.zero()) == -1
    assert weighted_degree(Poly.const(7)) == 0
    assert weighted_degree(tvar(3) * tvar(1) ** 2) == 5
    assert weighted_degree(tvar(3) + tvar(1) * tvar(2)) == 3


def test_variables():
    p = tvar(1, 1, 2) * tvar(2, 2, 2) + Poly.const(1, 2)
    assert p.variables() == {VarId(Family.T, 1, 1), VarId(Family.T, 2, 2)}


# -- the Fraction reference ----------------------------------------------------------


def _random_poly(rng: random.Random, ncomp: int, families) -> Poly:
    terms: dict = {}
    for _ in range(rng.randint(0, 5)):
        mono = {VarId(rng.choice(families), rng.randint(1, ncomp), rng.randint(1, 3)):
                rng.randint(1, 3) for _ in range(rng.randint(0, 3))}
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return Poly(terms, ncomp)


def test_poly_arithmetic_matches_the_fraction_reference():
    # every operation against the Fraction-coefficient Poly of tests/oracles.py, term
    # for term, over the T, Y and X families, mixed families and 1-3 components; each
    # result is canonical, prints the reference's text and JSON, and survives the
    # JSON round trip
    rng = random.Random(30)
    family_sets = [(Family.T,), (Family.Y,), (Family.X,), tuple(Family)]
    for trial in range(400):
        ncomp, families = 1 + trial % 3, family_sets[trial // 3 % 4]
        p, q, r = (_random_poly(rng, ncomp, families) for _ in range(3))
        fp, fq, fr = map(FractionPoly.of, (p, q, r))
        c = rng.choice([0, 1, -2, Fraction(rng.randint(-6, 6), rng.randint(1, 6))])
        v = VarId(rng.choice(families), rng.randint(1, ncomp), rng.randint(1, 3))
        k = rng.randint(0, 3)
        triples = [(c, 0, 1), (2, 1, 2), (Fraction(-1, 3), 2, 2), (1, 0, 0)]
        cases = [
            (p + q, fp + fq), (p - q, fp - fq), (-p, -fp), (p.scale(c), fp.scale(c)),
            (p * q, fp * fq), (p.diff(v, k), fp.diff(v, k)), (p ** k, fp ** k),
            (products_by_operators([(w, (p, q, r)[i], (p, q, r)[j]) for w, i, j in triples],
                                   ncomp),
             FractionPoly.sum_of_products(
                 [(w, (fp, fq, fr)[i], (fp, fq, fr)[j]) for w, i, j in triples], ncomp)),
        ]
        for got, want in cases:
            assert got.ncomp == want.ncomp and got.terms == want.terms
            assert got.den == lcm(*[x.denominator for x in want.terms.values()])
            assert gcd(got.den, *got.numerators.values()) == 1
            assert got.to_json_obj() == want.to_json_obj() and str(got) == str(want)
            assert Poly.from_json_obj(json.loads(json.dumps(got.to_json_obj()))) == got
        for x in (0, 1, -3, c, Fraction(1, 2)):
            assert (p == x) == (fp == x)
            assert Poly.const(x, ncomp) == x and (Poly.const(x, ncomp) == x + 1) is False
        assert (p == q) == (fp == fq) and p == Poly(fp.terms, ncomp)


# -- serialization ------------------------------------------------------------------


@given(polys(ncomp=2, families=(Family.T, Family.Y)))
def test_json_roundtrip(p):
    wire = json.dumps(p.to_json_obj(), sort_keys=True)
    assert Poly.from_json_obj(json.loads(wire)) == p


def test_from_json_rejects_bad_input():
    with pytest.raises(ValueError):
        Poly.from_json_obj({"ncomp": 1, "terms": [{"coeff": "1", "monomial": [["T", 1, 0, 1]]}]})
    with pytest.raises(ValueError):
        Poly.from_json_obj({"ncomp": 1, "terms": [{"coeff": "1", "monomial": [["T", 1, 1, 0]]}]})
    with pytest.raises(ValueError):
        Poly.from_json_obj(
            {
                "ncomp": 1,
                "terms": [{"coeff": "1", "monomial": [["T", 1, 1, 1], ["T", 1, 1, 2]]}],
            }
        )


# -- Miwa shifts and residues --------------------------------------------------------


@given(polys(max_terms=3), st.sampled_from([1, -1]))
def test_miwa_z0_coefficient_is_identity(p, sign):
    shifted = miwa_by_operator(p, Family.T, 1, sign)
    assert shifted[0] == p
    assert len(shifted) == max(weighted_degree(p), 0) + 1


@given(
    polys(max_terms=3, max_index=3, max_exp=2),
    st.lists(rationals, min_size=3, max_size=3),
    st.sampled_from([1, -1]),
)
def test_miwa_evaluates_to_substitution(p, vals, sign):
    # summing c_k * z0^{-k} over the coefficient list must equal evaluating p
    # at t_i + sign * z0^{-i} / i
    z0 = Fraction(3, 2)
    assignment = {VarId(Family.T, 1, i): vals[i - 1] for i in range(1, 4)}
    shifted = miwa_by_operator(p, Family.T, 1, sign)
    series_value = sum(
        (eval_poly(c, assignment) * z0 ** (-k) for k, c in enumerate(shifted)),
        Fraction(0),
    )
    moved = {
        v: val + Fraction(sign, v.index) * z0 ** (-v.index)
        for v, val in assignment.items()
    }
    assert series_value == eval_poly(p, moved)


def test_miwa_respects_component_and_family():
    p = tvar(1, 1, 2) * tvar(1, 2, 2)
    shifted = miwa_by_operator(p, Family.T, 2, -1)
    # component 1 variables pass through untouched
    assert shifted[0] == p
    assert shifted[1] == tvar(1, 1, 2).scale(-1)


def test_exp_difference_basics():
    series = difference_series(5, 1, 1)
    assert series[0] == 1
    assert series[1] == tvar(1) - yvar(1)
    # d/dt_j of the z^k coefficient is the z^{k-j} coefficient
    for k in range(1, 6):
        for j in range(1, k + 1):
            assert series[k].diff(VarId(Family.T, 1, j)) == series[k - j]


@given(st.lists(rationals, min_size=4, max_size=4))
def test_exp_difference_vanishes_on_diagonal(vals):
    # at y = t the series is exp(0): constant term 1, all higher terms 0
    for k in range(1, 5):
        p = difference_series(4, 1, 1)[k]
        assignment = {}
        for v in p.variables():
            assignment[v] = vals[v.index - 1]
            assignment[VarId(Family.T, 1, v.index)] = vals[v.index - 1]
            assignment[VarId(Family.Y, 1, v.index)] = vals[v.index - 1]
        assert eval_poly(p, assignment) == 0


def test_laurent_residue_frozen_examples():
    unit = [Poly.const(1)]
    # z^0 * exp-series has no z^{-1} coefficient
    assert residue_by_convolution(unit, unit, 0, 1) == 0
    # z^{-2} * exp-series picks the z^1 series coefficient t1 - y1
    assert residue_by_convolution(unit, unit, -2, 1) == tvar(1) - yvar(1)
