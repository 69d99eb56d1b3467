import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    eval_poly,
    random_fraction,
    schur_by_series,
    schur_of_args,
    shifted_table_by_convolution,
    shifted_table_by_fractions,
    shift_vars,
    solve_shifts_triangular,
    weighted_degree,
)
from tauforge import (
    Family,
    Poly,
    ShiftVector,
    VarId,
    elementary_schur,
    schur_constant,
    schur_constants,
    schur_shifted,
    solve_shifts,
    tau_kp,
    tvar,
)
from tauforge import schur
from tauforge.schur import schur_shifted_table
from tauforge.tau import charge_vectors

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def test_frozen_small_values():
    t1, t2, t3, t4 = tvar(1), tvar(2), tvar(3), tvar(4)
    assert elementary_schur(0) == 1
    assert elementary_schur(1) == t1
    assert elementary_schur(2) == t2 + (t1**2).scale(Fraction(1, 2))
    assert str(elementary_schur(3)) == "t3 + t1*t2 + 1/6*t1^3"
    expected4 = (
        t4
        + t1 * t3
        + (t2**2).scale(Fraction(1, 2))
        + (t1**2 * t2).scale(Fraction(1, 2))
        + (t1**4).scale(Fraction(1, 24))
    )
    assert elementary_schur(4) == expected4


def test_negative_index_is_zero():
    assert elementary_schur(-1) == 0
    assert elementary_schur(-5) == 0
    assert schur_constant(-2, [1, 2]) == 0
    assert schur_shifted(-1, [1]) == 0
    # [s_0, ..., s_upto] is empty below 0; it was [1]
    assert schur_constants(-1, [1]) == schur_constants(-2, None) == []


def test_index_arguments_must_be_integers():
    # True read as 1: [1, 1], 2, t1 and the labels (0, 1), (1, 0)
    calls = [
        lambda: schur_constants(True, [1]),
        lambda: schur_constant(True, [2]),
        lambda: elementary_schur(True),
        lambda: schur_shifted(2.0, [1]),
        lambda: list(charge_vectors(True, 2)),
        lambda: list(charge_vectors(True, 1)),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(TypeError, match="integer"):
            call()
            pytest.fail(f"call {i} accepted a non-integer index")
    assert schur_constants(1, [1]) == [1, 1] and list(charge_vectors(1, 2)) == [(0, 1), (1, 0)]


def test_matches_series_oracle():
    series = schur_by_series(8)
    for j in range(9):
        assert elementary_schur(j) == series[j], f"s_{j} disagrees with the series"


def test_component_isolation():
    p = elementary_schur(3, component=2, ncomp=2)
    assert {v.component for v in p.variables()} == {2}
    assert {v.family for v in p.variables()} == {Family.T}
    # same shape as the single-component polynomial
    series = schur_by_series(3, component=2, ncomp=2)
    assert p == series[3]


def test_derivative_ladder():
    for j in range(9):
        for i in range(1, j + 3):
            got = elementary_schur(j).diff(VarId(Family.T, 1, i))
            assert got == elementary_schur(j - i)


@given(st.lists(rationals, min_size=0, max_size=6), st.integers(0, 7))
def test_constants_agree_with_evaluation(cs, j):
    values = {}
    p = elementary_schur(j)
    for v in p.variables():
        values[v] = cs[v.index - 1] if v.index <= len(cs) else Fraction(0)
    assert schur_constant(j, cs) == eval_poly(p, values)
    table = schur_constants(j, cs)
    assert table == [eval_poly(elementary_schur(k), values) for k in range(j + 1)]
    assert all(type(c) is Fraction for c in table)


@given(st.lists(rationals, min_size=1, max_size=6), st.integers(0, 7))
def test_shift_convolution_equals_substitution(cs, j):
    direct = shift_vars(
        elementary_schur(j),
        {VarId(Family.T, 1, i): c for i, c in enumerate(cs, start=1)},
    )
    assert schur_shifted(j, cs) == direct


def test_shifted_with_zero_shift():
    for j in range(6):
        assert schur_shifted(j, None) == elementary_schur(j)
        assert schur_shifted(j, []) == elementary_schur(j)


# Shift vectors for the differential tests: empty, all zero, short, and one
# longer than any table reads.
CLOSED_FORM_SHIFTS = (
    (),
    (0, 0, 0),
    (Fraction(1, 2), -1, 0, 3),
    tuple(random_fraction(random.Random(5)) for _ in range(17)),
)


@pytest.mark.parametrize("component,ncomp", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_closed_form_tables_match_convolution(component, ncomp):
    # Entry k of a table does not depend on where the table stops, so one
    # reference through s_14 covers every window: each upto from lowest 0,
    # and each lowest up to 14.  The component only renames variables, so
    # every shift vector runs in two ambients and the long one in all.
    full = (component, ncomp) in ((1, 1), (2, 3))
    for c in CLOSED_FORM_SHIFTS if full else CLOSED_FORM_SHIFTS[-1:]:
        ref = shifted_table_by_convolution(14, c, component, ncomp)
        windows = [(upto, 0) for upto in range(15)] + [(14, lowest) for lowest in range(15)]
        for upto, lowest in windows:
            got = schur_shifted_table(upto, c, component, ncomp, lowest)
            assert got == ref[lowest:upto + 1], (c, upto, lowest)


@pytest.mark.parametrize(
    "family,sign",
    [(Family.T, 1), (Family.X, 1), (Family.X, -1), (Family.Y, -1)],
    ids=["t", "x", "-x", "-y"],
)
def test_scaled_signed_tables_match_relabelled_convolution(family, sign):
    for c in CLOSED_FORM_SHIFTS:
        for coeff in (1, Fraction(-2, 3), -3, 0):
            ref = shifted_table_by_convolution(12, c, 1, 1, 0, coeff, family, sign)
            assert schur_shifted_table(12, c, 1, 1, 0, coeff, family, sign) == ref, (c, coeff)
    ref = shifted_table_by_convolution(9, CLOSED_FORM_SHIFTS[2], 2, 3, 4, Fraction(5, 2), family, sign)
    assert schur_shifted_table(9, CLOSED_FORM_SHIFTS[2], 2, 3, 4, Fraction(5, 2), family, sign) == ref


def test_integer_tables_match_the_fraction_closed_form():
    # every upto <= 12 from 0 and from its middle and last entries, in the t, y
    # and x families with sign +-1, components 1-3, and each shift vector with
    # three of the coefficients 1, -2/3, 0 and 5/2
    coeffs = (1, Fraction(-2, 3), 0, Fraction(5, 2))
    cases = 0
    for family, sign in [(Family.T, 1), (Family.T, -1), (Family.Y, -1), (Family.X, 1),
                         (Family.X, -1)]:
        for component in (1, 2, 3):
            for i, c in enumerate(CLOSED_FORM_SHIFTS):
                coeff = coeffs[(i + component) % 4]
                for upto in range(13):
                    for lowest in sorted({0, upto // 2, upto}):
                        args = (upto, c, component, 3, lowest, coeff, family, sign)
                        got = schur_shifted_table(*args)
                        assert got == shifted_table_by_fractions(*args), args
                        assert all(all(p.terms.values()) for p in got)  # zero-free
                        numerators = schur._shifted_table(
                            upto, c, component, lowest, Fraction(coeff), family, sign)
                        assert all(n for terms, _ in numerators for _, n in terms), args
                        assert len({den for _, den in numerators}) == 1  # one per table
                        cases += 1
    assert cases == 5 * 3 * 4 * 36


# 1.0 and True hash as 1, so an accepted one would key the monomial caches
INEXACT_TABLE_CALLS = [
    lambda: schur_shifted_table(3, None, 1.0),
    lambda: schur_shifted_table(3, None, True),
    lambda: schur_shifted_table(3, None, 1, True),
    lambda: schur_shifted_table(3, None, 1, 1.0),
    lambda: schur_shifted_table(3, None, lowest=True),
    lambda: schur_shifted_table(3, None, family=0),
    lambda: schur_shifted_table(3, None, sign=0),
    lambda: schur_shifted_table(3, None, sign=2),
    lambda: schur_shifted_table(3, None, sign=True),
    lambda: schur_shifted_table(3, None, sign=-1.0),
    lambda: schur_shifted(2, None, 1.0),
    lambda: schur_shifted(-1, None, True),
    lambda: elementary_schur(3, 1.0, 2),
    lambda: elementary_schur(2, True),
]


def test_table_arguments_must_be_exact():
    for i, call in enumerate(INEXACT_TABLE_CALLS):
        with pytest.raises((TypeError, ValueError)):
            call()
            pytest.fail(f"call {i} was accepted")


def test_a_rejected_table_call_leaves_the_caches_clean():
    schur._MONOMIALS.clear()
    schur._power.cache_clear()
    for call in INEXACT_TABLE_CALLS:
        try:
            call()
        except (TypeError, ValueError):
            pass
    elementary_schur(3, 1, 2)
    assert all(type(component) is int for _, _, component in schur._MONOMIALS)
    tau = tau_kp((2, 1), [[1, 2], [3]])
    assert Poly.from_json_obj(tau.to_json_obj()) == tau
    assert str(elementary_schur(2, 1, 2)) == "t2[1] + 1/2*t1[1]^2"


def test_elementary_schur_matches_polynomial_recurrence():
    for component, ncomp in ((1, 1), (2, 3)):
        ref = schur_of_args(16, [tvar(i, component, ncomp) for i in range(1, 17)])
        for j in range(17):
            assert elementary_schur(j, component, ncomp) == ref[j], (component, j)


def test_table_rejects_component_outside_ambient():
    # s_0 reads no variable, yet component 3 of 2 is still an error
    for upto in (0, 2):
        with pytest.raises(ValueError):
            schur_shifted_table(upto, None, 3, 2)


def test_concurrent_growth_keeps_tables_ordered():
    # Four threads build s_k from a cold monomial cache at a 1 us switch
    # interval; a torn or half-built cache entry would show up as a result
    # that differs from the serial one.
    k, ncomp = 18, 2
    schur._MONOMIALS.clear()
    results, errors = [], []

    def grow():
        try:
            results.append(schur_shifted_table(k, [1, Fraction(-1, 2)], 2, ncomp))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=grow) for _ in range(4)]
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
    serial = schur_shifted_table(k, [1, Fraction(-1, 2)], 2, ncomp)
    assert [weighted_degree(p) for p in serial] == list(range(k + 1))
    assert len(results) == 4
    assert all(table == serial for table in results)


def test_shift_vector_access():
    cv = ShiftVector.coerce([1, Fraction(1, 2)])
    assert cv.get(1) == 1
    assert cv.get(2) == Fraction(1, 2)
    assert cv.get(99) == 0
    with pytest.raises(IndexError):
        cv.get(0)
    assert ShiftVector.coerce(cv) is cv


def test_solve_shifts_frozen_example():
    # b0 + b2 s_2(t) with b = (beta, 0, 1) is matched by c = (0, beta)
    for beta in (Fraction(2), Fraction(-1, 3)):
        cv = solve_shifts([beta, 0, 1])
        assert cv == ShiftVector((Fraction(0), beta))


def test_solve_shifts_requires_leading_coefficient():
    with pytest.raises(ValueError):
        solve_shifts([1, 2, 0])
    with pytest.raises(ValueError):
        solve_shifts([])


def test_solve_shifts_roundtrip_random():
    rng = random.Random(0)
    for big_m in range(1, 9):
        for _ in range(5):
            b = [random_fraction(rng) for _ in range(big_m)]
            b.append(random_fraction(rng) + 10)  # keep b_M nonzero
            cv = solve_shifts(b)
            assert len(cv) == big_m
            # the defining relation: s_k(c) = b_{M-k} / b_M for all k
            consts = schur_constants(big_m, cv)
            for k in range(big_m + 1):
                assert consts[k] == b[big_m - k] / b[big_m]


def test_solve_shifts_matches_the_triangular_solve():
    # the Schur-constant rule against the Fraction recurrence it replaced
    rng = random.Random(2)
    for big_m in range(9):
        for _ in range(6):
            b = [random_fraction(rng) for _ in range(big_m)] + [random_fraction(rng) or Fraction(1)]
            assert solve_shifts(b) == solve_shifts_triangular(b)


def test_solve_shifts_matches_polynomial_identity():
    # sum b_i s_i(t) == b_M s_M(t + c) as polynomials, not just coefficients
    rng = random.Random(1)
    for big_m in (2, 4, 6):
        b = [random_fraction(rng) for _ in range(big_m)] + [Fraction(3, 2)]
        cv = solve_shifts(b)
        lhs = Poly.zero()
        for i, bi in enumerate(b):
            lhs = lhs + elementary_schur(i).scale(bi)
        assert lhs == schur_shifted(big_m, cv).scale(b[big_m])
