import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import random_fraction
from tauforge import (
    Partition,
    all_partitions,
    canonicalize_shifts,
    enumerate_n_periodic,
    expected_shift_lengths,
    free_parameter_count,
    is_n_periodic,
    schur_constant,
    v_sequence,
)
from tauforge.partitions import MAX_ENUMERATION_SIZE, constrained_indices, partitions_of


def truncated(vs, lowest: int) -> list[int]:
    """All members of the V sequence ``vs`` that are >= lowest, in decreasing order."""
    return [h for h in vs.head if h >= lowest] + list(range(vs.tail_start, lowest - 1, -1))


small_partitions = st.builds(
    lambda parts: Partition(tuple(sorted(parts, reverse=True))),
    st.lists(st.integers(1, 5), min_size=0, max_size=5),
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(TypeError):
        Partition((True, True))  # was accepted and printed as (True,True)
    assert Partition(()).size == 0
    assert Partition((3, 1)).size == 4
    assert str(Partition((2, 1))) == "(2,1)"
    assert list(Partition((2, 1))) == [2, 1]


def test_v_sequence_small():
    vs = v_sequence((2, 1))
    assert vs.head == (2, 0)
    assert vs.tail_start == -2
    assert 2 in vs and 0 in vs and -2 in vs and -100 in vs
    assert 1 not in vs and -1 not in vs and 3 not in vs
    assert truncated(vs, -3) == [2, 0, -2, -3]


def test_v_sequence_empty():
    vs = v_sequence(())
    assert vs.head == ()
    assert vs.tail_start == 0
    assert 0 in vs and -5 in vs and 1 not in vs


@given(small_partitions, st.integers(2, 4))
def test_periodicity_matches_window_check(p, n):
    # independent route: every member of V down to a window floor must map
    # back into V under subtraction of n
    vs = v_sequence(p)
    floor = vs.tail_start - n
    window = truncated(vs, floor)
    direct = all((v - n) in vs for v in window if v - n >= floor - n)
    assert is_n_periodic(p, n) == direct


def test_periodicity_known_truths():
    assert is_n_periodic((), 2)
    assert is_n_periodic((1,), 2)
    assert is_n_periodic((2, 1), 2)
    assert is_n_periodic((3, 2, 1), 2)
    assert not is_n_periodic((2,), 2)
    assert not is_n_periodic((2, 2), 2)
    assert not is_n_periodic((3, 1), 2)
    assert is_n_periodic((3, 1), 3)
    assert is_n_periodic((2, 1, 1), 3)
    assert is_n_periodic((4, 2), 3)
    assert is_n_periodic((2, 2, 1, 1), 3)
    assert is_n_periodic((4, 2, 1, 1), 3)
    assert not is_n_periodic((2, 1), 3)
    assert not is_n_periodic((1, 1, 1), 3)


def test_periodicity_rejects_small_n():
    with pytest.raises(ValueError):
        is_n_periodic((2, 1), 1)


def test_two_periodic_are_staircases():
    found = enumerate_n_periodic(2, 8)
    assert [p.parts for p in found] == [(), (1,), (2, 1), (3, 2, 1)]


def test_three_periodic_up_to_five():
    found = enumerate_n_periodic(3, 5)
    assert [p.parts for p in found] == [
        (),
        (1,),
        (1, 1),
        (2,),
        (2, 1, 1),
        (3, 1),
        (3, 1, 1),
    ]


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_n_periodic(2, MAX_ENUMERATION_SIZE + 1)


def test_partition_counts():
    # number of partitions of 0..8: 1 1 2 3 5 7 11 15 22
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for total, count in enumerate(expected):
        assert sum(1 for _ in partitions_of(total)) == count
    assert sum(1 for _ in all_partitions(8)) == sum(expected)


def test_expected_shift_lengths():
    assert expected_shift_lengths(()) == []
    assert expected_shift_lengths((2, 1)) == [3, 1]
    assert expected_shift_lengths((3, 3, 1)) == [5, 4, 1]


def test_constrained_indices_small():
    assert constrained_indices(()) == []
    assert constrained_indices((2, 1)) == [(2,), ()]
    # (1, 1): column 1 is constrained at d = (1-1) - (1-2) = 1
    assert constrained_indices((1, 1)) == [(1,), ()]


@given(small_partitions)
def test_constrained_indices_are_valid_positions(p):
    lengths = expected_shift_lengths(p)
    for j, ds in enumerate(constrained_indices(p)):
        assert len(set(ds)) == len(ds)
        for d in ds:
            assert 1 <= d <= lengths[j]


def test_canonicalize_requires_exact_lengths():
    with pytest.raises(ValueError):
        canonicalize_shifts((2, 1), [[1, 2], [0]])
    with pytest.raises(ValueError):
        canonicalize_shifts((2, 1), [[1, 2, 3]])


def test_canonicalize_kills_constrained_schur_values():
    rng = random.Random(0)
    for parts in [(1, 1), (2, 1), (2, 2), (3, 1, 1), (3, 2, 1), (4, 2, 1)]:
        p = Partition(parts)
        shifts = [
            [random_fraction(rng) for _ in range(length)]
            for length in expected_shift_lengths(p)
        ]
        fixed = canonicalize_shifts(p, shifts)
        for j, ds in enumerate(constrained_indices(p)):
            for d in ds:
                assert schur_constant(d, fixed[j]) == 0
            # unconstrained entries are untouched
            for i in range(1, len(fixed[j]) + 1):
                if i not in ds:
                    assert fixed[j].get(i) == Fraction(shifts[j][i - 1])


def test_canonicalize_is_idempotent():
    rng = random.Random(3)
    p = Partition((3, 2, 1))
    shifts = [
        [random_fraction(rng) for _ in range(length)]
        for length in expected_shift_lengths(p)
    ]
    once = canonicalize_shifts(p, shifts)
    twice = canonicalize_shifts(p, [list(cv) for cv in once])
    assert once == twice


@given(small_partitions)
def test_free_parameters_equal_size(p):
    assert free_parameter_count(p) == p.size
