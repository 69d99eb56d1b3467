"""Partitions, their index sequences and periodicity.

A partition lambda = (l_1 >= ... >= l_m > 0) determines the strictly
decreasing sequence V = (l_1, l_2 - 1, ..., l_m - m + 1, -m, -m - 1, ...):
a finite head followed by every integer <= -m.  lambda is n-periodic when
V - n is contained in V; because the tail is closed under subtraction it is
enough to check the head elements.

``expected_shift_lengths`` and ``constrained_indices`` give the shape of the
shift vectors of a Grassmann cell, which ``schur.canonicalize_shifts`` fills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .polycore import _json_int, int_tuple

#: Guard for the periodic-partition enumerator.
MAX_ENUMERATION_SIZE = 30


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive parts; () is the empty partition.

    A part that is not an integer, a bool or a float say, raises ``TypeError``."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", int_tuple(self.parts))
        last = None
        for p in self.parts:
            if p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if last is not None and p > last:
                raise ValueError("parts must be weakly decreasing")
            last = p

    @classmethod
    def coerce(cls, value: "Partition | Iterable[int]") -> "Partition":
        return value if isinstance(value, Partition) else cls(value)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class VSequence:
    """Head of the V sequence plus the threshold below which all integers lie."""

    head: tuple[int, ...]
    tail_start: int  # every integer <= tail_start is a member

    def __contains__(self, v: int) -> bool:
        return v <= self.tail_start or v in self.head


def v_sequence(partition: Partition | Iterable[int]) -> VSequence:
    p = Partition.coerce(partition)
    m = len(p)
    head = tuple(part - i for i, part in enumerate(p.parts))
    return VSequence(head=head, tail_start=-m)


def is_n_periodic(partition: Partition | Iterable[int], n: int) -> bool:
    """True when V - n is contained in V (head check suffices)."""
    if _json_int(n) < 2:
        raise ValueError("periodicity requires n >= 2")
    vs = v_sequence(partition)
    return all((h - n) in vs for h in vs.head)


def partitions_of(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` as weakly decreasing tuples."""
    if total < 0:
        return
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


def all_partitions(max_size: int) -> Iterator[Partition]:
    """Every partition with |lambda| <= max_size, increasing size order."""
    for total in range(max_size + 1):
        for parts in partitions_of(total):
            yield Partition(parts)


def enumerate_n_periodic(n: int, max_size: int) -> list[Partition]:
    """All n-periodic partitions with |lambda| <= max_size, sorted by (size, parts)."""
    if _json_int(n) < 2:
        raise ValueError("periodicity requires n >= 2")
    if _json_int(max_size) > MAX_ENUMERATION_SIZE:
        raise ValueError(
            f"max_size {max_size} exceeds the enumeration guard {MAX_ENUMERATION_SIZE}"
        )
    found = [p for p in all_partitions(max_size) if is_n_periodic(p, n)]
    found.sort(key=lambda p: (p.size, p.parts))
    return found


def expected_shift_lengths(partition: Partition | Iterable[int]) -> list[int]:
    """Length l_j + m - j required of the j-th column shift vector (1-based j)."""
    p = Partition.coerce(partition)
    m = len(p)
    return [p.parts[j - 1] + m - j for j in range(1, m + 1)]


def constrained_indices(partition: Partition | Iterable[int]) -> list[tuple[int, ...]]:
    """Per column j, the 1-based entry positions fixed by canonicalization."""
    p = Partition.coerce(partition)
    m = len(p)
    out: list[tuple[int, ...]] = []
    for j in range(1, m + 1):
        ds = sorted(
            p.parts[j - 1] - j - p.parts[i - 1] + i for i in range(j + 1, m + 1)
        )
        out.append(tuple(ds))
    return out


def free_parameter_count(partition: Partition | Iterable[int]) -> int:
    """Number of shift entries left free by canonicalization (= |lambda|)."""
    p = Partition.coerce(partition)
    lengths = expected_shift_lengths(p)
    constrained = constrained_indices(p)
    return sum(lengths[j] - len(constrained[j]) for j in range(len(p)))
