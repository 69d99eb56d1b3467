"""Elementary Schur polynomials s_j and their shifted/constant variants.

s_j is defined by exp(sum_{i>=1} t_i z^i) = sum_{j>=0} s_j(t) z^j and computed
through the recurrence j*s_j = sum_{i=1}^{j} i * t_i * s_{j-i} of
``polycore.schur_table``, with s_0 = 1 and s_j = 0 for j < 0.  The
generating-function route is kept independent in the tests as a cross-check.

A ShiftVector is a finite tuple of rational constants c = (c_1, c_2, ...);
entries beyond the stored length read as zero.  ``schur_shifted_table``
evaluates s_L(t + c), ..., s_M(t + c) through the convolution
s_j(t + c) = sum_i s_{j-i}(c) s_i(t), one sum of products per entry, and
``solve_shifts`` inverts that triangular relation: given b_0..b_M with
b_M != 0 it finds the unique c with sum_i b_i s_i(t) = b_M s_M(t + c).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .polycore import Poly, RationalLike, exact_fraction, schur_table, tvar

ShiftLike = Union["ShiftVector", Sequence[RationalLike], None]


@dataclass(frozen=True)
class ShiftVector:
    """Finite vector of rational shift constants, 1-indexed, zero-padded."""

    entries: tuple[Fraction, ...] = ()

    @classmethod
    def coerce(cls, value: ShiftLike) -> "ShiftVector":
        if value is None:
            return cls()
        if isinstance(value, ShiftVector):
            return value
        if isinstance(value, (str, bytes)):
            raise TypeError(f"a shift vector is a sequence of rationals, not {value!r}")
        return cls(tuple(exact_fraction(x) for x in value))

    @classmethod
    def zero(cls, length: int = 0) -> "ShiftVector":
        return cls((Fraction(0),) * length)

    def get(self, i: int) -> Fraction:
        """1-based entry c_i; zero beyond the stored length."""
        if i < 1:
            raise IndexError("shift entries are 1-indexed")
        if i <= len(self.entries):
            return self.entries[i - 1]
        return Fraction(0)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def is_zero(self) -> bool:
        return all(not c for c in self.entries)


# [s_0, s_1, ...] per (ncomp, component).  A table grows only under the
# lock; lookups read without it, since a table only ever grows by appending
# its next, finished entry.
_SCHUR_CACHE: dict[tuple[int, int], list[Poly]] = {}
_SCHUR_LOCK = threading.Lock()


def elementary_schur(j: int, component: int = 1, ncomp: int = 1) -> Poly:
    """s_j in the t-variables of one component; zero for j < 0."""
    if j < 0:
        return Poly.zero(ncomp)
    table = _SCHUR_CACHE.get((ncomp, component))
    if table is None or len(table) <= j:
        with _SCHUR_LOCK:
            table = _SCHUR_CACHE.setdefault((ncomp, component), [Poly.const(1, ncomp)])
            schur_table(table, j, lambda i: tvar(i, component, ncomp))
    return table[j]


def schur_constants(upto: int, c: ShiftLike) -> list[Fraction]:
    """[s_0(c), ..., s_upto(c)] for a constant argument vector."""
    return schur_table([Fraction(1)], upto, ShiftVector.coerce(c).get)


def schur_constant(j: int, c: ShiftLike) -> Fraction:
    """s_j evaluated at constants; zero for j < 0."""
    if j < 0:
        return Fraction(0)
    return schur_constants(j, c)[j]


def schur_shifted_table(
    upto: int, c: ShiftLike, component: int = 1, ncomp: int = 1, lowest: int = 0
) -> list[Poly]:
    """[s_lowest(t + c), ..., s_upto(t + c)], each by
    s_k(t + c) = sum_{i=0}^{k} s_{k-i}(c) * s_i(t)."""
    consts = schur_constants(upto, c)
    s = [elementary_schur(i, component, ncomp) for i in range(upto + 1)]
    one = Poly.const(1, ncomp)
    return [
        Poly.sum_of_products([(consts[k - i], s[i], one) for i in range(k + 1)], ncomp)
        for k in range(lowest, upto + 1)
    ]


def schur_shifted(j: int, c: ShiftLike, component: int = 1, ncomp: int = 1) -> Poly:
    """s_j(t + c), the one entry of ``schur_shifted_table`` from j to j; zero for j < 0."""
    if j < 0:
        return Poly.zero(ncomp)
    return schur_shifted_table(j, c, component, ncomp, lowest=j)[0]


def solve_shifts(b: Sequence[RationalLike]) -> ShiftVector:
    """Find c with sum_{i=0}^{M} b_i s_i(t) = b_M s_M(t + c).

    ``b`` lists b_0..b_M and b_M must be nonzero.  The relation forces
    s_k(c) = b_{M-k}/b_M for k = 0..M, which the Schur recurrence solves
    triangularly: c_k = g_k - (1/k) * sum_{i<k} i * c_i * g_{k-i} with
    g_k = b_{M-k}/b_M.
    """
    bs = [exact_fraction(x) for x in b]
    if not bs:
        raise ValueError("need at least b_0")
    M = len(bs) - 1
    if not bs[M]:
        raise ValueError("leading coefficient b_M must be nonzero")
    g = [bs[M - k] / bs[M] for k in range(M + 1)]
    c: list[Fraction] = []
    for k in range(1, M + 1):
        acc = Fraction(0)
        for i in range(1, k):
            acc += i * c[i - 1] * g[k - i]
        c.append(g[k] - acc / k)
    return ShiftVector(tuple(c))
