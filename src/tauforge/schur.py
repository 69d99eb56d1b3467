"""Elementary Schur polynomials s_j and their shifted/constant variants.

s_j is defined by exp(sum_{i>=1} t_i z^i) = sum_{j>=0} s_j(t) z^j, with
s_j = 0 for j < 0.  A ShiftVector is a finite tuple of rational constants
c = (c_1, c_2, ...); entries beyond the stored length read as zero.  Every
shifted polynomial has a closed form over partitions nu, with m_j(nu) the
number of parts equal to j and l(nu) the number of parts:

    s_k(+-t + c) = sum_{|nu| <= k} s_{k-|nu|}(c) (+-1)^{l(nu)} t^nu / prod_j m_j(nu)!

Proof: exp(sum_i (+-t_i + c_i) z^i) = exp(sum_i c_i z^i) prod_i exp(+-t_i z^i),
and the product expands as sum_nu (+-1)^{l(nu)} t^nu z^{|nu|} / prod_j m_j(nu)!.
So a table fills one term list per entry, term by term, with no polynomial
product or sum; s_j(t) is the case c = 0.  The recurrence
j*s_j = sum_{i=1}^{j} i * c_i * s_{j-i} runs only on constants, in
``schur_constants``.

A table b * [s_L, ..., s_M](+-v + c) is built on integers: each entry is a list
of (v^nu, numerator) over one denominator for the whole table,
D = b.den * M! * d^M, with d the lcm of the denominators of c.  The numerator
of v^nu in entry k is (+-1)^{l(nu)} u_i / prod_j m_j(nu)! with i = k - |nu|, where
u_i = b.num * v_i * d^(M - i) = D * b * s_i(c) and v_i = M! d^i s_i(c) are the
integers of ``schur_constants``.  Each numerator is an integer: with n = |nu|,

    D b s_i(c) / prod_j m_j(nu)!
        = b.num * [i! d^i s_i(c)] * [n! / prod_j m_j(nu)!] * [M! / (i! n!)] * d^(M - k),

where the first bracket is an integer by ``schur_constants``, the second is a
multinomial coefficient, and i! n! divides k!, which divides M!.  A zero b or
s_i(c) stores no term.  The determinants in ``tau`` read these lists as they
are; ``schur_shifted_table`` makes each into a Poly, divided by the common factor
of its numerators and D.

``solve_shifts`` and ``canonicalize_shifts`` share one rule, ``_hit``: since
s_d(c) = c_d + s_d(c_1, ..., c_{d-1}, 0), setting c_d to the target minus
s_d(c_1, ..., c_{d-1}, 0), read from ``schur_constant``, makes s_d(c) hit the
target.  ``solve_shifts`` inverts s_j(t + c) = sum_i s_{j-i}(c) s_i(t): given
b_0..b_M with b_M != 0 it finds the unique c with sum_i b_i s_i(t) =
b_M s_M(t + c) by hitting s_d(c) = b_{M-d}/b_M for d = 1..M in turn.
``canonicalize_shifts`` removes the gauge freedom of the shift vectors
attached to a Grassmann cell: for each column j and each later row i it hits
s_d(c) = 0 at d = l_j - j - l_i + i.  The remaining free entries number
exactly |lambda|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from typing import Iterable, Sequence, Union

from .partitions import (
    Partition,
    constrained_indices,
    expected_shift_lengths,
    partitions_of,
)
from .polycore import (
    Family, Monomial, Numerators, Poly, RationalLike, VarId, _json_int, _ncomp, exact_fraction,
)

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


@cache
def _power(family: Family, component: int, k: int, mult: int) -> tuple[VarId, int]:
    return (VarId(family, component, k), mult)


def _monomial(nu: tuple[int, ...], family: Family, component: int) -> tuple[Monomial, int]:
    """t^nu in ``component`` of ``family``, with prod_k m_k(nu)!."""
    mono, weight = [], 1
    for k in sorted(set(nu)):
        mult = nu.count(k)
        mono.append(_power(family, component, k, mult))
        weight *= factorial(mult)
    return tuple(mono), weight


# (t^nu, prod_j m_j(nu)!, l(nu)) for every partition nu of one size, keyed by
# (size, family, component).  Values are never mutated, so a race only
# computes an entry twice; it needs no lock.
_MONOMIALS: dict[tuple[int, Family, int], tuple[tuple[Monomial, int, int], ...]] = {}


def _monomials(size: int, family: Family, component: int) -> tuple[tuple[Monomial, int, int], ...]:
    hit = _MONOMIALS.get((size, family, component))
    if hit is None:
        hit = tuple((*_monomial(nu, family, component), len(nu)) for nu in partitions_of(size))
        hit = _MONOMIALS.setdefault((size, family, component), hit)
    return hit


def _shifted_table(
    upto: int, c: ShiftLike, component: int, lowest: int, b: Fraction,
    family: Family = Family.T, sign: int = 1,
) -> list[Numerators]:
    """b * [s_lowest(sign*v + c), ..., s_upto(sign*v + c)] as integer numerators over
    D = b.den * upto! * d^upto (module docstring); the arguments are checked by the caller."""
    v, d = _schur_numerators(upto, c)
    top = max(upto, 0)
    den = b.denominator * factorial(top) * d**top
    u = [b.numerator * x * d ** (top - i) for i, x in enumerate(v)]  # D * b * s_i(c)
    sizes = [_monomials(n, family, component) for n in range(upto + 1)]
    quotients: list[dict[int, int]] = [{} for _ in u]  # u_i // weight, per distinct weight
    table = []
    for k in range(lowest, upto + 1):
        terms = []
        for n in range(k + 1):
            s = u[k - n]
            if s:
                known = quotients[k - n]
                for mono, weight, length in sizes[n]:
                    q = known.get(weight)
                    if q is None:
                        q = known[weight] = s // weight
                    terms.append((mono, -q if sign < 0 and length & 1 else q))
        table.append((terms, den))
    return table


def schur_shifted_table(
    upto: int, c: ShiftLike, component: int = 1, ncomp: int = 1, lowest: int = 0,
    coeff: RationalLike = 1, family: Family = Family.T, sign: int = 1,
) -> list[Poly]:
    """coeff * [s_lowest(sign*v + c), ..., s_upto(sign*v + c)] in the variables v
    of ``family`` in ``component``, each entry by the closed form (module docstring);
    entries at a negative index are zero.  The arguments are checked before any cache
    is read, since 1.0 and True would key the monomial caches as 1."""
    if not 1 <= _json_int(component) <= _ncomp(ncomp):
        raise ValueError(f"component {component} outside ambient range 1..{ncomp}")
    if not isinstance(family, Family):
        raise TypeError(f"expected a Family member, got {family!r}")
    if _json_int(sign) not in (-1, 1):
        raise ValueError(f"sign must be -1 or 1, got {sign!r}")
    b = exact_fraction(coeff)
    table = _shifted_table(upto, c, component, _json_int(lowest), b, family, sign)
    return [Poly._reduced(dict(terms), den, ncomp) for terms, den in table]


def elementary_schur(j: int, component: int = 1, ncomp: int = 1) -> Poly:
    """s_j in the t-variables of one component, the c = 0 case of the closed form;
    zero for j < 0."""
    return schur_shifted(j, None, component, ncomp)


def _schur_numerators(upto: int, c: ShiftLike) -> tuple[list[int], int]:
    """(v, d) of ``schur_constants``: v_n = upto! d^n s_n(c) for n = 0..upto."""
    _json_int(upto)
    cv = ShiftVector.coerce(c)
    d = lcm(*[x.denominator for x in cv.entries])
    weights = [
        (i, i * x.numerator * (d // x.denominator) * d ** (i - 1))
        for i, x in enumerate(cv.entries[:upto], start=1)
        if x
    ]
    v = [factorial(max(upto, 0))]
    for n in range(1, upto + 1):
        v.append(sum(w * v[n - i] for i, w in weights if i <= n) // n)
    return v[:upto + 1], d  # v has s_0 at upto < 0


def schur_constants(upto: int, c: ShiftLike) -> list[Fraction]:
    """[s_0(c), ..., s_upto(c)] for a constant argument vector, by the recurrence
    n * s_n = sum_{i=1}^{n} i * c_i * s_{n-i}.

    It runs on v_n = upto! d^n s_n(c), with d the lcm of the denominators of c,
    as n * v_n = sum_i i * d^i c_i * v_{n-i}.  Each v_n is an integer: n! divides
    upto!, and n! d^n s_n(c) = sum over partitions nu of n of
    n!/prod_j m_j(nu)! * prod_j (d^j c_j)^{m_j(nu)} is one.
    """
    v, d = _schur_numerators(upto, c)
    return [Fraction(x, v[0] * d**n) for n, x in enumerate(v)]


def schur_constant(j: int, c: ShiftLike) -> Fraction:
    """s_j evaluated at constants; zero for j < 0."""
    if _json_int(j) < 0:
        return Fraction(0)
    return schur_constants(j, c)[j]


def schur_shifted(j: int, c: ShiftLike, component: int = 1, ncomp: int = 1) -> Poly:
    """s_j(t + c), the one entry of ``schur_shifted_table`` from j to j; zero for j < 0."""
    return schur_shifted_table(j, c, component, ncomp, lowest=j)[0]


def _hit(entries: list[Fraction], d: int, target: Fraction) -> None:
    """Set c_d so that s_d(c) = target: s_d(c) = c_d + s_d(c_1, ..., c_{d-1}, 0)."""
    entries[d - 1] = target - schur_constant(d, entries[: d - 1])


def solve_shifts(b: Sequence[RationalLike]) -> ShiftVector:
    """Find c with sum_{i=0}^{M} b_i s_i(t) = b_M s_M(t + c).

    ``b`` lists b_0..b_M and b_M must be nonzero.  The relation forces
    s_d(c) = b_{M-d}/b_M for d = 0..M, hit one d at a time in increasing order.
    """
    bs = [exact_fraction(x) for x in b]
    if not bs:
        raise ValueError("need at least b_0")
    M = len(bs) - 1
    if not bs[M]:
        raise ValueError("leading coefficient b_M must be nonzero")
    c = [Fraction(0)] * M
    for d in range(1, M + 1):
        _hit(c, d, bs[M - d] / bs[M])
    return ShiftVector(tuple(c))


def canonicalize_shifts(
    partition: Partition | Iterable[int], shifts: Sequence[ShiftLike]
) -> list[ShiftVector]:
    """Overwrite the constrained entries of each column's shift vector.

    Entry positions follow ``constrained_indices``; each constrained entry
    c_d is set so that s_d of the column vector is zero.  Applied in
    increasing d order so earlier overwrites feed later ones.  Every column
    vector must have exactly its expected length.
    """
    p = Partition.coerce(partition)
    m = len(p)
    if len(shifts) != m:
        raise ValueError(f"expected {m} shift vectors, got {len(shifts)}")
    lengths = expected_shift_lengths(p)
    result: list[ShiftVector] = []
    for j in range(1, m + 1):
        cv = ShiftVector.coerce(shifts[j - 1])
        if len(cv) != lengths[j - 1]:
            raise ValueError(
                f"column {j} shift vector must have length {lengths[j - 1]}, "
                f"got {len(cv)}"
            )
        entries = list(cv.entries)
        for d in constrained_indices(p)[j - 1]:
            _hit(entries, d, Fraction(0))
        result.append(ShiftVector(tuple(entries)))
    return result
