"""Fermionic form of the single-component residue identity.

Under the boson-fermion correspondence a charge-0 state |mu> is the Schur
function s_mu(t), and the residue identity

    Res_z z^{j n} tau(t - [z^-1]) tau(y + [z^-1]) exp(sum (t_i - y_i) z^i)

is the bilinear element B = sum_i psi_i tau (x) psi*_{i + j n} tau.  For a
polynomial tau the sum is finite:

1. Expand tau = sum_mu xi_mu s_mu(t).  The Hall form is diagonal on
   t-monomials, so xi_mu = sum_nu a_nu chi^mu_nu / prod_k k^{m_k(nu)}, with
   a_nu = [t^nu] tau and the characters chi^mu_nu of the symmetric group
   (Murnaghan-Nakayama rule on beta-numbers).
2. Write each state as its Maya set {mu_i - i}; below a floor that all
   states share every position is occupied.  psi_i inserts i with sign
   (-1)^{#occupied > i} and psi*_k removes k with sign (-1)^{#occupied > k}.
3. tau satisfies the identity exactly when B is empty.

A nonempty B is bosonized back into the residue polynomial: a state S at
charge +1 becomes s_lambda(t) with lambda_i = S_i + i - 1, one at charge -1
becomes s_lambda(y) with lambda_i = S_i + i + 1, and
[t^nu] s_lambda = chi^lambda_nu / prod_k m_k(nu)!.

B and the bosonization run on integer numerators over one common
denominator; only the final coefficients are fractions.  Only the character
rows the expansion reads are kept between calls, so the cache grows with
the size of the inputs and not with the size of B, whose shapes reach twice
the size of tau: a bosonization builds its rows in a table of its own and
drops it on return.  The kept rows sit in a dict whose values are never
mutated; a race only computes an entry twice, so it needs no lock.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from types import MappingProxyType
from typing import Mapping

from .partitions import partitions_of
from .polycore import Family, Monomial, Poly, VarId

PartitionKey = tuple[int, ...]
Maya = tuple[int, ...]  # occupied positions above the floor, decreasing
StateMatrix = dict[Maya, dict[Maya, int]]
# chi^lambda_nu over nu with parts <= top, keyed by (lambda, top)
RowTable = dict[tuple[PartitionKey, int], dict[PartitionKey, int]]

_CHARACTERS: RowTable = {}


def _row(lam: PartitionKey, top: int, table: RowTable) -> dict[PartitionKey, int]:
    """The nonzero chi^lam_nu over nu of size |lam| whose parts are <= top.

    Removes a rim hook of length k = nu_1 first, then the rest of nu from
    what is left: on beta-numbers a bead moves from b down to a free place
    b - k, with sign (-1)^{beads strictly between}.  ``top`` is at most
    |lam|, so that each row is kept under one key.
    """
    hit = table.get((lam, top))
    if hit is not None:
        return hit
    size, rows = sum(lam), len(lam)
    row: dict[PartitionKey, int] = {(): 1} if not size else {}
    beads = [part + rows - 1 - i for i, part in enumerate(lam)]
    ascending = beads[::-1]
    for k in range(min(top, size), 0, -1):
        rests: dict[PartitionKey, int] = {}  # chi over the rest of nu
        for r, b in enumerate(beads):
            if b < k:
                continue
            below = bisect_right(ascending, b - k)
            if below and ascending[below - 1] == b - k:
                continue
            # the hook starts in row r, ends in row r + between, and takes one
            # box from each row in between
            between = rows - below - r - 1
            end = r + 1 + between
            rest = (*lam[:r], *(p - 1 for p in lam[r + 1:end]), lam[r] - k + between, *lam[end:])
            if not rest[-1]:
                rest = rest[:rest.index(0)]
            sign = -1 if between & 1 else 1
            for nu, chi in _row(rest, min(k, size - k), table).items():
                rests[nu] = rests.get(nu, 0) + sign * chi
        for nu, chi in rests.items():
            if chi:
                row[(k, *nu)] = chi
    return table.setdefault((lam, top), row)


def characters(lam: PartitionKey) -> Mapping[PartitionKey, int]:
    """The nonzero chi^lambda_nu over nu of size |lambda|; ``lam`` is decreasing."""
    return MappingProxyType(_row(lam, sum(lam), _CHARACTERS))


@cache
def _power(family: Family, k: int, mult: int) -> tuple[VarId, int]:
    return (VarId(family, 1, k), mult)


def _monomial(nu: PartitionKey, family: Family) -> tuple[Monomial, int]:
    """t^nu in component 1 of ``family``, with prod_k m_k(nu)!."""
    mono, weight = [], 1
    for k in sorted(set(nu)):
        mult = nu.count(k)
        mono.append(_power(family, k, mult))
        weight *= factorial(mult)
    return tuple(mono), weight


def schur_expansion(tau: Poly) -> dict[PartitionKey, Fraction]:
    """The nonzero xi_mu of tau = sum_mu xi_mu s_mu(t).

    Raises ``ValueError`` unless every variable of tau is a t-variable of
    component 1.
    """
    by_size: dict[int, dict[PartitionKey, Fraction]] = {}
    for mono, a in tau.terms.items():
        nu: list[int] = []
        weight = 1
        for v, e in mono:
            if v.family != Family.T or v.component != 1:
                raise ValueError(
                    f"the KP check takes t-variables of component 1 only, got {v}"
                )
            nu += [v.index] * e
            weight *= v.index**e
        nu.sort(reverse=True)
        by_size.setdefault(sum(nu), {})[tuple(nu)] = a / weight
    xi: dict[PartitionKey, Fraction] = {}
    for size, coeffs in by_size.items():
        for lam in partitions_of(size):
            row = characters(lam)
            c = sum(row.get(nu, 0) * a for nu, a in coeffs.items())
            if c:
                xi[lam] = c
    return xi


def sato_b(xi: Mapping[PartitionKey, Fraction], shift: int) -> tuple[StateMatrix, int]:
    """B = sum_i psi_i tau (x) psi*_{i + shift} tau as ({a: {b: numerator}}, d).

    B_ab is numerator / d.  ``a`` is a state of charge +1 and ``b`` one of
    charge -1, both as Maya sets over the floor shared by every state of
    tau; zero entries are dropped, so B = 0 is the empty dict.
    """
    den = lcm(*(c.denominator for c in xi.values()))
    floor = max((len(lam) for lam in xi), default=0)
    states = [
        (tuple(p - i for i, p in enumerate(lam + (0,) * (floor - len(lam)), 1)),
         c.numerator * (den // c.denominator))
        for lam, c in xi.items()
    ]
    removed: dict[int, list[tuple[Maya, int]]] = {}
    for maya, c in states:
        for r, k in enumerate(maya):
            removed.setdefault(k - shift, []).append(
                (maya[:r] + maya[r + 1:], -c if r & 1 else c)
            )
    out: StateMatrix = {}
    for maya, c in states:
        members = set(maya)
        ascending = maya[::-1]
        for i, targets in removed.items():
            if i < -floor or i in members:
                continue
            above = len(maya) - bisect_right(ascending, i)
            ca = -c if above & 1 else c
            row = out.setdefault(maya[:above] + (i,) + maya[above:], {})
            for b, cb in targets:
                row[b] = row.get(b, 0) + ca * cb
    for a in list(out):
        row = {b: c for b, c in out[a].items() if c}
        if row:
            out[a] = row
        else:
            del out[a]
    return out, den * den


def _shape(maya: Maya, charge: int) -> PartitionKey:
    return tuple(lam for lam in (p + i - charge for i, p in enumerate(maya, 1)) if lam)


def bosonize(b: StateMatrix, denominator: int, ncomp: int) -> Poly:
    """(1/d) sum_{a,b} B_ab s_{lambda(a)}(t) s_{lambda(b)}(y), grouped by a.

    Each Schur factor is brought to the denominator of the largest size on
    its side, so the sums stay integral.  The t- and y-monomials are
    disjoint and T sorts before Y, so each product monomial is the
    concatenation of its two factors.
    """
    shapes_t = {a: _shape(a, 1) for a in b}
    shapes_y = {s: _shape(s, -1) for row in b.values() for s in row}
    top_t = max(sum(lam) for lam in shapes_t.values())
    top_y = max(sum(lam) for lam in shapes_y.values())
    table: RowTable = {}
    monomials: dict[tuple[PartitionKey, Family], tuple[Monomial, int]] = {}

    def schur_terms(lam: PartitionKey, family: Family) -> list[tuple[Monomial, int]]:
        # |lambda|! * s_lambda as (monomial, integer)
        size = sum(lam)
        terms = []
        for nu, chi in _row(lam, size, table).items():
            hit = monomials.get((nu, family))
            if hit is None:
                hit = monomials[nu, family] = _monomial(nu, family)
            terms.append((hit[0], chi * factorial(size) // hit[1]))
        return terms

    terms_y = {lam: schur_terms(lam, Family.Y) for lam in set(shapes_y.values())}
    out: dict[Monomial, int] = {}
    for a, row in b.items():
        inner: dict[Monomial, int] = {}
        for s, cb in row.items():
            lam = shapes_y[s]
            cb *= factorial(top_y) // factorial(sum(lam))
            for my, cy in terms_y[lam]:
                inner[my] = inner.get(my, 0) + cb * cy
        inner = {m: c for m, c in inner.items() if c}
        lam = shapes_t[a]
        scale = factorial(top_t) // factorial(sum(lam))
        for mt, ct in schur_terms(lam, Family.T):
            ct *= scale
            for my, cy in inner.items():
                m = mt + my
                out[m] = out.get(m, 0) + ct * cy
    den = denominator * factorial(top_t) * factorial(top_y)
    return Poly({m: Fraction(c, den) for m, c in out.items() if c}, ncomp)


def kp_obstruction(tau: Poly, shift: int) -> Poly:
    """The residue polynomial of the identity with z^shift, via B."""
    b, den = sato_b(schur_expansion(tau), shift)
    return bosonize(b, den, tau.ncomp) if b else Poly.zero(tau.ncomp)
