"""Fermionic form of the KP and s-component KP bilinear identities.

Under the s-component boson-fermion correspondence a state with species
charges l = (l_1, .., l_s) is a sum of products of Schur functions, one per
species b in the times t^(b).  ``hirota`` states the identities and their
element B; for polynomial tau-functions it is a finite sum:

1. Expand tau = sum xi_{mu(1)..mu(s)} prod_b s_{mu(b)}(t^(b)), one species
   at a time.  The Hall form is diagonal on t-monomials, so
   xi_mu = sum_nu a_nu chi^mu_nu / prod_k k^{m_k(nu)}, with a_nu = [t^nu] tau
   and the characters chi^mu_nu of the symmetric group (Murnaghan-Nakayama
   rule on beta-numbers).
2. Write species b of a state at charge l_b as the Maya set
   {mu_i - i + l_b}; below a floor that every state of species b shares,
   each position is occupied.  psi_i inserts i with sign
   (-1)^{#occupied > i} and psi*_k removes k with sign (-1)^{#occupied > k}.
3. The identity holds exactly when B is empty.

A nonempty B is bosonized species by species: a state S at charge c becomes
s_lambda with lambda_i = S_i + i - c, and
[t^nu] s_lambda = chi^lambda_nu / prod_k m_k(nu)!.  ``boson_image`` is the
same map against the vacuum at charge 0, whose image is s_empty = 1, so a
state vector {S: c_S} bosonizes as the matrix {S: {vacuum: c_S}}; ``fock``'s
oracle sends the Plucker coordinates of its generators through it.

The expansion, B and the bosonization run on integer numerators over one
common denominator each; only the coefficients they return are fractions.
Two tables outlive a call, in dicts whose values are never mutated, so a
race only computes an entry twice and needs no lock:

- the character rows that ``schur_expansion`` reads through ``characters``,
  no larger than the entries it expands;
- the term list of each s_lambda that ``expand`` reads,
  [(t^nu, chi^lambda_nu |lambda|! / prod_k m_k(nu)!)], keyed by (lambda,
  family, component): per size n, family and component at most p(n) shapes
  of at most p(n) terms, a size that one failing check's row table already
  reaches at its peak.

The shapes of B reach twice the size of tau, so ``bosonize``, and with it
``boson_image``, builds the rows behind a missing term list in a table that
it drops on return.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from math import factorial, lcm, prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .partitions import partitions_of
from .polycore import Family, Monomial, Poly
from .schur import _monomial

PartitionKey = tuple[int, ...]
Maya = tuple[int, ...]  # occupied positions above the floor, decreasing
Label = tuple[int, ...]  # one charge per species
State = tuple[Maya, ...]  # one Maya set per species
StateMatrix = dict[State, dict[State, int]]
# (sign, species index a, label of the psi side, label of the psi* side, shift)
Term = tuple[int, int, Label, Label, int]
# chi^lambda_nu over nu with parts <= top, keyed by (lambda, top)
RowTable = dict[tuple[PartitionKey, int], dict[PartitionKey, int]]

# the term list of one s_lambda (module docstring)
Expansion = tuple[tuple[Monomial, int], ...]

_CHARACTERS: RowTable = {}
_EXPANSIONS: dict[tuple[PartitionKey, Family, int], Expansion] = {}


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


def schur_expansion(tau: Poly, species: int) -> dict[tuple[PartitionKey, ...], Fraction]:
    """The nonzero xi of tau = sum xi_{mu(1)..mu(s)} prod_b s_{mu(b)}(t^(b)).

    Keys hold one partition per species.  The transform runs on integer
    numerators over one common denominator.  Raises ``ValueError`` unless
    every variable of tau is a t-variable of a component 1..``species``.
    """
    ratios: dict[tuple[PartitionKey, ...], tuple[int, int]] = {}
    for mono, a in tau.terms.items():
        nus: list[list[int]] = [[] for _ in range(species)]
        weight = a.denominator
        for v, e in mono:
            if v.family != Family.T or not 1 <= v.component <= species:
                raise ValueError(
                    f"the check takes t-variables of components 1..{species} only, got {v}"
                )
            nus[v.component - 1] += [v.index] * e
            weight *= v.index**e
        ratios[tuple(tuple(nu[::-1]) for nu in nus)] = (a.numerator, weight)
    den = lcm(*(d for _, d in ratios.values()))
    coeffs = {key: n * (den // d) for key, (n, d) in ratios.items()}
    for b in range(species):
        groups: dict[tuple, dict[PartitionKey, int]] = {}
        for key, c in coeffs.items():
            groups.setdefault((key[:b], sum(key[b]), key[b + 1:]), {})[key[b]] = c
        coeffs = {}
        for (head, size, tail), group in groups.items():
            for lam in partitions_of(size):
                row = characters(lam)
                c = sum(row.get(nu, 0) * n for nu, n in group.items())
                if c:
                    coeffs[head + (lam,) + tail] = c
    return {key: Fraction(c, den) for key, c in coeffs.items()}


def _maya(mu: PartitionKey, charge: int, floor: int) -> Maya:
    """{mu_i - i + charge} for i = 1..charge - floor."""
    return tuple(
        p - i + charge for i, p in enumerate(mu + (0,) * (charge - floor - len(mu)), 1)
    )


def fock_states(
    entries: Mapping[Label, Poly], species: int
) -> tuple[dict[Label, list[tuple[State, int]]], int]:
    """Each entry's Schur expansion as states with integer numerators, and d.

    The state of xi_mu at label l has numerator xi_mu * d; species b holds
    the Maya set {mu_i - i + l_b} above a floor f_b shared by every state of
    species b, so it lists l_b - f_b positions.
    """
    xis = {label: schur_expansion(tau, species) for label, tau in entries.items()}
    den = lcm(*(c.denominator for xi in xis.values() for c in xi.values()))
    floors = [
        min((label[b] - len(key[b]) for label, xi in xis.items() for key in xi), default=0)
        for b in range(species)
    ]
    states = {
        label: [
            (tuple(map(_maya, key, label, floors)), c.numerator * (den // c.denominator))
            for key, c in xi.items()
        ]
        for label, xi in xis.items()
    }
    return states, den


def sato_b(states: Mapping[Label, list[tuple[State, int]]], terms: Iterable[Term]) -> StateMatrix:
    """B = sum over terms of sign * sum_i psi^(a)_i tau^(l) (x) psi*^(a)_{i + shift} tau^(l').

    A term is (sign, a, l, l', shift), with ``a`` the 0-based species;
    ``states`` are those of ``fock_states``.  B comes back as {A: {B': c}}
    with c over d^2; zero entries are dropped, so B = 0 is the empty dict.
    """
    out: StateMatrix = {}
    for sign, a, left, right, shift in terms:
        removed: dict[int, list[tuple[State, int]]] = {}
        for state, c in states[right]:
            maya = state[a]
            for r, k in enumerate(maya):
                removed.setdefault(k - shift, []).append(
                    (state[:a] + (maya[:r] + maya[r + 1:],) + state[a + 1:], -c if r & 1 else c)
                )
        for state, c in states[left]:
            maya = state[a]
            floor = left[a] - len(maya)
            members = set(maya)
            ascending = maya[::-1]
            for i, targets in removed.items():
                if i < floor or i in members:
                    continue
                above = len(maya) - bisect_right(ascending, i)
                ca = -sign * c if above & 1 else sign * c
                inserted = state[:a] + (maya[:above] + (i,) + maya[above:],) + state[a + 1:]
                row = out.setdefault(inserted, {})
                for b, cb in targets:
                    row[b] = row.get(b, 0) + ca * cb
    rows = ((a, {b: c for b, c in row.items() if c}) for a, row in out.items())
    return {a: row for a, row in rows if row}


def _shape(maya: Maya, charge: int) -> PartitionKey:
    return tuple(lam for lam in (p + i - charge for i, p in enumerate(maya, 1)) if lam)


def _times(
    left: Sequence[tuple[Monomial, int]], right: Sequence[tuple[Monomial, int]]
) -> list[tuple[Monomial, int]]:
    return [(ml + mr, cl * cr) for ml, cl in left for mr, cr in right]


def _expansion(lam: PartitionKey, family: Family, component: int, table: RowTable) -> Expansion:
    """s_lambda's kept term list; on a miss its rows are read from and left in ``table``."""
    hit = _EXPANSIONS.get((lam, family, component))
    if hit is None:
        size = factorial(sum(lam))
        terms = []
        for nu, chi in _row(lam, sum(lam), table).items():
            mono, weight = _monomial(nu, family, component)
            terms.append((mono, chi * (size // weight)))
        hit = _EXPANSIONS.setdefault((lam, family, component), tuple(terms))
    return hit


def expand(
    states: Iterable[State], charges: Label, family: Family, table: RowTable
) -> tuple[dict[State, Sequence[tuple[Monomial, int]]], int]:
    """Each state as prod_b top_b! s_{lambda(S_b)} over (monomial, integer), and prod_b top_b!.

    top_b is the largest size in species b.  Each factor is the kept term
    list of s_lambda (module docstring), rescaled by top_b!/|lambda|! unless
    that is 1; only a missing list builds character rows, read from and left
    in ``table``.  Monomials sort by family, then component, so a product
    monomial is the concatenation of its factors.
    """
    shapes = {s: [_shape(maya, c) for maya, c in zip(s, charges)] for s in states}
    tops = [max((sum(sh[k]) for sh in shapes.values()), default=0) for k in range(len(charges))]
    factors: dict[tuple[PartitionKey, int], Sequence[tuple[Monomial, int]]] = {}

    def factor(lam: PartitionKey, k: int) -> Sequence[tuple[Monomial, int]]:
        hit = factors.get((lam, k))
        if hit is None:
            hit = _expansion(lam, family, k + 1, table)
            scale = factorial(tops[k]) // factorial(sum(lam))
            if scale != 1:
                hit = [(mono, c * scale) for mono, c in hit]
            factors[lam, k] = hit
        return hit

    out = {
        s: reduce(_times, [factor(lam, k) for k, lam in enumerate(lams)])
        for s, lams in shapes.items()
    }
    return out, prod(factorial(top) for top in tops)


def boson_image(vector: Mapping[State, Fraction], charges: Label, ncomp: int) -> Poly:
    """sum_S c_S prod_b s_{lambda(S_b)}(t^(b)) for {S: c_S} at species charges ``charges``:
    ``bosonize`` of {S: {vacuum: c_S}} against the vacuum at charge 0 (module docstring)."""
    d = lcm(*(c.denominator for c in vector.values()))
    vacuum = ((),) * len(charges)
    b = {s: {vacuum: c.numerator * (d // c.denominator)} for s, c in vector.items()}
    return bosonize(b, d, charges, (0,) * len(charges), ncomp)


def bosonize(b: StateMatrix, denominator: int, m: Label, q: Label, ncomp: int) -> Poly:
    """(1/d) sum B_AB prod_s s_{lambda(A_s)}(t^(s)) s_{lambda(B_s)}(y^(s)), grouped by A.

    A has species charges ``m`` and B has ``q``; both sides are ``expand``ed
    from the kept term lists, and the rows behind missing ones go into one
    table that both sides share and that is dropped on return.  Each
    product monomial is the concatenation t^(1), .., t^(s), y^(1), ..,
    y^(s) of its factors.
    """
    table: RowTable = {}
    terms_t, den_t = expand(b, m, Family.T, table)
    terms_y, den_y = expand({s for row in b.values() for s in row}, q, Family.Y, table)
    out: dict[Monomial, int] = {}
    for a, row in b.items():
        inner: dict[Monomial, int] = {}
        for s, cb in row.items():
            for my, cy in terms_y[s]:
                inner[my] = inner.get(my, 0) + cb * cy
        inner = {mono: c for mono, c in inner.items() if c}
        for mt, ct in terms_t[a]:
            for my, cy in inner.items():
                mono = mt + my
                out[mono] = out.get(mono, 0) + ct * cy
    den = denominator * den_t * den_y
    return Poly._raw({mono: Fraction(c, den) for mono, c in out.items() if c}, ncomp)

