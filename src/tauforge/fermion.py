"""Fermionic form of the KP and s-component KP bilinear identities.

Under the s-component boson-fermion correspondence a state with species
charges l = (l_1, .., l_s) is a sum of products of Schur functions, one per
species b in the times t^(b).  ``hirota`` states the identities and their
element B; for polynomial tau-functions it is a finite sum:

1. Expand tau = sum xi_{mu(1)..mu(s)} prod_b s_{mu(b)}(t^(b)), one species
   at a time.  The Hall form is diagonal on t-monomials, so
   xi_mu = sum_nu a_nu chi^mu_nu / prod_k k^{m_k(nu)}, with a_nu = [t^nu] tau
   and the characters chi^mu_nu of the symmetric group (Murnaghan-Nakayama
   rule on beta-numbers); the xi of one size are the sum over nu of
   a_nu / prod_k k^{m_k(nu)} times the column chi^._nu.
2. Write species b of a state at charge l_b as its occupied positions
   {mu_i - i + l_b}; below a floor that every state of species b shares,
   each position is occupied.  psi_i inserts i with sign
   (-1)^{#occupied > i} and psi*_k removes k with sign (-1)^{#occupied > k}.
3. The identity holds exactly when B is empty.

A state is one int under a layout that ``fock_states`` builds per call.
Species b owns the bit field [off_b, off_b + w_b): position p is bit
off_b + p - floor_b, and w_b = max(l_b + mu(b)_1) - floor_b over the
states, so the field ends just above the highest occupied position; a
species whose every state is empty at one charge has w_b = 0.  psi*_k
clears the bit of position k and psi_i sets that of i, and either sign is
the parity of (state & the bits above it in the field).bit_count(), the
occupied positions above; positions below the floor are occupied in every
state and never counted.  The inserted position i = k - j n_a lies at or
below the removed k, so it stays inside the field as long as j n_a >= 0.

A nonempty B is bosonized species by species: a state S at charge c becomes
s_lambda with lambda_i = S_i + i - c, and
[t^nu] s_lambda = chi^lambda_nu / prod_k m_k(nu)!.  Each distinct state is
decoded from its bits once, each monomial of a call gets an integer id,
and the sums run on those ids; only the nonzero terms of the result are
built as monomials.

Certificate.  Every state of a collection has k = sum_b (l_b - floor_b) bits,
whatever its label l, so the states with weight (-1)^{sum_b C(l_b, 2)} form one
T in the k-th exterior power of the layout's bits.  As a wedge of the whole
int, psi_p carries the parity of every set bit above p: species a's own sign
times that of the species after a, sum_{b>a} (m_b + q_b) on the two sides of
an (m, q) sector, which has the parity of sum_{b<a} (m_b + q_b) + m_a + q_a.
The weights of m - e_a and q + e_a are -(-1)^{m_a + q_a} times those of m and
q, so the (m, q) part of sum_p psi_p T (x) psi*_p T is that sector's B at
j = 0 up to one sign, and the sum vanishes exactly when T is decomposable
(Plucker).  ``decomposable`` decides it with no elimination, prime or
tolerance: for one state S0 of T and each bit i of S0, the witness
w_i = sum_p (-1)^{#(S0 - i) above p} T[S0 - i + p] e_p is T contracted by
S0 - i, so it lies in W when T spans the line of W's wedge; and the w_i are
independent, w_i having T[S0] at e_i and 0 at every other bit of S0, so
w_i ^ T = 0 for all k of them makes T their wedge.  ``wedge``, the one
exterior product on states, forms w_i ^ T here and the oracle's wedge in
``fock``: a factor enters in front, e_p ^ S being S + p with psi_p's sign.

The kernel reads a field only through its offset, floor and width, so the
fields may sit at any offsets that do not overlap: ``fock_states`` packs
them in species order, and ``fock``'s wedge runs them in descending
component order, component 1 on top.

The expansion, B and the bosonization run on integer numerators over one
common denominator each: ``schur_expansion`` reads tau's numerators, and
``bosonize`` returns an integer ``Poly``, reduced by its common factor.
Two tables outlive a call, in dicts whose values are never mutated, so a
race only computes an entry twice and needs no lock:

- the dense character columns that ``schur_expansion`` reads, keyed by the size
  n: the partitions lambda of n and, for each nu of n, the integer column
  [chi^lambda_nu for each lambda], p(n)^2 integers, only for the sizes of the
  entries it expands; the character rows behind a new size are built in a
  table that is dropped on return;
- the term list of each s_lambda that ``expand`` reads,
  [(t^nu, chi^lambda_nu |lambda|! / prod_k m_k(nu)!)], keyed by (lambda,
  family, component): per size n, family and component at most p(n) shapes
  of at most p(n) terms, a size that one failing check's row table already
  reaches at its peak.

The shapes of B reach twice the size of tau, so ``bosonize`` builds the rows
behind a missing term list in a table that it drops on return.
"""

from __future__ import annotations

from bisect import bisect_right
from math import factorial, gcd, lcm, prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from .partitions import partitions_of
from .polycore import Family, Monomial, Poly
from .schur import _monomial

PartitionKey = tuple[int, ...]
Label = tuple[int, ...]  # one charge per species
StateMatrix = dict[int, dict[int, int]]  # B over states encoded in a layout
# (sign, species index a, label of the psi side, label of the psi* side, shift)
Term = tuple[int, int, Label, Label, int]
# chi^lambda_nu over nu with parts <= top, keyed by (lambda, top)
RowTable = dict[tuple[PartitionKey, int], dict[PartitionKey, int]]

# the term list of one s_lambda (module docstring)
Expansion = tuple[tuple[Monomial, int], ...]

_CHARACTERS: dict[int, tuple[list[PartitionKey], dict[PartitionKey, list[int]]]] = {}
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


def _characters(size: int) -> tuple[list[PartitionKey], dict[PartitionKey, list[int]]]:
    """The partitions lambda of ``size`` and, for each nu of ``size``, the column
    [chi^lambda_nu for each lambda], kept in ``_CHARACTERS``; the rows behind a new
    size are built in a table dropped on return."""
    hit = _CHARACTERS.get(size)
    if hit is None:
        shapes = list(partitions_of(size))
        table: RowTable = {}
        rows = [_row(lam, size, table) for lam in shapes]
        hit = _CHARACTERS.setdefault(size, (shapes, {
            nu: [row.get(nu, 0) for row in rows] for nu in shapes}))
    return hit


def schur_expansion(tau: Poly, species: int) -> tuple[dict[tuple[PartitionKey, ...], int], int]:
    """The nonzero xi of tau = sum xi_{mu(1)..mu(s)} prod_b s_{mu(b)}(t^(b)) as
    ({key: numerator}, d), keys holding one partition per species.

    The transform runs on tau's integer numerators over tau.den times the lcm of
    the weights prod_k k^{m_k(nu)}, and the result is reduced by its common
    factor, so d is the lcm of the xi's reduced denominators.  Raises
    ``ValueError`` unless every variable of tau is a t-variable of a component
    1..``species``.
    """
    ratios: dict[tuple[PartitionKey, ...], tuple[int, int]] = {}
    t_family = Family.T  # a local: read once per variable
    for mono, num in tau.numerators.items():
        nus: list[list[int]] = [[] for _ in range(species)]
        weight = 1
        for v, e in mono:
            if v.family != t_family or not 1 <= v.component <= species:
                raise ValueError(
                    f"the check takes t-variables of components 1..{species} only, got {v}"
                )
            nus[v.component - 1] += [v.index] * e
            weight *= v.index**e
        ratios[tuple(tuple(nu[::-1]) for nu in nus)] = (num, weight)
    den = lcm(*(d for _, d in ratios.values()))
    coeffs = {key: n * (den // d) for key, (n, d) in ratios.items()}
    den *= tau.den
    for b in range(species):
        groups: dict[tuple, dict[PartitionKey, int]] = {}
        for key, c in coeffs.items():
            groups.setdefault((key[:b], sum(key[b]), key[b + 1:]), {})[key[b]] = c
        coeffs = {}
        for (head, size, tail), group in groups.items():
            shapes, columns = _characters(size)
            acc = None
            for nu, n in group.items():
                column = columns[nu]
                acc = [n * x for x in column] if acc is None else [
                    a + n * x for a, x in zip(acc, column)]
            for lam, c in zip(shapes, acc):
                if c:
                    coeffs[head + (lam,) + tail] = c
    common = gcd(den, *coeffs.values())
    return {key: c // common for key, c in coeffs.items()}, den // common


class Field(NamedTuple):
    """Species b's bits in a state: position p is bit offset + p - floor."""

    offset: int
    floor: int
    width: int


Layout = tuple[Field, ...]


def _layout(keys: Sequence[tuple[Label, tuple[PartitionKey, ...]]], species: int) -> Layout:
    """The fields of the states mu = (mu(1), .., mu(s)) at species charges l, for
    every (l, mu) of ``keys``.

    Species b's floor is the least l_b - len(mu(b)), below which every state
    fills every position, and its field ends above the highest occupied
    position, at l_b + mu(b)_1, or at l_b where mu(b) is empty; the fields
    are packed in species order.
    """
    fields, offset = [], 0
    for b in range(species):
        floor = min((label[b] - len(key[b]) for label, key in keys), default=0)
        top = max((label[b] + max(key[b], default=0) for label, key in keys), default=floor)
        fields.append(Field(offset, floor, top - floor))
        offset += top - floor
    return tuple(fields)


def _encode(key: tuple[PartitionKey, ...], charges: Label, layout: Layout) -> int:
    """The state mu at species charges l as one int: the bits of the positions
    mu(b)_i - i + l_b, and of every position from the floor up to l_b - len(mu(b))."""
    code = 0
    for mu, c, (offset, floor, _) in zip(key, charges, layout):
        bits = (1 << (c - len(mu) - floor)) - 1
        for i, part in enumerate(mu, 1):
            bits |= 1 << (part - i + c - floor)
        code |= bits << offset
    return code


def _shapes(state: int, charges: Label, layout: Layout) -> tuple[PartitionKey, ...]:
    """lambda(S_b) of each species b of ``state``: lambda_i = S_i + i - l_b over the
    occupied positions S_1 > S_2 > .. of its field, up to the first zero part."""
    out = []
    for c, (offset, floor, width) in zip(charges, layout):
        bits = (state >> offset) & ((1 << width) - 1)
        lam, row = [], 1
        while bits:
            k = bits.bit_length() - 1
            part = floor + k + row - c
            if not part:
                break
            lam.append(part)
            bits ^= 1 << k
            row += 1
        out.append(tuple(lam))
    return tuple(out)


def fock_states(
    entries: Mapping[Label, Poly], species: int
) -> tuple[dict[Label, list[tuple[int, int]]], int, Layout]:
    """Each entry's Schur expansion as states with integer numerators, d, and the layout.

    The state of xi_mu at label l has numerator xi_mu * d; species b holds
    the positions {mu_i - i + l_b} in its field of the layout (module
    docstring).
    """
    xis = {label: schur_expansion(tau, species) for label, tau in entries.items()}
    den = lcm(*(d for _, d in xis.values()))
    layout = _layout([(label, key) for label, (xi, _) in xis.items() for key in xi], species)
    states = {
        label: [(_encode(key, label, layout), c * (den // d)) for key, c in xi.items()]
        for label, (xi, d) in xis.items()
    }
    return states, den, layout


def wedge(vector: Mapping[int, int], factor: Iterable[tuple[int, int]]) -> dict[int, int]:
    """f ^ T for T = ``vector`` and f = sum c e over the (one-bit int e, c) of ``factor``:
    e ^ S is S | e, signed by the parity of the set bits of S above e, or 0 when e
    is in S.  Zero terms are dropped, so f ^ T = 0 is the empty dict."""
    out: dict[int, int] = {}
    for e, ce in factor:
        higher = -(e << 1)
        for state, c in vector.items():
            if not state & e:
                v = -ce * c if (state & higher).bit_count() & 1 else ce * c
                out[state | e] = out.get(state | e, 0) + v
    for s in [s for s, c in out.items() if not c]:  # in place: no copy of a nonzero f ^ T
        del out[s]
    return out


def decomposable(states: Mapping[Label, list[tuple[int, int]]]) -> bool:
    """Whether T = sum_l (-1)^{sum_b C(l_b, 2)} sum_S c_S S, over the labels and states
    of ``fock_states``, is decomposable: whether w_i ^ T = 0 over Z for the witness
    w_i of each bit of one state (module docstring).  True makes every (m, q)
    sector vanish at j = 0."""
    vector = {}
    for label, listed in states.items():
        flip = sum(x * (x - 1) // 2 for x in label) & 1
        for state, c in listed:
            vector[state] = -c if flip else c
    pivot = next(iter(vector), 0)
    positions = [1 << p for p in range(max(vector, default=0).bit_length())]
    for bit in (e for e in positions if pivot & e):
        rest = pivot ^ bit
        witness = [
            (e, -c if (rest & -(e << 1)).bit_count() & 1 else c)
            for e in positions if not rest & e and (c := vector.get(rest | e))
        ]
        if wedge(vector, witness):
            return False
    return True


def sato_b(
    states: Mapping[Label, list[tuple[int, int]]], layout: Layout, terms: Iterable[Term]
) -> StateMatrix:
    """B = sum over terms of sign * sum_i psi^(a)_i tau^(l) (x) psi*^(a)_{i + shift} tau^(l').

    A term is (sign, a, l, l', shift), with ``a`` the 0-based species and
    shift >= 0, so that no inserted position passes the top of its field;
    ``states`` and ``layout`` are those of ``fock_states``.  psi*_k clears
    the bit of position k and psi_i sets that of i, each signed by the
    parity of the set bits above it in the field; positions i below the
    floor are occupied in every state and are skipped.  B comes back as
    {A: {B': c}} with c over d^2; zero entries are dropped, so B = 0 is the
    empty dict.
    """
    out: StateMatrix = {}
    for sign, a, left, right, shift in terms:
        offset, _, width = layout[a]
        field = ((1 << width) - 1) << offset
        removed: dict[int, list[tuple[int, int]]] = {}
        for state, c in states[right]:
            bits = state & field
            above = 0
            while bits:
                k = bits.bit_length() - 1
                bits ^= 1 << k
                if k - shift >= offset:
                    removed.setdefault(k - shift, []).append(
                        (state ^ (1 << k), -c if above & 1 else c)
                    )
                above += 1
        inserts = [(1 << i, field & -(2 << i), targets) for i, targets in removed.items()]
        for state, c in states[left]:
            for bit, higher, targets in inserts:
                if state & bit:
                    continue
                ca = -sign * c if (state & higher).bit_count() & 1 else sign * c
                row = out.setdefault(state | bit, {})
                for b, cb in targets:
                    row[b] = row.get(b, 0) + ca * cb
    rows = ((a, {b: c for b, c in row.items() if c}) for a, row in out.items())
    return {a: row for a, row in rows if row}


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
    states: Iterable[int], layout: Layout, charges: Label, family: Family, table: RowTable
) -> tuple[dict[int, list[tuple[int, int]]], list[list[Monomial]], int]:
    """Each state as prod_b top_b! s_{lambda(S_b)} over (monomial id, integer), the
    monomials by species and id, and prod_b top_b!.

    top_b is the largest size in species b.  Each factor is the kept term
    list of s_lambda (module docstring), rescaled by top_b!/|lambda|!; only a
    missing list builds character rows, read from and left in ``table``.
    A monomial of species b gets the id of its place in the b-th list, and a
    product the mixed-radix id sum_b id_b * prod_{b' < b} len(list b').
    """
    shapes = {s: _shapes(s, charges, layout) for s in states}
    tops = [max((sum(sh[k]) for sh in shapes.values()), default=0) for k in range(len(charges))]
    ids: list[dict[Monomial, int]] = [{} for _ in charges]
    factors: dict[tuple[PartitionKey, int], list[tuple[int, int]]] = {}
    for lams in shapes.values():
        for k, lam in enumerate(lams):
            if (lam, k) not in factors:
                index = ids[k]
                scale = factorial(tops[k]) // factorial(sum(lam))
                factors[lam, k] = [
                    (index.setdefault(mono, len(index)), c * scale)
                    for mono, c in _expansion(lam, family, k + 1, table)
                ]
    out = {}
    for s, lams in shapes.items():
        terms, step = factors[lams[0], 0], len(ids[0])
        for k in range(1, len(lams)):
            terms = [(i + step * j, ci * cj) for i, ci in terms for j, cj in factors[lams[k], k]]
            step *= len(ids[k])
        out[s] = terms
    return out, [list(index) for index in ids], prod(factorial(top) for top in tops)


def _monomial_of(key: int, monomials: Sequence[Sequence[Monomial]]) -> Monomial:
    """The product monomial of a mixed-radix id of ``expand``."""
    mono: Monomial = ()
    for listed in monomials:
        key, k = divmod(key, len(listed))
        mono += listed[k]
    return mono


def bosonize(b: StateMatrix, layout: Layout, denominator: int, m: Label, q: Label,
             ncomp: int) -> Poly:
    """(1/d) sum B_AB prod_s s_{lambda(A_s)}(t^(s)) s_{lambda(B_s)}(y^(s)), grouped by A.

    A has species charges ``m`` and B has ``q``, both in ``layout``; both
    sides are ``expand``ed from the kept term lists, and the rows behind
    missing ones go into one table that both sides share and that is
    dropped on return.  The y-sum of each A, and then the product, are
    summed on monomial ids, the product in one row of t-ids per y-id; only
    a nonzero term's monomial is built, as the concatenation t^(1), ..,
    t^(s), y^(1), .., y^(s) of its factors.
    """
    table: RowTable = {}
    terms_t, monos_t, den_t = expand(b, layout, m, Family.T, table)
    terms_y, monos_y, den_y = expand({s for row in b.values() for s in row}, layout, q, Family.Y,
                                     table)
    out: dict[int, dict[int, int]] = {}  # {y-id: {t-id: numerator}}
    for a, row in b.items():
        inner: dict[int, int] = {}
        for s, cb in row.items():
            for y, cy in terms_y[s]:
                inner[y] = inner.get(y, 0) + cb * cy
        listed = terms_t[a]
        for y, cy in inner.items():
            if cy:
                acc = out.get(y)
                if acc is None:
                    acc = out[y] = {}
                for t, ct in listed:
                    acc[t] = acc.get(t, 0) + ct * cy
    den = denominator * den_t * den_y
    common = den  # of every numerator and den, taken before any monomial is built
    for acc in out.values():
        common = gcd(common, *acc.values())
    names: dict[int, Monomial] = {}
    terms: dict[Monomial, int] = {}
    for y, acc in out.items():
        my = _monomial_of(y, monos_y)
        for t, c in acc.items():
            if c:
                mt = names.get(t)
                if mt is None:
                    mt = names[t] = _monomial_of(t, monos_t)
                terms[mt + my] = c // common
    return Poly._raw(terms, den // common, ncomp)
