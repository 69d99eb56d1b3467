"""Independent reference computations used to cross-check the library.

Everything here deliberately takes a different route than the package code:
truncated series products instead of recurrences, rational evaluation
instead of symbolic identity, operator exponentials instead of direct
substitution, permutation sums instead of Laplace expansion or Plucker
coordinates.  A bug shared by both routes would have to be made twice,
independently.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from fractions import Fraction
from functools import cache, reduce
from itertools import permutations
from math import factorial, gcd, lcm, prod
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from tauforge import (
    BasisVector,
    Family,
    GeneratorVector,
    HSpec,
    KdVProfile,
    Partition,
    Poly,
    ShiftVector,
    TauCollection,
    VarId,
    apply_D,
    elementary_schur,
    fermion,
    expected_shift_lengths,
    schur,
    schur_constants,
    schur_shifted,
    tau_mnkdv_entry,
    tvar,
    xvar,
    yvar,
)
from tauforge.hirota import _finish
from tauforge.partitions import partitions_of
from tauforge.polycore import (
    Monomial, Packing, _json_int, _term_sort_key, exact_fraction, int_tuple, packed_sum,
)
from tauforge.schur import schur_shifted_table
from tauforge.tau import _dets, _reduction_orders

# one tuple of occupied positions per species, each decreasing
State = tuple[tuple[int, ...], ...]


def eval_poly(p: Poly, values: Mapping[VarId, Fraction]) -> Fraction:
    """Evaluate at a full rational assignment; every variable must be given."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = coeff
        for v, e in mono:
            term *= Fraction(values[v]) ** e
        total += term
    return total


def shift_vars(p: Poly, shifts: Mapping[VarId, Fraction]) -> Poly:
    """Substitute v -> v + c for every (v, c) in ``shifts``, one power of a
    binomial at a time."""
    effective = {v: Fraction(c) for v, c in shifts.items() if c}
    if not effective or not p.terms:
        return p
    total = Poly.zero(p.ncomp)
    for mono, coeff in p.terms.items():
        term = Poly.const(coeff, p.ncomp)
        for v, e in mono:
            term = term * (Poly.var(v, p.ncomp) + effective.get(v, 0)) ** e
        total = total + term
    return total


def relabel_vars(p: Poly, fn: Callable[[VarId], tuple[VarId, int | Fraction]]) -> Poly:
    """Map each variable v to scale * v' (a signed/scaled renaming).

    ``fn`` returns the replacement variable and the scalar multiplier; a
    monomial v^e becomes scale^e * v'^e.  Distinct variables must stay
    distinct (no merging), which holds for all uses here (family renames and
    component folding with sign flips).
    """
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        pairs: list[tuple[VarId, int]] = []
        c = coeff
        for v, e in mono:
            w, scale = fn(v)
            c *= Fraction(scale) ** e
            pairs.append((w, e))
        if not c:
            continue
        mono2 = tuple(sorted(pairs))
        if len(set(v for v, _ in mono2)) != len(mono2):
            raise ValueError("relabeling collapsed distinct variables")
        acc = out.get(mono2)
        if acc is None:
            out[mono2] = c
        else:
            acc = acc + c
            if acc:
                out[mono2] = acc
            else:
                del out[mono2]
    return Poly(out, p.ncomp)


def schur_by_series(upto: int, component: int = 1, ncomp: int = 1) -> list[Poly]:
    """Coefficients of exp(sum t_i z^i) by multiplying truncated factors.

    Each factor exp(t_i z^i) is expanded as sum_k t_i^k z^{ik} / k!; no
    recurrence is involved anywhere.
    """
    series = [Poly.const(1, ncomp)] + [Poly.zero(ncomp) for _ in range(upto)]
    for i in range(1, upto + 1):
        t = tvar(i, component, ncomp)
        factor = [Poly.const(1, ncomp)]
        k = 1
        while i * k <= upto:
            factor.append((t**k).scale(Fraction(1, factorial(k))))
            k += 1
        out = [Poly.zero(ncomp) for _ in range(upto + 1)]
        for d in range(upto + 1):
            if not series[d].terms:
                continue
            for k, f in enumerate(factor):
                z = d + i * k
                if z > upto:
                    break
                out[z] = out[z] + series[d] * f
        series = out
    return series


def miwa_by_operator(p: Poly, family: Family, component: int, sign: int) -> list[Poly]:
    """Miwa substitution as the operator exponential of sign * sum z^{-i}/i d/dt_i.

    The exponential series terminates because every derivative strictly
    lowers the weighted degree.  Returns the z^0, z^{-1}, ... coefficients
    through z^{-weighted_degree(p)}.
    """
    idxs = sorted(
        {v.index for v in p.variables() if v.family == family and v.component == component}
    )

    def apply_op(layer: dict[int, Poly]) -> dict[int, Poly]:
        out: dict[int, Poly] = {}
        for e, q in layer.items():
            for i in idxs:
                d = q.diff(VarId(family, component, i))
                if d.terms:
                    contrib = d.scale(Fraction(sign, i))
                    key = e - i
                    prev = out.get(key)
                    out[key] = contrib if prev is None else prev + contrib
        return {e: q for e, q in out.items() if q.terms}

    total: dict[int, Poly] = {0: p}
    layer: dict[int, Poly] = {0: p}
    k = 0
    while layer:
        k += 1
        layer = {e: q.scale(Fraction(1, k)) for e, q in apply_op(layer).items()}
        for e, q in layer.items():
            prev = total.get(e)
            total[e] = q if prev is None else prev + q
    return [total.get(-k, Poly.zero(p.ncomp)) for k in range(max(weighted_degree(p), 0) + 1)]


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[VarId, int]] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def poly_mul_by_merge(p: Poly, q: Poly) -> Poly:
    """p * q by merging every pair of sorted monomial tuples and accumulating
    ``Fraction`` products in a dict; no packed integers anywhere."""
    if p.ncomp != q.ncomp:
        raise ValueError(f"ambient component count mismatch: {p.ncomp} vs {q.ncomp}")
    out: dict[Monomial, Fraction] = {}
    for mq, cq in q.terms.items():
        for mp, cp in p.terms.items():
            m = _merge_monomials(mp, mq)
            out[m] = out.get(m, Fraction(0)) + cp * cq
    return Poly(out, p.ncomp)


@cache
def difference_series(upto: int, component: int, ncomp: int) -> tuple[Poly, ...]:
    """s_0..s_upto of exp(sum (t_i - y_i) z^i) by ``schur_of_args``, once per order."""
    diffs = [
        tvar(i, component, ncomp) - yvar(i, component, ncomp) for i in range(1, upto + 2)
    ]
    return tuple(schur_of_args(upto, diffs))


def _pack(
    polys: Sequence[Poly], offsets: Mapping[VarId, int]
) -> tuple[int, list[dict[int, int]]]:
    """Each poly as {packed monomial: numerator} over one common denominator.

    A monomial packs into one integer with variable v's exponent at bit
    ``offsets[v]``, so multiplying two monomials adds their integers.
    """
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return den, [
        {
            sum(e << offsets[v] for v, e in mono): c.numerator * (den // c.denominator)
            for mono, c in p.terms.items()
        }
        for p in polys
    ]


def _residues(
    left: Sequence[Poly], right: Sequence[Poly], powers: Iterable[int], component: int
) -> dict[int, Poly]:
    """``residue_by_convolution`` at every power, from one full product.

    The products run on integer numerators with packed monomials: every
    exponent fits its bit field, since none exceeds the sum of the largest
    total degrees of L, R and the series.
    """
    powers = sorted(set(powers))
    ncomp = left[0].ncomp
    series = difference_series(max(len(left) + len(right) - powers[0] - 3, 0), component, ncomp)
    groups = (left, right, series)
    variables = sorted({v for group in groups for p in group for v in p.variables()})
    bound = sum(
        max((sum(e for _, e in mono) for p in group for mono in p.terms), default=0)
        for group in groups
    )
    width = max(bound.bit_length(), 1)
    offsets = {v: i * width for i, v in enumerate(variables)}
    (dl, left_n), (dr, right_n), (ds, series_n) = (_pack(g, offsets) for g in groups)
    product: list[dict[int, int]] = [{} for _ in range(len(left) + len(right) - 1)]
    for a, p in enumerate(left_n):
        for b, q in enumerate(right_n):
            acc = product[a + b]
            for mp, cp in p.items():
                for mq, cq in q.items():
                    acc[mp + mq] = acc.get(mp + mq, 0) + cp * cq
    mask = (1 << width) - 1
    monomials: dict[int, tuple] = {}  # unpacked once, shared by the powers
    out = {}
    for power in powers:
        total: dict[int, int] = {}
        for depth, coeff in enumerate(product):
            k = depth - power - 1
            if k >= 0:
                for mp, cp in coeff.items():
                    for ms, cs in series_n[k].items():
                        total[mp + ms] = total.get(mp + ms, 0) + cp * cs
        for m in total.keys() - monomials.keys():
            fields = [(v, (m >> offsets[v]) & mask) for v in variables]
            monomials[m] = tuple((v, e) for v, e in fields if e)
        out[power] = Poly(
            {monomials[m]: Fraction(c, dl * dr * ds) for m, c in total.items()}, ncomp
        )
    return out


def residue_by_convolution(
    left: Sequence[Poly], right: Sequence[Poly], extra_z_power: int, component: int
) -> Poly:
    """Res_z z^extra * L(z) * R(z) * exp(sum (t_i - y_i) z^i), the long way.

    ``left`` and ``right`` hold z^0, z^{-1}, ... coefficients.  Every pair is
    multiplied into the full product L * R, and only then is each product
    coefficient paired with the series coefficient that lands on z^{-1}; the
    series comes from ``schur_of_args``.
    """
    return _residues(left, right, [extra_z_power], component)[extra_z_power]


def kp_residue_obstructions(tau: Poly, powers: Iterable[int]) -> dict[int, Poly]:
    """The obstruction ``hirota_kp_check(tau, j, n)`` reports, for each j * n in
    ``powers``, computed as the residue from operator Miwa shifts and one
    full product."""
    left = miwa_by_operator(tau, Family.T, 1, -1)
    right = miwa_by_operator(
        relabel_vars(tau, lambda v: (v._replace(family=Family.Y), 1)), Family.Y, 1, +1
    )
    return _residues(left, right, powers, 1)


def mkp_residue_obstruction(
    collection: TauCollection,
    m: Sequence[int],
    q: Sequence[int],
    j: int,
    n_parts: Sequence[int],
) -> Poly:
    """The obstruction ``hirota_mkp_check(collection, m, q, j, n_parts)``
    reports, as the signed sum over components a of

        Res_z z^{m_a - q_a + j n_a - 2} tau^(m - e_a)(t - [z^-1]_a)
            tau^(q + e_a)(y + [z^-1]_a) exp(sum (t^(a)_i - y^(a)_i) z^i)

    from operator Miwa shifts and one full product per term."""
    m, q = tuple(m), tuple(q)
    total = Poly.zero(collection.ambient)
    parity = 0
    for a in range(1, len(m) + 1):
        tau_t = collection.entries.get(m[:a - 1] + (m[a - 1] - 1,) + m[a:])
        tau_y = collection.entries.get(q[:a - 1] + (q[a - 1] + 1,) + q[a:])
        if tau_t is not None and tau_y is not None:
            power = m[a - 1] - q[a - 1] + j * n_parts[a - 1] - 2
            left = miwa_by_operator(tau_t, Family.T, a, -1)
            right = miwa_by_operator(
                relabel_vars(tau_y, lambda v: (v._replace(family=Family.Y), 1)), Family.Y, a, +1
            )
            residue = _residues(left, right, [power], a)[power]
            total = total + residue.scale(-1 if parity & 1 else 1)
        parity += m[a - 1] + q[a - 1]
    return total


def det_by_permutations(rows: Sequence[Sequence[Poly]]) -> Poly:
    n = len(rows)
    ncomp = rows[0][0].ncomp
    total = Poly.zero(ncomp)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = Poly.const(1, ncomp)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
            if not prod.terms:
                break
        total = total + (prod if inversions % 2 == 0 else -prod)
    return total


def sum_of_products_by_factors(triples, ncomp: int) -> Poly:
    """sum_k c_k * a_k * b_k as the library computed it before the packed kernel
    was shared: each factor packed on its own layout, each call decoded into
    ``Fraction``s."""
    pairs = []
    for c, a, b in triples:
        for f in (a, b):
            if f.ncomp != ncomp:
                raise ValueError(f"ambient component count mismatch: {ncomp} vs {f.ncomp}")
        c = Fraction(c)
        if c and a.terms and b.terms:
            pairs.append((c, a, b))
    if not pairs:
        return Poly.zero(ncomp)
    factors = {id(f): f for _, a, b in pairs for f in (a, b)}
    tops = {key: max((e for mono in f.terms for _, e in mono), default=0)
            for key, f in factors.items()}
    width = max(tops[id(a)] + tops[id(b)] for _, a, b in pairs).bit_length()
    variables = sorted({v for f in factors.values() for mono in f.terms for v, _ in mono})
    offsets = {v: k * width for k, v in enumerate(variables)}
    packed = {key: _pack([f], offsets) for key, f in factors.items()}
    den = lcm(*[c.denominator * packed[id(a)][0] * packed[id(b)][0] for c, a, b in pairs])
    acc: dict[int, int] = {}
    for c, a, b in pairs:
        (da, (pa,)), (db, (pb,)) = packed[id(a)], packed[id(b)]
        weight = c.numerator * (den // (c.denominator * da * db))
        for kb, nb in pb.items():
            for ka, na in pa.items():
                acc[ka + kb] = acc.get(ka + kb, 0) + weight * na * nb
    mask = (1 << width) - 1
    out: dict[Monomial, Fraction] = {}
    for key, n in acc.items():
        if n:
            mono = []
            for k, v in enumerate(variables):
                e = (key >> (k * width)) & mask
                if e:
                    mono.append((v, e))
            out[tuple(mono)] = Fraction(n, den)
    return Poly(out, ncomp)


def det_by_decoded_minors(rows: Sequence[Sequence[Poly]]) -> Poly:
    """The determinant as ``det_poly`` computed it before its minors stayed
    packed: memoized Laplace expansion, every minor a decoded ``Poly`` and one
    ``sum_of_products_by_factors`` call."""
    m = len(rows)
    ncomp = rows[0][0].ncomp
    memo: dict[tuple[int, int], Poly] = {}

    def expand(i: int, cols: int) -> Poly:
        if i == m - 1:
            return rows[i][cols.bit_length() - 1]
        if (i, cols) not in memo:
            triples = []
            sign = 1
            for c in range(m):
                if cols >> c & 1:
                    if rows[i][c].terms:
                        triples.append((sign, rows[i][c], expand(i + 1, cols & ~(1 << c))))
                    sign = -sign
            memo[i, cols] = sum_of_products_by_factors(triples, ncomp)
        return memo[i, cols]

    return expand(0, (1 << m) - 1)


def weighted_degree(p: Poly) -> int:
    """Max over monomials of sum(index * exponent); -1 for the zero poly."""
    if not p.terms:
        return -1
    return max(sum(v.index * e for v, e in m) for m in p.terms)


def wedges_to_zero_against_vacuum(g: GeneratorVector) -> bool:
    """True when every entry of g has index <= 0, so g dies on the vacuum."""
    return all(bv.index < 1 for bv in g.entries)


def evolve(g: GeneratorVector) -> dict[BasisVector, Poly]:
    """Time-evolved generator: coefficient of e_l^(a) is sum_i b_{l+i} s_i(t^(a)).

    Images at index <= 0 coincide with vacuum factors and are dropped.
    """
    s = g.ncomp
    out: dict[BasisVector, Poly] = {}
    for bv, b in g.entries.items():
        if bv.index < 1:
            continue
        for ell in range(1, bv.index + 1):
            contrib = elementary_schur(bv.index - ell, bv.component, s).scale(b)
            key = BasisVector(bv.component, ell)
            acc = out.get(key)
            out[key] = contrib if acc is None else acc + contrib
    return {bv: p for bv, p in out.items() if p.terms}


def oracle_by_permutations(fs: Sequence[GeneratorVector], charge: Sequence[int]) -> Poly:
    """Coefficient of the charge's target monomial in evolve(f_1) ^ ... ^ evolve(f_m).

    The target for charge (m_1, .., m_s) is e_{m_1}^(1), .., e_1^(1), ..,
    e_1^(s).  Each factor picks one target slot, repeats die, and the sign
    counts inversions: a permutation sum over the evolved generators, the
    oracle that ``tauforge.fock.oracle_tau`` replaced.  Exponential in m.
    """
    label = tuple(charge)
    s = len(label)
    m = len(fs)
    if m == 0:
        return Poly.const(1, s if s else 1)
    target = [BasisVector(a, idx) for a in range(1, s + 1) for idx in range(label[a - 1], 0, -1)]
    pos_of = {bv: i for i, bv in enumerate(target)}
    evolved = [
        sorted((pos_of[bv], poly) for bv, poly in evolve(g).items() if bv in pos_of)
        for g in fs
    ]
    total = Poly.zero(s)

    def descend(j: int, used: int, sign: int, acc: Poly) -> None:
        nonlocal total
        if j == m:
            total = total + (acc if sign > 0 else -acc)
            return
        for pos, poly in evolved[j]:
            bit = 1 << pos
            if used & bit:
                continue
            inversions = (used >> (pos + 1)).bit_count()
            prod = acc * poly
            if prod.terms:
                descend(j + 1, used | bit, -sign if inversions & 1 else sign, prod)

    descend(0, 0, 1, Poly.const(1, s))
    return total


def alpha_action(states: Mapping[State, Fraction], component: int, i: int) -> dict[State, Fraction]:
    """Derivation action of the mode alpha_i^(a) on a state vector: e_l^(a) -> e_{l-i}^(a).

    Each occupied position p of species a moves to p - i.  The move dies
    below position 0 (a vacuum factor) or on an occupied position, and its
    sign is the parity of the occupied positions strictly between p - i and
    p, which it passes.  Requires i >= 1.
    """
    if i < 1:
        raise ValueError("only lowering modes (i >= 1) are modeled")
    out: dict[State, Fraction] = {}
    for state, c in states.items():
        maya = state[component - 1]
        for p in maya:
            q = p - i
            if q < 0 or q in maya:
                continue
            passed = sum(q < r < p for r in maya)
            moved = tuple(sorted((q if r == p else r for r in maya), reverse=True))
            key = (*state[:component - 1], moved, *state[component:])
            out[key] = out.get(key, 0) + (-c if passed & 1 else c)
    return {s: c for s, c in out.items() if c}


def random_fraction(rng: random.Random, span: int = 4, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_shifts_for(rng: random.Random, partition) -> list[list[Fraction]]:
    """One random shift vector per column, at the exact expected lengths."""
    return [
        [random_fraction(rng) for _ in range(length)]
        for length in expected_shift_lengths(partition)
    ]


def nkdv_by_row_shifts(partition, n: int, shifts_by_class, det=det_by_permutations) -> Poly:
    """n-KdV determinant with the shifts on rows, as first built.

    Row i is s_{l_i + j - i}(t + c) for j = 1..m, with c the whole vector of
    the residue class (l_i - i + 1) mod n: no transpose, no truncation, and a
    permutation-sum determinant unless ``det`` names another reference.
    """
    p = Partition.coerce(partition)
    m = len(p)
    if m == 0:
        return Poly.const(1)
    row_shifts = [shifts_by_class.get((p.parts[i] - i) % n) for i in range(m)]
    rows = [[schur_shifted(p.parts[i] + j - i, row_shifts[i]) for j in range(m)] for i in range(m)]
    return det(rows)


def nkdv_by_chain_tops(partition, n: int, shifts_by_class) -> Poly:
    """n-KdV determinant as the signed reduced entry of its chain tops, as built
    before ``tau_nkdv`` became ``tau_kp`` with class shifts.

    The KP degrees M_j = l_j + m - j + 1 split under n-periodicity into chains
    M, M - n, ..., >= 1, each under a top M with M + n not a degree.  One unit
    spec per top, with the vector of the class (M - m) mod n cut to M - 1
    entries, has the chain's KP columns as its tower under D = d/dt_n.  The
    reduced entry at (m,) lists them chain by chain, so tau is that entry times
    the sign of their sort into descending degree.
    """
    p = Partition.coerce(partition)
    m = len(p)
    degrees = [part + m - j for j, part in enumerate(p.parts)]
    tops = [d for d in degrees if d + n not in degrees]
    specs = tuple(HSpec.make([(d, 1, list(shifts_by_class.get((d - m) % n, []))[:d - 1])])
                  for d in tops)
    tower = [d for top in tops for d in range(top, 0, -n)]
    tau = tau_mnkdv_entry(KdVProfile((n,), specs), (m,))
    return -tau if sum(a < b for i, a in enumerate(tower) for b in tower[i + 1:]) % 2 else tau


def schur_of_args(upto: int, args: Sequence[Poly]) -> list[Poly]:
    """[s_0(g), ..., s_upto(g)] by the recurrence at Poly arguments g_i = args[i-1]."""
    out = [Poly.const(1, args[0].ncomp)]
    for n in range(1, upto + 1):
        acc = Poly.zero(args[0].ncomp)
        for i in range(1, min(n, len(args)) + 1):
            acc = acc + (args[i - 1] * out[n - i]).scale(i)
        out.append(acc.scale(Fraction(1, n)))
    return out


def shifted_table_by_convolution(
    upto: int, c, component: int = 1, ncomp: int = 1, lowest: int = 0, coeff=1,
    family: Family = Family.T, sign: int = 1,
) -> list[Poly]:
    """coeff * [s_lowest(sign*v + c), ..., s_upto(sign*v + c)] in the variables v of
    ``family``: the convolution s_k(t + c) = sum_i s_{k-i}(c) s_i(t) over the Poly
    recurrence, then the renaming t_i -> sign * v_i and a scale by coeff."""
    consts = schur_constants(upto, c)
    s = schur_of_args(upto, [tvar(i, component, ncomp) for i in range(1, upto + 2)])
    one = Poly.const(1, ncomp)
    return [
        relabel_vars(
            sum_of_products_by_factors([(consts[k - i], s[i], one) for i in range(k + 1)], ncomp),
            lambda v: (v._replace(family=family), sign),
        ).scale(coeff)
        for k in range(lowest, upto + 1)
    ]


def shifted_table_by_fractions(
    upto: int, c, component: int = 1, ncomp: int = 1, lowest: int = 0, coeff=1,
    family: Family = Family.T, sign: int = 1,
) -> list[Poly]:
    """``schur_shifted_table`` as it was before its integer numerators: the closed
    form in ``Fraction``s, one division per distinct prod_j m_j(nu)!."""
    b = Fraction(coeff)
    consts = [b * s for s in schur_constants(upto, c)]
    sizes = [schur._monomials(n, family, component) for n in range(upto + 1)]
    table = []
    for k in range(lowest, upto + 1):
        terms: dict[Monomial, Fraction] = {}
        for n in range(k + 1):
            s = consts[k - n]
            if s:
                quotients: dict[int, Fraction] = {}
                for mono, weight, length in sizes[n]:
                    q = quotients.get(weight)
                    if q is None:
                        q = quotients[weight] = s / weight
                    terms[mono] = -q if sign < 0 and length & 1 else q
        table.append(Poly(terms, ncomp))
    return table


def akns_by_args(m1: int, m2: int, b1, b2, c1, c2, big_k: int, p: int) -> Poly:
    """AKNS tau^(p, K-p) from Schur tables at the arguments +x_i + c1_i and
    -x_i + c2_i, with a permutation-sum determinant."""
    b1, b2 = Fraction(b1), Fraction(b2)

    def table(c, sign: int, m: int) -> list[Poly]:
        cv = ShiftVector.coerce(c)
        args = [xvar(i).scale(sign) + Poly.const(cv.get(i)) for i in range(1, m + 1)]
        return schur_of_args(m - 1, args)

    def entry(tab: list[Poly], idx: int) -> Poly:
        return tab[idx] if 0 <= idx < len(tab) else Poly.zero()

    s_plus, s_minus = table(c1, +1, m1), table(c2, -1, m2)
    rows = [[entry(s_plus, m1 - u - v + 1) for v in range(1, big_k + 1)] for u in range(1, p + 1)]
    rows += [
        [entry(s_minus, m2 - u - v + 1) for v in range(1, big_k + 1)]
        for u in range(1, big_k - p + 1)
    ]
    return det_by_permutations(rows).scale(b1**p * b2 ** (big_k - p))


def akns_flow_residuals(collection: TauCollection, base: Sequence[int]) -> dict[str, Poly]:
    """``akns_pde_check``'s ``per_param`` from the unfactored pair: for each
    flow, 2o (f2 w - f w2) w - (f11 w w - f w11 w - 2 f1 w1 w + 2 f w1 w1)
    - 8 f f g, one factor at a time (13 products per flow)."""
    p, k = base
    w = collection.get((p, k))
    u, v = -collection.get((p + 1, k - 1)), collection.get((p - 1, k + 1))
    x1, x2 = VarId(Family.X, 1, 1), VarId(Family.X, 1, 2)
    w1, w2, w11 = w.diff(x1), w.diff(x2), w.diff(x1, 2)

    def residual(f: Poly, g: Poly, orientation: int) -> Poly:
        f1, f2, f11 = f.diff(x1), f.diff(x2), f.diff(x1, 2)
        lhs = (f2 * w - f * w2) * w
        rhs = f11 * w * w - f * w11 * w - (f1 * w1 * w).scale(2) + (f * w1 * w1).scale(2)
        return lhs.scale(2 * orientation) - rhs - (f * f * g).scale(8)

    return {"q_flow": residual(u, v, +1), "r_flow": residual(v, u, -1)}


def akns_bilinear_forms(collection: TauCollection, base: Sequence[int]) -> tuple[Poly, Poly, Poly]:
    """P_u, P_v and Q of the AKNS residual R_f = w P_f + f Q, one factor at a
    time: P_f = (2o D_x2 - D_x1^2)(f.w) with o = +1 for f = u and -1 for
    f = v, and Q = D_x1^2 (w.w) - 8 u v, where D is the Hirota derivative."""
    p, k = base
    w = collection.get((p, k))
    u, v = -collection.get((p + 1, k - 1)), collection.get((p - 1, k + 1))
    x1, x2 = VarId(Family.X, 1, 1), VarId(Family.X, 1, 2)
    w1, w2, w11 = w.diff(x1), w.diff(x2), w.diff(x1, 2)

    def bilinear_p(f: Poly, orientation: int) -> Poly:
        f1, f2, f11 = f.diff(x1), f.diff(x2), f.diff(x1, 2)
        return (f2 * w - f * w2).scale(2 * orientation) - (f11 * w - (f1 * w1).scale(2) + f * w11)

    q = (w * w11).scale(2) - (w1 * w1).scale(2) - (u * v).scale(8)
    return bilinear_p(u, +1), bilinear_p(v, -1), q


def akns_check_by_sum_of_products(collection: TauCollection, base: Sequence[int]):
    """``akns_pde_check`` on ``Poly``s: R_f = w P_f + f Q with Q, each P_f and
    each R_f a ``sum_of_products_by_factors`` of its own, every one packing its
    factors afresh and decoding its result."""
    base_label = int_tuple(base)
    w = collection.get(base_label)
    t0 = time.perf_counter()
    u = -collection.get((base_label[0] + 1, base_label[1] - 1))
    v = collection.get((base_label[0] - 1, base_label[1] + 1))
    x1, x2 = VarId(Family.X, 1, 1), VarId(Family.X, 1, 2)
    w1, w2, w11 = w.diff(x1), w.diff(x2), w.diff(x1, 2)
    bilinear_q = sum_of_products_by_factors([(2, w, w11), (-2, w1, w1), (-8, u, v)], w.ncomp)

    def flow_residual(f: Poly, orientation: int) -> Poly:
        f1, f2, f11 = f.diff(x1), f.diff(x2), f.diff(x1, 2)
        by_w, by_f = f2.scale(2 * orientation) - f11, w2.scale(-2 * orientation) - w11
        bilinear_p = sum_of_products_by_factors([(1, by_w, w), (1, f, by_f), (2, f1, w1)],
                                                w.ncomp)
        return sum_of_products_by_factors([(1, w, bilinear_p), (1, f, bilinear_q)], w.ncomp)

    per = {"q_flow": flow_residual(u, +1), "r_flow": flow_residual(v, -1)}
    return _finish("akns-pde", {"base": list(base_label)},
                   next((r for r in per.values() if r), Poly.zero(w.ncomp)), t0, per_param=per)


# -- the derivative-tower construction -------------------------------------------


def generating_poly(spec: HSpec, ncomp: int) -> Poly:
    """h(t) = sum_a b_a * s_{M_a}(t^(a) + c_a), each s_M by the recurrence at t_i + c_i."""
    if spec.ncomp != ncomp:
        raise ValueError(f"spec has {spec.ncomp} components, ambient wants {ncomp}")
    total = Poly.zero(ncomp)
    for a, term in enumerate(spec.terms, start=1):
        args = [
            tvar(i, a, ncomp) + Poly.const(term.shift.get(i), ncomp)
            for i in range(1, term.degree + 1)
        ]
        total = total + schur_of_args(term.degree, args)[term.degree].scale(term.coeff)
    return total


def d_tower(h: Poly, k: int, n_parts: Sequence[int]) -> list[Poly]:
    """h, D h, ..., D^k h, applying D = sum_a d/dt_{n_a}^(a) once per level."""
    out = [h]
    for _ in range(k):
        out.append(apply_D(out[-1], 1, n_parts))
    return out


def block_rows(columns: Sequence[Poly], charge: Sequence[int]) -> list[list[Poly]]:
    """Per component a, the orders m_a, ..., 1 of d/dt_1^(a) applied to every column."""
    return [
        [col.diff(VarId(Family.T, a, 1), p) for col in columns]
        for a, m_a in enumerate(charge, start=1)
        for p in range(m_a, 0, -1)
    ]


def tau_by_derivatives(columns: Sequence[Poly], charge: Sequence[int], ncomp: int) -> Poly:
    """The charge-labelled determinant of differentiated column polynomials."""
    if any(x < 0 for x in charge):
        return Poly.zero(ncomp)
    rows = block_rows(columns, charge)
    return det_by_permutations(rows) if rows else Poly.const(1, ncomp)


def mnkdv_columns_by_derivatives(profile: KdVProfile) -> list[Poly]:
    return [
        col
        for spec, k in zip(profile.specs, profile.k_values())
        for col in d_tower(generating_poly(spec, profile.ncomp), k, profile.n_parts)
    ]


# -- earlier paths, kept as differential references -------------------------------


def solve_shifts_triangular(b: Sequence[Fraction]) -> ShiftVector:
    """The triangular solve of s_k(c) = g_k = b_{M-k}/b_M, as first written:
    c_k = g_k - (1/k) * sum_{i<k} i * c_i * g_{k-i}, in Fraction arithmetic."""
    bs = [Fraction(x) for x in b]
    big_m = len(bs) - 1
    g = [bs[big_m - k] / bs[big_m] for k in range(big_m + 1)]
    c: list[Fraction] = []
    for k in range(1, big_m + 1):
        acc = sum((i * c[i - 1] * g[k - i] for i in range(1, k)), Fraction(0))
        c.append(g[k] - acc / k)
    return ShiftVector(tuple(c))


def mkp_pairs_by_offset_scan(
    collection: TauCollection, j_values: Sequence[int] = (0,)
) -> list[tuple[list[int], list[int], int]]:
    """(m, q, j) of every pair the first ``verify_mkp_collection`` checked, in its
    order: every label one unit above a nonzero label against every label one
    unit below one, both sorted, kept when some component a has m - e_a and
    q + e_a both nonzero."""

    def offset(delta: int) -> list[tuple[int, ...]]:
        out = set()
        for label in collection.entries:
            for a in range(collection.ncomp):
                moved = list(label)
                moved[a] += delta
                if moved[a] >= 0:
                    out.add(tuple(moved))
        return sorted(out)

    def touches(m: tuple[int, ...], q: tuple[int, ...]) -> bool:
        return any(
            m[:a] + (m[a] - 1,) + m[a + 1:] in collection.entries
            and q[:a] + (q[a] + 1,) + q[a + 1:] in collection.entries
            for a in range(collection.ncomp)
        )

    ms, qs = offset(+1), offset(-1)
    return [(list(m), list(q), j) for j in j_values for m in ms for q in qs if touches(m, q)]


def tau_kp_by_windowed_tables(partition, shifts=None) -> Poly:
    """tau_kp as first windowed: column j's table s_L..s_{l_j + m - j}(t + c_j)
    with L = max(l_j - j + 1, 0), built by ``schur_shifted_table``."""
    p = Partition.coerce(partition)
    m = len(p)
    shifts = [] if shifts is None else shifts
    columns = [ShiftVector.coerce(shifts[j] if j < len(shifts) else None) for j in range(m)]
    tables = [
        ([(e.numerators.items(), e.den)
          for e in schur_shifted_table(part + m - j - 1, columns[j], lowest=max(part - j, 0))],)
        for j, part in enumerate(p.parts)
    ]
    return next(_dets(tables, [(m,)], 1))


# -- the character rows of the Schur expansion ---------------------------------------


def characters(lam: tuple[int, ...]) -> Mapping[tuple[int, ...], int]:
    """The nonzero chi^lambda_nu over nu of size |lambda|, read-only, from the dense
    columns that ``fermion.schur_expansion`` keeps; ``lam`` is decreasing."""
    shapes, columns = fermion._characters(sum(lam))
    i = shapes.index(tuple(lam))
    return MappingProxyType({nu: column[i] for nu, column in columns.items() if column[i]})


def schur_expansion_by_rows(tau: Poly, species: int) -> tuple[dict[tuple, int], int]:
    """``fermion.schur_expansion`` as it was before its dense character columns: each
    coefficient summed over one character row dict per lambda, the rows in a table
    of its own."""
    ratios: dict[tuple, tuple[int, int]] = {}
    for mono, a in tau.terms.items():
        nus: list[list[int]] = [[] for _ in range(species)]
        weight = a.denominator
        for v, e in mono:
            assert v.family == Family.T and 1 <= v.component <= species, v
            nus[v.component - 1] += [v.index] * e
            weight *= v.index**e
        ratios[tuple(tuple(nu[::-1]) for nu in nus)] = (a.numerator, weight)
    den = lcm(*(d for _, d in ratios.values()))
    coeffs = {key: n * (den // d) for key, (n, d) in ratios.items()}
    table: dict = {}
    for b in range(species):
        groups: dict[tuple, dict[tuple[int, ...], int]] = {}
        for key, c in coeffs.items():
            groups.setdefault((key[:b], sum(key[b]), key[b + 1:]), {})[key[b]] = c
        coeffs = {}
        for (head, size, tail), group in groups.items():
            for lam in partitions_of(size):
                row = fermion._row(lam, size, table)
                c = sum(row.get(nu, 0) * n for nu, n in group.items())
                if c:
                    coeffs[head + (lam,) + tail] = c
    common = gcd(den, *coeffs.values())
    return {key: c // common for key, c in coeffs.items()}, den // common


# -- the residue kernel on tuple states, as it was before the integer layout ---------


def _maya(mu: tuple[int, ...], charge: int, floor: int) -> tuple[int, ...]:
    """{mu_i - i + charge} for i = 1..charge - floor."""
    return tuple(
        p - i + charge for i, p in enumerate(mu + (0,) * (charge - floor - len(mu)), 1)
    )


def fock_states_by_maya(entries: Mapping[tuple[int, ...], Poly], species: int):
    """``fermion.fock_states`` on tuple states: each entry's Schur expansion as
    (state, numerator) pairs, species b a Maya tuple above a shared floor, and d."""
    xis = {label: fermion.schur_expansion(tau, species) for label, tau in entries.items()}
    den = lcm(*(d for _, d in xis.values()))
    floors = [
        min((label[b] - len(key[b]) for label, (xi, _) in xis.items() for key in xi), default=0)
        for b in range(species)
    ]
    states = {
        label: [(tuple(map(_maya, key, label, floors)), c * (den // d)) for key, c in xi.items()]
        for label, (xi, d) in xis.items()
    }
    return states, den


def sato_b_by_maya(states, terms) -> dict[State, dict[State, int]]:
    """``fermion.sato_b`` on tuple states: psi*_k deletes k from a Maya tuple and
    psi_i inserts i, each signed by the number of positions above it."""
    out: dict[State, dict[State, int]] = {}
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


def _shape(maya: tuple[int, ...], charge: int) -> tuple[int, ...]:
    return tuple(lam for lam in (p + i - charge for i, p in enumerate(maya, 1)) if lam)


def _times(left, right) -> list[tuple[Monomial, int]]:
    return [(ml + mr, cl * cr) for ml, cl in left for mr, cr in right]


def expand_by_maya(states: Iterable[State], charges: Sequence[int], family: Family, table: dict):
    """``fermion.expand`` on tuple states: each state as prod_b top_b! s_{lambda(S_b)}
    over (monomial, integer), and prod_b top_b!."""
    shapes = {s: [_shape(maya, c) for maya, c in zip(s, charges)] for s in states}
    tops = [max((sum(sh[k]) for sh in shapes.values()), default=0) for k in range(len(charges))]
    factors: dict[tuple[tuple[int, ...], int], list[tuple[Monomial, int]]] = {}

    def factor(lam: tuple[int, ...], k: int) -> list[tuple[Monomial, int]]:
        hit = factors.get((lam, k))
        if hit is None:
            hit = fermion._expansion(lam, family, k + 1, table)
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


def bosonize_by_maya(b, denominator: int, m: Sequence[int], q: Sequence[int], ncomp: int) -> Poly:
    """``fermion.bosonize`` on tuple states, summing on monomial tuples."""
    table: dict = {}
    terms_t, den_t = expand_by_maya(b, m, Family.T, table)
    terms_y, den_y = expand_by_maya({s for row in b.values() for s in row}, q, Family.Y, table)
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
    return Poly({mono: Fraction(c, den) for mono, c in out.items()}, ncomp)


def sector_terms(entries, mv: tuple[int, ...], qv: tuple[int, ...], j: int,
                 parts: Sequence[int]) -> list[tuple[int, int, tuple, tuple, int]]:
    """The terms (sign, a, m - e_a, q + e_a, j * n_a) of the (m, q) sector whose two
    labels are entries, with the Klein sign (-1)^{m_1 + .. + m_{a-1} + q_1 + .. + q_{a-1}}."""
    terms = []
    for a in range(len(mv)):
        left = mv[:a] + (mv[a] - 1,) + mv[a + 1:]
        right = qv[:a] + (qv[a] + 1,) + qv[a + 1:]
        if left in entries and right in entries:
            sign = -1 if (sum(mv[:a]) + sum(qv[:a])) & 1 else 1
            terms.append((sign, a, left, right, j * parts[a]))
    return terms


def maya_state(state: int, layout) -> State:
    """An integer state of ``fermion.fock_states`` as the tuple state of
    ``fock_states_by_maya``: each species' occupied field positions, decreasing."""
    return tuple(
        tuple(floor + k for k in range(width - 1, -1, -1) if state >> (offset + k) & 1)
        for offset, floor, width in layout
    )


def decode_wedge(wedge) -> dict[State, Fraction]:
    """A wedge ``(coords, d, layout)`` of ``fock.wedge_from_generators`` as
    {tuple state: coordinate}."""
    coords, den, layout = wedge
    return {maya_state(s, layout): Fraction(c, den) for s, c in coords.items()}


def encode_wedge(vector: Mapping[State, Fraction], ncomp: int):
    """{tuple state: coordinate}, every position >= 0, as the ``(coords, d, layout)``
    that ``fock.wedge_from_generators`` returns: species b in the field
    ((ncomp - 1 - b) W, 0, W), W one above the highest position, and integer
    numerators over the lcm d of the denominators."""
    width = max([0, *(p + 1 for s in vector for maya in s for p in maya)])
    layout = tuple(fermion.Field((ncomp - 1 - b) * width, 0, width) for b in range(ncomp))
    den = lcm(*(c.denominator for c in vector.values()))
    coords = {}
    for s, c in vector.items():
        code = sum(1 << (offset + p) for maya, (offset, _, _) in zip(s, layout) for p in maya)
        coords[code] = c.numerator * (den // c.denominator)
    return coords, den, layout


def boson_image_by_state_loop(
    vector: Mapping[State, Fraction], charges: Sequence[int], ncomp: int
) -> Poly:
    """``fock.wedge_tau``'s bosonization as first written, beside ``bosonize``: expand the
    tuple states once and accumulate c_S times each state's term list, one state at
    a time, with the character rows in a table of its own."""
    d = lcm(*(c.denominator for c in vector.values()))
    terms, den = expand_by_maya(vector, tuple(charges), Family.T, {})
    out: dict[Monomial, int] = {}
    for s, c in vector.items():
        n = c.numerator * (d // c.denominator)
        for mono, ct in terms[s]:
            out[mono] = out.get(mono, 0) + n * ct
    den *= d
    return Poly({mono: Fraction(c, den) for mono, c in out.items()}, ncomp)


# -- Poly arithmetic on Fraction coefficients, as it was before integer numerators ------


class FractionPoly:
    """``Poly`` as it was before it held integer numerators over one denominator:
    a dict of reduced ``Fraction`` coefficients, every operation on them,
    products through ``packed_sum`` on numerators over each factor's lcm
    denominator, decoded into one ``Fraction`` per term, and the text and JSON
    renderers reading the ``Fraction`` of each term."""

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None, ncomp: int = 1):
        self.ncomp = ncomp
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    @classmethod
    def of(cls, p: Poly) -> "FractionPoly":
        return cls(p.terms, p.ncomp)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FractionPoly):
            return self.ncomp == other.ncomp and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): Fraction(other)} if other else {})
        return NotImplemented

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        assert self.ncomp == other.ncomp
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return FractionPoly(out, self.ncomp)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly({m: -c for m, c in self.terms.items()}, self.ncomp)

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + -other

    def scale(self, value) -> "FractionPoly":
        return FractionPoly({m: c * value for m, c in self.terms.items()}, self.ncomp)

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        return FractionPoly.sum_of_products([(1, self, other)], self.ncomp)

    def _numerators(self) -> tuple[list[tuple[Monomial, int]], int]:
        den = lcm(*[c.denominator for c in self.terms.values()])
        return [(m, c.numerator * (den // c.denominator)) for m, c in self.terms.items()], den

    @staticmethod
    def sum_of_products(triples, ncomp: int) -> "FractionPoly":
        pairs = [(Fraction(c), a, b) for c, a, b in triples if c and a.terms and b.terms]
        assert all(f.ncomp == ncomp for _, a, b in pairs for f in (a, b))
        if not pairs:
            return FractionPoly({}, ncomp)
        factors = {id(f): f for _, a, b in pairs for f in (a, b)}
        tops = {key: max((e for mono in f.terms for _, e in mono), default=0)
                for key, f in factors.items()}
        layout = Packing((m for f in factors.values() for m in f.terms),
                         max(tops[id(a)] + tops[id(b)] for _, a, b in pairs))
        numerators = {key: f._numerators() for key, f in factors.items()}
        packed = {key: layout.pack(terms, 1) for key, (terms, _) in numerators.items()}
        scales = [c.denominator * numerators[id(a)][1] * numerators[id(b)][1]
                  for c, a, b in pairs]
        den = lcm(*scales)
        total = packed_sum((c.numerator * (den // scale), packed[id(a)], packed[id(b)])
                           for (c, a, b), scale in zip(pairs, scales))
        mask = (1 << layout.width) - 1
        out = {}
        for key, n in total:
            mono = []
            for k, v in enumerate(layout.variables):
                e = (key >> (k * layout.width)) & mask
                if e:
                    mono.append((v, e))
            out[tuple(mono)] = Fraction(n, den)
        return FractionPoly(out, ncomp)

    def __pow__(self, exponent: int) -> "FractionPoly":
        result = FractionPoly({(): Fraction(1)}, self.ncomp)
        for _ in range(exponent):
            result = result * self
        return result

    def diff(self, v: VarId, order: int = 1) -> "FractionPoly":
        out = {}
        for mono, coeff in self.terms.items():
            for i, (w, e) in enumerate(mono):
                if w == v:
                    if e >= order:
                        c = coeff
                        for k in range(order):
                            c *= e - k
                        rest = ((w, e - order),) if e > order else ()
                        out[mono[:i] + rest + mono[i + 1:]] = c
                    break
        return FractionPoly(out, self.ncomp) if order else self

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono, coeff in sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0])):
            mag = abs(coeff)
            if mono:
                vars_text = "*".join(
                    f"{v.family.letter}{v.index}" + (f"[{v.component}]" if self.ncomp > 1 else "")
                    + (f"^{e}" if e > 1 else "")
                    for v, e in mono
                )
                body = vars_text if mag == 1 else f"{mag}*{vars_text}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(pieces)

    def to_json_obj(self) -> dict:
        return {"ncomp": self.ncomp, "terms": [
            {"coeff": str(coeff),
             "monomial": [[v.family.name, v.component, v.index, e] for v, e in mono]}
            for mono, coeff in sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))
        ]}


# -- the oracle's generators on Fraction entries, as they were before integer numerators --


class FractionGeneratorVector:
    """``GeneratorVector`` as it was before it held integer numerators over one
    denominator: a dict of reduced ``Fraction`` entries, re-validated by the
    constructor after every operation."""

    __slots__ = ("entries", "ncomp")

    def __init__(self, entries: Mapping[BasisVector, Fraction | int], ncomp: int | None = None):
        clean: dict[BasisVector, Fraction] = {}
        maxcomp = 0
        for bv, c in entries.items():
            cf = exact_fraction(c)
            if cf:
                key = BasisVector(*int_tuple(bv))
                if key.component < 1:
                    raise ValueError("components are 1-indexed")
                clean[key] = clean.get(key, Fraction(0)) + cf
                maxcomp = max(maxcomp, key.component)
        clean = {bv: c for bv, c in clean.items() if c}
        if not clean:
            raise ValueError("a generator must have at least one nonzero entry")
        self.entries = clean
        self.ncomp = maxcomp if ncomp is None else _json_int(ncomp)
        if maxcomp > self.ncomp:
            raise ValueError("entry component exceeds the ambient count")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FractionGeneratorVector):
            return NotImplemented
        return self.entries == other.entries and self.ncomp == other.ncomp

    __hash__ = None  # type: ignore[assignment]

    def scale(self, value) -> "FractionGeneratorVector":
        c = exact_fraction(value)
        if not c:
            raise ValueError("scaling a generator to zero is not representable")
        return FractionGeneratorVector({bv: co * c for bv, co in self.entries.items()}, self.ncomp)

    def add(self, other: "FractionGeneratorVector") -> "FractionGeneratorVector":
        if self.ncomp != other.ncomp:
            raise ValueError("ambient component count mismatch")
        merged = dict(self.entries)
        for bv, c in other.entries.items():
            merged[bv] = merged.get(bv, Fraction(0)) + c
        return FractionGeneratorVector(merged, self.ncomp)

    def lambda_shift(self, n_parts: Sequence[int], power: int = 1) -> "FractionGeneratorVector":
        n_parts = _reduction_orders(n_parts, self.ncomp)
        if _json_int(power) < 0:
            raise ValueError("shift power must be >= 0")
        moved = {
            BasisVector(bv.component, bv.index - power * n_parts[bv.component - 1]): c
            for bv, c in self.entries.items()
        }
        return FractionGeneratorVector(moved, self.ncomp)


def generator_by_fractions(spec: HSpec, ncomp: int) -> FractionGeneratorVector:
    """b * s_{M-l}(c) at e_l^(a) for l = 1..M, one ``Fraction`` per Schur constant
    and per entry."""
    entries: dict[BasisVector, Fraction] = {}
    for a, term in enumerate(spec.terms, start=1):
        consts = schur_constants(term.degree - 1, term.shift)
        for ell in range(1, term.degree + 1):
            entries[BasisVector(a, ell)] = term.coeff * consts[term.degree - ell]
    return FractionGeneratorVector(entries, ncomp)


def wedge_by_fractions(
    fs: Sequence[FractionGeneratorVector], ncomp: int
) -> tuple[dict[int, int], int, fermion.Layout]:
    """``fock.wedge_from_generators`` on Fraction entries: each generator's entries
    brought to integers over their lcm denominator, then wedged."""
    for g in fs:
        if g.ncomp != ncomp:
            raise ValueError(f"a generator has {g.ncomp} components, the wedge {ncomp}")
    width = max([0, *(bv.index for g in fs for bv in g.entries)])
    wedge: dict[int, int] = {0: 1}
    den = 1
    for g in reversed(fs):
        d = lcm(*[b.denominator for b in g.entries.values()])
        den *= d
        wedge = fermion.wedge(wedge, [
            (1 << ((ncomp - v.component) * width + v.index - 1), c.numerator * d // c.denominator)
            for v, c in g.entries.items() if v.index >= 1
        ])
    layout = tuple(fermion.Field((ncomp - a) * width, 0, width) for a in range(1, ncomp + 1))
    return wedge, den, layout
