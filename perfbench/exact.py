"""Exact checks that the benchmark makes without calling tauforge.

Everything here works on the JSON form of a polynomial (``to_json_obj()``)
evaluated at seeded rational points, so it shares no code with the
constructors, the residue kernel or the oracle it checks:

* ``hirota_kp_value``: the Hirota KP equation (D1^4 + 3 D2^2 - 4 D1 D3) tau.tau;
* ``mkp_identity_values``: the multicomponent bilinear residue identity, with
  the Miwa shift done in one complex variable z at a numeric point;
* ``reduction_values``: D_j tau = sum_a d tau / d t_{j n_a}^(a) at a point;
* ``akns_residuals``: the AKNS pair written for q = u/w and r = v/w, not the
  denominator-cleared form the program uses;
* ``*_det``: tau-function values as Fraction determinants of Schur values,
  the Schur values read off the truncated series exp(sum (t_i + c_i) z^i).

A value that is nonzero at a point proves that the polynomial identity fails;
a true tau-function gives exactly zero at every point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Iterable, Sequence

Var = tuple[str, int, int]  # (family letter, component, index)
Terms = list[tuple[Fraction, dict[Var, int]]]


# -- polynomials from their JSON form ------------------------------------------


def terms_of(obj: dict) -> Terms:
    """Terms of a ``Poly.to_json_obj()`` dict as (coeff, {var: exponent})."""
    out: Terms = []
    for term in obj["terms"]:
        mono = {(str(f), int(c), int(i)): int(e) for f, c, i, e in term["monomial"]}
        out.append((Fraction(term["coeff"]), mono))
    return out


class Point:
    """Seeded rational point; each coordinate is drawn from its own name.

    A coordinate depends only on (seed, tag, variable), so two evaluations of
    one point agree however many variables each touches.
    """

    def __init__(self, seed: int, tag: str):
        self.key = f"{seed}:{tag}"
        self.values: dict[Var, Fraction] = {}

    def __getitem__(self, var: Var) -> Fraction:
        hit = self.values.get(var)
        if hit is None:
            rng = random.Random(f"{self.key}:{var[0]}:{var[1]}:{var[2]}")
            hit = Fraction(rng.choice([k for k in range(-19, 20) if k]), rng.randint(1, 17))
            self.values[var] = hit
        return hit


def _falling(e: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= e - i
    return out


def evaluate(terms: Terms, point: Point, orders: dict[Var, int] | None = None) -> Fraction:
    """Value at ``point`` of the partial derivative given by ``orders``."""
    orders = orders or {}
    total = Fraction(0)
    for coeff, mono in terms:
        value = coeff
        for var, k in orders.items():
            e = mono.get(var, 0)
            if e < k:
                value = Fraction(0)
                break
            value *= _falling(e, k)
        if not value:
            continue
        for var, e in mono.items():
            rest = e - orders.get(var, 0)
            if rest:
                value *= point[var] ** rest
        total += value
    return total


# -- KP -------------------------------------------------------------------------


def hirota_kp_value(terms: Terms, point: Point) -> Fraction:
    """(D1^4 + 3 D2^2 - 4 D1 D3) tau.tau at the point, t_i = ("T", 1, i)."""
    memo: dict[tuple[int, int, int], Fraction] = {}

    def d(a: int, b: int, c: int) -> Fraction:
        key = (a, b, c)
        if key not in memo:
            orders = {("T", 1, 1): a, ("T", 1, 2): b, ("T", 1, 3): c}
            memo[key] = evaluate(terms, point, {v: k for v, k in orders.items() if k})
        return memo[key]

    # D^m f.g = sum_k C(m, k) (-1)^(m - k) f^(k) g^(m - k), one factor per variable.
    d1 = sum(comb(4, k) * (-1) ** (4 - k) * d(k, 0, 0) * d(4 - k, 0, 0) for k in range(5))
    d2 = sum(comb(2, k) * (-1) ** (2 - k) * d(0, k, 0) * d(0, 2 - k, 0) for k in range(3))
    d13 = sum(
        (-1) ** (2 - i - k) * d(i, 0, k) * d(1 - i, 0, 1 - k) for i in range(2) for k in range(2)
    )
    return d1 + 3 * d2 - 4 * d13


# -- Schur values and determinants ---------------------------------------------


def schur_values(args: Sequence[Fraction], upto: int) -> list[Fraction]:
    """[s_0, ..., s_upto] at the numeric arguments g_1, g_2, ... (g_i = args[i-1]).

    Read off the truncated series exp(G) = sum_k G^k / k!, G = sum_i g_i z^i.
    """
    g = [Fraction(0)] + [Fraction(a) for a in args[:upto]]
    g += [Fraction(0)] * (upto + 1 - len(g))
    out = [Fraction(0)] * (upto + 1)
    out[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * upto  # G^k, truncated
    for k in range(1, upto + 1):
        nxt = [Fraction(0)] * (upto + 1)
        for i, pi in enumerate(power):
            if pi:
                for j in range(1, upto + 1 - i):
                    if g[j]:
                        nxt[i + j] += pi * g[j]
        power = nxt
        inv = Fraction(1, factorial(k))
        for n in range(upto + 1):
            if power[n]:
                out[n] += power[n] * inv
    return out


def det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return result * sign


def _shifted_schur(point: Point, family: str, comp: int, sign: int,
                   shift: Sequence[Fraction], upto: int) -> list[Fraction]:
    """s_0..s_upto at g_i = sign * v_i + c_i, v_i the point's (family, comp, i)."""
    if upto < 0:
        return []
    args = [
        sign * point[(family, comp, i)] + (Fraction(shift[i - 1]) if i <= len(shift) else 0)
        for i in range(1, upto + 1)
    ]
    return schur_values(args, upto)


def _at(table: list[Fraction], k: int) -> Fraction:
    return table[k] if 0 <= k < len(table) else Fraction(0)


def tau_kp_det(partition: Sequence[int], shifts: Sequence[Sequence[Fraction]],
               point: Point) -> Fraction:
    """det( s_{l_j + i - j}(t + c_j) )_{i, j = 1..m} at the point."""
    m = len(partition)
    top = max(partition) + m
    tables = [
        _shifted_schur(point, "T", 1, 1, shifts[j] if j < len(shifts) else (), top)
        for j in range(m)
    ]
    return det([[_at(tables[j], partition[j] + i - j) for j in range(m)] for i in range(m)])


def charge_vectors(total: int, ncomp: int) -> list[tuple[int, ...]]:
    """All (m_1..m_s) with m_a >= 0 summing to ``total``."""
    if total < 0:
        return []
    out = []
    for cut in combinations_with_replacement(range(total + 1), ncomp - 1):
        bounds = (0,) + cut + (total,)
        out.append(tuple(bounds[i + 1] - bounds[i] for i in range(ncomp)))
    return out


Spec = list[tuple[int, Fraction, Sequence[Fraction]]]  # (degree, coeff, shift) per component


def _block_det(columns: list[Spec], label: Sequence[int], point: Point) -> Fraction:
    """Determinant whose component-a rows are d^p/dt_1^(a), p = m_a..1, of each column.

    A column means sum_a coeff_a * s_{degree_a}(t^(a) + shift_a); d^p/dt_1^(a)
    lowers the degree of the a-th summand by p and kills the others, and a
    degree below p reads as zero.
    """
    rows = []
    cache: dict[tuple[int, int], list[Fraction]] = {}
    for a, m_a in enumerate(label, start=1):
        for p in range(m_a, 0, -1):
            row = []
            for j, col in enumerate(columns):
                degree, coeff, shift = col[a - 1]
                if not coeff or degree - p < 0:
                    row.append(Fraction(0))
                    continue
                key = (j, a)
                if key not in cache:
                    cache[key] = _shifted_schur(point, "T", a, 1, shift, degree)
                row.append(coeff * cache[key][degree - p])
            rows.append(row)
    return det(rows)


def tau_mkp_dets(specs: list[Spec], point: Point) -> dict[tuple[int, ...], Fraction]:
    """Every charge-labelled entry of the multicomponent collection at the point.

    ``specs[j][a]`` is (degree, coeff, shift) of column j in component a + 1.
    """
    return {label: _block_det(specs, label, point)
            for label in charge_vectors(len(specs), len(specs[0]))}


def tau_mnkdv_dets(n_parts: Sequence[int], specs: list[Spec],
                   point: Point) -> dict[tuple[int, ...], Fraction]:
    """Entries of the (n_1..n_s)-reduced collection at the point.

    Column j widens into D^k h_j, k = 0..k_j, with D = sum_a d/dt_{n_a}^(a),
    so D^k lowers the a-th degree by k * n_a; k_j = max_a ceil(M_a / n_a) - 1
    over components with a nonzero coefficient.
    """
    columns = []
    for spec in specs:
        k_j = max(-(-d // n) - 1 for (d, c, _), n in zip(spec, n_parts) if c)
        for k in range(k_j + 1):
            columns.append([(d - k * n, c, s) for (d, c, s), n in zip(spec, n_parts)])
    return {label: _block_det(columns, label, point)
            for label in charge_vectors(len(columns), len(n_parts))}


def akns_dets(m1: int, m2: int, b1: Fraction, b2: Fraction, c1: Sequence[Fraction],
              c2: Sequence[Fraction], point: Point) -> dict[tuple[int, int], Fraction]:
    """tau^(p, K-p), p = 0..K, K = max(m1, m2), in the x-variables at the point.

    b1^p b2^(K-p) det: rows u = 1..p are s_{m1-u-v+1}(x + c1), rows
    u = 1..K-p are s_{m2-u-v+1}(-x + c2), columns v = 1..K.
    """
    big_k = max(m1, m2)
    plus = _shifted_schur(point, "X", 1, 1, c1, m1)
    minus = _shifted_schur(point, "X", 1, -1, c2, m2)
    out = {}
    for p in range(big_k + 1):
        rows = [[_at(plus, m1 - u - v + 1) for v in range(1, big_k + 1)] for u in range(1, p + 1)]
        rows += [
            [_at(minus, m2 - u - v + 1) for v in range(1, big_k + 1)]
            for u in range(1, big_k - p + 1)
        ]
        out[(p, big_k - p)] = Fraction(b1) ** p * Fraction(b2) ** (big_k - p) * det(rows)
    return out


# -- multicomponent residue identity at a point ---------------------------------


def _polymul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _miwa_series(terms: Terms, point: Point, comp: int, sign: int) -> list[Fraction]:
    """tau(v + sign * [w]_comp) as a polynomial in w = 1/z, other variables at the point.

    [w]_comp shifts v_i^(comp) by w^i / i; every variable is read from the
    point under family "T" whatever family the JSON form uses.
    """
    total: list[Fraction] = [Fraction(0)]
    for coeff, mono in terms:
        series = [coeff]
        for (_, c, i), e in mono.items():
            value = point[("T", c, i)]
            if c != comp:
                series = [x * value ** e for x in series]
                continue
            factor = [Fraction(0)] * (i * e + 1)
            step = Fraction(sign, i)
            for k in range(e + 1):
                factor[i * k] = comb(e, k) * value ** (e - k) * step ** k
            series = _polymul(series, factor)
        if len(series) > len(total):
            total += [Fraction(0)] * (len(series) - len(total))
        for k, x in enumerate(series):
            total[k] += x
    return total


def mkp_identity_values(
    entries: dict[tuple[int, ...], Terms],
    total: int,
    ncomp: int,
    n_parts: Sequence[int],
    j_values: Iterable[int],
    seed: int,
) -> dict[tuple[tuple[int, ...], tuple[int, ...], int], Fraction]:
    """The multicomponent bilinear identity at one point, for every label pair and j.

    For m summing to total + 1 and q to total - 1 the value is

        sum_a (-1)^(m_1+..+m_{a-1}+q_1+..+q_{a-1})
            Res_z z^(m_a - q_a + j n_a - 2) tau^(m-e_a)(t - [1/z]_a)
                  tau^(q+e_a)(y + [1/z]_a) exp(sum_i (t_i^(a) - y_i^(a)) z^i),

    with t and y two independent seeded points.  Missing labels are zero.
    """
    tpt, ypt = Point(seed, "t"), Point(seed, "y")
    shifted: dict[tuple, list[Fraction]] = {}

    def series(label, comp, sign, point):
        key = (label, comp, sign)
        if key not in shifted:
            shifted[key] = _miwa_series(entries[label], point, comp, sign)
        return shifted[key]

    exp_cache: dict[tuple[int, int], list[Fraction]] = {}

    def exp_series(comp: int, upto: int) -> list[Fraction]:
        key = (comp, upto)
        if key not in exp_cache:
            g = [tpt[("T", comp, i)] - ypt[("T", comp, i)] for i in range(1, upto + 1)]
            exp_cache[key] = schur_values(g, upto)
        return exp_cache[key]

    out = {}
    ms = charge_vectors(total + 1, ncomp)
    qs = charge_vectors(total - 1, ncomp)
    for j in j_values:
        for m in ms:
            for q in qs:
                value = Fraction(0)
                parity = 0
                for a in range(ncomp):
                    sign = -1 if parity & 1 else 1
                    parity += m[a] + q[a]
                    left = m[:a] + (m[a] - 1,) + m[a + 1:]
                    right = q[:a] + (q[a] + 1,) + q[a + 1:]
                    if left not in entries or right not in entries:
                        continue
                    prod = _polymul(series(left, a + 1, -1, tpt), series(right, a + 1, 1, ypt))
                    power = m[a] - q[a] + j * n_parts[a] - 2
                    # z^power * w^d * z^k has z-degree -1 when k = d - 1 - power.
                    top = len(prod) - 2 - power
                    if top < 0:
                        continue
                    ex = exp_series(a + 1, top)
                    for d, x in enumerate(prod):
                        k = d - 1 - power
                        if x and k >= 0:
                            value += sign * x * ex[k]
                out[(m, q, j)] = value
    return out


def reduction_values(terms: Terms, n_parts: Sequence[int], j_max: int,
                     point: Point) -> list[Fraction]:
    """D_j tau = sum_a d tau / d t_{j n_a}^(a) at the point, j = 1..j_max."""
    return [
        sum(
            (evaluate(terms, point, {("T", a, j * n): 1}) for a, n in enumerate(n_parts, start=1)),
            Fraction(0),
        )
        for j in range(1, j_max + 1)
    ]


def akns_residuals(u: Terms, v: Terms, w: Terms, point: Point) -> tuple[Fraction, Fraction]:
    """The AKNS pair for q = u/w, r = v/w in x1, x2 at the point:

        2 q_x2 - q_x1x1 - 8 q^2 r   and   -2 r_x2 - r_x1x1 - 8 r^2 q.

    Raises ZeroDivisionError when w vanishes at the point.
    """
    x1, x2 = ("X", 1, 1), ("X", 1, 2)

    def jet(f: Terms):
        return (evaluate(f, point), evaluate(f, point, {x1: 1}),
                evaluate(f, point, {x1: 2}), evaluate(f, point, {x2: 1}))

    w0, w1, w11, w2 = jet(w)

    def quotient(f: Terms):
        f0, f1, f11, f2 = jet(f)
        g = f0 / w0
        g1 = (f1 - g * w1) / w0
        g11 = (f11 - 2 * g1 * w1 - g * w11) / w0
        g2 = (f2 - g * w2) / w0
        return g, g1, g11, g2

    q, _, q11, q2 = quotient(u)
    r, _, r11, r2 = quotient(v)
    return 2 * q2 - q11 - 8 * q * q * r, -2 * r2 - r11 - 8 * r * r * q
