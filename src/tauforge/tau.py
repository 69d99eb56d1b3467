"""Determinant constructors for polynomial tau-functions.

Single-component KP tau-functions come from a partition lambda and one shift
vector per determinant column:

    tau_kp(lambda, C) = det( s_{l_j + i - j}(t + c_j) )_{i,j=1..m}

Multicomponent tau-functions come from generating functions

    h_j(t) = sum_a b_j^(a) * s_{M_j^(a)}(t^(a) + c_j^(a)),

one per determinant column.  The entry block for component a consists of the
pure t_1^(a)-derivatives of h_j of orders m_a, m_a - 1, ..., 1 (top to
bottom), where (m_1, ..., m_s) is the charge label; labels range over the
polyhedron m_a >= 0, sum m_a = column count.

The (n_1, ..., n_s)-reduced constructor widens each column into the tower
h_j, D h_j, ..., D^{k_j} h_j under D = sum_a d/dt_{n_a}^(a), with k_j just
large enough to exhaust the column (k_j = max_a ceil(M_j^(a)/n_a) - 1 over
components with b != 0).

Every entry is read off one table b_a * [s_L, ..., s_{M_a - 1}](t^(a) + c_a)
per column and component, zero at a negative index:

    d^p/dt_1^(a) D^i h_j = b_a * s_{M_a - i*n_a - p}(t^(a) + c_a).

Proof: ds_M/dt_n = s_{M-n} for constant c, so D^i lowers each M_a by i*n_a;
then d/dt_1^(a) kills every other component and lowers M_a by one per order.
With k the column's largest i and r the most rows a block can have, no entry
reads below L = max(M_a - k*n_a - r, 0), so each table starts there.  The
tables are integer numerators over one denominator per table
(``schur._shifted_table``), and every construction, ``det_poly`` included, is
one call of one kernel, ``_dets``: it packs each distinct table entry once, as
the integers it holds, and yields each label's determinant as an integer
``Poly``: a construction makes no ``Fraction``.
``tau_kp`` is the one-component case, with column degrees l_j + m - j + 1.

``tau_nkdv`` is ``tau_kp`` whose column of degree M carries the vector of the
class (M - m) mod n, cut to the M - 1 entries it reads.  D_j = d/dt_{jn} maps
the column of degree M and shift c to the column of degree M - jn with the
same c, which by n-periodicity is another column of the matrix or zero; so
D_j tau is a sum of determinants with two equal columns or a zero one.

The AKNS constructor is the two-component (1,1)-reduced family written in
the half-difference variables x_i = (t_i^(1) - t_i^(2))/2: b_1^p b_2^(K-p)
times the K x K determinant whose rows u = 1..p are s_{M_1-u-v+1}(x + c^(1))
and whose rows u = 1..K-p are s_{M_2-u-v+1}(-x + c^(2)).  Its columns are the
towers h, D h, ..., D^{K-1} h of h = b_1 s_{M_1}(x + c^(1)) + b_2 s_{M_2}(-x +
c^(2)) under n = (1, 1), and tau^(p, K-p) is their entry at label (p, K-p)
times (-1)^{C(p,2) + C(K-p,2)}.  Proof: block row (a, r) of column v reads
b_a s_{M_a-r-v+1}, AKNS row u = r, but each block lists r from m_a down to 1;
reversing blocks of p and K - p rows is a permutation of that parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping, Sequence

from .partitions import Partition, is_n_periodic
from .polycore import (
    Family, Numerators, Packed, Poly, RationalLike, VarId, _json_int, _ncomp,
    exact_fraction, int_tuple, pack_over, packed_sum,
)
from .schur import ShiftLike, ShiftVector, _shifted_table

ChargeVector = tuple[int, ...]


def det_poly(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square Poly matrix: the one-component ``_dets`` at label
    (m,), whose column j lists the matrix's column j from top to bottom."""
    m = len(rows)
    if m == 0:
        raise ValueError("determinant of an empty matrix needs an ambient; use const 1")
    if any(len(row) != m for row in rows):
        raise ValueError("matrix must be square")
    ncomp = rows[0][0].ncomp
    for row in rows:
        for entry in row:
            if entry.ncomp != ncomp:
                raise ValueError(f"ambient component count mismatch: {ncomp} vs {entry.ncomp}")
    numerators = {id(p): (p.numerators.items(), p.den) for row in rows for p in row if p}
    columns = [([numerators.get(id(p)) for p in col],) for col in zip(*rows)]
    return next(_dets(columns, [(m,)], ncomp))


# -- single-component KP -------------------------------------------------------


def tau_kp(
    partition: Partition | Iterable[int], shifts: Sequence[ShiftLike] | None = None
) -> Poly:
    """KP tau-function for a partition with per-column shift vectors.

    ``shifts[j]`` may be shorter than its expected length l_j + m - j (it is
    zero-padded) but not longer; ``None`` means all zero.
    """
    p = Partition.coerce(partition)
    return tau_mkp_entry(kp_specs_from_partition(p, shifts), (len(p),))


# -- column specifications for multicomponent constructors ---------------------


@dataclass(frozen=True)
class HTerm:
    """One component's summand in a column generating function."""

    degree: int
    coeff: Fraction
    shift: ShiftVector = field(default_factory=ShiftVector)

    def __post_init__(self):
        if _json_int(self.degree) < 1:
            raise ValueError("degree must be >= 1")
        object.__setattr__(self, "coeff", exact_fraction(self.coeff))
        object.__setattr__(self, "shift", ShiftVector.coerce(self.shift))


@dataclass(frozen=True)
class HSpec:
    """Per-component data (degree, leading coefficient, shift) for one column."""

    terms: tuple[HTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need data for at least one component")
        if all(t.coeff == 0 for t in self.terms):
            raise ValueError("at least one component coefficient must be nonzero")

    @classmethod
    def make(cls, components: Sequence[tuple[int, RationalLike, ShiftLike]]) -> "HSpec":
        return cls(tuple(HTerm(d, b, c) for d, b, c in components))

    @property
    def ncomp(self) -> int:
        return len(self.terms)


def _reduction_orders(n_parts: Sequence[int], ncomp: int | None) -> tuple[int, ...]:
    """n_parts as one order n_a >= 1 for each of ``ncomp`` components (any count when
    None): the parts of the reduction's partition are positive, and j * n_a >= 0 keeps
    every psi-insertion of ``fermion.sato_b`` inside its species' field."""
    parts = int_tuple(n_parts)
    if ncomp is not None and len(parts) != ncomp:
        raise ValueError(f"n_parts {parts} must have one order for each of {ncomp} components")
    if any(n < 1 for n in parts):
        raise ValueError("reduction orders must be >= 1")
    return parts


def compute_kj(spec: HSpec, n_parts: Sequence[int]) -> int:
    """Largest shift power before the column dies: max ceil(M_a/n_a) - 1.

    Components with zero coefficient do not count; HSpec refuses a spec with
    none left.
    """
    parts = _reduction_orders(n_parts, spec.ncomp)
    return max(-(-t.degree // n_a) - 1 for t, n_a in zip(spec.terms, parts) if t.coeff)


def apply_D(p: Poly, j: int, n_parts: Sequence[int]) -> Poly:
    """D_j p = sum_a dp/dt_{j * n_a}^(a), with one order n_a per component of p."""
    if _json_int(j) < 1:
        raise ValueError("D_j requires j >= 1")
    return _apply_d(p, j, _reduction_orders(n_parts, p.ncomp))


def _apply_d(p: Poly, j: int, parts: Sequence[int]) -> Poly:
    """D_j on the t-variables of components 1..len(parts) of p, whatever its ambient."""
    total = Poly.zero(p.ncomp)
    for a, n_a in enumerate(parts, start=1):
        total = total + p.diff(VarId(Family.T, a, j * n_a))
    return total


# -- charge-labelled collections ----------------------------------------------


def charge_vectors(total: int, ncomp: int) -> Iterator[ChargeVector]:
    """All labels (m_1, ..., m_s) with m_a >= 0 and sum = total."""
    _json_int(total)
    _ncomp(ncomp)
    if total < 0:
        return
    for cut in combinations_with_replacement(range(total + 1), ncomp - 1):
        bounds = (0,) + cut + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(ncomp))


@dataclass
class TauCollection:
    """Tau-functions indexed by charge vectors on one level of the lattice.

    ``total`` is the common charge sum; zero entries are omitted and read
    back as the zero polynomial.  ``ncomp`` is the label arity; every entry
    shares one polynomial ambient, ``ambient``, which for AKNS collections
    is 1, since their entries are polynomials in x alone.  When it is not
    given, it is that of the entries, or the label arity without entries.
    """

    total: int
    ncomp: int
    entries: dict[ChargeVector, Poly]
    ambient: int | None = None

    def __post_init__(self):
        _json_int(self.total)
        if self.ambient is None:
            first = next(iter(self.entries.values()), None)
            self.ambient = self.ncomp if first is None else first.ncomp
        _ncomp(self.ncomp)
        _ncomp(self.ambient)
        for label, poly in self.entries.items():
            if len(label) != self.ncomp:
                raise ValueError(f"label {label} has wrong arity")
            if any(x < 0 for x in label) or sum(label) != self.total:
                raise ValueError(f"label {label} is outside the charge polyhedron")
            if not poly:
                raise ValueError("store only nonzero entries")
            if poly.ncomp != self.ambient:
                raise ValueError(f"entry {label} has ambient {poly.ncomp}, not {self.ambient}")

    def get(self, label: Sequence[int]) -> Poly:
        key = int_tuple(label)
        if len(key) != self.ncomp:
            raise ValueError(f"label {key} has wrong arity")
        hit = self.entries.get(key)
        return Poly.zero(self.ambient) if hit is None else hit

    def labels(self) -> list[ChargeVector]:
        return sorted(self.entries)

    def to_json_obj(self) -> dict:
        return {
            "total": self.total,
            "ncomp": self.ncomp,
            "entries": [
                {"charge": list(label), "poly": self.entries[label].to_json_obj()}
                for label in self.labels()
            ],
        }


# A determinant column: per component a, the table b_a * [s_L, ..., s_{M_a - 1}]
# (t^(a) + c_a) of a generating function h = sum_a b_a * s_{M_a}(t^(a) + c_a),
# as integer numerators (``schur._shifted_table``), empty when b_a = 0, from the
# lowest entry L that a row reads.  D^i h has the same table without its last
# i*n_a entries.  ``det_poly``'s one table per column is the matrix column, None
# at a zero entry.
Column = tuple[Sequence[Numerators | None], ...]


def _dets(columns: Sequence[Column], labels: Iterable[ChargeVector],
          ambient: int | None = None) -> Iterator[Poly]:
    """The charge-labelled determinant of the columns at each label in turn, in
    ``ambient`` components (the label's arity when None): the one determinant kernel.

    Row (a, p), for p = m_a, ..., 1, reads entry M_a - p of every column's table
    a, counted from its end, or zero when the table is shorter.  Zero off the
    polyhedron; 1 without rows.  One ``polycore.pack_over`` call packs every
    distinct entry of the columns over D, the lcm of their denominators, so a
    minor on rows i..m-1 is packed numerators over D^(m-i); each label's memoized
    Laplace expansion keeps its minors packed and decodes only the determinant.
    Its ``top`` is the sum over columns of the largest exponent in the column:
    every monomial of a minor is a product of at most one entry monomial from
    each column, so no label's exponents exceed that sum.
    """
    distinct = {id(e): e for col in columns for table in col for e in table if e and e[0]}
    tops = {key: max((x for mono, _ in terms for _, x in mono), default=0)
            for key, (terms, _) in distinct.items()}
    layout, tables, den = pack_over(
        distinct.values(),
        sum(max((tops.get(id(e), 0) for table in col for e in table), default=0)
            for col in columns))
    packed = dict(zip(distinct, tables))
    for label in labels:
        ncomp = len(label) if ambient is None else ambient
        if any(x < 0 for x in label):
            yield Poly.zero(ncomp)
            continue
        cells = [  # None at a zero entry
            [packed.get(id(col[a][-p])) if p <= len(col[a]) else None for col in columns]
            for a, m_a in enumerate(label)
            for p in range(m_a, 0, -1)
        ]
        m = len(cells)
        memo: dict[tuple[int, int], Packed] = {}

        def expand(i: int, cols: int) -> Packed:
            if i == m - 1:
                return cells[i][cols.bit_length() - 1] or []  # the one column left
            key = (i, cols)
            hit = memo.get(key)
            if hit is not None:
                return hit
            triples = []
            sign = 1
            rest = cols
            while rest:
                low = rest & -rest
                entry = cells[i][low.bit_length() - 1]
                if entry:
                    minor = expand(i + 1, cols & ~low)
                    if minor:
                        triples.append((sign, entry, minor))
                sign = -sign
                rest ^= low
            memo[key] = total = packed_sum(triples)
            return total

        yield layout.unpack(expand(0, (1 << m) - 1), den**m, ncomp) if m else Poly.const(1, ncomp)


# -- multicomponent KP ---------------------------------------------------------


def _spec_column(spec: HSpec, rows: int, n_parts: Sequence[int] | None = None,
                 k: int = 0) -> Column:
    """The column of h, cut to the window its tower h, .., D^k h reads in a
    determinant of ``rows`` rows per block: table a starts at
    s_{max(M_a - k*n_a - rows, 0)}, the lowest entry any row can read."""
    return tuple(
        _shifted_table(t.degree - 1, t.shift, a, max(t.degree - k * n - rows, 0), t.coeff)
        if t.coeff else []
        for a, (t, n) in enumerate(zip(spec.terms, n_parts or (1,) * spec.ncomp), start=1)
    )


def tau_mkp_entries(specs: Sequence[HSpec], charges: Iterable[Sequence[int]]) -> Iterator[Poly]:
    """``tau_mkp_entry`` for each charge in turn, all read off one set of
    column tables; each charge is checked when its entry is reached."""
    def checked(charge: Sequence[int]) -> ChargeVector:
        label = int_tuple(charge)
        if any(spec.ncomp != len(label) for spec in specs):
            raise ValueError("all specs must agree with the charge arity")
        if sum(label) != len(specs):
            raise ValueError(f"charge {label} must sum to the column count {len(specs)}")
        return label

    yield from _dets([_spec_column(spec, len(specs)) for spec in specs], map(checked, charges))


def tau_mkp_entry(specs: Sequence[HSpec], charge: Sequence[int]) -> Poly:
    """One charge-labelled entry of the multicomponent KP collection.

    The label must sum to the number of columns; labels with a negative part
    are outside the polyhedron and give zero.
    """
    return next(tau_mkp_entries(specs, [charge]))


def tau_mkp_collection(specs: Sequence[HSpec], ncomp: int | None = None) -> TauCollection:
    """All nonzero charge-labelled entries for the given columns."""
    s = specs[0].ncomp if specs else ncomp
    if s is None:
        raise ValueError("empty spec list needs an explicit component count")
    labels = list(charge_vectors(len(specs), s))
    pairs = zip(labels, tau_mkp_entries(specs, labels))
    return TauCollection(len(specs), s, {label: poly for label, poly in pairs if poly})


# -- (n_1, ..., n_s)-KdV ---------------------------------------------------------


@dataclass(frozen=True)
class KdVProfile:
    """Reduction orders plus the column specs of a reduced collection."""

    n_parts: tuple[int, ...]
    specs: tuple[HSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_parts", _reduction_orders(self.n_parts, None))
        if not self.n_parts:
            raise ValueError("need at least one reduction order")
        if any(a < b for a, b in zip(self.n_parts, self.n_parts[1:])):
            raise ValueError("reduction orders must be weakly decreasing")
        for spec in self.specs:
            if spec.ncomp != len(self.n_parts):
                raise ValueError("spec component count must match n_parts")
        if len(self.specs) >= sum(self.n_parts):
            raise ValueError("need fewer columns than the total reduction order")

    @property
    def ncomp(self) -> int:
        return len(self.n_parts)

    @property
    def r(self) -> int:
        return len(self.specs)

    def k_values(self) -> list[int]:
        return [compute_kj(spec, self.n_parts) for spec in self.specs]

    @property
    def total_charge(self) -> int:
        return self.r + sum(self.k_values())


def _tower(h: Column, n_parts: Sequence[int], k: int) -> list[Column]:
    """h, D h, ..., D^k h: D^i drops the last i*n_a entries of each table a."""
    return [tuple(t[:max(len(t) - i * n, 0)] for t, n in zip(h, n_parts)) for i in range(k + 1)]


def _mnkdv_columns(profile: KdVProfile) -> list[Column]:
    """The towers h_j, D h_j, ..., D^{k_j} h_j for every spec."""
    rows, n_parts = profile.total_charge, profile.n_parts
    return [
        col
        for spec, k in zip(profile.specs, profile.k_values())
        for col in _tower(_spec_column(spec, rows, n_parts, k), n_parts, k)
    ]


def tau_mnkdv_entry(profile: KdVProfile, charge: Sequence[int]) -> Poly:
    """One charge-labelled entry of the reduced collection."""
    label = int_tuple(charge)
    if len(label) != profile.ncomp:
        raise ValueError("charge arity must match the profile")
    if sum(label) != profile.total_charge:
        raise ValueError(f"charge {label} must sum to {profile.total_charge}")
    return next(_dets(_mnkdv_columns(profile), [label]))


def tau_mnkdv_collection(profile: KdVProfile) -> TauCollection:
    total, s = profile.total_charge, profile.ncomp
    labels = list(charge_vectors(total, s))
    pairs = zip(labels, _dets(_mnkdv_columns(profile), labels))
    return TauCollection(total, s, {label: poly for label, poly in pairs if poly})


def tau_nkdv(
    partition: Partition | Iterable[int],
    n: int,
    shifts_by_class: Mapping[int, ShiftLike] | None = None,
) -> Poly:
    """n-KdV tau-function for an n-periodic partition: ``tau_kp`` with column j
    shifted by the vector of the class of l_j - j + 1 mod n, cut to the entries
    the column reads (module docstring).  Missing classes read as zero shifts;
    raises for non-periodic input."""
    p = Partition.coerce(partition)
    if not is_n_periodic(p, n):
        raise ValueError(f"partition {p} is not {n}-periodic")
    classes: dict[int, ShiftVector] = {}
    for k, value in (shifts_by_class or {}).items():
        if not 0 <= _json_int(k) < n:
            raise ValueError(f"residue class {k} outside 0..{n - 1}")
        classes[k] = ShiftVector.coerce(value)
    m = len(p)
    return tau_kp(p, [classes.get((part - j) % n, ShiftVector()).entries[:part + m - j - 1]
                      for j, part in enumerate(p.parts)])


# -- bridges ---------------------------------------------------------------------


def kp_specs_from_partition(
    partition: Partition | Iterable[int], shifts: Sequence[ShiftLike] | None = None
) -> list[HSpec]:
    """Single-component column specs reproducing tau_kp(lambda, C).

    Column j carries degree l_j + m - j + 1 with unit coefficient; the
    column's d/dt_1 tower of orders m..1 then reproduces exactly the
    KP determinant entries s_{l_j + i - j}(t + c_j).  The shifts are read as
    in ``tau_kp``: missing columns and entries are zero, extra ones raise.
    """
    p = Partition.coerce(partition)
    m = len(p)
    shifts = [] if shifts is None else shifts
    if len(shifts) > m:
        raise ValueError(f"expected at most {m} shift vectors, got {len(shifts)}")
    specs = [HSpec.make([(part + m - j, 1, shifts[j] if j < len(shifts) else None)])
             for j, part in enumerate(p.parts)]
    for j, spec in enumerate(specs, start=1):
        degree, shift = spec.terms[0].degree, spec.terms[0].shift
        if len(shift) >= degree:
            raise ValueError(f"column {j} shift vector longer than {degree - 1} entries")
    return specs


# -- AKNS -------------------------------------------------------------------------


def akns_tau(
    m1: int,
    m2: int,
    b1: RationalLike,
    b2: RationalLike,
    c1: ShiftLike,
    c2: ShiftLike,
    big_k: int,
    p: int,
) -> Poly:
    """AKNS tau-function tau^(p, K-p) in the x-variables.

    b1^p * b2^(K-p) times the K x K determinant whose first p rows are
    s_{m1 - u - v + 1}(x + c1) (u = 1..p) and whose last K - p rows are
    s_{m2 - u - v + 1}(-x + c2) (u = 1..K-p).  Zero whenever
    K > max(m1, m2) and whenever p lies outside 0..K.
    """
    return next(_akns_taus(m1, m2, b1, b2, c1, c2, big_k, p))[1]


def _akns_taus(
    m1: int, m2: int, b1: RationalLike, b2: RationalLike, c1: ShiftLike, c2: ShiftLike,
    big_k: int, p: int | None = None,
) -> Iterator[tuple[ChargeVector, Poly]]:
    """(label, tau^label) at the label (p, K - p), or at every label of the level K
    when p is None: the determinants of the K towers of h = b1 s_{m1}(x + c1) +
    b2 s_{m2}(-x + c2) under n = (1, 1), each times (-1)^{C(p,2) + C(K-p,2)} as it
    arrives (module docstring)."""
    if _json_int(m1) < 1 or _json_int(m2) < 1:
        raise ValueError("degrees must be >= 1")
    if _json_int(big_k) < 1:
        raise ValueError("K must be >= 1")
    shifts = ShiftVector.coerce(c1), ShiftVector.coerce(c2)
    coeffs = exact_fraction(b1), exact_fraction(b2)
    # table a: b_a * s_k(sign_a * x + c_a), for k = 0..m_a - 1
    h = tuple(
        _shifted_table(m - 1, c, 1, 0, b, Family.X, sign) if b else []
        for m, b, c, sign in zip((m1, m2), coeffs, shifts, (1, -1))
    )
    labels = list(charge_vectors(big_k, 2)) if p is None else [(_json_int(p), big_k - p)]
    dets = _dets(_tower(h, (1, 1), big_k - 1), labels, 1)
    return ((label, -det if sum(x * (x - 1) for x in label) // 2 % 2 else det)
            for label, det in zip(labels, dets))


def akns_collection(
    m1: int,
    m2: int,
    b1: RationalLike,
    b2: RationalLike,
    c1: ShiftLike,
    c2: ShiftLike,
    big_k: int | None = None,
) -> TauCollection:
    """All nonzero tau^(p, K-p); ``big_k`` defaults to max(m1, m2), the only
    size for which the family solves the AKNS system."""
    K = max(m1, m2) if big_k is None else big_k
    entries = {label: tau for label, tau in _akns_taus(m1, m2, b1, b2, c1, c2, K) if tau}
    return TauCollection(K, 2, entries, ambient=1)
