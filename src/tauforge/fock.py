"""Independent oracle: Plucker coordinates of the generators, bosonized.

The semi-infinite wedge model underlying every determinant constructor in
this package.  A generator is a finite rational combination of basis vectors
e_i^(a); time evolution sends e_l^(a) to sum_{i>=0} s_i(t^(a)) e_{l-i}^(a),
and a tau-function is the coefficient of a fixed target wedge monomial in
the exterior product of the evolved generators over the vacuum (which fills
every index <= 0 in every component).

Evolution commutes with the wedge, so the oracle wedges the rational
generators at t = 0 (``wedge_from_generators``), which gives one coordinate
xi_S per wedge monomial S.  Evolving S and reading off the target gives
prod_a s_{lambda(S_a)}(t^(a)), so tau = sum_S xi_S prod_a s_{lambda(S_a)}(t^(a))
over the S with m_a factors in each component a.  ``wedge_tau`` sends that
state vector through ``fermion.boson_image``, the map the bilinear checks
bosonize with, e_i^(a) being Maya position i - 1 of species a at charge m_a.
The oracle never builds a determinant, which keeps it independent of the
constructors it certifies.

Basis vectors are ordered component-ascending, index-descending; the target
monomial for charge (m_1, ..., m_s) is e_{m_1}^(1), ..., e_1^(1),
e_{m_2}^(2), ..., e_1^(s), which is already sorted in that order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import fermion
from .polycore import Poly, RationalLike, exact_fraction
from .schur import schur_constants
from .tau import ChargeVector, HSpec, KdVProfile, kp_specs_from_partition


class BasisVector(NamedTuple):
    component: int
    index: int

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.component, -self.index)


class GeneratorVector:
    """Finite rational combination of basis vectors (one wedge factor).

    Entries with index <= 0 are retained: they decide when a shifted
    generator still wedges nontrivially against the vacuum, even though they
    contribute nothing once evolved.
    """

    __slots__ = ("entries", "ncomp")

    def __init__(self, entries: Mapping[BasisVector, RationalLike], ncomp: int | None = None):
        clean: dict[BasisVector, Fraction] = {}
        maxcomp = 0
        for bv, c in entries.items():
            cf = exact_fraction(c)
            if cf:
                key = BasisVector(int(bv[0]), int(bv[1]))
                if key.component < 1:
                    raise ValueError("components are 1-indexed")
                clean[key] = clean.get(key, Fraction(0)) + cf
                maxcomp = max(maxcomp, key.component)
        clean = {bv: c for bv, c in clean.items() if c}
        if not clean:
            raise ValueError("a generator must have at least one nonzero entry")
        self.entries = clean
        self.ncomp = maxcomp if ncomp is None else ncomp
        if maxcomp > self.ncomp:
            raise ValueError("entry component exceeds the ambient count")

    @classmethod
    def basis(cls, component: int, index: int, ncomp: int | None = None) -> "GeneratorVector":
        return cls({BasisVector(component, index): Fraction(1)}, ncomp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorVector):
            return NotImplemented
        return self.entries == other.entries and self.ncomp == other.ncomp

    __hash__ = None  # type: ignore[assignment]

    def scale(self, value: RationalLike) -> "GeneratorVector":
        c = exact_fraction(value)
        if not c:
            raise ValueError("scaling a generator to zero is not representable")
        return GeneratorVector({bv: co * c for bv, co in self.entries.items()}, self.ncomp)

    def add(self, other: "GeneratorVector") -> "GeneratorVector":
        if self.ncomp != other.ncomp:
            raise ValueError("ambient component count mismatch")
        merged = dict(self.entries)
        for bv, c in other.entries.items():
            merged[bv] = merged.get(bv, Fraction(0)) + c
        return GeneratorVector(merged, self.ncomp)

    def lambda_shift(self, n_parts: Sequence[int], power: int = 1) -> "GeneratorVector":
        """Apply the reduction shift: e_l^(a) -> e_{l - power * n_a}^(a).

        Entries may land at index <= 0; they are kept (see class docstring).
        """
        if len(n_parts) != self.ncomp:
            raise ValueError("n_parts length must match the ambient count")
        if power < 0:
            raise ValueError("shift power must be >= 0")
        moved = {
            BasisVector(bv.component, bv.index - power * n_parts[bv.component - 1]): c
            for bv, c in self.entries.items()
        }
        return GeneratorVector(moved, self.ncomp)

    def max_positive_index(self) -> int | None:
        """Largest index >= 1 present, or None when the vector dies on the vacuum."""
        positive = [bv.index for bv in self.entries if bv.index >= 1]
        return max(positive) if positive else None

    def wedges_to_zero_against_vacuum(self) -> bool:
        return self.max_positive_index() is None


def oracle_tau(fs: Sequence[GeneratorVector], charge: Sequence[int]) -> Poly:
    """Coefficient of the charge's target wedge monomial in f_1(t) ^ ... ^ f_m(t).

    Evolution commutes with the wedge, so f_1 ^ ... ^ f_m is expanded at
    t = 0 and its Plucker coordinates are bosonized by ``wedge_tau``.
    """
    label: ChargeVector = tuple(int(x) for x in charge)
    s = len(label)
    m = len(fs)
    if any(x < 0 for x in label):
        raise ValueError(f"charge {label} has negative parts")
    if sum(label) != m:
        raise ValueError(f"charge {label} must sum to the factor count {m}")
    if m == 0:
        return Poly.const(1, s if s else 1)
    for g in fs:
        if g.ncomp != s:
            raise ValueError("generator ambient must match the charge arity")
    return wedge_tau(wedge_from_generators(fs, s), label)


# -- wedge vectors ----------------------------------------------------------------


class WedgeVector:
    """Finite rational combination of wedge monomials over a filled vacuum.

    A monomial is a tuple of excited factors, each with index > floor, kept
    sorted in the canonical order; inserting an unsorted term tracks the
    permutation sign, kills repeats, and drops factors at or below the floor
    (those collide with a vacuum factor).
    """

    __slots__ = ("coeffs", "floor", "ncomp")

    def __init__(
        self,
        coeffs: Mapping[tuple[BasisVector, ...], RationalLike] | None = None,
        floor: int = 0,
        ncomp: int = 1,
    ):
        self.floor = floor
        self.ncomp = ncomp
        self.coeffs: dict[tuple[BasisVector, ...], Fraction] = {}
        if coeffs:
            for mono, c in coeffs.items():
                cf = exact_fraction(c)
                if cf:
                    self.coeffs[tuple(mono)] = cf

    def add_term(self, factors: Sequence[BasisVector], weight: RationalLike) -> None:
        """Insert weight * (factors wedge), normalizing order and sign."""
        weight = exact_fraction(weight)
        if not weight:
            return
        fs = [BasisVector(int(b[0]), int(b[1])) for b in factors]
        for bv in fs:
            if bv.index <= self.floor:
                return  # collides with a vacuum factor
        keys = [bv.sort_key for bv in fs]
        if len(set(keys)) != len(keys):
            return  # repeated factor
        inversions = sum(k > later for i, k in enumerate(keys) for later in keys[i + 1:])
        mono = tuple(sorted(fs, key=lambda bv: bv.sort_key))
        c = self.coeffs.get(mono, Fraction(0)) + (weight if inversions % 2 == 0 else -weight)
        if c:
            self.coeffs[mono] = c
        else:
            self.coeffs.pop(mono, None)

    def coeff(self, factors: Sequence[BasisVector]) -> Fraction:
        mono = tuple(sorted((BasisVector(int(b[0]), int(b[1])) for b in factors),
                            key=lambda bv: bv.sort_key))
        return self.coeffs.get(mono, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WedgeVector):
            return NotImplemented
        return (
            self.floor == other.floor
            and self.ncomp == other.ncomp
            and self.coeffs == other.coeffs
        )

    __hash__ = None  # type: ignore[assignment]


def alpha_action(w: WedgeVector, component: int, i: int) -> WedgeVector:
    """Derivation action of the mode alpha_i^(a): e_l^(a) -> e_{l-i}^(a).

    Acting on the implicit vacuum always produces a repeated factor, so only
    the excited factors contribute.  Requires i >= 1.
    """
    if i < 1:
        raise ValueError("only lowering modes (i >= 1) are modeled")
    out = WedgeVector(floor=w.floor, ncomp=w.ncomp)
    for mono, c in w.coeffs.items():
        for pos, bv in enumerate(mono):
            if bv.component != component:
                continue
            moved = list(mono)
            moved[pos] = BasisVector(bv.component, bv.index - i)
            out.add_term(moved, c)
    return out


def wedge_from_generators(fs: Sequence[GeneratorVector], ncomp: int, floor: int = 0) -> WedgeVector:
    """f_1 ^ ... ^ f_m over the vacuum at t = 0: the Plucker coordinates of the fs."""
    w = WedgeVector({(): 1}, floor=floor, ncomp=ncomp)
    for g in fs:
        nxt = WedgeVector(floor=floor, ncomp=ncomp)
        for bv, b in g.entries.items():
            for mono, acc in w.coeffs.items():
                nxt.add_term(mono + (bv,), acc * b)
        w = nxt
    return w


def wedge_tau(w: WedgeVector, charge: Sequence[int]) -> Poly:
    """The boson image of w at ``charge``: sum_S xi_S prod_a s_{lambda(S_a)}(t^(a)).

    Only monomials with charge_a - floor factors of each component a count.
    Factor e_i^(a) is Maya position i - 1 of species a, so the vacuum fills
    every position below the floor, as ``fermion`` expects.
    """
    counts = tuple(c - w.floor for c in charge)
    states: dict[tuple[tuple[int, ...], ...], Fraction] = {}
    for mono, c in w.coeffs.items():
        state = tuple(
            tuple(bv.index - 1 for bv in mono if bv.component == a)
            for a in range(1, len(charge) + 1)
        )
        if tuple(map(len, state)) == counts:
            states[state] = c
    return fermion.boson_image(states, tuple(charge), w.ncomp)


# -- bridges from column specs to generators ------------------------------------


def generator_from_hspec(spec: HSpec, ncomp: int) -> GeneratorVector:
    """Basis expansion of the generator behind a column spec.

    For component a with degree M, coefficient b, shift c, the entries are
    b * s_{M-l}(c) at e_l^(a) for l = 1..M (leading entry b at l = M).
    """
    entries: dict[BasisVector, Fraction] = {}
    for a, term in enumerate(spec.terms, start=1):
        consts = schur_constants(term.degree - 1, term.shift)
        for ell in range(1, term.degree + 1):
            entries[BasisVector(a, ell)] = term.coeff * consts[term.degree - ell]
    return GeneratorVector(entries, ncomp)


def generators_from_partition(partition, shifts=None) -> list[GeneratorVector]:
    """Generators whose wedge coefficient reproduces tau_kp(lambda, C)."""
    return [
        generator_from_hspec(spec, 1)
        for spec in kp_specs_from_partition(partition, shifts)
    ]


def generators_from_profile(profile: KdVProfile) -> list[GeneratorVector]:
    """Shift towers g_j, L g_j, ..., L^{k_j} g_j behind a reduced collection."""
    out: list[GeneratorVector] = []
    for spec, k in zip(profile.specs, profile.k_values()):
        g = generator_from_hspec(spec, profile.ncomp)
        for power in range(k + 1):
            out.append(g.lambda_shift(profile.n_parts, power))
    return out
