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
over the S with m_a factors in each component a.  ``wedge_tau`` bosonizes
that sector against the vacuum with ``fermion.bosonize``, the map of the
bilinear checks; it owns the charge rules: one part m_a >= 0 per component,
summing to the factor count when the wedge is nonzero.  The oracle never builds a determinant, which keeps it
independent of the constructors it certifies.

A wedge monomial is one int, already a kernel state: with W the largest
generator index, e_i^(a) of s components is bit (s - a) * W + i - 1, which
is position i - 1 of species a in the field ``fermion.Field((s - a) * W, 0,
W)``, and the vacuum at charge 0 is the int 0.  A higher bit is an earlier
factor in the order e_W^(1), .., e_1^(1), e_W^(2), .., e_1^(s) of the
target monomials.  Entries at index <= 0 collide with the vacuum and are
skipped.  ``fermion.wedge`` takes the generators last to first, each in
front: e_i^(a) dies on a set bit of S, or moves past S's set bits above it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from . import fermion
from .polycore import Poly, RationalLike, _json_int, _ncomp, exact_fraction, int_tuple
from .schur import schur_constants
from .tau import HSpec, KdVProfile, _reduction_orders, kp_specs_from_partition


class BasisVector(NamedTuple):
    component: int
    index: int


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
        n_parts = _reduction_orders(n_parts, self.ncomp)
        if _json_int(power) < 0:
            raise ValueError("shift power must be >= 0")
        moved = {
            BasisVector(bv.component, bv.index - power * n_parts[bv.component - 1]): c
            for bv, c in self.entries.items()
        }
        return GeneratorVector(moved, self.ncomp)


def oracle_tau(fs: Sequence[GeneratorVector], charge: Sequence[int]) -> Poly:
    """Coefficient of the charge's target wedge monomial in f_1(t) ^ ... ^ f_m(t).

    Evolution commutes with the wedge, so f_1 ^ ... ^ f_m is expanded at
    t = 0 and bosonized by ``wedge_tau``, which checks all but the sum rule of a zero wedge.
    """
    label = int_tuple(charge)
    if sum(label) != len(fs):
        raise ValueError(f"charge {label} must sum to the factor count {len(fs)}")
    return wedge_tau(wedge_from_generators(fs, len(label)), label)


# -- the wedge -------------------------------------------------------------------


def wedge_from_generators(
    fs: Sequence[GeneratorVector], ncomp: int
) -> tuple[dict[int, int], int, fermion.Layout]:
    """f_1 ^ ... ^ f_m over the vacuum at t = 0: the Plucker coordinates of the fs.

    Each monomial is an int key, a state in the returned layout (module
    docstring); ``fermion.wedge`` builds f_1 ^ (f_2 ^ .. ^ f_m).  Each generator's
    entries are integer numerators over its lcm denominator, so the wedge
    runs on integers over d, the product of those denominators, and returns
    ({state: numerator}, d, layout).  A generator of another component
    count than ``ncomp`` raises ``ValueError``.
    """
    _ncomp(ncomp)
    for g in fs:
        if g.ncomp != ncomp:
            raise ValueError(f"a generator has {g.ncomp} components, the wedge {ncomp}")
    width = max([0, *(bv.index for g in fs for bv in g.entries)])  # 0 if no entry is above 0
    wedge: dict[int, int] = {0: 1}
    den = 1
    for g in reversed(fs):
        d = lcm(*[b.denominator for b in g.entries.values()])
        den *= d
        wedge = fermion.wedge(wedge, [  # an index <= 0 meets a vacuum factor
            (1 << ((ncomp - v.component) * width + v.index - 1), c.numerator * d // c.denominator)
            for v, c in g.entries.items() if v.index >= 1
        ])
    layout = tuple(fermion.Field((ncomp - a) * width, 0, width) for a in range(1, ncomp + 1))
    return wedge, den, layout


def wedge_tau(wedge: tuple[dict[int, int], int, fermion.Layout], charge: Sequence[int]) -> Poly:
    """The boson image of a wedge at ``charge``: sum_S xi_S prod_a s_{lambda(S_a)}(t^(a)).

    Only the states with charge_a positions in each species a count; they are
    bosonized against the vacuum, the int 0 at charge 0.  Raises
    ``ValueError`` unless ``charge`` has one part >= 0 per component and, when
    the wedge is nonzero, sums to its factor count.
    """
    coords, den, layout = wedge
    label = int_tuple(charge)
    if len(label) != len(layout):
        raise ValueError(f"charge {label} for a wedge of {len(layout)} components")
    if any(x < 0 for x in label):
        raise ValueError(f"charge {label} has negative parts")
    factors = next(iter(coords), 0).bit_count()  # every state has one bit per factor
    if coords and sum(label) != factors:
        raise ValueError(f"charge {label} must sum to the factor count {factors}")
    fields = [((1 << width) - 1) << offset for offset, _, width in layout]
    b = {s: {0: c} for s, c in coords.items()
         if all((s & f).bit_count() == m for f, m in zip(fields, label))}
    return fermion.bosonize(b, layout, den, label, (0,) * len(label), len(label))


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
