"""Independent oracle: Plucker coordinates of the generators, bosonized.

The semi-infinite wedge model underlying every determinant constructor in
this package.  A generator is a finite rational combination of basis vectors
e_i^(a), held as integer numerators over one denominator in the canonical
form of ``polycore.Numerated``, the base class it shares with ``Poly``.  Time
evolution sends e_l^(a) to sum_{i>=0} s_i(t^(a)) e_{l-i}^(a), and a
tau-function is the coefficient of a fixed target wedge monomial in the
exterior product of the evolved generators over the vacuum (which fills every
index <= 0 in every component).

Evolution commutes with the wedge, so the oracle wedges the generators at
t = 0 (``wedge_from_generators``), which gives one coordinate xi_S per wedge
monomial S, as an integer over the product of the generators' denominators.
``generator_from_hspec`` builds a column's numerators from the integer Schur
constants of ``schur._schur_numerators``, so no ``Fraction`` is made between
a column spec and its wedge.  Evolving S and reading off the target gives
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
from .polycore import (
    Numerated, Poly, RationalLike, _json_int, _ncomp, exact_fraction, int_tuple,
)
from .schur import _schur_numerators
from .tau import HSpec, KdVProfile, _reduction_orders, kp_specs_from_partition


class BasisVector(NamedTuple):
    component: int
    index: int


class GeneratorVector(Numerated):
    """Finite rational combination of basis vectors (one wedge factor).

    It holds integer numerators ``{BasisVector: int}`` over one positive
    denominator ``den`` in the canonical form of ``polycore.Numerated``, which
    owns its construction from rationals, its reduction, ``add``'s sum, ``scale``
    and ``==``.  Its own rules are its keys (``_basis_key``) and ``_ambient``: a
    generator is never zero, and no entry's component exceeds ``ncomp``.
    Rationals enter at the constructor and at ``scale`` alone.  ``entries``,
    each entry's reduced ``Fraction``, is a fresh dict on every read, for
    readers outside the package; nothing in the package reads it.

    Entries with index <= 0 are retained: they decide when a shifted
    generator still wedges nontrivially against the vacuum, even though they
    contribute nothing once evolved.
    """

    __slots__ = ()

    def __init__(self, entries: Mapping[BasisVector, RationalLike], ncomp: int | None = None):
        coeffs: dict[BasisVector, Fraction] = {}
        for bv, c in entries.items():
            key = _basis_key(bv)
            cf = exact_fraction(c)
            if cf:
                coeffs[key] = coeffs.get(key, 0) + cf
        super().__init__(coeffs, ncomp)
        self.ncomp = self._ambient(self.numerators, ncomp)

    @classmethod
    def _raw(cls, numerators: dict, den: int, ncomp: int | None) -> "GeneratorVector":
        return super()._raw(numerators, den, cls._ambient(numerators, ncomp))

    @staticmethod
    def _ambient(numerators: Mapping[BasisVector, int], ncomp: int | None) -> int:
        """``ncomp``, or the largest entry component when None; raises ``ValueError``
        for a generator without entries or with a component beyond ``ncomp``."""
        if not numerators:
            raise ValueError("a generator must have at least one nonzero entry")
        maxcomp = max(bv.component for bv in numerators)
        ncomp = maxcomp if ncomp is None else _json_int(ncomp)
        if maxcomp > ncomp:
            raise ValueError("entry component exceeds the ambient count")
        return ncomp

    @classmethod
    def basis(cls, component: int, index: int, ncomp: int | None = None) -> "GeneratorVector":
        return cls({BasisVector(component, index): 1}, ncomp)

    entries = property(Numerated._fractions,
                       doc="Each entry's reduced ``Fraction``, in a new dict on every read.")

    def scale(self, value: RationalLike) -> "GeneratorVector":
        c = exact_fraction(value)
        if not c:
            raise ValueError("scaling a generator to zero is not representable")
        return self._scaled(c)

    def add(self, other: "GeneratorVector") -> "GeneratorVector":
        if self.ncomp != other.ncomp:
            raise ValueError("ambient component count mismatch")
        return self._sum(other, 1)

    def lambda_shift(self, n_parts: Sequence[int], power: int = 1) -> "GeneratorVector":
        """Apply the reduction shift: e_l^(a) -> e_{l - power * n_a}^(a).

        Entries may land at index <= 0; they are kept (see class docstring).
        """
        n_parts = _reduction_orders(n_parts, self.ncomp)
        if _json_int(power) < 0:
            raise ValueError("shift power must be >= 0")
        moved = {
            BasisVector(bv.component, bv.index - power * n_parts[bv.component - 1]): n
            for bv, n in self.numerators.items()
        }
        return GeneratorVector._raw(moved, self.den, self.ncomp)  # still canonical


def _basis_key(bv: object) -> BasisVector:
    """A generator key as a ``BasisVector``; anything but a (component, index) pair of
    integers raises a one-line ``TypeError`` naming it, and a component < 1 ``ValueError``."""
    try:
        component, index = int_tuple(bv)  # type: ignore[arg-type]
    except (TypeError, ValueError):  # not a sequence of integers, or not two of them
        raise TypeError(
            f"a generator key is a (component, index) pair of integers, got {bv!r}") from None
    if component < 1:
        raise ValueError("components are 1-indexed")
    return BasisVector(component, index)


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
    docstring); ``fermion.wedge`` builds f_1 ^ (f_2 ^ .. ^ f_m).  The wedge runs
    on each generator's integer numerators, over d, the product of their
    denominators, and returns ({state: numerator}, d, layout).  A generator of
    another component count than ``ncomp`` raises ``ValueError``.
    """
    _ncomp(ncomp)
    for g in fs:
        if g.ncomp != ncomp:
            raise ValueError(f"a generator has {g.ncomp} components, the wedge {ncomp}")
    width = max([0, *(bv.index for g in fs for bv in g.numerators)])  # 0 if no entry is above 0
    wedge: dict[int, int] = {0: 1}
    den = 1
    for g in reversed(fs):
        den *= g.den
        wedge = fermion.wedge(wedge, [  # an index <= 0 meets a vacuum factor
            (1 << ((ncomp - v.component) * width + v.index - 1), c)
            for v, c in g.numerators.items() if v.index >= 1
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
    b * s_{M-l}(c) at e_l^(a) for l = 1..M (leading entry b at l = M).  With
    (v, d) the integers of ``schur._schur_numerators(M - 1, c)``, v_n =
    (M-1)! d^n s_n(c), entry l = M - n is b.num * v_n * d^(M-1-n) over
    b.den * v_0 * d^(M-1); the components meet over the lcm of their denominators.
    """
    parts: list[tuple[dict[BasisVector, int], int]] = []
    for a, term in enumerate(spec.terms, start=1):
        b, top = term.coeff, term.degree - 1
        if b:
            v, d = _schur_numerators(top, term.shift)
            parts.append(({
                BasisVector(a, top + 1 - n): b.numerator * v[n] * d ** (top - n)
                for n in range(top, -1, -1) if v[n]
            }, b.denominator * v[0] * d**top))
    den = lcm(*[d for _, d in parts])
    numerators = {bv: n * (den // d) for entries, d in parts for bv, n in entries.items()}
    return GeneratorVector._reduced(numerators, den, ncomp)


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
