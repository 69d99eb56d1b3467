"""Exact sparse multivariate polynomials over the rationals.

A ``Poly`` holds integer numerators over one positive denominator: a dict
from monomial to nonzero int, and ``den``.  A monomial is a tuple of
``(VarId, exponent)`` pairs sorted by variable with all exponents >= 1.  The
form is canonical: ``den`` and the numerators have no common factor, and zero
is ``({}, 1)``, so two equal polynomials have equal dicts and equal
denominators, and ``==`` compares them as they are.

That form has one owner, ``Numerated``, the base class of ``Poly`` and of
the oracle's ``fock.GeneratorVector``.  It holds ``numerators``, ``den`` and
``ncomp``, and it provides construction from rationals, ``_raw`` (the trusted
fast path) and ``_reduced`` (division by the common factor), the sum over the
lcm of the denominators, scaling by a nonzero rational, ``==`` between
objects of one type and the fresh ``Fraction`` view.  A subclass keeps only
its own rules: its keys, its checks, its zero and its error messages.

The rationals enter at the constructors alone (``Poly(terms)``, ``const``,
``var``, ``scale`` and ``from_json_obj``), each coefficient through
``_as_fraction``: an int or a ``Fraction``, never a float, bool or string.
Every operation runs on the integers, and a result whose numerators may
share a factor with its denominator (a sum, a derivative, a product) is
divided by their gcd.  The renderer and the serializer read the numerators
too, each coefficient reduced on its own as it is printed.  ``terms``, the
reduced ``Fraction`` of each term, is a fresh dict on every read, for readers
outside the package; nothing in it reads ``terms``, and a ``Poly`` has no
state filled after construction.

Variables are indexed symbols t_i, y_i, x_i, each optionally attached to a
component (for multicomponent hierarchies).  Every ``Poly`` carries the
ambient component count ``ncomp``; it is an error to combine polynomials with
different ambient counts, while mixing variable families or components inside
one ambient is fine.

Every ``Poly`` product runs through one packed kernel, ``packed_sum``, which
returns sum_k w_k * a_k * b_k on integers, and every packing through one
entry, ``pack_over(factors, top)``: ``a * b``, the determinant kernel
``tau._dets`` and the AKNS check ``hirota.akns_pde_check`` call it, and no
other module names ``Packing``.  A ``Packing`` gives each variable a bit
field, in canonical variable order, so a monomial packs into one int and
multiplying monomials adds their ints.  The caller names a bound ``top`` on
every exponent its products can reach, and states why at the call; each
field is ``top.bit_length()`` bits wide, so no field ever carries into the
next: there is no exponent cap to check.  ``pack_over`` packs every factor's
numerators over D, the lcm of the factors' denominators, so a product of k
packed factors is over D^k, and ``Packing.unpack`` divides it by the common
factor and returns the integer ``Poly``.
"""

from __future__ import annotations

from collections import defaultdict
from enum import IntEnum
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Collection, Hashable, Iterable, Iterator, Mapping, NamedTuple, Union


class Family(IntEnum):
    """Variable family: T (times), Y (second copy of times), X (AKNS times)."""

    T = 0
    Y = 1
    X = 2

    @property
    def letter(self) -> str:
        return self.name.lower()


class VarId(NamedTuple):
    family: Family
    component: int
    index: int


Monomial = tuple[tuple[VarId, int], ...]
RationalLike = Union[Fraction, int]
# the nonzero terms of one polynomial as (monomial, integer numerator) over one denominator
Numerators = tuple[Collection[tuple[Monomial, int]], int]

#: Canonical constant-term monomial.
ONE_MONOMIAL: Monomial = ()

# the two items of a pair: a monomial's (variable, exponent), a term's (key, numerator)
_first, _second = itemgetter(0), itemgetter(1)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def exact_fraction(value: RationalLike | str) -> Fraction:
    """An int, a Fraction or a string such as "1/2" as a Fraction; anything else,
    a float above all, raises ``TypeError`` (0.1 is not 1/10 in binary), and so
    does a bool."""
    return Fraction(value) if isinstance(value, str) else _as_fraction(value)


def _json_int(value: object) -> int:
    # int(2.7) would silently read 2, and True is an int to Python
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _ncomp(value: object) -> int:
    # the one check of a component count: every ambient and charge-label arity
    if _json_int(value) < 1:
        raise ValueError("ambient component count must be >= 1")
    return value


def int_tuple(value: Iterable[int]) -> tuple[int, ...]:
    """A partition or a charge label as a tuple of integers; a string, or a float or bool
    part, raises ``TypeError``."""
    if isinstance(value, (str, bytes)):
        raise TypeError(f"expected a sequence of integers, got {value!r}")
    return tuple(map(_json_int, value))


def _check_ambient(ncomp: int, other: "Poly") -> None:
    if other.ncomp != ncomp:
        raise ValueError(f"ambient component count mismatch: {ncomp} vs {other.ncomp}")


def _term_sort_key(mono: Monomial):
    # Graded by total exponent degree, then lexicographic on the flattened
    # (family, component, index, exponent) sequence.
    degree = sum(e for _, e in mono)
    flat = tuple((int(v.family), v.component, v.index, e) for v, e in mono)
    return (degree, flat)


class Numerated:
    """Integer numerators over one positive denominator, in canonical form
    (module docstring): the representation of ``Poly`` and ``fock.GeneratorVector``.

    ``numerators`` maps each key to a nonzero int, ``den`` shares no factor with
    them, and ``ncomp`` is the ambient component count.
    """

    __slots__ = ("numerators", "den", "ncomp")

    def __init__(self, coeffs: Mapping[Hashable, Fraction], ncomp: int | None):
        # den is the lcm of the reduced denominators: each prime power in den is the
        # whole denominator of some term, whose numerator that prime does not divide.
        den = lcm(*[c.denominator for c in coeffs.values()])
        self.numerators = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}
        self.den = den
        self.ncomp = ncomp

    @classmethod
    def _raw(cls, numerators: dict, den: int, ncomp: int):
        # Trusted fast path: the numerators must be nonzero and canonical over den.
        self = object.__new__(cls)
        self.numerators = numerators
        self.den = den
        self.ncomp = ncomp
        return self

    @classmethod
    def _reduced(cls, numerators: dict, den: int, ncomp: int):
        """The object of nonzero integer numerators over a positive ``den``, divided
        by their common factor."""
        if den != 1:
            g = gcd(den, *numerators.values())
            if g != 1:
                numerators = {k: n // g for k, n in numerators.items()}
                den //= g
        return cls._raw(numerators, den, ncomp)

    def _sum(self, other: "Numerated", sign: int):
        """self + sign * other, of one type and ambient, on the numerators over
        the lcm of the denominators."""
        den = lcm(self.den, other.den)
        scale = den // self.den
        out = ({k: n * scale for k, n in self.numerators.items()} if scale != 1
               else dict(self.numerators))
        scale = sign * (den // other.den)
        for k, n in other.numerators.items():
            n *= scale
            acc = out.get(k)
            if acc is None:
                out[k] = n
            else:
                acc += n
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return self._reduced(out, den, self.ncomp)

    def _scaled(self, c: RationalLike):
        """self times a nonzero int or ``Fraction``."""
        n = c.numerator
        return self._reduced({k: x * n for k, x in self.numerators.items()},
                             self.den * c.denominator, self.ncomp)

    def _fractions(self) -> dict:
        """Each key's reduced ``Fraction``, in a new dict on every read."""
        den = self.den
        return {k: Fraction(n, den) for k, n in self.numerators.items()}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.ncomp == other.ncomp and self.den == other.den
                and self.numerators == other.numerators)

    __hash__ = None  # type: ignore[assignment]


class Poly(Numerated):
    """Immutable-by-convention sparse polynomial: integer numerators over one
    positive denominator, in canonical form (module docstring)."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None, ncomp: int = 1):
        ncomp = _ncomp(ncomp)  # const and var construct through here
        super().__init__({m: _as_fraction(c) for m, c in (terms or {}).items()}, ncomp)

    @classmethod
    def zero(cls, ncomp: int = 1) -> "Poly":
        return cls._raw({}, 1, _ncomp(ncomp))

    @classmethod
    def const(cls, value: RationalLike, ncomp: int = 1) -> "Poly":
        return cls({ONE_MONOMIAL: value}, ncomp)

    @classmethod
    def var(cls, v: VarId, ncomp: int = 1) -> "Poly":
        if not isinstance(v.family, Family):
            raise TypeError(f"expected a Family member, got {v.family!r}")
        if _json_int(v.index) < 1:
            raise ValueError(f"variable index must be >= 1, got {v.index}")
        if not 1 <= _json_int(v.component) <= ncomp:
            raise ValueError(
                f"component {v.component} outside ambient range 1..{ncomp}"
            )
        return cls({((v, 1),): 1}, ncomp)

    terms = property(Numerated._fractions,
                     doc="Each term's reduced ``Fraction``, in a new dict on every read.")

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            c = _as_fraction(other)
            if not c:
                return not self.numerators
            return self.den == c.denominator and self.numerators == {ONE_MONOMIAL: c.numerator}
        return super().__eq__(other)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        return self._plus(other, -1)

    def _plus(self, other: "Poly | RationalLike", sign: int) -> "Poly":
        """self + sign * other (``Numerated._sum``), a number read as a constant."""
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.ncomp)
        elif not isinstance(other, Poly):
            return NotImplemented
        _check_ambient(self.ncomp, other)
        if not other.numerators:
            return self
        if not self.numerators:
            return other if sign == 1 else -other
        return self._sum(other, sign)

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -n for m, n in self.numerators.items()}, self.den, self.ncomp)

    def __rsub__(self, other: RationalLike) -> "Poly":
        return Poly.const(other, self.ncomp).__sub__(self)

    def scale(self, value: RationalLike) -> "Poly":
        c = value if type(value) is int else _as_fraction(value)  # both have .numerator
        return self._scaled(c) if c else Poly.zero(self.ncomp)

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        _check_ambient(self.ncomp, other)
        # a product's exponent is the sum of its factors' exponents
        layout, (a, b), den = pack_over(
            [(self.numerators.items(), self.den), (other.numerators.items(), other.den)],
            self.max_exponent() + other.max_exponent())
        return layout.unpack(packed_sum([(1, a, b)]), den * den, self.ncomp)

    def __rmul__(self, other: RationalLike) -> "Poly":
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Poly":
        if _json_int(exponent) < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1, self.ncomp)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus -----------------------------------------------------------

    def diff(self, v: VarId, order: int = 1) -> "Poly":
        """Partial derivative of the given order with respect to one variable."""
        if _json_int(order) < 0:
            raise ValueError("derivative order must be >= 0")
        if order == 0:
            return self
        out: dict[Monomial, int] = {}
        for mono, n in self.numerators.items():
            for i, (w, e) in enumerate(mono):
                if w != v:
                    continue
                if e >= order:
                    for k in range(order):
                        n *= e - k
                    # lowering one exponent keeps distinct monomials distinct
                    rest = ((w, e - order),) if e > order else ()
                    out[mono[:i] + rest + mono[i + 1 :]] = n
                break
        return Poly._reduced(out, self.den, self.ncomp)

    # -- structure ----------------------------------------------------------

    def variables(self) -> set[VarId]:
        return set(map(_first, chain.from_iterable(self.numerators)))

    def max_exponent(self) -> int:
        """The largest exponent of any variable in any term; 0 without variables."""
        return max(map(_second, chain.from_iterable(self.numerators)), default=0)

    # -- rendering ----------------------------------------------------------

    def _var_text(self, v: VarId) -> str:
        base = f"{v.family.letter}{v.index}"
        if self.ncomp > 1:
            base += f"[{v.component}]"
        return base

    def _signed_terms(self) -> Iterator[tuple[Monomial, str, str]]:
        """(monomial, "-" or "", |coefficient| as text) of each term in print order,
        each coefficient reduced from its numerator over ``den``."""
        den, numerators = self.den, self.numerators
        for mono in sorted(numerators, key=_term_sort_key):
            n = numerators[mono]
            g = gcd(n, den)
            mag = f"{abs(n) // g}" if g == den else f"{abs(n) // g}/{den // g}"
            yield mono, "-" if n < 0 else "", mag

    def __str__(self) -> str:
        pieces: list[str] = []
        for mono, sign, mag in self._signed_terms():
            body = "*".join(self._var_text(v) + (f"^{e}" if e > 1 else "") for v, e in mono)
            if mag != "1" or not mono:
                body = f"{mag}*{body}" if mono else mag
            pieces.append(f" {sign or '+'} " + body if pieces else sign + body)
        return "".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"Poly({self!s})"

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        terms = [
            {
                "coeff": sign + mag,
                "monomial": [[v.family.name, v.component, v.index, e] for v, e in mono],
            }
            for mono, sign, mag in self._signed_terms()
        ]
        return {"ncomp": self.ncomp, "terms": terms}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Poly":
        ncomp = _json_int(obj.get("ncomp", 1))
        out: dict[Monomial, Fraction] = {}
        for term in obj["terms"]:
            coeff = exact_fraction(term["coeff"])
            pairs = []
            for fam, component, index, exponent in term["monomial"]:
                v = VarId(Family[fam], _json_int(component), _json_int(index))
                if v.index < 1 or not 1 <= v.component <= ncomp:
                    raise ValueError(f"invalid variable {v} for ambient ncomp={ncomp}")
                if _json_int(exponent) < 1:
                    raise ValueError("exponents must be >= 1")
                pairs.append((v, exponent))
            mono = tuple(sorted(pairs))
            if len(set(v for v, _ in mono)) != len(mono):
                raise ValueError("repeated variable in monomial")
            acc = out.get(mono)
            out[mono] = coeff if acc is None else acc + coeff
        return cls(out, ncomp)


# -- the packed kernel ---------------------------------------------------------

Packed = list[tuple[int, int]]  # (packed monomial, integer numerator) per nonzero term


class Packing:
    """One bit layout for some monomials (module docstring).

    Variable k of the sorted variables owns bits [k * width, (k + 1) * width),
    so unpacking from bit 0 up yields canonical monomials.  ``top`` must bound
    every exponent of every packed product the layout will decode.
    """

    __slots__ = ("variables", "width", "shift")

    def __init__(self, monomials: Iterable[Monomial], top: int):
        self.variables = sorted(set(map(_first, chain.from_iterable(monomials))))
        self.width = top.bit_length()
        self.shift = {v: k * self.width for k, v in enumerate(self.variables)}

    def pack(self, terms: Iterable[tuple[Monomial, int]], scale: int) -> Packed:
        """Each (monomial, integer numerator) of ``terms``, its numerator times ``scale``."""
        shift = self.shift
        out = []
        for mono, n in terms:
            key = 0
            for v, e in mono:
                key += e << shift[v]
            out.append((key, n * scale))
        return out

    def diff(self, packed: Packed, v: VarId, order: int) -> Packed:
        """The ``order``-th derivative in ``v`` of packed terms, as ``Poly.diff``
        takes it: terms whose exponent of ``v`` is below ``order`` drop, and so
        does every term for a ``v`` outside the layout (order 0 keeps them)."""
        if not order:
            return packed
        shift = self.shift.get(v)
        if shift is None:
            return []
        mask, drop = (1 << self.width) - 1, order << shift
        out = []
        for key, n in packed:
            e = (key >> shift) & mask
            if e >= order:
                for k in range(order):
                    n *= e - k
                out.append((key - drop, n))
        return out

    def unpack(self, packed: Packed, den: int, ncomp: int) -> Poly:
        """The Poly of the packed nonzero numerators over ``den``, divided by their
        common factor before any monomial is decoded."""
        width, variables = self.width, self.variables
        mask = (1 << width) - 1
        g = gcd(den, *map(_second, packed))
        out: dict[Monomial, int] = {}
        for key, n in packed:
            mono = []
            k = 0
            while key:
                e = key & mask
                if e:
                    mono.append((variables[k], e))
                key >>= width
                k += 1
            out[tuple(mono)] = n // g
        return Poly._raw(out, den // g, ncomp)


def pack_over(factors: Collection[Numerators], top: int) -> tuple[Packing, list[Packed], int]:
    """(layout, packed factors, D): one ``Packing`` of every monomial of the
    (terms, den) ``factors`` with fields for exponents up to ``top``, and each
    factor's numerators packed over D, the lcm of their denominators."""
    layout = Packing(map(_first, chain.from_iterable(map(_first, factors))), top)
    den = lcm(*[d for _, d in factors])
    return layout, [layout.pack(terms, den // d) for terms, d in factors], den


def packed_sum(triples: Iterable[tuple[int, Packed, Packed]]) -> Packed:
    """sum_k w_k * a_k * b_k over integer weights and packed factors of one
    ``Packing``: the one loop under every ``Poly`` product.  Only nonzero terms stay."""
    acc: defaultdict[int, int] = defaultdict(int)
    for w, pa, pb in triples:
        if len(pa) < len(pb):
            pa, pb = pb, pa
        if w != 1:
            pb = [(kb, nb * w) for kb, nb in pb]
        for kb, nb in pb:
            for ka, na in pa:
                acc[ka + kb] += na * nb
    return [(key, n) for key, n in acc.items() if n]


# -- convenience constructors ------------------------------------------------


def tvar(index: int, component: int = 1, ncomp: int = 1) -> Poly:
    return Poly.var(VarId(Family.T, component, index), ncomp)


def yvar(index: int, component: int = 1, ncomp: int = 1) -> Poly:
    return Poly.var(VarId(Family.Y, component, index), ncomp)


def xvar(index: int, component: int = 1, ncomp: int = 1) -> Poly:
    return Poly.var(VarId(Family.X, component, index), ncomp)
