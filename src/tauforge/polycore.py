"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dict from monomial to coefficient.  Coefficients are
``fractions.Fraction`` (always reduced, exact); a monomial is a tuple of
``(VarId, exponent)`` pairs sorted by variable with all exponents >= 1.
The zero polynomial has an empty term dict.

Variables are indexed symbols t_i, y_i, x_i, each optionally attached to a
component (for multicomponent hierarchies).  Every ``Poly`` carries the
ambient component count ``ncomp``; it is an error to combine polynomials with
different ambient counts, while mixing variable families or components inside
one ambient is fine.

Every product runs through one kernel, ``Poly.sum_of_products``, which
returns sum_k c_k * a_k * b_k on integers; ``a * b`` is its one-pair case.
Each variable gets a bit field, in canonical variable order, so a monomial
packs into one int and multiplying monomials adds their ints.  A field is
``max_k(max exponent of a_k + max exponent of b_k).bit_length()`` bits wide,
and no product exponent exceeds that sum, so no field ever carries into the
next: there is no exponent cap to check.  Each distinct factor is packed
once, as integer numerators over its lcm denominator d; every pair adds into
one integer accumulator over the lcm of the c_k.denominator * d(a_k) * d(b_k),
and each nonzero output term becomes one reduced ``Fraction``.
"""

from __future__ import annotations

from collections import defaultdict
from enum import IntEnum
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Union


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

#: Canonical constant-term monomial.
ONE_MONOMIAL: Monomial = ()


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def exact_fraction(value: RationalLike | str) -> Fraction:
    """An int, a Fraction or a string such as "1/2" as a Fraction; anything else,
    a float above all, raises ``TypeError`` (0.1 is not 1/10 in binary)."""
    return Fraction(value) if isinstance(value, str) else _as_fraction(value)


def _json_int(value: object) -> int:
    # int(2.7) would silently read 2, and True is an int to Python
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def int_tuple(value: Iterable[int]) -> tuple[int, ...]:
    """A partition or a charge label as a tuple of integers; a string, or a float or bool
    part, raises ``TypeError``."""
    if isinstance(value, (str, bytes)):
        raise TypeError(f"expected a sequence of integers, got {value!r}")
    return tuple(map(_json_int, value))


def _pack(
    terms: Mapping[Monomial, Fraction], shift: Mapping[VarId, int]
) -> tuple[list[tuple[int, int]], int]:
    """(packed monomial, integer numerator) pairs over the lcm denominator."""
    den = lcm(*[c.denominator for c in terms.values()])
    packed = []
    for mono, c in terms.items():
        key = 0
        for v, e in mono:
            key += e << shift[v]
        packed.append((key, c.numerator * (den // c.denominator)))
    return packed, den


def _check_ambient(ncomp: int, other: "Poly") -> None:
    if other.ncomp != ncomp:
        raise ValueError(f"ambient component count mismatch: {ncomp} vs {other.ncomp}")


def _term_sort_key(mono: Monomial):
    # Graded by total exponent degree, then lexicographic on the flattened
    # (family, component, index, exponent) sequence.
    degree = sum(e for _, e in mono)
    flat = tuple((int(v.family), v.component, v.index, e) for v, e in mono)
    return (degree, flat)


class Poly:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms", "ncomp")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None, ncomp: int = 1):
        if ncomp < 1:
            raise ValueError("ambient component count must be >= 1")
        if terms:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = {}
        self.ncomp = ncomp

    @classmethod
    def _raw(cls, terms: dict[Monomial, Fraction], ncomp: int) -> "Poly":
        # Trusted fast path: terms must already be canonical and zero-free.
        self = object.__new__(cls)
        self.terms = terms
        self.ncomp = ncomp
        return self

    @classmethod
    def zero(cls, ncomp: int = 1) -> "Poly":
        if ncomp < 1:
            raise ValueError("ambient component count must be >= 1")
        return cls._raw({}, ncomp)

    @classmethod
    def const(cls, value: RationalLike, ncomp: int = 1) -> "Poly":
        if ncomp < 1:
            raise ValueError("ambient component count must be >= 1")
        c = _as_fraction(value)
        return cls._raw({ONE_MONOMIAL: c} if c else {}, ncomp)

    @classmethod
    def var(cls, v: VarId, ncomp: int = 1) -> "Poly":
        if v.index < 1:
            raise ValueError(f"variable index must be >= 1, got {v.index}")
        if not 1 <= v.component <= ncomp:
            raise ValueError(
                f"component {v.component} outside ambient range 1..{ncomp}"
            )
        return cls._raw({((v, 1),): Fraction(1)}, ncomp)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.ncomp == other.ncomp and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return not self.terms
            return self.terms == {ONE_MONOMIAL: c}
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.ncomp)
        elif not isinstance(other, Poly):
            return NotImplemented
        _check_ambient(self.ncomp, other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
        return Poly._raw(out, self.ncomp)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self.terms.items()}, self.ncomp)

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.ncomp)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other: RationalLike) -> "Poly":
        return Poly.const(other, self.ncomp).__sub__(self)

    def scale(self, value: RationalLike) -> "Poly":
        c = _as_fraction(value)
        if not c:
            return Poly.zero(self.ncomp)
        return Poly._raw({m: co * c for m, co in self.terms.items()}, self.ncomp)

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly.sum_of_products([(1, self, other)], self.ncomp)

    @staticmethod
    def sum_of_products(triples: Iterable[tuple[RationalLike, Poly, Poly]], ncomp: int) -> Poly:
        """sum_k c_k * a_k * b_k over (c_k, a_k, b_k) in ``triples`` (module docstring)."""
        pairs = []
        for c, a, b in triples:
            _check_ambient(ncomp, a)
            _check_ambient(ncomp, b)
            c = _as_fraction(c)
            if c and a.terms and b.terms:
                pairs.append((c, a, b))
        if not pairs:
            return Poly.zero(ncomp)
        # Factors are keyed by identity, so one Poly in several pairs is packed
        # once.  Variable k owns bits [k * width, (k + 1) * width) in canonical
        # variable order, so unpacking from bit 0 up yields sorted monomials.
        factors = {id(f): f for _, a, b in pairs for f in (a, b)}
        tops = {key: max((e for mono in f.terms for _, e in mono), default=0)
                for key, f in factors.items()}
        width = max(tops[id(a)] + tops[id(b)] for _, a, b in pairs).bit_length()
        variables = sorted({v for f in factors.values() for mono in f.terms for v, _ in mono})
        shift = {v: k * width for k, v in enumerate(variables)}
        packed = {key: _pack(f.terms, shift) for key, f in factors.items()}
        den = lcm(*[c.denominator * packed[id(a)][1] * packed[id(b)][1] for c, a, b in pairs])
        acc: defaultdict[int, int] = defaultdict(int)
        for c, a, b in pairs:
            pa, da = packed[id(a)]
            pb, db = packed[id(b)]
            if len(pa) < len(pb):
                pa, pb = pb, pa
            weight = c.numerator * (den // (c.denominator * da * db))
            if weight != 1:
                pb = [(kb, nb * weight) for kb, nb in pb]
            for kb, nb in pb:
                for ka, na in pa:
                    acc[ka + kb] += na * nb
        mask = (1 << width) - 1
        out: dict[Monomial, Fraction] = {}
        for key, n in acc.items():
            if n:
                mono = []
                k = 0
                while key:
                    e = key & mask
                    if e:
                        mono.append((variables[k], e))
                    key >>= width
                    k += 1
                out[tuple(mono)] = Fraction(n, den)
        return Poly._raw(out, ncomp)

    def __rmul__(self, other: RationalLike) -> "Poly":
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
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
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order == 0:
            return self
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for i, (w, e) in enumerate(mono):
                if w != v:
                    continue
                if e >= order:
                    c = coeff
                    for k in range(order):
                        c *= e - k
                    # lowering one exponent keeps distinct monomials distinct
                    rest = ((w, e - order),) if e > order else ()
                    out[mono[:i] + rest + mono[i + 1 :]] = c
                break
        return Poly._raw(out, self.ncomp)

    # -- structure ----------------------------------------------------------

    def variables(self) -> set[VarId]:
        seen: set[VarId] = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return seen

    def weighted_degree(self) -> int:
        """Max over monomials of sum(index * exponent); -1 for the zero poly."""
        if not self.terms:
            return -1
        return max(sum(v.index * e for v, e in m) for m in self.terms)

    # -- rendering ----------------------------------------------------------

    def _var_text(self, v: VarId) -> str:
        base = f"{v.family.letter}{v.index}"
        if self.ncomp > 1:
            base += f"[{v.component}]"
        return base

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono, coeff in sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0])):
            mag = abs(coeff)
            if mono:
                vars_text = "*".join(
                    self._var_text(v) + (f"^{e}" if e > 1 else "") for v, e in mono
                )
                body = vars_text if mag == 1 else f"{mag}*{vars_text}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self!s})"

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        terms = []
        for mono, coeff in sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0])):
            terms.append(
                {
                    "coeff": str(coeff),
                    "monomial": [[v.family.name, v.component, v.index, e] for v, e in mono],
                }
            )
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


# -- convenience constructors ------------------------------------------------


def tvar(index: int, component: int = 1, ncomp: int = 1) -> Poly:
    return Poly.var(VarId(Family.T, component, index), ncomp)


def yvar(index: int, component: int = 1, ncomp: int = 1) -> Poly:
    return Poly.var(VarId(Family.Y, component, index), ncomp)


def xvar(index: int, component: int = 1, ncomp: int = 1) -> Poly:
    return Poly.var(VarId(Family.X, component, index), ncomp)
