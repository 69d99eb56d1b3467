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

Every ``Poly`` product runs through one packed kernel, ``packed_sum``, which
returns sum_k w_k * a_k * b_k on integers: ``Poly.sum_of_products`` and the
determinant kernel ``tau._det`` both call it, and ``a * b`` is the one-pair
case of the first.  A ``Packing`` gives each variable a bit field, in
canonical variable order, so a monomial packs into one int and multiplying
monomials adds their ints.  Its caller names a bound ``top`` on every exponent the products can
reach, and each field is ``top.bit_length()`` bits wide, so no field ever
carries into the next: there is no exponent cap to check.
``sum_of_products`` takes ``top`` = max_k(max exponent of a_k + max exponent
of b_k), since a product's exponent is the sum of its factors' exponents;
``tau._det`` takes the sum over rows of the largest exponent in each row.
Coefficients are packed as integer numerators over a common denominator, and
only the final sum becomes ``Fraction``s, one reduced ``Fraction`` per term.
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
# the nonzero terms of one polynomial as (monomial, integer numerator) over one denominator
Numerators = tuple[list[tuple[Monomial, int]], int]

#: Canonical constant-term monomial.
ONE_MONOMIAL: Monomial = ()


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


class Poly:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms", "ncomp")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None, ncomp: int = 1):
        self.ncomp = _ncomp(ncomp)  # zero, const and var construct through here
        if terms:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def _raw(cls, terms: dict[Monomial, Fraction], ncomp: int) -> "Poly":
        # Trusted fast path: terms must already be canonical and zero-free.
        self = object.__new__(cls)
        self.terms = terms
        self.ncomp = ncomp
        return self

    @classmethod
    def zero(cls, ncomp: int = 1) -> "Poly":
        return cls(None, ncomp)

    @classmethod
    def const(cls, value: RationalLike, ncomp: int = 1) -> "Poly":
        return cls({ONE_MONOMIAL: _as_fraction(value)}, ncomp)

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
        return cls({((v, 1),): Fraction(1)}, ncomp)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.ncomp == other.ncomp and self.terms == other.terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
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
        """sum_k c_k * a_k * b_k over (c_k, a_k, b_k) in ``triples``, in one ``packed_sum``."""
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
        # once, as numerators over its own lcm denominator.
        factors = {id(f): f for _, a, b in pairs for f in (a, b)}
        tops = {key: f.max_exponent() for key, f in factors.items()}
        layout = Packing((m for f in factors.values() for m in f.terms),
                         max(tops[id(a)] + tops[id(b)] for _, a, b in pairs))
        numerators = {key: f._numerators() for key, f in factors.items()}
        packed = {key: layout.pack(terms, 1) for key, (terms, _) in numerators.items()}
        scales = [c.denominator * numerators[id(a)][1] * numerators[id(b)][1] for c, a, b in pairs]
        den = lcm(*scales)
        return layout.unpack(packed_sum(
            (c.numerator * (den // scale), packed[id(a)], packed[id(b)])
            for (c, a, b), scale in zip(pairs, scales)
        ), den, ncomp)

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

    def _numerators(self) -> "Numerators":
        """The terms as integer numerators over the lcm of their denominators."""
        den = lcm(*[c.denominator for c in self.terms.values()])
        return [(m, c.numerator * (den // c.denominator)) for m, c in self.terms.items()], den

    @classmethod
    def _from_numerators(cls, terms: "Numerators", ncomp: int) -> "Poly":
        """The Poly of nonzero integer numerators over one denominator."""
        listed, den = terms
        return cls._raw({m: Fraction(n, den) for m, n in listed}, ncomp)

    def max_exponent(self) -> int:
        """The largest exponent of any variable in any term; 0 without variables."""
        return max((e for mono in self.terms for _, e in mono), default=0)

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
        self.variables = sorted({v for mono in monomials for v, _ in mono})
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

    def unpack(self, packed: Packed, den: int, ncomp: int) -> Poly:
        """The Poly whose terms are the packed numerators over ``den``."""
        width, variables = self.width, self.variables
        mask = (1 << width) - 1
        out: dict[Monomial, Fraction] = {}
        for key, n in packed:
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
