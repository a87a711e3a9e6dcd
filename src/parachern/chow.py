"""Variety models and the formal cover.

A variety is described by named divisor components (degree-1 generators),
extra graded generators, homogeneous monomial relations, a dimension cutoff
and an optional integration table for top-degree monomials.  A cover of
order N is the same ring with every divisor generator renamed and rescaled:
transporting a class upstairs multiplies each term by N^e, where e is its
total divisor exponent.  This pullback is a graded ring isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .rings import GradedRing, InputError, Monomial, RingElement, RingMismatchError

NamedMono = tuple[tuple[str, int], ...]
NamedMonoSpec = Union[Mapping[str, int], Iterable[tuple[str, int]]]

COVER_PREFIX = "~"


class MissingIntegralError(ValueError):
    """Integration hit a top-degree monomial without a table entry."""

    def __init__(self, monomial: str):
        super().__init__(f"no integral declared for monomial {monomial}")
        self.monomial = monomial


def _canon_mono(spec: NamedMonoSpec) -> NamedMono:
    items = spec.items() if isinstance(spec, Mapping) else spec
    acc: dict[str, int] = {}
    for name, exp in items:
        e = int(exp)
        if e < 0:
            raise ValueError("exponents must be non-negative")
        if e:
            acc[name] = acc.get(name, 0) + e
    return tuple(sorted(acc.items()))


def _canon_poly(terms) -> tuple[tuple[Fraction, NamedMono], ...]:
    out = []
    for coeff, mono in terms:
        value = Fraction(coeff)
        if value:
            out.append((value, _canon_mono(mono)))
    return tuple(out)


@dataclass(frozen=True)
class ChowDescription:
    """User-level description of a variety's Chow-ring model.

    ``relations`` is a sequence of (monomial, polynomial) pairs where the
    monomial is a {name: exponent} mapping or a sequence of (name,
    exponent) factors, repeated names adding up, and the polynomial a
    sequence of (coefficient, monomial) terms; ``integrals`` maps top-degree
    monomials to exact rationals, one value per monomial.  A failed check
    on a generator or an integral raises :class:`InputError` with the path
    ``(field, index)``.
    """

    name: str
    dim: int
    divisor_names: tuple[str, ...] = ()
    extra_generators: tuple[tuple[str, int], ...] = ()
    relations: tuple = ()
    integrals: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "divisor_names", tuple(self.divisor_names))
        extras = tuple((str(n), int(d)) for n, d in self.extra_generators)
        object.__setattr__(self, "extra_generators", extras)
        if int(self.dim) < 1:
            raise ValueError("variety dimension must be at least 1")
        object.__setattr__(self, "dim", int(self.dim))
        degrees: dict[str, int] = {}
        for index, name in enumerate(self.divisor_names):
            if name in degrees:
                raise InputError(
                    f"duplicate generator name {name!r}", "divisor_names", index
                )
            degrees[name] = 1
        for index, (name, degree) in enumerate(extras):
            if name in degrees:
                raise InputError(
                    f"duplicate generator name {name!r}", "extra_generators", index
                )
            if degree < 1:
                raise InputError(
                    "class degree must be at least 1", "extra_generators", index
                )
            degrees[name] = degree
        relations = tuple(
            (_canon_mono(lhs), _canon_poly(rhs)) for lhs, rhs in self.relations
        )
        object.__setattr__(self, "relations", relations)
        raw_integrals = self.integrals
        items = (
            raw_integrals.items() if isinstance(raw_integrals, Mapping) else raw_integrals
        )
        table = {}
        for index, (mono, value) in enumerate(items):
            factors = list(mono.items() if isinstance(mono, Mapping) else mono)
            cm = _canon_mono(factors)
            for name, _ in cm:
                if name not in degrees:
                    raise InputError(
                        f"unknown generator {name!r}", "integrals", index
                    )
            if sum(degrees[n] * e for n, e in cm) != self.dim:
                raise InputError(
                    f"integral monomial must have degree {self.dim}",
                    "integrals",
                    index,
                )
            if cm in table:
                # The monomial as written, e.g. D1*D1 for a repeated D1^2.
                named = "*".join(n if e == 1 else f"{n}^{e}" for n, e in factors)
                raise InputError(
                    f"duplicate integral for monomial {named}", "integrals", index
                )
            table[cm] = Fraction(value)
        object.__setattr__(self, "integrals", tuple(sorted(table.items())))


def build_ring(desc: ChowDescription) -> GradedRing:
    """The graded ring of a description: divisors first, extras after."""
    generators = [(name, 1) for name in desc.divisor_names]
    generators.extend(desc.extra_generators)
    rules = [
        (dict(lhs), [(coeff, dict(mono)) for coeff, mono in rhs])
        for lhs, rhs in desc.relations
    ]
    return GradedRing(generators, cutoff=desc.dim, rules=rules)


@dataclass(frozen=True, eq=False)
class Variety:
    description: ChowDescription
    ring: GradedRing
    integral_table: dict[Monomial, Fraction] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.description.dim


def build_variety(desc: ChowDescription) -> Variety:
    ring = build_ring(desc)
    table = {ring.monomial(dict(mono)): value for mono, value in desc.integrals}
    return Variety(desc, ring, table)


def integrate(variety: Variety, a: RingElement) -> Fraction:
    """Apply the degree functional: look up every top-degree monomial in the
    integration table; parts below the top degree contribute nothing."""
    if a.ring is not variety.ring:
        raise RingMismatchError("element does not belong to this variety's ring")
    total = Fraction(0)
    for mono, coeff in a.graded_part(variety.dim).sorted_terms():
        if mono not in variety.integral_table:
            raise MissingIntegralError(variety.ring.format_monomial(mono))
        total += coeff * variety.integral_table[mono]
    return total


@dataclass(frozen=True, eq=False)
class CoverModel:
    """A formal cover of order N: divisor generators renamed with a tilde
    prefix, every base relation transported under D -> N * ~D."""

    base: Variety
    order: int
    cover_ring: GradedRing

    @property
    def _n_divisors(self) -> int:
        return len(self.base.description.divisor_names)

    def divisor(self, base_name: str) -> RingElement:
        """The cover-ring divisor generator lying over a base divisor."""
        if base_name not in self.base.description.divisor_names:
            raise KeyError(f"unknown divisor {base_name!r}")
        return self.cover_ring.generator(COVER_PREFIX + base_name)

    def pullback(self, a: RingElement) -> RingElement:
        """Transport a base class to the cover: each term is scaled by
        order^e with e its total divisor exponent."""
        if a.ring is not self.base.ring:
            raise RingMismatchError("element does not belong to the base ring")
        n = self._n_divisors
        num = {mono: c * self.order ** sum(mono[:n]) for mono, c in a._num.items()}
        return RingElement._from_numerators(self.cover_ring, num, a._den)


def make_cover(variety: Variety, order: int) -> CoverModel:
    if int(order) < 1:
        raise ValueError("cover order must be a positive integer")
    order = int(order)
    desc = variety.description
    divisors = set(desc.divisor_names)

    def rename(mono: NamedMono) -> dict[str, int]:
        return {
            (COVER_PREFIX + name if name in divisors else name): exp
            for name, exp in mono
        }

    def divisor_exponent(mono: NamedMono) -> int:
        return sum(exp for name, exp in mono if name in divisors)

    generators = [(COVER_PREFIX + name, 1) for name in desc.divisor_names]
    generators.extend(desc.extra_generators)
    rules = []
    for lhs, rhs in desc.relations:
        scale = Fraction(1, order ** divisor_exponent(lhs))
        rules.append(
            (
                rename(lhs),
                [
                    (coeff * scale * order ** divisor_exponent(mono), rename(mono))
                    for coeff, mono in rhs
                ],
            )
        )
    ring = GradedRing(generators, cutoff=desc.dim, rules=rules)
    return CoverModel(variety, order, ring)
