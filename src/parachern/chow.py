"""Variety models and the formal cover.

A variety is its graded ring, with named divisor components (degree-1
generators) first and extra graded classes after, homogeneous relations
and the dimension as the degree cutoff, together with an optional
integration table for top-degree monomials.  A cover of order N is the
same ring with every divisor generator renamed and rescaled: transporting
a class upstairs multiplies each term by N^e, where e is its total divisor
exponent, and the cover's relation rows are the base rows transported the
same way.  This pullback is a graded ring isomorphism.

The kernel, ``rings.py``, owns the packed monomials and numerator forms,
and builds the cover ring and its transport (``RescaledRing``,
``transport``).  This module calls only the kernel's public names; it
keeps the variety, its integrals and the cover as public faces.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .rings import (
    GradedRing,
    InputError,
    Monomial,
    Record,
    RescaledRing,
    RingElement,
    RingMismatchError,
    RuleSpec,
    format_monomial,
    positive_integer,
    transport,
)

COVER_PREFIX = "~"


class MissingIntegralError(ValueError):
    """Integration hit a top-degree monomial without a table entry."""

    def __init__(self, monomial: str):
        super().__init__(f"no integral declared for monomial {monomial}")
        self.monomial = monomial


class Variety(Record):
    """A variety's Chow-ring model and its table of integrals.

    The ring has the ``divisors`` as degree-1 generators, then the
    ``classes`` as (name, degree) pairs, truncated above ``dim``;
    ``relations`` are rules in the form :class:`GradedRing` takes, and the
    ring makes every generator and rule check.  ``integrals`` maps
    top-degree monomials, each a {name: exponent} mapping or a sequence of
    (name, exponent) factors with repeated names adding up, to exact
    rationals, one value per monomial.  Each such monomial must be normal:
    one that a relation rewrites or kills would give the degree functional
    two values.  A failed integral check raises :class:`InputError` with
    the path ``("integrals", index)``.

    Immutable; compares and hashes by identity, and takes weak references.
    """

    __slots__ = ("ring", "divisors", "integral_table", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        dim: int,
        divisors: Iterable[str],
        classes: Iterable[tuple[str, int]] = (),
        relations: Iterable[RuleSpec] = (),
        integrals: Mapping | Iterable = (),
    ):
        if positive_integer(dim) is None:
            raise ValueError("variety dimension must be at least 1")
        divisors = tuple(divisors)
        generators = [(name, 1) for name in divisors]
        generators.extend(classes)
        ring = GradedRing(generators, cutoff=dim, rules=relations)
        table: dict[Monomial, Fraction] = {}
        items = integrals.items() if isinstance(integrals, Mapping) else integrals
        for index, (spec, value) in enumerate(items):
            at = ("integrals", index)
            factors = list(spec.items() if isinstance(spec, Mapping) else spec)
            try:
                mono, degree = ring.read_monomial(factors)
            except (KeyError, ValueError) as exc:
                raise InputError(exc.args[0], *at) from None
            if degree != ring.cutoff:
                message = f"integral monomial must have degree {ring.cutoff}"
                raise InputError(message, *at)
            # The monomial as written, e.g. D1*D1 for a repeated D1^2.
            named = format_monomial(factors)
            if not ring.is_normal(mono):
                reduced = ring.element([(1, factors)])
                message = f"integral monomial {named} is not normal; it reduces to"
                raise InputError(f"{message} {reduced}", *at)
            if mono in table:
                raise InputError(f"duplicate integral for monomial {named}", *at)
            table[mono] = Fraction(value)
        self._fill(ring, divisors, table)

    @property
    def dim(self) -> int:
        return self.ring.cutoff


def integrate(variety: Variety, a: RingElement) -> Fraction:
    """Apply the degree functional: look up every top-degree monomial in the
    integration table; parts below the top degree contribute nothing."""
    if a.ring is not variety.ring:
        raise RingMismatchError("element does not belong to this variety's ring")
    total = Fraction(0)
    for mono, coeff in a.graded_part(variety.dim).sorted_terms():
        if mono not in variety.integral_table:
            raise MissingIntegralError(format_monomial(variety.ring.factors(mono)))
        total += coeff * variety.integral_table[mono]
    return total


class CoverModel(Record):
    """A formal cover of order N: divisor generators renamed with a tilde
    prefix, every base relation transported under D -> N * ~D, in the
    :class:`RescaledRing` ``cover_ring``.  Immutable; compares and hashes by
    identity."""

    __slots__ = ("base", "order", "cover_ring")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def divisor(self, base_name: str) -> RingElement:
        """The cover-ring divisor generator lying over a base divisor."""
        if base_name not in self.base.divisors:
            raise KeyError(f"unknown divisor {base_name!r}")
        return self.cover_ring.generator(COVER_PREFIX + base_name)

    def pullback(self, a: RingElement) -> RingElement:
        """Transport a base class to the cover: each term is scaled by
        order^e with e its total divisor exponent."""
        return transport(a, self.cover_ring)


def make_cover(variety: Variety, order: int) -> CoverModel:
    """The cover of the given order: the variety's ring with its divisors
    renamed and rescaled, as :class:`RescaledRing` builds it."""
    ring = RescaledRing(variety.ring, len(variety.divisors), order, COVER_PREFIX)
    return CoverModel(variety, ring.order, ring)
