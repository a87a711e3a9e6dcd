"""Variety models and the formal cover.

A variety is its graded ring, with named divisor components (degree-1
generators) first and extra graded classes after, homogeneous relations
and the dimension as the degree cutoff, together with an optional
integration table for top-degree monomials.  A cover of order N is the
same ring with every divisor generator renamed and rescaled: transporting
a class upstairs multiplies each term by N^e, where e is its total divisor
exponent, and the cover's relation rows are the base rows transported the
same way.  This pullback is a graded ring isomorphism.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .rings import (
    GradedRing,
    InputError,
    Monomial,
    Record,
    RingElement,
    RingMismatchError,
    RuleSpec,
    _positive_integer,
    format_monomial,
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
        if _positive_integer(dim) is None:
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
                packed, degree = ring._key(factors)
            except (KeyError, ValueError) as exc:
                raise InputError(exc.args[0], *at) from None
            if degree != ring.cutoff:
                message = f"integral monomial must have degree {ring.cutoff}"
                raise InputError(message, *at)
            # The monomial as written, e.g. D1*D1 for a repeated D1^2.
            named = format_monomial(factors)
            reduced = ring.element([(1, factors)])
            if list(reduced._num) != [packed]:
                message = f"integral monomial {named} is not normal; it reduces to"
                raise InputError(f"{message} {reduced}", *at)
            mono = ring._unpack(packed)
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
            factors = variety.ring._factors(mono)
            raise MissingIntegralError(format_monomial(factors))
        total += coeff * variety.integral_table[mono]
    return total


class CoverModel(Record):
    """A formal cover of order N: divisor generators renamed with a tilde
    prefix, every base relation transported under D -> N * ~D.  Immutable;
    compares and hashes by identity."""

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
        if a.ring is not self.base.ring:
            raise RingMismatchError("element does not belong to the base ring")
        num = _transported(self.base, self.order, a._num)
        ring = self.cover_ring
        return RingElement._make(ring, *ring._expand(num, a._den))


def _transported(variety: Variety, order: int, num: dict) -> dict:
    """Numerators keyed by packed monomials, each scaled by order^e with e
    its total divisor exponent.  The cover ring packs as the base does."""
    n = len(variety.divisors)
    exponent = variety.ring._leading_exponent
    powers = [order**e for e in range(variety.dim + 1)]
    return {m: c * powers[exponent(m, n)] for m, c in num.items()}


def make_cover(variety: Variety, order: int) -> CoverModel:
    """The cover of the given order.  Its ring keeps the base generator
    order, and each base relation row becomes a cover row with every term
    scaled as :meth:`CoverModel.pullback` scales it; a row's scale leaves
    the normal forms unchanged."""
    order = _positive_integer(order)
    if order is None:
        raise ValueError("cover order must be a positive integer")
    base = variety.ring
    n = len(variety.divisors)
    generators = [(COVER_PREFIX + name, 1) for name in variety.divisors]
    generators.extend(zip(base.names[n:], base._degrees[n:]))
    rows = [_transported(variety, order, row) for row in base._relations]
    ring = GradedRing._from_relations(generators, base.cutoff, rows)
    return CoverModel(variety, order, ring)
