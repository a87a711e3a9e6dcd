"""Parabolic bundles presented as weighted sums of ordinary bundle classes.

A parabolic bundle here is a finite direct sum of summands, each an
ordinary bundle class together with a rational weight in [0, 1) per divisor
component, named as in the variety's ``divisors``.  An ordinary bundle
class is entered as a total Chern class and stored as its Chern character;
the trivial line bundle ``O`` is stored with its character 1 directly,
through no Newton bridge.  Each summand's twist, exp of its weighted
divisors, is read by ``GradedRing.element`` from the weights as named
terms.  Each bundle derives its data lazily and at most once, as properties:
``order`` (the cover order), ``character`` and ``classes``, all on the
base; and, for the verifiers only, ``cover``, the cover of minimal order
with the character of the bundle induced on it.

Pullback to the cover is a graded ring isomorphism that commutes with the
Newton bridge, so one identity on characters, ``pulls_back_to_cover``,
decides whether the base classes pull back to the cover classes; both
verifiers report it.  The cover character pulls back each distinct
summand class once and twists it by the integers order * w read from the
weights, never by a pullback of the base twist, so the identity compares
two independent computations.  The cover classes themselves,
``cover_classes``, are derived only when a verifier needs them: for the
residual of a failed identity, or to test explicitly given classes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Union

from .chow import COVER_PREFIX, CoverModel, Variety, make_cover
from .rings import (
    GradedRing,
    InputError,
    Rational,
    Record,
    RingElement,
    character_from_chern,
    chern_from_character,
    exp_nilpotent,
    sum_of_products,
)

WeightSpec = Union[Mapping[str, Rational], Iterable[tuple[str, Rational]]]


class OrdinaryBundleClass(Record):
    """A rank together with a Chern character.

    Entered as a total Chern class whose degree-0 part is 1 and whose
    graded parts vanish above min(rank, cutoff); stored as its Chern
    character, which is what sum, dual, tensor and the cover twist act on.
    The bridge :func:`character_from_chern` checks the rank and the total
    Chern class.  Immutable; compares and hashes by identity.
    """

    # ``character`` lives in the instance dict, not in a slot: the
    # benchmark tracer (perfbench/tracer.py) wraps whatever the class holds
    # under that name as a method, so a slot descriptor there would be
    # replaced and ``bundle.character`` would read a function.
    __slots__ = ("rank", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _fields(self) -> list[str]:
        return ["rank", "character"]

    def __init__(self, rank: int, total_chern: RingElement):
        character = character_from_chern(total_chern, rank)
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "character", character)

    @classmethod
    def _from_character(cls, rank: int, character: RingElement) -> OrdinaryBundleClass:
        """A class from a character derived from valid classes; nothing is
        re-checked."""
        bundle = object.__new__(cls)
        object.__setattr__(bundle, "rank", rank)
        object.__setattr__(bundle, "character", character)
        return bundle

    @property
    def ring(self) -> GradedRing:
        return self.character.ring


def trivial_line(ring: GradedRing) -> OrdinaryBundleClass:
    """The trivial line bundle ``O``: total Chern class 1, character 1."""
    return OrdinaryBundleClass._from_character(1, ring.one())


Summand = tuple[OrdinaryBundleClass, tuple[tuple[str, Fraction], ...]]


class ParabolicBundle(Record):
    """A weighted sum of bundle classes over one variety.

    Each summand carries a map divisor -> weight with weights exact
    rationals in [0, 1), given as a mapping or as (divisor, weight) pairs;
    omitted divisors have weight 0, zero entries are dropped, and a divisor
    may carry at most one weight per summand.  A failed weight check raises
    :class:`InputError` with the path ``("summands", summand, entry)``.
    Immutable; compares and hashes by identity.  The instance dict holds
    the derived data of the cached properties below.
    """

    __slots__ = ("variety", "summands", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, variety: Variety, summands: tuple[Summand, ...]):
        if not summands:
            raise ValueError("a parabolic bundle needs at least one summand")
        divisor_order = {name: i for i, name in enumerate(variety.divisors)}
        canonical: list[Summand] = []
        for index, (bundle, weights) in enumerate(summands):
            if bundle.ring is not variety.ring:
                raise ValueError("summand bundle lives on a different variety")
            items = weights.items() if isinstance(weights, Mapping) else weights
            cleaned: dict[str, Fraction] = {}
            for entry, (name, value) in enumerate(items):
                at = ("summands", index, entry)
                if name not in divisor_order:
                    raise InputError(f"unknown divisor {name!r}", *at)
                if name in cleaned:
                    raise InputError(f"duplicate weight for divisor {name!r}", *at)
                w = Fraction(value)
                if not (0 <= w < 1):
                    raise InputError("weight must lie in [0,1)", *at)
                cleaned[name] = w
            ordered = sorted(cleaned.items(), key=lambda kv: divisor_order[kv[0]])
            canonical.append((bundle, tuple(kv for kv in ordered if kv[1])))
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "summands", tuple(canonical))

    @property
    def rank(self) -> int:
        return sum(bundle.rank for bundle, _ in self.summands)

    @property
    def ring(self) -> GradedRing:
        return self.variety.ring

    @cached_property
    def order(self) -> int:
        """Least common multiple of all weight denominators; 1 when every
        weight vanishes."""
        n = 1
        for _, weights in self.summands:
            for _, w in weights:
                n = lcm(n, w.denominator)
        return n

    @cached_property
    def character(self) -> RingElement:
        """The full Chern character on the base: each summand's character
        twisted by exp of its weighted divisors."""
        pairs = []
        for bundle, weights in self.summands:
            twist = self.ring.element((w, {name: 1}) for name, w in weights)
            pairs.append((bundle.character, exp_nilpotent(twist)))
        return sum_of_products(pairs)

    @cached_property
    def classes(self) -> tuple[RingElement, ...]:
        """Chern classes c_0..c_rank, read off the base character."""
        return chern_from_character(self.character, self.rank)

    @cached_property
    def cover(self) -> tuple[CoverModel, RingElement]:
        """The cover of minimal order and the character of the bundle
        induced on it; only the verifiers need these."""
        cm = make_cover(self.variety, self.order)
        return cm, cover_bundle(self, cm).character

    @cached_property
    def pulls_back_to_cover(self) -> bool:
        """The cover identity: the base character pulls back to the cover
        character.  Both verifiers report it."""
        cm, character = self.cover
        return cm.pullback(self.character) == character

    @cached_property
    def cover_classes(self) -> tuple[RingElement, ...]:
        """Chern classes u_0..u_rank of the bundle induced on the cover;
        only a failed identity or explicitly given classes need these."""
        return chern_from_character(self.cover[1], self.rank)


def direct_sum(E: ParabolicBundle, F: ParabolicBundle) -> ParabolicBundle:
    if E.variety is not F.variety:
        raise ValueError("direct sum requires bundles on the same variety")
    return ParabolicBundle(E.variety, E.summands + F.summands)


def _conjugate_character(ch: RingElement) -> RingElement:
    # Negating every Chern root flips the sign of the odd graded parts.
    memo = ch.ring._memo
    num = {m: -c if memo[m][0] % 2 else c for m, c in ch._num.items()}
    return RingElement._make(ch.ring, num, ch._den)


def dual(E: ParabolicBundle) -> ParabolicBundle:
    """Summand-wise dual: weight 0 stays 0; weight w > 0 becomes 1 - w and
    the underlying dual bundle picks up a twist by minus that divisor."""
    ring = E.ring
    out = []
    for bundle, weights in E.summands:
        new_weights = {name: 1 - w for name, w in weights}
        twist = ring.element((-1, {name: 1}) for name in new_weights)
        ch = _conjugate_character(bundle.character) * exp_nilpotent(twist)
        out.append((OrdinaryBundleClass._from_character(bundle.rank, ch), new_weights))
    return ParabolicBundle(E.variety, tuple(out))


def tensor(E: ParabolicBundle, F: ParabolicBundle) -> ParabolicBundle:
    """Summand-wise product: weights add per divisor; a sum reaching 1
    wraps around and twists the product bundle by that divisor."""
    if E.variety is not F.variety:
        raise ValueError("tensor requires bundles on the same variety")
    ring = E.ring
    out = []
    for bv, wv in E.summands:
        map_v = dict(wv)
        for bw, ww in F.summands:
            map_w = dict(ww)
            wrapped = []
            weights = {}
            for name in {**map_v, **map_w}:
                s = map_v.get(name, Fraction(0)) + map_w.get(name, Fraction(0))
                if s >= 1:
                    s -= 1
                    wrapped.append((1, {name: 1}))
                if s:
                    weights[name] = s
            twist = ring.element(wrapped)
            ch = bv.character * bw.character * exp_nilpotent(twist)
            bundle = OrdinaryBundleClass._from_character(bv.rank * bw.rank, ch)
            out.append((bundle, weights))
    return ParabolicBundle(E.variety, tuple(out))


def cover_bundle(E: ParabolicBundle, cm: CoverModel) -> OrdinaryBundleClass:
    """The ordinary bundle class induced on the cover: each summand's
    character is pulled back and twisted by the integer multiples
    (order * weight) of the cover divisors.  A class that several summands
    share is pulled back once per call."""
    if cm.base is not E.variety:
        raise ValueError("cover is not over this bundle's variety")
    n = E.order
    if cm.order % n:
        raise ValueError(
            f"cover order {cm.order} is not a multiple of the bundle's order {n}"
        )
    ru = cm.cover_ring
    pulled: dict[OrdinaryBundleClass, RingElement] = {}
    pairs = []
    for bundle, weights in E.summands:
        if bundle not in pulled:
            pulled[bundle] = cm.pullback(bundle.character)
        # Each weight's denominator divides n, so order * w is an integer.
        twist = ru.element(
            (cm.order // w.denominator * w.numerator, {COVER_PREFIX + name: 1})
            for name, w in weights
        )
        pairs.append((pulled[bundle], exp_nilpotent(twist)))
    return OrdinaryBundleClass._from_character(E.rank, sum_of_products(pairs))


def relation_classes(E: ParabolicBundle) -> list[RingElement]:
    """The normalized classes entering the tautological relation: the i-th
    Chern class divided by order^(rank - i), so index 0 is 1/order^rank."""
    n = E.order
    r = E.rank
    return [c / Fraction(n) ** (r - i) for i, c in enumerate(E.classes)]


def chern_character(E: ParabolicBundle) -> list[RingElement]:
    """Graded parts 0..cutoff of :attr:`ParabolicBundle.character`."""
    ch = E.character
    return [ch.graded_part(k) for k in range(E.ring.cutoff + 1)]
