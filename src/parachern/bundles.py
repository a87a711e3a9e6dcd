"""Parabolic bundles presented as weighted sums of ordinary bundle classes.

A parabolic bundle here is a finite direct sum of summands, each an
ordinary bundle class together with a rational weight in [0, 1) per divisor
component, named as in the variety's ``divisors``.  An ordinary bundle
class is entered as a total Chern class and stored as its Chern character;
the trivial line bundle ``O`` is stored with its character 1 directly,
through no Newton bridge.  Each summand's twist, exp of its weighted
divisors, is multiplied into its character by the kernel's
``twisted_sum`` straight from the (divisor, weight) pairs: no twist or
exp element is built, and a bundle's character is one such sum.  Each
bundle derives its data lazily and at most once, as properties:
``order`` (the cover order), ``character`` and ``classes``, all on the
base; and, for the verifiers only, ``cover``, the cover of minimal order
with the character of the bundle induced on it.  ``dual``, ``tensor`` and
``direct_sum`` build their summands in canonical form from checked
bundles, so they skip the checks of ``ParabolicBundle(...)`` and build
through ``_of``.

One identity on characters, ``pulls_back_to_cover``, decides both
verifiers; why it decides the tautological relation is derived at
``grothendieck._residual``.  The cover character transports the
character of each distinct summand class once and twists it by the
integers order * w on the cover divisors, read from the weights, never by
a pullback of the base twist, so the identity compares two computations.
The cover classes themselves, ``cover_classes``, are derived only when a
verifier needs them: for the residual of a failed identity, or to test
explicitly given classes.

This module reads no kernel data format: it calls the public faces of
``chow.py`` and the kernel's element-level entries ``twisted_sum``,
``conjugate_character``, ``transport`` and the Newton bridges, each of
which takes and returns elements.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Union

from .chow import COVER_PREFIX, CoverModel, Variety, make_cover
from .rings import (
    GradedRing,
    InputError,
    Rational,
    Record,
    RingElement,
    character_from_chern,
    chern_from_character,
    conjugate_character,
    transport,
    twisted_sum,
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
    # replaced and ``bundle.character`` would read a function.  So the
    # fields are named here rather than read from the slots.
    __slots__ = ("rank", "__dict__")
    _fields = ("rank", "character")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, rank: int, total_chern: RingElement):
        character = character_from_chern(total_chern, rank)
        self._fill(int(rank), character)

    @property
    def ring(self) -> GradedRing:
        return self.character.ring


def trivial_line(ring: GradedRing) -> OrdinaryBundleClass:
    """The trivial line bundle ``O``: total Chern class 1, character 1."""
    return OrdinaryBundleClass._of(1, ring.one())


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
                # A Fraction's denominator is positive, so its range check
                # is one on two ints; any other weight is read by Fraction.
                w = value if type(value) is Fraction else Fraction(value)
                if not (0 <= w.numerator < w.denominator):
                    raise InputError("weight must lie in [0,1)", *at)
                cleaned[name] = w
            ordered = sorted(cleaned.items(), key=lambda kv: divisor_order[kv[0]])
            canonical.append((bundle, tuple(kv for kv in ordered if kv[1])))
        self._fill(variety, tuple(canonical))

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
        pairs = [(bundle.character, twist) for bundle, twist in self.summands]
        return twisted_sum(self.ring, pairs)

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
    return ParabolicBundle._of(E.variety, E.summands + F.summands)


def dual(E: ParabolicBundle) -> ParabolicBundle:
    """Summand-wise dual: weight 0 stays 0; weight w > 0 becomes 1 - w,
    which lies in (0, 1), and the underlying dual bundle picks up a twist
    by minus that divisor."""
    ring = E.ring
    out = []
    for bundle, weights in E.summands:
        twist = [(name, -1) for name, _ in weights]
        ch = twisted_sum(ring, [(conjugate_character(bundle.character), twist)])
        dual_bundle = OrdinaryBundleClass._of(bundle.rank, ch)
        out.append((dual_bundle, tuple((name, 1 - w) for name, w in weights)))
    return ParabolicBundle._of(E.variety, tuple(out))


def tensor(E: ParabolicBundle, F: ParabolicBundle) -> ParabolicBundle:
    """Summand-wise product: weights add per divisor; a sum reaching 1
    wraps around into [0, 1) and twists the product bundle by that
    divisor.  Zero weights are dropped and the rest kept in divisor order."""
    if E.variety is not F.variety:
        raise ValueError("tensor requires bundles on the same variety")
    ring = E.ring
    out = []
    for bv, wv in E.summands:
        map_v = dict(wv)
        for bw, ww in F.summands:
            map_w = dict(ww)
            wrapped = []
            weights = []
            for name in E.variety.divisors:
                s = map_v.get(name, 0) + map_w.get(name, 0)
                if s >= 1:
                    s -= 1
                    wrapped.append((name, 1))
                if s:
                    weights.append((name, s))
            ch = twisted_sum(ring, [(bv.character * bw.character, wrapped)])
            bundle = OrdinaryBundleClass._of(bv.rank * bw.rank, ch)
            out.append((bundle, tuple(weights)))
    return ParabolicBundle._of(E.variety, tuple(out))


def cover_bundle(E: ParabolicBundle, cm: CoverModel) -> OrdinaryBundleClass:
    """The ordinary bundle class induced on the cover: the sum over the
    summands of the class's character, transported upstairs as
    :meth:`CoverModel.pullback` transports it, times exp of the integer
    multiples order * w of the cover divisors ``~D``, in one twisted sum.
    A class that several summands share is transported once per call."""
    if cm.base is not E.variety:
        raise ValueError("cover is not over this bundle's variety")
    n = E.order
    if cm.order % n:
        raise ValueError(
            f"cover order {cm.order} is not a multiple of the bundle's order {n}"
        )
    ring = cm.cover_ring
    seeds: dict[OrdinaryBundleClass, RingElement] = {}
    pairs = []
    for bundle, weights in E.summands:
        if bundle not in seeds:
            seeds[bundle] = transport(bundle.character, ring)
        # Each weight's denominator divides n, so order * w is an integer.
        twist = [
            (COVER_PREFIX + name, cm.order // w.denominator * w.numerator)
            for name, w in weights
        ]
        pairs.append((seeds[bundle], twist))
    return OrdinaryBundleClass._of(E.rank, twisted_sum(ring, pairs))


def relation_classes(E: ParabolicBundle) -> list[RingElement]:
    """The normalized classes entering the tautological relation: the i-th
    Chern class divided by order^(rank - i), so index 0 is 1/order^rank."""
    n, r = E.order, E.rank
    return [c / Fraction(n) ** (r - i) for i, c in enumerate(E.classes)]
