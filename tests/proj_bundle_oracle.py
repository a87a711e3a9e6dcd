"""Reference oracle for the tautological relation on the projective bundle.

The Chow ring of the cover bundle's projective bundle, as a free module
over the cover ring on 1, h, ..., h^(r-1) with the generic product and the
reduction h^r = sum_i (-1)^(i-1) u_i h^(r-i).  The library evaluates the
reduced relation in closed form; the tests compare it with the module
arithmetic here.  The oracle also carries cover classes back down to the
base (:func:`pushdown`), which no command needs, and reads the Chern
classes off the relation in two ways: from the cover classes directly
(:func:`solve_from_relation`) and from the reduction of h^rank
(:func:`read_off`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from parachern.bundles import ParabolicBundle
from parachern.chow import CoverModel
from parachern.rings import GradedRing, RingElement, RingMismatchError


def pushdown(cm: CoverModel, b: RingElement) -> RingElement:
    """Inverse of ``cm.pullback``: scale each term by order^(-e), with e
    its total divisor exponent."""
    if b.ring is not cm.cover_ring:
        raise RingMismatchError("element does not belong to the cover ring")
    n = len(cm.base.divisors)
    return RingElement(
        cm.base.ring,
        {mono: c / cm.order ** sum(mono[:n]) for mono, c in b.terms.items()},
    )


class ProjBundleRing:
    """Free module over a cover ring on 1, h, ..., h^(r-1) with the
    reduction h^r = sum_i (-1)^(i-1) c_i h^(r-i)."""

    def __init__(self, base_ring: GradedRing, chern_classes: Sequence[RingElement]):
        if not chern_classes:
            raise ValueError("a projective bundle needs rank at least 1")
        for c in chern_classes:
            if c.ring is not base_ring:
                raise RingMismatchError("reduction classes must live in the base ring")
        self.base_ring = base_ring
        self.rank = len(chern_classes)
        self.reduction = tuple(chern_classes)

    def zero(self) -> ProjBundleElement:
        return ProjBundleElement(self, [self.base_ring.zero()] * self.rank)

    def one(self) -> ProjBundleElement:
        coeffs = [self.base_ring.zero()] * self.rank
        coeffs[0] = self.base_ring.one()
        return ProjBundleElement(self, coeffs)

    def embed(self, a: RingElement) -> ProjBundleElement:
        if a.ring is not self.base_ring:
            raise RingMismatchError("element does not belong to the base ring")
        coeffs = [self.base_ring.zero()] * self.rank
        coeffs[0] = a
        return ProjBundleElement(self, coeffs)

    def h_power(self, k: int) -> ProjBundleElement:
        """The class h^k, reduced to the standard basis."""
        if k < 0:
            raise ValueError("power must be non-negative")
        vec = [self.base_ring.zero()] * (k + 1)
        vec[k] = self.base_ring.one()
        return ProjBundleElement(self, self._reduce(vec))

    def h(self) -> ProjBundleElement:
        return self.h_power(1)

    def _reduce(self, vec: list[RingElement]) -> list[RingElement]:
        vec = list(vec)
        for d in range(len(vec) - 1, self.rank - 1, -1):
            top = vec[d]
            if top.is_zero:
                continue
            vec[d] = self.base_ring.zero()
            for i, c in enumerate(self.reduction, start=1):
                vec[d - i] = vec[d - i] + c * top * ((-1) ** (i - 1))
        vec = vec[: self.rank]
        vec.extend(self.base_ring.zero() for _ in range(self.rank - len(vec)))
        return vec


class ProjBundleElement:
    __slots__ = ("bundle_ring", "coeffs")

    def __init__(self, bundle_ring: ProjBundleRing, coeffs: Sequence[RingElement]):
        if len(coeffs) != bundle_ring.rank:
            raise ValueError("coefficient vector has the wrong length")
        object.__setattr__(self, "bundle_ring", bundle_ring)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("ProjBundleElement is immutable")

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, ProjBundleElement):
            if other.bundle_ring is not self.bundle_ring:
                raise RingMismatchError("elements of different projective bundle rings")
            return other
        if isinstance(other, RingElement):
            return self.bundle_ring.embed(other)
        if isinstance(other, (int, Fraction)):
            return self.bundle_ring.embed(self.bundle_ring.base_ring.scalar(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ProjBundleElement(
            self.bundle_ring, [a + b for a, b in zip(self.coeffs, o.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return ProjBundleElement(self.bundle_ring, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self.bundle_ring.rank
        zero = self.bundle_ring.base_ring.zero()
        conv = [zero] * (2 * r - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(o.coeffs):
                if b.is_zero:
                    continue
                conv[i + j] = conv[i + j] + a * b
        return ProjBundleElement(self.bundle_ring, self.bundle_ring._reduce(conv))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ProjBundleElement):
            return (
                self.bundle_ring is other.bundle_ring and self.coeffs == other.coeffs
            )
        return NotImplemented

    def __str__(self):
        parts = []
        for k, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            if k == 0:
                parts.append(f"({a})")
            elif k == 1:
                parts.append(f"({a})*h")
            else:
                parts.append(f"({a})*h^{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"ProjBundleElement({self})"


def bundle_ring(E: ParabolicBundle) -> ProjBundleRing:
    """The projective bundle ring on the cover classes of ``E``."""
    return ProjBundleRing(E.cover[0].cover_ring, E.cover_classes[1:])


def relation_residual(
    E: ParabolicBundle, classes: Sequence[RingElement]
) -> tuple[RingElement, ...]:
    """sum_i (-1)^i (order * h)^(rank-i) * pullback(classes[i]) by module
    products, as its coefficients in the basis 1, h, ..., h^(rank-1)."""
    n, r = E.order, E.rank
    cm = E.cover[0]
    proj = bundle_ring(E)
    acc = proj.zero()
    for i, cls in enumerate(classes):
        scale = Fraction((-1) ** i * n ** (r - i))
        acc = acc + proj.embed(cm.pullback(cls) * scale) * proj.h_power(r - i)
    return acc.coeffs


def solve_from_relation(E: ParabolicBundle) -> tuple[RingElement, ...]:
    """The Chern classes read off the relation: the reduction of h^rank
    has the cover classes u_i as its coefficients (up to sign), and the
    cover carries them back down."""
    cm = E.cover[0]
    return (E.variety.ring.one(), *(pushdown(cm, u) for u in E.cover_classes[1:]))


def read_off(E: ParabolicBundle) -> tuple[RingElement, ...]:
    """The classes read off the reduction of h^rank: the h^(rank-i)
    coefficients with alternating signs, carried down the cover."""
    r = E.rank
    cm = E.cover[0]
    reduced = bundle_ring(E).h_power(r)
    out = [E.variety.ring.one()]
    for i in range(1, r + 1):
        out.append(pushdown(cm, reduced.coeffs[r - i] * ((-1) ** (i - 1))))
    return tuple(out)
