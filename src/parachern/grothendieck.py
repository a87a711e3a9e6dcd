"""The Chow ring of the cover-side projective bundle and the verifiers.

Elements of the projective bundle ring are coefficient vectors over the
cover ring in the basis 1, h, ..., h^(r-1), where h is the first Chern
class of the tautological quotient line bundle.  The defining relation
h^r = c_1 h^(r-1) - c_2 h^(r-2) + ... is used as the reduction rule, which
makes the verification of the relation for the normalized parabolic
classes, the uniqueness probes, and the read-off oracle all exact.

The Chern classes themselves are computed on the base, from the Chern
character.  The cover side is built independently, once per bundle, from
the bundle induced on the cover, so ``verify corollary1`` compares two
separate computations: the base-path classes pulled up the cover against
the cover bundle's classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bundles import (
    ParabolicBundle,
    character_element,
    direct_sum,
    dual,
    parabolic_chern,
    relation_classes,
    tensor,
)
from .rings import GradedRing, RingElement, RingMismatchError


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


@dataclass(frozen=True)
class RelationCheck:
    passed: bool
    residual: ProjBundleElement


@dataclass(frozen=True)
class PairIdentityChecks:
    whitney: bool
    dual: bool
    tensor: bool

    @property
    def passed(self) -> bool:
        return self.whitney and self.dual and self.tensor


def verify_relation(
    E: ParabolicBundle, classes: Sequence[RingElement] | None = None
) -> RelationCheck:
    """Evaluate sum_i (-1)^i (order * h)^(rank-i) * pullback(classes[i]) in
    the projective bundle ring and test it against zero.

    ``classes`` defaults to the bundle's normalized relation classes; a
    perturbed list can be passed to probe uniqueness.
    """
    n, r = E.order, E.rank
    cm, _ = E.cover
    proj = E.projective_ring
    if classes is None:
        classes = relation_classes(E)
    if len(classes) != r + 1:
        raise ValueError(f"expected {r + 1} classes, got {len(classes)}")
    acc = proj.zero()
    for i, cls in enumerate(classes):
        scale = Fraction((-1) ** i * n ** (r - i))
        acc = acc + proj.embed(cm.pullback(cls) * scale) * proj.h_power(r - i)
    return RelationCheck(acc.is_zero, acc)


def solve_from_relation(E: ParabolicBundle) -> list[RingElement]:
    """Independent read-off of the Chern classes: reduce h^rank through the
    defining relation, take the h^(rank-i) coefficients with alternating
    signs, and carry them down the cover."""
    r = E.rank
    cm, _ = E.cover
    reduced = E.projective_ring.h_power(r)
    out = [E.variety.ring.one()]
    for i in range(1, r + 1):
        coeff = reduced.coeffs[r - i] * ((-1) ** (i - 1))
        out.append(cm.pushdown(coeff))
    return out


def verify_cover_pullback(E: ParabolicBundle) -> bool:
    """Check that pulling the base Chern classes back up the cover lands
    exactly on the cover bundle's Chern classes.  The two sides are computed
    independently: one from the base character, one on the cover."""
    cm, upstairs = E.cover
    downstairs = parabolic_chern(E)
    return all(cm.pullback(c) == u for c, u in zip(downstairs, upstairs))


def _poly_mul(a: Sequence[RingElement], b: Sequence[RingElement]) -> list[RingElement]:
    ring = a[0].ring
    out = [ring.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def verify_pair_identities(E: ParabolicBundle, F: ParabolicBundle) -> PairIdentityChecks:
    """Exact checks of the three functorial identities on a pair: the Chern
    polynomial is multiplicative over direct sums, the dual negates the
    odd classes, and the character is multiplicative over tensor products."""
    if E.variety is not F.variety:
        raise ValueError("the pair must live on the same variety")
    product = _poly_mul(parabolic_chern(E), parabolic_chern(F))
    whitney = product == parabolic_chern(direct_sum(E, F))
    dual_classes = parabolic_chern(dual(E))
    base_classes = parabolic_chern(E)
    dual_ok = all(
        d == (c if i % 2 == 0 else -c)
        for i, (d, c) in enumerate(zip(dual_classes, base_classes))
    )
    tensor_ok = character_element(tensor(E, F)) == character_element(
        E
    ) * character_element(F)
    return PairIdentityChecks(whitney, dual_ok, tensor_ok)
