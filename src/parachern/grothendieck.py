"""The verifiers: the tautological relation, pullback compatibility and
the pair identities.

The Chern classes are computed on the base, from the Chern character.  The
cover side is the character of the bundle induced on the cover, built once
per bundle.  ``verify grothendieck`` checks the defining relation of the
tautological line bundle on the projective bundle of the cover bundle.
That relation holds exactly when the base character pulls up to the cover
character (the derivation is at :func:`_residual`), so it reports the same
identity as ``verify corollary1``: :attr:`ParabolicBundle.pulls_back_to_cover`,
decided once per bundle.  The character identity is the stricter check: it
also fails when the cover character is not that of any rank-r class.
"""

from __future__ import annotations

from typing import Sequence

from .bundles import ParabolicBundle, dual, relation_classes, tensor
from .rings import Record, RingElement, chern_from_character, sum_of_products


class RelationCheck(Record):
    """``residual`` holds the reduced relation's coefficients over the
    cover ring, in the basis 1, h, ..., h^(rank-1)."""

    __slots__ = ("passed", "residual")


class PairIdentityChecks(Record):
    __slots__ = ("whitney", "dual", "tensor")

    @property
    def passed(self) -> bool:
        return self.whitney and self.dual and self.tensor


def verify_relation(
    E: ParabolicBundle, classes: Sequence[RingElement] | None = None
) -> RelationCheck:
    """Reduce sum_i (-1)^i (order * h)^(rank-i) * pullback(classes[i]) in
    the projective bundle ring and test it against zero.

    ``classes`` defaults to the bundle's normalized relation classes, for
    which the relation holds exactly when the cover identity does; its
    residual is evaluated only when the identity fails.  A perturbed list
    can be passed to probe uniqueness.
    """
    if classes is None:
        if E.pulls_back_to_cover:
            return RelationCheck(True, (E.cover[0].cover_ring.zero(),) * E.rank)
        return RelationCheck(False, _residual(E, relation_classes(E)))
    residual = _residual(E, classes)
    return RelationCheck(all(c.is_zero for c in residual), residual)


def _residual(
    E: ParabolicBundle, classes: Sequence[RingElement]
) -> tuple[RingElement, ...]:
    """The reduced relation's coefficients in closed form, in the basis
    1, h, ..., h^(rank-1).

    The Chow ring of the cover bundle's projective bundle is free over the
    cover ring on 1, h, ..., h^(r-1), where h is the first Chern class of
    the tautological quotient line bundle.  Its defining relation is the
    reduction rule h^r = u_1 h^(r-1) - u_2 h^(r-2) + ... + (-1)^(r-1) u_r,
    with u_i the cover classes.  For classes x_0..x_r on the base and
    cover order n, the element

        sum_i (-1)^i (n h)^(r-i) pullback(x_i)

    therefore reduces, at h^(r-i) for i = 1..r, to the coefficient

        (-1)^i n^(r-i) pullback(x_i) + (-1)^(i-1) n^r pullback(x_0) u_i,

    and only i <= min(r, dim) has u_i != 0.  For the normalized classes
    x_i = c_i / n^(r-i) this is (-1)^i (pullback(c_i) - u_i): the relation
    holds exactly when the base classes pull up to the cover classes.
    Pullback is a graded ring isomorphism that commutes with the Newton
    bridge :func:`~parachern.rings.chern_from_character`, so that holds
    whenever the base character pulls up to the cover character.  Only a
    failed identity or explicit classes get here, and the coefficients
    cost time linear in the rank.
    """
    n, r = E.order, E.rank
    if len(classes) != r + 1:
        raise ValueError(f"expected {r + 1} classes, got {len(classes)}")
    cm = E.cover[0]
    upstairs = E.cover_classes
    lead = cm.pullback(classes[0]) * n**r
    residual = []
    for i in range(r, 0, -1):
        coeff = cm.pullback(classes[i]) * n ** (r - i)
        if not upstairs[i].is_zero:
            coeff = coeff - lead * upstairs[i]
        residual.append(coeff if i % 2 == 0 else -coeff)
    return tuple(residual)


def _poly_mul(
    a: Sequence[RingElement], b: Sequence[RingElement]
) -> tuple[RingElement, ...]:
    r, s = len(a) - 1, len(b) - 1
    return tuple(
        sum_of_products([(a[i], b[k - i]) for i in range(max(k - s, 0), min(k, r) + 1)])
        for k in range(r + s + 1)
    )


def verify_pair_identities(E: ParabolicBundle, F: ParabolicBundle) -> PairIdentityChecks:
    """Exact checks of the three functorial identities on a pair: the Chern
    polynomial is multiplicative over direct sums, the dual negates the
    odd classes, and the character is multiplicative over tensor products.
    Whitney reads ch(E + F) = ch(E) + ch(F) through the rank r_E + r_F
    Newton bridge, with no direct sum built."""
    if E.variety is not F.variety:
        raise ValueError("the pair must live on the same variety")
    whitney = _poly_mul(E.classes, F.classes) == chern_from_character(
        E.character + F.character, E.rank + F.rank
    )
    dual_ok = all(
        d == (c if i % 2 == 0 else -c)
        for i, (d, c) in enumerate(zip(dual(E).classes, E.classes))
    )
    tensor_ok = tensor(E, F).character == E.character * F.character
    return PairIdentityChecks(whitney, dual_ok, tensor_ok)
