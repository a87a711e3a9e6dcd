from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from parachern.chow import (
    ChowDescription,
    MissingIntegralError,
    build_ring,
    build_variety,
    integrate,
    make_cover,
)
from parachern.rings import InputError, RingElement, RingMismatchError
from proj_bundle_oracle import pushdown


def surface():
    return build_variety(
        ChowDescription(
            "S",
            2,
            ("D1", "D2"),
            extra_generators=(("H", 1),),
            relations=(({"D1": 1, "D2": 1}, ()),),
            integrals={(("D1", 2),): Fraction(1)},
        )
    )


def curve():
    return build_variety(
        ChowDescription("C", 1, ("p",), integrals={(("p", 1),): 1})
    )


def test_build_ring_shapes():
    ring = build_ring(ChowDescription("C", 1, ("p",)))
    assert ring.names == ("p",)
    assert ring.cutoff == 1

    surf = surface()
    d1, d2 = surf.ring.generator("D1"), surf.ring.generator("D2")
    assert (d1 * d2).is_zero

    plain = build_ring(ChowDescription("X", 2, ("D1",)))
    monos = [plain.basis_monomials(k) for k in range(3)]
    assert [len(m) for m in monos] == [1, 1, 1]


def test_description_validation():
    with pytest.raises(ValueError, match="variety dimension must be at least 1"):
        ChowDescription("X", 0, ("D1",))
    with pytest.raises(InputError) as err:
        ChowDescription("X", 2, ("D1", "D1"))
    assert err.value.path == ("divisor_names", 1)
    with pytest.raises(InputError) as err:
        ChowDescription("X", 2, ("D1",), (("H", 1), ("K", 0)))
    assert str(err.value) == "class degree must be at least 1"
    assert err.value.path == ("extra_generators", 1)
    with pytest.raises(InputError) as err:
        ChowDescription("X", 2, ("D1",), integrals={(("D1", 1),): 1})
    assert str(err.value) == "integral monomial must have degree 2"
    assert err.value.path == ("integrals", 0)
    with pytest.raises(ValueError, match="duplicate integral for monomial D1\\^2"):
        ChowDescription("X", 2, ("D1",), integrals=[({"D1": 2}, 1), ({"D1": 2}, 2)])
    # Factor pairs add up, and the message shows the monomial as written.
    with pytest.raises(InputError) as err:
        ChowDescription(
            "X",
            2,
            ("D1", "D2"),
            integrals=[([("D1", 2)], 1), ([("D1", 1), ("D2", 0), ("D1", 1)], 2)],
        )
    assert str(err.value) == "duplicate integral for monomial D1*D2^0*D1"
    assert err.value.path == ("integrals", 1)
    with pytest.raises(InputError) as err:
        ChowDescription("X", 2, ("D1",), integrals=[({"D9": 2}, 1)])
    assert str(err.value) == "unknown generator 'D9'"
    assert err.value.path == ("integrals", 0)


def test_relation_with_unknown_generator():
    with pytest.raises(InputError) as err:
        build_ring(ChowDescription("X", 2, ("D1",), relations=[({"D9": 2}, ())]))
    assert str(err.value) == "unknown generator 'D9'"
    assert err.value.path == ("rules", 0)
    with pytest.raises(InputError) as err:
        build_ring(
            ChowDescription(
                "X",
                2,
                ("D1", "D2"),
                relations=[
                    ({"D2": 2}, ()),
                    ({"D1": 2}, [(1, {"D1": 1, "D2": 1}), (2, {"D9": 2})]),
                ],
            )
        )
    assert str(err.value) == "unknown generator 'D9'"
    assert err.value.path == ("rules", 1, 1)


def test_make_cover_transports_relations():
    surf = surface()
    cm = make_cover(surf, 2)
    t1, t2 = cm.divisor("D1"), cm.divisor("D2")
    assert (t1 * t2).is_zero
    assert cm.cover_ring.names == ("~D1", "~D2", "H")


def test_make_cover_order_one_is_renaming():
    surf = surface()
    cm = make_cover(surf, 1)
    d1 = surf.ring.generator("D1")
    assert cm.pullback(d1) == cm.divisor("D1")
    assert pushdown(cm, cm.pullback(d1 + 3)) == d1 + 3


def test_make_cover_rejects_zero():
    with pytest.raises(ValueError):
        make_cover(surface(), 0)


def test_pullback_scaling():
    plain = build_variety(ChowDescription("X", 2, ("D1",)))
    cm = make_cover(plain, 3)
    d1 = plain.ring.generator("D1")
    t = cm.divisor("D1")
    assert cm.pullback(d1) == 3 * t
    assert cm.pullback(Fraction(2, 9) * d1 ** 2) == 2 * t ** 2
    assert cm.pullback(plain.ring.one()) == cm.cover_ring.one()


def test_pushdown_scaling():
    plain = build_variety(ChowDescription("X", 2, ("D1",)))
    cm = make_cover(plain, 3)
    d1 = plain.ring.generator("D1")
    t = cm.divisor("D1")
    assert pushdown(cm, 3 * t) == d1
    assert pushdown(cm, 2 * t ** 2) == Fraction(2, 9) * d1 ** 2

    two = build_variety(ChowDescription("Y", 2, ("D1", "D2")))
    cm2 = make_cover(two, 2)
    s = cm2.divisor("D1") + cm2.divisor("D2")
    assert pushdown(cm2, s) == (
        two.ring.generator("D1") + two.ring.generator("D2")
    ) / 2


def test_extra_generators_not_scaled():
    surf = surface()
    cm = make_cover(surf, 5)
    h = surf.ring.generator("H")
    assert cm.pullback(h) == cm.cover_ring.generator("H")
    mixed = h * surf.ring.generator("D1")
    assert cm.pullback(mixed) == 5 * cm.cover_ring.generator("H") * cm.divisor("D1")


def test_pullback_ring_checks():
    surf = surface()
    cm = make_cover(surf, 2)
    with pytest.raises(RingMismatchError):
        cm.pullback(cm.cover_ring.one())
    with pytest.raises(RingMismatchError):
        pushdown(cm, surf.ring.one())


def cover_elements(variety):
    ring = variety.ring
    monos = []
    for degree in range(ring.cutoff + 1):
        monos.extend(ring.basis_monomials(degree))
    coeff = st.integers(min_value=-4, max_value=4).map(Fraction)
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=5).map(
        lambda terms: RingElement(ring, terms)
    )


@given(st.data(), st.integers(min_value=1, max_value=6))
def test_pullback_pushdown_inverse(data, order):
    surf = surface()
    cm = make_cover(surf, order)
    a = data.draw(cover_elements(surf))
    up = cm.pullback(a)
    assert pushdown(cm, up) == a
    assert cm.pullback(pushdown(cm, up)) == up


@given(st.data(), st.integers(min_value=1, max_value=6))
def test_pullback_is_ring_homomorphism(data, order):
    surf = surface()
    cm = make_cover(surf, order)
    strat = cover_elements(surf)
    a, b = data.draw(strat), data.draw(strat)
    assert cm.pullback(a + b) == cm.pullback(a) + cm.pullback(b)
    assert cm.pullback(a * b) == cm.pullback(a) * cm.pullback(b)


def test_integrate_table():
    c = curve()
    p = c.ring.generator("p")
    assert integrate(c, p / 2) == Fraction(1, 2)
    assert integrate(c, c.ring.one()) == 0

    surf = surface()
    d1 = surf.ring.generator("D1")
    assert integrate(surf, Fraction(2, 9) * d1 ** 2) == Fraction(2, 9)


def test_integrate_missing_monomial():
    surf = surface()
    d2 = surf.ring.generator("D2")
    with pytest.raises(MissingIntegralError) as err:
        integrate(surf, d2 ** 2)
    assert "D2^2" in str(err.value)
