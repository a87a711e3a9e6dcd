from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from parachern.chow import MissingIntegralError, Variety, integrate, make_cover
from parachern.rings import InputError, RingElement, RingMismatchError
from proj_bundle_oracle import pushdown


def surface():
    return Variety(
        2,
        ("D1", "D2"),
        classes=(("H", 1),),
        relations=(({"D1": 1, "D2": 1}, ()),),
        integrals={(("D1", 2),): Fraction(1)},
    )


def curve():
    return Variety(1, ("p",), integrals={(("p", 1),): 1})


def mixed_exponents():
    # One relation whose terms have divisor exponents 2, 1 and 0.
    return Variety(
        2,
        ("D1", "D2"),
        classes=(("H", 1),),
        relations=[({"D1": 2}, [(2, {"D1": 1, "H": 1}), (1, {"H": 2})])],
    )


def square_is_class():
    # A divisor square equals a degree-2 class.
    return Variety(
        3,
        ("D1", "D2"),
        classes=(("H", 1), ("K", 2)),
        relations=[({"D1": 2}, [(1, {"K": 1})])],
    )


def leader_on_right():
    # The degree-lex leader D1*D2 is written on the right.
    return Variety(
        2,
        ("D1", "D2"),
        classes=(("H", 1),),
        relations=[({"H": 2}, [(3, {"D1": 1, "D2": 1}), (-1, {"D2": 2})])],
    )


COVER_VARIETIES = [surface, mixed_exponents, square_is_class, leader_on_right]


def test_variety_ring_shapes():
    c = Variety(1, ("p",))
    assert c.ring.names == ("p",)
    assert c.ring.cutoff == c.dim == 1
    assert c.divisors == ("p",)

    surf = surface()
    assert surf.ring.names == ("D1", "D2", "H")
    d1, d2 = surf.ring.generator("D1"), surf.ring.generator("D2")
    assert (d1 * d2).is_zero

    plain = Variety(2, ("D1",)).ring
    monos = [plain.basis_monomials(k) for k in range(3)]
    assert [len(m) for m in monos] == [1, 1, 1]


def test_variety_validation():
    with pytest.raises(ValueError, match="variety dimension must be at least 1"):
        Variety(0, ("D1",))
    # Generator checks are the ring's, indexed over divisors then classes.
    with pytest.raises(InputError) as err:
        Variety(2, ("D1", "D1"))
    assert str(err.value) == "duplicate generator name 'D1'"
    assert err.value.path == ("generators", 1)
    with pytest.raises(InputError) as err:
        Variety(2, ("D1",), (("H", 1), ("K", 0)))
    assert str(err.value) == "class degree must be at least 1"
    assert err.value.path == ("generators", 2)
    with pytest.raises(InputError) as err:
        Variety(2, ("D1",), integrals={(("D1", 1),): 1})
    assert str(err.value) == "integral monomial must have degree 2"
    assert err.value.path == ("integrals", 0)
    with pytest.raises(ValueError, match="duplicate integral for monomial D1\\^2"):
        Variety(2, ("D1",), integrals=[({"D1": 2}, 1), ({"D1": 2}, 2)])
    # Factor pairs add up, and the message shows the monomial as written.
    with pytest.raises(InputError) as err:
        Variety(
            2,
            ("D1", "D2"),
            integrals=[([("D1", 2)], 1), ([("D1", 1), ("D2", 0), ("D1", 1)], 2)],
        )
    assert str(err.value) == "duplicate integral for monomial D1*D2^0*D1"
    assert err.value.path == ("integrals", 1)
    with pytest.raises(InputError) as err:
        Variety(2, ("D1",), integrals=[({"D9": 2}, 1)])
    assert str(err.value) == "unknown generator 'D9'"
    assert err.value.path == ("integrals", 0)
    table = Variety(2, ("D1",), integrals=[({"D1": 2}, Fraction(-1, 2))])
    assert table.integral_table == {(2,): Fraction(-1, 2)}


def test_integral_monomial_must_be_normal():
    # D1^2 leads the relation D1^2 = D2^2, so only D2^2 may carry an integral.
    square = ({"D1": 2}, [(1, {"D2": 2})])
    with pytest.raises(InputError) as err:
        Variety(2, ("D1", "D2"), relations=[square], integrals=[({"D1": 2}, 1)])
    assert str(err.value) == "integral monomial D1^2 is not normal; it reduces to D2^2"
    assert err.value.path == ("integrals", 0)
    # A redundant declaration is rejected even when its value agrees, and
    # the message shows the monomial as written.
    with pytest.raises(InputError) as err:
        Variety(
            2,
            ("D1", "D2"),
            relations=[({"D1": 2}, [(Fraction(1, 2), {"D2": 2})])],
            integrals=[({"D2": 2}, 2), ([("D1", 1), ("D1", 1)], 1)],
        )
    assert str(err.value) == (
        "integral monomial D1*D1 is not normal; it reduces to 1/2*D2^2"
    )
    assert err.value.path == ("integrals", 1)
    # A monomial that a relation kills reduces to 0.
    with pytest.raises(InputError) as err:
        Variety(
            2,
            ("D1", "D2"),
            relations=[({"D1": 1, "D2": 1}, [])],
            integrals=[({"D1": 2}, 1), ({"D1": 1, "D2": 1}, 0)],
        )
    assert str(err.value) == "integral monomial D1*D2 is not normal; it reduces to 0"
    assert err.value.path == ("integrals", 1)
    normal = Variety(2, ("D1", "D2"), relations=[square], integrals=[({"D2": 2}, 5)])
    assert normal.integral_table == {(0, 2): 5}
    assert integrate(normal, normal.ring.generator("D1") ** 2) == 5


def test_relation_with_unknown_generator():
    with pytest.raises(InputError) as err:
        Variety(2, ("D1",), relations=[({"D9": 2}, ())])
    assert str(err.value) == "unknown generator 'D9'"
    assert err.value.path == ("rules", 0)
    with pytest.raises(InputError) as err:
        Variety(
            2,
            ("D1", "D2"),
            relations=[
                ({"D2": 2}, ()),
                ({"D1": 2}, [(1, {"D1": 1, "D2": 1}), (2, {"D9": 2})]),
            ],
        )
    assert str(err.value) == "unknown generator 'D9'"
    assert err.value.path == ("rules", 1, 1)


def test_make_cover_transports_relations():
    surf = surface()
    cm = make_cover(surf, 2)
    t1, t2 = cm.divisor("D1"), cm.divisor("D2")
    assert (t1 * t2).is_zero
    assert cm.cover_ring.names == ("~D1", "~D2", "H")


def test_make_cover_transports_mixed_relations():
    cm = make_cover(mixed_exponents(), 3)
    t1, h = cm.divisor("D1"), cm.cover_ring.generator("H")
    assert 9 * t1 ** 2 == 6 * t1 * h + h ** 2
    cm = make_cover(square_is_class(), 2)
    assert 4 * cm.divisor("D1") ** 2 == cm.cover_ring.generator("K")
    cm = make_cover(leader_on_right(), 2)
    t1, t2 = cm.divisor("D1"), cm.divisor("D2")
    h = cm.cover_ring.generator("H")
    assert h ** 2 == 12 * t1 * t2 - 4 * t2 ** 2


def test_relation_above_the_cutoff_keeps_no_row():
    # D^e = 0 holds identically for e above the cutoff, so neither the ring
    # nor its cover keeps a row for it, and the cover never forms 2^e.
    variety = Variety(2, ("D",), relations=[({"D": 10 ** 12}, [(0, {})])])
    assert variety.ring._relations == []
    cm = make_cover(variety, 2)
    assert cm.cover_ring._relations == []
    d = variety.ring.generator("D")
    assert cm.pullback(d ** 2) == 4 * cm.divisor("D") ** 2


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
    plain = Variety(2, ("D1",))
    cm = make_cover(plain, 3)
    d1 = plain.ring.generator("D1")
    t = cm.divisor("D1")
    assert cm.pullback(d1) == 3 * t
    assert cm.pullback(Fraction(2, 9) * d1 ** 2) == 2 * t ** 2
    assert cm.pullback(plain.ring.one()) == cm.cover_ring.one()


def test_pushdown_scaling():
    plain = Variety(2, ("D1",))
    cm = make_cover(plain, 3)
    d1 = plain.ring.generator("D1")
    t = cm.divisor("D1")
    assert pushdown(cm, 3 * t) == d1
    assert pushdown(cm, 2 * t ** 2) == Fraction(2, 9) * d1 ** 2

    two = Variety(2, ("D1", "D2"))
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
    variety = data.draw(st.sampled_from(COVER_VARIETIES))()
    cm = make_cover(variety, order)
    a = data.draw(cover_elements(variety))
    up = cm.pullback(a)
    assert pushdown(cm, up) == a
    assert cm.pullback(pushdown(cm, up)) == up


@given(st.data(), st.integers(min_value=1, max_value=6))
def test_pullback_is_ring_homomorphism(data, order):
    variety = data.draw(st.sampled_from(COVER_VARIETIES))()
    cm = make_cover(variety, order)
    strat = cover_elements(variety)
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
