import random
import weakref
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
import hypothesis.strategies as st

from parachern import bundles
from parachern.chow import Variety, integrate, make_cover
from parachern.bundles import (
    OrdinaryBundleClass,
    ParabolicBundle,
    cover_bundle,
    direct_sum,
    dual,
    relation_classes,
    tensor,
    trivial_line,
)
from parachern.rings import (
    GradedRing,
    InputError,
    character_from_chern,
    chern_from_character,
    exp_nilpotent,
)
from parachern.grothendieck import (
    PairIdentityChecks,
    RelationCheck,
    verify_pair_identities,
    verify_relation,
)
from parachern.scenegen import random_elaborated_scene
from proj_bundle_oracle import pushdown
from test_frontend import _every_record, check_constructor, record_classes
from test_rings import RING_FACTORIES


@pytest.fixture(scope="module")
def surface():
    return Variety(2, ("D1",))


@pytest.fixture(scope="module")
def two_divisor_surface():
    return Variety(2, ("D1", "D2"), relations=(({"D1": 1, "D2": 1}, ()),))


@pytest.fixture(scope="module")
def curve():
    return Variety(1, ("p",), integrals={(("p", 1),): 1})


def worked_example(surface):
    ring = surface.ring
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    return ParabolicBundle(
        surface,
        (
            (trivial_line(ring), {"D1": third}),
            (trivial_line(ring), {"D1": two_thirds}),
        ),
    )


# --- construction and bookkeeping -------------------------------------------


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
def test_trivial_line_has_the_character_of_chern_class_one(make_ring):
    ring = make_ring()
    line = trivial_line(ring)
    assert line.rank == 1
    assert line.character == character_from_chern(ring.one(), 1)


def test_ordinary_bundle_validation(surface):
    ring = surface.ring
    d1 = ring.generator("D1")
    with pytest.raises(ValueError, match="bundle rank must be at least 1"):
        OrdinaryBundleClass(0, ring.one())
    with pytest.raises(ValueError):
        OrdinaryBundleClass(1, 2 * ring.one())
    with pytest.raises(ValueError):
        OrdinaryBundleClass(1, 1 + d1 + d1 ** 2)  # degree-2 part above rank 1
    ok = OrdinaryBundleClass(2, 1 + d1 + d1 ** 2)
    assert chern_from_character(ok.character, ok.rank) == (ring.one(), d1, d1 ** 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: GradedRing([("D", 1.5)], 2), "class degree must be at least 1"),
        (lambda v: GradedRing([("D", 1)], 2.7), "cutoff must be a positive integer"),
        (lambda v: Variety(2.9, ["D"]), "variety dimension must be at least 1"),
        (
            lambda v: OrdinaryBundleClass(2.5, v.ring.one()),
            "bundle rank must be at least 1",
        ),
        (
            lambda v: chern_from_character(2 * v.ring.one(), 2.5),
            "rank must be a positive integer",
        ),
        (lambda v: make_cover(v, 2.5), "cover order must be a positive integer"),
        (lambda v: make_cover(v, "2"), "cover order must be a positive integer"),
    ],
    ids=["degree", "cutoff", "dim", "rank", "newton-rank", "order", "order-text"],
)
def test_non_integral_sizes_are_rejected(surface, build, message):
    # int() alone would read each of these as 1 or 2, silently: degree 1,
    # cutoff 2, dim 2, rank 2 and order 2.
    with pytest.raises(ValueError) as raised:
        build(surface)
    assert str(raised.value) == message


def test_parabolic_validation(surface):
    ring = surface.ring
    with pytest.raises(ValueError):
        ParabolicBundle(surface, ())
    with pytest.raises(ValueError):
        ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(3, 2)}),))
    with pytest.raises(ValueError):
        ParabolicBundle(surface, ((trivial_line(ring), {"D9": Fraction(1, 2)}),))
    with pytest.raises(InputError, match="duplicate weight for divisor 'D1'") as err:
        ParabolicBundle(
            surface,
            ((trivial_line(ring), [("D1", Fraction(1, 3)), ("D1", Fraction(1, 2))]),),
        )
    assert err.value.path == ("summands", 0, 1)
    with pytest.raises(InputError, match=r"weight must lie in \[0,1\)") as err:
        ParabolicBundle(
            surface,
            (
                (trivial_line(ring), {"D1": Fraction(1, 2)}),
                (trivial_line(ring), [("D1", Fraction(1))]),
            ),
        )
    assert err.value.path == ("summands", 1, 0)


def _model_records(variety):
    E = worked_example(variety)
    return [
        variety,
        make_cover(variety, 3),
        E.summands[0][0],
        E,
        E.character,
        verify_relation(E),
        verify_pair_identities(E, E),
        random_elaborated_scene(random.Random(0)),
    ]


def test_model_records_are_immutable(surface):
    # With the frontend's records these cover every record class.
    records = _model_records(surface)
    covered = {type(r) for r in [*records, *_every_record()]}
    assert covered == record_classes()
    for record in records:
        check_constructor(record)
        # Assigning a field, or anything else, raises AttributeError; so
        # does deleting a field.
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in record._fields:
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_model_classes_compare_by_identity(surface):
    twin = Variety(2, ("D1",))
    assert twin != surface and len({twin, surface}) == 2
    E, F = worked_example(surface), worked_example(surface)
    assert E != F and E == E and len({E, F, E}) == 2
    assert E.summands[0][0] != F.summands[0][0]
    cover = make_cover(surface, 3)
    assert cover != make_cover(surface, 3) and {cover: 1}[cover] == 1
    # Varieties take weak references; a bundle's derived data is cached.
    assert weakref.ref(surface)() is surface
    assert E.order == 3 and vars(E)["order"] == 3


def test_check_results_compare_by_value(surface):
    E = worked_example(surface)
    assert verify_pair_identities(E, E) == PairIdentityChecks(True, True, True)
    assert PairIdentityChecks(True, True, True) != PairIdentityChecks(True, False, True)
    check = verify_relation(E)
    assert check == RelationCheck(check.passed, check.residual)
    assert check != RelationCheck(not check.passed, check.residual)


def test_cover_order(surface):
    E = worked_example(surface)
    assert E.order == 3
    ring = surface.ring
    plain = ParabolicBundle(surface, ((trivial_line(ring), {}),))
    assert plain.order == 1
    Y = Variety(2, ("D1", "D2"))
    F = ParabolicBundle(
        Y,
        ((trivial_line(Y.ring), {"D1": Fraction(1, 2), "D2": Fraction(1, 3)}),),
    )
    assert F.order == 6


def test_direct_sum(surface):
    E = worked_example(surface)
    both = direct_sum(E, E)
    assert both.rank == 4
    assert len(both.summands) == 4
    with pytest.raises(ValueError):
        direct_sum(E, worked_example(Variety(2, ("D1",))))


# --- dual and tensor ---------------------------------------------------------


def test_dual_single_weight(surface):
    ring = surface.ring
    d1 = ring.generator("D1")
    E = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(1, 3)}),))
    D = dual(E)
    bundle, weights = D.summands[0]
    assert dict(weights) == {"D1": Fraction(2, 3)}
    assert bundle.character == exp_nilpotent(-d1)  # O(-D1)
    assert D.character == exp_nilpotent(-d1 / 3)


def test_dual_fixes_weightless(surface):
    ring = surface.ring
    E = ParabolicBundle(surface, ((trivial_line(ring), {}),))
    D = dual(E)
    assert D.summands[0][0].character == ring.one()
    assert D.summands[0][1] == ()


def test_dual_involution_on_character(surface):
    E = worked_example(surface)
    assert dual(dual(E)).character == E.character


def test_tensor_carry(surface):
    ring = surface.ring
    d1 = ring.generator("D1")
    E = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(2, 3)}),))
    T = tensor(E, E)
    bundle, weights = T.summands[0]
    assert dict(weights) == {"D1": Fraction(1, 3)}
    # carried into an integral twist
    assert chern_from_character(bundle.character, bundle.rank) == (ring.one(), d1)
    assert T.character == exp_nilpotent(Fraction(4, 3) * d1)


def test_tensor_no_carry(surface):
    ring = surface.ring
    E = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(1, 3)}),))
    T = tensor(E, E)
    bundle, weights = T.summands[0]
    assert dict(weights) == {"D1": Fraction(2, 3)}
    classes = chern_from_character(bundle.character, bundle.rank)
    assert classes == (ring.one(), ring.zero())


def test_tensor_of_large_denominators(surface):
    # The sum of two weights may have a denominator far above either one;
    # the library puts no cap on it.
    ring = surface.ring
    E = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(1, 999983)}),))
    F = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(1, 999979)}),))
    T = tensor(E, F)
    assert dict(T.summands[0][1]) == {"D1": Fraction(1, 999983) + Fraction(1, 999979)}
    assert T.order == 999983 * 999979


def test_tensor_unit(surface):
    ring = surface.ring
    E = worked_example(surface)
    unit = ParabolicBundle(surface, ((trivial_line(ring), {}),))
    T = tensor(E, unit)
    assert T.character == E.character
    assert T.classes == E.classes


# --- the cover bundle --------------------------------------------------------


def test_cover_bundle_worked_example(surface):
    E = worked_example(surface)
    cm = make_cover(surface, 3)
    up = cover_bundle(E, cm)
    t = cm.divisor("D1")
    one = cm.cover_ring.one()
    assert chern_from_character(up.character, up.rank) == (one, 3 * t, 2 * t ** 2)
    assert up.rank == 2


def test_cover_bundle_weightless_identity(surface):
    ring = surface.ring
    d1 = ring.generator("D1")
    V = OrdinaryBundleClass(2, 1 + d1 + d1 ** 2)
    E = ParabolicBundle(surface, ((V, {}),))
    cm = make_cover(surface, 1)
    up = cover_bundle(E, cm)
    assert up.character == cm.pullback(V.character)


def test_cover_bundle_disjoint_divisors(two_divisor_surface):
    S = two_divisor_surface
    E = ParabolicBundle(
        S,
        ((trivial_line(S.ring), {"D1": Fraction(1, 2), "D2": Fraction(1, 2)}),),
    )
    cm = make_cover(S, 2)
    up = cover_bundle(E, cm)
    t1, t2 = cm.divisor("D1"), cm.divisor("D2")
    classes = chern_from_character(up.character, up.rank)
    assert classes == (cm.cover_ring.one(), t1 + t2)


def test_cover_bundle_requires_compatible_order(surface):
    E = worked_example(surface)
    with pytest.raises(ValueError):
        cover_bundle(E, make_cover(surface, 2))
    # any multiple of the bundle's own order works
    up = cover_bundle(E, make_cover(surface, 6))
    assert up.rank == 2


def test_cover_character_sums_the_summands(surface, monkeypatch):
    # V{D1:1/2} (+) V{D1:1/3} (+) O{}: the character of V is transported
    # once and serves both of its summands, each with its own cover twist.
    ring = surface.ring
    d1 = ring.generator("D1")
    V = OrdinaryBundleClass(2, 1 + d1 + d1 ** 2)
    O = trivial_line(ring)
    E = ParabolicBundle(
        surface,
        ((V, {"D1": Fraction(1, 2)}), (V, {"D1": Fraction(1, 3)}), (O, {})),
    )
    cm = make_cover(surface, 6)
    t = cm.divisor("D1")
    up = cm.pullback(V.character)
    expected = up * exp_nilpotent(3 * t) + up * exp_nilpotent(2 * t) + 1
    transported = []
    transport = bundles.transport
    monkeypatch.setattr(
        bundles,
        "transport",
        lambda a, ring: transported.append(a) or transport(a, ring),
    )
    assert cover_bundle(E, cm).character == expected
    assert transported == [V.character, O.character]


# --- Chern data --------------------------------------------------------------


def test_parabolic_chern_worked_example(surface):
    E = worked_example(surface)
    ring = surface.ring
    d1 = ring.generator("D1")
    assert E.classes == (ring.one(), d1, Fraction(2, 9) * d1 ** 2)


def test_parabolic_chern_weightless_is_ordinary(surface):
    ring = surface.ring
    d1 = ring.generator("D1")
    V = OrdinaryBundleClass(2, 1 + 2 * d1 + d1 ** 2)
    E = ParabolicBundle(surface, ((V, {}),))
    assert E.order == 1
    assert E.classes == (ring.one(), 2 * d1, d1 ** 2)


def test_parabolic_chern_curve(curve):
    p = curve.ring.generator("p")
    L = ParabolicBundle(curve, ((trivial_line(curve.ring), {"p": Fraction(1, 2)}),))
    classes = L.classes
    assert classes == (curve.ring.one(), p / 2)
    assert integrate(curve, classes[1]) == Fraction(1, 2)
    assert integrate(curve, L.character) == Fraction(1, 2)


def test_relation_classes(surface):
    E = worked_example(surface)
    ring = surface.ring
    d1 = ring.generator("D1")
    tilde = relation_classes(E)
    assert tilde[0] == ring.scalar(Fraction(1, 9))
    assert tilde[1] == d1 / 3
    assert tilde[2] == Fraction(2, 9) * d1 ** 2


def test_relation_classes_weightless(surface):
    ring = surface.ring
    d1 = ring.generator("D1")
    V = OrdinaryBundleClass(2, 1 + d1)
    E = ParabolicBundle(surface, ((V, {}),))
    assert tuple(relation_classes(E)) == E.classes


def test_relation_class_normalization_rank1(curve):
    L = ParabolicBundle(curve, ((trivial_line(curve.ring), {"p": Fraction(1, 2)}),))
    assert relation_classes(L)[0] == curve.ring.scalar(Fraction(1, 2))


def test_chern_character_worked_example(surface):
    E = worked_example(surface)
    ring = surface.ring
    d1 = ring.generator("D1")
    parts = [E.character.graded_part(k) for k in range(3)]
    assert parts == [ring.scalar(2), d1, Fraction(5, 18) * d1 ** 2]


def test_chern_character_trivial(surface):
    ring = surface.ring
    E = ParabolicBundle(surface, ((OrdinaryBundleClass(3, ring.one()), {}),))
    parts = [E.character.graded_part(k) for k in range(3)]
    assert parts == [ring.scalar(3), ring.zero(), ring.zero()]


def test_chern_polynomial_whitney_by_hand(surface):
    # (1 + 1/3 D1 t)(1 + 2/3 D1 t) = 1 + D1 t + 2/9 D1^2 t^2
    ring = surface.ring
    d1 = ring.generator("D1")
    a = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(1, 3)}),))
    b = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(2, 3)}),))
    ca, cb = a.classes, b.classes
    assert ca == (ring.one(), d1 / 3)
    assert cb == (ring.one(), Fraction(2, 3) * d1)
    combined = direct_sum(a, b).classes
    product = (
        ca[0] * cb[0],
        ca[0] * cb[1] + ca[1] * cb[0],
        ca[1] * cb[1],
    )
    assert combined == product
    assert combined == (ring.one(), d1, Fraction(2, 9) * d1 ** 2)


# --- structural properties ---------------------------------------------------


def weight_strategy():
    return st.fractions(min_value=0, max_value=Fraction(11, 12), max_denominator=12)


@st.composite
def random_bundle(draw, variety):
    ring = variety.ring
    summands = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        rank = draw(st.integers(min_value=1, max_value=2))
        d1 = ring.generator("D1")
        c1 = draw(st.integers(min_value=-2, max_value=2)) * d1
        total = ring.one() + (c1 if rank >= 1 else ring.zero())
        if rank >= 2:
            total = total + draw(st.integers(min_value=-1, max_value=2)) * d1 ** 2
        bundle = OrdinaryBundleClass(rank, total)
        weights = {"D1": draw(weight_strategy())}
        summands.append((bundle, weights))
    return ParabolicBundle(variety, tuple(summands))


@given(st.data())
def test_two_path_character_consistency(data):
    variety = Variety(2, ("D1",))
    E = data.draw(random_bundle(variety))
    cm = make_cover(variety, E.order)
    assert pushdown(cm, cover_bundle(E, cm).character) == E.character


@given(st.data(), st.integers(min_value=1, max_value=3))
def test_base_classes_equal_cover_classes(data, k):
    # The base-path classes rest on pullback being a ring isomorphism: they
    # must equal the cover bundle's classes carried down any compatible cover.
    variety = Variety(2, ("D1",))
    E = data.draw(random_bundle(variety))
    F = data.draw(random_bundle(variety))
    for G in (E, dual(E), tensor(E, F), direct_sum(E, F)):
        cm = make_cover(G.variety, k * G.order)
        upstairs = chern_from_character(cover_bundle(G, cm).character, G.rank)
        assert G.classes == tuple(pushdown(cm, c) for c in upstairs)


@given(st.data())
def test_big_n_dual_and_sum(data):
    variety = Variety(2, ("D1",))
    E = data.draw(random_bundle(variety))
    F = data.draw(random_bundle(variety))
    assert dual(E).order == E.order
    assert direct_sum(E, F).order == lcm(E.order, F.order)
    assert lcm(E.order, F.order) % tensor(E, F).order == 0


@given(st.data())
def test_dual_negates_odd_classes(data):
    variety = Variety(2, ("D1",))
    E = data.draw(random_bundle(variety))
    cd = dual(E).classes
    cc = E.classes
    for i, (a, b) in enumerate(zip(cd, cc)):
        assert a == (b if i % 2 == 0 else -b)


@given(st.data())
def test_tensor_multiplies_characters(data):
    variety = Variety(2, ("D1",))
    E = data.draw(random_bundle(variety))
    F = data.draw(random_bundle(variety))
    assert tensor(E, F).character == E.character * F.character


@given(st.data())
def test_derived_characters_round_trip_through_the_constructor(data):
    # dual, tensor and cover_bundle store a derived character unchecked; the
    # classes read off it must pass the public constructor's checks and give
    # that character back.
    variety = Variety(2, ("D1",))
    E = data.draw(random_bundle(variety))
    F = data.draw(random_bundle(variety))
    built = [
        bundle
        for G in (dual(E), tensor(E, F), direct_sum(E, F))
        for bundle, _ in G.summands
    ]
    built.append(cover_bundle(E, make_cover(variety, E.order)))
    for bundle in built:
        total = sum(chern_from_character(bundle.character, bundle.rank))
        assert OrdinaryBundleClass(bundle.rank, total).character == bundle.character


def scenegen_pairs(count):
    """``count`` pairs (E, F) of parabolic bundles from generated scenes,
    the first two of each scene, or a bundle with itself."""
    pairs = []
    seed = 0
    while len(pairs) < count:
        bundles = list(random_elaborated_scene(random.Random(seed)).parabolics.values())
        pairs.append((bundles[0], bundles[-1] if len(bundles) < 2 else bundles[1]))
        seed += 1
    return pairs


def test_derived_bundles_need_no_recheck():
    # dual, tensor and direct_sum build from checked summands without the
    # constructor's checks: the constructor must leave their summands as
    # they are.  Whitney reads ch(E + F) = ch(E) + ch(F).
    for E, F in scenegen_pairs(100):
        for G in (dual(E), tensor(E, F), direct_sum(E, F)):
            assert ParabolicBundle(E.variety, G.summands).summands == G.summands
        total = chern_from_character(E.character + F.character, E.rank + F.rank)
        assert total == direct_sum(E, F).classes


@pytest.mark.parametrize("weight", [Fraction(-1, 3), Fraction(1), Fraction(4, 3)])
def test_weights_outside_the_unit_interval_are_rejected(surface, weight):
    summand = (trivial_line(surface.ring), {"D1": weight})
    with pytest.raises(InputError, match=r"weight must lie in \[0,1\)"):
        ParabolicBundle(surface, (summand,))


@pytest.mark.parametrize("weight", [0, Fraction(0), 0.25, "1/3", Fraction(2, 3)])
def test_weights_are_read_as_fraction_reads_them(surface, weight):
    E = ParabolicBundle(surface, ((trivial_line(surface.ring), {"D1": weight}),))
    expected = (("D1", Fraction(weight)),) if Fraction(weight) else ()
    assert E.summands[0][1] == expected
    assert all(type(w) is Fraction for _, w in E.summands[0][1])
