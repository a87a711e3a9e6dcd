import gc
import random
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
import hypothesis.strategies as st

from parachern import bundles, chow, grothendieck, rings
from parachern.chow import Variety, make_cover
from parachern.bundles import (
    OrdinaryBundleClass,
    ParabolicBundle,
    relation_classes,
    tensor,
    trivial_line,
)
from parachern.cli import evaluate_text, execute_scene
from parachern.grothendieck import (
    verify_pair_identities,
    verify_relation,
)
from parachern.rings import RingElement, RingMismatchError, exp_nilpotent
from parachern.scenegen import random_elaborated_scene
from proj_bundle_oracle import (
    ProjBundleElement,
    ProjBundleRing,
    read_off,
    relation_residual,
    solve_from_relation,
)


@pytest.fixture(scope="module")
def surface():
    return Variety(2, ("D1",))


@pytest.fixture(scope="module")
def curve():
    return Variety(1, ("p",))


def worked_example(surface):
    ring = surface.ring
    return ParabolicBundle(
        surface,
        (
            (trivial_line(ring), {"D1": Fraction(1, 3)}),
            (trivial_line(ring), {"D1": Fraction(2, 3)}),
        ),
    )


def worked_proj_ring(surface):
    cm = make_cover(surface, 3)
    t = cm.divisor("D1")
    return cm, ProjBundleRing(cm.cover_ring, [3 * t, 2 * t ** 2])


# --- the projective bundle ring (the test oracle) -----------------------------


def test_h_square_reduction(surface):
    cm, proj = worked_proj_ring(surface)
    t = cm.divisor("D1")
    h = proj.h()
    hh = h * h
    assert hh.coeffs == (-2 * t ** 2, 3 * t)


def test_multiply_by_one(surface):
    cm, proj = worked_proj_ring(surface)
    h = proj.h()
    assert h * proj.one() == h
    assert proj.one() * proj.one() == proj.one()


def test_rank_one_projectivization_is_base(curve):
    cm = make_cover(curve, 2)
    t = cm.divisor("p")
    proj = ProjBundleRing(cm.cover_ring, [t])
    assert proj.h().coeffs == (t,)
    assert (proj.h() * proj.one()).coeffs == (t,)


def test_defining_relation_element_is_zero(surface):
    # sum_i (-1)^i h^(r-i) c_i reduces to zero by construction.
    cm, proj = worked_proj_ring(surface)
    t = cm.divisor("D1")
    acc = proj.h_power(2) - proj.embed(3 * t) * proj.h_power(1) + proj.embed(
        2 * t ** 2
    )
    assert acc.is_zero


def test_embed_requires_base_ring(surface):
    cm, proj = worked_proj_ring(surface)
    with pytest.raises(RingMismatchError):
        proj.embed(surface.ring.one())


_PROJ_VARIETY = Variety(2, ("D1",))
_PROJ_COVER = make_cover(_PROJ_VARIETY, 3)
_PROJ_RING = ProjBundleRing(
    _PROJ_COVER.cover_ring,
    [3 * _PROJ_COVER.divisor("D1"), 2 * _PROJ_COVER.divisor("D1") ** 2],
)


@st.composite
def proj_elements(draw):
    t = _PROJ_COVER.divisor("D1")
    one = _PROJ_COVER.cover_ring.one()
    scalars = st.integers(min_value=-3, max_value=3)
    coeffs = [
        draw(scalars) * one + draw(scalars) * t,
        draw(scalars) * one + draw(scalars) * t,
    ]
    return ProjBundleElement(_PROJ_RING, coeffs)


@given(proj_elements(), proj_elements(), proj_elements())
def test_proj_mul_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


# --- relation verification -----------------------------------------------------


def test_relation_worked_example(surface):
    check = verify_relation(worked_example(surface))
    assert check.passed
    assert len(check.residual) == 2
    assert all(c.is_zero for c in check.residual)


def test_relation_weightless(surface):
    ring = surface.ring
    d1 = ring.generator("D1")
    V = OrdinaryBundleClass(2, 1 + d1 + d1 ** 2)
    E = ParabolicBundle(surface, ((V, {}),))
    assert verify_relation(E).passed


def test_relation_detects_perturbation(surface):
    E = worked_example(surface)
    ring = surface.ring
    d1 = ring.generator("D1")
    base = relation_classes(E)
    perturbed = list(base)
    perturbed[1] = perturbed[1] + d1
    check = verify_relation(E, perturbed)
    assert not check.passed
    # the residual sits in the h^1 coefficient: -N^(r-1) * pullback(delta),
    # and pullback(D1) = 3 ~D1, so the coefficient is -9 ~D1
    coeff = check.residual[1]
    assert dict(coeff.terms) == {(1,): Fraction(-9)}
    assert check.residual[0].is_zero


def test_relation_rejects_wrong_length(surface):
    E = worked_example(surface)
    with pytest.raises(ValueError):
        verify_relation(E, [surface.ring.one()])


def _random_class(rng, ring, low=0, high=None):
    """A nonzero element of ``ring``: up to three basis monomials of degrees
    ``low`` to ``high`` (default: the cutoff) with small nonzero rational
    coefficients."""
    high = ring.cutoff if high is None else high
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = rng.choice(ring.basis_monomials(rng.randint(low, high)))
        terms[mono] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return RingElement(ring, terms)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=6),
    st.randoms(use_true_random=False),
)
def test_closed_form_matches_module_oracle(seed, rank_max, rng):
    # The closed form must give the module product's coefficients exactly,
    # for the normalized classes and for classes perturbed at any index.
    scene = random_elaborated_scene(random.Random(seed), rank_max=rank_max)
    for E in scene.parabolics.values():
        classes = relation_classes(E)
        check = verify_relation(E)
        assert check.passed
        assert check.residual == relation_residual(E, classes)
        assert solve_from_relation(E) == read_off(E)
        perturbed = list(classes)
        i = rng.randint(0, E.rank)
        perturbed[i] = perturbed[i] + _random_class(rng, E.ring)
        check = verify_relation(E, perturbed)
        assert check.residual == relation_residual(E, perturbed)
        assert check.passed == all(c.is_zero for c in check.residual)


def _with_cover_shift(E, shift):
    """A fresh copy of ``E`` whose cover character is off by ``shift(cm)``."""
    true_cover_bundle = bundles.cover_bundle

    def shifted(F, cm):
        good = true_cover_bundle(F, cm)
        ch = good.character + shift(cm)
        return OrdinaryBundleClass._of(good.rank, ch)

    F = ParabolicBundle(E.variety, E.summands)
    with mock.patch.object(bundles, "cover_bundle", shifted):
        F.cover
    return F


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=6),
    st.randoms(use_true_random=False),
)
def test_cover_identity_decides_the_class_identity(seed, rank_max, rng):
    # The cached character identity must agree with comparing the classes
    # themselves, for the true cover character and for one off by a random
    # class in a degree the classes see; a failing relation check must
    # report the module oracle's residual.
    scene = random_elaborated_scene(random.Random(seed), rank_max=rank_max)
    for E in scene.parabolics.values():
        top = min(E.rank, E.ring.cutoff)
        shifted = _with_cover_shift(
            E, lambda cm: _random_class(rng, cm.cover_ring, 1, top)
        )
        for F, holds in ((E, True), (shifted, False)):
            cm = F.cover[0]
            classes_agree = all(
                cm.pullback(c) == u for c, u in zip(F.classes, F.cover_classes)
            )
            assert F.pulls_back_to_cover == classes_agree == holds
            check = verify_relation(F)
            assert check.passed == holds
            assert check.residual == relation_residual(F, relation_classes(F))


def test_cover_identity_is_stricter_than_the_classes(surface):
    # A cover character off in a degree above the rank is not that of any
    # line bundle: the rank-1 classes still agree, but both checks fail.
    L = ParabolicBundle(surface, ((trivial_line(surface.ring), {"D1": Fraction(1, 2)}),))
    F = _with_cover_shift(L, lambda cm: cm.divisor("D1") ** 2)
    cm = F.cover[0]
    assert all(cm.pullback(c) == u for c, u in zip(F.classes, F.cover_classes))
    assert not F.pulls_back_to_cover
    check = verify_relation(F)
    assert not check.passed
    assert all(c.is_zero for c in check.residual)


def _high_rank_bundle(variety, rank):
    ring = variety.ring
    d1 = ring.generator("D1")
    V = OrdinaryBundleClass(rank - 1, 1 + d1 - 2 * d1 ** 2)
    return ParabolicBundle(
        variety,
        (
            (V, {"D1": Fraction(1, 3)}),
            (trivial_line(ring), {"D1": Fraction(1, 2)}),
        ),
    )


def test_relation_check_sums_do_not_grow_with_rank(surface, monkeypatch):
    # Only the cover classes up to the dimension are nonzero, so with the
    # cover classes derived, evaluating the residual of explicit classes
    # needs as many ring sums at rank 400 as at rank 100.
    high_rank = [_high_rank_bundle(surface, rank) for rank in (100, 400)]
    classes = [relation_classes(E) for E in high_rank]
    for E in high_rank:
        E.cover_classes
    sums = [
        _count_calls(monkeypatch, (RingElement,), name)
        for name in ("__add__", "__radd__")
    ]
    counts = []
    for E, given_classes in zip(high_rank, classes):
        before = sum(map(len, sums))
        assert verify_relation(E, given_classes).passed
        counts.append(sum(map(len, sums)) - before)
    assert counts[0] == counts[1] > 0


def test_rank_2000_relation_scene():
    text = (
        "variety X dim 2;\n"
        "divisor D1;\n"
        "bundle V rank 1999 chern 1 + D1 - 2*D1^2;\n"
        "parabolic E = V{D1:1/3} (+) O{D1:1/2};\n"
        "verify grothendieck E;\n"
    )
    report = evaluate_text(text, "rank2000.pch")
    assert report["status"] == "ok"
    assert report["results"] == [
        {
            "command": "verify grothendieck",
            "target": "E",
            "rank": 2000,
            "cover_order": 6,
            "passed": True,
            "residual": None,
        }
    ]


# --- the read-off oracle --------------------------------------------------------


def test_solve_worked_example(surface):
    E = worked_example(surface)
    ring = surface.ring
    d1 = ring.generator("D1")
    assert solve_from_relation(E) == (ring.one(), d1, Fraction(2, 9) * d1 ** 2)


def test_solve_weightless(surface):
    ring = surface.ring
    d1 = ring.generator("D1")
    V = OrdinaryBundleClass(2, 1 + 2 * d1 + d1 ** 2)
    E = ParabolicBundle(surface, ((V, {}),))
    assert solve_from_relation(E) == (ring.one(), 2 * d1, d1 ** 2)


def test_solve_rank_one_curve():
    curve = Variety(1, ("p",))
    L = ParabolicBundle(curve, ((trivial_line(curve.ring), {"p": Fraction(1, 2)}),))
    p = curve.ring.generator("p")
    assert solve_from_relation(L) == (curve.ring.one(), p / 2)


def test_solve_matches_parabolic_chern(surface):
    E = worked_example(surface)
    assert solve_from_relation(E) == E.classes


# --- pullback compatibility ------------------------------------------------------


def test_cover_pullback_worked_example(surface):
    E = worked_example(surface)
    assert E.pulls_back_to_cover
    cm = make_cover(surface, 3)
    d1 = surface.ring.generator("D1")
    t = cm.divisor("D1")
    assert cm.pullback(d1) == 3 * t
    assert cm.pullback(Fraction(2, 9) * d1 ** 2) == 2 * t ** 2


def test_cover_pullback_weightless(surface):
    ring = surface.ring
    E = ParabolicBundle(surface, ((OrdinaryBundleClass(2, ring.one()), {}),))
    assert E.pulls_back_to_cover


def test_cover_pullback_is_independent_of_cover_bundle(surface, monkeypatch):
    # A cover bundle whose character is off by the cover divisor in degree 1
    # must fail the check: the base classes may not come from the same call.
    true_cover_bundle = bundles.cover_bundle

    def corrupted(E, cm):
        good = true_cover_bundle(E, cm)
        ch = good.character + cm.divisor("D1")
        return OrdinaryBundleClass._of(good.rank, ch)

    for module in (bundles, grothendieck):
        monkeypatch.setattr(module, "cover_bundle", corrupted, raising=False)
    assert not worked_example(surface).pulls_back_to_cover


# --- pair identities --------------------------------------------------------------


def test_pair_identities_worked_pair(surface):
    ring = surface.ring
    a = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(1, 3)}),))
    b = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(2, 3)}),))
    checks = verify_pair_identities(a, b)
    assert checks.whitney and checks.dual and checks.tensor
    assert checks.passed


def test_pair_identities_unit_laws(surface):
    ring = surface.ring
    unit = ParabolicBundle(surface, ((trivial_line(ring), {}),))
    E = worked_example(surface)
    assert verify_pair_identities(unit, E).passed


def test_pair_identities_require_same_variety(surface):
    other = Variety(2, ("D1",))
    E = worked_example(surface)
    F = worked_example(other)
    with pytest.raises(ValueError):
        verify_pair_identities(E, F)


def test_corrupted_tensor_would_fail(surface):
    # Mutation check: dropping the carry twist breaks multiplicativity.
    ring = surface.ring
    d1 = ring.generator("D1")
    E = ParabolicBundle(surface, ((trivial_line(ring), {"D1": Fraction(2, 3)}),))
    good = tensor(E, E)
    bad = ParabolicBundle(
        surface, ((trivial_line(ring), {"D1": Fraction(1, 3)}),)
    )  # same weights as the real product but no twist
    product = E.character * E.character
    assert good.character == product
    assert bad.character != product
    assert bad.character == exp_nilpotent(d1 / 3)


# --- derived data ---------------------------------------------------------------


def _count_calls(monkeypatch, owners, name):
    """Count calls to ``owners[0].name`` through every owner that holds it."""
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for owner in owners:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counted)
    return calls


def test_cover_is_built_once(surface, monkeypatch):
    counts = {
        "make_cover": _count_calls(
            monkeypatch, (chow, bundles, grothendieck), "make_cover"
        ),
        "cover_bundle": _count_calls(
            monkeypatch, (bundles, grothendieck), "cover_bundle"
        ),
    }
    E = worked_example(surface)
    for _ in range(2):
        E.classes
        relation_classes(E)
        E.character
        assert verify_relation(E).passed
        assert solve_from_relation(E) == E.classes
        assert E.pulls_back_to_cover
    assert {name: len(calls) for name, calls in counts.items()} == {
        "make_cover": 1,
        "cover_bundle": 1,
    }


def test_passing_cover_checks_skip_the_newton_bridge(surface, monkeypatch):
    # A passing relation check and a passing pullback check decide one
    # character identity: no Chern classes are derived on either side, and
    # the cover bundle is built once.
    counts = {
        "chern_from_character": _count_calls(
            monkeypatch, (rings, bundles, grothendieck), "chern_from_character"
        ),
        "cover_bundle": _count_calls(
            monkeypatch, (bundles, grothendieck), "cover_bundle"
        ),
    }
    E = worked_example(surface)
    assert verify_relation(E).passed
    assert E.pulls_back_to_cover
    assert {name: len(calls) for name, calls in counts.items()} == {
        "chern_from_character": 0,
        "cover_bundle": 1,
    }


def test_scene_is_freed_without_the_cycle_collector():
    # Derived data lives on the bundles and refers only downwards, so a
    # verified scene is freed by reference counting alone.
    gc.disable()
    try:
        scene = random_elaborated_scene(random.Random(5))
        execute_scene(scene, verify_all=True)
        variety = weakref.ref(scene.variety)
        del scene
        assert variety() is None
    finally:
        gc.enable()
