"""End-to-end acceptance suite.

One test per numbered criterion; each prints a `criterion N: PASS` line once
its assertions hold, so `pytest -s tests/test_acceptance.py` gives a
one-line-per-criterion summary.  Every comparison is exact; the only
tolerances are the two stated runtime budgets.
"""

import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from parachern.bundles import (
    ParabolicBundle,
    cover_bundle,
    relation_classes,
)
from parachern.chow import make_cover
from parachern.cli import run
from parachern.grothendieck import (
    verify_pair_identities,
    verify_relation,
)
from parachern.rings import RingElement, chern_from_character
from parachern.scenegen import random_elaborated_scene
from proj_bundle_oracle import pushdown, solve_from_relation

GOLDEN = Path(__file__).parent / "golden"
SWEEP_SEED = 74250901


def _random_scenes(seed, minimum_bundles=None, minimum_pairs=None):
    master = random.Random(seed)
    bundles, pairs = [], []
    while True:
        scene = random_elaborated_scene(random.Random(master.randrange(1 << 30)))
        parabolics = list(scene.parabolics.values())
        bundles.extend(parabolics)
        if len(parabolics) >= 2:
            pairs.append((parabolics[0], parabolics[1]))
        if minimum_bundles is not None and len(bundles) >= minimum_bundles:
            return bundles[:minimum_bundles]
        if minimum_pairs is not None and len(pairs) >= minimum_pairs:
            return pairs[:minimum_pairs]


@pytest.fixture(scope="module")
def sweep_bundles():
    # Shared across criteria 2, 4, 5 (normalization part), 7 and 8:
    # rank <= 4, <= 3 divisors, dim <= 3, weight denominators <= 12,
    # integer underlying Chern coefficients (the generator emits only ints).
    return _random_scenes(SWEEP_SEED, minimum_bundles=200)


def test_criterion_1_worked_example():
    started = time.perf_counter()
    from parachern.chow import Variety
    from parachern.bundles import trivial_line

    X = Variety(2, ("D1",))
    ring = X.ring
    d1 = ring.generator("D1")
    E = ParabolicBundle(
        X,
        (
            (trivial_line(ring), {"D1": Fraction(1, 3)}),
            (trivial_line(ring), {"D1": Fraction(2, 3)}),
        ),
    )
    assert E.order == 3
    parts = [E.character.graded_part(k) for k in range(3)]
    assert parts == [ring.scalar(2), d1, Fraction(5, 18) * d1 ** 2]
    assert E.classes == (ring.one(), d1, Fraction(2, 9) * d1 ** 2)
    assert relation_classes(E) == [
        ring.scalar(Fraction(1, 9)),
        d1 / 3,
        Fraction(2, 9) * d1 ** 2,
    ]
    assert verify_relation(E).passed
    assert E.pulls_back_to_cover
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"worked example took {elapsed:.3f}s"
    print("criterion 1: PASS")


def test_criterion_2_relation_sweep(sweep_bundles):
    assert len(sweep_bundles) == 200
    started = time.perf_counter()
    for E in sweep_bundles:
        assert E.rank <= 4
        assert len(E.variety.divisors) <= 3
        assert E.variety.dim <= 3
        for _, weights in E.summands:
            for _, w in weights:
                assert w.denominator <= 12
        assert verify_relation(E).passed
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"relation sweep took {elapsed:.1f}s"
    print("criterion 2: PASS")


def _random_nonzero_class(rng, ring, degree):
    basis = ring.basis_monomials(degree)
    if not basis:
        return None
    terms = {
        mono: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        for mono in basis
        if rng.random() < 0.6
    }
    if not terms:
        terms[rng.choice(basis)] = Fraction(1)
    element = RingElement(ring, terms)
    assert not element.is_zero
    return element


def test_criterion_3_uniqueness():
    instances = _random_scenes(SWEEP_SEED + 1, minimum_bundles=50)
    rng = random.Random(SWEEP_SEED + 2)
    perturbations = 0
    for E in instances:
        ring = E.variety.ring
        base = relation_classes(E)
        for i in range(1, min(E.rank, ring.cutoff) + 1):
            delta = _random_nonzero_class(rng, ring, i)
            if delta is None:
                continue
            perturbed = list(base)
            perturbed[i] = perturbed[i] + delta
            assert not verify_relation(E, perturbed).passed
            perturbations += 1
    assert perturbations >= 50
    print("criterion 3: PASS")


def test_criterion_4_oracle_equivalence(sweep_bundles):
    for E in sweep_bundles:
        assert solve_from_relation(E) == E.classes
    print("criterion 4: PASS")


def test_criterion_5_pair_identities(sweep_bundles):
    pairs = _random_scenes(SWEEP_SEED + 3, minimum_pairs=100)
    for E, F in pairs:
        checks = verify_pair_identities(E, F)
        assert checks.whitney and checks.dual and checks.tensor
    for E in sweep_bundles:
        n, r = E.order, E.rank
        assert relation_classes(E)[0] == E.ring.scalar(Fraction(1, n**r))
    print("criterion 5: PASS")


def test_criterion_6_degeneration(sweep_bundles):
    checked = 0
    for E in sweep_bundles[:40]:
        stripped = ParabolicBundle(
            E.variety, tuple((bundle, {}) for bundle, _ in E.summands)
        )
        assert stripped.order == 1
        # independent route: the ordinary total class is the plain product
        ring = E.variety.ring
        ordinary = ring.one()
        for bundle, _ in stripped.summands:
            classes = chern_from_character(bundle.character, bundle.rank)
            ordinary = ordinary * sum(classes)
        for k, c in enumerate(stripped.classes):
            expected = (
                ordinary.graded_part(k) if k <= ring.cutoff else ring.zero()
            )
            assert c == expected
        checked += 1
    assert checked == 40
    print("criterion 6: PASS")


def test_criterion_7_integrality(sweep_bundles):
    for E in sweep_bundles:
        for bundle, _ in E.summands:
            for c in chern_from_character(bundle.character, bundle.rank):
                for coeff in c.terms.values():
                    assert coeff.denominator == 1  # generator emits integral inputs
        n = E.order
        for i, c in enumerate(E.classes):
            scaled = c * n**i
            for coeff in scaled.terms.values():
                assert coeff.denominator == 1
    print("criterion 7: PASS")


def test_criterion_8_two_path_consistency(sweep_bundles):
    for E in sweep_bundles:
        cm = make_cover(E.variety, E.order)
        upstairs = cover_bundle(E, cm).character
        assert pushdown(cm, upstairs) == E.character
    print("criterion 8: PASS")


def test_criterion_9_frontend_corpus():
    valid = sorted((GOLDEN / "valid").glob("*.pch"))
    invalid = sorted((GOLDEN / "invalid").glob("*.pch"))
    assert len(valid) >= 10 and len(invalid) >= 10
    for scene in valid:
        out = io.StringIO()
        code = run([str(scene), "--json", "--verify-all"], stdout=out, stderr=out)
        assert code == 0, scene.name
        expected = scene.with_suffix(".expected.json").read_text(encoding="utf-8")
        assert out.getvalue() == expected, f"report drift for {scene.name}"
    for scene in invalid:
        out, err = io.StringIO(), io.StringIO()
        code = run([str(scene), "--json"], stdout=out, stderr=err)
        assert code in (2, 3), scene.name
        report = json.loads(out.getvalue())
        assert report["diagnostics"], scene.name
        for diag in report["diagnostics"]:
            assert diag["line"] >= 1 and diag["column"] >= 1
    print("criterion 9: PASS")
