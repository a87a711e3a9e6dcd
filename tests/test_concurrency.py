"""Schedule independence: values are immutable and operations pure, so
concurrent evaluation must reproduce the serial results exactly."""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from parachern.bundles import parabolic_chern
from parachern.grothendieck import solve_from_relation, verify_relation
from parachern.rings import RingElement
from parachern.scenegen import random_elaborated_scene


def test_concurrent_verification_matches_serial():
    bundles = []
    for seed in range(12):
        scene = random_elaborated_scene(random.Random(seed))
        bundles.extend(scene.parabolics.values())

    def work(E):
        return (
            verify_relation(E).passed,
            [str(c) for c in parabolic_chern(E)],
            [str(c) for c in solve_from_relation(E)],
        )

    serial = [work(E) for E in bundles]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(work, bundles))
    assert threaded == serial
    assert all(passed for passed, _, _ in serial)


def test_elements_are_immutable():
    scene = random_elaborated_scene(random.Random(0))
    ring = scene.variety.ring
    element = ring.generator(ring.names[0])
    with pytest.raises(AttributeError):
        element.ring = None
    with pytest.raises(TypeError):
        element.terms[(0,)] = 1  # the terms view rejects writes
    assert isinstance(element, RingElement)
