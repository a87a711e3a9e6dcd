"""Schedule independence: values are immutable and operations pure, so
concurrent evaluation must reproduce the serial results exactly."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from parachern.grothendieck import verify_relation
from parachern.rings import RingElement
from parachern.scenegen import random_elaborated_scene
from proj_bundle_oracle import solve_from_relation


def _bundles(seeds):
    bundles = []
    for seed in seeds:
        scene = random_elaborated_scene(random.Random(seed))
        bundles.extend(scene.parabolics.values())
    return bundles


def _work(E):
    return (
        verify_relation(E).passed,
        E.pulls_back_to_cover,
        [str(c) for c in E.classes],
        [str(c) for c in solve_from_relation(E)],
    )


def test_concurrent_verification_matches_serial():
    bundles = _bundles(range(12))
    serial = [_work(E) for E in bundles]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(_work, bundles))
    assert threaded == serial
    assert all(relation and pullback for relation, pullback, _, _ in serial)


def test_concurrent_first_use_of_shared_bundles():
    # Each bundle memoizes its derived data on first use.  Many threads
    # asking the same fresh bundles at once, with frequent thread switches,
    # must all see the values a serial run computes on separate copies.
    serial = [_work(E) for E in _bundles(range(4))]
    shared = _bundles(range(4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(lambda: [_work(E) for E in shared]) for _ in range(6)
            ]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 6


def test_elements_are_immutable():
    scene = random_elaborated_scene(random.Random(0))
    ring = scene.variety.ring
    element = ring.generator(ring.names[0])
    text = str(element)
    with pytest.raises(AttributeError):
        element.ring = None
    with pytest.raises(AttributeError):
        del element._num
    assert str(element) == text
    with pytest.raises(TypeError):
        element.terms[(0,)] = 1  # the terms view rejects writes
    assert isinstance(element, RingElement)
