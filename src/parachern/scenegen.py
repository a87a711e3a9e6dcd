"""Random scene generation for property sweeps.

Scenes are emitted as scene-language text and re-read through the parser
and elaborator, so every sweep also exercises the frontend.  Generated
weight denominators stay small and underlying Chern classes have integer
coefficients, which keeps the integrality checks meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .frontend import Scene, elaborate, parse_program


def random_scene_text(
    rng: random.Random,
    *,
    rank_max: int = 4,
    weight_denominator_max: int = 12,
) -> str:
    """A scene of dimension 1 to 3 with 1 to 3 divisors and up to three
    parabolic bundles of rank at most ``rank_max``; each bundle is computed
    and verified, and the first two are checked as a pair."""
    dim = rng.randint(1, 3)
    ndiv = rng.randint(1, 3)
    divisors = [f"D{i + 1}" for i in range(ndiv)]
    lines = [f"variety X dim {dim};", f"divisor {', '.join(divisors)};"]
    generators = list(divisors)
    if rng.random() < 0.3:
        lines.append("class H deg 1;")
        generators.append("H")
    if dim >= 2:
        for i in range(ndiv):
            for j in range(i + 1, ndiv):
                if rng.random() < 0.3:
                    lines.append(f"relation {divisors[i]}*{divisors[j]} = 0;")
    bundles: list[tuple[str, int]] = []
    for b in range(rng.randint(0, 2)):
        name = f"V{b + 1}"
        rank = rng.randint(1, min(3, rank_max))
        poly = ["1"]
        for degree in range(1, min(rank, dim) + 1):
            if rng.random() < 0.75:
                mono = "*".join(rng.choices(generators, k=degree))
                coeff = rng.choice([-2, -1, 1, 2, 3])
                poly.append(f"{'-' if coeff < 0 else '+'} {abs(coeff)}*{mono}")
        lines.append(f"bundle {name} rank {rank} chern {' '.join(poly)};")
        bundles.append((name, rank))
    parabolics = []
    for p in range(rng.randint(1, 3)):
        pname = f"E{p + 1}"
        budget = rank_max
        summands = []
        for _ in range(rng.randint(1, 3)):
            options = ["O"] + [n for n, r in bundles if r <= budget]
            chosen = rng.choice(options)
            budget -= 1 if chosen == "O" else dict(bundles)[chosen]
            entries = []
            for d in divisors:
                if weight_denominator_max >= 2 and rng.random() < 0.55:
                    den = rng.randint(2, weight_denominator_max)
                    num = rng.randint(1, den - 1)
                    entries.append(f"{d}:{Fraction(num, den)}")
            summands.append(chosen + "{" + ", ".join(entries) + "}")
            if budget < 1:
                break
        parabolics.append(pname)
        lines.append(f"parabolic {pname} = {' (+) '.join(summands)};")
    for pname in parabolics:
        lines.append(f"compute chern {pname};")
        lines.append(f"verify grothendieck {pname};")
        lines.append(f"verify corollary1 {pname};")
    if len(parabolics) >= 2:
        lines.append(f"verify prop1 {parabolics[0]} {parabolics[1]};")
    return "\n".join(lines) + "\n"


def random_elaborated_scene(rng: random.Random, **kwargs) -> Scene:
    return elaborate(parse_program(random_scene_text(rng, **kwargs)))
