"""Seeded generator for the ``deep`` workload's scenes.

Each scene is a dim 4-5 variety with 3-4 divisors, one degree-1 class and
one relation, two rank-3 bundles with integer Chern classes, and four
parabolic bundles of rank 6-10 with weight denominators at most 12.  Every
parabolic bundle is the target of exactly one command, and the four
commands of a scene are distinct kinds, so a handful of scenes exercises
every compute and verify path without ``--verify-all``.

The shape that sets a scene's cost (dimension, divisor count, the ranks and
the command left out) cycles with the scene's index, with period 20.  The
seed draws everything else.  A run of about a hundred scenes then has the
same mix of shapes on every seed, so the seed moves the run's figures far
less than the program does.
"""

from __future__ import annotations

import random
from fractions import Fraction

COMMANDS = (
    "compute chern",
    "compute ch",
    "compute ctpoly",
    "verify grothendieck",
    "verify corollary1",
)
BUNDLE_RANK = 3
PARABOLIC_RANKS = (6, 7, 9, 10)
WEIGHT_DENOMINATOR_MAX = 12


def _monomial(rng: random.Random, generators: list[str], degree: int) -> str:
    return "*".join(rng.choices(generators, k=degree))


def _chern_poly(rng: random.Random, generators: list[str]) -> str:
    terms = ["1"]
    for degree in range(1, BUNDLE_RANK + 1):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        sign = "-" if coeff < 0 else "+"
        terms.append(f"{sign} {abs(coeff)}*{_monomial(rng, generators, degree)}")
    return " ".join(terms)


def _summand(rng: random.Random, bundle: str, divisors: list[str]) -> str:
    entries = []
    for d in divisors:
        if rng.random() < 0.5:
            den = rng.randint(2, WEIGHT_DENOMINATOR_MAX)
            entries.append(f"{d}:{Fraction(rng.randint(1, den - 1), den)}")
    return bundle + "{" + ", ".join(entries) + "}"


def deep_scene_text(rng: random.Random, index: int) -> str:
    dim = 4 + index % 2
    divisors = [f"D{i + 1}" for i in range(3 + index // 2 % 2)]
    generators = divisors + ["H"]
    i, j = rng.sample(range(len(divisors)), 2)
    rhs = rng.choice(["0", "H^2", "-H^2", "2*H^2"])
    lines = [
        f"variety X dim {dim};",
        f"divisor {', '.join(divisors)};",
        "class H deg 1;",
        f"relation {divisors[min(i, j)]}*{divisors[max(i, j)]} = {rhs};",
    ]
    for name in ("V1", "V2"):
        lines.append(
            f"bundle {name} rank {BUNDLE_RANK} chern {_chern_poly(rng, generators)};"
        )
    parabolics = []
    for p, remaining in enumerate(rng.sample(PARABOLIC_RANKS, len(PARABOLIC_RANKS))):
        summands = []
        while remaining:
            if remaining >= BUNDLE_RANK and rng.random() < 0.5:
                bundle = rng.choice(["V1", "V2"])
                remaining -= BUNDLE_RANK
            else:
                bundle = "O"
                remaining -= 1
            summands.append(_summand(rng, bundle, divisors))
        name = f"E{p + 1}"
        parabolics.append(name)
        lines.append(f"parabolic {name} = {' (+) '.join(summands)};")
    commands = [c for i, c in enumerate(COMMANDS) if i != index % len(COMMANDS)]
    for name, command in zip(parabolics, rng.sample(commands, len(commands))):
        lines.append(f"{command} {name};")
    return "\n".join(lines) + "\n"
