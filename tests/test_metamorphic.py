"""Metamorphic scene relations: rewrites of a scene that describe the same
geometry, whose reports must not change.

Each relation rewrites the AST of a generated scene and prints it back
through ``format_program``.  Reversing the divisor declaration moves every
divisor to another generator slot and packed field, which the cover ring
relies on (the divisors come first); reversing the summands of a
parabolic bundle reorders its twisted sum.
"""

import json
import random

import pytest

from parachern.cli import evaluate_text
from parachern.frontend import (
    DivisorDecl,
    ParabolicDecl,
    format_program,
    parse_program,
)
from parachern.scenegen import random_scene_text

SCENES = 300


@pytest.fixture(scope="module")
def sweep():
    """The texts and reports of the scenes ``--random 300 --seed 7`` runs."""
    master = random.Random(7)
    texts = [
        random_scene_text(
            random.Random(master.randrange(1 << 30)), weight_denominator_max=12
        )
        for _ in range(SCENES)
    ]
    return [(text, evaluate_text(text, "scene", verify_all=True)) for text in texts]


def rewritten(text, rewrite):
    ast = parse_program(text)
    statements = type(ast.statements)(rewrite(stmt) for stmt in ast.statements)
    return format_program(type(ast)(statements))


def reversed_divisors(stmt):
    if isinstance(stmt, DivisorDecl):
        return DivisorDecl(type(stmt.names)(reversed(stmt.names)), stmt.pos)
    return stmt


def reversed_summands(stmt):
    if isinstance(stmt, ParabolicDecl):
        summands = type(stmt.summands)(reversed(stmt.summands))
        return ParabolicDecl(stmt.name, summands, stmt.pos)
    return stmt


def up_to_generator_order(report):
    """The report with each class's terms as a set of (coefficient, factor
    set) pairs; the class texts, which print the terms in generator order,
    are left out."""
    results = []
    for entry in report["results"]:
        entry = dict(entry)
        entry.pop("classes", None)
        if "terms" in entry:
            entry["terms"] = [
                {
                    (t["coefficient"], frozenset(map(tuple, t["monomial"])))
                    for t in terms
                }
                for terms in entry["terms"]
            ]
        results.append(entry)
    return {**report, "results": results}


def test_reversed_divisor_order_keeps_every_report(sweep):
    mismatches = []
    for index, (text, report) in enumerate(sweep):
        other = rewritten(text, reversed_divisors)
        other = evaluate_text(other, "scene", verify_all=True)
        if up_to_generator_order(other) != up_to_generator_order(report):
            mismatches.append(index)
    assert all(report["status"] == "ok" for _, report in sweep)
    assert mismatches == []


def test_reversed_summands_keep_every_report_byte_identical(sweep):
    mismatches = []
    for index, (text, report) in enumerate(sweep):
        other = rewritten(text, reversed_summands)
        other = evaluate_text(other, "scene", verify_all=True)
        if json.dumps(other, indent=2) != json.dumps(report, indent=2):
            mismatches.append(index)
    assert mismatches == []
