#!/usr/bin/env python3
"""Walk through the flagship example end to end and print every artifact.

A surface with one divisor carries the rank-2 weighted sum of trivial lines
with weights 1/3 and 2/3.  The script prints the cover order, the character,
the Chern classes downstairs and upstairs, the normalized relation classes,
and the verification results.  The last line reads the classes back off the
relation with the test oracle in ``tests/proj_bundle_oracle.py``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from parachern import (  # noqa: E402
    ParabolicBundle,
    Variety,
    relation_classes,
    trivial_line,
    verify_relation,
)
from proj_bundle_oracle import solve_from_relation  # noqa: E402


def main() -> int:
    X = Variety(2, ("D1",))
    ring = X.ring
    E = ParabolicBundle(
        X,
        (
            (trivial_line(ring), {"D1": Fraction(1, 3)}),
            (trivial_line(ring), {"D1": Fraction(2, 3)}),
        ),
    )
    order = E.order
    print(f"cover order          : {order}")
    parts = [E.character.graded_part(k) for k in range(X.dim + 1)]
    print(f"character            : {[str(p) for p in parts]}")
    print(f"chern classes        : {[str(c) for c in E.classes]}")
    print(f"relation classes     : {[str(c) for c in relation_classes(E)]}")

    print(f"cover bundle classes : {[str(c) for c in E.cover_classes]}")

    check = verify_relation(E)
    relation = "PASS" if check.passed else [str(c) for c in check.residual]
    print(f"defining relation    : {relation}")
    print(f"pullback consistency : {'PASS' if E.pulls_back_to_cover else 'FAIL'}")
    oracle = solve_from_relation(E) == E.classes
    print(f"read-off oracle      : {'PASS' if oracle else 'FAIL'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
