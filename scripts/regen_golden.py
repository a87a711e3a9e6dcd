#!/usr/bin/env python3
"""Regenerate the expected JSON reports for the golden scenes.

Valid scenes are run with ``--json --verify-all`` and must exit 0; invalid
scenes are run with ``--json`` and must exit 2 (parse error) or 3
(elaboration error).  Each report is written next to its scene as
``<name>.expected.json``.  Run from the repository root after an
intentional change to report content:

    python3 scripts/regen_golden.py
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parachern.cli import run  # noqa: E402

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

# corpus directory -> (extra CLI flags, accepted exit codes)
CORPORA = {
    "valid": (["--verify-all"], (0,)),
    "invalid": ([], (2, 3)),
}


def main() -> int:
    for corpus, (flags, exit_codes) in CORPORA.items():
        for scene in sorted((GOLDEN / corpus).glob("*.pch")):
            out = io.StringIO()
            code = run([str(scene), "--json", *flags], stdout=out, stderr=out)
            if code not in exit_codes:
                print(f"FAILED {corpus}/{scene.name}: exit {code}")
                print(out.getvalue())
                return 1
            expected = scene.with_suffix(".expected.json")
            expected.write_text(out.getvalue(), encoding="utf-8")
            print(f"wrote {corpus}/{expected.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
