#!/usr/bin/env python3
"""Print the SHA-256 digests of the reports of 100 seed-7 ``deep`` scenes.

The scenes are the first 100 of the benchmark's ``deep`` workload at seed
7: dim 4-5 varieties with binomial ``c*H^2`` relations, made by
``perfbench/deepgen.py``, which this script imports and does not change.
It prints two lines: the digest of the reports as the workload evaluates
them, and the digest under ``--verify-all``.  Each report enters its
digest as sorted-key JSON followed by a NUL byte.  A scene that does not
exit 0 makes the script exit 1.

    python3 scripts/deep_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from deepgen import deep_scene_text  # noqa: E402
from parachern.cli import evaluate_text  # noqa: E402

SEED = 7
COUNT = 100


def scenes() -> list[tuple[str, str]]:
    """The first scenes of the ``deep`` workload at the seed, as its
    worker makes them."""
    master = random.Random(SEED)
    out = []
    for index in range(COUNT):
        rng = random.Random(master.randrange(1 << 30))
        out.append((f"deep-{index:04d}", deep_scene_text(rng, index)))
    return out


def main() -> int:
    batch = scenes()
    for verify_all in (False, True):
        digest = hashlib.sha256()
        for name, text in batch:
            report = evaluate_text(text, name, verify_all=verify_all)
            if report.get("exit_code") != 0:
                print(f"{name}: exit {report.get('exit_code')}", file=sys.stderr)
                return 1
            digest.update(json.dumps(report, sort_keys=True).encode("utf-8") + b"\0")
        print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
