"""Every pinned output, by the SHA-256 of its bytes, in one table: the two
200-scene random sweeps, 100 scenes of the benchmark's ``deep`` workload and
the worked example.  A change that alters one on purpose copies the digest
that its failure prints into PINS and says why.
"""

import hashlib
import io
import json
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from parachern.cli import evaluate_text, run

ROOT = Path(__file__).resolve().parents[1]
SWEEP_7 = ("--random", "200", "--seed", "7")


def cli(*argv: str) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    assert run(list(argv), stdout=out, stderr=err) == 0, err.getvalue()
    return out.getvalue().encode("utf-8")


def deep(verify_all: bool) -> bytes:
    """The reports of the first 100 ``deep`` scenes at seed 7, made as the
    workload's worker makes them, each as sorted-key JSON and a NUL."""
    scene_text = runpy.run_path(str(ROOT / "perfbench" / "deepgen.py"))["deep_scene_text"]
    master = random.Random(7)
    reports = []
    for index in range(100):
        text = scene_text(random.Random(master.randrange(1 << 30)), index)
        report = evaluate_text(text, f"deep-{index:04d}", verify_all=verify_all)
        assert report["exit_code"] == 0, index
        reports.append(json.dumps(report, sort_keys=True).encode("utf-8") + b"\0")
    return b"".join(reports)


def worked_example() -> bytes:
    script = [sys.executable, str(ROOT / "scripts" / "worked_example.py")]
    return subprocess.run(script, stdout=subprocess.PIPE, check=True, timeout=120).stdout


# how each pinned output is made; PINS below holds its SHA-256
OUTPUTS = {
    "sweep-7.json": lambda: cli(*SWEEP_7, "--json"),
    "sweep-7.txt": lambda: cli(*SWEEP_7),  # the headline command
    "sweep-2022.json": lambda: cli("--random", "200", "--seed", "2022", "--json"),
    # Tensor products of capped weights exceed the cap; that must not fail.
    "sweep-7-cap-12.json": lambda: cli(*SWEEP_7, "--max-denominator", "12", "--json"),
    "deep-7": lambda: deep(verify_all=False),
    "deep-7-verify-all": lambda: deep(verify_all=True),
    "worked-example": worked_example,
}
PINS = {
    "sweep-7.json": "bba234913be24e336eba5f518a6638033a572cee1543ed3b5381574686db881e",
    "sweep-7.txt": "963a775b64c79b28902bcb70539c202f3fd0bf089096fbf4fb7ca977c37e0d0e",
    "sweep-2022.json": "8a4cc7c5b487b2278d8f24ce53e68e418435c6fff7390ec026c10bdbf26bf186",
    "sweep-7-cap-12.json": "bba234913be24e336eba5f518a6638033a572cee1543ed3b5381574686db881e",
    "deep-7": "8d7f5c8bd4f21cc927bd21cbab5fda1f7e69aabf5a1b3a0f2872f0b2ab9040b5",
    "deep-7-verify-all": "6df2e1bb3e893ab327ac5b80ffea1e3572026d3c4491bd53fc853ee92605a4b3",
    "worked-example": "ff6b44f7abb109dda888bee554d06deea73054d3b363d040e4f92cad568e249f",
}


@pytest.mark.parametrize("pin", PINS)
def test_pinned_output(pin):
    digest = hashlib.sha256(OUTPUTS[pin]()).hexdigest()
    assert digest == PINS[pin], f"{pin} now has SHA-256 {digest}"
