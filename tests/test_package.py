import os
import subprocess
import sys
from pathlib import Path

import parachern


def test_every_export_resolves():
    for name in parachern.__all__:
        getattr(parachern, name)


def test_cli_import_leaves_out_the_heavy_stdlib_modules():
    # The CLI starts one interpreter per scene, so its import time counts;
    # `dataclasses` alone pulls in the modules checked here, and only
    # `--random` needs the scene generator.
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "parachern.scenegen")
    code = (
        "import sys, parachern.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
