#!/usr/bin/env python3
"""Run the steps of the tier-1 CI workflow locally, in order.

Reads ``.github/workflows/tier1.yml`` and runs every step's ``run:`` script
under bash from the repository root, with ``python`` and ``python3``
pointing at the interpreter that runs this script.  ``uses:`` steps
(checkout, interpreter setup) are skipped.  A ``pip install`` step is not
run: it becomes a check that each package it names can be imported.  Every
step runs even after a failure, within the job's ``timeout-minutes``; the
script exits 1 if any step failed.

    python3 scripts/ci.py
"""

from __future__ import annotations

import importlib.util
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
PIP_INSTALL = re.compile(r"^\s*python3? -m pip install (.*)$")


def missing_packages(arguments: str) -> list[str]:
    """The packages named in pip install arguments that cannot be imported."""
    names = [a for a in shlex.split(arguments) if not a.startswith("-")]
    modules = [re.split(r"[<>=!~\[;]", n)[0].replace("-", "_") for n in names]
    return [m for m in modules if importlib.util.find_spec(m) is None]


def run_step(script: str, env: dict[str, str], timeout: float) -> int:
    pip = PIP_INSTALL.match(script.strip())
    if pip:
        missing = missing_packages(pip.group(1))
        for name in missing:
            print(f"cannot import {name}")
        return 1 if missing else 0
    # GitHub's default shell for a run step is ``bash -e``.  The step runs
    # in its own process group, so a timeout stops all it started.
    step = subprocess.Popen(
        ["bash", "-e", "-c", script], cwd=ROOT, env=env, start_new_session=True
    )
    try:
        return step.wait(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(step.pid, signal.SIGKILL)
        step.wait()
        print("step timed out")
        return 1


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    failed = []
    with tempfile.TemporaryDirectory() as bindir:
        # Wrappers rather than symlinks, so a virtual environment's
        # interpreter still finds its own site-packages.
        for name in ("python", "python3"):
            wrapper = Path(bindir) / name
            wrapper.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} "$@"\n')
            wrapper.chmod(0o755)
        env = dict(os.environ, PATH=bindir + os.pathsep + os.environ.get("PATH", ""))
        for job_name, job in workflow["jobs"].items():
            deadline = time.monotonic() + 60 * job.get("timeout-minutes", 360)
            for step in job["steps"]:
                if "run" not in step:
                    continue
                label = f"{job_name}: {step.get('name', step['run'].strip())}"
                print(f"== {label}", flush=True)
                code = run_step(step["run"], env, deadline - time.monotonic())
                print(f"-- {'ok' if code == 0 else f'FAILED (exit {code})'}", flush=True)
                if code:
                    failed.append(label)
    for label in failed:
        print(f"FAILED: {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
