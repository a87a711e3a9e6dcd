"""parachern benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a parachern checkout.  Workloads (see README.md):

    sweep   the scenes ``parachern --random N --seed S`` evaluates
    deep    large generated scenes, see deepgen.py
    golden  the checked-in corpus under tests/golden through ``cli.run``

With ``--trace 0`` the run reports the end-to-end metrics: throughput and
latency of a closed single-client loop, set-up time and peak RSS.  With
``--trace 1`` it reports per-layer self time and work counts from a traced
run.  Every report is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import NOT_ON_EVERY_WORKLOAD

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "deep", "golden")
# Fresh interpreters timed for set-up, after one untimed one that leaves
# the bytecode cache as a user's installed package has it.
SETUP_SAMPLES = 7
# Every run ends within this many seconds, set-up included.
RUN_BUDGET_S = 175.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_worker(args: list[str], job: dict | None, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the workload ran")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            input=json.dumps(job) if job is not None else "",
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail("worker did not finish within the run budget")
    if done.returncode != 0:
        fail(f"worker exited with {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(deadline: float) -> list[float]:
    run_worker(["--setup"], None, deadline)
    return [run_worker(["--setup"], None, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, int, list[str]]:
    latencies_ms = sorted(s * 1000.0 for s in result["latencies_s"])
    n = len(latencies_ms)
    p90 = statistics.quantiles(latencies_ms, n=10)[8]
    beyond = sum(1 for v in latencies_ms if v > p90)
    problems = result["problems"]
    print(
        f"scenes={n} busy_s={sum(latencies_ms) / 1000.0:.3f} "
        f"p90_samples_beyond={beyond}"
    )
    metrics = {
        "scenes_per_s": metric(n / (sum(latencies_ms) / 1000.0), "1/s"),
        "scene_ms_p50": metric(statistics.median(latencies_ms), "ms"),
        "scene_ms_p90": metric(p90, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, n, problems


def per_layer(trace: dict) -> tuple[dict, int, list[str]]:
    passes = trace["self_ms"]
    self_ms = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    scenes = trace["scenes"]
    traced = scenes / statistics.median(trace["traced_s"])
    untraced = scenes / trace["untraced_s"]
    print(
        f"pass_scenes={scenes} traced_passes={len(passes)} "
        f"untraced_scenes_per_s={untraced:.3f} traced_scenes_per_s={traced:.3f}"
    )
    for key, value in sorted(self_ms.items()):
        print(f"  {key} = {value:.3f} ms")
    for caller in trace["callers"]:
        print(f"  calls {caller[0]} <- {caller[1]}: {caller[2]}")
    metrics = {}
    for key, value in trace["counts"].items():
        unit = "ratio" if key.endswith("_ratio") else "bit" if key.endswith("bits") else "count"
        metrics[key] = metric(value, unit)
    for key, value in self_ms.items():
        if key[: -len(".self_ms")] not in NOT_ON_EVERY_WORKLOAD:
            metrics[key] = metric(value, "ms")
    metrics["trace.untraced_scenes_per_s"] = metric(untraced, "1/s")
    metrics["trace.traced_scenes_per_s"] = metric(traced, "1/s")
    metrics["trace.overhead_scenes_per_s"] = metric(untraced - traced, "1/s")
    attempted = scenes * (len(passes) + 1)
    return metrics, attempted, trace["problems"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (Path("src") / "parachern" / "cli.py").is_file():
        fail("run from the root of a parachern checkout (src/parachern is missing)")
    if args.workload == "golden" and not (Path("tests") / "golden" / "valid").is_dir():
        fail("the golden corpus tests/golden is missing")

    setups = [] if args.trace else setup_seconds(deadline)
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = run_worker([], job, deadline)
    canary = result["canary"]
    print(
        f"workload={args.workload} seed={args.seed} "
        f"reference_digest={canary['digest']} digest_ok={canary['digest_ok']}"
    )
    if args.trace:
        metrics, attempted, problems = per_layer(result["trace"])
    else:
        metrics, attempted, problems = end_to_end(result, setups)
    # A digest that differs marks every reference scene wrong: which one
    # changed is not known.
    attempted += canary["scenes"]
    failed = len(problems) + (
        len(canary["problems"]) if canary["digest_ok"] else canary["scenes"]
    )
    for problem in (canary["problems"] + problems)[:20]:
        print(f"FAILED: {problem}")
    print(f"attempted={attempted} failed={failed} fail_ratio={failed / attempted}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
