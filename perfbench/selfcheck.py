"""Check the tracer against exact counts.

    python3 perfbench/selfcheck.py

Run from the root of a parachern checkout.  Three checks, each printed:

1. Every traced call count equals cProfile's count for the same function
   over the same pass, on the golden corpus and on 20 sweep scenes.  A
   function the tracer failed to wrap at some import site shows here.
2. Two traced runs in separate processes give the same counts: the golden
   pass, and the first 100 sweep scenes at seed 7.
3. Those runs reproduce the reference counts of the commit that added the
   benchmark (REFERENCE).  A change that removes redundant work is expected
   to move them; the check then reports the difference and fails.

Exits 1 when any check fails.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# (workload, seed): {metric: value} at the commit that added the benchmark.
# Golden: 80 cover_bundle calls from parabolic_chern, 26 from verify_relation
# and 24 from verify_cover_pullback, for 12 valid scenes under --verify-all.
REFERENCE = {
    ("golden", 1): {"bundles.cover_bundle.calls": 130},
    ("sweep", 7): {"bundles.OrdinaryBundleClass.character.calls": 5256},
}


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported wrong outcomes")
    return {
        key: m["value"] for key, m in result["metrics"].items() if m["unit"] != "ms"
        and not key.startswith("trace.")
    }


def profile_against_tracer(workload_name: str, count: int | None) -> list[str]:
    sys.path.insert(0, str(HERE))
    import worker
    from parachern.rings import RingElement
    from tracer import TARGETS, Tracer, _resolve

    workload = worker.make_workload(workload_name, 7)
    scenes = workload.fixed(7, count)

    def one_pass():
        for scene in scenes:
            _, problem, _ = worker.run_scene(workload, scene)
            if problem:
                raise SystemExit(f"{workload_name}: {problem}")

    profiler = cProfile.Profile()
    profiler.runcall(one_pass)
    stats = pstats.Stats(profiler).stats
    profiled = {}
    for name, module_name, path in TARGETS:
        target = _resolve(module_name, path)
        if target is None:
            profiled[name] = 0
            continue
        code = target[2].__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled[name] = stats[key][1] if key in stats else 0
    code = RingElement.__init__.__code__
    elements = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]

    tracer = Tracer()
    tracer.install()
    try:
        one_pass()
    finally:
        tracer.uninstall()
    problems = [
        f"{workload_name}: {name} traced {tracer.calls[name]} profiled {n}"
        for name, n in profiled.items()
        if tracer.calls[name] != n
    ]
    if tracer.elements != elements:
        problems.append(
            f"{workload_name}: rings.elements traced {tracer.elements} profiled {elements}"
        )
    return problems


def main() -> None:
    sys.path.insert(0, str(Path("src").resolve()))
    failures = []
    for workload, count in (("golden", None), ("sweep", 20)):
        problems = profile_against_tracer(workload, count)
        print(f"tracer vs cProfile on {workload}: {'ok' if not problems else 'MISMATCH'}")
        failures += problems
    for (workload, seed), reference in REFERENCE.items():
        first = traced_counts(workload, seed)
        second = traced_counts(workload, seed)
        differing = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload} seed {seed}: counts repeat: {'yes' if not differing else 'NO'}")
        failures += [f"{workload}: {k} {first[k]} then {second.get(k)}" for k in differing]
        for key, expected in reference.items():
            print(f"{workload} seed {seed}: {key} = {first[key]} (reference {expected})")
            if first[key] != expected:
                failures.append(f"{workload}: {key} = {first[key]}, reference {expected}")
    for failure in failures:
        print(f"FAILED: {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
