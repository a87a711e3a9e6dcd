"""The measured process of one benchmark run.

Started fresh by ``run.py``, so its import of ``parachern.cli`` is a cold
set-up and its peak RSS is the workload's alone.  It reads one job as JSON on
stdin, makes the workload's scenes from the seed, checks every report, and
writes one JSON result on stdout.  The loop is closed and single-threaded:
the next scene starts only after the previous report is back and checked.
Only the pipeline call is timed; generation and checks are not.

``worker.py --setup`` times the import alone and exits.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
_started = time.perf_counter()
import parachern.cli  # noqa: E402

SETUP_S = time.perf_counter() - _started

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

from deepgen import deep_scene_text  # noqa: E402
from parachern.scenegen import random_scene_text  # noqa: E402

# Every workload runs at least this many scenes, so its p90 has ten beyond it.
MIN_SCENES = 100
# The timed loop stops here even below MIN_SCENES, to end within the budget.
LOOP_CAP_S = 120.0
# Scenes per traced pass (the golden pass is the whole corpus).
PASS_SCENES = {"sweep": 100, "deep": 10}
# Weight denominator cap that ``parachern --random`` uses by default.
SWEEP_WEIGHT_CAP = 12

GOLDEN = os.path.join("tests", "golden")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def sweep_stream(seed):
    """The scenes ``parachern --random N --seed S`` evaluates, in order."""
    master = random.Random(seed)
    index = 0
    while True:
        scene_seed = master.randrange(1 << 30)
        text = random_scene_text(
            random.Random(scene_seed), weight_denominator_max=SWEEP_WEIGHT_CAP
        )
        yield f"random-{index:04d}", text
        index += 1


def deep_stream(seed):
    master = random.Random(seed)
    index = 0
    while True:
        scene_rng = random.Random(master.randrange(1 << 30))
        yield f"deep-{index:04d}", deep_scene_text(scene_rng, index)
        index += 1


def scene_problem(report):
    """None when a sweep or deep report is right: exit 0 and every
    verification passed.  Otherwise a short description."""
    if report.get("exit_code") != 0 or report.get("status") != "ok":
        return f"exit {report.get('exit_code')} status {report.get('status')}"
    results = report.get("results") or []
    if not results:
        return "no results"
    for entry in results:
        if entry["command"].startswith("verify") and entry.get("passed") is not True:
            return f"{entry['command']} did not pass"
    return None


class SceneWorkload:
    """``sweep`` and ``deep``: generated scenes fed to ``evaluate_text``."""

    def __init__(self, name, seed):
        self._make_stream = sweep_stream if name == "sweep" else deep_stream
        self._stream = self._make_stream(seed)
        self.verify_all = name == "sweep"

    def fixed(self, seed, count):
        stream = self._make_stream(seed)
        return [next(stream) for _ in range(count)]

    def next_scene(self):
        return next(self._stream)

    def call(self, scene):
        name, text = scene
        return parachern.cli.evaluate_text(text, name, verify_all=self.verify_all)

    def check(self, scene, report):
        return scene_problem(report)

    def canonical(self, scene, report):
        return json.dumps(report, sort_keys=True)


class GoldenWorkload:
    """``golden``: the checked-in corpus through ``cli.run``, one pass after
    another, each pass in an order drawn from the seed."""

    def __init__(self, seed):
        self.scenes = []
        for kind in ("valid", "invalid"):
            folder = os.path.join(GOLDEN, kind)
            for entry in sorted(os.listdir(folder)):
                if not entry.endswith(".pch"):
                    continue
                path = os.path.join(folder, entry)
                expected = None
                if kind == "valid":
                    with open(path[: -len(".pch")] + ".expected.json", encoding="utf-8") as f:
                        expected = f.read()
                self.scenes.append((path, kind, expected))
        if not self.scenes:
            raise SystemExit("golden corpus not found")
        self._rng = random.Random(seed)
        self._queue = []

    def fixed(self, seed, count=None):
        return list(self.scenes)

    def next_scene(self):
        if not self._queue:
            self._queue = list(self.scenes)
            self._rng.shuffle(self._queue)
        return self._queue.pop()

    def call(self, scene):
        path, kind, _ = scene
        argv = [path, "--json", "--verify-all"] if kind == "valid" else [path, "--json"]
        out, err = io.StringIO(), io.StringIO()
        code = parachern.cli.run(argv, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def check(self, scene, result):
        path, kind, expected = scene
        code, out, err = result
        if kind == "valid":
            if code != 0 or err:
                return f"{path}: exit {code}"
            if out != expected:
                return f"{path}: report differs from its expected JSON"
            return None
        if code not in (2, 3):
            return f"{path}: exit {code}, expected 2 or 3"
        report = json.loads(out)
        diagnostics = report.get("diagnostics") or []
        if report.get("exit_code") != code or not diagnostics:
            return f"{path}: no diagnostics"
        for d in diagnostics:
            if d["severity"] != "error" or d["line"] < 1 or d["column"] < 1:
                return f"{path}: diagnostic without a position"
        return None

    def canonical(self, scene, result):
        return f"{scene[0]}\n{result[0]}\n{result[1]}"


def make_workload(name, seed):
    if name == "golden":
        return GoldenWorkload(seed)
    return SceneWorkload(name, seed)


def run_scene(workload, scene):
    """Time one pipeline call; returns (seconds, problem or None, result)."""
    started = time.perf_counter()
    try:
        result = workload.call(scene)
    except Exception as exc:  # a crash is a wrong outcome, not a stop
        return time.perf_counter() - started, f"{type(exc).__name__}: {exc}", None
    elapsed = time.perf_counter() - started
    return elapsed, workload.check(scene, result), result


def canary(workload, name):
    """Evaluate the workload's reference scenes untimed and compare the
    digest of their reports with the recorded one.  Also warms up."""
    with open(DIGESTS, encoding="utf-8") as f:
        reference = json.load(f)[name]
    scenes = workload.fixed(reference["seed"], reference["scenes"])
    digest = hashlib.sha256()
    problems = []
    for scene in scenes:
        _, problem, result = run_scene(workload, scene)
        if problem:
            problems.append(problem)
        else:
            digest.update(workload.canonical(scene, result).encode("utf-8") + b"\0")
    return {
        "scenes": len(scenes),
        "digest": digest.hexdigest(),
        "digest_ok": digest.hexdigest() == reference["sha256"],
        "problems": problems,
    }


def timed_loop(workload, seconds):
    latencies = []
    problems = []
    started = time.perf_counter()
    while True:
        scene = workload.next_scene()
        elapsed, problem, _ = run_scene(workload, scene)
        latencies.append(elapsed)
        if problem:
            problems.append(problem)
        spent = time.perf_counter() - started
        if (spent >= seconds and len(latencies) >= MIN_SCENES) or spent >= LOOP_CAP_S:
            return latencies, problems


def traced_passes(workload, name, seed, seconds):
    """One untraced pass of the fixed pass scenes, then traced passes of the
    same scenes until ``seconds`` have gone, at least two.  Counts are those
    of the first traced pass; self times are the median over passes."""
    from tracer import Tracer

    scenes = workload.fixed(seed, PASS_SCENES.get(name))
    problems = []

    def one_pass():
        total = 0.0
        for scene in scenes:
            elapsed, problem, _ = run_scene(workload, scene)
            total += elapsed
            if problem:
                problems.append(problem)
        return total

    untraced = one_pass()
    tracer = Tracer()
    tracer.install()
    passes = []
    started = time.perf_counter()
    try:
        while len(passes) < 2 or time.perf_counter() - started < seconds:
            tracer.reset()
            busy = one_pass()
            passes.append((busy, tracer.counts(), tracer.self_ms(), dict(tracer.callers)))
            if time.perf_counter() - started >= LOOP_CAP_S:
                break
    finally:
        tracer.uninstall()
    return {
        "scenes": len(scenes),
        "untraced_s": untraced,
        "traced_s": [p[0] for p in passes],
        "counts": passes[0][1],
        "self_ms": [p[2] for p in passes],
        "callers": [[a, b, n] for (a, b), n in sorted(passes[0][3].items())],
        "problems": problems,
    }


def main():
    if "--setup" in sys.argv[1:]:
        print(json.dumps({"setup_s": SETUP_S}))
        return
    job = json.loads(sys.stdin.read())
    name, seed = job["workload"], job["seed"]
    workload = make_workload(name, seed)
    result = {"canary": canary(workload, name)}
    if job["trace"]:
        result["trace"] = traced_passes(workload, name, seed, job["seconds"])
    else:
        latencies, problems = timed_loop(workload, job["seconds"])
        result["latencies_s"] = latencies
        result["problems"] = problems
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
