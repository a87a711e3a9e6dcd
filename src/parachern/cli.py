"""Command-line entry point.

Evaluates a scene file (or a batch of generated random scenes), runs its
compute and verify commands, and emits a text or JSON report.  Exit codes:
0 all commands ran and every verification passed, 1 a verification failed,
2 parse error, 3 semantic error (including unreadable files, files that
are not UTF-8, and missing integrals), 141 stdout was closed before the
report was written.  Reports are deterministic for fixed inputs and seed;
timing figures are only included when requested so that JSON output is
stable.
"""

from __future__ import annotations

import argparse
import codecs
import json
import os
import random
import sys
import time
from functools import cache
from pathlib import Path
from typing import Sequence

from . import grothendieck
from .chow import MissingIntegralError, integrate
from .frontend import (
    DEFAULT_MAX_DENOMINATOR,
    CommandDecl,
    Diagnostic,
    ParseError,
    Scene,
    SceneError,
    elaborate,
    parse_program,
)
from .rings import RingElement, format_terms

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_SEMANTIC_ERROR = 3
# What a shell reports for a process killed by SIGPIPE: 128 + 13.
EXIT_BROKEN_PIPE = 141


def _ct_polynomial_string(classes: Sequence[str]) -> str:
    """The Chern polynomial from the printed classes c_0..c_rank."""
    parts = [classes[0]]
    for i, c in enumerate(classes[1:], start=1):
        if c != "0":
            power = "t" if i == 1 else f"t^{i}"
            parts.append(f"({c})*{power}")
    return " + ".join(parts)


def _class_report(element: RingElement) -> tuple[str, list[dict]]:
    """An element's text and report terms, from its printed terms."""
    printed = element.printed_terms()
    terms = [
        {"coefficient": c, "monomial": [list(f) for f in fs]} for c, fs, _ in printed
    ]
    return format_terms([(c, text) for c, _, text in printed]), terms


def _run_compute(scene: Scene, command: CommandDecl) -> dict:
    name = command.names[0]
    bundle = scene.parabolics[name]
    entry = {
        "command": f"compute {command.kind}",
        "target": name,
        "rank": bundle.rank,
        "cover_order": bundle.order,
    }
    if command.kind == "degree":
        entry["value"] = str(integrate(scene.variety, bundle.character))
        return entry
    if command.kind in ("chern", "ctpoly"):
        classes = bundle.classes
    elif command.kind == "ch":
        classes = bundle.character.graded_parts(scene.variety.dim)
    else:
        raise ValueError(f"unknown compute kind {command.kind!r}")
    reports = [_class_report(c) for c in classes]
    strings = [text for text, _ in reports]
    if command.kind == "ctpoly":
        entry["polynomial"] = _ct_polynomial_string(strings)
    entry["classes"] = strings
    entry["terms"] = [terms for _, terms in reports]
    return entry


def _run_verify(scene: Scene, command: CommandDecl) -> dict:
    if command.kind == "prop1":
        a, b = command.names
        checks = grothendieck.verify_pair_identities(
            scene.parabolics[a], scene.parabolics[b]
        )
        return {
            "command": "verify prop1",
            "targets": [a, b],
            "passed": checks.passed,
            "whitney": checks.whitney,
            "dual": checks.dual,
            "tensor": checks.tensor,
        }
    name = command.names[0]
    bundle = scene.parabolics[name]
    entry = {
        "command": f"verify {command.kind}",
        "target": name,
        "rank": bundle.rank,
        "cover_order": bundle.order,
    }
    if command.kind == "grothendieck":
        check = grothendieck.verify_relation(bundle)
        entry["passed"] = check.passed
        entry["residual"] = (
            None if check.passed else [str(c) for c in check.residual]
        )
    elif command.kind == "corollary1":
        entry["passed"] = bundle.pulls_back_to_cover
    else:
        raise ValueError(f"unknown verify kind {command.kind!r}")
    return entry


def execute_scene(
    scene: Scene, *, verify_all: bool = False, timings: bool = False
) -> tuple[list[dict], bool]:
    """Run the scene's commands in order; returns (entries, all_passed).

    ``verify_all`` appends a relation and a pullback check for every
    parabolic bundle, positioned at its declaration.  A missing integral
    fails the scene at the command that met it.
    """
    commands = list(scene.commands)
    if verify_all:
        for name, pos in scene.positions.items():
            commands.append(CommandDecl("verify", "grothendieck", (name,), pos))
            commands.append(CommandDecl("verify", "corollary1", (name,), pos))
    entries = []
    all_passed = True
    for command in commands:
        started = time.perf_counter()
        try:
            if command.action == "compute":
                entry = _run_compute(scene, command)
            else:
                entry = _run_verify(scene, command)
        except MissingIntegralError as exc:
            raise SceneError([Diagnostic("error", str(exc), *command.pos)]) from None
        if timings:
            entry["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        if entry.get("passed") is False:
            all_passed = False
        entries.append(entry)
    return entries, all_passed


def _error_report(source: str, error: SceneError) -> dict:
    """The report of a scene that failed: a parse error exits 2, any other
    scene error 3."""
    parse = isinstance(error, ParseError)
    return {
        "schema": SCHEMA_VERSION,
        "source": source,
        "status": "parse_error" if parse else "semantic_error",
        "exit_code": EXIT_PARSE_ERROR if parse else EXIT_SEMANTIC_ERROR,
        "diagnostics": [
            {
                "severity": d.severity,
                "message": d.message,
                "line": d.line,
                "column": d.column,
            }
            for d in error.diagnostics
        ],
    }


def evaluate_text(
    text: str,
    source: str,
    *,
    verify_all: bool = False,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    timings: bool = False,
) -> dict:
    """Parse, elaborate and execute one scene; returns the report mapping."""
    try:
        scene = elaborate(parse_program(text), max_denominator=max_denominator)
        entries, all_passed = execute_scene(
            scene, verify_all=verify_all, timings=timings
        )
    except SceneError as exc:
        return _error_report(source, exc)
    return {
        "schema": SCHEMA_VERSION,
        "source": source,
        "status": "ok" if all_passed else "verification_failed",
        "exit_code": EXIT_OK if all_passed else EXIT_VERIFICATION_FAILED,
        "results": entries,
    }


def _entry_text(entry: dict) -> str:
    """One result as a text line, with its timing when it has one."""
    command = entry["command"]
    if command.startswith("compute"):
        target = entry["target"]
        if "value" in entry:
            line = f"{command} {target}: value={entry['value']}"
        else:
            classes = ", ".join(entry["classes"])
            line = (
                f"{command} {target}: rank={entry['rank']} "
                f"cover_order={entry['cover_order']} classes=[{classes}]"
            )
            if "polynomial" in entry:
                line += f" polynomial={entry['polynomial']}"
    elif command == "verify prop1":
        a, b = entry["targets"]
        flags = {
            key: "PASS" if entry[key] else "FAIL"
            for key in ("passed", "whitney", "dual", "tensor")
        }
        line = (
            f"{command} {a} {b}: {flags['passed']} "
            f"whitney={flags['whitney']} dual={flags['dual']} "
            f"tensor={flags['tensor']}"
        )
    else:
        status = "PASS" if entry["passed"] else "FAIL"
        line = (
            f"{command} {entry['target']}: {status} rank={entry['rank']} "
            f"cover_order={entry['cover_order']}"
        )
        if entry.get("residual"):
            line += f" residual=[{', '.join(entry['residual'])}]"
    if "timing_ms" in entry:
        line += f" timing_ms={entry['timing_ms']}"
    return line


def _render_text(report: dict, stdout, stderr):
    print(f"source: {report['source']}", file=stdout)
    for diagnostic in report.get("diagnostics", ()):
        print(
            f"{report['source']}:{diagnostic['line']}:{diagnostic['column']}: "
            f"{diagnostic['severity']}: {diagnostic['message']}",
            file=stderr,
        )
    for entry in report.get("results", ()):
        print(_entry_text(entry), file=stdout)
    for scene_report in report.get("scenes", ()):
        print(f"scene {scene_report['name']} seed={scene_report['seed']}", file=stdout)
        for entry in scene_report.get("results", ()):
            print("  " + _entry_text(entry), file=stdout)
    print(f"status: {report['status']}", file=stdout)


def _render(report: dict, as_json: bool, stdout, stderr):
    if as_json:
        print(json.dumps(report, indent=2), file=stdout)
    else:
        _render_text(report, stdout, stderr)


def _run_random(args, stdout, stderr) -> int:
    # Imported here: a file run never needs the scene generator.
    from .scenegen import random_scene_text

    master = random.Random(args.seed)
    weight_cap = min(12, args.max_denominator)
    scenes = []
    worst = EXIT_OK
    for index in range(args.random):
        scene_seed = master.randrange(1 << 30)
        text = random_scene_text(
            random.Random(scene_seed), weight_denominator_max=weight_cap
        )
        sub = evaluate_text(
            text,
            f"random-{index:04d}",
            verify_all=True,
            max_denominator=args.max_denominator,
            timings=args.timings,
        )
        scenes.append(
            {
                "name": f"random-{index:04d}",
                "seed": scene_seed,
                "status": sub["status"],
                "results": sub.get("results", []),
                "diagnostics": sub.get("diagnostics", []),
            }
        )
        worst = max(worst, sub["exit_code"])
    report = {
        "schema": SCHEMA_VERSION,
        "source": f"random(count={args.random}, seed={args.seed})",
        "status": "ok" if worst == EXIT_OK else "failed",
        "exit_code": worst,
        "scenes": scenes,
    }
    _render(report, args.json, stdout, stderr)
    return worst


@cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="parachern",
        description=(
            "Evaluate a scene file: build the variety model, compute parabolic "
            "Chern data, and run the requested verifications."
        ),
    )
    parser.add_argument(
        "inputs",
        nargs="*",
        help="scene file to evaluate, optionally preceded by the word 'compute'",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--verify-all",
        action="store_true",
        help="append relation and pullback verifications for every parabolic bundle",
    )
    parser.add_argument(
        "--random",
        type=int,
        metavar="COUNT",
        help="generate and verify COUNT random scenes instead of reading a file",
    )
    parser.add_argument("--seed", type=int, help="seed for --random (default 0)")
    parser.add_argument(
        "--max-denominator",
        type=int,
        default=DEFAULT_MAX_DENOMINATOR,
        help="cap on weight and coefficient denominators",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include per-command timings (makes output non-reproducible)",
    )
    return parser


def _read_error(exc: OSError | UnicodeDecodeError) -> Diagnostic:
    """The diagnostic of a scene file that cannot be read; a file that is
    not UTF-8 is positioned at its first bad byte, the column counted in
    characters as the lexer counts it, after a leading byte-order mark."""
    if isinstance(exc, OSError):
        return Diagnostic("error", f"cannot read file: {exc}", 1, 1)
    head = exc.object[: exc.start].removeprefix(codecs.BOM_UTF8)
    line_start = head.rfind(b"\n") + 1
    column = len(head[line_start:].decode("utf-8")) + 1
    message = (
        f"file is not valid UTF-8: {exc.reason} "
        f"(byte {exc.object[exc.start]:#04x})"
    )
    return Diagnostic("error", message, head.count(b"\n") + 1, column)


def run(argv=None, *, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = build_arg_parser().parse_args(argv)
    if args.max_denominator < 1:
        print("error: --max-denominator needs a positive value", file=stderr)
        return EXIT_SEMANTIC_ERROR
    inputs = list(args.inputs)
    if inputs and inputs[0] == "compute":
        inputs = inputs[1:]
    if args.random is not None:
        if args.random < 1:
            print("error: --random needs a positive count", file=stderr)
            return EXIT_SEMANTIC_ERROR
        if inputs:
            print("error: --random takes no scene file", file=stderr)
            return EXIT_SEMANTIC_ERROR
        if args.seed is None:
            args.seed = 0
        return _run_random(args, stdout, stderr)
    if args.seed is not None:
        print("error: --seed needs --random", file=stderr)
        return EXIT_SEMANTIC_ERROR
    if len(inputs) != 1:
        print("error: expected exactly one scene file", file=stderr)
        return EXIT_SEMANTIC_ERROR
    path = Path(inputs[0])
    try:
        # A leading byte-order mark is skipped.  Not "utf-8-sig": through a
        # text stream it reads a file that is only part of a mark as empty.
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        report = _error_report(path.name, SceneError([_read_error(exc)]))
    else:
        report = evaluate_text(
            text,
            path.name,
            verify_all=args.verify_all,
            max_denominator=args.max_denominator,
            timings=args.timings,
        )
    _render(report, args.json, stdout, stderr)
    return report["exit_code"]


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE advises: stdout now points at
        # devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
