import io
import json
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from parachern import bundles
from parachern.bundles import OrdinaryBundleClass
from parachern.cli import evaluate_text, run
from parachern.scenegen import random_scene_text

GOLDEN = Path(__file__).parent / "golden"

WORKED = (
    "variety X dim 2; divisor D1; "
    "parabolic E = O{D1:1/3} (+) O{D1:2/3}; compute chern E;"
)


def run_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_worked_file_text_report(tmp_path):
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED + " verify grothendieck E;")
    code, out, err = run_capture([str(scene)])
    assert code == 0
    assert "compute chern E: rank=2 cover_order=3 classes=[1, D1, 2/9*D1^2]" in out
    assert "verify grothendieck E: PASS" in out
    assert "status: ok" in out
    assert err == ""


def test_compute_keyword_prefix(tmp_path):
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED)
    code, out, _ = run_capture(["compute", str(scene)])
    assert code == 0
    assert "compute chern E" in out


def test_json_and_text_agree(tmp_path):
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED + " verify corollary1 E;")
    code, text_out, _ = run_capture([str(scene)])
    code2, json_out, _ = run_capture([str(scene), "--json"])
    assert code == code2 == 0
    report = json.loads(json_out)
    assert report["schema"] == 1
    chern = report["results"][0]
    assert chern["classes"] == ["1", "D1", "2/9*D1^2"]
    for value in chern["classes"]:
        assert value in text_out
    assert report["results"][1]["passed"] is True


def test_verify_all_appends_checks(tmp_path):
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED)
    code, out, _ = run_capture([str(scene), "--json", "--verify-all"])
    report = json.loads(out)
    commands = [entry["command"] for entry in report["results"]]
    assert commands == ["compute chern", "verify grothendieck", "verify corollary1"]
    assert code == 0


def test_output_is_deterministic(tmp_path):
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED + " verify grothendieck E; verify prop1 E E;")
    first = run_capture([str(scene), "--json", "--verify-all"])
    second = run_capture([str(scene), "--json", "--verify-all"])
    assert first == second


def test_parse_error_exit_code(tmp_path):
    scene = tmp_path / "broken.pch"
    scene.write_text("variety X dim 2; divisor D1; relation D1*D1 = 0")
    code, out, err = run_capture([str(scene)])
    assert code == 2
    assert "broken.pch:1:" in err
    code, out, _ = run_capture([str(scene), "--json"])
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert report["diagnostics"][0]["line"] == 1


def test_semantic_error_exit_code(tmp_path):
    scene = tmp_path / "bad.pch"
    scene.write_text("variety X dim 2; divisor D1; parabolic E = O{Q:1/2};")
    code, _, err = run_capture([str(scene)])
    assert code == 3
    assert "unknown divisor" in err


def test_missing_integral_names_monomial(tmp_path):
    scene = tmp_path / "nodeg.pch"
    scene.write_text(
        "variety X dim 2; divisor D1; parabolic E = O{D1:1/2}; compute degree E;"
    )
    code, out, err = run_capture([str(scene), "--json"])
    report = json.loads(out)
    assert code == 3
    assert report["exit_code"] == 3
    diag = report["diagnostics"][0]
    assert "D1^2" in diag["message"]
    assert diag["line"] >= 1 and diag["column"] >= 1


NON_NORMAL_INTEGRAL = (
    "variety X dim 2;\n"
    "divisor D1, D2;\n"
    "relation D1^2 = D2^2;\n"
    "integral D1^2 = 1;\n"
    "parabolic E = O{D2:1/2};\n"
    "compute degree E;\n"
)


@pytest.mark.parametrize(
    "text",
    [
        NON_NORMAL_INTEGRAL,
        # With integrals on every monomial, D1^2 = D2^2 would still be
        # integrated to two different values.
        NON_NORMAL_INTEGRAL.replace(
            "integral D1^2 = 1;\n",
            "integral D1^2 = 1;\nintegral D2^2 = 5;\nintegral D1*D2 = 0;\n",
        ),
    ],
    ids=["one_integral", "all_integrals"],
)
def test_non_normal_integral_is_rejected(text):
    report = evaluate_text(text, "nonnormal.pch")
    assert report["exit_code"] == 3
    assert report["status"] == "semantic_error"
    assert report["diagnostics"] == [
        {
            "severity": "error",
            "message": "integral monomial D1^2 is not normal; it reduces to D2^2",
            "line": 4,
            "column": 1,
        }
    ]


# Read as rewrite rules in the order written, A*B -> A*C and C*D -> B*D
# would turn A*B*D into A*C*D and back without end.  Read in degree-lex
# order, B*D leads its relation, so B*D -> C*D and A*B*D -> A*C*D.
REWRITE_CYCLE = (
    "variety X dim 3;\n"
    "divisor A, B, C, D;\n"
    "relation A*B = A*C;\n"
    "relation C*D = B*D;\n"
    "parabolic E = O{A:1/2} (+) O{B:1/2} (+) O{D:1/2};\n"
)


@pytest.mark.parametrize(
    "text, verify_all, classes",
    [
        (
            REWRITE_CYCLE + "compute chern E;\n",
            False,
            [
                "1",
                "1/2*A + 1/2*B + 1/2*D",
                "1/4*A*C + 1/4*A*D + 1/4*C*D",
                "1/8*A*C*D",
            ],
        ),
        (REWRITE_CYCLE, True, None),
        # A Chern class is reduced while the scene is elaborated.
        (
            REWRITE_CYCLE
            + "bundle V rank 3 chern 1 + A*B*D;\n"
            + "parabolic F = V{};\n"
            + "compute chern F;\n",
            False,
            ["1", "0", "0", "A*C*D"],
        ),
    ],
    ids=["compute", "verify_all", "chern_class"],
)
def test_rewrite_cycle_scene_is_valid(text, verify_all, classes):
    report = evaluate_text(text, "cycle.pch", verify_all=verify_all)
    assert report["exit_code"] == 0
    assert report["status"] == "ok"
    assert all(entry.get("passed", True) for entry in report["results"])
    computed = [e["classes"] for e in report["results"] if "classes" in e]
    assert computed == ([classes] if classes else [])


# Substituted in the order written, the relations would give (a*a)*b = b^3
# but a*(a*b) = a*c^2, and prop1's Whitney and tensor identities would fail.
NON_CONFLUENT = (
    "variety X dim 3;\n"
    "divisor a, b, c;\n"
    "relation a*b = c^2;\n"
    "relation a^2 = b^2;\n"
    "parabolic E = O{a:1/2} (+) O{b:1/3};\n"
    "parabolic F = O{a:1/3} (+) O{c:1/2};\n"
    "verify prop1 E F;\n"
)


def test_non_confluent_relations_pass_prop1():
    report = evaluate_text(NON_CONFLUENT, "nc.pch", verify_all=True)
    assert report["exit_code"] == 0
    assert report["results"][0]["command"] == "verify prop1"
    assert all(entry["passed"] for entry in report["results"])


def test_relation_above_the_cutoff_does_not_stall_verification():
    # The relation holds identically; the cover must not scale it by 2^e.
    text = (
        "variety X dim 2;\n"
        "divisor D;\n"
        "relation D^1000000000000 = 0;\n"
        "parabolic E = O{D:1/2};\n"
    )
    report = evaluate_text(text, "huge.pch", verify_all=True)
    assert report["exit_code"] == 0
    assert [e["passed"] for e in report["results"]] == [True, True]


def test_unreadable_file():
    code, _, err = run_capture(["/nonexistent/nowhere.pch"])
    assert code == 3
    assert "cannot read file" in err


@pytest.mark.parametrize(
    "data, line, column",
    [
        (b"variety X dim 1;\xff", 1, 17),
        # Columns count characters, as the lexer's do: \xc3\xa9 is one.
        (b"variety X dim 1;\n# \xc3\xa9\n  \xc3\xa9 \xc3(", 3, 5),
    ],
)
def test_file_that_is_not_utf8_is_a_positioned_semantic_error(
    tmp_path, data, line, column
):
    scene = tmp_path / "bad.pch"
    scene.write_bytes(data)
    code, out, err = run_capture([str(scene)])
    assert code == 3
    assert f"bad.pch:{line}:{column}: error: file is not valid UTF-8" in err
    assert "status: semantic_error" in out
    code, out, _ = run_capture(["--json", str(scene)])
    (diagnostic,) = json.loads(out)["diagnostics"]
    assert code == 3
    assert (diagnostic["line"], diagnostic["column"]) == (line, column)


def test_no_input_is_usage_error():
    code, _, err = run_capture([])
    assert code == 3
    assert "scene file" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_max_denominator_rejected(tmp_path, cap):
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED)
    for argv in (["--random", "1"], [str(scene)]):
        code, out, err = run_capture([*argv, "--max-denominator", cap])
        assert code == 3
        assert out == ""
        assert err == "error: --max-denominator needs a positive value\n"


def test_verification_failure_exit_code(tmp_path, monkeypatch):
    # Corrupt the cover character via a test hook: both cover checks must
    # fail with exit code 1, and the relation check must report a residual.
    true_cover_bundle = bundles.cover_bundle

    def corrupted(E, cm):
        good = true_cover_bundle(E, cm)
        ch = good.character + cm.divisor("D1")
        return OrdinaryBundleClass._of(good.rank, ch)

    monkeypatch.setattr(bundles, "cover_bundle", corrupted)
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED + " verify grothendieck E; verify corollary1 E;")
    code, out, _ = run_capture([str(scene), "--json"])
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "verification_failed"
    relation, pullback = report["results"][1:]
    assert relation["passed"] is False
    assert any(c != "0" for c in relation["residual"])
    assert pullback["passed"] is False


def test_timings_flag(tmp_path):
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED)
    _, out, _ = run_capture([str(scene), "--json", "--timings"])
    report = json.loads(out)
    assert "timing_ms" in report["results"][0]
    _, out, _ = run_capture([str(scene), "--json"])
    assert "timing_ms" not in json.dumps(json.loads(out))
    # Text output prints the timing of every result, a file's or a
    # generated scene's, and none by default.
    for argv in ([str(scene)], ["--random", "2", "--seed", "7"]):
        _, out, _ = run_capture(argv + ["--timings"])
        results = [
            line
            for line in out.splitlines()
            if line.lstrip().startswith(("compute", "verify"))
        ]
        assert results
        assert all(" timing_ms=" in line for line in results)
        _, out, _ = run_capture(argv)
        assert "timing_ms" not in out


def test_random_mode_deterministic():
    first = run_capture(["--random", "3", "--seed", "11", "--json"])
    second = run_capture(["--random", "3", "--seed", "11", "--json"])
    assert first == second
    code, out, _ = first
    assert code == 0
    report = json.loads(out)
    assert len(report["scenes"]) == 3
    for scene in report["scenes"]:
        assert scene["status"] == "ok"


def test_random_mode_caps_only_scene_text():
    # Tensor products of the scenes' weights have denominators above 12;
    # the cap bounds what a scene writes, not what is derived from it.
    argv = ["--random", "10", "--seed", "7", "--max-denominator", "12"]
    code, _, err = run_capture(argv)
    assert code == 0
    assert err == ""


def test_prop1_tensor_weights_exceed_the_cap(tmp_path):
    scene = tmp_path / "pair.pch"
    scene.write_text(
        "variety X dim 2; divisor D; parabolic E = O{D:1/5}; "
        "parabolic F = O{D:1/6}; verify prop1 E F;"
    )
    code, out, err = run_capture([str(scene), "--json", "--max-denominator", "6"])
    assert (code, err) == (0, "")
    entry = json.loads(out)["results"][0]
    assert entry["tensor"] is True
    assert entry["passed"] is True


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**30 - 1),
    weight_denominator_max=st.integers(2, 12),
    cap=st.integers(1, 12),
)
def test_no_scene_raises_out_of_evaluate_text(seed, weight_denominator_max, cap):
    # Weights fall on both sides of the cap: a scene within it passes every
    # verification, and one beyond it gets a diagnostic.
    text = random_scene_text(
        random.Random(seed), weight_denominator_max=weight_denominator_max
    )
    report = evaluate_text(text, "p", verify_all=True, max_denominator=cap)
    assert report["exit_code"] in (0, 3)
    if report["exit_code"] == 3:
        assert "denominator exceeds the cap" in report["diagnostics"][0]["message"]


def test_random_mode_respects_seed():
    _, a, _ = run_capture(["--random", "2", "--seed", "1", "--json"])
    _, b, _ = run_capture(["--random", "2", "--seed", "2", "--json"])
    assert a != b


def test_random_mode_rejects_a_scene_file(tmp_path):
    # A scene file next to --random is an error, as it is without it; it
    # is never silently dropped.
    scene = tmp_path / "worked.pch"
    scene.write_text(WORKED)
    for inputs in ([str(scene)], ["compute", str(scene)], ["."]):
        code, out, err = run_capture(["--random", "1", "--seed", "3", *inputs])
        assert (code, out) == (3, "")
        assert err == "error: --random takes no scene file\n"


def test_evaluate_text_report_shape():
    report = evaluate_text(WORKED, "inline.pch", verify_all=True)
    assert report["schema"] == 1
    assert report["source"] == "inline.pch"
    assert report["status"] == "ok"


# --- golden corpus -----------------------------------------------------------


VALID_SCENES = sorted((GOLDEN / "valid").glob("*.pch"))
INVALID_SCENES = sorted((GOLDEN / "invalid").glob("*.pch"))


def test_corpus_is_large_enough():
    assert len(VALID_SCENES) >= 10
    assert len(INVALID_SCENES) >= 10


@pytest.mark.parametrize("scene", VALID_SCENES, ids=lambda p: p.stem)
def test_valid_corpus_reproduces_golden_reports(scene):
    expected = scene.with_suffix(".expected.json").read_text(encoding="utf-8")
    code, out, err = run_capture([str(scene), "--json", "--verify-all"])
    assert code == 0
    assert err == ""
    assert out == expected  # byte-identical


@pytest.mark.parametrize("scene", INVALID_SCENES, ids=lambda p: p.stem)
def test_invalid_corpus_diagnostics(scene):
    expected = scene.with_suffix(".expected.json").read_text(encoding="utf-8")
    code, out, _ = run_capture([str(scene), "--json"])
    assert code in (2, 3)
    assert out == expected  # byte-identical
    report = json.loads(out)
    assert report["exit_code"] == code
    diagnostics = report["diagnostics"]
    assert diagnostics
    for diag in diagnostics:
        assert diag["line"] >= 1
        assert diag["column"] >= 1
        assert diag["severity"] == "error"
