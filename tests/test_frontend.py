import io
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from parachern.bundles import OrdinaryBundleClass, ParabolicBundle
from parachern.chow import integrate
from parachern.cli import evaluate_text, execute_scene, run
from parachern.frontend import (
    BundleDecl,
    ClassDecl,
    CommandDecl,
    Diagnostic,
    ElaborationError,
    ParabolicDecl,
    ParseError,
    VarietyDecl,
    _lex,
    elaborate,
    format_program,
    parse_program,
)
from parachern.rings import Record
from parachern.scenegen import random_scene_text

GOLDEN = Path(__file__).parent / "golden"

WORKED = (
    "variety X dim 2; divisor D1; "
    "parabolic E = O{D1:1/3} (+) O{D1:2/3}; compute chern E;"
)


# --- parsing -----------------------------------------------------------------


def test_parse_single_line_program():
    ast = parse_program(WORKED)
    assert len(ast.statements) == 4
    assert isinstance(ast.statements[0], VarietyDecl)
    assert ast.statements[0].dim == 2
    parab = ast.statements[2]
    assert isinstance(parab, ParabolicDecl)
    assert len(parab.summands) == 2
    assert parab.summands[0].weights[0].value == Fraction(1, 3)
    cmd = ast.statements[3]
    assert isinstance(cmd, CommandDecl)
    assert (cmd.action, cmd.kind, cmd.names) == ("compute", "chern", ("E",))


def test_parse_positions_and_comments():
    text = "# a comment\nvariety X dim 1;\ndivisor p;\n"
    ast = parse_program(text)
    assert ast.statements[0].pos == (2, 1)
    assert ast.statements[1].pos == (3, 1)


def test_parse_bundle_poly():
    ast = parse_program("variety X dim 2; divisor D1; bundle V rank 2 chern 1 + 2*D1 - D1^2;")
    bundle = ast.statements[2]
    assert isinstance(bundle, BundleDecl)
    coeffs = [t.coeff for t in bundle.chern]
    assert coeffs == [Fraction(1), Fraction(2), Fraction(-1)]


def test_parse_missing_semicolon():
    with pytest.raises(ParseError) as err:
        parse_program("variety X dim 2; divisor D1, D2; relation D1*D2 = 0")
    diag = err.value.diagnostics[0]
    assert "';'" in diag.message
    assert diag.line == 1 and diag.column >= 1


def test_parse_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_program("variety X dim $2;")
    assert err.value.diagnostics[0].column == 15


@pytest.mark.parametrize("digit", ["²", "³", "①", "٣"])
@pytest.mark.parametrize(
    "text, line, column",
    [
        ("variety X dim {};", 1, 15),
        ("variety X dim 2;\ndivisor D;\nbundle V rank 1 chern 1 + {}*D;", 3, 27),
        ("variety X dim 2{};", 1, 16),
    ],
)
def test_non_ascii_digit_is_an_unexpected_character(digit, text, line, column):
    # Int tokens are ASCII 0-9 only, whether or not int() reads the digit.
    report = evaluate_text(text.format(digit), "digit.pch")
    assert report["exit_code"] == 2
    [diag] = report["diagnostics"]
    assert diag["message"] == f"unexpected character {digit!r}"
    assert (diag["line"], diag["column"]) == (line, column)


def reference_lex(text):
    """The token stream of a plain character-by-character lexer, as
    (kind, text, line, column) tuples, or the (message, line, column) of
    its error."""
    tokens = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch in " \t\r":
            i, col = i + 1, col + 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isalpha() or ch == "_" or "0" <= ch <= "9":
            j = i + 1
            if "0" <= ch <= "9":
                while j < n and "0" <= text[j] <= "9":
                    j += 1
            else:
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            kind = "int" if "0" <= ch <= "9" else "name"
            tokens.append((kind, text[i:j], line, col))
            i, col = j, col + j - i
        elif text.startswith("(+)", i):
            tokens.append(("punct", "(+)", line, col))
            i, col = i + 3, col + 3
        elif ch in ";,^*+-=/{}:()":
            tokens.append(("punct", ch, line, col))
            i, col = i + 1, col + 1
        else:
            return (f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def lexed(text):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in _lex(text)]
    except ParseError as exc:
        [diag] = exc.diagnostics
        return (diag.message, diag.line, diag.column)


def test_lexer_matches_reference_on_scenes():
    texts = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN.rglob("*.pch"))]
    texts += [random_scene_text(random.Random(seed)) for seed in range(100)]
    for text in texts:
        assert lexed(text) == reference_lex(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        # A comment does not advance the column.
        (
            "variety X dim 2 # c",
            [
                ("name", "variety", 1, 1),
                ("name", "X", 1, 9),
                ("name", "dim", 1, 11),
                ("int", "2", 1, 15),
                ("eof", "", 1, 17),
            ],
        ),
        # A name continues with isalnum() or '_'.
        (
            "a² b٣ _x1",
            [("name", "a²", 1, 1), ("name", "b٣", 1, 4), ("name", "_x1", 1, 7)]
            + [("eof", "", 1, 10)],
        ),
        (
            "(+)( + )",
            [("punct", "(+)", 1, 1), ("punct", "(", 1, 4), ("punct", "+", 1, 6)]
            + [("punct", ")", 1, 8), ("eof", "", 1, 9)],
        ),
        ("12ab", [("int", "12", 1, 1), ("name", "ab", 1, 3), ("eof", "", 1, 5)]),
        ("x \t\r\n  ", [("name", "x", 1, 1), ("eof", "", 2, 3)]),
        # A name starts with isalpha() or '_'; ints are ASCII 0-9 only.
        ("x ²", ("unexpected character '²'", 1, 3)),
        ("①", ("unexpected character '①'", 1, 1)),
        ("٣x", ("unexpected character '٣'", 1, 1)),
        ("a\x0bb", ("unexpected character '\\x0b'", 1, 2)),
        ("a\xa0b", ("unexpected character '\\xa0'", 1, 2)),
    ],
)
def test_lexer_edge_cases(text, expected):
    assert lexed(text) == expected == reference_lex(text)


@given(st.text(alphabet="aZé_09²①٣ \t\r\n#;,^*+-=/{}:().$\x0b", max_size=40))
def test_lexer_matches_reference_on_any_text(text):
    assert lexed(text) == reference_lex(text)


def test_parse_zero_denominator():
    with pytest.raises(ParseError) as err:
        parse_program("variety X dim 1; divisor p; parabolic E = O{p:1/0};")
    assert "denominator" in err.value.diagnostics[0].message


def test_parse_unknown_statement():
    with pytest.raises(ParseError) as err:
        parse_program("varietty X dim 2;")
    diag = err.value.diagnostics[0]
    assert "statement keyword" in diag.message
    assert (diag.line, diag.column) == (1, 1)


def test_parse_verify_forms():
    ast = parse_program(
        "variety X dim 1; divisor p; parabolic E = O{}; parabolic F = O{}; "
        "verify grothendieck E; verify corollary1 F; verify prop1 E F;"
    )
    kinds = [
        (s.kind, s.names) for s in ast.statements if isinstance(s, CommandDecl)
    ]
    assert kinds == [
        ("grothendieck", ("E",)),
        ("corollary1", ("F",)),
        ("prop1", ("E", "F")),
    ]


ARITY_PREFIX = "variety X dim 1;\ndivisor p;\nparabolic E = O{p:1/2};\n"


@pytest.mark.parametrize(
    "command, message, position",
    [
        ("compute chern E E;", "expected ';' after the command", (4, 17)),
        ("verify grothendieck E E;", "expected ';' after the command", (4, 23)),
        ("verify prop1 E;", "expected a name after 'verify prop1'", (4, 15)),
        ("verify prop1 E E E;", "expected ';' after the command", (4, 18)),
        (
            "verify grothendieck;",
            "expected a name after 'verify grothendieck'",
            (4, 20),
        ),
        ("verify prop1 E E E E;", "expected ';' after the command", (4, 18)),
    ],
)
def test_wrong_name_count_is_a_parse_error(tmp_path, command, message, position):
    text = ARITY_PREFIX + command + "\n"
    with pytest.raises(ParseError) as err:
        parse_program(text)
    diag = err.value.diagnostics[0]
    assert diag.message == message
    assert (diag.line, diag.column) == position
    scene = tmp_path / "arity.pch"
    scene.write_text(text)
    out, errs = io.StringIO(), io.StringIO()
    assert run([str(scene)], stdout=out, stderr=errs) == 2
    assert f"arity.pch:{position[0]}:{position[1]}: error: {message}" in errs.getvalue()


# --- printing ----------------------------------------------------------------


def test_print_round_trip_worked():
    ast = parse_program(WORKED)
    assert parse_program(format_program(ast)) == ast


def test_print_round_trip_random():
    for seed in range(25):
        text = random_scene_text(random.Random(seed))
        ast = parse_program(text)
        assert parse_program(format_program(ast)) == ast


def test_print_round_trip_signs_and_rationals():
    for text in (
        "variety X dim 2;\ndivisor D1;\nrelation D1^2 = 0;\n"
        "bundle V rank 2 chern 1 - 1/2*D1 + 0;\n",
        "variety X dim 2;\ndivisor D1;\nbundle V rank 1 chern 1 + 0*D1;\n",
    ):
        ast = parse_program(text)
        assert format_program(ast) == text
        assert parse_program(format_program(ast)) == ast


NEGATIVE_INTEGRAL = (
    "variety X dim 2;\ndivisor D1, E;\n"
    "integral D1^2 = 1;\nintegral E^2 = -1;\nintegral D1*E = 0;\n"
    "parabolic P = O{E:1/2};\ncompute degree P;\n"
)


def test_negative_integral():
    # E is an exceptional curve, E^2 = -1; ch(P) = exp(E/2) has degree E^2/8.
    ast = parse_program(NEGATIVE_INTEGRAL)
    assert ast.statements[3].value == -1
    assert parse_program(format_program(ast)) == ast
    report = evaluate_text(NEGATIVE_INTEGRAL, "inline.pch")
    assert report["status"] == "ok"
    assert report["results"][0]["value"] == "-1/8"
    # The sign is allowed on the integral value only, not on a weight.
    with pytest.raises(ParseError) as err:
        parse_program("variety X dim 1; divisor p; parabolic P = O{p:-1/2};")
    assert err.value.diagnostics[0].message == "expected an integer in a rational"


# --- records -----------------------------------------------------------------

EVERY_STATEMENT = (
    "variety X dim 2;\ndivisor D1, D2;\nclass H deg 1;\n"
    "relation D1*D2 = 1/2*H^2;\nintegral H^2 = 1;\n"
    "bundle V rank 2 chern 1 + H;\n"
    "parabolic E = V{D1:1/3, D2:1/2} (+) O{};\ncompute chern E;\n"
)


def _records(value):
    """Every record in a parsed value, the value itself first."""
    if isinstance(value, tuple):
        for item in value:
            yield from _records(item)
    elif isinstance(value, Record):
        yield value
        for name in value.__slots__:
            yield from _records(getattr(value, name))


def _every_record():
    return [*_records(parse_program(EVERY_STATEMENT)), Diagnostic("error", "m", 1, 2)]


def _rebuilt(record, **changes):
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def test_every_frontend_record_is_covered():
    names = {type(r).__name__ for r in _every_record()}
    assert names == {
        "SceneAST", "VarietyDecl", "DivisorDecl", "ClassDecl", "RelationDecl",
        "MonoFactor", "PolyTerm", "IntegralDecl", "BundleDecl", "ParabolicDecl",
        "SummandAST", "WeightEntry", "CommandDecl", "Diagnostic",
    }


def test_records_equal_up_to_position():
    for record in _every_record():
        if "pos" not in record.__slots__:
            continue
        moved = _rebuilt(record, pos=(99, 99))
        assert moved == record and hash(moved) == hash(record)
        assert moved.pos != record.pos


def test_records_differ_in_every_other_field():
    for record in _every_record():
        assert _rebuilt(record) == record
        for name in record.__slots__:
            if name != "pos":
                assert _rebuilt(record, **{name: object()}) != record, name
    # Equal fields in records of different classes do not make them equal.
    assert VarietyDecl("X", 2, (1, 1)) != ClassDecl("X", 2, (1, 1))


def test_records_are_immutable():
    for record in _every_record():
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None


# --- elaboration -------------------------------------------------------------


def test_elaborate_worked_scene():
    scene = elaborate(parse_program(WORKED))
    assert scene.variety.dim == 2
    E = scene.parabolics["E"]
    assert E.rank == 2
    assert E.order == 3
    assert len(scene.commands) == 1


def test_elaborate_chern_class_with_repeated_and_non_normal_monomials():
    # D1*D2 leads the relation D1*D2 = H^2; D1^2*D2^2 lies above the cutoff.
    text = (
        "variety X dim 3; divisor D1, D2; class H deg 1; relation D1*D2 = H^2;"
        "bundle V rank 3 chern 1 + D1 + 2*D1 - H + D1*D2 + 1/2*D2*D1 - D2^2"
        " + D1*D1*H + 7*D1^2*D2^2;"
        "parabolic F = V{D1:1/2};"
    )
    scene = elaborate(parse_program(text))
    ring = scene.variety.ring
    d1, d2, h = (ring.generator(n) for n in ("D1", "D2", "H"))
    chern = 1 + 3 * d1 - h + Fraction(3, 2) * h ** 2 - d2 ** 2 + d1 ** 2 * h
    by_hand = ParabolicBundle(
        scene.variety, ((OrdinaryBundleClass(3, chern), {"D1": Fraction(1, 2)}),)
    )
    assert scene.parabolics["F"].classes == by_hand.classes
    assert scene.parabolics["F"].character == by_hand.character


# The Grassmannian G(2,4) of lines in P^3 (Eisenbud-Harris, "3264 and All
# That", ch. 4): the Schubert class S1 is a divisor, S2 and S11 have degree
# 2, and S11^2 is the class of a point.
GRASSMANNIAN = (
    "variety G dim 4; divisor S1; class S2 deg 2; class S11 deg 2;"
    "relation S1^2 = S2 + S11; relation S1*S2 = S1*S11;"
    "relation S2*S11 = 0; relation S2^2 = S11^2; integral S11^2 = 1;"
    "bundle Q rank 2 chern 1 + S1 + S2; parabolic E = Q{S1:1/2};"
    "verify grothendieck E; verify corollary1 E;"
)


def test_grassmannian_scene_gives_hand_derived_values():
    scene = elaborate(parse_program(GRASSMANNIAN))
    ring = scene.variety.ring
    s1, s2, s11 = (ring.generator(n) for n in ("S1", "S2", "S11"))
    # Degree 2: S1^2 leads its relation, so S2 and S11 stay.  Degree 3:
    # S1^3 and S1*S2 lead, so S1*S11 stays.  Degree 4: six monomials and
    # five independent rows leave S11^2.
    assert [len(ring.basis_monomials(k)) for k in range(5)] == [1, 1, 2, 1, 1]
    # S1^4 = S1^2*S2 + S1^2*S11 = (S2^2 + S2*S11) + (S2*S11 + S11^2)
    #      = 2*S11^2.
    assert s1 ** 4 == 2 * s11 ** 2
    assert integrate(scene.variety, s1 ** 4) == 2
    # The weight 1/2 on S1 twists Q by l = S1/2: c_1 = c_1(Q) + 2l = 2*S1
    # and c_2 = c_2(Q) + c_1(Q)*l + l^2 = S2 + 3/4*(S2 + S11).
    E = scene.parabolics["E"]
    c2 = Fraction(7, 4) * s2 + Fraction(3, 4) * s11
    assert E.classes == (ring.one(), 2 * s1, c2)
    entries, all_passed = execute_scene(scene)
    assert [entry["passed"] for entry in entries] == [True, True]
    assert all_passed


TORIC_PLANE = (
    "variety P dim 2; divisor D1, D2, D3; relation D2 = D1; relation D3 = D1;"
    "integral D3^2 = 1; bundle T rank 2 chern 1 + 3*D3 + 3*D3^2;"
    "parabolic E = T{D1:1/2} (+) O{D2:1/3, D3:2/3};"
    "compute chern E; compute degree E; verify grothendieck E; verify corollary1 E;"
)


def test_toric_plane_scene_gives_hand_derived_values():
    # The toric P^2 (Fulton, Introduction to Toric Varieties, 5.2): the
    # boundary lines are linearly equivalent, so each reduces to D3 = H, the
    # degree-lex least, in one block of two linear rows.
    scene = elaborate(parse_program(TORIC_PLANE))
    ring = scene.variety.ring
    h = ring.generator("D3")
    assert ring.generator("D1") == ring.generator("D2") == h
    assert [ring.basis_monomials(k) for k in range(3)] == [
        [(0, 0, 0)],
        [(0, 0, 1)],
        [(0, 0, 2)],
    ]
    # T has roots a, b with a + b = 3H and a*b = 3H^2; the weight 1/2 on D1
    # makes them a + H/2, b + H/2, and O{D2:1/3, D3:2/3} adds the root H.
    # c_1 = 3H + H + H = 5H;
    # c_2 = (a + H/2)(b + H/2) + H(a + b + H)
    #     = 3H^2 + 3/2 H^2 + 1/4 H^2 + 4H^2 = 35/4 H^2;
    # degree = integral of ch_2 = (c_1^2 - 2 c_2) / 2 = (25 - 35/2) / 2 = 15/4.
    E = scene.parabolics["E"]
    assert E.classes == (ring.one(), 5 * h, Fraction(35, 4) * h ** 2, ring.zero())
    entries, all_passed = execute_scene(scene)
    assert entries[0]["classes"] == ["1", "5*D3", "35/4*D3^2", "0"]
    assert entries[1]["value"] == "15/4"
    assert [entry["passed"] for entry in entries[2:]] == [True, True]
    assert all_passed


def test_elaborate_weight_out_of_range():
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_program("variety X dim 2; divisor D1; parabolic E = O{D1:3/2};"))
    diag = err.value.diagnostics[0]
    assert diag.message == "weight must lie in [0,1)"
    # position of the weight value 3/2
    assert (diag.line, diag.column) == (1, 49)


def test_elaborate_unknown_divisor_weight():
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_program("variety X dim 2; divisor D1; parabolic E = O{Q:1/2};"))
    assert "unknown divisor 'Q'" in err.value.diagnostics[0].message


def test_elaborate_chern_part_above_rank():
    with pytest.raises(ElaborationError) as err:
        elaborate(
            parse_program(
                "variety X dim 2; divisor D1; bundle V rank 1 chern 1 + D1 + D1^2;"
            )
        )
    assert "rank" in err.value.diagnostics[0].message


def test_elaborate_chern_degree_zero_part():
    with pytest.raises(ElaborationError):
        elaborate(
            parse_program("variety X dim 2; divisor D1; bundle V rank 1 chern 2 + D1;")
        )


def test_elaborate_duplicate_and_missing_names():
    with pytest.raises(ElaborationError):
        elaborate(
            parse_program(
                "variety X dim 1; divisor p; bundle V rank 1 chern 1; "
                "bundle V rank 1 chern 1;"
            )
        )
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_program("variety X dim 1; divisor p; compute chern E;"))
    assert "unknown parabolic" in err.value.diagnostics[0].message


def test_elaborate_requires_one_variety():
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_program("divisor D1;"))
    assert err.value.diagnostics[0].message == "missing variety declaration"
    with pytest.raises(ElaborationError):
        elaborate(parse_program("variety X dim 1; variety Y dim 2; divisor p;"))


def test_elaborate_inhomogeneous_relation():
    with pytest.raises(ElaborationError) as err:
        elaborate(
            parse_program("variety X dim 2; divisor D1, D2; relation D1*D2 = D1;")
        )
    assert "homogeneous" in err.value.diagnostics[0].message


def test_elaborate_integral_degree():
    with pytest.raises(ElaborationError):
        elaborate(parse_program("variety X dim 2; divisor D1; integral D1 = 1;"))


def test_elaborate_declaration_before_use():
    with pytest.raises(ElaborationError):
        elaborate(
            parse_program("variety X dim 2; relation D1^2 = 0; divisor D1;")
        )


def test_elaborate_weight_denominator_cap():
    program = "variety X dim 1; divisor p; parabolic E = O{p:1/7};"
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_program(program), max_denominator=5)
    diag = err.value.diagnostics[0]
    assert diag.message == "weight denominator exceeds the cap 5"
    # position of the weight value 1/7
    assert (diag.line, diag.column) == (1, 47)
    elaborate(parse_program(program), max_denominator=7)


@pytest.mark.parametrize(
    "text, message, position",
    [
        (
            "variety X dim 2;\n"
            "divisor D1;\n"
            "parabolic E = O{D1:1/3, D1:1/2};\n"
            "compute chern E;\n",
            "duplicate weight for divisor 'D1'",
            (3, 28),
        ),
        (
            "variety X dim 2;\n"
            "divisor D1;\n"
            "integral D1^2 = 1;\n"
            "integral D1*D1 = 2;\n"
            "parabolic E = O{D1:1/2};\n"
            "compute degree E;\n",
            "duplicate integral for monomial D1*D1",
            (4, 1),
        ),
        (
            "variety X dim 2;\n"
            "divisor D1, D2;\n"
            "integral D1*D1 = 2;\n"
            "integral D2^0*D1^2 = 1;\n",
            "duplicate integral for monomial D2^0*D1^2",
            (4, 1),
        ),
        (
            "variety X dim 0;\ndivisor D1;\n",
            "variety dimension must be at least 1",
            (1, 1),
        ),
        (
            "variety X dim 2;\ndivisor D1;\nclass H deg 0;\n",
            "class degree must be at least 1",
            (3, 1),
        ),
        (
            "variety X dim 2;\ndivisor D1;\nbundle V rank 0 chern 1;\n",
            "bundle rank must be at least 1",
            (3, 1),
        ),
        (
            "variety X dim 2;\ndivisor D1;\nintegral D1 = 1;\n",
            "integral monomial must have degree 2",
            (3, 1),
        ),
        (
            # The zero-coefficient term is skipped; the position is the
            # second term's.
            "variety X dim 2;\ndivisor D1;\nrelation D1^2 = 0*D1 + 3*D1;\n",
            "relation is not degree-homogeneous",
            (3, 24),
        ),
        (
            "variety X dim 1;\n"
            "divisor p;\n"
            "integral p = 1;\n"
            "bundle O rank 1 chern 1 + p;\n"
            "parabolic E = O{};\n"
            "compute chern E;\n",
            "name 'O' is reserved for the trivial line bundle",
            (4, 1),
        ),
    ],
)
def test_elaborate_rejects_duplicate_declarations(tmp_path, text, message, position):
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_program(text))
    diag = err.value.diagnostics[0]
    assert diag.message == message
    assert (diag.line, diag.column) == position
    scene = tmp_path / "dup.pch"
    scene.write_text(text)
    out, errs = io.StringIO(), io.StringIO()
    assert run([str(scene)], stdout=out, stderr=errs) == 3
    assert f"dup.pch:{position[0]}:{position[1]}: error: {message}" in errs.getvalue()


def test_diagnostics_are_positioned():
    bad_programs = [
        "variety X dim 2; divisor D1; parabolic E = O{D1:9/2};",
        "variety X; divisor D1;",
        "bundle V rank 1;",
        "variety X dim 2; compute chern;",
    ]
    for text in bad_programs:
        try:
            elaborate(parse_program(text))
            raised = False
        except (ParseError, ElaborationError) as exc:
            raised = True
            for diag in exc.diagnostics:
                assert diag.line >= 1 and diag.column >= 1
        assert raised
