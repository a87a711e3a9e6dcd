"""Scene language: lexer, parser, pretty printer and elaborator.

A scene file (UTF-8, extension .pch, `#` line comments) declares one
variety, its divisors, extra classes, relations, integrals, bundle classes
and parabolic bundles, followed by compute / verify commands.  Parsing
produces a positioned AST; elaboration produces the variety model and the
object tables.  Every failure carries a Diagnostic with line and column.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .bundles import OrdinaryBundleClass, ParabolicBundle, trivial_line
from .chow import Variety
from .rings import Factors, InputError, Record, format_monomial, format_terms

# Command kinds by action, each with the number of names it takes.
COMMANDS = {
    "compute": {"chern": 1, "ch": 1, "ctpoly": 1, "degree": 1},
    "verify": {"grothendieck": 1, "prop1": 2, "corollary1": 1},
}
# Cap on the denominator of every rational written in a scene.
DEFAULT_MAX_DENOMINATOR = 10**6
STATEMENT_KEYWORDS = (
    "variety",
    "divisor",
    "class",
    "relation",
    "integral",
    "bundle",
    "parabolic",
    "compute",
    "verify",
)

Pos = tuple[int, int]

# Records assign their fields through this; assignment on one raises.
_set = object.__setattr__


class Diagnostic(Record):
    __slots__ = ("severity", "message", "line", "column")

    def __init__(self, severity: str, message: str, line: int, column: int):
        _set(self, "severity", severity)
        _set(self, "message", message)
        _set(self, "line", line)
        _set(self, "column", column)

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class SceneError(Exception):
    """Carries one or more positioned diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class ParseError(SceneError):
    pass


class ElaborationError(SceneError):
    pass


# ---------------------------------------------------------------------------
# AST
#
# Immutable records; equality and hashing ignore ``pos``, so a node compares
# equal to the node parsed back from its printed text.


class MonoFactor(Record):
    __slots__ = ("name", "exponent", "pos")

    def __init__(self, name: str, exponent: int, pos: Pos):
        _set(self, "name", name)
        _set(self, "exponent", exponent)
        _set(self, "pos", pos)


MonoAST = tuple[MonoFactor, ...]


class PolyTerm(Record):
    __slots__ = ("coeff", "factors", "pos")

    def __init__(self, coeff: Fraction, factors: MonoAST, pos: Pos):
        _set(self, "coeff", coeff)
        _set(self, "factors", factors)
        _set(self, "pos", pos)


PolyAST = tuple[PolyTerm, ...]


class WeightEntry(Record):
    __slots__ = ("divisor", "value", "pos")

    def __init__(self, divisor: str, value: Fraction, pos: Pos):
        _set(self, "divisor", divisor)
        _set(self, "value", value)
        _set(self, "pos", pos)


class SummandAST(Record):
    __slots__ = ("bundle", "weights", "pos")

    def __init__(self, bundle: str, weights: tuple[WeightEntry, ...], pos: Pos):
        _set(self, "bundle", bundle)
        _set(self, "weights", weights)
        _set(self, "pos", pos)


class VarietyDecl(Record):
    __slots__ = ("name", "dim", "pos")

    def __init__(self, name: str, dim: int, pos: Pos):
        _set(self, "name", name)
        _set(self, "dim", dim)
        _set(self, "pos", pos)


class DivisorDecl(Record):
    __slots__ = ("names", "pos")

    def __init__(self, names: tuple[str, ...], pos: Pos):
        _set(self, "names", names)
        _set(self, "pos", pos)


class ClassDecl(Record):
    __slots__ = ("name", "degree", "pos")

    def __init__(self, name: str, degree: int, pos: Pos):
        _set(self, "name", name)
        _set(self, "degree", degree)
        _set(self, "pos", pos)


class RelationDecl(Record):
    __slots__ = ("lhs", "rhs", "pos")

    def __init__(self, lhs: MonoAST, rhs: PolyAST, pos: Pos):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "pos", pos)


class IntegralDecl(Record):
    __slots__ = ("mono", "value", "pos")

    def __init__(self, mono: MonoAST, value: Fraction, pos: Pos):
        _set(self, "mono", mono)
        _set(self, "value", value)
        _set(self, "pos", pos)


class BundleDecl(Record):
    __slots__ = ("name", "rank", "chern", "pos")

    def __init__(self, name: str, rank: int, chern: PolyAST, pos: Pos):
        _set(self, "name", name)
        _set(self, "rank", rank)
        _set(self, "chern", chern)
        _set(self, "pos", pos)


class ParabolicDecl(Record):
    __slots__ = ("name", "summands", "pos")

    def __init__(self, name: str, summands: tuple[SummandAST, ...], pos: Pos):
        _set(self, "name", name)
        _set(self, "summands", summands)
        _set(self, "pos", pos)


class CommandDecl(Record):
    __slots__ = ("action", "kind", "names", "pos")

    def __init__(self, action: str, kind: str, names: tuple[str, ...], pos: Pos):
        _set(self, "action", action)
        _set(self, "kind", kind)
        _set(self, "names", names)
        _set(self, "pos", pos)


Statement = (
    VarietyDecl
    | DivisorDecl
    | ClassDecl
    | RelationDecl
    | IntegralDecl
    | BundleDecl
    | ParabolicDecl
    | CommandDecl
)


class SceneAST(Record):
    __slots__ = ("statements",)

    def __init__(self, statements: tuple[Statement, ...]):
        _set(self, "statements", statements)


# ---------------------------------------------------------------------------
# Lexer


class Token:
    """One lexeme: its kind ("name" | "int" | "punct" | "eof"), its text
    and where it starts."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    @property
    def pos(self) -> Pos:
        return (self.line, self.column)


# One match per lexeme, the blanks before it included; groups by index:
# 1 newline, 2 comment, 3 int, 4 word, 5 punctuation, 6 any other
# non-blank character.  Ints are ASCII digits only: int() takes some other
# digits ('٣') but not all ('²').  ``\w`` is exactly ``isalnum()`` or
# ``_``; a word is a name only if it starts with ``isalpha()`` or ``_``.
# No group matches a blank, so trailing blanks make no match.
_LEXEME = re.compile(
    r"[ \t\r]*(?:(\n)|(#[^\n]*)|([0-9]+)|(\w+)|(\(\+\)|[;,^*+\-=/{}:()])|([^ \t\r\n]))"
)
_KINDS = (None, None, None, "int", "name", "punct")


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        group = match.lastindex
        if group == 1:
            line += 1
            line_start = match.end()
        elif group > 2:
            lexeme = match.group(group)
            column = match.start(group) - line_start + 1
            if group == 6 or (
                group == 4 and not (lexeme[0].isalpha() or lexeme[0] == "_")
            ):
                message = f"unexpected character {lexeme[0]!r}"
                raise ParseError([Diagnostic("error", message, line, column)])
            tokens.append(Token(_KINDS[group], lexeme, line, column))
    # A comment does not advance the column: eof sits where a comment that
    # ends the text starts.  The first '#' on a line starts its comment.
    comment = text.find("#", line_start)
    end = len(text) if comment < 0 else comment
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0

    # The cursor indexes the token list directly: it never moves past eof.
    def _peek(self) -> Token:
        return self._tokens[self._i]

    def _advance(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != "eof":
            self._i += 1
        return tok

    def _fail(self, message: str, tok: Token):
        raise ParseError([Diagnostic("error", message, tok.line, tok.column)])

    def _expect_punct(self, symbol: str, context: str) -> Token:
        tok = self._peek()
        if tok.kind != "punct" or tok.text != symbol:
            self._fail(f"expected '{symbol}' {context}", tok)
        return self._advance()

    def _expect_name(self, context: str) -> Token:
        tok = self._peek()
        if tok.kind != "name":
            self._fail(f"expected a name {context}", tok)
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        tok = self._peek()
        if tok.kind != "name" or tok.text != word:
            self._fail(f"expected '{word}'", tok)
        return self._advance()

    def _expect_int(self, context: str) -> int:
        tok = self._peek()
        if tok.kind != "int":
            self._fail(f"expected an integer {context}", tok)
        self._advance()
        return int(tok.text)

    def _at_punct(self, symbol: str) -> bool:
        tok = self._peek()
        return tok.kind == "punct" and tok.text == symbol

    def parse(self) -> SceneAST:
        statements = []
        while self._peek().kind != "eof":
            statements.append(self._statement())
        return SceneAST(tuple(statements))

    def _statement(self) -> Statement:
        tok = self._peek()
        if tok.kind != "name" or tok.text not in STATEMENT_KEYWORDS:
            self._fail(
                "expected a statement keyword "
                "(variety, divisor, class, relation, integral, bundle, "
                "parabolic, compute, verify)",
                tok,
            )
        handler = getattr(self, f"_parse_{tok.text}")
        return handler(self._advance())

    def _parse_variety(self, kw: Token) -> VarietyDecl:
        name = self._expect_name("after 'variety'")
        self._expect_keyword("dim")
        dim = self._expect_int("after 'dim'")
        self._expect_punct(";", "after the variety declaration")
        return VarietyDecl(name.text, dim, kw.pos)

    def _parse_divisor(self, kw: Token) -> DivisorDecl:
        names = [self._expect_name("after 'divisor'").text]
        while self._at_punct(","):
            self._advance()
            names.append(self._expect_name("after ','").text)
        self._expect_punct(";", "after the divisor declaration")
        return DivisorDecl(tuple(names), kw.pos)

    def _parse_class(self, kw: Token) -> ClassDecl:
        name = self._expect_name("after 'class'")
        self._expect_keyword("deg")
        degree = self._expect_int("after 'deg'")
        self._expect_punct(";", "after the class declaration")
        return ClassDecl(name.text, degree, kw.pos)

    def _parse_relation(self, kw: Token) -> RelationDecl:
        lhs = self._mono()
        self._expect_punct("=", "in the relation")
        rhs = self._poly()
        self._expect_punct(";", "after the relation")
        return RelationDecl(lhs, rhs, kw.pos)

    def _parse_integral(self, kw: Token) -> IntegralDecl:
        mono = self._mono()
        self._expect_punct("=", "in the integral declaration")
        # An integral may be negative (an exceptional curve has E^2 = -1).
        sign = -1 if self._at_punct("-") else 1
        if sign < 0:
            self._advance()
        value, _ = self._rat()
        self._expect_punct(";", "after the integral declaration")
        return IntegralDecl(mono, sign * value, kw.pos)

    def _parse_bundle(self, kw: Token) -> BundleDecl:
        name = self._expect_name("after 'bundle'")
        self._expect_keyword("rank")
        rank = self._expect_int("after 'rank'")
        self._expect_keyword("chern")
        chern = self._poly()
        self._expect_punct(";", "after the bundle declaration")
        return BundleDecl(name.text, rank, chern, kw.pos)

    def _parse_parabolic(self, kw: Token) -> ParabolicDecl:
        name = self._expect_name("after 'parabolic'")
        self._expect_punct("=", "in the parabolic declaration")
        summands = [self._summand()]
        while self._at_punct("(+)"):
            self._advance()
            summands.append(self._summand())
        self._expect_punct(";", "after the parabolic declaration")
        return ParabolicDecl(name.text, tuple(summands), kw.pos)

    def _parse_command(self, kw: Token) -> CommandDecl:
        kinds = COMMANDS[kw.text]
        kind = self._expect_name(f"after '{kw.text}'")
        if kind.text not in kinds:
            self._fail(
                f"unknown {kw.text} kind {kind.text!r} "
                f"(expected one of {', '.join(kinds)})",
                kind,
            )
        context = f"after '{kw.text} {kind.text}'"
        names = tuple(self._expect_name(context).text for _ in range(kinds[kind.text]))
        self._expect_punct(";", "after the command")
        return CommandDecl(kw.text, kind.text, names, kw.pos)

    _parse_compute = _parse_verify = _parse_command

    def _mono(self) -> MonoAST:
        factors = [self._mono_factor()]
        while self._at_punct("*"):
            self._advance()
            factors.append(self._mono_factor())
        return tuple(factors)

    def _mono_factor(self) -> MonoFactor:
        name = self._expect_name("in a monomial")
        exponent = 1
        if self._at_punct("^"):
            self._advance()
            exponent = self._expect_int("after '^'")
        return MonoFactor(name.text, exponent, name.pos)

    def _rat(self) -> tuple[Fraction, Pos]:
        tok = self._peek()
        numerator = self._expect_int("in a rational")
        if self._at_punct("/"):
            self._advance()
            denom_tok = self._peek()
            denominator = self._expect_int("after '/'")
            if denominator == 0:
                self._fail("denominator must be nonzero", denom_tok)
            return Fraction(numerator, denominator), tok.pos
        return Fraction(numerator), tok.pos

    def _poly(self) -> PolyAST:
        terms = []
        sign = 1
        if self._at_punct("+") or self._at_punct("-"):
            sign = -1 if self._advance().text == "-" else 1
        while True:
            tok = self._peek()
            if tok.kind == "int":
                value, pos = self._rat()
                factors: MonoAST = ()
                if self._at_punct("*"):
                    self._advance()
                    factors = self._mono()
            elif tok.kind == "name":
                value, pos = Fraction(1), tok.pos
                factors = self._mono()
            else:
                self._fail("expected a term", tok)
            terms.append(PolyTerm(sign * value, factors, pos))
            if self._at_punct("+") or self._at_punct("-"):
                sign = -1 if self._advance().text == "-" else 1
                continue
            return tuple(terms)

    def _summand(self) -> SummandAST:
        name = self._expect_name("at the start of a summand")
        self._expect_punct("{", "after the summand bundle name")
        weights = []
        if not self._at_punct("}"):
            while True:
                divisor = self._expect_name("in a weight entry")
                self._expect_punct(":", "after the divisor name")
                value, value_pos = self._rat()
                weights.append(WeightEntry(divisor.text, value, value_pos))
                if self._at_punct(","):
                    self._advance()
                    continue
                break
        self._expect_punct("}", "after the weight map")
        return SummandAST(name.text, tuple(weights), name.pos)


def parse_program(text: str) -> SceneAST:
    """Parse a scene program; raises :class:`ParseError` with a positioned
    diagnostic on any lexical or syntax failure."""
    return _Parser(_lex(text)).parse()


# ---------------------------------------------------------------------------
# Pretty printer


def _factors(mono: MonoAST) -> Factors:
    return tuple((f.name, f.exponent) for f in mono)


def _named(poly: PolyAST) -> list[tuple[Fraction, Factors]]:
    return [(term.coeff, _factors(term.factors)) for term in poly]


def _printed(poly: PolyAST) -> list[tuple[str, str]]:
    return [(str(coeff), format_monomial(factors)) for coeff, factors in _named(poly)]


def _format_summand(s: SummandAST) -> str:
    inner = ", ".join(f"{w.divisor}:{w.value}" for w in s.weights)
    return f"{s.bundle}{{{inner}}}"


def format_program(ast: SceneAST) -> str:
    """Canonical text of a scene AST; parsing it back yields an equal AST."""
    lines = []
    for stmt in ast.statements:
        if isinstance(stmt, VarietyDecl):
            lines.append(f"variety {stmt.name} dim {stmt.dim};")
        elif isinstance(stmt, DivisorDecl):
            lines.append(f"divisor {', '.join(stmt.names)};")
        elif isinstance(stmt, ClassDecl):
            lines.append(f"class {stmt.name} deg {stmt.degree};")
        elif isinstance(stmt, RelationDecl):
            lhs = format_monomial(_factors(stmt.lhs))
            lines.append(f"relation {lhs} = {format_terms(_printed(stmt.rhs))};")
        elif isinstance(stmt, IntegralDecl):
            mono = format_monomial(_factors(stmt.mono))
            lines.append(f"integral {mono} = {stmt.value};")
        elif isinstance(stmt, BundleDecl):
            chern = format_terms(_printed(stmt.chern))
            lines.append(f"bundle {stmt.name} rank {stmt.rank} chern {chern};")
        elif isinstance(stmt, ParabolicDecl):
            summands = " (+) ".join(_format_summand(s) for s in stmt.summands)
            lines.append(f"parabolic {stmt.name} = {summands};")
        elif isinstance(stmt, CommandDecl):
            lines.append(f"{stmt.action} {stmt.kind} {' '.join(stmt.names)};")
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Elaborator


class Scene:
    """An elaborated scene: its variety, its parabolic bundles by name, its
    commands, and where each parabolic bundle is declared."""

    __slots__ = ("variety", "parabolics", "commands", "positions")

    def __init__(
        self,
        variety: Variety,
        parabolics: dict[str, ParabolicBundle],
        commands: list[CommandDecl],
        positions: dict[str, Pos],
    ):
        self.variety = variety
        self.parabolics = parabolics
        self.commands = commands
        self.positions = positions


def _fail(message: str, pos: Pos):
    raise ElaborationError([Diagnostic("error", message, pos[0], pos[1])])


# What an unknown name is called, by the kinds of declaration it may name.
_UNKNOWN = {
    ("divisor", "class"): "generator",
    ("divisor",): "divisor",
    ("bundle",): "bundle",
    ("parabolic",): "parabolic bundle",
}

# The reserved summand name of the trivial line bundle.
TRIVIAL = "O"


def elaborate(ast: SceneAST, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> Scene:
    """Build the variety and the object tables from a parsed scene.

    Enforces only what neither the parser nor the library can know:
    exactly one variety, unique names (``O`` is reserved for the trivial
    line bundle), declaration before use, and the budget
    ``max_denominator`` on every denominator written in the scene: relation
    and Chern coefficients and weights.  The budget bounds the input only;
    bundles derived later (by tensor or dual) carry no cap.  The parser
    owns the number of names each command takes.
    Every value check (weights, dimensions, degrees, ranks, homogeneity,
    integrals) is made by the library constructors; the elaborator maps
    the :class:`InputError` path of a failed check to the offending AST
    node.
    """
    variety_decl: VarietyDecl | None = None
    # name -> (statement index, kind); kinds: variety, divisor, class,
    # bundle, parabolic.  The trivial line bundle precedes every statement.
    names: dict[str, tuple[int, str]] = {TRIVIAL: (-1, "bundle")}
    # (name, declaration) per divisor, in the order of the ring's generators.
    divisors: list[tuple[str, DivisorDecl]] = []
    class_decls: list[ClassDecl] = []
    relation_decls: list[RelationDecl] = []
    integral_decls: list[IntegralDecl] = []
    bundle_decls: list[BundleDecl] = []
    parabolic_decls: list[ParabolicDecl] = []
    command_decls: list[CommandDecl] = []

    def declare(name: str, index: int, kind: str, pos: Pos):
        if name == TRIVIAL:
            _fail(f"name {TRIVIAL!r} is reserved for the trivial line bundle", pos)
        if name in names:
            _fail(f"duplicate name {name!r}", pos)
        names[name] = (index, kind)

    def resolve(name: str, kinds: tuple[str, ...], index: int, pos: Pos):
        entry = names.get(name)
        if entry is None or entry[1] not in kinds or entry[0] >= index:
            _fail(f"unknown {_UNKNOWN[kinds]} {name!r}", pos)

    def resolve_generators(monos: Iterable[MonoAST], index: int):
        for mono in monos:
            for factor in mono:
                resolve(factor.name, ("divisor", "class"), index, factor.pos)

    def cap_denominator(what: str, value: Fraction, pos: Pos):
        if value.denominator > max_denominator:
            _fail(f"{what} denominator exceeds the cap {max_denominator}", pos)

    def cap_coefficients(poly: PolyAST):
        for term in poly:
            cap_denominator("coefficient", term.coeff, term.pos)

    for index, stmt in enumerate(ast.statements):
        if isinstance(stmt, VarietyDecl):
            if variety_decl is not None:
                _fail("duplicate variety declaration", stmt.pos)
            declare(stmt.name, index, "variety", stmt.pos)
            variety_decl = stmt
        elif isinstance(stmt, DivisorDecl):
            for name in stmt.names:
                declare(name, index, "divisor", stmt.pos)
                divisors.append((name, stmt))
        elif isinstance(stmt, ClassDecl):
            declare(stmt.name, index, "class", stmt.pos)
            class_decls.append(stmt)
        elif isinstance(stmt, RelationDecl):
            resolve_generators([stmt.lhs, *(t.factors for t in stmt.rhs)], index)
            relation_decls.append(stmt)
        elif isinstance(stmt, IntegralDecl):
            resolve_generators([stmt.mono], index)
            integral_decls.append(stmt)
        elif isinstance(stmt, BundleDecl):
            resolve_generators((t.factors for t in stmt.chern), index)
            declare(stmt.name, index, "bundle", stmt.pos)
            bundle_decls.append(stmt)
        elif isinstance(stmt, ParabolicDecl):
            for summand in stmt.summands:
                resolve(summand.bundle, ("bundle",), index, summand.pos)
                for weight in summand.weights:
                    resolve(weight.divisor, ("divisor",), index, weight.pos)
            declare(stmt.name, index, "parabolic", stmt.pos)
            parabolic_decls.append(stmt)
        elif isinstance(stmt, CommandDecl):
            for name in stmt.names:
                resolve(name, ("parabolic",), index, stmt.pos)
            command_decls.append(stmt)
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    if variety_decl is None:
        _fail("missing variety declaration", (1, 1))

    for decl in relation_decls:
        cap_coefficients(decl.rhs)
    try:
        variety = Variety(
            variety_decl.dim,
            [name for name, _ in divisors],
            [(decl.name, decl.degree) for decl in class_decls],
            [
                (_factors(decl.lhs), _named(decl.rhs))
                for decl in relation_decls
            ],
            [(_factors(decl.mono), decl.value) for decl in integral_decls],
        )
    except InputError as exc:
        field_name, index, *term = exc.path
        node = {
            "generators": [decl for _, decl in divisors] + class_decls,
            "integrals": integral_decls,
            "rules": relation_decls,
        }[field_name][index]
        if term:
            node = node.rhs[term[0]]
        _fail(str(exc), node.pos)
    except ValueError as exc:
        _fail(str(exc), variety_decl.pos)

    ring = variety.ring

    bundles: dict[str, OrdinaryBundleClass] = {TRIVIAL: trivial_line(ring)}
    for decl in bundle_decls:
        cap_coefficients(decl.chern)
        try:
            chern = ring.element(_named(decl.chern))
            bundles[decl.name] = OrdinaryBundleClass(decl.rank, chern)
        except ValueError as exc:
            _fail(str(exc), decl.pos)

    parabolics: dict[str, ParabolicBundle] = {}
    for decl in parabolic_decls:
        for s in decl.summands:
            for w in s.weights:
                cap_denominator("weight", w.value, w.pos)
        summands = tuple(
            (bundles[s.bundle], tuple((w.divisor, w.value) for w in s.weights))
            for s in decl.summands
        )
        try:
            parabolics[decl.name] = ParabolicBundle(variety, summands)
        except InputError as exc:
            _, summand, entry = exc.path
            _fail(str(exc), decl.summands[summand].weights[entry].pos)
        except ValueError as exc:
            _fail(str(exc), decl.pos)

    positions = {decl.name: decl.pos for decl in parabolic_decls}
    return Scene(variety, parabolics, command_decls, positions)
