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
from math import comb
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
# Cap on the size of a scene's ring, counted as C(dim + g, g): the number
# of monomials of degree at most dim over g generators of degree 1, and an
# upper bound on it when some class has a higher degree.  The dense
# ten-divisor fivefold has 3003.
MAX_MONOMIALS = 10**5

Pos = tuple[int, int]


class Diagnostic(Record):
    __slots__ = ("severity", "message", "line", "column")

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
# Immutable records, each built from its fields, by position or by keyword,
# through the one constructor that ``Record`` derives from its ``__slots__``.
# Equality and hashing ignore ``pos``, so a node compares equal to the node
# parsed back from its printed text.


class MonoFactor(Record):
    __slots__ = ("name", "exponent", "pos")


MonoAST = tuple[MonoFactor, ...]


class PolyTerm(Record):
    __slots__ = ("coeff", "factors", "pos")


PolyAST = tuple[PolyTerm, ...]


class WeightEntry(Record):
    __slots__ = ("divisor", "value", "pos")


class SummandAST(Record):
    __slots__ = ("bundle", "weights", "pos")


class VarietyDecl(Record):
    __slots__ = ("name", "dim", "pos")


class DivisorDecl(Record):
    __slots__ = ("names", "pos")


class ClassDecl(Record):
    __slots__ = ("name", "degree", "pos")


class RelationDecl(Record):
    __slots__ = ("lhs", "rhs", "pos")


class IntegralDecl(Record):
    __slots__ = ("mono", "value", "pos")


class BundleDecl(Record):
    __slots__ = ("name", "rank", "chern", "pos")


class ParabolicDecl(Record):
    __slots__ = ("name", "summands", "pos")


class CommandDecl(Record):
    __slots__ = ("action", "kind", "names", "pos")


class SceneAST(Record):
    """The statements, declarations and commands, in source order."""

    __slots__ = ("statements",)


# ---------------------------------------------------------------------------
# Lexer


# A token is a (kind, text, pos) tuple: kind "name" | "int" | "punct" |
# "eof", its text, and the (line, column) where it starts.
Token = tuple[str, str, Pos]

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
    """The scene's tokens as (kind, text, pos) tuples, eof last."""
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
            tokens.append((_KINDS[group], lexeme, (line, column)))
    # A comment does not advance the column: eof sits where a comment that
    # ends the text starts.  The first '#' on a line starts its comment.
    comment = text.find("#", line_start)
    end = len(text) if comment < 0 else comment
    tokens.append(("eof", "", (line, end - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over the token list, which the cursor ``_i``
    indexes directly.  A punctuation symbol or a keyword is matched on its
    text alone, since no token of another kind has that text.  The cursor
    only moves past a token that matched a kind other than eof or such a
    text, so it never moves past eof."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0

    def _fail(self, message: str, tok: Token):
        line, column = tok[2]
        raise ParseError([Diagnostic("error", message, line, column)])

    def _expect_punct(self, symbol: str, context: str) -> None:
        tok = self._tokens[self._i]
        if tok[1] != symbol:
            self._fail(f"expected '{symbol}' {context}", tok)
        self._i += 1

    def _expect_name(self, context: str) -> Token:
        tok = self._tokens[self._i]
        if tok[0] != "name":
            self._fail(f"expected a name {context}", tok)
        self._i += 1
        return tok

    def _expect_keyword(self, word: str) -> None:
        tok = self._tokens[self._i]
        if tok[1] != word:
            self._fail(f"expected '{word}'", tok)
        self._i += 1

    def _expect_int(self, context: str) -> int:
        tok = self._tokens[self._i]
        if tok[0] != "int":
            self._fail(f"expected an integer {context}", tok)
        self._i += 1
        try:
            return int(tok[1])
        except ValueError:  # past sys.get_int_max_str_digits()
            self._fail(f"integer {context} has too many digits", tok)

    def parse(self) -> SceneAST:
        tokens = self._tokens
        statements = []
        tok = tokens[0]
        while tok[0] != "eof":
            handler = self._STATEMENTS.get(tok[1]) if tok[0] == "name" else None
            if handler is None:
                keywords = ", ".join(self._STATEMENTS)
                self._fail(f"expected a statement keyword ({keywords})", tok)
            self._i += 1
            statements.append(handler(self, tok))
            tok = tokens[self._i]
        return SceneAST(tuple(statements))

    def _parse_variety(self, kw: Token) -> VarietyDecl:
        name = self._expect_name("after 'variety'")
        self._expect_keyword("dim")
        dim = self._expect_int("after 'dim'")
        self._expect_punct(";", "after the variety declaration")
        return VarietyDecl(name[1], dim, kw[2])

    def _parse_divisor(self, kw: Token) -> DivisorDecl:
        tokens = self._tokens
        names = [self._expect_name("after 'divisor'")[1]]
        while tokens[self._i][1] == ",":
            self._i += 1
            names.append(self._expect_name("after ','")[1])
        self._expect_punct(";", "after the divisor declaration")
        return DivisorDecl(tuple(names), kw[2])

    def _parse_class(self, kw: Token) -> ClassDecl:
        name = self._expect_name("after 'class'")
        self._expect_keyword("deg")
        degree = self._expect_int("after 'deg'")
        self._expect_punct(";", "after the class declaration")
        return ClassDecl(name[1], degree, kw[2])

    def _parse_relation(self, kw: Token) -> RelationDecl:
        lhs = self._mono()
        self._expect_punct("=", "in the relation")
        rhs = self._poly()
        self._expect_punct(";", "after the relation")
        return RelationDecl(lhs, rhs, kw[2])

    def _parse_integral(self, kw: Token) -> IntegralDecl:
        mono = self._mono()
        self._expect_punct("=", "in the integral declaration")
        # An integral may be negative (an exceptional curve has E^2 = -1).
        negative = self._tokens[self._i][1] == "-"
        if negative:
            self._i += 1
        value, _ = self._rat()
        self._expect_punct(";", "after the integral declaration")
        return IntegralDecl(mono, -value if negative else value, kw[2])

    def _parse_bundle(self, kw: Token) -> BundleDecl:
        name = self._expect_name("after 'bundle'")
        self._expect_keyword("rank")
        rank = self._expect_int("after 'rank'")
        self._expect_keyword("chern")
        chern = self._poly()
        self._expect_punct(";", "after the bundle declaration")
        return BundleDecl(name[1], rank, chern, kw[2])

    def _parse_parabolic(self, kw: Token) -> ParabolicDecl:
        tokens = self._tokens
        name = self._expect_name("after 'parabolic'")
        self._expect_punct("=", "in the parabolic declaration")
        summands = [self._summand()]
        while tokens[self._i][1] == "(+)":
            self._i += 1
            summands.append(self._summand())
        self._expect_punct(";", "after the parabolic declaration")
        return ParabolicDecl(name[1], tuple(summands), kw[2])

    def _parse_command(self, kw: Token) -> CommandDecl:
        action = kw[1]
        kinds = COMMANDS[action]
        kind_tok = self._expect_name(f"after '{action}'")
        kind = kind_tok[1]
        if kind not in kinds:
            self._fail(
                f"unknown {action} kind {kind!r} "
                f"(expected one of {', '.join(kinds)})",
                kind_tok,
            )
        context = f"after '{action} {kind}'"
        names = tuple(self._expect_name(context)[1] for _ in range(kinds[kind]))
        self._expect_punct(";", "after the command")
        return CommandDecl(action, kind, names, kw[2])

    _STATEMENTS = {
        "variety": _parse_variety,
        "divisor": _parse_divisor,
        "class": _parse_class,
        "relation": _parse_relation,
        "integral": _parse_integral,
        "bundle": _parse_bundle,
        "parabolic": _parse_parabolic,
        "compute": _parse_command,
        "verify": _parse_command,
    }

    def _mono(self) -> MonoAST:
        tokens = self._tokens
        factors = []
        while True:
            name = self._expect_name("in a monomial")
            exponent = 1
            if tokens[self._i][1] == "^":
                self._i += 1
                exponent = self._expect_int("after '^'")
            factors.append(MonoFactor(name[1], exponent, name[2]))
            if tokens[self._i][1] != "*":
                return tuple(factors)
            self._i += 1

    def _rat(self) -> tuple[Fraction, Pos]:
        tokens = self._tokens
        pos = tokens[self._i][2]
        numerator = self._expect_int("in a rational")
        if tokens[self._i][1] != "/":
            return Fraction(numerator), pos
        self._i += 1
        denom_tok = tokens[self._i]
        denominator = self._expect_int("after '/'")
        if denominator == 0:
            self._fail("denominator must be nonzero", denom_tok)
        return Fraction(numerator, denominator), pos

    def _poly(self) -> PolyAST:
        tokens = self._tokens
        terms = []
        sign = tokens[self._i][1]
        if sign == "+" or sign == "-":
            self._i += 1
        while True:
            tok = tokens[self._i]
            if tok[0] == "int":
                value, pos = self._rat()
                factors: MonoAST = ()
                if tokens[self._i][1] == "*":
                    self._i += 1
                    factors = self._mono()
            elif tok[0] == "name":
                value, pos = Fraction(1), tok[2]
                factors = self._mono()
            else:
                self._fail("expected a term", tok)
            terms.append(PolyTerm(-value if sign == "-" else value, factors, pos))
            sign = tokens[self._i][1]
            if sign != "+" and sign != "-":
                return tuple(terms)
            self._i += 1

    def _summand(self) -> SummandAST:
        tokens = self._tokens
        name = self._expect_name("at the start of a summand")
        self._expect_punct("{", "after the summand bundle name")
        weights = []
        if tokens[self._i][1] != "}":
            while True:
                divisor = self._expect_name("in a weight entry")
                self._expect_punct(":", "after the divisor name")
                value, value_pos = self._rat()
                weights.append(WeightEntry(divisor[1], value, value_pos))
                if tokens[self._i][1] != ",":
                    break
                self._i += 1
        self._expect_punct("}", "after the weight map")
        return SummandAST(name[1], tuple(weights), name[2])


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


class Scene(Record):
    """An elaborated scene: its variety, its parabolic bundles by name, its
    commands, and where each parabolic bundle is declared.  Immutable;
    compares and hashes by identity."""

    __slots__ = ("variety", "parabolics", "commands", "positions")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


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
    # The size check comes before any ring is built.  A dimension or a
    # generator count that alone reaches the cap fails before comb() runs,
    # so a huge dimension costs nothing; the dimension also bounds the
    # graded parts that every Newton bridge and exp lists.
    dim, count = variety_decl.dim, len(divisors) + len(class_decls)
    if (
        dim >= MAX_MONOMIALS
        or count >= MAX_MONOMIALS
        or comb(dim + count, min(dim, count)) > MAX_MONOMIALS
    ):
        _fail(
            f"variety exceeds the size cap of {MAX_MONOMIALS} monomials "
            f"(dimension {dim}, generator count {count})",
            variety_decl.pos,
        )

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
