"""Truncated graded polynomial rings with exact rational coefficients.

This is the value layer for every class computation in the package: sparse
polynomials in named graded generators, truncated above a fixed degree
cutoff, and taken modulo a list of homogeneous relations.  A ring is the
one presentation of a variety's relations, held as integer rows lhs - rhs,
and it makes every check on generators and rules; the formal cover is
built from the same rows.

Inside a ring each monomial is one packed int: exponent i in a field of
``cutoff.bit_length() + 1`` bits, generator 0 most significant, so int
order is exponent-tuple order and a product of monomials is one addition.
No exponent at or below the cutoff reaches its field's top (guard) bit, so
divisibility is one subtraction.  One reader, `GradedRing._key`, packs
every monomial on the way in, given as (name, exponent) factors: each
factor adds its exponent into its field and its degree into the
monomial's degree in one pass.  It reads the rule monomials, the integral
monomials of a `Variety`, and every term of `GradedRing.element`, which
takes named terms, (coefficient, factors) pairs; `RingElement(ring,
terms)` hands the same reader each exponent tuple as named factors.  A
term above the cutoff is dropped once all its factors are checked.
Monomials are unpacked on the way out.

An element stores exact integer numerators over one positive denominator
per element, reduced so that their gcd is 1.  `fractions.Fraction` appears
only at the API: in rule coefficients, scalar operands, the coefficients
that `terms` and `sorted_terms` hand out, and any `Fraction` coefficient
handed to the reader, which reads its numerator and denominator and builds
no second one; an int stays an int, and any other number becomes one
`Fraction`.  `format_terms` prints text that `printed_terms` writes from
integer numerators.  Each ring memoizes the text of every monomial it
prints, and the degree and normal form of every monomial it meets, so
reduction runs once per monomial and ring rather than once per product.
Normal forms have one door, `GradedRing._expand`: the reader, every
product, sum of products and twisted sum sum_j x_j * exp(t_j), the
pullback to a cover and each pivot of a block reduction gather one plain
dict of numerators over any monomials and pass it through once.  There
`GradedRing._entry` looks each monomial up, reading a new one's degree
from its packed int, and a non-normal one gives way to its normal form; a
product by the unit 1 is the other factor itself.  A twisted sum reads
each twist t_j from (generator, weight) pairs and seeds the exp series
with x_j's numerators, so neither t_j nor its exp is ever an element;
:func:`exp_nilpotent` runs the same loop seeded with 1.  The kernel
builds each element from a canonical form through `RingElement._make`,
which sets the three slots through their descriptors.  Nothing here
touches floating point.

The Newton bridges split their input into graded numerators in one pass,
take each step on (numerators, denominator) forms through the loop behind
:func:`sum_of_products`, and make elements only for what they return;
:func:`character_from_chern` is the one place a total Chern class is checked.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import itemgetter
from types import CodeType, FunctionType, MappingProxyType
from typing import Iterable, Optional, Sequence, Union

Monomial = tuple[int, ...]
Rational = Union[int, Fraction]
MonoSpec = Union[Mapping[str, int], Iterable[tuple[str, int]]]
# A monomial by name: (generator, exponent) factors.
Factors = tuple[tuple[str, int], ...]
# A rule: a monomial and the (coefficient, monomial) terms it equals.
RuleSpec = tuple[MonoSpec, Iterable[tuple[Rational, MonoSpec]]]
# Integer numerators over one positive denominator, by packed monomial.
Numerators = dict[int, int]
NormalForm = tuple[Numerators, int]
# The numerators of the unit 1, over denominator 1; never mutated.
_UNIT: Numerators = {0: 1}


class RingMismatchError(ValueError):
    """Two elements that live in different rings were combined."""


class InputError(ValueError):
    """A constructor argument failed a value check.

    ``path`` locates the offending value: the argument's name, then indices
    into it, e.g. ``("rules", 0, 1)`` for term 1 of rule 0.
    """

    def __init__(self, message: str, *path: str | int):
        super().__init__(message)
        self.path = path


@cache
def _fill_code(arity: int) -> CodeType:
    """The code of a field fill of ``arity`` fields: ``_fill(self, a0, ...)``
    calls ``s0(self, a0)`` and so on.  Each record class renames the
    parameters to its fields and binds s0, s1, ... to their setters, so one
    compile serves every class of one arity."""
    params = "".join(f", a{i}" for i in range(arity))
    body = "".join(f"\n    s{i}(self, a{i})" for i in range(arity))
    scope: dict = {}
    exec(f"def _fill(self{params}):\n    pass{body}", scope)
    return scope["_fill"].__code__


class Record:
    """Base of the package's immutable records.

    A record's fields are the names in its class's own ``__slots__`` (a
    name starting with ``__``, such as ``__weakref__``, is not a field),
    unless the class names them in ``_fields``.  At class creation each
    record class gets one generated field fill, ``_fill(self, *fields)``,
    which takes the fields by position or by keyword, writes each past the
    ``__setattr__`` below, and raises ``TypeError`` on a wrong count, an
    unknown keyword or a field given twice.  It is the constructor of
    every class that writes none; a checked constructor ends in it, and
    :meth:`_of` is the one unchecked path to it.  Only ``RingElement``
    sets its slots by hand, in ``_make``, the kernel's hot path, and in the
    constructor that reads its terms.  Assignment and deletion on an
    instance raise ``AttributeError``.  Two records of one class are
    equal, and hash equal, when their fields are, all but ``pos``, the
    source position of a scene AST node.  A model class that compares by
    identity restores ``object``'s ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        slots = cls.__dict__.get("__slots__", ())
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(name for name in slots if not name.startswith("__"))
        # A slot field is set through its descriptor; a field kept in the
        # instance dict, through ``object.__setattr__``.
        setters = {}
        for i, name in enumerate(cls._fields):
            if name in slots:
                setters[f"s{i}"] = cls.__dict__[name].__set__
            else:
                setters[f"s{i}"] = lambda record, value, name=name: object.__setattr__(
                    record, name, value
                )
        code = _fill_code(len(cls._fields)).replace(co_varnames=("self", *cls._fields))
        cls._fill = FunctionType(code, setters, "_fill")
        cls._fill.__qualname__ = f"{cls.__qualname__}._fill"
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._fill

    @classmethod
    def _of(cls, *fields):
        """A record from fields that need no check."""
        record = _new(cls)
        record._fill(*fields)
        return record

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields if name != "pos")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _positive_integer(value) -> Optional[int]:
    """``value`` as an int when it is a whole number of at least 1, else
    None; a value that ``int`` cannot read raises as ``int`` does.  A size
    such as a degree, a rank or an order is read through here, so 2.5 is
    rejected rather than truncated to 2."""
    whole = int(value)
    return whole if whole == value and whole >= 1 else None


def _canonical(num: Numerators, den: int) -> NormalForm:
    """Drop zero numerators and divide out the common gcd with ``den``."""
    values = num.values()
    if 0 in values:
        num = {m: c for m, c in num.items() if c}
        values = num.values()
    if not num:
        return num, 1
    g = gcd(den, *values)
    if g != 1:
        num = {m: c // g for m, c in num.items()}
        den //= g
    return num, den


class GradedRing:
    """Commutative polynomial ring over Q with graded generators, a degree
    cutoff and homogeneous relations.

    Terms of total degree above ``cutoff`` are identically zero.  Each rule
    ``(lhs, rhs)`` equates a monomial and a polynomial of the same degree,
    whichever side is the larger; terms with coefficient zero are skipped.
    A bad generator raises :class:`InputError` with the path
    ``("generators", index)``.  A malformed rule raises it with the path
    ``("rules", rule)``, or ``("rules", rule, term)``, terms counted as
    written, for a term of the wrong degree, with an unknown generator or
    with a negative exponent.  A rule above the cutoff holds identically and
    keeps no row: only its degree is read, so an exponent that overflows
    its packed field there does no harm.

    The API takes and returns monomials as exponent tuples; inside, each is
    a packed int (see the module docstring), the key of the memo, of the
    relation rows and of every element's numerators.

    Normal forms come from exact row reduction of each degree's relation
    matrix, the relations times every monomial of the complementary degree
    (the Macaulay-matrix form of Buchberger's algorithm), with columns in
    ``sort_key`` order.  Its pivot columns are the non-normal monomials, so
    every rule set gives an associative ring and reduction always ends.
    The ring memoizes each monomial's normal form on first use, one block
    of the matrix at a time, by fraction-free elimination of integer rows;
    each pivot's form is finished by the ``_expand`` that finishes products.
    """

    def __init__(
        self,
        generators: Sequence[tuple[str, int]],
        cutoff: int,
        rules: Sequence[RuleSpec] = (),
    ):
        names = []
        degrees = []
        for index, (name, degree) in enumerate(generators):
            at = ("generators", index)
            if not isinstance(name, str) or not name:
                raise InputError("generator names must be non-empty strings", *at)
            if name in names:
                raise InputError(f"duplicate generator name {name!r}", *at)
            degree = _positive_integer(degree)
            if degree is None:
                raise InputError("class degree must be at least 1", *at)
            names.append(name)
            degrees.append(degree)
        cutoff = _positive_integer(cutoff)
        if cutoff is None:
            raise ValueError("cutoff must be a positive integer")
        self._names = tuple(names)
        self._degrees = tuple(degrees)
        self.cutoff = cutoff
        width = self._width = self.cutoff.bit_length() + 1
        self._shifts = tuple(width * i for i in reversed(range(len(names))))
        # Generator name -> (field shift, degree), for the one reader.
        self._fields = dict(zip(names, zip(self._shifts, degrees)))
        self._mask = (1 << width) - 1
        # (field shift, degree - 1) of each generator of degree above 1.
        self._heavy = tuple((s, d - 1) for s, d in zip(self._shifts, degrees) if d > 1)
        self._guard = sum(1 << (shift + width - 1) for shift in self._shifts)
        # Packed monomial at or below the cutoff -> (degree, normal form),
        # where the form is None for a normal monomial; every monomial of
        # every element has an entry.  Entries only ever get added, and two
        # threads filling the same entry store equal values.
        self._memo: dict[int, tuple[int, Optional[NormalForm]]] = {0: (0, None)}
        # Packed monomial -> (factors, text), filled on first print likewise.
        self._printed: dict[int, tuple[Factors, str]] = {}
        # One integer row lhs - rhs per relation at or below the cutoff whose
        # sides do not cancel, over no denominator: a row's scale leaves its
        # normal forms alone.  A relation above the cutoff holds identically.
        self._relations: list[Numerators] = []

        def rule_monomial(spec: MonoSpec, *at: int) -> tuple[int, int]:
            try:
                return self._key(spec)
            except (KeyError, ValueError) as exc:
                raise InputError(exc.args[0], "rules", *at) from None

        for idx, (lhs_spec, rhs_terms) in enumerate(rules):
            lhs, lhs_degree = rule_monomial(lhs_spec, idx)
            if lhs_degree == 0:
                raise InputError(
                    "rule left side must be a non-constant monomial", "rules", idx
                )
            row = {lhs: Fraction(1)}
            for term, (coeff, mono_spec) in enumerate(rhs_terms):
                coeff = Fraction(coeff)
                if not coeff:
                    continue
                mono, degree = rule_monomial(mono_spec, idx, term)
                if degree != lhs_degree:
                    raise InputError(
                        "relation is not degree-homogeneous", "rules", idx, term
                    )
                row[mono] = row.get(mono, 0) - coeff
            row = {m: c for m, c in row.items() if c}
            if row and lhs_degree <= self.cutoff:
                den = lcm(*(c.denominator for c in row.values()))
                self._relations.append({m: int(c * den) for m, c in row.items()})

    @classmethod
    def _from_relations(
        cls, generators, cutoff: int, relations: list[Numerators]
    ) -> GradedRing:
        """A ring with relation rows already in this class's form; the rows
        are not re-checked."""
        ring = cls(generators, cutoff)
        ring._relations = relations
        return ring

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def _key(self, spec: MonoSpec) -> tuple[int, int]:
        """The packed int and the degree of a monomial given as (name,
        exponent) factors or a {name: exponent} mapping; repeated names add
        up.  An unknown name raises ``KeyError``, a negative exponent
        ``ValueError``.  Above the cutoff a field may overflow into the next,
        so only the degree of such a monomial is meaningful."""
        fields = self._fields
        packed = degree = 0
        # Exact types first: the ABC check is the slow one.
        kind = type(spec)
        if kind is dict or (kind is not tuple and isinstance(spec, Mapping)):
            spec = spec.items()
        for name, exp in spec:
            field = fields.get(name)
            if field is None:
                raise KeyError(f"unknown generator {name!r}")
            exp = int(exp)
            if exp < 0:
                raise ValueError("exponents must be non-negative")
            packed += exp << field[0]
            degree += exp * field[1]
        return packed, degree

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self._degrees))

    def sort_key(self, mono: Monomial):
        """Graded-lexicographic key: degree first, then earlier generators
        with higher exponents first."""
        return (self.monomial_degree(mono), tuple(-e for e in mono))

    def _factors(self, mono: Monomial) -> Factors:
        """The (name, exponent) factors of a monomial, zero exponents left
        out."""
        return tuple((name, exp) for name, exp in zip(self._names, mono) if exp)

    def _pack(self, mono: Monomial) -> int:
        """The packed int of an exponent tuple at or below the cutoff."""
        return sum(e << shift for e, shift in zip(mono, self._shifts))

    def _unpack(self, packed: int) -> Monomial:
        return tuple((packed >> shift) & self._mask for shift in self._shifts)

    def _leading_exponent(self, packed: int, count: int) -> int:
        """Total exponent of the first ``count`` generators: the digit sum
        of the top fields, read modulo 2^width - 1, which exceeds it."""
        return (packed >> self._width * (len(self._names) - count)) % self._mask

    def basis_monomials(self, degree: int) -> list[Monomial]:
        """All normal monomials of the given total degree."""
        if degree < 0 or degree > self.cutoff:
            return []
        out: list[Monomial] = []
        n = len(self._names)

        def rec(i: int, remaining: int, acc: list[int]):
            if i == n:
                if remaining == 0:
                    mono = tuple(acc)
                    if self._entry(self._pack(mono))[1] is None:
                        out.append(mono)
                return
            step = self._degrees[i]
            for e in range(remaining // step + 1):
                rec(i + 1, remaining - e * step, acc + [e])

        rec(0, degree, [])
        out.sort(key=self.sort_key)
        return out

    def zero(self) -> RingElement:
        return RingElement._make(self, {}, 1)

    def one(self) -> RingElement:
        return RingElement._make(self, {0: 1}, 1)

    def scalar(self, value: Rational) -> RingElement:
        value = Fraction(value)
        if not value:
            return self.zero()
        return RingElement._make(self, {0: value.numerator}, value.denominator)

    def generator(self, name: str) -> RingElement:
        return self.element([(1, {name: 1})])

    def element(self, terms: Iterable[tuple[Rational, MonoSpec]]) -> RingElement:
        """The sum of (coefficient, monomial spec) terms, normalized once.
        Repeated monomials and repeated factors add up.  Every term is
        checked, one above the cutoff too: an unknown name raises
        ``KeyError`` and a negative exponent ``ValueError``."""
        return RingElement._make(self, *self._read(terms))

    def _read(self, terms: Iterable[tuple[Rational, MonoSpec]]) -> NormalForm:
        """Canonical form of named terms: each monomial is read by
        :meth:`_key`, a term above the cutoff is dropped once all its
        factors are checked, and each coefficient's numerator joins the
        others over a running common denominator; :meth:`_expand`
        normalizes the sum."""
        key = self._key
        cutoff = self.cutoff
        num: Numerators = {}
        den = 1
        for coeff, spec in terms:
            packed, degree = key(spec)
            kind = type(coeff)
            if (
                kind is not int
                and kind is not Fraction
                and not isinstance(coeff, (int, Fraction))
            ):
                coeff = Fraction(coeff)
            if degree > cutoff:
                continue
            d = coeff.denominator
            if den % d:
                scale = d // gcd(den, d)
                for m in num:
                    num[m] *= scale
                den *= scale
            num[packed] = num.get(packed, 0) + coeff.numerator * (den // d)
        return self._expand(num, den)

    def _entry(self, mono: int) -> tuple[int, Optional[NormalForm]]:
        """Degree and normal form of a packed monomial at or below the
        cutoff; the form is None when the monomial is normal.  Fills the
        memo on first use.  The degree is the total exponent, read as
        `_leading_exponent` reads it, plus (d - 1) * e for each generator
        of degree d > 1 and exponent e.  A monomial that no relation term
        divides lies in no row, so it is normal without a block reduced."""
        entry = self._memo.get(mono)
        if entry is None:
            degree = self._leading_exponent(mono, len(self._names))
            for shift, extra in self._heavy:
                degree += (mono >> shift & self._mask) * extra
            guard = self._guard
            lifted = mono | guard
            if any((lifted - t) & guard == guard for r in self._relations for t in r):
                self._reduce_block(mono, degree)
                entry = self._memo[mono]
            else:
                entry = self._memo[mono] = (degree, None)
        return entry

    def _reduce_block(self, mono: int, degree: int) -> None:
        """Memoize every column of the block of the degree-``degree``
        relation matrix that holds ``mono``: the rows q * relation linked to
        ``mono`` through shared monomials.  The matrix is block-diagonal, so
        the block alone gives the pivots and normal forms of its columns.
        Elimination is fraction-free (after Bareiss, Math. Comp. 1968): a
        row meets a pivot as row * a - pivot * b, a and b the two leading
        coefficients over their gcd, and then divides out its content.
        """
        guard = self._guard
        columns = [mono]
        seen = {mono}
        rows: dict[tuple[int, int], Numerators] = {}
        for column in columns:  # grows while it is read
            lifted = column | guard
            for index, relation in enumerate(self._relations):
                for term in relation:
                    # ``term`` divides ``column`` when no field borrows.
                    if (lifted - term) & guard != guard:
                        continue
                    quotient = column - term
                    if (index, quotient) in rows:
                        continue
                    row = {quotient + t: c for t, c in relation.items()}
                    rows[index, quotient] = row
                    for t in row:
                        if t not in seen:
                            seen.add(t)
                            columns.append(t)
        # Echelon form: a row's leader is its largest packed monomial, first
        # in ``sort_key`` order within a degree; no two pivots share one.
        pivots: dict[int, Numerators] = {}
        for row in rows.values():
            while row:
                leader = max(row)
                pivot = pivots.setdefault(leader, row)
                if pivot is row:
                    break
                g = gcd(row[leader], pivot[leader])
                a, b = pivot[leader] // g, row[leader] // g
                row = {t: row.get(t, 0) * a - pivot.get(t, 0) * b for t in row | pivot}
                g = gcd(*row.values())
                row = {t: c // g for t, c in row.items() if c}
        # Normal columns first; then each leader's form -tail / lead, from the
        # smallest leader up, so that the forms in its tail are memoized.
        memo = self._memo
        for column in columns:
            if column not in pivots:
                memo[column] = (degree, None)
        for leader in sorted(pivots):
            tail = pivots[leader]
            lead = tail.pop(leader)
            sign = -1 if lead > 0 else 1
            tail = {t: sign * c for t, c in tail.items()}
            memo[leader] = (degree, self._expand(tail, abs(lead)))

    def _expand(self, num: Numerators, den: int) -> NormalForm:
        """Canonical form of ``num / den`` over any packed monomials at or
        below the cutoff: each monomial is looked up once, and a non-normal
        one gives way to its normal form.  ``num`` may be consumed; every
        monomial is memoized."""
        memo = self._memo
        entry = self._entry
        forms = []
        for m, c in num.items():
            form = (memo.get(m) or entry(m))[1]
            if form is not None:
                forms.append((m, form, c))
        if forms:
            for m, _, _ in forms:
                del num[m]
            scale = lcm(*(form_den for _, (_, form_den), _ in forms))
            if scale != 1:
                num = {m: c * scale for m, c in num.items()}
                den *= scale
            for _, (form_num, form_den), c in forms:
                c *= scale // form_den
                for m, fc in form_num.items():
                    num[m] = num.get(m, 0) + c * fc
        return _canonical(num, den)

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self._names, self._degrees))
        count = len(self._relations)
        return f"GradedRing([{gens}], cutoff={self.cutoff}, relations={count})"


class RingElement(Record):
    """A normalized element of a :class:`GradedRing`.

    An immutable :class:`Record`, but not a hashable one: equality is exact
    equality of term maps within the same ring.  Arithmetic accepts ``int``
    and ``Fraction`` scalars on either side.  Constructed from a map of
    exponent tuples to coefficients, read by the ring's one reader; terms
    above the cutoff are dropped, and a tuple with the wrong number of
    exponents or a negative one raises ``ValueError``.

    The terms are held as integer numerators ``_num`` by packed monomial
    over one denominator ``_den``, in canonical form: ``_den > 0``, the gcd
    of ``_den`` and all numerators is 1, no numerator is zero, and every
    monomial is normal, memoized and at or below the cutoff.  The zero
    element has ``_den == 1``.
    """

    __slots__ = ("ring", "_num", "_den")

    def __init__(self, ring: GradedRing, terms: Mapping[Monomial, Rational]):
        names = ring.names

        def named():
            for mono, coeff in terms.items():
                if len(mono) != len(names):
                    raise ValueError(
                        f"monomial {mono!r} needs one exponent per generator, "
                        f"{len(names)} in all"
                    )
                yield coeff, zip(names, mono)

        num, den = ring._read(named())
        _set_ring(self, ring)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _make(cls, ring: GradedRing, num: Numerators, den: int) -> RingElement:
        """An element from numerators and a denominator already in
        canonical form."""
        element = _new(cls)
        _set_ring(element, ring)
        _set_num(element, num)
        _set_den(element, den)
        return element

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """A read-only snapshot of the terms by exponent tuple."""
        unpack, den = self.ring._unpack, self._den
        return MappingProxyType(
            {unpack(m): Fraction(c, den) for m, c in self._num.items()}
        )

    def _sorted(self) -> list[int]:
        # Within a degree, ``sort_key`` order is descending packed order.
        memo = self.ring._memo
        return sorted(self._num, key=lambda m: (memo[m][0], -m))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        unpack, num, den = self.ring._unpack, self._num, self._den
        return [(unpack(m), Fraction(num[m], den)) for m in self._sorted()]

    def printed_terms(self) -> list[tuple[str, Factors, str]]:
        """(coefficient text, factors, monomial text) triples in
        ``sort_key`` order; a coefficient reads as ``str(Fraction)``."""
        ring, num, den, printed = self.ring, self._num, self._den, self.ring._printed
        out = []
        for m in self._sorted():
            entry = printed.get(m)
            if entry is None:
                factors = ring._factors(ring._unpack(m))
                entry = printed[m] = (factors, format_monomial(factors))
            g = gcd(num[m], den)
            coeff = f"{num[m] // g}/{den // g}" if g < den else str(num[m] // g)
            out.append((coeff, *entry))
        return out

    @property
    def is_zero(self) -> bool:
        return not self._num

    def graded_part(self, k: int) -> RingElement:
        """The sum of terms of total degree exactly ``k``."""
        ring = self.ring
        if k < 0 or k > ring.cutoff:
            raise ValueError(f"degree {k} outside [0, {ring.cutoff}]")
        part = _graded_numerators(self, k)[k]
        return RingElement._make(ring, *_canonical(part, self._den))

    def graded_parts(self, top: int) -> list[RingElement]:
        """The graded parts of degree 0..``top``, from one pass over the
        terms."""
        ring = self.ring
        if top < 0 or top > ring.cutoff:
            raise ValueError(f"degree {top} outside [0, {ring.cutoff}]")
        return [
            RingElement._make(ring, *_canonical(part, self._den))
            for part in _graded_numerators(self, top)
        ]

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise RingMismatchError("elements belong to different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._num:
            return self
        if not self._num:
            return o
        den_a, den_b = self._den, o._den
        if den_a == den_b:
            num = dict(self._num)
            scale_b = 1
        else:
            g = gcd(den_a, den_b)
            scale_a, scale_b = den_b // g, den_a // g
            num = {m: c * scale_a for m, c in self._num.items()}
            den_a *= scale_a
        for m, c in o._num.items():
            num[m] = num.get(m, 0) + c * scale_b
        return RingElement._make(self.ring, *_canonical(num, den_a))

    __radd__ = __add__

    def __neg__(self):
        return RingElement._make(
            self.ring, {m: -c for m, c in self._num.items()}, self._den
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        # An element skips the ABC check of ``Fraction``.
        if type(other) is not RingElement and isinstance(other, (int, Fraction)):
            num = {m: c * other.numerator for m, c in self._num.items()}
            return RingElement._make(
                self.ring, *_canonical(num, self._den * other.denominator)
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # A product by the unit 1 is the other factor; elements are immutable.
        if o._den == 1 and o._num == _UNIT:
            return self
        if self._den == 1 and self._num == _UNIT:
            return o
        ring = self.ring
        form = _sum_of_products(ring, [((self._num, self._den), (o._num, o._den))])
        return RingElement._make(ring, *form)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a ring element by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        for _ in range(exponent):
            result = result * self
            if result.is_zero:
                break
        return result

    def __eq__(self, other):
        if type(other) is not RingElement and isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if isinstance(other, RingElement):
            return (
                self.ring is other.ring
                and self._den == other._den
                and self._num == other._num
            )
        return NotImplemented

    def __str__(self):
        return format_terms([(c, text) for c, _, text in self.printed_terms()])

    def __repr__(self):
        return f"RingElement({self})"


# An element's fields are set through their slot descriptors, past the
# ``__setattr__`` that makes every record immutable.
_new = object.__new__
_set_ring = RingElement.ring.__set__
_set_num = RingElement._num.__set__
_set_den = RingElement._den.__set__


def sum_of_products(pairs: Sequence[tuple[RingElement, RingElement]]) -> RingElement:
    """The sum of a * b over a non-empty sequence of (a, b) pairs of one
    ring, normalized once."""
    ring = pairs[0][0].ring
    forms = []
    for a, b in pairs:
        if a.ring is not ring or b.ring is not ring:
            raise RingMismatchError("elements belong to different rings")
        forms.append(((a._num, a._den), (b._num, b._den)))
    return RingElement._make(ring, *_sum_of_products(ring, forms))


def _sum_of_products(
    ring: GradedRing, pairs: Sequence[tuple[NormalForm, NormalForm]]
) -> NormalForm:
    """Canonical form of the sum of a * b over (a, b) pairs of forms, each
    numerators by normal packed monomial over a positive denominator, not
    necessarily reduced: every product term joins one set of numerators
    over the least common denominator, normalized once."""
    memo = ring._memo
    cutoff = ring.cutoff
    if len(pairs) == 1:
        [((_, a_den), (_, b_den))] = pairs
        den = a_den * b_den
    else:
        den = lcm(*(a_den * b_den for (_, a_den), (_, b_den) in pairs))
    num: Numerators = {}
    for (a, a_den), (b, b_den) in pairs:
        scale = den // (a_den * b_den)
        if len(b) == 1 and 0 in b:
            a, b = b, a
        if len(a) == 1 and 0 in a:
            # A constant factor scales the other's numerators: no product.
            scale *= a[0]
            for m, c in b.items():
                num[m] = num.get(m, 0) + scale * c
            continue
        # The right factor's terms by ascending degree, so the inner loop
        # stops at the first product above the cutoff.
        right = sorted(((memo[m][0], m, c) for m, c in b.items()), key=itemgetter(0))
        for ma, ca in a.items():
            room = cutoff - memo[ma][0]
            ca *= scale
            for degree, mb, cb in right:
                if degree > room:
                    break
                prod = ma + mb
                num[prod] = num.get(prod, 0) + ca * cb
    return ring._expand(num, den)


def format_monomial(factors: Iterable[tuple[str, int]]) -> str:
    """``D1^2*H`` from (name, exponent) factors, printed as entered."""
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in factors)


def format_terms(terms: Iterable[tuple[str, str]]) -> str:
    """A polynomial from (``str(Fraction)``, :func:`format_monomial`) text
    pairs, in the given order: ``-1/2*D1^2 + D2 - 3``; ``0`` when there are
    none.  A non-constant term drops a unit coefficient."""
    text = ""
    for coeff, mono in terms:
        negative = coeff.startswith("-")
        magnitude = coeff[1:] if negative else coeff
        if not mono:
            body = magnitude
        elif magnitude == "1":
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        if text:
            text += f" - {body}" if negative else f" + {body}"
        else:
            text = f"-{body}" if negative else body
    return text or "0"


def exp_nilpotent(a: RingElement) -> RingElement:
    """Exponential sum(a^k / k!) of an element with vanishing degree-0 part.

    Finite because a^k has degree at least k, which exceeds the cutoff for
    large k.  The series is that of :func:`_exp_sum`, seeded with 1.
    Satisfies exp(a) * exp(b) = exp(a + b).
    """
    if 0 in a._num:
        raise ValueError("exp_nilpotent requires a vanishing degree-0 part")
    ring = a.ring
    if not a._num:
        return ring.one()
    memo, den = ring._memo, a._den
    twist = [(m, memo[m][0], c, den) for m, c in a._num.items()]
    return RingElement._make(ring, *_exp_sum(ring, [(_UNIT, 1, twist, den)]))


def _twisted_sum(
    ring: GradedRing,
    pairs: Iterable[tuple[NormalForm, Iterable[tuple[str, Rational]]]],
) -> NormalForm:
    """Canonical form of sum x * exp(sum w * G) over (x, twist) pairs: x a
    form over any packed monomials at or below the cutoff, the twist
    (generator name, weight) pairs, read from the names without an element
    of its own; zero weights are skipped."""
    fields = ring._fields
    summands = []
    for (num, den), weights in pairs:
        twist = []
        twist_den = 1
        for name, w in weights:
            if w:
                shift, step = fields[name]
                d = w.denominator
                twist.append((1 << shift, step, w.numerator, d))
                if twist_den % d:
                    twist_den *= d // gcd(twist_den, d)
        summands.append((num, den, twist, twist_den))
    return _exp_sum(ring, summands)


def _exp_sum(
    ring: GradedRing,
    summands: Sequence[
        tuple[Numerators, int, Sequence[tuple[int, int, int, int]], int]
    ],
) -> NormalForm:
    """Canonical form of sum x * exp(t) over summands (x numerators, x
    denominator, t terms, den), t = sum_i c_i m_i / d_i from terms (m_i,
    degree of m_i >= 1, c_i, d_i), each d_i dividing den, in one integer
    expansion; x may hold any monomials at or below the cutoff.

    For each summand one dict per degree holds numerators over
    x_den * den^top * top!, top = cutoff, seeded with x's numerators times
    den^top * top!, each in the layer of the degree that ``_entry`` reads.
    Each twist term then multiplies its series in: an entry v at m adds
    v c_i^k / (d_i^k k!) at m + k m_i for each k within the cutoff, as
    v * c_i // (d_i * k).  That is exact, since every summand at degree e
    is a seed times c_1^k_1... / (d_1^k_1 k_1!...) with K = k_1 + ... <= e,
    and d_1^k_1... divides den^K.  Entries merge by monomial, which bounds
    the work by terms x monomials x (cutoff + 1).  Every summand's entries,
    normal or not, then join one set of numerators over the lcm of the
    summands' denominators, which one ``_expand`` normalizes."""
    memo = ring._memo
    entry = ring._entry
    cutoff = ring.cutoff
    degrees = range(cutoff + 1)
    fact = factorial(cutoff)
    # Each summand's own denominator x_den * den^top, and their lcm.
    owns = [x_den * den**cutoff for _, x_den, _, den in summands]
    total = lcm(*owns)
    num: Numerators = {}
    for (x, x_den, twist, den), own in zip(summands, owns):
        scale = own // x_den * fact
        layers: list[Numerators] = [{} for _ in degrees]
        for m, c in x.items():
            layers[(memo.get(m) or entry(m))[0]][m] = c * scale
        for mono, step, c, d in twist:
            # Top layer first, so that no entry spawned by this term spawns
            # again.
            for degree in range(cutoff - step, -1, -1):
                chain = range(degree + step, cutoff + 1, step)
                for m, value in layers[degree].items():
                    for k, grown in enumerate(chain, 1):
                        m += mono
                        value = value * c // (d * k)
                        layers[grown][m] = layers[grown].get(m, 0) + value
        lift = total // own
        for layer in layers:
            for m, value in layer.items():
                num[m] = num.get(m, 0) + value * lift
    return ring._expand(num, total * fact)


def _graded_numerators(x: RingElement, top: int) -> list[Numerators]:
    """x's numerators over its denominator by degree 0..top, in one pass."""
    parts: list[Numerators] = [{} for _ in range(top + 1)]
    memo = x.ring._memo
    for m, c in x._num.items():
        if memo[m][0] <= top:
            parts[memo[m][0]][m] = c
    return parts


def _conjugate_character(ch: RingElement) -> RingElement:
    """The character of the dual class: negating every Chern root flips
    the sign of the odd graded parts."""
    memo = ch.ring._memo
    num = {m: -c if memo[m][0] % 2 else c for m, c in ch._num.items()}
    return RingElement._make(ch.ring, num, ch._den)


def chern_from_character(character: RingElement, rank: int) -> tuple[RingElement, ...]:
    """Chern classes c_0..c_rank of a rank-``rank`` Chern character.

    With s_i = (-1)^(i+1) i! ch_i, Newton's identities read
    k c_k = c_0 s_k + c_1 s_(k-1) + ... + c_(k-1) s_1, one sum of products
    per class.  Classes above the ring cutoff come back as zero.
    """
    rank = _positive_integer(rank)
    if rank is None:
        raise ValueError("rank must be a positive integer")
    ring, den = character.ring, character._den
    top = min(rank, ring.cutoff)
    parts = _graded_numerators(character, top)
    if parts[0] != {0: rank * den}:
        raise ValueError("character part 0 must equal the rank")
    s: list[NormalForm] = [({}, 1)]
    forms: list[NormalForm] = [({0: 1}, 1)]
    for k in range(1, top + 1):
        factor = (-1) ** (k + 1) * factorial(k)
        s.append(({m: c * factor for m, c in parts[k].items()}, den))
        num, total = _sum_of_products(ring, [(forms[j], s[k - j]) for j in range(k)])
        forms.append(_canonical(num, total * k))
    classes = tuple(RingElement._make(ring, *form) for form in forms)
    return classes + (ring.zero(),) * (rank - top)


def character_from_chern(total_chern: RingElement, rank: int) -> RingElement:
    """Chern character of a rank-``rank`` bundle with the given total Chern
    class; its degree-0 part is the rank.

    The one check of a total Chern class: its degree-0 part must be 1 and
    its parts above min(rank, cutoff) must vanish.  Inverse of
    :func:`chern_from_character` up to the degree cutoff: Newton's
    identities solved for s_k = (-1)^(k+1) k! ch_k give
    s_k = k c_k - c_1 s_(k-1) - ... - c_(k-1) s_1.
    """
    rank = _positive_integer(rank)
    if rank is None:
        raise ValueError("bundle rank must be at least 1")
    ring, den = total_chern.ring, total_chern._den
    parts = _graded_numerators(total_chern, ring.cutoff)
    if parts[0] != {0: den}:
        raise ValueError("total Chern class must have degree-0 part 1")
    for k in range(rank + 1, ring.cutoff + 1):
        if parts[k]:
            raise ValueError(
                f"Chern part of degree {k} exceeds the bundle rank {rank}"
            )
    # The forms of -c_k, so that each step is one plain sum of products.
    minus = [({m: -c for m, c in part.items()}, den) for part in parts]
    s: list[NormalForm] = [({}, 1)]
    character = [(({0: rank}, 1), ({0: 1}, 1))]
    for k in range(1, ring.cutoff + 1):
        pairs = [(minus[j], s[k - j]) for j in range(1, min(k - 1, rank) + 1)]
        if k <= rank:
            pairs.append((minus[k], ({0: -k}, 1)))
        s.append(_sum_of_products(ring, pairs))
        character.append((s[k], ({0: (-1) ** (k + 1)}, factorial(k))))
    return RingElement._make(ring, *_sum_of_products(ring, character))
