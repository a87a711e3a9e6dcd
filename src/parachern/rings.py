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
divisibility is one subtraction.  One reader packs every monomial on the
way in: `GradedRing.element` reads named terms, (coefficient, (name,
exponent) factors) pairs, and `RingElement(ring, terms)` hands it each
exponent tuple as named factors.  Each factor adds its exponent into its
field and its degree into the term's degree in one pass; a term above the
cutoff is dropped once all its factors are checked.  Monomials are
unpacked on the way out.

An element stores exact integer numerators over one positive denominator
per element, reduced so that their gcd is 1.  `fractions.Fraction` appears
only at the API: in rule coefficients, scalar operands, the coefficients
that `terms` and `sorted_terms` hand out, and any `Fraction` coefficient
handed to the reader, which reads its numerator and denominator and builds
no second one; an int stays an int, and any other number becomes one
`Fraction`.  `format_terms` prints text that `printed_terms` writes from
integer numerators.  Each ring memoizes the normal form and the text of
every monomial it meets, so reduction runs once per monomial and ring
rather than once per product.  Every product, sum of products and exp is
one integer expansion, normalized once.  Nothing here touches floating
point.

The Newton bridge between a total Chern class and a Chern character takes
and returns whole elements and splits graded parts itself;
:func:`character_from_chern` is the one place a total Chern class is
checked.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import itemgetter
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


class Record:
    """Base of the package's immutable records.

    ``__slots__`` names a record's fields (a name starting with ``__``,
    such as ``__weakref__``, is not a field), and its own ``__init__``
    assigns each one through ``object.__setattr__``: assignment and
    deletion on an instance raise ``AttributeError``.  Two records of one
    class are equal, and hash equal, when their fields are, all but
    ``pos``, the source position of a scene AST node.  A model class that
    compares by identity restores ``object``'s ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()

    def _fields(self) -> list[str]:
        return [name for name in self.__slots__ if not name.startswith("__")]

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields() if name != "pos")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _as_exponent_items(spec: MonoSpec) -> Iterable[tuple[str, int]]:
    if isinstance(spec, Mapping):
        return spec.items()
    return spec


def _over_common_denominator(coeffs: Mapping[int, Fraction]) -> NormalForm:
    """Integer numerators over the least common denominator."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}, den


def _canonical(num: Numerators, den: int) -> NormalForm:
    """Drop zero numerators and divide out the common gcd with ``den``."""
    if 0 in num.values():
        num = {m: c for m, c in num.items() if c}
    if not num:
        return num, 1
    g = gcd(den, *num.values())
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
    written, for a term of the wrong degree or with an unknown generator.
    A rule above the cutoff holds identically and keeps no row.

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
            if int(degree) < 1:
                raise InputError("class degree must be at least 1", *at)
            names.append(name)
            degrees.append(int(degree))
        if int(cutoff) < 1:
            raise ValueError("cutoff must be a positive integer")
        self._names = tuple(names)
        self._degrees = tuple(degrees)
        self._index = {name: i for i, name in enumerate(names)}
        self.cutoff = int(cutoff)
        width = self._width = self.cutoff.bit_length() + 1
        self._shifts = tuple(width * i for i in reversed(range(len(names))))
        # Generator name -> (field shift, degree), for the one-pass reader.
        self._fields = dict(zip(names, zip(self._shifts, degrees)))
        self._mask = (1 << width) - 1
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

        def rule_monomial(spec: MonoSpec, *at: int) -> Monomial:
            try:
                return self.monomial(spec)
            except KeyError as exc:
                raise InputError(exc.args[0], "rules", *at) from None

        for idx, (lhs_spec, rhs_terms) in enumerate(rules):
            lhs = rule_monomial(lhs_spec, idx)
            if not any(lhs):
                raise InputError(
                    "rule left side must be a non-constant monomial", "rules", idx
                )
            lhs_degree = self.monomial_degree(lhs)
            row = {lhs: Fraction(1)}
            for term, (coeff, mono_spec) in enumerate(rhs_terms):
                coeff = Fraction(coeff)
                if not coeff:
                    continue
                mono = rule_monomial(mono_spec, idx, term)
                if self.monomial_degree(mono) != lhs_degree:
                    raise InputError(
                        "relation is not degree-homogeneous", "rules", idx, term
                    )
                row[mono] = row.get(mono, 0) - coeff
            if lhs_degree <= self.cutoff:
                row = {self._pack(m): c for m, c in row.items() if c}
                if row:
                    self._relations.append(_over_common_denominator(row)[0])

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

    def monomial(self, spec: MonoSpec) -> Monomial:
        """Canonical exponent tuple for a {name: exponent} mapping."""
        exps = [0] * len(self._names)
        for name, exp in _as_exponent_items(spec):
            if name not in self._index:
                raise KeyError(f"unknown generator {name!r}")
            if int(exp) < 0:
                raise ValueError("exponents must be non-negative")
            exps[self._index[name]] += int(exp)
        return tuple(exps)

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
                    if self._entry(self._pack(mono), degree)[1] is None:
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
        """Canonical form of named terms, read in one pass: each factor adds
        its exponent's field and degree, a term above the cutoff is dropped
        once all its factors are checked, and each coefficient's numerator
        joins the others over a running common denominator, split into
        normal and pending monomials at its known degree as
        :func:`sum_of_products` splits them."""
        fields = self._fields
        cutoff = self.cutoff
        memo = self._memo
        entry = self._entry
        num: Numerators = {}
        pending: Numerators = {}
        den = 1
        for coeff, spec in terms:
            packed = degree = 0
            for name, exp in spec.items() if isinstance(spec, Mapping) else spec:
                field = fields.get(name)
                if field is None:
                    raise KeyError(f"unknown generator {name!r}")
                exp = int(exp)
                if exp < 0:
                    raise ValueError("exponents must be non-negative")
                # A term at or below the cutoff has no exponent that
                # reaches its field's guard bit.
                packed += exp << field[0]
                degree += exp * field[1]
            if not isinstance(coeff, (int, Fraction)):
                coeff = Fraction(coeff)
            if degree > cutoff:
                continue
            d = coeff.denominator
            if den % d:
                scale = d // gcd(den, d)
                for part in (num, pending):
                    for m in part:
                        part[m] *= scale
                den *= scale
            form = (memo.get(packed) or entry(packed, degree))[1]
            target = num if form is None else pending
            target[packed] = target.get(packed, 0) + coeff.numerator * (den // d)
        return self._expand(num, den, pending)

    def _entry(self, mono: int, degree: int) -> tuple[int, Optional[NormalForm]]:
        """Degree and normal form of a packed monomial of that degree at or
        below the cutoff; the form is None when the monomial is normal.
        Fills the memo on first use.  A monomial that no relation term
        divides lies in no row, so it is normal without a block reduced."""
        entry = self._memo.get(mono)
        if entry is None:
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
            memo[leader] = (degree, self._rewrite(tail, abs(lead)))

    def _expand(self, num: Numerators, den: int, pending: Numerators) -> NormalForm:
        """Canonical form of (num + normal forms of the pending monomials)
        / den.  ``num`` holds normal monomials only and may be consumed;
        every pending monomial is memoized."""
        if pending:
            forms = [(self._memo[m][1], c) for m, c in pending.items()]
            scale = lcm(*(form_den for (_, form_den), _ in forms))
            if scale != 1:
                num = {m: c * scale for m, c in num.items()}
                den *= scale
            for (form_num, form_den), c in forms:
                c *= scale // form_den
                for m, fc in form_num.items():
                    num[m] = num.get(m, 0) + c * fc
        return _canonical(num, den)

    def _rewrite(self, num: Numerators, den: int) -> NormalForm:
        """Canonical form of ``num / den`` over any packed monomials at or
        below the cutoff."""
        normal: Numerators = {}
        pending: Numerators = {}
        memo = self._memo
        for mono, c in num.items():
            form = (
                memo.get(mono)
                or self._entry(mono, self.monomial_degree(self._unpack(mono)))
            )[1]
            (normal if form is None else pending)[mono] = c
        return self._expand(normal, den, pending)

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self._names, self._degrees))
        count = len(self._relations)
        return f"GradedRing([{gens}], cutoff={self.cutoff}, relations={count})"


class _Terms(Mapping):
    """Read-only view of an element's terms by exponent tuple; unpacks each
    key and builds each ``Fraction`` on access."""

    __slots__ = ("_ring", "_num", "_den")

    def __init__(self, ring: GradedRing, num: Numerators, den: int):
        self._ring = ring
        self._num = num
        self._den = den

    def __getitem__(self, mono: Monomial) -> Fraction:
        packed = self._ring._pack(mono)
        if self._ring._unpack(packed) != mono:
            raise KeyError(mono)
        return Fraction(self._num[packed], self._den)

    def __iter__(self):
        return map(self._ring._unpack, self._num)

    def __len__(self) -> int:
        return len(self._num)


class RingElement:
    """A normalized element of a :class:`GradedRing`.

    Immutable after construction; equality is exact equality of term maps
    within the same ring.  Arithmetic accepts ``int`` and ``Fraction``
    scalars on either side.  Constructed from a map of exponent tuples to
    coefficients, read by the ring's one reader; terms above the cutoff are
    dropped, and a tuple with the wrong number of exponents or a negative
    one raises ``ValueError``.

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

        self._set(ring, *ring._read(named()))

    def _set(self, ring: GradedRing, num: Numerators, den: int):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, ring: GradedRing, num: Numerators, den: int) -> RingElement:
        """An element from numerators and a denominator already in
        canonical form."""
        element = object.__new__(cls)
        element._set(ring, num, den)
        return element

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return _Terms(self.ring, self._num, self._den)

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
        memo = ring._memo
        picked = {m: c for m, c in self._num.items() if memo[m][0] == k}
        return RingElement._make(ring, *_canonical(picked, self._den))

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
        if isinstance(other, (int, Fraction)):
            num = {m: c * other.numerator for m, c in self._num.items()}
            return RingElement._make(
                self.ring, *_canonical(num, self._den * other.denominator)
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sum_of_products([(self, o)])

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
        if isinstance(other, (int, Fraction)):
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


def sum_of_products(pairs: Sequence[tuple[RingElement, RingElement]]) -> RingElement:
    """The sum of a * b over a non-empty sequence of (a, b) pairs of one
    ring: every product term is added into one set of integer numerators
    over the least common denominator, and the sum is normalized once."""
    ring = pairs[0][0].ring
    for a, b in pairs:
        if a.ring is not ring or b.ring is not ring:
            raise RingMismatchError("elements belong to different rings")
    memo = ring._memo
    entry = ring._entry
    cutoff = ring.cutoff
    den = lcm(*(a._den * b._den for a, b in pairs))
    num: Numerators = {}
    pending: Numerators = {}
    for a, b in pairs:
        scale = den // (a._den * b._den)
        # The right factor's terms by ascending degree, so the inner loop
        # stops at the first product above the cutoff.
        right = sorted(
            ((memo[m][0], m, c) for m, c in b._num.items()), key=itemgetter(0)
        )
        for ma, ca in a._num.items():
            start = memo[ma][0]
            room = cutoff - start
            ca *= scale
            for degree, mb, cb in right:
                if degree > room:
                    break
                prod = ma + mb
                form = (memo.get(prod) or entry(prod, start + degree))[1]
                target = num if form is None else pending
                target[prod] = target.get(prod, 0) + ca * cb
    return RingElement._make(ring, *ring._expand(num, den, pending))


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
    large k.  For a = sum_i c_i m_i / den, one dict per degree holds
    numerators over den^top * top!, top = cutoff, and each term multiplies
    its series in: an entry v at m adds v c_i^k / (den^k k!) at m + k m_i
    for each k within the cutoff, as v * c_i // (den * k).  That is exact,
    since every summand at degree e is c^k_1... den^(top - K) top! / k_1!...
    with K = k_1 + ... <= e.  Entries merge by monomial, which bounds the
    work by terms x monomials x (cutoff + 1).  Satisfies
    exp(a) * exp(b) = exp(a + b).
    """
    if 0 in a._num:
        raise ValueError("exp_nilpotent requires a vanishing degree-0 part")
    ring = a.ring
    memo = ring._memo
    cutoff = ring.cutoff
    den = a._den
    scale = den**cutoff * factorial(cutoff)
    layers: list[Numerators] = [{} for _ in range(cutoff + 1)]
    layers[0][0] = scale
    for mono, c in a._num.items():
        step = memo[mono][0]
        # Top layer first, so that no entry spawned by this term spawns again.
        for degree in range(cutoff - step, -1, -1):
            for m, value in layers[degree].items():
                for k, grown in enumerate(range(degree + step, cutoff + 1, step), 1):
                    m += mono
                    value = value * c // (den * k)
                    layers[grown][m] = layers[grown].get(m, 0) + value
    num: Numerators = {}
    pending: Numerators = {}
    for degree, layer in enumerate(layers):
        for m, value in layer.items():
            form = (memo.get(m) or ring._entry(m, degree))[1]
            (num if form is None else pending)[m] = value
    return RingElement._make(ring, *ring._expand(num, scale, pending))


def chern_from_character(character: RingElement, rank: int) -> tuple[RingElement, ...]:
    """Chern classes c_0..c_rank of a rank-``rank`` Chern character.

    With s_i = (-1)^(i+1) i! ch_i, Newton's identities read
    k c_k = c_0 s_k + c_1 s_(k-1) + ... + c_(k-1) s_1, one sum of products
    per class.  Classes above the ring cutoff come back as zero.
    """
    if int(rank) < 1:
        raise ValueError("rank must be a positive integer")
    rank = int(rank)
    ring = character.ring
    if character.graded_part(0) != ring.scalar(rank):
        raise ValueError("character part 0 must equal the rank")
    top = min(rank, ring.cutoff)
    s = [ring.zero()]
    s.extend(
        character.graded_part(k) * ((-1) ** (k + 1) * factorial(k))
        for k in range(1, top + 1)
    )
    classes = [ring.one()]
    for k in range(1, top + 1):
        total = sum_of_products([(classes[j], s[k - j]) for j in range(k)])
        classes.append(total * Fraction(1, k))
    classes.extend(ring.zero() for _ in range(rank - top))
    return tuple(classes)


def character_from_chern(total_chern: RingElement, rank: int) -> RingElement:
    """Chern character of a rank-``rank`` bundle with the given total Chern
    class; its degree-0 part is the rank.

    The one check of a total Chern class: its degree-0 part must be 1 and
    its parts above min(rank, cutoff) must vanish.  Inverse of
    :func:`chern_from_character` up to the degree cutoff: Newton's
    identities solved for s_k = (-1)^(k+1) k! ch_k give
    s_k = k c_k - c_1 s_(k-1) - ... - c_(k-1) s_1.
    """
    if int(rank) < 1:
        raise ValueError("bundle rank must be at least 1")
    rank = int(rank)
    ring = total_chern.ring
    chern = [total_chern.graded_part(k) for k in range(ring.cutoff + 1)]
    if chern[0] != ring.one():
        raise ValueError("total Chern class must have degree-0 part 1")
    for k in range(rank + 1, ring.cutoff + 1):
        if not chern[k].is_zero:
            raise ValueError(
                f"Chern part of degree {k} exceeds the bundle rank {rank}"
            )
    s = [ring.zero()]
    character = [(ring.one(), ring.scalar(rank))]
    for k in range(1, ring.cutoff + 1):
        pairs = [(-chern[j], s[k - j]) for j in range(1, min(k - 1, rank) + 1)]
        if k <= rank:
            pairs.append((chern[k], ring.scalar(k)))
        s.append(sum_of_products(pairs))
        character.append((s[k], ring.scalar(Fraction((-1) ** (k + 1), factorial(k)))))
    return sum_of_products(character)
