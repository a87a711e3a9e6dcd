from fractions import Fraction
from itertools import product, takewhile
from math import comb, factorial, gcd, lcm

import time
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from parachern.cli import _class_report
from parachern.chow import Variety, make_cover
from parachern.rings import (
    GradedRing,
    RingElement,
    InputError,
    RingMismatchError,
    _conjugate_character,
    _twisted_sum,
    character_from_chern,
    chern_from_character,
    exp_nilpotent,
    format_monomial,
    format_terms,
    sum_of_products,
)
from proj_bundle_oracle import pushdown


def surface_ring():
    # Two divisors with disjoint supports plus one extra degree-1 class.
    return GradedRing(
        [("D1", 1), ("D2", 1), ("H", 1)],
        cutoff=2,
        rules=[({"D1": 1, "D2": 1}, [])],
    )


def plain_surface():
    return GradedRing([("D1", 1)], cutoff=2)


def chain_ring():
    # Rule coefficients are fractions; A^2 rewrites in two steps.
    return GradedRing(
        [("A", 1), ("B", 1), ("C", 1)],
        cutoff=2,
        rules=[
            ({"A": 2}, [(2, {"B": 2})]),
            ({"B": 2}, [(Fraction(1, 2), {"C": 2})]),
        ],
    )


def deep_variety():
    # The shape of the large generated scenes: dim 5, four divisors and H.
    return Variety(
        5,
        ("D1", "D2", "D3", "D4"),
        (("H", 1),),
        relations=(({"D1": 1, "D2": 1}, [(2, {"H": 2})]),),
    )


def deep_ring():
    return deep_variety().ring


def dense_ring():
    # One relation D6^2 = sum of Di*Dj over i < j < 6: the block of
    # D1*D2*D3*D4 holds 81 of the 126 degree-4 monomials and 16 pivots.
    names = [f"D{i}" for i in range(1, 7)]
    pairs = [
        (1, {a: 1, b: 1}) for i, a in enumerate(names[:5]) for b in names[i + 1 : 5]
    ]
    return GradedRing([(n, 1) for n in names], cutoff=4, rules=[({"D6": 2}, pairs)])


def class_ring():
    # K has degree 2, so exp(c*K) stops at K^2; D1^2 = K makes the powers
    # of D1 non-normal.
    return GradedRing(
        [("D1", 1), ("D2", 1), ("K", 2)],
        cutoff=4,
        rules=[({"D1": 2}, [(1, {"K": 1})])],
    )


@pytest.fixture(scope="module")
def ring():
    return surface_ring()


def elements(ring):
    monos = []
    for degree in range(ring.cutoff + 1):
        monos.extend(ring.basis_monomials(degree))
    coeff = st.integers(min_value=-4, max_value=4).map(Fraction)
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=5).map(
        lambda terms: RingElement(ring, terms)
    )


# --- plain arithmetic -------------------------------------------------------


def test_add_linearity(ring):
    d1 = ring.generator("D1")
    assert d1 + 2 * d1 == 3 * d1
    assert d1 + (-d1) == ring.zero()
    assert (1 + d1) + d1 ** 2 == ring.one() + d1 + d1 ** 2


def test_mul_truncation_and_rules(ring):
    d1, d2 = ring.generator("D1"), ring.generator("D2")
    assert d1 * d1 == RingElement(ring, {(2, 0, 0): 1})
    assert (d1 * d2).is_zero
    assert (d1 * d1 ** 2).is_zero  # degree 3 > cutoff 2


def test_ring_mismatch():
    a = surface_ring().generator("D1")
    b = surface_ring().generator("D1")
    with pytest.raises(RingMismatchError):
        a + b


def test_graded_part(ring):
    d1 = ring.generator("D1")
    a = 1 + d1 + Fraction(5, 18) * d1 ** 2
    assert a.graded_part(2) == Fraction(5, 18) * d1 ** 2
    assert a.graded_part(0) == ring.one()
    assert d1.graded_part(2).is_zero
    with pytest.raises(ValueError):
        a.graded_part(3)
    with pytest.raises(ValueError):
        a.graded_part(-1)


def test_string_form(ring):
    d1, d2 = ring.generator("D1"), ring.generator("D2")
    assert str(ring.zero()) == "0"
    assert str(1 + d1 - Fraction(2, 9) * d2 ** 2) == "1 + D1 - 2/9*D2^2"


# --- named terms: the reader and the printer ----------------------------------


def test_element_reads_named_terms(ring):
    d1, d2, h = (ring.generator(n) for n in ("D1", "D2", "H"))
    assert ring.generator("H") == ring.element([(1, {"H": 1})])
    # Repeated monomials add up, as mappings or as factor pairs.
    repeated = ring.element(
        [(1, {"D1": 1}), (Fraction(1, 2), [("D1", 1)]), (2, {"H": 2})]
    )
    assert repeated == Fraction(3, 2) * d1 + 2 * h ** 2
    assert ring.element([(1, [("D1", 1), ("D2", 0), ("D1", 1)])]) == d1 ** 2
    # Zero coefficients and cancelling terms vanish.
    assert ring.element([(0, {"H": 1}), (3, {"D2": 1})]) == 3 * d2
    cancelled = ring.element([(2, {"D1": 1}), (-2, {"D1": 1})])
    assert cancelled.is_zero and cancelled._den == 1
    assert ring.element([]).is_zero
    # A monomial that a relation kills comes back reduced, and monomials
    # above the cutoff drop.
    assert ring.element([(5, {"D1": 1, "D2": 1}), (1, {"H": 1})]) == h
    assert ring.element([(1, {"D1": 3}), (4, [("H", 1), ("H", 2)])]).is_zero
    with pytest.raises(KeyError, match="unknown generator 'Q'"):
        ring.element([(1, {"Q": 1})])


def test_every_term_is_checked_before_the_cutoff_drops_it(ring):
    # D1^3 lies above the cutoff 2, yet its other factors are still read.
    with pytest.raises(KeyError, match="unknown generator 'Q'"):
        ring.element([(1, {"D1": 3, "Q": 1})])
    with pytest.raises(KeyError, match="unknown generator 'Q'"):
        ring.element([(0, [("Q", 5)])])
    with pytest.raises(ValueError, match="non-negative"):
        ring.element([(1, [("D1", 3), ("H", -1)])])


@pytest.mark.parametrize(
    "factors",
    [
        [("Q", 1)],
        [("D1", 1), ("Q", 0)],
        [("D1", -1)],
        [("D1", 3), ("H", -2)],
        {"Q": -1},
        [("D1", -1), ("Q", 1)],
    ],
)
def test_both_factor_readers_reject_bad_factors_alike(ring, factors):
    # Rule monomials, integral monomials and named terms all come in through
    # one reader, and each door gives the same message.  The rule and
    # integral doors raise it as an ``InputError`` at the offending value.
    with pytest.raises((KeyError, ValueError)) as by_element:
        ring.element([(1, factors)])
    message = by_element.value.args[0]
    generators = [("D1", 1), ("D2", 1), ("H", 1)]
    for rules, path in (
        ([(factors, [])], ("rules", 0)),
        ([({"D1": 2}, [(1, factors)])], ("rules", 0, 0)),
    ):
        with pytest.raises(InputError) as by_rule:
            GradedRing(generators, 2, rules=rules)
        assert (by_rule.value.args[0], by_rule.value.path) == (message, path)
    with pytest.raises(InputError) as by_integral:
        Variety(2, ("D1", "D2"), (("H", 1),), integrals=[(factors, 1)])
    assert by_integral.value.args[0] == message
    assert by_integral.value.path == ("integrals", 0)


def test_rules_above_the_cutoff_may_overflow_their_fields():
    # With cutoff 2 each exponent field is 3 bits wide: exponents 4 to 7
    # reach its guard bit and 8 or more carry into the next field.  Only the
    # degree of a rule above the cutoff is read, and it keeps no row.
    generators = [("D1", 1), ("D2", 1)]
    for lhs, rhs in (({"D1": 5, "D2": 3}, {"D1": 4, "D2": 4}), ({"D1": 8}, {"D2": 8})):
        ring = GradedRing(generators, 2, rules=[(lhs, [(1, rhs)])])
        assert ring._relations == []
        assert len(ring.basis_monomials(2)) == 3
    with pytest.raises(InputError, match="not degree-homogeneous") as raised:
        GradedRing(generators, 2, rules=[({"D1": 9}, [(1, {"D2": 8})])])
    assert raised.value.path == ("rules", 0, 0)
    for rule, path in (
        (({"D1": 9, "Q": 1}, []), ("rules", 0)),
        (({"D1": 9}, [(1, {"D1": 8, "Q": 1})]), ("rules", 0, 0)),
    ):
        with pytest.raises(InputError, match="unknown generator 'Q'") as raised:
            GradedRing(generators, 2, rules=[rule])
        assert raised.value.path == path


@pytest.mark.parametrize(
    "mono, message",
    [
        ((1, -1), "non-negative"),
        ((1,), "one exponent per generator"),
        ((1, 0, 5), "one exponent per generator"),
        ((0, -1), "non-negative"),
    ],
)
def test_constructor_rejects_malformed_exponent_tuples(mono, message):
    ring = GradedRing([("A", 1), ("B", 1)], 3)
    with pytest.raises(ValueError, match=message):
        RingElement(ring, {mono: 1})


def test_element_reduces_through_relations():
    # A^2 = 2*B^2 and B^2 = 1/2*C^2, so A^2 + A*B reads back as C^2 + A*B.
    ring = chain_ring()
    a, b, c = (ring.generator(n) for n in ("A", "B", "C"))
    x = ring.element([(1, {"A": 2}), (1, {"A": 1, "B": 1})])
    assert x == c ** 2 + a * b
    assert dict(x.terms) == {(0, 0, 2): 1, (1, 1, 0): 1}
    assert_canonical(x)


def test_named_terms_follow_sort_key(ring):
    d1, d2, h = (ring.generator(n) for n in ("D1", "D2", "H"))
    x = h * d2 - Fraction(2, 9) * d1 ** 2 + 3 + d2
    assert x.printed_terms() == [
        ("3", (), ""),
        ("1", (("D2", 1),), "D2"),
        ("-2/9", (("D1", 2),), "D1^2"),
        ("1", (("D2", 1), ("H", 1)), "D2*H"),
    ]
    printed = [(c, text) for c, _, text in x.printed_terms()]
    assert str(x) == format_terms(printed) == "3 + D2 - 2/9*D1^2 + D2*H"
    assert ring.zero().printed_terms() == []
    # The coefficients and factors read back as named terms.
    assert ring.element((Fraction(c), f) for c, f, _ in x.printed_terms()) == x


def test_format_terms():
    assert format_terms([]) == "0"
    # A negative first term takes a bare minus sign; later ones a spaced one.
    terms = [("-1/2", "D1^2"), ("1", "D2"), ("-3", "")]
    assert format_terms(terms) == "-1/2*D1^2 + D2 - 3"
    # Unit coefficients are dropped from monomials but kept on constants.
    assert format_terms([("-1", "D1*H"), ("1", "")]) == "-D1*H + 1"
    assert format_terms([("1", "")]) == "1"
    assert format_terms([("-1", "")]) == "-1"
    assert format_terms([("2/3", "")]) == "2/3"
    assert format_terms([("0", "D1"), ("0", "")]) == "0*D1 + 0"
    # Factors print as given, zero exponents and repeats included.
    assert format_monomial([("D1", 1), ("D2", 0), ("D1", 1)]) == "D1*D2^0*D1"
    assert format_monomial([("D1", 2), ("H", 1)]) == "D1^2*H"
    assert format_monomial([]) == ""


# --- rewrite rules ----------------------------------------------------------


def test_rule_must_be_homogeneous():
    with pytest.raises(InputError) as err:
        GradedRing([("D1", 1)], cutoff=2, rules=[({"D1": 2}, [(1, {"D1": 1})])])
    assert str(err.value) == "relation is not degree-homogeneous"
    assert err.value.path == ("rules", 0, 0)
    # Terms are counted as given, zero coefficients included.
    with pytest.raises(InputError) as err:
        GradedRing(
            [("D1", 1), ("D2", 1)],
            cutoff=2,
            rules=[
                ({"D1": 2}, [(0, {"D2": 2}), (3, {"D2": 1})]),
                ({"D2": 2}, [(1, {"D1": 1})]),
            ],
        )
    assert err.value.path == ("rules", 0, 1)


def test_generator_checks():
    with pytest.raises(InputError) as err:
        GradedRing([("A", 1), ("B", 2), ("A", 1)], cutoff=2)
    assert str(err.value) == "duplicate generator name 'A'"
    assert err.value.path == ("generators", 2)
    with pytest.raises(InputError) as err:
        GradedRing([("A", 1), ("B", 0)], cutoff=2)
    assert str(err.value) == "class degree must be at least 1"
    assert err.value.path == ("generators", 1)
    with pytest.raises(InputError) as err:
        GradedRing([("A", 1), ("", 1)], cutoff=2)
    assert err.value.path == ("generators", 1)


def test_zero_coefficient_terms_are_skipped():
    # 0*D2 and 0 have the wrong degree but no weight: the rule is D1*D2 = 0.
    ring = GradedRing(
        [("D1", 1), ("D2", 1)],
        cutoff=2,
        rules=[({"D1": 1, "D2": 1}, [(0, {"D2": 1}), (0, {})])],
    )
    assert (ring.generator("D1") * ring.generator("D2")).is_zero
    assert ring.basis_monomials(2) == [(2, 0), (0, 2)]


def test_cyclic_rules_build():
    # As rewrite rules the pair cycles; as relations it is one: A^2 = B^2.
    ring = GradedRing(
        [("A", 1), ("B", 1)],
        cutoff=2,
        rules=[
            ({"A": 2}, [(1, {"B": 2})]),
            ({"B": 2}, [(1, {"A": 2})]),
        ],
    )
    a, b = ring.generator("A"), ring.generator("B")
    assert a ** 2 == b ** 2
    assert ring.basis_monomials(2) == [(1, 1), (0, 2)]


def test_relation_is_read_in_degree_lex_order():
    # Written from the smaller side, the relation still reduces D1*D2.
    ring = GradedRing(
        [("D1", 1), ("D2", 1), ("D3", 1)],
        cutoff=2,
        rules=[({"D3": 2}, [(2, {"D1": 1, "D2": 1})])],
    )
    d1, d2, d3 = (ring.generator(n) for n in ("D1", "D2", "D3"))
    assert d1 * d2 == d3 ** 2 / 2
    assert str(d1 * d2 + d3 ** 2) == "3/2*D3^2"


def test_relation_that_cancels_has_no_effect():
    ring = GradedRing(
        [("D1", 1), ("D2", 1)],
        cutoff=2,
        rules=[({"D1": 1, "D2": 1}, [(1, {"D1": 1, "D2": 1})])],
    )
    assert ring.basis_monomials(2) == [(2, 0), (1, 1), (0, 2)]


def non_confluent_ring():
    return GradedRing(
        [("a", 1), ("b", 1), ("c", 1)],
        cutoff=3,
        rules=[({"a": 1, "b": 1}, [(1, {"c": 2})]), ({"a": 2}, [(1, {"b": 2})])],
    )


def test_non_confluent_rules_give_one_product():
    # Substituting in the order written would give (a*a)*b = b^3 but
    # a*(a*b) = a*c^2.
    ring = non_confluent_ring()
    a, b = ring.generator("a"), ring.generator("b")
    assert (a * a) * b == a * (a * b) == b ** 3


def test_block_fill_stays_local():
    # 60 generators up to degree 8 span billions of monomials; the product
    # must only meet the few that D1*D2 = D3^2 links to its terms.
    names = [f"D{i}" for i in range(1, 61)]
    ring = GradedRing(
        [(n, 1) for n in names],
        cutoff=8,
        rules=[({"D1": 1, "D2": 1}, [(1, {"D3": 2})])],
    )
    d1, d2 = ring.generator("D1"), ring.generator("D2")
    expected = ring.zero()
    for a in range(9):
        m = min(a, 8 - a)
        mono = {"D1": a - m, "D2": 8 - a - m, "D3": 2 * m}
        expected = expected + ring.element([(comb(8, a), mono)])
    assert (d1 + d2) ** 8 == expected
    assert len(ring._memo) < 500


def test_rule_chain_normalizes():
    ring = chain_ring()
    a = ring.generator("A")
    c = ring.generator("C")
    assert a * a == c * c


def test_duplicate_generator_rejected():
    with pytest.raises(ValueError):
        GradedRing([("D1", 1), ("D1", 1)], cutoff=1)


def test_normalization_idempotent(ring):
    raw = {
        (1, 1, 0): Fraction(3),
        (1, 0, 0): Fraction(1, 2),
    }
    once = RingElement(ring, raw)
    twice = RingElement(ring, dict(once.terms))
    assert once == twice


# --- exponential and logarithm ---------------------------------------------


def test_exp_taylor():
    ring = plain_surface()
    d1 = ring.generator("D1")
    assert exp_nilpotent(d1 / 3) == 1 + d1 / 3 + Fraction(1, 18) * d1 ** 2
    assert exp_nilpotent(ring.zero()) == ring.one()
    # exp inverts the truncated logarithm d1 - d1^2/2 of 1 + d1
    assert exp_nilpotent(d1 - d1 ** 2 / 2) == 1 + d1


def test_exp_with_disjoint_divisors(ring):
    # Expanded by hand: the cross term is killed by the D1*D2 rule.
    d1, d2 = ring.generator("D1"), ring.generator("D2")
    expected = (
        1
        + d1 / 2
        + d2 / 2
        + Fraction(1, 8) * d1 ** 2
        + Fraction(1, 8) * d2 ** 2
    )
    assert exp_nilpotent(d1 / 2 + d2 / 2) == expected


def test_exp_work_is_bounded_by_merged_monomials():
    # exp(-log(1 - D)) = 1/(1 - D).  The 60 terms of the argument have
    # hundreds of thousands of unmerged products below degree 60, but only
    # 61 monomials, so the merged expansion is quick.
    ring = GradedRing([("D", 1)], cutoff=60)
    d = ring.generator("D")
    log = sum((d**k / k for k in range(1, 61)), ring.zero())
    started = time.perf_counter()
    result = exp_nilpotent(log)
    elapsed = time.perf_counter() - started
    assert result == sum((d**k for k in range(61)), ring.zero())
    assert elapsed < 5.0, f"exp took {elapsed:.1f}s"


def test_exp_requires_nilpotent(ring):
    with pytest.raises(ValueError):
        exp_nilpotent(ring.one())


@given(st.data())
def test_exp_is_homomorphism(data):
    ring = surface_ring()
    nil = elements(ring).map(lambda a: a - a.graded_part(0))
    a = data.draw(nil)
    b = data.draw(nil)
    assert exp_nilpotent(a + b) == exp_nilpotent(a) * exp_nilpotent(b)


# --- ring axioms (property based) -------------------------------------------


@st.composite
def degree_two_rules(draw):
    """Generators and 1 to 4 random degree-2 relations over 3 or 4
    degree-1 generators, each written from a random side."""
    names = ["A", "B", "C", "D"][: draw(st.integers(min_value=3, max_value=4))]
    monomial = st.lists(st.sampled_from(names), min_size=2, max_size=2).map(
        lambda pair: [(name, 1) for name in pair]
    )
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rule = st.tuples(monomial, st.lists(st.tuples(coeff, monomial), max_size=2))
    rules = draw(st.lists(rule, min_size=1, max_size=4))
    return [(name, 1) for name in names], rules


def axiom_rings():
    fixed = st.sampled_from([surface_ring, non_confluent_ring]).map(lambda f: f())
    drawn = degree_two_rules().map(lambda g: GradedRing(g[0], cutoff=3, rules=g[1]))
    return st.one_of(fixed, drawn)


@given(st.data())
def test_ring_axioms(data):
    ring = data.draw(axiom_rings())
    strat = elements(ring)
    a, b, c = data.draw(strat), data.draw(strat), data.draw(strat)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero() == a
    assert a * ring.one() == a


@settings(max_examples=40, deadline=None)
@given(degree_two_rules())
def test_normal_forms_match_groebner_remainders(generated):
    sympy = pytest.importorskip("sympy")
    generators, rules = generated
    cutoff = 3
    ring = GradedRing(generators, cutoff=cutoff, rules=rules)
    symbols = sympy.symbols([name for name, _ in generators])

    def expr(spec):
        return sympy.Mul(*(symbols[ring.names.index(n)] ** e for n, e in spec))

    relations = [
        expr(lhs) - sum(sympy.Rational(c) * expr(m) for c, m in rhs)
        for lhs, rhs in rules
    ]
    # Grlex over the generators in declaration order is the ring's order.
    monomials = sympy.itermonomials(symbols, cutoff + 1, cutoff + 1)
    basis = sympy.groebner(relations + list(monomials), *symbols, order="grlex")
    for degree in range(cutoff + 1):
        for mono in sympy.itermonomials(symbols, degree, degree):
            exponents = sympy.Poly(mono, *symbols).monoms()[0]
            _, remainder = basis.reduce(mono)
            expected = {
                m: Fraction(int(c.p), int(c.q))
                for m, c in sympy.Poly(remainder, *symbols).terms()
                if c
            }
            assert dict(RingElement(ring, {exponents: 1}).terms) == expected


# --- Chern class / character bridge ----------------------------------------


def threefold_ring():
    # Dimension 3 with a degree-2 generator that A^2 rewrites to.
    return GradedRing(
        [("A", 1), ("B", 1), ("S", 2)],
        cutoff=3,
        rules=[({"A": 2}, [(1, {"S": 1})])],
    )


def test_chern_from_character_rank2():
    # c2 = (c1^2 - 2 ch2) / 2, worked by hand for ch = 2 + D1 + 5/18 D1^2.
    ring = plain_surface()
    d1 = ring.generator("D1")
    classes = chern_from_character(2 + d1 + Fraction(5, 18) * d1 ** 2, 2)
    assert classes == (ring.one(), d1, Fraction(2, 9) * d1 ** 2)


def test_chern_from_character_line_bundle():
    ring = plain_surface()
    d1 = ring.generator("D1")
    ch = 1 + d1 / 2 + d1 ** 2 / 8
    assert chern_from_character(ch, 1) == (ring.one(), d1 / 2)


def test_chern_from_character_trivial():
    ring = plain_surface()
    classes = chern_from_character(ring.scalar(2), 2)
    assert classes == (ring.one(), ring.zero(), ring.zero())


def test_chern_from_character_validates():
    ring = plain_surface()
    d1 = ring.generator("D1")
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        chern_from_character(ring.zero(), 0)
    with pytest.raises(ValueError, match="character part 0 must equal the rank"):
        chern_from_character(3 + d1, 2)


def test_character_from_chern_rank2():
    ring = plain_surface()
    d1 = ring.generator("D1")
    character = character_from_chern(1 + d1 + Fraction(2, 9) * d1 ** 2, 2)
    assert character == 2 + d1 + Fraction(5, 18) * d1 ** 2


def test_character_of_line_bundle_is_exp():
    ring = plain_surface()
    d1 = ring.generator("D1")
    assert character_from_chern(1 + d1, 1) == exp_nilpotent(d1)


def test_character_from_chern_validates():
    ring = plain_surface()
    d1 = ring.generator("D1")
    with pytest.raises(ValueError, match="bundle rank must be at least 1"):
        character_from_chern(ring.one(), 0)
    with pytest.raises(ValueError, match="total Chern class must have degree-0 part 1"):
        character_from_chern(d1, 1)
    with pytest.raises(
        ValueError, match="Chern part of degree 2 exceeds the bundle rank 1"
    ):
        character_from_chern(1 + d1 + d1 ** 2, 1)


def test_newton_bridge_against_root_products():
    # Independent oracle: build split bundles from explicit degree-1 roots,
    # take ch = sum exp(root) and c = prod (1 + root) directly, then check
    # the bridge reproduces the product expansion.
    ring = surface_ring()
    roots = [
        ring.generator("D1"),
        2 * ring.generator("H"),
        ring.generator("D2") - ring.generator("H"),
    ]
    for r in range(1, len(roots) + 1):
        chosen = roots[:r]
        ch_total = ring.zero()
        c_total = ring.one()
        for root in chosen:
            ch_total = ch_total + exp_nilpotent(root)
            c_total = c_total * (1 + root)
        classes = chern_from_character(ch_total, r)
        for k, c in enumerate(classes):
            if k <= ring.cutoff:
                assert c == c_total.graded_part(k)
            else:
                assert c.is_zero
        assert sum(classes) == c_total
        assert character_from_chern(c_total, r) == ch_total


@given(st.data())
def test_bridge_round_trip(data):
    # A total class with a nonzero part in every degree up to min(rank,
    # cutoff), for ranks below, at and above the cutoff.
    ring = data.draw(st.sampled_from((surface_ring, threefold_ring)))()
    rank = data.draw(st.integers(min_value=1, max_value=ring.cutoff + 2))
    top = min(rank, ring.cutoff)
    nonzero = st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction)
    parts = [ring.one()]
    for k in range(1, top + 1):
        terms = data.draw(
            st.dictionaries(
                st.sampled_from(ring.basis_monomials(k)),
                nonzero,
                min_size=1,
                max_size=3,
            )
        )
        parts.append(RingElement(ring, terms))
    total = sum(parts[1:], parts[0])
    recovered = chern_from_character(character_from_chern(total, rank), rank)
    assert recovered == tuple(parts) + (ring.zero(),) * (rank - top)


# --- integer kernel against the reference rewrite path ----------------------


@st.composite
def raw_monomial(draw, ring):
    """A monomial of 0 to cutoff + 1 generator factors, so that most lie at
    or below the cutoff; one in ten also gets one exponent of 4 * cutoff,
    which would spill into the next packed field if it were packed before
    the cutoff filter."""
    n = len(ring.names)
    exps = [0] * n
    for _ in range(draw(st.integers(min_value=0, max_value=ring.cutoff + 1))):
        exps[draw(st.integers(min_value=0, max_value=n - 1))] += 1
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        exps[draw(st.integers(min_value=0, max_value=n - 1))] = 4 * ring.cutoff
    return tuple(exps)


def raw_terms(ring):
    """Term maps over arbitrary monomials, non-normal ones and ones above the
    cutoff included, with rational coefficients."""
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.dictionaries(raw_monomial(ring), coeff, max_size=6)


def reference_normalize(ring, raw):
    """Normal form by plain rewriting: each relation, read as a rule from
    its leader to the rest, is substituted until no leader divides a
    monomial.  This agrees with row reduction when the rules are confluent
    and terminate, as those of ``RING_FACTORIES`` and their covers do."""
    rules = []
    for packed in ring._relations:
        row = {ring._unpack(m): c for m, c in packed.items()}
        lhs = max(row)
        rules.append(
            (lhs, {m: Fraction(-c, row[lhs]) for m, c in row.items() if m != lhs})
        )
    current = {}
    for mono, coeff in raw.items():
        if coeff and ring.monomial_degree(mono) <= ring.cutoff:
            current[mono] = current.get(mono, Fraction(0)) + coeff
    current = {m: c for m, c in current.items() if c}
    while True:
        rewritten = False
        nxt = {}
        for mono, coeff in current.items():
            match = next(
                (r for r in rules if all(m >= l for m, l in zip(mono, r[0]))), None
            )
            if match is None:
                nxt[mono] = nxt.get(mono, Fraction(0)) + coeff
                continue
            rewritten = True
            lhs, rhs = match
            quot = tuple(m - l for m, l in zip(mono, lhs))
            for rmono, rcoeff in rhs.items():
                prod = tuple(q + e for q, e in zip(quot, rmono))
                if ring.monomial_degree(prod) <= ring.cutoff:
                    nxt[prod] = nxt.get(prod, Fraction(0)) + coeff * rcoeff
        current = {m: c for m, c in nxt.items() if c}
        if not rewritten:
            return current


def reference_mul(ring, a, b):
    raw = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            prod = tuple(x + y for x, y in zip(ma, mb))
            raw[prod] = raw.get(prod, Fraction(0)) + ca * cb
    return reference_normalize(ring, raw)


def reference_add(ring, a, b):
    raw = dict(a)
    for mono, coeff in b.items():
        raw[mono] = raw.get(mono, Fraction(0)) + coeff
    return reference_normalize(ring, raw)


def assert_canonical(x):
    ring = x.ring
    assert x._den > 0
    assert gcd(x._den, *x._num.values()) == 1
    assert all(x._num.values())
    for packed in x._num:
        assert ring.monomial_degree(ring._unpack(packed)) <= ring.cutoff
        degree, form = ring._memo[packed]
        assert degree == ring.monomial_degree(ring._unpack(packed))
        assert form is None
    if x.is_zero:
        assert x._den == 1


# Every kernel property runs on each of these; class_ring and
# threefold_ring have a generator of degree 2, whose degree ``_entry``
# reads from the packed int with a correction.
RING_FACTORIES = [
    surface_ring,
    chain_ring,
    deep_ring,
    dense_ring,
    class_ring,
    threefold_ring,
]


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_kernel_matches_reference_rewrite(make_ring, data):
    ring = make_ring()
    raw_a = data.draw(raw_terms(ring))
    raw_b = data.draw(raw_terms(ring))
    scale = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))
    a, b = RingElement(ring, raw_a), RingElement(ring, raw_b)
    nf_a, nf_b = reference_normalize(ring, raw_a), reference_normalize(ring, raw_b)
    assert dict(a.terms) == nf_a
    assert dict(b.terms) == nf_b
    assert dict((a * b).terms) == reference_mul(ring, nf_a, nf_b)
    assert dict((a + b).terms) == reference_add(ring, nf_a, nf_b)
    assert dict((a * scale).terms) == reference_normalize(
        ring, {m: c * scale for m, c in nf_a.items()}
    )
    for k in range(ring.cutoff + 1):
        assert dict(a.graded_part(k).terms) == reference_normalize(
            ring, {m: c for m, c in nf_a.items() if ring.monomial_degree(m) == k}
        )


def cover_ring(ring, order=6):
    """The cover ring of the given order over a ring whose leading
    generators of degree 1 are read as divisors: their names gain the ``~``
    prefix, the other generators keep theirs, and relation rows are
    transported as :func:`make_cover` transports them."""
    leading = takewhile(lambda g: g[1] == 1, zip(ring.names, ring._degrees))
    divisors = tuple(name for name, _ in leading)
    base = SimpleNamespace(ring=ring, divisors=divisors, dim=ring.cutoff)
    return make_cover(base, order).cover_ring


@st.composite
def named_terms(draw, ring):
    """(raw term map, the same terms as ``GradedRing.element`` input): each
    monomial written as named factors in any order, as a mapping or as
    (name, exponent) pairs, and as pairs one repeated name may split into
    two factors; whole coefficients come as ints."""
    raw = draw(raw_terms(ring))
    terms = []
    for mono, coeff in raw.items():
        factors = [(name, e) for name, e in zip(ring.names, mono) if e]
        factors = draw(st.permutations(factors))
        if factors and draw(st.booleans()):
            name, e = factors[0]
            part = draw(st.integers(min_value=0, max_value=e))
            factors = [(name, part), *factors[1:], (name, e - part)]
        elif draw(st.booleans()):
            factors = dict(factors)
        if coeff.denominator == 1 and draw(st.booleans()):
            coeff = int(coeff)
        terms.append((coeff, factors))
    return raw, terms


@pytest.mark.parametrize("on_cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_element_reader_matches_reference_rewrite(make_ring, on_cover, data):
    ring = make_ring()
    if on_cover:
        ring = cover_ring(ring)
    raw, terms = data.draw(named_terms(ring))
    x = ring.element(terms)
    assert dict(x.terms) == reference_normalize(ring, raw)
    assert_canonical(x)


def test_dense_ring_matches_reference_rewrite():
    # Exhaustive where ``raw_terms`` samples: every monomial of degree at
    # most 4 of the dense ring, and every product of two degree-2 forms.
    ring = dense_ring()
    monos = [m for m in product(range(5), repeat=6) if sum(m) <= ring.cutoff]
    forms = {m: reference_normalize(ring, {m: Fraction(1)}) for m in monos}
    for mono, form in forms.items():
        assert dict(RingElement(ring, {mono: 1}).terms) == form
    quadrics = [m for m in monos if sum(m) == 2]
    for a, b in product(quadrics, repeat=2):
        x, y = RingElement(ring, {a: 1}), RingElement(ring, {b: 1})
        assert dict((x * y).terms) == reference_mul(ring, forms[a], forms[b])


@given(data=st.data())
def test_cover_transport_matches_reference(data):
    variety = deep_variety()
    cm = make_cover(variety, 6)
    n = len(variety.divisors)
    raw = data.draw(raw_terms(variety.ring))
    x = RingElement(variety.ring, raw)
    up = cm.pullback(x)
    assert dict(up.terms) == reference_normalize(
        cm.cover_ring, {m: c * 6 ** sum(m[:n]) for m, c in x.terms.items()}
    )
    assert_canonical(up)
    down = pushdown(cm, up)
    assert_canonical(down)
    assert down == x


@given(data=st.data())
def test_conjugate_character_flips_odd_graded_parts(data):
    ring = deep_ring()
    ch = RingElement(ring, data.draw(raw_terms(ring)))
    expected = ring.zero()
    for k in range(ring.cutoff + 1):
        part = ch.graded_part(k)
        expected = expected + (-part if k % 2 else part)
    conjugate = _conjugate_character(ch)
    assert conjugate == expected
    assert_canonical(conjugate)
    assert _conjugate_character(conjugate) == ch


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_results_are_canonical(make_ring, data):
    ring = make_ring()
    a = RingElement(ring, data.draw(raw_terms(ring)))
    b = RingElement(ring, data.draw(raw_terms(ring)))
    divisor = data.draw(
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
    )
    results = [a, a + b, a - b, -a, a * b, a / divisor, a / 3, a - a]
    results.extend(a.graded_part(k) for k in range(ring.cutoff + 1))
    for x in results:
        assert_canonical(x)
    assert (a - a).is_zero and (a - a)._den == 1


def test_scalar_round_trips_are_exact(ring):
    d1 = ring.generator("D1")
    assert (d1 / 3) * 3 == d1
    assert (d1 / 3)._den == 3
    x = Fraction(5, 18) * d1 ** 2 + d1 / 4
    assert x - x == ring.zero()
    assert (x - x)._den == 1


def test_monomials_far_above_the_cutoff_vanish():
    for make_ring in RING_FACTORIES:
        ring = make_ring()
        n = len(ring.names)
        for i in range(n):
            far = tuple(4 * ring.cutoff if j == i else 0 for j in range(n))
            assert RingElement(ring, {far: 1}).is_zero


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_sum_of_products_matches_pairwise_products(make_ring, data):
    ring = make_ring()
    element = raw_terms(ring).map(lambda terms: RingElement(ring, terms))
    pairs = data.draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))
    total = sum_of_products(pairs)
    assert total == sum((a * b for a, b in pairs), ring.zero())
    assert_canonical(total)


def series_exp(a):
    """sum(a^k / k!) by repeated multiplication."""
    result = power = a.ring.one()
    for k in range(1, a.ring.cutoff + 1):
        power = power * a
        result = result + power / factorial(k)
    return result


def test_exp_of_class_and_non_normal_terms():
    ring = class_ring()
    d1, k = ring.generator("D1"), ring.generator("K")
    assert exp_nilpotent(k / 3) == 1 + k / 3 + k ** 2 / 18
    # D1^2 = K, so exp(D1) = 1 + D1 + K/2 + D1*K/6 + K^2/24.
    assert exp_nilpotent(d1) == 1 + d1 + k / 2 + d1 * k / 6 + k ** 2 / 24


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_exp_matches_the_plain_series(make_ring, data):
    ring = make_ring()
    a = data.draw(elements(ring).map(lambda x: x - x.graded_part(0)))
    assert exp_nilpotent(a) == series_exp(a)


def twists(ring):
    """(generator, weight) pairs, none to three: negative weights as a dual
    twists by, whole ones as a cover does, zero ones, and denominators up to
    10**6, so that every floor division of a seeded step must be exact."""
    weight = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
        st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    )
    return st.lists(st.tuples(st.sampled_from(ring.names), weight), max_size=3)


@st.composite
def raw_seeds(draw, ring):
    """(x, its numerators and denominator): x from raw terms at or below the
    cutoff, its numerators over packed monomials as written, non-normal
    ones included, as a seed of a twisted sum may be."""
    raw = {
        mono: c
        for mono, c in draw(raw_terms(ring)).items()
        if ring.monomial_degree(mono) <= ring.cutoff
    }
    den = lcm(*(c.denominator for c in raw.values()))
    num = {ring._pack(mono): int(c * den) for mono, c in raw.items() if c}
    return RingElement(ring, raw), (num, den)


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_twisted_sum_matches_the_plain_series(make_ring, data):
    # A fresh ring per example, so that seed monomials are new to its memo.
    ring = make_ring()
    pairs = data.draw(st.lists(st.tuples(raw_seeds(ring), twists(ring)), max_size=3))
    expected = ring.zero()
    for (x, _), twist in pairs:
        expected += x * series_exp(ring.element((w, {name: 1}) for name, w in twist))
    form = _twisted_sum(ring, [(seed, twist) for (_, seed), twist in pairs])
    total = RingElement._make(ring, *form)
    assert total == expected
    assert_canonical(total)
    # exp is the twist of 1.
    twist = data.draw(twists(ring))
    a = ring.element((w, {name: 1}) for name, w in twist)
    assert exp_nilpotent(a) == RingElement._make(
        ring, *_twisted_sum(ring, [(({0: 1}, 1), twist)])
    )


def reference_print(x):
    """The text and report terms of an element, from ``Fraction``
    coefficients in ``sort_key`` order."""
    ring = x.ring
    text = ""
    terms = []
    for mono, coeff in sorted(x.terms.items(), key=lambda t: ring.sort_key(t[0])):
        factors = [[name, e] for name, e in zip(ring.names, mono) if e]
        mono_text = "*".join(n if e == 1 else f"{n}^{e}" for n, e in factors)
        magnitude = abs(coeff)
        if not mono_text:
            body = str(magnitude)
        elif magnitude == 1:
            body = mono_text
        else:
            body = f"{magnitude}*{mono_text}"
        if text:
            text += f" - {body}" if coeff < 0 else f" + {body}"
        else:
            text = f"-{body}" if coeff < 0 else body
        terms.append({"coefficient": str(coeff), "monomial": factors})
    return text or "0", terms


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_printer_matches_fraction_reference(make_ring, data):
    ring = make_ring()
    x = data.draw(elements(ring))
    x = x * data.draw(st.fractions(min_value=-7, max_value=7, max_denominator=12))
    expected = reference_print(x)
    assert str(x) == expected[0]
    assert _class_report(x) == expected
    # A second print reads the ring's memoized monomial texts.
    assert _class_report(x) == expected


def test_normal_monomials_fill_the_memo_without_a_block(monkeypatch):
    ring = GradedRing(
        [(n, 1) for n in ("D1", "D2", "D3", "D4", "D5")],
        cutoff=4,
        rules=[({"D1": 1, "D2": 1}, [(1, {"D3": 2})])],
    )
    blocks = []
    reduce_block = ring._reduce_block
    monkeypatch.setattr(
        ring, "_reduce_block", lambda *args: blocks.append(args) or reduce_block(*args)
    )
    d3, d4, d5 = (ring.generator(n) for n in ("D3", "D4", "D5"))
    # No monomial of D4 * (D4 + D5)^3 is divisible by D1*D2 or D3^2 ...
    assert not (d4 * (d4 + d5) ** 3).is_zero
    assert blocks == []
    # ... but D3^2 is, so its block is reduced once.
    assert (d3 * d3).terms == {(0, 0, 2, 0, 0): 1}
    assert len(blocks) == 1


# --- Newton bridges on integer forms ----------------------------------------


def element_chern_from_character(character, rank):
    """The element-based Newton bridge the form-based one replaced: one
    element per graded part, scalar and class."""
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


def element_character_from_chern(total_chern, rank):
    """The element-based inverse bridge the form-based one replaced."""
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


def outcome(bridge, *args):
    """A bridge's result, or the type and message of what it raised."""
    try:
        return bridge(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("on_cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_form_bridges_match_the_element_bridges(make_ring, on_cover, data):
    ring = make_ring()
    if on_cover:
        ring = cover_ring(ring)
    rank = data.draw(st.integers(min_value=1, max_value=ring.cutoff + 2))
    x = RingElement(ring, data.draw(raw_terms(ring)))
    top = min(rank, ring.cutoff)
    positive = x - x.graded_part(0)
    # A valid total class and character, and ones that break each check:
    # a wrong degree-0 part, and (for the total class) a part above the rank.
    total = 1 + sum((x.graded_part(k) for k in range(1, top + 1)), ring.zero())
    totals = [total, x, total + positive]
    characters = [rank + positive, x, rank + 1 + positive]
    for c in totals:
        expected = outcome(element_character_from_chern, c, rank)
        assert outcome(character_from_chern, c, rank) == expected
        if isinstance(expected, RingElement):
            assert_canonical(expected)
            classes = chern_from_character(expected, rank)
            assert classes == tuple(c.graded_part(k) for k in range(top + 1)) + (
                ring.zero(),
            ) * (rank - top)
    for ch in characters:
        expected = outcome(element_chern_from_character, ch, rank)
        got = outcome(chern_from_character, ch, rank)
        assert got == expected
        if isinstance(got, tuple) and isinstance(got[0], RingElement):
            for c in got:
                assert_canonical(c)


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_constant_factors_skip_the_product_loop(make_ring, data):
    ring = make_ring()
    x = RingElement(ring, data.draw(raw_terms(ring)))
    value = data.draw(
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
    )
    k = ring.scalar(value)
    assert k._num == {0: value.numerator}
    total = sum_of_products([(k, x), (x, k)])
    assert total == 2 * value * x
    assert dict(total.terms) == reference_add(
        ring,
        reference_mul(ring, dict(k.terms), dict(x.terms)),
        reference_mul(ring, dict(x.terms), dict(k.terms)),
    )
    assert_canonical(total)
    # Next to a general pair, the pairs' denominators differ, so each
    # constant term is scaled to the common denominator.
    y = RingElement(ring, data.draw(raw_terms(ring)))
    mixed = sum_of_products([(k, x), (x, y), (y, k)])
    assert dict(mixed.terms) == reference_add(
        ring,
        reference_mul(ring, dict(x.terms), dict(y.terms)),
        {m: value * c for m, c in (x + y).terms.items()},
    )
    assert_canonical(mixed)


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
def test_exp_of_zero_is_one(make_ring):
    ring = make_ring()
    assert exp_nilpotent(ring.zero()) == ring.one()
    assert_canonical(exp_nilpotent(ring.zero()))


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_a_product_by_one_is_the_other_factor(make_ring, data):
    ring = make_ring()
    x = RingElement(ring, data.draw(raw_terms(ring)))
    one = ring.one()
    assert x * one is x
    # When x is 1 as well, the left factor comes back.
    assert one * x is (one if x == 1 else x)
    # A unit of another ring is still a foreign factor.
    foreign = make_ring().one()
    for left, right in ((x, foreign), (foreign, x), (one, foreign)):
        with pytest.raises(RingMismatchError):
            left * right


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
def test_sum_of_products_checks_every_factor(make_ring):
    ring = make_ring()
    x = ring.generator(ring.names[0])
    with pytest.raises(RingMismatchError):
        sum_of_products([(x, x), (x, ring.one()), (x, make_ring().one())])


def test_computed_elements_reject_assignment_and_deletion(ring):
    d1 = ring.generator("D1")
    for x in (d1 * (d1 + 1), d1 * ring.one(), exp_nilpotent(d1 / 2)):
        before = (x.ring, x._num, x._den)
        for name in ("ring", "_num", "_den", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        for name in ("ring", "_num", "_den"):
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (x.ring, x._num, x._den) == before


def test_element_reads_any_mapping_and_any_number(ring):
    d1, h = ring.generator("D1"), ring.generator("H")
    assert ring.element([(True, MappingProxyType({"D1": 2}))]) == d1**2
    assert ring.element([(False, MappingProxyType({"D1": 1}))]).is_zero
    assert ring.element([(True, [("D1", 1)]), (0.25, {"H": 1})]) == d1 + h / 4
    assert ring.element([(Fraction(2, 3), (("D1", 1), ("H", 1)))]) == d1 * h * 2 / 3


@pytest.mark.parametrize("make_ring", RING_FACTORIES)
@given(data=st.data())
def test_graded_parts_match_each_graded_part(make_ring, data):
    ring = make_ring()
    x = RingElement(ring, data.draw(raw_terms(ring)))
    top = data.draw(st.integers(min_value=0, max_value=ring.cutoff))
    parts = x.graded_parts(top)
    assert parts == [x.graded_part(k) for k in range(top + 1)]
    for part in parts:
        assert_canonical(part)
    for bad in (-1, ring.cutoff + 1):
        with pytest.raises(ValueError):
            x.graded_parts(bad)
