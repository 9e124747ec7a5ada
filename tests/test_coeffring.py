import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfzero as hz
from hopfzero import ParamPolynomial, ParameterError
from hopfzero.coeffring import _Modulus, _term_sort_key

from conftest import Pairs, random_ppoly

PARAMS = ("a", "b")


def P(terms):
    return ParamPolynomial(terms, PARAMS)


def var(name):
    return ParamPolynomial.variable(name, PARAMS)


def const(v):
    return ParamPolynomial.constant(v, PARAMS)


@pytest.mark.parametrize("text", ["\u0661", "1/\u0663", "1_0", "1.5", "1e3", "", "1/"])
def test_rat_reads_ascii_digits_only(text):
    # the rule of an expression's integer literal; `Fraction` reads each but
    # the last two
    with pytest.raises(ValueError):
        hz.rat(text)


def test_rat_reads_a_signed_fraction():
    assert hz.rat(" -3/4 ") == Fraction(-3, 4)
    assert hz.rat("+12") == 12
    with pytest.raises(ZeroDivisionError):
        hz.rat("1/0")


class TestRationalOracle:
    """fractions.Fraction against a naive numerator/denominator model."""

    @staticmethod
    def _reduce(n, d):
        if d < 0:
            n, d = -n, -d
        g = gcd(abs(n), d)
        return (n // g, d // g) if g else (0, 1)

    def test_thousand_random_operations(self):
        rng = random.Random(20240810)
        for _ in range(1000):
            n1, d1 = rng.randint(-10**12, 10**12), rng.randint(1, 10**12)
            n2, d2 = rng.randint(-10**12, 10**12), rng.randint(1, 10**12)
            a, b = Fraction(n1, d1), Fraction(n2, d2)
            op = rng.choice("+-*/")
            if op == "+":
                expect = self._reduce(n1 * d2 + n2 * d1, d1 * d2)
                got = a + b
            elif op == "-":
                expect = self._reduce(n1 * d2 - n2 * d1, d1 * d2)
                got = a - b
            elif op == "*":
                expect = self._reduce(n1 * n2, d1 * d2)
                got = a * b
            else:
                if n2 == 0:
                    continue
                expect = self._reduce(n1 * d2, d1 * n2)
                got = a / b
            assert (got.numerator, got.denominator) == expect
            assert got.denominator > 0


class TestNormalize:
    """Every operation returns its result in canonical form."""

    def test_cancellation(self):
        p = var("a").scale(2) - var("a").scale(2) + var("b")
        assert p == var("b")
        assert list(p.terms.items()) == [((0, 1), 1)]

    def test_zero_has_empty_term_map(self):
        zero = var("a") - var("a")
        assert zero.terms == {}
        assert zero.is_zero()

    def test_unit_coefficient_product(self):
        p = var("a").scale(Fraction(1, 2)) * const(2)
        assert p == var("a")
        assert list(p.terms.items()) == [((1, 0), 1)]

    def test_idempotent(self):
        # rebuilding a result from its own terms changes nothing
        p = var("a") * var("a") - var("b").scale(3)
        rebuilt = ParamPolynomial(p.terms, p.params)
        assert rebuilt == p
        assert list(rebuilt.terms.items()) == list(p.terms.items()) == \
            [((2, 0), 1), ((0, 1), -3)]


class TestRingAxioms:
    def test_randomized(self, rng):
        for _ in range(40):
            p = random_ppoly(rng, PARAMS)
            q = random_ppoly(rng, PARAMS)
            r = random_ppoly(rng, PARAMS)
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert p + (-p) == ParamPolynomial.zero(PARAMS)

    def test_mismatched_tables_rejected(self):
        other = ParamPolynomial.variable("c", ("c",))
        with pytest.raises(ParameterError):
            _ = var("a") + other


class TestReduce:
    def test_substitution(self):
        p = var("a") * var("a")
        constraint = var("a") - var("b")
        assert hz.ppoly_reduce(p, constraint, "a") == var("b") * var("b")

    def test_self_reduction(self):
        c = var("a").scale(3) + var("b") * var("b")
        assert hz.ppoly_reduce(c, c, "a").is_zero()

    def test_quadratic_self_reduction(self):
        c = P({(2, 0): 126, (1, 1): -117, (0, 2): 40})
        assert hz.ppoly_reduce(c, c, "a").is_zero()

    def test_degree_drops_below_constraint(self):
        p = var("a") ** 4 + var("b") ** 3 * var("a")
        c = P({(2, 0): 126, (1, 1): -117, (0, 2): 40})
        r = hz.ppoly_reduce(p, c, "a")
        assert r.degree_in("a") < 2

    def test_undeclared_variable(self):
        with pytest.raises(ParameterError):
            hz.ppoly_reduce(var("a"), var("b"), "zz")

    def test_constant_constraint_rejected(self):
        with pytest.raises(ParameterError):
            hz.ppoly_reduce(var("a"), const(3), "a")

    def test_pseudo_remainder_congruence(self, rng):
        # reduce(p + s*c) is a unit-power multiple of reduce(p)
        for _ in range(15):
            p = random_ppoly(rng, PARAMS, max_degree=4)
            s = random_ppoly(rng, PARAMS, max_degree=2)
            c = P({(2, 0): rng.randint(1, 5), (1, 1): rng.randint(-4, 4),
                   (0, 2): rng.randint(-4, 4)})
            r1, e1 = hz.pseudo_remainder(p + s * c, c, "a")
            r2, e2 = hz.pseudo_remainder(p, c, "a")
            lc = c.coefficient_of_power("a", 2)
            assert r1 * lc ** e2 == r2 * lc ** e1

    def test_congruent_mod(self):
        c = var("a") - var("b")
        assert hz.congruent_mod(var("a") ** 2, var("b") ** 2, c, "a")
        assert not hz.congruent_mod(var("a") ** 2, var("b"), c, "a")

    @pytest.mark.parametrize("constraint", ["a*b", "b*a^2 + a", "b", "0"])
    def test_congruent_mod_refuses_a_lead_that_is_not_a_nonzero_constant(self, constraint):
        # a is not in the ideal (a*b), yet a*b divides lc^e * a for lc = b
        c = hz.parse_polynomial(constraint, PARAMS)
        with pytest.raises(ParameterError):
            hz.congruent_mod(var("a"), const(0), c, "a")

    @pytest.mark.parametrize("constraint", ["0", "3", "b - 2"])
    @pytest.mark.parametrize("check", ["_Modulus", "congruent_mod"])
    def test_a_constraint_without_the_eliminated_name_is_refused(self, check, constraint):
        # the quotient and the reference decide by one rule: a constraint that
        # does not contain `a` admits no quotient that eliminates it
        c = hz.parse_polynomial(constraint, PARAMS)
        with pytest.raises(ParameterError, match="^constraint does not contain 'a'$"):
            if check == "_Modulus":
                _Modulus(c, "a")
            else:
                hz.congruent_mod(var("a"), const(0), c, "a")


class TestPrinting:
    def test_string_roundtrip(self, rng):
        for _ in range(20):
            p = random_ppoly(rng, PARAMS, max_degree=4)
            reparsed = hz.parse_polynomial(str(p), PARAMS)
            assert reparsed == p

    def test_strings(self):
        p = ParamPolynomial({(2, 0): -1, (1, 1): Fraction(3, 2), (0, 1): 1, (0, 0): -4},
                            ("a", "b"))
        assert str(p) == "-a^2 + 3/2*a*b + b - 4"
        q = ParamPolynomial({(0, 2): Fraction(-1, 3), (1, 0): -1}, ("a", "b"))
        assert str(q) == "-1/3*b^2 - a"
        assert str(ParamPolynomial.zero(("a",))) == "0"

    def test_substitute(self):
        p = var("a") ** 2 + var("b").scale(3)
        assert p.substitute({"a": 2, "b": -1}) == const(1)


# -- canonical form of every result, over random polynomials --------------

_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3))
_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_COEFFS = st.one_of(_FRACTIONS, st.integers(-3, 3), _FRACTIONS.map(str))


@st.composite
def _raw_terms(draw):
    """(exponents, coefficient) pairs on few monomials, so keys repeat and
    coefficients cancel; exponents come as tuples or lists."""
    pairs = draw(st.lists(st.tuples(_EXPONENTS, _COEFFS), max_size=7))
    return [(list(e) if draw(st.booleans()) else e, c) for e, c in pairs]


ppolys = _raw_terms().map(lambda pairs: P(Pairs(pairs)))
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

_FEW = settings(max_examples=40, deadline=None)


def assert_canonical(r):
    keys = list(r.terms)
    assert keys == sorted(keys, key=_term_sort_key)
    assert all(type(e) is tuple and len(e) == len(r.params) for e in keys)
    assert all(isinstance(c, Fraction) and c for c in r.terms.values())
    rebuilt = ParamPolynomial(dict(r.terms), r.params)
    assert rebuilt == r
    assert list(rebuilt.terms) == keys
    assert hash(rebuilt) == hash(r)


class TestCanonicalResults:
    @_FEW
    @given(_raw_terms())
    def test_constructor_merges_and_purges(self, pairs):
        p = P(Pairs(pairs))
        assert_canonical(p)
        model = {}
        for e, c in pairs:
            model[tuple(e)] = model.get(tuple(e), 0) + hz.rat(c)
        assert p.terms == {e: c for e, c in model.items() if c}

    @_FEW
    @given(ppolys, ppolys)
    def test_ring_operations(self, p, q):
        zero = ParamPolynomial.zero(PARAMS)
        for r in (p + q, p - q, q - p, p * q, -p, p + (-p), p - p, p * zero,
                  zero - p, (p + q) - q, p * q - q * p):
            assert_canonical(r)
        assert p - q == p + (-q)
        assert (p + q) - q == p
        assert (p - p).terms == {}
        assert p + zero is p and p - zero is p

    @_FEW
    @given(ppolys, rationals)
    def test_scale(self, p, factor):
        for f in (0, 1, -1, factor):
            r = p.scale(f)
            assert_canonical(r)
            assert r == p * const(f)
        assert p.scale(1) is p
        assert p.scale(Fraction(1)) is p

    @_FEW
    @given(ppolys, st.integers(0, 3))
    def test_power(self, p, n):
        r = p ** n
        assert_canonical(r)
        expect = const(1)
        for _ in range(n):
            expect = expect * p
        assert r == expect

    @_FEW
    @given(ppolys, st.dictionaries(st.sampled_from(PARAMS), rationals))
    def test_substitute(self, p, values):
        r = p.substitute(values)
        assert_canonical(r)
        assert all(e[PARAMS.index(name)] == 0 for e in r.terms for name in values)

    @_FEW
    @given(ppolys, st.sampled_from(PARAMS))
    def test_coefficient_of_power(self, p, name):
        total = ParamPolynomial.zero(PARAMS)
        for power in range(max(p.degree_in(name), 0) + 1):
            r = p.coefficient_of_power(name, power)
            assert_canonical(r)
            assert r.degree_in(name) <= 0
            total = total + r * var(name) ** power
        assert total == p

    @_FEW
    @given(ppolys, ppolys, st.integers(1, 2))
    def test_pseudo_remainder(self, p, q, d):
        constraint = var("a") ** d * (const(1) + var("b")) + q.substitute({"a": 0})
        r, steps = hz.pseudo_remainder(p, constraint, "a")
        assert_canonical(r)
        assert r.degree_in("a") < d
        lc = constraint.coefficient_of_power("a", d)
        assert hz.ppoly_reduce(lc ** steps * p - r, constraint, "a").is_zero()
