import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import hopfzero as hz
from hopfzero import DegreeError, Monomial3, ParamPolynomial, QHPolynomial, VectorField3
from hopfzero.coeffring import _term_sort_key, _unpack
from hopfzero.gradedpoly import (_DENSE_TOP, _ONE, _SLOTS_PER_PAIR, _from_integer_terms,
                                 _h_power, _integer_terms, _is_constant, _lifted,
                                 _mono_sort_key, _mul_integer, _new_slice)

from conftest import Pairs, capped_bracket, capped_product, random_qh_slice
from oracle import h_component


def QH(terms, params=()):
    return QHPolynomial(terms, params)


class TestSliceBasis:
    def test_degree_zero(self):
        basis = hz.slice_basis(0)
        assert basis.monomials == (Monomial3(0, 0, 0),)

    def test_degree_one(self):
        assert hz.slice_basis(1).monomials == (Monomial3(1, 0, 0), Monomial3(0, 1, 0))

    def test_degree_two_ordering(self):
        got = hz.slice_basis(2).monomials
        assert got == (Monomial3(2, 0, 0), Monomial3(1, 1, 0),
                       Monomial3(0, 2, 0), Monomial3(0, 0, 1))

    def test_dimension_formula_through_forty(self):
        for k in range(41):
            basis = hz.slice_basis(k)
            expected = sum(k - 2 * l + 1 for l in range(k // 2 + 1))
            assert len(basis) == expected == hz.slice_dimension(k)
            assert all(m.degree == k for m in basis.monomials)

    def test_negative_degree_rejected(self):
        with pytest.raises(DegreeError):
            hz.slice_basis(-1)


def slices(f):
    """The slices of f, keyed by degree, through `degrees` and `slice`."""
    return {k: f.slice(k) for k in f.degrees()}


class TestDecompose:
    def test_single_slice(self):
        f = QH({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): 1})
        parts = slices(f)
        assert list(parts) == [2]
        assert parts[2] == f

    def test_two_slices(self):
        f = QH({(1, 0, 0): 1, (3, 0, 0): 1})
        parts = slices(f)
        assert list(parts) == [1, 3]
        assert parts[1] == QH({(1, 0, 0): 1})
        assert parts[3] == QH({(3, 0, 0): 1})

    def test_mixed_monomials_same_degree(self):
        params = ("a", "b")
        a = hz.ParamPolynomial.variable("a", params)
        b = hz.ParamPolynomial.variable("b", params)
        f = QHPolynomial({(0, 0, 2): a, (2, 0, 1): b}, params)
        parts = slices(f)
        assert list(parts) == [4]
        assert parts[4] == f

    def test_sum_of_slices_reconstructs(self, rng):
        params = ()
        f = random_qh_slice(rng, 3) + random_qh_slice(rng, 5) + random_qh_slice(rng, 6)
        total = QHPolynomial.zero(params)
        for part in slices(f).values():
            total = total + part
        assert total == f


class TestPartial:
    def test_examples(self):
        f = QH({(2, 0, 0): 1, (0, 2, 0): 1})
        assert f.partial("x") == QH({(1, 0, 0): 2})
        assert QH({(0, 0, 2): 1}).partial("z") == QH({(0, 0, 1): 2})
        params = ("a",)
        a = hz.ParamPolynomial.variable("a", params)
        f = QHPolynomial({(3, 1, 0): a}, params)
        assert f.partial("y") == QHPolynomial({(3, 0, 0): a}, params)

    def test_shifts_grade_by_weight(self, rng):
        f = random_qh_slice(rng, 7)
        assert f.partial("x").degrees() in ((), (6,))
        assert f.partial("z").degrees() in ((), (5,))

    def test_euler_identity(self, rng):
        # x f_x + y f_y + 2 z f_z = k f on a degree-k slice
        x = QHPolynomial.variable("x", ())
        y = QHPolynomial.variable("y", ())
        z = QHPolynomial.variable("z", ())
        for k in (2, 5, 8, 11):
            f = random_qh_slice(rng, k)
            euler = (x * f.partial("x") + y * f.partial("y")
                     + z.scale(2) * f.partial("z"))
            assert euler == f.scale(k)


class TestPrinting:
    """Every branch of the printer: a constant term, coefficients 1 and -1, a
    negative rational, one-term and multi-term parameter coefficients, the
    latter leading and not leading."""

    PARAMS = ("a", "b")

    def test_strings(self):
        a = ParamPolynomial.variable("a", self.PARAMS)
        b = ParamPolynomial.variable("b", self.PARAMS)
        f = QH({(0, 0, 0): Fraction(-3, 2), (1, 0, 0): 1, (0, 1, 0): -1,
                (2, 0, 0): Fraction(-5, 7), (1, 1, 0): -a, (0, 2, 0): a.scale(Fraction(2, 3)),
                (0, 0, 1): b.scale(2) - a}, self.PARAMS)
        assert str(f) == "-3/2 + x - y - 5/7*x^2 - a*x*y + 2/3*a*y^2 + (-a + 2*b)*z"
        g = QH({(0, 1, 0): a - b.scale(2), (0, 0, 1): 2}, self.PARAMS)
        assert str(g) == "(a - 2*b)*y + 2*z"
        h = QH({(0, 0, 0): b - a, (1, 0, 0): Fraction(-1, 2)}, self.PARAMS)
        assert str(h) == "-a + b - 1/2*x"
        assert str(QH({}, self.PARAMS)) == "0"
        assert str(QH({(0, 0, 2): -1})) == "-z^2"

    def test_coefficient_ring_is_checked(self):
        with pytest.raises(ValueError):
            QH({(1, 0, 0): ParamPolynomial.constant(1, ("a",))}, ())


class TestMultiplication:
    def test_grading_respects_product(self, rng):
        f = random_qh_slice(rng, 2) + random_qh_slice(rng, 4)
        g = random_qh_slice(rng, 3) + random_qh_slice(rng, 5)
        degrees_f = set(f.degrees())
        degrees_g = set(g.degrees())
        product_degrees = set((f * g).degrees())
        allowed = {df + dg for df in degrees_f for dg in degrees_g}
        assert product_degrees <= allowed

    def test_truncating_product_matches_truncated_full(self, rng):
        f = random_qh_slice(rng, 3) + random_qh_slice(rng, 6)
        g = random_qh_slice(rng, 2) + random_qh_slice(rng, 7)
        assert capped_product([(f, g)], [], 9) == (f * g).truncate(9)


class TestHComponent:
    """The harmonic projection of the test oracle, which pins the kernel
    normalization of the slice solve."""

    def test_reads_h_power(self):
        for m in (1, 2, 3):
            h_m = QHPolynomial.h_power(m, ())
            assert h_component(h_m, m) == hz.ParamPolynomial.constant(1, ())

    def test_kills_harmonic_directions(self):
        # (x^2+y^2) * (x^2-y^2) and z^2 carry no h^2 content
        h = QHPolynomial.h_power(1, ())
        harm = QH({(2, 0, 0): 1, (0, 2, 0): -1})
        assert h_component(h * harm, 2).is_zero()
        assert h_component(QH({(0, 0, 2): 1}), 2).is_zero()

    def test_mixed(self):
        f = QHPolynomial.h_power(2, ()).scale(5) + QH({(4, 0, 0): 1, (0, 0, 2): 7})
        got = h_component(f, 2)
        # x^4 itself contains h^2 with weight 1/8 * ... computed via the projection
        # laplacian^2 x^4 = 24; normalization 4^2 * (2!)^2 = 64
        assert got == hz.ParamPolynomial.constant(5, ()) + \
            hz.ParamPolynomial.constant(hz.rat("24/64"), ())


# -- canonical form of every result, over random polynomials --------------

_PARAM_TABLES = st.sampled_from([(), ("a",), ("a", "b")])
_MONOMIALS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
# besides small fractions, numerators of +-1 or +-2 over large pairwise coprime
# denominators: operands then need a large common denominator, and with so
# few distinct values, products of one monomial often cancel to exact zero
_FRACTIONS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(Fraction, st.sampled_from([-2, -1, 1, 2]),
              st.sampled_from([3125, 6561, 7919, 8192, 9973])))


@st.composite
def _coefficient(draw, params, top=2, items=1):
    exponents = st.tuples(*[st.integers(0, top)] * len(params))
    pairs = draw(st.lists(st.tuples(exponents, _FRACTIONS), min_size=items, max_size=3))
    return ParamPolynomial(Pairs(pairs), params)


@st.composite
def _graded(draw, params, top=2):
    """A polynomial over several degrees, its parameter exponents up to
    `top`; few monomials, so keys repeat and coefficients cancel."""
    pairs = draw(st.lists(st.tuples(_MONOMIALS, _coefficient(params, top)), max_size=6))
    return QHPolynomial(Pairs(pairs), params)


@st.composite
def _polys(draw, count):
    """`count` random polynomials over one random table of 0 to 2 parameters."""
    params = draw(_PARAM_TABLES)
    return [draw(_graded(params)) for _ in range(count)]


# wider tables and exponents, for the packed exponent keys of the converted form
_WIDE_TABLES = st.sampled_from([("a", "b", "c"), ("a", "b", "c", "d"),
                                ("a", "b", "c", "d", "e")])


@st.composite
def _wide_polys(draw, count):
    """`count` random polynomials over one table of 3 to 5 parameters, with
    exponents up to 100."""
    params = draw(_WIDE_TABLES)
    return [draw(_graded(params, 100)) for _ in range(count)]


_CAPS = st.one_of(st.none(), st.integers(0, 12))
_FEW = settings(max_examples=40, deadline=None)
# the capped-product tests do not shrink: shrinking a failing example through
# the model products takes minutes, and the first failing example is as exact
_CAPPED = settings(_FEW, phases=[phase for phase in Phase if phase is not Phase.shrink])


def assert_canonical(r):
    keys = list(r.terms)
    assert all(type(m) is Monomial3 for m in keys)
    assert keys == sorted(keys, key=_mono_sort_key)
    for c in r.terms.values():
        assert isinstance(c, ParamPolynomial) and c and c.params == r.params
        exps = list(c.terms)
        assert exps == sorted(exps, key=_term_sort_key)
        assert all(isinstance(v, Fraction) and v for v in c.terms.values())
    rebuilt = QHPolynomial(dict(r.terms), r.params)
    assert rebuilt == r
    assert list(rebuilt.terms) == keys


def model_product(plus, minus, params, cap=None):
    """sum(a * b) over `plus` minus sum(a * b) over `minus`, term by term
    through the coefficient ring and the validating constructor."""
    out = []
    for sign, pairs in ((1, plus), (-1, minus)):
        for a, b in pairs:
            for ma, ca in a.terms.items():
                for mb, cb in b.terms.items():
                    m = Monomial3(ma.ex + mb.ex, ma.ey + mb.ey, ma.ez + mb.ez)
                    if cap is None or m.degree <= cap:
                        out.append((m, (ca * cb).scale(sign)))
    return QHPolynomial(Pairs(out), params)


def model_partial(f, var):
    idx = hz.gradedpoly.VAR_NAMES.index(var)
    out = []
    for m, c in f.terms.items():
        if m[idx]:
            lowered = list(m)
            lowered[idx] -= 1
            out.append((lowered, c.scale(m[idx])))
    return QHPolynomial(Pairs(out), f.params)


class TestCanonicalResults:
    @_CAPPED
    @given(_polys(2), _CAPS)
    def test_mul(self, polys, cap):
        f, g = polys
        for r, c in ((f.mul(g), None), (f * g, None),
                     (capped_product([(f, g)], [], cap), cap),
                     (capped_product([(g, f)], [], cap), cap)):
            assert_canonical(r)
            assert r == model_product([(f, g)], [], f.params, c)
        # f g - g f: every output sum cancels to an exact zero inside the kernel
        tf, tg = _integer_terms(f), _integer_terms(g)
        assert _mul_integer([(tf, tg)], [(tg, tf)], cap) == (1, [])
        assert _from_integer_terms(_mul_integer([(tf, tg)], [(tg, tf)], cap),
                                   f.params).terms == {}
        # the integer output is the same product, in lowest terms as a whole
        got = _mul_integer([(tf, tg)], [], cap)
        assert math.gcd(*numerators(got)) == 1
        assert _from_integer_terms(got, f.params) == model_product([(f, g)], [], f.params, cap)

    def test_mul_cancels_to_exact_zero_over_coprime_denominators(self):
        f = QH({(1, 0, 0): Fraction(1, 9973), (0, 1, 0): Fraction(1, 7919)})
        g = QH({(1, 0, 0): Fraction(1, 9973), (0, 1, 0): Fraction(-1, 7919)})
        r = f * g
        assert_canonical(r)
        assert r == QH({(2, 0, 0): Fraction(1, 9973 ** 2),
                        (0, 2, 0): Fraction(-1, 7919 ** 2)})

    @_FEW
    @given(_polys(1))
    def test_integer_terms(self, polys):
        (f,) = polys
        denominators = [q.denominator for c in f.terms.values() for q in c.terms.values()]
        common, terms = _integer_terms(f)
        assert common == math.lcm(*denominators)
        # every coefficient an `int` exactly when every coefficient is constant
        constant = all(list(c.terms) == [(0,) * len(f.params)] for c in f.terms.values())
        assert all(type(c) is int for *_, c in terms) == constant
        assert not any(type(c) is int for *_, c in terms) or constant
        # each exponent vector is one packed int key, read back by `_unpack`
        rebuilt = [(Monomial3(ex, ey, ez),
                    [(_unpack(e, len(f.params)), Fraction(n, common)) for e, n in items])
                   for ex, ey, ez, items in _lifted((common, terms))[1]]
        assert all(type(e) is int and type(n) is int
                   for *_, items in _lifted((common, terms))[1] for e, n in items)
        assert rebuilt == [(m, list(c.terms.items())) for m, c in f.terms.items()]

    def test_integer_terms_chooses_the_int_form_for_all_constant_coefficients(self):
        # int form exactly when every coefficient is constant, whatever the
        # parameter table; a first coefficient that is constant is not enough
        params = ("a", "b")
        a = ParamPolynomial.variable("a", params)
        cases = [
            (QH({(1, 0, 0): Fraction(1, 3), (0, 2, 0): -2}, params), True),
            (QH({(1, 0, 0): Fraction(1, 3), (0, 2, 0): a}, params), False),
            (QH({(1, 0, 0): a, (0, 2, 0): 2}, params), False),
            (QH({(1, 0, 0): 1}, ()), True),
            (QH({}, params), True),
        ]
        for f, constant in cases:
            converted = _integer_terms(f)
            assert _is_constant(converted) == constant
            assert all((type(t[3]) is int) == constant for t in converted[1])
            # `_from_integer_terms` round-trips either form, stored order included
            for form in (converted, _lifted(converted)):
                back = _from_integer_terms(form, f.params)
                assert back == f and stored_form(back) == stored_form(f)
                assert_canonical(back)
        assert _integer_terms(cases[0][0]) == (3, [(1, 0, 0, 1), (0, 2, 0, -6)])

    @_FEW
    @given(_polys(1))
    def test_partial(self, polys):
        (f,) = polys
        for var in ("x", "y", "z"):
            r = f.partial(var)
            assert_canonical(r)
            assert r == model_partial(f, var)

    @_FEW
    @given(_polys(2))
    def test_sums(self, polys):
        f, g = polys
        zero = QHPolynomial.zero(f.params)
        for r in (f + g, f - g, g - f, -f, f + (-f), f - f, zero - f, (f + g) - g):
            assert_canonical(r)
        both = list(f.terms.items()) + list(g.terms.items())
        assert f + g == QHPolynomial(Pairs(both), f.params)
        assert f - g == f + (-g)
        assert -f == QHPolynomial({m: -c for m, c in f.terms.items()}, f.params)
        assert (f + g) - g == f
        assert (f - f).terms == {}

    @_FEW
    @given(_polys(1), st.fractions(min_value=-5, max_value=5, max_denominator=6))
    def test_scale(self, polys, factor):
        (f,) = polys
        for v in (0, 1, factor):
            r = f.scale(v)
            assert_canonical(r)
            assert r == QHPolynomial({m: c.scale(v) for m, c in f.terms.items()}, f.params)
        for factor in f.terms.values():
            r = f.scale_param(factor)
            assert_canonical(r)
            assert r == QHPolynomial({m: c * factor for m, c in f.terms.items()}, f.params)

    @_FEW
    @given(_polys(1), st.integers(0, 8))
    def test_grading(self, polys, k):
        (f,) = polys
        for r, keep in ((f.slice(k), lambda d: d == k),
                        (f.truncate(k), lambda d: d <= k)):
            assert_canonical(r)
            assert r == QHPolynomial({m: c for m, c in f.terms.items() if keep(m.degree)},
                                     f.params)
        parts = slices(f)
        for part in parts.values():
            assert_canonical(part)
        assert sum(parts.values(), QHPolynomial.zero(f.params)) == f

    @_FEW
    @given(_polys(1), st.integers(-1, 1))
    def test_substitute_params(self, polys, value):
        (f,) = polys
        values = {name: value for name in f.params}
        r = f.substitute_params(values)
        assert_canonical(r)
        assert r == QHPolynomial({m: c.substitute(values) for m, c in f.terms.items()},
                                 f.params)

    @_CAPPED
    @given(_polys(4), _CAPS)
    def test_directional_derivative(self, polys, cap):
        f, *components = polys
        field = VectorField3(*components)
        pairs = [(f.partial(v), c) for v, c in zip("xyz", components)]
        for r, c in ((hz.directional_derivative(f, field), None),
                     (capped_product(pairs, [], cap), cap)):
            assert_canonical(r)
            assert r == model_product(pairs, [], f.params, c)

    @_CAPPED
    @given(_polys(6), _CAPS)
    def test_lie_bracket(self, polys, cap):
        f, g = VectorField3(*polys[:3]), VectorField3(*polys[3:])
        public = hz.lie_bracket(f, g).components
        for i, (comp, kernel) in enumerate(zip(public, capped_bracket(f, g, cap))):
            c = None if cap is None else cap + (2 if i == 2 else 1)
            plus = [(g.components[i].partial(v), fv) for v, fv in zip("xyz", f.components)]
            minus = [(f.components[i].partial(v), gv) for v, gv in zip("xyz", g.components)]
            for r, rc in ((comp, None), (kernel, c)):
                assert_canonical(r)
                assert r == model_product(plus, minus, f.params, rc)
        assert hz.lie_bracket(f, f).is_zero()
        assert not any(capped_bracket(f, f, cap))

    @_CAPPED
    @given(st.lists(_graded(("a001", "b200", "c030")), min_size=6, max_size=6), _CAPS)
    def test_constant_operands(self, polys, cap):
        # operands bound to a point keep their parameter table; the kernel's
        # constant path must give the symbolic product at that point
        point = {"a001": Fraction(1, 3), "b200": Fraction(-5, 2), "c030": Fraction(7, 4)}
        params = polys[0].params
        bound = [p.substitute_params(point) for p in polys]
        assert all(_is_constant(_integer_terms(p)) for p in bound)

        def product(ps):
            t = [_integer_terms(p) for p in ps]
            return _from_integer_terms(
                _mul_integer([(t[0], t[1]), (t[2], t[3])], [(t[4], t[5])], cap), params)

        got, want = product(bound), product(polys).substitute_params(point)
        assert_canonical(got)
        assert got.params == params
        assert ([(m, list(c.terms.items())) for m, c in got.terms.items()]
                == [(m, list(c.terms.items())) for m, c in want.terms.items()])


# -- the capped kernel's cuts, on operands whose lowest degree is above 0 --

_POINT = {"a": Fraction(2, 3), "b": Fraction(-5, 2)}


@st.composite
def _raised(draw, count):
    """`count` polynomials over one table of 0 to 2 parameters, each times
    a monomial of degree 1 to 8, so that the cap's cuts come below the
    operands' top degrees; either all symbolic or all bound to a point."""
    params = draw(_PARAM_TABLES)
    bound = draw(st.booleans())
    out = []
    for _ in range(count):
        shift = draw(_MONOMIALS.filter(any))
        f = draw(_graded(params)).mul(QHPolynomial.monomial(shift, 1, params))
        out.append(f.substitute_params({p: _POINT[p] for p in params}) if bound else f)
    return out


def stored_form(f):
    return [(m, list(c.terms.items())) for m, c in f.terms.items()]


def items_sorted(converted):
    """A converted form with each coefficient's items sorted by key."""
    den, terms = converted
    return den, [(*t[:3], t[3] if type(t[3]) is int else sorted(t[3])) for t in terms]


def numerators(converted):
    """The denominator and every numerator of a converted form, in either form."""
    den, terms = _lifted(converted)
    return [den] + [n for *_, items in terms for _, n in items]


class TestCappedKernel:
    @_CAPPED
    @given(_raised(6), st.integers(0, 16))
    def test_mul_integer_is_the_truncated_product(self, polys, cap):
        t = [_integer_terms(p) for p in polys]
        plus, minus = [(t[0], t[1]), (t[2], t[3])], [(t[4], t[5])]
        params = polys[0].params
        capped = _mul_integer(plus, minus, cap)
        full = _from_integer_terms(_mul_integer(plus, minus), params).truncate(cap)
        assert stored_form(_from_integer_terms(capped, params)) == stored_form(full)
        # the int sums of operands in int form and the dict sums of the same
        # operands lifted to items agree exactly, all of them lifted or one
        # (an empty operand counts as int form, so lifting it mixes nothing)
        lifted = [_lifted(x) for x in t]
        for u in (lifted, [lifted[0]] + t[1:], t[:5] + [lifted[5]]):
            want = capped if all(map(_is_constant, u)) else _lifted(capped)
            assert _mul_integer([(u[0], u[1]), (u[2], u[3])], [(u[4], u[5])], cap) == want

    @_CAPPED
    @given(_raised(4), st.sampled_from("xyz"), st.booleans(), st.booleans())
    def test_a_derivative_pair_is_the_pair_on_the_partial(self, polys, var, lowest_free,
                                                          in_minus):
        # the kernel differentiates `a` as it reads it: the stored form of
        # the pair on the partial, item order included, under every cap
        # through the operands' degrees and without one, in plus or in
        # minus, on operands in int form (bound to a point) and the same
        # lifted to items, all of them or only `a`; with `lowest_free`, the
        # lowest term of `a` is a constant, which lacks `var`
        params = polys[0].params
        one = QHPolynomial.constant(1, params) if lowest_free else QHPolynomial.zero(params)
        a, b, c, d = (_integer_terms(p) for p in (polys[0] + one, *polys[1:]))
        da = _integer_terms(model_partial(polys[0] + one, var))
        for lift in (lambda x: x, _lifted):
            for u in ((lift(a), lift(b), lift(c), lift(d), lift(da)),
                      (lift(a), b, c, d, lift(da))):
                pairs = ([(u[2], u[3]), (u[0], u[1], var)], [(u[2], u[3]), (u[4], u[1])])
                got, want = (([], p) if in_minus else (p, []) for p in pairs)
                # a plain pair whose `a` has more terms is read the other way
                # round, which sums each coefficient's items in another order
                same = (lambda r: r) if len(da[1]) <= len(b[1]) else items_sorted
                # the result is in int form exactly when every operand of
                # `got` is, and the partial of the constant 1 is empty
                form = (lambda r: r) if all(map(_is_constant, u[:4])) else _lifted
                for cap in (None, *range(24)):
                    assert same(_mul_integer(*got, cap)) == same(form(_mul_integer(*want, cap)))


class TestPackedExponents:
    """The converted form packs each parameter exponent vector into one int
    key; over tables of 3 to 5 parameters and exponents up to 100, and at
    the 2^63 bound of each field."""

    @_FEW
    @given(_wide_polys(1))
    def test_round_trip(self, polys):
        (f,) = polys
        back = _from_integer_terms(_integer_terms(f), f.params)
        assert back == f
        assert stored_form(back) == stored_form(f)

    @_CAPPED
    @given(_wide_polys(4), _CAPS)
    def test_mul_integer_is_the_model_product(self, polys, cap):
        f, g, h, k = polys
        got = capped_product([(f, g), (h, k)], [(g, h)], cap)
        assert_canonical(got)
        assert stored_form(got) == \
            stored_form(model_product([(f, g), (h, k)], [(g, h)], f.params, cap))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_an_exponent_of_2_63_is_refused_at_conversion(self, index):
        params = ("a", "b", "c")
        exps = [1, 2, 3]
        exps[index] = 2 ** 63
        f = QH({(1, 0, 0): ParamPolynomial({tuple(exps): 1}, params)}, params)
        with pytest.raises(hz.ParameterError, match="exponent 9223372036854775808"):
            _integer_terms(f)
        exps[index] = 2 ** 63 - 1
        g = QH({(1, 0, 0): ParamPolynomial({tuple(exps): 1}, params)}, params)
        assert _from_integer_terms(_integer_terms(g), params) == g

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_a_product_that_reaches_2_63_raises(self, index):
        # each field is its own: a sum that reaches the bound raises rather
        # than carry into the next field, in the lowest, a middle and the top one
        params = ("a", "b", "c")

        def power(e, m):
            exps = [1, 0, 2]
            exps[index] = e
            return QH({m: ParamPolynomial({tuple(exps): 3}, params)}, params)

        half = power(2 ** 62, (1, 0, 0))
        with pytest.raises(hz.ParameterError, match="2\\^63"):
            half * power(2 ** 62, (0, 1, 0))
        with pytest.raises(hz.ParameterError, match="2\\^63"):
            hz.directional_derivative(power(2 ** 63 - 1, (0, 0, 1)),
                                      hz.VectorField3(half, half, half))
        # a derivative pair, whose `a` the kernel lowers as it reads it
        pair = (_integer_terms(power(2 ** 63 - 1, (0, 0, 1))), _integer_terms(half), "z")
        with pytest.raises(hz.ParameterError, match="2\\^63"):
            _mul_integer([pair], ())
        top = half * power(2 ** 62 - 1, (0, 1, 0))
        exps = [2, 0, 4]
        exps[index] = 2 ** 63 - 1
        assert top == QH({(1, 1, 0): ParamPolynomial({tuple(exps): 9}, params)}, params)


@st.composite
def _mixed_sums(draw):
    """(plus, minus, cap, params, bound): one or two pairs in `plus` and up to
    one in `minus`, each a plain or a derivative pair, of operands that are
    full, every monomial of degrees d and d+1 for d from 0 to 4, sparse,
    one to three terms of degree d to d+2 for d from 15 to 28, or one term
    of degree 1 to 3 with two or three drawn items, their parameter
    exponents up to 3, so that full products make dense slices, sparse ones dict slices up to degree 60,
    mixed ones either, and a one-term `b`, as a field term in grad(W) . F,
    meets a full `a`'s items and the factors of its several exponents of
    v; over one table of 0 to 2 parameters, symbolic or bound to a point.
    `minus` may repeat a pair of `plus`, whose sums then cancel.  The cap is
    none, below the lowest output degree, or between the lowest and the
    highest."""
    params = draw(_PARAM_TABLES)
    bound = draw(st.booleans())

    def monomial(d):
        # often at the ends of a z power's run of slots: x^r z^l or y^r z^l
        ez = draw(st.integers(0, d // 2))
        rest = d - 2 * ez
        ey = draw(st.one_of(st.sampled_from([0, rest]), st.integers(0, rest)))
        return rest - ey, ey, ez

    def operand():
        kind = draw(st.sampled_from(("full", "sparse", "one term")))
        if kind == "full":
            d = draw(st.integers(0, 4))
            monomials = [m for k in (d, d + 1) for m in hz.slice_basis(k).monomials]
        elif kind == "sparse":
            d = draw(st.integers(15, 28))
            monomials = [monomial(draw(st.integers(d, d + 2)))
                         for _ in range(draw(st.integers(1, 3)))]
        else:
            monomials = [monomial(draw(st.integers(1, 3)))]
        top, items = (3, 2) if kind == "one term" else (1, 1)
        f = QHPolynomial(Pairs([(m, draw(_coefficient(params, top, items)))
                                for m in monomials]), params)
        return f.substitute_params({p: _POINT[p] for p in params}) if bound else f

    def pairs(count):
        return [(operand(), operand(), draw(st.sampled_from((None, "x", "y", "z"))))
                for _ in range(count)]

    plus = pairs(draw(st.integers(1, 2)))
    minus = draw(st.sampled_from([[], pairs(1), plus[-1:]]))
    degrees = [ma.degree + mb.degree for a, b, _ in plus + minus
               for ma in a.terms for mb in b.terms]
    low, high = min(degrees, default=0), max(degrees, default=0)
    cap = draw(st.sampled_from((None, low - 3, low - 1, (low + high) // 2)))
    return plus, minus, cap, params, bound


def _traced_peak(call):
    """The result of `call()` and the most memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDenseSlices:
    """The kernel sums each output slice in a list, the monomial
    x^(e-2l-ey) y^ey z^l of degree e at position l*(e+2-l) + ey, or, when
    the call reaches a degree above `_DENSE_TOP` and the slice has more than
    `_SLOTS_PER_PAIR` slots per term pair that reaches it, in a dict keyed
    by l*(e+1) + ey."""

    def test_the_dense_address_is_the_slice_basis_position(self):
        for e in range(61):
            for i, m in enumerate(hz.slice_basis(e).monomials):
                assert i == m.ez * (e + 2 - m.ez) + m.ey

    def test_a_slice_is_a_list_only_with_enough_pairs(self):
        # slice_dimension(2) = 4 = _SLOTS_PER_PAIR, slice_dimension(3) = 6
        assert _SLOTS_PER_PAIR == 4
        assert _new_slice(2, 1, True) == ([0] * 4, [0, 3, 4])
        assert _new_slice(2, 1, False) == ([None] * 4, [0, 3, 4])
        for constant in (True, False):
            out, off = _new_slice(3, 1, constant)
            assert type(out) is not list and not out and off == range(0, 8, 4)
            # pairs not counted: a list
            assert _new_slice(3, None, constant) == ([0 if constant else None] * 6, [0, 4, 6])
        out, off = _new_slice(10 ** 9, 10 ** 6, True)
        assert len(off) == 5 * 10 ** 8 + 1 and off[-1] == 5 * 10 ** 8 * (10 ** 9 + 1)

    def test_the_kernel_counts_the_pairs_of_each_slice(self, monkeypatch):
        made = {}

        def spy(e, pairs, constant):
            out, off = _new_slice(e, pairs, constant)
            made[e] = pairs, type(out) is list
            return out, off

        monkeypatch.setattr(hz.gradedpoly, "_new_slice", spy)
        full = QH({m: 1 for k in (3, 4) for m in hz.slice_basis(k).monomials})
        x30, y25 = QH({(30, 0, 0): 1}), QH({(0, 25, 0): 1})
        _mul_integer([(_integer_terms(full), _integer_terms(full)),
                      (_integer_terms(x30), _integer_terms(y25))], [])
        # 6 and 9 terms at degrees 3 and 4: 36, 108 and 81 pairs at 6, 7, 8
        assert made == {6: (36, True), 7: (108, True), 8: (81, True), 55: (1, False)}
        made.clear()
        _mul_integer([(_integer_terms(full), _integer_terms(full), "z"),
                      (_integer_terms(x30), _integer_terms(y25))], [])
        # d/dz lowers the 2 and 4 terms with z to degrees 1 and 2
        assert made == {4: (12, True), 5: (18 + 24, True), 6: (36, True), 55: (1, False)}
        # a call that reaches no degree above _DENSE_TOP counts no pairs:
        # each degree from its lowest to its highest has a list
        assert _DENSE_TOP == 30
        made.clear()
        # under the cap 31, x^30 y^25 is cut off
        _mul_integer([(_integer_terms(full), _integer_terms(full), "z"),
                      (_integer_terms(x30), _integer_terms(y25))], [], 31)
        assert made == {4: (None, True), 5: (None, True), 6: (None, True)}
        made.clear()
        _mul_integer([(_integer_terms(x30), _integer_terms(QH({(0, 0, 0): 1})))], [])
        assert made == {30: (None, True)}

    def test_cancelled_sums_are_dropped_from_either_kind(self):
        full = _integer_terms(QH({m: 1 for k in (3, 4) for m in hz.slice_basis(k).monomials}))
        x30, y25 = _integer_terms(QH({(30, 0, 0): 1})), _integer_terms(QH({(0, 25, 0): 1}))
        for lift in (lambda x: x, _lifted):  # in int form and lifted to items
            full, x30, y25 = map(lift, (full, x30, y25))
            # a list slice (degrees 6 to 8) and a dict slice (degree 55)
            assert _mul_integer([(full, full), (x30, y25)], [(x30, y25)]) == \
                _mul_integer([(full, full)], [])
            assert _mul_integer([(full, full), (x30, y25)], [(full, full)]) == \
                lift((1, [(30, 25, 0, 1)]))

    @_CAPPED
    @given(_mixed_sums())
    def test_mixed_sums_are_the_model(self, case):
        plus, minus, cap, params, bound = case

        def model(pairs):
            return [(model_partial(a, v) if v else a, b) for a, b, v in pairs]

        def converted(pairs):
            return [(_integer_terms(a), _integer_terms(b), *([v] if v else []))
                    for a, b, v in pairs]

        got = _mul_integer(converted(plus), converted(minus), cap)
        want = model_product(model(plus), model(minus), params, cap)
        assert stored_form(_from_integer_terms(got, params)) == stored_form(want)
        assert math.gcd(*numerators(got)) == 1
        # the dict sums of the operands lifted to items give the same converted form
        lifted = [(_lifted(a), _lifted(b), *v) for a, b, *v in converted(plus + minus)]
        assert _mul_integer(lifted[:len(plus)], lifted[len(plus):], cap) == _lifted(got)

    @_CAPPED
    @given(_mixed_sums(), st.lists(st.booleans(), min_size=6, max_size=6))
    def test_int_form_and_lifted_items_agree(self, case, lift):
        # operands bound to a point are in int form; lifting any of them to
        # items (`_lifted`) makes the call mixed, and its dict sums give the
        # int sums' result lifted, on plus and minus, plain and derivative
        # pairs, with and without a cap
        plus, minus, cap, params, _ = case
        point = {p: _POINT[p] for p in params}
        operands = [_integer_terms(f.substitute_params(point))
                    for a, b, _ in plus + minus for f in (a, b)]
        assert all(map(_is_constant, operands))
        mixed = [_lifted(x) if up else x for x, up in zip(operands, lift * 2)]

        def pairs(ops):
            out = [(ops[2 * i], ops[2 * i + 1], *([v] if v else []))
                   for i, (_, _, v) in enumerate(plus + minus)]
            return out[:len(plus)], out[len(plus):]

        want = _mul_integer(*pairs(operands), cap)
        got = _mul_integer(*pairs(mixed), cap)
        assert got == (want if all(map(_is_constant, mixed)) else _lifted(want))

    def test_a_derivative_of_a_constant_term_makes_no_slice_below_degree_0(self, monkeypatch):
        # d/dz (1 + x^3 + z^2) * y: `a`'s first term, of degree 0, lacks z,
        # so the lowest degree its first term bounds is -2; the kernel makes
        # no slice below 0, without a cap and with one below the lowest
        # output degree, 3
        made = []

        def spy(e, pairs, constant):
            made.append(e)
            return _new_slice(e, pairs, constant)

        monkeypatch.setattr(hz.gradedpoly, "_new_slice", spy)
        a = _integer_terms(QH({(0, 0, 0): 1, (3, 0, 0): 1, (0, 0, 2): 1}))
        b = _integer_terms(QH({(0, 1, 0): 1}))
        for lift in (lambda x: x, _lifted):
            for cap, want in ((None, (1, [(0, 1, 1, 2)])), (2, (1, [])), (0, (1, []))):
                made.clear()
                assert _mul_integer([(lift(a), lift(b), "z")], [], cap) == lift(want)
                assert made and min(made) >= 0
            # x^3 is the only term with x: d/dx gives 3 x^2 y, of degree 3
            made.clear()
            assert _mul_integer([(lift(a), lift(b), "x")], []) == lift((1, [(2, 1, 0, 3)]))
            assert made and min(made) >= 0

    @_FEW
    @given(_raised(2), _CAPS)
    def test_a_plain_pair_is_the_same_either_way_round(self, polys, cap):
        # the kernel reads the operand with fewer terms as `a`, so (f, g)
        # and (g, f) give the same monomials in the same order; the items
        # of a coefficient may be summed in another order
        f, g = (_integer_terms(p) for p in polys)
        one, other = _mul_integer([(f, g)], [], cap), _mul_integer([(g, f)], [], cap)
        assert [t[:3] for t in one[1]] == [t[:3] for t in other[1]]
        assert items_sorted(one) == items_sorted(other)
        if _is_constant(one):
            assert one == other

    def test_the_constant_one_and_the_h_powers_are_in_int_form(self):
        assert _ONE == (1, [(0, 0, 0, 1)])
        assert _h_power(2) == (1, [(4, 0, 0, 1), (2, 2, 0, 2), (0, 4, 0, 1)])
        assert all(type(t[3]) is int for m in range(6) for t in _h_power(m)[1])

    def test_memory_follows_the_terms_not_the_degree(self):
        # x^(2^20) squares one-term slices up to degree 2^20, and (1 + x)^256
        # reaches each degree to 256 through few pairs: a list per slice
        # would take about 20 MB and 11 MB
        def parsed(expr):
            return hz.parse_system(f"dx = {expr}\ndy = 0\ndz = 0\n").components[0]

        p, peak = _traced_peak(lambda: parsed("x^1048576"))
        assert p == QH({(2 ** 20, 0, 0): 1}) and peak < 2 ** 20
        p, peak = _traced_peak(lambda: parsed("(1 + x)^256"))
        assert p == QH({(k, 0, 0): math.comb(256, k) for k in range(257)})
        assert peak < 2 * 2 ** 20

