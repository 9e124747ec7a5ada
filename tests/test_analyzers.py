import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfzero as hz
from hopfzero import (CaseTag, Method, ParamPolynomial, PrincipalPartError,
                      QHPolynomial, StructureError, VectorField3, analyzers, homological)

from hopfzero.analyzers import _entries_only, _obstruction_driver, _resonant_shape
from hopfzero.coeffring import _Modulus
from hopfzero.gradedpoly import _from_integer_terms, _integer_terms, _is_constant, _lifted

from conftest import field_from_text, random_perturbed_field, random_ppoly
from oracle import multiplier_defect_sympy, truncate_sympy


def h_poly(params=()):
    return QHPolynomial.h_power(1, params)


class TestFirstIntegralSequence:
    def test_principal_part_only(self):
        seq = hz.first_integral_obstructions(hz.principal_part(()), 5)
        assert seq.all_zero()
        assert seq.witness == h_poly()
        assert seq.start_index == 2
        assert sorted(seq.entries) == [2, 3, 4, 5]

    def test_integrable_stratum(self, family37_integrable):
        seq = hz.first_integral_obstructions(family37_integrable, 8)
        assert seq.all_zero()

    def test_pure_z_series_perturbation(self):
        # already-normal-form field with only the z series: integrable, so the
        # candidate continues with no residuals
        params = ("c",)
        c = ParamPolynomial.variable("c", params)
        field = hz.principal_part(params) + VectorField3(
            QHPolynomial.zero(params), QHPolynomial.zero(params),
            QHPolynomial({(0, 0, 2): c}, params))
        seq = hz.first_integral_obstructions(field, 6)
        assert seq.all_zero()

    def test_rejects_wrong_principal_part(self):
        bad = VectorField3(QHPolynomial({(0, 1, 0): -1}, ()),
                           QHPolynomial({(1, 0, 0): 1}, ()),
                           QHPolynomial.h_power(1, ()))
        with pytest.raises(PrincipalPartError):
            hz.first_integral_obstructions(bad, 3)


class TestJacobiSequences:
    def test_principal_part_mode_h(self):
        seq = hz.jacobi_obstructions(hz.principal_part(()), 5, Method.JACOBI_H)
        assert seq.all_zero()
        assert seq.witness == h_poly()

    def test_mode_h2_starts_at_three(self):
        seq = hz.jacobi_obstructions(hz.principal_part(()), 5, Method.JACOBI_H2)
        assert seq.start_index == 3
        assert sorted(seq.entries) == [3, 4, 5]

    def test_family38_locked_stratum(self, family38):
        # c011 = -a001: the z^4 entry is linear in the symmetry-breaking c101
        locked = field_from_text(
            "params a001 c101\n"
            "dx = -2*y + a001*z\n"
            "dy = 2*x\n"
            "dz = x^2 + y^2 + c101*x*z - a001*y*z\n")
        seq = hz.jacobi_obstructions(locked, 4, Method.JACOBI_H)
        params = locked.params
        a001 = ParamPolynomial.variable("a001", params)
        c101 = ParamPolynomial.variable("c101", params)
        assert seq.entries[2].is_zero()
        assert seq.entries[3].is_zero()
        assert seq.entries[4] == (a001 ** 5 * c101).scale(Fraction(1, 32))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            hz.jacobi_obstructions(hz.principal_part(()), 3, Method.FIRST_INTEGRAL)


class TestRecombinationIdentity:
    def test_all_methods_on_random_fields(self, rng):
        for _ in range(6):
            field = random_perturbed_field(rng, max_degree=3)
            for method in Method:
                seq = hz.obstruction_sequence(field, 4, method)
                assert hz.recombination_defect(field, seq).is_zero()

    def test_against_sympy(self, rng):
        # fully independent check of the defining identity on one random field
        field = random_perturbed_field(rng, max_degree=2)
        for method, use_div in ((Method.FIRST_INTEGRAL, False),
                                (Method.JACOBI_H2, True)):
            seq = hz.obstruction_sequence(field, 3, method)
            defect = multiplier_defect_sympy(seq.witness, field, use_div, seq.entries)
            assert truncate_sympy(defect, 2 * seq.max_index) == 0

    def test_uniqueness_under_rerun(self, family37):
        first = hz.jacobi_obstructions(family37, 5, Method.JACOBI_H2)
        second = hz.jacobi_obstructions(family37, 5, Method.JACOBI_H2)
        assert first.entries == second.entries
        assert first.witness == second.witness
        assert list(first.witness.terms) == list(second.witness.terms)


class TestSeedPower:
    def test_default_matches_own_seed(self, rng, family37):
        point = family37.substitute_params({"a001": 1, "b200": 2, "c030": 3})
        for field in (point, random_perturbed_field(rng, max_degree=3)):
            for method, own in ((Method.FIRST_INTEGRAL, 1), (Method.JACOBI_H, 1),
                                (Method.JACOBI_H2, 2)):
                default = _obstruction_driver(field, 6, method)
                explicit = _obstruction_driver(field, 6, method, seed_power=own)
                assert default.start_index == explicit.start_index == own + 1
                assert default.entries == explicit.entries
                assert list(default.entries) == list(explicit.entries)
                for k in default.entries:
                    assert list(default.entries[k].terms) == \
                        list(explicit.entries[k].terms)
                assert list(default.witness.terms) == list(explicit.witness.terms)
                assert default.witness == explicit.witness

    def test_family37_h3_seed(self, family37):
        seq = _obstruction_driver(family37, 7, Method.JACOBI_H2, seed_power=3)
        a001 = ParamPolynomial.variable("a001", family37.params)
        assert seq.start_index == 4
        assert sorted(seq.entries) == [4, 5, 6, 7]
        assert all(seq.entries[k].is_zero() for k in (4, 5, 6))
        assert seq.entries[7] == (a001 ** 8).scale(Fraction(-3, 256))
        assert hz.recombination_defect(family37, seq).is_zero()

    def test_start_index_follows_seed(self):
        for m in (1, 2, 3, 4):
            seq = _obstruction_driver(hz.principal_part(()), 6, Method.JACOBI_H2,
                                      seed_power=m)
            assert seq.start_index == m + 1
            assert sorted(seq.entries) == list(range(m + 1, 7))
            assert seq.witness == QHPolynomial.h_power(m, ())

    def test_rejects_nonpositive_seed(self):
        with pytest.raises(hz.DegreeError):
            _obstruction_driver(hz.principal_part(()), 4, Method.JACOBI_H2,
                                seed_power=0)


def driver_by_polynomial_products(field, max_index, method, seed_power=None):
    """(entries, witness) of `method`, each degree's known term built as
    polynomials: gradients by `partial`, products by `*`, sums by `+`, and
    the slice solve's right-hand side as `-known`."""
    params = field.params
    power = seed_power or (2 if method is Method.JACOBI_H2 else 1)
    use_div = method is not Method.FIRST_INTEGRAL
    components = {k: f for k, f in field.decompose().items() if k >= 1}
    pieces = {2 * power: QHPolynomial.h_power(power, params)}
    entries = {}
    for degree in range(2 * power + 1, 2 * max_index + 1):
        known = QHPolynomial.zero(params)
        for fdeg, fk in sorted(components.items()):
            piece = pieces.get(degree - fdeg)
            if piece is None:
                continue
            term = piece.partial("x") * fk.fx + piece.partial("y") * fk.fy \
                + piece.partial("z") * fk.fz
            if use_div:
                term = term - piece * hz.divergence(fk)
            known = known + term
        solved = hz.solve_homological(degree, -known)
        if degree % 2 == 0:
            entries[degree // 2] = -solved.residual
        if solved.solution:
            pieces[degree] = solved.solution
    witness = QHPolynomial.zero(params)
    for piece in pieces.values():
        witness = witness + piece
    return entries, witness


def stored_form(f):
    """The terms of `f` in stored order, with each coefficient's terms."""
    return [(m, list(c.terms.items())) for m, c in f.terms.items()]


def assert_matches_polynomial_products(seq, field, max_index, method, seed_power=None):
    entries, witness = driver_by_polynomial_products(field, max_index, method, seed_power)
    assert list(seq.entries) == list(entries)
    for k, value in entries.items():
        assert seq.entries[k] == value
        assert list(seq.entries[k].terms.items()) == list(value.terms.items())
    assert seq.witness == witness
    assert stored_form(seq.witness) == stored_form(witness)


def assert_same_entries(seq, other):
    """Equal entries in the same order, each coefficient's terms included."""
    assert list(seq.entries) == list(other.entries)
    for k, value in other.entries.items():
        assert list(seq.entries[k].terms.items()) == list(value.terms.items())


def no_witness_piece(*args):
    raise AssertionError("a witness piece was built")


DRIVER_PARAMS = ("a001", "b200", "c030")
DRIVER_POINT = {"a001": Fraction(1, 3), "b200": Fraction(-5, 2), "c030": Fraction(7, 4)}


def driver_case(rng, kind, max_field_degree):
    """The principal part plus random components of degrees 1..max_field_degree
    over DRIVER_PARAMS: `symbolic` coefficients are integer parameter
    polynomials, `rational` ones are those scaled by a non-integer fraction
    per component, and `bound` ones are those at DRIVER_POINT (constant, with
    the parameter table kept)."""
    def component(degree):
        return QHPolynomial({m: random_ppoly(rng, DRIVER_PARAMS, max_degree=2, terms=2)
                             for m in hz.slice_basis(degree).monomials
                             if rng.random() < 0.4}, DRIVER_PARAMS)

    field = hz.principal_part(DRIVER_PARAMS)
    for s in range(1, max_field_degree + 1):
        comp = VectorField3(component(s + 1), component(s + 1), component(s + 2))
        if kind == "rational":
            comp = comp.scale(Fraction(rng.randint(1, 5), rng.choice((2, 3, 7, 12))))
        field = field + comp
    return field.substitute_params(DRIVER_POINT) if kind == "bound" else field


class TestKnownTermAccumulation:
    @pytest.mark.parametrize("method", list(Method))
    def test_family37_symbolic_matches_polynomial_products(self, family37, method):
        seq = _obstruction_driver(family37, 10, method)
        assert_matches_polynomial_products(seq, family37, 10, method)
        # the report path's consumer of the same continuation
        entries_only = _entries_only(family37, 10, method)
        assert entries_only.witness is None
        assert (entries_only.start_index, entries_only.max_index) == \
            (seq.start_index, seq.max_index)
        assert_same_entries(entries_only, seq)
        with pytest.raises(ValueError, match="no witness"):
            hz.recombination_defect(family37, entries_only)

    @pytest.mark.parametrize("method", list(Method))
    def test_entries_only_skips_the_last_solve(self, family37, method, monkeypatch):
        # no entry reads the last degree's piece, so only the witness's
        # driver solves it
        solved = []
        solve = analyzers._solve_levels

        def counting(k, rhs):
            solved.append(k)
            return solve(k, rhs)

        monkeypatch.setattr(analyzers, "_solve_levels", counting)
        seq = _obstruction_driver(family37, 6, method)
        driver_solves, solved[:] = list(solved), []
        entries_only = _entries_only(family37, 6, method)
        assert driver_solves == solved + [12]
        assert_same_entries(entries_only, seq)

    @pytest.mark.parametrize("method, max_index, seed_power", [
        (Method.JACOBI_H2, 1, None), (Method.JACOBI_H2, 2, None),
        (Method.FIRST_INTEGRAL, 1, 1), (Method.FIRST_INTEGRAL, 2, 2),
        (Method.FIRST_INTEGRAL, 3, 3)])
    def test_empty_degree_range(self, family37, method, max_index, seed_power, monkeypatch):
        # a max_index at most the seed power leaves no degree to continue:
        # no entry, and the witness is the seed alone
        power = seed_power or analyzers._SEED_POWER[method]
        seq = _obstruction_driver(family37, max_index, method, seed_power=seed_power)
        assert seq.entries == {} and seq.start_index == power + 1
        assert seq.witness == QHPolynomial.h_power(power, family37.params)
        assert hz.recombination_defect(family37, seq).is_zero()
        if power != analyzers._SEED_POWER[method]:
            return

        def no_call(*args):
            raise AssertionError("the continuation ran a degree")

        monkeypatch.setattr(analyzers, "_mul_integer", no_call)
        monkeypatch.setattr(analyzers, "_solve_levels", no_call)
        entries_only = _entries_only(family37, max_index, method)
        assert entries_only.entries == {} and entries_only.witness is None
        assert entries_only.start_index == power + 1

    @pytest.mark.parametrize("kind", ["symbolic", "rational", "bound"])
    @pytest.mark.parametrize("method", list(Method))
    @settings(max_examples=6, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 2))
    def test_matches_polynomial_products(self, method, kind, seed_power, seed,
                                         max_field_degree, extra):
        field = driver_case(random.Random(seed), kind, max_field_degree)
        if kind == "bound":  # `int` coefficients: the kernel's and the solve's int paths
            assert all(_is_constant(_integer_terms(c))
                       for f in field.decompose().values() for c in f.components)
        max_index = seed_power + extra
        seq = _obstruction_driver(field, max_index, method, seed_power=seed_power)
        assert_matches_polynomial_products(seq, field, max_index, method, seed_power)

    def test_self_check_catches_a_wrong_circle_mean(self, family37, monkeypatch):
        # the driver solves its slices on the path that runs both read-back
        # checks, so a circle mean off by one raises instead of returning
        mean = homological._circle_mean

        def wrong(u, d):
            den, n = mean(u, d)
            return den, n + den if type(n) is int else {**n, 0: n.get(0, 0) + den}

        monkeypatch.setattr(homological, "_circle_mean", wrong)
        with pytest.raises(StructureError):
            _obstruction_driver(family37, 4, Method.JACOBI_H2)


def random_constraint(rng, var):
    """A constraint over DRIVER_PARAMS of degree 1..3 in `var`, whose leading
    coefficient there is a nonzero rational, with rational coefficients."""
    d = rng.randint(1, 3)
    i = DRIVER_PARAMS.index(var)
    tail = random_ppoly(rng, DRIVER_PARAMS, max_degree=3, terms=3)
    tail = ParamPolynomial({e: c for e, c in tail.terms.items() if e[i] < d}, DRIVER_PARAMS)
    lc = Fraction(rng.choice((-3, -1, 1, 2, 18)), rng.choice((1, 2, 7)))
    g = (ParamPolynomial.variable(var, DRIVER_PARAMS) ** d).scale(lc)
    return g + tail.scale(Fraction(rng.randint(1, 5), rng.choice((1, 3)))), lc


def true_remainder(p, g, var, lc):
    """The remainder of `p` by `g` in `var`, whose leading coefficient lc is a
    rational: the pseudo-remainder divided by lc to its power."""
    r, e = hz.pseudo_remainder(p, g, var)
    return r.scale(1 / lc ** e)


class TestQuotientRun:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(DRIVER_PARAMS), st.integers(0, 6))
    def test_reduce_gives_the_true_remainders(self, seed, var, degree):
        rng = random.Random(seed)
        g, lc = random_constraint(rng, var)
        f = QHPolynomial({m: random_ppoly(rng, DRIVER_PARAMS, max_degree=6, terms=4)
                          for m in hz.slice_basis(degree).monomials}, DRIVER_PARAMS)
        f = f.scale(Fraction(rng.randint(1, 9), rng.choice((1, 4, 15))))
        den, terms = _Modulus(g, var).reduce(_integer_terms(f))
        assert den > 0 and math.gcd(den, *(n for t in _lifted((den, terms))[1]
                                           for _, n in t[3])) == 1
        got = _from_integer_terms((den, terms), DRIVER_PARAMS)
        want = {m: r for m, c in f.terms.items() if (r := true_remainder(c, g, var, lc))}
        assert list(got.terms) == list(want)
        for m, r in want.items():
            assert list(got.terms[m].terms.items()) == list(r.terms.items())

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_reduce_over_wide_tables_and_high_exponents(self, data):
        # the packed keys' shift and mask on 3 to 5 parameters, exponents up to 100
        params = data.draw(st.sampled_from([("a", "b", "c"), ("a", "b", "c", "d"),
                                            ("a", "b", "c", "d", "e")]))
        var = data.draw(st.sampled_from(params))
        i, d = params.index(var), data.draw(st.integers(1, 3))
        exponents = st.lists(st.integers(0, 100), min_size=len(params), max_size=len(params))
        tail = {}
        for exps in data.draw(st.lists(exponents, min_size=1, max_size=2)):
            exps[i] = data.draw(st.integers(0, d - 1))
            tail[tuple(exps)] = data.draw(st.integers(-3, 3).filter(bool))
        lc = Fraction(data.draw(st.sampled_from((-3, 1, 2))), data.draw(st.sampled_from((1, 7))))
        g = (ParamPolynomial.variable(var, params) ** d).scale(lc) + ParamPolynomial(tail, params)
        coefficient = st.dictionaries(st.tuples(*[st.integers(0, 100)] * len(params)),
                                      st.fractions(-3, 3, max_denominator=4), min_size=1,
                                      max_size=3)
        monomials = hz.slice_basis(data.draw(st.integers(0, 3))).monomials
        f = QHPolynomial({m: ParamPolynomial(data.draw(coefficient), params)
                          for m in monomials[:3]}, params)
        got = _from_integer_terms(_Modulus(g, var).reduce(_integer_terms(f)), params)
        want = {m: r for m, c in f.terms.items() if (r := true_remainder(c, g, var, lc))}
        assert [(m, list(c.terms.items())) for m, c in got.terms.items()] == \
            [(m, list(r.terms.items())) for m, r in want.items()]

    def test_a_form_of_int_coefficients_is_returned_as_it_is(self):
        # constant coefficients are their own remainders, whatever g
        g = ParamPolynomial.variable("a001", DRIVER_PARAMS) ** 2 - \
            ParamPolynomial.variable("b200", DRIVER_PARAMS)
        f = QHPolynomial({(2, 0, 0): Fraction(3, 4), (0, 1, 1): -5}, DRIVER_PARAMS)
        converted = _integer_terms(f)
        assert _is_constant(converted)
        assert _Modulus(g, "a001").reduce(converted) is converted
        empty = (1, [])
        assert _Modulus(g, "a001").reduce(empty) is empty

    def test_an_exponent_that_reaches_2_63_is_refused(self):
        params = ("a", "b", "c")
        b_power = ParamPolynomial({(0, 2 ** 62, 0): 1}, params)
        with pytest.raises(hz.ParameterError, match="exponent 9223372036854775808"):
            _Modulus(ParamPolynomial.variable("a", params) - b_power * b_power, "a")
        # a = b^(2^62) takes a * b^(2^62) to b^(2^63), past the field of b
        modulus = _Modulus(ParamPolynomial.variable("a", params) - b_power, "a")
        f = QHPolynomial({(1, 0, 0): ParamPolynomial({(1, 2 ** 62 - 1, 5): 1}, params)},
                         params)
        assert _from_integer_terms(modulus.reduce(_integer_terms(f)), params) == \
            QHPolynomial({(1, 0, 0): ParamPolynomial({(0, 2 ** 63 - 1, 5): 1}, params)},
                         params)
        with pytest.raises(hz.ParameterError, match="2\\^63"):
            modulus.reduce(_integer_terms(f.scale_param(ParamPolynomial({(0, 1, 0): 1},
                                                                        params))))

    def test_a_leading_coefficient_that_is_not_constant_is_refused(self):
        g = hz.parse_polynomial("a001*b200 - 1", DRIVER_PARAMS)
        with pytest.raises(hz.ParameterError,
                           match="constraint has leading coefficient b200 in 'a001', "
                                 "not a constant"):
            _Modulus(g, "a001")

    @pytest.mark.parametrize("kind", ["symbolic", "rational"])
    @pytest.mark.parametrize("method", list(Method))
    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(DRIVER_PARAMS), st.integers(1, 3))
    def test_equals_the_reduced_full_run(self, method, kind, seed, var, max_field_degree):
        # the continuation commutes with the map to the quotient
        rng = random.Random(seed)
        field = driver_case(rng, kind, max_field_degree)
        g, lc = random_constraint(rng, var)
        full = _entries_only(field, 4, method)
        seq = _entries_only(field, 4, method, (g, var))
        assert seq.witness is None and list(seq.entries) == list(full.entries)
        for k, value in full.entries.items():
            want = true_remainder(value, g, var, lc)
            assert list(seq.entries[k].terms.items()) == list(want.terms.items())


class TestCrossMethodConsistency:
    def test_integrable_strata_draws(self, rng, family37_integrable, family38):
        # on strata with a first integral, the first-integral and the
        # h-multiplier sequences must agree about total vanishing
        draws = []
        for _ in range(7):
            b200 = Fraction(rng.randint(-4, 4))
            c030 = Fraction(rng.randint(-4, 4))
            draws.append(family37_integrable.substitute_params(
                {"b200": b200, "c030": c030}))
        for _ in range(7):
            c101 = Fraction(rng.randint(-4, 4))
            c011 = Fraction(rng.randint(-4, 4))
            draws.append(family38.substitute_params(
                {"a001": 0, "c101": c101, "c011": c011}))
        for _ in range(6):
            a001 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            c101 = Fraction(rng.randint(-3, 3))
            draws.append(family38.substitute_params(
                {"a001": a001, "c011": -a001 / 2, "c101": c101}))
        for field in draws:
            fi = hz.first_integral_obstructions(field, 5)
            jac = hz.jacobi_obstructions(field, 5, Method.JACOBI_H)
            assert fi.all_zero() == jac.all_zero()
            assert fi.all_zero()


class TestClassify:
    def test_principal_part(self):
        verdict = hz.classify(hz.principal_part(()), 4)
        assert verdict.case_tag is CaseTag.NF_LINEARIZABLE

    def test_b1_shape(self):
        field = hz.principal_part(()) + VectorField3(
            QHPolynomial({(1, 0, 1): Fraction(1, 3)}, ()),
            QHPolynomial({(0, 1, 1): Fraction(1, 3)}, ()),
            QHPolynomial.zero(()))
        assert hz.classify(field, 4).case_tag is CaseTag.B1

    def test_b2_shape(self):
        field = hz.principal_part(()) + VectorField3(
            QHPolynomial.zero(()), QHPolynomial.zero(()),
            QHPolynomial({(0, 0, 2): 1}, ()))
        assert hz.classify(field, 4).case_tag is CaseTag.B2

    @pytest.mark.parametrize("max_index", [0, -1])
    def test_rejects_max_index_below_one(self, max_index):
        # before the resonant-shape shortcut, which would answer without it
        b2 = hz.principal_part(()) + VectorField3(
            QHPolynomial.zero(()), QHPolynomial.zero(()),
            QHPolynomial({(0, 0, 2): 1}, ()))
        for field in (hz.principal_part(()), b2):
            with pytest.raises(hz.DegreeError):
                hz.classify(field, max_index)

    def test_b3_shape_with_pair(self):
        # a z D0-part and b z^2 with 2a + 2b = 0
        field = hz.principal_part(()) + VectorField3(
            QHPolynomial({(1, 0, 1): 1}, ()),
            QHPolynomial({(0, 1, 1): 1}, ()),
            QHPolynomial({(0, 0, 2): -1}, ()))
        verdict = hz.classify(field, 4)
        assert verdict.case_tag is CaseTag.B3
        assert verdict.coprime_pair == (1, 1)

    def test_b3_shape_without_pair(self):
        # ratio positive: no coprime pair can exist
        field = hz.principal_part(()) + VectorField3(
            QHPolynomial({(1, 0, 1): 1}, ()),
            QHPolynomial({(0, 1, 1): 1}, ()),
            QHPolynomial({(0, 0, 2): 1}, ()))
        verdict = hz.classify(field, 4)
        assert verdict.case_tag is CaseTag.NOT_INTEGRABLE

    def test_b1_shape_with_two_z_powers(self):
        field = hz.principal_part(()) + VectorField3(
            QHPolynomial({(1, 0, 1): 1, (1, 0, 2): Fraction(-2, 5)}, ()),
            QHPolynomial({(0, 1, 1): 1, (0, 1, 2): Fraction(-2, 5)}, ()),
            QHPolynomial.zero(()))
        assert hz.classify(field, 4).case_tag is CaseTag.B1

    @pytest.mark.parametrize("rest", [
        ({(1, 0, 1): 1}, {(0, 1, 1): 2}, {}),
        ({(0, 1, 1): 1}, {}, {(0, 0, 2): 1}),
        ({}, {}, {(0, 0, 2): 1, (1, 0, 1): 1}),
        ({(1, 0, 1): 1, (0, 1, 1): 1}, {(0, 1, 1): 1}, {(0, 0, 2): -1}),
    ], ids=["dy-differs", "dx-y-z", "dz-x-z", "dx-x-z-plus-y-z"])
    def test_near_miss_shape_takes_the_general_path(self, rest):
        # one term away from F0 + (p(z) x, p(z) y, q(z)): no shape verdict
        field = hz.principal_part(()) + VectorField3(
            *(QHPolynomial(terms, ()) for terms in rest))
        assert _resonant_shape(field) is None
        verdict = hz.classify(field, 4)
        assert verdict.case_tag not in (CaseTag.NF_LINEARIZABLE, CaseTag.B1,
                                        CaseTag.B2, CaseTag.B3)

    def test_term_below_degree_0_is_rejected(self):
        field = hz.principal_part(()) + VectorField3(
            QHPolynomial.zero(()), QHPolynomial.zero(()), QHPolynomial.constant(3, ()))
        for run in (lambda: hz.classify(field, 4),
                    lambda: hz.orbital_normal_form(field, 2),
                    lambda: hz.jacobi_obstructions(field, 4, Method.JACOBI_H)):
            with pytest.raises(PrincipalPartError, match="degree at most 0"):
                run()

    def test_family37_generic_point(self, family37):
        point = family37.substitute_params({"a001": 1, "b200": 0, "c030": 0})
        verdict = hz.classify(point, 8)
        assert verdict.case_tag is CaseTag.NOT_INTEGRABLE
        assert verdict.witness_method is Method.JACOBI_H2
        assert verdict.witness_index == 7
        assert verdict.witness_degree == 14
        assert verdict.coprime_pair == (1, 1)
        assert verdict.witness_value == ParamPolynomial.constant(
            Fraction(15, 2048), family37.params)

    def test_family38_locked_numeric(self, family38):
        point = family38.substitute_params({"a001": 1, "c011": -1, "c101": 0})
        verdict = hz.classify(point, 10)
        assert verdict.case_tag is CaseTag.NO_OBSTRUCTION_UP_TO
        assert verdict.obstructions[0].method is Method.JACOBI_H

    def test_integrable_stratum_with_symbols(self, family37_integrable):
        verdict = hz.classify(family37_integrable, 6)
        assert verdict.case_tag is CaseTag.NO_OBSTRUCTION_UP_TO
        assert verdict.obstructions[0].method is Method.FIRST_INTEGRAL

    def test_symbolic_family38(self, family38):
        verdict = hz.classify(family38, 3)
        assert verdict.case_tag is CaseTag.SYMBOLIC
        methods = {seq.method for seq in verdict.obstructions}
        assert methods == {Method.JACOBI_H, Method.JACOBI_H2}

    def test_symbolic_family37_builds_no_witness(self, family37, monkeypatch):
        # the verdict reads the entries only, so no solved piece of either
        # Jacobi sequence becomes Fractions
        monkeypatch.setattr("hopfzero.analyzers._from_integer_terms", no_witness_piece)
        verdict = hz.classify(family37, 6)
        assert verdict.case_tag is CaseTag.SYMBOLIC
        assert [seq.method for seq in verdict.obstructions] == \
            [Method.JACOBI_H, Method.JACOBI_H2]
        assert all(seq.witness is None for seq in verdict.obstructions)
        assert sorted(verdict.obstructions[1].entries) == [3, 4, 5, 6]
        with pytest.raises(AssertionError, match="witness piece"):
            _obstruction_driver(family37, 6, Method.JACOBI_H2)

    def test_verdict_determinism(self, family37):
        point = family37.substitute_params({"a001": 1, "b200": 0, "c030": 0})
        first = hz.classify(point, 8)
        second = hz.classify(point, 8)
        assert first.case_tag is second.case_tag
        assert first.witness_index == second.witness_index
        assert first.witness_value == second.witness_value
