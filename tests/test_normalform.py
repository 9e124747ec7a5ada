import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hopfzero as hz
from hopfzero import (Method, Monomial3, ParamPolynomial, PrincipalPartError,
                      QHPolynomial, StructureError, VectorField3)
from hopfzero import normalform
from hopfzero.analyzers import _entries_only
from hopfzero.gradedpoly import _from_integer_terms, _integer_terms, _is_constant, _lifted
from hopfzero.normalform import GeneratorStep, _divide_by_h, _solve_degree

from conftest import (field_from_text, random_field_component,
                      random_perturbed_field, random_ppoly)
from oracle import (Elimination, degree2_orbital_normal_form, degree_system,
                    elimination_solve_degree, field_to_sympy, lie_series_step,
                    ppoly_to_sympy, scale_field)


def conjugate_scaling(field, lam, sigma):
    """Conjugate by (x, y, z, t) -> (lam x, lam y, lam^2 z, t / sigma)."""
    lam, sigma = Fraction(lam), Fraction(sigma)

    def rescale(comp, weight):
        return QHPolynomial(
            {m: c.scale(sigma * lam ** (weight - m.degree)) for m, c in comp.terms.items()},
            comp.params)

    return VectorField3(rescale(field.fx, 1), rescale(field.fy, 1),
                        rescale(field.fz, 2))


class TestOrbitalNormalForm:
    def test_principal_part_is_fixed_point(self):
        nf = hz.orbital_normal_form(hz.principal_part(()), 3)
        assert all(v.is_zero() for v in nf.a_coeffs.values())
        assert all(v.is_zero() for v in nf.b_coeffs.values())
        assert nf.field == hz.principal_part(())

    def test_family37_leading_coefficients(self, family37):
        nf = hz.orbital_normal_form(family37, 2)
        params = family37.params
        a001 = ParamPolynomial.variable("a001", params)
        c030 = ParamPolynomial.variable("c030", params)
        assert nf.a_coeffs[1] == (a001 * a001).scale(Fraction(-1, 4))
        assert nf.b_coeffs[1] == (a001 * a001).scale(Fraction(1, 4))
        assert nf.a_coeffs[2] == (a001 ** 3 * c030).scale(Fraction(-3, 16))
        assert nf.b_coeffs[2] == (a001 ** 3 * c030).scale(Fraction(1, 8))

    def test_family38_leading_coefficients(self, family38):
        nf = hz.orbital_normal_form(family38, 1)
        params = family38.params
        a001 = ParamPolynomial.variable("a001", params)
        c011 = ParamPolynomial.variable("c011", params)
        assert nf.a_coeffs[1] == (a001 * (a001 + c011)).scale(Fraction(-1, 4))
        assert nf.b_coeffs[1] == (a001 * (a001 + c011.scale(2))).scale(Fraction(1, 4))

    def test_generators_reproduce_the_normal_form(self, family37):
        # replaying the recorded per-degree steps on the input field must land
        # exactly on the stored transformed field, with resonant slices only
        n = 2
        nf = hz.orbital_normal_form(family37, n)
        current = family37.truncate(2 * n)
        for step in nf.generators:
            if step.generator.is_zero() and step.reparam.is_zero():
                continue
            current = hz.apply_generator_step(current, step, 2 * n)
        assert current == nf.field
        resonant = hz.normal_form_field(nf).truncate(2 * n)
        assert current == resonant

    @pytest.mark.parametrize("kind", ["symbolic", "rational", "bound"])
    def test_converted_field_matches_the_public_steps(self, family37, kind):
        # the loop keeps the field in converted form across its steps; the
        # public step, which converts in and out each time, must give the
        # same field, each coefficient's term order included
        n = 3
        if kind == "rational":
            rng, field = random.Random(5), hz.principal_part(())
            for s in range(1, 2 * n + 1):
                field = field + rational_field_component(rng, s)
        else:
            field = family37.substitute_params(SERIES_POINT) if kind == "bound" else family37
        nf = hz.orbital_normal_form(field, n)
        assert any(step.reparam for step in nf.generators)
        current = field.truncate(2 * n)
        for step in nf.generators:
            if not (step.generator.is_zero() and step.reparam.is_zero()):
                current = hz.apply_generator_step(current, step, 2 * n)
        assert stored_terms(current) == stored_terms(nf.field)

    def test_rejects_wrong_principal_part(self):
        bad = VectorField3(QHPolynomial({(0, 1, 0): -1}, ()),
                           QHPolynomial({(1, 0, 0): 1}, ()),
                           QHPolynomial.h_power(1, ()))
        with pytest.raises(PrincipalPartError):
            hz.orbital_normal_form(bad, 2)

    def test_degree2_against_sympy_oracle(self, rng):
        # a1, b1 are forced: a generic orbital equivalence solved in sympy,
        # with no use of the engine's calculus, has them as its only solution
        for _ in range(3):
            field = random_perturbed_field(rng, max_degree=2)
            nf = hz.orbital_normal_form(field, 1)
            a1, b1 = degree2_orbital_normal_form(field_to_sympy(field))
            assert sp.expand(ppoly_to_sympy(nf.a_coeffs[1]) - a1) == 0
            assert sp.expand(ppoly_to_sympy(nf.b_coeffs[1]) - b1) == 0

    def test_determinism(self, family38):
        first = hz.orbital_normal_form(family38, 2)
        second = hz.orbital_normal_form(family38, 2)
        assert first.a_coeffs == second.a_coeffs
        assert first.b_coeffs == second.b_coeffs
        assert first.field == second.field


# a field whose first resonant index is 5: (a_5, b_5) = (1, 0)
RESONANT_AT_5 = """\
dx = -2*y + x*z^5 + y^2
dy = 2*x + y*z^5 + x^2*y
dz = x^2 + y^2 + y^3
"""


def assert_classify_normal_form_is_a_run(field, max_index):
    """classify's normal form is `orbital_normal_form` run at its own
    max_index, the first resonant index (or max_index when none is)."""
    nf = hz.classify(field, max_index).normal_form
    assert nf is not None
    ref = hz.orbital_normal_form(field, nf.max_index)
    assert nf.a_coeffs == ref.a_coeffs
    assert nf.b_coeffs == ref.b_coeffs
    assert nf.generators == ref.generators
    assert nf.field == ref.field
    assert nf.max_index == ref.max_index
    assert nf.field == nf.field.truncate(2 * nf.max_index)
    return nf


class TestClassifyNormalForm:
    """classify deepens over orbital_normal_form and cuts the first run with
    a resonance at its first resonant index."""

    def test_family37_resonates_at_one(self, family37):
        assert assert_classify_normal_form_is_a_run(family37, 3).max_index == 1

    @pytest.mark.parametrize("max_index", [6, 7, 8])
    def test_cut_below_the_last_run(self, max_index):
        field = field_from_text(RESONANT_AT_5)
        assert assert_classify_normal_form_is_a_run(field, max_index).max_index == 5

    def test_no_resonance_returns_the_run_at_max_index(self, family37):
        # a001 = 0 is the integrable stratum; 5 runs the schedule 1, 2, 3, 5
        field = family37.substitute_params({"a001": hz.rat(0)})
        nf = assert_classify_normal_form_is_a_run(field, 5)
        assert nf.max_index == 5
        assert not any(nf.a_coeffs.values()) and not any(nf.b_coeffs.values())

    def test_random_fields(self, rng):
        for _ in range(6):
            field = random_perturbed_field(rng, max_degree=rng.randint(1, 3))
            assert_classify_normal_form_is_a_run(field, rng.randint(1, 5))

    def test_work_stops_at_the_first_resonance(self, family37, monkeypatch):
        # family 37 resonates at index 1, so no degree above 2 is solved or
        # transformed, however deep the obstruction sequences run
        solved, transformed = [], []
        solve, step = normalform._solve_degree, normalform._integer_step

        def counting_solve(known, s, params):
            solved.append(s)
            return solve(known, s, params)

        def counting_step(current, generator, reparam, max_field_degree):
            transformed.append(max_field_degree)
            return step(current, generator, reparam, max_field_degree)

        monkeypatch.setattr(normalform, "_solve_degree", counting_solve)
        monkeypatch.setattr(normalform, "_integer_step", counting_step)
        field = family37.substitute_params(
            {"a001": hz.rat(1), "b200": hz.rat(2), "c030": hz.rat(3)})
        hz.classify(field, 30)
        assert solved and max(solved) <= 2
        assert transformed and max(transformed) <= 2


def solve_degree(known, s):
    """`_solve_degree` on a field slice, converted in and out: the generator
    and mu as polynomials."""
    params = known.params
    converted = [_integer_terms(c) for c in known.components]
    u, mu, a, b = _solve_degree(converted, s, params)
    return (VectorField3(*(_from_integer_terms(c, params) for c in u)),
            _from_integer_terms(mu, params), a, b)


class TestSolveDegree:
    """The degree solve meets its defining equation, checked with the generic
    Lie bracket: [F0, U] - mu F0 + a R1 + b R2 == known.  Slices without
    parameters convert to `int` coefficients and take the solve's int path,
    those with one its general path."""

    @staticmethod
    def check(known, s):
        params = known.params
        u, mu, a, b = solve_degree(known, s)
        f0 = hz.principal_part(params)
        achieved = hz.lie_bracket(f0, u) - scale_field(f0, mu)
        if s % 2 == 0:
            k = s // 2
            achieved = achieved + VectorField3(
                QHPolynomial({(1, 0, k): a}, params), QHPolynomial({(0, 1, k): a}, params),
                QHPolynomial({(0, 0, k + 1): b}, params))
        else:
            assert not a and not b
        assert achieved == known

    @pytest.mark.parametrize("s", range(1, 17))
    def test_rational_slices(self, rng, s):
        for _ in range(2):
            self.check(random_field_component(rng, s), s)

    @pytest.mark.parametrize("s", range(1, 17))
    def test_one_parameter_slices(self, rng, s):
        self.check(param_field_component(rng, s, ("p",)), s)

    def test_division_by_h_rejects_a_non_multiple(self):
        for params in ((), ("p",)):
            h = QHPolynomial.h_power(1, params)
            coeff = ParamPolynomial({(0,) * len(params): 1, (1,) * len(params): 2}, params)
            q = QHPolynomial({(1, 2, 0): 3, (0, 1, 1): Fraction(1, 2),
                              (0, 3, 0): coeff}, params)
            p = _integer_terms(h * q)
            assert stored_form(_from_integer_terms(_divide_by_h(p, 3), params)) == \
                stored_form(q)
            for extra in ({(5, 0, 0): 1}, {(0, 5, 0): 1}, {(0, 1, 2): 1}, {(2, 1, 1): 1}):
                with pytest.raises(StructureError):
                    _divide_by_h(_integer_terms(h * q + QHPolynomial(extra, params)), 3)

    def test_division_by_h_on_either_form(self):
        # a constant p in int form gives its quotient in int form, and the
        # same p lifted to items gives that quotient lifted; a non-multiple
        # raises on both
        h = QHPolynomial.h_power(1, ("p",))
        q = QHPolynomial({(1, 2, 0): 3, (0, 1, 1): Fraction(1, 2), (0, 3, 0): -7}, ("p",))
        p = _integer_terms(h * q)
        assert _is_constant(p)
        quotient = _divide_by_h(p, 3)
        assert _is_constant(quotient) and quotient == _integer_terms(q)
        assert _divide_by_h(_lifted(p), 3) == _lifted(quotient)
        bad = _integer_terms(h * q + QHPolynomial({(2, 1, 1): 1}, ("p",)))
        for form in (bad, _lifted(bad)):
            with pytest.raises(StructureError, match="not a multiple of x\\^2 \\+ y\\^2"):
                _divide_by_h(form, 3)


class TestSolveDegreeMatchesElimination:
    """The structured degree solve returns the solution of the generic
    elimination of the full system (`oracle.elimination_solve_degree`),
    whose free unknowns are set to zero, down to each coefficient's term
    order."""

    @staticmethod
    def assert_same(known, s):
        new = solve_degree(known, s)
        old = elimination_solve_degree(known, s)
        for name, got, want in zip(("ux", "uy", "uz"), new[0].components,
                                   old[0].components):
            assert stored_form(got) == stored_form(want), (s, name)
        assert stored_form(new[1]) == stored_form(old[1]), (s, "mu")
        assert list(new[2].terms.items()) == list(old[2].terms.items()), (s, "a")
        assert list(new[3].terms.items()) == list(old[3].terms.items()), (s, "b")

    @pytest.mark.parametrize("s", range(1, 25))
    def test_rational_slices(self, rng, s):
        self.assert_same(rational_field_component(rng, s), s)

    @pytest.mark.parametrize("s", range(1, 13))
    def test_two_parameter_slices(self, rng, s):
        self.assert_same(param_field_component(rng, s, ("p", "q")), s)

    def test_free_unknowns(self):
        # the unknowns the elimination leaves free, and so sets to zero, are
        # the ones the structured solve's gauge fix sets to zero
        for s in range(1, 17):
            bases, _, rows, n_cols = degree_system(s)
            labels = [(name, m) for name, basis in zip(("ux", "uy", "uz", "mu"), bases)
                      for m in basis.monomials]
            free = {labels[c] for c in Elimination(rows, n_cols).free_columns}
            expected = {("mu", m) for m in bases[3].monomials}
            if s % 2 == 0:
                expected.discard(("mu", Monomial3(0, 0, s // 2)))
                expected |= {("uy", Monomial3(1, s, 0)), ("uz", Monomial3(0, s + 2, 0)),
                             ("uz", Monomial3(0, s, 1))}
            assert free == expected, s


def reference_normal_form(field, max_index):
    """`orbital_normal_form` from the references alone, in `Fraction`
    arithmetic: each degree solved by `oracle.elimination_solve_degree` and
    each step taken by `oracle.lie_series_step`.  Returns the coefficient
    streams, the steps and the transformed field."""
    n = 2 * max_index
    current = field.truncate(n)
    a_coeffs, b_coeffs, steps = {}, {}, []
    for s in range(1, n + 1):
        u, mu, a, b = elimination_solve_degree(current.component(s), s)
        if s % 2 == 0:
            a_coeffs[s // 2], b_coeffs[s // 2] = a, b
        steps.append(GeneratorStep(degree=s, generator=u, reparam=mu))
        if not (u.is_zero() and mu.is_zero()):
            current = lie_series_step(current, steps[-1], n)
    return a_coeffs, b_coeffs, steps, current


class TestWholeRunMatchesReference:
    """A whole run equals the run of the references, term order included:
    the degree solve and the steps in converted form change no output."""

    @pytest.mark.parametrize("params", [("p",), ("p", "q")])
    def test_random_fields(self, rng, params):
        # sparse and of low degree, as the reference's products take no cap
        field = hz.principal_part(params)
        for s in (1, 2):
            field = field + param_field_component(rng, s, params, 0.2, 1, 1)
        nf = hz.orbital_normal_form(field, 4)
        a_coeffs, b_coeffs, steps, current = reference_normal_form(field, 4)
        for got, want in ((nf.a_coeffs, a_coeffs), (nf.b_coeffs, b_coeffs)):
            assert [(k, list(c.terms.items())) for k, c in got.items()] == \
                [(k, list(c.terms.items())) for k, c in want.items()]
        assert [step.degree for step in nf.generators] == list(range(1, 9))
        for got, want in zip(nf.generators, steps):
            assert stored_terms(got.generator) == stored_terms(want.generator), got.degree
            assert stored_form(got.reparam) == stored_form(want.reparam), got.degree
        assert stored_terms(nf.field) == stored_terms(current)
        assert any(nf.a_coeffs.values()) and any(step.reparam for step in nf.generators)


def stored_form(f):
    """The terms of `f` in stored order, with each coefficient's terms."""
    return [(m, list(c.terms.items())) for m, c in f.terms.items()]


def rational_field_component(rng, s):
    """Random degree-s field slice with rational coefficients."""
    def component(degree):
        return QHPolynomial({m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for m in hz.slice_basis(degree).monomials
                             if rng.random() < 0.8}, ())

    return VectorField3(component(s + 1), component(s + 1), component(s + 2))


def param_field_component(rng, s, params, density=0.7, max_degree=2, terms=2):
    """Random degree-s field slice with coefficients polynomial in `params`,
    a share `density` of the slice's monomials with random_ppoly coefficients."""
    def component(degree):
        return QHPolynomial({m: random_ppoly(rng, params, max_degree=max_degree, terms=terms)
                             for m in hz.slice_basis(degree).monomials
                             if rng.random() < density}, params)

    return VectorField3(component(s + 1), component(s + 1), component(s + 2))


SERIES_PARAMS = ("a001", "b200", "c030")
SERIES_POINT = {"a001": Fraction(1, 3), "b200": Fraction(-5, 2), "c030": Fraction(7, 4)}


def series_case(rng, kind, max_field_degree, s, inhomogeneous=False):
    """A field through `max_field_degree` and a degree-s step over SERIES_PARAMS,
    whose generator also has a degree-(s+1) slice when `inhomogeneous`.

    `symbolic` coefficients are integer parameter polynomials, `rational`
    ones are those scaled by non-integer fractions, `bound` ones are those
    at SERIES_POINT (constant, with the parameter table kept), and `mixed`
    is a bound case whose field has one coefficient b200 times an integer."""
    def component(d):
        c = param_field_component(rng, d, SERIES_PARAMS)
        if kind == "rational":
            c = c.scale(Fraction(rng.randint(1, 5), rng.choice((2, 3, 7, 12))))
        return c.substitute_params(SERIES_POINT) if kind in ("bound", "mixed") else c

    field = hz.principal_part(SERIES_PARAMS)
    for d in range(1, max_field_degree + 1):
        field = field + component(d)
    generator = component(s) + component(s + 1) if inhomogeneous else component(s)
    # a degree-s scalar: the x-component of a degree-(s-1) field slice
    reparam = component(s - 1).fx if rng.random() < 0.5 else QHPolynomial.zero(SERIES_PARAMS)
    if kind == "mixed":  # one coefficient becomes a single parameter term
        b200 = ParamPolynomial.variable("b200", SERIES_PARAMS).scale(rng.randint(1, 3))
        fx = QHPolynomial({**field.fx.terms, Monomial3(0, 2, 0): b200}, SERIES_PARAMS)
        field = VectorField3(fx, field.fy, field.fz)
    return field, GeneratorStep(degree=s, generator=generator, reparam=reparam)


def stored_terms(field):
    """Every term of a field in stored order, each coefficient's included."""
    return [[(tuple(m), list(c.terms.items())) for m, c in comp.terms.items()]
            for comp in field.components]


class TestLieSeries:
    """apply_generator_step sums the adjoint exponential on integer
    numerators; the Fraction series of `oracle.lie_series_step` pins it."""

    @settings(max_examples=24, deadline=None)
    @given(st.sampled_from(["symbolic", "rational", "bound", "mixed"]),
           st.integers(0, 2 ** 32), st.integers(2, 6), st.data())
    def test_matches_the_fraction_series(self, kind, seed, max_field_degree, data):
        # up to degree 6, so that s = 1 nests the Horner sum six levels deep
        s = data.draw(st.integers(1, max_field_degree))
        field, step = series_case(random.Random(seed), kind, max_field_degree, s)
        constant = all(_is_constant(_integer_terms(c)) for c in field.components)
        assert constant == (kind == "bound")
        got = hz.apply_generator_step(field, step, max_field_degree)
        want = lie_series_step(field, step, max_field_degree)
        assert got.params == SERIES_PARAMS
        assert stored_terms(got) == stored_terms(want)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(["symbolic", "rational", "bound"]),
           st.integers(0, 2 ** 32), st.integers(2, 5), st.data())
    def test_an_inhomogeneous_generator_matches_the_fraction_series(
            self, kind, seed, max_field_degree, data):
        # degrees s and s + 1: the levels follow the lowest degree, and the
        # caps keep the higher slice's brackets too
        s = data.draw(st.integers(1, max_field_degree))
        field, step = series_case(random.Random(seed), kind, max_field_degree, s,
                                  inhomogeneous=True)
        assume(list(step.generator.decompose()) == [s, s + 1])
        got = hz.apply_generator_step(field, step, max_field_degree)
        want = lie_series_step(field, step, max_field_degree)
        assert stored_terms(got) == stored_terms(want)

    @pytest.mark.parametrize("max_field_degree,s", [(2, 1), (4, 1), (6, 1), (5, 2), (6, 4),
                                                    (4, 5)])
    @pytest.mark.parametrize("reparam", [False, True])
    def test_kernel_calls_per_step(self, monkeypatch, max_field_degree, s, reparam):
        # the Horner sum makes one kernel call per component and level, and
        # there are N // s levels; the time scaling adds one per component
        field, step = series_case(random.Random(31 * max_field_degree + s), "symbolic",
                                  max_field_degree, s)
        step = GeneratorStep(degree=s, generator=step.generator,
                             reparam=step.generator.fx.slice(s + 1).partial("x") if reparam
                             else QHPolynomial.zero(SERIES_PARAMS))
        assert not step.generator.is_zero() and bool(step.reparam) == reparam
        calls = []
        kernel = normalform._mul_integer

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(normalform, "_mul_integer", counting)
        got = hz.apply_generator_step(field, step, max_field_degree)
        assert len(calls) == 3 * (max_field_degree // s) + (3 if reparam else 0)
        monkeypatch.undo()
        assert got == lie_series_step(field, step, max_field_degree)

    @pytest.mark.parametrize("generator", [
        ({(0, 0, 0): 1}, {}, {}),                                # degree -1, nilpotent
        ({(1, 0, 1): 1}, {}, {(0, 1, 0): 1}),                    # degree 0
        ({(2, 0, 0): 1}, {(1, 1, 0): 1}, {(0, 0, 1): 1, (0, 0, 2): 1}),  # degrees 1 and 0
        ({}, {(0, 3, 0): 1, (0, 0, 0): -2}, {}),                 # degrees 2 and -1
    ])
    def test_a_generator_below_degree_one_is_refused(self, generator):
        # the Horner sum needs every bracket to raise the degree
        step = GeneratorStep(degree=1, generator=VectorField3(
            *(QHPolynomial(c, ()) for c in generator)), reparam=QHPolynomial.zero(()))
        with pytest.raises(hz.DegreeError, match="field degree"):
            hz.apply_generator_step(hz.principal_part(()), step, 4)

    def test_a_zero_generator_scales_time_alone(self):
        field, step = series_case(random.Random(7), "rational", 4, 2)
        step = GeneratorStep(degree=2, generator=VectorField3.zero(SERIES_PARAMS),
                             reparam=step.generator.fx.partial("x"))
        assert step.reparam
        got = hz.apply_generator_step(field, step, 4)
        assert got != field.truncate(4)
        assert stored_terms(got) == stored_terms(lie_series_step(field, step, 4))

    def test_no_partial_is_built(self, family37, monkeypatch):
        # the normal form, every continuation of the report path and
        # `classify` read each partial and divergence through derivative
        # pairs, so `QHPolynomial.partial` is never called
        calls = []
        partial = QHPolynomial.partial

        def counting_partial(*args):
            calls.append(args)
            return partial(*args)

        monkeypatch.setattr(QHPolynomial, "partial", counting_partial)
        hz.orbital_normal_form(family37, 3)
        for method in Method:
            _entries_only(family37, 6, method)
        hz.classify(family37, 6)
        hz.classify(family37.substitute_params(SERIES_POINT), 6)
        assert calls == []

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 3))
    def test_a_bound_field_takes_constant_steps(self, seed, max_degree, max_index):
        # a field bound to a point converts to `int` coefficients, and every
        # step `orbital_normal_form` takes on it, field, generator and
        # reparam, stays in that form, so each has constant coefficients
        rng = random.Random(seed)
        field = hz.principal_part(SERIES_PARAMS)
        for d in range(1, max_degree + 1):
            field = field + param_field_component(rng, d, SERIES_PARAMS)
        field = field.substitute_params(SERIES_POINT)
        assert all(_is_constant(_integer_terms(c)) for c in field.components)
        step = normalform._integer_step

        def int_form_step(current, generator, reparam, max_field_degree):
            assert all(map(_is_constant, current + generator + [reparam]))
            out = step(current, generator, reparam, max_field_degree)
            assert all(map(_is_constant, out))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(normalform, "_integer_step", int_form_step)
            nf = hz.orbital_normal_form(field, max_index)
        assert len(nf.generators) == 2 * max_index
        for step in nf.generators:
            polys = (*step.generator.components, step.reparam)
            assert step.generator.params == SERIES_PARAMS
            assert all(_is_constant(_integer_terms(p)) for p in polys)


class TestFirstResonance:
    def test_all_zero(self):
        nf = hz.orbital_normal_form(hz.principal_part(()), 3)
        res = hz.first_resonance(nf)
        assert res.l0 is None and res.m0 is None and res.n0 is None
        assert res.max_index == 3

    def test_family37_generic(self, family37):
        nf = hz.orbital_normal_form(family37, 2)
        res = hz.first_resonance(nf)
        assert res.l0 == 1 and res.m0 == 1
        # 2 a_1 + 2 b_1 = 0 and 2 a_2 + 3 b_2 = 0, so no index qualifies yet
        assert res.n0 is None
        assert res.principal_a == nf.a_coeffs[1]

    def test_manufactured_split_indices(self):
        params = ("c",)
        zero = ParamPolynomial.zero(params)
        c = ParamPolynomial.variable("c", params)
        nf = hz.NormalFormResult(a_coeffs={1: zero, 2: zero},
                                 b_coeffs={1: c, 2: zero}, max_index=2,
                                 generators=(), field=hz.principal_part(params),
                                 params=params)
        res = hz.first_resonance(nf)
        assert res.l0 is None and res.m0 == 1
        assert res.n0 == 1  # 2*0 + 2*c is nonzero symbolically

    def test_n0_definition_restatement(self, family37):
        nf = hz.orbital_normal_form(family37, 2)
        res = hz.first_resonance(nf)
        if res.l0 is not None and res.l0 == res.m0:
            combo = nf.a_coeffs[res.l0].scale(2) + nf.b_coeffs[res.l0].scale(res.l0 + 1)
            if combo:
                assert res.n0 == res.l0
            else:
                assert res.n0 is None or res.n0 > res.l0


class TestCoprimeResonance:
    def test_balanced(self):
        assert hz.coprime_resonance(Fraction(1), Fraction(-1), 1) == (1, 1)

    def test_family37_leading_pair(self):
        assert hz.coprime_resonance(Fraction(-3, 8), Fraction(3, 8), 1) == (1, 1)
        assert hz.coprime_resonance(Fraction(-1, 4), Fraction(1, 4), 1) == (1, 1)

    def test_negative_ratio_has_no_pair(self):
        assert hz.coprime_resonance(Fraction(1), Fraction(1), 1) is None

    def test_nontrivial_pair(self):
        # 2*1*a + 2*2*b = 0 with a = -2, b = 1 -> (n1, n2) = (1, 2)... check
        assert hz.coprime_resonance(Fraction(-2), Fraction(1), 1) == (1, 2)
        assert hz.coprime_resonance(Fraction(1), Fraction(-3), 2) == (9, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hz.coprime_resonance(Fraction(0), Fraction(1), 1)


class TestPlanarReduction:
    def test_all_zero_coefficients(self):
        nf = hz.orbital_normal_form(hz.principal_part(()), 2)
        planar = hz.planar_reduction(nf)
        assert str(planar.pu) == "v"
        assert planar.pv.is_zero()

    def test_single_pair(self):
        params = ("alpha", "beta")
        alpha = ParamPolynomial.variable("alpha", params)
        beta = ParamPolynomial.variable("beta", params)
        nf = hz.NormalFormResult(a_coeffs={1: alpha}, b_coeffs={1: beta},
                                 max_index=1, generators=(),
                                 field=hz.principal_part(params), params=params)
        planar = hz.planar_reduction(nf)
        assert str(planar.pu) == "v + beta*u^2"
        assert str(planar.pv) == "2*alpha*u*v"

    def test_family37_numeric(self, family37):
        bound = family37.substitute_params({"a001": 1, "b200": 0, "c030": 0})
        nf = hz.orbital_normal_form(bound, 2)
        planar = hz.planar_reduction(nf)
        assert str(planar.pu) == "v + 1/4*u^2"
        assert str(planar.pv) == "-1/2*u*v"


class TestScalingCovariance:
    def test_vanishing_pattern_is_invariant(self, family37, rng):
        bound = family37.substitute_params({"a001": 1, "b200": 2, "c030": Fraction(1, 3)})
        nf = hz.orbital_normal_form(bound, 2)
        base = hz.first_resonance(nf)
        base_pair = hz.coprime_resonance(
            base.principal_a.constant_value(), base.principal_b.constant_value(),
            base.l0)
        for _ in range(4):
            lam = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            sigma = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            conjugated = conjugate_scaling(bound, lam, sigma)
            normalized, _ = hz.normalize_principal_part(conjugated)
            res = hz.first_resonance(hz.orbital_normal_form(normalized, 2))
            assert (res.l0, res.m0) == (base.l0, base.m0)
            pair = hz.coprime_resonance(res.principal_a.constant_value(),
                                        res.principal_b.constant_value(), res.l0)
            assert pair == base_pair
