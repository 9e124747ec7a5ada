import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopfzero as hz
from hopfzero import DegreeError, Monomial3, ParamPolynomial, QHPolynomial, StructureError
from hopfzero import homological
from hopfzero.gradedpoly import _integer_terms, _is_constant, _lifted

from conftest import random_ppoly, random_qh_slice
from oracle import Elimination, h_component, lie_operator_matrix, slice_rows


def QH(terms, params=()):
    return QHPolynomial(terms, params)


def random_param_slice(rng, k, params, density=0.6):
    """Random slice whose coefficients are rational polynomials in `params`."""
    terms = {}
    for m in hz.slice_basis(k).monomials:
        if rng.random() < density:
            terms[m] = random_ppoly(rng, params, max_degree=2, terms=3).scale(
                Fraction(1, rng.randint(1, 6)))
    return QHPolynomial(terms, params)


def elimination_solve(k, rhs):
    """The slice solve by generic elimination: the operator's rows from the
    oracle's `slice_rows`, reduced by its `Elimination`; the residual is read off
    the zero row, and the kernel part removed by the harmonic projection."""
    basis, rows = slice_rows(k)
    n = len(basis)
    elim = Elimination(rows, n)
    params = rhs.params
    zero = ParamPolynomial.zero(params)
    index = {m: i for i, m in enumerate(basis.monomials)}
    vector = [zero] * n
    for m, c in rhs.terms.items():
        vector[index[m]] = c
    reduced = elim.replay_poly(vector)
    residual = zero
    if k % 2 == 0:
        (zero_row,) = elim.zero_rows
        e_c = [ParamPolynomial.zero(())] * n
        e_c[index[Monomial3(0, 0, k // 2)]] = ParamPolynomial.constant(1, ())
        transformed = [t.constant_value() for t in elim.replay_poly(e_c)]
        if reduced[zero_row]:
            residual = reduced[zero_row].scale(1 / transformed[zero_row])
            reduced = [r - residual.scale(t) if t else r
                       for r, t in zip(reduced, transformed)]
        assert not reduced[zero_row]
    else:
        assert not elim.zero_rows
    x = elim.back_substitute(reduced, zero)
    solution = QHPolynomial({basis.monomials[i]: x[i] for i in range(n) if x[i]}, params)
    if k % 2 == 0 and k >= 2:
        kernel_coeff = h_component(solution, k // 2)
        if kernel_coeff:
            solution = solution - QHPolynomial.h_power(k // 2, params).scale_param(
                kernel_coeff)
    return solution, residual


# numerators of either sign over large, mixed denominators: powers of 3 and
# 7, 2^40, and their products, so the chain's values need large common
# denominators and often cancel
_DENOMINATORS = st.sampled_from([1, 3 ** 9, 7 ** 8, 2 ** 40, 3 ** 5 * 7 ** 4,
                                 2 ** 40 * 3 ** 7, 2 ** 40 * 7 ** 5])
_RATIONALS = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12).filter(bool),
                       _DENOMINATORS)


@st.composite
def _integer_path_slices(draw):
    """(k, rhs): a random degree-k slice, k <= 16, over 0 to 2 parameters."""
    params = draw(st.sampled_from([(), ("a",), ("a", "b")]))
    k = draw(st.integers(0, 16))
    monomials = hz.slice_basis(k).monomials
    exponents = st.tuples(*[st.integers(0, 2)] * len(params))
    terms = draw(st.dictionaries(st.sampled_from(monomials),
                                 st.dictionaries(exponents, _RATIONALS,
                                                 min_size=1, max_size=3),
                                 max_size=len(monomials)))
    return k, QHPolynomial({m: ParamPolynomial(c, params) for m, c in terms.items()},
                           params)


@st.composite
def _kernel_free_slices(draw):
    """(k, f): a random degree-k polynomial, k <= 14, over 0 to 2
    parameters, some of its z-levels wholly zero, and on even k with no
    (x^2+y^2)^(k/2) component, so that it is the solve's own solution of
    L f = g."""
    params = draw(st.sampled_from([(), ("a",), ("a", "b")]))
    k = draw(st.integers(0, 14))
    zero_levels = draw(st.sets(st.integers(0, k // 2)))
    monomials = [m for m in hz.slice_basis(k).monomials if m.ez not in zero_levels]
    exponents = st.tuples(*[st.integers(0, 2)] * len(params))
    terms = draw(st.dictionaries(st.sampled_from(monomials),
                                 st.dictionaries(exponents, _RATIONALS,
                                                 min_size=1, max_size=3),
                                 max_size=len(monomials))) if monomials else {}
    f = QHPolynomial({m: ParamPolynomial(c, params) for m, c in terms.items()}, params)
    if k % 2 == 0:
        f = f - QHPolynomial.h_power(k // 2, params).scale_param(h_component(f, k // 2))
    return k, f


def as_dicts(converted):
    """A converted form with each coefficient's items as a dict, or its
    `int` as it is."""
    den, terms = converted
    return den, [(*t[:3], t[3] if type(t[3]) is int else dict(t[3])) for t in terms]


def unreduced(converted, c):
    """A converted form with its denominator and numerators times c."""
    den, terms = converted
    return c * den, [(*t[:3], c * t[3] if type(t[3]) is int else [(e, c * n) for e, n in t[3]])
                     for t in terms]


def stored_form(f):
    """The terms of `f` in stored order, with each coefficient's terms."""
    return [(m, list(c.terms.items())) for m, c in f.terms.items()]


class TestOperatorMatrix:
    def test_degree_one(self):
        m = lie_operator_matrix(1)
        assert m.matrix == ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))

    def test_degree_zero(self):
        assert lie_operator_matrix(0).matrix == ((Fraction(0),),)

    def test_degree_two_images(self):
        m = lie_operator_matrix(2)
        basis = m.col_basis.monomials
        index = {mono: i for i, mono in enumerate(basis)}

        def column(mono):
            c = index[mono]
            return {basis[r]: m.matrix[r][c] for r in range(len(basis))
                    if m.matrix[r][c]}

        assert column((2, 0, 0)) == {(1, 1, 0): Fraction(-4)}
        assert column((1, 1, 0)) == {(2, 0, 0): Fraction(2), (0, 2, 0): Fraction(-2)}
        assert column((0, 2, 0)) == {(1, 1, 0): Fraction(4)}
        assert column((0, 0, 1)) == {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1)}

    def test_matrix_matches_operator_action(self, rng):
        # columns agree with the directional derivative along the principal part
        k = 4
        m = lie_operator_matrix(k)
        f0 = hz.principal_part(())
        for c, mono in enumerate(m.col_basis.monomials):
            image = hz.directional_derivative(QH({mono: 1}), f0)
            expected = {m.row_basis.monomials[r]: m.matrix[r][c]
                        for r in range(len(m.row_basis)) if m.matrix[r][c]}
            got = {mm: cc.constant_value() for mm, cc in image.terms.items()}
            assert got == expected
        # and the oracle's sparse rows, which the elimination references are
        # built from, agree with the sympy matrix
        for k in range(9):
            m = lie_operator_matrix(k)
            _, rows = slice_rows(k)
            assert rows == [{c: v for c, v in enumerate(row) if v} for row in m.matrix]


class TestAnalyze:
    def test_even_degree_two(self):
        analysis = hz.analyze_operator(2)
        assert len(analysis.kernel_basis) == 1
        assert analysis.kernel_basis[0] == QHPolynomial.h_power(1, ())
        assert analysis.cokernel_representative == QH({(0, 0, 1): 1})

    def test_odd_degree_bijective(self):
        analysis = hz.analyze_operator(3)
        assert analysis.kernel_basis == ()
        assert analysis.cokernel_representative is None

    def test_degenerate_degree_zero(self):
        analysis = hz.analyze_operator(0)
        assert analysis.kernel_basis == (QHPolynomial.constant(1, ()),)
        assert analysis.cokernel_representative == QHPolynomial.constant(1, ())

    def test_structure_through_twelve(self):
        for k in range(1, 13):
            analysis = hz.analyze_operator(k)
            if k % 2:
                assert analysis.kernel_basis == ()
            else:
                assert analysis.kernel_basis == (QHPolynomial.h_power(k // 2, ()),)
                assert analysis.cokernel_representative == QH({(0, 0, k // 2): 1})

    def test_checks_the_chain_solve(self, monkeypatch):
        # a chain solve that doubles its output no longer inverts the
        # operator, and the analysis, which reads the structure back from
        # that solve, refuses it
        solve = homological._solve_levels

        def doubled(k, rhs):
            common, terms = solve(k, rhs)
            return common, [(*t[:3], [(e, 2 * n) for e, n in t[3]]) for t in terms]

        monkeypatch.setattr(homological, "_solve_levels", doubled)
        for k in range(1, 13):
            with pytest.raises(StructureError):
                hz.analyze_operator(k)


class TestSolve:
    def test_cokernel_direction(self):
        params = ("c",)
        c = ParamPolynomial.variable("c", params)
        rhs = QHPolynomial({(0, 0, 1): c}, params)
        sol = hz.solve_homological(2, rhs)
        assert sol.solution.is_zero()
        assert sol.residual == c

    def test_x_squared(self):
        rhs = QH({(2, 0, 0): 1})
        sol = hz.solve_homological(2, rhs)
        assert sol.residual.is_zero()
        assert sol.solution == QH({(0, 0, 1): Fraction(1, 2), (1, 1, 0): Fraction(1, 4)})
        # independent check: apply the operator directly
        f0 = hz.principal_part(())
        assert hz.directional_derivative(sol.solution, f0) == rhs
        assert h_component(sol.solution, 1).is_zero()

    def test_odd_degree_never_has_residual(self, rng):
        for _ in range(10):
            rhs = random_qh_slice(rng, 3)
            sol = hz.solve_homological(3, rhs)
            assert sol.residual.is_zero()
            f0 = hz.principal_part(())
            assert hz.directional_derivative(sol.solution, f0) == rhs

    def test_wrong_degree_rejected(self):
        with pytest.raises(DegreeError):
            hz.solve_homological(4, QH({(1, 0, 0): 1}))

    def test_negative_degree_rejected(self):
        with pytest.raises(DegreeError):
            hz.solve_homological(-2, QH({}))
        with pytest.raises(DegreeError):
            hz.analyze_operator(-1)

    def test_random_recombination(self, rng):
        # operator(solution) + residual * z^(k/2) reconstructs the right-hand
        # side exactly, and the solution is kernel-free
        for params, count in (((), 100), (("a", "b"), 10)):
            f0 = hz.principal_part(params)
            for k in range(1, 13):
                for _ in range(count):
                    if params:
                        rhs = random_param_slice(rng, k, params, density=0.5)
                    else:
                        rhs = random_qh_slice(rng, k, density=0.5)
                    sol = hz.solve_homological(k, rhs)
                    image = hz.directional_derivative(sol.solution, f0)
                    if sol.residual:
                        image = image + QHPolynomial({(0, 0, k // 2): sol.residual},
                                                     params)
                    assert image == rhs
                    if k % 2 == 0 and k >= 2:
                        assert h_component(sol.solution, k // 2).is_zero()

    def test_matches_elimination_solve_bit_for_bit(self, rng):
        # the same solution and residual as generic elimination with the
        # harmonic normalization, down to the stored order of every
        # coefficient's terms
        for params in ((), ("a",), ("a", "b")):
            for k in range(25):
                for _ in range(3):
                    rhs = random_param_slice(rng, k, params)
                    sol = hz.solve_homological(k, rhs)
                    solution, residual = elimination_solve(k, rhs)
                    assert stored_form(sol.solution) == stored_form(solution), (k, params)
                    assert list(sol.residual.terms.items()) == \
                        list(residual.terms.items()), (k, params)

    @settings(max_examples=60, deadline=None)
    @given(_integer_path_slices())
    @example((4, QH({Monomial3(4, 0, 0): ParamPolynomial({(0,): 1}, ("a",)),
                     Monomial3(0, 0, 2): ParamPolynomial({(1,): 1}, ("a",))}, ("a",))))
    def test_integer_path_matches_elimination(self, case):
        # large mixed denominators and negative numerators: the integer
        # chain gives generic elimination's solution and residual, down to
        # each coefficient's term order, and L f + r z^(k/2) = g holds
        k, rhs = case
        sol = hz.solve_homological(k, rhs)
        solution, residual = elimination_solve(k, rhs)
        assert stored_form(sol.solution) == stored_form(solution)
        assert list(sol.residual.terms.items()) == list(residual.terms.items())
        # the integer entry returns the solution's converted form, reduced,
        # in the form of the right-hand side: items when it holds items, even
        # where every solved coefficient is constant (x^4 + a z^2 at k = 4,
        # whose parameter sits in the unread z^(k/2) term alone)
        converted = _integer_terms(rhs)
        den, terms = homological._solve_levels(k, converted)
        want = _integer_terms(sol.solution)
        assert as_dicts((den, terms)) == \
            as_dicts(want if _is_constant(converted) else _lifted(want))
        assert math.gcd(den, *(n for t in _lifted((den, terms))[1] for _, n in t[3])) == 1
        image = hz.directional_derivative(sol.solution, hz.principal_part(rhs.params))
        if sol.residual:
            image = image + QHPolynomial({(0, 0, k // 2): sol.residual}, rhs.params)
        assert image == rhs

    @settings(max_examples=80, deadline=None)
    @given(_kernel_free_slices(), st.sampled_from([None, 1, -3, Fraction(2, 7)]))
    def test_round_trip_through_the_operator(self, case, value):
        # the solve of L f is f itself, in the reduced converted form: no
        # zero sum and no zero level kept, and the lowest denominator.  With
        # its parameters bound to `value`, f is constant over its parameter
        # table, its converted form holds `int`s and the solve takes the
        # plain-int path; the dict path gives the same on the input lifted
        # to items
        k, f = case
        if value is not None:
            f = f.substitute_params({p: value for p in f.params})
        rhs = _integer_terms(hz.directional_derivative(f, hz.principal_part(f.params)))
        assert _is_constant(rhs) or value is None
        want = _integer_terms(f)
        assert as_dicts(homological._solve_levels(k, rhs)) == as_dicts(want)
        assert as_dicts(homological._solve_levels(k, _lifted(rhs))) == as_dicts(_lifted(want))

    def test_one_item_coefficients_with_a_parameter_take_the_dict_path(self):
        # every coefficient is one item, but not at the key 0: not constant,
        # and the solution keeps its parameter
        params = ("a",)
        a = ParamPolynomial.variable("a", params)
        rhs = QHPolynomial({(3, 1, 0): a, (0, 4, 0): a * a}, params)
        assert not _is_constant(_integer_terms(rhs))
        sol = hz.solve_homological(4, rhs)
        assert all(not c.is_constant() for c in sol.solution.terms.values())
        image = hz.directional_derivative(sol.solution, hz.principal_part(params))
        assert image == rhs and sol.residual.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(_integer_path_slices(), st.integers(2, 10 ** 30))
    def test_an_unreduced_right_hand_side_solves_the_same(self, case, c):
        # (c*D, [c*n ...]) is the right-hand side (D, [n ...]) unreduced
        k, rhs = case
        converted = _integer_terms(rhs)
        assert homological._solve_levels(k, unreduced(converted, c)) == \
            homological._solve_levels(k, converted)

    @settings(max_examples=40, deadline=None)
    @given(_integer_path_slices(), st.integers(2, 10 ** 30), st.integers(-4, 4))
    def test_an_unreduced_constant_right_hand_side_solves_the_same(self, case, c, value):
        # the same on the plain-int path, the parameters bound to `value`,
        # and on the dict path, that input lifted to items
        k, rhs = case
        converted = _integer_terms(rhs.substitute_params({p: value for p in rhs.params}))
        assert _is_constant(converted)
        want = homological._solve_levels(k, converted)
        assert homological._solve_levels(k, unreduced(converted, c)) == want
        assert homological._solve_levels(k, _lifted(unreduced(converted, c))) == _lifted(want)

    def test_self_check_catches_a_wrong_circle_mean(self, monkeypatch):
        # a circle mean off by one leaves the next level's last equation
        # unsatisfied, and the solve refuses to return
        mean = homological._circle_mean

        def wrong(u, d):
            den, n = mean(u, d)
            return den, n + den if type(n) is int else {**n, 0: n.get(0, 0) + den}

        monkeypatch.setattr(homological, "_circle_mean", wrong)
        with pytest.raises(StructureError):
            hz.solve_homological(4, QH({(2, 2, 0): 1}))

    def test_parameter_rhs_rides_linearly(self):
        params = ("s", "t")
        s = ParamPolynomial.variable("s", params)
        t = ParamPolynomial.variable("t", params)
        rhs = QHPolynomial({(2, 0, 0): s, (0, 0, 1): t}, params)
        sol = hz.solve_homological(2, rhs)
        f0 = hz.principal_part(params)
        image = hz.directional_derivative(sol.solution, f0) + \
            QHPolynomial({(0, 0, 1): sol.residual}, params)
        assert image == rhs
        # residual collects the t part plus nothing from the range part
        assert sol.residual == t

    def test_determinism(self, rng):
        rhs = random_qh_slice(rng, 8)
        first = hz.solve_homological(8, rhs)
        second = hz.solve_homological(8, rhs)
        assert first.solution == second.solution
        assert first.residual == second.residual
        assert list(first.solution.terms) == list(second.solution.terms)
