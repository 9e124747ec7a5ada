from fractions import Fraction

import pytest

import hopfzero as hz
from hopfzero import DegreeError, ParamPolynomial, QHPolynomial
from hopfzero.homological import _Elimination, _slice_rows

from conftest import random_qh_slice


def QH(terms, params=()):
    return QHPolynomial(terms, params)


class TestOperatorMatrix:
    def test_degree_one(self):
        m = hz.lie_operator_matrix(1)
        assert m.matrix == ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))

    def test_degree_zero(self):
        assert hz.lie_operator_matrix(0).matrix == ((Fraction(0),),)

    def test_degree_two_images(self):
        m = hz.lie_operator_matrix(2)
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
        m = hz.lie_operator_matrix(k)
        f0 = hz.principal_part(())
        for c, mono in enumerate(m.col_basis.monomials):
            image = hz.directional_derivative(QH({mono: 1}), f0)
            expected = {m.row_basis.monomials[r]: m.matrix[r][c]
                        for r in range(len(m.row_basis)) if m.matrix[r][c]}
            got = {mm: cc.constant_value() for mm, cc in image.terms.items()}
            assert got == expected


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
        assert hz.h_component(sol.solution, 1).is_zero()

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

    def test_random_recombination(self, rng):
        # operator(solution) + residual * z^(k/2) reconstructs the right-hand
        # side exactly, and the solution is kernel-free
        f0 = hz.principal_part(())
        for k in range(1, 13):
            for _ in range(100):
                rhs = random_qh_slice(rng, k, density=0.5)
                sol = hz.solve_homological(k, rhs)
                image = hz.directional_derivative(sol.solution, f0)
                if sol.residual:
                    image = image + QHPolynomial({(0, 0, k // 2): sol.residual}, ())
                assert image == rhs
                if k % 2 == 0 and k >= 2:
                    assert hz.h_component(sol.solution, k // 2).is_zero()

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


class TestElimination:
    def test_sparsest_pivot_keeps_fill_in_low(self):
        # the echelon form holds at most 10 % more nonzeros than the operator;
        # pivoting on the first nonzero row instead gives up to 2.24 times
        for k in range(1, 31):
            _, rows = _slice_rows(k)
            elim = _Elimination(rows, len(rows))
            assert sum(map(len, elim.rows)) <= 1.10 * sum(map(len, rows)), k


class TestCache:
    def test_concurrent_first_build_is_single(self):
        # many readers racing on a cold degree must all see one analysis object
        import threading

        from hopfzero.homological import clear_cache

        clear_cache()
        results = [None] * 16
        barrier = threading.Barrier(16)

        def worker(i):
            barrier.wait()
            results[i] = hz.analyze_operator(14)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)
        assert len(results[0].kernel_basis) == 1
