from fractions import Fraction

import pytest

import hopfzero as hz
from hopfzero import (ParamPolynomial, Poly2, QHPolynomial, VectorField3, gradedpoly,
                      vectorfield)

from conftest import (Pairs, capped_bracket, capped_product, random_field_component,
                      random_ppoly)
from oracle import (directional_derivative_sympy, divergence_sympy,
                    field_to_sympy, qh_to_sympy, truncate_sympy)

PARAMS = ("a", "b")


def QH(terms, params=()):
    return QHPolynomial(terms, params)


def F0():
    return hz.principal_part(())


def param_field(rng, degrees):
    """Random field over PARAMS with parameter-polynomial coefficients and a
    component in each of the given field degrees."""
    def component(degree):
        return QHPolynomial({m: random_ppoly(rng, PARAMS, max_degree=2, terms=2)
                             for m in hz.slice_basis(degree).monomials
                             if rng.random() < 0.5}, PARAMS)

    field = VectorField3.zero(PARAMS)
    for d in degrees:
        field = field + VectorField3(component(d + 1), component(d + 1), component(d + 2))
    return field


class TestDivergence:
    def test_principal_part(self):
        assert hz.divergence(F0()).is_zero()

    def test_resonant_shape(self):
        # (a z^k x, a z^k y, b z^(k+1)) has divergence (2a + (k+1) b) z^k
        params = ("a", "b")
        a = hz.ParamPolynomial.variable("a", params)
        b = hz.ParamPolynomial.variable("b", params)
        k = 2
        field = VectorField3(QHPolynomial({(1, 0, k): a}, params),
                             QHPolynomial({(0, 1, k): a}, params),
                             QHPolynomial({(0, 0, k + 1): b}, params))
        expected = QHPolynomial({(0, 0, k): a.scale(2) + b.scale(k + 1)}, params)
        assert hz.divergence(field) == expected

    def test_identity_field(self):
        field = VectorField3(QH({(1, 0, 0): 1}), QH({(0, 1, 0): 1}), QH({(0, 0, 1): 1}))
        assert hz.divergence(field) == QH({(0, 0, 0): 3})

    def test_against_sympy(self, rng):
        field = random_field_component(rng, 2)
        import sympy as sp
        assert sp.expand(qh_to_sympy(hz.divergence(field))
                         - divergence_sympy(field_to_sympy(field))) == 0


class TestDirectionalDerivative:
    def test_h_along_principal(self):
        h = QHPolynomial.h_power(1, ())
        assert hz.directional_derivative(h, F0()).is_zero()

    def test_z_along_principal(self):
        z = QHPolynomial.variable("z", ())
        assert hz.directional_derivative(z, F0()) == QHPolynomial.h_power(1, ())

    def test_x_along_principal(self):
        x = QHPolynomial.variable("x", ())
        assert hz.directional_derivative(x, F0()) == QH({(0, 1, 0): -2})

    def test_is_derivation(self, rng):
        from conftest import random_qh_slice
        field = random_field_component(rng, 1) + random_field_component(rng, 2)
        for _ in range(5):
            f = random_qh_slice(rng, 3)
            g = random_qh_slice(rng, 2)
            lhs = hz.directional_derivative(f * g, field)
            rhs = f * hz.directional_derivative(g, field) + \
                g * hz.directional_derivative(f, field)
            assert lhs == rhs

    def test_against_sympy_with_params_and_cap(self, rng):
        import sympy as sp
        h = param_field(rng, (1, 2)).fz  # degrees 3 and 4
        field = param_field(rng, (0, 2))
        full = directional_derivative_sympy(qh_to_sympy(h), field_to_sympy(field))
        assert sp.expand(qh_to_sympy(hz.directional_derivative(h, field)) - full) == 0
        # under a cap, through the kernel, as the normal form's steps call it
        pairs = [(h.partial(v), c) for v, c in zip("xyz", field.components)]
        for cap in (3, 5):
            got = qh_to_sympy(capped_product(pairs, [], cap))
            assert sp.expand(got - truncate_sympy(full, cap)) == 0


class TestLieBracket:
    def test_antisymmetry_with_self(self, rng):
        field = random_field_component(rng, 2)
        assert hz.lie_bracket(field, field).is_zero()

    def test_euler_field_commutes_with_principal(self):
        euler = VectorField3(QH({(1, 0, 0): 1}), QH({(0, 1, 0): 1}), QH({(0, 0, 1): 2}))
        assert hz.lie_bracket(euler, F0()).is_zero()

    def test_principal_with_vertical(self):
        # [F0, (0,0,z)] = D(0,0,z).F0 - DF0.(0,0,z) = (0, 0, x^2+y^2)
        g = VectorField3(QHPolynomial.zero(()), QHPolynomial.zero(()),
                         QHPolynomial.variable("z", ()))
        got = hz.lie_bracket(F0(), g)
        assert got == VectorField3(QHPolynomial.zero(()), QHPolynomial.zero(()),
                                   QHPolynomial.h_power(1, ()))

    def test_bilinearity_and_antisymmetry(self, rng):
        f = random_field_component(rng, 1)
        g = random_field_component(rng, 2)
        h = random_field_component(rng, 2)
        assert hz.lie_bracket(f, g + h) == hz.lie_bracket(f, g) + hz.lie_bracket(f, h)
        assert hz.lie_bracket(f, g.scale(3)) == hz.lie_bracket(f, g).scale(3)
        assert hz.lie_bracket(f, g) == -hz.lie_bracket(g, f)

    def test_jacobi_identity(self, rng):
        f = random_field_component(rng, 0)
        g = random_field_component(rng, 1)
        h = random_field_component(rng, 2)
        total = (hz.lie_bracket(f, hz.lie_bracket(g, h))
                 + hz.lie_bracket(g, hz.lie_bracket(h, f))
                 + hz.lie_bracket(h, hz.lie_bracket(f, g)))
        assert total.is_zero()

    def test_against_sympy_first_order(self, rng):
        import sympy as sp
        from oracle import X, Y, Z
        f = random_field_component(rng, 1)
        g = random_field_component(rng, 2)
        got = field_to_sympy(hz.lie_bracket(f, g))
        fe, ge = field_to_sympy(f), field_to_sympy(g)
        for comp in range(3):
            expected = sp.expand(
                sum(sp.diff(ge[comp], var) * fe[i]
                    - sp.diff(fe[comp], var) * ge[i]
                    for i, var in enumerate((X, Y, Z))))
            assert sp.expand(got[comp] - expected) == 0

    def test_against_sympy_with_params_and_cap(self, rng):
        import sympy as sp
        from oracle import X, Y, Z
        f = param_field(rng, (0, 1, 2))
        g = param_field(rng, (1, 3))
        fe, ge = field_to_sympy(f), field_to_sympy(g)
        full = [sp.expand(sum(sp.diff(ge[comp], var) * fe[i] - sp.diff(fe[comp], var) * ge[i]
                              for i, var in enumerate((X, Y, Z))))
                for comp in range(3)]
        got = field_to_sympy(hz.lie_bracket(f, g))
        assert all(sp.expand(got[comp] - full[comp]) == 0 for comp in range(3))
        # under a cap, on `_bracket_pairs`, as the normal form's steps call the kernel
        for cap in (1, 3, 4):
            got = field_to_sympy(VectorField3(*capped_bracket(f, g, cap)))
            for comp in range(3):
                expected = truncate_sympy(full[comp], cap + (2 if comp == 2 else 1))
                assert sp.expand(got[comp] - expected) == 0

    @pytest.mark.parametrize("bound", [False, True])
    def test_constant_operands_are_scanned_once_per_bracket(self, rng, monkeypatch, bound):
        # the three products of a bracket share the six components; the
        # constant check reads each of them once, and never a partial
        f = param_field(rng, (0, 1, 2))
        g = param_field(rng, (1, 3))
        want = hz.lie_bracket(f, g)
        if bound:
            point = {"a": Fraction(2, 3), "b": Fraction(-5, 2)}
            f, g = f.substitute_params(point), g.substitute_params(point)
            want = want.substitute_params(point)
        scans = []
        is_constant = gradedpoly._is_constant

        def counting(converted):
            scans.append(converted)
            return is_constant(converted)

        monkeypatch.setattr(gradedpoly, "_is_constant", counting)
        monkeypatch.setattr(vectorfield, "_is_constant", counting)
        got = hz.lie_bracket(f, g)
        assert got == want
        components = [gradedpoly._integer_terms(c) for c in f.components + g.components]
        assert [c[1] for c in scans] == [c[1] for c in components][:len(scans)]
        if bound:
            assert len(scans) == 6
        else:  # the scan stops at the first component that is not constant
            assert not is_constant(scans[-1])


class TestPoly2:
    def test_strings(self):
        # the branches of the printer, as for QHPolynomial
        params = ("a", "b")
        a = ParamPolynomial.variable("a", params)
        b = ParamPolynomial.variable("b", params)
        p = Poly2({(0, 0): Fraction(-3, 2), (1, 0): 1, (0, 1): -1, (2, 0): Fraction(-5, 7),
                   (1, 1): -a, (0, 2): a.scale(Fraction(2, 3)), (3, 0): b.scale(2) - a},
                  params)
        assert str(p) == "-3/2 + u - v - 5/7*u^2 - a*u*v + 2/3*a*v^2 + (-a + 2*b)*u^3"
        assert str(Poly2({(1, 0): a - b.scale(2), (0, 1): 2}, params)) == "(a - 2*b)*u + 2*v"
        assert str(Poly2({(0, 0): b - a, (1, 0): Fraction(-1, 2)}, params)) == "-a + b - 1/2*u"
        assert str(Poly2({}, params)) == "0"
        assert str(Poly2({(0, 2): -1}, ())) == "-v^2"

    def test_terms_merge_and_sort(self):
        p = Poly2({(0, 1): 1, (2, 0): 3, (1, 0): -1}, ())
        assert list(p.terms) == [(1, 0), (0, 1), (2, 0)]
        assert Poly2(Pairs([((1, 0), 1), ([1, 0], -1)]), ()).is_zero()
        assert Poly2(Pairs([((1, 0), 1), ([1, 0], 1)]), ()) == Poly2({(1, 0): 2}, ())

    def test_coefficient_ring_is_checked(self):
        with pytest.raises(ValueError):
            Poly2({(1, 0): ParamPolynomial.constant(1, ("a",))}, ())
