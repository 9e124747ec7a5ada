from fractions import Fraction

import pytest
import sympy as sp

import hopfzero as hz
from hopfzero import (ParamPolynomial, PrincipalPartError, QHPolynomial,
                      VectorField3)
from hopfzero import normalform
from hopfzero.homological import _Elimination
from hopfzero.normalform import _solve_degree

from conftest import (field_from_text, random_field_component,
                      random_perturbed_field, random_ppoly)
from oracle import degree2_orbital_normal_form, field_to_sympy, ppoly_to_sympy


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

    def test_stop_at_first_resonance_matches_prefix(self, family37):
        full = hz.orbital_normal_form(family37, 2)
        short = hz.orbital_normal_form(family37, 2, stop_at_first_resonance=True)
        assert short.max_index == 1
        assert short.a_coeffs[1] == full.a_coeffs[1]
        assert short.b_coeffs[1] == full.b_coeffs[1]

    def test_determinism(self, family38):
        first = hz.orbital_normal_form(family38, 2)
        second = hz.orbital_normal_form(family38, 2)
        assert first.a_coeffs == second.a_coeffs
        assert first.b_coeffs == second.b_coeffs
        assert first.field == second.field


class TestSolveDegree:
    """The degree solve meets its defining equation, checked with the generic
    Lie bracket: [F0, U] - mu F0 + a R1 + b R2 == known."""

    @staticmethod
    def check(known, s):
        params = known.params
        u, mu, a, b = _solve_degree(known, s)
        f0 = hz.principal_part(params)
        achieved = hz.lie_bracket(f0, u) - f0.scale_poly(mu)
        if s % 2 == 0:
            k = s // 2
            achieved = achieved + VectorField3(
                QHPolynomial({(1, 0, k): a}, params), QHPolynomial({(0, 1, k): a}, params),
                QHPolynomial({(0, 0, k + 1): b}, params))
        else:
            assert not a and not b
        assert achieved == known

    @pytest.mark.parametrize("s", range(1, 9))
    def test_rational_slices(self, rng, s):
        for _ in range(2):
            self.check(random_field_component(rng, s), s)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_one_parameter_slices(self, rng, s):
        params = ("p",)

        def component(degree):
            return QHPolynomial({m: random_ppoly(rng, params, max_degree=2, terms=2)
                                 for m in hz.slice_basis(degree).monomials
                                 if rng.random() < 0.7}, params)

        self.check(VectorField3(component(s + 1), component(s + 1), component(s + 2)), s)

    def test_free_columns_match_first_row_pivoting(self, rng, monkeypatch):
        # the pivot row choice must not change which unknowns are free, since
        # free unknowns are set to zero
        systems = []

        class Recording(_Elimination):
            def __init__(self, sparse_rows, n_cols):
                super().__init__(sparse_rows, n_cols)
                systems.append((sparse_rows, n_cols, self))

        monkeypatch.setattr(normalform, "_Elimination", Recording)
        for s in range(1, 11):
            _solve_degree(random_field_component(rng, s), s)
            sparse_rows, n_cols, elim = systems[-1]
            assert elim.free_columns == first_row_free_columns(sparse_rows, n_cols), s


def first_row_free_columns(sparse_rows, n_cols):
    """Free columns of Gaussian elimination that pivots each column, in
    order, on its first remaining row with a nonzero there."""
    rows = [dict(r) for r in sparse_rows]
    free = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i].get(c)), None)
        if pivot is None:
            free.append(c)
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i].get(c):
                factor = rows[i][c] / rows[r][c]
                for cc, v in rows[r].items():
                    rows[i][cc] = rows[i].get(cc, 0) - factor * v
        r += 1
    return free


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
