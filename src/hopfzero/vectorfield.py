"""Vector-field calculus for the graded setting.

A `VectorField3` of quasi-homogeneous degree k has x- and y-components in the
degree-(k+1) slice and z-component in the degree-(k+2) slice.  The planar
types live in two variables (u, v) and hold the reduced planar system of the
normal form.

The public calculus (`divergence`, `directional_derivative`, `lie_bracket`)
takes no degree cap.  All of it hands the kernel (`gradedpoly._mul_integer`)
derivative pairs, which it differentiates as it reads them, so the calculus
builds no partial.  `_bracket_pairs` writes the six derivative pairs of a
bracket component once, for `lie_bracket` and for the normal form's steps,
which add a pair of their own to each level of their Horner sum and run
the kernel under that level's degree cap (`normalform._integer_step`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from .coeffring import ParamPolynomial, RationalLike, _format_terms, _merged
from .gradedpoly import (_ONE, VAR_NAMES, IntegerTerms, QHPolynomial, _from_integer_terms,
                         _integer_terms, _is_constant, _mul_integer)


class VectorField3:
    """Triple of QHPolynomials (dx/dt, dy/dt, dz/dt)."""

    __slots__ = ("fx", "fy", "fz", "params")

    def __init__(self, fx: QHPolynomial, fy: QHPolynomial, fz: QHPolynomial):
        if fx.params != fy.params or fx.params != fz.params:
            raise ValueError("component parameter tables differ")
        object.__setattr__(self, "fx", fx)
        object.__setattr__(self, "fy", fy)
        object.__setattr__(self, "fz", fz)
        object.__setattr__(self, "params", fx.params)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField3 is immutable")

    @classmethod
    def zero(cls, params: Iterable[str]) -> "VectorField3":
        z = QHPolynomial.zero(params)
        return cls(z, z, z)

    @property
    def components(self) -> Tuple[QHPolynomial, QHPolynomial, QHPolynomial]:
        return (self.fx, self.fy, self.fz)

    def __add__(self, other: "VectorField3") -> "VectorField3":
        return VectorField3(self.fx + other.fx, self.fy + other.fy, self.fz + other.fz)

    def __sub__(self, other: "VectorField3") -> "VectorField3":
        return VectorField3(self.fx - other.fx, self.fy - other.fy, self.fz - other.fz)

    def __neg__(self) -> "VectorField3":
        return VectorField3(-self.fx, -self.fy, -self.fz)

    def scale(self, factor: RationalLike) -> "VectorField3":
        return VectorField3(self.fx.scale(factor), self.fy.scale(factor),
                            self.fz.scale(factor))

    def component(self, k: int) -> "VectorField3":
        """Quasi-homogeneous component of field degree k."""
        return VectorField3(self.fx.slice(k + 1), self.fy.slice(k + 1),
                            self.fz.slice(k + 2))

    def decompose(self) -> Dict[int, "VectorField3"]:
        degrees = sorted({m.degree - 1 for m in self.fx.terms}
                         | {m.degree - 1 for m in self.fy.terms}
                         | {m.degree - 2 for m in self.fz.terms})
        return {k: self.component(k) for k in degrees}

    def truncate(self, max_field_degree: int) -> "VectorField3":
        return VectorField3(self.fx.truncate(max_field_degree + 1),
                            self.fy.truncate(max_field_degree + 1),
                            self.fz.truncate(max_field_degree + 2))

    def is_zero(self) -> bool:
        return self.fx.is_zero() and self.fy.is_zero() and self.fz.is_zero()

    def substitute_params(self, values: Mapping[str, RationalLike]) -> "VectorField3":
        return VectorField3(self.fx.substitute_params(values),
                            self.fy.substitute_params(values),
                            self.fz.substitute_params(values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField3):
            return NotImplemented
        return self.components == other.components

    def __str__(self) -> str:
        return f"(dx = {self.fx}, dy = {self.fy}, dz = {self.fz})"

    def __repr__(self) -> str:
        return f"VectorField3{self}"


def principal_part(params: Iterable[str] = ()) -> VectorField3:
    """The fixed degree-0 field (-2y, 2x, x^2 + y^2)."""
    params = tuple(params)
    fx = QHPolynomial.monomial((0, 1, 0), -2, params)
    fy = QHPolynomial.monomial((1, 0, 0), 2, params)
    fz = (QHPolynomial.monomial((2, 0, 0), 1, params)
          + QHPolynomial.monomial((0, 2, 0), 1, params))
    return VectorField3(fx, fy, fz)


def divergence(field: VectorField3) -> QHPolynomial:
    """Sum of the three partials, one `_mul_integer` call on derivative pairs."""
    pairs = [(_integer_terms(c), _ONE, v) for v, c in zip(VAR_NAMES, field.components)]
    return _from_integer_terms(_mul_integer(pairs, ()), field.params)


def directional_derivative(f: QHPolynomial, field: VectorField3) -> QHPolynomial:
    """grad(f) . field, one `_mul_integer` call on three derivative pairs."""
    if f.params != field.params:
        raise ValueError("parameter tables differ")
    whole = _integer_terms(f)
    pairs = [(whole, _integer_terms(c), v) for v, c in zip(VAR_NAMES, field.components)]
    return _from_integer_terms(_mul_integer(pairs, ()), f.params)


def lie_bracket(f: VectorField3, g: VectorField3) -> VectorField3:
    """[f, g] = Dg.f - Df.g; maps degrees (j, k) into degree j + k.

    Both fields are converted to integer numerators once, each component is
    one `_mul_integer` call on its `_bracket_pairs`, and the bracket's
    components become `Fraction`s once, in `_from_integer_terms`.
    """
    if f.params != g.params:
        raise ValueError("parameter tables differ")
    f_comps, g_comps = ([_integer_terms(c) for c in h.components] for h in (f, g))
    constant = all(map(_is_constant, f_comps + g_comps))
    return VectorField3(*(_from_integer_terms(
        _mul_integer(*_bracket_pairs(f_comps, g_comps, i), None, constant), f.params)
        for i in range(3)))


def _bracket_pairs(f: List[IntegerTerms], g: List[IntegerTerms], i: int):
    """The plus and minus pairs of component i of [f, g] for the kernel
    (`_mul_integer`), `f` and `g` lists of three converted components: the
    six derivative pairs of grad(g_i) . f - grad(f_i) . g, which the kernel
    differentiates as it reads them, so no partial is built.  The lists are
    fresh, so a caller may add pairs of its own."""
    return ([(g[i], fv, v) for v, fv in zip(VAR_NAMES, f)],
            [(f[i], gv, v) for v, gv in zip(VAR_NAMES, g)])


# --------------------------------------------------------------------------
# planar objects (two variables u, v; planar type (1, 1))

PLANAR_VARS = ("u", "v")


class Poly2:
    """Sparse polynomial in u, v with ParamPolynomial coefficients."""

    __slots__ = ("terms", "params")

    def __init__(self, terms: Mapping[tuple, ParamPolynomial], params: Iterable[str]):
        params = tuple(params)
        merged = _merged((((int(m[0]), int(m[1])), c) for m, c in terms.items()),
                         lambda m: (sum(m), m[1]), params)
        object.__setattr__(self, "terms", merged)
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __str__(self) -> str:
        return _format_terms(self.terms, PLANAR_VARS)

    def __repr__(self) -> str:
        return f"Poly2({self})"


class PlanarVectorField:
    """Pair (du/dt, dv/dt) of planar polynomials."""

    __slots__ = ("pu", "pv", "params")

    def __init__(self, pu: Poly2, pv: Poly2):
        if pu.params != pv.params:
            raise ValueError("component parameter tables differ")
        object.__setattr__(self, "pu", pu)
        object.__setattr__(self, "pv", pv)
        object.__setattr__(self, "params", pu.params)

    def __setattr__(self, name, value):
        raise AttributeError("PlanarVectorField is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlanarVectorField):
            return NotImplemented
        return self.pu == other.pu and self.pv == other.pv

    def __str__(self) -> str:
        return f"(du = {self.pu}, dv = {self.pv})"

    def __repr__(self) -> str:
        return f"PlanarVectorField{self}"
