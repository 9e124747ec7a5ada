"""Vector-field calculus for the graded setting.

A `VectorField3` of quasi-homogeneous degree k has x- and y-components in the
degree-(k+1) slice and z-component in the degree-(k+2) slice.  The planar
types live in two variables (u, v) and hold the reduced planar system of the
normal form.

The public calculus (`directional_derivative`, `lie_bracket`) takes no
degree cap.  The normal form's steps bracket under one, through the
converted-form `_integer_bracket`, whose cap stops the kernel
(`gradedpoly._mul_integer`) at the working degree.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .coeffring import ParamPolynomial, RationalLike, _format_terms, _merged
from .gradedpoly import (VAR_NAMES, IntegerTerms, QHPolynomial, _from_integer_terms,
                         _integer_partial, _integer_terms, _is_constant, _mul_integer)


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
    """Sum of the three partial derivatives, exactly."""
    return (field.fx.partial("x") + field.fy.partial("y") + field.fz.partial("z"))


def directional_derivative(f: QHPolynomial, field: VectorField3) -> QHPolynomial:
    """grad(f) . field, one `_mul_integer` call on three pairs."""
    if f.params != field.params:
        raise ValueError("parameter tables differ")
    whole = _integer_terms(f)
    pairs = [(_integer_partial(whole, v), _integer_terms(c))
             for v, c in zip(VAR_NAMES, field.components)]
    return _from_integer_terms(_mul_integer(pairs, ()), f.params)


def lie_bracket(f: VectorField3, g: VectorField3) -> VectorField3:
    """[f, g] = Dg.f - Df.g; maps degrees (j, k) into degree j + k.

    The `VectorField3` wrapper of `_integer_bracket`: both fields are
    converted to integer numerators once, and the bracket's components
    become `Fraction`s once, in `_from_integer_terms`.
    """
    if f.params != g.params:
        raise ValueError("parameter tables differ")
    converted = _integer_field([_integer_terms(c) for c in f.components])
    g_comps = [_integer_terms(c) for c in g.components]
    constant = all(map(_is_constant, converted[0] + g_comps))
    comps = _integer_bracket(converted, g_comps, None, constant)
    return VectorField3(*(_from_integer_terms(c, f.params) for c in comps))


IntegerField = Tuple[List[IntegerTerms], List[List[IntegerTerms]]]


def _integer_field(comps: List[IntegerTerms]) -> IntegerField:
    """A field's three components in converted form (`_integer_terms`), with
    their nine partial derivatives, `partials[i][v]` that of component i in
    variable v."""
    return comps, [[_integer_partial(c, v) for v in VAR_NAMES] for c in comps]


def _integer_bracket(f: IntegerField, g: List[IntegerTerms],
                     max_field_degree: Optional[int], constant: bool) -> List[IntegerTerms]:
    """The components of [f, g] in converted form (`_mul_integer`), for `f`
    as `_integer_field` gives it and `g` a list of three converted components.

    Each component is one multiply-accumulate: grad(g_i) . f - grad(f_i) . g.
    The nine partials of `g` are taken here; those of `f` come with it, so a
    caller that brackets one field with many reuses them.  Under a cap, the
    partial of g_i paired with f_v stops at the cap less the lowest degree of
    f_v, the last degree the kernel reads.  `constant` says whether every
    coefficient of `f` and `g` is constant: the caller reads that once, as a
    partial of a constant form is constant.
    """
    f_comps, f_partials = f
    caps = (None,) * 3 if max_field_degree is None else \
        (max_field_degree + 1, max_field_degree + 1, max_field_degree + 2)
    lows = [t[0][0] + t[0][1] + 2 * t[0][2] if t else math.inf for _, t in f_comps]
    return [_mul_integer([(_integer_partial(gi, v, None if cap is None else cap - low), fv)
                          for v, fv, low in zip(VAR_NAMES, f_comps, lows)],
                         list(zip(fi_partials, g)), cap, constant)
            for fi_partials, gi, cap in zip(f_partials, g, caps)]


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
