import random

import pytest

import hopfzero as hz
from hopfzero.gradedpoly import (_from_integer_terms, _integer_terms, _is_constant,
                                 _mul_integer)
from hopfzero.vectorfield import _bracket_pairs

FAMILY37 = """\
params a001 b200 c030
dx = -2*y + a001*z
dy = 2*x + b200*x^2
dz = x^2 + y^2 + c030*y^3
"""

FAMILY38 = """\
params a001 c101 c011
dx = -2*y + a001*z
dy = 2*x
dz = x^2 + y^2 + c101*x*z + c011*y*z
"""

FAMILY37_NO_Z_FEED = """\
params b200 c030
dx = -2*y
dy = 2*x + b200*x^2
dz = x^2 + y^2 + c030*y^3
"""


class Pairs:
    """A term map whose items are the given (key, coefficient) pairs as they
    are: repeated keys and list keys included, as outside input can be."""

    def __init__(self, pairs):
        self._pairs = pairs

    def items(self):
        return iter(self._pairs)


def capped_product(plus, minus, cap):
    """sum(a * b for a, b in plus) - sum(a * b for a, b in minus) from the
    kernel `_mul_integer` under the degree `cap`, for polynomial operands.
    The public products take no cap; the normal form's steps call the
    kernel under one."""
    def convert(pairs):
        return [(_integer_terms(a), _integer_terms(b)) for a, b in pairs]

    params = (plus or minus)[0][0].params
    return _from_integer_terms(_mul_integer(convert(plus), convert(minus), cap), params)


def capped_bracket(f, g, cap):
    """The components of [f, g] from the kernel on `_bracket_pairs` under
    the field degree `cap`, as the normal form's steps bracket, as
    polynomials."""
    f_comps, g_comps = ([_integer_terms(c) for c in h.components] for h in (f, g))
    constant = all(map(_is_constant, f_comps + g_comps))
    caps = (None,) * 3 if cap is None else (cap + 1, cap + 1, cap + 2)
    return [_from_integer_terms(_mul_integer(*_bracket_pairs(f_comps, g_comps, i), c, constant),
                                f.params)
            for i, c in enumerate(caps)]


def field_from_text(text: str) -> hz.VectorField3:
    source = hz.parse_system(text)
    field, _ = hz.normalize_principal_part(source.to_field())
    return field


@pytest.fixture(scope="session")
def family37():
    return field_from_text(FAMILY37)


@pytest.fixture(scope="session")
def family38():
    return field_from_text(FAMILY38)


@pytest.fixture(scope="session")
def family37_integrable():
    return field_from_text(FAMILY37_NO_Z_FEED)


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_ppoly(rng, params, max_degree=3, terms=4):
    out = {}
    n = len(params)
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            if n:
                exps[rng.randrange(n)] += 1
        coeff = hz.rat(rng.randint(-6, 6))
        if not coeff:
            continue
        exps = tuple(exps)
        out[exps] = out.get(exps, 0) + coeff
    return hz.ParamPolynomial(out, params)


def random_qh_slice(rng, degree, params=(), density=0.7):
    """Random quasi-homogeneous polynomial of one degree with small rationals."""
    basis = hz.slice_basis(degree)
    terms = {}
    for m in basis.monomials:
        if rng.random() < density:
            value = hz.rat(rng.randint(-5, 5))
            if value:
                terms[m] = hz.ParamPolynomial.constant(value, params)
    return hz.QHPolynomial(terms, params)


def random_field_component(rng, degree, params=()):
    """Random quasi-homogeneous vector field of one field degree."""
    return hz.VectorField3(random_qh_slice(rng, degree + 1, params),
                           random_qh_slice(rng, degree + 1, params),
                           random_qh_slice(rng, degree + 2, params))


def random_perturbed_field(rng, max_degree=3, params=()):
    """F0 plus random quasi-homogeneous terms of degrees 1..max_degree."""
    field = hz.principal_part(params)
    for degree in range(1, max_degree + 1):
        field = field + random_field_component(rng, degree, params)
    return field
