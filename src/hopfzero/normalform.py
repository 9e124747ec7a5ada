"""Orbital normal form of the nondegenerate Hopf-zero principal part.

The field is simplified degree by degree.  At quasi-homogeneous field degree
s the unknowns are a generator U in the degree-s field slice and a
time-reparametrization slice mu of scalar degree s; the linear map

    (U, mu)  ->  [F0, U] - mu * F0

is assembled over Q and the known degree-s term is reduced against its range.
For even s = 2k the range has a two-dimensional complement spanned by
(z^k x, z^k y, 0) and (0, 0, z^(k+1)); the coordinates of the reduced slice in
that complement are the normal-form coefficients a_k, b_k.  After each solve
the actual transformation (time factor 1 + mu, then the exponential of the
generator's adjoint action) is applied and the achieved slice is checked
exactly, so the returned coefficients are verified, not inferred.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Dict, Iterable, List, Optional, Tuple

from .coeffring import ParamPolynomial, Rational
from .errors import DegreeError, PrincipalPartError, StructureError
from .gradedpoly import Monomial3, QHPolynomial, slice_basis
from .homological import _apply_operator_monomial, _Elimination
from .vectorfield import PlanarVectorField, Poly2, VectorField3, lie_bracket


def principal_part(params: Iterable[str] = ()) -> VectorField3:
    """The fixed degree-0 field (-2y, 2x, x^2 + y^2)."""
    params = tuple(params)
    fx = QHPolynomial.monomial((0, 1, 0), -2, params)
    fy = QHPolynomial.monomial((1, 0, 0), 2, params)
    fz = (QHPolynomial.monomial((2, 0, 0), 1, params)
          + QHPolynomial.monomial((0, 2, 0), 1, params))
    return VectorField3(fx, fy, fz)


def require_principal_part(field: VectorField3) -> None:
    if field.component(0) != principal_part(field.params):
        raise PrincipalPartError(
            "the degree-0 part of the field is not (-2y, 2x, x^2+y^2); "
            "run the frontend normalization first")


@dataclass(frozen=True)
class GeneratorStep:
    """One per-degree transformation: generator and reparametrization slice."""

    degree: int
    generator: VectorField3
    reparam: QHPolynomial


@dataclass(frozen=True)
class NormalFormResult:
    """Normal-form coefficient streams and the transformation that realizes them.

    a_coeffs[k] and b_coeffs[k] are the coefficients of (z^k x, z^k y, 0) and
    (0, 0, z^(k+1)) in the transformed field, for k = 1..max_index.  `field`
    is the fully transformed field truncated at quasi-homogeneous field degree
    2*max_index, and `generators` the per-degree steps that produce it.
    """

    a_coeffs: Dict[int, ParamPolynomial]
    b_coeffs: Dict[int, ParamPolynomial]
    max_index: int
    generators: Tuple[GeneratorStep, ...]
    field: VectorField3
    params: Tuple[str, ...]


def apply_generator_step(field: VectorField3, step: GeneratorStep,
                         max_field_degree: int) -> VectorField3:
    """Apply one step: scale time by (1 + reparam), then push along the
    generator's flow via the exponential of the adjoint action, truncating
    above the working degree."""
    if step.reparam:
        one = QHPolynomial.constant(1, field.params)
        current = field.scale_poly(one + step.reparam, max_field_degree)
    else:  # scaling by 1 only truncates
        current = field.truncate(max_field_degree)
    result = current
    term = current
    j = 1
    while True:
        term = lie_bracket(step.generator, term, max_field_degree)
        if term.is_zero():
            break
        result = result + term.scale(Fraction(1, factorial(j)))
        j += 1
        if j > 4 * max_field_degree + 8:
            raise StructureError("adjoint exponential failed to terminate")
    return result


def _resonant_field(s: int, a: ParamPolynomial, b: ParamPolynomial,
                    params: Tuple[str, ...]) -> VectorField3:
    if s % 2:
        return VectorField3.zero(params)
    k = s // 2
    fx = QHPolynomial({Monomial3(1, 0, k): a}, params) if a else QHPolynomial.zero(params)
    fy = QHPolynomial({Monomial3(0, 1, k): a}, params) if a else QHPolynomial.zero(params)
    fz = QHPolynomial({Monomial3(0, 0, k + 1): b}, params) if b else QHPolynomial.zero(params)
    return VectorField3(fx, fy, fz)


def _solve_degree(known: VectorField3, s: int):
    """Solve [F0,U] - mu*F0 + a*R1 + b*R2 = known for (U, mu, a, b).

    The columns are the images of unit unknowns in the fixed order
    (ux, uy, uz, mu, a, b); each component of [F0, U] is the slice operator
    of `homological` plus the couplings (2 uy, -2 ux, -2x ux - 2y uy).  Free
    variables of the underdetermined system are set to zero.  Raises
    StructureError if the known term cannot be matched, which would
    contradict the normal-form structure theorem.
    """
    params = known.params
    zero_p = ParamPolynomial.zero(params)
    bases = (slice_basis(s + 1), slice_basis(s + 1), slice_basis(s + 2), slice_basis(s))
    row_index: Dict[Tuple[int, Monomial3], int] = {}
    # each column lists its (component, monomial, value) entries
    columns: List[List[Tuple[int, Monomial3, int]]] = []
    for ci, basis in enumerate(bases[:3]):
        for m in basis.monomials:
            row_index[(ci, m)] = len(row_index)
            i, j, l = m
            column = [(ci, image, v) for image, v in _apply_operator_monomial(m).items()]
            if ci == 0:    # a unit of ux adds -2 to y and -2x to z
                column += [(1, m, -2), (2, Monomial3(i + 1, j, l), -2)]
            elif ci == 1:  # a unit of uy adds 2 to x and -2y to z
                column += [(0, m, 2), (2, Monomial3(i, j + 1, l), -2)]
            columns.append(column)
    for i, j, l in bases[3].monomials:  # a unit of mu gives -mu F0
        columns.append([(0, Monomial3(i, j + 1, l), 2), (1, Monomial3(i + 1, j, l), -2),
                        (2, Monomial3(i + 2, j, l), -1), (2, Monomial3(i, j + 2, l), -1)])
    resonant = s % 2 == 0
    if resonant:
        k = s // 2
        columns.append([(0, Monomial3(1, 0, k), 1), (1, Monomial3(0, 1, k), 1)])  # R1
        columns.append([(2, Monomial3(0, 0, k + 1), 1)])  # R2

    rows: List[Dict[int, Fraction]] = [{} for _ in row_index]
    for c, column in enumerate(columns):
        for ci, m, v in column:
            rows[row_index[(ci, m)]][c] = Fraction(v)
    rhs: List[ParamPolynomial] = [zero_p] * len(rows)
    for ci, comp in enumerate(known.components):
        for m, c in comp.terms.items():
            rhs[row_index[(ci, m)]] = c

    elim = _Elimination(rows, len(columns))
    reduced = elim.replay_poly(rhs)
    if any(reduced[i] for i in elim.zero_rows):
        raise StructureError(
            f"degree-{s} homological system is inconsistent; the known term "
            "is not reducible to the resonant span")
    x = elim.back_substitute(reduced, zero_p)

    parts = []
    pos = 0
    for basis in bases:
        parts.append(QHPolynomial(
            {m: x[pos + i] for i, m in enumerate(basis.monomials) if x[pos + i]}, params))
        pos += len(basis)
    ux, uy, uz, mu = parts
    a = x[pos] if resonant else zero_p
    b = x[pos + 1] if resonant else zero_p
    return VectorField3(ux, uy, uz), mu, a, b


def orbital_normal_form(field: VectorField3, max_index: int,
                        stop_at_first_resonance: bool = False) -> NormalFormResult:
    """Normalize through quasi-homogeneous field degree 2*max_index.

    Returns the coefficient streams a_k, b_k for k = 1..max_index together
    with the per-degree generators.  With `stop_at_first_resonance` the loop
    ends as soon as some (a_k, b_k) is nonzero, which is all the
    classification dispatch needs.
    """
    if max_index < 1:
        raise DegreeError("max_index must be at least 1")
    require_principal_part(field)
    params = field.params
    zero_p = ParamPolynomial.zero(params)
    max_field_degree = 2 * max_index
    current = field.truncate(max_field_degree)
    a_coeffs: Dict[int, ParamPolynomial] = {}
    b_coeffs: Dict[int, ParamPolynomial] = {}
    steps: List[GeneratorStep] = []
    for s in range(1, max_field_degree + 1):
        known = current.component(s)
        if known.is_zero():
            u, mu, a, b = VectorField3.zero(params), QHPolynomial.zero(params), zero_p, zero_p
        else:
            u, mu, a, b = _solve_degree(known, s)
        if s % 2 == 0:
            a_coeffs[s // 2] = a
            b_coeffs[s // 2] = b
        step = GeneratorStep(degree=s, generator=u, reparam=mu)
        steps.append(step)
        if not (u.is_zero() and mu.is_zero()):
            current = apply_generator_step(current, step, max_field_degree)
        achieved = current.component(s)
        expected = _resonant_field(s, a, b, params)
        if achieved != expected:
            raise StructureError(f"degree-{s} slice not in normal form after solve")
        if (stop_at_first_resonance and s % 2 == 0
                and (a_coeffs[s // 2] or b_coeffs[s // 2])):
            return NormalFormResult(a_coeffs=a_coeffs, b_coeffs=b_coeffs,
                                    max_index=s // 2, generators=tuple(steps),
                                    field=current, params=params)
    return NormalFormResult(a_coeffs=a_coeffs, b_coeffs=b_coeffs,
                            max_index=max_index, generators=tuple(steps),
                            field=current, params=params)


def normal_form_field(nf: NormalFormResult) -> VectorField3:
    """F0 plus the resonant terms encoded by the coefficient streams."""
    params = nf.params
    total = principal_part(params)
    for k in sorted(nf.a_coeffs):
        total = total + _resonant_field(2 * k, nf.a_coeffs[k], nf.b_coeffs[k], params)
    return total


# --------------------------------------------------------------------------
# resonance data


@dataclass(frozen=True)
class ResonanceData:
    """First indices at which the coefficient streams become nonzero.

    Indices are None when no nonzero entry exists up to max_index, meaning
    "at least max_index + 1", never a claim about the full series.
    """

    l0: Optional[int]
    m0: Optional[int]
    n0: Optional[int]
    principal_a: Optional[ParamPolynomial]
    principal_b: Optional[ParamPolynomial]
    max_index: int


def first_resonance(nf: NormalFormResult) -> ResonanceData:
    l0 = next((k for k in sorted(nf.a_coeffs) if nf.a_coeffs[k]), None)
    m0 = next((k for k in sorted(nf.b_coeffs) if nf.b_coeffs[k]), None)
    n0 = None
    for k in sorted(nf.a_coeffs):
        combo = nf.a_coeffs[k].scale(2) + nf.b_coeffs[k].scale(k + 1)
        if combo:
            n0 = k
            break
    return ResonanceData(
        l0=l0, m0=m0, n0=n0,
        principal_a=nf.a_coeffs[l0] if l0 is not None else None,
        principal_b=nf.b_coeffs[m0] if m0 is not None else None,
        max_index=nf.max_index)


def coprime_resonance(a: Rational, b: Rational, m0: int) -> Optional[Tuple[int, int]]:
    """The unique coprime positive pair (n1, n2) with 2 n1 a + (m0+1) n2 b = 0.

    Exists iff -2a / ((m0+1) b) is a positive rational; returns None otherwise.
    Both inputs must be nonzero (other cases dispatch elsewhere).
    """
    if not a or not b:
        raise ValueError("coprime resonance test requires both leading coefficients nonzero")
    ratio = Fraction(-2, m0 + 1) * Fraction(a) / Fraction(b)
    if ratio <= 0:
        return None
    n1, n2 = ratio.denominator, ratio.numerator
    if gcd(n1, n2) != 1:  # Fraction already reduces; guard anyway
        raise StructureError("reduced fraction not coprime")
    if 2 * n1 * a + (m0 + 1) * n2 * b != 0:
        raise StructureError("coprime pair failed verification")
    return (n1, n2)


def planar_reduction(nf: NormalFormResult) -> PlanarVectorField:
    """The reduced planar field (v + sum b_k u^(k+1), 2 v sum a_k u^k)."""
    params = nf.params
    pu_terms = {(0, 1): ParamPolynomial.constant(1, params)}
    for k, b in sorted(nf.b_coeffs.items()):
        if b:
            pu_terms[(k + 1, 0)] = b
    pv_terms = {}
    for k, a in sorted(nf.a_coeffs.items()):
        if a:
            pv_terms[(k, 1)] = a.scale(2)
    return PlanarVectorField(Poly2(pu_terms, params), Poly2(pv_terms, params))
