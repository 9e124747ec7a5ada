"""Orbital normal form of the nondegenerate Hopf-zero principal part.

The field is simplified degree by degree.  At quasi-homogeneous field degree
s the unknowns are a generator U in the degree-s field slice and a
time-reparametrization slice mu of scalar degree s; the known degree-s term
is reduced against the range of (U, mu) -> [F0, U] - mu * F0.  For even
s = 2k the range has a two-dimensional complement spanned by
(z^k x, z^k y, 0) and (0, 0, z^(k+1)); the coordinates of the reduced slice in
that complement are the normal-form coefficients a_k, b_k.  The map is never
assembled: contracted with x dx + y dy, x dy - y dx and dz, the equation is
three slice solves plus a division by x^2 + y^2 (`_solve_degree`).  After
each solve the actual transformation (time factor 1 + mu, then the
exponential of the generator's adjoint action) is applied and the achieved
slice is checked exactly, so the returned coefficients are verified, not
inferred.  The exponential of ad_g on the time-scaled field C is summed in
Horner form, U_j = C + ad_g(U_(j+1)) / (j+1) down to U_0, with U_j capped
at field degree N - j*s for a degree-s generator and working degree N:
every bracket reads only the low-degree slices of its operand, and each
level is one kernel call per component (`_integer_step`).  The field stays
in the graded kernel's converted form (`gradedpoly.IntegerTerms`) from the
first step to the last, and so do the degree solve, its slice solves
(`homological._solve_levels`) and each step.  Per degree only the
generator, mu, a and b, and the achieved slice the check reads, are built
as `Fraction`s.  The returned field is F0 plus the checked resonant slices,
which the per-degree check makes equal to the transformed field, so the
converted field never becomes `Fraction`s as a whole.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .coeffring import ParamPolynomial, Rational
from .errors import DegreeError, PrincipalPartError, StructureError
from .gradedpoly import (_ONE, IntegerTerms, Monomial3, QHPolynomial, _from_integer_terms,
                         _h_power, _integer_terms, _is_constant, _mul_integer)
from .homological import _solve_levels
from .vectorfield import (PlanarVectorField, Poly2, VectorField3, _bracket_pairs,
                          principal_part)


def require_principal_part(field: VectorField3) -> None:
    """Raise PrincipalPartError unless the part of field degree at most 0 is
    exactly (-2y, 2x, x^2+y^2): no other term sits at or below degree 0."""
    if field.truncate(0) != principal_part(field.params):
        raise PrincipalPartError(
            "the part of degree at most 0 of the field is not (-2y, 2x, x^2+y^2); "
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
    2*max_index, and `generators` the per-degree steps that produce it; it
    equals `normal_form_field` of the streams, term order included.
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
    above the working degree.  The exponential is summed in Horner form, so
    each bracket reads only the low degrees that the truncated result
    needs (`_integer_step`).  DegreeError if the generator has a term of
    field degree below 1.

    The wrapper of `_integer_step`, which `orbital_normal_form` runs on a
    field kept in converted form from its first step to its last: the field
    and the step are converted once (`_integer_terms`), and the result's
    numerators become `Fraction`s once, one per output coefficient
    (`_from_integer_terms`).
    """
    current = [_integer_terms(c) for c in field.truncate(max_field_degree).components]
    generator = [_integer_terms(c) for c in step.generator.components]
    reparam = _integer_terms(step.reparam)
    # a step may be symbolic on a numeric field, so all three are read
    constant = all(map(_is_constant, current + generator + [reparam]))
    current = _integer_step(current, generator, reparam, max_field_degree, constant)
    return VectorField3(*(_from_integer_terms(c, field.params) for c in current))


def _integer_step(current: List[IntegerTerms], generator: List[IntegerTerms],
                  reparam: IntegerTerms, max_field_degree: int,
                  constant: bool) -> List[IntegerTerms]:
    """`apply_generator_step` on the three converted components of a field
    truncated at `max_field_degree` and a step in converted form too, every
    coefficient of all of which is constant when `constant` says so: the
    three converted components of the result.  A constant field's degree
    solve gives a constant step, so `orbital_normal_form` reads the flag
    once, on its field.

    The time scaling is one `_mul_integer` per component; call its result
    C and the working degree N.  The exponential exp(ad_g) C =
    sum_j ad_g^j(C) / j! is summed in Horner form: U_n = C,
    U_j = C + ad_g(U_(j+1)) / (j+1), and the result is U_0.  With s the
    generator's lowest field degree, read off the first term of each
    component (canonical order is ascending degree), ad_g raises degrees
    by at least s, so U_j is needed only up to field degree N - j*s and
    n = N // s levels reach the whole truncated sum.  U_n is C cut at
    N - n*s.  Each lower level is one kernel call per component, under the
    cap N - j*s: the six derivative pairs of the bracket
    (`vectorfield._bracket_pairs`, with 1/(j+1) folded into the
    generator's denominator) plus the pair (C_i, 1).  So each bracket reads
    the low-degree slices of its operand, no `Fraction` is built, and only
    three fields are held at a time.  A zero generator returns C; a term of
    field degree below 1 raises DegreeError, since the levels need every
    bracket to raise degrees.
    """
    if reparam[1]:
        den, terms = reparam
        factor = den, [(0, 0, 0, [(0, den)])] + terms
        current = [_mul_integer([(factor, c)], (), max_field_degree + w, constant)
                   for c, w in zip(current, (1, 1, 2))]
    degrees = [_degree(terms[0]) - w for (_, terms), w in zip(generator, (1, 1, 2)) if terms]
    if not degrees:
        return current
    s = min(degrees)
    if s < 1:
        raise DegreeError(f"generator has a term of field degree {s}; a step needs degree 1 or more")
    levels = max_field_degree // s
    top = max_field_degree - levels * s
    field = [(den, terms[:bisect_right(terms, top + w, key=_degree)])
             for (den, terms), w in zip(current, (1, 1, 2))]
    for j in range(levels - 1, -1, -1):
        scaled = [(den * (j + 1), terms) for den, terms in generator]
        cap = max_field_degree - j * s
        pairs = [_bracket_pairs(scaled, field, i) for i in range(3)]
        field = [_mul_integer(plus + [(c, _ONE)], minus, cap + w, constant)
                 for (plus, minus), c, w in zip(pairs, current, (1, 1, 2))]
    return field


def _degree(term) -> int:
    """The quasi-homogeneous degree of a converted term's monomial."""
    return term[0] + term[1] + 2 * term[2]


def _slices(current: List[IntegerTerms], s: int) -> List[IntegerTerms]:
    """The degree-s component of a field in converted form, each slice over
    its component's denominator; the terms come in ascending degree, so each
    slice is found by bisection."""
    slices = []
    for (den, terms), k in zip(current, (s + 1, s + 1, s + 2)):
        lo = bisect_left(terms, k, key=_degree)
        slices.append((den, terms[lo:bisect_right(terms, k, lo, key=_degree)]))
    return slices


def _resonant_field(s: int, a: ParamPolynomial, b: ParamPolynomial,
                    params: Tuple[str, ...]) -> VectorField3:
    if s % 2:
        return VectorField3.zero(params)
    k = s // 2
    return VectorField3(QHPolynomial({Monomial3(1, 0, k): a}, params),
                        QHPolynomial({Monomial3(0, 1, k): a}, params),
                        QHPolynomial({Monomial3(0, 0, k + 1): b}, params))


def _divide_by_h(p: IntegerTerms, k: int) -> IntegerTerms:
    """The degree-k quotient q with (x^2 + y^2) q = p, both in converted form
    over p's denominator.  On each level z^l the numerators of y^b satisfy
    p_b = q_b + q_(b-2), which gives q_b up to b = k - 2l and leaves two
    equations; StructureError if they fail."""
    den, terms = p
    nums = {(ey, ez): items for _, ey, ez, items in terms}
    out = []
    for l in sorted({t[2] for t in terms}):
        e = k + 2 - 2 * l
        q: List[Dict[tuple, int]] = []
        for b in range(e + 1):
            rest = dict(nums.get((b, l), ()))
            for exps, n in q[b - 2].items() if b >= 2 else ():
                rest[exps] = rest.get(exps, 0) - n
            rest = {exps: n for exps, n in rest.items() if n}
            if b <= e - 2:
                q.append(rest)
            elif rest:
                raise StructureError(f"degree-{k + 2} polynomial is not a multiple of x^2 + y^2")
        out += [(e - 2 - b, b, l, list(c.items())) for b, c in enumerate(q) if c]
    return den, out


def _solve_degree(known: List[IntegerTerms], s: int, params: Tuple[str, ...],
                  constant: bool):
    """Solve [F0,U] - mu*F0 + a*R1 + b*R2 = known for (U, mu, a, b), on the
    three degree-s slices of a field in converted form, every coefficient of
    which is constant when `constant` says so.

    With L = grad(.) . F0, w1(V) = x Vx + y Vy, w2(V) = x Vy - y Vx and
    h = x^2 + y^2, every field U satisfies

        L w1(U) = w1([F0,U]),  L w2(U) = w2([F0,U]),  dz([F0,U]) = L uz - 2 w1(U),

    while w1(F0) = 0, w2(F0) = 2h, w1(R1) = h z^k and R2 meets dz alone.  So
    the equation is three slice solves of degree s+2: A = w2(U) and
    B = w1(U), whose z^(k+1) coefficients, which A and B cannot have, give
    mu = c z^k and a; then uz, with b the residual.  Exact division by h
    gives ux = (x B - y A)/h and uy = (y B + x A)/h and checks the solve.

    The kernel of (U, mu) -> [F0,U] - mu F0 is spanned by (g F0, L g) for
    degree-s scalars g and, for even s = 2k, by h^k (-y, x, 0),
    h^k (x, y, 2z) and h^(k+1) (0, 0, 1).  The solution returned sets the
    matching free unknowns to zero: mu's coefficients other than z^k's and,
    for even s, uy's x y^s and uz's z y^s and y^(s+2).  StructureError means
    a residual or remainder was left, which contradicts the normal-form
    structure theorem.

    Every step is in converted form: products are `_mul_integer` calls with
    one-monomial operands, and the z^(k+1) term of a degree-(s+2) slice is
    its last.  Returns the generator's components and mu converted, a and b.
    """
    k = s // 2

    def at(ex, ey, ez, items, den=1):  # a one-monomial operand, or zero
        return den, [(ex, ey, ez, list(items))] if items else []

    def mul(*plus, minus=()):
        return _mul_integer(plus, minus, None, constant)

    def split(f):  # f without its z^(k+1) term and that term's numerators
        den, terms = f
        if terms and terms[-1][:3] == (0, 0, k + 1):
            return (den, terms[:-1]), terms[-1][3]
        return f, []

    one, x, y = (at(*m, [(0, 1)]) for m in ((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    kx, ky, kz = known
    (w2, top2), (w1, top1) = split(mul((x, ky), minus=[(y, kx)])), split(mul((x, kx), (y, ky)))
    if top2 or top1:
        raise StructureError(f"degree-{s} contracted equation has a z-power residual")
    (big_a, top_a), (big_b, top_b) = (split(_solve_levels(s + 2, w, constant)) for w in (w2, w1))
    mu = at(0, 0, k, [(e, -(k + 1) * n) for e, n in top_a], 2 * big_a[0])
    a = ParamPolynomial._from_numerators(((e, (k + 1) * n) for e, n in top_b), big_b[0], params)
    rhs, top_z = split(mul((kz, one), (mu, _h_power(1)), (at(0, 0, 0, [(0, 2)]), big_b)))
    b = ParamPolynomial._from_numerators(top_z, rhs[0], params)
    uz = _solve_levels(s + 2, rhs, constant)
    ux = _divide_by_h(mul((x, big_b), minus=[(y, big_a)]), s + 1)
    uy = _divide_by_h(mul((y, big_b), (x, big_a)), s + 1)
    if s % 2 == 0:  # add the kernel fields that zero uy[x y^s], uz[z y^s], uz[y^(s+2)]
        t1, t2, t3 = (next((t[3] for t in f[1] if t[:3] == m), [])
                      for f, m in ((uy, (1, s, 0)), (uz, (0, s, 1)), (uz, (0, s + 2, 0))))
        hk, d1, d2 = _h_power(k), uy[0], uz[0]
        ux = mul((ux, one), (at(0, 1, 0, t1, d1), hk), minus=[(at(1, 0, 0, t2, 2 * d2), hk)])
        uy = mul((uy, one), minus=[(at(1, 0, 0, t1, d1), hk), (at(0, 1, 0, t2, 2 * d2), hk)])
        uz = mul((uz, one), minus=[(at(0, 0, 1, t2, d2), hk),
                                   (at(0, 0, 0, t3, d2), _h_power(k + 1))])
    return [ux, uy, uz], mu, a, b


def orbital_normal_form(field: VectorField3, max_index: int) -> NormalFormResult:
    """Normalize through quasi-homogeneous field degree 2*max_index.

    Returns the coefficient streams a_k, b_k for k = 1..max_index together
    with the per-degree generators and the transformed field truncated at
    degree 2*max_index.  Degree s of the result reads no degree above s, so a
    run at a smaller max_index is exactly a prefix of this one; `classify`
    relies on that to stop at the first resonant index.
    """
    if max_index < 1:
        raise DegreeError("max_index must be at least 1")
    require_principal_part(field)
    params = field.params
    max_field_degree = 2 * max_index
    current = [_integer_terms(c) for c in field.truncate(max_field_degree).components]
    constant = all(map(_is_constant, current))
    a_coeffs: Dict[int, ParamPolynomial] = {}
    b_coeffs: Dict[int, ParamPolynomial] = {}
    steps: List[GeneratorStep] = []
    normal = principal_part(params)
    for s in range(1, max_field_degree + 1):
        u, mu, a, b = _solve_degree(_slices(current, s), s, params, constant)
        if s % 2 == 0:
            a_coeffs[s // 2] = a
            b_coeffs[s // 2] = b
        if any(terms for _, terms in u) or mu[1]:
            current = _integer_step(current, u, mu, max_field_degree, constant)
        steps.append(GeneratorStep(
            degree=s, generator=VectorField3(*(_from_integer_terms(c, params) for c in u)),
            reparam=_from_integer_terms(mu, params)))
        achieved = VectorField3(*(_from_integer_terms(c, params) for c in _slices(current, s)))
        expected = _resonant_field(s, a, b, params)
        if achieved != expected:
            raise StructureError(f"degree-{s} slice not in normal form after solve")
        normal = normal + expected
    # every slice of the transformed field above degree 0 was checked equal
    # to the resonant field, so the field is F0 plus those, term order included
    return NormalFormResult(a_coeffs=a_coeffs, b_coeffs=b_coeffs,
                            max_index=max_index, generators=tuple(steps),
                            field=normal, params=params)


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
    pu_terms = {(k + 1, 0): b for k, b in nf.b_coeffs.items()}
    pu_terms[(0, 1)] = ParamPolynomial.constant(1, params)
    pv_terms = {(k, 1): a.scale(2) for k, a in nf.a_coeffs.items()}
    return PlanarVectorField(Poly2(pu_terms, params), Poly2(pv_terms, params))
