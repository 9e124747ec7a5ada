"""The Lie-derivative operator of the principal part on each graded slice.

For the principal field F0 = (-2y, 2x, x^2 + y^2), the operator
L f = grad(f) . F0 sends the degree-k slice to itself.  On even slices its
kernel is spanned by (x^2+y^2)^(k/2) and z^(k/2) represents the
one-dimensional cokernel; on odd slices it is bijective.  `analyze_operator`
verifies these facts for a degree, without assuming them.

Written level by level, f = sum z^l f_l with plane polynomials f_l,

    L f = sum z^l (R f_l + (l+1) h f_(l+1)),

where R = 2(x d/dy - y d/dx) rotates the plane and h = x^2 + y^2: rotation
blocks per z-power plus a z-lowering term (Algaba, Freire, Gamero & Garcia,
"Quasi-homogeneous normal forms", J. Comput. Appl. Math. 150, 2003).
`_solve_levels` solves the slice equation along that chain, from the top
z-power down, in O(1) coefficient operations per unknown.  It works on
integers: it takes the right-hand side and returns the solution in the graded
kernel's converted form (`gradedpoly._integer_terms`); each step inside is an
unreduced integer combination (`_combine`), and each level is reduced once.
`solve_homological` converts a `QHPolynomial` right-hand side once and turns
the solution into `Fraction`s once (`gradedpoly._from_integer_terms`); the
obstruction driver and the normal-form degree solve pass their right-hand
sides in converted form and keep the solutions in that form.

`analyze_operator` reads that structure back from the chain: it solves one
generic right-hand side and checks the solution, the range's miss of
z^(k/2) and the kernel through the graded kernel
(`vectorfield.directional_derivative`), so it holds no elimination of its
own.  The normal-form degree solve is three calls of `_solve_levels` on its
converted slices (`normalform._solve_degree`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .coeffring import ParamPolynomial
from .errors import DegreeError, StructureError
from .gradedpoly import (IntegerTerms, Monomial3, QHPolynomial, _from_integer_terms,
                         _integer_terms, slice_basis)
from .vectorfield import directional_derivative, principal_part


@dataclass(frozen=True)
class OperatorAnalysis:
    """Kernel basis and cokernel representative of one slice operator."""

    degree: int
    kernel_basis: Tuple[QHPolynomial, ...]
    cokernel_representative: Optional[QHPolynomial]


def analyze_operator(k: int) -> OperatorAnalysis:
    """Kernel basis and cokernel representative of the degree-k operator.

    Verifies the expected structure through the solve the pipelines use and
    raises StructureError on any violation.  A generic right-hand side g,
    one fresh parameter per slice monomial, is solved by `solve_homological`,
    and the kernel (`directional_derivative` along F0) checks three exact
    identities: L(solution) = g - residual z^(k/2), so every monomial but
    z^(k/2) is in the range, and all of them for odd k, where the residual
    is zero; on even k, L(g) has no z^(k/2) term, so no image reaches
    z^(k/2); and L((x^2+y^2)^(k/2)) = 0.  Nothing is cached.  A negative k
    raises DegreeError.
    """
    return _build_analysis(k)


def _build_analysis(k: int) -> OperatorAnalysis:
    monomials = slice_basis(k).monomials
    names = tuple(f"g{i}" for i in range(len(monomials)))
    g = QHPolynomial({mono: ParamPolynomial.variable(name, names)
                      for mono, name in zip(monomials, names)}, names)
    f0 = principal_part(names)
    sol = solve_homological(k, g)
    m = k // 2
    cok_monomial = Monomial3(0, 0, m)
    reached = g - QHPolynomial({cok_monomial: sol.residual}, names)
    if directional_derivative(sol.solution, f0) != reached:
        raise StructureError(f"degree-{k} slice solve does not invert the operator")
    if k % 2 == 1:
        return OperatorAnalysis(degree=k, kernel_basis=(), cokernel_representative=None)

    if directional_derivative(g, f0).coefficient(cok_monomial):
        raise StructureError(f"z^{m} lies in the range of the degree-{k} operator")
    kernel = QHPolynomial.h_power(m, ())
    if directional_derivative(kernel, principal_part(())):
        raise StructureError(f"(x^2+y^2)^{m} is not in the degree-{k} kernel")
    return OperatorAnalysis(degree=k, kernel_basis=(kernel,),
                            cokernel_representative=QHPolynomial({cok_monomial: 1}, ()))


@dataclass(frozen=True)
class HomologicalSolution:
    """Solution of operator(sol) = rhs - residual * z^(k/2), sol kernel-free."""

    solution: QHPolynomial
    residual: ParamPolynomial


_Integers = Tuple[int, Dict[tuple, int]]
_ZERO: _Integers = (1, {})


def _combine(parts: List[Tuple[int, _Integers]], divisor: int = 1) -> _Integers:
    """sum(n * p for n, p in parts) / divisor, for integers n and divisor > 0,
    unreduced: over divisor times the lcm of the parts' denominators, zero
    sums kept.  A part's numerators are a dict or, as a converted form holds
    them, a list of (key, numerator) items."""
    common = math.lcm(*(den for _, (den, _) in parts))
    (n, (den, nums)), *rest = parts
    factor = n * (common // den)
    out = {e: factor * v for e, v in (nums.items() if type(nums) is dict else nums)}
    for n, (den, nums) in rest:
        factor = n * (common // den)
        for e, v in (nums.items() if type(nums) is dict else nums):
            out[e] = out.get(e, 0) + factor * v
    return common * divisor, out


def _circle_mean(u: List[_Integers], d: int) -> _Integers:
    """Mean over the unit circle of the plane polynomial sum u_b x^(d-b) y^b
    of even degree d: the sum over even b of u_b (d-b-1)!! (b-1)!! / d!!.
    It is the coefficient of h^(d/2) in the harmonic decomposition."""
    weight = math.prod(range(1, d, 2))  # (d-b-1)!! (b-1)!! at b = 0
    parts = []
    for b in range(0, d + 1, 2):
        if b:
            weight = weight * (b - 1) // (d - b + 1)
        parts.append((weight, u[b]))
    return _combine(parts, math.prod(range(2, d + 1, 2)))


def solve_homological(k: int, rhs: QHPolynomial) -> HomologicalSolution:
    """Solve the degree-k slice equation with the canonical normalization.

    The residual is the z^(k/2) coefficient of the right-hand side (zero for
    odd k), since no image of the operator has a z^(k/2) term.  The rest is
    solved by `_solve_levels`, which says how, on the right-hand side in the
    graded kernel's converted form (`_integer_terms`); its solution becomes
    `Fraction`s once, one per output term, in `_from_integer_terms`.
    """
    if k < 0:
        raise DegreeError(f"negative degree {k}")
    for m in rhs.terms:
        if m.degree != k:
            raise DegreeError(
                f"right-hand side contains {tuple(m)} of degree {m.degree}, expected {k}")
    residual = rhs.coefficient(Monomial3(0, 0, k // 2)) if k % 2 == 0 else \
        ParamPolynomial.zero(rhs.params)
    return HomologicalSolution(
        solution=_from_integer_terms(_solve_levels(k, _integer_terms(rhs)), rhs.params),
        residual=residual)


def _solve_levels(k: int, rhs: IntegerTerms) -> IntegerTerms:
    """The solution of the degree-k slice equation for the right-hand side
    `rhs`, both in the graded kernel's converted form (`_integer_terms`).
    Any common denominator will do, and the z^(k/2) term of an even k is the
    residual's and is not read.  The solution comes back in canonical
    monomial order, zero-free, with the gcd of its denominator and all its
    numerators 1: `_integer_terms` of the solved polynomial, up to the order
    of each coefficient's items.

    The solution f = sum z^l f_l satisfies R f_l + (l+1) h f_(l+1) = g_l on
    each level l; the levels are solved from the top down.  On the
    coefficients u_b of x^(d-b) y^b of a degree-d level, R u = v reads
    v_b = 2(b+1) u_(b+1) - 2(d-b+1) u_(b-1): a forward recurrence over even
    b gives the odd-indexed unknowns, a backward one over odd b the
    even-indexed unknowns.  For even k, R has the kernel h^(d/2): the circle
    mean of each f_l (l >= 1) is fixed to that of g_(l-1), divided by l, which
    makes level l-1 solvable, and f_0 has circle mean 0, so the solution
    carries no (x^2+y^2)^(k/2) component.  The equation b = d of each even
    level is then implied; it is checked, and so is the equation b = 1 of
    every level of degree d >= 1, which the backward recurrence used last;
    StructureError is raised if either fails.

    The solve is fraction-free (after Bareiss, Math. Comp. 22, 1968): a step
    is one unreduced integer combination (`_combine`) of the right-hand
    side's items, the level above and an unknown, and no v_b is built, so
    parameter coefficients ride along linearly and the checks test for zero
    sums.  A checked level is reduced once, for the next level and the
    output: to the lcm of its denominators, divided with every numerator by
    their gcd, zero sums dropped.
    """
    common, terms = rhs
    top = k // 2
    even = k % 2 == 0
    # g[l][b] is the coefficient of x^(d-b) y^b z^l, d = k - 2l, as rhs holds it
    g = [[_ZERO] * (k - 2 * l + 1) for l in range(top + 1)]
    for _, ey, ez, items in terms:
        g[ez][ey] = common, items
    levels = []  # (l, the level's denominator, the items of each unknown)
    up_den, up = 1, []  # f_(l+1) so reduced; zero above the top level

    def v(b, sign):  # the parts of sign * v_b on level l, v = g_l - (l+1) h f_(l+1)
        return [(sign, g[l][b])] + [(-sign * (l + 1), (up_den, up[a]))
                                    for a in (b, b - 2) if 0 <= a < len(up)]
    for l in range(top, -1, -1):
        d = k - 2 * l
        u = [_ZERO] * (d + 2)  # u[d + 1] = 0 closes the recurrences
        for b in range(0, d, 2):  # u_(b+1) from u_(b-1)
            u[b + 1] = _combine(v(b, 1) + [(2 * (d - b + 1), u[b - 1] if b else _ZERO)],
                                2 * (b + 1))
        # u_(b-1) from u_(b+1); on even d this starts from u_d = 0
        for b in range(d if d % 2 else d - 1, 0, -2):
            u[b - 1] = _combine(v(b, -1) + [(2 * (b + 1), u[b + 1])], 2 * (d - b + 1))
        if even:
            if d and any(_combine(v(d, 1) + [(2, u[d - 1])])[1].values()):  # v_d = -2 u_(d-1)
                raise StructureError(
                    f"degree-{k} slice solve left level z^{l} inconsistent")
            # shift = mean(g_(l-1)) / l - mean(u), or -mean(u) on level 0
            mean = _circle_mean(g[l - 1], d + 2) if l else _ZERO
            shift = _combine([(1, mean), (-(l or 1), _circle_mean(u, d))], l or 1)
            if any(shift[1].values()):  # add the multiple of h^(d/2) that gives f_l that mean
                for b in range(0, d + 1, 2):
                    u[b] = _combine([(1, u[b]), (math.comb(d // 2, b // 2), shift)])
        # read back equation b = 1, v_1 = 4 u_2 - 2d u_0, from which the
        # backward recurrence took u_0 (u_2 is u[d + 1] = 0 when d = 1)
        if d and any(_combine(v(1, 1) + [(-4, u[2]), (2 * d, u[0])])[1].values()):
            raise StructureError(
                f"degree-{k} slice solve left level z^{l} inconsistent at b = 1")
        up_den = math.lcm(*(den for den, _ in u))
        up = [[(e, n * f) for e, n in nums.items() if n]
              for f, nums in ((up_den // den, nums) for den, nums in u[:d + 1])]
        content = math.gcd(up_den, *(n for items in up for _, n in items))
        if content > 1:
            up_den //= content
            up = [[(e, n // content) for e, n in items] for items in up]
        levels.append((l, up_den, up))
    # scaled to the lcm of the levels' denominators, the numerators keep gcd 1
    # with it, as each level's with its own; by level and slot is canonical order
    common = math.lcm(*(den for _, den, _ in levels))
    return common, [(k - 2 * l - b, b, l, items if f == 1 else [(e, n * f) for e, n in items])
                    for l, den, level in reversed(levels) for f in (common // den,)
                    for b, items in enumerate(level) if items]


def clear_cache() -> None:
    """Do nothing.  Slice solves and operator analyses keep no cache; the
    function stays because the benchmark runner calls it before each timed
    operation."""
