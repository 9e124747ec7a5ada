"""Independent cross-checks and test references.

The sympy helpers re-derive derivative identities from scratch so the main
engine's calculus is never used to verify itself.  `lie_operator_matrix` and
`h_component` are references for the slice operator and its kernel
normalization, which the engine itself no longer builds.  `slice_rows` is the
operator's sparse rows, built monomial by monomial from the power rule
(`_apply_operator_monomial`) and pinned against `lie_operator_matrix`.
`Elimination` and `elimination_solve_degree` are the generic sparse
elimination and the normal-form degree solve built on it, which the engine's
structured solves replaced; the tests pin those solves against them, and the
engine holds no elimination of its own.  `lie_series_step` is the
adjoint exponential summed in `Fraction` arithmetic, the reference for the
engine's integer Lie series.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import sympy as sp

import hopfzero as hz
from hopfzero import GradedSliceBasis, Monomial3, ParamPolynomial, QHPolynomial, VectorField3

X, Y, Z = sp.symbols("x y z")


def ppoly_to_sympy(p):
    syms = {name: sp.Symbol(name) for name in p.params}
    expr = sp.Integer(0)
    for exps, coeff in p.terms.items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for name, e in zip(p.params, exps):
            term *= syms[name] ** e
        expr += term
    return expr


def qh_to_sympy(f):
    expr = sp.Integer(0)
    for m, coeff in f.terms.items():
        expr += ppoly_to_sympy(coeff) * X ** m.ex * Y ** m.ey * Z ** m.ez
    return sp.expand(expr)


def field_to_sympy(field):
    return [qh_to_sympy(c) for c in field.components]


def directional_derivative_sympy(f_expr, field_exprs):
    return sp.expand(sum(sp.diff(f_expr, var) * comp
                         for var, comp in zip((X, Y, Z), field_exprs)))


def divergence_sympy(field_exprs):
    return sp.expand(sum(sp.diff(comp, var)
                         for var, comp in zip((X, Y, Z), field_exprs)))


def multiplier_defect_sympy(w, field, use_div, entries):
    """grad(w).F - [use_div] w div(F) - sum entries[k] z^k, via sympy only."""
    w_expr = qh_to_sympy(w)
    field_exprs = field_to_sympy(field)
    expr = directional_derivative_sympy(w_expr, field_exprs)
    if use_div:
        expr -= w_expr * divergence_sympy(field_exprs)
    for k, value in entries.items():
        expr -= ppoly_to_sympy(value) * Z ** k
    return sp.expand(expr)


def truncate_sympy(expr, max_qh_degree):
    """Keep only monomials of quasi-homogeneous degree <= max_qh_degree."""
    expr = sp.expand(expr)
    if expr == 0:
        return expr
    out = sp.Integer(0)
    poly = sp.Poly(expr, X, Y, Z)
    for monom, coeff in zip(poly.monoms(), poly.coeffs()):
        if monom[0] + monom[1] + 2 * monom[2] <= max_qh_degree:
            out += coeff * X ** monom[0] * Y ** monom[1] * Z ** monom[2]
    return sp.expand(out)


def _terms(expr):
    """Monomial exponents (i, j, l) of x^i y^j z^l -> sympy coefficient."""
    expr = sp.expand(expr)
    return {} if expr == 0 else dict(sp.Poly(expr, X, Y, Z).terms())


def _qh_degree(m):
    return m[0] + m[1] + 2 * m[2]


def _add_terms(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return out


def _mul_truncated(p, q, max_qh_degree):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            if _qh_degree(m) <= max_qh_degree:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: sp.expand(c) for m, c in out.items()}


def _compose_truncated(expr, phi, max_qh_degree):
    """expr(phi) through quasi-homogeneous degree max_qh_degree.

    Every component of `phi` has only terms of positive degree, so partial
    products may be truncated as they are formed.
    """
    out = {}
    for (i, j, l), coeff in _terms(expr).items():
        term = {(0, 0, 0): coeff}
        for base, e in zip(phi, (i, j, l)):
            for _ in range(e):
                term = _mul_truncated(term, base, max_qh_degree)
        out = _add_terms(out, term)
    return out


def generic_qh_sympy(degree, prefix):
    """A quasi-homogeneous polynomial of one degree with fresh coefficients."""
    coeffs = []
    expr = sp.Integer(0)
    for l in range(degree // 2 + 1):
        for i in range(degree - 2 * l + 1):
            c = sp.Symbol(f"{prefix}_{i}_{degree - 2 * l - i}_{l}")
            coeffs.append(c)
            expr += c * X ** i * Y ** (degree - 2 * l - i) * Z ** l
    return expr, coeffs


def degree2_orbital_normal_form(field_exprs):
    """(a1, b1) of the degree-2 orbital normal form, by brute force in sympy.

    `field_exprs` is (-2y, 2x, x^2+y^2) plus terms of field degree >= 1.  The
    target is G = F0 + a1 (z x, z y, 0) + b1 (0, 0, z^2), reached by a generic
    near-identity change Phi = id + U1 + U2 and time factor 1 + mu1 + mu2; the
    equation (1 + mu) F(Phi) = DPhi . G is solved through field degree 2,
    first for (U1, mu1), then for (U2, mu2, a1, b1) with the degree-1 freedom
    left symbolic.  Raises when a1 or b1 is not uniquely determined.
    """
    a1, b1 = sp.symbols("a1 b1")
    weights = (1, 1, 2)
    u, unknowns = {}, {}
    for s in (1, 2):
        comps = [generic_qh_sympy(s + w, f"u{s}{name}")
                 for w, name in zip(weights, "xyz")]
        mu, mu_coeffs = generic_qh_sympy(s, f"mu{s}")
        u[s] = ([c[0] for c in comps], mu)
        unknowns[s] = [c for comp in comps for c in comp[1]] + mu_coeffs
    phi = [v + u[1][0][i] + u[2][0][i] for i, v in enumerate((X, Y, Z))]
    time_factor = _terms(1 + u[1][1] + u[2][1])
    target = [-2 * Y + a1 * Z * X, 2 * X + a1 * Z * Y, X**2 + Y**2 + b1 * Z**2]

    equations = {}
    for i, w in enumerate(weights):
        pulled = _compose_truncated(field_exprs[i], [_terms(c) for c in phi], 2 + w)
        lhs = _mul_truncated(time_factor, pulled, 2 + w)
        rhs = _terms(sum(sp.diff(phi[i], v) * g for v, g in zip((X, Y, Z), target)))
        for m, coeff in _add_terms(lhs, rhs, -1).items():
            coeff, s = sp.expand(coeff), _qh_degree(m) - w
            if coeff != 0 and s <= 2:
                equations.setdefault(s, []).append(coeff)
    if any(s < 1 for s in equations):
        raise ValueError("the degree-0 part is not (-2y, 2x, x^2+y^2)")

    first = sp.solve(equations.get(1, []), unknowns[1], dict=True)
    if len(first) != 1:
        raise ValueError("degree-1 equations have no unique solution family")
    second_eqs = [sp.expand(e.subs(first[0])) for e in equations.get(2, [])]
    second = sp.solve(second_eqs, unknowns[2] + [a1, b1], dict=True)
    if len(second) != 1 or a1 not in second[0] or b1 not in second[0]:
        raise ValueError("a1, b1 are not determined by the degree-2 equations")
    gauge = set(unknowns[1]) | set(unknowns[2])
    values = tuple(sp.factor(second[0][c]) for c in (a1, b1))
    if any(v.free_symbols & gauge for v in values):
        raise ValueError("a1, b1 depend on the choice of transformation")
    return values


@dataclass(frozen=True)
class LieOperatorMatrix:
    """Exact matrix of the slice operator in the `slice_basis` ordering.

    entry (r, c) is the coefficient of row_basis[r] in the image of
    col_basis[c]; entries are plain rationals because the principal part is
    parameter-free.
    """

    degree: int
    matrix: Tuple[Tuple[Fraction, ...], ...]
    row_basis: GradedSliceBasis
    col_basis: GradedSliceBasis


def lie_operator_matrix(k):
    """The degree-k slice operator f -> grad(f) . (-2y, 2x, x^2+y^2), with
    every column differentiated by sympy."""
    basis = hz.slice_basis(k)
    index = {m: r for r, m in enumerate(basis.monomials)}
    columns = []
    for m in basis.monomials:
        image = directional_derivative_sympy(X ** m.ex * Y ** m.ey * Z ** m.ez,
                                             (-2 * Y, 2 * X, X ** 2 + Y ** 2))
        column = [Fraction(0)] * len(basis)
        for mono, coeff in _terms(image).items():
            column[index[mono]] = Fraction(int(coeff))
        columns.append(column)
    matrix = tuple(tuple(col[r] for col in columns) for r in range(len(basis)))
    return LieOperatorMatrix(degree=k, matrix=matrix, row_basis=basis, col_basis=basis)


def _apply_operator_monomial(m: Monomial3) -> Dict[Monomial3, int]:
    """Image of one monomial under f -> grad(f) . (-2y, 2x, x^2+y^2), by the
    power rule on its exponents."""
    i, j, l = m
    out: Dict[Monomial3, int] = {}
    if i:
        out[Monomial3(i - 1, j + 1, l)] = -2 * i
    if j:
        key = Monomial3(i + 1, j - 1, l)
        out[key] = out.get(key, 0) + 2 * j
    if l:
        for key in (Monomial3(i + 2, j, l - 1), Monomial3(i, j + 2, l - 1)):
            out[key] = out.get(key, 0) + l
    return {k: v for k, v in out.items() if v}


def slice_rows(k) -> Tuple[GradedSliceBasis, List[Dict[int, Fraction]]]:
    """Basis of the degree-k slice and the operator's sparse rows over it:
    rows[r][c] is the coefficient of monomial r in the image of monomial c,
    built by `_apply_operator_monomial`; the input `Elimination` takes."""
    basis = hz.slice_basis(k)
    index = {m: i for i, m in enumerate(basis.monomials)}
    rows: List[Dict[int, Fraction]] = [{} for _ in basis.monomials]
    for c, m in enumerate(basis.monomials):
        for image, coeff in _apply_operator_monomial(m).items():
            rows[index[image]][c] = Fraction(coeff)
    return basis, rows


def h_component(f, m):
    """Coefficient of (x^2+y^2)^m in the degree-2m part of f.

    Uses the harmonic projection: m applications of the plane Laplacian kill
    every degree-2m plane polynomial except multiples of (x^2+y^2)^m, and
    Laplacian^m (x^2+y^2)^m = 4^m (m!)^2.  Only z-free terms can contribute.
    """
    params = f.params
    current = {mm: c for mm, c in f.terms.items() if mm.ez == 0 and mm.degree == 2 * m}
    for _ in range(m):
        nxt: Dict[Monomial3, ParamPolynomial] = {}
        for mm, c in current.items():
            i, j, _ = mm
            if i >= 2:
                key = Monomial3(i - 2, j, 0)
                contrib = c.scale(i * (i - 1))
                prev = nxt.get(key)
                nxt[key] = prev + contrib if prev is not None else contrib
            if j >= 2:
                key = Monomial3(i, j - 2, 0)
                contrib = c.scale(j * (j - 1))
                prev = nxt.get(key)
                nxt[key] = prev + contrib if prev is not None else contrib
        current = {mm: c for mm, c in nxt.items() if c}
    const = current.get(Monomial3(0, 0, 0))
    if const is None:
        return ParamPolynomial.zero(params)
    return const.scale(Fraction(1, 4 ** m * math.factorial(m) ** 2))


def scale_field(field, g):
    """The field times the scalar polynomial g, component by component."""
    return VectorField3(*(g * c for c in field.components))


def lie_series_step(field, step, max_field_degree):
    """`apply_generator_step` through the public calculus: each series term
    the `lie_bracket` of the generator with the previous one, summed with
    `scale` and `+` in `Fraction` arithmetic.  The public products take no
    cap, so the time rescaling and each term are truncated at
    `max_field_degree` after they are formed: the reference shares no
    cut-off logic with the capped kernel it checks."""
    current = field
    if step.reparam:
        current = scale_field(field, QHPolynomial.constant(1, field.params) + step.reparam)
    current = current.truncate(max_field_degree)
    result = current
    term = current
    j = 1
    while True:
        term = hz.lie_bracket(step.generator, term).truncate(max_field_degree)
        if term.is_zero():
            break
        result = result + term.scale(Fraction(1, math.factorial(j)))
        j += 1
        if j > 4 * max_field_degree + 8:
            raise hz.StructureError("adjoint exponential failed to terminate")
    return result


class Elimination:
    """Row echelon form of a sparse rational matrix: the generic solver the
    structured slice and degree solves are pinned against.

    The matrix has len(sparse_rows) rows and n_cols columns.  Columns are
    pivoted in order, each on its sparsest remaining row with a nonzero in
    that column (the first of those on a tie), which keeps fill-in low; a
    column with none is free, and its unknown is set to zero.  Which columns
    are free depends on the column order alone, so solutions do not depend
    on the choice of pivot row.  The forward-elimination operations are
    recorded; `replay_poly` applies them to a right-hand side whose entries
    may be parameter polynomials, and `back_substitute` solves the reduced
    system against the stored echelon rows.
    """

    def __init__(self, sparse_rows: List[Dict[int, Fraction]], n_cols: int):
        n_rows = len(sparse_rows)
        self.n_cols = n_cols
        self.rows = [dict(r) for r in sparse_rows]
        self.ops: List[tuple] = []  # ("swap", i, j) | ("axpy", target, source, factor)
        self.pivots: List[Tuple[int, int]] = []
        self.free_columns: List[int] = []
        r = 0
        for c in range(n_cols):
            pivot_row = None
            for i in range(r, n_rows):
                row = self.rows[i]
                if row.get(c) and (pivot_row is None or len(row) < fewest):
                    pivot_row, fewest = i, len(row)
            if pivot_row is None:
                self.free_columns.append(c)
                continue
            if pivot_row != r:
                self.rows[r], self.rows[pivot_row] = self.rows[pivot_row], self.rows[r]
                self.ops.append(("swap", r, pivot_row))
            pivot = self.rows[r][c]
            for i in range(r + 1, n_rows):
                value = self.rows[i].get(c)
                if not value:
                    continue
                factor = -value / pivot
                target = self.rows[i]
                for cc, vv in self.rows[r].items():
                    acc = target.get(cc)
                    acc = acc + factor * vv if acc is not None else factor * vv
                    if acc:
                        target[cc] = acc
                    elif cc in target:
                        del target[cc]
                self.ops.append(("axpy", i, r, factor))
            self.pivots.append((r, c))
            r += 1
        self.rank = r
        self.zero_rows = list(range(r, n_rows))

    def replay_poly(self, vector: List[ParamPolynomial]) -> List[ParamPolynomial]:
        v = list(vector)
        for op in self.ops:
            if op[0] == "swap":
                _, i, j = op
                v[i], v[j] = v[j], v[i]
            else:
                _, target, source, factor = op
                if v[source]:
                    v[target] = v[target] + v[source].scale(factor)
        return v

    def back_substitute(self, reduced: List[ParamPolynomial],
                        zero_poly: ParamPolynomial) -> List[ParamPolynomial]:
        x = [zero_poly] * self.n_cols
        for r, c in reversed(self.pivots):
            acc = reduced[r]
            row = self.rows[r]
            for cc, vv in row.items():
                if cc > c and x[cc]:
                    acc = acc - x[cc].scale(vv)
            x[c] = acc.scale(1 / row[c])
        return x


def degree_system(s):
    """The normal-form degree-s system [F0,U] - mu*F0 + a*R1 + b*R2 as sparse
    rows: (bases, row_index, rows, n_cols).

    The columns are the images of unit unknowns in the fixed order
    (ux, uy, uz, mu, a, b), over `bases` = the slices of degree s+1, s+1,
    s+2 and s (a and b for even s only); `row_index` maps (component,
    monomial) to a row.  Each component of [F0, U] is the slice operator plus
    the couplings (2 uy, -2 ux, -2x ux - 2y uy).
    """
    bases = (hz.slice_basis(s + 1), hz.slice_basis(s + 1), hz.slice_basis(s + 2),
             hz.slice_basis(s))
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
    if s % 2 == 0:
        k = s // 2
        columns.append([(0, Monomial3(1, 0, k), 1), (1, Monomial3(0, 1, k), 1)])  # R1
        columns.append([(2, Monomial3(0, 0, k + 1), 1)])  # R2

    rows: List[Dict[int, Fraction]] = [{} for _ in row_index]
    for c, column in enumerate(columns):
        for ci, m, v in column:
            rows[row_index[(ci, m)]][c] = Fraction(v)
    return bases, row_index, rows, len(columns)


def elimination_solve_degree(known, s):
    """Solve [F0,U] - mu*F0 + a*R1 + b*R2 = known for (U, mu, a, b) by
    `Elimination` of `degree_system(s)`, free unknowns set to zero.  An
    inconsistent system raises AssertionError."""
    params = known.params
    zero_p = ParamPolynomial.zero(params)
    bases, row_index, rows, n_cols = degree_system(s)
    rhs: List[ParamPolynomial] = [zero_p] * len(rows)
    for ci, comp in enumerate(known.components):
        for m, c in comp.terms.items():
            rhs[row_index[(ci, m)]] = c

    elim = Elimination(rows, n_cols)
    reduced = elim.replay_poly(rhs)
    assert not any(reduced[i] for i in elim.zero_rows), f"degree-{s} system inconsistent"
    x = elim.back_substitute(reduced, zero_p)

    parts = []
    pos = 0
    for basis in bases:
        parts.append(QHPolynomial(
            {m: x[pos + i] for i, m in enumerate(basis.monomials) if x[pos + i]}, params))
        pos += len(basis)
    ux, uy, uz, mu = parts
    a = x[pos] if s % 2 == 0 else zero_p
    b = x[pos + 1] if s % 2 == 0 else zero_p
    return VectorField3(ux, uy, uz), mu, a, b
