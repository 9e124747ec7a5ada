"""The Lie-derivative operator of the principal part on each graded slice.

For the principal field (-2y, 2x, x^2 + y^2), the map f -> grad(f) . F0 sends
the degree-k slice to itself.  On even slices its kernel is spanned by
(x^2+y^2)^(k/2) and z^(k/2) represents the one-dimensional cokernel; on odd
slices it is bijective.  These facts are verified, not assumed, every time a
degree is first analyzed, and the elimination record is cached so the many
repeated solves of the obstruction recurrences are cheap.

This module is the one place that knows the operator (`_apply_operator_monomial`)
and how to eliminate over it (`_Elimination`, for any rectangular matrix).  The
normal-form degree solve builds its system from both.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .coeffring import ParamPolynomial
from .errors import DegreeError, StructureError
from .gradedpoly import (GradedSliceBasis, Monomial3, QHPolynomial, h_component,
                         slice_basis)


def _apply_operator_monomial(m: Monomial3) -> Dict[Monomial3, int]:
    """Image of one monomial under f -> grad(f) . (-2y, 2x, x^2+y^2)."""
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


def _slice_rows(k: int) -> Tuple[GradedSliceBasis, List[Dict[int, Fraction]]]:
    """Basis of the degree-k slice and the operator's sparse rows over it."""
    basis = slice_basis(k)
    index = {m: i for i, m in enumerate(basis.monomials)}
    rows: List[Dict[int, Fraction]] = [{} for _ in basis.monomials]
    for c, m in enumerate(basis.monomials):
        for image, coeff in _apply_operator_monomial(m).items():
            rows[index[image]][c] = Fraction(coeff)
    return basis, rows


def lie_operator_matrix(k: int) -> LieOperatorMatrix:
    basis, sparse_rows = _slice_rows(k)
    n = len(basis)
    matrix = tuple(tuple(row.get(c, Fraction(0)) for c in range(n)) for row in sparse_rows)
    return LieOperatorMatrix(degree=k, matrix=matrix, row_basis=basis, col_basis=basis)


class _Elimination:
    """Row echelon form of a sparse rational matrix with a replayable op log.

    The matrix has len(sparse_rows) rows and n_cols columns.  Columns are
    pivoted in order, each on its sparsest remaining row with a nonzero in
    that column (the first of those on a tie), which keeps fill-in low; a
    column with none is free, and its unknown is set to zero.  Which columns
    are free depends on the column order alone, so solutions and residuals
    do not depend on the choice of pivot row.  The forward-elimination
    operations are recorded once; solving for a new right-hand side replays
    them on the vector (whose entries may be parameter polynomials) and
    back-substitutes against the stored echelon rows.
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

    def replay_rational(self, vector: List[Fraction]) -> List[Fraction]:
        v = list(vector)
        for op in self.ops:
            if op[0] == "swap":
                _, i, j = op
                v[i], v[j] = v[j], v[i]
            else:
                _, target, source, factor = op
                v[target] = v[target] + factor * v[source]
        return v

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

    def kernel_vectors(self) -> List[List[Fraction]]:
        out = []
        for free in self.free_columns:
            x = [Fraction(0)] * self.n_cols
            x[free] = Fraction(1)
            for r, c in reversed(self.pivots):
                acc = Fraction(0)
                for cc, vv in self.rows[r].items():
                    if cc > c and x[cc]:
                        acc -= vv * x[cc]
                x[c] = acc / self.rows[r][c]
            out.append(x)
        return out


@dataclass(frozen=True)
class OperatorAnalysis:
    """Kernel/cokernel data plus the elimination record for fast re-solves."""

    degree: int
    kernel_basis: Tuple[QHPolynomial, ...]
    cokernel_representative: Optional[QHPolynomial]
    elimination: _Elimination = field(repr=False)
    cokernel_transformed: Optional[Tuple[Fraction, ...]] = field(repr=False, default=None)


_analysis_cache: Dict[int, OperatorAnalysis] = {}
_cache_lock = threading.Lock()


def analyze_operator(k: int) -> OperatorAnalysis:
    """Kernel basis and cokernel representative of the degree-k operator.

    Asserts the expected structure (one-dimensional kernel spanned by
    (x^2+y^2)^(k/2) and cokernel represented by z^(k/2) for even k, bijective
    for odd k) and raises StructureError on any violation.  Results are cached
    per degree; the cache is built at most once under a lock.
    """
    cached = _analysis_cache.get(k)
    if cached is not None:
        return cached
    with _cache_lock:
        cached = _analysis_cache.get(k)
        if cached is not None:
            return cached
        analysis = _build_analysis(k)
        _analysis_cache[k] = analysis
        return analysis


def _build_analysis(k: int) -> OperatorAnalysis:
    basis, sparse_rows = _slice_rows(k)
    n = len(basis)
    elim = _Elimination(sparse_rows, n)

    params: Tuple[str, ...] = ()
    if k % 2 == 1:
        if elim.rank != n:
            raise StructureError(f"degree-{k} operator is not bijective (rank {elim.rank})")
        return OperatorAnalysis(degree=k, kernel_basis=(),
                                cokernel_representative=None, elimination=elim)

    # even degree: expect exactly one kernel direction and z^(k/2) outside range
    if len(elim.free_columns) != 1 or len(elim.zero_rows) != 1:
        raise StructureError(
            f"degree-{k} operator has corank {len(elim.zero_rows)}, expected 1")
    kernel_vec = elim.kernel_vectors()[0]
    kernel_poly = QHPolynomial(
        {basis.monomials[i]: kernel_vec[i] for i in range(n) if kernel_vec[i]}, params)
    h_m = QHPolynomial.h_power(k // 2, params)
    if not _proportional(kernel_poly, h_m):
        raise StructureError(
            f"degree-{k} kernel is not spanned by (x^2+y^2)^{k // 2}")

    cok_monomial = Monomial3(0, 0, k // 2)
    e_c = [Fraction(0)] * n
    e_c[basis.monomials.index(cok_monomial)] = Fraction(1)
    transformed = elim.replay_rational(e_c)
    zero_row = elim.zero_rows[0]
    if not transformed[zero_row]:
        raise StructureError(f"z^{k // 2} lies in the range of the degree-{k} operator")
    cok_poly = QHPolynomial({cok_monomial: 1}, params)
    return OperatorAnalysis(degree=k, kernel_basis=(h_m,),
                            cokernel_representative=cok_poly, elimination=elim,
                            cokernel_transformed=tuple(transformed))


def _proportional(f: QHPolynomial, g: QHPolynomial) -> bool:
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if set(f.terms) != set(g.terms):
        return False
    ratio = None
    for m, c in f.terms.items():
        r = c.constant_value() / g.terms[m].constant_value()
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


@dataclass(frozen=True)
class HomologicalSolution:
    """Solution of operator(sol) = rhs - residual * z^(k/2), sol kernel-free."""

    solution: QHPolynomial
    residual: ParamPolynomial


def solve_homological(k: int, rhs: QHPolynomial) -> HomologicalSolution:
    """Solve the degree-k slice equation with the canonical normalization.

    The residual is the coefficient of z^(k/2) in the unsolvable part (zero
    for odd k); the solution carries no (x^2+y^2)^(k/2) component, where that
    component is read off by the harmonic projection `h_component`.  Pivoting
    is exact over Q; parameter coefficients ride along linearly, so no
    division by a parameter ever occurs.
    """
    analysis = analyze_operator(k)
    basis = slice_basis(k)
    params = rhs.params
    zero = ParamPolynomial.zero(params)
    index = {m: i for i, m in enumerate(basis.monomials)}
    vector = [zero] * len(basis)
    for m, c in rhs.terms.items():
        if m.degree != k:
            raise DegreeError(
                f"right-hand side contains {tuple(m)} of degree {m.degree}, expected {k}")
        vector[index[m]] = c

    elim = analysis.elimination
    reduced = elim.replay_poly(vector)
    residual = zero
    if k % 2 == 0:
        zero_row = elim.zero_rows[0]
        transformed = analysis.cokernel_transformed
        if reduced[zero_row]:
            residual = reduced[zero_row].scale(1 / transformed[zero_row])
            reduced = [reduced[i] - residual.scale(transformed[i]) if transformed[i] else reduced[i]
                       for i in range(len(reduced))]
        if reduced[zero_row]:
            raise StructureError("residual extraction left an inconsistent row")
    else:
        for row in elim.zero_rows:
            if reduced[row]:
                raise StructureError(f"odd degree {k} produced a nonzero residual")

    x = elim.back_substitute(reduced, zero)
    solution = QHPolynomial(
        {basis.monomials[i]: x[i] for i in range(len(basis)) if x[i]}, params)
    if k % 2 == 0 and k >= 2:
        kernel_coeff = h_component(solution, k // 2)
        if kernel_coeff:
            h_m = QHPolynomial.h_power(k // 2, params)
            solution = solution - h_m.scale_param(kernel_coeff)
    return HomologicalSolution(solution=solution, residual=residual)


def clear_cache() -> None:
    """Drop all cached eliminations (mainly for tests and benchmarks)."""
    with _cache_lock:
        _analysis_cache.clear()
