"""Sparse polynomials in x, y, z graded by quasi-homogeneous type (1, 1, 2).

A monomial x^i y^j z^l has quasi-homogeneous degree i + j + 2l.  Polynomials
are sparse maps from monomials to `ParamPolynomial` coefficients, so a single
object can hold symbolic-parameter content exactly.  The graded slice of
degree k, and a deterministic ordered basis of it, underpin all the linear
algebra downstream.

Invariant: a `QHPolynomial`'s `terms` are always zero-free and in canonical
order (`_mono_sort_key`); printing and rerun comparisons read that order.
`QHPolynomial(...)` is the constructor for outside input: it coerces keys and
coefficients, checks the coefficient ring and merges and sorts terms
(`coeffring._merged`, shared by `__add__` and `Poly2`).  Operations build
their results through the private `_wrap`, which trusts its caller to pass a
term dict that already holds the invariant.  Every product and every
derivative (`mul`, `partial`, the divergences, directional derivatives and
Lie brackets of `vectorfield`, the normal-form adjoint exponential and the
known terms of the obstruction sequences) goes through one multiply-accumulate
kernel, `_mul_integer`.  Its operands are first converted by
`_integer_terms` to integer numerators over one common denominator, so each
coefficient is read once.  The kernel sums an output slice in a dense list,
one slot per monomial at its `slice_basis` position, when the call reaches no
degree above 30 or many term pairs reach the slice, and otherwise in a dict
keyed by slot, so it builds no monomial key and sorts only a dict's slots; a
slot is one `int` when every operand coefficient is constant.  A product with
a partial derivative, as in grad(a) . F, is a derivative pair: the kernel
differentiates its left operand as it reads it (`_lowered`, the one place an
exponent is lowered), so no partial is built; a partial alone is the pair of
the polynomial and the constant 1 (`_ONE`).  In the converted form each
parameter exponent vector is one `int` key, 64 bits per parameter
(`coeffring._pack`), so the kernel multiplies two parameter monomials with
one `int` add and checks its output once for an exponent that reached 2^63
(`coeffring._refuse_overflow`); the monomial keys stay (ex, ey, ez).  The
public products take no cap.  The normal form's steps
(`normalform._integer_step`) sum the adjoint exponential in Horner form, one
kernel call per component and level, each under that level's degree cap,
and the kernel reads only what the cap keeps, of a differentiated operand
too.  The kernel returns the converted form, divided by its content gcd, so
a caller can feed it into the next product.  It is the only integer layout
that leaves this module: the slice solve (`homological._solve_levels`) takes
and returns it, so the obstruction driver and the normal-form degree solve
build no `Fraction`s between degrees.  `_from_integer_terms` is the one
place where a product's numerators become `Fraction`s again, in a
`QHPolynomial`, each distinct key unpacked to its exponent tuple once.
`QHPolynomial`, `Poly2` and `ParamPolynomial` print through one function,
`coeffring._format_terms`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .coeffring import (ParamPolynomial, RationalLike, _format_terms, _merged, _pack,
                        _refuse_overflow, _unpack, rat)
from .errors import DegreeError

VAR_NAMES = ("x", "y", "z")


class Monomial3(NamedTuple):
    """Exponents of x, y, z.  The quasi-homogeneous degree is derived."""

    ex: int
    ey: int
    ez: int

    @property
    def degree(self) -> int:
        return self.ex + self.ey + 2 * self.ez


@dataclass(frozen=True)
class GradedSliceBasis:
    """Ordered monomial basis of the quasi-homogeneous slice of one degree."""

    degree: int
    monomials: Tuple[Monomial3, ...]

    def __len__(self):
        return len(self.monomials)


def slice_basis(k: int) -> GradedSliceBasis:
    """All monomials of quasi-homogeneous degree k, ordered by ascending z
    exponent and then descending x exponent."""
    if k < 0:
        raise DegreeError(f"negative degree {k}")
    monomials = []
    for ez in range(k // 2 + 1):
        rest = k - 2 * ez
        for ex in range(rest, -1, -1):
            monomials.append(Monomial3(ex, rest - ex, ez))
    return GradedSliceBasis(k, tuple(monomials))


def slice_dimension(k: int) -> int:
    # the sum of k - 2l + 1 over l = 0 .. k // 2
    return (k // 2 + 1) * (k - k // 2 + 1) if k >= 0 else 0


def _mono_sort_key(m):
    # on a Monomial3 or a plain (ex, ey, ez) tuple alike
    ex, ey, ez = m
    return (ex + ey + 2 * ez, ez, -ex)


class QHPolynomial:
    """Sparse polynomial in x, y, z with ParamPolynomial coefficients.

    `terms` maps `Monomial3` keys to nonzero coefficients over `params`, in
    `_mono_sort_key` order: ascending degree, then ascending z exponent, then
    descending x exponent.  The constructor validates and canonicalizes
    outside input; `_wrap` builds a result from a term dict its caller
    guarantees is already in that form.
    """

    __slots__ = ("terms", "params")

    def __init__(self, terms: Mapping[Monomial3, ParamPolynomial], params: Iterable[str]):
        params = tuple(params)
        merged = _merged(((Monomial3(*m), c) for m, c in terms.items()), _mono_sort_key, params)
        object.__setattr__(self, "terms", merged)
        object.__setattr__(self, "params", params)

    @classmethod
    def _wrap(cls, terms: dict, params: tuple) -> "QHPolynomial":
        """A polynomial on `terms` as given: the caller guarantees that they
        are zero-free, in canonical order, keyed by `Monomial3` and with
        coefficients over `params`, and that nothing else holds the dict."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "params", params)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QHPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: Iterable[str]) -> "QHPolynomial":
        return cls._wrap({}, tuple(params))

    @classmethod
    def constant(cls, value: RationalLike, params: Iterable[str]) -> "QHPolynomial":
        return cls({Monomial3(0, 0, 0): rat(value)}, params)

    @classmethod
    def monomial(cls, m, coeff, params: Iterable[str]) -> "QHPolynomial":
        return cls({Monomial3(*m): coeff}, params)

    @classmethod
    def variable(cls, name: str, params: Iterable[str]) -> "QHPolynomial":
        exps = [0, 0, 0]
        exps[VAR_NAMES.index(name)] = 1
        return cls({Monomial3(*exps): 1}, params)

    @classmethod
    def h_power(cls, m: int, params: Iterable[str]) -> "QHPolynomial":
        """(x^2 + y^2)^m, the generator of the rotation-invariant kernel line."""
        return _from_integer_terms(_h_power(m), tuple(params))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "QHPolynomial"):
        if self.params != other.params:
            raise ValueError("parameter tables differ")

    def __add__(self, other: "QHPolynomial") -> "QHPolynomial":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return QHPolynomial._wrap(
            _merged(chain(self.terms.items(), other.terms.items()), _mono_sort_key,
                    self.params), self.params)

    def __sub__(self, other: "QHPolynomial") -> "QHPolynomial":
        return self + -other

    def __neg__(self) -> "QHPolynomial":
        return QHPolynomial._wrap({m: -c for m, c in self.terms.items()}, self.params)

    def __mul__(self, other: "QHPolynomial") -> "QHPolynomial":
        return self.mul(other)

    def mul(self, other: "QHPolynomial") -> "QHPolynomial":
        """The product, through the kernel `_mul_integer`.  A product under a
        degree cap is a kernel call of its own, made by the normal form's
        steps (`normalform._integer_step`)."""
        self._check(other)
        return _from_integer_terms(
            _mul_integer([(_integer_terms(self), _integer_terms(other))], ()), self.params)

    def scale(self, factor: RationalLike) -> "QHPolynomial":
        factor = rat(factor)
        if not factor:
            return QHPolynomial.zero(self.params)
        return QHPolynomial._wrap({m: c.scale(factor) for m, c in self.terms.items()},
                                  self.params)

    def scale_param(self, factor: ParamPolynomial) -> "QHPolynomial":
        if not factor:
            return QHPolynomial.zero(self.params)
        # Q[params] has no zero divisors, so no product vanishes
        return QHPolynomial._wrap({m: c * factor for m, c in self.terms.items()},
                                  self.params)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QHPolynomial):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading -----------------------------------------------------------

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted({m.degree for m in self.terms}))

    def slice(self, k: int) -> "QHPolynomial":
        return QHPolynomial._wrap({m: c for m, c in self.terms.items() if m.degree == k},
                                  self.params)

    def truncate(self, max_degree: int) -> "QHPolynomial":
        return QHPolynomial._wrap(
            {m: c for m, c in self.terms.items() if m.degree <= max_degree}, self.params)

    # -- calculus and evaluation -------------------------------------------

    def partial(self, var: str) -> "QHPolynomial":
        """The derivative pair of this polynomial and the constant 1."""
        return _from_integer_terms(_mul_integer([(_integer_terms(self), _ONE, var)], ()),
                                   self.params)

    def substitute_params(self, values: Mapping[str, RationalLike]) -> "QHPolynomial":
        out = {}
        for m, c in self.terms.items():
            c = c.substitute(values)
            if c:
                out[m] = c
        return QHPolynomial._wrap(out, self.params)

    def coefficient(self, m) -> ParamPolynomial:
        return self.terms.get(Monomial3(*m), ParamPolynomial.zero(self.params))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return _format_terms(self.terms, VAR_NAMES)

    def __repr__(self) -> str:
        return f"QHPolynomial({self})"


# (D, [(ex, ey, ez, [(key, numerator)])]): each parameter exponent vector
# packed into one int key (`coeffring._pack`), every field below 2^63
IntegerTerms = Tuple[int, List[Tuple[int, int, int, List[Tuple[int, int]]]]]

# the constant 1 in converted form: a derivative pair (a, _ONE, v) is da/dv
_ONE: IntegerTerms = (1, [(0, 0, 0, [(0, 1)])])

# the most slots per term pair that reaches it for which an output slice is
# a dense list; a sparser slice, as in a product with x^1000, is a dict
_SLOTS_PER_PAIR = 4
# the highest output degree of a call whose slices are all lists, with no
# pairs counted: the slices to degree 30 hold 2,856 slots
_DENSE_TOP = 30


def _h_power(m: int) -> IntegerTerms:
    """(x^2 + y^2)^m in converted form: the binomial coefficients over 1,
    the x exponent descending, which is canonical order.  The one builder
    of the power, for `QHPolynomial.h_power` and the normal-form degree
    solve."""
    return 1, [(2 * i, 2 * (m - i), 0, [(0, math.comb(m, i))]) for i in range(m, -1, -1)]


def _integer_terms(f: QHPolynomial) -> IntegerTerms:
    """`f` as integer numerators over one common denominator:
    (D, [(ex, ey, ez, [(key, numerator)])]), D the lcm of every coefficient
    denominator of `f`, the terms in canonical order and each coefficient's
    items in its own, each exponent vector packed into one `int` key
    (`coeffring._pack`, which refuses an exponent of 2^63 or more)."""
    common = math.lcm(*{q.denominator for c in f.terms.values() for q in c.terms.values()})
    return common, [(*m, [(_pack(p), q.numerator * (common // q.denominator))
                           for p, q in c.terms.items()])
                    for m, c in f.terms.items()]


def _lowered(terms: list, i: int, scale: int):
    """(term, e * scale) for each term of a converted form's `terms` with an
    exponent e > 0 in variable i, that exponent lowered by one: the terms of
    the partial derivative in that variable, with the factor each numerator
    takes.  Lowering keeps canonical order."""
    for term in terms:
        if e := term[i]:
            lowered = list(term)
            lowered[i] = e - 1
            yield lowered, e * scale


def _from_integer_terms(converted: IntegerTerms, params: Tuple[str, ...]) -> QHPolynomial:
    """The polynomial of a zero-free converted form, in its monomial order,
    one `Fraction` per numerator.  Each distinct packed key is unpacked once
    (`coeffring._unpack`), and the keys are sorted once, into canonical term
    order; walked in that order, they fill every coefficient in its order."""
    den, terms = converted
    coeffs: List[dict] = [{} for _ in terms]
    by_key = defaultdict(list)  # key -> [(coefficient, numerator)]
    for c, t in zip(coeffs, terms):
        for key, n in t[3]:
            by_key[key].append((c, n))
    for _, exps, key in sorted(((sum(e), e, key) for key in by_key
                                for e in (_unpack(key, len(params)),)), reverse=True):
        for c, n in by_key[key]:
            c[exps] = Fraction(n, den)
    return QHPolynomial._wrap({tuple.__new__(Monomial3, t[:3]): ParamPolynomial._wrap(c, params)
                               for t, c in zip(terms, coeffs)}, params)


def _is_constant(converted: IntegerTerms) -> bool:
    """Whether every coefficient is one term with all-zero exponents (key
    `0`), as in a field bound to a numeric point, whatever its parameter
    table."""
    return all(len(t[3]) == 1 and not t[3][0][0] for t in converted[1])


def _new_slice(e: int, pairs: Optional[int], constant: bool) -> tuple:
    """An empty output slice of degree e that `pairs` term pairs reach, as
    (slots, offsets): the monomial x^(e-2l-ey) y^ey z^l sits at slot
    offsets[l] + ey, which holds an `int` when `constant` and otherwise an
    exponent dict.  With pairs None (not counted) or at most
    `_SLOTS_PER_PAIR` slots per pair, a dense list in `slice_basis(e)`
    order, offsets l*(e+2-l), the last one the slice's dimension; otherwise
    a dict keyed by slot, offsets l*(e+1) as a `range`, so that the slice's
    memory grows with its pairs, not with its degree."""
    n = slice_dimension(e)
    if pairs is None or n <= _SLOTS_PER_PAIR * pairs:
        return [0 if constant else None] * n, [l * (e + 2 - l) for l in range(e // 2 + 2)]
    return defaultdict(int if constant else type(None)), range(0, (e // 2 + 1) * (e + 1), e + 1)


def _mul_integer(plus: Sequence[tuple], minus: Sequence[tuple],
                 max_degree: Optional[int] = None,
                 constant: Optional[bool] = None) -> IntegerTerms:
    """sum(a * b for a, b in plus) - sum(a * b for a, b in minus) over
    operands converted by `_integer_terms`, without the monomials of degree
    above `max_degree` when a cap is given, in converted form: zero-free, the
    monomials in canonical order, and numerators and denominator divided by
    their gcd, so that a chain of products, such as the levels of the
    normal form's Horner sum, does not grow its denominators.
    `_from_integer_terms` turns the result into a `QHPolynomial`.

    A pair may also be a derivative pair (a, b, v), v one of "x", "y", "z":
    it stands for (da/dv) * b, and the kernel differentiates `a` as it reads
    it (`_lowered`): it skips the terms of `a` free of v, lowers v's exponent
    in the others and multiplies that exponent into the pair's scale.  No
    partial is built.

    The sums are exact in integers over `common`, the lcm of the pairs'
    `Da * Db`: each pair's numerator products are scaled by
    `common // (Da * Db)` (negated for `minus`).  Each `b` is bucketed by
    degree up to the cap less the degree of the first term `a` yields (the
    lowest, lowered, term of `a` that holds v, in a derivative pair), past
    which no `a` term can use it, and the terms of `a` come in ascending
    degree, so the pairs above the cap are cut off with a `break` rather
    than tested one by one.  A `b` bucket entry is (ey, ez, coefficient).

    Each output degree e has one slice, made before any pair is summed
    (`_new_slice`).  In a call whose top output degree is at most
    `_DENSE_TOP`, as in the normal form's products, every slice is a dense
    list, `slice_dimension(e)` slots long, and no pair is counted: the
    monomial x^(e-2l-ey) y^ey z^l sits at slot l*(e+2-l) + ey, its position
    in `slice_basis(e)`.  Otherwise the pairs that reach e are counted from
    how many terms `a` yields at each degree and the sizes of the buckets; a
    slice that many pairs reach is such a list, and one that few reach, as
    in x^1000 * x, is a dict keyed by slot.  Either way a pair adds into
    `out[off[az + bz] + ay + by]`, the slice `out` and its offsets `off`
    fetched once per `a` term and bucket, so no monomial key is built or
    hashed, and read in ascending degree the nonzero slots of a list are
    already in canonical order (a dict's are sorted as `int`s).  When every
    operand coefficient is constant (`_is_constant`), each slot holds one
    plain `int`, with no exponent dict.  A caller that already knows
    whether the operands are constant passes `constant`, and no operand is
    scanned.  Otherwise a slot holds a dict from packed exponent keys to
    sums, and each pair of coefficient items adds its keys, one `int` add;
    the output keys are checked once (`coeffring._refuse_overflow`), so a
    parameter exponent that reaches 2^63 raises ParameterError instead of
    carrying into its neighbour's field.  Nothing is kept from one call to
    the next.
    """
    cap = math.inf if max_degree is None else max_degree
    common = math.lcm(*(a[0] * b[0] for pairs in (plus, minus) for a, b, *_ in pairs))
    if constant is None:
        constant = all(_is_constant(x) for pairs in (plus, minus) for pair in pairs
                       for x in pair[:2])
    jobs: List[tuple] = []  # (a, the index of v or None, scale, buckets of b, drop)
    low, top = math.inf, -1  # the lowest and the highest output degree
    for sign, pairs in ((1, plus), (-1, minus)):
        for (da, a_terms), (db, b_terms), *var in pairs:
            # the lowest and highest degree `a` yields: in a derivative pair its
            # terms that hold v (`_lowered`), one degree lower in x or y, two in z
            v = VAR_NAMES.index(var[0]) if var else None
            drop = 0 if v is None else 1 + (v == 2)
            first, last = (next((t[0] + t[1] + 2 * t[2] - drop for t in ts if v is None or t[v]),
                                None) for ts in (a_terms, reversed(a_terms)))
            if first is None:
                continue
            reach = cap - first
            buckets: List[Tuple[int, list]] = []
            for bx, by, bz, b_items in b_terms:
                d = bx + by + 2 * bz
                if d > reach:
                    break
                if not buckets or buckets[-1][0] != d:
                    buckets.append((d, []))
                buckets[-1][1].append((by, bz, b_items[0][1] if constant else b_items))
            if not buckets:
                continue
            jobs.append((a_terms, v, sign * (common // (da * db)), buckets, drop))
            low = min(low, first + buckets[0][0])
            top = max(top, min(cap, last + buckets[-1][0]))
    if top <= _DENSE_TOP:  # every slice a list, no pairs counted
        slices = {e: _new_slice(e, None, constant) for e in range(low, top + 1)} if jobs else {}
    else:
        reached: Dict[int, int] = defaultdict(int)  # output degree -> pairs that reach it
        for a_terms, v, _, buckets, drop in jobs:
            for degree, n in Counter(t[0] + t[1] + 2 * t[2] - drop
                                     for t in a_terms if v is None or t[v]).items():
                for d, bucket in buckets:
                    if degree + d > cap:
                        break
                    reached[degree + d] += n * len(bucket)
        slices = {e: _new_slice(e, reached[e], constant) for e in sorted(reached)}
    for a_terms, v, scale, buckets, _ in jobs:
        lowest = buckets[0][0]
        for (ax, ay, az, a_items), factor in (zip(a_terms, repeat(scale)) if v is None
                                              else _lowered(a_terms, v, scale)):
            degree = ax + ay + 2 * az
            room = cap - degree
            if room < lowest:
                break
            if constant:
                na = a_items[0][1] * factor
            else:
                a_items = [(e, n * factor) for e, n in a_items]
            for d, bucket in buckets:
                if d > room:
                    break
                out, off = slices[degree + d]
                if constant:
                    for by, bz, nb in bucket:
                        out[off[az + bz] + ay + by] += na * nb
                    continue
                for by, bz, b_items in bucket:
                    i = off[az + bz] + ay + by
                    if (sums := out[i]) is None:
                        sums = out[i] = {}
                    for ea, na in a_items:
                        for eb, nb in b_items:
                            k = ea + eb
                            sums[k] = sums.get(k, 0) + na * nb
    # zero sums leave the gcd as it is, so it is taken before they are dropped
    values = [out if type(out) is list else out.values() for out, _ in slices.values()]
    if constant:
        g = math.gcd(common, *filter(None, chain.from_iterable(values)))
    else:
        sums = [s for v in values for s in v if s]
        _refuse_overflow(chain.from_iterable(sums))
        g = math.gcd(common, *(n for s in sums for n in s.values()))
    terms = []
    for e, (out, off) in slices.items():
        # a list's nonzero slots lie in canonical order, a dict's are sorted
        for i in (compress(range(len(out)), out) if type(out) is list
                  else sorted(i for i, n in out.items() if n)):
            l = bisect_right(off, i) - 1
            ey = i - off[l]
            if constant:
                terms.append((e - 2 * l - ey, ey, l, [(0, out[i] // g)]))
            elif items := [(k, n // g) for k, n in out[i].items() if n]:
                terms.append((e - 2 * l - ey, ey, l, items))
    return common // g, terms
