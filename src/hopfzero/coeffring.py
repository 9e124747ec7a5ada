"""Exact coefficient ring: arbitrary-precision rationals and Q[p1, ..., pm].

Rationals are `fractions.Fraction` (always in lowest terms, positive
denominator).  A `ParamPolynomial` is a sparse polynomial over Q in a fixed
ordered tuple of parameter names; it is the coefficient ring for every graded
object in this package.  Values are immutable by convention: no operation
mutates its arguments, so instances are safe to share between workers.

Invariant: a `ParamPolynomial`'s `terms` are always zero-free and in canonical
order (`_term_sort_key`); printing, hashing and rerun comparisons read that
order.  `ParamPolynomial(...)` is the constructor for outside input: it checks
exponent lengths, coerces coefficients and merges and sorts terms.  Ring
operations build their results through the private `_wrap`, which trusts its
caller to pass a term dict that already holds the invariant.

The module also holds the primitives that every polynomial type of the
package shares, each written once: `_merged`, the term merge of
`QHPolynomial` and `Poly2`, and `_format_terms`, the printer of all three
types.

It also owns the graded kernel's converted form (`gradedpoly.IntegerTerms`)
below the monomial: its packed exponent layout, in which an exponent vector
is one `int` key, 64 bits per parameter (`_pack`, `_unpack` and the guard of
key sums, `_refuse_overflow`; no other module reads a key's bit fields), and
the arithmetic of one coefficient, a plain `int` or (key, numerator) items:
`_combine`, `_nonzero`, `_scaled_coefficient` and the one content reduction,
`_reduced`, through which the slice solve's levels, the normal form's
division by h and `_Modulus` finish; outside this module and `gradedpoly` no
code tests a coefficient's type.  Beside them it owns the quotient
Q[params]/(g) of constrained runs: `_Modulus` reduces the converted form
modulo g, and `_constant_lead` decides which constraints a quotient admits;
`pseudo_remainder` and `congruent_mod` are the independent reference that
`_Modulus` is checked against.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from operator import add, or_
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .errors import ParameterError

Rational = Fraction

RationalLike = Union[int, str, Fraction]


# a number in text has the ASCII digits 0-9 only, as an expression's integer
# literal (`parsing._TOKEN`); `int` and `Fraction` also read `٣` and `1_0`
_DIGITS = "[0-9]+"
_INTEGER = re.compile(rf"[-+]?{_DIGITS}")
_RATIONAL = re.compile(rf"{_INTEGER.pattern}(?:/{_DIGITS})?")


def _read_int(text: str) -> int:
    """An optional sign and ASCII digits as an int; ValueError otherwise."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


# the packed layout: the exponent of parameter i in bits [64 i, 64 i + 64)
# of a key, below _EXP_LIMIT, so that a sum of two keys carries out of no
# field; the all-zero vector is the key 0
_EXP_BITS = 64
_EXP_MASK = (1 << _EXP_BITS) - 1
_EXP_LIMIT = 1 << (_EXP_BITS - 1)


def _pack(exps: tuple) -> int:
    """The packed key of the exponent vector `exps`; ParameterError for an
    exponent outside [0, _EXP_LIMIT)."""
    key = 0
    for e in reversed(exps):
        if not 0 <= e < _EXP_LIMIT:
            raise ParameterError(
                f"parameter exponent {e} is outside the supported range 0 .. 2^63 - 1")
        key = key << _EXP_BITS | e
    return key


def _unpack(key: int, n: int) -> tuple:
    """The exponent vector of `n` entries that the key `key` packs."""
    return tuple(key >> s & _EXP_MASK for s in range(0, _EXP_BITS * n, _EXP_BITS))


def _refuse_overflow(keys: Iterable[int]) -> None:
    """Raise ParameterError if a field of some key in `keys`, each a sum of
    two keys of fields below _EXP_LIMIT, reached _EXP_LIMIT: the top bit of
    each field is then set in their bitwise or."""
    seen = reduce(or_, keys, 0)
    # a 1 at the lowest bit of every field up to the highest one `seen` reaches
    ones = ((1 << _EXP_BITS * (seen.bit_length() // _EXP_BITS + 1)) - 1) // _EXP_MASK
    if seen & ones << (_EXP_BITS - 1):
        raise ParameterError("a parameter exponent reached 2^63 in a product; "
                             "exponents must stay below 2^63")


def _combine(parts: list):
    """sum(n * x for n, x in parts) for integers n, unreduced, zero sums
    kept: the x all plain `int`s, or all numerator dicts or lists of
    (key, numerator) items, as a converted form holds them."""
    n, x = parts[0]
    if type(x) is int:
        out = 0
        for n, x in parts:
            out += n * x
        return out
    out = {e: n * v for e, v in (x.items() if type(x) is dict else x)}
    for n, x in parts[1:]:
        for e, v in (x.items() if type(x) is dict else x):
            out[e] = out.get(e, 0) + n * v
    return out


def _nonzero(x) -> bool:
    """Whether a sum of `_combine`, an `int` or a numerator dict, is nonzero."""
    return any(x.values()) if type(x) is dict else bool(x)


def _scaled_coefficient(c, factor: int):
    """One coefficient of a converted form, in its form, times `factor`."""
    if type(c) is int:
        return c * factor
    return c if factor == 1 else [(e, n * factor) for e, n in c]


def _reduced(den: int, sums: list) -> Tuple[int, list]:
    """(den // g, sums // g), g the gcd of `den` and every numerator of
    `sums`, the sums of `_combine` over `den`, all `int`s or all numerator
    dicts: the `int`s keep their positions and zeros, and each dict becomes
    a zero-free list of (key, numerator) items, empty when it sums to zero."""
    if not sums or type(sums[0]) is int:
        g = math.gcd(den, *sums)
        return den // g, [n // g for n in sums]
    g = math.gcd(den, *(n for s in sums for n in s.values()))
    return den // g, [[(e, n // g) for e, n in s.items() if n] for s in sums]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or `p/q` string (ASCII digits) to a Rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value.strip()):
            raise ValueError(f"invalid rational {value!r}")
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _term_sort_key(exps):
    # the canonical term order, graded lexicographic, printed largest-first:
    # higher total degree first, then lexicographically larger exponent
    # vector first
    return (-sum(exps), tuple(-e for e in exps))


def _degree_lex(exps):
    # with reverse=True, the same order as _term_sort_key on distinct
    # exponent tuples of one length, without building a negated tuple
    return (sum(exps), exps)


def _canonical(terms: dict) -> dict:
    """`terms` with zero coefficients dropped, in canonical order."""
    return {e: terms[e] for e in sorted(terms, key=_degree_lex, reverse=True) if terms[e]}


class ParamPolynomial:
    """Sparse polynomial in the declared parameters with Rational coefficients.

    `terms` maps exponent tuples (one entry per declared parameter) to nonzero
    Rationals.  Terms are stored in a fixed graded-lexicographic order so that
    iteration, printing, and hashing are deterministic.  The constructor
    validates and canonicalizes outside input; `_wrap` builds a result from a
    term dict its caller guarantees is already zero-free and in that order.
    """

    __slots__ = ("terms", "params")

    def __init__(self, terms: Mapping[tuple, RationalLike], params: Iterable[str]):
        params = tuple(params)
        n = len(params)
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ParameterError(
                    f"exponent vector {exps} does not match {n} declared parameters")
            coeff = rat(coeff)
            if coeff:
                # keys such as [1, 0] and (1, 0) normalize equal and merge
                prev = clean.get(exps)
                clean[exps] = coeff if prev is None else prev + coeff
        object.__setattr__(self, "terms", _canonical(clean))
        object.__setattr__(self, "params", params)

    @classmethod
    def _wrap(cls, terms: dict, params: tuple) -> "ParamPolynomial":
        """A polynomial on `terms` as given: the caller guarantees that they
        are zero-free, in canonical order, and keyed by exponent tuples of
        `len(params)` entries, and that nothing else holds the dict."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "params", params)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ParamPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: Iterable[str]) -> "ParamPolynomial":
        return cls._wrap({}, tuple(params))

    @classmethod
    def constant(cls, value: RationalLike, params: Iterable[str]) -> "ParamPolynomial":
        params = tuple(params)
        return cls({(0,) * len(params): rat(value)}, params)

    @classmethod
    def variable(cls, name: str, params: Iterable[str]) -> "ParamPolynomial":
        params = tuple(params)
        if name not in params:
            raise ParameterError(f"parameter {name!r} is not declared (have {params})")
        exps = tuple(1 if p == name else 0 for p in params)
        return cls({exps: 1}, params)

    # -- ring operations ---------------------------------------------------

    def _check_ring(self, other: "ParamPolynomial"):
        if self.params != other.params:
            raise ParameterError(
                f"parameter tables differ: {self.params} vs {other.params}")

    def __add__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        self._check_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        return ParamPolynomial._wrap(_canonical(out), self.params)

    def __sub__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        return self + -other

    def __neg__(self) -> "ParamPolynomial":
        return ParamPolynomial._wrap({e: -c for e, c in self.terms.items()}, self.params)

    def __mul__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        self._check_ring(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                prev = out.get(e)
                out[e] = ca * cb if prev is None else prev + ca * cb
        return ParamPolynomial._wrap(_canonical(out), self.params)

    def scale(self, factor: RationalLike) -> "ParamPolynomial":
        factor = rat(factor)
        if not factor:
            return ParamPolynomial.zero(self.params)
        if factor == 1:
            return self
        return ParamPolynomial._wrap({e: c * factor for e, c in self.terms.items()},
                                     self.params)

    def __pow__(self, n: int) -> "ParamPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ParamPolynomial.constant(1, self.params)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self):
        return hash((self.params, tuple(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero polynomial gives 0)."""
        if not self.is_constant():
            raise ParameterError(f"{self} is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def degree_in(self, name: str) -> int:
        """Degree in one parameter; -1 for the zero polynomial."""
        idx = self._param_index(name)
        return max((e[idx] for e in self.terms), default=-1)

    def coefficient_of_power(self, name: str, power: int) -> "ParamPolynomial":
        """Coefficient of name**power, as a polynomial in the full ring."""
        idx = self._param_index(name)
        # zeroing one entry that is `power` in every kept term keeps the
        # reduced tuples distinct and in canonical order
        out = {}
        for e, c in self.terms.items():
            if e[idx] == power:
                out[e[:idx] + (0,) + e[idx + 1:]] = c
        return ParamPolynomial._wrap(out, self.params)

    def _param_index(self, name: str) -> int:
        try:
            return self.params.index(name)
        except ValueError:
            raise ParameterError(f"parameter {name!r} is not declared (have {self.params})")

    def substitute(self, values: Mapping[str, RationalLike]) -> "ParamPolynomial":
        """Substitute rational values for some parameters (table unchanged)."""
        idx = {self._param_index(name): rat(v) for name, v in values.items()}
        out = {}
        for e, c in self.terms.items():
            factor = Fraction(1)
            new = list(e)
            for i, v in idx.items():
                factor *= v ** e[i]
                new[i] = 0
            key = tuple(new)
            prev = out.get(key)
            out[key] = c * factor if prev is None else prev + c * factor
        return ParamPolynomial._wrap(_canonical(out), self.params)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return _format_terms(self.terms, self.params)

    def __repr__(self) -> str:
        return f"ParamPolynomial({self})"


def _merged(terms: Iterable[tuple], key, params: tuple) -> dict:
    """The (monomial, coefficient) pairs `terms` of a polynomial over
    `ParamPolynomial` coefficients, as a term dict: coefficients coerced to
    the ring of `params`, repeated monomials summed, zero sums dropped and
    the monomials sorted by `key`.  A `ParamPolynomial` coefficient over
    another parameter table raises ValueError."""
    out = {}
    for m, c in terms:
        if not isinstance(c, ParamPolynomial):
            c = ParamPolynomial.constant(c, params)
        elif c.params != params:
            raise ValueError("coefficient ring mismatch")
        prev = out.get(m)
        out[m] = c if prev is None else prev + c
    return {m: out[m] for m in sorted(out, key=key) if out[m]}


def _format_terms(terms: Mapping[tuple, object], names) -> str:
    """The printed form of a polynomial whose `terms` map exponent tuples over
    `names` to nonzero `Fraction` or `ParamPolynomial` coefficients, in the
    order given: `-3/2 + x - a*y^2 + (a - b)*z`.  A coefficient of several
    terms is put in parentheses before a monomial, and a term after the first
    whose text starts with a minus sign is joined with ` - `."""
    text = ""
    for exps, coeff in terms.items():
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, exps) if e)
        ct = str(coeff)
        if not mono:
            body = ct
        elif ct == "1":
            body = mono
        elif ct == "-1":
            body = "-" + mono
        elif " " in ct:
            body = f"({ct})*{mono}"
        else:
            body = f"{ct}*{mono}"
        if not text:
            text = body
        elif body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text or "0"


def ppoly_reduce(p: ParamPolynomial, constraint: ParamPolynomial,
                 var: str) -> ParamPolynomial:
    """Pseudo-remainder of `p` by `constraint` with respect to parameter `var`.

    Returns r with deg_var(r) < deg_var(constraint) such that
    lc^e * p = q * constraint + r for some q and some power e of the leading
    coefficient lc of the constraint in `var`.  In particular r is congruent
    to p modulo the ideal (constraint), up to that unit-power factor.
    """
    r, _ = pseudo_remainder(p, constraint, var)
    return r


def pseudo_remainder(p: ParamPolynomial, constraint: ParamPolynomial,
                     var: str) -> tuple:
    """Like `ppoly_reduce` but also returns the number e of lc-multiplications."""
    p._check_ring(constraint)
    idx = p._param_index(var)
    d = constraint.degree_in(var)
    if d < 1:
        raise ParameterError(f"constraint is constant in {var!r}")
    lc_shifted = constraint.coefficient_of_power(var, d)

    r = p
    steps = 0
    while True:
        dr = r.degree_in(var)
        if dr < d:
            break
        lead = r.coefficient_of_power(var, dr)
        # r <- lc*r - lead * var^(dr-d) * constraint
        shift = ParamPolynomial(
            {tuple((dr - d) if i == idx else 0 for i in range(len(p.params))): 1},
            p.params)
        r = lc_shifted * r - lead * shift * constraint
        steps += 1
    return r, steps


def congruent_mod(p: ParamPolynomial, q: ParamPolynomial,
                  constraint: ParamPolynomial, var: str) -> bool:
    """True when p == q modulo the principal ideal generated by `constraint`,
    which `_constant_lead` must admit (else ParameterError): only then does a
    zero pseudo-remainder mean membership."""
    _constant_lead(constraint, var)
    return ppoly_reduce(p - q, constraint, var).is_zero()


def _constant_lead(constraint: ParamPolynomial, var: str) -> Tuple[int, Fraction]:
    """(d, lc): the degree d >= 1 of `constraint` in `var` and its leading
    coefficient lc there, a rational; else ParameterError, since the remainder
    by any other constraint is no ring homomorphism.  `_Modulus`,
    `congruent_mod` and the CLI's request check all decide by it."""
    d = constraint.degree_in(var)
    if d < 1:
        raise ParameterError(f"constraint does not contain {var!r}")
    lead = constraint.coefficient_of_power(var, d)
    if not lead.is_constant():
        raise ParameterError(
            f"constraint has leading coefficient {lead} in {var!r}, not a constant")
    return d, lead.constant_value()


class _Modulus:
    """Reduction modulo a constraint g whose leading coefficient in the
    eliminated parameter p is a nonzero rational, on the graded kernel's
    converted form (`gradedpoly.IntegerTerms`).

    With its denominators cleared and its sign fixed, g is lc*p^d + tail:
    lc a positive integer and the tail, of degree below d in p, integer
    items (key, numerator), each exponent vector packed into one `int` key
    as in the converted form (`_pack`).  Modulo g, p^d is -tail/lc, so each
    power p^e is congruent to one polynomial of degree below d in p, held as
    integer items over lc^s (`_power`), and each coefficient to its true
    remainder, the one polynomial of degree below d in p congruent to it.
    It equals pseudo_remainder(c, g, p)[0] / lc(g)^e.  Taking it is a ring
    homomorphism Q[params] -> Q[params]/(g), which is what lets the
    continuation run in the quotient.  A constraint that `_constant_lead`
    refuses raises its ParameterError, since then it is not.

    The exponent of p in a key is read with a shift and a mask, and a
    monomial times a power of p is a sum of keys, checked like the graded
    kernel's (`_refuse_overflow`): an exponent of 2^63 or more in the tail,
    or a reduced exponent that reaches it, raises ParameterError.
    (A degree d of 2^63 or more needs no guard: every exponent of p in the
    converted form is below it, so reducing leaves each coefficient as is.)
    """

    def __init__(self, constraint: ParamPolynomial, var: str):
        d, lead = _constant_lead(constraint, var)
        i = constraint._param_index(var)
        self.shift, self.degree = _EXP_BITS * i, d
        den = math.lcm(*(c.denominator for c in constraint.terms.values()))
        if lead < 0:
            den = -den
        self.lc = int(lead * den)
        self._tail = [(_pack(e), int(c * den)) for e, c in constraint.terms.items() if e[i] < d]
        self._powers = {d: (1, [(key, -n) for key, n in self._tail])}

    def _power(self, e: int) -> Tuple[int, List[Tuple[int, int]]]:
        """(s, items): p^e, for e >= d, is congruent to items / lc^s, of
        degree below d in p.  Each power is p times the one before, with the
        items that reach p^d replaced by -tail/lc; s never decreases with e."""
        shift, d, table = self.shift, self.degree, self._powers
        step, below = 1 << shift, (d - 1) << shift
        top = max(table)
        while top < e:
            s, items = table[top]
            low, high = [], []
            for key, n in items:
                if key >> shift & _EXP_MASK == d - 1:
                    high.append((key - below, n))
                else:
                    low.append((key + step, n))
            if high:
                out = {key: n * self.lc for key, n in low}
                for rest, n in high:
                    for t, m in self._tail:
                        key = rest + t
                        out[key] = out.get(key, 0) - n * m
                _refuse_overflow(out)
                s, low = s + 1, [(key, n) for key, n in out.items() if n]
            top += 1
            table[top] = s, low
        return table[e]

    def reduce(self, converted: tuple) -> tuple:
        """`converted` with each coefficient replaced by its true remainder,
        in the same form: one common denominator, the terms in canonical
        order, zero-free, and the gcd of the denominator and every numerator
        1.  The items are scaled to lc^S, S the largest s of the powers of p
        they hold, and then divided by that gcd (`_reduced`).  A form of `int`
        coefficients, constants and so their own remainders, is returned."""
        den, terms = converted
        shift, d = self.shift, self.degree
        if not terms or type(terms[0][3]) is int:
            return converted
        top = max(key >> shift & _EXP_MASK for term in terms for key, _ in term[3])
        if top < d:
            return converted
        big = self._power(top)[0]
        lifts = [self.lc ** (big - s) for s in range(big + 1)]
        sums = []
        for *_, items in terms:
            acc: Dict[int, int] = {}
            for key, n in items:
                e = key >> shift & _EXP_MASK
                if e < d:
                    acc[key] = acc.get(key, 0) + n * lifts[0]
                    continue
                s, power = self._powers[e]
                rest = key - (e << shift)
                n *= lifts[s]
                for t, m in power:
                    key = rest + t
                    acc[key] = acc.get(key, 0) + n * m
            _refuse_overflow(acc)
            sums.append(acc)
        den, sums = _reduced(den * lifts[0], sums)
        return den, [(*term[:3], items) for term, items in zip(terms, sums) if items]
