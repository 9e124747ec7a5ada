"""Obstruction sequences and the integrability classification driver.

Three candidate functions are continued degree by degree against a field with
principal part (-2y, 2x, x^2+y^2):

  * FIRST_INTEGRAL: W = (x^2+y^2) + ..., residuals of grad(W) . F
  * JACOBI_H:       W = (x^2+y^2) + ..., residuals of grad(W) . F - W div F
  * JACOBI_H2:      W = (x^2+y^2)^2 + ..., same defining expression

At each even quasi-homogeneous degree 2k the unsolvable part of the defining
expression is a multiple of z^k; that coefficient is the entry of index k.
Entries are indexed by the z power k; the quasi-homogeneous degree they live
at is 2k, and reports carry both numbers.

The continuation runs degree by degree in the graded kernel's converted form
(`gradedpoly.IntegerTerms`): the known term comes from the kernel
(`_mul_integer`), goes to the slice solve (`homological._solve_levels`) and
comes back solved in the same form.  That loop, `_continuation`, returns
the sequence; its `witness` choice decides whether the last degree is
solved and the pieces become `Fraction`s for a witness.  The public
sequence functions ask for one (`_obstruction_driver`); `classify` and the
report path do not (`_entries_only`).

A run may continue in a quotient ring instead, as the paper does once it
takes a nonzero entry as a necessary condition g = 0 and goes on: the report
path (`_entries_only`) takes a constraint g and the name p it eliminates, and
each degree's known term is reduced modulo g (`coeffring._Modulus`) before
its entry is read and its slice is solved.  The continuation uses only ring
operations and slice solves whose only divisions are by integers, so it
commutes with the map Q[params] -> Q[params]/(g) whenever g's leading
coefficient in p is a nonzero rational; its entries are then the true
remainders of the full run's entries, and no full entry is computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .coeffring import ParamPolynomial, _Modulus
from .errors import DegreeError, StructureError
from .gradedpoly import (VAR_NAMES, Monomial3, QHPolynomial, _from_integer_terms,
                         _integer_terms, _mul_integer, _scaled_coefficient)
from .homological import _solve_levels
from .normalform import (NormalFormResult, ResonanceData, coprime_resonance,
                         first_resonance, orbital_normal_form, principal_part,
                         require_principal_part)
from .vectorfield import VectorField3, directional_derivative, divergence


class Method(enum.Enum):
    FIRST_INTEGRAL = "FIRST_INTEGRAL"
    JACOBI_H = "JACOBI_H"
    JACOBI_H2 = "JACOBI_H2"


_SEED_POWER = {Method.FIRST_INTEGRAL: 1, Method.JACOBI_H: 1, Method.JACOBI_H2: 2}
_USES_DIV = {Method.FIRST_INTEGRAL: False, Method.JACOBI_H: True, Method.JACOBI_H2: True}


@dataclass(frozen=True)
class ObstructionSequence:
    """Ordered residual entries of one candidate continuation.

    entries[k] multiplies z^k (quasi-homogeneous degree 2k) in the defining
    expression of the witness; all indices from start_index through max_index
    are present, including exact zeros.  The witness is the accumulated
    candidate through quasi-homogeneous degree 2*max_index; it is None in
    the sequences `classify` returns, which keep only the entries.
    seed_power is the m of its seed (x^2+y^2)^m; the first entry sits one
    index above it.
    """

    method: Method
    entries: Dict[int, ParamPolynomial]
    witness: Optional[QHPolynomial]
    max_index: int
    params: Tuple[str, ...]
    seed_power: int

    @property
    def start_index(self) -> int:
        return self.seed_power + 1

    def nonzero_entries(self) -> Dict[int, ParamPolynomial]:
        return {k: v for k, v in self.entries.items() if v}

    def all_zero(self) -> bool:
        return not self.nonzero_entries()

    def first_nonzero(self) -> Optional[int]:
        return next((k for k in sorted(self.entries) if self.entries[k]), None)


def _continuation(field: VectorField3, max_index: int, method: Method, power: int,
                  modulus: Optional[_Modulus], witness: bool) -> ObstructionSequence:
    """Continue the seed (x^2+y^2)^power of `method` degree by degree and
    return its sequence.

    Each degree 2*power+1 .. 2*max_index is solved in the graded kernel's
    converted form (integer numerators over one denominator); on even
    degrees the entry is the known term's z^(degree/2) residual.  `witness`
    chooses the rest.  With it the last degree is solved too, each solved
    piece becomes `Fraction`s once (`_from_integer_terms`), and the witness
    is the seed and the pieces concatenated, in ascending degree, which is
    canonical order.  Without it the last degree, which no entry reads, is
    not solved, no piece becomes `Fraction`s, and `witness` is None.

    The known part of the defining expression at degree d, the sum of
    grad(W_j) . F_k - W_j div(F_k) over field components F_k and solved
    pieces W_j with j + k = d, is one `_mul_integer` call with the two sides
    swapped, which gives its negation, the slice solve's right-hand side,
    directly.  Both terms are derivative pairs, for v in x, y, z:
    (W_j, F_k,v, v) for (dW_j/dv) F_k,v and (F_k,v, W_j, v) for
    (dF_k,v/dv) W_j, so no divergence is taken.  On even d the entry is its
    z^(d/2) term, the last in canonical order, and the only value built as
    `Fraction`s (one `_from_numerators`).
    `homological._solve_levels` takes the right-hand side as it is and
    returns the piece in the same form, which the next degrees read in
    derivative pairs (the kernel differentiates it as it reads it), so each
    piece is held once.  The components are converted by `_integer_terms`
    once, to `int` coefficients for a field bound to a numeric point, which
    the kernel and the solve keep; a piece is dropped when no later degree
    reads it.

    With a `modulus` the run is in the quotient ring it defines: each known
    term is reduced right after `_mul_integer`, before its entry is read and
    before it is solved.  The solve is linear over Q[params], so the pieces
    it returns are reduced already, and each entry is the true remainder of
    the entry of the run without it.  The components stay as they are: the
    reduction is a ring map, and remainders are canonical.
    """
    if max_index < 1:
        raise DegreeError("max_index must be at least 1")
    if power < 1:
        raise DegreeError("seed_power must be at least 1")
    require_principal_part(field)
    params = field.params
    seed_degree = 2 * power
    seed = QHPolynomial.h_power(power, params)
    use_div = _USES_DIV[method]
    components = {k: f for k, f in field.decompose().items() if k >= 1}

    # the defining expression must vanish identically at the seed degree
    f0 = principal_part(params)
    base = directional_derivative(seed, f0)
    if use_div:
        base = base - seed * divergence(f0)
    if not base.is_zero():
        raise StructureError("seed term fails the defining identity at its own degree")

    converted = {seed_degree: _integer_terms(seed)}
    comp_terms = {k: [_integer_terms(c) for c in f.components]
                  for k, f in components.items()}
    reach = max(components, default=0)
    entries: Dict[int, ParamPolynomial] = {}
    pieces = [seed]
    last = 2 * max_index
    for degree in range(seed_degree + 1, last + 1):
        converted.pop(degree - reach - 1, None)  # no later degree reads it
        # the sides are swapped, so the accumulate gives -known
        plus, minus = [], []
        for fdeg in sorted(components):
            piece = converted.get(degree - fdeg)
            if piece is None:
                continue
            minus += [(piece, c, v) for v, c in zip(VAR_NAMES, comp_terms[fdeg])]
            if use_div:
                plus += [(c, piece, v) for v, c in zip(VAR_NAMES, comp_terms[fdeg])]
        rhs = _mul_integer(plus, minus)
        if modulus is not None:
            rhs = modulus.reduce(rhs)
        if degree % 2 == 0:  # the entry is the known term's z^(d/2) coefficient, last
            den, terms = rhs
            c = terms[-1][3] if terms and terms[-1][2] == degree // 2 else 0
            entries[degree // 2] = ParamPolynomial._from_numerators(
                _scaled_coefficient(c, -1), den, params)
        if (degree < last or witness) and (solved := _solve_levels(degree, rhs))[1]:
            converted[degree] = solved
            if witness:
                pieces.append(_from_integer_terms(solved, params))
    whole = QHPolynomial._wrap({m: c for piece in pieces for m, c in piece.terms.items()},
                               params) if witness else None
    return ObstructionSequence(method=method, entries=entries, witness=whole,
                               max_index=max_index, params=params, seed_power=power)


def _obstruction_driver(field: VectorField3, max_index: int, method: Method,
                        seed_power: Optional[int] = None) -> ObstructionSequence:
    """The sequence of the seed (x^2+y^2)^m of `method`, with its witness.

    seed_power overrides m (default: 1, or 2 for JACOBI_H2).  The continuation
    is linear in its seed, so the h^m-seeded runs span the kernel components
    that a different normalization of the method's own witness may add.
    """
    power = _SEED_POWER[method] if seed_power is None else seed_power
    return _continuation(field, max_index, method, power, None, witness=True)


def _entries_only(field: VectorField3, max_index: int, method: Method,
                  constraint: Optional[Tuple[ParamPolynomial, str]] = None
                  ) -> ObstructionSequence:
    """The sequence of `method` without its witness (`witness` None), from
    the same `_continuation` as `_obstruction_driver`: its entries equal that
    driver's, term order included.  The report path reads only the entries.

    With a `constraint` (g, p), g in the field's ring with a nonzero
    rational leading coefficient in p, the run continues in the quotient
    Q[params]/(g) (`_Modulus`), and each entry is the true remainder of the
    full run's entry by g in p: pseudo_remainder(entry, g, p)[0] divided by
    lc(g)^e.  No full entry is computed.
    """
    modulus = None if constraint is None else _Modulus(*constraint)
    return _continuation(field, max_index, method, _SEED_POWER[method], modulus,
                         witness=False)


def first_integral_obstructions(field: VectorField3, max_index: int) -> ObstructionSequence:
    """Residuals of grad(W) . F for the candidate W = x^2 + y^2 + ..."""
    return _obstruction_driver(field, max_index, Method.FIRST_INTEGRAL)


def jacobi_obstructions(field: VectorField3, max_index: int,
                        mode: Method) -> ObstructionSequence:
    """Residuals of grad(W) . F - W div(F) for W seeded by h or h^2."""
    if mode not in (Method.JACOBI_H, Method.JACOBI_H2):
        raise ValueError(f"mode must be JACOBI_H or JACOBI_H2, got {mode}")
    return _obstruction_driver(field, max_index, mode)


def obstruction_sequence(field: VectorField3, max_index: int,
                         method: Method) -> ObstructionSequence:
    return _obstruction_driver(field, max_index, method)


def recombination_defect(field: VectorField3, seq: ObstructionSequence) -> QHPolynomial:
    """Exact check of the defining identity.

    Returns the part of grad(W).F - c W div(F) - sum entries[k] z^k of
    quasi-homogeneous degree at most 2*max_index; an empty polynomial means
    the sequence satisfies its contract exactly.  A sequence without a
    witness (from `classify`) raises ValueError.
    """
    w = seq.witness
    if w is None:
        raise ValueError("the sequence has no witness; run obstruction_sequence")
    expr = directional_derivative(w, field)
    if _USES_DIV[seq.method]:
        expr = expr - w * divergence(field)
    for k, value in seq.entries.items():
        if value:
            expr = expr - QHPolynomial({Monomial3(0, 0, k): value}, seq.params)
    return expr.truncate(2 * seq.max_index)


# --------------------------------------------------------------------------
# classification


class CaseTag(enum.Enum):
    NF_LINEARIZABLE = "NF_LINEARIZABLE"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    NOT_INTEGRABLE = "NOT_INTEGRABLE"
    NO_OBSTRUCTION_UP_TO = "NO_OBSTRUCTION_UP_TO"
    SYMBOLIC = "SYMBOLIC"


@dataclass(frozen=True)
class Classification:
    """Verdict of the integrability analysis.

    NOT_INTEGRABLE carries the witness: either an obstruction entry
    (witness_method, witness_index with value witness_value) or, when the
    resonance admits no coprime pair, witness_method None and the resonance
    data as evidence.  B3 carries the coprime pair.  NO_OBSTRUCTION_UP_TO is a
    truncated statement, never a claim of integrability.  The sequences in
    `obstructions` carry their entries only: their `witness` is None.
    """

    case_tag: CaseTag
    max_index: int
    resonance: Optional[ResonanceData] = None
    normal_form: Optional[NormalFormResult] = None
    obstructions: Tuple[ObstructionSequence, ...] = ()
    coprime_pair: Optional[Tuple[int, int]] = None
    witness_method: Optional[Method] = None
    witness_index: Optional[int] = None
    witness_value: Optional[ParamPolynomial] = None

    @property
    def witness_degree(self) -> Optional[int]:
        return None if self.witness_index is None else 2 * self.witness_index


def _resonant_shape(field: VectorField3):
    """Detect fields that are exactly F0 + (p(z) x, p(z) y, q(z)).

    p is read off dx and q off dz, and the field they define is compared with
    the field.  Returns (p, q) as maps z-power -> coefficient, or None when
    the field is not of that shape.
    """
    params = field.params
    rest = field - principal_part(params)
    p = {m.ez: c for m, c in rest.fx.terms.items() if m.ex == 1 and m.ey == 0}
    q = {m.ez: c for m, c in rest.fz.terms.items() if m.ex == 0 and m.ey == 0}

    def series(ex: int, ey: int, coeffs: Dict[int, ParamPolynomial]) -> QHPolynomial:
        return QHPolynomial({(ex, ey, k): c for k, c in coeffs.items()}, params)

    shape = VectorField3(series(1, 0, p), series(0, 1, p), series(0, 0, q))
    return (p, q) if rest == shape else None


def classify(field: VectorField3, max_index: int) -> Classification:
    """Dispatch per the resonance structure and run the matching obstruction test.

    The numeric path requires every coefficient that drives a branch decision
    to be an explicit rational.  The caller binds parameter values before the
    call, with `field.substitute_params(values)`, as `build_report` does.
    With free parameters left in branch-deciding positions the verdict is
    SYMBOLIC and the relevant obstruction polynomials are returned for the
    caller to analyze; no branching on symbolic (in)equalities ever happens.

    The dispatch reads the normal form up to its first resonant index only,
    so the normal form is computed by deepening runs that stop there
    (`_normal_form_to_first_resonance`); the returned `normal_form` has
    max_index equal to that index, or to max_index when none is resonant.
    The obstruction sequences always run to max_index.  A max_index below 1
    raises DegreeError.
    """
    if max_index < 1:
        raise DegreeError("max_index must be at least 1")
    require_principal_part(field)

    shape = _resonant_shape(field)
    if shape is not None:
        verdict = _classify_resonant_shape(shape, max_index)
        if verdict is not None:
            return verdict

    nf, s = _normal_form_to_first_resonance(field, max_index)
    res = first_resonance(nf)

    if s is None:
        # no resonant term through max_index: test the first-integral candidate
        seq = _entries_only(field, max_index, Method.FIRST_INTEGRAL)
        return _verdict_from_sequence(seq, max_index, res, nf, None)

    a_s, b_s = nf.a_coeffs[s], nf.b_coeffs[s]
    if not (a_s.is_constant() and b_s.is_constant()):
        sequences = (_entries_only(field, max_index, Method.JACOBI_H),
                     _entries_only(field, max_index, Method.JACOBI_H2))
        return Classification(case_tag=CaseTag.SYMBOLIC, max_index=max_index,
                              resonance=res, normal_form=nf, obstructions=sequences)

    av, bv = a_s.constant_value(), b_s.constant_value()
    if av and bv:
        pair = coprime_resonance(av, bv, s)
        if pair is None:
            return Classification(case_tag=CaseTag.NOT_INTEGRABLE, max_index=max_index,
                                  resonance=res, normal_form=nf)
        seq = _entries_only(field, max_index, Method.JACOBI_H2)
        return _verdict_from_sequence(seq, max_index, res, nf, pair)
    seq = _entries_only(field, max_index, Method.JACOBI_H)
    return _verdict_from_sequence(seq, max_index, res, nf, None)


def _normal_form_to_first_resonance(field: VectorField3, max_index: int
                                    ) -> Tuple[NormalFormResult, Optional[int]]:
    """The orbital normal form up to its first resonant index r, and r.

    Runs `orbital_normal_form` at the working indices ceil(M/2^j), j =
    bit_length(M) .. 0, for M = max_index (..., ceil(M/4), ceil(M/2), M),
    and stops at the first run with a nonzero a_k or b_k.  That run is cut at
    r: a_k and b_k for k <= r, the steps of degrees 1..2r and the field
    truncated at 2r, which is the run at max_index r exactly, since degree s
    of a run reads no degree above s.  The run at M is returned whole, with
    r None, when no index through M is resonant.  Each working index is at
    most twice the one before, so at about N^5 cost per run the smaller runs
    add a few per cent to the last.
    """
    for w in sorted({-(-max_index >> j) for j in range(max_index.bit_length() + 1)}):
        nf = orbital_normal_form(field, w)
        r = next((k for k in range(1, w + 1) if nf.a_coeffs[k] or nf.b_coeffs[k]), None)
        if r is not None:
            return NormalFormResult(
                a_coeffs={k: nf.a_coeffs[k] for k in range(1, r + 1)},
                b_coeffs={k: nf.b_coeffs[k] for k in range(1, r + 1)},
                max_index=r, generators=nf.generators[:2 * r],
                field=nf.field.truncate(2 * r), params=nf.params), r
    return nf, None


def _classify_resonant_shape(shape, max_index):
    """Verdicts available when the field is syntactically its own normal form."""
    p, q = shape
    constant = all(c.is_constant() for c in p.values()) and \
        all(c.is_constant() for c in q.values())
    if not p and not q:
        return Classification(case_tag=CaseTag.NF_LINEARIZABLE, max_index=max_index)
    if not constant:
        return None  # symbolic coefficients: fall through to the general path
    if p and not q:
        return Classification(case_tag=CaseTag.B1, max_index=max_index)
    if q and not p:
        return Classification(case_tag=CaseTag.B2, max_index=max_index)
    if len(p) == 1 and len(q) == 1:
        (mp, ap), (mq, bq) = next(iter(p.items())), next(iter(q.items()))
        if mq == mp + 1:
            pair = coprime_resonance(ap.constant_value(), bq.constant_value(), mp)
            if pair is None:
                return Classification(case_tag=CaseTag.NOT_INTEGRABLE,
                                      max_index=max_index)
            return Classification(case_tag=CaseTag.B3, max_index=max_index,
                                  coprime_pair=pair)
    return None  # mixed tail: needs the general truncated pipeline


def _verdict_from_sequence(seq, max_index, res, nf, pair):
    common = dict(max_index=max_index, resonance=res, normal_form=nf,
                  obstructions=(seq,), coprime_pair=pair)
    first = seq.first_nonzero()
    if first is None:
        return Classification(case_tag=CaseTag.NO_OBSTRUCTION_UP_TO, **common)
    value = seq.entries[first]
    if value.is_constant():
        return Classification(case_tag=CaseTag.NOT_INTEGRABLE, witness_method=seq.method,
                              witness_index=first, witness_value=value, **common)
    # symbolic nonzero entry: vanishing depends on the parameters
    return Classification(case_tag=CaseTag.SYMBOLIC, **common)
