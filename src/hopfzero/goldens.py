"""Curated regression corpus: input systems with exact expected outputs.

Fixture files use the frontend input grammar followed by an `expect` block:

    expect {
      origin = literature            # literature | derived | trivial
      mode = JACOBI_H2               # AUTO | NORMAL_FORM | REDUCE | <method>
      max_index = 7
      param a001 = 1                 # optional bindings
      zero entries = 3 4 5 6
      entry 7 = 15/2048*a001^10 - ...
      a 1 = -1/4*a001^2              # normal-form coefficients
      constraint = 18*a001^2 - ...   # with `eliminate`, runs the sequence in the
      eliminate = a001               # quotient; sequence modes only, as on the CLI
      zero reduced = 8 9 10          # with a constraint, in place of `zero entries`
      reduced 11 = ...               # congruence modulo the constraint ideal
      case = NOT_INTEGRABLE
      witness_method = JACOBI_H2
      witness_index = 7
      coprime_pair = 1 1
      du = v + 1/4*u^2               # planar reduction components
      dv = -1/2*u*v
    }

Each fixture is checked on the report that `build_report` makes, the one
`hopfzero --json` prints: polynomial strings of the report are parsed back and
compared as polynomials, `reduced` entries are compared modulo the constraint,
and resonance, planar and verdict fields are compared as the report holds
them.  A constrained sequence is reported by its reduced entries only, so a
fixture with a constraint checks no full entry (`zero entries`, `entry k`).
Every comparison is exact; there are no tolerances anywhere in the corpus.
"""

from __future__ import annotations

import pathlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from typing import Dict, List, Optional, Tuple

from .coeffring import ParamPolynomial, _read_int, congruent_mod, rat
from .errors import ParseError
from .frontend import AnalysisConfig, _bound_constraint, _request_fault, build_report
from .parsing import parse_polynomial, parse_system

DATA_DIR = pathlib.Path(__file__).parent / "goldens_data"


@dataclass(frozen=True)
class GoldenCase:
    name: str
    origin: str
    mode: str
    max_index: int
    system_text: str
    bindings: Dict[str, object]
    expectations: Tuple[tuple, ...]
    constraint: Optional[str] = None
    eliminate: Optional[str] = None


@dataclass
class GoldenResult:
    name: str
    origin: str
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@contextmanager
def _naming(name: str):
    """Re-raise a ParseError of the fixture's system text with the fixture's
    name, at the same line and column."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(f"fixture {name}: {exc.message}", exc.line, exc.column) from None


# expect keys that bind one value; a second line for one is an error, not a
# silent override
_SINGLE_KEYS = ("origin", "mode", "max_index", "constraint", "eliminate", "param")
# expect keys of two words, such as `entry 7`; every other key is one word
_TWO_WORD_KEYS = ("zero", "param", "entry", "reduced", "a", "b")


def parse_fixture(text: str, name: str) -> GoldenCase:
    """The case a fixture text defines.  Every polynomial value is parsed
    against the system's parameters, and any error is a ParseError that
    names the fixture and the line.  The request keys (`mode`, `param`,
    `constraint`, `eliminate`) go through the check the CLI flags go through,
    `frontend._request_fault`, and its error gives the first line of the key
    at fault."""
    if "expect {" not in text:
        raise ParseError(f"fixture {name}: missing expect block")
    system_text, _, rest = text.partition("expect {")
    body, closed, _ = rest.partition("}")
    if not closed:
        raise ParseError(f"fixture {name}: unterminated expect block")
    origin = "derived"
    mode = "AUTO"
    max_index = 8
    bindings: Dict[str, object] = {}
    expectations: List[tuple] = []
    constraint = None
    eliminate = None
    first_line: Dict[str, int] = {}
    polynomials: List[Tuple[str, str, int]] = []  # (value, line, lineno) to parse

    @cache
    def parameter_names():  # the system's, read when first needed
        with _naming(name):
            return parse_system(system_text).parameter_names

    def polynomial(value: str) -> str:
        polynomials.append((value, line, lineno))
        return value

    for lineno, raw in enumerate(body.splitlines(), start=system_text.count("\n") + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"fixture {name}: malformed expect line {line!r}", lineno)
        key, _, value = line.partition("=")
        key_parts = key.split()
        value = value.strip()
        try:
            head = key_parts[0]
            if len(key_parts) != (2 if head in _TWO_WORD_KEYS else 1):
                raise ValueError(key)
            key_name = " ".join(key_parts) if head in ("zero", "param") else head
            if head in _SINGLE_KEYS and key_name in first_line:
                raise ParseError(f"fixture {name}: repeated expect key {key_name!r} "
                                 f"(first at line {first_line[key_name]})", lineno)
            first_line.setdefault(key_name, lineno)
            if head == "origin":
                if value not in ("literature", "derived", "trivial"):
                    raise ValueError(value)
                origin = value
            elif head == "mode":
                mode = value
            elif head == "max_index":
                max_index = _read_int(value)
                if max_index < 1:
                    raise ParseError(f"fixture {name}: malformed expect line {line!r}: "
                                     "max_index must be at least 1", lineno)
            elif head == "param":
                bindings[key_parts[1]] = rat(value)
            elif head == "constraint":
                constraint = polynomial(value)
            elif head == "eliminate":
                eliminate = value
            elif head == "zero" and key_parts[1] in ("entries", "reduced"):
                found = tuple(_read_int(v) for v in value.split())
                if not found:
                    raise ParseError(f"fixture {name}: malformed expect line {line!r}: "
                                     "no index listed", lineno)
                expectations.append((f"zero_{key_parts[1]}", found))
            elif head in ("entry", "reduced"):
                expectations.append((head, _read_int(key_parts[1]), polynomial(value)))
            elif head in ("a", "b"):
                expectations.append(("coeff", head, _read_int(key_parts[1]),
                                     polynomial(value)))
            elif head in ("l0", "m0", "n0"):
                expectations.append(("resonance", head, value))
            elif head in ("case", "witness_method"):
                expectations.append((head, value))
            elif head == "witness_index":
                expectations.append(("witness_index", _read_int(value)))
            elif head == "coprime_pair":
                p, q = value.split()
                expectations.append(("coprime_pair", (_read_int(p), _read_int(q))))
            elif head in ("du", "dv"):
                expectations.append(("planar", head, value))
            else:
                raise ParseError(f"fixture {name}: unknown expect key {head!r}", lineno)
        except (IndexError, ValueError, ZeroDivisionError):
            raise ParseError(f"fixture {name}: malformed expect line {line!r}", lineno) from None
    if (constraint is None) != (eliminate is None):
        given, missing = ("constraint", "eliminate") if eliminate is None else \
            ("eliminate", "constraint")
        raise ParseError(f"fixture {name}: {given} without {missing}", first_line[given])
    reduced = [first_line[k] for k in ("zero reduced", "reduced") if k in first_line]
    if reduced and constraint is None:
        raise ParseError(f"fixture {name}: reduced expectation without constraint",
                         min(reduced))
    full = [first_line[k] for k in ("zero entries", "entry") if k in first_line]
    if full and constraint is not None:
        raise ParseError(f"fixture {name}: entry expectation with constraint, whose "
                         "report has reduced entries only", min(full))
    # values are parsed after the structural checks, which report first
    parsed: Dict[int, ParamPolynomial] = {}  # by line number
    for value, line, lineno in polynomials:
        names = parameter_names()
        try:
            parsed[lineno] = parse_polynomial(value, names)
        except ParseError as exc:
            raise ParseError(f"fixture {name}: malformed expect line {line!r}: "
                             f"{exc.message}", lineno) from None
    pair = (parsed[first_line["constraint"]], eliminate) if constraint is not None else None
    names = parameter_names() if bindings or pair else ()
    fault = _request_fault(names, AnalysisConfig(mode=mode, parameter_values=bindings,
                                                 constraint=pair))
    if fault:
        raise ParseError(f"fixture {name}: {fault[1]}", first_line[fault[0]])
    return GoldenCase(name=name, origin=origin, mode=mode, max_index=max_index,
                      system_text=system_text, bindings=bindings,
                      expectations=tuple(expectations),
                      constraint=constraint, eliminate=eliminate)


def run_golden(case: GoldenCase) -> GoldenResult:
    """Build the case's report with `build_report`, as `hopfzero --json` does,
    and check every expectation against it."""
    result = GoldenResult(name=case.name, origin=case.origin)
    with _naming(case.name):
        field3 = parse_system(case.system_text).to_field()

    def poly(text: str) -> ParamPolynomial:
        return parse_polynomial(text, field3.params)

    constraint = (poly(case.constraint), case.eliminate) if case.constraint else None
    config = AnalysisConfig(max_index=case.max_index, mode=case.mode,
                            parameter_values=case.bindings, constraint=constraint)
    report = build_report(field3, config)
    constraint = _bound_constraint(config)  # the report is reduced by it
    for expectation in case.expectations:
        try:
            result.failures.extend(_failures(report, expectation, poly, constraint))
        except KeyError as exc:
            result.failures.append(f"{expectation[0]}: report lacks {exc}")
    return result


def _failures(report, expectation, poly, constraint):
    """Messages for what the report misses of one expectation."""
    kind = expectation[0]
    if kind in ("zero_entries", "entry", "zero_reduced", "reduced"):
        sequences = report["obstructions"]
        if len(sequences) != 1:
            yield f"{kind}: expected one obstruction sequence, got {len(sequences)}"
            return
        # a constrained run reports reduced entries, any other full ones
        reduced = kind in ("zero_reduced", "reduced")
        entries = sequences[0]["reduced_entries" if reduced else "entries"]
        where = " mod constraint" if reduced else ""
    if kind in ("zero_entries", "zero_reduced"):
        for k in expectation[1]:
            if poly(entries[str(k)]):
                yield f"entry {k}{where}: expected 0, got {entries[str(k)]}"
    elif kind == "entry":
        _, k, text = expectation
        want = poly(text)
        if poly(entries[str(k)]) != want:
            yield f"entry {k}: expected {want}, got {entries[str(k)]}"
    elif kind == "reduced":
        _, k, text = expectation
        want = poly(text)
        if not congruent_mod(poly(entries[str(k)]), want, *constraint):
            yield f"entry {k} mod constraint: expected {want}, reduced form {entries[str(k)]}"
    elif kind == "coeff":
        _, which, k, text = expectation
        want = poly(text)
        got = report["normal_form"][which][str(k)]
        if poly(got) != want:
            yield f"{which}_{k}: expected {want}, got {got}"
    elif kind == "resonance":
        _, which, text = expectation
        got = str(report["resonance"][which])
        if got != text:
            yield f"{which}: expected {text}, got {got}"
    elif kind == "planar":
        _, which, text = expectation
        got = report["planar_reduction"][which]
        if got != text:
            yield f"{which}: expected {text!r}, got {got!r}"
    else:
        verdict = report["classification"]
        got = verdict[kind]
        if kind == "coprime_pair" and got is not None:
            got = tuple(got)
        if got != expectation[1]:
            yield f"{kind.replace('_', ' ')}: expected {expectation[1]}, got {got}"


def load_cases() -> List[GoldenCase]:
    """The corpus's fixtures, in file-name order."""
    return [parse_fixture(path.read_text(encoding="utf-8"), path.stem)
            for path in sorted(DATA_DIR.glob("*.hz"))]


def run_goldens() -> List[GoldenResult]:
    """Run every fixture of the corpus and report."""
    return [run_golden(case) for case in load_cases()]
