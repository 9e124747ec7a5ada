"""Principal-part normalization, analysis configuration, reports, and the CLI.

A request is checked once per call, by `_request_fault`, which `build_report`
(and through it the CLI) and the regression corpus share.  `build_report`
takes a field as parsed, runs that check, normalizes the principal part and
assembles the report dictionary that `--json` prints (`REPORT_SCHEMA`).  A
sequence mode with a constraint g and an eliminated name p runs in the
quotient ring Q[params]/(g) (`analyzers._entries_only`), which needs g to
pass the coefficient ring's rule (`coeffring._constant_lead`) once the bound
values are substituted; such a sequence reports `reduced_entries`, the true
remainders of the entries, and no `entries`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .analyzers import CaseTag, Classification, Method, _entries_only, classify
from .coeffring import ParamPolynomial, _constant_lead, _read_int, rat
from .errors import HopfZeroError, ParameterError, ParseError, PrincipalPartError
from .gradedpoly import QHPolynomial
from .normalform import (NormalFormResult, first_resonance, orbital_normal_form,
                         planar_reduction, principal_part)
from .parsing import parse_polynomial, parse_system
from .vectorfield import VectorField3


@dataclass(frozen=True)
class Scalings:
    """Exact rescalings applied to bring the principal part to standard form."""

    time_factor: Fraction
    z_factor: Fraction

    def as_dict(self) -> Dict[str, str]:
        return {"time_factor": str(self.time_factor), "z_factor": str(self.z_factor)}


def normalize_principal_part(field: VectorField3) -> Tuple[VectorField3, Scalings]:
    """Rescale time and z so the part of degree at most 0 becomes exactly
    (-2y, 2x, x^2+y^2).

    w is read from minus dx's y coefficient and d from dz's x^2 coefficient;
    both must be nonzero rationals, and every term of field degree at most 0
    must belong to (-w*y, w*x, d*(x^2+y^2)).  Anything else (cross terms,
    linear z feeds, constants, a lone x or y in dz, parameters in the
    principal slice) is rejected with each term outside that shape named,
    since a genuine linear preparation is out of scope.
    """
    params = field.params
    w = -field.fx.coefficient((0, 1, 0))
    d = field.fz.coefficient((2, 0, 0))
    for name, value, slot in (("w", w, "minus the y coefficient of dx"),
                              ("d", d, "the x^2 coefficient of dz")):
        if not (value and value.is_constant()):
            raise PrincipalPartError(
                f"{name}, {slot}, must be a nonzero rational; found {value}")
    w, d = w.constant_value(), d.constant_value()
    f0 = principal_part(params)
    shape = VectorField3(f0.fx.scale(w / 2), f0.fy.scale(w / 2), f0.fz.scale(d))
    outside = field.truncate(0) - shape
    if not outside.is_zero():
        terms = [f"{label}: {QHPolynomial({m: c}, params)}"
                 for label, comp in zip(("dx", "dy", "dz"), outside.components)
                 for m, c in comp.terms.items()]
        raise PrincipalPartError(
            f"terms at or below degree 0 outside (-w*y, w*x, d*(x^2+y^2)) "
            f"with w = {w}, d = {d}: " + "; ".join(terms))

    time_factor = Fraction(2) / w
    z_factor = Fraction(2) * d / w

    def rescale(comp: QHPolynomial, factor: Fraction) -> QHPolynomial:
        return QHPolynomial({m: c.scale(factor * z_factor ** m.ez)
                             for m, c in comp.terms.items()}, params)

    rescaled = VectorField3(rescale(field.fx, time_factor), rescale(field.fy, time_factor),
                            rescale(field.fz, time_factor / z_factor))
    return rescaled, Scalings(time_factor=time_factor, z_factor=z_factor)


# the modes that report one obstruction sequence, the only ones that take a
# constraint, as only the `obstructions` command takes `--constraint`
SEQUENCE_MODES = tuple(method.value for method in Method)
MODES = ("AUTO", *SEQUENCE_MODES, "NORMAL_FORM", "REDUCE")


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings shared by the CLI subcommands."""

    max_index: int = 30
    mode: str = "AUTO"  # one of MODES
    parameter_values: Optional[Dict[str, Fraction]] = None
    constraint: Optional[Tuple[ParamPolynomial, str]] = None


def _request_fault(names: Tuple[str, ...],
                   config: AnalysisConfig) -> Optional[Tuple[str, str]]:
    """The first fault of `config` on a system with these parameter names, as
    (setting, message), or None.  The setting is spelt as a fixture key
    (`mode`, `param NAME`, `constraint`, `eliminate`); the message starts with
    a setting's name, which the CLI spells as its flag.  A constraint must
    pass `coeffring._constant_lead` once the bound values are substituted:
    the sequence runs in the quotient by it."""
    values = config.parameter_values or {}
    constrained = config.constraint is not None
    if config.mode not in MODES:
        return "mode", f"mode names unknown mode {config.mode!r}"
    if constrained and config.mode not in SEQUENCE_MODES:
        return "constraint", f"constraint with mode {config.mode}, which takes none"
    named = [(f"param {name}", name) for name in values]
    named += [("eliminate", config.constraint[1])] if constrained else []
    for key, name in named:
        if name not in names:
            return key, f"{key.split()[0]} names undeclared parameter {name!r}"
    if not constrained:
        return None
    poly, var = _bound_constraint(config)
    try:
        _constant_lead(poly, var)
    except ParameterError as err:
        bound = " once the param values are substituted" if values else ""
        return "eliminate", f"{err}{bound}"
    return None


def _bound_constraint(config: AnalysisConfig) -> Optional[Tuple[ParamPolynomial, str]]:
    """The constraint with the bound values substituted, which the run is modulo."""
    if config.constraint is None:
        return None
    poly, var = config.constraint
    return poly.substitute(config.parameter_values or {}), var


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": "2"},
        "system": {
            "type": "object",
            "properties": {
                "parameters": {"type": "array", "items": {"type": "string"}},
                "bound_values": {"type": "object",
                                 "additionalProperties": {"type": "string"}},
            },
            "additionalProperties": False,
        },
        "scalings_applied": {
            "type": "object",
            "required": ["time_factor", "z_factor"],
            "properties": {"time_factor": {"type": "string"},
                           "z_factor": {"type": "string"}},
            "additionalProperties": False,
        },
        "resonance": {
            "type": "object",
            "required": ["l0", "m0", "n0"],
            "properties": {
                "l0": {"type": ["integer", "string"]},
                "m0": {"type": ["integer", "string"]},
                "n0": {"type": ["integer", "string"]},
                "a_principal": {"type": ["string", "null"]},
                "b_principal": {"type": ["string", "null"]},
            },
            "additionalProperties": False,
        },
        "normal_form": {
            "type": "object",
            "required": ["a", "b"],
            "properties": {
                "a": {"type": "object", "additionalProperties": {"type": "string"}},
                "b": {"type": "object", "additionalProperties": {"type": "string"}},
            },
            "additionalProperties": False,
        },
        "obstructions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["method"],
                # a sequence run modulo a constraint has reduced entries only
                "oneOf": [{"required": ["entries"]}, {"required": ["reduced_entries"]}],
                "properties": {
                    "method": {"enum": list(SEQUENCE_MODES)},
                    "start_index": {"type": "integer"},
                    "entries": {"type": "object",
                                "additionalProperties": {"type": "string"}},
                    "reduced_entries": {"type": "object",
                                        "additionalProperties": {"type": "string"}},
                },
                "additionalProperties": False,
            },
        },
        "planar_reduction": {
            "type": "object",
            "required": ["du", "dv"],
            "properties": {"du": {"type": "string"}, "dv": {"type": "string"}},
            "additionalProperties": False,
        },
        "classification": {
            "type": "object",
            "required": ["case"],
            "properties": {
                "case": {"enum": [tag.value for tag in CaseTag]},
                "max_index": {"type": "integer"},
                "witness_method": {"type": ["string", "null"]},
                "witness_index": {"type": ["integer", "null"]},
                "witness_degree": {"type": ["integer", "null"]},
                "witness_value": {"type": ["string", "null"]},
                "coprime_pair": {"type": ["array", "null"],
                                 "items": {"type": "integer"}},
            },
            "additionalProperties": False,
        },
    },
}


def _index_or_bound(value: Optional[int], max_index: int):
    return value if value is not None else f">={max_index + 1}"


def _resonance_dict(res) -> Dict[str, object]:
    return {
        "l0": _index_or_bound(res.l0, res.max_index),
        "m0": _index_or_bound(res.m0, res.max_index),
        "n0": _index_or_bound(res.n0, res.max_index),
        "a_principal": str(res.principal_a) if res.principal_a is not None else None,
        "b_principal": str(res.principal_b) if res.principal_b is not None else None,
    }


def _normal_form_dict(nf: NormalFormResult) -> Dict[str, object]:
    return {
        "a": {str(k): str(v) for k, v in sorted(nf.a_coeffs.items())},
        "b": {str(k): str(v) for k, v in sorted(nf.b_coeffs.items())},
    }


def _sequence_dict(seq, reduced: bool) -> Dict[str, object]:
    """A sequence as the report holds it: its entries under `reduced_entries`
    for a run in the quotient by a constraint, under `entries` otherwise."""
    return {
        "method": seq.method.value,
        "start_index": seq.start_index,
        "reduced_entries" if reduced else "entries":
            {str(k): str(v) for k, v in sorted(seq.entries.items())},
    }


def _classification_dict(verdict: Classification) -> Dict[str, object]:
    return {
        "case": verdict.case_tag.value,
        "max_index": verdict.max_index,
        "witness_method": verdict.witness_method.value if verdict.witness_method else None,
        "witness_index": verdict.witness_index,
        "witness_degree": verdict.witness_degree,
        "witness_value": str(verdict.witness_value) if verdict.witness_value is not None else None,
        "coprime_pair": list(verdict.coprime_pair) if verdict.coprime_pair else None,
    }


def _render_text(report: Dict[str, object]) -> str:
    sc = report["scalings_applied"]  # in every report
    lines = [f"scalings applied: time * {sc['time_factor']}, z * {sc['z_factor']}"]
    if "resonance" in report:
        r = report["resonance"]
        lines.append(f"resonance: l0 = {r['l0']}, m0 = {r['m0']}, n0 = {r['n0']}")
        if r.get("a_principal"):
            lines.append(f"  leading a: {r['a_principal']}")
        if r.get("b_principal"):
            lines.append(f"  leading b: {r['b_principal']}")
    if "normal_form" in report:
        nf = report["normal_form"]
        for name in ("a", "b"):
            for k, v in nf[name].items():
                lines.append(f"{name}_{k} = {v}")
    for seq in report.get("obstructions", []):
        lines.append(f"obstruction sequence [{seq['method']}]:")
        for k, v in seq.get("entries", {}).items():
            lines.append(f"  z^{k} (quasi-homogeneous degree {2 * int(k)}): {v}")
        for k, v in seq.get("reduced_entries", {}).items():
            lines.append(f"  reduced z^{k}: {v}")
        if not seq.get("entries") and not seq.get("reduced_entries"):
            lines.append(f"  no entries: the sequence starts at z^{seq['start_index']}")
    if "planar_reduction" in report:
        pr = report["planar_reduction"]
        lines.append(f"planar reduction: du = {pr['du']}")
        lines.append(f"                  dv = {pr['dv']}")
    if "classification" in report:
        c = report["classification"]
        text = f"classification: {c['case']}"
        if c["case"] == "NO_OBSTRUCTION_UP_TO":
            text += f"({c['max_index']})"
        if c.get("coprime_pair"):
            text += f", coprime pair {tuple(c['coprime_pair'])}"
        if c.get("witness_index") is not None:
            text += (f", witness {c['witness_method']} entry z^{c['witness_index']}"
                     f" (quasi-homogeneous degree {c['witness_degree']})"
                     f" = {c['witness_value']}")
        lines.append(text)
    return "\n".join(lines) + "\n"


class _RequestFault(ValueError):
    """A request that `_request_fault` refuses, with its message."""


def build_report(field: VectorField3, config: AnalysisConfig) -> Dict[str, object]:
    """Run the configured analysis on a field as parsed and assemble the report.

    A request `_request_fault` refuses raises `_RequestFault` (a ValueError)
    with its message before any analysis.  `normalize_principal_part` then
    brings the principal part to standard form, or raises PrincipalPartError,
    and the report gives its scalings.  The bound values are substituted
    once, into the field and the constraint alike.  Sequences are computed
    for their entries only (`analyzers._entries_only`): the report prints no
    witness; with a constraint one runs in the quotient by it (`reduced_entries`).
    """
    fault = _request_fault(field.params, config)
    if fault:
        raise _RequestFault(fault[1])
    field, scalings = normalize_principal_part(field)
    report: Dict[str, object] = {
        "schema_version": "2",
        "system": {"parameters": list(field.params)},
        "scalings_applied": scalings.as_dict(),
    }
    if config.parameter_values:
        field = field.substitute_params(config.parameter_values)
        report["system"]["bound_values"] = {
            name: str(v) for name, v in sorted(config.parameter_values.items())}
    constraint = _bound_constraint(config)
    mode = config.mode
    n = config.max_index
    if mode == "AUTO":
        verdict = classify(field, n)
        if verdict.resonance is not None:
            report["resonance"] = _resonance_dict(verdict.resonance)
        if verdict.normal_form is not None:
            report["normal_form"] = _normal_form_dict(verdict.normal_form)
        if verdict.obstructions:
            report["obstructions"] = [_sequence_dict(s, False) for s in verdict.obstructions]
        report["classification"] = _classification_dict(verdict)
        return report
    if mode in ("NORMAL_FORM", "REDUCE"):
        nf = orbital_normal_form(field, n)
        if mode == "NORMAL_FORM":
            report["normal_form"] = _normal_form_dict(nf)
        else:
            planar = planar_reduction(nf)
            report["planar_reduction"] = {"du": str(planar.pu), "dv": str(planar.pv)}
        report["resonance"] = _resonance_dict(first_resonance(nf))
    else:
        seq = _entries_only(field, n, Method(mode), constraint)
        report["obstructions"] = [_sequence_dict(seq, constraint is not None)]
    return report


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_param_bindings(pairs: List[str]) -> Dict[str, Fraction]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError(f"--param expects name=p/q, got {pair!r}")
        name, value = pair.split("=", 1)
        name = name.strip()
        if name in out:
            raise _UsageError(f"--param binds {name!r} twice")
        try:
            out[name] = rat(value)
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"invalid rational {value!r} for parameter {name!r}")
    return out


def _int_argument(text: str) -> int:
    try:  # worded as argparse words a refused `int` value
        return _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_cli() -> _CliParser:
    parser = _CliParser(prog="hopfzero",
                        description="Exact integrability analysis of polynomial "
                                    "Hopf-zero vector fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, mode):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(mode=mode)
        p.add_argument("file", help="input system file")
        p.add_argument("--max-degree", type=_int_argument, default=30, dest="max_index",
                       metavar="N", help="largest z-power index analyzed (default 30)")
        p.add_argument("--param", action="append", default=[], metavar="NAME=P/Q",
                       help="bind a parameter to an exact rational (repeatable)")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        return p

    command("analyze", "classify the system", "AUTO")
    command("normal-form", "orbital normal form coefficients", "NORMAL_FORM")
    obs = command("obstructions", "one obstruction sequence", SEQUENCE_MODES[0])
    obs.add_argument("--mode", choices=SEQUENCE_MODES)
    obs.add_argument("--constraint", metavar="EXPR",
                     help="run the sequence modulo this parameter polynomial")
    obs.add_argument("--eliminate", metavar="NAME",
                     help="parameter the constraint eliminates; its leading "
                          "coefficient there must be a constant")
    command("reduce", "print the reduced planar system", "REDUCE")
    return parser


def run_cli(args: List[str]) -> Tuple[int, str]:
    """Run one CLI invocation; returns (exit code, report text).

    Exit codes: 0 success, 1 analysis or input error, 2 usage or syntax error.
    """
    parser = _build_cli()
    try:
        ns = parser.parse_args(args)
        bindings = _parse_param_bindings(ns.param)
    except _UsageError as exc:
        return 2, f"usage error: {exc}\n"
    if ns.max_index < 1:
        return 2, "usage error: --max-degree must be at least 1\n"
    try:
        with open(ns.file, "r", encoding="utf-8") as handle:
            field = parse_system(handle.read()).to_field()
    except ParseError as exc:
        return 2, f"parse error: {exc}\n"
    except (OSError, UnicodeDecodeError) as exc:
        return 1, f"error: cannot read input: {exc}\n"

    constraint = None
    text, var = getattr(ns, "constraint", None), getattr(ns, "eliminate", None)
    if text is not None or var is not None:
        if var is None:
            return 2, "usage error: --constraint requires --eliminate NAME\n"
        if text is None:
            return 2, "usage error: --eliminate requires --constraint EXPR\n"
        try:
            constraint = (parse_polynomial(text, field.params), var)
        except ParseError as exc:
            return 2, f"parse error in --constraint: {exc}\n"
    config = AnalysisConfig(max_index=ns.max_index, mode=ns.mode,
                            parameter_values=bindings, constraint=constraint)
    try:
        report = build_report(field, config)
    except _RequestFault as exc:  # raised before any analysis runs
        return 2, f"usage error: --{exc}\n"
    except HopfZeroError as exc:
        return 1, f"error: {exc}\n"
    if ns.json:
        return 0, json.dumps(report, indent=2, sort_keys=True) + "\n"
    return 0, _render_text(report)


def main() -> None:
    code, text = run_cli(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    sys.exit(code)


if __name__ == "__main__":  # python -m hopfzero.frontend
    sys.exit("error: hopfzero.frontend is not a command; "
             "run `python -m hopfzero` or `hopfzero` instead")
