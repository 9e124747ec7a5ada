"""Correctness checks of each workload's outputs, run outside the timed region.

They test properties the method must have, or compare with results computed
apart from the timed run; none of them holds a copy of today's output.  Each
returns a list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import json
from typing import List


def check_h2(hz, field, seq, max_index: int, point) -> List[str]:
    """The Jacobi-H2 sequence satisfies its defining identity through degree
    2*max_index, and substituting `point` into each entry gives the entry of
    a run on the field specialised at `point`."""
    failures = []
    indices = list(range(3, max_index + 1))
    if sorted(seq.entries) != indices:
        failures.append(f"entries cover {sorted(seq.entries)}, expected {indices}")
    defect = hz.recombination_defect(field, seq)
    if not defect.is_zero():
        failures.append(f"recombination_defect is nonzero in degrees {defect.degrees()}")
    numeric = hz.jacobi_obstructions(field.substitute_params(point), max_index,
                                     hz.Method.JACOBI_H2)
    for k in indices:
        if k in seq.entries and seq.entries[k].substitute(point) != numeric.entries[k]:
            failures.append(f"entry {k} at {point} is {seq.entries[k].substitute(point)}, "
                            f"a run at that point gives {numeric.entries[k]}")
    return failures


def check_nf(hz, symbolic_field, nf, max_index: int, point) -> List[str]:
    """The transformed field is the normal form of its own coefficients
    through degree 2*max_index, and a_1, a_2, b_1, b_2 equal those of a
    symbolic index-2 run with `point` substituted."""
    failures = []
    indices = list(range(1, max_index + 1))
    if sorted(nf.a_coeffs) != indices or sorted(nf.b_coeffs) != indices:
        failures.append(f"coefficients cover {sorted(nf.a_coeffs)} and "
                        f"{sorted(nf.b_coeffs)}, expected {indices}")
    depth = 2 * max_index
    if nf.field.truncate(depth) != hz.normal_form_field(nf).truncate(depth):
        failures.append("transformed field differs from normal_form_field of its "
                        "coefficients")
    low = hz.orbital_normal_form(symbolic_field, 2)
    for name, got, want in (("a", nf.a_coeffs, low.a_coeffs),
                            ("b", nf.b_coeffs, low.b_coeffs)):
        for k in (1, 2):
            if got.get(k) != want[k].substitute(point):
                failures.append(f"{name}_{k} is {got.get(k)}, the symbolic run at "
                                f"{point} gives {want[k].substitute(point)}")
    return failures


def cli_args(case, path: str) -> List[str]:
    """The `hopfzero` command line that runs a golden fixture's analysis."""
    command = {"AUTO": ["analyze"], "NORMAL_FORM": ["normal-form"],
               "REDUCE": ["reduce"]}.get(case.mode, ["obstructions", "--mode", case.mode])
    args = command + [path, "--max-degree", str(case.max_index), "--json"]
    for name, value in sorted(case.bindings.items()):
        args += ["--param", f"{name}={value}"]
    if case.constraint:
        args += ["--constraint", case.constraint, "--eliminate", case.eliminate]
    return args


def check_report(hz, case, text: str) -> List[str]:
    """The JSON report validates against REPORT_SCHEMA and meets every
    expectation of the golden fixture `case`."""
    import jsonschema  # imported here so that it stays out of the timed set-up

    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    failures = [f"schema: {error.message}" for error in
                jsonschema.Draft7Validator(hz.REPORT_SCHEMA).iter_errors(report)]
    for expectation in case.expectations:
        try:
            failure = _unmet(hz, case, report, expectation)
        except (KeyError, IndexError, TypeError) as exc:
            failure = f"{expectation[0]}: report lacks {exc}"
        if failure:
            failures.append(failure)
    return failures


def _unmet(hz, case, report, expectation):
    """Message for one fixture expectation the report misses, else None."""
    kind = expectation[0]
    params = report["system"]["parameters"]

    def poly(text):
        return hz.parse_polynomial(text, params)

    if kind in ("zero_entries", "entry", "zero_reduced", "reduced"):
        sequences = report["obstructions"]
        if len(sequences) != 1:
            return f"{kind}: expected one obstruction sequence, got {len(sequences)}"
        seq = sequences[0]
        if kind == "zero_entries":
            bad = [k for k in expectation[1] if poly(seq["entries"][str(k)])]
            return f"entries {bad} are nonzero" if bad else None
        if kind == "zero_reduced":
            bad = [k for k in expectation[1] if poly(seq["reduced_entries"][str(k)])]
            return f"reduced entries {bad} are nonzero" if bad else None
        _, k, text = expectation
        got = poly(seq["entries"][str(k)])
        if kind == "entry":
            return None if got == poly(text) else f"entry {k} is {got}, expected {text}"
        same = hz.congruent_mod(got, poly(text), poly(case.constraint), case.eliminate)
        return None if same else f"entry {k} is not {text} modulo the constraint"
    if kind == "coeff":
        _, which, k, text = expectation
        got = poly(report["normal_form"][which][str(k)])
        return None if got == poly(text) else f"{which}_{k} is {got}, expected {text}"
    if kind == "resonance":
        _, which, text = expectation
        got = str(report["resonance"][which])
        return None if got == text else f"{which} is {got}, expected {text}"
    if kind == "planar":
        _, which, text = expectation
        got = report["planar_reduction"][which]
        return None if got == text else f"{which} is {got!r}, expected {text!r}"
    verdict = report["classification"]
    if kind == "case":
        got, want = verdict["case"], expectation[1]
    elif kind in ("witness_method", "witness_index"):
        got, want = verdict[kind], expectation[1]
    elif kind == "coprime_pair":
        pair = verdict["coprime_pair"]
        got, want = (tuple(pair) if pair is not None else None), expectation[1]
    else:
        return f"unknown expectation {kind!r}"
    return None if got == want else f"{kind} is {got}, expected {want}"
