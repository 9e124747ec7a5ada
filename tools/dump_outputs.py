"""Fingerprint the engine's outputs, so two checkouts can be compared byte for byte.

    PYTHONHASHSEED=0 python3 tools/dump_outputs.py [DUMP_FILE]

Runs, from the checkout's `src/`:
- for every golden fixture, the field `parse_system` reads from its text,
  the text `to_text` prints back, and the `--json` report through `run_cli`;
- the family-37 `orbital_normal_form`, symbolic at index 4, at the
  benchmark's `seed_point(1..3)` at index 5, at `seed_point(1)` at
  index 8, which covers the degree solves up to s = 16, and at the
  non-integer point (1/3, -5/2, 7/4) at index 6, whose constant
  coefficients have denominators above 1;
- the `planar_reduction` of the symbolic family-37 normal form at index 3,
  whose `Poly2` components print multi-term parameter coefficients;
- the normal form `classify` reports, for family 37 at `seed_point(1)` with
  max_index 8 (first resonant index 1) and for a field whose first resonant
  index is 5 with max_index 7; its field is written truncated at degree
  2*max_index, the extent `NormalFormResult` documents;
- the symbolic JACOBI_H2, JACOBI_H and FIRST_INTEGRAL sequences of family 37
  to z^10, entries and witness;
- the symbolic JACOBI_H2 sequence of family 37 to z^12, entries and witness,
  whose slice solves reach degree 24 with many-term coefficients;
- the JACOBI_H2 and FIRST_INTEGRAL sequences of family 37 at the non-integer
  point (1/3, -5/2, 7/4) to z^12, whose constant coefficients have
  denominators above 1;
- the symbolic JACOBI_H2 continuation of family 37 seeded by (x^2+y^2)^3
  (`seed_power=3`) to z^10;
- the `--json` report through `run_cli` of `analyze` on family 37 with every
  parameter free at `--max-degree 12`, whose verdict is SYMBOLIC (no golden
  fixture reaches that path);
- `analyze_operator(k)` for k = 0..24: degree, kernel basis and cokernel
  representative.

Each polynomial is written as its `str`, its terms in stored order (with each
coefficient's terms) and its `hash`.  The script prints one SHA-256 line over
all of it; with DUMP_FILE it also writes the dump there, for a diff.
"""

import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import hopfzero as hz  # noqa: E402
from hopfzero.analyzers import _obstruction_driver  # noqa: E402
from hzbench.checks import cli_args  # noqa: E402
from hzbench.workloads import FAMILY37, family37_field, seed_point  # noqa: E402


def describe(value) -> str:
    if value is None:  # hash(None) is its address, which varies from run to run
        return "None"
    if isinstance(value, hz.ParamPolynomial):
        return f"{value} | {list(value.terms.items())!r} | {hash(value)}"
    if isinstance(value, (hz.QHPolynomial, hz.Poly2)):
        items = tuple(value.terms.items())
        order = [(tuple(m), list(c.terms.items())) for m, c in items]
        return f"{value} | {order!r} | {hash(items)}"
    if isinstance(value, hz.VectorField3):
        return " ; ".join(describe(c) for c in value.components)
    return f"{value} | {hash(value)}"


RESONANT_AT_5 = """\
dx = -2*y + x*z^5 + y^2
dy = 2*x + y*z^5 + x^2*y
dz = x^2 + y^2 + y^3
"""


def normal_form_lines(label, nf):
    for k in sorted(nf.a_coeffs):
        yield f"{label} a_{k}: {describe(nf.a_coeffs[k])}"
        yield f"{label} b_{k}: {describe(nf.b_coeffs[k])}"
    for step in nf.generators:
        yield f"{label} step {step.degree} generator: {describe(step.generator)}"
        yield f"{label} step {step.degree} reparam: {describe(step.reparam)}"
    yield f"{label} field: {describe(nf.field.truncate(2 * nf.max_index))}"


def dump_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for case in hz.load_cases():
            source = hz.parse_system(case.system_text)
            yield f"golden {case.name} parsed: {describe(source.to_field())}"
            yield f"golden {case.name} to_text: {describe(source.to_text())}"
            path = pathlib.Path(tmp) / f"{case.name}.hz"
            path.write_text(case.system_text, encoding="utf-8")
            code, text = hz.run_cli(cli_args(case, str(path)))
            yield f"golden {case.name} exit {code}: {describe(text)}"

    symbolic = family37_field(hz)
    runs = [("symbolic", symbolic, 4)]
    runs += [(f"seed_point({seed})", symbolic.substitute_params(seed_point(seed)), 5)
             for seed in (1, 2, 3)]
    runs.append(("seed_point(1) index 8", symbolic.substitute_params(seed_point(1)), 8))
    rational = symbolic.substitute_params(
        {"a001": hz.rat("1/3"), "b200": hz.rat("-5/2"), "c030": hz.rat("7/4")})
    runs.append(("(1/3, -5/2, 7/4) index 6", rational, 6))
    for label, field, index in runs:
        yield from normal_form_lines(f"nf {label}", hz.orbital_normal_form(field, index))

    planar = hz.planar_reduction(hz.orbital_normal_form(symbolic, 3))
    yield f"planar symbolic index 3 du: {describe(planar.pu)}"
    yield f"planar symbolic index 3 dv: {describe(planar.pv)}"

    resonant_at_5, _ = hz.normalize_principal_part(
        hz.parse_system(RESONANT_AT_5).to_field())
    for label, field, index in [
            ("seed_point(1)", symbolic.substitute_params(seed_point(1)), 8),
            ("resonant at 5", resonant_at_5, 7)]:
        nf = hz.classify(field, index).normal_form
        yield f"classify {label} max_index: {nf.max_index}"
        yield from normal_form_lines(f"classify {label}", nf)

    sequences = [(symbolic, method, 10, "", None) for method in
                 (hz.Method.JACOBI_H2, hz.Method.JACOBI_H, hz.Method.FIRST_INTEGRAL)]
    sequences.append((symbolic, hz.Method.JACOBI_H2, 12, " to z^12", None))
    sequences += [(rational, method, 12, " at (1/3, -5/2, 7/4) to z^12", None)
                  for method in (hz.Method.JACOBI_H2, hz.Method.FIRST_INTEGRAL)]
    sequences.append((symbolic, hz.Method.JACOBI_H2, 10, " seed_power=3", 3))
    for field, method, index, label, seed_power in sequences:
        seq = _obstruction_driver(field, index, method, seed_power=seed_power)
        for k in sorted(seq.entries):
            yield f"{method.value}{label} entry {k}: {describe(seq.entries[k])}"
        yield f"{method.value}{label} witness: {describe(seq.witness)}"

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "family37.hz"
        path.write_text(FAMILY37, encoding="utf-8")
        code, text = hz.run_cli(["analyze", str(path), "--max-degree", "12", "--json"])
        yield f"analyze symbolic family 37 --max-degree 12 exit {code}: {describe(text)}"

    for k in range(25):
        analysis = hz.analyze_operator(k)
        yield f"analyze_operator {k} degree: {analysis.degree}"
        for i, kernel in enumerate(analysis.kernel_basis):
            yield f"analyze_operator {k} kernel {i}: {describe(kernel)}"
        yield f"analyze_operator {k} cokernel: {describe(analysis.cokernel_representative)}"


def main(argv) -> int:
    text = "".join(line + "\n" for line in dump_lines())
    if argv:
        pathlib.Path(argv[0]).write_text(text, encoding="utf-8")
    print("sha256", hashlib.sha256(text.encode("utf-8")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
