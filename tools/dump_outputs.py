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
- the `lie_bracket` of family 37 at `seed_point(1)` with the symbolic
  family 37, both ways round, and the steps of the symbolic normal form at
  index 3 applied one after another by `apply_generator_step` to family 37
  at `seed_point(1)` at field degree 6: kernel calls that mix operands of
  constant coefficients with symbolic ones;
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
- the edges of the degree loop, entries and witness: the symbolic JACOBI_H2
  sequence of family 37 to z^2, which continues no degree, and its
  continuation seeded by (x^2+y^2)^3 to z^3, which continues none either;
- the symbolic `orbital_normal_form` at index 4 and the symbolic JACOBI_H2
  sequence to z^8, entries and witness, of three fields the corpus lacks:
  family 38 with a fourth parameter on z^2 in dz (`FAMILY38_Z2`), family 37
  with its z feed raised to the parameter power 2^20 + 1
  (`HIGH_POWER_FAMILY37`), and family 37 with two-item coefficients on its
  one-term components (`TWO_ITEM_FAMILY37`), so that a field term, the `b`
  of the continuation's derivative pairs, holds more than one item;
- the `--json` report through `run_cli` of `analyze` on family 37 with every
  parameter free at `--max-degree 12`, whose verdict is SYMBOLIC (no golden
  fixture reaches that path);
- two constrained `obstructions --mode JACOBI_H2 --json` reports through
  `run_cli` on family 37, with the corpus constraint: eliminating `a001` at
  `--max-degree 16`, and with `--param a001=1` eliminating `b200` at
  `--max-degree 7`;
- the `--json` reports through `run_cli` of family 37 written with w = 4 and
  d = 3 (`RESCALED_FAMILY37`), so that the normalization applies factors
  other than 1 end to end: `analyze` at (1, 2, 3) and the symbolic
  `obstructions --mode JACOBI_H2`, both at `--max-degree 8`;
- `analyze_operator(k)` for k = 0..24: degree, kernel basis and cokernel
  representative.
- the `ParseError` message, line and column (or the polynomial, for the few
  that parse) of a fixed list of malformed expressions through
  `parse_polynomial`, systems through `parse_system` and expect lines
  through `parse_fixture`, covering the errors of the tokenizer, the
  expression parser, the system grammar and the expect block.

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


# the constraint of the corpus fixture family37_h2_reduced
CORPUS_CONSTRAINT = "18*a001^2 - 18*a001*b200 + 5*b200^2"

# family 37 before normalization: time scales by 1/2 and z by 3/2
RESCALED_FAMILY37 = """\
params a001 b200 c030
dx = -4*y + a001*z
dy = 4*x + b200*x^2
dz = 3*x^2 + 3*y^2 + c030*y^3
"""

# family 38 with a fourth parameter, c002, on z^2 in dz
FAMILY38_Z2 = """\
params a001 c101 c011 c002
dx = -2*y + a001*z
dy = 2*x
dz = x^2 + y^2 + c101*x*z + c011*y*z + c002*z^2
"""

# family 37 with a parameter exponent above 2^20
HIGH_POWER_FAMILY37 = """\
params a001 b200 c030
dx = -2*y + a001^1048577*z
dy = 2*x + b200*x^2
dz = x^2 + y^2 + c030*y^3
"""

# family 37 with two parameter monomials on the z term of dx and the x^2 term of dy
TWO_ITEM_FAMILY37 = """\
params a001 b200 c030
dx = -2*y + (a001 + c030)*z
dy = 2*x + (b200 - a001)*x^2
dz = x^2 + y^2 + c030*y^3
"""

RESONANT_AT_5 = """\
dx = -2*y + x*z^5 + y^2
dy = 2*x + y*z^5 + x^2*y
dz = x^2 + y^2 + y^3
"""


# expressions over the parameters a and b001
MALFORMED_EXPRESSIONS = [
    "", "   ", "\t# only a comment", "a +", "a * * b001", "(a + 1", "a + 1)", "(a + 1 b001", "()",
    "a $ 2", "2 a", "a b001", "a ^ -1", "a ^ b001", "a ^ (2)", "a^", "a / b001",
    "a / (2)", "a / 0", "a /", "x + a", "a*z^2", "q", "b0011", "a\t+\t1 @",
    "  a  +  b001 # comment", "12345678901234567890*a^3 - 7/3", "a!", "a;b001",
    "a + 1\n", "a\u00a0+ 1", "\u03b1", "_", "-+-a", "((a))^3/4^2",
]

# the three equations of F0 with `params a`, each malformed in one way
MALFORMED_SYSTEMS = [
    "params a\nparams b\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "dx = -2*y\nparams a\ndy = 2*x\ndz = x^2 + y^2\n",
    "params\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "params z\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "params 1a\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "params a-b\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "params a a\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "dx -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "dx dy = -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "dx = -2*y\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n",
    "dx =   # nothing\ndy = 2*x\ndz = x^2 + y^2\n",
    "dx = -2*y\ndw = 2*x\ndz = x^2 + y^2\n",
    "dx = -2*y\ndz = x^2 + y^2\n",
    "params a\n  dx\t= -2*y + a*z &\ndy = 2*x\ndz = x^2 + y^2\n",
    "params a\ndx = -2*y\ndy = 2*x + q*y\ndz = x^2 + y^2\n",
    "params a\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2 + (a*z\n",
    "params a\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2 + z^\n",
]

# expect lines of a fixture of F0 with `params a`, whose expect lines start at line 6
FIXTURE_SYSTEM = "params a\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n"
MALFORMED_EXPECT_LINES = [
    "bogus line here", "bogus = 1", "zero = 3", "zero foo = 3", "entry = 0", "a = 1",
    "max_index = seven", "max_index = 0", "zero entries = 3 x", "zero entries =",
    "entry 3 = 1/0", "entry 3 = a +", "entry 3 = q", "entry 3 = x", "a 1 = 2 $ 3",
    "param q = 1", "param a = 1/0", "origin = literatur", "coprime_pair = 1",
    "mode = JACOBI_H3", "mode = AUTO\n  mode = AUTO", "zero reduced = 3",
    "constraint = a", "eliminate = a", "constraint = a +\n  eliminate = a",
    "constraint = a\n  eliminate = q\n  mode = JACOBI_H2",
    "constraint = 2\n  eliminate = a\n  mode = JACOBI_H2",
    "constraint = a\n  eliminate = a\n  mode = NORMAL_FORM",
]


def parse_outcome(parse, text) -> str:
    """The ParseError of `parse(text)`, or what it returns."""
    try:
        value = parse(text)
        return describe(value.to_field() if isinstance(value, hz.SystemSource) else value)
    except hz.ParseError as exc:
        return f"ParseError {exc.message!r} line {exc.line} column {exc.column}"


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

    symbolic_nf = hz.orbital_normal_form(symbolic, 3)
    planar = hz.planar_reduction(symbolic_nf)
    yield f"planar symbolic index 3 du: {describe(planar.pu)}"
    yield f"planar symbolic index 3 dv: {describe(planar.pv)}"

    bound = symbolic.substitute_params(seed_point(1))
    yield f"bracket [bound, symbolic]: {describe(hz.lie_bracket(bound, symbolic))}"
    yield f"bracket [symbolic, bound]: {describe(hz.lie_bracket(symbolic, bound))}"
    stepped = bound
    for step in symbolic_nf.generators:
        stepped = hz.apply_generator_step(stepped, step, 6)
        yield f"symbolic step {step.degree} on bound degree 6: {describe(stepped)}"

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
    sequences += [(symbolic, hz.Method.JACOBI_H2, 2, " to z^2", None),
                  (symbolic, hz.Method.JACOBI_H2, 3, " seed_power=3 to z^3", 3)]
    for field, method, index, label, seed_power in sequences:
        seq = _obstruction_driver(field, index, method, seed_power=seed_power)
        for k in sorted(seq.entries):
            yield f"{method.value}{label} entry {k}: {describe(seq.entries[k])}"
        yield f"{method.value}{label} witness: {describe(seq.witness)}"

    for label, text in (("family 38 + c002*z^2", FAMILY38_Z2),
                        ("family 37 a001^1048577", HIGH_POWER_FAMILY37),
                        ("two-item family 37", TWO_ITEM_FAMILY37)):
        field, _ = hz.normalize_principal_part(hz.parse_system(text).to_field())
        yield from normal_form_lines(f"nf {label}", hz.orbital_normal_form(field, 4))
        seq = _obstruction_driver(field, 8, hz.Method.JACOBI_H2)
        for k in sorted(seq.entries):
            yield f"JACOBI_H2 {label} entry {k}: {describe(seq.entries[k])}"
        yield f"JACOBI_H2 {label} witness: {describe(seq.witness)}"

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "family37.hz"
        path.write_text(FAMILY37, encoding="utf-8")
        code, text = hz.run_cli(["analyze", str(path), "--max-degree", "12", "--json"])
        yield f"analyze symbolic family 37 --max-degree 12 exit {code}: {describe(text)}"
        for request in (["--max-degree", "16", "--eliminate", "a001"],
                        ["--max-degree", "7", "--param", "a001=1", "--eliminate", "b200"]):
            code, text = hz.run_cli(["obstructions", str(path), "--mode", "JACOBI_H2",
                                     "--constraint", CORPUS_CONSTRAINT, *request, "--json"])
            yield f"obstructions JACOBI_H2 {' '.join(request)} exit {code}: {describe(text)}"
        path.write_text(RESCALED_FAMILY37, encoding="utf-8")
        for request in (["analyze", "--param", "a001=1", "--param", "b200=2",
                         "--param", "c030=3"], ["obstructions", "--mode", "JACOBI_H2"]):
            code, text = hz.run_cli([request[0], str(path), *request[1:],
                                     "--max-degree", "8", "--json"])
            yield f"rescaled family 37 {' '.join(request)} exit {code}: {describe(text)}"

    for k in range(25):
        analysis = hz.analyze_operator(k)
        yield f"analyze_operator {k} degree: {analysis.degree}"
        for i, kernel in enumerate(analysis.kernel_basis):
            yield f"analyze_operator {k} kernel {i}: {describe(kernel)}"
        yield f"analyze_operator {k} cokernel: {describe(analysis.cokernel_representative)}"

    for text in MALFORMED_EXPRESSIONS:
        outcome = parse_outcome(lambda t: hz.parse_polynomial(t, ("a", "b001")), text)
        yield f"parse_polynomial {text!r}: {outcome}"
    for text in MALFORMED_SYSTEMS:
        yield f"parse_system {text!r}: {parse_outcome(hz.parse_system, text)}"
    fixtures = [(repr(line), f"{FIXTURE_SYSTEM}expect {{\n  {line}\n}}\n")
                for line in MALFORMED_EXPECT_LINES]
    fixtures += [("no expect block", FIXTURE_SYSTEM),
                 ("unterminated", f"{FIXTURE_SYSTEM}expect {{\n  case = B1\n"),
                 ("bad system", "params a\ndx = -2*y $\nexpect {\n  entry 3 = a\n}\n")]
    for label, text in fixtures:
        outcome = parse_outcome(lambda t: hz.parse_fixture(t, "f").expectations, text)
        yield f"parse_fixture {label}: {outcome}"

def main(argv) -> int:
    text = "".join(line + "\n" for line in dump_lines())
    if argv:
        pathlib.Path(argv[0]).write_text(text, encoding="utf-8")
    print("sha256", hashlib.sha256(text.encode("utf-8")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
