"""Classification verdicts and machine-readable reports.

`classify` dispatches on the first-resonance structure of the normal form:
no resonant terms -> first-integral test; one-sided resonance -> multiplier
seeded by x^2+y^2; balanced resonance with a coprime pair -> multiplier
seeded by (x^2+y^2)^2; no admissible pair -> not integrable outright.  With
free parameters in branch-deciding positions the verdict is SYMBOLIC and the
obstruction polynomials are handed back unresolved.
"""

import json
import pathlib
import tempfile

import hopfzero as hz

FAMILY = """\
params a001 c101 c011
dx = -2*y + a001*z
dy = 2*x
dz = x^2 + y^2 + c101*x*z + c011*y*z
"""

field, _ = hz.normalize_principal_part(hz.parse_system(FAMILY).to_field())

# numeric verdicts on three strata
for label, values, n in (
        ("generic point", {"a001": 1, "c011": 1, "c101": 1}, 8),
        ("locked stratum, c101 free", {"a001": 1, "c011": -1, "c101": 2}, 8),
        ("locked stratum, c101 = 0", {"a001": 1, "c011": -1, "c101": 0}, 10)):
    verdict = hz.classify(field.substitute_params(values), n)
    detail = ""
    if verdict.witness_index is not None:
        detail = (f" witness {verdict.witness_method.value} at z^{verdict.witness_index}"
                  f" (degree {verdict.witness_degree}) = {verdict.witness_value}")
    print(f"{label}: {verdict.case_tag.value}{detail}")

# symbolic verdict: both multiplier sequences are reported unresolved
symbolic = hz.classify(field, 3)
print("unbound parameters:", symbolic.case_tag.value,
      [seq.method.value for seq in symbolic.obstructions])

# the same analyses are reachable through the command-line surface
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "family.hz"
    path.write_text(FAMILY, encoding="utf-8")
    code, out = hz.run_cli(["analyze", str(path), "--param", "a001=1",
                            "--param", "c011=-1", "--param", "c101=0",
                            "--max-degree", "10", "--json"])
    report = json.loads(out)
    print("cli exit", code, "->", report["classification"]["case"],
          "up to index", report["classification"]["max_index"])
    code, out = hz.run_cli(["normal-form", str(path), "--max-degree", "1"])
    print("normal-form subcommand:")
    print(out.strip())
