"""The benchmark's workloads: their inputs, operations and correctness checks.

A workload's `setup(hz, seed, out_dir)` makes its inputs from the seed;
`operations(hz, inputs)` lists the (label, call) pairs of one pass, each of
which returns its result or raises; `check(hz, inputs, results)` takes the
results of the first pass, keyed by label, and returns failure messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict

from . import checks

# family 37: z feed in dx, quadratic in dy, cubic in dz
FAMILY37 = """\
params a001 b200 c030
dx = -2*y + a001*z
dy = 2*x + b200*x^2
dz = x^2 + y^2 + c030*y^3
"""
PARAMS = ("a001", "b200", "c030")
# a pass takes about 4 s at these depths, so a run's median has several samples
H2_INDEX = 10
NF_INDEX = 5


class OperationFailed(Exception):
    """An operation ended without a usable result."""


def seed_point(seed: int) -> Dict[str, Fraction]:
    """A point with every parameter a nonzero integer in -5..5, drawn from
    the seed.  No parameter is 0, since a zero drops terms and so work; over
    such points the index-5 normal form costs the same within a few per cent."""
    rng = random.Random(seed)
    return {name: Fraction(rng.choice((1, -1)) * rng.randint(1, 5)) for name in PARAMS}


def family37_field(hz):
    """Family 37, parsed and brought to the standard principal part."""
    source = hz.parse_system(FAMILY37)
    field, _ = hz.normalize_principal_part(source.to_field())
    return field


# -- h2-symbolic -----------------------------------------------------------

def _h2_setup(hz, seed, out_dir):
    return {"field": family37_field(hz), "point": seed_point(seed)}


def _h2_operations(hz, inputs):
    return [("jacobi_h2", lambda: hz.jacobi_obstructions(
        inputs["field"], H2_INDEX, hz.Method.JACOBI_H2))]


def _h2_check(hz, inputs, results):
    return checks.check_h2(hz, inputs["field"], results["jacobi_h2"], H2_INDEX,
                           inputs["point"])


# -- nf-numeric ------------------------------------------------------------

def _nf_setup(hz, seed, out_dir):
    symbolic = family37_field(hz)
    point = seed_point(seed)
    return {"symbolic": symbolic, "point": point,
            "field": symbolic.substitute_params(point)}


def _nf_operations(hz, inputs):
    return [("normal_form", lambda: hz.orbital_normal_form(inputs["field"], NF_INDEX))]


def _nf_check(hz, inputs, results):
    return checks.check_nf(hz, inputs["symbolic"], results["normal_form"], NF_INDEX,
                           inputs["point"])


# -- cli-corpus ------------------------------------------------------------

def _cli_setup(hz, seed, out_dir):
    """Write each golden fixture's system to its own file, in a seeded order."""
    input_dir = out_dir / "inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    cases = hz.goldens.load_cases()
    random.Random(seed).shuffle(cases)
    fixtures = []
    for case in cases:
        path = input_dir / f"{case.name}.hz"
        path.write_text(case.system_text, encoding="utf-8")
        # a fixture the engine cannot read fails here, before any timing
        hz.normalize_principal_part(hz.parse_system(case.system_text).to_field())
        fixtures.append((case, checks.cli_args(case, str(path))))
    return {"fixtures": fixtures}


def _run_cli(hz, args):
    code, text = hz.run_cli(args)
    if code != 0:
        raise OperationFailed(f"exit code {code}: {text.strip()}")
    return text


def _cli_operations(hz, inputs):
    return [(case.name, lambda args=args: _run_cli(hz, args))
            for case, args in inputs["fixtures"]]


def _cli_check(hz, inputs, results):
    failures = []
    for case, _ in inputs["fixtures"]:
        if case.name in results:
            failures += [f"{case.name}: {f}"
                         for f in checks.check_report(hz, case, results[case.name])]
    return failures


@dataclass(frozen=True)
class Workload:
    setup: Callable
    operations: Callable
    check: Callable


WORKLOADS = {
    "h2-symbolic": Workload(_h2_setup, _h2_operations, _h2_check),
    "nf-numeric": Workload(_nf_setup, _nf_operations, _nf_check),
    "cli-corpus": Workload(_cli_setup, _cli_operations, _cli_check),
}
