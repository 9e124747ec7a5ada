import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

import hopfzero as hz
from hopfzero import PrincipalPartError

from conftest import FAMILY37, FAMILY38


class TestNormalizePrincipalPart:
    def test_identity_scalings(self):
        field = hz.parse_system("dx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n").to_field()
        normalized, scalings = hz.normalize_principal_part(field)
        assert normalized == field
        assert scalings.time_factor == 1 and scalings.z_factor == 1

    def test_unit_rotation_rescaled(self):
        field = hz.parse_system("dx = -y\ndy = x\ndz = x^2 + y^2\n").to_field()
        normalized, scalings = hz.normalize_principal_part(field)
        assert scalings.time_factor == 2
        assert scalings.z_factor == 2
        assert normalized.component(0) == hz.principal_part(())

    def test_random_admissible_scalings(self, rng):
        for _ in range(8):
            omega = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            delta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            if rng.random() < 0.5:
                omega = -omega
            text = (f"params a\n"
                    f"dx = {-omega}*y + a*z\n"
                    f"dy = {omega}*x\n"
                    f"dz = {delta}*x^2 + {delta}*y^2 + a*x*z\n")
            field = hz.parse_system(text).to_field()
            normalized, _ = hz.normalize_principal_part(field)
            assert normalized.component(0) == hz.principal_part(("a",))

    def test_scaling_propagates_to_higher_terms(self):
        # dz feed z term picks up the z rescaling exactly
        field = hz.parse_system("params a\ndx = -y + a*z\ndy = x\ndz = x^2 + y^2\n").to_field()
        normalized, scalings = hz.normalize_principal_part(field)
        a = hz.ParamPolynomial.variable("a", ("a",))
        # dx coefficient of z becomes time_factor * z_factor * a = 4a
        assert normalized.fx.coefficient((0, 0, 1)) == a.scale(4)

    def test_cross_term_rejected(self):
        field = hz.parse_system("dx = -2*y\ndy = 2*x\ndz = x^2 + 2*x*y + y^2\n").to_field()
        with pytest.raises(PrincipalPartError) as err:
            hz.normalize_principal_part(field)
        assert "x*y" in str(err.value)

    def test_unbalanced_quadratic_rejected(self):
        field = hz.parse_system("dx = -2*y\ndy = 2*x\ndz = x^2 + 3*y^2\n").to_field()
        with pytest.raises(PrincipalPartError):
            hz.normalize_principal_part(field)

    def test_degenerate_z_dynamics_rejected(self):
        field = hz.parse_system("dx = -2*y\ndy = 2*x\ndz = z\n").to_field()
        with pytest.raises(PrincipalPartError):
            hz.normalize_principal_part(field)

    def test_diagonal_linear_part_rejected(self):
        field = hz.parse_system("dx = -2*y + x\ndy = 2*x\ndz = x^2 + y^2\n").to_field()
        with pytest.raises(PrincipalPartError) as err:
            hz.normalize_principal_part(field)
        assert "dx" in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("params a\ndx = -a*y\ndy = a*x\ndz = x^2 + y^2\n",
         "w, minus the y coefficient of dx, must be a nonzero rational; found a"),
        ("dx = x\ndy = 2*x\ndz = x^2 + y^2\n",
         "w, minus the y coefficient of dx, must be a nonzero rational; found 0"),
        ("dx = -2*y\ndy = 2*x\ndz = y^2\n",
         "d, the x^2 coefficient of dz, must be a nonzero rational; found 0"),
    ], ids=["parameter-w", "zero-w", "zero-d"])
    def test_shape_parameter_is_named(self, text, message):
        with pytest.raises(PrincipalPartError) as err:
            hz.normalize_principal_part(hz.parse_system(text).to_field())
        assert str(err.value) == message

    def test_every_term_outside_the_shape_is_named(self):
        field = hz.parse_system("dx = -y + x\ndy = 2*x\ndz = 2*x^2 + y^2 + 5\n").to_field()
        with pytest.raises(PrincipalPartError) as err:
            hz.normalize_principal_part(field)
        assert str(err.value) == (
            "terms at or below degree 0 outside (-w*y, w*x, d*(x^2+y^2)) "
            "with w = 1, d = 2: dx: x; dy: x; dz: 5; dz: -y^2")


# fields with a term below degree 0, and the term the rejection names
BELOW_DEGREE_0 = [
    ("dx = 1 - 2*y\ndy = 2*x\ndz = x^2 + y^2\n", "dx: 1"),
    ("dx = -2*y\ndy = 2*x\ndz = x + x^2 + y^2\n", "dz: x"),
    ("dx = -2*y\ndy = 2*x\ndz = 3 + x^2 + y^2\n", "dz: 3"),
]


@pytest.mark.parametrize("text, term", BELOW_DEGREE_0, ids=["dx-constant", "dz-linear",
                                                            "dz-constant"])
def test_term_below_degree_0_is_exit_one(tmp_path, text, term):
    path = tmp_path / "low.hz"
    path.write_text(text, encoding="utf-8")
    code, out = hz.run_cli(["analyze", str(path), "--max-degree", "4"])
    assert code == 1
    assert out == ("error: terms at or below degree 0 outside (-w*y, w*x, d*(x^2+y^2)) "
                   f"with w = 2, d = 1: {term}\n")


def test_a_state_exponent_of_10_9_is_truncated(tmp_path):
    # the kernel keeps no table as long as a slice's degree: terms of degree
    # 10^9 parse in a few one-term products and fall above the working degree
    reports = []
    for n in (10 ** 9, 1000):
        path = tmp_path / f"high{n}.hz"
        path.write_text(f"dx = -2*y + x^{n}*y\ndy = 2*x + z^{n}\n"
                        f"dz = x^2 + y^2 + z^2 + x^{n - 1}*y^3\n", encoding="utf-8")
        reports.append(hz.run_cli(["analyze", str(path)]))
    assert reports[0] == reports[1]
    code, out = reports[0]
    assert code == 0 and out.endswith("classification: NO_OBSTRUCTION_UP_TO(30)\n")
    source = hz.parse_system((tmp_path / "high1000000000.hz").read_text(encoding="utf-8"))
    assert source.components[1] == hz.QHPolynomial(
        {(1, 0, 0): 2, (0, 0, 10 ** 9): 1}, ())


@pytest.fixture
def family37_file(tmp_path):
    path = tmp_path / "family37.hz"
    path.write_text(FAMILY37, encoding="utf-8")
    return str(path)


@pytest.fixture
def family38_file(tmp_path):
    path = tmp_path / "family38.hz"
    path.write_text(FAMILY38, encoding="utf-8")
    return str(path)


class TestCli:
    def test_analyze_integrable_point_json(self, family37_file):
        code, out = hz.run_cli([
            "analyze", family37_file, "--param", "a001=0", "--param", "b200=1",
            "--param", "c030=0", "--max-degree", "6", "--json"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, hz.REPORT_SCHEMA)
        assert report["classification"]["case"] == "NO_OBSTRUCTION_UP_TO"
        assert report["classification"]["max_index"] == 6

    def test_analyze_not_integrable_point(self, family37_file):
        code, out = hz.run_cli([
            "analyze", family37_file, "--param", "a001=1", "--param", "b200=0",
            "--param", "c030=0", "--max-degree", "8", "--json"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, hz.REPORT_SCHEMA)
        c = report["classification"]
        assert c["case"] == "NOT_INTEGRABLE"
        assert c["witness_method"] == "JACOBI_H2"
        assert c["witness_index"] == 7
        assert c["witness_degree"] == 14

    def test_normal_form_text(self, family38_file):
        code, out = hz.run_cli(["normal-form", family38_file, "--max-degree", "2"])
        assert code == 0
        assert "a_1 = " in out and "b_1 = " in out
        assert "a001" in out and "c011" in out

    def test_normal_form_json_strings_reparse(self, family38_file):
        code, out = hz.run_cli(["normal-form", family38_file, "--max-degree", "1",
                                "--json"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, hz.REPORT_SCHEMA)
        params = ("a001", "c101", "c011")
        a1 = hz.parse_polynomial(report["normal_form"]["a"]["1"], params)
        a001 = hz.ParamPolynomial.variable("a001", params)
        c011 = hz.ParamPolynomial.variable("c011", params)
        assert a1 == (a001 * (a001 + c011)).scale(Fraction(-1, 4))

    def test_obstructions_with_constraint(self, family37_file):
        code, out = hz.run_cli([
            "obstructions", family37_file, "--mode", "JACOBI_H2",
            "--max-degree", "8",
            "--constraint", "18*a001^2 - 18*a001*b200 + 5*b200^2",
            "--eliminate", "a001", "--json"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, hz.REPORT_SCHEMA)
        seq = report["obstructions"][0]
        assert seq["method"] == "JACOBI_H2"
        # the run is in the quotient, so it reports no full entry
        assert "entries" not in seq
        assert seq["reduced_entries"]["3"] == "0"
        assert seq["reduced_entries"]["8"] == "0"
        # the schema takes exactly one of the two
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**report, "obstructions": [{**seq, "entries": {}}]},
                                hz.REPORT_SCHEMA)

    def test_obstructions_below_the_first_entry(self, family37_file):
        # JACOBI_H2's first entry is z^3, so a depth of 2 reports none
        code, out = hz.run_cli(["obstructions", family37_file, "--mode", "JACOBI_H2",
                                "--max-degree", "2", "--json"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, hz.REPORT_SCHEMA)
        seq = report["obstructions"][0]
        assert (seq["entries"], seq["start_index"]) == ({}, 3)

    def test_bound_values_reach_the_constraint(self, family37_file):
        # at a001 = 1 the constraint is one in b200 alone, and entry 7 is a
        # multiple of it
        args = ["obstructions", family37_file, "--mode", "JACOBI_H2",
                "--max-degree", "7", "--param", "a001=1", "--json"]
        code, out = hz.run_cli(args)
        assert code == 0
        seq = json.loads(out)["obstructions"][0]
        assert seq["entries"]["7"] == "25/12288*b200^2 - 15/2048*b200 + 15/2048"
        code, out = hz.run_cli(args + [
            "--constraint", "18*a001^2 - 18*a001*b200 + 5*b200^2", "--eliminate", "b200"])
        assert code == 0
        seq = json.loads(out)["obstructions"][0]
        assert seq["reduced_entries"]["7"] == "0"

    def test_obstructions_mode_defaults_to_first_integral(self, family37_file):
        code, out = hz.run_cli(["obstructions", family37_file, "--max-degree", "4",
                                "--json"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, hz.REPORT_SCHEMA)
        assert [seq["method"] for seq in report["obstructions"]] == ["FIRST_INTEGRAL"]

    def test_reduce_subcommand(self, family37_file):
        code, out = hz.run_cli(["reduce", family37_file, "--max-degree", "2",
                                "--param", "a001=1", "--param", "b200=0",
                                "--param", "c030=0", "--json"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, hz.REPORT_SCHEMA)
        assert report["planar_reduction"]["du"] == "v + 1/4*u^2"
        assert report["planar_reduction"]["dv"] == "-1/2*u*v"

    def test_missing_file_is_analysis_error(self):
        code, out = hz.run_cli(["analyze", "missingfile.hz"])
        assert code == 1
        assert "cannot read input" in out

    def test_unknown_flag_is_usage_error(self, family37_file):
        code, out = hz.run_cli(["analyze", family37_file, "--wat"])
        assert code == 2

    def test_syntax_error_is_exit_two(self, tmp_path):
        path = tmp_path / "bad.hz"
        path.write_text("dx = x/y\ndy = 2*x\ndz = x^2 + y^2\n", encoding="utf-8")
        code, out = hz.run_cli(["analyze", str(path)])
        assert code == 2
        assert "division by variable" in out

    def test_input_that_is_not_utf8_is_exit_one(self, tmp_path):
        path = tmp_path / "latin1.hz"
        path.write_bytes(b"dx = -2*y\ndy = 2*x\ndz = x^2 + y^2 \xff\n")
        code, out = hz.run_cli(["analyze", str(path)])
        assert code == 1
        assert out.startswith("error: cannot read input: ")

    @pytest.mark.parametrize("power", ["9223372036854775808", "4611686018427387904"])
    def test_a_parameter_power_that_reaches_2_63_is_exit_one(self, tmp_path, power):
        # a parameter exponent must stay below 2^63: 2^63 itself, which the
        # parser's squarings reach, is a parse error at the exponent (exit
        # 2); 2^62 is read, and the analysis's products square it (exit 1)
        path = tmp_path / "power.hz"
        path.write_text(f"params a\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2 + a^{power}*z^2\n",
                        encoding="utf-8")
        assert hz.run_cli(["analyze", str(path), "--max-degree", "4"]) == {
            "9223372036854775808": (2, "parse error: parameter exponent must stay below "
                                       "2^63 at line 4, column 20\n"),
            "4611686018427387904": (1, "error: a parameter exponent reached 2^63 in a "
                                       "product; exponents must stay below 2^63\n")}[power]

    def test_a_parameter_product_that_reaches_2_63_is_a_parse_error(self, tmp_path):
        # in the system at the `*` that reaches it, and in --constraint
        half = "a^4611686018427387904"
        path = tmp_path / "product.hz"
        path.write_text(f"params a\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2 + {half}*{half}\n",
                        encoding="utf-8")
        assert hz.run_cli(["analyze", str(path)]) == (
            2, "parse error: parameter exponent must stay below 2^63 at line 4, column 39\n")
        path.write_text("params a\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2 + a*z^2\n",
                        encoding="utf-8")
        assert hz.run_cli(["obstructions", str(path), "--mode", "JACOBI_H2",
                           "--constraint", f"{half}*{half} - 1", "--eliminate", "a"]) == (
            2, "parse error in --constraint: parameter exponent must stay below 2^63 "
               "at line 1, column 22\n")

    def test_a_non_ascii_digit_is_a_syntax_error(self, tmp_path):
        # `²` is no integer literal, so it cannot be an exponent
        path = tmp_path / "squared.hz"
        path.write_text("dx = -2*y\ndy = 2*x\ndz = x^2 + y^2 + z^\u00b2\n",
                        encoding="utf-8")
        code, out = hz.run_cli(["analyze", str(path)])
        assert code == 2
        assert out.startswith("parse error: ") and "line 3, column 20" in out

    def test_a_usage_error_comes_before_a_principal_part_error(self, tmp_path):
        # the request is checked before the analysis, normalization included
        path = tmp_path / "cross.hz"
        path.write_text(FAMILY37.replace("dz = x^2", "dz = 2*x*y + x^2"), encoding="utf-8")
        assert hz.run_cli(["analyze", str(path), "--param", "q=1"]) == (
            2, "usage error: --param names undeclared parameter 'q'\n")
        assert hz.run_cli(["analyze", str(path), "--param", "a001=1"]) == (
            1, "error: terms at or below degree 0 outside (-w*y, w*x, d*(x^2+y^2)) "
               "with w = 2, d = 1: dz: 2*x*y\n")

    @pytest.mark.parametrize("args, code", [(["--param", "q=1"], 2),
                                            (["--param", "a001=1"], 0)])
    def test_the_request_is_checked_once(self, family37_file, monkeypatch, args, code):
        # run_cli reads the fault build_report raises, and checks nothing twice
        calls = []
        check = hz.frontend._request_fault

        def counting_check(*check_args):
            calls.append(check_args)
            return check(*check_args)

        monkeypatch.setattr(hz.frontend, "_request_fault", counting_check)
        assert hz.run_cli(["analyze", family37_file, "--max-degree", "2", *args])[0] == code
        assert len(calls) == 1

    def test_bad_principal_part_is_exit_one(self, tmp_path):
        path = tmp_path / "bad.hz"
        path.write_text("dx = -2*y\ndy = 2*x\ndz = x^2 + 2*x*y + y^2\n",
                        encoding="utf-8")
        code, out = hz.run_cli(["analyze", str(path)])
        assert code == 1

    def test_invalid_param_binding(self, family37_file):
        code, out = hz.run_cli(["analyze", family37_file, "--param", "a001"])
        assert code == 2

    @pytest.mark.parametrize("args, message", [
        (["obstructions", "--mode", "JACOBI_H2", "--eliminate", "a001"],
         "--eliminate requires --constraint"),
        (["obstructions", "--mode", "JACOBI_H2", "--constraint", "a001 - b200",
          "--eliminate", "q"], "undeclared parameter 'q'"),
        (["obstructions", "--mode", "JACOBI_H2", "--constraint", "b200^2 - 1",
          "--eliminate", "a001"], "does not contain 'a001'"),
        (["obstructions", "--mode", "JACOBI_H2", "--param", "q=1"],
         "undeclared parameter 'q'"),
        (["analyze", "--param", "a001=1", "--param", "q=1"], "undeclared parameter 'q'"),
        (["normal-form", "--param", "q=1"], "undeclared parameter 'q'"),
        (["reduce", "--param", "q=1"], "undeclared parameter 'q'"),
        (["obstructions", "--mode", "JACOBI_H2", "--param", "a001=1", "--constraint",
          "18*a001^2 - 18*a001*b200 + 5*b200^2", "--eliminate", "a001"],
         "does not contain 'a001' once the param values are substituted"),
        (["analyze", "--param", "a001=1", "--param", "a001=2"],
         "--param binds 'a001' twice"),
        (["analyze", "--param", "a001=1", "--param", "a001 = 1"],
         "--param binds 'a001' twice"),
        # numbers have ASCII digits only, as in expressions
        (["analyze", "--max-degree", "\u0663"],
         "argument --max-degree: invalid int value: '\u0663'"),
        (["analyze", "--max-degree", "1_0"], "argument --max-degree: invalid int value: '1_0'"),
        (["analyze", "--param", "a001=\u0661"], "invalid rational '\u0661' for parameter 'a001'"),
    ])
    @pytest.mark.parametrize("max_degree", ["3", "7"])
    def test_flag_name_mistakes_are_usage_errors(self, family37_file, args, message,
                                                 max_degree):
        # found before any analysis runs, so the exit code cannot depend on
        # the data the analysis would reach
        code, out = hz.run_cli([args[0], family37_file, *args[1:],
                                "--max-degree", max_degree])
        assert code == 2
        assert out.startswith("usage error:") and message in out

    def test_symbolic_analyze_reports_sequences(self, family38_file):
        code, out = hz.run_cli(["analyze", family38_file, "--max-degree", "3",
                                "--json"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, hz.REPORT_SCHEMA)
        assert report["classification"]["case"] == "SYMBOLIC"
        methods = {seq["method"] for seq in report["obstructions"]}
        assert methods == {"JACOBI_H", "JACOBI_H2"}

    def test_text_report_carries_both_indices(self, family37_file):
        code, out = hz.run_cli(["obstructions", family37_file, "--mode",
                                "JACOBI_H2", "--max-degree", "4"])
        assert code == 0
        assert "z^3 (quasi-homogeneous degree 6)" in out


def test_build_report_rejects_unknown_mode():
    field = hz.parse_system(FAMILY38).to_field()
    with pytest.raises(ValueError, match="unknown mode 'JACOBI_H3'"):
        hz.build_report(field, hz.AnalysisConfig(mode="JACOBI_H3"))


@pytest.mark.parametrize("mode", ["AUTO", "NORMAL_FORM", "REDUCE"])
def test_build_report_rejects_a_constraint_outside_the_sequence_modes(mode):
    # as on the CLI, where only `obstructions` takes --constraint
    field = hz.parse_system(FAMILY38).to_field()
    constraint = (hz.parse_polynomial("a001 - 1", field.params), "a001")
    config = hz.AnalysisConfig(max_index=2, mode=mode, constraint=constraint)
    with pytest.raises(ValueError, match=f"constraint with mode {mode}, which takes none"):
        hz.build_report(field, config)


# requests on family 37 that the shared request check refuses:
# (mode, bindings, constraint, eliminate), the key at fault, and the message
# every surface carries after its own prefix
BAD_REQUESTS = [
    (("AUTO", {"q": 1}, None, None), "param q", "param names undeclared parameter 'q'"),
    (("JACOBI_H2", {}, "a001 - b200", "q"), "eliminate",
     "eliminate names undeclared parameter 'q'"),
    (("JACOBI_H2", {"b200": 0}, "a001*b200", "a001"), "eliminate",
     "constraint does not contain 'a001' once the param values are substituted"),
    *((((mode, {}, "a001", "a001"), "constraint",
        f"constraint with mode {mode}, which takes none")
       for mode in ("AUTO", "NORMAL_FORM", "REDUCE"))),
    (("JACOBI_H3", {}, None, None), "mode", "mode names unknown mode 'JACOBI_H3'"),
    # a remainder by a constraint whose leading coefficient is not constant is
    # no ring homomorphism, so the sequence cannot run in the quotient
    (("JACOBI_H2", {}, "a001*b200 - 1", "a001"), "eliminate",
     "constraint has leading coefficient b200 in 'a001', not a constant"),
]
COMMANDS = {"AUTO": ["analyze"], "NORMAL_FORM": ["normal-form"], "REDUCE": ["reduce"],
            **{mode: ["obstructions", "--mode", mode] for mode in hz.frontend.SEQUENCE_MODES}}


@pytest.mark.parametrize("request_, key, message", BAD_REQUESTS,
                         ids=["param", "eliminate-undeclared", "eliminate-bound-away",
                              "constraint-with-auto", "constraint-with-normal-form",
                              "constraint-with-reduce", "unknown-mode",
                              "eliminate-leading-coefficient"])
def test_a_bad_request_is_refused_alike_on_every_surface(family37_file, request_, key,
                                                          message):
    mode, bindings, constraint, eliminate = request_
    # the CLI, where a command takes the request: only `obstructions` takes a
    # constraint, and its --mode choices refuse an unknown mode first
    if mode in COMMANDS and (constraint is None or mode in hz.frontend.SEQUENCE_MODES):
        args = [*COMMANDS[mode], family37_file, "--max-degree", "3"]
        for name, value in bindings.items():
            args += ["--param", f"{name}={value}"]
        if constraint is not None:
            args += ["--constraint", constraint, "--eliminate", eliminate]
        assert hz.run_cli(args) == (2, f"usage error: --{message}\n")
    # a fixture, whose error gives the first line of the key at fault
    lines = [f"mode = {mode}", *(f"param {name} = {value}" for name, value in bindings.items())]
    if constraint is not None:
        lines += [f"constraint = {constraint}", f"eliminate = {eliminate}"]
    text = FAMILY37 + "expect {\n" + "".join(f"  {line}\n" for line in lines) + "}\n"
    with pytest.raises(hz.ParseError) as err:
        hz.parse_fixture(text, "bad")
    assert err.value.message == f"fixture bad: {message}"
    assert err.value.line == 6 + next(i for i, line in enumerate(lines)
                                      if line.startswith(key + " "))
    # build_report
    field = hz.parse_system(FAMILY37).to_field()
    pair = (hz.parse_polynomial(constraint, field.params), eliminate) \
        if constraint is not None else None
    config = hz.AnalysisConfig(max_index=3, mode=mode, constraint=pair,
                               parameter_values={n: Fraction(v) for n, v in bindings.items()})
    with pytest.raises(ValueError) as err:
        hz.build_report(field, config)
    assert str(err.value) == message


# (bindings, constraint, eliminated name) of constrained sequence requests on
# family 37: the corpus constraint, the same with a001 bound, and one with
# non-integer rational coefficients
QUOTIENT_REQUESTS = [
    ({}, "18*a001^2 - 18*a001*b200 + 5*b200^2", "a001"),
    ({"a001": 1}, "18*a001^2 - 18*a001*b200 + 5*b200^2", "b200"),
    ({}, "3/2*b200^2 - 2/3*a001*c030*b200 + 5/7*c030 - 1/4", "b200"),
]


@pytest.mark.parametrize("bindings, constraint, var", QUOTIENT_REQUESTS,
                         ids=["corpus", "bound", "rational"])
@pytest.mark.parametrize("mode", hz.frontend.SEQUENCE_MODES)
def test_a_constrained_report_holds_the_true_remainders(mode, bindings, constraint, var):
    # the run in the quotient gives, term order included, the remainder of
    # each entry of the full run by the constraint, whose leading coefficient
    # is a unit: the pseudo-remainder divided by its power
    field = hz.parse_system(FAMILY37).to_field()
    names = field.params
    values = {name: Fraction(v) for name, v in bindings.items()}
    g = hz.parse_polynomial(constraint, names)

    def sequence(pair):
        config = hz.AnalysisConfig(max_index=12, mode=mode, parameter_values=values,
                                   constraint=pair)
        return hz.build_report(field, config)["obstructions"][0]

    full, reduced = sequence(None)["entries"], sequence((g, var))["reduced_entries"]
    g = g.substitute(values)
    lc = g.coefficient_of_power(var, g.degree_in(var)).constant_value()
    assert list(reduced) == list(full)
    for k, text in full.items():
        r, e = hz.pseudo_remainder(hz.parse_polynomial(text, names), g, var)
        assert reduced[k] == str(r.scale(1 / lc ** e)), k


def test_one_sequence_has_one_spelling(family37_file):
    # `analyze` takes no --mode; `obstructions --mode` reports the sequence
    code, out = hz.run_cli(["analyze", family37_file, "--mode", "JACOBI_H2"])
    assert code == 2 and out.startswith("usage error:")
    code, out = hz.run_cli(["obstructions", family37_file, "--mode", "JACOBI_H2",
                            "--max-degree", "8", "--json"])
    assert code == 0
    field = hz.parse_system(FAMILY37).to_field()
    assert json.loads(out) == hz.build_report(
        field, hz.AnalysisConfig(max_index=8, mode="JACOBI_H2"))
    public = hz.obstruction_sequence(field, 8, hz.Method.JACOBI_H2)
    assert json.loads(out)["obstructions"][0]["entries"] == {
        str(k): str(v) for k, v in sorted(public.entries.items())}


def test_build_report_builds_no_witness(monkeypatch):
    # the report prints the entries only, so no solved piece becomes Fractions
    field = hz.parse_system(FAMILY37).to_field()
    public = hz.obstruction_sequence(field, 8, hz.Method.JACOBI_H2)

    def no_witness_piece(*args):
        raise AssertionError("a witness piece was built")

    monkeypatch.setattr("hopfzero.analyzers._from_integer_terms", no_witness_piece)
    report = hz.build_report(field, hz.AnalysisConfig(max_index=8, mode="JACOBI_H2"))
    assert report["obstructions"][0]["entries"] == {
        str(k): str(v) for k, v in sorted(public.entries.items())}


# family 37 before normalization, which scales time by 1/2 and z by 3/2
RESCALED_FAMILY37 = """\
params a001 b200 c030
dx = -4*y + a001*z
dy = 4*x + b200*x^2
dz = 3*x^2 + 3*y^2 + c030*y^3
"""


@pytest.mark.parametrize("args, config", [
    (["analyze", "--param", "a001=1", "--param", "b200=2", "--param", "c030=3"],
     hz.AnalysisConfig(max_index=8, parameter_values={"a001": 1, "b200": 2, "c030": 3})),
    (["obstructions", "--mode", "JACOBI_H2"], hz.AnalysisConfig(max_index=8, mode="JACOBI_H2")),
], ids=["analyze", "obstructions"])
def test_build_report_normalizes_the_parsed_field(tmp_path, args, config):
    # the report of a field as parsed is the one the CLI prints for its file
    path = tmp_path / "rescaled.hz"
    path.write_text(RESCALED_FAMILY37, encoding="utf-8")
    code, out = hz.run_cli([args[0], str(path), *args[1:], "--max-degree", "8", "--json"])
    report = hz.build_report(hz.parse_system(RESCALED_FAMILY37).to_field(), config)
    assert code == 0 and json.loads(out) == report
    assert report["scalings_applied"] == {"time_factor": "1/2", "z_factor": "3/2"}
    if args[0] == "analyze":
        assert report["classification"]["case"] == "NOT_INTEGRABLE"


def _run_module(*args):
    """Run `python -m hopfzero ARGS` on the package these tests import."""
    src = str(pathlib.Path(hz.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


class TestModuleEntryPoint:
    def test_normal_form_json_matches_run_cli(self, tmp_path):
        case = next(c for c in hz.load_cases() if c.name == "family38_nf")
        path = tmp_path / "family38_nf.hz"
        path.write_text(case.system_text, encoding="utf-8")
        args = ["normal-form", str(path), "--max-degree", str(case.max_index), "--json"]
        proc = _run_module("-m", "hopfzero", *args)
        assert (proc.returncode, proc.stdout) == hz.run_cli(args)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_missing_file_exits_nonzero_with_message_on_stderr(self, tmp_path):
        missing = str(tmp_path / "missing.hz")
        proc = _run_module("-m", "hopfzero", "analyze", missing)
        assert proc.returncode == hz.run_cli(["analyze", missing])[0] != 0
        assert proc.stdout == ""
        assert "cannot read input" in proc.stderr

    def test_frontend_module_refuses_to_run(self):
        proc = _run_module("-m", "hopfzero.frontend", "analyze", "any.hz")
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "python -m hopfzero`" in proc.stderr

    def test_import_has_no_side_effects(self):
        proc = _run_module("-c", "import hopfzero.__main__, hopfzero.frontend")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
