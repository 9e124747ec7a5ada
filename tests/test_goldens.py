import dataclasses

import pytest

import hopfzero as hz
from hopfzero import ParseError


def test_corpus_passes():
    results = hz.run_goldens()
    assert results, "no golden fixtures found"
    failing = [r for r in results if not r.passed]
    detail = "\n".join(f"{r.name}: {'; '.join(r.failures)}" for r in failing)
    assert not failing, f"golden fixtures failed:\n{detail}"


def test_origin_filter():
    # the caller filters the cases by their origin tag, and each result keeps it
    cases = hz.load_cases()
    literature = [hz.run_golden(c) for c in cases if c.origin == "literature"]
    assert literature and all(r.origin == "literature" for r in literature)
    trivial = [hz.run_golden(c) for c in cases if c.origin == "trivial"]
    assert trivial and all(r.passed for r in trivial)


def test_every_fixture_declares_an_origin_tag():
    for case in hz.load_cases():
        assert case.origin in ("literature", "derived", "trivial"), case.name
        assert case.expectations, f"{case.name} asserts nothing"


def test_fixture_parse_error_reports_location():
    bad = "dx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n\nexpect {\n  bogus line here\n}\n"
    with pytest.raises(ParseError) as err:
        hz.parse_fixture(bad, "bad")
    assert "bad" in str(err.value)


def test_unterminated_expect_block():
    bad = "dx = -2*y\ndy = 2*x\ndz = x^2 + y^2\nexpect {\n  case = B1\n"
    with pytest.raises(ParseError):
        hz.parse_fixture(bad, "unterminated")


def test_fixture_rejects_unknown_mode():
    bad = "dx = -2*y\ndy = 2*x\ndz = x^2 + y^2\nexpect {\n  mode = JACOBI_H3\n}\n"
    with pytest.raises(ParseError) as err:
        hz.parse_fixture(bad, "misspelt")
    assert "unknown mode 'JACOBI_H3'" in str(err.value)
    assert err.value.line == 5


# the principal part alone, whose expect lines start at line 5
F0_SYSTEM = "dx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n"
# family 37, whose expect lines start at line 6
FAMILY37_SYSTEM = ("params a001 b200 c030\ndx = -2*y + a001*z\ndy = 2*x + b200*x^2\n"
                   "dz = x^2 + y^2 + c030*y^3\n")


def fixture_with(*expect_lines, system=F0_SYSTEM):
    """A fixture of `system` with these expect lines."""
    body = "".join(f"  {line}\n" for line in expect_lines)
    return f"{system}expect {{\n{body}}}\n"


@pytest.mark.parametrize("line", ["zero = 3", "param = 1", "entry = 0", "reduced = 2",
                                  "a = 1", "max_index = seven", "zero entries = 3 x",
                                  "max_index = 0", "max_index = -2", "param q = 1",
                                  "entry 3 = 1/0", "a 1 =", "entry 3 = q", "b 2 = 1 +",
                                  "zero entries =", "zero reduced =",
                                  "origin = literatur", "coprime_pair = 1",
                                  "coprime_pair = 1 1 2", "max_index 3 = 4",
                                  "entry 3 4 = 0", "case extra = B1",
                                  "entry 3 = \u00b2",
                                  # numbers have ASCII digits only, as in expressions
                                  "max_index = \u0663", "max_index = 1_0", "entry \u0663 = 0",
                                  "zero entries = \u0664", "param a001 = \u0661",
                                  "witness_index = \u0663", "coprime_pair = 1 \u0661"])
def test_malformed_expect_line_is_a_parse_error(line):
    with pytest.raises(ParseError) as err:
        hz.parse_fixture(fixture_with("case = B1", line), "malformed")
    # an undeclared binding is refused by the request check the CLI shares
    message = ("param names undeclared parameter 'q'" if line == "param q = 1"
               else f"malformed expect line {line!r}")
    assert f"fixture malformed: {message}" in str(err.value)
    assert err.value.line == 6


@pytest.mark.parametrize("system, lines, message", [
    (F0_SYSTEM, ("zero reduced = 8",), "reduced expectation without constraint"),
    (F0_SYSTEM, ("reduced 11 = 0",), "reduced expectation without constraint"),
    (F0_SYSTEM, ("constraint = a001", "zero reduced = 8"), "constraint without eliminate"),
    (F0_SYSTEM, ("eliminate = a001", "case = B1"), "eliminate without constraint"),
    # the eliminate name is checked as the CLI checks --eliminate
    (FAMILY37_SYSTEM, ("eliminate = q", "constraint = a001", "mode = JACOBI_H2"),
     "eliminate names undeclared parameter 'q'"),
    (FAMILY37_SYSTEM, ("eliminate = a001", "constraint = b200", "mode = JACOBI_H2"),
     "constraint does not contain 'a001'"),
    (FAMILY37_SYSTEM, ("eliminate = a001", "constraint = a001*b200", "param b200 = 0",
                       "mode = JACOBI_H2"),
     "constraint does not contain 'a001' once the param values are substituted"),
    # every entry is 0 here, so no run would ever reduce one
    (F0_SYSTEM, ("eliminate = q", "constraint = 1", "mode = JACOBI_H", "zero reduced = 3"),
     "eliminate names undeclared parameter 'q'"),
    # only the sequence modes take a constraint, as only `obstructions` does
    (FAMILY37_SYSTEM, ("constraint = a001", "eliminate = a001"),
     "constraint with mode AUTO, which takes none"),
    (FAMILY37_SYSTEM, ("constraint = a001", "eliminate = a001", "mode = NORMAL_FORM"),
     "constraint with mode NORMAL_FORM, which takes none"),
    (FAMILY37_SYSTEM, ("constraint = a001", "eliminate = a001", "mode = REDUCE"),
     "constraint with mode REDUCE, which takes none"),
    # a constrained run reports reduced entries only, so no full entry is checked
    (FAMILY37_SYSTEM, ("zero entries = 3", "constraint = a001 - b200", "eliminate = a001",
                       "mode = JACOBI_H2", "zero reduced = 3"),
     "entry expectation with constraint, whose report has reduced entries only"),
    (FAMILY37_SYSTEM, ("entry 3 = 0", "mode = JACOBI_H2", "eliminate = a001",
                       "constraint = a001 - b200"),
     "entry expectation with constraint, whose report has reduced entries only"),
], ids=["zero-reduced", "reduced-entry", "constraint-only", "eliminate-only",
        "eliminate-undeclared", "eliminate-absent", "eliminate-bound-away",
        "eliminate-undeclared-zero-entries", "constraint-with-auto",
        "constraint-with-normal-form", "constraint-with-reduce",
        "zero-entries-with-constraint", "entry-with-constraint"])
def test_constraint_expectations_are_checked_at_parse_time(system, lines, message):
    # the line reported is the first expect line, the one at fault
    with pytest.raises(ParseError) as err:
        hz.parse_fixture(fixture_with(*lines, system=system), "unpaired")
    assert f"fixture unpaired: {message}" in str(err.value)
    assert err.value.line == system.count("\n") + 2


# a system with parameters a and b, whose expect lines start at line 6
PARAM_SYSTEM = "params a b\ndx = -2*y + a*z\ndy = 2*x + b*z\ndz = x^2 + y^2\n"


@pytest.mark.parametrize("first, second, key", [
    ("origin = derived", "origin = literature", "origin"),
    ("mode = JACOBI_H", "mode = JACOBI_H2", "mode"),
    ("max_index = 4", "max_index = 4", "max_index"),
    ("constraint = a", "constraint = b", "constraint"),
    ("eliminate = a", "eliminate = b", "eliminate"),
    ("param a = 1", "param a = 2", "param a"),
    ("param a = 1", "param a = 1", "param a"),
], ids=["origin", "mode", "max_index", "constraint", "eliminate", "param-different",
        "param-equal"])
def test_repeated_single_valued_key_is_a_parse_error(first, second, key):
    # the second line would otherwise win silently
    text = PARAM_SYSTEM + f"expect {{\n  {first}\n  case = B1\n  {second}\n}}\n"
    with pytest.raises(ParseError) as err:
        hz.parse_fixture(text, "twice")
    assert f"fixture twice: repeated expect key {key!r} (first at line 6)" in str(err.value)
    assert err.value.line == 8


def test_malformed_constraint_is_a_parse_error():
    # checked once its pairing with eliminate is, against the declared names
    text = PARAM_SYSTEM + "expect {\n  constraint = a/0\n  eliminate = a\n}\n"
    with pytest.raises(ParseError) as err:
        hz.parse_fixture(text, "badvalue")
    assert str(err.value) == ("fixture badvalue: malformed expect line "
                              "'constraint = a/0': division by zero at line 6")


def test_reduced_expectation_is_checked_modulo_the_bound_constraint():
    # at a001 = 1 the report is reduced by 18 - 18*b200 + 5*b200^2, of which
    # entry 7 is a multiple, so the full entry is congruent to its remainder 0
    text = fixture_with("mode = JACOBI_H2", "max_index = 7", "param a001 = 1",
                        "constraint = 18*a001^2 - 18*a001*b200 + 5*b200^2",
                        "eliminate = b200",
                        "reduced 7 = 25/12288*b200^2 - 15/2048*b200 + 15/2048",
                        system=FAMILY37_SYSTEM)
    assert hz.run_golden(hz.parse_fixture(text, "bound")).failures == []


# one wrong expectation per kind the corpus uses: (fixture, wrong expectation,
# the one failure run_golden must report)
WRONG = {
    "zero_entries": ("family38_b1_h", ("zero_entries", (2, 3, 4)),
                     "entry 4: expected 0, got 1/32*a001^5*c101"),
    "entry": ("family38_b1_h", ("entry", 4, "1/16*a001^5*c101"),
              "entry 4: expected 1/16*a001^5*c101, got 1/32*a001^5*c101"),
    "zero_reduced": ("family37_h2_reduced", ("zero_reduced", (8, 9, 10, 11)),
                     "entry 11 mod constraint: expected 0, got -90702760044953/"),
    "coeff": ("family38_nf", ("coeff", "a", 1, "-1/4*a001^2"),
              "a_1: expected -1/4*a001^2, got -1/4*a001^2 - 1/4*a001*c011"),
    "resonance": ("family37_nf", ("resonance", "l0", "2"), "l0: expected 2, got 1"),
    "case": ("b2_shape", ("case", "B1"), "case: expected B1, got B2"),
    "witness_method": ("family37_not_integrable", ("witness_method", "JACOBI_H"),
                       "witness method: expected JACOBI_H, got JACOBI_H2"),
    "witness_index": ("family37_not_integrable", ("witness_index", 6),
                      "witness index: expected 6, got 7"),
    "coprime_pair": ("family37_not_integrable", ("coprime_pair", (1, 2)),
                     "coprime pair: expected (1, 2), got (1, 1)"),
    "planar": ("family37_planar", ("planar", "du", "v - 1/4*u^2"),
               "du: expected 'v - 1/4*u^2', got 'v + 1/4*u^2'"),
}


def test_every_corpus_kind_has_a_wrong_probe():
    kinds = {e[0] for case in hz.load_cases() for e in case.expectations}
    assert kinds == set(WRONG)


@pytest.mark.parametrize("kind", sorted(WRONG))
def test_wrong_expectation_is_reported(kind):
    name, wrong, message = WRONG[kind]
    case = next(c for c in hz.load_cases() if c.name == name)
    at = next(i for i, e in enumerate(case.expectations) if e[0] == kind)
    expectations = case.expectations[:at] + (wrong,) + case.expectations[at + 1:]
    result = hz.run_golden(dataclasses.replace(case, expectations=expectations))
    assert len(result.failures) == 1, result.failures
    assert result.failures[0].startswith(message)


# a system text that ends mid-expression on line 2
BAD_SYSTEM = "params a001\ndx = -2*y + a001*z +\ndy = 2*x\ndz = x^2 + y^2\n"


@pytest.mark.parametrize("bindings", ["", "  param a001 = 1\n"], ids=["run", "binding"])
def test_bad_system_text_names_the_fixture(bindings):
    # without a binding the system is parsed by run_golden, with one by parse_fixture
    text = BAD_SYSTEM + "expect {\n" + bindings + "  case = B1\n}\n"
    with pytest.raises(ParseError) as err:
        hz.run_golden(hz.parse_fixture(text, "badsys"))
    assert str(err.value) == "fixture badsys: unexpected end of expression at line 2"
    assert err.value.line == 2
