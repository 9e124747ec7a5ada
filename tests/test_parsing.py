from fractions import Fraction

import pytest

import hopfzero as hz
from hopfzero import ParseError


class TestParseSystem:
    def test_with_params(self):
        src = hz.parse_system("params a\ndx = -2*y + a*z\ndy = 2*x\ndz = x^2 + y^2\n")
        assert src.parameter_names == ("a",)
        field = src.to_field()
        assert field.params == ("a",)
        a = hz.ParamPolynomial.variable("a", ("a",))
        assert field.fx.coefficient((0, 0, 1)) == a

    def test_without_params(self):
        src = hz.parse_system("dx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n")
        assert src.parameter_names == ()
        assert src.to_field() == hz.principal_part(())

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nparams a  # trailing\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2 + a*z^2\n"
        src = hz.parse_system(text)
        assert src.parameter_names == ("a",)

    def test_rational_literals(self):
        src = hz.parse_system("dx = -2*y + 3/8*z\ndy = 2*x\ndz = x^2 + y^2\n")
        assert src.to_field().fx.coefficient((0, 0, 1)) == \
            hz.ParamPolynomial.constant(hz.rat("3/8"), ())

    def test_division_by_variable_rejected(self):
        with pytest.raises(ParseError) as err:
            hz.parse_system("dx = x/y\ndy = 2*x\ndz = x^2 + y^2\n")
        assert "division by variable" in str(err.value)
        assert "line 1" in str(err.value)

    def test_division_by_parenthesized_rejected(self):
        with pytest.raises(ParseError) as err:
            hz.parse_system("dx = x/(2)\ndy = 2*x\ndz = x^2 + y^2\n")
        assert "division by non-literal" in str(err.value)

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError) as err:
            hz.parse_system("dx = -2*y + q*z\ndy = 2*x\ndz = x^2 + y^2\n")
        assert "undeclared identifier 'q'" in str(err.value)

    def test_undeclared_identifier_position(self):
        with pytest.raises(ParseError) as err:
            hz.parse_system("params a\ndx = -2*y\ndy = 2*x + q*y\ndz = x^2 + y^2\n")
        assert (err.value.line, err.value.column) == (3, 12)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError) as err:
            hz.parse_system("dx = x^-2\ndy = 2*x\ndz = x^2 + y^2\n")
        assert "exponent" in str(err.value)

    @pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", "")])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, opening, closing):
        # the k-th opening token is at level k and column 17 + k, and x one
        # level below the last; level 101 is refused, at its token
        def system(depth):
            return f"dx = -2*y\ndy = 2*x\ndz = x^2 + y^2 + {opening * depth}x{closing * depth}\n"

        assert hz.parse_system(system(99)).to_field().fz.coefficient((1, 0, 0))
        path = tmp_path / "deep.txt"
        path.write_text(system(2000), encoding="utf-8")
        code, text = hz.run_cli(["analyze", str(path)])
        assert (code, text) == (2, "parse error: expression nested deeper than 100 levels "
                                   "at line 3, column 118\n")

    def test_missing_component(self):
        with pytest.raises(ParseError) as err:
            hz.parse_system("dx = -2*y\ndy = 2*x\n")
        assert "dz" in str(err.value)

    def test_duplicate_component(self):
        with pytest.raises(ParseError):
            hz.parse_system("dx = -2*y\ndx = 2*x\ndy = x\ndz = x^2 + y^2\n")

    def test_params_must_come_first(self):
        with pytest.raises(ParseError):
            hz.parse_system("dx = -2*y\nparams a\ndy = 2*x\ndz = x^2 + y^2\n")

    def test_variable_name_clash(self):
        with pytest.raises(ParseError):
            hz.parse_system("params x\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            hz.parse_system("dx = -2*y +\ndy = 2*x\ndz = x^2 + y^2\n")
        assert err.value.line == 1

    def test_parameter_names_follow_the_expression_name_rule(self):
        # a numeric character that is no decimal digit, such as `²` or `½`,
        # may start a name, as it may go on one; a decimal digit may not
        for name in ("a_1", "_a", "\u03b1", "a\u00b2", "\u00b2", "\u00bd"):
            src = hz.parse_system(f"params {name}\ndx = -2*y + {name}*z\ndy = 2*x\n"
                                  "dz = x^2 + y^2\n")
            assert src.parameter_names == (name,)
            assert src.to_field().fx.coefficient((0, 0, 1)) == \
                hz.ParamPolynomial.variable(name, (name,))
        for name in ("1a", "\u0663a", "a-b"):
            with pytest.raises(ParseError) as err:
                hz.parse_system(f"params {name}\ndx = -2*y\ndy = 2*x\ndz = x^2 + y^2\n")
            assert f"invalid parameter name {name!r}" in str(err.value)

    def test_unary_signs_and_parens(self):
        src = hz.parse_system(
            "dx = -2*y - (-1)*z\ndy = 2*x\ndz = x^2 + y^2 + -1/2*y^3\n")
        field = src.to_field()
        assert field.fx.coefficient((0, 0, 1)) == hz.ParamPolynomial.constant(1, ())
        assert field.fz.coefficient((0, 3, 0)) == \
            hz.ParamPolynomial.constant(hz.rat("-1/2"), ())


class TestRoundTrip:
    def test_print_and_reparse(self, rng):
        text = ("params a b\n"
                "dx = -2*y + a*z + 1/3*x^2\n"
                "dy = 2*x + b*x*y\n"
                "dz = x^2 + y^2 + a*y^3 - 5/7*z^2\n")
        src = hz.parse_system(text)
        printed = src.to_text()
        reparsed = hz.parse_system(printed)
        assert reparsed.to_field() == src.to_field()
        assert reparsed.parameter_names == src.parameter_names

    def test_canonical_printing_is_stable(self):
        src = hz.parse_system("dx = -2*y\ndy = 2*x\ndz = y^2 + x^2\n")
        once = src.to_text()
        assert hz.parse_system(once).to_text() == once


class TestParsePolynomial:
    def test_basic(self):
        p = hz.parse_polynomial("126*a^2 - 117*a*b + 40*b^2", ("a", "b"))
        assert p == hz.ParamPolynomial(
            {(2, 0): 126, (1, 1): -117, (0, 2): 40}, ("a", "b"))

    def test_rejects_state_variables(self):
        with pytest.raises(ParseError):
            hz.parse_polynomial("a*x", ("a",))

    def test_rejects_state_variables_that_cancel(self):
        with pytest.raises(ParseError) as err:
            hz.parse_polynomial("x - x", ("a",))
        assert "variable 'x' not allowed here" in str(err.value)

    def test_rejects_undeclared(self):
        with pytest.raises((ParseError, hz.ParameterError)):
            hz.parse_polynomial("a*c", ("a",))

    def test_only_ascii_digits_are_literals(self):
        with pytest.raises(ParseError) as err:
            hz.parse_polynomial("\u0663*a", ["a"])
        assert "unexpected character '\u0663'" in str(err.value)
        assert err.value.column == 1
        for text in ("\u00b2", "\u00bd"):
            with pytest.raises(ParseError) as err:
                hz.parse_polynomial(f"2*a + {text}", ["a"])
            assert f"undeclared identifier {text!r}" in str(err.value)
            assert err.value.column == 7

    def test_power_by_repeated_squaring(self, monkeypatch):
        calls = []
        mul = hz.QHPolynomial.mul

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(hz.QHPolynomial, "mul", counted)
        p = hz.parse_polynomial("a^65536", ["a"])
        assert len(calls) == 16  # one squaring per bit, and no product with 1
        assert p == hz.ParamPolynomial({(65536,): 1}, ("a",))
        calls.clear()
        assert hz.parse_polynomial("(a + 1)^5", ["a"]) == hz.ParamPolynomial(
            {(5,): 1, (4,): 5, (3,): 10, (2,): 10, (1,): 5, (0,): 1}, ("a",))
        assert len(calls) == 3
        calls.clear()
        assert hz.parse_polynomial("(a + 1)^0", ["a"]) == hz.ParamPolynomial.constant(1, ["a"])
        assert hz.parse_polynomial("(a + 1)^1", ["a"]) == hz.parse_polynomial("a + 1", ["a"])
        assert not calls

    def test_a_rational_constant_factor_scales(self, monkeypatch):
        calls = []
        mul = hz.QHPolynomial.mul

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(hz.QHPolynomial, "mul", counted)
        text = "params a\ndx = 3/2*(x + a*y) + 0*z - (x - y)*(-2)\ndy = 2^3*a^2*x\ndz = x*y\n"
        source = hz.parse_system(text)
        assert len(calls) == 4  # a*y, a^2, a^2*x and x*y
        x, y = (hz.QHPolynomial.variable(v, ("a",)) for v in "xy")
        a = hz.QHPolynomial({(0, 0, 0): hz.ParamPolynomial.variable("a", ("a",))}, ("a",))
        calls.clear()
        monkeypatch.setattr(hz.QHPolynomial, "mul", mul)
        assert source.components == ((x + a * y).scale(Fraction(3, 2)) + (x - y).scale(2),
                                     a * a * x.scale(8), x * y)
        # 191 products before constant factors scaled, 80 of them with one
        monkeypatch.setattr(hz.QHPolynomial, "mul", counted)
        hz.goldens.load_cases()
        assert len(calls) == 111

    def test_a_parameter_exponent_of_2_63_is_a_parse_error(self):
        # at the exponent that reaches 2^63, or at the `*` whose product does
        half = "a^4611686018427387904"
        for text, column in (("1 + a^9223372036854775808", 7), (f"{half}*{half}", 22)):
            with pytest.raises(ParseError, match="below 2\\^63") as err:
                hz.parse_polynomial(text, ["a"])
            assert (err.value.line, err.value.column) == (1, column)
        assert hz.parse_polynomial("a^9223372036854775807", ["a"]) == \
            hz.ParamPolynomial({(2 ** 63 - 1,): 1}, ("a",))
