"""Input-format parser for polynomial Hopf-zero systems.

Grammar (one statement per line, `#` starts a comment):

    params NAME NAME ...          optional, at most once, before the equations
    dx = EXPR
    dy = EXPR
    dz = EXPR

EXPR is a polynomial expression over x, y, z and the declared parameters with
operators + - * ^ and parentheses.  Rational literals are written p or p/q
with ASCII digits; division is only allowed by a positive integer literal.
Exponents are nonnegative integer literals.

The parser evaluates as it reads: each grammar rule returns the polynomial of
its subexpression, so no intermediate tree exists.  An undeclared name is
rejected at its token, with line and column; that is why the params line must
come before the equations.  So is a parameter exponent that reaches 2^63, the
graded kernel's limit, at the exponent or the `*` whose product reaches it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .coeffring import _DIGITS, ParamPolynomial
from .errors import ParameterError, ParseError
from .gradedpoly import QHPolynomial
from .vectorfield import VectorField3

_VARS = ("x", "y", "z")
# parentheses and unary signs nest at most this deep, so that deeper input is
# a ParseError, not a RecursionError (a parenthesis takes five stack frames)
_MAX_DEPTH = 100

# A name (a parameter's too) starts with a letter, `_` or a numeric character
# that is not a decimal digit, such as `²`, and goes on with those or digits.
_NAME = re.compile(r"[^\W\d]\w*")
# After blanks, one token: a comment, which ends the tokens, an integer
# literal of ASCII digits (the rule of every number read from text), a name,
# an operator, or any other character, which is an error.
_TOKEN = re.compile(rf"[ \t]*(?:(?P<comment>#.*)|(?P<int>{_DIGITS})|(?P<name>{_NAME.pattern})"
                    r"|(?P<op>[-+*/^()])|(?P<bad>[^ \t]))", re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "int" | "op"
    text: str
    line: int
    column: int


def _tokenize_expr(text: str, line: int, col_offset: int) -> List[Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "comment":
            break
        col = col_offset + match.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r}", line, col)
        tokens.append(Token(kind, match[kind], line, col))
    return tokens


class _ExprParser:
    """Recursive descent over one expression's tokens; each rule returns the
    QHPolynomial of what it read over `params`.  With `state_vars` false,
    x, y and z are rejected at their token."""

    def __init__(self, tokens: List[Token], line: int, params: Tuple[str, ...],
                 state_vars: bool = True):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.params = params
        self.state_vars = state_vars
        self.depth = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def parse(self) -> QHPolynomial:
        expr = self.parse_sum()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return expr

    def parse_sum(self) -> QHPolynomial:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.take()
                rhs = self.parse_term()
                node = node + rhs if tok.text == "+" else node - rhs
            else:
                return node

    def parse_term(self) -> QHPolynomial:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "*/":
                return node
            self.take()
            if tok.text == "*":
                node = self.product(node, self.parse_factor(), tok)
            else:
                denom = self.peek()
                if denom is None or denom.kind != "int":
                    where = denom if denom is not None else tok
                    what = "variable" if denom is not None and denom.kind == "name" \
                        else "non-literal"
                    raise ParseError(f"division by {what}", where.line, where.column)
                self.take()
                value = int(denom.text)
                if value == 0:
                    raise ParseError("division by zero", denom.line, denom.column)
                node = node.scale(Fraction(1, value))

    def product(self, a: QHPolynomial, b: QHPolynomial, tok: Token) -> QHPolynomial:
        """a * b, a scaling when one factor is a rational constant; a
        parameter exponent that reaches 2^63 there, which the kernel
        refuses, is a ParseError at `tok`."""
        for c, f in ((a, b), (b, a)):
            if (value := _rational(c)) is not None:
                return f.scale(value)
        try:
            return a * b
        except ParameterError:
            raise ParseError("parameter exponent must stay below 2^63",
                             tok.line, tok.column) from None

    def parse_factor(self) -> QHPolynomial:
        tok = self.peek()
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels",
                             self.line, tok.column if tok else None)
        self.depth += 1
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            self.take()
            node = self.parse_factor() if tok.text == "+" else -self.parse_factor()
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> QHPolynomial:
        base = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.take()
            exp = self.peek()
            if exp is None or exp.kind != "int":
                bad = exp if exp is not None else tok
                raise ParseError("exponent must be a nonnegative integer literal",
                                 bad.line, bad.column)
            self.take()
            out, power = QHPolynomial.constant(1, self.params), int(exp.text)
            while power:  # by repeated squaring, which exact products allow
                if power & 1:
                    out = self.product(out, base, exp)
                power >>= 1
                if power:
                    base = self.product(base, base, exp)
            return out
        return base

    def parse_atom(self) -> QHPolynomial:
        tok = self.take()
        if tok.kind == "int":
            return QHPolynomial.constant(Fraction(int(tok.text)), self.params)
        if tok.kind == "name":
            return self.parse_name(tok)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)

    def parse_name(self, tok: Token) -> QHPolynomial:
        if tok.text in _VARS:
            if not self.state_vars:
                raise ParseError(f"variable {tok.text!r} not allowed here",
                                 tok.line, tok.column)
            return QHPolynomial.variable(tok.text, self.params)
        if tok.text not in self.params:
            raise ParseError(f"undeclared identifier {tok.text!r}", tok.line, tok.column)
        return QHPolynomial({(0, 0, 0): ParamPolynomial.variable(tok.text, self.params)},
                            self.params)


def _rational(f: QHPolynomial) -> Optional[Fraction]:
    """The rational number `f` is, or None when it is not a constant of the
    coefficient field."""
    if not f.terms:
        return Fraction(0)
    if len(f.terms) == 1:
        ((m, c),) = f.terms.items()
        if not any(m) and c.is_constant():
            return c.constant_value()
    return None


@dataclass(frozen=True)
class SystemSource:
    """Parsed system: declared parameters and the polynomial of each component."""

    parameter_names: Tuple[str, ...]
    components: Tuple[QHPolynomial, QHPolynomial, QHPolynomial]  # dx, dy, dz

    def to_field(self) -> VectorField3:
        return VectorField3(*self.components)

    def to_text(self) -> str:
        """Canonical textual form; re-parsing yields an equal field."""
        lines = []
        if self.parameter_names:
            lines.append("params " + " ".join(self.parameter_names))
        field3 = self.to_field()
        for name, comp in zip(("dx", "dy", "dz"), field3.components):
            lines.append(f"{name} = {comp}")
        return "\n".join(lines) + "\n"


def parse_system(text: str) -> SystemSource:
    """Parse an input file into a SystemSource; raise ParseError with position."""
    params: Optional[Tuple[str, ...]] = None
    components: Dict[str, QHPolynomial] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        head = stripped.split()[0]
        if head == "params":
            if params is not None:
                raise ParseError("duplicate params line", lineno)
            if components:
                raise ParseError("params line must precede the equations", lineno)
            names = stripped.split()[1:]
            if not names:
                raise ParseError("params line declares no names", lineno)
            for name in names:
                if name in _VARS:
                    raise ParseError(f"parameter name {name!r} clashes with a variable",
                                     lineno)
                if not _NAME.fullmatch(name):
                    raise ParseError(f"invalid parameter name {name!r}", lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate parameter name", lineno)
            params = tuple(names)
            continue
        if head in ("dx", "dy", "dz"):
            if "=" not in stripped:
                raise ParseError(f"missing '=' in {head} line", lineno)
            lhs, rhs = stripped.split("=", 1)
            if lhs.strip() != head:
                raise ParseError(f"malformed left-hand side {lhs.strip()!r}", lineno)
            if head in components:
                raise ParseError(f"duplicate {head} line", lineno)
            col_offset = raw.index("=") + 1
            tokens = _tokenize_expr(rhs, lineno, col_offset)
            if not tokens:
                raise ParseError(f"empty right-hand side for {head}", lineno)
            components[head] = _ExprParser(tokens, lineno, params or ()).parse()
            continue
        raise ParseError(f"unrecognized line {stripped!r}", lineno)
    missing = [name for name in ("dx", "dy", "dz") if name not in components]
    if missing:
        raise ParseError(f"missing component lines: {', '.join(missing)}")
    return SystemSource(parameter_names=params or (),
                        components=(components["dx"], components["dy"], components["dz"]))


def parse_polynomial(text: str, params: Iterable[str]) -> ParamPolynomial:
    """Parse a single expression in the declared parameters only."""
    params = tuple(params)
    tokens = _tokenize_expr(text, 1, 0)
    if not tokens:
        raise ParseError("empty expression", 1)
    qh = _ExprParser(tokens, 1, params, state_vars=False).parse()
    return qh.coefficient((0, 0, 0))
