"""Expression parser and lowering to equivariant functions.

Grammar (explicit multiplication; variables are 1-indexed):

    expr     := ["-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" ["-"] UINT)?
    atom     := RATIONAL | "i" | "hbar" ["/" "i"] | VAR
              | "psi" "(" UINT ("," UINT)* ")"
              | "e" "(" ["-"] UINT ")"
              | "(" expr ")"
    VAR      := "p"UINT | "q"UINT | "z" | "zb"
    RATIONAL := UINT ["/" UINT]

Negative ``^`` exponents are accepted so that Laurent powers of hbar
round-trip through the printer; they lower successfully only on
invertible scalar subexpressions.

Limits keep hostile input bounded: parentheses nest at most
``MAX_NESTING`` deep, and ``|exponent|`` may exceed ``MAX_EXPONENT``
only when the base is a single term whose scalar is a unit (+-1 or
+-i) times a power of hbar, so that the power just adds exponents.
Before each product and power, lowering bounds the terms it could
produce -- ``len(a) * len(b)`` for ``a * b``, and ``comb(t + e - 1, e)``
(the monomials of degree e in t terms) for a t-term base to the e-th
power -- and refuses one whose bound exceeds ``MAX_TERMS``.  A run of
digits, in a number or in a name, may be at most ``MAX_DIGITS`` long
(the printable size of :mod:`starbundle.scalars`), and a power may not
make any exponent -- of a variable, a jet, hbar or the angular weight
-- reach ``10^MAX_DIGITS``, which nested powers such as ``(p1^N)^N``
would.  All five raise :class:`ParseError`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import comb

from .algebra import EquivariantFunction
from .errors import ParseError
from .geometry import Chart
from .scalars import MAX_DIGITS, Coefficient, GaussianRational

MAX_NESTING = 100
MAX_EXPONENT = 64
MAX_TERMS = 1000
_EXPONENT_BOUND = 10 ** MAX_DIGITS
_UNITS = (1, -1, GaussianRational(0, 1), GaussianRational(0, -1))


# -- AST -----------------------------------------------------------------
#
# Immutable nodes, built by the parser and dispatched on with isinstance.

Rational = namedtuple("Rational", "value")  # a Fraction
ImagUnit = namedtuple("ImagUnit", ())
HbarSymbol = namedtuple("HbarSymbol", "over_i", defaults=(False,))
Variable = namedtuple("Variable", "name")
JetSymbol = namedtuple("JetSymbol", "orders")  # one derivative order per jet variable
AngularPhase = namedtuple("AngularPhase", "weight")
Neg = namedtuple("Neg", "operand")
Add = namedtuple("Add", "left right")
Sub = namedtuple("Sub", "left right")
Mul = namedtuple("Mul", "left right")
Pow = namedtuple("Pow", "base exponent")


# -- tokenizer -----------------------------------------------------------


Token = namedtuple("Token", "kind text column")  # kind: "uint" | "name" | "sym" | "end"
_SYMBOLS = set("+-*^(),/")
_LONG_DIGIT_RUN = re.compile(r"\d{%d}" % (MAX_DIGITS + 1))


def tokenize(text: str) -> list[Token]:
    long_run = _LONG_DIGIT_RUN.search(text)
    if long_run:
        raise ParseError(f"a digit run is longer than MAX_DIGITS = {MAX_DIGITS}",
                         column=long_run.start() + 1)
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        column = i + 1
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(Token("uint", text[i:j], column))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(Token("name", text[i:j], column))
            i = j
        elif ch in _SYMBOLS:
            tokens.append(Token("sym", ch, column))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=column)
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


# -- parser --------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], chart: Chart):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_sym(self, symbol: str) -> Token:
        token = self.peek()
        if token.kind != "sym" or token.text != symbol:
            raise ParseError(f"expected {symbol!r}, found {token.text or 'end of input'!r}",
                             column=token.column)
        return self.advance()

    def expect_uint(self) -> int:
        token = self.peek()
        if token.kind != "uint":
            raise ParseError(f"expected a number, found {token.text or 'end of input'!r}",
                             column=token.column)
        self.advance()
        return int(token.text)

    def at_sym(self, symbol: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.text == symbol

    # grammar rules

    def parse(self):
        node = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected trailing input {token.text!r}", column=token.column)
        return node

    def expr(self):
        if self.at_sym("-"):
            self.advance()
            node = Neg(self.term())
        else:
            node = self.term()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance().text
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self):
        node = self.factor()
        while self.at_sym("*"):
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.at_sym("^"):
            self.advance()
            negative = False
            if self.at_sym("-"):
                self.advance()
                negative = True
            exponent = self.expect_uint()
            node = Pow(node, -exponent if negative else exponent)
        return node

    def signed_int(self) -> int:
        negative = False
        if self.at_sym("-"):
            self.advance()
            negative = True
        value = self.expect_uint()
        return -value if negative else value

    def atom(self):
        token = self.peek()
        if token.kind == "uint":
            self.advance()
            numerator = int(token.text)
            if self.at_sym("/"):
                self.advance()
                denominator = self.expect_uint()
                if denominator == 0:
                    raise ParseError("zero denominator", column=token.column)
                return Rational(Fraction(numerator, denominator))
            return Rational(Fraction(numerator))
        if token.kind == "sym" and token.text == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}",
                                 column=token.column)
            node = self.expr()
            self.expect_sym(")")
            self.depth -= 1
            return node
        if token.kind != "name":
            raise ParseError(f"expected an atom, found {token.text or 'end of input'!r}",
                             column=token.column)
        self.advance()
        name = token.text
        if name == "i":
            return ImagUnit()
        if name == "hbar":
            if self.at_sym("/"):
                self.advance()
                over = self.peek()
                if over.kind != "name" or over.text != "i":
                    raise ParseError("expected 'i' after 'hbar/'", column=over.column)
                self.advance()
                return HbarSymbol(over_i=True)
            return HbarSymbol()
        if name == "psi":
            self.expect_sym("(")
            orders = [self.expect_uint()]
            while self.at_sym(","):
                self.advance()
                orders.append(self.expect_uint())
            self.expect_sym(")")
            return JetSymbol(tuple(orders))
        if name == "e":
            self.expect_sym("(")
            weight = self.signed_int()
            self.expect_sym(")")
            return AngularPhase(weight)
        return self.variable(name, token.column)

    def variable(self, name: str, column: int):
        chart = self.chart
        if chart.kind == "bargmann":
            if name in ("z", "zb"):
                return Variable(name)
            raise ParseError(f"unknown variable {name!r} on the bargmann chart", column=column)
        if len(name) >= 2 and name[0] in ("p", "q") and name[1:].isdecimal():
            index = int(name[1:])
            if 1 <= index <= chart.n:
                return Variable(name)
            raise ParseError(
                f"variable {name!r} is out of range for dimension {chart.n}", column=column,
            )
        raise ParseError(f"unknown variable {name!r}", column=column)


def parse_expression(text: str, chart: Chart):
    """Parse to an AST, validating variable names against the chart."""
    return _Parser(tokenize(text), chart).parse()


# -- lowering ------------------------------------------------------------


class LoweringContext:
    """Chart plus the jet family (if any) that psi symbols refer to."""

    def __init__(self, chart: Chart, jet_vars=None):
        self.chart = chart
        self.jet_vars = tuple(jet_vars) if jet_vars is not None else None

    def lower(self, node) -> EquivariantFunction:
        chart = self.chart
        if isinstance(node, Rational):
            return chart.constant(GaussianRational(node.value))
        if isinstance(node, ImagUnit):
            return chart.constant(GaussianRational(0, 1))
        if isinstance(node, HbarSymbol):
            scale = GaussianRational(0, -1) if node.over_i else GaussianRational(1)
            return chart.constant(Coefficient.hbar(1, scale))
        if isinstance(node, Variable):
            return chart.var(node.name)
        if isinstance(node, JetSymbol):
            if self.jet_vars is None:
                raise ParseError("jet symbols are not allowed in this context")
            if len(node.orders) != len(self.jet_vars):
                raise ParseError(
                    f"psi takes {len(self.jet_vars)} derivative orders here, got {len(node.orders)}"
                )
            return EquivariantFunction.jet(chart, self.jet_vars, node.orders)
        if isinstance(node, AngularPhase):
            return EquivariantFunction(
                chart, EquivariantFunction.one(chart).terms, theta_weight=node.weight,
            )
        if isinstance(node, Neg):
            return -self.lower(node.operand)
        if isinstance(node, (Add, Sub, Mul)):
            return self._chain(node)
        if isinstance(node, Pow):
            base = self.lower(node.base)
            if abs(node.exponent) > MAX_EXPONENT and not _is_unit_term(base):
                raise ParseError(
                    f"exponent {node.exponent} exceeds {MAX_EXPONENT} on a base that is not "
                    "a single term with a unit scalar"
                )
            if _largest_exponent(base) * abs(node.exponent) >= _EXPONENT_BOUND:
                raise ParseError(
                    f"this power makes an exponent longer than MAX_DIGITS = {MAX_DIGITS} digits"
                )
            if node.exponent >= 0:
                if len(base.terms) > 1:
                    _check_terms(comb(len(base.terms) + node.exponent - 1, node.exponent),
                                 f"a {len(base.terms)}-term base to the power {node.exponent}")
                return base ** node.exponent
            value = _invert_scalar(base)
            return base.chart.constant(value ** (-node.exponent))
        raise ParseError(f"cannot lower node {node!r}")

    def _chain(self, node) -> EquivariantFunction:
        # Sums and products parse as left-deep chains as long as the input;
        # fold them in a loop so only parentheses add recursion depth.
        spine = []
        while isinstance(node, (Add, Sub, Mul)):
            spine.append(node)
            node = node.left
        value = self.lower(node)
        for link in reversed(spine):
            right = self.lower(link.right)
            if isinstance(link, Mul):
                _check_terms(len(value.terms) * len(right.terms),
                             f"a product of {len(value.terms)} and {len(right.terms)} terms")
                value = value * right
                continue
            try:
                value = value + right if isinstance(link, Add) else value - right
            except Exception as exc:
                verb = "add" if isinstance(link, Add) else "subtract"
                raise ParseError(f"cannot {verb} these subexpressions: {exc}") from None
        return value


def _check_terms(bound: int, what: str) -> None:
    if bound > MAX_TERMS:
        raise ParseError(f"{what} may have {bound} terms, more than {MAX_TERMS}")


def _is_unit_term(f: EquivariantFunction) -> bool:
    """A single term whose scalar is +-1 or +-i times a power of hbar."""
    if len(f.terms) != 1:
        return False
    (coeff,) = f.terms.values()
    entries = coeff.items()
    return len(entries) == 1 and entries[0][1] in _UNITS


def _largest_exponent(f: EquivariantFunction) -> int:
    """The largest |exponent| of a variable, jet, hbar or the angular weight in f."""
    exponents = [f.theta_weight]
    for mono, coeff in f.terms.items():
        exponents += [e for _, e in mono.vars + mono.jets]
        exponents += [k for k, _ in coeff.items()]
    return max(map(abs, exponents))


def _invert_scalar(f: EquivariantFunction) -> Coefficient:
    try:
        value = f.constant_value()
    except Exception:
        raise ParseError("negative powers are only defined for scalar subexpressions") from None
    entries = value.items()
    if len(entries) != 1:
        raise ParseError("negative powers are only defined for single-term scalars")
    k, c = entries[0]
    return Coefficient({-k: GaussianRational(1) / c})


def lower_expression(text: str, chart: Chart, jet_vars=None) -> EquivariantFunction:
    """Parse and lower in one step."""
    ast = parse_expression(text, chart)
    return LoweringContext(chart, jet_vars).lower(ast)
