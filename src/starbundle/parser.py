"""Expression grammar, read and lowered to equivariant functions in one pass.

Grammar (explicit multiplication; variables are 1-indexed):

    expr     := ["-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" ["-"] UINT)?
    atom     := RATIONAL | "i" | "hbar" ["/" "i"] | VAR
              | "psi" "(" UINT ("," UINT)* ")"
              | "e" "(" ["-"] UINT ")"
              | "(" expr ")"
    VAR      := "p"UINT | "q"UINT | "z" | "zb" | "theta"
    RATIONAL := UINT ["/" UINT]

A ``p``/``q`` index is written canonically: ``p1``, not ``p01``.
Negative ``^`` exponents are accepted so that Laurent powers of hbar
round-trip through the printer; they lower successfully only on
invertible scalar subexpressions.

Each grammar rule returns its lowered value, and each lowering check
runs as soon as its construct (atom, power, product or summand) has
been read, so the first error in reading order is the one reported.

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

from .algebra import THETA, EquivariantFunction, Monomial
from .errors import ParseError
from .geometry import Chart
from .scalars import C_I, HBAR_OVER_I, MAX_DIGITS, Coefficient

MAX_NESTING = 100
MAX_EXPONENT = 64
MAX_TERMS = 1000
_EXPONENT_BOUND = 10 ** MAX_DIGITS
_UNITS = (1, -1, C_I, -C_I)
_C_ZERO = Coefficient.zero()
_C_ONE = Coefficient.one()
_SIGNS = {1: _C_ONE, -1: -_C_ONE}
_ONE = (_C_ONE, (), (), 0)
_I = (C_I, (), (), 0)
_HBAR = (Coefficient.hbar(1), (), (), 0)
_HBAR_OVER_I = (HBAR_OVER_I, (), (), 0)


# -- tokenizer -----------------------------------------------------------


Token = namedtuple("Token", "kind text column")  # kind: "uint" | "name" | "sym" | "end"
_LONG_DIGIT_RUN = re.compile(r"\d{%d}" % (MAX_DIGITS + 1))
# Every character falls in one alternative, so the matches are contiguous
# and a running length gives each token's column.  \s, \d and [^\W_]
# are exactly str.isspace, str.isdecimal and str.isalnum; [^\W\d_] also
# takes numeric non-decimals such as "²", so a name's first character
# must pass str.isalpha as well.  Symbols, the most frequent, go first.
_TOKEN = re.compile(r"([-+*^(),/])|(\d+)|([^\W\d_][^\W_]*)|(\s+)|(.)", re.DOTALL)


def tokenize(text: str) -> list[Token]:
    long_run = _LONG_DIGIT_RUN.search(text)
    if long_run:
        raise ParseError(f"a digit run is longer than MAX_DIGITS = {MAX_DIGITS}",
                         column=long_run.start() + 1)
    tokens = []
    column = 1
    for sym, uint, name, space, bad in _TOKEN.findall(text):
        if sym:
            tokens.append(Token("sym", sym, column))
        elif uint:
            tokens.append(Token("uint", uint, column))
        elif name and name[0].isalpha():
            tokens.append(Token("name", name, column))
        elif not space:
            raise ParseError(f"unexpected character {(name or bad)[0]!r}", column=column)
        column += len(sym or uint or name or space)
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


# -- reader --------------------------------------------------------------


class _Reader:
    """Recursive descent over the tokens of one text, lowering as it reads.

    ``jet_vars`` is the jet family that psi symbols refer to, or None
    where jets are not allowed.  A sum lowers straight into one term
    dict.  A factor with one term is returned as a term (scalar, variable
    exponents, jet exponents, angular weight) and any other factor as a
    function; a product collects its single-term factors as one scalar,
    one map of exponents and one angular weight, and multiplies in only
    the factors with several terms.
    """

    def __init__(self, text: str, chart: Chart, jet_vars):
        self.tokens = tokenize(text)
        self.pos = 0
        self.chart = chart
        self.jet_vars = tuple(jet_vars) if jet_vars is not None else None
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

    def signed_uint(self) -> int:
        if self.at_sym("-"):
            self.advance()
            return -self.expect_uint()
        return self.expect_uint()

    # grammar rules

    def read(self) -> EquivariantFunction:
        f = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected trailing input {token.text!r}", column=token.column)
        return f

    def expr(self) -> EquivariantFunction:
        terms: dict = {}
        weight = 0
        verb, sign = None, 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        while True:
            product = self.term(sign)
            if product is not None:
                if terms and product[0] != weight:
                    raise ParseError(
                        f"cannot {verb} these subexpressions: cannot add functions of angular "
                        f"weight {weight} and {product[0]}"
                    )
                weight = product[0]
                for mono, coeff in product[1]:
                    total = terms.get(mono, _C_ZERO) + coeff
                    if total:
                        terms[mono] = total
                    else:
                        del terms[mono]
            if self.at_sym("+"):
                verb, sign = "add", 1
            elif self.at_sym("-"):
                verb, sign = "subtract", -1
            else:
                return EquivariantFunction(self.chart, terms, weight, self.jet_vars or ())
            self.advance()

    def term(self, sign: int):
        """``sign`` times a product of factors, as its angular weight and
        its (monomial, scalar) pairs, or None when it is zero.  The term
        bound is checked before each multiplication, as if the factors
        were multiplied one by one from the left."""
        scalar, exponents, jets, weight = _SIGNS[sign], {}, {}, 0
        poly = None  # the product of the factors with several terms
        count = None  # terms in the product so far
        while True:
            factor = self.factor()
            single = isinstance(factor, tuple)
            factor_count = (1 if factor[0] else 0) if single else len(factor.terms)
            if count is not None:
                _check_terms(count * factor_count,
                             f"a product of {count} and {factor_count} terms")
            if count == 0 or factor_count == 0:
                count = 0
            elif not single:
                poly = factor if poly is None else poly * factor
                count = len(poly.terms)
            else:
                count = count or 1
                factor_scalar, factor_vars, factor_jets, factor_weight = factor
                scalar = scalar * factor_scalar
                for v, e in factor_vars:
                    exponents[v] = exponents.get(v, 0) + e
                for alpha, e in factor_jets:
                    jets[alpha] = jets.get(alpha, 0) + e
                weight += factor_weight
            if not self.at_sym("*"):
                break
            self.advance()
        if count == 0:
            return None
        mono = Monomial(exponents.items(), jets.items()) if exponents or jets else Monomial.unit()
        if poly is None:
            return weight, ((mono, scalar),)
        single = EquivariantFunction(self.chart, {mono: scalar}, weight,
                                     self.jet_vars if jets else ())
        product = poly * single
        return product.theta_weight, product.terms.items()

    def factor(self):
        base = self.atom()
        if not self.at_sym("^"):
            return base
        self.advance()
        e = self.signed_uint()
        single = isinstance(base, tuple)
        if abs(e) > MAX_EXPONENT and not (single and _is_unit(base[0])):
            raise ParseError(
                f"exponent {e} exceeds {MAX_EXPONENT} on a base that is not "
                "a single term with a unit scalar"
            )
        terms = [base] if single else _terms(base)
        largest = max((abs(x) for term in terms for x in _exponents(term)), default=0)
        if largest * abs(e) >= _EXPONENT_BOUND:
            raise ParseError(
                f"this power makes an exponent longer than MAX_DIGITS = {MAX_DIGITS} digits"
            )
        if e == 0:
            return _ONE
        if not single:
            if e < 0:
                raise ParseError("negative powers are only defined for "
                                 + ("scalar subexpressions" if base.terms else "single-term scalars"))
            if len(base.terms) > 1:
                _check_terms(comb(len(base.terms) + e - 1, e),
                             f"a {len(base.terms)}-term base to the power {e}")
            return base ** e
        scalar, variables, jets, weight = base
        if e < 0:
            if variables or jets or weight:
                raise ParseError("negative powers are only defined for scalar subexpressions")
            if len(scalar.items()) != 1:
                raise ParseError("negative powers are only defined for single-term scalars")
            scalar, e = _C_ONE / scalar, -e
        return (scalar ** e, tuple((v, x * e) for v, x in variables),
                tuple((alpha, x * e) for alpha, x in jets), weight * e)

    def atom(self):
        token = self.advance()
        if token.kind == "uint":
            numerator = int(token.text)
            if self.at_sym("/"):
                self.advance()
                denominator = self.expect_uint()
                if denominator == 0:
                    raise ParseError("zero denominator", column=token.column)
                return Coefficient({0: Fraction(numerator, denominator)}), (), (), 0
            return Coefficient({0: Fraction(numerator)}), (), (), 0
        if token.kind == "sym" and token.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}",
                                 column=token.column)
            value = self.expr()
            self.expect_sym(")")
            self.depth -= 1
            return _terms(value)[0] if len(value.terms) == 1 else value
        if token.kind != "name":
            raise ParseError(f"expected an atom, found {token.text or 'end of input'!r}",
                             column=token.column)
        name = token.text
        if name == "i":
            return _I
        if name == "hbar":
            if not self.at_sym("/"):
                return _HBAR
            self.advance()
            over = self.peek()
            if over.kind != "name" or over.text != "i":
                raise ParseError("expected 'i' after 'hbar/'", column=over.column)
            self.advance()
            return _HBAR_OVER_I
        if name == "psi":
            self.expect_sym("(")
            orders = [self.expect_uint()]
            while self.at_sym(","):
                self.advance()
                orders.append(self.expect_uint())
            self.expect_sym(")")
            if self.jet_vars is None:
                raise ParseError("jet symbols are not allowed in this context")
            if len(orders) != len(self.jet_vars):
                raise ParseError(
                    f"psi takes {len(self.jet_vars)} derivative orders here, got {len(orders)}"
                )
            return _C_ONE, (), ((tuple(orders), 1),), 0
        if name == "e":
            self.expect_sym("(")
            weight = self.signed_uint()
            self.expect_sym(")")
            return _C_ONE, (), (), weight
        self.variable(name, token.column)
        return _C_ONE, ((name, 1),), (), 0

    def variable(self, name: str, column: int) -> None:
        """Refuse a name that is not a variable of the chart."""
        chart = self.chart
        if name == THETA:
            return
        if chart.kind == "bargmann":
            if name in ("z", "zb"):
                return
            raise ParseError(f"unknown variable {name!r} on the bargmann chart", column=column)
        index = name[1:]
        if name[0] in ("p", "q") and index.isdecimal() and index == str(int(index)):
            if 1 <= int(index) <= chart.n:
                return
            raise ParseError(
                f"variable {name!r} is out of range for dimension {chart.n}", column=column,
            )
        raise ParseError(f"unknown variable {name!r}", column=column)


def _check_terms(bound: int, what: str) -> None:
    if bound > MAX_TERMS:
        raise ParseError(f"{what} may have {bound} terms, more than {MAX_TERMS}")


def _terms(f: EquivariantFunction) -> list:
    """The terms of f as (scalar, variable exponents, jet exponents, angular weight)."""
    return [(coeff, mono.vars, mono.jets, f.theta_weight) for mono, coeff in f.terms.items()]


def _is_unit(scalar: Coefficient) -> bool:
    """+-1 or +-i times a power of hbar."""
    entries = scalar.items()
    return len(entries) == 1 and entries[0][1] in _UNITS


def _exponents(term):
    """The exponents of a term: of its variables, jets and hbar, and its angular weight."""
    scalar, variables, jets, weight = term
    yield weight
    for _, e in variables + jets:
        yield e
    for k, _ in scalar.items():
        yield k


def lower_expression(text: str, chart: Chart, jet_vars=None) -> EquivariantFunction:
    """Read ``text`` and lower it to a function on ``chart``; psi symbols
    refer to the jet family ``jet_vars`` and are refused without one."""
    return _Reader(text, chart, jet_vars).read()
