import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbundle import (
    Chart,
    Coefficient,
    EquivariantFunction,
    ParseError,
    format_function,
    lower_expression,
)
from conftest import gaussian
from starbundle import parser
from starbundle.checks import Sampler
from starbundle.scalars import HBAR_OVER_I

CH = Chart.real(1)
CH2 = Chart.real(2)
BC = Chart.bargmann()


def _error(text, chart=CH, jet_vars=None):
    with pytest.raises(ParseError) as err:
        lower_expression(text, chart, jet_vars)
    return err.value


class TestParsing:
    def test_polynomial_with_rational(self):
        f = lower_expression("p1^2*q1 + (1/2)*hbar", CH)
        expected = CH.var("p1") ** 2 * CH.var("q1") \
            + CH.constant(Coefficient.hbar(1, Fraction(1, 2)))
        assert f == expected

    def test_jet_symbol(self):
        f = lower_expression("psi(2)", CH, ("q1",))
        assert f == EquivariantFunction.jet(CH, ("q1",), (2,))
        assert f.jet_vars == ("q1",)

    def test_bargmann_variables(self):
        f = lower_expression("3*z*zb", BC)
        assert f == 3 * BC.var("z") * BC.var("zb")

    def test_theta_is_a_variable_on_every_chart(self):
        for chart in (CH, CH2, BC):
            f = lower_expression("2*theta^2", chart)
            assert f == 2 * chart.var("theta") ** 2

    def test_hbar_over_i_atom(self):
        f = lower_expression("(hbar/i)*q1", CH)
        assert f == CH.var("q1") * HBAR_OVER_I

    def test_angular_phase(self):
        f = lower_expression("q1*e(1)", CH)
        assert f == EquivariantFunction(CH, CH.var("q1").terms, theta_weight=1)
        g = lower_expression("e(-2)", CH)
        assert g.theta_weight == -2

    def test_negative_hbar_power(self):
        f = lower_expression("i*hbar^-1*p1", CH)
        assert f == CH.var("p1") * Coefficient.hbar(-1, gaussian(0, 1))

    def test_unary_minus(self):
        assert lower_expression("-p1 + q1", CH) == CH.var("q1") - CH.var("p1")
        assert lower_expression("-(1/2)", CH) == CH.constant(Fraction(-1, 2))

    def test_power_binds_tighter_than_product(self):
        q = CH.var("q1")
        assert lower_expression("2*q1^3", CH) == 2 * q ** 3
        assert lower_expression("(2*q1)^3", CH) == 8 * q ** 3
        assert lower_expression("2*q1^3", CH) != lower_expression("(2*q1)^3", CH)

    def test_multi_index_jets(self):
        f = lower_expression("psi(1,2)", CH2, jet_vars=CH2.position_vars)
        assert f == EquivariantFunction.jet(CH2, CH2.position_vars, (1, 2))


class TestParseErrors:
    def test_syntax_error_carries_column(self):
        assert _error("p1 + * q1").column == 6

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            lower_expression("x1", CH)

    def test_dimension_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            lower_expression("p2", CH)
        assert lower_expression("p2", CH2) == CH2.var("p2")  # fine at dimension 2
        for name in ("p0", "p4"):
            assert str(_error(name, Chart.real(3))) \
                == f"variable {name!r} is out of range for dimension 3 (line 1, column 1)"

    @pytest.mark.parametrize("name", ["p01", "q001", "p\u0663"])
    def test_non_canonical_indices_are_unknown_variables(self, name):
        err = _error(name, Chart.real(3))
        assert str(err) == f"unknown variable {name!r} (line 1, column 1)"

    def test_real_variables_rejected_on_bargmann(self):
        with pytest.raises(ParseError, match="on the bargmann chart"):
            lower_expression("p1", BC)

    def test_jet_arity_checked(self):
        with pytest.raises(ParseError, match="derivative orders"):
            lower_expression("psi(1)", CH2, jet_vars=CH2.position_vars)

    def test_jets_need_a_family(self):
        with pytest.raises(ParseError, match="not allowed"):
            lower_expression("psi(1)", CH)

    def test_negative_power_of_variable_rejected(self):
        with pytest.raises(ParseError, match="negative powers"):
            lower_expression("q1^-1", CH)

    def test_trailing_garbage(self):
        assert str(_error("p1 q1")) == "unexpected trailing input 'q1' (line 1, column 4)"

    def test_unexpected_character(self):
        assert _error("p1 @ q1").column == 4

    def test_implicit_multiplication_rejected(self):
        assert str(_error("2q1")) == "unexpected trailing input 'q1' (line 1, column 2)"


class TestReadingOrder:
    """Each lowering check runs as soon as its construct has been read, so
    the first error in reading order is the one reported."""

    def test_a_lowering_error_before_a_syntax_error_wins(self):
        err = _error("psi(1) + * q1")
        assert str(err) == "jet symbols are not allowed in this context (line 1)"
        assert err.column is None

    def test_a_syntax_error_before_a_lowering_error_wins(self):
        err = _error("p1 + * psi(1)")
        assert str(err) == "expected an atom, found '*' (line 1, column 6)"

    def test_nesting_limit(self):
        depth = parser.MAX_NESTING
        assert lower_expression("(" * depth + "p1" + ")" * depth, CH) == CH.var("p1")
        err = _error("(" * (depth + 1) + "p1" + ")" * (depth + 1))
        assert str(err) == f"parentheses nest deeper than {depth} (line 1, column {depth + 1})"

    def test_sibling_groups_restore_the_depth(self):
        text = "+".join(["(p1)"] * 150)
        assert lower_expression(text, CH) == 150 * CH.var("p1")


class TestRoundTrip:
    CASES = [
        "p1^2*q1 + (1/2)*hbar",
        "(hbar/i)*q1*psi(1)*e(1)",
        "-p1 + 2*q1 - (3/2)",
        "i*hbar^-2*p1",
        "(1/2 - 3*i)*q1",
        "psi(0)^2*e(-1)",
        "theta^2*p1*e(2) - theta*psi(1)*e(2)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_reparse_fixed_cases(self, text):
        f = lower_expression(text, CH, jet_vars=CH.position_vars)
        printed = format_function(f)
        again = lower_expression(printed, CH, jet_vars=CH.position_vars)
        assert again == f
        assert format_function(again) == printed

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), chart=st.sampled_from([CH, CH2, BC]),
           with_jets=st.booleans())
    def test_functions_polynomial_in_theta_round_trip(self, seed, chart, with_jets):
        jet_vars = chart.variables if with_jets else None
        f = Sampler(seed).equivariant(chart, 3, jet_vars=jet_vars, theta_poly=True)
        assert lower_expression(format_function(f), chart, jet_vars) == f

    def test_canonical_output_examples(self):
        f = lower_expression("q1*p1 + hbar/i*1/2", CH)
        assert format_function(f) == "p1*q1 + (1/2)*(hbar/i)"

    def test_zero_prints_as_zero(self):
        assert format_function(CH.zero()) == "0"
        assert lower_expression("q1 - q1", CH).is_zero()


# -- the reader against the ring-operation fold --------------------------------
#
# The reader below is how lowering worked before sums of products were
# collected into one term dict: every construct lowers to a function as it
# is read, and sums and products fold with the ring operations.  It is kept
# here, and only here, as the reference the one reader must agree with, on
# every outcome: the value, or the error text and column.


class _ReferenceReader:
    def __init__(self, text, chart, jet_vars):
        self.tokens = parser.tokenize(text)
        self.pos = 0
        self.chart = chart
        self.jet_vars = jet_vars
        self.depth = 0

    def token(self):
        return self.tokens[self.pos]

    def take(self, symbol):
        token = self.token()
        if token.kind == "sym" and token.text == symbol:
            self.pos += 1
            return True
        return False

    def need(self, symbol):
        if not self.take(symbol):
            found = self.token().text or "end of input"
            raise ParseError(f"expected {symbol!r}, found {found!r}", column=self.token().column)

    def number(self):
        token = self.token()
        if token.kind != "uint":
            found = token.text or "end of input"
            raise ParseError(f"expected a number, found {found!r}", column=token.column)
        self.pos += 1
        return int(token.text)

    def signed_number(self):
        return -self.number() if self.take("-") else self.number()

    def read(self):
        value = self.sum()
        if self.token().kind != "end":
            raise ParseError(f"unexpected trailing input {self.token().text!r}",
                             column=self.token().column)
        return value

    def sum(self):
        value = -self.product() if self.take("-") else self.product()
        while self.token().kind == "sym" and self.token().text in ("+", "-"):
            verb = "add" if self.token().text == "+" else "subtract"
            self.pos += 1
            right = self.product()
            try:
                value = value + right if verb == "add" else value - right
            except Exception as exc:
                raise ParseError(f"cannot {verb} these subexpressions: {exc}") from None
        return value

    def product(self):
        value = self.power()
        while self.take("*"):
            right = self.power()
            parser._check_terms(len(value.terms) * len(right.terms),
                                f"a product of {len(value.terms)} and {len(right.terms)} terms")
            value = value * right
        return value

    def power(self):
        base = self.atom()
        if not self.take("^"):
            return base
        exponent = self.signed_number()
        if abs(exponent) > parser.MAX_EXPONENT and not _reference_is_unit_term(base):
            raise ParseError(
                f"exponent {exponent} exceeds {parser.MAX_EXPONENT} on a base that is not "
                "a single term with a unit scalar"
            )
        if _reference_largest_exponent(base) * abs(exponent) >= 10 ** parser.MAX_DIGITS:
            raise ParseError(
                f"this power makes an exponent longer than MAX_DIGITS = {parser.MAX_DIGITS} digits"
            )
        if exponent >= 0:
            if len(base.terms) > 1:
                parser._check_terms(comb(len(base.terms) + exponent - 1, exponent),
                                    f"a {len(base.terms)}-term base to the power {exponent}")
            return base ** exponent
        return self.chart.constant(_reference_invert_scalar(base) ** -exponent)

    def atom(self):
        chart, token = self.chart, self.token()
        self.pos += 1
        if token.kind == "uint":
            denominator = self.number() if self.take("/") else 1
            if denominator == 0:
                raise ParseError("zero denominator", column=token.column)
            return chart.constant(gaussian(Fraction(int(token.text), denominator)))
        if token.text == "(" and token.kind == "sym":
            self.depth += 1
            if self.depth > parser.MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {parser.MAX_NESTING}",
                                 column=token.column)
            value = self.sum()
            self.need(")")
            self.depth -= 1
            return value
        if token.kind != "name":
            found = token.text or "end of input"
            raise ParseError(f"expected an atom, found {found!r}", column=token.column)
        if token.text == "i":
            return chart.constant(gaussian(0, 1))
        if token.text == "hbar":
            if not self.take("/"):
                return chart.constant(Coefficient.hbar(1))
            if self.token().kind != "name" or self.token().text != "i":
                raise ParseError("expected 'i' after 'hbar/'", column=self.token().column)
            self.pos += 1
            return chart.constant(Coefficient.hbar(1, gaussian(0, -1)))
        if token.text == "psi":
            self.need("(")
            orders = [self.number()]
            while self.take(","):
                orders.append(self.number())
            self.need(")")
            if self.jet_vars is None:
                raise ParseError("jet symbols are not allowed in this context")
            if len(orders) != len(self.jet_vars):
                raise ParseError(
                    f"psi takes {len(self.jet_vars)} derivative orders here, got {len(orders)}"
                )
            return EquivariantFunction.jet(chart, self.jet_vars, orders)
        if token.text == "e":
            self.need("(")
            weight = self.signed_number()
            self.need(")")
            return EquivariantFunction(chart, chart.one().terms, theta_weight=weight)
        return _reference_variable(chart, token)


def _reference_variable(chart, token):
    name = token.text
    if name == "theta" or name in chart.variables:
        return chart.var(name)
    if chart.kind == "bargmann":
        raise ParseError(f"unknown variable {name!r} on the bargmann chart", column=token.column)
    if re.fullmatch(r"[pq](0|[1-9][0-9]*)", name):
        raise ParseError(f"variable {name!r} is out of range for dimension {chart.n}",
                         column=token.column)
    raise ParseError(f"unknown variable {name!r}", column=token.column)


def _reference_is_unit_term(f):
    if len(f.terms) != 1:
        return False
    (coeff,) = f.terms.values()
    entries = coeff.items()
    return len(entries) == 1 and entries[0][1] in (1, -1, gaussian(0, 1),
                                                    gaussian(0, -1))


def _reference_largest_exponent(f):
    exponents = [f.theta_weight]
    for mono, coeff in f.terms.items():
        exponents += [e for _, e in mono.vars + mono.jets]
        exponents += [k for k, _ in coeff.items()]
    return max(map(abs, exponents))


def _reference_invert_scalar(f):
    try:
        value = f.constant_value()
    except Exception:
        raise ParseError("negative powers are only defined for scalar subexpressions") from None
    entries = value.items()
    if len(entries) != 1:
        raise ParseError("negative powers are only defined for single-term scalars")
    k, c = entries[0]
    return Coefficient({-k: gaussian(1) / c})


def _outcome(lower, text, jet_vars):
    """The value, or the error text with its column."""
    try:
        return lower(text, CH2, jet_vars)
    except ParseError as exc:
        return str(exc)


def _reference_lower(text, chart, jet_vars):
    return _ReferenceReader(text, chart, jet_vars).read()


_EXPONENTS = st.integers(-3, 4) | st.sampled_from([0, 65, -65])


def _grammar_texts(variables, jet_arity):
    """Texts in the expression grammar: scalars, variables, psi(...) and
    e(m) atoms under sums, differences, products, unary minus, parentheses
    and powers, with repeated and cancelling terms."""
    jets = st.lists(st.integers(0, 2), min_size=jet_arity, max_size=jet_arity).map(
        lambda orders: "psi(" + ",".join(map(str, orders)) + ")")
    atoms = st.one_of(
        st.sampled_from(variables),
        st.sampled_from(["0", "1", "2", "3/4", "i", "hbar", "hbar/i"]),
        jets,
        st.integers(-2, 2).map(lambda m: f"e({m})"),
    )
    powers = st.builds(lambda a, e: f"{a}^{e}", atoms, _EXPONENTS)

    def extend(inner):
        return st.one_of(
            st.builds(lambda a, b: f"{a} + {b}", inner, inner),
            st.builds(lambda a, b: f"{a} - {b}", inner, inner),
            st.builds(lambda a, b: f"{a}*{b}", inner, inner),
            st.builds(lambda a: f"-{a}", inner),
            st.builds(lambda a: f"({a})", inner),
            st.builds(lambda a, e: f"({a})^{e}", inner, _EXPONENTS),
            st.builds(lambda a: f"{a} + {a}", inner),
            st.builds(lambda a: f"{a} - ({a})", inner),
            st.builds(lambda a, b: f"({a})*({b}) - ({b})*({a})", inner, inner),
        )

    return st.recursive(atoms | powers, extend, max_leaves=8)


# Tokens and names that break the grammar or the chart, for texts with
# errors in both reading and lowering.
_INSERTIONS = st.sampled_from([
    "*", "+", "-", "(", ")", "^", "^-", ",", "/", "@", " ", "2", "psi(1)", "psi(1,2)",
    "e(", "hbar/", "x", "z", "p0", "p3", "p01", "theta", "(p1+q1)^44",
])


@st.composite
def _with_insertions(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_INSERTIONS) + text[at:]
    return text


_TEXTS = _grammar_texts(list(CH2.variables), 2)


_EDGE_CASES = [
    "p1 + p1 - 2*p1", "e(1) - e(1) + e(2)*q1", "e(1) + e(2)", "e(1) - e(2)*q2",
    "(p1 + 1)^-1", "(p1 - p1)^-1", "(1 + hbar)^-1", "0^-1", "hbar^-2*(hbar/i)^3",
    "(i*p1)^65", "(2*p1)^65", "(p1 + q1)^65", "0*(p1 + 1)^64*(q1 + 1)^64",
    "(p1 + 1)^64*(q1 + 1)^15", "(p1 + 1)^64*(q1 + 1)^14*p2", "psi(1,0)^2*e(1)*q1^0",
    "-(p1 - q1)*(p1 + q1) + p1^2", "3/4*(1/2 - i)^2*hbar^-1", "(e(1))^-1",
    "((0 + 0)^0)^-1", "((p1 + q1)^0)^-2*e(1)", "(p1 - p1)^0*psi(1,0)",
    "(0)^-1", "(0)^65", "(e(1) - e(1)) + e(2)", "p1 + (e(1) - e(1)) + e(2)",
    "theta*p1 - p1*theta", "p01", "p0", "psi(1) + * q1", "p1 + * psi(1)",
    "(p1 + q1)^44 q1", "e(1) + e(2) +", "hbar/2", "3/0", "p1^-",
]


class TestLoweringReference:
    @settings(max_examples=400, deadline=None)
    @given(text=_TEXTS | _with_insertions(_TEXTS), with_jets=st.booleans())
    def test_lowering_equals_the_ring_operation_fold(self, text, with_jets):
        jet_vars = CH2.position_vars if with_jets else None
        assert _outcome(lower_expression, text, jet_vars) \
            == _outcome(_reference_lower, text, jet_vars)

    @pytest.mark.parametrize("text", _EDGE_CASES)
    def test_edge_cases_equal_the_fold(self, text):
        jet_vars = CH2.position_vars
        assert _outcome(lower_expression, text, jet_vars) \
            == _outcome(_reference_lower, text, jet_vars)

    @pytest.mark.parametrize("text", _EDGE_CASES)
    def test_edge_cases_without_jets_equal_the_fold(self, text):
        assert _outcome(lower_expression, text, None) == _outcome(_reference_lower, text, None)


def _reference_tokenize(text):
    """The character loop the regex tokenizer replaced, kept as its reference."""
    long_run = parser._LONG_DIGIT_RUN.search(text)
    if long_run:
        raise ParseError(f"a digit run is longer than MAX_DIGITS = {parser.MAX_DIGITS}",
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
            tokens.append(parser.Token("uint", text[i:j], column))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(parser.Token("name", text[i:j], column))
            i = j
        elif ch in "+-*^(),/":
            tokens.append(parser.Token("sym", ch, column))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=column)
    tokens.append(parser.Token("end", "", len(text) + 1))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.column)


# Grammar characters plus the Unicode classes where isspace, isdecimal,
# isalpha and isalnum differ from ASCII: other whitespace, other decimal
# digits, letters, marks, numeric non-decimals, underscore and controls.
_TOKEN_ALPHABET = st.sampled_from(list(
    "pqz19 +-*^(),/.#_\t\n\r\x0b\x0c\x1c\x85\xa0 　"
    "١३５\U0001d7d8éßΣλ中ǅʰ́ः²³½Ⅰ①ⅷ\x00\U0001f600"
))


class TestTokenizerReference:
    @settings(max_examples=500, deadline=None)
    @given(text=st.text(_TOKEN_ALPHABET, max_size=24) | st.text(max_size=12))
    def test_regex_tokenizer_equals_the_character_loop(self, text):
        assert _tokens_or_error(parser.tokenize, text) \
            == _tokens_or_error(_reference_tokenize, text)

    @pytest.mark.parametrize("text", [
        "", "   ", "p1 + q12^-2 ", "²p1", "p1²", "١٢*p1", "p_1", "p1\n",
        "9" * (parser.MAX_DIGITS + 1), "p" + "1" * (parser.MAX_DIGITS + 1), "x" * 50,
    ])
    def test_edge_cases_equal_the_character_loop(self, text):
        assert _tokens_or_error(parser.tokenize, text) \
            == _tokens_or_error(_reference_tokenize, text)
