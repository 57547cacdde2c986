from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starbundle import (
    Chart,
    Coefficient,
    EquivariantFunction,
    GaussianRational,
    ParseError,
    format_function,
    lower_expression,
    parse_expression,
)
from starbundle import parser
from starbundle.parser import JetSymbol, LoweringContext, Mul
from starbundle.scalars import HBAR_OVER_I

CH = Chart.real(1)
CH2 = Chart.real(2)
BC = Chart.bargmann()


class TestParsing:
    def test_polynomial_with_rational(self):
        f = lower_expression("p1^2*q1 + (1/2)*hbar", CH)
        expected = CH.var("p1") ** 2 * CH.var("q1") \
            + CH.constant(Coefficient.hbar(1, Fraction(1, 2)))
        assert f == expected

    def test_jet_symbol(self):
        ast = parse_expression("psi(2)", CH)
        assert ast == JetSymbol((2,))
        f = LoweringContext(CH, ("q1",)).lower(ast)
        assert f == EquivariantFunction.jet(CH, ("q1",), (2,))

    def test_bargmann_variables(self):
        f = lower_expression("3*z*zb", BC)
        assert f == 3 * BC.var("z") * BC.var("zb")

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
        assert f == CH.var("p1") * Coefficient.hbar(-1, GaussianRational(0, 1))

    def test_unary_minus(self):
        assert lower_expression("-p1 + q1", CH) == CH.var("q1") - CH.var("p1")
        assert lower_expression("-(1/2)", CH) == CH.constant(Fraction(-1, 2))

    def test_power_binds_tighter_than_product(self):
        ast = parse_expression("2*q1^3", CH)
        assert isinstance(ast, Mul)
        assert lower_expression("2*q1^3", CH) == 2 * CH.var("q1") ** 3

    def test_multi_index_jets(self):
        f = lower_expression("psi(1,2)", CH2, jet_vars=CH2.position_vars)
        assert f == EquivariantFunction.jet(CH2, CH2.position_vars, (1, 2))


class TestParseErrors:
    def test_syntax_error_carries_column(self):
        with pytest.raises(ParseError) as err:
            parse_expression("p1 + * q1", CH)
        assert err.value.column == 6

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_expression("x1", CH)

    def test_dimension_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_expression("p2", CH)
        parse_expression("p2", CH2)  # fine at dimension 2

    def test_real_variables_rejected_on_bargmann(self):
        with pytest.raises(ParseError):
            parse_expression("p1", BC)

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
        with pytest.raises(ParseError):
            parse_expression("p1 q1", CH)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_expression("p1 @ q1", CH)
        assert err.value.column == 4

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("2q1", CH)


class TestRoundTrip:
    CASES = [
        "p1^2*q1 + (1/2)*hbar",
        "(hbar/i)*q1*psi(1)*e(1)",
        "-p1 + 2*q1 - (3/2)",
        "i*hbar^-2*p1",
        "(1/2 - 3*i)*q1",
        "psi(0)^2*e(-1)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_reparse_fixed_cases(self, text):
        f = lower_expression(text, CH, jet_vars=CH.position_vars)
        printed = format_function(f)
        again = lower_expression(printed, CH, jet_vars=CH.position_vars)
        assert again == f
        assert format_function(again) == printed

    def test_canonical_output_examples(self):
        f = lower_expression("q1*p1 + hbar/i*1/2", CH)
        assert format_function(f) == "p1*q1 + (1/2)*(hbar/i)"

    def test_zero_prints_as_zero(self):
        assert format_function(CH.zero()) == "0"
        assert lower_expression("q1 - q1", CH).is_zero()


# -- lowering against the ring-operation fold --------------------------------
#
# The fold below is how lowering worked before it collected sums of products
# into one term dict: every node lowers to a function, and the chains of
# sums and products fold with the ring operations.  It is kept here, and
# only here, as the reference the one lowering path must agree with.


def _reference_lower(ctx, node):
    chart = ctx.chart
    if isinstance(node, parser.Rational):
        return chart.constant(GaussianRational(node.value))
    if isinstance(node, parser.ImagUnit):
        return chart.constant(GaussianRational(0, 1))
    if isinstance(node, parser.HbarSymbol):
        scale = GaussianRational(0, -1) if node.over_i else GaussianRational(1)
        return chart.constant(Coefficient.hbar(1, scale))
    if isinstance(node, parser.Variable):
        return chart.var(node.name)
    if isinstance(node, JetSymbol):
        if ctx.jet_vars is None:
            raise ParseError("jet symbols are not allowed in this context")
        if len(node.orders) != len(ctx.jet_vars):
            raise ParseError(
                f"psi takes {len(ctx.jet_vars)} derivative orders here, got {len(node.orders)}"
            )
        return EquivariantFunction.jet(chart, ctx.jet_vars, node.orders)
    if isinstance(node, parser.AngularPhase):
        return EquivariantFunction(chart, chart.one().terms, theta_weight=node.weight)
    if isinstance(node, parser.Neg):
        return -_reference_lower(ctx, node.operand)
    if isinstance(node, (parser.Add, parser.Sub, Mul)):
        return _reference_chain(ctx, node)
    if isinstance(node, parser.Pow):
        base = _reference_lower(ctx, node.base)
        if abs(node.exponent) > parser.MAX_EXPONENT and not _reference_is_unit_term(base):
            raise ParseError(
                f"exponent {node.exponent} exceeds {parser.MAX_EXPONENT} on a base that is not "
                "a single term with a unit scalar"
            )
        if _reference_largest_exponent(base) * abs(node.exponent) >= 10 ** parser.MAX_DIGITS:
            raise ParseError(
                f"this power makes an exponent longer than MAX_DIGITS = {parser.MAX_DIGITS} digits"
            )
        if node.exponent >= 0:
            if len(base.terms) > 1:
                parser._check_terms(comb(len(base.terms) + node.exponent - 1, node.exponent),
                                    f"a {len(base.terms)}-term base to the power {node.exponent}")
            return base ** node.exponent
        value = _reference_invert_scalar(base)
        return base.chart.constant(value ** (-node.exponent))
    raise ParseError(f"cannot lower node {node!r}")


def _reference_chain(ctx, node):
    spine = []
    while isinstance(node, (parser.Add, parser.Sub, Mul)):
        spine.append(node)
        node = node.left
    value = _reference_lower(ctx, node)
    for link in reversed(spine):
        right = _reference_lower(ctx, link.right)
        if isinstance(link, Mul):
            parser._check_terms(len(value.terms) * len(right.terms),
                                f"a product of {len(value.terms)} and {len(right.terms)} terms")
            value = value * right
            continue
        try:
            value = value + right if isinstance(link, parser.Add) else value - right
        except Exception as exc:
            verb = "add" if isinstance(link, parser.Add) else "subtract"
            raise ParseError(f"cannot {verb} these subexpressions: {exc}") from None
    return value


def _reference_is_unit_term(f):
    if len(f.terms) != 1:
        return False
    (coeff,) = f.terms.values()
    entries = coeff.items()
    return len(entries) == 1 and entries[0][1] in (1, -1, GaussianRational(0, 1),
                                                    GaussianRational(0, -1))


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
    return Coefficient({-k: GaussianRational(1) / c})


def _outcome(lower, ctx, ast):
    try:
        return lower(ctx, ast)
    except ParseError as exc:
        return str(exc)


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


class TestLoweringReference:
    @settings(max_examples=400, deadline=None)
    @given(text=_grammar_texts(list(CH2.variables), 2), with_jets=st.booleans())
    def test_lowering_equals_the_ring_operation_fold(self, text, with_jets):
        try:
            ast = parse_expression(text, CH2)
        except ParseError:
            assume(False)
        ctx = LoweringContext(CH2, CH2.position_vars if with_jets else None)
        expected = _outcome(_reference_lower, ctx, ast)
        assert _outcome(LoweringContext.lower, ctx, ast) == expected

    @pytest.mark.parametrize("text", [
        "p1 + p1 - 2*p1", "e(1) - e(1) + e(2)*q1", "e(1) + e(2)", "e(1) - e(2)*q2",
        "(p1 + 1)^-1", "(p1 - p1)^-1", "(1 + hbar)^-1", "0^-1", "hbar^-2*(hbar/i)^3",
        "(i*p1)^65", "(2*p1)^65", "(p1 + q1)^65", "0*(p1 + 1)^64*(q1 + 1)^64",
        "(p1 + 1)^64*(q1 + 1)^15", "(p1 + 1)^64*(q1 + 1)^14*p2", "psi(1,0)^2*e(1)*q1^0",
        "-(p1 - q1)*(p1 + q1) + p1^2", "3/4*(1/2 - i)^2*hbar^-1", "(e(1))^-1",
        "((0 + 0)^0)^-1", "((p1 + q1)^0)^-2*e(1)", "(p1 - p1)^0*psi(1,0)",
    ])
    def test_edge_cases_equal_the_fold(self, text):
        ast = parse_expression(text, CH2)
        ctx = LoweringContext(CH2, CH2.position_vars)
        assert _outcome(LoweringContext.lower, ctx, ast) == _outcome(_reference_lower, ctx, ast)


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
