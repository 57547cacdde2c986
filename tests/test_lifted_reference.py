"""Differential tests: the one-dict lifted calculus against the fold of
intermediate functions it replaced.

The references below are the earlier implementations of
``EquivariantFunction.differentiate``, ``Derivation.__call__``, the
per-order sum of ``exponential_product`` and ``souriau_bracket``, built
from the public ring operations.  While a reference runs,
``Derivation.__call__`` is patched to the reference fold, so the driver
series and the lifts inside it use the fold too.
"""

from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficients, gaussian
from starbundle import (
    Chart,
    ChartError,
    Coefficient,
    Derivation,
    EquivariantFunction,
    WeightFactor,
    bargmann_gaussian,
    driver_tensor,
    horizontal_lift,
    momentum_phase,
    lower_expression,
    souriau_bracket,
)
from starbundle import products
from starbundle.algebra import THETA, Monomial
from starbundle.errors import StarBundleError
from starbundle.scalars import C_ONE, HBAR_OVER_I

CHARTS = {"real1": Chart.real(1), "real2": Chart.real(2), "real16": Chart.real(16),
          "bargmann": Chart.bargmann()}


# -- the references -----------------------------------------------------------


def _reference_differentiate(f, var):
    jet_pos = f.jet_vars.index(var) if var in f.jet_vars else None
    terms = {}

    def put(mono, coeff):
        s = terms.get(mono, 0) + coeff
        if s:
            terms[mono] = s
        else:
            terms.pop(mono, None)

    for mono, coeff in f.terms.items():
        vs = mono.var_map()
        e = vs.get(var, 0)
        if e:
            new_vs = dict(vs)
            new_vs[var] = e - 1
            put(Monomial(new_vs.items(), mono.jets), coeff.scaled(e))
        if jet_pos is not None:
            js = mono.jet_map()
            for alpha, je in mono.jets:
                shifted = list(alpha)
                shifted[jet_pos] += 1
                new_js = dict(js)
                new_js[alpha] = je - 1
                new_js[tuple(shifted)] = new_js.get(tuple(shifted), 0) + 1
                put(Monomial(vs.items(), new_js.items()), coeff.scaled(je))
    out = EquivariantFunction(f.chart, terms, f.theta_weight, f.jet_vars, f.weight_factor)
    if var == THETA:
        if f.theta_weight:
            out = out + f * gaussian(0, f.theta_weight)
        return out
    if var not in f.chart.variables:
        raise ChartError(f"cannot differentiate along unknown variable {var!r}")
    if f.weight_factor is not None:
        out = out + f * f.weight_factor.log_derivative(var)
    return out


def _reference_apply(derivation, f):
    if f.chart is not derivation.chart and f.chart != derivation.chart:
        raise ChartError("derivation and function live on different charts")
    out = None
    for v, poly in derivation.coeffs.items():
        term = poly * _reference_differentiate(f, v)
        out = term if out is None else out + term
    return EquivariantFunction.zero(derivation.chart) if out is None else out


def _folded():
    return mock.patch.object(Derivation, "__call__", _reference_apply)


def _reference_series(driver, f, g, coefficient):
    with _folded():
        work = products._charge(0, f, g)
        total = f * g
        terms = [(f, g)]
        coeff_power = C_ONE
        budget = f.chart_degree() + g.chart_degree() + 2 * len(driver.pairs) + 4
        for k in range(1, budget + 1):
            terms = driver.apply_once(terms)
            if not terms:
                return total
            coeff_power = coeff_power * coefficient
            scale = coeff_power.scaled(1, factorial(k))
            partial = EquivariantFunction.zero(driver.chart)
            for left, right in terms:
                work = products._charge(work, left, right)
                partial = partial + left * right
            total = total + partial * scale
    raise ChartError("driver series failed to terminate (non-polynomial input?)")


def _reference_bracket(chart, f, g):
    if f.chart != chart or g.chart != chart:
        raise ChartError("bracket arguments must live on the given chart")
    with _folded():
        out = EquivariantFunction.zero(chart)
        for scale, u, v in chart.bracket_pairs:
            lu = horizontal_lift(chart, u)
            lv = horizontal_lift(chart, v)
            out = out + (lu(f) * lv(g) - lv(f) * lu(g)) * scale
        return out


def _outcome(fn, *args):
    """The value, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except StarBundleError as exc:
        return (type(exc).__name__, str(exc))


# -- inputs -------------------------------------------------------------------


def _jet_family(chart):
    return chart.position_vars if chart.kind == "real" else ("z",)


def _factor(chart):
    return momentum_phase(chart) if chart.kind == "real" else bargmann_gaussian(chart)


@st.composite
def _functions(draw, chart, plain=False):
    """Up to three terms of degree <= 3 in at most two chart variables and
    theta, coefficients with hbar powers -2..2; unless plain, with up to
    two jet symbols per term, an angular weight and the chart's weight
    factor, each maybe."""
    variables = list(chart.variables) + [THETA]
    jets = () if plain else draw(st.sampled_from([(), _jet_family(chart)]))
    arity = len(jets)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = draw(st.dictionaries(st.sampled_from(variables), st.integers(1, 3), max_size=2))
        jet = {}
        for _ in range(draw(st.integers(0, 2)) if arity else 0):
            alpha = [0] * arity
            for k in draw(st.lists(st.integers(0, arity - 1), max_size=2)):
                alpha[k] += 1
            jet[tuple(alpha)] = draw(st.integers(1, 2))
        terms[Monomial(exps.items(), jet.items())] = draw(coefficients)
    if plain:
        return EquivariantFunction(chart, terms)
    weight = draw(st.integers(-2, 2))
    factor = _factor(chart) if draw(st.booleans()) else None
    return EquivariantFunction(chart, terms, theta_weight=weight, jet_vars=jets,
                               weight_factor=factor)


def _charts():
    return st.sampled_from(sorted(CHARTS)).map(CHARTS.get)


def _polarized_directions(chart):
    """The directions along which the lifted field's multiplier cancels on
    the chart's standard weight factor at angular weight 1."""
    return chart.position_vars if chart.kind == "real" else ("zb",)


def _partial_factor(chart, missing):
    """The chart's weight factor with the log-derivative of ``missing`` left out."""
    table = dict(_factor(chart).log_derivatives)
    del table[missing]
    return WeightFactor("partial", table)


@st.composite
def _with_factor(draw, chart, weight=None, partial=False):
    """A drawn function carrying the chart's weight factor, or the factor
    without one variable's entry, at the given angular weight."""
    f = draw(_functions(chart))
    factor = _factor(chart)
    if partial:
        factor = _partial_factor(chart, draw(st.sampled_from(chart.variables)))
    return EquivariantFunction(chart, f.terms, theta_weight=f.theta_weight if weight is None
                               else weight, jet_vars=f.jet_vars, weight_factor=factor)


@st.composite
def _derivations(draw, chart):
    keys = draw(st.lists(st.sampled_from(list(chart.variables) + [THETA]),
                         max_size=3, unique=True))
    return Derivation(chart, {v: draw(_functions(chart, plain=True)) for v in keys})


# -- derivatives and derivations ----------------------------------------------


class TestDerivationReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_differentiate_equals_the_reference(self, data):
        chart = data.draw(_charts())
        f = data.draw(_functions(chart))
        var = data.draw(st.sampled_from(list(chart.variables) + [THETA]))
        assert f.differentiate(var) == _reference_differentiate(f, var)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_derivation_equals_the_fold(self, data):
        chart = data.draw(_charts())
        d = data.draw(_derivations(chart))
        f = data.draw(_functions(chart))
        assert d(f) == _reference_apply(d, f)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_horizontal_lifts_equal_the_fold(self, data):
        chart = data.draw(_charts())
        f = data.draw(_functions(chart))
        var = data.draw(st.sampled_from(chart.variables))
        lift = horizontal_lift(chart, var)
        assert lift(f) == _reference_apply(lift, f)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cancelling_multipliers_equal_the_fold(self, data):
        # the momentum phase along q_k and the Gaussian along zb cancel
        # against the connection term at angular weight 1
        chart = data.draw(_charts())
        f = data.draw(_with_factor(chart, weight=1))
        lift = horizontal_lift(chart, data.draw(st.sampled_from(_polarized_directions(chart))))
        assert lift(f) == _reference_apply(lift, f)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_missing_log_derivative_raises_as_in_the_fold(self, data):
        chart = data.draw(_charts())
        f = data.draw(_with_factor(chart, partial=True))
        d = data.draw(_derivations(chart))
        var = data.draw(st.sampled_from(chart.variables))
        assert _outcome(d, f) == _outcome(_reference_apply, d, f)
        assert _outcome(f.differentiate, var) == _outcome(_reference_differentiate, f, var)

    def test_unknown_variable_refused(self):
        with pytest.raises(ChartError, match="unknown variable"):
            CHARTS["real1"].var("p1").differentiate("q2")


# -- the exponential series -----------------------------------------------------


def _series_case(data):
    chart = data.draw(_charts())
    kinds = ["moyal", "wick"] if chart.kind == "bargmann" else ["normal", "antinormal", "moyal"]
    kind = data.draw(st.sampled_from(kinds))
    f = data.draw(_functions(chart, plain=True).filter(lambda h: h.is_observable()))
    if data.draw(st.booleans()):
        g = data.draw(_functions(chart))
        return driver_tensor(kind, chart).lift(), f, g, HBAR_OVER_I
    g = data.draw(_functions(chart, plain=True).filter(lambda h: h.is_observable()))
    return driver_tensor(kind, chart), f, g, products.star_coefficient(kind)


def _charges(series, *args):
    """The series' value and every count it passed to ``_charge``."""
    seen = []
    original = products._charge

    def recording(work, a, b):
        seen.append(len(a.terms) * len(b.terms))
        return original(work, a, b)

    with mock.patch.object(products, "_charge", recording):
        value = series(*args)
    return value, seen


class TestSeriesReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_series_equals_the_per_order_sum(self, data):
        driver, f, g, coefficient = _series_case(data)
        value, charged = _charges(products.exponential_product, driver, f, g, coefficient)
        expected, reference_charged = _charges(_reference_series, driver, f, g, coefficient)
        assert value == expected
        assert charged == reference_charged

    def test_charge_counts_on_a_wave_with_jets(self):
        chart = CHARTS["real2"]
        f = chart.var("p1") ** 2 * chart.var("q2") + chart.var("q1") * chart.var("p2")
        g = EquivariantFunction(chart, (chart.var("q1") + chart.var("q2") ** 2).terms,
                                theta_weight=1)
        g = g * EquivariantFunction.jet(chart, chart.position_vars)
        driver = driver_tensor("moyal", chart).lift()
        value, charged = _charges(products.exponential_product, driver, f, g, HBAR_OVER_I)
        expected, reference_charged = _charges(_reference_series, driver, f, g, HBAR_OVER_I)
        assert value == expected
        assert charged == reference_charged and len(charged) == 4


# -- the Souriau bracket --------------------------------------------------------


class TestBracketReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bracket_equals_the_reference(self, data):
        chart = data.draw(_charts())
        f = data.draw(_functions(chart))
        g = data.draw(_functions(chart))
        assert _outcome(souriau_bracket, chart, f, g) == _outcome(_reference_bracket, chart, f, g)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bracket_with_a_missing_log_derivative_equals_the_reference(self, data):
        chart = data.draw(_charts())
        f = data.draw(_with_factor(chart, partial=True) | _functions(chart))
        g = data.draw(_with_factor(chart, partial=True) | _functions(chart))
        assert _outcome(souriau_bracket, chart, f, g) == _outcome(_reference_bracket, chart, f, g)

    @pytest.mark.parametrize("name", sorted(CHARTS))
    def test_constant_f_still_lifts_g_for_its_errors(self, name):
        # lv(g) is skipped when lu(f) vanishes, yet the missing entry
        # must raise just as lv(g) did
        chart = CHARTS[name]
        f = chart.constant(3)
        for missing in chart.variables:
            g = EquivariantFunction(chart, chart.var(chart.variables[0]).terms, theta_weight=1,
                                    weight_factor=_partial_factor(chart, missing))
            got = _outcome(souriau_bracket, chart, f, g)
            assert got == _outcome(_reference_bracket, chart, f, g)
            assert got == ("WeightFactorError", "weight factor 'partial' has no "
                           f"log-derivative entry for {missing!r}")

    def test_two_weight_factors_raise_as_before(self):
        chart = CHARTS["real1"]
        f = EquivariantFunction(chart, chart.var("q1").terms, weight_factor=_factor(chart))
        got = _outcome(souriau_bracket, chart, f, f)
        assert got == _outcome(_reference_bracket, chart, f, f)
        assert got[0] == "WeightFactorError"


# -- fixed inputs that carry every feature at once ------------------------------


def _rich_pair(chart):
    """An observable with hbar^-1, and a wave with the chart's weight factor,
    a jet family, an explicit theta monomial and hbar^-1."""
    if chart.kind == "bargmann":
        f = lower_expression("(1+i)*z*zb + hbar^-1*zb^2", chart)
    else:
        n = chart.n
        f = lower_expression(f"(1+i)*p1*q{n} + hbar^-1*q1^2 + p{n}", chart)
    jets = _jet_family(chart)
    theta = Monomial([(THETA, 1), (chart.variables[0], 1)], [((1,) + (0,) * (len(jets) - 1), 1)])
    plain = Monomial([(chart.variables[-1], 1)], [((0,) * len(jets), 1)])
    g = EquivariantFunction(chart, {theta: Coefficient.hbar(-1, gaussian(2, -1)),
                                    plain: Coefficient.hbar(1)},
                            theta_weight=1, jet_vars=jets, weight_factor=_factor(chart))
    return f, g


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_every_feature_at_once_equals_the_references(name):
    chart = CHARTS[name]
    f, g = _rich_pair(chart)
    for var in list(chart.variables) + [THETA]:
        assert g.differentiate(var) == _reference_differentiate(g, var)
        lift = horizontal_lift(chart, var) if var != THETA else chart.reeb_field()
        assert lift(g) == _reference_apply(lift, g)
    kinds = ["moyal", "wick"] if chart.kind == "bargmann" else ["normal", "antinormal", "moyal"]
    for kind in kinds:
        driver = driver_tensor(kind, chart).lift()
        value, charged = _charges(products.exponential_product, driver, f, g, HBAR_OVER_I)
        expected, reference_charged = _charges(_reference_series, driver, f, g, HBAR_OVER_I)
        assert value == expected and charged == reference_charged
    assert souriau_bracket(chart, f, g) == _reference_bracket(chart, f, g)
    assert souriau_bracket(chart, g, f) == _reference_bracket(chart, g, f)
