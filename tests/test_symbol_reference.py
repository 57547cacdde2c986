"""Differential tests: operators through their symbols against the Leibniz
expansions they replaced.

The references below are the earlier implementations of
``DiffOperator.compose`` and ``DiffOperator.adjoint``, which expanded
each product of a coefficient and a derivative by the Leibniz rule over
the multi-indices below the derivative, and of ``agarwal_transform``,
which summed the Laplacian series until a term vanished.  The engine now
composes through the star series of the symbols and takes the adjoint
and the Agarwal transform through one ``exp(s * Laplacian)``.
"""

from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficients, gaussian, observables
from starbundle import (
    Chart,
    ChartError,
    Coefficient,
    DiffOperator,
    EquivariantFunction,
    Representation,
    agarwal_transform,
    yano_laplacian,
)
from starbundle.algebra import Monomial, add_into, higher_derivative
from starbundle.errors import StarBundleError

REPS = {
    f"{name}{n}": Representation.named(name, Chart.real(n))
    for name in ("position", "momentum") for n in (1, 2)
}
REPS["bargmann"] = Representation.named("bargmann", Chart.bargmann())


# -- the references -----------------------------------------------------------


def _multi_range(alpha):
    if not alpha:
        yield ()
        return
    head, tail = alpha[0], alpha[1:]
    for g in range(head + 1):
        for rest in _multi_range(tail):
            yield (g,) + rest


def _reference_compose(a, b):
    if a.rep != b.rep:
        raise ChartError("cannot compose operators in different representations")
    config = a.rep.config_vars
    terms = {}
    for alpha, c in a.terms.items():
        for beta, d in b.terms.items():
            for gamma in _multi_range(alpha):
                dg = higher_derivative(d, config, gamma)
                if dg.is_zero():
                    continue
                binom = 1
                for a_i, g_i in zip(alpha, gamma):
                    binom *= comb(a_i, g_i)
                new_alpha = tuple(a_i - g_i + b_i for a_i, g_i, b_i in zip(alpha, gamma, beta))
                add_into(terms, new_alpha, c * dg * binom)
    return DiffOperator(a.rep, terms)


def _reference_adjoint(a):
    if a.rep.chart.kind != "real":
        raise ChartError("the formal adjoint is defined for real-chart representations")
    config = a.rep.config_vars
    terms = {}
    for alpha, c in a.terms.items():
        sign = -1 if sum(alpha) % 2 else 1
        cbar = EquivariantFunction(a.rep.chart, {m: v.conjugate() for m, v in c.terms.items()})
        for gamma in _multi_range(alpha):
            cg = higher_derivative(cbar, config, gamma)
            if cg.is_zero():
                continue
            binom = 1
            for a_i, g_i in zip(alpha, gamma):
                binom *= comb(a_i, g_i)
            new_alpha = tuple(a_i - g_i for a_i, g_i in zip(alpha, gamma))
            add_into(terms, new_alpha, cg * (binom * sign))
    return DiffOperator(a.rep, terms)


def _reference_agarwal(chart, f):
    half_i_hbar = Coefficient.hbar(1, gaussian(0, 1) / 2)
    total = term = f
    k = 0
    while True:
        term = yano_laplacian(chart, term)
        if term.is_zero():
            return total
        k += 1
        total = total + term * (half_i_hbar ** k).scaled(1, factorial(k))


def _outcome(fn, *args):
    """The value, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except StarBundleError as exc:
        return (type(exc).__name__, str(exc))


# -- inputs -------------------------------------------------------------------


@st.composite
def _operators(draw, rep):
    """Up to three derivative orders with entries 0..3, each with up to three
    terms of degree <= 3 in the configuration variables, coefficients with
    hbar powers -2..2."""
    arity = len(rep.config_vars)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        alpha = tuple(draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity)))
        poly = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = draw(st.dictionaries(st.sampled_from(rep.config_vars), st.integers(1, 3)))
            poly[Monomial(exps.items())] = draw(coefficients)
        terms[alpha] = EquivariantFunction(rep.chart, poly)
    return DiffOperator(rep, terms)


def _reps():
    return st.sampled_from(sorted(REPS)).map(REPS.get)


def _zero(rep):
    return DiffOperator(rep, {})


# -- compose --------------------------------------------------------------------


class TestComposeReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_compose_equals_the_leibniz_expansion(self, data):
        rep = data.draw(_reps())
        a, b = data.draw(_operators(rep)), data.draw(_operators(rep))
        assert a.compose(b) == _reference_compose(a, b)

    @pytest.mark.parametrize("name", sorted(REPS))
    def test_zero_and_identity(self, name):
        rep = REPS[name]
        one, zero = DiffOperator.identity(rep), _zero(rep)
        a = DiffOperator(rep, {(1,) * len(rep.config_vars): rep.chart.var(rep.config_vars[0])})
        for left, right in ((one, one), (zero, one), (one, zero), (zero, zero), (a, one),
                            (one, a), (a, zero), (a, a)):
            assert left.compose(right) == _reference_compose(left, right)
        assert a.compose(one) == a == one.compose(a)
        assert a.compose(zero).is_zero() and zero.compose(a).is_zero()

    @pytest.mark.parametrize("left, right", [
        ("position1", "momentum1"), ("position1", "position2"), ("momentum2", "bargmann"),
    ])
    def test_mismatched_representations_raise_as_before(self, left, right):
        a, b = DiffOperator.identity(REPS[left]), DiffOperator.identity(REPS[right])
        got = _outcome(a.compose, b)
        assert got == _outcome(_reference_compose, a, b)
        assert got == ("ChartError", "cannot compose operators in different representations")


# -- adjoint --------------------------------------------------------------------


class TestAdjointReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_adjoint_equals_the_leibniz_expansion(self, data):
        rep = data.draw(_reps())
        a = data.draw(_operators(rep))
        assert _outcome(a.adjoint) == _outcome(_reference_adjoint, a)

    @pytest.mark.parametrize("name", sorted(REPS))
    def test_zero_and_identity(self, name):
        rep = REPS[name]
        for a in (DiffOperator.identity(rep), _zero(rep)):
            assert _outcome(a.adjoint) == _outcome(_reference_adjoint, a)

    def test_bargmann_adjoint_raises_as_before(self):
        a = DiffOperator(REPS["bargmann"], {(1,): Chart.bargmann().var("z")})
        got = _outcome(a.adjoint)
        assert got == _outcome(_reference_adjoint, a)
        assert got == ("ChartError", "the formal adjoint is defined for real-chart representations")


# -- the Agarwal transform --------------------------------------------------------


class TestAgarwalReference:
    @pytest.mark.parametrize("chart", [Chart.real(1), Chart.real(2), Chart.bargmann()],
                             ids=["real1", "real2", "bargmann"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_transform_equals_the_laplacian_loop(self, chart, data):
        f = data.draw(observables(chart, max_degree=5))
        assert agarwal_transform(chart, f) == _reference_agarwal(chart, f)

    def test_zero_and_constant(self):
        chart = Chart.real(2)
        for f in (chart.zero(), chart.constant(3)):
            assert agarwal_transform(chart, f) == _reference_agarwal(chart, f) == f

    @pytest.mark.parametrize("n, m", [(1, 2), (2, 1)])
    def test_a_function_on_another_chart_is_refused(self, n, m):
        # another chart's Laplacian misses variables (p2*q2 under the line's)
        # or names ones the function lacks
        f = Chart.real(m).var(f"p{m}") * Chart.real(m).var(f"q{m}")
        with pytest.raises(ChartError, match="Laplacian argument lives on"):
            agarwal_transform(Chart.real(n), f)
