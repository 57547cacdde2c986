"""Shared fixtures and hypothesis strategies for exact-algebra tests."""

import pytest
from hypothesis import strategies as st

from starbundle import Chart, Coefficient, EquivariantFunction
from starbundle.algebra import Monomial
from starbundle.scalars import C_I


def gaussian(re=0, im=0) -> Coefficient:
    """The Gaussian rational re + im*i, a constant Coefficient."""
    return re + im * C_I


@pytest.fixture
def chart1():
    return Chart.real(1)


@pytest.fixture
def chart2():
    return Chart.real(2)


@pytest.fixture
def bchart():
    return Chart.bargmann()


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)

gaussians = st.builds(gaussian, small_fractions, small_fractions)

coefficients = st.builds(
    lambda pairs: Coefficient({k: v for k, v in pairs}),
    st.lists(st.tuples(st.integers(-2, 2), gaussians), min_size=0, max_size=3),
)


def monomials(variables, max_degree=3, jet_arity=0):
    exponents = st.dictionaries(
        st.sampled_from(list(variables)), st.integers(1, max_degree), max_size=2,
    )
    if not jet_arity:
        return st.builds(lambda e: Monomial(e.items()), exponents)
    jets = st.dictionaries(
        st.tuples(*([st.integers(0, 1)] * jet_arity)), st.integers(1, 1), max_size=1,
    )
    return st.builds(lambda e, j: Monomial(e.items(), j.items()), exponents, jets)


def functions(chart, max_degree=3, theta_weight=st.just(0), jet_vars=(), max_terms=3):
    arity = len(jet_vars)
    terms = st.dictionaries(
        monomials(chart.variables, max_degree, jet_arity=arity),
        coefficients,
        max_size=max_terms,
    )
    return st.builds(
        lambda t, w: EquivariantFunction(chart, t, theta_weight=w, jet_vars=jet_vars),
        terms,
        theta_weight,
    )


def observables(chart, max_degree=3):
    return functions(chart, max_degree)


def bundle_functions(chart):
    """Functions with angular weight and jets over the position variables."""
    return functions(
        chart, max_degree=3,
        theta_weight=st.integers(-2, 2),
        jet_vars=chart.position_vars,
    )
