import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficients, observables
from starbundle import (
    Chart,
    ChartError,
    Coefficient,
    DiffOperator,
    EquivariantFunction,
    LimitError,
    Representation,
    bargmann_wave,
    extract_operator,
    momentum_wave,
    position_wave,
    prequantum_wave,
    quantize,
    star_product,
)
import starbundle.operators
from starbundle.algebra import Monomial
from starbundle.geometry import chart_cache
from starbundle.scalars import HBAR_OVER_I

CH = Chart.real(1)
CH2 = Chart.real(2)
BC = Chart.bargmann()
POSITION = Representation.position(CH)
MOMENTUM = Representation.momentum(CH)
BARGMANN = Representation.bargmann(BC)


class TestExtract:
    def test_normal_qp(self):
        op = extract_operator("normal", CH.var("q1") * CH.var("p1"), POSITION)
        expected = DiffOperator(POSITION, {(1,): CH.var("q1") * HBAR_OVER_I})
        assert op == expected

    def test_moyal_qp_gains_half(self):
        op = extract_operator("moyal", CH.var("q1") * CH.var("p1"), POSITION)
        expected = DiffOperator(POSITION, {
            (1,): CH.var("q1") * HBAR_OVER_I,
            (0,): CH.constant(HBAR_OVER_I * Fraction(1, 2)),
        })
        assert op == expected

    def test_antinormal_position_observable(self):
        op = extract_operator("antinormal", CH.var("q1"), MOMENTUM)
        expected = DiffOperator(MOMENTUM, {(1,): CH.constant(-HBAR_OVER_I)})
        assert op == expected

    def test_bargmann_creation_and_annihilation(self):
        assert extract_operator("wick", BC.var("z"), BARGMANN) \
            == DiffOperator(BARGMANN, {(0,): BC.var("z")})
        assert extract_operator("wick", BC.var("zb"), BARGMANN) \
            == DiffOperator(BARGMANN, {(1,): BC.constant(Coefficient.hbar(1, 2))})

    @given(observables(CH, max_degree=3), observables(CH, max_degree=3))
    @settings(max_examples=20)
    def test_extract_apply_roundtrip(self, F, component_seed):
        # keep only the position part of the random polynomial as psi
        component = CH.zero()
        for mono, coeff in component_seed.terms.items():
            exps = mono.var_map()
            component = component + CH.var("q1") ** exps.get("q1", 0) * coeff
        op = extract_operator("normal", F, POSITION)
        direct = quantize("normal", F, position_wave(CH, component))
        via_operator = position_wave(CH, op.apply_to(component)) \
            if not op.apply_to(component).is_zero() \
            else EquivariantFunction.zero(CH)
        assert direct == via_operator

    def test_multi_dimensional_extraction(self):
        F = CH2.var("p1") * CH2.var("p2")
        rep = Representation.position(CH2)
        op = extract_operator("normal", F, rep)
        expected = DiffOperator(rep, {(1, 1): CH2.constant(HBAR_OVER_I ** 2)})
        assert op == expected


class TestCompose:
    def test_derivative_then_multiplication(self):
        d = DiffOperator(POSITION, {(1,): CH.one()})
        mult = DiffOperator(POSITION, {(0,): CH.var("q1")})
        expected = DiffOperator(POSITION, {(1,): CH.var("q1"), (0,): CH.one()})
        assert d.compose(mult) == expected

    def test_canonical_commutator(self):
        Qp = extract_operator("normal", CH.var("p1"), POSITION)
        Qq = extract_operator("normal", CH.var("q1"), POSITION)
        commutator = Qp.compose(Qq) - Qq.compose(Qp)
        assert commutator == DiffOperator.identity(POSITION) * HBAR_OVER_I

    def test_identity_neutral(self):
        D = extract_operator("moyal", CH.var("p1") ** 2 * CH.var("q1"), POSITION)
        assert D.compose(DiffOperator.identity(POSITION)) == D
        assert DiffOperator.identity(POSITION).compose(D) == D

    def test_composition_matches_sequential_application(self):
        D1 = extract_operator("normal", CH.var("p1") * CH.var("q1"), POSITION)
        D2 = extract_operator("normal", CH.var("p1") ** 2, POSITION)
        component = CH.var("q1") ** 4 + CH.var("q1")
        assert D1.compose(D2).apply_to(component) \
            == D1.apply_to(D2.apply_to(component))

    @given(observables(CH, max_degree=3), observables(CH, max_degree=3))
    @settings(max_examples=20)
    def test_homomorphism(self, F, G):
        left = extract_operator("normal", star_product("normal", F, G), POSITION)
        right = extract_operator("normal", F, POSITION).compose(
            extract_operator("normal", G, POSITION),
        )
        assert left == right


class TestAdjoint:
    def test_momentum_operator_symmetric(self):
        D = DiffOperator(POSITION, {(1,): CH.constant(HBAR_OVER_I)})
        assert D.adjoint() == D

    def test_normal_pq_not_symmetric(self):
        D = extract_operator("normal", CH.var("p1") * CH.var("q1"), POSITION)
        expected = DiffOperator(POSITION, {
            (1,): CH.var("q1") * HBAR_OVER_I,
            (0,): CH.constant(HBAR_OVER_I),
        })
        assert D.adjoint() == expected
        assert D.adjoint() != D

    def test_weyl_pq_symmetric(self):
        D = extract_operator("moyal", CH.var("p1") * CH.var("q1"), POSITION)
        assert D.adjoint() == D

    @given(observables(CH, max_degree=3))
    @settings(max_examples=20)
    def test_involution(self, F):
        D = extract_operator("normal", F, POSITION)
        assert D.adjoint().adjoint() == D

    @given(observables(CH, max_degree=2), observables(CH, max_degree=2))
    @settings(max_examples=20)
    def test_antihomomorphism(self, F, G):
        D1 = extract_operator("normal", F, POSITION)
        D2 = extract_operator("normal", G, POSITION)
        assert D1.compose(D2).adjoint() == D2.adjoint().compose(D1.adjoint())

    def test_bargmann_adjoint_rejected(self):
        D = DiffOperator(BARGMANN, {(0,): BC.var("z")})
        with pytest.raises(ChartError):
            D.adjoint()


class TestRepresentationSurface:
    def test_momentum_generic_wave_shape(self):
        wave = MOMENTUM.generic_wave()
        assert wave.theta_weight == 1
        assert wave.jet_vars == ("p1",)
        assert wave.weight_factor is not None

    def test_coefficients_must_be_configuration_polynomials(self):
        with pytest.raises(ChartError):
            DiffOperator(POSITION, {(0,): CH.var("p1")})

    def test_extraction_error_surface(self):
        # bypass quantize's polarization gate to reach the extraction check
        from starbundle.operators import extract_operator as extract
        from starbundle import PolarizationError

        with pytest.raises(PolarizationError):
            extract("antinormal", CH.var("p1"), POSITION)


class TestRepresentationTable:
    def test_the_constructor_refuses_an_unknown_name(self):
        # every representation needs a compose driver, so a name outside the table is refused
        with pytest.raises(ChartError) as info:
            Representation("wave", CH)
        assert str(info.value) == "unknown representation 'wave'"

    def test_named_keeps_its_text(self):
        with pytest.raises(ChartError) as info:
            Representation.named("wave", CH)
        assert str(info.value) == "unknown representation 'wave'"

    @pytest.mark.parametrize("name, chart", [
        ("position", CH2), ("momentum", CH2), ("bargmann", BC),
    ])
    def test_the_constructor_builds_what_named_caches(self, name, chart):
        rep, cached = Representation(name, chart), Representation.named(name, chart)
        assert rep == cached and rep is not cached
        assert (rep.config_vars, rep.dual_vars, rep.polarization) \
            == (cached.config_vars, cached.dual_vars, cached.polarization)
        assert rep.generic_wave() == cached.generic_wave()

    def test_position_operators_on_different_charts_do_not_mix(self):
        a = DiffOperator(POSITION, {(1,): CH.var("q1")})
        b = DiffOperator(Representation.position(CH2), {(1, 0): CH2.var("q1")})
        assert a != b
        assert a == DiffOperator(Representation("position", Chart.real(1)), {(1,): CH.var("q1")})
        with pytest.raises(ChartError, match="^cannot add operators in different representations$"):
            a + b
        with pytest.raises(ChartError, match="^cannot add operators in different representations$"):
            a - b
        with pytest.raises(ChartError,
                           match="^cannot compose operators in different representations$"):
            a.compose(b)


@st.composite
def _term_tables(draw, rep):
    """Multi-index to configuration polynomial, zero polynomials included."""
    alphas = st.tuples(*[st.integers(0, 3)] * len(rep.config_vars))
    table = {}
    for alpha in draw(st.lists(alphas, max_size=4, unique=True)):
        poly = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = draw(st.dictionaries(st.sampled_from(rep.config_vars), st.integers(1, 3)))
            poly[Monomial(exps.items())] = draw(coefficients)
        table[alpha] = EquivariantFunction(rep.chart, poly)
    return table


class TestDerivedTerms:
    @pytest.mark.parametrize("rep", [POSITION, Representation.position(CH2), MOMENTUM,
                                     BARGMANN], ids=str)
    @given(data=st.data())
    @settings(max_examples=30)
    def test_terms_round_trip_through_the_symbol(self, rep, data):
        table = data.draw(_term_tables(rep))
        op = DiffOperator(rep, table)
        assert dict(op.terms) == {a: p for a, p in table.items() if not p.is_zero()}
        assert op.is_zero() == all(p.is_zero() for p in table.values())

    @pytest.mark.parametrize("rep", [POSITION, Representation.position(CH2), MOMENTUM,
                                     BARGMANN], ids=str)
    @given(data=st.data())
    @settings(max_examples=30)
    def test_sorted_terms_walk_the_view_in_printing_order(self, rep, data):
        op = DiffOperator(rep, data.draw(_term_tables(rep)))
        assert op.sorted_terms() == [(alpha, mono, coeff)
                                     for alpha, poly in sorted(op.terms.items())
                                     for mono, coeff in poly.sorted_terms()]

    def test_extract_reaches_quantize_through_the_module_global(self, monkeypatch):
        # perfbench swaps this global for its traced runs
        calls = []

        def recording(*args):
            calls.append(args)
            return quantize(*args)

        monkeypatch.setattr(starbundle.operators, "quantize", recording)
        op = extract_operator("moyal", CH.var("q1") * CH.var("p1"), POSITION)
        assert [args[0] for args in calls] == ["moyal"]
        assert op == DiffOperator(POSITION, {
            (1,): CH.var("q1") * HBAR_OVER_I,
            (0,): CH.constant(HBAR_OVER_I * Fraction(1, 2)),
        })


class TestMultiIndices:
    @pytest.mark.parametrize("alpha", [(-2,), (1.5,), "2", ("1",), (0, -1)])
    def test_entries_that_are_not_non_negative_integers_are_refused(self, alpha):
        # int() would read (1.5,) as d/dq1 and "2" as d^2/dq1^2; (-2,) would apply as 1
        with pytest.raises(ChartError, match="non-negative integers"):
            DiffOperator(POSITION, {alpha: CH.var("q1")})

    def test_integer_like_entries_are_kept_as_ints(self):
        op = DiffOperator(POSITION, {(True,): CH.one()})
        assert list(op.terms) == [(1,)] and type(next(iter(op.terms))[0]) is int


class TestSymbols:
    def test_dual_variables_are_the_bracket_partners(self):
        assert Representation.position(CH2).dual_vars == ("p1", "p2")
        assert Representation.momentum(CH2).dual_vars == ("q1", "q2")
        assert BARGMANN.dual_vars == ("zb",)

    def test_symbol_of_a_normal_form_operator(self):
        op = DiffOperator(POSITION, {(2,): CH.var("q1") * 3, (0,): CH.constant(HBAR_OVER_I)})
        assert op.symbol() == CH.var("q1") * CH.var("p1") ** 2 * 3 + CH.constant(HBAR_OVER_I)
        assert DiffOperator.from_symbol(POSITION, op.symbol()) == op

    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM, BARGMANN,
                                     Representation.momentum(CH2)], ids=str)
    @given(data=st.data())
    @settings(max_examples=20)
    def test_from_symbol_inverts_symbol(self, rep, data):
        f = data.draw(observables(rep.chart, max_degree=4))
        op = DiffOperator.from_symbol(rep, f)
        assert op.symbol() == f
        assert DiffOperator.from_symbol(rep, op.symbol()) == op

    def test_from_symbol_refuses_bundle_functions(self):
        wave = POSITION.generic_wave()
        with pytest.raises(ChartError, match="plain polynomial"):
            DiffOperator.from_symbol(POSITION, wave)
        with pytest.raises(ChartError, match="plain polynomial"):
            DiffOperator.from_symbol(POSITION, CH2.var("q2"))


class TestComposeBound:
    def test_two_dense_operators_end_in_limit_error(self):
        # symbols of 20 x 15 = 300 terms: the first product charges 90,000
        # term pairs, the first order of the series takes the count past
        # MAX_SERIES_WORK = 120,000
        dense = DiffOperator(POSITION, {
            (a,): EquivariantFunction(CH, {Monomial([("q1", e)]): Coefficient.coerce(a + e + 1)
                                           for e in range(15)})
            for a in range(20)
        })
        assert len(dense.symbol().terms) == 300
        start = time.perf_counter()
        with pytest.raises(LimitError, match="MAX_SERIES_WORK"):
            dense.compose(dense)
        assert time.perf_counter() - start < 5


class TestCachedWaves:
    @pytest.mark.parametrize("name, chart, build", [
        ("position", Chart.real(3), position_wave),
        ("momentum", Chart.real(3), momentum_wave),
        ("bargmann", BC, bargmann_wave),
    ])
    def test_generic_wave_is_built_once_and_equals_a_fresh_one(self, name, chart, build):
        rep = Representation.named(name, chart)
        wave = rep.generic_wave()
        assert rep.generic_wave() is wave
        assert rep.wave() is wave
        assert Representation.named(name, chart).generic_wave() is wave
        assert wave == build(chart)
        chart_cache.cache_clear()
        rebuilt = Representation.named(name, chart).generic_wave()
        assert rebuilt is not wave
        assert rebuilt == wave == build(chart)

    def test_generic_prequantum_wave_is_built_once_and_equals_a_fresh_one(self):
        chart = Chart.real(3)
        wave = prequantum_wave(chart)
        assert prequantum_wave(Chart.real(3)) is wave
        assert wave == prequantum_wave(chart, EquivariantFunction.jet(chart, chart.variables))
        chart_cache.cache_clear()
        rebuilt = prequantum_wave(chart)
        assert rebuilt is not wave
        assert rebuilt == wave
