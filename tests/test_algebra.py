from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import bundle_functions, functions, gaussian, observables
from starbundle import (
    Chart,
    ChartError,
    Coefficient,
    Derivation,
    EquivariantFunction,
    WeightFactorError,
    bargmann_gaussian,
    momentum_phase,
    substitute_jets,
)
from starbundle.algebra import Monomial

CH = Chart.real(1)
CH2 = Chart.real(2)
BC = Chart.bargmann()


class TestPolyArithmetic:
    def test_difference_of_squares(self):
        p, q = CH.var("p1"), CH.var("q1")
        assert (p + q) * (p - q) == p * p - q * q

    def test_laurent_cancellation(self):
        p, q = CH.var("p1"), CH.var("q1")
        left = p * Coefficient.hbar(-1)
        right = q * Coefficient.hbar(1)
        assert left * right == p * q

    def test_gaussian_rational_product(self):
        a = CH.constant(gaussian(1, 1))
        b = CH.constant(gaussian(1, -1))
        assert a * b == CH.constant(2)

    def test_int_pow(self):
        p = CH.var("p1")
        assert p ** 3 == p * p * p
        assert p ** 0 == CH.one()
        with pytest.raises(ChartError):
            p ** -1

    def test_theta_weights_add_under_product(self):
        e1 = EquivariantFunction(CH, CH.one().terms, theta_weight=1)
        e2 = EquivariantFunction(CH, CH.one().terms, theta_weight=2)
        assert (e1 * e2).theta_weight == 3

    def test_adding_different_theta_weights_rejected(self):
        e1 = EquivariantFunction(CH, CH.one().terms, theta_weight=1)
        e2 = EquivariantFunction(CH, CH.one().terms, theta_weight=2)
        with pytest.raises(ChartError):
            e1 + e2

    def test_two_weight_factors_rejected(self):
        w = momentum_phase(CH)
        f = EquivariantFunction(CH, CH.one().terms, weight_factor=w)
        with pytest.raises(WeightFactorError):
            f * f

    def test_mixed_weight_factor_sum_rejected(self):
        f = EquivariantFunction(CH, CH.one().terms, weight_factor=momentum_phase(CH))
        g = CH.one()
        with pytest.raises(WeightFactorError):
            f + g

    def test_observable_times_wave_keeps_factor(self):
        w = momentum_phase(CH)
        wave = EquivariantFunction(CH, CH.one().terms, theta_weight=1, weight_factor=w)
        product = CH.var("p1") * wave
        assert product.weight_factor == w
        assert product.theta_weight == 1


class TestDifferentiate:
    def test_momentum_partial(self):
        p, q = CH.var("p1"), CH.var("q1")
        assert (p ** 2 * q).differentiate("p1") == 2 * p * q

    def test_jet_chain_rule(self):
        q = CH.var("q1")
        psi0 = EquivariantFunction.jet(CH, ("q1",))
        psi1 = EquivariantFunction.jet(CH, ("q1",), (1,))
        assert (psi0 * q).differentiate("q1") == psi0 + q * psi1

    def test_jets_killed_by_momentum_partial(self):
        psi0 = EquivariantFunction.jet(CH, ("q1",))
        assert psi0.differentiate("p1").is_zero()

    def test_bargmann_log_derivative(self):
        # d/dzb (z W) = z * (-z/(4 hbar)) * W, evaluated by hand
        z = BC.var("z")
        w = bargmann_gaussian(BC)
        f = EquivariantFunction(BC, z.terms, weight_factor=w)
        scale = Coefficient.hbar(-1, gaussian(Fraction(-1, 4)))
        expected = EquivariantFunction(BC, (z * z * scale).terms, weight_factor=w)
        assert f.differentiate("zb") == expected

    def test_unknown_variable_rejected(self):
        with pytest.raises(ChartError):
            CH.var("p1").differentiate("q9")

    def test_theta_derivative_mixes_weight_and_polynomial(self):
        theta = CH.var("theta")
        f = EquivariantFunction(CH, theta.terms, theta_weight=2)
        expected = EquivariantFunction(CH, CH.one().terms, theta_weight=2) \
            + f * gaussian(0, 2)
        assert f.differentiate("theta") == expected

    @given(functions(CH2, max_degree=3))
    def test_mixed_partials_commute(self, f):
        assert f.differentiate("p1").differentiate("q2") \
            == f.differentiate("q2").differentiate("p1")

    def test_mixed_partials_commute_with_weight_factor(self):
        w = momentum_phase(CH2)
        p, q = CH2.var("p1"), CH2.var("q2")
        f = EquivariantFunction(CH2, (p * q ** 2).terms, theta_weight=1, weight_factor=w)
        for u in CH2.variables:
            for v in CH2.variables:
                assert f.differentiate(u).differentiate(v) \
                    == f.differentiate(v).differentiate(u)


class TestCanonicalForm:
    def test_commutator_of_equal_products_is_zero(self):
        p, q = CH.var("p1"), CH.var("q1")
        assert (p * q + q * p - 2 * p * q).is_zero()

    def test_laurent_unit(self):
        one = CH.constant(Coefficient.hbar(1)) * CH.constant(Coefficient.hbar(-1))
        assert one == CH.one()

    def test_permutation_invariance(self):
        p, q = CH2.var("p1"), CH2.var("q2")
        terms = [p * q, q * q, CH2.one() * 5, p * p * q]
        forward = CH2.zero()
        for t in terms:
            forward = forward + t
        backward = CH2.zero()
        for t in reversed(terms):
            backward = backward + t
        assert forward == backward
        assert str(forward) == str(backward)

    def test_superscript_index_is_an_unknown_variable(self):
        with pytest.raises(ChartError, match="unknown variable name 'p²'"):
            Monomial([("p²", 1)])

    def test_non_canonical_index_is_an_unknown_variable(self):
        with pytest.raises(ChartError, match="unknown variable name 'p01'"):
            Monomial([("p01", 1), ("p1", 1)])

    def test_zero_normalizes(self):
        wave = EquivariantFunction(CH, {}, theta_weight=1, jet_vars=("q1",))
        assert wave.is_zero()
        assert wave.theta_weight == 0
        assert wave.jet_vars == ()

    @given(observables(CH2), observables(CH2), observables(CH2))
    @settings(max_examples=40)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestDerivation:
    @given(bundle_functions(CH2), bundle_functions(CH2))
    @settings(max_examples=40)
    def test_leibniz(self, f, g):
        d = Derivation(CH2, {
            "p1": CH2.var("q1"),
            "q2": CH2.one(),
            "theta": CH2.var("p2") * Coefficient.hbar(-1),
        })
        assert d(f * g) == d(f) * g + f * d(g)

    def test_theta_action_on_weight(self):
        d = Derivation.coordinate(CH, "theta")
        wave = EquivariantFunction(CH, CH.var("q1").terms, theta_weight=3)
        assert d(wave) == wave * gaussian(0, 3)

    def test_theta_is_an_ordinary_coeffs_entry(self):
        keyed = Derivation(CH, {"theta": CH.one(), "p1": CH.var("q1")})
        assert keyed == Derivation(CH, {"p1": CH.var("q1")}) + CH.reeb_field()
        assert keyed.coefficient("theta") == CH.one()
        both = keyed + Derivation(CH, {"theta": CH.var("p1")})
        assert both.coeffs["theta"] == CH.var("p1") + CH.one()
        assert Derivation(CH, {"theta": CH.zero()}).coeffs == {}

    def test_derivation_is_immutable(self):
        d = Derivation(CH, {"p1": CH.var("q1")})
        with pytest.raises(TypeError):
            d.coeffs["p1"] = CH.one()
        with pytest.raises(AttributeError):
            d.chart = CH2
        with pytest.raises(AttributeError):
            d.coeffs = {}
        assert d.coeffs["p1"] == CH.var("q1") and d.chart == CH

    def test_commutator_of_coordinates_vanishes(self):
        d1 = Derivation.coordinate(CH2, "p1")
        d2 = Derivation.coordinate(CH2, "q2")
        assert d1.commutator(d2).is_zero()

    def test_chart_mismatch_rejected(self):
        d = Derivation.coordinate(CH, "p1")
        with pytest.raises(ChartError):
            d(CH2.var("p1"))

    @pytest.mark.parametrize("coefficient", [
        lambda: EquivariantFunction.jet(CH, ("q1",)),
        lambda: EquivariantFunction(CH, CH.var("q1").terms, theta_weight=1),
        lambda: EquivariantFunction(CH, CH.var("q1").terms, weight_factor=momentum_phase(CH)),
        lambda: CH2.var("q1"),
    ], ids=["jet", "angular-weight", "weight-factor", "other-chart"])
    def test_coefficients_must_be_plain_polynomials(self, coefficient):
        for var in ("p1", "theta"):
            with pytest.raises(ChartError, match="plain polynomials"):
                Derivation(CH, {var: coefficient()})
        with pytest.raises(ChartError):
            Derivation.coordinate(CH, "q1") * coefficient()
        # a theta monomial and negative hbar powers are plain
        theta_poly = CH.var("theta") * CH.var("p1") * Coefficient.hbar(-1)
        assert Derivation(CH, {"theta": theta_poly}).coeffs["theta"] == theta_poly


class TestWeightFactors:
    def test_standard_factors_closed(self):
        assert momentum_phase(CH2).check_closed()
        assert bargmann_gaussian(BC).check_closed()

    def test_unclosed_table_detected(self):
        from starbundle.algebra import WeightFactor

        bad = WeightFactor("bad", {
            "p1": CH.var("q1"),
            "q1": CH.zero(),
        })
        assert not bad.check_closed()


class TestJetSubstitution:
    def test_substitute_concrete_polynomial(self):
        q = CH.var("q1")
        psi1 = EquivariantFunction.jet(CH, ("q1",), (1,))
        component = q ** 3
        # psi'(q) with psi = q^3 is 3 q^2
        assert substitute_jets(psi1, component) == 3 * q ** 2

    def test_substitution_is_multiplicative_on_jet_powers(self):
        q = CH.var("q1")
        psi0 = EquivariantFunction.jet(CH, ("q1",))
        f = psi0 * psi0
        assert substitute_jets(f, q + CH.one()) == (q + CH.one()) ** 2

    def test_monomial_sorting_is_graded(self):
        p, q = CH.var("p1"), CH.var("q1")
        f = CH.one() + p * q + q
        monos = [m for m, _ in f.sorted_terms()]
        degrees = [m.degree() for m in monos]
        assert degrees == sorted(degrees, reverse=True)
        assert monos[0] == Monomial([("p1", 1), ("q1", 1)])
