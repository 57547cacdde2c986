from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings

from conftest import gaussian, observables
from starbundle import (
    Chart,
    ChartError,
    Coefficient,
    EquivariantFunction,
    ObservableError,
    PolarizationError,
    agarwal_transform,
    bargmann_wave,
    bullet_product,
    driver_tensor,
    horizontal_lift,
    momentum_wave,
    position_wave,
    prequantize,
    quantize,
    quantize_inverse_p,
    souriau_bracket,
    star_product,
    yano_laplacian,
)
from starbundle.products import exponential_product
from starbundle.scalars import HBAR_OVER_I, I_OVER_HBAR

CH = Chart.real(1)
CH2 = Chart.real(2)
BC = Chart.bargmann()


def jet(chart, jet_vars, alpha=None):
    return EquivariantFunction.jet(chart, jet_vars, alpha)


class TestDriverTensor:
    def test_normal_pairs(self):
        nu = driver_tensor("normal", CH)
        assert nu.pairs == ((CH.coordinate_field("p1"), CH.coordinate_field("q1")),)

    def test_antinormal_pairs(self):
        mu = driver_tensor("antinormal", CH)
        assert mu.pairs == ((CH.coordinate_field("q1", -1), CH.coordinate_field("p1")),)

    def test_wick_pair(self):
        wick = driver_tensor("wick", BC)
        s, t = wick.pairs[0]
        assert s == BC.coordinate_field("zb", gaussian(0, 2))
        assert t == BC.coordinate_field("z")

    def test_wick_requires_bargmann(self):
        with pytest.raises(ChartError):
            driver_tensor("wick", CH)

    def test_poisson_is_normal_plus_antinormal(self):
        pi = driver_tensor("moyal", CH2)
        nu = driver_tensor("normal", CH2)
        mu = driver_tensor("antinormal", CH2)
        assert pi.pairs == nu.pairs + mu.pairs

    def test_base_fields_must_commute(self):
        from starbundle import Derivation

        bad = Derivation(CH, {"p1": CH.var("q1")})
        good = CH.coordinate_field("q1")
        with pytest.raises(ChartError):
            from starbundle import DriverTensor

            DriverTensor(CH, [(bad, good)])

    def test_theta_part_rejected_in_either_form(self):
        from starbundle import Derivation, DriverTensor

        keyed = Derivation(CH, {"theta": CH.one()})
        mixed = CH.coordinate_field("p1") + CH.reeb_field()
        assert keyed == CH.reeb_field()
        for field in (keyed, mixed):
            with pytest.raises(ChartError, match="no theta part"):
                DriverTensor(CH, [(field, CH.coordinate_field("q1"))])
            with pytest.raises(ChartError):
                horizontal_lift(CH, field)

    def test_constant_fields_are_not_commuted(self, monkeypatch):
        from starbundle import AffineMap, Derivation

        calls = []
        original = Derivation.commutator
        monkeypatch.setattr(Derivation, "commutator",
                            lambda self, other: calls.append(1) or original(self, other))
        wide = Chart.real(16)
        for kind in ("normal", "antinormal", "moyal"):
            driver_tensor(kind, wide)
        driver_tensor("wick", BC)
        driver_tensor("moyal", BC)
        driver_tensor("moyal", CH2).transformed(AffineMap.scaling(CH2, 3))
        assert calls == []

    def test_non_constant_field_is_still_commuted(self):
        from starbundle import Derivation, DriverTensor

        with pytest.raises(ChartError, match="mutually commute"):
            DriverTensor(CH, [(Derivation(CH, {"p1": CH.var("q1")}), CH.coordinate_field("q1"))])
        field = Derivation(CH2, {"p2": CH2.var("p2")})
        DriverTensor(CH2, [(field, CH2.coordinate_field("p1"))])


class TestApplyDriver:
    def test_single_application(self):
        nu = driver_tensor("normal", CH)
        terms = nu.power_terms(CH.var("p1"), CH.var("q1"), 1)
        assert terms == [(CH.one(), CH.one())]

    def test_annihilated_pair(self):
        nu = driver_tensor("normal", CH)
        assert nu.power_terms(CH.var("q1"), CH.var("q1"), 1) == []

    def test_lifted_poisson_square_on_wave(self):
        # hand iteration: the only surviving k=2 pair is (-1, -(i/hbar) psi e^{i theta})
        pi = driver_tensor("moyal", CH).lift()
        F = CH.var("p1") * CH.var("q1")
        psi = position_wave(CH)
        terms = pi.power_terms(F, psi, 2)
        expected_right = psi * Coefficient.hbar(-1, gaussian(0, -1))
        assert terms == [(-CH.one(), expected_right)]
        # and the assembled tensor term is +(i/hbar) psi
        assembled = terms[0][0] * terms[0][1]
        assert assembled == psi * I_OVER_HBAR

    def test_zero_repetitions(self):
        nu = driver_tensor("normal", CH)
        p, q = CH.var("p1"), CH.var("q1")
        assert nu.power_terms(p, q, 0) == [(p, q)]


def normal_star_monomial_oracle(a, b, c, d):
    """p^a q^b (star) p^c q^d via the closed falling-factorial sum."""
    p, q = CH.var("p1"), CH.var("q1")
    total = CH.zero()
    for k in range(min(a, d) + 1):
        coeff = (HBAR_OVER_I ** k) * (
            Fraction(factorial(a) // factorial(a - k), factorial(k))
            * (factorial(d) // factorial(d - k))
        )
        total = total + p ** (a - k + c) * q ** (b + d - k) * coeff
    return total


def moyal_star_1d_oracle(F, G):
    """The standard half-coefficient series, written with raw partials only."""
    half = Coefficient({1: gaussian(0, Fraction(-1, 2))})
    total = CH.zero()
    k = 0
    while True:
        partial = CH.zero()
        for j in range(k + 1):
            left = F
            for _ in range(k - j):
                left = left.differentiate("p1")
            for _ in range(j):
                left = left.differentiate("q1")
            right = G
            for _ in range(k - j):
                right = right.differentiate("q1")
            for _ in range(j):
                right = right.differentiate("p1")
            sign = -1 if j % 2 else 1
            partial = partial + left * right * (comb(k, j) * sign)
        if partial.is_zero() and k > F.chart_degree():
            break
        total = total + partial * (half ** k) * Fraction(1, factorial(k))
        k += 1
    return total


class TestStarProduct:
    def test_normal_canonical_pair(self):
        p, q = CH.var("p1"), CH.var("q1")
        assert star_product("normal", p, q) == p * q + CH.constant(HBAR_OVER_I)
        assert star_product("normal", q, p) == p * q

    def test_moyal_canonical_pair(self):
        p, q = CH.var("p1"), CH.var("q1")
        half = Coefficient({1: gaussian(0, Fraction(-1, 2))})
        assert star_product("moyal", p, q) == p * q + CH.constant(half)
        assert star_product("moyal", q, p) == p * q - CH.constant(half)

    def test_unit(self):
        F = CH.var("p1") ** 2 * CH.var("q1") + CH.var("q1")
        for kind in ("normal", "antinormal", "moyal"):
            assert star_product(kind, F, CH.one()) == F
            assert star_product(kind, CH.one(), F) == F
        G = BC.var("z") * BC.var("zb")
        for kind in ("wick", "moyal"):
            assert star_product(kind, G, BC.one()) == G

    def test_normal_star_against_monomial_oracle(self):
        for (a, b, c, d) in [(1, 0, 0, 1), (2, 1, 1, 2), (3, 0, 2, 3), (2, 2, 2, 2)]:
            p, q = CH.var("p1"), CH.var("q1")
            got = star_product("normal", p ** a * q ** b, p ** c * q ** d)
            assert got == normal_star_monomial_oracle(a, b, c, d)

    @given(observables(CH), observables(CH))
    @settings(max_examples=25)
    def test_moyal_star_against_bidifferential_oracle(self, F, G):
        assert star_product("moyal", F, G) == moyal_star_1d_oracle(F, G)

    def test_non_observable_rejected(self):
        with pytest.raises(ObservableError):
            star_product("normal", position_wave(CH), CH.one())

    def test_termination_bound(self):
        # the series stops once the left slot is exhausted
        nu = driver_tensor("normal", CH)
        F = CH.var("p1") ** 3
        assert nu.power_terms(F, CH.var("q1") ** 5, 4) == []


class TestBulletProduct:
    def test_normal_momentum_acts_as_derivative(self):
        psi = position_wave(CH)
        expected = EquivariantFunction(
            CH, (jet(CH, ("q1",), (1,)) * HBAR_OVER_I).terms,
            theta_weight=1, jet_vars=("q1",),
        )
        assert bullet_product("normal", CH.var("p1"), psi) == expected

    def test_moyal_pq_is_symmetrized(self):
        psi = position_wave(CH)
        F = CH.var("p1") * CH.var("q1")
        body = CH.var("q1") * jet(CH, ("q1",), (1,)) \
            + jet(CH, ("q1",)) * Fraction(1, 2)
        expected = EquivariantFunction(
            CH, (body * HBAR_OVER_I).terms, theta_weight=1, jet_vars=("q1",),
        )
        assert bullet_product("moyal", F, psi) == expected

    def test_unit_acts_trivially(self):
        h = EquivariantFunction(
            CH, (CH.var("p1") * CH.var("theta")).terms, theta_weight=-2,
        )
        for kind in ("normal", "antinormal", "moyal"):
            assert bullet_product(kind, CH.one(), h) == h

    def test_first_order_term_is_the_bracket(self):
        # moyal driver: F bullet Psi = F Psi + (hbar/i) [[F, Psi]] + O(2)
        F = CH.var("p1")
        psi = position_wave(CH)
        got = bullet_product("moyal", F, psi)
        assert got == F * psi + souriau_bracket(CH, F, psi) * HBAR_OVER_I

    def test_equivariance(self):
        F = CH.var("p1") ** 2
        for weight in (-1, 0, 1, 3):
            h = EquivariantFunction(CH, CH.var("q1").terms, theta_weight=weight)
            out = bullet_product("normal", F, h)
            assert out.is_zero() or out.theta_weight == weight


class TestPrequantize:
    def test_momentum_on_position_wave(self):
        psi = position_wave(CH, CH.var("q1"))
        expected = EquivariantFunction(CH, CH.constant(HBAR_OVER_I).terms, theta_weight=1)
        assert prequantize(CH, CH.var("p1"), psi) == expected

    def test_unit_observable(self):
        psi = prequantum_wave = position_wave(CH)
        assert prequantize(CH, CH.one(), psi) == psi

    def test_position_multiplies(self):
        psi = position_wave(CH)
        assert prequantize(CH, CH.var("q1"), psi) == CH.var("q1") * psi

    def test_requires_wave(self):
        with pytest.raises(ChartError):
            prequantize(CH, CH.var("p1"), CH.var("q1"))


class TestQuantize:
    def test_normal_ordering_sample(self):
        # A_2(q) p^2 quantizes to (hbar/i)^2 A_2 psi''
        A = CH.var("q1") ** 3
        F = A * CH.var("p1") ** 2
        expected = EquivariantFunction(
            CH, (A * jet(CH, ("q1",), (2,)) * (HBAR_OVER_I ** 2)).terms,
            theta_weight=1, jet_vars=("q1",),
        )
        assert quantize("normal", F, position_wave(CH)) == expected

    def test_antinormal_ordering_sample(self):
        B = CH.var("p1") ** 2
        F = B * CH.var("q1")
        phi = momentum_wave(CH)
        expected = momentum_wave(CH, B * jet(CH, ("p1",), (1,)) * HBAR_OVER_I * (-1))
        assert quantize("antinormal", F, phi) == expected

    def test_wick_modulus_squared(self):
        wave = bargmann_wave(BC)
        expected = bargmann_wave(BC, BC.var("z") * jet(BC, ("z",), (1,))) \
            * Coefficient.hbar(1, 2)
        assert quantize("wick", BC.var("z") * BC.var("zb"), wave) == expected

    def test_unit_is_identity(self):
        for kind, wave in (
            ("normal", position_wave(CH)),
            ("moyal", position_wave(CH)),
            ("antinormal", momentum_wave(CH)),
            ("wick", bargmann_wave(BC)),
        ):
            chart = wave.chart
            assert quantize(kind, chart.one(), wave) == wave

    def test_antinormal_against_vertical_polarization_reports(self):
        psi = position_wave(CH)
        with pytest.raises(PolarizationError) as err:
            quantize("antinormal", CH.var("p1"), psi, CH.vertical_polarization())
        assert err.value.direction == "p1"
        assert err.value.remainder == psi

    def test_unpolarized_input_reported(self):
        psi = EquivariantFunction(CH, CH.var("p1").terms, theta_weight=1)
        with pytest.raises(PolarizationError):
            quantize("normal", CH.var("q1"), psi)

    def test_polarization_failure_witness_via_bullet(self):
        # p bullet_mu psi = p psi, and d/dp of that is psi != 0
        psi = position_wave(CH)
        out = bullet_product("antinormal", CH.var("p1"), psi)
        assert out == CH.var("p1") * psi
        assert horizontal_lift(CH, "p1")(out) == psi


class TestYanoLaplacian:
    def test_mixed_monomial(self):
        assert yano_laplacian(CH, CH.var("p1") * CH.var("q1")) == -CH.one()

    def test_harmonic_quadratic(self):
        F = CH.var("p1") ** 2 + CH.var("q1") ** 2
        assert yano_laplacian(CH, F).is_zero()

    def test_bargmann_modulus_squared(self):
        got = yano_laplacian(BC, BC.var("z") * BC.var("zb"))
        assert got == BC.constant(gaussian(0, -2))

    def test_sums_over_pairs(self):
        F = CH2.var("p1") * CH2.var("q1") + CH2.var("p2") * CH2.var("q2")
        assert yano_laplacian(CH2, F) == CH2.constant(-2)


class TestAgarwalTransform:
    def test_pq_correction(self):
        F = CH.var("p1") * CH.var("q1")
        half = Coefficient.hbar(1, gaussian(0, Fraction(-1, 2)))
        assert agarwal_transform(CH, F) == F + CH.constant(half)

    def test_bargmann_correction(self):
        F = BC.var("z") * BC.var("zb")
        assert agarwal_transform(BC, F) == F + BC.constant(Coefficient.hbar(1))

    def test_harmonic_fixed_point(self):
        F = CH.var("p1") ** 2
        assert agarwal_transform(CH, F) == F

    def test_interchanges_quantizations(self):
        psi = position_wave(CH)
        F = CH.var("p1") ** 2 * CH.var("q1") ** 2
        left = quantize("moyal", F, psi)
        right = quantize("normal", agarwal_transform(CH, F), psi)
        assert left == right


class TestInverseMomentum:
    def test_constant_component(self):
        psi = position_wave(CH, CH.one())
        expected = EquivariantFunction(
            CH, (CH.var("q1") * I_OVER_HBAR).terms, theta_weight=1,
        )
        assert quantize_inverse_p(psi) == expected

    def test_linear_component(self):
        psi = position_wave(CH, CH.var("q1"))
        expected = EquivariantFunction(
            CH, (CH.var("q1") ** 2 * I_OVER_HBAR).terms, theta_weight=1,
        ) * Fraction(1, 2)
        assert quantize_inverse_p(psi) == expected

    def test_fundamental_theorem(self):
        component = CH.var("q1") ** 4 + 3 * CH.var("q1")
        psi = position_wave(CH, component)
        assert quantize("moyal", CH.var("p1"), quantize_inverse_p(psi)) == psi

    def test_jets_rejected(self):
        with pytest.raises(ChartError):
            quantize_inverse_p(position_wave(CH))

    def test_momentum_dependence_rejected(self):
        psi = EquivariantFunction(CH, CH.var("p1").terms, theta_weight=1)
        with pytest.raises(ChartError):
            quantize_inverse_p(psi)


class TestModuleIdentity:
    def test_normal_on_arbitrary_function(self):
        F = CH.var("p1") ** 2 + CH.var("q1")
        G = CH.var("p1") * CH.var("q1")
        h = EquivariantFunction(
            CH, (CH.var("p1") * CH.var("theta")).terms, theta_weight=1,
        )
        left = bullet_product("normal", star_product("normal", F, G), h)
        right = bullet_product("normal", F, bullet_product("normal", G, h))
        assert left == right

    def test_moyal_on_polarized_wave(self):
        F = CH.var("p1") ** 2
        G = CH.var("p1") * CH.var("q1")
        psi = position_wave(CH)
        left = bullet_product("moyal", star_product("moyal", F, G), psi)
        right = bullet_product("moyal", F, bullet_product("moyal", G, psi))
        assert left == right

    def test_full_coefficient_moyal_star_fails_by_half_psi(self):
        # the documented counterexample fixing the star normalization
        p, q = CH.var("p1"), CH.var("q1")
        psi = position_wave(CH)
        pi = driver_tensor("moyal", CH)
        star_pq = exponential_product(pi, p, q, HBAR_OVER_I)
        defect = bullet_product("moyal", star_pq, psi) \
            - bullet_product("moyal", p, bullet_product("moyal", q, psi))
        half = Coefficient({1: gaussian(0, Fraction(-1, 2))})
        assert defect == psi * half

    def test_moyal_on_bargmann_polarized_waves(self):
        z, zb = BC.var("z"), BC.var("zb")
        psi = bargmann_wave(BC)
        for F, G in [(z * zb, z + zb), (zb ** 2, z * zb), (z ** 2 * zb, zb)]:
            left = bullet_product("moyal", star_product("moyal", F, G), psi)
            right = bullet_product("moyal", F, bullet_product("moyal", G, psi))
            assert left == right

    def test_bargmann_ladder_commutator(self):
        from starbundle import DiffOperator, Representation, extract_operator

        rep = Representation.bargmann(BC)
        Qz = extract_operator("wick", BC.var("z"), rep)
        Qzb = extract_operator("wick", BC.var("zb"), rep)
        commutator = Qz.compose(Qzb) - Qzb.compose(Qz)
        assert commutator == DiffOperator.identity(rep) * Coefficient.hbar(1, -2)
