from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import bundle_functions, gaussian, observables
from starbundle import (
    AffineMap,
    Chart,
    ChartError,
    Coefficient,
    Derivation,
    EquivariantFunction,
    ObservableError,
    Polarization,
    PolarizationError,
    bargmann_wave,
    hamiltonian_vector_field,
    horizontal_lift,
    is_polarized,
    jacobiator,
    lower_expression,
    momentum_wave,
    position_wave,
    souriau_bracket,
)

CH = Chart.real(1)
CH2 = Chart.real(2)
BC = Chart.bargmann()


class TestHorizontalLift:
    def test_position_lift(self):
        lift = horizontal_lift(CH2, "q2")
        expected = Derivation(
            CH2, {"q2": CH2.one(), "theta": -(CH2.var("p2") * Coefficient.hbar(-1))},
        )
        assert lift == expected

    def test_momentum_lift_is_plain(self):
        assert horizontal_lift(CH2, "p1") == Derivation.coordinate(CH2, "p1")

    def test_bargmann_lift(self):
        # alpha(d/dz) = zb/(4 i hbar), read off the connection form
        lift = horizontal_lift(BC, "z")
        theta = BC.var("zb") * Coefficient.hbar(-1, gaussian(0, Fraction(1, 4)))
        expected = Derivation(BC, {"z": BC.one(), "theta": theta})
        assert lift == expected

    def test_lift_annihilates_connection(self):
        for chart in (CH2, BC):
            for v in chart.variables:
                lift = horizontal_lift(chart, v)
                alpha_value = chart.zero()
                for u, poly in lift.coeffs.items():
                    alpha_value = alpha_value + poly * chart.alpha_of(u)
                assert alpha_value.is_zero()

    def test_lifted_position_field_action(self):
        # (d/dq - (p/hbar) d/dtheta) applied to q e^{i theta}, by hand
        lift = horizontal_lift(CH, "q1")
        wave = position_wave(CH, CH.var("q1"))
        correction = CH.var("p1") * CH.var("q1") \
            * Coefficient.hbar(-1, gaussian(0, -1))
        expected = EquivariantFunction(
            CH, (CH.one() + correction).terms, theta_weight=1,
        )
        assert lift(wave) == expected

    def test_lifted_antiholomorphic_field_kills_holomorphic_wave(self):
        wave = bargmann_wave(BC, BC.var("z"))
        assert horizontal_lift(BC, "zb")(wave).is_zero()

    def test_curvature_reproduces_symplectic_form(self):
        # d alpha (u, v) = u[alpha(v)] - v[alpha(u)] = omega(u, v)/hbar
        for chart in (CH2, BC):
            for u in chart.variables:
                for v in chart.variables:
                    left = chart.alpha_of(v).differentiate(u) \
                        - chart.alpha_of(u).differentiate(v)
                    right = chart.constant(chart.omega_of(u, v) * Coefficient.hbar(-1))
                    assert left == right


class TestSouriauBracket:
    def test_canonical_pair(self):
        assert souriau_bracket(CH, CH.var("p1"), CH.var("q1")) == CH.one()

    def test_theta_test_function(self):
        # [[p, h]] with dh/dtheta = 1 evaluates to -p/hbar
        h = CH.var("theta")
        expected = -(CH.var("p1") * Coefficient.hbar(-1))
        assert souriau_bracket(CH, CH.var("p1"), h) == expected

    def test_reduces_to_poisson_bracket(self):
        F = CH.var("p1") ** 2
        G = CH.var("q1")
        assert souriau_bracket(CH, F, G) == 2 * CH.var("p1")

    @given(bundle_functions(CH2), bundle_functions(CH2))
    @settings(max_examples=30)
    def test_antisymmetry(self, f, g):
        assert souriau_bracket(CH2, f, g) == -souriau_bracket(CH2, g, f)

    @given(bundle_functions(CH2), bundle_functions(CH2), bundle_functions(CH2))
    @settings(max_examples=20)
    def test_leibniz_in_second_slot(self, f, g, h):
        assert souriau_bracket(CH2, f, g * h) \
            == souriau_bracket(CH2, f, g) * h + g * souriau_bracket(CH2, f, h)

    def test_equivariance_of_observable_wave_bracket(self):
        F = CH.var("p1") * CH.var("q1")
        psi = position_wave(CH)
        out = souriau_bracket(CH, F, psi)
        assert out.theta_weight == 1

    def test_bargmann_canonical_pair(self):
        z, zb = BC.var("z"), BC.var("zb")
        assert souriau_bracket(BC, z, zb) == BC.constant(gaussian(0, -2))
        assert souriau_bracket(BC, zb, z) == BC.constant(gaussian(0, 2))


class TestJacobiator:
    def test_theta_linear_witness(self):
        value = jacobiator(CH, CH.var("p1"), CH.var("q1"), CH.var("theta"))
        assert value == CH.constant(Coefficient.hbar(-1, -1))

    def test_observables_satisfy_jacobi(self):
        p, q = CH.var("p1"), CH.var("q1")
        assert jacobiator(CH, p ** 2, q, p).is_zero()

    def test_degenerate_arguments(self):
        p, q = CH.var("p1"), CH.var("q1")
        f = p * q + q
        assert jacobiator(CH, f, f, p).is_zero()


class TestHamiltonianVectorField:
    def test_momentum_generates_position_translation(self):
        assert hamiltonian_vector_field(CH, CH.var("p1")) == Derivation.coordinate(CH, "q1")

    def test_position_generates_momentum_translation(self):
        assert hamiltonian_vector_field(CH, CH.var("q1")) \
            == Derivation.coordinate(CH, "p1", -1)

    def test_kinetic_energy(self):
        field = hamiltonian_vector_field(CH, CH.var("p1") ** 2 * Fraction(1, 2))
        assert field == Derivation(CH, {"q1": CH.var("p1")})

    def test_non_observable_rejected(self):
        with pytest.raises(ObservableError):
            hamiltonian_vector_field(CH, position_wave(CH))

    @given(observables(CH2), observables(CH2))
    @settings(max_examples=25)
    def test_field_applies_as_poisson_bracket(self, F, G):
        assert hamiltonian_vector_field(CH2, F)(G) == souriau_bracket(CH2, F, G)


class TestPolarization:
    def test_vertical_accepts_position_wave(self):
        assert is_polarized(CH, CH.vertical_polarization(), position_wave(CH))

    def test_vertical_rejects_momentum_dependence(self):
        psi = EquivariantFunction(CH, CH.var("p1").terms, theta_weight=1)
        assert not is_polarized(CH, CH.vertical_polarization(), psi)

    def test_holomorphic_sections_are_polarized(self):
        # the Gaussian log-derivative cancels the connection term
        wave = bargmann_wave(BC, BC.var("z") ** 2)
        assert is_polarized(BC, BC.antiholomorphic_polarization(), wave)

    def test_momentum_wave_is_horizontally_polarized(self):
        assert is_polarized(CH2, CH2.horizontal_polarization(), momentum_wave(CH2))

    def test_non_lagrangian_span_rejected(self):
        with pytest.raises(ChartError):
            Polarization("J", CH, ("p1", "q1"))

    def test_witness_refuses_a_polarization_of_another_chart(self):
        from starbundle import quantize
        from starbundle.geometry import polarization_witness

        # the wave depends on p2, so it is not vertically polarized on CH2
        psi = lower_expression("p2*q1*e(1)", CH2)
        with pytest.raises(ChartError, match="different chart"):
            polarization_witness(CH2, CH.vertical_polarization(), psi)
        with pytest.raises(ChartError, match="different chart"):
            is_polarized(CH2, CH.vertical_polarization(), psi)
        with pytest.raises(ChartError, match="different chart"):
            quantize("normal", CH2.var("q1"), psi, CH.vertical_polarization())
        with pytest.raises(PolarizationError):
            quantize("normal", CH2.var("q1"), psi, CH2.vertical_polarization())


class TestAffineMap:
    def test_contragredient_scaling_preserves_normal_tensor(self):
        from starbundle import driver_tensor

        amap = AffineMap.scaling(CH, 2)
        nu = driver_tensor("normal", CH)
        assert amap.transform(nu) == nu

    def test_translation_of_observable(self):
        amap = AffineMap.translation(CH, b=[1])
        F = CH.var("p1") * CH.var("q1")
        expected = (CH.var("p1") - CH.one()) * CH.var("q1")
        assert amap.transform(F) == expected

    def test_scaling_preserves_poisson_tensor(self):
        from starbundle import driver_tensor

        amap = AffineMap.scaling(CH, 2)
        pi = driver_tensor("moyal", CH)
        assert amap.transform(pi) == pi

    def test_non_contragredient_rejected(self):
        with pytest.raises(ChartError):
            AffineMap(CH, a=[[2]], c=[[1]])

    def test_star_products_match_across_translated_charts(self):
        from starbundle import star_product

        amap = AffineMap.translation(CH, b=[1])
        F = CH.var("p1") * CH.var("q1")
        G = CH.var("p1") + CH.var("q1")
        old = star_product("normal", F, G)
        new = star_product("normal", amap.transform(F), amap.transform(G))
        assert amap.transform(old) == new

    def test_general_map_constructed_from_position_part(self):
        c = [[gaussian(2), gaussian(1)],
             [gaussian(0), gaussian(1)]]
        amap = AffineMap.from_position_part(CH2, c, b=[1, 0], d=[0, 2])
        # p.q pairing is preserved up to affine terms: check the bilinear part
        F = CH2.zero()
        for pv, qv in zip(CH2.momentum_vars, CH2.position_vars):
            F = F + CH2.var(pv) * CH2.var(qv)
        transformed = amap.transform(F)
        quadratic = EquivariantFunction(CH2, {
            m: c for m, c in transformed.terms.items() if m.degree() == 2
        })
        assert quadratic == F

    def test_scaling_by_zero_is_singular(self):
        with pytest.raises(ChartError, match="matrix is singular"):
            AffineMap.scaling(CH, 0)

    def test_vector_with_too_many_entries_rejected(self):
        with pytest.raises(ChartError, match="has 2 entries, not n = 1"):
            AffineMap(CH, [[1]], [[1]], b=[1, 2])

    def test_vector_with_too_few_entries_rejected(self):
        eye = [[1, 0], [0, 1]]
        with pytest.raises(ChartError, match="has 1 entries, not n = 2"):
            AffineMap(CH2, eye, eye, b=[1]).transform(CH2.var("p2"))
        with pytest.raises(ChartError, match="has 1 entries, not n = 2"):
            AffineMap(CH2, [[1, 0], [0]], eye)

    def test_hbar_dependent_entries_rejected(self):
        with pytest.raises(ChartError, match="must not depend on hbar"):
            AffineMap.scaling(CH, Coefficient.hbar(1))
        with pytest.raises(ChartError, match="must not depend on hbar"):
            AffineMap.translation(CH, d=[Coefficient.hbar(-1, 2)])

    def test_jets_rejected(self):
        amap = AffineMap.translation(CH, b=[1])
        with pytest.raises(ChartError):
            amap.transform(position_wave(CH))


class TestLiftCommutators:
    def test_structural_commutator(self):
        lp = horizontal_lift(CH, "p1")
        lq = horizontal_lift(CH, "q1")
        eta = CH.reeb_field()
        assert lp.commutator(lq) == eta * Coefficient.hbar(-1, -1)
        assert eta.commutator(lq).is_zero()

    def test_off_diagonal_commutators_vanish(self):
        lp = horizontal_lift(CH2, "p1")
        lq = horizontal_lift(CH2, "q2")
        assert lp.commutator(lq).is_zero()

    def test_reeb_acts_as_angular_weight(self):
        eta = CH.reeb_field()
        psi = position_wave(CH)
        assert eta(psi) == psi * gaussian(0, 1)
