"""Every value type refuses mutation, and values built in several threads
at once, from a cold chart cache, equal the ones built in one."""

import sys
import threading

import pytest

from starbundle import (
    AffineMap,
    Chart,
    EquivariantFunction,
    Monomial,
    Representation,
    WeightFactor,
    driver_tensor,
    extract_operator,
    lower_expression,
    momentum_phase,
    quantize,
)
from starbundle.geometry import chart_cache
from starbundle.scalars import C_ONE

CH = Chart.real(1)


def _function():
    return CH.var("p1") * 2 + CH.var("q1")


def _operator():
    return extract_operator("moyal", CH.var("q1") * CH.var("p1"), Representation.position(CH))


# (value, an attribute to assign, the mappings it holds)
VALUES = {
    "EquivariantFunction": lambda: (_function(), "chart", [_function().terms]),
    "Chart": lambda: (CH, "n", []),
    "DiffOperator": lambda: (_operator(), "rep", [_operator().terms]),
    "Representation": lambda: (Representation.position(CH), "config_vars", []),
    "WeightFactor": lambda: (momentum_phase(CH), "name", [momentum_phase(CH).log_derivatives]),
    "Polarization": lambda: (CH.vertical_polarization(), "directions", []),
    "DriverTensor": lambda: (driver_tensor("moyal", CH), "pairs", []),
    "DriverTensor lifted": lambda: (driver_tensor("moyal", CH).lift(), "lifted", []),
    "Monomial": lambda: (Monomial([("p1", 2)]), "vars", []),
    "Derivation": lambda: (CH.coordinate_field("p1"), "coeffs",
                           [CH.coordinate_field("p1").coeffs]),
    "AffineMap": lambda: (AffineMap.scaling(CH, 2), "a", []),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_attribute_assignment_and_deletion_raise(name):
    value, attribute, _ = VALUES[name]()
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, attribute, None)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, "extra", 1)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(value, attribute)
    with pytest.raises((AttributeError, TypeError)):
        vars(value)["extra"] = 1


@pytest.mark.parametrize("name", sorted(name for name in VALUES if VALUES[name]()[2]))
def test_mappings_are_read_only(name):
    _, _, mappings = VALUES[name]()
    for mapping in mappings:
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
        with pytest.raises(AttributeError):
            mapping.clear()
        with pytest.raises(AttributeError):
            mapping.update({})


def test_the_terms_of_a_variable_cannot_be_cleared():
    with pytest.raises(AttributeError):
        Chart.real(1).var("p1").terms.clear()
    assert Chart.real(1).var("p1").terms == {Monomial([("p1", 1)]): C_ONE}


def test_constructors_copy_what_they_are_given():
    terms = {Monomial([("p1", 1)]): C_ONE}
    f = EquivariantFunction(CH, terms)
    table = {"p1": CH.var("q1"), "q1": CH.var("p1")}
    factor = WeightFactor("w", table)
    terms.clear()
    table.clear()
    assert f == CH.var("p1")
    assert set(factor.log_derivatives) == {"p1", "q1"}


def test_quantize_in_eight_threads_from_a_cold_cache_equals_the_serial_result():
    text = "(2 - 3*i)*q3*q7*p16 + (1/2)*hbar^-1*q12^2 + (3/4*i)*p5*q5 + 7"
    kinds = ("normal", "antinormal", "moyal", "normal", "antinormal", "moyal", "normal", "moyal")

    def run(kind):
        chart = Chart.real(16)
        rep = Representation.momentum(chart) if kind == "antinormal" \
            else Representation.position(chart)
        return quantize(kind, lower_expression(text, chart), rep.generic_wave(), rep.polarization)

    serial = {kind: run(kind) for kind in set(kinds)}
    chart_cache.cache_clear()
    barrier = threading.Barrier(len(kinds), timeout=60)
    results = [None] * len(kinds)

    def worker(index):
        barrier.wait()
        results[index] = run(kinds[index])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(kinds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial[kind] for kind in kinds]
