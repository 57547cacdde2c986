"""Quantum operators as normal-form differential operators.

Quantizing an observable against a generic-jet wave function produces a
function linear in the jet symbols; reading off their coefficients
yields a differential operator in the configuration variables of the
representation.  Operators compose exactly and admit a formal adjoint
(integration by parts with real configuration variables), which is how
symmetry statements are checked without any Hilbert-space analysis.
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType

from .algebra import EquivariantFunction, Frozen, Monomial, add_into, higher_derivative
from .errors import ChartError, ExtractionError
from .geometry import (
    Chart,
    Polarization,
    bargmann_wave,
    chart_cache,
    momentum_wave,
    position_wave,
)
from .products import StarKind, quantize
from .scalars import Coefficient


class Representation(Frozen):
    """A choice of configuration variables, wave-function shape and
    polarization, holding its generic wave."""

    __slots__ = ("name", "chart", "config_vars", "polarization", "_wave_builder", "_generic")

    def __init__(self, name: str, chart: Chart, config_vars, polarization: Polarization, wave_builder):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "config_vars", tuple(config_vars))
        object.__setattr__(self, "polarization", polarization)
        object.__setattr__(self, "_wave_builder", wave_builder)
        object.__setattr__(self, "_generic", wave_builder(chart))

    @staticmethod
    def position(chart: Chart) -> "Representation":
        return Representation(
            "position", chart, chart.position_vars,
            chart.vertical_polarization(), position_wave,
        )

    @staticmethod
    def momentum(chart: Chart) -> "Representation":
        return Representation(
            "momentum", chart, chart.momentum_vars,
            chart.horizontal_polarization(), momentum_wave,
        )

    @staticmethod
    def bargmann(chart: Chart) -> "Representation":
        return Representation(
            "bargmann", chart, ("z",),
            chart.antiholomorphic_polarization(), bargmann_wave,
        )

    @staticmethod
    def named(name: str, chart: Chart) -> "Representation":
        """The representation of that name, built once per chart in the chart cache."""
        if name not in ("position", "momentum", "bargmann"):
            raise ChartError(f"unknown representation {name!r}")
        return chart_cache(getattr(Representation, name), chart)

    @staticmethod
    def default(chart: Chart, kind) -> "Representation":
        """The named representation a product kind quantizes in when none
        is given: bargmann on the bargmann chart, else momentum for the
        antinormal product and position for the others."""
        kind = StarKind.coerce(kind)
        if chart.kind == "bargmann":
            return Representation.named("bargmann", chart)
        return Representation.named("momentum" if kind == StarKind.ANTINORMAL else "position", chart)

    def wave(self, component=None) -> EquivariantFunction:
        return self._generic if component is None else self._wave_builder(self.chart, component)

    def generic_wave(self) -> EquivariantFunction:
        return self._generic

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return self.name == other.name and self.chart == other.chart

    def __repr__(self):
        return f"Representation({self.name!r}, {self.chart!r})"


class DiffOperator(Frozen):
    """sum_alpha c_alpha(x) d^alpha in the configuration variables.

    Normal form: coefficients to the left of derivatives, terms keyed
    by the derivative multi-index in a read-only mapping.  Application
    to a generic jet reproduces the function the operator was extracted
    from.
    """

    __slots__ = ("rep", "terms")

    def __init__(self, rep: Representation, terms):
        object.__setattr__(self, "rep", rep)
        clean = {}
        for alpha, poly in terms.items():
            alpha = tuple(int(x) for x in alpha)
            if len(alpha) != len(rep.config_vars):
                raise ChartError("derivative multi-index does not match the representation")
            if not poly.is_zero():
                self._check_config_poly(poly)
                clean[alpha] = poly
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def _check_config_poly(self, poly: EquivariantFunction):
        if poly.jet_vars or poly.theta_weight or poly.weight_factor is not None:
            raise ChartError("operator coefficients are plain polynomials")
        allowed = set(self.rep.config_vars)
        for mono in poly.terms:
            if set(mono.var_map()) - allowed:
                raise ChartError("operator coefficients involve non-configuration variables")

    @staticmethod
    def identity(rep: Representation) -> "DiffOperator":
        zero_alpha = (0,) * len(rep.config_vars)
        return DiffOperator(rep, {zero_alpha: rep.chart.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.rep != other.rep:
            raise ChartError("cannot add operators in different representations")
        terms = dict(self.terms)
        for alpha, poly in other.terms.items():
            add_into(terms, alpha, poly)
        return DiffOperator(self.rep, terms)

    def __neg__(self):
        return DiffOperator(self.rep, {a: -p for a, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scale) -> "DiffOperator":
        scale = Coefficient.coerce(scale)
        return DiffOperator(self.rep, {a: p * scale for a, p in self.terms.items()})

    __rmul__ = __mul__

    def apply_to(self, component: EquivariantFunction) -> EquivariantFunction:
        """Apply to a concrete jet-free polynomial in the configuration variables."""
        self._check_config_poly(component)
        out = EquivariantFunction.zero(self.rep.chart)
        for alpha, poly in self.terms.items():
            out = out + poly * higher_derivative(component, self.rep.config_vars, alpha)
        return out

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition, re-expressed in normal form via the Leibniz rule."""
        if self.rep != other.rep:
            raise ChartError("cannot compose operators in different representations")
        config = self.rep.config_vars
        terms: dict[tuple, EquivariantFunction] = {}
        for alpha, c in self.terms.items():
            for beta, d in other.terms.items():
                for gamma in _multi_range(alpha):
                    dg = higher_derivative(d, config, gamma)
                    if dg.is_zero():
                        continue
                    binom = 1
                    for a_i, g_i in zip(alpha, gamma):
                        binom *= comb(a_i, g_i)
                    new_alpha = tuple(a_i - g_i + b_i for a_i, g_i, b_i in zip(alpha, gamma, beta))
                    add_into(terms, new_alpha, c * dg * binom)
        return DiffOperator(self.rep, terms)

    def adjoint(self) -> "DiffOperator":
        """Formal adjoint: (d/dx)^dagger = -d/dx, (x.)^dagger = x., scalars conjugated.

        Only meaningful where the configuration variables are real,
        i.e. in the position and momentum representations.
        """
        if self.rep.chart.kind != "real":
            raise ChartError("the formal adjoint is defined for real-chart representations")
        config = self.rep.config_vars
        terms: dict[tuple, EquivariantFunction] = {}
        for alpha, c in self.terms.items():
            sign = -1 if sum(alpha) % 2 else 1
            cbar = EquivariantFunction(
                self.rep.chart, {m: v.conjugate() for m, v in c.terms.items()},
            )
            for gamma in _multi_range(alpha):
                cg = higher_derivative(cbar, config, gamma)
                if cg.is_zero():
                    continue
                binom = 1
                for a_i, g_i in zip(alpha, gamma):
                    binom *= comb(a_i, g_i)
                new_alpha = tuple(a_i - g_i for a_i, g_i in zip(alpha, gamma))
                add_into(terms, new_alpha, cg * (binom * sign))
        return DiffOperator(self.rep, terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.rep == other.rep and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"<DiffOperator {self}>"

    def __str__(self):
        from .render import format_operator

        return format_operator(self)


def _multi_range(alpha):
    """All multi-indices gamma with 0 <= gamma <= alpha componentwise."""
    if not alpha:
        yield ()
        return
    head, tail = alpha[0], alpha[1:]
    for g in range(head + 1):
        for rest in _multi_range(tail):
            yield (g,) + rest


def extract_operator(kind, observable: EquivariantFunction, rep: Representation) -> DiffOperator:
    """Quantize against the generic jet of the representation and read off
    the coefficient of each jet symbol."""
    out = quantize(kind, observable, rep.generic_wave(), rep.polarization)
    chart = rep.chart
    allowed = set(rep.config_vars)
    collected: dict[tuple, dict[Monomial, Coefficient]] = {}
    for mono, coeff in out.terms.items():
        if len(mono.jets) != 1 or mono.jets[0][1] != 1:
            raise ExtractionError("quantization output is not linear in the jet symbols")
        alpha = mono.jets[0][0]
        config_mono = Monomial(mono.vars)
        if set(config_mono.var_map()) - allowed:
            raise ExtractionError(
                f"coefficient of jet {alpha} involves non-configuration variables"
            )
        bucket = collected.setdefault(alpha, {})
        bucket[config_mono] = bucket.get(config_mono, Coefficient.zero()) + coeff
    terms = {
        alpha: EquivariantFunction(chart, bucket) for alpha, bucket in collected.items()
    }
    return DiffOperator(rep, terms)

