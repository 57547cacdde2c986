"""Quantum operators as normal-form differential operators.

Quantizing an observable against a generic-jet wave function produces a
function linear in the jet symbols; reading off their coefficients
yields a differential operator in the configuration variables of the
representation.  Through the symbol s_A = sum_a c_a(x) xi^a of
A = sum_a c_a(x) d^a, xi the bracket partners of x, operators compose
exactly, by the star series sum_g (1/g!) d_xi^g s_A d_x^g s_B, and admit
a formal adjoint of symbol exp(sum_k d_x_k d_xi_k) conj(s_A)(x, -xi)
(integration by parts with real x), which is how symmetry statements
are checked without any Hilbert-space analysis.
"""

from __future__ import annotations

import operator
from types import MappingProxyType

from .algebra import (
    EquivariantFunction, Frozen, Monomial, _make, _monomial, add_into, higher_derivative,
)
from .errors import ChartError, ExtractionError
from .geometry import (
    Chart,
    Polarization,
    bargmann_wave,
    chart_cache,
    momentum_wave,
    position_wave,
)
from .products import StarKind, driver_tensor, exponential_product, laplacian_exponential, quantize
from .scalars import C_ONE, Coefficient, GaussianRational


class Representation(Frozen):
    """A choice of configuration variables, wave-function shape and
    polarization, holding its generic wave."""

    __slots__ = ("name", "chart", "config_vars", "dual_vars", "polarization", "_wave_builder",
                 "_generic")

    def __init__(self, name: str, chart: Chart, config_vars, polarization: Polarization, wave_builder):
        partner = {x: y for _, u, v in chart.bracket_pairs for x, y in ((u, v), (v, u))}
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "config_vars", tuple(config_vars))
        # the symbol variable xi_k of d/dx_k is x_k's partner in a bracket pair
        object.__setattr__(self, "dual_vars", tuple(partner[x] for x in self.config_vars))
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
            try:
                alpha = tuple(map(operator.index, alpha))
            except TypeError:
                alpha = None
            if alpha is None or min(alpha, default=0) < 0:
                raise ChartError("derivative multi-index entries must be non-negative integers")
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
        return DiffOperator.from_symbol(rep, rep.chart.one())

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

    def symbol(self) -> EquivariantFunction:
        """sum_a c_a(x) xi^a, xi the dual variables of the representation."""
        terms = {}
        for alpha, poly in self.terms.items():
            xi = tuple(zip(self.rep.dual_vars, alpha))
            for mono, coeff in poly.terms.items():
                terms[Monomial(mono.vars + xi)] = coeff
        return _make(self.rep.chart, terms, 0, (), None)

    @staticmethod
    def from_symbol(rep: Representation, s: EquivariantFunction) -> "DiffOperator":
        """The operator sum_a c_a(x) d^a of the symbol sum_a c_a(x) xi^a."""
        if not s.is_observable() or s.chart != rep.chart:
            raise ChartError("a symbol is a plain polynomial on the representation's chart")
        dual = rep.dual_vars
        entries = []
        for mono, coeff in s.terms.items():
            powers = dict(mono.vars)
            config = _monomial(tuple(item for item in mono.vars if item[0] not in dual), ())
            entries.append((tuple(powers.get(xi, 0) for xi in dual), config, coeff))
        return _collect(rep, entries)

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition in normal form: the composite's symbol
        sum_g (1/g!) d_xi^g s_A d_x^g s_B is the star series of ``_COMPOSE``,
        which raises :class:`LimitError` past ``products.MAX_SERIES_WORK``."""
        if self.rep != other.rep:
            raise ChartError("cannot compose operators in different representations")
        kind, c = _COMPOSE[self.rep.name]
        driver = driver_tensor(kind, self.rep.chart)
        return DiffOperator.from_symbol(
            self.rep, exponential_product(driver, self.symbol(), other.symbol(), c))

    def adjoint(self) -> "DiffOperator":
        """Formal adjoint: (d/dx)^dagger = -d/dx, (x.)^dagger = x., scalars conjugated.

        Its symbol is exp(-Laplacian) conj(s_A)(x, -xi), where -Laplacian =
        sum_k d_x_k d_xi_k.  Only meaningful where the configuration
        variables are real, i.e. in the position and momentum representations.
        """
        chart = self.rep.chart
        if chart.kind != "real":
            raise ChartError("the formal adjoint is defined for real-chart representations")
        dual = self.rep.dual_vars
        reflected = {}  # conj(s_A)(x, -xi)
        for mono, coeff in self.symbol().terms.items():
            odd = sum(e for v, e in mono.vars if v in dual) % 2
            reflected[mono] = (-coeff if odd else coeff).conjugate()
        s = laplacian_exponential(chart, _make(chart, reflected, 0, (), None), -C_ONE)
        return DiffOperator.from_symbol(self.rep, s)

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


# Each representation's standard driver, whose pairs are (b d/dxi_k, d/dx_k),
# and c = 1/b, so exp(c Lambda) is exp(sum_k d/dxi_k (x) d/dx_k): normal
# (d/dp_k, d/dq_k), antinormal (-d/dq_k, d/dp_k) and wick (2i d/dzb, d/dz).
_COMPOSE = {
    "position": (StarKind.NORMAL, C_ONE),
    "momentum": (StarKind.ANTINORMAL, -C_ONE),
    "bargmann": (StarKind.WICK, Coefficient.coerce(GaussianRational(0, -1) / 2)),
}


def _collect(rep: Representation, entries) -> DiffOperator:
    """The operator whose d^alpha coefficient is the sum of coeff * mono over
    the (alpha, mono, coeff) entries, no two with the same alpha and mono."""
    terms: dict[tuple, dict] = {}
    for alpha, mono, coeff in entries:
        terms.setdefault(alpha, {})[mono] = coeff
    return DiffOperator(rep, {a: _make(rep.chart, t, 0, (), None) for a, t in terms.items()})


def extract_operator(kind, observable: EquivariantFunction, rep: Representation) -> DiffOperator:
    """Quantize against the generic jet of the representation and read off
    the coefficient of each jet symbol."""
    out = quantize(kind, observable, rep.generic_wave(), rep.polarization)
    allowed = set(rep.config_vars)
    entries = []
    for mono, coeff in out.terms.items():
        if len(mono.jets) != 1 or mono.jets[0][1] != 1:
            raise ExtractionError("quantization output is not linear in the jet symbols")
        alpha = mono.jets[0][0]
        if set(mono.var_map()) - allowed:
            raise ExtractionError(
                f"coefficient of jet {alpha} involves non-configuration variables")
        entries.append((alpha, _monomial(mono.vars, ()), coeff))
    return _collect(rep, entries)
