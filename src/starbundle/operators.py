"""Quantum operators as normal-form differential operators.

Quantizing an observable against a generic-jet wave function produces a
function linear in the jet symbols; reading off their coefficients
yields a differential operator in the configuration variables of the
representation.  An operator A = sum_a c_a(x) d^a is stored as its
symbol s_A = sum_a c_a(x) xi^a, xi the bracket partners of x.  Operators
compose exactly, by the star series sum_g (1/g!) d_xi^g s_A d_x^g s_B,
and admit a formal adjoint of symbol exp(sum_k d_x_k d_xi_k)
conj(s_A)(x, -xi) (integration by parts with real x), which is how
symmetry statements are checked without any Hilbert-space analysis.
"""

from __future__ import annotations

import operator
from types import MappingProxyType

from .algebra import EquivariantFunction, Frozen, Monomial, _make, _monomial, higher_derivative
from .errors import ChartError, ExtractionError
from .geometry import Chart, bargmann_wave, chart_cache, momentum_wave, position_wave
from .products import StarKind, driver_tensor, exponential_product, laplacian_exponential, quantize
from .scalars import C_I, C_ONE, Coefficient

# Each representation: the chart attribute naming its configuration
# variables (z is the bargmann chart's momentum variable), its polarization,
# its wave builder, and the standard driver and constant c = 1/b of its
# compose series.  The driver's pairs are (b d/dxi_k, d/dx_k), so
# exp(c Lambda) is exp(sum_k d/dxi_k (x) d/dx_k): normal (d/dp_k, d/dq_k),
# antinormal (-d/dq_k, d/dp_k) and wick (2i d/dzb, d/dz).
_REPRESENTATIONS = {
    "position": ("position_vars", Chart.vertical_polarization, position_wave,
                 StarKind.NORMAL, C_ONE),
    "momentum": ("momentum_vars", Chart.horizontal_polarization, momentum_wave,
                 StarKind.ANTINORMAL, -C_ONE),
    "bargmann": ("momentum_vars", Chart.antiholomorphic_polarization, bargmann_wave,
                 StarKind.WICK, C_I.scaled(-1, 2)),
}


class Representation(Frozen):
    """The position, momentum or bargmann representation on a chart: its
    configuration variables, their symbol variables, its polarization and
    its generic wave."""

    __slots__ = ("name", "chart", "config_vars", "dual_vars", "polarization", "_wave_builder",
                 "_compose", "_generic")

    def __init__(self, name: str, chart: Chart):
        try:
            config, polarize, build, kind, c = _REPRESENTATIONS[name]
        except KeyError:
            raise ChartError(f"unknown representation {name!r}") from None
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "polarization", polarize(chart))
        object.__setattr__(self, "config_vars", getattr(chart, config))
        # the symbol variable xi_k of d/dx_k is x_k's partner in a bracket pair
        partner = {x: y for _, u, v in chart.bracket_pairs for x, y in ((u, v), (v, u))}
        object.__setattr__(self, "dual_vars", tuple(partner[x] for x in self.config_vars))
        object.__setattr__(self, "_wave_builder", build)
        object.__setattr__(self, "_compose", (kind, c))
        object.__setattr__(self, "_generic", build(chart))

    @staticmethod
    def named(name: str, chart: Chart) -> "Representation":
        """The representation of that name, built once per chart in the chart cache."""
        return chart_cache(Representation, name, chart)

    @staticmethod
    def position(chart: Chart) -> "Representation":
        return Representation.named("position", chart)

    @staticmethod
    def momentum(chart: Chart) -> "Representation":
        return Representation.named("momentum", chart)

    @staticmethod
    def bargmann(chart: Chart) -> "Representation":
        return Representation.named("bargmann", chart)

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


def _operator(rep: Representation, symbol: EquivariantFunction) -> "DiffOperator":
    """Trusted constructor: ``symbol`` is a plain polynomial on the
    representation's chart."""
    op = object.__new__(DiffOperator)
    object.__setattr__(op, "rep", rep)
    object.__setattr__(op, "_symbol", symbol)
    return op


class DiffOperator(Frozen):
    """sum_alpha c_alpha(x) d^alpha in the configuration variables, held as
    its symbol sum_alpha c_alpha(x) xi^alpha.

    Normal form: coefficients to the left of derivatives.  ``terms`` is
    the read-only view keyed by the derivative multi-index.  Application
    to a generic jet reproduces the function the operator was extracted
    from.
    """

    __slots__ = ("rep", "_symbol")

    def __init__(self, rep: Representation, terms):
        symbol = {}
        for alpha, poly in terms.items():
            try:
                alpha = tuple(map(operator.index, alpha))
            except TypeError:
                alpha = None
            if alpha is None or min(alpha, default=0) < 0:
                raise ChartError("derivative multi-index entries must be non-negative integers")
            if len(alpha) != len(rep.config_vars):
                raise ChartError("derivative multi-index does not match the representation")
            _check_config_poly(rep, poly)
            xi = tuple(zip(rep.dual_vars, alpha))
            for mono, coeff in poly.terms.items():
                symbol[Monomial(mono.vars + xi)] = coeff
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "_symbol", _make(rep.chart, symbol, 0, (), None))

    @staticmethod
    def from_symbol(rep: Representation, s: EquivariantFunction) -> "DiffOperator":
        """The operator sum_a c_a(x) d^a of the symbol sum_a c_a(x) xi^a."""
        if not s.is_observable() or s.chart != rep.chart:
            raise ChartError("a symbol is a plain polynomial on the representation's chart")
        return _operator(rep, s)

    def symbol(self) -> EquivariantFunction:
        """sum_a c_a(x) xi^a, xi the dual variables of the representation."""
        return self._symbol

    def _split(self):
        """(alpha, configuration monomial, coefficient) for each symbol term."""
        dual = self.rep.dual_vars
        for mono, coeff in self._symbol.terms.items():
            powers = dict(mono.vars)
            alpha = tuple([powers.pop(xi, 0) for xi in dual])
            yield alpha, _monomial(tuple(powers.items()), ()), coeff

    @property
    def terms(self):
        """The coefficient c_alpha of each d^alpha, a read-only mapping."""
        table: dict[tuple, dict] = {}
        for alpha, mono, coeff in self._split():
            table.setdefault(alpha, {})[mono] = coeff
        chart = self.rep.chart
        return MappingProxyType({a: _make(chart, t, 0, (), None) for a, t in table.items()})

    @staticmethod
    def identity(rep: Representation) -> "DiffOperator":
        return _operator(rep, rep.chart.one())

    def is_zero(self) -> bool:
        return self._symbol.is_zero()

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.rep != other.rep:
            raise ChartError("cannot add operators in different representations")
        return _operator(self.rep, self._symbol + other._symbol)

    def __neg__(self):
        return _operator(self.rep, -self._symbol)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scale) -> "DiffOperator":
        return _operator(self.rep, self._symbol * Coefficient.coerce(scale))

    __rmul__ = __mul__

    def apply_to(self, component: EquivariantFunction) -> EquivariantFunction:
        """Apply to a concrete jet-free polynomial in the configuration variables."""
        _check_config_poly(self.rep, component)
        out = EquivariantFunction.zero(self.rep.chart)
        for alpha, poly in self.terms.items():
            out = out + poly * higher_derivative(component, self.rep.config_vars, alpha)
        return out

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition in normal form: the composite's symbol
        sum_g (1/g!) d_xi^g s_A d_x^g s_B is the star series of the
        representation's compose driver, which raises :class:`LimitError`
        past ``products.MAX_SERIES_WORK``."""
        if self.rep != other.rep:
            raise ChartError("cannot compose operators in different representations")
        kind, c = self.rep._compose
        driver = driver_tensor(kind, self.rep.chart)
        return _operator(self.rep, exponential_product(driver, self._symbol, other._symbol, c))

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
        for mono, coeff in self._symbol.terms.items():
            odd = sum(e for v, e in mono.vars if v in dual) % 2
            reflected[mono] = (-coeff if odd else coeff).conjugate()
        s = laplacian_exponential(chart, _make(chart, reflected, 0, (), None), -C_ONE)
        return _operator(self.rep, s)

    def sorted_terms(self):
        """(alpha, monomial, coefficient) for each term c x^m d^alpha, the
        order printers use: by alpha, then by the monomial's order."""
        return sorted(self._split(), key=lambda term: (term[0], term[1].sort_key()))

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.rep == other.rep and self._symbol == other._symbol

    __hash__ = None

    def __repr__(self):
        return f"<DiffOperator {self}>"

    def __str__(self):
        from .render import format_operator

        return format_operator(self)


def _check_config_poly(rep: Representation, poly: EquivariantFunction):
    if poly.jet_vars or poly.theta_weight or poly.weight_factor is not None:
        raise ChartError("operator coefficients are plain polynomials")
    allowed = set(rep.config_vars)
    for mono in poly.terms:
        if set(mono.var_map()) - allowed:
            raise ChartError("operator coefficients involve non-configuration variables")


def extract_operator(kind, observable: EquivariantFunction, rep: Representation) -> DiffOperator:
    """Quantize against the generic jet of the representation and read off
    the coefficient of each jet symbol, straight into the symbol."""
    out = quantize(kind, observable, rep.generic_wave(), rep.polarization)
    allowed = set(rep.config_vars)
    symbol = {}
    for mono, coeff in out.terms.items():
        if len(mono.jets) != 1 or mono.jets[0][1] != 1:
            raise ExtractionError("quantization output is not linear in the jet symbols")
        alpha = mono.jets[0][0]
        if set(mono.var_map()) - allowed:
            raise ExtractionError(
                f"coefficient of jet {alpha} involves non-configuration variables")
        symbol[Monomial(mono.vars + tuple(zip(rep.dual_vars, alpha)))] = coeff
    return _operator(rep, _make(rep.chart, symbol, 0, (), None))
