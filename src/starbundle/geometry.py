"""Charts on the prequantized phase space and the geometry built on them.

A chart fixes coordinates on the base (canonical p_i, q^i, or the
complex pair z, zb), the connection 1-form on the circle bundle above
it, and hence horizontal lifts, the Souriau bracket, Hamiltonian
vector fields and polarizations.  Only flat charts appear; global
statements reduce to agreement under the affine overlap maps
implemented by :class:`AffineMap`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from .algebra import (
    THETA, Derivation, EquivariantFunction, Frozen, WeightFactor, _make, _product_into, add_into,
)
from .errors import ChartError, ObservableError
from .scalars import C_I, C_ONE, I_OVER_HBAR, Coefficient

_C_ZERO = Coefficient.zero()
_NO_ALPHA = (None, _C_ZERO)


class Chart(Frozen):
    """A canonical chart, either real bi-polarized or the complex plane.

    real kind:     variables p_1..p_n, q_1..q_n; bivector
                   pi = sum_i d/dp_i ^ d/dq^i; connection
                   alpha = (1/hbar) p_i dq^i + dtheta.
    bargmann kind: variables z, zb (n = 1); pi = 2i d/dzb ^ d/dz;
                   alpha = (1/(4 i hbar)) (zb dz - z dzb) + dtheta.

    ``bracket_pairs`` holds pi as (c, u, v) with pi = sum c d/du ^ d/dv.
    The constructor is the one place that knows each kind's geometry;
    everything else is computed from the pairs and the connection.
    Charts are equal when kind and dimension are, and equal charts share
    one :func:`chart_cache` entry per structure built from them.
    """

    __slots__ = ("kind", "n", "momentum_vars", "position_vars", "variables",
                 "bracket_pairs", "_scale_of", "_alpha", "_hash")

    def __init__(self, kind: str, n: int):
        if kind == "real":
            if n < 1:
                raise ChartError("real chart needs dimension n >= 1")
            momentum_vars = tuple(f"p{i}" for i in range(1, n + 1))
            position_vars = tuple(f"q{i}" for i in range(1, n + 1))
            pairs = [(C_ONE, pv, qv) for pv, qv in zip(momentum_vars, position_vars)]
            # alpha(d/dq^i) = p_i / hbar
            inverse_hbar = Coefficient.hbar(-1)
            alpha = {qv: (pv, inverse_hbar) for _, pv, qv in pairs}
        elif kind == "bargmann":
            if n != 1:
                raise ChartError("the bargmann chart is one-dimensional")
            momentum_vars, position_vars = ("z",), ("zb",)
            pairs = [(C_I * 2, "zb", "z")]
            # alpha(d/dz) = zb / (4 i hbar), alpha(d/dzb) = -z / (4 i hbar)
            alpha = {"z": ("zb", I_OVER_HBAR.scaled(-1, 4)), "zb": ("z", I_OVER_HBAR.scaled(1, 4))}
        else:
            raise ChartError(f"unknown chart kind {kind!r}")
        variables = momentum_vars + position_vars
        # alpha(d/dv) as (w, scale), meaning scale * w, or scale when w is None
        alpha = {v: alpha.get(v, _NO_ALPHA) for v in variables}
        alpha[THETA] = (None, C_ONE)
        for name, value in (
            ("kind", kind), ("n", n), ("momentum_vars", momentum_vars),
            ("position_vars", position_vars), ("variables", variables),
            ("bracket_pairs", tuple(pairs)),
            ("_scale_of", MappingProxyType({(u, v): c for c, u, v in pairs})),
            ("_alpha", MappingProxyType(alpha)), ("_hash", hash((kind, n))),
        ):
            object.__setattr__(self, name, value)

    @staticmethod
    def real(n: int = 1) -> "Chart":
        return Chart("real", n)

    @staticmethod
    def bargmann() -> "Chart":
        return Chart("bargmann", 1)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Chart) and self.kind == other.kind and self.n == other.n)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Chart({self.kind!r}, n={self.n})"

    # -- element constructors ------------------------------------------

    def var(self, name: str) -> EquivariantFunction:
        return EquivariantFunction.variable(self, name)

    def constant(self, value) -> EquivariantFunction:
        return EquivariantFunction.constant(self, value)

    def zero(self) -> EquivariantFunction:
        return EquivariantFunction.zero(self)

    def one(self) -> EquivariantFunction:
        return EquivariantFunction.one(self)

    # -- connection and symplectic form in coordinates ------------------

    def alpha_of(self, var: str) -> EquivariantFunction:
        """The connection evaluated on the coordinate field d/d<var>."""
        try:
            return chart_cache(_connection, self).alpha[var]
        except KeyError:
            raise ChartError(f"unknown variable {var!r}") from None

    def omega_of(self, u: str, v: str) -> Coefficient:
        """The symplectic form on a pair of coordinate fields: 1/c on a
        bracket pair (c, u, v), -1/c on (c, v, u), and 0 elsewhere."""
        if (u, v) in self._scale_of:
            return C_ONE / self._scale_of[(u, v)]
        if (v, u) in self._scale_of:
            return -C_ONE / self._scale_of[(v, u)]
        return Coefficient.zero()

    # -- vector fields ---------------------------------------------------

    def coordinate_field(self, var: str, scale=1) -> Derivation:
        return Derivation.coordinate(self, var, scale)

    def reeb_field(self) -> Derivation:
        """The fundamental vertical field d/dtheta."""
        return Derivation.coordinate(self, THETA)

    # -- polarizations -----------------------------------------------------

    def vertical_polarization(self) -> "Polarization":
        if self.kind != "real":
            raise ChartError("vertical polarization is defined on real charts")
        return chart_cache(Polarization, "J", self, self.momentum_vars)

    def horizontal_polarization(self) -> "Polarization":
        if self.kind != "real":
            raise ChartError("horizontal polarization is defined on real charts")
        return chart_cache(Polarization, "K", self, self.position_vars)

    def antiholomorphic_polarization(self) -> "Polarization":
        if self.kind != "bargmann":
            raise ChartError("antiholomorphic polarization needs the bargmann chart")
        return chart_cache(Polarization, "J", self, ("zb",))


# -- structure built once per chart ---------------------------------------

# Entries the chart cache keeps; the least recently used goes first.
CHART_CACHE_SIZE = 64


@lru_cache(maxsize=CHART_CACHE_SIZE)
def chart_cache(build, *key):
    """``build(*key)`` for a key that holds a chart and whatever else
    names the value: the connection, lifted coordinate fields,
    polarizations and generic prequantum wave here, the product
    drivers in :mod:`starbundle.products` and the named representations
    in :mod:`starbundle.operators`, each with its generic wave.

    What it returns depends only on the key and is immutable, so every
    caller and every thread may share it.  Two threads that miss the
    same key at once each build the value, and both get equal values.
    ``chart_cache.cache_clear()`` empties it.
    """
    return build(*key)


_Connection = namedtuple("_Connection", "alpha lifts")


def _connection(chart: Chart) -> _Connection:
    """alpha on each coordinate field, theta included, and the horizontal
    lift of each chart coordinate field, in read-only mappings."""
    alpha = {
        v: (chart.one() if w is None else chart.var(w)) * scale
        for v, (w, scale) in chart._alpha.items()
    }
    one = chart.one()
    lifts = {v: Derivation(chart, {v: one, THETA: -alpha[v]}) for v in chart.variables}
    return _Connection(MappingProxyType(alpha), MappingProxyType(lifts))


def horizontal_lift(chart: Chart, field) -> Derivation:
    """Horizontal lift v - alpha(v) d/dtheta of a base vector field.

    ``field`` is a coordinate name, whose lift comes from the chart
    cache, or a :class:`Derivation` with no theta component.
    """
    if isinstance(field, str):
        lift = chart_cache(_connection, chart).lifts.get(field)
        if lift is not None:
            return lift
        field = chart.coordinate_field(field)
    if field.chart != chart:
        raise ChartError("field lives on a different chart")
    if THETA in field.coeffs:
        raise ChartError("can only lift base vector fields (no theta component)")
    alpha_value = EquivariantFunction.zero(chart)
    for v, poly in field.coeffs.items():
        alpha_value = alpha_value + poly * chart.alpha_of(v)
    return Derivation(chart, {**field.coeffs, THETA: -alpha_value})


class Polarization(Frozen):
    """A Lagrangian span of coordinate directions selecting wave functions."""

    __slots__ = ("label", "chart", "directions")

    def __init__(self, label: str, chart: Chart, directions):
        directions = tuple(directions)
        if len(directions) != chart.n:
            raise ChartError("a polarization spans n directions")
        for u in directions:
            if u not in chart.variables:
                raise ChartError(f"unknown polarization direction {u!r}")
            for v in directions:
                if chart.omega_of(u, v):
                    raise ChartError(f"directions {u!r}, {v!r} are not omega-orthogonal")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "directions", directions)

    def __eq__(self, other):
        if not isinstance(other, Polarization):
            return NotImplemented
        return (self.label, self.chart, self.directions) == (other.label, other.chart, other.directions)

    def __repr__(self):
        return f"Polarization({self.label!r}, {self.directions!r})"


def is_polarized(chart: Chart, polarization: Polarization, psi: EquivariantFunction) -> bool:
    """True iff every lifted spanning field annihilates psi."""
    return polarization_witness(chart, polarization, psi) is None


def polarization_witness(chart, polarization, psi):
    """First (direction, remainder) with nonzero remainder, or None."""
    if polarization.chart != chart:
        raise ChartError("polarization belongs to a different chart")
    for v in polarization.directions:
        remainder = horizontal_lift(chart, v)(psi)
        if not remainder.is_zero():
            return v, remainder
    return None


# -- Souriau bracket ---------------------------------------------------


def souriau_bracket(
    chart: Chart, f: EquivariantFunction, g: EquivariantFunction
) -> EquivariantFunction:
    """The lifted-bivector bracket of two functions on the bundle.

    Adds c * (lu f * lv g - lv f * lu g) for each bracket pair (c, u, v)
    into one term dict, lifting g only along the slots where f's lift
    is nonzero.  Bilinear and antisymmetric, satisfies the Leibniz
    rule in each slot, reduces to the Poisson bracket on theta-independent
    functions, but fails the Jacobi identity (see the jacobiator).
    """
    if f.chart != chart or g.chart != chart:
        raise ChartError("bracket arguments must live on the given chart")
    lifts = chart_cache(_connection, chart).lifts
    terms, jets = {}, ()
    for scale, u, v in chart.bracket_pairs:
        for a, b, c in ((u, v, scale), (v, u, -scale)):
            left = lifts[a](f)
            if not left.is_zero():
                jets = _product_into(terms, left, lifts[b](g), c, jets)
            elif g.weight_factor is not None:
                g.weight_factor.log_derivative(b)  # raises where lifts[b](g) would
    return _make(chart, terms, f.theta_weight + g.theta_weight, jets,
                 f.weight_factor or g.weight_factor)


def jacobiator(chart, f, g, h) -> EquivariantFunction:
    """Cyclic sum [[f,[[g,h]]]] + [[g,[[h,f]]]] + [[h,[[f,g]]]]."""
    return (
        souriau_bracket(chart, f, souriau_bracket(chart, g, h))
        + souriau_bracket(chart, g, souriau_bracket(chart, h, f))
        + souriau_bracket(chart, h, souriau_bracket(chart, f, g))
    )


def hamiltonian_vector_field(chart: Chart, observable: EquivariantFunction) -> Derivation:
    """xi_F, signed so that xi_{p_i} = d/dq^i and xi_{q^i} = -d/dp_i."""
    if not observable.is_observable():
        raise ObservableError("Hamiltonian vector fields are defined for observables only")
    coeffs: dict[str, EquivariantFunction] = {}
    for scale, u, v in chart.bracket_pairs:
        add_into(coeffs, v, observable.differentiate(u) * scale)
        add_into(coeffs, u, -(observable.differentiate(v) * scale))
    return Derivation(chart, coeffs)


# -- standard weight factors and wave functions --------------------------


def momentum_phase(chart: Chart) -> WeightFactor:
    """The phase exp(i p.q / hbar) carried by momentum-representation waves."""
    if chart.kind != "real":
        raise ChartError("the momentum phase lives on real charts")
    table = {}
    for pv, qv in zip(chart.momentum_vars, chart.position_vars):
        table[pv] = chart.var(qv) * I_OVER_HBAR
        table[qv] = chart.var(pv) * I_OVER_HBAR
    return WeightFactor("exp(i*p.q/hbar)", table)


def bargmann_gaussian(chart: Chart) -> WeightFactor:
    """The Gaussian exp(-z*zb/(4*hbar)) of the holomorphic representation."""
    if chart.kind != "bargmann":
        raise ChartError("the Gaussian factor lives on the bargmann chart")
    minus_quarter = Coefficient.hbar(-1).scaled(-1, 4)
    table = {
        "z": chart.var("zb") * minus_quarter,
        "zb": chart.var("z") * minus_quarter,
    }
    return WeightFactor("exp(-z*zb/(4*hbar))", table)


def _wave(chart, jet_vars, component=None, factor=None) -> EquivariantFunction:
    """component e^{i theta} times the factor; by default the component is
    a generic jet over ``jet_vars``."""
    if component is None:
        component = EquivariantFunction.jet(chart, jet_vars)
    elif component.theta_weight or component.weight_factor is not None:
        raise ChartError("wave components carry no angular weight or factor")
    elif component.jet_vars and component.jet_vars != tuple(jet_vars):
        raise ChartError("wave component uses a different jet family")
    return EquivariantFunction(
        chart, component.terms, theta_weight=1,
        jet_vars=component.jet_vars or jet_vars, weight_factor=factor,
    )


def position_wave(chart: Chart, component=None) -> EquivariantFunction:
    """psi(q) e^{i theta}; by default psi is a generic jet."""
    if chart.kind != "real":
        raise ChartError("position waves live on real charts")
    return _wave(chart, chart.position_vars, component)


def momentum_wave(chart: Chart, component=None) -> EquivariantFunction:
    """phi(p) e^{i(p.q/hbar + theta)}; by default phi is a generic jet."""
    if chart.kind != "real":
        raise ChartError("momentum waves live on real charts")
    return _wave(chart, chart.momentum_vars, component, momentum_phase(chart))


def bargmann_wave(chart: Chart, component=None) -> EquivariantFunction:
    """psi(z) exp(-z*zb/(4 hbar)) e^{i theta}; by default psi is a generic jet."""
    if chart.kind != "bargmann":
        raise ChartError("holomorphic waves live on the bargmann chart")
    return _wave(chart, ("z",), component, bargmann_gaussian(chart))


def prequantum_wave(chart: Chart, component=None) -> EquivariantFunction:
    """psi(p,q) e^{i theta}; by default psi is a generic (unpolarized) jet,
    and that wave is built once per chart in the chart cache."""
    if chart.kind != "real":
        raise ChartError("prequantum generic waves are built on real charts")
    if component is None:
        return chart_cache(_wave, chart, chart.variables)
    return _wave(chart, chart.variables, component)


# -- affine chart changes -------------------------------------------------


def _entries(values, n: int) -> tuple:
    """A row or vector of n hbar-free scalars, as Coefficients."""
    values = tuple(map(Coefficient.coerce, values))
    if len(values) != n:
        raise ChartError(f"an affine map row or vector has {len(values)} entries, not n = {n}")
    if any(k for x in values for k, _ in x.items()):
        raise ChartError("affine map entries must not depend on hbar")
    return values


def _matrix(rows, n: int) -> tuple:
    """An n x n matrix of hbar-free scalars, as Coefficients."""
    rows = tuple(rows)
    if len(rows) != n:
        raise ChartError("matrix size does not match the chart dimension")
    return tuple(_entries(row, n) for row in rows)


def _invert_matrix(m):
    """Exact inverse of a square matrix of constant Coefficients."""
    n = len(m)
    aug = [list(m[r]) + [C_ONE if c == r else _C_ZERO for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ChartError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = C_ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class AffineMap(Frozen):
    """An overlap map p'_j = a_j^i p_i + b_j, q'^j = c^j_i q^i + d^j.

    The matrices must be contragredient (sum_j a_j^i c^j_k = delta^i_k)
    so that the canonical tensors keep their normal form; this is
    exactly the stated a = c^{-1} condition read with the index
    placement.  Non-contragredient input is rejected, and so is a
    matrix that is not n x n, a vector without n entries or an entry
    that depends on hbar.
    """

    __slots__ = ("chart", "a", "c", "b", "d")

    def __init__(self, chart: Chart, a, c, b=None, d=None):
        if chart.kind != "real":
            raise ChartError("affine chart changes are defined on real charts")
        n = chart.n
        a, c = _matrix(a, n), _matrix(c, n)
        b = _entries([0] * n if b is None else b, n)
        d = _entries([0] * n if d is None else d, n)
        for i in range(n):
            for k in range(n):
                s = sum((a[j][i] * c[j][k] for j in range(n)), _C_ZERO)
                if s != (1 if i == k else 0):
                    raise ChartError("a and c are not contragredient (a != c^{-1})")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @staticmethod
    def from_position_part(chart: Chart, c, b=None, d=None) -> "AffineMap":
        """Build the unique contragredient map over a given position matrix."""
        n = chart.n
        c = _matrix(c, n)
        c_inv = _invert_matrix(c)
        a = tuple(tuple(c_inv[i][j] for i in range(n)) for j in range(n))
        return AffineMap(chart, a, c, b, d)

    @staticmethod
    def scaling(chart: Chart, factor) -> "AffineMap":
        """p' = factor*p, q' = q/factor in every slot."""
        n = chart.n
        a = _matrix([[factor if i == j else 0 for j in range(n)] for i in range(n)], n)
        return AffineMap(chart, a, _invert_matrix(a))

    @staticmethod
    def translation(chart: Chart, b=None, d=None) -> "AffineMap":
        n = chart.n
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return AffineMap(chart, eye, eye, b, d)

    # old coordinates expressed in the new ones: p = C^T (p' - b), q = A^T (q' - d)
    def _replacements(self) -> dict[str, EquivariantFunction]:
        chart, n = self.chart, self.chart.n
        repl = {}
        for names, m, shift in ((chart.momentum_vars, self.c, self.b),
                                (chart.position_vars, self.a, self.d)):
            for i in range(n):
                acc = chart.zero()
                for j in range(n):
                    if m[j][i]:
                        acc = acc + (chart.var(names[j]) - chart.constant(shift[j])) * m[j][i]
                repl[names[i]] = acc
        return repl

    def transform_function(self, f: EquivariantFunction) -> EquivariantFunction:
        if f.jet_vars or f.weight_factor is not None:
            raise ChartError("affine changes act on jet-free, factor-free functions")
        return f.substitute(self._replacements())

    def transform_derivation(self, field: Derivation) -> Derivation:
        chart, n = self.chart, self.chart.n
        coeffs: dict[str, EquivariantFunction] = {}
        for k in range(n):
            for names, m in ((chart.momentum_vars, self.a), (chart.position_vars, self.c)):
                coeff = field.coeffs.get(names[k])
                if coeff is not None:
                    sub = self.transform_function(coeff)
                    for j in range(n):
                        if m[j][k]:
                            add_into(coeffs, names[j], sub * m[j][k])
        theta = field.coeffs.get(THETA)
        if theta is not None:
            add_into(coeffs, THETA, self.transform_function(theta))
        return Derivation(chart, coeffs)

    def transform(self, obj):
        """Dispatch on functions, derivations and driver tensors."""
        if isinstance(obj, EquivariantFunction):
            return self.transform_function(obj)
        if isinstance(obj, Derivation):
            return self.transform_derivation(obj)
        if hasattr(obj, "transformed"):  # DriverTensor
            return obj.transformed(self)
        raise ChartError(f"cannot transform object of type {type(obj).__name__}")

    def __repr__(self):
        return f"AffineMap(a={self.a}, c={self.c}, b={self.b}, d={self.d})"
