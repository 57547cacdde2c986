"""Exact term algebra on a chart of the prequantum bundle.

The central object is :class:`EquivariantFunction`: a polynomial in the
chart variables and in formal jet variables, carried by an integer
angular weight m (the factor e^{i*m*theta}) and an optional
:class:`WeightFactor` (a non-polynomial factor such as a Gaussian,
represented only through its logarithmic derivatives).

The angular coordinate itself may appear polynomially in test
functions; it is addressed by the reserved variable name ``"theta"``.
A monomial theta^k combined with angular weight m differentiates as
d/dtheta (theta^k e^{i m theta}) = (k theta^(k-1) + i m theta^k) e^{i m theta}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import ChartError, WeightFactorError
from .scalars import C_I, C_ONE, Coefficient

_C_ZERO = Coefficient.zero()

THETA = "theta"

JetIndex = tuple[int, ...]


class Frozen:
    """Base of the immutable values: assigning or deleting an attribute
    raises.  Constructors set their slots with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


# Monomial sorts by this key on every construction; the cache keeps the
# canonical-index check off that path.
@lru_cache(maxsize=1024)
def variable_key(name: str) -> tuple[int, int]:
    """Global sort key: momentum-like first, then position-like, theta last.
    A p/q index is decimal and canonical, as the parser reads it: p1, not p01."""
    if name == "z":
        return (0, 0)
    if name == "zb":
        return (1, 0)
    if name == THETA:
        return (2, 0)
    kind, idx = name[:1], name[1:]
    if kind in ("p", "q") and idx.isdecimal() and idx == str(int(idx)):
        return (0 if kind == "p" else 1, int(idx))
    raise ChartError(f"unknown variable name {name!r}")


class Monomial(Frozen):
    """A product of chart-variable powers and jet-variable powers.

    ``vars`` is a tuple of (name, exponent) with positive exponents,
    sorted by :func:`variable_key` (the printers rely on this order);
    ``jets`` is a sorted tuple of (multi-index, exponent).
    The jet multi-index refers to the jet family declared on the
    enclosing function.
    """

    __slots__ = ("vars", "jets", "_hash")

    def __init__(self, vars=(), jets=()):
        object.__setattr__(self, "vars", tuple(sorted(
            ((v, int(e)) for v, e in vars if e),
            key=lambda item: variable_key(item[0]),
        )))
        object.__setattr__(self, "jets", tuple(sorted(
            ((tuple(a), int(e)) for a, e in jets if e),
        )))
        for _, e in self.vars:
            if e < 0:
                raise ChartError("negative exponent in monomial")
        for _, e in self.jets:
            if e < 0:
                raise ChartError("negative jet exponent in monomial")
        object.__setattr__(self, "_hash", hash((self.vars, self.jets)))

    @staticmethod
    def unit() -> "Monomial":
        return _MONOMIAL_UNIT

    def var_map(self) -> dict[str, int]:
        return dict(self.vars)

    def jet_map(self) -> dict[JetIndex, int]:
        return dict(self.jets)

    def mul(self, other: "Monomial") -> "Monomial":
        vs = self.var_map()
        for v, e in other.vars:
            vs[v] = vs.get(v, 0) + e
        js = self.jet_map()
        for a, e in other.jets:
            js[a] = js.get(a, 0) + e
        return Monomial(vs.items(), js.items())

    def degree(self) -> int:
        return sum(e for _, e in self.vars) + sum(e for _, e in self.jets)

    def chart_degree(self) -> int:
        return sum(e for _, e in self.vars)

    def sort_key(self):
        # graded, then lexicographic in the global variable order, then jets
        return (
            -self.degree(),
            tuple((variable_key(v), -e) for v, e in self.vars),
            tuple((a, -e) for a, e in self.jets),
        )

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.vars == other.vars and self.jets == other.jets

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self.vars!r}, {self.jets!r})"


class _MonomialDraft(Monomial):
    # Monomial's slots without the raising __setattr__ (see _Unfrozen).
    __slots__ = ()
    __setattr__ = object.__setattr__


def _monomial(vars, jets) -> Monomial:
    """Trusted constructor: ``vars`` and ``jets`` are sorted as in
    :class:`Monomial`, with positive exponents."""
    out = object.__new__(_MonomialDraft)
    out.vars, out.jets, out._hash = vars, jets, hash((vars, jets))
    out.__class__ = Monomial
    return out


_MONOMIAL_UNIT = Monomial()


class WeightFactor(Frozen):
    """A non-polynomial multiplicative factor known through d(log W).

    The factor itself (for instance a Gaussian) is never expanded; all
    operations only consume the table of logarithmic derivatives, one
    polynomial per chart variable, held in a read-only mapping.  The
    table must be total over the chart variables and closed (mixed
    second log-derivatives agree), which :meth:`check_closed` verifies
    symbolically.
    """

    __slots__ = ("name", "log_derivatives")

    def __init__(self, name: str, log_derivatives: dict[str, "EquivariantFunction"]):
        for poly in log_derivatives.values():
            if poly.jet_vars or poly.theta_weight or poly.weight_factor is not None:
                raise WeightFactorError("log-derivative entries must be plain polynomials")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "log_derivatives", MappingProxyType(dict(log_derivatives)))

    def log_derivative(self, var: str) -> "EquivariantFunction":
        try:
            return self.log_derivatives[var]
        except KeyError:
            raise WeightFactorError(
                f"weight factor {self.name!r} has no log-derivative entry for {var!r}"
            ) from None

    def check_closed(self) -> bool:
        """d(log W) is a closed 1-form: mixed partials of the table agree."""
        names = sorted(self.log_derivatives, key=variable_key)
        for i, v in enumerate(names):
            for w in names[i + 1:]:
                left = self.log_derivatives[v].differentiate(w)
                right = self.log_derivatives[w].differentiate(v)
                if left != right:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, WeightFactor):
            return NotImplemented
        return self.name == other.name and self.log_derivatives == other.log_derivatives

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"WeightFactor({self.name!r})"


def _merge_jet_vars(a: tuple, b: tuple) -> tuple:
    if a and b and a != b:
        raise ChartError(f"incompatible jet families {a!r} and {b!r}")
    return a or b


def _merge_weight_factors(a, b, product: bool):
    if product:
        # at most one factor may carry a weight (observable x wave function)
        if a is None:
            return b
        if b is None:
            return a
        raise WeightFactorError(
            f"cannot multiply two weight-factor-carrying functions ({a.name!r} * {b.name!r})"
        )
    if a == b:
        return a
    left = a.name if a is not None else None
    right = b.name if b is not None else None
    raise WeightFactorError(f"cannot add functions with weight factors {left!r} and {right!r}")


class EquivariantFunction(Frozen):
    """A function on the bundle: polynomial x e^{i*m*theta} x optional factor W.

    Immutable.  ``terms`` is a read-only mapping from :class:`Monomial`
    to a nonzero :class:`Coefficient`; the zero function has no terms
    and normalized attributes (weight 0, no jets, no factor).
    """

    __slots__ = ("chart", "_terms", "theta_weight", "jet_vars", "weight_factor")

    def __new__(cls, chart, terms, theta_weight: int = 0, jet_vars=(), weight_factor=None):
        clean = {}
        for mono, coeff in terms.items():
            coeff = Coefficient.coerce(coeff)
            if coeff:
                clean[mono] = coeff
        jet_vars = tuple(jet_vars)
        if not clean:
            theta_weight, jet_vars, weight_factor = 0, (), None
        elif not any(mono.jets for mono in clean):
            jet_vars = ()
        for mono in clean:
            for alpha, _ in mono.jets:
                if len(alpha) != len(jet_vars):
                    raise ChartError(
                        f"jet index {alpha!r} does not match jet family {jet_vars!r}"
                    )
            for v, _ in mono.vars:
                if v != THETA and v not in chart.variables:
                    raise ChartError(f"variable {v!r} does not belong to chart {chart}")
        return _make(chart, clean, int(theta_weight), jet_vars, weight_factor)

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(chart) -> "EquivariantFunction":
        return _make(chart, {}, 0, (), None)

    @staticmethod
    def constant(chart, value) -> "EquivariantFunction":
        value = Coefficient.coerce(value)
        return _make(chart, {_MONOMIAL_UNIT: value} if value else {}, 0, (), None)

    @staticmethod
    def one(chart) -> "EquivariantFunction":
        return EquivariantFunction.constant(chart, C_ONE)

    @staticmethod
    def variable(chart, name: str) -> "EquivariantFunction":
        if name != THETA and name not in chart.variables:
            raise ChartError(f"variable {name!r} does not belong to chart {chart}")
        return EquivariantFunction(chart, {Monomial([(name, 1)]): C_ONE})

    @staticmethod
    def jet(chart, jet_vars, alpha=None, theta_weight=0, weight_factor=None) -> "EquivariantFunction":
        """The single jet symbol psi_alpha over the given jet family."""
        jet_vars = tuple(jet_vars)
        if alpha is None:
            alpha = (0,) * len(jet_vars)
        mono = Monomial((), [(tuple(alpha), 1)])
        return EquivariantFunction(
            chart, {mono: C_ONE}, theta_weight=theta_weight,
            jet_vars=jet_vars, weight_factor=weight_factor,
        )

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_observable(self) -> bool:
        """theta-independent, jet-free, factor-free function of the base."""
        if self.theta_weight or self.jet_vars or self.weight_factor is not None:
            return False
        return all(THETA not in dict(m.vars) for m in self._terms)

    def constant_value(self) -> Coefficient:
        """The scalar value, if the function is a constant; raises otherwise."""
        if self.is_zero():
            return Coefficient.zero()
        if list(self._terms) == [Monomial.unit()] and not self.theta_weight \
                and self.weight_factor is None:
            return self._terms[Monomial.unit()]
        raise ChartError("function is not a constant")

    def chart_degree(self) -> int:
        return max((m.chart_degree() for m in self._terms), default=0)

    # -- ring operations ---------------------------------------------

    def _compatible_chart(self, other: "EquivariantFunction"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartError(f"chart mismatch: {self.chart} vs {other.chart}")

    def __add__(self, other):
        if not isinstance(other, EquivariantFunction):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        self._compatible_chart(other)
        if self.theta_weight != other.theta_weight:
            raise ChartError(
                f"cannot add functions of angular weight {self.theta_weight} and {other.theta_weight}"
            )
        jet_vars = _merge_jet_vars(self.jet_vars, other.jet_vars)
        factor = _merge_weight_factors(self.weight_factor, other.weight_factor, product=False)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = terms.get(mono, _C_ZERO) + coeff
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return _make(self.chart, terms, self.theta_weight, jet_vars, factor)

    def __neg__(self):
        return _make(
            self.chart, {m: -c for m, c in self._terms.items()},
            self.theta_weight, self.jet_vars, self.weight_factor,
        )

    def __sub__(self, other):
        if not isinstance(other, EquivariantFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Coefficient, int, Fraction)):
            scale = Coefficient.coerce(other)
            if not scale:
                return EquivariantFunction.zero(self.chart)
            return _make(
                self.chart, {m: c * scale for m, c in self._terms.items()},
                self.theta_weight, self.jet_vars, self.weight_factor,
            )
        if not isinstance(other, EquivariantFunction):
            return NotImplemented
        terms: dict[Monomial, Coefficient] = {}
        jets = _product_into(terms, self, other)
        return _make(self.chart, terms, self.theta_weight + other.theta_weight, jets,
                     self.weight_factor or other.weight_factor)

    def __rmul__(self, other):
        if isinstance(other, (Coefficient, int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ChartError("function powers must be non-negative integers")
        out = EquivariantFunction.one(self.chart)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus ----------------------------------------------------

    def differentiate(self, var: str) -> "EquivariantFunction":
        """Exact partial derivative, including chain rule on jets, the
        angular weight, and the weight-factor logarithmic derivative."""
        if var != THETA and var not in self.chart.variables:
            raise ChartError(f"cannot differentiate along unknown variable {var!r}")
        terms: dict[Monomial, Coefficient] = {}
        _derive_into(terms, self, ((var, _UNIT_TERMS),))
        return _make(self.chart, terms, self.theta_weight, self.jet_vars, self.weight_factor)

    def substitute(self, mapping: dict[str, "EquivariantFunction"]) -> "EquivariantFunction":
        """Replace chart variables by polynomials.  Jet variables and
        weight factors do not transform and are rejected."""
        if self.jet_vars or self.weight_factor is not None:
            raise ChartError("substitution is only defined for jet-free, factor-free functions")
        out = EquivariantFunction.zero(self.chart)
        for mono, coeff in self._terms.items():
            piece = EquivariantFunction.constant(self.chart, coeff)
            for v, e in mono.vars:
                repl = mapping.get(v)
                if repl is None:
                    repl = EquivariantFunction.variable(self.chart, v)
                piece = piece * repl ** e
            out = out + piece
        if self.theta_weight:
            out = EquivariantFunction(
                out.chart, out._terms, self.theta_weight, out.jet_vars, out.weight_factor,
            )
        return out

    # -- comparison / display ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, EquivariantFunction):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.theta_weight == other.theta_weight
            and self.jet_vars == other.jet_vars
            and self.weight_factor == other.weight_factor
            and self._terms == other._terms
        )

    __hash__ = None

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def __repr__(self):
        return f"<EquivariantFunction {self}>"

    def __str__(self):
        from .render import format_function

        return format_function(self)


class _Unfrozen(EquivariantFunction):
    # The same slots without the raising __setattr__: _make fills one in
    # with plain stores, a quarter of the cost of object.__setattr__, and
    # then makes it an EquivariantFunction by assigning __class__.
    __slots__ = ()
    __setattr__ = object.__setattr__


def _make(chart, terms, theta_weight, jet_vars, weight_factor) -> EquivariantFunction:
    """Trusted constructor: ``terms`` is a new canonical dict (no zero
    values) that the caller hands over."""
    out = object.__new__(_Unfrozen)
    if not terms:
        theta_weight, jet_vars, weight_factor = 0, (), None
    elif jet_vars and not any(mono.jets for mono in terms):
        jet_vars = ()
    out.chart = chart
    out._terms = terms
    out.theta_weight = theta_weight
    out.jet_vars = jet_vars
    out.weight_factor = weight_factor
    out.__class__ = EquivariantFunction
    return out


# -- accumulation into a term dict -------------------------------------------
#
# The calculus below adds into a canonical term dict (no zero values) that
# the caller owns, instead of building a function per product and per sum.

_UNIT_TERMS = {_MONOMIAL_UNIT: C_ONE}


def _add_product(terms, a, b):
    """Add the product of two sums of (monomial, coefficient) pairs into
    ``terms``; ``a`` is iterated once per pair of ``b``."""
    for m2, c2 in b:
        unit, one = m2 == _MONOMIAL_UNIT, c2 == C_ONE
        for m1, c1 in a:
            mono = m1 if unit else m1.mul(m2)
            s = terms.get(mono, _C_ZERO) + (c1 if one else c1 * c2)
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)


def _product_into(terms, a, b, scale=None, jets=()):
    """Add a * b, times ``scale`` if given, into ``terms``.

    Checks a and b as a product must (at most one weight factor, one jet
    family) and returns ``jets`` merged with the product's jet family,
    the family of a sum of such products.
    """
    if not a._terms or not b._terms:
        return jets
    a._compatible_chart(b)
    family = _merge_jet_vars(a.jet_vars, b.jet_vars)
    _merge_weight_factors(a.weight_factor, b.weight_factor, product=True)
    small, large = sorted((a._terms, b._terms), key=len)
    if scale is not None:
        small = {m: c * scale for m, c in small.items()}
    _add_product(terms, large.items(), small.items())
    return _merge_jet_vars(jets, family)


def _lowered(f: EquivariantFunction, var: str) -> list:
    """The polynomial part of df/dvar as (monomial, coefficient) pairs:
    each monomial's exponent of var lowered by one and, when var has a
    jet, each jet shifted along it.  The lowered vars stay sorted."""
    jet_pos = f.jet_vars.index(var) if var in f.jet_vars else None
    out = []
    for mono, coeff in f._terms.items():
        vs, js = mono.vars, mono.jets
        for i, (v, e) in enumerate(vs):
            if v == var:
                rest = vs[i + 1:]
                vs_lowered = vs[:i] + ((v, e - 1),) + rest if e > 1 else vs[:i] + rest
                out.append((_monomial(vs_lowered, js), coeff.scaled(e) if e > 1 else coeff))
                break
        if jet_pos is not None:
            for alpha, je in js:
                shifted = alpha[:jet_pos] + (alpha[jet_pos] + 1,) + alpha[jet_pos + 1:]
                moved = dict(js)
                moved[alpha] -= 1
                moved[shifted] = moved.get(shifted, 0) + 1
                moved = tuple(sorted((a, x) for a, x in moved.items() if x))
                out.append((_monomial(vs, moved), coeff.scaled(je) if je > 1 else coeff))
    return out


def _derive_into(terms, f: EquivariantFunction, coeffs) -> None:
    """Add sum_v c_v * df/dv into ``terms``, for ``coeffs`` the pairs
    (v, c_v) with c_v a plain polynomial's term dict: each c_v times the
    lowered terms of f, then f times the one multiplier
    M = sum_v c_v * log_v, where log_theta = i*m and log_v is the weight
    factor's log-derivative.  When M cancels, as along the polarized
    directions of the standard waves, f is not multiplied at all."""
    multiplier: dict[Monomial, Coefficient] = {}
    for var, poly in coeffs:
        if var == THETA:
            log = {_MONOMIAL_UNIT: C_I.scaled(f.theta_weight)} if f.theta_weight else None
        else:
            log = f.weight_factor.log_derivative(var)._terms if f.weight_factor else None
        if log:
            _add_product(multiplier, poly.items(), log.items())
        _add_product(terms, _lowered(f, var), poly.items())
    if multiplier:
        _add_product(terms, f._terms.items(), multiplier.items())


def add_into(table: dict, key, f: EquivariantFunction) -> None:
    """table[key] += f, dropping the entry when the sum is zero."""
    total = table[key] + f if key in table else f
    if total.is_zero():
        table.pop(key, None)
    else:
        table[key] = total


def higher_derivative(f: EquivariantFunction, variables, alpha) -> EquivariantFunction:
    """d^alpha f, alpha[k] times along variables[k]."""
    for var, order in zip(variables, alpha):
        for _ in range(order):
            f = f.differentiate(var)
    return f


def substitute_jets(f: EquivariantFunction, component: EquivariantFunction) -> EquivariantFunction:
    """Replace each jet symbol psi_alpha by the alpha-th derivative of a
    concrete jet-free polynomial ``component``."""
    if component.jet_vars or component.theta_weight or component.weight_factor is not None:
        raise ChartError("jet substitution requires a plain polynomial component")
    total = EquivariantFunction.zero(f.chart)
    for mono, coeff in f.terms.items():
        piece = EquivariantFunction(
            f.chart, {Monomial(mono.vars): coeff},
            theta_weight=f.theta_weight, weight_factor=f.weight_factor,
        )
        for alpha, e in mono.jets:
            piece = piece * higher_derivative(component, f.jet_vars, alpha) ** e
        total = total + piece
    return total


class Derivation(Frozen):
    """A first-order differential operator sum_v c_v d/dv over the chart
    variables and ``"theta"``.

    ``coeffs`` maps each variable with a nonzero coefficient to it, in a
    read-only mapping.
    The coefficients are plain polynomials on the chart (no jets, weight
    factor or angular weight; the constructor refuses others); the theta
    coefficient may carry negative hbar powers (horizontal lifts do).
    Acts on :class:`EquivariantFunction` via :meth:`__call__`, adding
    every coefficient times its partial derivative into one term dict,
    and satisfies the Leibniz rule by construction.
    """

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart, coeffs=None):
        clean = {}
        for v, poly in (coeffs or {}).items():
            if v != THETA and v not in chart.variables:
                raise ChartError(f"derivation coefficient on unknown variable {v!r}")
            if poly.jet_vars or poly.theta_weight or poly.weight_factor is not None \
                    or poly.chart != chart:
                raise ChartError("derivation coefficients are plain polynomials on its chart")
            if not poly.is_zero():
                clean[v] = poly
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    @staticmethod
    def coordinate(chart, var: str, scale=1) -> "Derivation":
        return Derivation(chart, {var: EquivariantFunction.constant(chart, scale)})

    def coefficient(self, var: str) -> EquivariantFunction:
        return self.coeffs.get(var, EquivariantFunction.zero(self.chart))

    def __call__(self, f: EquivariantFunction) -> EquivariantFunction:
        if f.chart is not self.chart and f.chart != self.chart:
            raise ChartError("derivation and function live on different charts")
        terms: dict[Monomial, Coefficient] = {}
        _derive_into(terms, f, [(v, poly._terms) for v, poly in self.coeffs.items()])
        return _make(self.chart, terms, f.theta_weight, f.jet_vars, f.weight_factor)

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.chart != other.chart:
            raise ChartError("cannot add derivations on different charts")
        coeffs = dict(self.coeffs)
        for v, poly in other.coeffs.items():
            add_into(coeffs, v, poly)
        return Derivation(self.chart, coeffs)

    def __neg__(self):
        return self * Coefficient.coerce(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scale) -> "Derivation":
        """Multiply by a scalar or by a polynomial function."""
        return Derivation(self.chart, {v: poly * scale for v, poly in self.coeffs.items()})

    __rmul__ = __mul__

    def commutator(self, other: "Derivation") -> "Derivation":
        """[self, other] as a derivation (first-order; the chart fields
        appearing here always have polynomial coefficients)."""
        names = set(self.coeffs) | set(other.coeffs)
        return Derivation(self.chart, {
            v: self(other.coefficient(v)) - other(self.coefficient(v)) for v in names
        })

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.chart == other.chart and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        parts = [
            f"({self.coeffs[v]})*d/d{v}" for v in sorted(self.coeffs, key=variable_key)
        ]
        return " + ".join(parts) if parts else "0"
