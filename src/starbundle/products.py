"""Driver tensors and the star and bullet products they generate.

A driver is an ordered decomposition of a contravariant 2-tensor into
pairs of mutually commuting vector fields.  Exponentiating it with the
coefficient hbar/i gives a star product of exponential type on base
observables; replacing every field by its horizontal lift gives the
bullet product on bundle functions, and the quantum operator of an
observable F on a polarized wave function Psi is F bullet Psi.

Convention note on the Poisson-driver ("moyal") case: the bullet
product always uses the hbar/i exponent, while the base star product
uses hbar/(2i) -- the standard Moyal normalization, and the unique
choice compatible with the module identity (F star G) bullet Psi =
F bullet (G bullet Psi) on polarized waves.  The test suite carries
the explicit counterexample showing the hbar/i base star fails it.
"""

from __future__ import annotations

from enum import Enum
from math import factorial

from .algebra import THETA, EquivariantFunction, Frozen, Monomial, _make, _product_into, add_into
from .errors import ChartError, LimitError, ObservableError, PolarizationError
from .geometry import (
    Chart, Polarization, chart_cache, horizontal_lift, polarization_witness, souriau_bracket,
)
from .scalars import (
    C_ONE,
    Coefficient,
    HBAR_OVER_I,
    I_OVER_HBAR,
)


class StarKind(str, Enum):
    NORMAL = "normal"
    ANTINORMAL = "antinormal"
    MOYAL = "moyal"
    WICK = "wick"

    @staticmethod
    def coerce(value) -> "StarKind":
        if isinstance(value, StarKind):
            return value
        try:
            return StarKind(value)
        except ValueError:
            raise ChartError(f"unknown product kind {value!r}") from None


# hbar/(2i)
HALF_HBAR_OVER_I = HBAR_OVER_I.scaled(1, 2)


def _function_key(f: EquivariantFunction):
    return (
        f.theta_weight,
        f.jet_vars,
        f.weight_factor.name if f.weight_factor is not None else None,
        frozenset(f.terms.items()),
    )


class DriverTensor(Frozen):
    """An ordered list of (s, t) vector-field pairs decomposing a 2-tensor.

    Applying the tensor to a simple tensor f (x) g yields the list of
    pairs (s[f], t[g]); powers compose in the fixed pair order, so no
    factor-ordering ambiguity arises even for the lifted form whose
    fields need not commute.  A base driver builds its lift along with
    itself.
    """

    __slots__ = ("chart", "pairs", "lifted", "name", "_lift")

    def __init__(self, chart: Chart, pairs, lifted: bool = False, name: str = ""):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "lifted", lifted)
        object.__setattr__(self, "name", name)
        lift = None
        if not lifted:
            self._check_base_fields_commute()
            lift = DriverTensor(chart, [
                (horizontal_lift(chart, s), horizontal_lift(chart, t)) for s, t in self.pairs
            ], lifted=True, name=name)
        object.__setattr__(self, "_lift", lift)

    def _check_base_fields_commute(self):
        fields = [f for pair in self.pairs for f in pair]
        for field in fields:
            if THETA in field.coeffs:
                raise ChartError("driver base fields live on the base (no theta part)")
        # [a d/du, b d/dv] = 0 for constants a, b: only pairs with a
        # non-constant field need the exact commutator.  The coefficients
        # are plain polynomials, so a constant one has degree 0.
        constant = [not any(c.chart_degree() for c in f.coeffs.values()) for f in fields]
        for i, f1 in enumerate(fields):
            for j in range(i + 1, len(fields)):
                if constant[i] and constant[j]:
                    continue
                if not f1.commutator(fields[j]).is_zero():
                    raise ChartError("driver decomposition fields must mutually commute")

    def lift(self) -> "DriverTensor":
        return self if self.lifted else self._lift

    def apply_once(self, tensor_terms):
        """One application to a list of (left, right) pairs.

        Pairs with equal left slots are merged by summing their right
        slots (the tensor is unchanged, by bilinearity), which keeps the
        term count polynomial even for the full Poisson driver; zero
        pairs are dropped.
        """
        merged: dict = {}
        for left, right in tensor_terms:
            for s, t in self.pairs:
                new_left = s(left)
                if new_left.is_zero():
                    continue
                new_right = t(right)
                if new_right.is_zero():
                    continue
                key = _function_key(new_left)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [new_left, new_right]
                else:
                    entry[1] = entry[1] + new_right
        return [(left, right) for left, right in merged.values() if not right.is_zero()]

    def power_terms(self, f: EquivariantFunction, g: EquivariantFunction, k: int):
        """(Lambda)^k (f (x) g) as a list of (left, right) pairs."""
        if k < 0:
            raise ChartError("repetition count must be non-negative")
        terms = [(f, g)]
        for _ in range(k):
            terms = self.apply_once(terms)
        return terms

    def components(self) -> dict:
        """The assembled 2-tensor: (u, v) variable pairs to coefficient polynomials.

        Two drivers decompose the same tensor iff these agree; used for
        comparisons across affine chart changes.
        """
        comps: dict[tuple[str, str], EquivariantFunction] = {}
        for s, t in self.pairs:
            for u, cu in s.coeffs.items():
                for v, cv in t.coeffs.items():
                    add_into(comps, (u, v), cu * cv)
        return comps

    def transformed(self, affine_map) -> "DriverTensor":
        if self.lifted:
            raise ChartError("affine changes act on base driver tensors")
        pairs = [
            (affine_map.transform_derivation(s), affine_map.transform_derivation(t))
            for s, t in self.pairs
        ]
        return DriverTensor(self.chart, pairs, lifted=False, name=self.name)

    def __eq__(self, other):
        if not isinstance(other, DriverTensor):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.lifted == other.lifted
            and self.components() == other.components()
        )

    def __repr__(self):
        tag = "#" if self.lifted else ""
        return f"<DriverTensor {self.name or '?'}{tag} on {self.chart!r}>"


def driver_tensor(kind, chart: Chart) -> DriverTensor:
    """The decomposed tensor for a product kind on a chart, built once
    per (kind, chart) in the chart cache, lift included.

    Each bracket pair (c, u, v) of the chart, pi = sum c d/du ^ d/dv,
    gives the normal pair (c d/du, d/dv) and the antinormal pair
    (-c d/dv, d/du).

    normal:     the normal pairs          (real charts)
    antinormal: the antinormal pairs      (real charts)
    moyal:      normal pairs followed by antinormal pairs
    wick:       the normal pairs          (bargmann chart only)
    """
    return chart_cache(_standard_driver, StarKind.coerce(kind), chart)


def _standard_driver(kind: StarKind, chart: Chart) -> DriverTensor:
    if kind == StarKind.WICK and chart.kind != "bargmann":
        raise ChartError("the wick driver requires the bargmann chart")
    if kind in (StarKind.NORMAL, StarKind.ANTINORMAL) and chart.kind == "bargmann":
        raise ChartError(f"{kind.value} driver requires a real chart (use wick)")
    pairs = []
    if kind != StarKind.ANTINORMAL:
        pairs += [(chart.coordinate_field(u, c), chart.coordinate_field(v))
                  for c, u, v in chart.bracket_pairs]
    if kind in (StarKind.ANTINORMAL, StarKind.MOYAL):
        pairs += [(chart.coordinate_field(v, -c), chart.coordinate_field(u))
                  for c, u, v in chart.bracket_pairs]
    return DriverTensor(chart, pairs, name=kind.value)


def _require_observable(f: EquivariantFunction, what: str):
    if not f.is_observable():
        raise ObservableError(f"{what} must be a classical observable (no theta, jets or factor)")


# The most work one series may do, counted as len(a.terms) * len(b.terms)
# for every product a * b it forms, f * g included.  The largest count
# measured on the benchmark workloads, `dq check --suite all --max-degree 6`,
# the golden files and the acceptance tests is 26,663 (a degree-12 normal
# star product on the real line), under a quarter of this bound; that of
# `DiffOperator.compose`, a series on symbols, is 4,917 on the benchmark
# workloads, 26 in `dq check --suite all` (any --max-degree), 38 in tier-1.
MAX_SERIES_WORK = 120_000


def _charge(work: int, a: EquivariantFunction, b: EquivariantFunction) -> int:
    work += len(a.terms) * len(b.terms)
    if work > MAX_SERIES_WORK:
        raise LimitError(
            f"the series would multiply more than MAX_SERIES_WORK = {MAX_SERIES_WORK} term pairs"
        )
    return work


def exponential_product(
    driver: DriverTensor,
    f: EquivariantFunction,
    g: EquivariantFunction,
    coefficient: Coefficient,
) -> EquivariantFunction:
    """m . exp(coefficient * Lambda) (f (x) g), summed until the terms vanish.

    Each order's products, times that order's scale, are added into the
    one term dict of the running total.

    Terminates for polynomial inputs: every application of the driver
    differentiates the left slot.  Raises :class:`LimitError` before a
    product that would take the work past ``MAX_SERIES_WORK``.
    """
    work = _charge(0, f, g)
    total: dict = {}
    jets = _product_into(total, f, g)
    terms = [(f, g)]
    coeff_power = C_ONE
    budget = f.chart_degree() + g.chart_degree() + 2 * len(driver.pairs) + 4
    for k in range(1, budget + 1):
        terms = driver.apply_once(terms)
        if not terms:
            return _make(f.chart, total, f.theta_weight + g.theta_weight, jets,
                         f.weight_factor or g.weight_factor)
        coeff_power = coeff_power * coefficient
        scale = coeff_power.scaled(1, factorial(k))
        for left, right in terms:
            work = _charge(work, left, right)
            jets = _product_into(total, left, right, scale, jets)
    raise ChartError("driver series failed to terminate (non-polynomial input?)")


def star_coefficient(kind) -> Coefficient:
    kind = StarKind.coerce(kind)
    return HALF_HBAR_OVER_I if kind == StarKind.MOYAL else HBAR_OVER_I


def star_product(kind, f: EquivariantFunction, g: EquivariantFunction) -> EquivariantFunction:
    """The exponential-type star product of two observables on the base."""
    _require_observable(f, "left star factor")
    _require_observable(g, "right star factor")
    if f.chart != g.chart:
        raise ChartError("star factors must share a chart")
    driver = driver_tensor(kind, f.chart)
    return exponential_product(driver, f, g, star_coefficient(kind))


def bullet_product(kind, f: EquivariantFunction, g: EquivariantFunction) -> EquivariantFunction:
    """The lifted (quantum) product of an observable with any bundle function."""
    _require_observable(f, "left bullet factor")
    if f.chart != g.chart:
        raise ChartError("bullet factors must share a chart")
    driver = driver_tensor(kind, f.chart).lift()
    return exponential_product(driver, f, g, HBAR_OVER_I)


def prequantize(chart: Chart, observable: EquivariantFunction, psi: EquivariantFunction) -> EquivariantFunction:
    """F Psi + (hbar/i) [[F, Psi]] -- the prequantum operator of F on Psi."""
    _require_observable(observable, "prequantized observable")
    if psi.is_zero():
        return psi
    if psi.theta_weight != 1:
        raise ChartError("prequantum wave functions have angular weight 1")
    return observable * psi + souriau_bracket(chart, observable, psi) * HBAR_OVER_I


def default_polarization(chart: Chart, kind) -> Polarization:
    """The polarization of :meth:`Representation.default`."""
    from .operators import Representation  # operators imports this module

    return Representation.default(chart, kind).polarization


def quantize(
    kind,
    observable: EquivariantFunction,
    psi: EquivariantFunction,
    polarization: Polarization | None = None,
) -> EquivariantFunction:
    """The quantum operator of an observable acting on a polarized wave.

    Checks the polarization of both the input and the output; a
    violated output (possible for the anti-normal driver against the
    vertical polarization) raises :class:`PolarizationError` carrying
    the offending direction and remainder.
    """
    _require_observable(observable, "quantized observable")
    chart = observable.chart
    if polarization is None:
        polarization = default_polarization(chart, kind)
    if psi.is_zero():
        return psi
    if psi.theta_weight != 1:
        raise ChartError("wave functions have angular weight 1")
    witness = polarization_witness(chart, polarization, psi)
    if witness is not None:
        raise PolarizationError(
            f"input wave function is not {polarization.label}-polarized "
            f"(d/d{witness[0]} remainder is nonzero)",
            direction=witness[0],
            remainder=witness[1],
        )
    out = bullet_product(kind, observable, psi)
    witness = polarization_witness(chart, polarization, out)
    if witness is not None:
        raise PolarizationError(
            f"quantization output lost {polarization.label}-polarization along d/d{witness[0]}; "
            f"remainder {witness[1]}",
            direction=witness[0],
            remainder=witness[1],
        )
    return out


def yano_laplacian(chart: Chart, f: EquivariantFunction) -> EquivariantFunction:
    """-sum c d2/du dv over the chart's bracket pairs (c, u, v): -sum_k
    d2/dp_k dq^k on real charts, -2i d2/dzb dz on the bargmann chart."""
    _require_observable(f, "Laplacian argument")
    if f.chart != chart:
        raise ChartError(f"Laplacian argument lives on {f.chart}, not on {chart}")
    out = EquivariantFunction.zero(chart)
    for c, u, v in chart.bracket_pairs:
        out = out - f.differentiate(u).differentiate(v) * c
    return out


def laplacian_exponential(chart: Chart, f: EquivariantFunction, s: Coefficient):
    """exp(s * Laplacian) f = sum_k (s^k / k!) Laplacian^k f, a finite sum: each
    Laplacian lowers the degree by two.  The last order taken is zero; it
    runs the Laplacian's checks on f even when f is constant."""
    total = term = f
    for k in range(1, f.chart_degree() // 2 + 2):
        term = yano_laplacian(chart, term) * s.scaled(1, k)
        total = total + term
    return total


def agarwal_transform(chart: Chart, f: EquivariantFunction) -> EquivariantFunction:
    """exp((i hbar / 2) Laplacian) applied to a polynomial observable.

    Interchanges the Poisson-driver and normal-driver quantizations:
    quantize(moyal, F) = quantize(normal, transform(F)) as operators.
    """
    _require_observable(f, "transform argument")
    return laplacian_exponential(chart, f, -HALF_HBAR_OVER_I)  # i hbar/2 = -hbar/(2i)


def quantize_inverse_p(psi: EquivariantFunction) -> EquivariantFunction:
    """The functional-calculus quantization of 1/p on a one-dimensional
    position wave with polynomial component: (i/hbar) * (antiderivative
    of psi vanishing at 0) * e^{i theta}.

    Left-inverse to quantizing p: applying the momentum operator
    afterwards returns the original wave exactly.
    """
    chart = psi.chart
    if chart.kind != "real" or chart.n != 1:
        raise ChartError("1/p quantization is defined on the one-dimensional real chart")
    if psi.is_zero():
        return psi
    if psi.theta_weight != 1 or psi.weight_factor is not None:
        raise ChartError("expected a position wave function psi(q) e^{i theta}")
    if psi.jet_vars:
        raise ChartError("1/p quantization needs a concrete polynomial component, not jets")
    terms = {}
    for mono, coeff in psi.terms.items():
        vm = mono.var_map()
        if set(vm) - {"q1"}:
            raise ChartError("component may only involve the position variable")
        e = vm.get("q1", 0)
        terms[Monomial([("q1", e + 1)])] = coeff.scaled(1, e + 1)
    integral = EquivariantFunction(chart, terms, theta_weight=1)
    return integral * I_OVER_HBAR
