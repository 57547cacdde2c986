"""Seeded, reproducible property-check suites.

Each suite returns a list of :class:`CheckResult`, one per property; a
failing result carries the first counterexample found for it in
``detail``.  The
CLI ``check`` command renders them, and the acceptance tests assert
them wholesale.  All checks are exact symbolic identities -- there are
no tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Derivation, EquivariantFunction, Monomial
from .errors import StarBundleError
from .geometry import (
    AffineMap,
    Chart,
    bargmann_wave,
    horizontal_lift,
    jacobiator,
    momentum_wave,
    position_wave,
    prequantum_wave,
    souriau_bracket,
)
from .operators import DiffOperator, Representation, extract_operator
from .parser import lower_expression
from .products import (
    HALF_HBAR_OVER_I,
    StarKind,
    agarwal_transform,
    bullet_product,
    driver_tensor,
    exponential_product,
    prequantize,
    quantize,
    quantize_inverse_p,
    star_product,
)
from .render import format_function
from .scalars import C_I, Coefficient, HBAR_OVER_I, I_OVER_HBAR


class CheckResult:
    """The outcome of one property of one suite."""

    def __init__(self, suite: str, name: str, ok: bool, detail: str = ""):
        self.suite = suite
        self.name = name
        self.ok = ok
        self.detail = detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.name, self.ok, self.detail) == (
            other.suite, other.name, other.ok, other.detail)

    def __repr__(self) -> str:
        return (f"CheckResult(suite={self.suite!r}, name={self.name!r}, ok={self.ok!r}, "
                f"detail={self.detail!r})")

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        text = f"{status} {self.suite}.{self.name}"
        if self.detail and not self.ok:
            text += f"  [{self.detail}]"
        return text


class Sampler:
    """Random exact expressions from a seeded generator."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def fraction(self, zero_ok: bool = False) -> Fraction:
        num = self.rng.randint(-4, 4)
        if not zero_ok:
            while num == 0:
                num = self.rng.randint(-4, 4)
        return Fraction(num, self.rng.randint(1, 3))

    def gaussian(self) -> Coefficient:
        """A constant Coefficient: real, or with a nonzero imaginary part."""
        if self.rng.random() < 0.3:
            return self.fraction(zero_ok=True) + self.fraction() * C_I
        return Coefficient.coerce(self.fraction())

    def coefficient(self, hbar_low: int = 0, hbar_high: int = 0) -> Coefficient:
        coeff = Coefficient.zero()
        for _ in range(self.rng.randint(1, 2)):
            coeff = coeff + Coefficient.hbar(self.rng.randint(hbar_low, hbar_high), self.gaussian())
        return coeff if coeff else Coefficient.one()

    def multi_index(self, n: int, max_degree: int) -> tuple[int, ...]:
        """Exponents of n variables with sum at most ``max_degree``, by rejection."""
        while True:
            alpha = tuple(self.rng.randint(0, max_degree) for _ in range(n))
            if sum(alpha) <= max_degree:
                return alpha

    def _monomial_over(self, variables, max_degree: int) -> Monomial:
        degree = self.rng.randint(0, max_degree)
        exps: dict[str, int] = {}
        for _ in range(degree):
            v = self.rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        return Monomial(exps.items())

    def polynomial(self, chart: Chart, variables, max_degree: int,
                   terms: int = 3, real: bool = False, hbar: bool = False) -> EquivariantFunction:
        acc: dict[Monomial, Coefficient] = {}
        for _ in range(self.rng.randint(1, terms)):
            mono = self._monomial_over(list(variables), max_degree)
            if real:
                coeff = Coefficient.coerce(self.fraction())
            elif hbar:
                coeff = self.coefficient(-1, 1)
            else:
                coeff = self.gaussian()
            acc[mono] = acc.get(mono, Coefficient.zero()) + coeff
        f = EquivariantFunction(chart, acc)
        return f if not f.is_zero() else chart.one()

    def observable(self, chart: Chart, max_degree: int, terms: int = 3,
                   real: bool = False) -> EquivariantFunction:
        return self.polynomial(chart, chart.variables, max_degree, terms, real=real)

    def equivariant(self, chart: Chart, max_degree: int, jet_vars=None,
                    theta_poly: bool = False, weight_factor=None) -> EquivariantFunction:
        """A general bundle function: polynomial x jets x angular weight."""
        variables = list(chart.variables) + (["theta"] if theta_poly else [])
        acc: dict[Monomial, Coefficient] = {}
        for _ in range(self.rng.randint(1, 3)):
            mono = self._monomial_over(variables, max_degree)
            jets = ()
            if jet_vars and self.rng.random() < 0.8:
                alpha = tuple(self.rng.randint(0, 1) for _ in jet_vars)
                jets = ((alpha, 1),)
            mono = Monomial(mono.vars, jets)
            acc[mono] = acc.get(mono, Coefficient.zero()) + self.coefficient(-1, 1)
        weight = self.rng.randint(-2, 2)
        f = EquivariantFunction(
            chart, acc, theta_weight=weight,
            jet_vars=jet_vars or (), weight_factor=weight_factor,
        )
        return f if not f.is_zero() else chart.one()

    def affine_map(self, chart: Chart) -> AffineMap:
        n = chart.n
        while True:
            c = [
                [Fraction(self.rng.randint(-2, 2), self.rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)
            ]
            try:
                b = [self.fraction(zero_ok=True) for _ in range(n)]
                d = [self.fraction(zero_ok=True) for _ in range(n)]
                return AffineMap.from_position_part(chart, c, b, d)
            except StarBundleError:
                continue


class _Recorder:
    """Builds one suite's results, in the order their names are given.

    A property checked over many cases passes when every case passes;
    when it fails it keeps the detail of its first failing case.  That
    detail is a callable, so a passing case never formats anything.  A
    one-shot landmark keeps its fixed detail whether it passes or not.
    """

    def __init__(self, suite: str, *names: str):
        self.suite = suite
        self.outcomes = {name: (True, "") for name in names}

    def case(self, name: str, ok, detail) -> bool:
        ok = bool(ok)
        if not ok and self.outcomes[name][0]:
            self.outcomes[name] = (False, detail())
        return ok

    def landmark(self, name: str, ok, detail: str) -> None:
        self.outcomes[name] = (bool(ok), detail)

    def results(self) -> list[CheckResult]:
        return [CheckResult(self.suite, name, ok, detail)
                for name, (ok, detail) in self.outcomes.items()]


def _degree_grid(x, y, max_degree: int):
    """``(a, b, x^a * y^b)`` for every ``a + b <= max_degree``, a-major."""
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            yield a, b, x ** a * y ** b


# -- suites ----------------------------------------------------------------


def check_bracket(seed: int = 0, cases: int = 200, dims=(1, 2)) -> list[CheckResult]:
    rec = _Recorder(
        "bracket", "antisymmetry", "leibniz", "poisson-reduction-and-jacobi",
        "wave-equivariance", "jacobiator-theta-linear", "jacobiator-antisymmetry-degenerate",
    )
    sampler = Sampler(seed)
    for index in range(cases):
        chart = Chart.real(dims[index % len(dims)])
        jet_vars = chart.variables if sampler.rng.random() < 0.4 else None
        f = sampler.equivariant(chart, 3, jet_vars=jet_vars, theta_poly=True)
        g = sampler.equivariant(chart, 3, jet_vars=jet_vars, theta_poly=True)
        h = sampler.equivariant(chart, 2, jet_vars=jet_vars, theta_poly=True)
        gh = g * h
        rec.case("antisymmetry",
                 souriau_bracket(chart, f, g) == -souriau_bracket(chart, g, f),
                 lambda: f"f={f}, g={g}")
        rec.case("leibniz",
                 souriau_bracket(chart, f, gh)
                 == souriau_bracket(chart, f, g) * h + g * souriau_bracket(chart, f, h),
                 lambda: f"f={f}, g={g}, h={h}")
        F = sampler.observable(chart, 3)
        G = sampler.observable(chart, 3)
        pb = Chart.real(chart.n).zero()
        for pv, qv in zip(chart.momentum_vars, chart.position_vars):
            pb = pb + F.differentiate(pv) * G.differentiate(qv) \
                - G.differentiate(pv) * F.differentiate(qv)
        rec.case("poisson-reduction-and-jacobi", souriau_bracket(chart, F, G) == pb,
                 lambda: f"F={F}, G={G}")
        rec.case("poisson-reduction-and-jacobi",
                 jacobiator(chart, F, G, sampler.observable(chart, 2)).is_zero(),
                 lambda: f"jacobiator F={F}, G={G}")
        psi = position_wave(chart)
        br = souriau_bracket(chart, F, psi)
        rec.case("wave-equivariance", br.is_zero() or br.theta_weight == 1, lambda: f"F={F}")

    chart = Chart.real(1)
    p, q, theta = chart.var("p1"), chart.var("q1"), chart.var("theta")
    expected = chart.constant(Coefficient.hbar(-1, -1))
    value = jacobiator(chart, p, q, theta)
    rec.landmark("jacobiator-theta-linear", value == expected,
                 f"jacobiator(p,q,theta) = {value}, expected -hbar^-1")
    rec.landmark("jacobiator-antisymmetry-degenerate",
                 jacobiator(chart, p, p, q).is_zero(), "jacobiator(p,p,q) != 0")
    return rec.results()


def check_lifts(seed: int = 0, cases: int = 40, jmax: int = 5) -> list[CheckResult]:
    rec = _Recorder("lifts", "commutator-structural", "commutator-applied",
                    "reeb-commutes", "iterated-commutator")
    sampler = Sampler(seed)
    for n in (1, 2, 3):
        chart = Chart.real(n)
        eta = chart.reeb_field()
        lifts_p = [horizontal_lift(chart, v) for v in chart.momentum_vars]
        lifts_q = [horizontal_lift(chart, v) for v in chart.position_vars]
        for ell in range(n):
            for m in range(n):
                expected = eta * Coefficient.hbar(-1, -1) if ell == m else Derivation(chart)
                rec.case("commutator-structural", lifts_p[ell].commutator(lifts_q[m]) == expected,
                         lambda: f"n={n}, ell={ell}, m={m}")
                rec.case("reeb-commutes", eta.commutator(lifts_q[m]).is_zero(),
                         lambda: f"n={n}, m={m}")
        for _ in range(cases // 3):
            f = sampler.equivariant(chart, 3, jet_vars=chart.position_vars, theta_poly=True)
            for ell in range(n):
                for m in range(n):
                    lhs = lifts_p[ell](lifts_q[m](f)) - lifts_q[m](lifts_p[ell](f))
                    rhs = (eta * Coefficient.hbar(-1, -1))(f) if ell == m \
                        else EquivariantFunction.zero(chart)
                    rec.case("commutator-applied", lhs == rhs, lambda: f"n={n}, f={f}")
    chart = Chart.real(2)
    eta = chart.reeb_field()
    for _ in range(10):
        f = sampler.equivariant(chart, 3, jet_vars=chart.variables, theta_poly=True)
        for ell, m in ((0, 0), (0, 1), (1, 1)):
            lp = horizontal_lift(chart, chart.momentum_vars[ell])
            lq = horizontal_lift(chart, chart.position_vars[m])
            for j in range(1, jmax + 1):
                value = f
                for _ in range(j):
                    value = lq(value)
                lhs = lp(value)
                rhs = lp(f)
                for _ in range(j):
                    rhs = lq(rhs)
                if ell == m:
                    correction = eta(f) * Coefficient.hbar(-1, Fraction(-j, 1))
                    for _ in range(j - 1):
                        correction = lq(correction)
                    rhs = rhs + correction
                rec.case("iterated-commutator", lhs == rhs,
                         lambda: f"j={j}, ell={ell}, m={m}, f={f}")
    return rec.results()


_MODULE_KINDS = (StarKind.NORMAL, StarKind.ANTINORMAL, StarKind.WICK)


def check_module(seed: int = 0, cases: int = 200, max_degree: int = 4, dims=(1, 2)) -> list[CheckResult]:
    rec = _Recorder("module", *(f"{kind.value}-arbitrary-h" for kind in _MODULE_KINDS),
                    "moyal-on-polarized", "full-coefficient-counterexample")
    sampler = Sampler(seed)
    bargmann = Chart.bargmann()
    for index in range(cases):
        chart = Chart.real(dims[index % len(dims)])
        for kind in _MODULE_KINDS:
            if kind == StarKind.WICK:
                F = sampler.observable(bargmann, max_degree)
                G = sampler.observable(bargmann, max_degree)
                h = sampler.equivariant(
                    bargmann, 2, jet_vars=("z",),
                    weight_factor=bargmann_wave(bargmann).weight_factor
                    if sampler.rng.random() < 0.5 else None,
                )
            else:
                F = sampler.observable(chart, max_degree)
                G = sampler.observable(chart, max_degree)
                h = sampler.equivariant(
                    chart, 2,
                    jet_vars=chart.position_vars if sampler.rng.random() < 0.6 else None,
                    theta_poly=sampler.rng.random() < 0.3,
                )
            lhs = bullet_product(kind, star_product(kind, F, G), h)
            rhs = bullet_product(kind, F, bullet_product(kind, G, h))
            rec.case(f"{kind.value}-arbitrary-h", lhs == rhs, lambda: f"F={F}, G={G}, h={h}")
        F = sampler.observable(chart, max_degree)
        G = sampler.observable(chart, max_degree)
        psi = position_wave(chart, sampler.polynomial(
            chart, chart.position_vars, 3, hbar=True,
        ) * EquivariantFunction.jet(chart, chart.position_vars)
            if sampler.rng.random() < 0.5 else None)
        lhs = bullet_product(StarKind.MOYAL, star_product(StarKind.MOYAL, F, G), psi)
        rhs = bullet_product(StarKind.MOYAL, F, bullet_product(StarKind.MOYAL, G, psi))
        rec.case("moyal-on-polarized", lhs == rhs, lambda: f"F={F}, G={G}, psi={psi}")

    # documented counterexample: the hbar/i-exponential Poisson-driver star
    # fails the identity by exactly (hbar/(2i)) psi on (p, q, psi(q)e^{i theta})
    chart = Chart.real(1)
    p, q = chart.var("p1"), chart.var("q1")
    psi = position_wave(chart)
    full_star = exponential_product(driver_tensor(StarKind.MOYAL, chart), p, q, HBAR_OVER_I)
    defect = bullet_product(StarKind.MOYAL, full_star, psi) \
        - bullet_product(StarKind.MOYAL, p, bullet_product(StarKind.MOYAL, q, psi))
    expected = psi * HALF_HBAR_OVER_I
    rec.landmark("full-coefficient-counterexample", defect == expected,
                 f"defect = {defect}, expected (hbar/(2i))*psi")
    return rec.results()


def check_polarization(seed: int = 0, cases: int = 200, max_degree: int = 5) -> list[CheckResult]:
    kinds = (StarKind.NORMAL, StarKind.MOYAL, StarKind.WICK)
    rec = _Recorder("polarization", *(f"{kind.value}-preserves-polarization" for kind in kinds),
                    "antinormal-failure-witness")
    sampler = Sampler(seed)
    dims = (1, 1, 2, 2, 3)
    bargmann = Chart.bargmann()
    for index in range(cases):
        chart = Chart.real(dims[index % len(dims)])
        psi = position_wave(chart)
        F = sampler.observable(chart, max_degree, terms=3)
        for kind in (StarKind.NORMAL, StarKind.MOYAL):
            out = bullet_product(kind, F, psi)
            for pv in chart.momentum_vars:
                rec.case(f"{kind.value}-preserves-polarization",
                         horizontal_lift(chart, pv)(out).is_zero(),
                         lambda: f"F={F}, direction={pv}")
        Fb = sampler.observable(bargmann, max_degree, terms=3)
        out = bullet_product(StarKind.WICK, Fb, bargmann_wave(bargmann))
        rec.case("wick-preserves-polarization", horizontal_lift(bargmann, "zb")(out).is_zero(),
                 lambda: f"F={Fb}")

    # swapped-driver failure witness: p bullet_mu psi = p*psi is not polarized
    chart = Chart.real(1)
    p = chart.var("p1")
    psi = position_wave(chart)
    out = bullet_product(StarKind.ANTINORMAL, p, psi)
    rec.landmark("antinormal-failure-witness",
                 out == p * psi and horizontal_lift(chart, "p1")(out) == psi,
                 f"p bullet psi = {out}")
    return rec.results()


def check_agarwal(seed: int = 0, max_degree: int = 6) -> list[CheckResult]:
    rec = _Recorder("agarwal", "moyal-equals-corrected-normal", "bargmann-analogue",
                    "modulus-squared-landmark")
    chart = Chart.real(1)
    rep = Representation.position(chart)
    p, q = chart.var("p1"), chart.var("q1")
    for a, b, F in _degree_grid(p, q, max_degree):
        left = extract_operator(StarKind.MOYAL, F, rep)
        right = extract_operator(StarKind.NORMAL, agarwal_transform(chart, F), rep)
        rec.case("moyal-equals-corrected-normal", left == right, lambda: f"F=p^{a}*q^{b}")

    bargmann = Chart.bargmann()
    brep = Representation.bargmann(bargmann)
    z, zb = bargmann.var("z"), bargmann.var("zb")
    for a, b, F in _degree_grid(z, zb, 3):
        left = extract_operator(StarKind.MOYAL, F, brep)
        right = extract_operator(StarKind.WICK, agarwal_transform(bargmann, F), brep)
        rec.case("bargmann-analogue", left == right, lambda: f"F=z^{a}*zb^{b}")

    # |z|^2 quantizes to 2 hbar (z psi' + psi/2), the closed-form landmark value
    psi = bargmann_wave(bargmann)
    out = bullet_product(StarKind.MOYAL, z * zb, psi)
    jet0 = EquivariantFunction.jet(bargmann, ("z",))
    jet1 = EquivariantFunction.jet(bargmann, ("z",), (1,))
    two_hbar = Coefficient.hbar(1, 2)
    expected = bargmann_wave(bargmann, z * jet1 + jet0 * Fraction(1, 2)) * two_hbar
    rec.landmark("modulus-squared-landmark", out == expected, f"got {out}")
    return rec.results()


def check_homomorphism(seed: int = 0, cases: int = 100) -> list[CheckResult]:
    setups = [
        (StarKind.NORMAL, Representation.position(Chart.real(1))),
        (StarKind.NORMAL, Representation.position(Chart.real(2))),
        (StarKind.MOYAL, Representation.position(Chart.real(1))),
        (StarKind.ANTINORMAL, Representation.momentum(Chart.real(1))),
        (StarKind.WICK, Representation.bargmann(Chart.bargmann())),
    ]
    canonical = [
        (StarKind.NORMAL, Representation.position(Chart.real(1))),
        (StarKind.MOYAL, Representation.position(Chart.real(1))),
        (StarKind.ANTINORMAL, Representation.momentum(Chart.real(1))),
    ]
    names = [f"{kind.value}-{rep.name}-n{rep.chart.n}" for kind, rep in setups]
    rec = _Recorder("homomorphism", *names,
                    *(f"canonical-commutator-{kind.value}" for kind, _ in canonical))
    sampler = Sampler(seed)
    for (kind, rep), name in zip(setups, names):
        for _ in range(cases if rep.chart.n == 1 else cases // 2):
            F = sampler.observable(rep.chart, 3)
            G = sampler.observable(rep.chart, 3)
            left = extract_operator(kind, star_product(kind, F, G), rep)
            right = extract_operator(kind, F, rep).compose(extract_operator(kind, G, rep))
            if not rec.case(name, left == right, lambda: f"F={F}, G={G}"):
                break

    # canonical commutator Q(p)Q(q) - Q(q)Q(p) = (hbar/i) id
    for kind, rep in canonical:
        chart = rep.chart
        Qp = extract_operator(kind, chart.var("p1"), rep)
        Qq = extract_operator(kind, chart.var("q1"), rep)
        commutator = Qp.compose(Qq) - Qq.compose(Qp)
        expected = DiffOperator.identity(rep) * HBAR_OVER_I
        rec.landmark(f"canonical-commutator-{kind.value}", commutator == expected,
                     f"got {commutator}")
    return rec.results()


def check_charts(seed: int = 0, maps: int = 50, max_degree: int = 3, kmax: int = 4) -> list[CheckResult]:
    rec = _Recorder("charts", "tensor-invariance", "power-agreement")
    sampler = Sampler(seed)
    for index in range(maps):
        chart = Chart.real(1 if index % 2 == 0 else 2)
        amap = sampler.affine_map(chart)
        F = sampler.observable(chart, max_degree)
        G = sampler.observable(chart, max_degree)
        F2, G2 = amap.transform(F), amap.transform(G)
        for kind in (StarKind.NORMAL, StarKind.ANTINORMAL, StarKind.MOYAL):
            driver = driver_tensor(kind, chart)
            rec.case("tensor-invariance", amap.transform(driver) == driver,
                     lambda: f"kind={kind.value}, map={amap!r}")
            for k in range(kmax + 1):
                zero = EquivariantFunction.zero(chart)
                old = sum((left * right for left, right in driver.power_terms(F, G, k)), zero)
                new = sum((left * right for left, right in driver.power_terms(F2, G2, k)), zero)
                rec.case("power-agreement", amap.transform(old) == new,
                         lambda: f"kind={kind.value}, k={k}, F={F}, G={G}")
    return rec.results()


def check_prequantum(seed: int = 0, cases: int = 60, max_degree: int = 4) -> list[CheckResult]:
    rec = _Recorder("prequantum", "coordinate-formula", "dirac-bracket-to-commutator")
    sampler = Sampler(seed)
    for index in range(cases):
        chart = Chart.real(1 if index % 2 == 0 else 2)
        F = sampler.observable(chart, max_degree)
        psi = prequantum_wave(chart)
        jets = chart.variables

        def unit_jet(var):
            alpha = tuple(1 if v == var else 0 for v in jets)
            return EquivariantFunction.jet(chart, jets, alpha)

        jet0 = EquivariantFunction.jet(chart, jets)
        body = F * jet0
        for pv, qv in zip(chart.momentum_vars, chart.position_vars):
            body = body + F.differentiate(pv) * (
                unit_jet(qv) * HBAR_OVER_I - chart.var(pv) * jet0
            )
            body = body - F.differentiate(qv) * unit_jet(pv) * HBAR_OVER_I
        expected = EquivariantFunction(chart, body.terms, theta_weight=1, jet_vars=jets)
        rec.case("coordinate-formula", prequantize(chart, F, psi) == expected, lambda: f"F={F}")

    chart = Chart.real(1)
    p, q = chart.var("p1"), chart.var("q1")
    psi = prequantum_wave(chart)
    grid = list(_degree_grid(p, q, 4))
    for a, b, F in grid:
        for c, d, G in grid:
            pb = F.differentiate("p1") * G.differentiate("q1") \
                - G.differentiate("p1") * F.differentiate("q1")
            left = prequantize(chart, pb, psi)
            right = (
                prequantize(chart, F, prequantize(chart, G, psi))
                - prequantize(chart, G, prequantize(chart, F, psi))
            ) * I_OVER_HBAR
            rec.case("dirac-bracket-to-commutator", left == right,
                     lambda: f"F=p^{a}q^{b}, G=p^{c}q^{d}")
    return rec.results()


def check_inverse_p(seed: int = 0, max_degree: int = 6) -> list[CheckResult]:
    from .geometry import is_polarized

    rec = _Recorder("inversep", "momentum-after-inverse-is-identity",
                    "inverse-after-momentum-drops-constant", "inverse-output-polarized")
    sampler = Sampler(seed)
    chart = Chart.real(1)
    p, q = chart.var("p1"), chart.var("q1")
    components = [q ** k for k in range(max_degree + 1)]
    components += [sampler.polynomial(chart, ("q1",), max_degree) for _ in range(20)]
    for component in components:
        psi = position_wave(chart, component)
        inv = quantize_inverse_p(psi)
        rec.case("inverse-output-polarized",
                 is_polarized(chart, chart.vertical_polarization(), inv),
                 lambda: f"psi={component}")
        rec.case("momentum-after-inverse-is-identity", quantize(StarKind.MOYAL, p, inv) == psi,
                 lambda: f"psi={component}")
        back = quantize_inverse_p(quantize(StarKind.MOYAL, p, psi))
        constant = EquivariantFunction(
            chart,
            {Monomial(): component.terms.get(Monomial(), Coefficient.zero())},
            theta_weight=1,
        ) if Monomial() in component.terms else EquivariantFunction.zero(chart)
        rec.case("inverse-after-momentum-drops-constant", back + constant == psi,
                 lambda: f"psi={component}")
    return rec.results()


def check_adjoint(seed: int = 0, max_degree: int = 4) -> list[CheckResult]:
    rec = _Recorder("adjoint", "weyl-operators-symmetric", "normal-pq-asymmetric",
                    "antinormal-position-form-via-adjoint")
    sampler = Sampler(seed)
    chart = Chart.real(1)
    rep = Representation.position(chart)
    p, q = chart.var("p1"), chart.var("q1")
    for a, b, F in _degree_grid(p, q, max_degree):
        op = extract_operator(StarKind.MOYAL, F, rep)
        rec.case("weyl-operators-symmetric", op.adjoint() == op, lambda: f"F=p^{a}q^{b}")

    normal_pq = extract_operator(StarKind.NORMAL, p * q, rep)
    rec.landmark("normal-pq-asymmetric", normal_pq.adjoint() != normal_pq,
                 "normal-ordered pq unexpectedly symmetric")

    # the momentum-representation operator of sum A_n(q) p^n, carried to the
    # position representation, is sum (hbar/i)^n (d/dq)^n (A_n .): exactly
    # the formal adjoint of the normal-ordered operator for real A_n
    for _ in range(40):
        degrees = sampler.rng.sample(range(4), k=sampler.rng.randint(1, 3))
        F = chart.zero()
        translated = DiffOperator(rep, {})
        for n in degrees:
            A = sampler.polynomial(chart, ("q1",), 3, real=True)
            F = F + A * p ** n
            derivative = DiffOperator(rep, {(n,): chart.one()})
            multiply = DiffOperator(rep, {(0,): A})
            translated = translated + derivative.compose(multiply) * (HBAR_OVER_I ** n)
        rec.case("antinormal-position-form-via-adjoint",
                 extract_operator(StarKind.NORMAL, F, rep).adjoint() == translated,
                 lambda: f"F={F}")
    return rec.results()


def check_nq(seed: int = 0, cases: int = 60, max_degree: int = 5) -> list[CheckResult]:
    rec = _Recorder("nq", "normal-ordering-formula")
    sampler = Sampler(seed)
    for index in range(cases):
        n = (1, 1, 2, 3)[index % 4]
        chart = Chart.real(n)
        jets = chart.position_vars
        F = chart.zero()
        expected_body = chart.zero()
        for _ in range(sampler.rng.randint(1, 3)):
            alpha = sampler.multi_index(n, max_degree)
            A = sampler.polynomial(chart, chart.position_vars, 5 if n == 1 else 3)
            term = A
            for pv, a in zip(chart.momentum_vars, alpha):
                term = term * chart.var(pv) ** a
            F = F + term
            expected_body = expected_body + A * EquivariantFunction.jet(chart, jets, alpha) \
                * (HBAR_OVER_I ** sum(alpha))
        expected = EquivariantFunction(
            chart, expected_body.terms, theta_weight=1, jet_vars=jets,
        )
        got = quantize(StarKind.NORMAL, F, position_wave(chart))
        if not rec.case("normal-ordering-formula", got == expected, lambda: f"n={n}, F={F}"):
            break
    return rec.results()


def check_anq(seed: int = 0, cases: int = 60, max_degree: int = 5) -> list[CheckResult]:
    rec = _Recorder("anq", "antinormal-ordering-formula")
    sampler = Sampler(seed)
    for index in range(cases):
        n = (1, 1, 2)[index % 3]
        chart = Chart.real(n)
        jets = chart.momentum_vars
        F = chart.zero()
        expected_component = chart.zero()
        for _ in range(sampler.rng.randint(1, 3)):
            alpha = sampler.multi_index(n, max_degree)
            B = sampler.polynomial(chart, chart.momentum_vars, 4)
            term = B
            for qv, a in zip(chart.position_vars, alpha):
                term = term * chart.var(qv) ** a
            F = F + term
            sign = -1 if sum(alpha) % 2 else 1
            expected_component = expected_component \
                + B * EquivariantFunction.jet(chart, jets, alpha) \
                * (HBAR_OVER_I ** sum(alpha)) * sign
        expected = momentum_wave(chart, expected_component)
        got = quantize(StarKind.ANTINORMAL, F, momentum_wave(chart))
        if not rec.case("antinormal-ordering-formula", got == expected, lambda: f"n={n}, F={F}"):
            break
    return rec.results()


def check_roundtrip(seed: int = 0, cases: int = 500) -> list[CheckResult]:
    rec = _Recorder("roundtrip", "parse-format-roundtrip")
    sampler = Sampler(seed)
    for index in range(cases):
        if index % 3 == 2:
            chart = Chart.bargmann()
            jet_vars = ("z",)
        else:
            chart = Chart.real(1 + index % 2)
            jet_vars = chart.position_vars
        f = sampler.equivariant(chart, 4, jet_vars=jet_vars if index % 2 else None)
        text = format_function(f)
        back = lower_expression(text, chart, jet_vars=jet_vars)
        if not rec.case("parse-format-roundtrip", back == f, lambda: f"text={text!r}"):
            break
    return rec.results()


SUITES = {
    "bracket": check_bracket,
    "lifts": check_lifts,
    "module": check_module,
    "polarization": check_polarization,
    "agarwal": check_agarwal,
    "homomorphism": check_homomorphism,
    "charts": check_charts,
    "prequantum": check_prequantum,
    "inversep": check_inverse_p,
    "adjoint": check_adjoint,
    "nq": check_nq,
    "anq": check_anq,
    "roundtrip": check_roundtrip,
}


def run_suites(names, seed: int = 0, max_degree: int | None = None) -> list[CheckResult]:
    if max_degree is not None:
        # signature() follows __wrapped__, so a wrapped suite keeps its knobs.
        import inspect

    if "all" in names:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        fn = SUITES[name]
        kwargs = {"seed": seed}
        if max_degree is not None and "max_degree" in inspect.signature(fn).parameters:
            kwargs["max_degree"] = max_degree
        results.extend(fn(**kwargs))
    return results
