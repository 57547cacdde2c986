"""Independent checks of the library workloads' outputs, computed in sympy.

Nothing here imports the engine.  Inputs come from the generated term
lists, references are computed with sympy's sparse polynomial rings over
the Gaussian rationals ``QQ_I``, and each engine output is read twice --
from its JSON document and from its text, through a parser of the
printed grammar written here -- and both must equal the reference
exactly.

References:

* star products of the four constant-coefficient drivers: the closed
  bidifferential form  prod_r exp(c a_r d_{u_r} (x) d_{v_r})  summed to
  the end;
* ``agarwal_transform``: exp((i hbar/2) Delta) as a finite sum;
* extracted operators: the normal- and antinormal-ordering formulas
  (position and momentum representations), Q(z^a zb^b) = z^a (2 hbar
  d/dz)^b (Bargmann), and the Poisson-driver ones carried over by the
  Agarwal transform (its inverse for the momentum representation);
* compose and adjoint: the Leibniz rule on the reference operators;
* bullet and quantize on a generic wave: the reference operator applied
  to the generic jet (so quantize equals the bullet product);
* the bundle bracket with the generic prequantum wave, from the lifted
  fields d/dp_i and d/dq_i - (p_i/hbar) d/dtheta, and prequantize from
  the prequantum formula F psi + (hbar/i) [[F, psi]].
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from sympy import QQ, QQ_I
from sympy.polys.rings import ring

from workloads import chart_variables

HBAR = "hbar"
MOMENTUM_PHASE = "exp(i*p.q/hbar)"


@lru_cache(maxsize=None)
def chart_ring(chart: tuple):
    """(ring, generator names); hbar is the last generator."""
    names = chart_variables(chart) + [HBAR]
    R = ring(",".join(names), QQ_I)[0]
    return R, names


def gaussian(re_value, im_value):
    re_f, im_f = Fraction(re_value), Fraction(im_value)
    return QQ_I(QQ(re_f.numerator, re_f.denominator), QQ(im_f.numerator, im_f.denominator))


I_UNIT = QQ_I(0, 1)


class L:
    """A Laurent polynomial in hbar: ``p * hbar**-s`` with p in the chart ring."""

    __slots__ = ("p", "s")

    def __init__(self, p, s=0):
        self.p = p
        self.s = s

    def _h(self, k):
        return self.p.ring.gens[-1] ** k

    def __add__(self, other):
        if self.s == other.s:
            return L(self.p + other.p, self.s)
        if self.s > other.s:
            return L(self.p + other.p * self._h(self.s - other.s), self.s)
        return L(self.p * self._h(other.s - self.s) + other.p, other.s)

    def __neg__(self):
        return L(-self.p, self.s)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, L):
            return L(self.p * other.p, self.s + other.s)
        return L(self.p * other, self.s)

    def diff(self, gen):
        return L(self.p.diff(gen), self.s)

    def conjugate(self):
        R = self.p.ring
        return L(R({m: QQ_I(c.x, -c.y) for m, c in self.p.items()}), self.s)

    def is_zero(self):
        return not self.p

    def __eq__(self, other):
        return self.p * self._h(other.s) == other.p * self._h(self.s)


def add_into(lin: dict, key, value: L):
    lin[key] = lin[key] + value if key in lin else value


def from_terms(chart, terms) -> L:
    """An observable from (coeff, hbar exponent, {var: exp}) triples."""
    R, names = chart_ring(tuple(chart))
    shift = max([0] + [-k for _, k, _ in terms])
    data: dict = {}
    for coeff, k, mono in terms:
        exps = [0] * len(names)
        for v, e in mono.items():
            exps[names.index(v)] += e
        exps[-1] = k + shift
        key = tuple(exps)
        data[key] = data.get(key, QQ_I(0, 0)) + coeff
    return L(R({m: c for m, c in data.items() if c}), shift)


def spec_to_l(chart, spec) -> L:
    return from_terms(chart, [(gaussian(r, i), k, dict(mono)) for r, i, k, mono in spec])


# -- references ------------------------------------------------------------------


def _h(R, k=1):
    return R.gens[-1] ** k


def _gen(R, names, var):
    return R.gens[names.index(var)]


def star_pairs(kind, chart):
    """(scale a_r, u_r, v_r) pairs and the series coefficient c."""
    R, names = chart_ring(tuple(chart))
    hbar_over_i = R(-I_UNIT) * _h(R)
    if chart[0] == "bargmann":
        two_i = QQ_I(0, 2)
        if kind == "wick":
            return [(two_i, "zb", "z")], hbar_over_i
        return [(two_i, "zb", "z"), (-two_i, "z", "zb")], hbar_over_i * QQ_I(QQ(1, 2), 0)
    n = chart[1]
    normal = [(QQ_I(1, 0), f"p{j}", f"q{j}") for j in range(1, n + 1)]
    anti = [(QQ_I(-1, 0), f"q{j}", f"p{j}") for j in range(1, n + 1)]
    if kind == "normal":
        return normal, hbar_over_i
    if kind == "antinormal":
        return anti, hbar_over_i
    return normal + anti, hbar_over_i * QQ_I(QQ(1, 2), 0)


def star_ref(kind, chart, f: L, g: L) -> L:
    """prod_r exp(c a_r d_u (x) d_v) applied to f (x) g, then multiplied out."""
    R, names = chart_ring(tuple(chart))
    pairs, c = star_pairs(kind, chart)
    terms = [(f.p, g.p, R.one)]
    for a, u, v in pairs:
        gu, gv = _gen(R, names, u), _gen(R, names, v)
        step = c * a
        expanded = []
        for left, right, scale in terms:
            m = 0
            while left and right:
                expanded.append((left, right, scale))
                m += 1
                left, right = left.diff(gu), right.diff(gv)
                scale = scale * step * QQ_I(QQ(1, m), 0)
        terms = expanded
    total = R.zero
    for left, right, scale in terms:
        total += left * right * scale
    return L(total, f.s + g.s)


def laplacian(chart, p):
    R, names = chart_ring(tuple(chart))
    if chart[0] == "bargmann":
        return p.diff(_gen(R, names, "zb")).diff(_gen(R, names, "z")) * QQ_I(0, -2)
    out = R.zero
    for j in range(1, chart[1] + 1):
        out -= p.diff(_gen(R, names, f"q{j}")).diff(_gen(R, names, f"p{j}"))
    return out


def agarwal_ref(chart, f: L, sign: int = 1) -> L:
    """exp(sign * (i hbar / 2) Delta) f."""
    R, _ = chart_ring(tuple(chart))
    step = R(QQ_I(0, QQ(sign, 2))) * _h(R)
    total, term, k = f.p, f.p, 0
    while True:
        term = laplacian(chart, term)
        if not term:
            return L(total, f.s)
        k += 1
        total += term * step ** k * QQ_I(QQ(1, factorial(k)), 0)


def config_vars(rep, chart):
    if rep == "bargmann":
        return ["z"]
    n = chart[1]
    prefix = "q" if rep == "position" else "p"
    return [f"{prefix}{j}" for j in range(1, n + 1)]


def _ordering(f: L, chart, rep) -> dict:
    """Normal (position), antinormal (momentum) or Bargmann operator of f."""
    R, names = chart_ring(tuple(chart))
    if rep == "bargmann":
        slots, factor = [names.index("zb")], QQ_I(2, 0)
    elif rep == "position":
        slots, factor = [names.index(f"p{j}") for j in range(1, chart[1] + 1)], -I_UNIT
    else:
        slots, factor = [names.index(f"q{j}") for j in range(1, chart[1] + 1)], I_UNIT
    buckets: dict = {}
    for exps, c in f.p.items():
        alpha = tuple(exps[s] for s in slots)
        order = sum(alpha)
        new = list(exps)
        for s in slots:
            new[s] = 0
        new[-1] += order
        bucket = buckets.setdefault(alpha, {})
        key = tuple(new)
        bucket[key] = bucket.get(key, QQ_I(0, 0)) + c * factor ** order
    return {a: L(R({m: c for m, c in b.items() if c}), f.s) for a, b in buckets.items()}


def operator_ref(kind, rep, chart, f: L) -> dict:
    if kind == "moyal":
        f = agarwal_ref(chart, f, -1 if rep == "momentum" else 1)
    return _ordering(f, chart, rep)


def _multi_range(alpha):
    if not alpha:
        yield ()
        return
    for g in range(alpha[0] + 1):
        for rest in _multi_range(alpha[1:]):
            yield (g,) + rest


def _derive(value: L, gens, gamma) -> L:
    for gen, order in zip(gens, gamma):
        for _ in range(order):
            value = value.diff(gen)
    return value


def _binom(alpha, gamma):
    out = 1
    for a, g in zip(alpha, gamma):
        out *= comb(a, g)
    return out


def compose_ref(a: dict, b: dict, rep, chart) -> dict:
    R, names = chart_ring(tuple(chart))
    gens = [_gen(R, names, v) for v in config_vars(rep, chart)]
    derivatives: dict = {}
    out: dict = {}
    for alpha, c in a.items():
        for beta, d in b.items():
            for gamma in _multi_range(alpha):
                if (beta, gamma) not in derivatives:
                    derivatives[(beta, gamma)] = _derive(d, gens, gamma)
                dg = derivatives[(beta, gamma)]
                if dg.is_zero():
                    continue
                key = tuple(x - y + z for x, y, z in zip(alpha, gamma, beta))
                add_into(out, key, c * dg * QQ_I(_binom(alpha, gamma), 0))
    return out


def adjoint_ref(a: dict, rep, chart) -> dict:
    R, names = chart_ring(tuple(chart))
    gens = [_gen(R, names, v) for v in config_vars(rep, chart)]
    out: dict = {}
    for alpha, c in a.items():
        sign = -1 if sum(alpha) % 2 else 1
        cbar = c.conjugate()
        for gamma in _multi_range(alpha):
            cg = _derive(cbar, gens, gamma)
            if cg.is_zero():
                continue
            key = tuple(x - y for x, y in zip(alpha, gamma))
            add_into(out, key, cg * QQ_I(sign * _binom(alpha, gamma), 0))
    return out


def bracket_ref(chart, f: L) -> dict:
    """[[f, psi e^{i theta}]] for the generic prequantum jet psi over all variables."""
    R, names = chart_ring(tuple(chart))
    n = chart[1]
    width = 2 * n
    out: dict = {}
    for j in range(1, n + 1):
        dp = f.diff(_gen(R, names, f"p{j}"))
        dq = f.diff(_gen(R, names, f"q{j}"))
        unit_q = tuple(1 if k == n + j - 1 else 0 for k in range(width))
        unit_p = tuple(1 if k == j - 1 else 0 for k in range(width))
        add_into(out, unit_q, dp)
        add_into(out, unit_p, -dq)
        # -(p_j / hbar) d/dtheta acting on e^{i theta}
        phase = L(R(-I_UNIT) * _gen(R, names, f"p{j}"), 1)
        add_into(out, (0,) * width, dp * phase)
    return out


def prequantize_ref(chart, f: L) -> dict:
    R, _ = chart_ring(tuple(chart))
    out = {k: v * L(R(-I_UNIT) * _h(R)) for k, v in bracket_ref(chart, f).items()}
    add_into(out, (0,) * (2 * chart[1]), f)
    return out


# -- reading engine output -----------------------------------------------------------


def _doc_terms(doc):
    """Terms (key, (re, im), hbar exp, monomial) and attributes of a JSON document."""
    terms, attrs = [], set()
    for t in doc["terms"]:
        coeff = (Fraction(t["re"]), Fraction(t["im"]))
        if "derivative" in t:
            key = tuple(t["derivative"])
            attrs.add(("operator", doc.get("rep")))
        else:
            jets = t["jet"].get("psi", []) if t["jet"] else []
            if len(jets) > 1 or any(e != 1 for _, e in jets):
                raise ValueError("output is not linear in the jet symbols")
            key = tuple(jets[0][0]) if jets else ()
            attrs.add((t["theta_weight"], t["weight_factor"]))
        terms.append((key, coeff, t["hbar"], t["monomial"]))
    return terms, attrs


_RATIONAL = r"\d+(?:/\d+)?"
_COMPLEX = re.compile(rf"^(-?{_RATIONAL}) ([+-]) ({_RATIONAL})\*i$")
_POWER = re.compile(r"^([a-z]+\d*)(?:\^(-?\d+))?$")
_JET = re.compile(r"^psi\(([\d,]+)\)(?:\^(\d+))?$")
_PHASE = re.compile(r"^e\((-?\d+)\)$")
_DERIV = re.compile(r"^d(?:\^(\d+))?/d([a-z]+\d*)(?:\^\d+)?$")


def _split_balanced(pieces, joiner):
    """Re-join split pieces until parentheses balance."""
    out, acc = [], None
    for piece in pieces:
        acc = piece if acc is None else acc + joiner + piece
        if acc.count("(") == acc.count(")"):
            out.append(acc)
            acc = None
    if acc is not None:
        raise ValueError("unbalanced parentheses in output")
    return out


def _times(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


_I = (Fraction(0), Fraction(1))


def parse_output_text(text, key_vars=()):
    """Terms (key, (re, im), hbar exp, monomial) and attributes of printed output.

    ``key_vars`` names the derivative variables of an operator, in order.
    """
    if text == "0":
        return [], set()
    terms, attrs = [], set()
    # split before each " + " / " - ", then re-join the splits inside a
    # parenthesised complex coefficient such as "(1/2 - 3*i)"
    for term in _split_balanced(re.split(r" (?=[+-] )", text), " "):
        sign, body = term[0], term.lstrip("+- ")
        coeff = (Fraction(-1 if sign == "-" else 1), Fraction(0))
        k, mono, key, weight, factor = 0, {}, None, 0, None
        deriv = [0] * len(key_vars)
        for factor_text in _split_balanced(body.split("*"), "*"):
            if factor_text == "(hbar/i)":
                coeff, k = _times(coeff, (Fraction(0), Fraction(-1))), k + 1
            elif factor_text.startswith("exp("):
                factor = factor_text
            elif factor_text[0] == "(":
                inner = factor_text[1:-1]
                m = _COMPLEX.match(inner)
                if m:
                    im = Fraction(m.group(3)) * (-1 if m.group(2) == "-" else 1)
                    coeff = _times(coeff, (Fraction(m.group(1)), im))
                else:
                    coeff = _times(coeff, (Fraction(inner), Fraction(0)))
            elif factor_text.isdigit():
                coeff = _times(coeff, (Fraction(int(factor_text)), Fraction(0)))
            elif factor_text == "i":
                coeff = _times(coeff, _I)
            elif factor_text.startswith("psi("):
                m = _JET.match(factor_text)
                if m is None or m.group(2) not in (None, "1"):
                    raise ValueError("output is not linear in the jet symbols")
                key = tuple(int(x) for x in m.group(1).split(","))
            elif factor_text.startswith("e("):
                weight = int(_PHASE.match(factor_text).group(1))
            elif factor_text.startswith("d"):
                m = _DERIV.match(factor_text)
                deriv[list(key_vars).index(m.group(2))] += int(m.group(1) or 1)
            else:
                m = _POWER.match(factor_text)
                if m is None:
                    raise ValueError(f"unreadable factor {factor_text!r}")
                exp = int(m.group(2) or 1)
                if m.group(1) == HBAR:
                    k += exp
                else:
                    mono[m.group(1)] = mono.get(m.group(1), 0) + exp
        if key_vars:
            key = tuple(deriv)
        else:
            attrs.add((weight, factor))
        terms.append((key if key is not None else (), coeff, k, mono))
    return terms, attrs


# -- checking ops ------------------------------------------------------------------------


class Expected:
    """A reference value: a map key -> L plus the attributes every term carries."""

    def __init__(self, lin, attrs, chart, rep=None):
        self.lin = lin
        self.attrs = attrs
        self.chart = chart
        self.rep = rep


def expected_for(op, refs) -> Expected:
    name = op["op"]
    if name in ("compose", "adjoint"):
        a = refs[op["a"]]
        if a is None or (name == "compose" and refs[op["b"]] is None):
            raise ValueError("input op has no reference")
        lin = (compose_ref(a.lin, refs[op["b"]].lin, a.rep, a.chart) if name == "compose"
               else adjoint_ref(a.lin, a.rep, a.chart))
        return Expected(lin, a.attrs, a.chart, a.rep)
    chart = tuple(op["chart"])
    f = spec_to_l(chart, op["f"])
    if name == "star":
        return Expected({(): star_ref(op["kind"], chart, f, spec_to_l(chart, op["g"]))},
                        {(0, None)}, chart)
    if name == "agarwal":
        return Expected({(): agarwal_ref(chart, f)}, {(0, None)}, chart)
    if name == "extract":
        return Expected(operator_ref(op["kind"], op["rep"], chart, f),
                        {("operator", op["rep"])}, chart, op["rep"])
    if name in ("bullet", "quantize"):
        lin = operator_ref(op["kind"], op["rep"], chart, f)
        factor = MOMENTUM_PHASE if op["rep"] == "momentum" else (
            "exp(-z*zb/(4*hbar))" if op["rep"] == "bargmann" else None)
        return Expected(lin, {(1, factor)}, chart)
    if name == "bracket":
        return Expected(bracket_ref(chart, f), {(1, None)}, chart)
    if name == "prequantize":
        return Expected(prequantize_ref(chart, f), {(1, None)}, chart)
    raise ValueError(f"unknown op {name!r}")


def _chart_id(chart):
    return "bargmann" if chart[0] == "bargmann" else f"real{chart[1]}"


def _canonical(terms) -> Counter:
    """Printed terms as a multiset of plain-integer tuples."""
    return Counter((key, re_value.numerator, re_value.denominator, im_value.numerator,
                    im_value.denominator, k, tuple(sorted(mono.items())))
                   for key, (re_value, im_value), k, mono in terms)


def _canonical_expected(expected: Expected) -> Counter:
    """The reference in the form of ``_canonical``."""
    _, names = chart_ring(tuple(expected.chart))
    out = Counter()
    for key, value in expected.lin.items():
        for exps, c in value.p.items():
            mono = tuple(sorted((names[i], e) for i, e in enumerate(exps[:-1]) if e))
            out[(key, int(c.x.numerator), int(c.x.denominator), int(c.y.numerator),
                 int(c.y.denominator), exps[-1] - value.s, mono)] += 1
    return out


def check_output(expected: Expected, text: str, doc_text: str) -> str | None:
    """None if the JSON equals the reference and the text prints the same terms."""
    doc = json.loads(doc_text)
    if doc["chart"] != _chart_id(expected.chart):
        return f"JSON chart {doc['chart']!r} is wrong"
    terms, attrs = _doc_terms(doc)
    if terms and not attrs <= expected.attrs:
        return f"JSON output has attributes {sorted(map(str, attrs))}"
    printed = _canonical(terms)
    if printed != _canonical_expected(expected):
        return "JSON output differs from the sympy reference"
    key_vars = config_vars(expected.rep, expected.chart) if expected.rep else ()
    text_terms, text_attrs = parse_output_text(text, key_vars)
    if text_attrs != attrs and not key_vars:
        return f"text output has attributes {sorted(map(str, text_attrs))}"
    if _canonical(text_terms) != printed:
        return "text output differs from the JSON output"
    return None


def verify_pass(ops, records) -> list[str | None]:
    """Check every op result of one pass; returns the failure reason per op."""
    refs: list[Expected | None] = []
    reasons: list[str | None] = []
    for op, record in zip(ops, records):
        try:
            expected = expected_for(op, refs)
        except ValueError as exc:
            expected, reason = None, str(exc)
        else:
            reason = record["error"]
            if reason is None:
                reason = check_output(expected, record["text"], record["json"])
        refs.append(expected)
        reasons.append(reason)
    return reasons
