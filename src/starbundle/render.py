"""Canonical, re-parseable text rendering of functions and operators.

The output grammar matches the expression parser: rationals print as
``(a/b)``, the scalar hbar/i prints as ``(hbar/i)``, jet symbols as
``psi(orders)``, the angular weight m as a trailing ``e(m)``.  Terms
appear in descending graded-lexicographic order and, within one
monomial, ascending hbar exponent, so equal functions always render to
identical bytes.
"""

from __future__ import annotations

from .algebra import EquivariantFunction, Monomial


def _rational(n: int, d: int, parenthesize: bool = True) -> str:
    if d == 1:
        return str(n)
    return f"({n}/{d})" if parenthesize else f"{n}/{d}"


def _scalar_factors(re: tuple, im: tuple, k: int) -> tuple[int, list[str]]:
    """Sign and factor strings for the scalar (re + im*i) * hbar^k, where
    re and im are (numerator, denominator) pairs in lowest terms."""
    factors: list[str] = []
    (rn, rd), (jn, jd) = re, im
    if jn and not rn and k == 1:
        # c*hbar = r*(hbar/i) with rational r = -im(c)
        sign = -1 if jn > 0 else 1
        if (abs(jn), jd) != (1, 1):
            factors.append(_rational(abs(jn), jd))
        factors.append("(hbar/i)")
        return sign, factors
    if rn and not jn:
        sign = 1 if rn > 0 else -1
        if (abs(rn), rd) != (1, 1):
            factors.append(_rational(abs(rn), rd))
    elif jn and not rn:
        sign = 1 if jn > 0 else -1
        if (abs(jn), jd) != (1, 1):
            factors.append(_rational(abs(jn), jd))
        factors.append("i")
    else:
        sign = 1
        im_sign = "+" if jn > 0 else "-"
        factors.append(
            f"({_rational(rn, rd, parenthesize=False)} {im_sign} "
            f"{_rational(abs(jn), jd, parenthesize=False)}*i)"
        )
    if k == 1:
        factors.append("hbar")
    elif k:
        factors.append(f"hbar^{k}")
    return sign, factors


def _monomial_factors(mono: Monomial) -> list[str]:
    factors = []
    for v, e in mono.vars:
        factors.append(v if e == 1 else f"{v}^{e}")
    for alpha, e in mono.jets:
        body = "psi(" + ",".join(str(a) for a in alpha) + ")"
        factors.append(body if e == 1 else f"{body}^{e}")
    return factors


def _join(rendered) -> str:
    """Join ``(sign, factors)`` terms with signs; a term with no factors is
    ``1``, and no terms at all is ``0``."""
    parts = []
    for index, (sign, factors) in enumerate(rendered):
        text = "*".join(factors) or "1"
        if index == 0:
            parts.append(("-" if sign < 0 else "") + text)
        else:
            parts.append((" - " if sign < 0 else " + ") + text)
    return "".join(parts) or "0"


def format_function(f: EquivariantFunction) -> str:
    rendered = []
    for mono, coeff in f.sorted_terms():
        for k, re, im in coeff.parts():
            sign, factors = _scalar_factors(re, im, k)
            factors.extend(_monomial_factors(mono))
            if f.theta_weight:
                factors.append(f"e({f.theta_weight})")
            if f.weight_factor is not None:
                factors.append(f.weight_factor.name)
            rendered.append((sign, factors))
    return _join(rendered)


def _derivative_factors(config_vars, alpha) -> list[str]:
    factors = []
    for var, order in zip(config_vars, alpha):
        if order == 1:
            factors.append(f"d/d{var}")
        elif order:
            factors.append(f"d^{order}/d{var}^{order}")
    return factors


def format_operator(op) -> str:
    rendered = []
    for alpha, mono, coeff in op.sorted_terms():
        derivative = _derivative_factors(op.rep.config_vars, alpha)
        for k, re, im in coeff.parts():
            sign, factors = _scalar_factors(re, im, k)
            factors.extend(_monomial_factors(mono))
            factors.extend(derivative)
            rendered.append((sign, factors))
    return _join(rendered)
