"""Byte-stable JSON documents for functions and operators.

Rationals serialize as strings ("num/den" or plain integers) so no
precision is lost; term order follows the canonical monomial order, so
a given value always emits the same bytes.
"""

from __future__ import annotations

from .algebra import EquivariantFunction


def _rational_str(part: tuple) -> str:
    n, d = part
    return str(n) if d == 1 else f"{n}/{d}"


def chart_id(chart) -> str:
    return "bargmann" if chart.kind == "bargmann" else f"real{chart.n}"


def _term_entries(mono, coeff, **rest) -> list[dict]:
    """One JSON term per hbar power of ``coeff``, followed by the ``rest`` entries."""
    monomial = dict(mono.vars)
    return [
        {"re": _rational_str(re), "im": _rational_str(im), "hbar": k,
         "monomial": monomial, **rest}
        for k, re, im in coeff.parts()
    ]


def function_to_document(f: EquivariantFunction) -> dict:
    terms = []
    weight_factor = f.weight_factor.name if f.weight_factor else None
    for mono, coeff in f.sorted_terms():
        jet = {"psi": [[list(alpha), e] for alpha, e in mono.jets]} if mono.jets else {}
        terms += _term_entries(mono, coeff, jet=jet, theta_weight=f.theta_weight,
                               weight_factor=weight_factor)
    return {"chart": chart_id(f.chart), "terms": terms}


def operator_to_document(op) -> dict:
    terms = []
    for alpha, mono, coeff in op.sorted_terms():
        terms += _term_entries(mono, coeff, derivative=list(alpha))
    return {"chart": chart_id(op.rep.chart), "rep": op.rep.name, "terms": terms}


def to_json(document: dict) -> str:
    import json  # here, not at the top: text output never needs it

    return json.dumps(document, separators=(",", ":"))


def emit_json(value) -> str:
    """Serialize a function or operator to its canonical JSON text."""
    if isinstance(value, EquivariantFunction):
        return to_json(function_to_document(value))
    return to_json(operator_to_document(value))
