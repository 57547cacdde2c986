"""Seeded inputs for the benchmark workloads.

This module does not import the engine: it produces plain data (op
dictionaries whose observables are term lists and expression text), so
the program under test only ever sees the generated inputs.

Every workload has a fixed op schedule -- which operations, on which
charts, at which degrees and dimensions -- and the seed draws every
coefficient and, in ``wide_chart`` and ``dq_cli``, the monomials.  Two
seeds therefore measure the same amount of work on different numbers
(the dq check suites run on one fixed seed for the same reason).
Pass ``p`` of a run draws from its own sub-seed, so no input repeats
within a run -- except the dq check commands, each a fresh process -- and
a result cache keyed on inputs cannot help.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

WORKLOADS = ("star_series", "operator_calculus", "wide_chart", "dq_cli")

REAL1 = ("real", 1)
REAL2 = ("real", 2)
BARGMANN = ("bargmann", 1)


def chart_variables(chart) -> list[str]:
    kind, n = chart
    if kind == "bargmann":
        return ["z", "zb"]
    return [f"p{i}" for i in range(1, n + 1)] + [f"q{i}" for i in range(1, n + 1)]


# -- observables -------------------------------------------------------------
#
# An observable is a list of terms [re, im, k, [[var, exp], ...]]: the
# coefficient (re + im*i) * hbar^k times the monomial; re and im are
# rational strings so the spec is plain JSON.


def _gaussian(rng: random.Random) -> tuple[Fraction, Fraction]:
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if not re and not im:
        re = Fraction(1)
    return re, im


def _term(rng: random.Random, mono) -> list:
    re, im = _gaussian(rng)
    k = rng.choice((-1, 0, 0, 1))
    return [str(re), str(im), k, [[v, e] for v, e in mono]]


def _monomials_up_to(variables, degree):
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(variables, d):
            exps: dict[str, int] = {}
            for v in combo:
                exps[v] = exps.get(v, 0) + 1
            out.append(sorted(exps.items(), key=lambda item: variables.index(item[0])))
    return out


def dense_observable(rng: random.Random, chart, degree: int) -> list:
    """Every monomial of total degree <= degree, each with a random coefficient."""
    return [_term(rng, mono) for mono in _monomials_up_to(chart_variables(chart), degree)]


def sparse_observable(rng: random.Random, chart, degrees=(3, 2, 1), variables=None) -> list:
    """One term per listed degree over seeded variables, plus a constant."""
    variables = variables or chart_variables(chart)
    terms = []
    for d in degrees:
        exps: dict[str, int] = {}
        for _ in range(d):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        terms.append(_term(rng, sorted(exps.items(), key=lambda item: variables.index(item[0]))))
    terms.append(_term(rng, []))
    return terms


def _rational_text(value: Fraction) -> str:
    return str(abs(value))


def observable_text(terms) -> str:
    """Render a term list in the engine's expression grammar."""
    parts = []
    for re_s, im_s, k, mono in terms:
        re, im = Fraction(re_s), Fraction(im_s)
        if re and im:
            sign = " - " if im < 0 else " + "
            lead = "-" if re < 0 else ""
            coeff = f"({lead}{_rational_text(re)}{sign}{_rational_text(im)}*i)"
        elif im:
            coeff = f"({'-' if im < 0 else ''}{_rational_text(im)}*i)"
        else:
            coeff = f"({'-' if re < 0 else ''}{_rational_text(re)})"
        factors = [coeff]
        if k:
            factors.append("hbar" if k == 1 else f"hbar^{k}")
        factors.extend(v if e == 1 else f"{v}^{e}" for v, e in mono)
        parts.append("*".join(factors))
    return " + ".join(parts)


# -- schedules -----------------------------------------------------------------

# (op, kind, chart, degree).  Unlifted products at n <= 2 so the series and
# the scalar arithmetic do the work; the d=12 normal product is the heaviest
# op.  The degrees form a ladder of op costs without large gaps, so the
# latency percentiles do not jump between op kinds from run to run.
_STAR_SERIES = [
    ("star", "normal", REAL1, 2),
    ("star", "normal", REAL1, 4),
    ("star", "normal", REAL1, 6),
    ("star", "normal", REAL1, 8),
    ("star", "normal", REAL1, 12),
    ("star", "antinormal", REAL1, 3),
    ("star", "antinormal", REAL1, 5),
    ("star", "antinormal", REAL1, 7),
    ("star", "moyal", REAL1, 2),
    ("star", "moyal", REAL1, 4),
    ("star", "moyal", REAL1, 6),
    ("star", "normal", REAL2, 2),
    ("star", "antinormal", REAL2, 2),
    ("star", "moyal", REAL2, 3),
    ("star", "wick", BARGMANN, 3),
    ("star", "wick", BARGMANN, 5),
    ("star", "wick", BARGMANN, 7),
    ("star", "moyal", BARGMANN, 4),
    ("star", "moyal", BARGMANN, 6),
    ("agarwal", None, REAL1, 4),
    ("agarwal", None, REAL1, 8),
    ("agarwal", None, REAL1, 12),
    ("agarwal", None, REAL2, 4),
    ("agarwal", None, BARGMANN, 8),
]

# (kind, representation, chart): every extraction the engine supports.
_EXTRACTIONS = [
    ("normal", "position", REAL1),
    ("moyal", "position", REAL1),
    ("antinormal", "momentum", REAL1),
    ("moyal", "momentum", REAL1),
    ("wick", "bargmann", BARGMANN),
    ("moyal", "bargmann", BARGMANN),
]
_EXTRACT_DEGREES = (2, 4, 6, 8)
_COMPOSE_DEGREES = (2, 4, 6)

WIDE_DIMS = (1, 2, 4, 8, 16)


def _series_tag(kind, chart, degree) -> str:
    """normal_d8 on the real line; n2_moyal_d3, bargmann_wick_d5 elsewhere."""
    prefix = "" if chart == REAL1 else ("n2_" if chart == REAL2 else "bargmann_")
    return f"{prefix}{kind or 'agarwal'}_d{degree}"


def _star_series(rng):
    ops = []
    for op, kind, chart, d in _STAR_SERIES:
        entry = {"op": op, "chart": list(chart), "tag": _series_tag(kind, chart, d),
                 "f": dense_observable(rng, chart, d)}
        if op == "star":
            entry["kind"] = kind
            entry["g"] = dense_observable(rng, chart, d)
        ops.append(entry)
    return ops


def _operator_calculus(rng):
    ops = []
    index: dict[tuple, int] = {}
    for d in _EXTRACT_DEGREES:
        for kind, rep, chart in _EXTRACTIONS:
            index[(kind, rep, d)] = len(ops)
            ops.append({"op": "extract", "kind": kind, "rep": rep, "chart": list(chart),
                        "tag": f"d{d}", "f": dense_observable(rng, chart, d)})
    pairs = [(("normal", "position"), ("moyal", "position")),
             (("antinormal", "momentum"), ("moyal", "momentum")),
             (("wick", "bargmann"), ("moyal", "bargmann"))]
    for d in _COMPOSE_DEGREES:
        for (k1, r1), (k2, r2) in pairs:
            ops.append({"op": "compose", "a": index[(k1, r1, d)], "b": index[(k2, r2, d)],
                        "tag": f"d{d}"})
    ops.append({"op": "compose", "a": index[("normal", "position", 8)],
                "b": index[("moyal", "position", 8)], "tag": "d8"})
    for (kind, rep, d), i in list(index.items()):
        if rep != "bargmann":
            ops.append({"op": "adjoint", "a": i, "tag": f"d{d}"})
    return ops


def _wide_chart(rng):
    ops = []
    for n in WIDE_DIMS:
        chart = ["real", n]
        tag = f"n{n}"
        ops.append({"op": "star", "kind": "moyal", "chart": chart, "tag": tag,
                    "f": sparse_observable(rng, chart), "g": sparse_observable(rng, chart)})
        ops.append({"op": "bullet", "kind": "normal", "rep": "position", "chart": chart,
                    "tag": tag, "f": sparse_observable(rng, chart)})
        ops.append({"op": "quantize", "kind": "antinormal", "rep": "momentum", "chart": chart,
                    "tag": tag, "f": sparse_observable(rng, chart)})
        ops.append({"op": "quantize", "kind": "moyal", "rep": "position", "chart": chart,
                    "tag": tag, "f": sparse_observable(rng, chart)})
        ops.append({"op": "bracket", "chart": chart, "tag": tag,
                    "f": sparse_observable(rng, chart)})
        ops.append({"op": "prequantize", "chart": chart, "tag": tag,
                    "f": sparse_observable(rng, chart)})
    return ops


CHECK_SUITES = ("roundtrip", "adjoint", "nq", "anq", "inversep", "agarwal")


def _cli(argv, expect, lib=None):
    return {"op": "cli", "argv": argv, "expect": expect, "lib": lib, "tag": argv[0]}


def _dq_cli(rng):
    """One dq process per op: all seven subcommands, text and JSON, dims 1-4,
    the cheap check suites and invalid commands with exit codes 2 and 3."""

    def obs(chart, degrees=(2, 1), variables=None):
        return observable_text(sparse_observable(rng, chart, degrees, variables))

    ops = []

    def lib_cmd(command, kind, chart, exprs, fmt, extra=(), psi=None):
        argv = [command, "--dim", str(chart[1])]
        if chart[0] == "bargmann":
            argv = [command, "--chart", "bargmann"]
        if kind:
            argv += ["--product", kind]
        argv += ["--format", fmt, *extra, *exprs]
        if psi is not None:
            argv += ["--psi", psi]
        lib = {"command": command, "kind": kind or "normal", "chart": list(chart),
               "exprs": exprs, "psi": psi, "format": fmt}
        ops.append(_cli(argv, 0, lib))

    r1, r2, r3, r4 = ("real", 1), ("real", 2), ("real", 3), ("real", 4)
    lib_cmd("star", "moyal", r1, [obs(r1, (3, 2)), obs(r1, (3, 1))], "text")
    lib_cmd("star", "normal", r2, [obs(r2), obs(r2)], "json")
    lib_cmd("star", "wick", BARGMANN, [obs(BARGMANN, (3, 1)), obs(BARGMANN)], "json")
    lib_cmd("bullet", "normal", r1, [obs(r1), f"({obs(r1, (1,))})*psi(1)*e(1)"], "text")
    lib_cmd("quantize", "antinormal", r2, [obs(r2)], "json")
    lib_cmd("quantize", "wick", BARGMANN, [obs(BARGMANN, (3, 2))], "text")
    lib_cmd("quantize", "normal", r4, [obs(r4)], "text", psi=obs(r4, (2, 1), ["q1", "q2", "q3", "q4"]))
    lib_cmd("prequantize", None, r3, [obs(r3)], "text")
    lib_cmd("prequantize", None, r2, [obs(r2)], "json", psi=obs(r2, (1,)))
    lib_cmd("bracket", None, r1, [obs(r1, (3, 2)), obs(r1, (2, 2))], "text")
    lib_cmd("bracket", None, r4, [obs(r4), "psi(" + ",".join(["0"] * 8) + ")*e(1)"], "json")
    lib_cmd("extract", "moyal", r1, [obs(r1, (4, 3, 2))], "text")
    lib_cmd("extract", "normal", r3, [obs(r3)], "json")
    lib_cmd("extract", "wick", BARGMANN, [obs(BARGMANN, (3, 2))], "json")
    lib_cmd("star", "antinormal", r3, [obs(r3), obs(r3)], "json")
    lib_cmd("star", "normal", r4, [obs(r4), obs(r4)], "text")
    lib_cmd("bullet", "moyal", r2, [obs(r2), f"({obs(r2, (1,))})*psi(0,1)*e(1)"], "json")
    lib_cmd("quantize", "moyal", r1, [obs(r1, (3, 2))], "json")
    lib_cmd("prequantize", None, r4, [obs(r4)], "text")
    lib_cmd("bracket", None, r2, [obs(r2, (2, 2)), obs(r2, (2, 1))], "text")
    lib_cmd("extract", "antinormal", r2, [obs(r2, (3, 1))], "text")
    lib_cmd("extract", "moyal", BARGMANN, [obs(BARGMANN, (3, 2))], "text")
    # One fixed suite seed: the cost of a suite varies by nearly 2x from one
    # seed to another, so drawn seeds would make passes differ in work.
    for index, suite in enumerate(CHECK_SUITES):
        fmt = "json" if index == 0 else "text"
        ops.append(_cli(["check", "--suite", suite, "--seed", "1", "--format", fmt], 0,
                        {"command": "check", "format": fmt}))
    x = obs(r1, (1,))
    ops.append(_cli(["star", "--dim", "1", f"{x} +* q1", "q1"], 2))
    ops.append(_cli(["star", "--dim", "1", "p3", x], 2))
    ops.append(_cli(["star", "--product", "wick", "--dim", "1", x, "q1"], 3))
    ops.append(_cli(["extract", "--chart", "bargmann", "--rep", "position", obs(BARGMANN, (1,))], 3))
    return ops


_GENERATORS = {
    "star_series": _star_series,
    "operator_calculus": _operator_calculus,
    "wide_chart": _wide_chart,
    "dq_cli": _dq_cli,
}


def make_pass(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The ops of one pass; the same (workload, seed, pass) gives the same ops."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return _GENERATORS[workload](rng)


DIGEST_PASSES = 4

# Untraced passes every run completes, however short ``--seconds`` is, so
# that each op's best time is taken over at least this many inputs.
MIN_PASSES = 3


def inputs_digest(workload: str, seed: int, passes: int = DIGEST_PASSES) -> str:
    """sha256 of the canonical JSON of the first ``passes`` passes."""
    h = hashlib.sha256()
    for p in range(passes):
        h.update(json.dumps(make_pass(workload, seed, p), sort_keys=True,
                            separators=(",", ":")).encode())
    return h.hexdigest()
