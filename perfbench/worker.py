"""Child process that runs the library workloads against the engine.

    python3 perfbench/worker.py ready
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE

``ready`` imports the engine, runs the warm-up and prints the moment it
became ready; the parent times fresh interpreters this way for
``setup_s``.  ``run`` does the same, then runs passes of generated ops
(at least ``MIN_PASSES``, then until SECONDS have elapsed) and prints one
JSON line per op result, with the scale factor of the speed probes run
just before and after the op, followed by a summary line.  Only the ops are
timed: lowering the input text, the engine call, formatting and JSON
emission.  Checking happens in the parent, after this process has exited.

With TRACE=1 the first half of the time runs untraced, the second half
records spans around every call into an engine module, with composite
calls split into their public parts, and samples the running module
for the per-module self-time shares.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

_T_IMPORT = time.perf_counter()
import starbundle  # noqa: E402
import starbundle.cli  # noqa: E402,F401
import starbundle.operators  # noqa: E402
from starbundle import (  # noqa: E402
    Chart,
    Representation,
    agarwal_transform,
    bullet_product,
    driver_tensor,
    extract_operator,
    lower_expression,
    prequantize,
    prequantum_wave,
    quantize,
    souriau_bracket,
    star_product,
)
from starbundle.emit import emit_json  # noqa: E402
from starbundle.geometry import polarization_witness  # noqa: E402
from starbundle.products import exponential_product, star_coefficient  # noqa: E402
from starbundle.render import format_function, format_operator  # noqa: E402
from starbundle.scalars import HBAR_OVER_I  # noqa: E402

IMPORT_MS = (time.perf_counter() - _T_IMPORT) * 1000.0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from speed import REFERENCE_MS, probe_ms, scale  # noqa: E402
from traces import OP_LIMIT_S, ModuleSampler, NullTracer, Tracer  # noqa: E402
from workloads import MIN_PASSES, make_pass, observable_text  # noqa: E402


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so engine handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


# -- ops -------------------------------------------------------------------------


def make_chart(spec) -> Chart:
    kind, n = spec
    return Chart.bargmann() if kind == "bargmann" else Chart.real(n)


def _traced_bullet(tr, kind, f, g):
    with tr.span("products.driver_tensor"):
        driver = driver_tensor(kind, f.chart)
    with tr.span("products.driver_lift"):
        lifted = driver.lift()
    with tr.span("products.bullet_series"):
        return exponential_product(lifted, f, g, HBAR_OVER_I)


def _traced_quantize(tr, kind, f, psi, polarization):
    chart = f.chart
    with tr.span("geometry.polarization_witness"):
        witness = polarization_witness(chart, polarization, psi)
    if witness is not None:
        raise ValueError(f"input wave not polarized along {witness[0]}")
    out = _traced_bullet(tr, kind, f, psi)
    with tr.span("geometry.polarization_witness"):
        witness = polarization_witness(chart, polarization, out)
    if witness is not None:
        raise ValueError(f"output lost polarization along {witness[0]}")
    return out


def _compute(tr, op, chart, args, prior):
    """The engine call of one op; with tracing on, composites run split."""
    name = op["op"]
    if name == "star":
        f, g = args
        if not tr.on:
            return star_product(op["kind"], f, g)
        with tr.span("products.driver_tensor"):
            driver = driver_tensor(op["kind"], chart)
        with tr.span("products.star_series"):
            return exponential_product(driver, f, g, star_coefficient(op["kind"]))
    if name == "agarwal":
        with tr.span("products.agarwal_transform"):
            return agarwal_transform(chart, args[0])
    if name in ("bullet", "quantize"):
        rep = Representation.named(op["rep"], chart)
        psi = rep.generic_wave()
        if name == "bullet":
            if not tr.on:
                return bullet_product(op["kind"], args[0], psi)
            return _traced_bullet(tr, op["kind"], args[0], psi)
        if not tr.on:
            return quantize(op["kind"], args[0], psi, rep.polarization)
        return _traced_quantize(tr, op["kind"], args[0], psi, rep.polarization)
    if name == "extract":
        rep = Representation.named(op["rep"], chart)
        with tr.span("operators.extract_operator"):
            return extract_operator(op["kind"], args[0], rep)
    if name == "compose":
        with tr.span("operators.compose"):
            return prior[op["a"]].compose(prior[op["b"]])
    if name == "adjoint":
        with tr.span("operators.adjoint"):
            return prior[op["a"]].adjoint()
    if name == "bracket":
        with tr.span("geometry.souriau_bracket"):
            return souriau_bracket(chart, args[0], prequantum_wave(chart))
    if name == "prequantize":
        psi = prequantum_wave(chart)
        if not tr.on:
            return prequantize(chart, args[0], psi)
        with tr.span("products.prequantize"):
            with tr.span("geometry.souriau_bracket"):
                bracket = souriau_bracket(chart, args[0], psi)
            return args[0] * psi + bracket * HBAR_OVER_I
    raise ValueError(f"unknown op {name!r}")


def _undivided(op, chart, args, prior):
    patched = starbundle.operators.quantize
    starbundle.operators.quantize = quantize
    try:
        return _compute(NullTracer(), op, chart, args, prior)
    finally:
        starbundle.operators.quantize = patched


# Composite calls that the traced path splits into their public parts.
SPLIT_OPS = ("star", "bullet", "quantize", "extract", "prequantize")


def run_op(tr, op, chart, texts, prior):
    """Lower, compute, format and emit one op; returns (result, text, json)."""
    with tr.span("op." + op["op"]):
        args = []
        for text in texts:
            with tr.span("parser.lower_expression"):
                args.append(lower_expression(text, chart))
        result = _compute(tr, op, chart, args, prior)
        is_function = op["op"] not in ("extract", "compose", "adjoint")
        with tr.span("render.format_function" if is_function else "render.format_operator"):
            text = format_function(result) if is_function else format_operator(result)
        with tr.span("emit.emit_json"):
            doc = emit_json(result)
    return result, text, doc


def prepare(ops):
    """Untimed: charts and input texts for each op."""
    out = []
    for op in ops:
        chart = make_chart(op["chart"]) if "chart" in op else None
        texts = [observable_text(op[key]) for key in ("f", "g") if key in op]
        out.append((chart, texts))
    return out


def run_pass(tr, ops, pass_index, emit, check_split=frozenset()):
    """Run every op of one pass, emitting one record per op.

    ``check_split`` names op kinds whose split (traced) result is compared
    with the undivided call, untimed, on the smallest op of each kind.
    """
    prepared = prepare(ops)
    smallest: dict[str, tuple[int, int]] = {}
    for i, (op, (_chart, texts)) in enumerate(zip(ops, prepared)):
        size = sum(len(op[key]) for key in ("f", "g") if key in op)
        if op["op"] in check_split and size < smallest.get(op["op"], (size + 1, 0))[0]:
            smallest[op["op"]] = (size, i)
    check_at = {i for _size, i in smallest.values()}
    prior: dict[int, object] = {}
    probe = probe_ms()
    for i, (op, (chart, texts)) in enumerate(zip(ops, prepared)):
        tr.op_index = i
        error = None
        text = doc = None
        missing = [k for k in ("a", "b") if k in op and op[k] not in prior]
        if missing:
            error = "input op failed"
            elapsed = 0.0
        else:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            t0 = time.perf_counter()
            try:
                result, text, doc = run_op(tr, op, chart, texts, prior)
            except OpTimeout:
                error = f"exceeded the {OP_LIMIT_S:g} s op limit"
            except Exception as exc:  # an op failure is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
        probe_after = probe_ms()
        if error is None:
            prior[i] = result
            if i in check_at:
                args = [lower_expression(t, chart) for t in texts]
                if _undivided(op, chart, args, prior) != result:
                    error = "split call differs from the undivided call"
        emit({"pass": pass_index, "i": i, "ms": elapsed * 1000.0,
              "scale": scale(REFERENCE_MS, probe, probe_after), "text": text, "json": doc,
              "error": error})
        probe = probe_after


_WARMUP = [
    {"op": "star", "kind": "moyal", "chart": ["real", 1], "f": [["1", "0", 0, [["p1", 1]]]],
     "g": [["1", "0", 0, [["q1", 1]]]]},
    {"op": "agarwal", "chart": ["bargmann", 1], "f": [["1", "1", 0, [["z", 1], ["zb", 1]]]]},
    {"op": "extract", "kind": "moyal", "rep": "position", "chart": ["real", 1],
     "f": [["1", "0", 0, [["p1", 1], ["q1", 1]]]]},
    {"op": "compose", "a": 2, "b": 2},
    {"op": "adjoint", "a": 2},
    {"op": "quantize", "kind": "antinormal", "rep": "momentum", "chart": ["real", 1],
     "f": [["1", "0", 0, [["q1", 1]]]]},
    {"op": "bullet", "kind": "wick", "rep": "bargmann", "chart": ["bargmann", 1],
     "f": [["1", "0", 0, [["zb", 1]]]]},
    {"op": "prequantize", "chart": ["real", 1], "f": [["1", "0", 1, [["p1", 1]]]]},
]


def warm_up():
    """Untimed: one tiny op of every kind, so lazy set-up is paid before
    timing.  An op that fails here is left to the timed passes to count."""
    prior: dict[int, object] = {}
    for i, (op, (chart, texts)) in enumerate(zip(_WARMUP, prepare(_WARMUP))):
        try:
            prior[i] = run_op(NullTracer(), op, chart, texts, prior)[0]
        except Exception:
            pass


def main(argv) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    warm_up()
    ready = {"ready_at": time.monotonic(), "import_ms": IMPORT_MS}
    if argv[0] == "ready":
        print(json.dumps(ready), flush=True)
        return 0
    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    out = sys.stdout

    def emit(record):
        # written as each op ends, outside its timed region, so the worker's
        # memory does not grow with the number of passes
        out.write(json.dumps(record, separators=(",", ":")) + "\n")

    passes = []
    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    p = 0
    while p < MIN_PASSES or time.perf_counter() < untraced_until:
        run_pass(NullTracer(), make_pass(workload, seed, p), p, emit)
        passes.append({"pass": p, "traced": False})
        p += 1
    summary = {"ready": ready}
    if trace:
        tracer = Tracer()
        starbundle.operators.quantize = lambda kind, f, psi, pol: _traced_quantize(tracer, kind, f, psi, pol)
        end = start + seconds
        sampler = ModuleSampler()
        sampler.start()
        first = True
        while first or time.perf_counter() < end:
            tracer.pass_index = p
            split = frozenset(SPLIT_OPS) if first else frozenset()
            run_pass(tracer, make_pass(workload, seed, p), p, emit, split)
            passes.append({"pass": p, "traced": True})
            p += 1
            first = False
        sampler.stop()
        starbundle.operators.quantize = quantize
        summary["samples"] = {"counts": sampler.counts, "total": sampler.total}
        summary["spans"] = tracer.spans
    summary["passes"] = passes
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.write(json.dumps({"summary": summary}, separators=(",", ":")) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
