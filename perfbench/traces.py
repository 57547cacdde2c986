"""Span recording, and the per-layer metrics derived from spans and from
module sampling.

``Tracer`` records spans in the library worker and in ``cli_probe.py``.
A span is ``[name, start, end, parent, pass, op]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC, so spans recorded in child
processes line up with the parent's).  A layer's self time is a span's
duration minus the durations of its direct children; spans nest
strictly because every workload runs sequentially.
"""

from __future__ import annotations

import functools
import os
import signal
import time
from fractions import Fraction
from statistics import median

from workloads import CHECK_SUITES, WIDE_DIMS

# An op running longer than this counts as failed, so a hang cannot stall a run.
OP_LIMIT_S = 30.0

MODULES = ("scalars", "algebra", "geometry", "products", "operators",
           "parser", "render", "emit", "checks", "cli")

# metric -> span names whose self time it sums, per pass, in milliseconds
LAYER_SPANS = {
    "products.driver_ms": ("products.driver_tensor", "products.driver_lift"),
    "products.star_series_ms": ("products.star_series",),
    "products.bullet_series_ms": ("products.bullet_series",),
    "geometry.polarization_ms": ("geometry.polarization_witness",),
    "products.agarwal_ms": ("products.agarwal_transform",),
    "geometry.bracket_ms": ("geometry.souriau_bracket",),
    "products.prequantize_ms": ("products.prequantize",),
    "operators.extract_ms": ("operators.extract_operator",),
    "operators.compose_ms": ("operators.compose",),
    "operators.adjoint_ms": ("operators.adjoint",),
    "parser.lower_ms": ("parser.lower_expression",),
    "render.format_ms": ("render.format_function", "render.format_operator"),
    "emit.json_ms": ("emit.emit_json", "emit.to_json"),
    "cli.main_ms": ("cli.main",),
    "cli.process_ms": ("cli.process",),
    **{f"checks.suite_ms.{suite}": (f"checks.{suite}",) for suite in CHECK_SUITES},
}

def _rows(*tags):
    return {tag: tag for tag in tags}


_DEGREES = _rows("d2", "d4", "d6", "d8")
_DIMS = _rows(*(f"n{n}" for n in WIDE_DIMS))

# Scaling rows: metric -> {row: op tag}; a row ``<metric>.<row>`` is the
# median per-op self time of the ops with that tag.  The degree curves of
# star_series follow the normal star product and the Agarwal transform on
# the real line, whose ops are tagged normal_d<N> and agarwal_d<N>.
SCALING_ROWS = {
    "products.star_series_ms": {f"d{d}": f"normal_d{d}" for d in (2, 4, 6, 8, 12)},
    "products.agarwal_ms": {f"d{d}": f"agarwal_d{d}" for d in (4, 8, 12)},
    "products.driver_ms": _DIMS,
    "products.bullet_series_ms": {**_DIMS, **_DEGREES},
    "geometry.bracket_ms": _DIMS,
    "operators.extract_ms": _DEGREES,
    "operators.compose_ms": _DEGREES,
}

COUNTS = ("ops", "ops_failed", "terms_in", "terms_out", "coeff_bits_out", "emit.bytes")


def coeff_bits(doc) -> int:
    """Total bit length of every numerator and denominator in a JSON document."""
    bits = 0
    for term in doc["terms"]:
        for part in (term["re"], term["im"]):
            value = Fraction(part)
            bits += value.numerator.bit_length() + value.denominator.bit_length()
    return bits


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in the order they are reported."""
    out = [(name, "ms") for name in LAYER_SPANS]
    out.append(("products.driver_calls", "count"))
    out += [(f"{m}.{row}", "ms") for m, rows in SCALING_ROWS.items() for row in rows]
    out.append(("cli.import_ms", "ms"))
    out += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
            ("trace.overhead_ratio", "ratio")]
    out += [(name, "bytes" if name == "emit.bytes" else "count") for name in COUNTS]
    out += [(f"{m}.self_share", "share") for m in MODULES]
    return out


class Tracer:
    """Spans kept in memory: [name, start, end, parent, pass, op]."""

    on = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_index = 0
        self.op_index = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.pass_index, t.op_index])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """A tracer that records nothing, for the untraced passes."""

    on = False
    _span = _NoSpan()

    def span(self, name):
        return self._span


def self_times(spans) -> list[float]:
    """Self time of every span, in seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, *_rest) in enumerate(spans)]


def layer_metrics(spans, tags, scale) -> dict[str, float]:
    """Span-derived metrics; ``tags`` maps (pass, op) to the op's tag and
    ``scale`` to the factor that brings its times to reference speed."""
    own = self_times(spans)
    span_metric = {s: m for m, names in LAYER_SPANS.items() for s in names}
    per_pass: dict[int, dict[str, float]] = {}
    per_op: dict[tuple, float] = {}
    driver_calls: dict[int, int] = {}
    for (name, _s, _e, _parent, p, op), t in zip(spans, own):
        t *= scale.get((p, op), 1.0)
        totals = per_pass.setdefault(p, {})
        if name == "products.driver_tensor":
            driver_calls[p] = driver_calls.get(p, 0) + 1
        metric = span_metric.get(name)
        if metric is None:
            continue
        totals[metric] = totals.get(metric, 0.0) + t
        key = (p, op, metric)
        per_op[key] = per_op.get(key, 0.0) + t
    out = {}
    passes = sorted(per_pass)
    for metric in LAYER_SPANS:
        values = [per_pass[p].get(metric, 0.0) for p in passes]
        out[metric] = median(values) * 1000.0 if values else 0.0
    calls = [driver_calls.get(p, 0) for p in passes]
    out["products.driver_calls"] = median(calls) if calls else 0
    for metric, rows in SCALING_ROWS.items():
        for row, tag in rows.items():
            values = [t for (p, op, m), t in per_op.items()
                      if m == metric and tags.get((p, op)) == tag]
            out[f"{metric}.{row}"] = median(values) * 1000.0 if values else 0.0
    return out


def module_of(filename: str) -> str | None:
    """The engine module a source file belongs to, if any.

    The stdlib ``fractions`` module counts towards ``scalars``: the scalar
    layer is built on it, and a scalar rewrite would remove that time.
    """
    base = os.path.basename(filename)
    if os.path.basename(os.path.dirname(filename)) == "starbundle" and base[:-3] in MODULES:
        return base[:-3]
    if base == "fractions.py":
        return "scalars"
    return None


class ModuleSampler:
    """Self time per engine module, sampled: every millisecond of process CPU
    time, SIGPROF records the module of the innermost running frame.

    A sampler rather than cProfile, whose cost on every call inflates the
    call-heavy scalar and algebra code and would quadruple the traced run.
    """

    INTERVAL_S = 0.001

    def __init__(self):
        self.counts = dict.fromkeys(MODULES, 0)
        self.total = 0

    def _sample(self, signum, frame):
        self.total += 1
        module = module_of(frame.f_code.co_filename) if frame is not None else None
        if module is not None:
            self.counts[module] += 1

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def shares(counts: dict, total: int) -> dict[str, float]:
    return {m: (counts.get(m, 0) / total if total else 0.0) for m in MODULES}
