"""The ``dq_cli`` workload: one fresh dq process per op, one at a time.

Each op is a whole ``python -m starbundle.cli ...`` process, timed from
spawn to exit, so startup and import are part of every latency; a spawn
probe (``speed.py``) runs before and after each one.  The
traced run starts ``cli_probe.py`` instead, which adds spans and
reports them on standard error.  Outputs are checked afterwards against
the library called in this process: exit codes must match, text must equal
the library's rendering and, where the input grammar can read it, re-parse
to the library result, and JSON must load and equal the library's bytes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from cli_probe import SPANS_MARKER
from speed import SPAWN_REFERENCE_MS, scale, spawn_probe_ms
from traces import OP_LIMIT_S, coeff_bits
from workloads import make_pass

HERE = os.path.dirname(os.path.abspath(__file__))


def run_command(argv, env, traced: bool) -> dict:
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "cli_probe.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "starbundle.cli", *argv]
    expired = []

    def expire(signum, frame):
        expired.append(True)
        proc.kill()

    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    # The limit is an alarm rather than a timeout to communicate(), which
    # would poll for the exit in sleeps of growing length and add up to
    # several milliseconds to every latency.
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        out, err = proc.communicate()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    end = time.perf_counter()
    error = f"exceeded the {OP_LIMIT_S:g} s op limit" if expired else None
    report = {"spans": [], "counts": {}, "total": 0}
    if traced and SPANS_MARKER in err:
        err, _, tail = err.rpartition(SPANS_MARKER)
        report = json.loads(tail)
    return {"start": start, "end": end, "code": proc.returncode, "stdout": out,
            "stderr": err, "error": error, "report": report}


def run_passes(seed, first_pass, min_passes, until, env, traced, records, spans, samples,
               passes):
    """Run whole passes, at least ``min_passes`` and then until the clock passes
    ``until``; returns the next pass index.

    Traced commands add their spans to ``spans``, under one ``cli.process``
    span per command, and their module samples to ``samples``."""
    p = first_pass
    while p < first_pass + min_passes or time.perf_counter() < until:
        probe = spawn_probe_ms()
        for i, op in enumerate(make_pass("dq_cli", seed, p)):
            rec = run_command(op["argv"], env, traced)
            probe_after = spawn_probe_ms()
            if traced:
                root = len(spans)
                spans.append(["cli.process", rec["start"], rec["end"], None, p, i])
                for name, s, e, parent, *_ in rec["report"]["spans"]:
                    spans.append([name, s, e, root if parent is None else root + 1 + parent, p, i])
                for module, count in rec["report"]["counts"].items():
                    samples["counts"][module] = samples["counts"].get(module, 0) + count
                samples["total"] += rec["report"]["total"]
            records.append({"pass": p, "i": i, "ms": (rec["end"] - rec["start"]) * 1000.0,
                            "scale": scale(SPAWN_REFERENCE_MS, probe, probe_after),
                            "code": rec["code"],
                            "stdout": rec["stdout"], "stderr": rec["stderr"],
                            "error": rec["error"]})
            probe = probe_after
        passes.append({"pass": p, "traced": traced})
        p += 1
    return p


# -- checking --------------------------------------------------------------------


def _library_result(lib):
    """(value dq should print, jet family of the printed value, lowered inputs),
    computed by calling the library directly."""
    from starbundle import (
        Chart, Representation, bullet_product, extract_operator, lower_expression,
        prequantize, prequantum_wave, quantize, souriau_bracket, star_product,
    )

    kind, chart_spec = lib["kind"], lib["chart"]
    chart = Chart.bargmann() if chart_spec[0] == "bargmann" else Chart.real(chart_spec[1])
    if chart.kind == "bargmann":
        rep = Representation.bargmann(chart)
    elif kind == "antinormal":
        rep = Representation.momentum(chart)
    else:
        rep = Representation.position(chart)
    command, exprs, psi_text = lib["command"], lib["exprs"], lib["psi"]
    jets = {"bullet": rep.config_vars, "quantize": rep.config_vars,
            "prequantize": chart.variables, "bracket": chart.variables}.get(command)
    args = [lower_expression(exprs[0], chart, jet_vars=jets if command == "bracket" else None)]
    args += [lower_expression(e, chart, jet_vars=jets) for e in exprs[1:]]
    inputs = list(args)
    if psi_text is not None:
        inputs.append(lower_expression(psi_text, chart, jet_vars=jets))
    if command == "star":
        return star_product(kind, *args), None, inputs
    if command == "bullet":
        return bullet_product(kind, *args), jets, inputs
    if command == "quantize":
        psi = rep.generic_wave() if psi_text is None else rep.wave(inputs[-1])
        return quantize(kind, args[0], psi, rep.polarization), jets, inputs
    if command == "prequantize":
        psi = prequantum_wave(chart) if psi_text is None else prequantum_wave(chart, inputs[-1])
        return prequantize(chart, args[0], psi), jets, inputs
    if command == "bracket":
        return souriau_bracket(chart, *args), jets, inputs
    if command == "extract":
        return extract_operator(kind, args[0], rep), None, inputs
    raise ValueError(f"unknown command {command!r}")


def check_record(op, rec) -> str | None:
    """None if the process behaved as documented, else the reason."""
    from starbundle import lower_expression
    from starbundle.emit import emit_json
    from starbundle.render import format_function, format_operator

    if rec["error"]:
        return rec["error"]
    if rec["code"] != op["expect"]:
        return f"exit code {rec['code']}, expected {op['expect']}"
    if "Traceback" in rec["stderr"]:
        return "traceback on standard error"
    out = rec["stdout"].rstrip("\n")
    if op["expect"] != 0:
        return None if rec["stderr"].strip() and not out else "error exit without a message"
    lib = op["lib"]
    if lib["command"] == "check":
        if lib["format"] == "json":
            return None if json.loads(out)["passed"] is True else "check suite failed"
        last = out.splitlines()[-1]
        return None if last.startswith("all ") and last.endswith(" properties passed") \
            else "check suite failed"
    result, jet_vars, _ = _library_result(lib)
    if lib["format"] == "json":
        json.loads(out)
        return None if out == emit_json(result) else "JSON differs from the library result"
    is_operator = lib["command"] == "extract"
    printed = format_operator(result) if is_operator else format_function(result)
    if out != printed:
        return "text differs from the library result"
    if not is_operator and "exp(" not in out:
        if lower_expression(out, result.chart, jet_vars=jet_vars) != result:
            return "text does not re-parse to the library result"
    return None


def output_counts(op, rec) -> tuple[int, int, int]:
    """(terms, coefficient bits, bytes) of one successful output."""
    lib = op.get("lib")
    if rec["code"] != 0 or lib is None or lib["command"] == "check":
        return 0, 0, len(rec["stdout"].encode())
    from starbundle.emit import emit_json

    doc = json.loads(emit_json(_library_result(lib)[0]))
    return len(doc["terms"]), coeff_bits(doc), len(rec["stdout"].encode())


def input_terms(op) -> int:
    lib = op.get("lib")
    if lib is None or lib["command"] == "check":
        return 0
    return sum(len(f.terms) for f in _library_result(lib)[2])
