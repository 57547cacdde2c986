"""Self-tests of the benchmark: deterministic inputs, and checks that catch
a corrupted engine output.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import dqcli  # noqa: E402
import oracle  # noqa: E402
import traces  # noqa: E402
import worker  # noqa: E402
from starbundle import Coefficient, DiffOperator, EquivariantFunction  # noqa: E402
from starbundle.emit import emit_json  # noqa: E402
from starbundle.render import format_function, format_operator  # noqa: E402
from workloads import (  # noqa: E402
    BARGMANN, REAL1, REAL2, WORKLOADS, dense_observable, inputs_digest, make_pass,
    sparse_observable,
)


def test_same_seed_same_inputs_and_different_seed_different_inputs():
    for workload in WORKLOADS:
        first = json.dumps(make_pass(workload, 7, 0), sort_keys=True).encode()
        again = json.dumps(make_pass(workload, 7, 0), sort_keys=True).encode()
        assert first == again
        assert inputs_digest(workload, 7) == inputs_digest(workload, 7)
        assert inputs_digest(workload, 7) != inputs_digest(workload, 8)
        assert make_pass(workload, 7, 0) != make_pass(workload, 7, 1)


def _small_ops():
    """One small op of every kind the library workloads run."""
    rng = random.Random(11)
    r2 = list(REAL2)
    return [
        {"op": "star", "kind": "normal", "chart": list(REAL1),
         "f": dense_observable(rng, REAL1, 2), "g": dense_observable(rng, REAL1, 2)},
        {"op": "star", "kind": "wick", "chart": list(BARGMANN),
         "f": dense_observable(rng, BARGMANN, 2), "g": dense_observable(rng, BARGMANN, 2)},
        {"op": "star", "kind": "moyal", "chart": list(REAL2),
         "f": dense_observable(rng, REAL2, 2), "g": dense_observable(rng, REAL2, 1)},
        {"op": "agarwal", "chart": list(BARGMANN), "f": dense_observable(rng, BARGMANN, 4)},
        {"op": "extract", "kind": "normal", "rep": "position", "chart": list(REAL1),
         "f": dense_observable(rng, REAL1, 3)},
        {"op": "extract", "kind": "moyal", "rep": "momentum", "chart": list(REAL1),
         "f": dense_observable(rng, REAL1, 3)},
        {"op": "extract", "kind": "moyal", "rep": "bargmann", "chart": list(BARGMANN),
         "f": dense_observable(rng, BARGMANN, 3)},
        {"op": "compose", "a": 4, "b": 4},
        {"op": "adjoint", "a": 5},
        {"op": "bullet", "kind": "normal", "rep": "position", "chart": r2,
         "f": sparse_observable(rng, r2)},
        {"op": "quantize", "kind": "antinormal", "rep": "momentum", "chart": r2,
         "f": sparse_observable(rng, r2)},
        {"op": "quantize", "kind": "moyal", "rep": "position", "chart": r2,
         "f": sparse_observable(rng, r2)},
        {"op": "bracket", "chart": r2, "f": sparse_observable(rng, r2)},
        {"op": "prequantize", "chart": r2, "f": sparse_observable(rng, r2)},
    ]


def _run(ops):
    """Records and engine results of running ``ops`` as one pass."""
    records, results = [], {}
    prepared = worker.prepare(ops)
    for i, (op, (chart, texts)) in enumerate(zip(ops, prepared)):
        result, text, doc = worker.run_op(worker.NullTracer(), op, chart, texts, results)
        results[i] = result
        records.append({"pass": 0, "i": i, "ms": 0.0, "text": text, "json": doc, "error": None})
    return records, results


def _plus_hbar(value):
    """The value with hbar added to the coefficient of one of its terms."""
    if isinstance(value, DiffOperator):
        alpha, poly = next(iter(value.terms.items()))
        bump = poly.chart.constant(Coefficient.hbar(1))
        return value + DiffOperator(value.rep, {alpha: bump})
    mono = next(iter(value.terms))
    bump = EquivariantFunction(value.chart, {mono: Coefficient.hbar(1)},
                               theta_weight=value.theta_weight, jet_vars=value.jet_vars,
                               weight_factor=value.weight_factor)
    return value + bump


def _printed(value):
    text = format_operator(value) if isinstance(value, DiffOperator) else format_function(value)
    return text, emit_json(value)


def test_clean_outputs_pass_the_oracle():
    ops = _small_ops()
    records, _ = _run(ops)
    assert oracle.verify_pass(ops, records) == [None] * len(ops)


@pytest.mark.parametrize("index", range(len(_small_ops())))
@pytest.mark.parametrize("corrupt", ["both", "text", "json"])
def test_a_coefficient_plus_hbar_is_a_failed_op(index, corrupt):
    ops = _small_ops()
    records, results = _run(ops)
    text, doc = _printed(_plus_hbar(results[index]))
    if corrupt in ("both", "text"):
        records[index]["text"] = text
    if corrupt in ("both", "json"):
        records[index]["json"] = doc
    reasons = oracle.verify_pass(ops, records)
    assert reasons[index] is not None
    assert [r for i, r in enumerate(reasons) if i != index] == [None] * (len(ops) - 1)


def test_the_small_ops_of_each_library_workload_pass_the_oracle():
    for workload in ("star_series", "wide_chart"):
        ops = [op for op in make_pass(workload, 3, 0) if len(op["f"]) + len(op.get("g", [])) < 40]
        records, _ = _run(ops)
        assert oracle.verify_pass(ops, records) == [None] * len(ops), workload
    ops = make_pass("operator_calculus", 3, 0)[:12]  # the extractions at d=2 and d=4
    records, _ = _run(ops)
    assert oracle.verify_pass(ops, records) == [None] * len(ops)


def _dq_record(op):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rec = dqcli.run_command(op["argv"], env, traced=False)
    return {"code": rec["code"], "stdout": rec["stdout"], "stderr": rec["stderr"],
            "error": rec["error"]}


def test_dq_checks_flag_wrong_text_json_and_exit_codes():
    ops = make_pass("dq_cli", 5, 0)
    text_op = next(op for op in ops if op["lib"] and op["lib"]["command"] == "star"
                   and op["lib"]["format"] == "text")
    json_op = next(op for op in ops if op["lib"] and op["lib"]["command"] == "extract"
                   and op["lib"]["format"] == "json")
    error_op = next(op for op in ops if op["expect"] == 3)
    for op in (text_op, json_op, error_op):
        assert dqcli.check_record(op, _dq_record(op)) is None
    rec = _dq_record(text_op)
    rec["stdout"] = rec["stdout"].rstrip("\n") + " + hbar\n"
    assert dqcli.check_record(text_op, rec) is not None
    rec = _dq_record(json_op)
    doc = json.loads(rec["stdout"])
    doc["terms"][0]["hbar"] += 1
    rec["stdout"] = json.dumps(doc, separators=(",", ":")) + "\n"
    assert dqcli.check_record(json_op, rec) is not None
    rec = _dq_record(error_op)
    rec["code"] = 2
    assert dqcli.check_record(error_op, rec) is not None


def test_a_dq_command_past_the_op_limit_is_killed_and_failed(monkeypatch):
    monkeypatch.setattr(dqcli, "OP_LIMIT_S", 0.01)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rec = dqcli.run_command(["check", "--suite", "nq", "--seed", "1"], env, traced=False)
    assert rec["error"] is not None and rec["code"] != 0


def test_self_time_subtracts_direct_children():
    spans = [["op", 0.0, 10.0, None, 0, 0], ["a", 1.0, 4.0, 0, 0, 0],
             ["b", 2.0, 3.0, 1, 0, 0], ["c", 5.0, 9.0, 0, 0, 0]]
    assert traces.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_benchmark_json_declares_exactly_the_printed_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == traces.per_layer_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_percentile_is_fixed_by_the_schedule():
    import run

    for workload in WORKLOADS:
        ops = len(make_pass(workload, 1, 0))
        pct = run.tail_percentile(ops)
        assert pct == run.tail_percentile(len(make_pass(workload, 2, 0)))
        # at least ten samples beyond it in the fewest passes a run makes
        _value, beyond = run.nearest_rank(range(run.MIN_PASSES * ops), pct)
        assert beyond >= 10, workload


def test_op_times_are_scaled_by_their_probes():
    import run
    import speed

    assert speed.scale(2.0, 3.0, 5.0) == 0.5
    records = [{"pass": 0, "i": 0, "ms": 10.0, "scale": 1.0},
               {"pass": 0, "i": 1, "ms": 30.0, "scale": 0.5},
               {"pass": 1, "i": 0, "ms": 20.0, "scale": 1.0},
               {"pass": 1, "i": 1, "ms": 20.0, "scale": 1.0}]
    times = run.pass_times(records, {0, 1})
    assert run.summarize(times, scaled=False) == (0.04, [10.0, 30.0, 20.0, 20.0])
    assert run.summarize(times) == (0.0325, [10.0, 15.0, 20.0, 20.0])
