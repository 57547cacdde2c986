"""Benchmark of the starbundle engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a starbundle checkout; it imports the engine
from ``src/``.  It prints the environment, a digest of the generated
inputs and every metric by name with its unit, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Times
are scaled to reference speed by the probes of ``speed.py``.  With
``--trace 0`` the metrics are the end-to-end ones, measured without
tracing; with ``--trace 1`` they are the per-layer ones, and the traced
and untraced ``wall_s`` are printed side by side.  Every output is
checked after the timed region; see README.md for the workloads, the
metrics and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from importlib import metadata
from statistics import median

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import dqcli  # noqa: E402
import speed  # noqa: E402
import traces  # noqa: E402
from workloads import DIGEST_PASSES, MIN_PASSES, WORKLOADS, inputs_digest, make_pass  # noqa: E402

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 11
# Hard limit on one worker process; a run must end within 180 s in all.
WORKER_LIMIT_S = 140.0
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def pass_times(records, pass_ids) -> dict[int, list]:
    """{pass: [(wall ms, scaled ms) of each op]} over the passes ``pass_ids``."""
    out: dict[int, list] = {p: [] for p in pass_ids}
    for rec in records:
        if rec["pass"] in out:
            out[rec["pass"]].append((rec["ms"], rec["ms"] * rec["scale"]))
    return out


def summarize(times: dict[int, list], scaled: bool = True) -> tuple[float, list[float]]:
    """(median over passes of a pass's summed op time in s, every op's time
    in ms) from ``pass_times``, in scaled or in wall-clock times."""
    which = 1 if scaled else 0
    wall_s = median(sum(t[which] for t in ops) for ops in times.values()) / 1000.0
    return wall_s, [t[which] for ops in times.values() for t in ops]


def tail_percentile(ops_per_pass: int) -> int:
    """The workload's tail percentile: the highest whole percentile that
    leaves at least ten samples beyond it among the ``MIN_PASSES`` passes
    every run makes.  It depends only on the op schedule, not on how many
    passes fit into a run, so a faster engine reports the same percentile."""
    n = MIN_PASSES * ops_per_pass
    for pct in range(99, 0, -1):
        if n - math.ceil(pct * n / 100) >= 10:
            return pct
    raise BenchError(f"{n} samples are too few for a tail with ten beyond it")


def nearest_rank(samples, pct):
    """(value, samples beyond it) of the nearest-rank ``pct`` percentile."""
    xs = sorted(samples)
    rank = max(1, math.ceil(pct * len(xs) / 100))
    return xs[rank - 1], len(xs) - rank


def environment(root, seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            commit = open(ref_path).read().strip() if os.path.isfile(ref_path) else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "starbundle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "not installed"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "sympy": sympy_version}


def measure_setup(env):
    """Time from spawning a fresh interpreter until it is ready for its first
    op (engine imported, warm-up done): (median scaled s, median wall s,
    median scaled import ms)."""
    ready, imports = [], []
    probe = speed.spawn_probe_ms()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "ready"],
                              capture_output=True, text=True, env=env, timeout=60)
        probe_after = speed.spawn_probe_ms()
        factor = speed.scale(speed.SPAWN_REFERENCE_MS, probe, probe_after)
        probe = probe_after
        if proc.returncode != 0:
            raise BenchError("the engine failed to start:\n" + proc.stderr[-2000:])
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        ready.append((info["ready_at"] - start, factor))
        imports.append(info["import_ms"] * factor)
    return (median(s * factor for s, factor in ready),
            median(s for s, _factor in ready), median(imports))


def run_library(workload, seed, seconds, trace, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run", workload, str(seed),
           repr(seconds), "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    try:
        out, err = proc.communicate(timeout=WORKER_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"the worker did not finish within {WORKER_LIMIT_S:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with {proc.returncode}:\n{err[-2000:]}")
    lines = out.splitlines()
    summary = json.loads(lines[-1])["summary"]
    records = [json.loads(line) for line in lines[:-1]]
    return records, summary


def verify_library(workload, seed, records):
    import oracle  # sympy loads only once the timed region is over

    by_pass: dict[int, list] = {}
    for rec in records:
        by_pass.setdefault(rec["pass"], []).append(rec)
    for p, recs in by_pass.items():
        for rec, reason in zip(recs, oracle.verify_pass(make_pass(workload, seed, p), recs)):
            rec["reason"] = reason


def pass0_counts(workload, seed, records, terms_in, output_sizes):
    """Counts over pass 0, which depend only on the exact results.

    ``terms_in(op)`` counts input terms; ``output_sizes(op, rec)`` gives
    (terms out, coefficient bits, bytes emitted) of a correct output."""
    counts = dict.fromkeys(traces.COUNTS, 0)
    for op, rec in zip(make_pass(workload, seed, 0), (r for r in records if r["pass"] == 0)):
        counts["ops"] += 1
        counts["terms_in"] += terms_in(op)
        if rec["reason"] is not None:
            counts["ops_failed"] += 1
            continue
        terms, bits, size = output_sizes(op, rec)
        counts["terms_out"] += terms
        counts["coeff_bits_out"] += bits
        counts["emit.bytes"] += size
    return counts


def _library_output_sizes(op, rec):
    doc = json.loads(rec["json"])
    return len(doc["terms"]), traces.coeff_bits(doc), len(rec["json"].encode())


def run_dq(seed, seconds, trace, env):
    records, spans, passes = [], [], []
    samples = {"counts": {}, "total": 0}
    start = time.perf_counter()
    p = dqcli.run_passes(seed, 0, MIN_PASSES, start + (seconds / 2 if trace else seconds),
                         env, False, records, spans, samples, passes)
    summary = {"passes": passes}
    if trace:
        dqcli.run_passes(seed, p, 1, start + seconds, env, True, records, spans, samples,
                         passes)
        summary["spans"] = spans
        summary["samples"] = samples
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return records, summary


def verify_dq(seed, records):
    cache: dict[int, list] = {}
    for rec in records:
        ops = cache.setdefault(rec["pass"], make_pass("dq_cli", seed, rec["pass"]))
        rec["reason"] = dqcli.check_record(ops[rec["i"]], rec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "starbundle", "__init__.py")):
        print("perfbench: src/starbundle not found; run from the root of a starbundle checkout",
              file=sys.stderr)
        return 2
    try:
        return run(args, root, src)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def run(args, root, src) -> int:
    workload, seed, seconds, trace = args.workload, args.seed, args.seconds, bool(args.trace)
    speed.pin_to_one_cpu()
    sys.path.insert(0, src)  # the checks of dq_cli call the library in this process
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env_record = environment(root, seed)
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"inputs sha256 {inputs_digest(workload, seed)} (passes 0-{DIGEST_PASSES - 1})")
    print("env " + json.dumps(env_record, sort_keys=True))

    if workload == "dq_cli":
        records, summary = run_dq(seed, seconds, trace, env)
    else:
        records, summary = run_library(workload, seed, seconds, trace, env)
    # after the workload, so the dq processes are the only children behind peak_rss_mb
    setup_s, raw_setup_s, import_ms = measure_setup(env)
    if workload == "dq_cli":
        verify_dq(seed, records)
        counts = pass0_counts(workload, seed, records, dqcli.input_terms, dqcli.output_counts)
    else:
        verify_library(workload, seed, records)
        counts = pass0_counts(workload, seed, records,
                              lambda op: len(op.get("f", [])) + len(op.get("g", [])),
                              _library_output_sizes)

    failed = [r for r in records if r["reason"] is not None]
    for rec in failed[:5]:
        print(f"FAILED pass {rec['pass']} op {rec['i']}: {rec['reason']}")
    untraced = pass_times(records, {p["pass"] for p in summary["passes"] if not p["traced"]})
    wall_s, samples = summarize(untraced)
    fail_ratio = len(failed) / len(records)

    if not trace:
        pct = tail_percentile(len(make_pass(workload, seed, 0)))
        tail_ms, beyond = nearest_rank(samples, pct)
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "op_p50_ms": median(samples),
                   "op_tail_ms": tail_ms, "peak_rss_mb": summary["peak_rss_mb"]}
        raw_wall_s, raw_samples = summarize(untraced, scaled=False)
        raw = {"setup_s": raw_setup_s, "wall_s": raw_wall_s, "op_p50_ms": median(raw_samples),
               "op_tail_ms": nearest_rank(raw_samples, pct)[0]}
        notes = {"setup_s": f"median of {SETUP_PROBES} fresh interpreters",
                 "wall_s": f"median of {len(untraced)} passes of {len(samples) // len(untraced)} ops",
                 "op_p50_ms": f"{len(samples)} ops",
                 "op_tail_ms": f"p{pct}, {len(samples)} ops, {beyond} beyond it",
                 "peak_rss_mb": "largest dq process" if workload == "dq_cli" else "worker process"}
        print("times scaled to reference speed (see speed.py); wall-clock values in brackets")
        units = dict(END_TO_END)
        for name, value in metrics.items():
            wall = f"[{raw[name]:.4f}]" if name in raw else ""
            print(f"{name:<12} {value:12.4f} {units[name]:<3} {wall:<12} ({notes[name]})")
        print(f"{'fail_ratio':<12} {fail_ratio:12.4f} -   ({len(failed)} of {len(records)} ops failed)")
        result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        result = per_layer(workload, seed, records, summary, counts, import_ms, wall_s)
        traced_wall = result["trace.traced_wall_s"]["value"]
        print(f"tracing overhead: wall_s untraced {wall_s:.4f} s, traced {traced_wall:.4f} s "
              f"({(traced_wall / wall_s - 1) * 100:+.1f}%)")
        print(f"{'fail_ratio':<12} {fail_ratio:12.4f} -   ({len(failed)} of {len(records)} ops failed)")
        for name, entry in result.items():
            print(f"{name:<40} {entry['value']:14.4f} {entry['unit']}")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "env": env_record,
                       "span_fields": ["name", "start", "end", "parent", "pass", "op"],
                       "spans": summary["spans"]}, fh)
        print(f"spans written to {os.path.relpath(path, root)}")
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": result}))
    return 0


def per_layer(workload, seed, records, summary, counts, import_ms, untraced_wall_s):
    traced = {p["pass"] for p in summary["passes"] if p["traced"]}
    tags, scale = {}, {}
    for p in traced:
        for i, op in enumerate(make_pass(workload, seed, p)):
            tags[(p, i)] = op.get("tag")
    for rec in records:
        if rec["pass"] in traced:
            scale[(rec["pass"], rec["i"])] = rec["scale"]
    values = traces.layer_metrics(summary["spans"], tags, scale)
    values["cli.import_ms"] = import_ms
    traced_wall, _samples = summarize(pass_times(records, traced))
    values["trace.untraced_wall_s"] = untraced_wall_s
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / untraced_wall_s
    values.update(counts)
    shares = traces.shares(summary["samples"]["counts"], summary["samples"]["total"])
    for module in traces.MODULES:
        values[f"{module}.self_share"] = shares[module]
    return {name: {"value": values[name], "unit": unit} for name, unit in traces.per_layer_spec()}


if __name__ == "__main__":
    sys.exit(main())
