import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from starbundle import Chart, EquivariantFunction, format_function, souriau_bracket
from starbundle.checks import CheckResult
from starbundle.cli import MAX_DEGREE, RunConfig, main
from starbundle.emit import emit_json
from starbundle.geometry import chart_cache
from starbundle.products import StarKind, default_polarization
from starbundle.scalars import HBAR_OVER_I

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "quantize_normal_qp.json": [
        "quantize", "--product", "normal", "--dim", "1",
        "q1*p1", "--psi", "generic", "--format", "json",
    ],
    "quantize_antinormal_q.json": [
        "quantize", "--product", "antinormal", "--rep", "momentum", "q1",
        "--format", "json",
    ],
    "quantize_wick_zzb.json": [
        "quantize", "--product", "wick", "--chart", "bargmann", "z*zb",
        "--format", "json",
    ],
    "bullet_normal_p.json": [
        "bullet", "--product", "normal", "p1", "psi(0)*e(1)", "--format", "json",
    ],
    "extract_normal_qp.json": [
        "extract", "--product", "normal", "--rep", "position", "q1*p1",
        "--format", "json",
    ],
    "extract_antinormal_q.json": [
        "extract", "--product", "antinormal", "--rep", "momentum", "q1",
        "--format", "json",
    ],
    "quantize_antinormal_n16.json": [
        "quantize", "--product", "antinormal", "--dim", "16",
        "(2-3*i)*q3*q7*p16 + (1/2)*hbar^-1*q12^2 + (3/4*i)*p5*q5 + 7", "--format", "json",
    ],
    "bullet_moyal_n16.json": [
        "bullet", "--product", "moyal", "--dim", "16",
        "(1-i)*p2*p9*q9 + (5/3)*hbar^-1*q4 + i*hbar*p16^2",
        "((2+i)*q1 + hbar^-1)*psi(0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0)*e(1)", "--format", "json",
    ],
    "bracket_n16.json": [
        "bracket", "--dim", "16", "(3-2*i)*p1*q2*q16 + i*hbar^-1*p7^2 + (1/5)*q11",
        "((1/2+i)*p3 - hbar^-1*q9)*psi(" + ",".join("1" if k in (2, 20) else "0" for k in range(32))
        + ")*e(1)", "--format", "json",
    ],
    "prequantize_n16.json": [
        "prequantize", "--dim", "16",
        "(4+i)*p6*q6*q13 + (2/7*i)*hbar^-1*p14 + (-1+i)*q2^2", "--format", "json",
    ],
    # a dual variable (zb) on the bargmann chart
    "extract_wick_zzb2.json": [
        "extract", "--chart", "bargmann", "--product", "wick", "z*zb^2", "--format", "json",
    ],
    # the order of 2-variable multi-indices: (0,0), (1,0), (1,1), (1,2)
    "extract_moyal_n2.json": [
        "extract", "--dim", "2", "--product", "moyal", "p1*q2*p2^2 + q1*p1", "--format", "json",
    ],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_python(argv, timeout):
    """Run a fresh interpreter on ``src``, killed after ``timeout`` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_dq_process(argv, timeout):
    """Run dq in a fresh interpreter, killed after ``timeout`` seconds."""
    return run_python(["-m", "starbundle.cli", *argv], timeout)


class TestCommands:
    def test_quantize_normal_text(self):
        code, out, _ = run_cli(["quantize", "--product", "normal", "--dim", "1",
                                "q1*p1", "--psi", "generic"])
        assert code == 0
        assert out.strip() == "(hbar/i)*q1*psi(1)*e(1)"

    def test_star_moyal_text(self):
        code, out, _ = run_cli(["star", "--product", "moyal", "--dim", "1", "p1", "q1"])
        assert code == 0
        assert out.strip() == "p1*q1 + (1/2)*(hbar/i)"

    def test_star_is_chart_checked(self):
        code, _, err = run_cli(["star", "--product", "wick", "p1", "q1"])
        assert code == 3
        assert "bargmann" in err

    def test_extract_weyl_text(self):
        code, out, _ = run_cli(["extract", "--product", "moyal", "--rep", "position",
                                "q1*p1"])
        assert code == 0
        assert out.strip() == "(1/2)*(hbar/i) + (hbar/i)*q1*d/dq1"

    def test_quantize_concrete_component(self):
        code, out, _ = run_cli(["quantize", "--product", "normal", "p1",
                                "--psi", "q1^2"])
        assert code == 0
        assert out.strip() == "2*(hbar/i)*q1*e(1)"

    def test_prequantize_generic(self):
        code, out, _ = run_cli(["prequantize", "p1"])
        assert code == 0
        assert "psi(0,1)" in out  # the dpsi/dq jet of the (p,q) family

    def test_bracket_command(self):
        code, out, _ = run_cli(["bracket", "p1", "q1"])
        assert code == 0
        assert out.strip() == "1"

    def test_bracket_on_the_complex_chart(self):
        code, out, err = run_cli(["bracket", "--chart", "bargmann", "z", "zb"])
        chart = Chart.bargmann()
        assert code == 0 and err == ""
        assert out.strip() == format_function(
            souriau_bracket(chart, chart.var("z"), chart.var("zb")))

    def test_prequantize_refuses_the_complex_chart(self):
        code, out, err = run_cli(["prequantize", "--chart", "bargmann", "z"])
        assert code == 3 and out == ""
        assert "prequantize is defined on real charts" in err

    @pytest.mark.parametrize("argv", [
        ["star", "--max-degree", "9", "p1", "q1"],
        ["check", "--dim", "65"],
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, argv):
        proc = run_dq_process(argv, timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "unrecognized arguments" in proc.stderr and "Traceback" not in proc.stderr

    def test_parse_error_exit_code(self):
        code, _, err = run_cli(["star", "p1", "q1 +"])
        assert code == 2
        assert "error" in err

    def test_unknown_variable_exit_code(self):
        code, _, err = run_cli(["star", "p1", "p2"])
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("name", ["p01", "q001", "p٣"])
    def test_non_canonical_variables_exit_2(self, name):
        code, out, err = run_cli(["star", "--dim", "3", name, "q1"])
        assert code == 2 and out == ""
        assert err == f"error: unknown variable {name!r} (line 1, column 1)\n"

    def test_theta_is_read_as_a_variable(self):
        code, out, err = run_cli(["bracket", "theta*p1", "q1"])
        assert code == 0 and err == ""
        assert out.strip() == "theta"

    def test_deep_nesting_is_a_parse_error(self):
        deep = "(" * 3000 + "p1" + ")" * 3000
        code, out, err = run_cli(["star", "--dim", "1", deep, "q1"])
        assert code == 2
        assert out == ""
        assert "nest deeper" in err and "Traceback" not in err

    def test_long_chains_lower_without_recursion(self):
        code, out, _ = run_cli(["star", "--dim", "1", "+".join(["p1"] * 3000), "q1"])
        assert code == 0
        assert out.strip() == "3000*p1*q1 + 3000*(hbar/i)"
        code, out, _ = run_cli(["star", "--dim", "1", "*".join(["p1"] * 3000), "q1"])
        assert code == 0
        assert out.strip() == "p1^3000*q1 + 3000*(hbar/i)*p1^2999"

    def test_huge_power_of_a_sum_is_refused_quickly(self):
        start = time.monotonic()
        proc = run_dq_process(["star", "--dim", "1", "(p1+1)^99999999999", "q1"], timeout=20)
        assert time.monotonic() - start < 5
        assert proc.returncode == 2
        assert "exceeds" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["star", "--dim", "4", "(p1+q1+p2+q2+p3+q3+p4+q4+1)^64", "q1"],
        ["star", "--dim", "1", "((p1+1)^64)^64", "q1"],
    ])
    def test_powers_past_the_term_bound_are_refused_quickly(self, argv):
        start = time.monotonic()
        proc = run_dq_process(argv, timeout=20)
        assert time.monotonic() - start < 5
        assert proc.returncode == 2
        assert "more than 1000" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("power", [20, 30])
    def test_star_series_past_the_work_bound_is_refused_quickly(self, power):
        operand = f"(p1+q1+1)^{power}"
        start = time.monotonic()
        proc = run_dq_process(["star", "--dim", "1", "--product", "moyal", operand, operand],
                              timeout=20)
        assert time.monotonic() - start < 5
        assert proc.returncode == 3 and proc.stdout == ""
        assert "MAX_SERIES_WORK = 120000" in proc.stderr and "Traceback" not in proc.stderr

    def test_products_past_the_term_bound_are_refused(self):
        code, out, err = run_cli(["star", "--dim", "1", "(p1+1)^64*(q1+1)^15", "q1"])
        assert code == 2 and out == ""
        assert "65 and 16 terms" in err and "Traceback" not in err
        code, _, _ = run_cli(["star", "--dim", "1", "(p1+1)^64*(q1+1)^14", "q1"])
        assert code == 0

    def test_dim_limit(self):
        code, out, err = run_cli(["star", "--dim", "65", "p1", "q1"])
        assert code == 3 and out == ""
        assert "at most 64" in err and "Traceback" not in err
        code, out, _ = run_cli(["star", "--dim", "64", "--product", "moyal", "p1", "q1"])
        assert code == 0
        assert out.strip() == "p1*q1 + (1/2)*(hbar/i)"

    @pytest.mark.parametrize("degree", [-1, MAX_DEGREE + 1])
    def test_max_degree_limit(self, degree):
        start = time.monotonic()
        proc = run_dq_process(["check", "--suite", "agarwal,nq", "--max-degree", str(degree)],
                              timeout=20)
        assert time.monotonic() - start < 5
        assert proc.returncode == 3 and proc.stdout == ""
        assert f"between 0 and {MAX_DEGREE}" in proc.stderr and "Traceback" not in proc.stderr

    def test_max_degree_at_the_limit_runs(self):
        code, out, _ = run_cli(["check", "--suite", "agarwal", "--max-degree", str(MAX_DEGREE)])
        assert code == 0
        assert out.strip().splitlines()[-1] == "all 3 properties passed"

    def test_huge_powers_of_unit_terms_still_work(self):
        code, out, _ = run_cli(["star", "--dim", "1", "p1^99999999999", "q1"])
        assert code == 0
        assert out.strip() == "p1^99999999999*q1 + 99999999999*(hbar/i)*p1^99999999998"
        code, out, _ = run_cli(["star", "--dim", "1", "hbar^-99999999999*i^99999999999", "q1"])
        assert code == 0
        assert out.strip() == "-i*hbar^-99999999999*q1"

    @pytest.mark.parametrize("argv, exit_code, message", [
        (["star", "--dim", "1", "((3^64)^64)^64", "q1"], 3, "MAX_DIGITS = 4000"),
        (["star", "--dim", "1", "--format", "json", "((3^64)^64)^64", "q1"], 3,
         "MAX_DIGITS = 4000"),
        (["extract", "--dim", "1", "((3^64)^64)^64*p1"], 3, "MAX_DIGITS = 4000"),
        (["star", "--dim", "1", "1" * 5001, "q1"], 2, "MAX_DIGITS = 4000"),
        (["star", "--dim", "1", "p1" + "1" * 5000, "q1"], 2, "MAX_DIGITS = 4000"),
        (["star", "--dim", "1", "psi(" + "1" * 5000 + ")", "q1"], 2, "MAX_DIGITS = 4000"),
        (["star", "--dim", "1", "e(" + "1" * 5000 + ")", "q1"], 2, "MAX_DIGITS = 4000"),
        (["star", "--dim", "1", f"(p1^{'9' * 4000})^{'9' * 4000}", "q1"], 2, "MAX_DIGITS = 4000"),
        (["star", "--dim", "1", f"(hbar^{'9' * 4000})^{'9' * 4000}", "q1"], 2,
         "MAX_DIGITS = 4000"),
        (["bullet", "--dim", "1", "1", f"psi(0)*(e(1)^{'9' * 4000})^{'9' * 4000}"], 2,
         "MAX_DIGITS = 4000"),
    ])
    def test_oversized_numbers_are_refused_quickly(self, argv, exit_code, message):
        start = time.monotonic()
        proc = run_dq_process(argv, timeout=20)
        assert time.monotonic() - start < 5
        assert proc.returncode == exit_code and proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("expr", ["2\u00b2", "p\u00b2", "p1^\u00b2"])
    def test_non_decimal_digits_are_parse_errors(self, expr):
        code, out, err = run_cli(["star", "--dim", "1", expr, "q1"])
        assert code == 2 and out == ""
        assert "\u00b2" in err

    def test_polarization_violation_exit_code(self):
        code, _, err = run_cli(["quantize", "--product", "antinormal",
                                "--rep", "position", "p1"])
        assert code == 5
        assert "polarization" in err.lower()

    def test_check_single_suite(self):
        code, out, _ = run_cli(["check", "--suite", "inversep", "--seed", "7"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "all 3 properties passed"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_check_unknown_suite(self):
        code, _, err = run_cli(["check", "--suite", "nonsense"])
        assert code == 3
        assert "unknown suite" in err

    def test_check_reports_failures(self, monkeypatch):
        from starbundle import checks

        def broken(seed=0):
            return [CheckResult("demo", "always-fails", False, "counterexample: q1")]

        monkeypatch.setitem(checks.SUITES, "demo", broken)
        code, out, _ = run_cli(["check", "--suite", "demo"])
        assert code == 4
        assert "FAIL demo.always-fails" in out
        assert "counterexample: q1" in out

    def test_check_json_format(self):
        code, out, _ = run_cli(["check", "--suite", "agarwal", "--format", "json"])
        assert code == 0
        document = json.loads(out)
        assert document["passed"] is True
        assert all(entry["ok"] for entry in document["results"])

    def test_check_runs_are_reproducible(self):
        first = run_cli(["check", "--suite", "adjoint,inversep", "--seed", "11"])
        second = run_cli(["check", "--suite", "adjoint,inversep", "--seed", "11"])
        assert first == second


class TestDefaultRepresentation:
    @pytest.mark.parametrize("chart_kind, dim", [("real", 1), ("real", 3), ("bargmann", 1)])
    @pytest.mark.parametrize("product", [kind.value for kind in StarKind])
    def test_default_polarization_is_the_cli_representations(self, chart_kind, dim, product):
        config = RunConfig(dim=dim, chart_kind=chart_kind, product=product)
        polarization = default_polarization(config.chart(), product)
        assert polarization is config.representation().polarization
        assert polarization is default_polarization(config.chart(), StarKind(product))


class TestStartup:
    def test_import_loads_no_check_suites_json_or_dataclasses(self):
        probe = ("import sys; before = set(sys.modules); import starbundle.cli; "
                 "print(' '.join(sorted(set(sys.modules) - before)))")
        proc = run_python(["-c", probe], timeout=20)
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "starbundle.cli" in added
        assert not added & {"starbundle.checks", "dataclasses", "inspect", "json"}

    def test_check_still_loads_its_suites(self):
        proc = run_dq_process(["check", "--suite", "inversep", "--seed", "1",
                               "--format", "json"], timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert '"passed":true' in proc.stdout


class TestJsonEmission:
    def test_hbar_over_i_scalar(self):
        chart = Chart.real(1)
        doc = json.loads(emit_json(chart.constant(HBAR_OVER_I)))
        assert doc["terms"] == [{
            "re": "0", "im": "-1", "hbar": 1, "monomial": {}, "jet": {},
            "theta_weight": 0, "weight_factor": None,
        }]

    def test_wave_term_carries_weight(self):
        chart = Chart.real(1)
        wave = EquivariantFunction(chart, chart.var("p1").terms, theta_weight=1)
        doc = json.loads(emit_json(wave))
        assert doc["terms"] == [{
            "re": "1", "im": "0", "hbar": 0, "monomial": {"p1": 1}, "jet": {},
            "theta_weight": 1, "weight_factor": None,
        }]

    def test_weyl_operator_terms(self):
        code, out, _ = run_cli(["extract", "--product", "moyal", "--rep", "position",
                                "q1*p1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        derivatives = [term["derivative"] for term in doc["terms"]]
        assert derivatives == [[0], [1]]

    def test_emission_injective_on_distinct_functions(self):
        chart = Chart.real(1)
        a = emit_json(chart.var("p1"))
        b = emit_json(chart.var("q1"))
        assert a != b


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_stable_against_golden(self, name):
        code, out, _ = run_cli(GOLDEN_CASES[name])
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_repeated_runs_identical(self, name):
        chart_cache.cache_clear()
        cold = run_cli(GOLDEN_CASES[name])
        warm = run_cli(GOLDEN_CASES[name])
        assert cold == warm
