"""How the check suites report: one result per property, each failing
property with the first counterexample of its own, and the pinned bytes."""

import json
from pathlib import Path

import pytest

from starbundle import checks, geometry
from starbundle.algebra import Derivation
from starbundle.emit import to_json

GOLDEN = Path(__file__).parent / "golden" / "check_all_seed7.json"

# the suites that take under a second each at their defaults
FAST_SUITES = ("lifts", "polarization", "agarwal", "charts", "prequantum",
               "inversep", "adjoint", "nq", "anq", "roundtrip")


def by_name(results):
    return {result.name: result for result in results}


def test_a_failing_property_keeps_its_own_first_counterexample(monkeypatch):
    monkeypatch.setattr(geometry, "is_polarized", lambda *args: False)
    results = checks.check_inverse_p(seed=1)
    assert [r.name for r in results] == [
        "momentum-after-inverse-is-identity",
        "inverse-after-momentum-drops-constant",
        "inverse-output-polarized",
    ]
    named = by_name(results)
    # the first component is q1^0
    assert not named["inverse-output-polarized"].ok
    assert named["inverse-output-polarized"].detail == "psi=1"
    for name in ("momentum-after-inverse-is-identity", "inverse-after-momentum-drops-constant"):
        assert named[name].ok and named[name].detail == ""


def test_check_result_fields_defaults_line_and_equality():
    failing = checks.CheckResult("s", "n", False, "d")
    passing = checks.CheckResult("s", "n", True)
    assert (failing.suite, failing.name, failing.ok, failing.detail) == ("s", "n", False, "d")
    assert (passing.suite, passing.name, passing.ok, passing.detail) == ("s", "n", True, "")
    assert failing.line() == "FAIL s.n  [d]"
    assert passing.line() == "PASS s.n"
    assert checks.CheckResult("s", "n", True, "d").line() == "PASS s.n"
    assert failing == checks.CheckResult("s", "n", False, "d")
    assert passing == checks.CheckResult(suite="s", name="n", ok=True, detail="")
    assert failing != checks.CheckResult("s", "n", False, "e")
    assert failing != passing and failing != ("s", "n", False, "d")


def test_lift_commutator_failures_name_their_indices(monkeypatch):
    monkeypatch.setattr(Derivation, "commutator", lambda self, other: self)
    named = by_name(checks.check_lifts(seed=0, cases=3, jmax=1))
    assert not named["commutator-structural"].ok
    assert named["commutator-structural"].detail == "n=1, ell=0, m=0"
    assert not named["reeb-commutes"].ok
    assert named["reeb-commutes"].detail == "n=1, m=0"
    for name in ("commutator-applied", "iterated-commutator"):
        assert named[name].ok and named[name].detail == ""


@pytest.mark.parametrize("suite", FAST_SUITES)
def test_fast_suites_match_the_pinned_bytes(suite):
    golden = GOLDEN.read_text()
    pinned = [entry for entry in json.loads(golden)["results"] if entry["suite"] == suite]
    entries = [
        to_json({"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail})
        for r in checks.run_suites([suite], seed=7)
    ]
    assert len(entries) == len(pinned)
    assert ",".join(entries) in golden
