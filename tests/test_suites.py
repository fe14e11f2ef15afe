"""The verify suites, run directly and through the command line."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from supercalc.cli import main
from supercalc.suites import SUITES, CheckResult, SuiteSpec, run_suite


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, seed):
    results = run_suite(name, seed=seed, trials=3)
    assert results
    failed = [r for r in results if not r.ok]
    assert not failed, failed


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_verify_json_reports_seed_and_passes():
    result = invoke("verify", "integrals", "--seed", "5", "--json")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["seed"] == 5
    assert payload["passed"] is True
    assert [s["suite"] for s in payload["suites"]] == ["integrals"]


def test_verify_unknown_suite_is_a_usage_error():
    result = invoke("verify", "no-such-suite")
    assert result.exit_code == 2
    assert "unknown suite" in result.output


def test_verify_failed_check_exits_one(monkeypatch):
    def failing(rng, trials, p, q):
        return [CheckResult("forced failure", False, "1 of 1 failed")]

    monkeypatch.setitem(SUITES, "integrals",
                        SuiteSpec(failing, 1, "always fails"))
    result = invoke("verify", "integrals", "--seed", "1")
    assert result.exit_code == 1
    assert "FAIL integrals: forced failure (1 of 1 failed)" in result.output


def test_verify_help_lists_every_suite():
    result = invoke("verify", "--help")
    assert result.exit_code == 0
    text = " ".join(result.output.split())
    assert f"Suites: {', '.join(SUITES)}." in text


def test_con3_check_passes():
    result = invoke("con3-check", "--seed", "1")
    assert result.exit_code == 0, result.output
    assert result.output == "25 monomials checked, 0 violations\n"


def test_susy_check_passes():
    result = invoke("susy-check", "--gamma", "2", "--ring", "1|1",
                    "--seed", "1")
    assert result.exit_code == 0, result.output
    assert result.output == ("bracket holds; 10 Lagrangians, "
                             "0 non-invariant variations\n")
