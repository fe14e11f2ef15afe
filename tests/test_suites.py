"""The verify suites, run directly and through the command line."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from supercalc.algebra import SuperPoly
from supercalc.cli import main
from supercalc.koszul import KoszulAlgebra
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


def test_verify_all_at_default_trials_passes():
    # Seed 2 draws the R^{2|2} cocycle pairs whose rational-function
    # denominators once swelled to about a minute of arithmetic.
    result = invoke("verify", "all", "--seed", "2")
    assert result.exit_code == 0, result.output


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


def test_koszul_suite_checks_the_dual_class_is_a_density(monkeypatch):
    label = "dual class is a total de Rham density on 1|1, 1|2 and 2|1"
    checks = {r.label: r.ok for r in run_suite("koszul", seed=1, trials=1)}
    assert checks[label] is True
    # the class with one dx traded for its dd_x is no density: caught
    original = KoszulAlgebra.dual_homology_generator

    def off_density(self):
        table = self.dual_table
        return original(self).left_derivative("dx1") * SuperPoly.generator(table, "dd_x1")

    monkeypatch.setattr(KoszulAlgebra, "dual_homology_generator", off_density)
    checks = {r.label: r.ok for r in run_suite("koszul", seed=1, trials=1)}
    assert checks[label] is False
