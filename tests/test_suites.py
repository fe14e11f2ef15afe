"""The verify suites, run directly and through the command line."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from supercalc import charts, integration, suites
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


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (0, 2), (2, 0)])
@pytest.mark.parametrize("name", ["nilpotency", "homotopies", "dmodule"])
def test_chart_suites_pass_on_other_shapes(name, shape):
    # the suites that read p and q; the rest use fixed charts
    results = run_suite(name, seed=1, trials=3, p=shape[0], q=shape[1])
    assert [r for r in results if not r.ok] == []


def _doubled(f):
    def wrapped(*args, **kwargs):
        out = f(*args, **kwargs)
        return out + out
    return wrapped


def _without_gaussian(f):
    return lambda u, gaussian=(): f(u)


def _plus_identity(f):
    return lambda w: f(w) + w


def _plus_one(f):
    return lambda *args, **kwargs: f(*args, **kwargs) + 1


@pytest.mark.parametrize("name, module, attribute, fault, failed", [
    ("nilpotency", suites, "d", _plus_identity,
     [("exterior differential squares to zero", "4 of 4 failed")]),
    ("berezinian", suites, "berezinian", _doubled,
     [("multiplicative on shape 1|1", "4 of 4 failed"),
      ("multiplicative on shape 2|1", "4 of 4 failed"),
      ("multiplicative on shape 2|2", "4 of 4 failed"),
      ("block diagonal gives detA/detD", "10 of 10 failed"),
      ("infinitesimally 1 + eps Str", "10 of 10 failed")]),
    ("cocycle", charts, "berezinian", _doubled,
     [("punctured-plane transition chain rule", ""),
      ("punctured-plane round trip has Berezinian 1", ""),
      ("chain rule on random coordinate changes", "4 of 4 failed")]),
    ("homotopies", suites, "d", _doubled,
     [("form homotopy is the identity in degree 1", "4 of 4 failed"),
      ("form homotopy is the identity in degree 2", "4 of 4 failed"),
      ("form homotopy is the identity in degree 3", "4 of 4 failed"),
      ("form homotopy is the identity in degree 4", "3 of 4 failed")]),
    ("koszul", suites, "berezinian", _doubled,
     [("class transforms by the reciprocal Berezinian", "4 of 4 failed")]),
    ("dmodule", suites, "right_action", _doubled,
     [("right action flat on field brackets", "2 of 4 failed"),
      ("connection-style product rules", "2 of 4 failed")]),
    ("integrals", suites, "berezin_integral", _plus_one,
     [("odd tangent line with Gaussian fiber weight integrates to sqrt(pi)", ""),
      ("purely odd plane normalizes to 1", "")]),
    # most draws integrate to zero even without the weight's term
    ("stokes", integration, "spencer_delta", _without_gaussian,
     [("boundary integral vanishes on R1|1", "1 of 4 failed")]),
    ("susy", integration, "susy_generator", _doubled,
     [("bracket closes on translations for 1|1", ""),
      ("bracket closes on translations for 1|2", "")]),
    ("delta-forms", suites, "cw_apply", _doubled,
     [("letter relations hold on random delta forms", "4 of 4 failed"),
      ("delta and density pictures invert each other", "4 of 4 failed")]),
])
def test_planted_fault_turns_the_suite_red(monkeypatch, name, module, attribute, fault,
                                           failed):
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    results = run_suite(name, seed=1, trials=4)
    assert [(r.label, r.detail) for r in results if not r.ok] == failed


def test_failures_are_counted_per_draw(monkeypatch):
    # a draw that breaks both product rules is one failed draw, not two
    original, calls = suites.right_action, []

    def every_third_negated(*args):
        calls.append(None)
        out = original(*args)
        return -out if len(calls) % 3 == 0 else out

    monkeypatch.setattr(suites, "right_action", every_third_negated)
    details = {r.label: r.detail for r in run_suite("dmodule", seed=2, trials=4)}
    assert details["connection-style product rules"] == "4 of 4 failed"


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
