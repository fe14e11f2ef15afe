"""The benchmark's workloads still import against the library, and the
library attributes the traced linalg run wraps and the names the cli
workload reads from ``supercalc.cli`` still exist."""

import importlib
import pathlib
import sys
from fractions import Fraction

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workloads_import_and_the_traced_attributes_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for name in ("workloads", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    assert set(workloads.BATCHES) == {"cocycle", "linalg", "forms", "cli"}
    assert all(callable(build) for build in workloads.BATCHES.values())

    from supercalc import koszul
    from supercalc.koszul import KoszulAlgebra

    # _trace_koszul_steps replaces these two by name
    assert callable(KoszulAlgebra.differential_matrix)
    assert callable(koszul.exact_rank)


def test_the_cli_workload_finds_its_names():
    # perfbench/workloads.py::_Cli reads these from supercalc.cli
    from supercalc import cli

    ring = cli.Ring(2, 2)
    assert ring.chart and ring.ftab and ring.ptab
    value, _ = cli.parse_value("x1", ring)
    assert isinstance(value, cli.Poly) and value.poly is not None
    value, _ = cli.parse_value("0", ring)
    assert isinstance(value, Fraction)
    assert cli.render(value) == "0"
    with pytest.raises(cli.ExpressionError, match="unknown generator 'pdx1'"):
        cli.parse_value("pdx1", ring)
