"""The benchmark's workloads still import against the library, the
library attributes the traced linalg run wraps and the names the cli
workload reads from ``supercalc.cli`` still exist, and the density name
the workloads build still feeds the calls they time."""

import importlib
import pathlib
import random
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


def test_the_delta_form_entry_points_the_workloads_call():
    # The forms and cli workloads build delta forms term by term, add,
    # compare and print them, and apply letter words given as strings.
    from supercalc.algebra import SuperPoly
    from supercalc.charts import Chart
    from supercalc.pseudoforms import DeltaForm, cw_apply

    chart = Chart.standard(3, 3)
    th1 = SuperPoly.generator(chart.table, "th1")
    x2 = SuperPoly.generator(chart.table, "x2")
    raw = {((1, 0, 1), (0, 2, 0)): th1 + x2,
           ((0, 0, 0), (1, 0, 0)): SuperPoly.constant(chart.table, 3)}
    w = DeltaForm.zero(chart)
    assert w.is_zero()
    for key, c in raw.items():
        w = w + DeltaForm(chart, {key: c})
    assert not w.is_zero()
    assert w == DeltaForm(chart, raw) and not w == DeltaForm.zero(chart)
    assert set(w.terms) == set(raw)
    assert all(w.terms[key] == c for key, c in raw.items())
    assert str(w) == ("(3) del(dth1,1) del(dth2) del(dth3) + (x2 + th1) "
                      "dx1 dx3 del(dth1) del(dth2,2) del(dth3)")
    assert str(cw_apply("dx2 dd_dth2", w)) == (
        "(3) dx2 del(dth1,1) del(dth2,1) del(dth3) + (-x2 + th1) "
        "dx1 dx2 dx3 del(dth1) del(dth2,3) del(dth3)")


def test_the_density_name_the_workloads_build():
    # The forms workload feeds BerSection(chart, f) to right_action and the
    # cli workload to berezin_integral, f a polynomial over the chart
    # table; the name must build the same density as IntegralForm.
    from supercalc import integral_forms
    from supercalc.algebra import SuperPoly
    from supercalc.charts import Chart
    from supercalc.diffops import DiffOp
    from supercalc.integral_forms import IntegralForm, right_action
    from supercalc.integration import berezin_integral
    from supercalc.randoms import random_superpoly

    rng = random.Random(7)
    for p, q in ((3, 3), (2, 2), (1, 1)):
        chart = Chart.standard(p, q)
        table = chart.table
        top = SuperPoly.from_monomial(table, {name: 1 for name in chart.odd_names})
        for _ in range(5):
            f = random_superpoly(rng, table, terms=2, max_exp=2) * (
                top + random_superpoly(rng, table, terms=2, max_exp=1))
            op = DiffOp.multiplication(random_superpoly(rng, table, terms=2))
            for _k in range(2):
                op = op.compose(DiffOp.partial(table, rng.choice(table.names)))
            s, u = integral_forms.BerSection(chart, f), IntegralForm(chart, f)
            assert right_action(s, op) == right_action(u, op)
            gauss = list(chart.even_names)
            assert berezin_integral(s, gaussian=gauss) == \
                berezin_integral(u, gaussian=gauss)
