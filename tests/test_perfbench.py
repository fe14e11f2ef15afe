"""The benchmark's workloads still import against the library, and the
library attributes the traced linalg run wraps still exist."""

import importlib
import pathlib
import sys

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
