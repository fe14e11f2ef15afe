"""Benchmark for supercalc: seeded exact-identity workloads.

    python3 perfbench/run.py --workload {cocycle,linalg,forms,cli,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in fresh interpreters started one after
another (one thread, no pools), so set-up time includes ``import
supercalc`` and peak memory belongs to that workload alone.

With ``--trace 0`` it prints the end-to-end metrics: passing checks per
second, per-check time at the median and 90th percentile, the share of
checks that failed, the median set-up time of several fresh interpreters,
and peak RSS.  Times are wall times scaled to a fixed machine speed, each
check's the median over several passes (see worker.py); the unscaled
figures are printed beside them.  With ``--trace 1`` it prints per-layer
times and counts from a traced pass over a fixed set of checks, the
tracing overhead, and checks that a second traced pass repeats every
verdict and count.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when any check gives a wrong answer or fails in a way other than
the known faults that workloads.py names for it (only cli checks have
any).  Failed checks go to standard error with their seed and input text.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cocycle", "linalg", "forms", "cli")
SETUP_RUNS = 5  # fresh interpreters whose set-up time gives setup_s
RUN_LIMIT_S = 170  # every child of one run must end within this


class BenchError(Exception):
    pass


def _child(workload: str, seed: int, mode: str, deadline: float,
           seconds: float = 0.0) -> dict:
    # A fixed hash seed keeps set iteration order, and with it the cost
    # of the symbolic arithmetic, the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def _percentile(values: list[float], q: int) -> float:
    """Percentile q of values, interpolated between neighbouring ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _report_failures(workload: str, seed: int, result: dict) -> None:
    for f in result["failures"]:
        print(f"FAIL ({f['verdict']}) {workload} seed={seed} {f['check']}: "
              f"{f['reason']}\n"
              f"     input: {f['input']}", file=sys.stderr)


def _timing(times: list[float], timed_ok: int) -> dict:
    return {"ok_checks_per_s": (timed_ok / sum(times), "1/s"),
            "check_s.p50": (_percentile(times, 50), "s"),
            "check_s.p90": (_percentile(times, 90), "s")}


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """End-to-end metrics from an untraced timed run.  Per-check times are
    scaled to a fixed machine speed, each the median over the run's passes
    (see worker.py); throughput is the passing checks of one pass over the
    sum of those times.  The wall times as measured, each check's least
    over the passes, are printed beside them under ``wall.``."""
    setups = [_child(workload, seed, "setup", deadline)
              for _ in range(SETUP_RUNS - 1)]
    result = _child(workload, seed, "measure", deadline, seconds)
    setups.append(result)
    _report_failures(workload, seed, result)
    verdicts = result["verdicts"]
    ok = verdicts.count("ok")
    timed_ok = verdicts[:len(result["times"])].count("ok")
    metrics = {
        **_timing(result["scaled"], timed_ok),
        "error_rate": ((len(verdicts) - ok) / len(verdicts), "ratio"),
        "setup_s": (statistics.median(r["setup_scaled_s"] for r in setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    for name, value in _timing(result["times"], timed_ok).items():
        metrics["wall." + name] = value
    metrics["wall.setup_s"] = (statistics.median(r["setup_s"] for r in setups), "s")
    notes = [f"{len(result['times'])} timed checks, {result['passes']} "
             f"passes, least wall times summed {sum(result['times']):.2f} s; "
             f"{len(verdicts) - len(result['times'])} untimed checks; "
             f"{len(setups)} set-ups"]
    problems = ([] if result["verdicts_stable"]
                else ["verdicts differ between passes over the same inputs"])
    return verdicts, metrics, notes + problems, problems


# Per-layer metric -> span name in the trace.  Times are total call time
# over the traced pass; counts are totals over it.
LAYER_TIMES = {
    "algebra.mul_s": "algebra.mul",
    "algebra.eq_s": "algebra.eq",
    "algebra.inverse_s": "algebra.inverse",
    "charts.compose_s": "charts.compose",
    "charts.jacobian_s": "charts.jacobian",
    "charts.pullback_s": "charts.pullback",
    **{f"supermatrix.berezinian_s.n{n}": f"supermatrix.berezinian.n{n}"
       for n in range(1, 7)},
    "supermatrix.det_even_s": "supermatrix.det_even",
    "koszul.matrix_s": "koszul.matrix",
    "koszul.rank_s": "koszul.rank",
    "derham.d_s": "derham.d",
    "derham.homotopy_h_s": "derham.homotopy_h",
    "integral_forms.spencer_delta_s": "integral_forms.spencer_delta",
    "integral_forms.homotopy_int_s": "integral_forms.homotopy_int",
    "integral_forms.right_action_s": "integral_forms.right_action",
    "diffops.compose_s": "diffops.compose",
    "pseudoforms.to_integral_form_s": "pseudoforms.to_integral_form",
    "pseudoforms.from_integral_form_s": "pseudoforms.from_integral_form",
    "pseudoforms.cw_apply_s": "pseudoforms.cw_apply",
    "cli.invoke_s": "cli.invoke",
    "cli.parse_value_s": "cli.parse_value",
    "cli.render_s": "cli.render",
    "randoms.generate_s": "randoms.generate",
}
LAYER_COUNTS = (
    "algebra.mul_terms_out",
    "supermatrix.leibniz_terms",  # computed as n! per determinant
    "koszul.matrix_cells",
    "koszul.matrix_nnz",
    "cli.input_chars",
)
LAYER_MODULES = ("algebra", "charts", "supermatrix", "koszul", "derham",
                 "integral_forms", "diffops", "pseudoforms", "cli", "randoms")


def _determinism(runs: list[dict]) -> list[str]:
    """Differences in verdicts (all runs) and counts (traced runs)."""
    problems = []
    for other in runs[1:]:
        if other["verdicts"] != runs[0]["verdicts"]:
            problems.append("verdicts differ between runs at the same seed")
    traced = [r["trace"] for r in runs if "trace" in r]
    for key in ("counts", "maxima", "errors"):
        if any(t[key] != traced[0][key] for t in traced[1:]):
            problems.append(f"trace {key} differ between runs at the same seed")
    return problems


def trace(workload: str, seed: int, seconds: float, deadline: float):
    """Per-layer metrics from one traced pass over a fixed set of checks
    (``seconds`` does not apply), compared with an untraced pass and with
    a second traced pass."""
    plain = _child(workload, seed, "pass", deadline)
    first = _child(workload, seed, "trace", deadline)
    second = _child(workload, seed, "trace", deadline)
    _report_failures(workload, seed, first)
    t = first["trace"]
    metrics = {name: (t["time"].get(key, 0.0), "s")
               for name, key in LAYER_TIMES.items()}
    metrics.update({name: (t["counts"].get(name, 0), "count")
                    for name in LAYER_COUNTS})
    metrics["algebra.rf_den_terms_max"] = (
        t["maxima"].get("algebra.rf_den_terms", 0), "count")
    for module in LAYER_MODULES:
        metrics[f"{module}.errors"] = (t["errors"].get(module, 0), "count")
    for module in LAYER_MODULES + ("bench",):
        metrics[f"{module}.self_s"] = (t["self"].get(module, 0.0), "s")
    # Same checks in both runs, so the throughput ratio is a wall-time ratio.
    metrics["trace.overhead_ratio"] = (plain["wall_s"] / first["wall_s"],
                                       "ratio")
    problems = _determinism([plain, first, second])
    notes = [f"{len(first['verdicts'])} checks traced; untraced "
             f"{plain['wall_s']:.2f} s, traced {first['wall_s']:.2f} s"]
    return first["verdicts"], metrics, notes + problems, problems


def _declared(trace_on: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace_on else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace_on: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    measure_or_trace = trace if trace_on else measure
    verdicts, metrics, notes, problems = measure_or_trace(
        workload, seed, seconds, deadline)
    print(f"workload {workload}  seed {seed}  "
          f"{'traced' if trace_on else 'untraced'}:  " + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    declared = _declared(trace_on)
    missing = set(declared) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    failed = sum(v != "ok" for v in verdicts)
    correct = set(verdicts) <= {"ok", "known"} and not problems
    return {"correct": correct,
            "attempted": len(verdicts), "failed": failed,
            "metrics": {name: {"value": metrics[name][0], "unit": unit}
                        for name, unit in declared.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "supercalc", "__init__.py")):
        print(f"no supercalc source under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            print(json.dumps(run(name, args.seed, args.seconds,
                                 bool(args.trace))))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
