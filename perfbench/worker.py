"""One workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --mode M [--seconds S]

Modes:
  setup    import supercalc and generate the inputs, nothing else;
  measure  set up, then pass over the timed checks again and again, at
           least as often as the workload asks and until S seconds have
           passed, then make the untimed checks once, with tracing off;
           each check's scaled time is the median over the passes, its
           wall time the least, and its verdict that of the first pass;
  pass     set up, then one pass over the traced and the untimed checks,
           tracing off;
  trace    the same pass with every library call under a span.

The set-up time runs from before ``import supercalc`` to the end of input
generation.  run.py starts this script; it is not meant to be run by hand.

The machine this benchmark was made on switches the speed of one thread
between two levels about 1.7 times apart, and can stay at the slower one
for tens of seconds, so the least of several passes still moved by more
than a third from run to run.  Timed runs therefore report each time
twice: as measured, and scaled to a fixed machine speed.  Between blocks
of checks the worker times a fixed piece of dict and Fraction work that
the library never runs (the reference kernel), and multiplies each
check's time by ``KERNEL_UNIT_S`` over the kernel's time around it.  Once
scaled, what is left of the noise is the kernel's own error, which can
go either way, so the scaled time of a check is its median over the
passes and not its least.
"""

from __future__ import annotations

import time
from fractions import Fraction


def _kernel() -> float:
    """Least time of three runs of a fixed piece of dict and Fraction work."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        terms: dict = {}
        for i in range(300):
            key = (i % 17, i % 5, i * 7 % 3)
            terms[key] = terms.get(key, 0) + Fraction(i, 3)
        best = min(best, time.perf_counter() - t0)
    return best


# Scaled times are in units of this much time per kernel run: a fixed
# constant, close to the kernel's time at the faster speed level.
KERNEL_UNIT_S = 0.0012
BLOCK_S = 0.05  # time the kernel again after this much checking
START_KERNEL = _kernel()
START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _run_check(T, check, refused):
    """Verdict of one check: 'ok'; 'wrong' (the identity is false);
    'known' (refused in the way ``check.known`` describes, a fault the
    library has at the commit this benchmark was made at); or 'error'
    (any other exception, non-zero exit or output that does not parse)."""
    charged = sum(T.errors.values())
    with T.check():
        try:
            ok = check.run(T)
        except refused as exc:
            reason = str(exc)
            verdict = ("known" if check.known and re.search(check.known, reason)
                       else "error")
        except Exception as exc:  # a crash fails this check; the run goes on
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            verdict, reason = "error", (
                f"{type(exc).__name__}: {exc} "
                f"(at {os.path.basename(frame.filename)}:{frame.lineno})")
        else:
            verdict, reason = (("ok", "") if ok is True
                               else ("wrong", "identity does not hold"))
    # An exception inside Tracer.call is already charged to its module.
    if verdict != "ok" and sum(T.errors.values()) == charged:
        T.fail(check.layer)
    return verdict, reason


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "pass", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    import workloads
    from tracer import Tracer

    T = Tracer(args.mode == "trace")
    batch = workloads.BATCHES[args.workload](args.seed, T)
    setup_s = time.perf_counter() - START
    out = {"setup_s": setup_s,
           "setup_scaled_s": setup_s * KERNEL_UNIT_S
           / ((START_KERNEL + _kernel()) / 2)}
    # The pregenerated inputs stay alive for the whole run; keep the cyclic
    # collector from walking them again and again, so that a check costs
    # what it would cost on its own.
    gc.freeze()
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "measure":
        deadline = time.perf_counter() + args.seconds
        first = _pass(T, batch.checks, workloads.Refused, scaled=True)
        runs = [first]
        while len(runs) < batch.passes or time.perf_counter() < deadline:
            runs.append(_pass(T, batch.checks, workloads.Refused, scaled=True))
        stable = all(r["verdicts"] == first["verdicts"] for r in runs)
        once = _pass(T, batch.untimed, workloads.Refused)
        out.update(times=[min(t) for t in zip(*(r["times"] for r in runs))],
                   scaled=[statistics.median(t)
                           for t in zip(*(r["scaled"] for r in runs))],
                   passes=len(runs), verdicts_stable=stable,
                   verdicts=first["verdicts"] + once["verdicts"],
                   failures=first["failures"] + once["failures"])
    else:
        out.update(_pass(T, [*batch.checks[:batch.traced], *batch.untimed],
                         workloads.Refused))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if T.on:
        out["trace"] = T.summary()
    print(json.dumps(out))
    return 0


def _pass(T, checks, refused, scaled: bool = False) -> dict:
    """One pass over the checks: per-check wall times and verdicts, and
    with ``scaled`` the times scaled block by block by the kernel's time
    before and after the block."""
    times, factors, verdicts, failures = [], [], [], {}
    block = 0.0
    kernel = _kernel() if scaled else 0.0

    def flush():
        nonlocal kernel, block
        after = _kernel()
        factors.extend([KERNEL_UNIT_S / ((kernel + after) / 2)]
                       * (len(times) - len(factors)))
        kernel, block = after, 0.0

    t0 = time.perf_counter()
    for check in checks:
        c0 = time.perf_counter()
        verdict, reason = _run_check(T, check, refused)
        times.append(time.perf_counter() - c0)
        verdicts.append(verdict)
        if verdict != "ok":
            failures.setdefault((check.label, check.text), (verdict, reason))
        block += times[-1]
        if scaled and block >= BLOCK_S:
            flush()
    wall_s = time.perf_counter() - t0
    if scaled:
        flush()
    return {"wall_s": wall_s, "times": times,
            "scaled": [t * f for t, f in zip(times, factors)],
            "verdicts": verdicts,
            "failures": [{"check": label, "input": text, "verdict": verdict,
                          "reason": reason}
                         for (label, text), (verdict, reason)
                         in failures.items()]}


if __name__ == "__main__":
    sys.exit(main())
