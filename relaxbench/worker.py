"""One workload process: set up, run whole rounds of the operation set, report.

Started by ``run.py`` in a fresh single-threaded interpreter; not meant to be
run by hand.  ``--mode setup`` stops once set-up is done (import, input
generation, one untimed warm-up operation) and reports the wall-clock
instant it got there; ``--mode run`` goes on to the timed rounds and the
checks that need relaxkit.  The result is a JSON file at ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import stats
import workloads
from workloads import ExitCode


def run_op(op):
    """(output, error) of one operation; any exception counts as a failure."""
    try:
        return op.run(), None
    except ExitCode as exc:
        return None, f"exit code {exc.code}"
    except Exception as exc:  # a failed operation is recorded, not fatal
        return None, f"{type(exc).__name__}: {exc}"[:300]


SETUP_CALIBRATIONS = 9


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (about 0.5 ms on a 2 GHz core)."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(4000):
        s += math.sin(i * 1e-3)
    return time.perf_counter() - t0




def run_rounds(ops, seconds: float):
    """Repeat the whole operation set until ``seconds`` have passed (at least once).

    Returns (rounds, per-op times scaled to the reference speed, first-round
    results, indices of operations whose result changed between rounds,
    median calibration time).
    Each time is scaled by the mean of the calibration loops run just
    before and just after the operation.
    """
    perf = time.perf_counter
    samples = []  # (op index, raw seconds, calibration seconds) in execution order
    first = []
    unstable = set()
    rounds = 0
    begin = perf()
    while True:
        for i, op in enumerate(ops):
            cal = calibrate()
            t0 = perf()
            result = run_op(op)
            samples.append((i, perf() - t0, cal))
            if rounds == 0:
                first.append(result)
            elif result != first[i]:
                unstable.add(i)
        rounds += 1
        if perf() - begin >= seconds:
            break
    cals = [c for _, _, c in samples] + [calibrate()]
    times = [[] for _ in ops]
    for k, (i, dt, _) in enumerate(samples):
        times[i].append(dt * 2.0 * stats.CALIBRATION_REF_S / (cals[k] + cals[k + 1]))
    return rounds, times, first, unstable, statistics.median(cals)


def _verify_ms() -> dict:
    from relaxkit import verify

    out = {}
    for suite in verify.SUITES:
        t0 = time.perf_counter()
        verify.run_suite(suite)
        out[f"verify.{suite}.ms"] = (time.perf_counter() - t0) * 1e3
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    import relaxkit  # noqa: F401  (set-up cost: the import is part of it)
    from relaxkit import cli  # noqa: F401

    tracer = None
    report = {}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed, args.workdir)
    if tracer is not None:
        report["fitio.synthesize.ms"] = tracer.total["fitio.synthesize"] * 1e3
        tracer.uninstall()
        tracer.reset()
    run_op(ops[0])  # warm-up
    report["ready_wall"] = time.time()
    cals = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    report["setup_scale"] = stats.CALIBRATION_REF_S / statistics.median(cals)
    if args.mode == "setup":
        _write(args.out, report)
        return 0

    if tracer is None:
        rounds, times, first, unstable, calibration = run_rounds(ops, args.seconds)
    else:
        # half the time untraced, half traced: the goodput ratio is the overhead
        rounds, times, first, unstable, calibration = run_rounds(ops, args.seconds / 2.0)
        tracer.install()
        t_rounds, t_times, t_first, t_unstable, _ = run_rounds(ops, args.seconds / 2.0)
        tracer.uninstall()
        unstable |= t_unstable | {i for i, r in enumerate(t_first) if r != first[i]}
        report["per_layer"] = tracer.metrics(t_rounds)
        untraced = sum(map(sum, times)) / rounds
        traced = sum(map(sum, t_times)) / t_rounds
        report["per_layer"]["trace.overhead_share"] = 1.0 - untraced / traced
        report["per_layer"]["fitio.synthesize.ms"] = report["fitio.synthesize.ms"]
        report["per_layer"].update(_verify_ms())
        report["spans"] = tracer.dump()

    results = []
    for i, op in enumerate(ops):
        output, error = first[i]
        entry = {"name": op.name, "fault": op.fault, "error": error,
                 "median_s": statistics.median(times[i]), "total_s": sum(times[i])}
        if i in unstable:
            entry["error"] = entry["error"] or "result changed between rounds"
        if entry["error"] is None and op.check is not None:
            entry["error"] = op.check(output)
        if entry["error"] is None and op.table is not None:
            rows = workloads.parse_table(output)
            entry["table"] = dict(op.table, values=[float(v) for v in rows[:, 1]],
                                  printed_t=[float(v) for v in rows[:, 0]])
        results.append(entry)
    report.update(
        rounds=rounds,
        calibration_s=calibration,
        ops=results,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    _write(args.out, report)
    return 0


def _write(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
