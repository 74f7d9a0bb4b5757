"""relaxkit benchmark: one workload, timed end to end, outputs checked.

    python3 relaxbench/run.py --workload time-grid|memory|fit --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Each workload runs in a fresh single-threaded Python process that
repeats the seeded operation set in whole rounds for ``--seconds``; set-up
is repeated in further processes so that ``setup_s`` is a median.  Outputs
are checked against the mpmath reference (``reference.py``) or a property
the method must have.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones of ``tracing.py`` (spans installed at run time), plus the
tracing overhead.  Scratch files and trace files go to ``.relaxbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".relaxbench")

sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("RELAXKIT_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def run_worker(args, mode: str, workdir: str, timeout: float) -> tuple[float, dict]:
    """Start one workload process; return (set-up seconds, its report)."""
    out = os.path.join(workdir, f"{mode}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", workdir, "--out", out]
    spawned = time.time()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n{err[-2000:]}")
    with open(out) as fh:
        report = json.load(fh)
    return (report["ready_wall"] - spawned) * report["setup_scale"], report


_IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import relaxkit; "
                 "print((time.perf_counter() - t0) * 1e3)")


def subprocess_ms(cmd: list, repeats: int = 3, reported: bool = False) -> float:
    """Median over ``repeats`` runs of a subprocess's wall time in ms, or of the ms it prints."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=worker_env(), cwd=ROOT, check=True, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=60)
        wall_ms = (time.perf_counter() - t0) * 1e3
        samples.append(float(done.stdout.split()[-1]) if reported else wall_ms)
    return statistics.median(samples)


def check_tables(ops: list) -> None:
    """Compare every table against the mpmath reference; record misses as errors."""
    import reference

    for op in ops:
        table = op.pop("table", None)
        if table is None:
            continue
        if table["printed_t"] != [float(f"{t:.12g}") for t in table["t"]]:
            op["error"] = "table abscissae differ from the requested grid"
            continue
        bad = workloads.check_table_properties(table["quantity"], np.array(table["values"]))
        if bad is None:
            worst, i = reference.compare(table, table["values"])
            if worst > reference.REL_TOL:
                bad = f"off the reference by {worst:.3g} (relative) at t = {table['t'][i]:.6g}"
        op["error"] = bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="relaxkit benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "relaxkit", "__init__.py")):
        print(f"relaxbench: no relaxkit sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_worker(args, "setup", workdir, 60)[0])
        setup_s, report = run_worker(args, "run", workdir, WORKER_TIMEOUT_S)
        setups.append(setup_s)
        check_tables(report["ops"])
        summary = stats.summarize(report["ops"], report["rounds"])
        print(f"relaxbench: {report['rounds']} rounds; calibration loop "
              f"{report['calibration_s'] * 1e3:.3f} ms, times scaled to "
              f"{stats.CALIBRATION_REF_S * 1e3:g} ms", file=sys.stderr)
        for op in report["ops"]:
            if op["error"] is not None:
                tag = "fault" if op["fault"] else "UNEXPECTED"
                print(f"[{tag}] {op['name']}: {op['error']}", file=sys.stderr)
        if args.trace:
            metrics = dict(report["per_layer"])
            metrics["cli.import_ms"] = subprocess_ms(
                [sys.executable, "-c", _IMPORT_TIMER], reported=True)
            metrics["cli.eval_subprocess_ms"] = subprocess_ms(
                [sys.executable, "-m", "relaxkit.cli", "eval", "relaxation", "--model", "hn",
                 "--alpha", "0.6", "--beta", "0.5", "--grid", "0.001:1000:2000"])
            metrics = stats.per_layer_metrics(metrics)
            trace_file = os.path.join(SCRATCH, f"trace-{args.workload}-{args.seed}.json")
            with open(trace_file, "w") as fh:
                json.dump({"spans": report["spans"], "metrics": metrics}, fh, indent=1)
        else:
            metrics = stats.end_to_end_metrics(summary, setups, report["peak_rss_mb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
