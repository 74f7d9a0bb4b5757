"""Reduction of per-operation timings to the benchmark's end-to-end metrics."""

from __future__ import annotations

import statistics

from tracing import PER_LAYER

# The machine's speed for pure-Python work swings by up to 2x within a run
# (a shared host), so a fixed calibration loop runs between operations and
# every time is scaled to the speed at which that loop takes this long.  The
# same loop scales the set-up time.
CALIBRATION_REF_S = 5e-4

END_TO_END = (
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten values beyond it.

    That is the (n-10)-th smallest of n values, at percentile 100 (n-10)/n.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"need at least 11 values for a tail percentile, got {n}")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def summarize(ops: list, rounds: int) -> dict:
    """Counts and timing summary of one run.

    ``ops`` holds one entry per operation of the set: its median and total
    time over the rounds (``median_s``, ``total_s``), its ``error`` (None
    when it succeeded and passed its checks) and the documented ``fault`` it
    reproduces, if any.  Goodput counts the operations that succeeded per
    second spent in operations, failed ones included.
    """
    ok_ms = [op["median_s"] * 1e3 for op in ops if op["error"] is None]
    n_failed = len(ops) - len(ok_ms)
    tail_ms, tail_pct = tail(ok_ms)
    return {
        "correct": all(op["error"] is None or op["fault"] for op in ops),
        "attempted": rounds * len(ops),
        "failed": rounds * n_failed,
        "goodput_per_s": rounds * len(ok_ms) / sum(op["total_s"] for op in ops),
        "op_p50_ms": statistics.median(ok_ms),
        "op_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(summary: dict, setups_s: list, peak_rss_mb: float) -> dict:
    values = {
        "setup_s": statistics.median(setups_s),
        "goodput_per_s": summary["goodput_per_s"],
        "op_p50_ms": summary["op_p50_ms"],
        "op_tail_ms": summary["op_tail_ms"],
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer_metrics(raw: dict) -> dict:
    """Every per-layer metric, 0 where the run did not reach its span."""
    return {name: _metric(raw.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
