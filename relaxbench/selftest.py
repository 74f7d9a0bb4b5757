"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q relaxbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import ExitCode, Op  # noqa: E402


def _signature(ops):
    return [(op.name, op.fault, json.dumps(op.table, sort_keys=True)) for op in ops]


@pytest.mark.parametrize("name", ["time-grid", "memory"])
def test_one_seed_one_operation_set(name):
    a = workloads.build(name, 7, "")
    b = workloads.build(name, 7, "")
    assert _signature(a) == _signature(b)
    assert _signature(a) != _signature(workloads.build(name, 8, ""))


def test_fit_datasets_repeat(tmp_path):
    first = workloads.build("fit", 7, str(tmp_path / "a"))
    second = workloads.build("fit", 7, str(tmp_path / "b"))
    assert [op.name for op in first] == [op.name for op in second]
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
    other = workloads.build("fit", 8, str(tmp_path / "c"))
    name = "fit_frequency_hn_0.0_0.csv"
    assert (tmp_path / "a" / name).read_text() != (tmp_path / "c" / name).read_text()


def test_fault_operations_do_not_depend_on_the_seed():
    for name in ("time-grid", "memory"):
        faults = [s for s in _signature(workloads.build(name, 1, "")) if s[1]]
        assert faults and faults == [s for s in _signature(workloads.build(name, 2, "")) if s[1]]


def test_tail_percentile_rule():
    value, pct = stats.tail([float(v) for v in range(40, 0, -1)])
    assert (value, pct) == (30.0, 75.0)  # ten values (31..40) lie beyond it
    value, pct = stats.tail(list(range(100)))
    assert (value, pct) == (89, 90.0)
    assert stats.tail(list(range(11))) == (0, 100.0 * 1 / 11)
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_exceptions_and_exit_codes_count_as_failures():
    def boom():
        raise OverflowError("x ** y")

    def exit3():
        raise ExitCode(3)

    assert worker.run_op(Op("raw", boom)) == (None, "OverflowError: x ** y")
    assert worker.run_op(Op("exit", exit3)) == (None, "exit code 3")
    assert worker.run_op(Op("ok", lambda: 1.5)) == (1.5, None)
    with pytest.raises(ExitCode) as info:
        workloads.run_cli(["eval", "relaxation", "--grid", "0.1:1:3"])  # --model missing
    assert info.value.code == 2

    ops = [
        {"name": "a", "fault": None, "error": None, "median_s": 0.001 * i, "total_s": 0.05}
        for i in range(20)
    ] + [{"name": "f", "fault": "known", "error": "exit code 3", "median_s": 1.0, "total_s": 1.0}]
    summary = stats.summarize(ops, rounds=3)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (63, 3, True)
    assert summary["goodput_per_s"] == 3 * 20 / 2.0
    ops[0]["error"] = "off the reference"
    assert stats.summarize(ops, rounds=3)["correct"] is False


def test_rounds_are_whole_and_repeat():
    calls = []
    ops = [Op("a", lambda: calls.append(1) or 1.0), Op("b", lambda: calls.append(2) or 2.0)]
    rounds, times, first, unstable, _ = worker.run_rounds(ops, 0.0)
    assert rounds == 1 and calls == [1, 2] and first == [(1.0, None), (2.0, None)]
    assert not unstable and [len(t) for t in times] == [1, 1]


def test_reference_routes_agree_where_they_meet():
    # the Prabhakar series serves t/tau <= 1, invertlaplace beyond
    mp = reference.mp
    for law, a, b in (("hn", 0.6, 0.5), ("jws", 0.7, 0.4), ("cc", 0.5, 1.0), ("mcd", 1.0, 0.6)):
        for quantity in ("relaxation", "response"):
            with mp.workdps(reference.DPS):
                series = reference._prabhakar_time(quantity, law, a, b, mp.mpf(1))
                phi = reference.phi_hat(law, a, b)
                image = phi if quantity == "response" else (lambda s: (1 - phi(s)) / s)
                inverted = reference._invert(image, mp.mpf(1))
                assert abs(series / inverted - 1) < 1e-17  # nine orders below the table tolerance


def test_tracer_restores_the_program():
    import relaxkit
    from relaxkit import kernels, models, specfun

    before = (models.prabhakar_eval, kernels.prabhakar_eval, relaxkit.relaxation, kernels.warnings)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert models.prabhakar_eval is not before[0]
        spec = models.ModelSpec("hn", 0.6, 0.5)
        models.relaxation(spec, 3.0)
        assert tracer.calls["models.relaxation"] == 1
        assert tracer.calls["specfun.prabhakar_eval"] == 1
    finally:
        tracer.uninstall()
    assert (models.prabhakar_eval, kernels.prabhakar_eval, relaxkit.relaxation,
            kernels.warnings) == before
    assert specfun.prabhakar_eval is before[0]


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in stats.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run(name, tmp_path):
    result = _run(name, 0)
    ops = workloads.build(name, 3, str(tmp_path))
    assert result["correct"] is True
    assert result["attempted"] == len(ops)
    assert result["failed"] == sum(1 for op in ops if op.fault)
    assert sorted(result["metrics"]) == sorted(n for n, _ in stats.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run():
    result = _run("time-grid", 1)
    assert sorted(result["metrics"]) == sorted(n for n, _, _ in tracing.PER_LAYER)
    assert result["metrics"]["models.relaxation.calls"]["value"] > 0
    assert result["metrics"]["verify.subordination.ms"]["value"] > 0
