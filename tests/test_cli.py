"""Command-line surface: subcommands, exit codes, output schemas."""

import json
import os
import subprocess
import sys

import pytest

from relaxkit import verify
from relaxkit.cli import EXIT_NONCONVERGENCE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, GridSpec, main
from relaxkit.exceptions import DomainError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grid_spec_parsing():
    g = GridSpec.parse("0.01:100:50:log")
    assert g.points == 50 and g.spacing == "log"
    assert len(g.values()) == 50
    assert GridSpec.parse("0:1:5:lin").spacing == "lin"
    with pytest.raises(DomainError):
        GridSpec.parse("1:0:5")
    with pytest.raises(DomainError):
        GridSpec.parse("0:1:5")  # log grid with zero start
    with pytest.raises(DomainError):
        GridSpec.parse("1:2:1")
    with pytest.raises(DomainError):
        GridSpec.parse("1:2")


def test_eval_debye_at_point(capsys):
    code, out, _ = run(capsys, "eval", "relaxation", "--model", "debye", "--at", "1.0")
    assert code == EXIT_OK
    value = float(out.strip().splitlines()[-1].split(",")[1])
    assert value == pytest.approx(0.3678794, abs=1e-6)


def test_eval_relaxation_grid_headers(capsys):
    code, out, _ = run(
        capsys,
        "eval", "relaxation", "--model", "hn", "--alpha", "0.5", "--beta", "0.5",
        "--tau", "1", "--grid", "0.01:100:50:log",
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "t,n"
    assert len(lines) == 51
    first = float(lines[1].split(",")[1])
    from relaxkit.models import ModelSpec, relaxation

    assert first == pytest.approx(relaxation(ModelSpec("hn", alpha=0.5, beta=0.5), 0.01), rel=1e-9)


def test_eval_pdf_cd_zero_below_one(capsys):
    code, out, _ = run(
        capsys, "eval", "pdf", "--model", "cd", "--beta", "0.5", "--grid", "0.05:0.95:6:lin"
    )
    assert code == EXIT_OK
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("xi"):
            continue
        assert float(line.split(",")[1]) == 0.0


def test_eval_response_delta_comment(capsys):
    code, out, _ = run(
        capsys, "eval", "response", "--model", "jws", "--alpha", "0.5", "--beta", "0.5",
        "--grid", "0.5:2:3:lin",
    )
    assert code == EXIT_OK
    assert "# delta_weight = 1" in out


def test_eval_json_format(capsys):
    code, out, _ = run(
        capsys, "eval", "spectral", "--model", "cc", "--alpha", "0.7", "--grid",
        "0.1:10:5:log", "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["columns"] == ["omega_tau", "re", "im"]
    assert len(doc["rows"]) == 5


def test_eval_needs_grid_or_at(capsys):
    code, _, err = run(capsys, "eval", "relaxation", "--model", "debye")
    assert code == EXIT_USAGE


def test_eval_invalid_model_flags(capsys):
    code, _, err = run(capsys, "eval", "relaxation", "--model", "cd", "--alpha", "0.5", "--at", "1")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "eval", "spectral", "--model", "kww", "--at", "1.0")
    assert code == EXIT_USAGE


def test_synth_deterministic_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = [
        "synth", "--model", "cc", "--alpha", "0.7", "--tau", "1", "--eps0", "5",
        "--epsinf", "2", "--grid", "0.01:100:20:log", "--noise", "0.02", "--seed", "9",
    ]
    assert main(argv + ["--output", str(a)]) == EXIT_OK
    assert main(argv + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_synth_fit_round_trip(tmp_path, capsys):
    path = tmp_path / "hn.csv"
    code = main([
        "synth", "--model", "hn", "--alpha", "0.75", "--beta", "0.333333333333",
        "--tau", "1", "--eps0", "5", "--epsinf", "2",
        "--grid", "0.001:1000:40:log", "--noise", "0", "--seed", "3", "--output", str(path),
    ])
    assert code == EXIT_OK
    code, out, _ = run(capsys, "fit", str(path), "--model", "hn")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["converged"] is True
    assert abs(doc["alpha"] - 0.75) < 1e-6
    assert abs(doc["tau"] - 1.0) < 1e-6


def test_fit_auto_reports_debye(tmp_path, capsys):
    path = tmp_path / "debye.csv"
    main([
        "synth", "--model", "debye", "--tau", "1", "--eps0", "5", "--epsinf", "2",
        "--grid", "0.01:100:30:log", "--noise", "0", "--seed", "1", "--output", str(path),
    ])
    code, out, _ = run(capsys, "fit", str(path), "--auto")
    assert code == EXIT_OK
    assert json.loads(out)["model"] == "debye"


def test_fit_malformed_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("omega,eps_re,eps_im\n1.0,2.0\n")
    code, _, err = run(capsys, "fit", str(bad), "--model", "debye")
    assert code == EXIT_USAGE
    assert "line 2" in err


@pytest.mark.parametrize(
    "domain, text, column",
    [
        # a NaN omega once reached np.polyfit and crashed with a raw LinAlgError
        ("frequency", "omega,eps_re,eps_im\n0.1,4.9,0.5\nnan,3.5,1.5\n10,2.1,0.5\n", "omega"),
        # a NaN sample once "fitted" to a NaN residual norm
        ("time", "t,n\n0,1\n0.5,nan\n1,0.37\n2,0.14\n", "n"),
    ],
    ids=["frequency", "time"],
)
def test_fit_non_finite_sample_exit_2(tmp_path, capsys, domain, text, column):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code, _, err = run(capsys, "fit", str(bad), "--domain", domain, "--model", "debye")
    assert code == EXIT_USAGE
    assert f"{column} values must be finite" in err


@pytest.mark.filterwarnings("ignore:negative")
@pytest.mark.parametrize("model", [["--model", "debye"], ["--auto"]])
def test_fit_whose_trial_tau_overflows_exits_0_or_4(tmp_path, capsys, model):
    # eps' = -1 everywhere: a trial step's tau = exp(log tau) once overflowed with a
    # raw OverflowError (exit 1)
    path = tmp_path / "negative.csv"
    omega = [10.0 ** (-3 + 6 * i / 39) for i in range(40)]
    path.write_text("omega,eps_re,eps_im\n" + "".join(f"{w!r},-1,1\n" for w in omega))
    code, out, _ = run(capsys, "fit", str(path), *model)
    assert code in (EXIT_OK, EXIT_NONCONVERGENCE)
    assert "residual_norm" in json.loads(out)


def test_verify_sonine_passes(capsys):
    code, out, _ = run(capsys, "verify", "sonine")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "suite,check,max_error,tolerance,passed"
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_every_verify_suite_passes(suite):
    # the suites CI's `verify all` step runs, each row under its own tolerance
    rows = verify.run_suite(suite)
    assert rows and all(row.suite == suite for row in rows)
    assert [row.name for row in rows if not row.passed] == []


def test_verify_tolerance_override_can_fail(capsys):
    code, out, _ = run(capsys, "verify", "sonine", "--tol", "1e-30")
    assert code == EXIT_VERIFY_FAILED


def test_verify_named_tolerance_override(capsys):
    code, out, _ = run(capsys, "verify", "sonine", "--tol", "sonine-debye=1e-30")
    assert code == EXIT_VERIFY_FAILED


def test_verify_cm_and_figures_reports(capsys, monkeypatch):
    # the two suites share the response-shape checks; figures does not run
    # the cm suite's sign-pattern sweep
    code, out, _ = run(capsys, "verify", "cm")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [
        "cm,sign-pattern,0,0,True",
        "cm,response-unimodal-beta3,0,0.5,True",
        "cm,response-monotone-beta2,0,0.5,True",
    ]
    from relaxkit import models

    def no_sweep(*args, **kwargs):
        raise AssertionError("the figures suite ran the sign-pattern sweep")

    monkeypatch.setattr(models, "relaxation_derivatives", no_sweep)
    code, out, _ = run(capsys, "verify", "figures")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [
        "figures,response-unimodal-beta3,0,0.5,True",
        "figures,response-monotone-beta2,0,0.5,True",
        "figures,pdf-negative-lobe,0,0.5,True",
    ]


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "duality", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert all(entry["passed"] for entry in doc)


def test_output_written_atomically(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code = main(["eval", "relaxation", "--model", "debye", "--at", "1.0",
                 "--output", str(out_file)])
    assert code == EXIT_OK
    assert out_file.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".relaxkit-")]
    capsys.readouterr()


def test_threads_env_does_not_change_output(tmp_path, capsys, monkeypatch):
    argv = ["eval", "relaxation", "--model", "hn", "--alpha", "0.5", "--beta", "0.5",
            "--grid", "0.01:100:25:log"]
    code, serial, _ = run(capsys, *argv)
    monkeypatch.setenv("RELAXKIT_THREADS", "4")
    code2, threaded, _ = run(capsys, *argv)
    assert code == code2 == EXIT_OK
    assert serial == threaded


def test_cached_parser_after_usage_error_matches_fresh_process(capsys):
    argv = ["eval", "relaxation", "--model", "hn", "--alpha", "0.6", "--beta", "0.5",
            "--grid", "0.001:1000:32"]
    code, _, _ = run(capsys, "eval", "relaxation", "--model", "nosuch")
    assert code == EXIT_USAGE
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    fresh = subprocess.run(
        [sys.executable, "-m", "relaxkit.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert out == fresh.stdout
