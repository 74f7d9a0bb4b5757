"""Memory kernels on grids against per-point calls, and the series re-sum."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaxkit import cli, kernels, specfun
from relaxkit.exceptions import (
    NonConvergent,
    RelaxkitError,
    StrategyDisagreement,
    TruncationWarning,
)
from relaxkit.kernels import KernelConfig, memory_M_time, memory_time_with_bound
from relaxkit.models import ModelSpec

# (kind, which): the renewal series first, then the closed forms and mcd k's Talbot
KERNELS = (
    ("hn", "M"), ("cd", "M"), ("jws", "k"),
    ("cc", "M"), ("cc", "k"), ("jws", "M"), ("mcd", "M"), ("hn", "k"), ("cd", "k"),
    ("mcd", "k"), ("debye", "M"), ("debye", "k"),
)


def kernel_spec(kind: str, alpha: float, beta: float, tau: float) -> ModelSpec:
    """The spec of ``kind`` with its pinned exponents at 1."""
    return ModelSpec(
        kind,
        alpha=alpha if kind in ("cc", "hn", "jws") else 1.0,
        beta=beta if kind in ("cd", "mcd", "hn", "jws") else 1.0,
        tau=tau,
    )


def per_point(cfg, ts, which):
    """Values and bounds of one scalar call per point."""
    pairs = [memory_time_with_bound(cfg, t, which) for t in ts.tolist()]
    return np.array([v for v, _ in pairs]), np.array([b for _, b in pairs])


def assert_rel_close(actual, expected, rtol=1e-12):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    kernel=st.sampled_from(KERNELS),
    alpha=st.floats(0.4, 0.9),
    beta=st.floats(0.3, 0.9),
    log_tau=st.floats(-2.0, 2.0),
)
def test_grid_kernels_match_per_point_calls(kernel, alpha, beta, log_tau):
    kind, which = kernel
    tau = 10.0**log_tau
    cfg = KernelConfig(kernel_spec(kind, alpha, beta, tau))
    ts = np.logspace(-2.0, math.log10(1.5), 24) * tau
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        errors = set()
        for t in ts.tolist():
            try:
                memory_time_with_bound(cfg, t, which)
            except RelaxkitError as exc:
                errors.add(type(exc))
        if errors:
            with pytest.raises(tuple(errors)):
                memory_time_with_bound(cfg, ts, which)
            return
        values, bounds = per_point(cfg, ts, which)
        grid_values, grid_bounds = memory_time_with_bound(cfg, ts, which)
    assert grid_values.shape == ts.shape and grid_bounds.shape == ts.shape
    assert_rel_close(grid_values, values)
    assert_rel_close(grid_bounds, bounds)


def test_scalar_calls_return_floats_and_arrays_keep_their_shape():
    cfg = KernelConfig(ModelSpec("hn", alpha=0.6, beta=0.5))
    value, bound = memory_time_with_bound(cfg, 0.5, "M")
    assert type(value) is float and type(bound) is float
    grid = np.array([[0.1, 0.5], [1.0, 1.5]])
    values, bounds = memory_time_with_bound(cfg, grid, "M")
    assert values.shape == bounds.shape == (2, 2)
    assert values[0, 1] == pytest.approx(value, rel=1e-12)


def test_grid_through_the_handoff_raises_strategy_disagreement():
    # the grid of `relaxkit eval kernelM --model hn --alpha 0.6 --beta 0.5 --grid 0.01:10:20`
    cfg = KernelConfig(ModelSpec("hn", alpha=0.6, beta=0.5))
    ts = cli.GridSpec.parse("0.01:10:20").values()
    with pytest.raises(StrategyDisagreement):
        for t in ts.tolist():
            memory_M_time(cfg, t)
    with pytest.raises(StrategyDisagreement):
        memory_M_time(cfg, ts)


def test_nonconvergent_term_truncates_only_its_point(monkeypatch):
    spec = ModelSpec("hn", alpha=0.6, beta=0.5)
    cfg = KernelConfig(spec)
    ts = np.logspace(-2.0, math.log10(1.5), 8)
    clean_values, clean_bounds = per_point(cfg, ts, "M")
    target = float(ts[5]) ** spec.alpha  # the argument a scalar call passes
    real = kernels.prabhakar_eval

    def failing(alpha, mu, nu, x, strategy=specfun.DEFAULT_STRATEGY):
        if nu == spec.beta * 6 and np.any(np.asarray(x) == target):
            raise NonConvergent("forced failure")
        return real(alpha, mu, nu, x, strategy)

    monkeypatch.setattr(kernels, "prabhakar_eval", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        values, bounds = per_point(cfg, ts, "M")
        grid_values, grid_bounds = memory_time_with_bound(cfg, ts, "M")
    others = np.arange(ts.size) != 5
    # every other point sums its whole series, the failing one stops after 5 terms
    assert_rel_close(grid_values[others], clean_values[others])
    assert_rel_close(grid_bounds[others], clean_bounds[others])
    assert grid_values[5] != pytest.approx(clean_values[5], rel=1e-6)
    assert grid_bounds[5] > clean_bounds[5]
    assert_rel_close(grid_values, values)
    assert_rel_close(grid_bounds, bounds)


def test_truncation_warning_for_each_point_whose_bound_misses():
    cfg = KernelConfig(ModelSpec("hn", alpha=0.6, beta=0.5), series_terms=3)
    ts = np.array([0.2, 0.6, 1.2])
    with pytest.warns(TruncationWarning) as caught:
        values, bounds = memory_time_with_bound(cfg, ts, "M")
    assert len([w for w in caught if w.category is TruncationWarning]) == ts.size
    with pytest.warns(TruncationWarning):
        single = memory_time_with_bound(cfg, 0.6, "M")
    assert (values[1], bounds[1]) == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("kind, alpha, beta, t", [("cd", 1.0, 0.4, 100.0), ("hn", 0.75, 1 / 3, 200.0)])
def test_series_past_the_float_range_raises_nonconvergent(capsys, kind, alpha, beta, t):
    cfg = KernelConfig(ModelSpec(kind, alpha=alpha, beta=beta))
    with pytest.raises(NonConvergent, match="float range"):
        memory_M_time(cfg, t)
    with pytest.raises(NonConvergent, match="float range"):
        memory_M_time(cfg, np.array([1.0, t]))
    argv = ["eval", "kernelM", "--model", kind, "--alpha", repr(alpha), "--beta", repr(beta),
            "--at", repr(t)]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert "float range" in capsys.readouterr().err


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(0.3, 0.95),
    beta=st.floats(0.2, 0.95),
    r=st.integers(1, 40),
    kernel_mu=st.booleans(),
    log_x=st.floats(-1.5, 0.6),
)
def test_series_grid_resum_equals_the_scalar_loop_to_the_last_bit(alpha, beta, r, kernel_mu, log_x):
    # kernel terms: hn/cd M evaluates E[a, a b r; b r], jws k E[a, 1; b r]
    mu, nu = (alpha * beta * r if kernel_mu else 1.0), beta * r
    x = 10.0 ** np.linspace(log_x - 0.5, log_x, 12)
    try:
        total, cancel = specfun._series_grid(alpha, mu, nu, x, 1e-13, 2000)
    except NonConvergent:
        assume(False)
    resummed = np.flatnonzero(cancel > 100.0)
    assume(resummed.size)
    for i in resummed.tolist():
        assert (total[i], cancel[i]) == specfun._series(alpha, mu, nu, float(x[i]), 1e-13, 2000)


def test_series_grid_resums_kernel_terms():
    # a term of the hn M series: most points cancel by more than 100
    alpha, beta, r = 0.6, 0.5, 12
    x = np.linspace(0.5, 2.5, 9)
    total, cancel = specfun._series_grid(alpha, alpha * beta * r, beta * r, x, 1e-13, 2000)
    resummed = np.flatnonzero(cancel > 100.0).tolist()
    assert len(resummed) >= 5
    for i in resummed:
        assert (total[i], cancel[i]) == specfun._series(
            alpha, alpha * beta * r, beta * r, float(x[i]), 1e-13, 2000
        )
