"""Memory kernels on grids against per-point calls and against independent oracles
(mpmath, and double-precision series at small and large t)."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from relaxkit import cli
from relaxkit.exceptions import RelaxkitError
from relaxkit.inversion import talbot_contour
from relaxkit.kernels import (
    KernelConfig,
    kernel_singular_weight,
    memory_M_time,
    memory_time_with_bound,
)
from relaxkit.models import ModelSpec, _ratio

# (kind, which): the contour-inverted kernels first, then the closed forms
KERNELS = (
    ("hn", "M"), ("cd", "M"), ("jws", "M"), ("mcd", "M"), ("hn", "k"), ("jws", "k"), ("mcd", "k"),
    ("cc", "M"), ("cc", "k"), ("cd", "k"), ("debye", "M"), ("debye", "k"),
)
# (kind, which, alpha, beta, relative bound) of every kernel inverted on the Talbot contour;
# hn k at alpha 0.95 includes t/tau = 10, where its former closed form was off by 2.3e-10
# while it reported bound 0
CONTOUR_KERNELS = (
    ("hn", "M", 0.75, 1 / 3, 1e-10), ("cd", "M", 1.0, 0.4, 1e-10), ("jws", "M", 0.6, 0.5, 1e-10),
    ("mcd", "M", 1.0, 0.5, 1e-10), ("hn", "k", 0.6, 0.5, 1e-10), ("hn", "k", 0.95, 0.25, 2e-10),
    ("jws", "k", 0.9, 0.7, 1e-10), ("mcd", "k", 1.0, 0.5, 1e-10),
)


def kernel_spec(kind: str, alpha: float, beta: float, tau: float) -> ModelSpec:
    """The spec of ``kind`` with its pinned exponents at 1."""
    return ModelSpec(
        kind,
        alpha=alpha if kind in ("cc", "hn", "jws") else 1.0,
        beta=beta if kind in ("cd", "mcd", "hn", "jws") else 1.0,
        tau=tau,
    )


def mp_kernel(which: str, kind: str, alpha: float, beta: float, x: float) -> float:
    """M or the regular part of k at t/tau = x with tau = B = 1, at 30 digits: mpmath's
    Talbot inversion of the image, and cd k as ``Gamma(-beta, x) / |Gamma(-beta)|``."""
    with mp.workdps(30):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        if (which, kind) == ("k", "cd"):
            return float(mp.gammainc(-b, x) / abs(mp.gamma(-b)))
        if kind in ("hn", "cd"):
            def ratio(p):
                return (1 + p**a) ** b - 1
        else:
            def ratio(p):
                return 1 / ((1 + p**-a) ** b - 1)
        if which == "M":
            def image(p):
                return 1 / ratio(p)
        else:  # less the point mass: 1/beta for mcd, 1 for hn on alpha beta = 1
            mass = 1 / b if kind == "mcd" else (1 if alpha * beta == 1.0 else 0)

            def image(p):
                return ratio(p) / p - mass
        return float(mp.invertlaplace(image, x, method="talbot", degree=30))


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
    # each image value depends on its own node and point alone: a number is its grid element
    np.testing.assert_array_equal(grid_values, values)
    np.testing.assert_array_equal(grid_bounds, bounds)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["hn", "jws"]),
    alpha=st.floats(0.05, 1.0),
    beta=st.floats(0.05, 1.0),
    log_x=st.floats(-6.0, 6.0),
)
def test_factored_ratio_matches_mpmath_on_the_contour_nodes(kind, alpha, beta, log_x):
    # _ratio(spec, z, x) takes p**e as z**e x**-e and never forms p = z / x
    spec = ModelSpec(kind, alpha=alpha, beta=beta)
    z = talbot_contour(24)[0]
    x = 10.0**log_x
    values = _ratio(spec, z, np.array([x]))[:, 0]
    with mp.workdps(30):
        for node, value in zip(z[:, 0].tolist(), values.tolist()):
            p = mp.mpc(node) / x
            phi = (1 + p**alpha) ** -beta if kind == "hn" else 1 - (1 + p**-alpha) ** -beta
            exact = (1 - phi) / phi
            assert abs(mp.mpc(value) - exact) <= 1e-13 * abs(exact), (node, x)


@pytest.mark.parametrize("which, alpha, beta, x", [
    ("k", 0.95, 0.25, 1e-160), ("k", 0.6, 0.25, 1e-300), ("M", 0.6, 0.25, 1e-300),
    ("M", 0.95, 0.25, 1e-160),
])
def test_hn_kernels_at_tiny_t_stay_finite_and_within_their_bound(which, alpha, beta, x):
    # |p**alpha| passes 1e154 on the nodes here, where the squares in |1 + w| overflow
    cfg = KernelConfig(ModelSpec("hn", alpha=alpha, beta=beta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, bound = memory_time_with_bound(cfg, x, which)
    assert math.isfinite(value) and abs(value - mp_kernel(which, "hn", alpha, beta, x)) <= bound


def test_scalar_calls_return_floats_and_arrays_keep_their_shape():
    cfg = KernelConfig(ModelSpec("hn", alpha=0.6, beta=0.5))
    value, bound = memory_time_with_bound(cfg, 0.5, "M")
    assert type(value) is float and type(bound) is float
    grid = np.array([[0.1, 0.5], [1.0, 1.5]])
    values, bounds = memory_time_with_bound(cfg, grid, "M")
    assert values.shape == bounds.shape == (2, 2)
    assert values[0, 1] == pytest.approx(value, rel=1e-12)


def test_grid_through_the_former_handoff_matches_mpmath():
    # the grid of `relaxkit eval kernelM --model hn --alpha 0.6 --beta 0.5 --grid 0.01:10:20`,
    # which raised StrategyDisagreement while M was a renewal series
    cfg = KernelConfig(ModelSpec("hn", alpha=0.6, beta=0.5))
    ts = cli.GridSpec.parse("0.01:10:20").values()
    refs = np.array([mp_kernel("M", "hn", 0.6, 0.5, t) for t in ts.tolist()])
    assert_rel_close(memory_M_time(cfg, ts), refs, rtol=1e-10)
    assert_rel_close([memory_M_time(cfg, t) for t in ts.tolist()], refs, rtol=1e-10)


def test_contour_bound_covers_the_mpmath_error():
    tau, rate = 2.5, 1.7
    x = np.logspace(-3.0, 3.0, 7)
    for kind, which, alpha, beta, rel_bound in CONTOUR_KERNELS:
        cfg = KernelConfig(kernel_spec(kind, alpha, beta, tau), rate_B=rate)
        refs = np.array([mp_kernel(which, kind, alpha, beta, v) for v in x.tolist()])
        refs *= rate if which == "k" else 1.0 / (rate * tau)
        values, bounds = memory_time_with_bound(cfg, x * tau, which)
        assert_rel_close(bounds, rel_bound * np.abs(values))
        assert np.all(np.abs(values - refs) <= bounds), (kind, which)


def test_jws_k_at_small_t_matches_mpmath_without_warnings():
    # the grid of the CI smoke step: the renewal series ran to its 1000-term cap
    # here, with one TruncationWarning per point and bounds it did not meet
    cfg = KernelConfig(ModelSpec("jws", alpha=0.9, beta=0.7))
    ts = cli.GridSpec.parse("0.01:1.5:24").values()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = memory_time_with_bound(cfg, ts, "k")[0]
    refs = np.array([mp_kernel("k", "jws", 0.9, 0.7, t) for t in ts.tolist()])
    assert_rel_close(values, refs, rtol=1e-10)


@pytest.mark.parametrize("kind, alpha, beta", [
    ("jws", 0.6, 0.5), ("jws", 0.9, 0.7), ("jws", 0.3, 0.9), ("mcd", 1.0, 0.5), ("mcd", 1.0, 0.8),
])
def test_jws_and_mcd_k_at_huge_t_follow_their_leading_term(kind, alpha, beta):
    # k ~ B x**-(a b) / Gamma(1 - a b), next term smaller by x**-(a b) <= 1e-16 here; the
    # image's g(w)/w falls below beta eps on these t, so (g(w)/w - b) + b cannot stand for it
    cfg = KernelConfig(ModelSpec(kind, alpha=alpha, beta=beta))
    x = 10.0 ** np.arange(60.0, 301.0, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = memory_time_with_bound(cfg, x, "k")[0]
    ab = alpha * beta
    assert_rel_close(values, x**-ab / math.gamma(1.0 - ab), rtol=1e-9)


@pytest.mark.parametrize("kind, alpha, beta, t", [("cd", 1.0, 0.4, 100.0), ("hn", 0.75, 1 / 3, 200.0)])
def test_series_past_the_float_range_now_matches_mpmath(capsys, kind, alpha, beta, t):
    # the renewal series needed (t/tau)**(alpha beta r) past the float range here
    cfg = KernelConfig(ModelSpec(kind, alpha=alpha, beta=beta))
    ref = mp_kernel("M", kind, alpha, beta, t)
    assert memory_M_time(cfg, t) == pytest.approx(ref, rel=1e-10)
    assert memory_M_time(cfg, np.array([1.0, t]))[1] == pytest.approx(ref, rel=1e-10)
    argv = ["eval", "kernelM", "--model", kind, "--alpha", repr(alpha), "--beta", repr(beta),
            "--at", repr(t)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [line for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()]
    assert len(rows) == 1 and float(rows[0].split(",")[1]) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kind, which, alpha, beta", [
    ("hn", "M", 0.6, 0.5), ("hn", "M", 0.9, 0.7), ("hn", "M", 0.4, 0.9), ("cd", "M", 1.0, 0.8),
    ("jws", "M", 0.6, 0.5), ("jws", "M", 0.9, 0.7), ("jws", "M", 0.3, 0.25),
    ("mcd", "M", 1.0, 0.5), ("mcd", "M", 1.0, 0.95), ("hn", "k", 0.6, 0.5), ("hn", "k", 0.3, 0.95),
    ("hn", "k", 0.9, 0.7), ("hn", "k", 0.95, 0.25), ("jws", "k", 0.6, 0.5), ("jws", "k", 0.4, 0.9),
    ("jws", "k", 0.3, 0.25), ("mcd", "k", 1.0, 0.6), ("mcd", "k", 1.0, 0.95),
])
def test_contour_kernels_match_mpmath(kind, which, alpha, beta):
    # within the reported bound, which is 1e-10 relative but for hn k at alpha > 0.9
    cfg = KernelConfig(kernel_spec(kind, alpha, beta, 1.0))
    x = np.append(np.logspace(-3.0, 3.0, 5), 10.0)
    refs = np.array([mp_kernel(which, kind, alpha, beta, v) for v in x.tolist()])
    scalars, bounds = per_point(cfg, x, which)
    assert np.all(np.abs(scalars - refs) <= np.maximum(bounds, 1e-10 * np.abs(refs)))
    assert_rel_close(memory_time_with_bound(cfg, x, which)[0], scalars)


@pytest.mark.parametrize("alpha, beta", [(0.5, 2.0), (0.8, 1.25), (0.6, 1 / 0.6)])
def test_hn_k_on_the_regime_boundary_matches_mpmath(alpha, beta):
    # at alpha beta = 1 the image tends to the point mass B tau delta(t); each contour node
    # leaves it without cancellation (a plain "- 1" lost 1.7e-9 at t/tau = 1e-3)
    cfg = KernelConfig(ModelSpec("hn", alpha=alpha, beta=beta))
    assert kernel_singular_weight(cfg, "k") == 1.0
    x = np.logspace(-3.0, 3.0, 13)
    refs = [mp_kernel("k", "hn", alpha, beta, v) for v in x.tolist()]
    assert_rel_close(memory_time_with_bound(cfg, x, "k")[0], refs, rtol=1e-10)


@pytest.mark.parametrize("beta", [0.4, 0.5, 0.8])
def test_cd_k_matches_the_incomplete_gamma_up_to_300(beta):
    # the Prabhakar form x**-b E[1, 1-b; -b](-x) - 1 was off by 1.4e-4 at x = 20
    cfg = KernelConfig(ModelSpec("cd", beta=beta))
    x = np.array([1e-3, 0.1, 1.0, 20.0, 30.0, 100.0, 300.0])
    refs = [mp_kernel("k", "cd", 1.0, beta, v) for v in x.tolist()]
    assert_rel_close(memory_time_with_bound(cfg, x, "k")[0], refs, rtol=1e-10)
    assert_rel_close([memory_time_with_bound(cfg, v, "k")[0] for v in x.tolist()], refs, rtol=1e-10)


def laurent(beta: float, terms: int = 200) -> list:
    """d_0.. with ``1 / ((1 + w)**beta - 1) = sum_n d_n w**(n-1) / beta``: the reciprocal of the
    power series ``((1 + w)**beta - 1) / (beta w) = sum_j C(beta, j+1) w**j / beta``."""
    e, c = [1.0], beta
    for j in range(1, terms):
        c *= (beta - j) / (j + 1)
        e.append(c / beta)
    d = [1.0]
    for n in range(1, terms):
        d.append(-math.fsum(e[j] * d[n - j] for j in range(1, n + 1)))
    return d


def small_t_k(alpha: float, beta: float, x: float):
    """jws/mcd k (tau = B = 1) by its series in x**alpha, entire in t, and its rounding error
    estimate: ``k_hat = f((s)**-alpha) / s`` inverted term by term; mcd's first term is the
    point mass, which ``rgamma(0) = 0`` drops."""
    d = laurent(beta)
    terms = [x**-alpha * float(sc.rgamma(1.0 - alpha)) / beta]
    for n in range(1, len(d)):
        p = alpha * (n - 1)
        terms.append(d[n] / beta * math.exp(p * math.log(x) - math.lgamma(1.0 + p)))
    return math.fsum(terms), 64 * 2.0**-52 * max(map(abs, terms))


def large_t_M(alpha: float, beta: float, x: float):
    """hn/cd M (tau = B = 1) by its asymptotic series in x**-alpha truncated before its
    smallest term, whose size is the error estimate: ``M_hat = f(s**alpha)`` inverted term
    by term, with ``1/Gamma(nu) = Gamma(1 - nu) sin(pi nu) / pi`` for nu = -alpha (n-1)."""
    d = laurent(beta)
    total, smallest = x ** (alpha - 1.0) / (beta * math.gamma(alpha)), math.inf
    for n in range(2, len(d)):
        nu = -alpha * (n - 1)
        size = abs(d[n]) / beta * math.exp((nu - 1.0) * math.log(x) + math.lgamma(1.0 - nu))
        if size > smallest:
            break
        smallest = size
        if nu != round(nu):
            total += math.copysign(size, d[n]) * math.sin(math.pi * nu) / math.pi
    return total, smallest


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["jws", "mcd"]),
    alpha=st.floats(0.3, 0.95),
    beta=st.floats(0.25, 0.95),
    log_tau=st.floats(-2.0, 2.0),
    log_x=st.floats(-2.0, math.log10(4.0)),
)
def test_jws_and_mcd_k_match_the_small_t_series(kind, alpha, beta, log_tau, log_x):
    tau = 10.0**log_tau
    cfg = KernelConfig(kernel_spec(kind, alpha, beta, tau))
    alpha = cfg.spec.alpha
    x = 10.0 ** np.linspace(log_x - 1.0, log_x, 4)
    values, bounds = memory_time_with_bound(cfg, x * tau, "k")
    scalar = memory_time_with_bound(cfg, float(x[-1] * tau), "k")
    for value, bound, v in [*zip(values, bounds, x.tolist()), (*scalar, x[-1])]:
        oracle, error = small_t_k(alpha, beta, v)
        assert abs(value - oracle) <= bound + error, (value, oracle, bound, error)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["hn", "cd"]),
    alpha=st.floats(0.3, 0.95),
    beta=st.floats(0.25, 0.95),
    log_tau=st.floats(-2.0, 2.0),
    log_x=st.floats(math.log10(20.0), 2.0),
)
def test_hn_and_cd_M_match_the_large_t_expansion(kind, alpha, beta, log_tau, log_x):
    tau = 10.0**log_tau
    cfg = KernelConfig(kernel_spec(kind, alpha, beta, tau))
    alpha = cfg.spec.alpha
    x = 10.0 ** np.linspace(log_x, log_x + 1.0, 4)
    values, bounds = memory_time_with_bound(cfg, x * tau, "M")
    scalar = memory_time_with_bound(cfg, float(x[0] * tau), "M")
    for value, bound, v in [*zip(values, bounds, x.tolist()), (*scalar, x[0])]:
        oracle, error = large_t_M(alpha, beta, v)
        assert abs(value * tau - oracle) <= (bound + 4.0 * error) * tau, (value * tau, oracle, error)
