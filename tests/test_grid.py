"""Grid (array) evaluation of the Prabhakar time-domain laws against per-point calls."""

import contextlib

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relaxkit import specfun
from relaxkit.exceptions import DomainError, RelaxkitError
from relaxkit.kernels import KernelConfig, memory_time_with_bound
from relaxkit.models import ModelSpec, relaxation, response
from relaxkit.specfun import RationalOrder, prabhakar_eval, prabhakar_rational

STRATEGIES = ("_kummer", "_series", "_contour", "_asymptotic")


@contextlib.contextmanager
def recorded_routes():
    """Record (strategy name, set of x values) for every strategy call."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in STRATEGIES:
            def wrapper(*args, _name=name, _fn=getattr(specfun, name)):
                x = args[2] if _name == "_kummer" else args[3]
                calls.append((_name, set(np.atleast_1d(x).tolist())))
                return _fn(*args)

            patch.setattr(specfun, name, wrapper)
        yield calls


def per_point(fn, points):
    """Values, routes and Prabhakar arguments of one scalar call per point."""
    values, routes, args = [], [], []
    for p in points.tolist():
        with recorded_routes() as calls:
            values.append(fn(p))
        routes.append(frozenset(name for name, _ in calls))
        args.append(set().union(*(xs for _, xs in calls)))
    return np.array(values), routes, args


def grid_routes(calls, args):
    return [frozenset(name for name, xs in calls if xs & a) for a in args]


def assert_grid_matches_points(fn, points):
    """fn(points) equals fn(p) per point exactly, by the same routes, or raises the
    exception type a per-point call raises."""
    errors = set()
    for p in points.tolist():
        try:
            fn(p)
        except RelaxkitError as exc:
            errors.add(type(exc))
    if errors:
        with pytest.raises(tuple(errors)):
            fn(points)
        return
    values, routes, args = per_point(fn, points)
    with recorded_routes() as calls:
        grid = fn(points)
    assert isinstance(grid, np.ndarray) and grid.shape == points.shape
    np.testing.assert_array_equal(grid, values)
    assert grid_routes(calls, args) == routes


def assert_numbers_equal_grid_elements(fn, points, equal_nan=False):
    """fn(p) == fn(points)[i] exactly, over the points whose own call does not raise
    (with ``equal_nan``, a NaN element equals a NaN number)."""
    values = {}
    for p in points.tolist():
        try:
            values[p] = np.asarray(fn(p)).tolist()
        except RelaxkitError:
            pass
    assume(values)
    grid = fn(np.array(list(values)))
    assert np.array_equal(grid, np.array(list(values.values())), equal_nan=equal_nan)


def route_body(route, alpha, mu, nu):
    """E[alpha, mu; nu](-x) by one route body, for a number (a 1-element array, as
    ``_eval_grid`` hands it) or an array of x > 0; AUTO is ``prabhakar_eval``."""
    if route == "auto":
        return lambda v: prabhakar_eval(alpha, mu, nu, v)
    if route == "prabhakar_rational":
        body = lambda x: np.array(  # noqa: E731
            [prabhakar_rational(RationalOrder.from_float(alpha), mu, nu, p) for p in x.tolist()]
        )
    elif route == "_kummer":
        body = lambda x: specfun._kummer(mu, nu, x)  # noqa: E731
    else:
        body = lambda x: getattr(specfun, route)(alpha, mu, nu, x)  # noqa: E731

    def value(v):
        with np.errstate(over="ignore", invalid="ignore"):
            out = body(np.atleast_1d(np.asarray(v, dtype=float)))
        out = out[0] if route == "_series" else out  # (value, cancellation)
        return out if np.ndim(v) else out[0]

    return value


@settings(max_examples=150, deadline=None)
@given(
    route=st.sampled_from(("auto", "_series", "_contour", "_asymptotic", "_kummer", "prabhakar_rational")),
    alpha=st.sampled_from((0.25, 1 / 3, 0.5, 0.6, 0.75, 1.0)) | st.floats(0.3, 1.0),
    mu=st.floats(-2.5, 3.0),
    nu=st.floats(-2.0, 3.0) | st.floats(20.0, 60.0),
    log_x=st.floats(-3.0, 3.5),
)
@example(route="prabhakar_rational", alpha=0.25, mu=5e-324, nu=1.0, log_x=0.0)
@example(route="auto", alpha=1.0, mu=2.225073858507e-311, nu=20.0, log_x=0.0)
def test_a_number_equals_its_grid_element_on_every_route(route, alpha, mu, nu, log_x):
    # a number is a 1-element grid: every route body, mu < 0 and nu < 0 included
    # (the contour only for mu >= 0, where it has a Laplace image, and Kummer's
    # transformation only for mu > 0, where the route takes it)
    if route == "_contour":
        assume(mu >= 0.0)
    x = 10.0 ** np.linspace(log_x - 1.5, log_x, 9)
    if route == "_kummer":
        assume(mu > 0.0)
        x = x[(x <= 690.0) & ((mu >= nu) | ((nu - mu) * x <= min(36.0, 1e300 * mu)))]
    if route in ("auto", "prabhakar_rational"):
        x = np.concatenate([[0.0], x])
    # the expansion body returns NaN where it misses its tolerance
    assert_numbers_equal_grid_elements(
        route_body(route, alpha, mu, nu), x, equal_nan=(route == "_asymptotic")
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("debye", "cc", "cd", "mcd", "hn", "jws", "kww")),
    alpha=st.floats(0.3, 0.95),
    beta=st.floats(0.25, 0.95),
    log_tau=st.floats(-2.0, 2.0),
)
def test_a_number_equals_its_grid_element_for_time_functions_and_kernels(kind, alpha, beta, log_tau):
    a = alpha if kind in ("cc", "hn", "jws", "kww") else 1.0
    b = beta if kind in ("cd", "mcd", "hn", "jws") else 1.0
    spec = ModelSpec(kind, alpha=a, beta=b, tau=10.0**log_tau)
    t = np.logspace(-3, 3, 13) * spec.tau
    assert_numbers_equal_grid_elements(lambda u: relaxation(spec, u), t)
    assert_numbers_equal_grid_elements(lambda u: response(spec, u), t)
    if kind == "kww":
        return
    cfg = KernelConfig(spec)
    for which in ("M", "k"):
        assert_numbers_equal_grid_elements(
            lambda u: np.stack(memory_time_with_bound(cfg, u, which), axis=-1), t
        )


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("debye", "cc", "cd", "mcd", "hn", "jws", "kww")),
    alpha=st.floats(0.3, 0.95),
    beta=st.floats(0.25, 0.95),
    log_tau=st.floats(-3.0, 3.0),
)
def test_grid_relaxation_and_response_match_scalar_calls(kind, alpha, beta, log_tau):
    a = alpha if kind in ("cc", "hn", "jws", "kww") else 1.0
    b = beta if kind in ("cd", "mcd", "hn", "jws") else 1.0
    spec = ModelSpec(kind, alpha=a, beta=b, tau=10.0**log_tau)
    t = np.logspace(-3, 3, 40) * spec.tau
    assert_grid_matches_points(lambda u: relaxation(spec, u), t)
    assert_grid_matches_points(lambda u: response(spec, u), t)


@pytest.mark.parametrize(
    "kind, alpha, beta", [("hn", 0.95, 0.35), ("hn", 0.3, 0.675), ("cc", 0.9, 1.0)]
)
def test_grid_matches_scalar_where_rounding_is_magnified(kind, alpha, beta):
    # long-time HN relaxation 1 - x**(alpha beta) E cancels to ~1e-3, and
    # near-handoff series cancel to ~1e3: last-bit differences would show
    spec = ModelSpec(kind, alpha=alpha, beta=beta)
    t = np.logspace(-3, 3, 40)
    assert_grid_matches_points(lambda u: relaxation(spec, u), t)
    assert_grid_matches_points(lambda u: response(spec, u), t)


@pytest.mark.parametrize(
    "alpha, mu, nu",
    [
        (0.6, 1.0, 0.5),  # series, contour, asymptotic
        (0.4, 0.4, 3.0),  # series cancellation up to ~1e4 below the handoff
        (0.5, 0.25, 0.5),  # mu = alpha nu on rational alpha: pole collision
        (0.7, -1.0, 0.8),  # mu < 0: series up to u = 25, then the expansion
        (0.6, 0.0, -0.5),  # kernel index family, nu < 0
        (0.6, 0.0, -2.0),  # (nu)_j terminates
        (0.5, 12.0, 24.0),  # large nu: cancellation-dominated points skip to the image
        (1.0, 1.0, 0.4),  # alpha = 1: Kummer
        (1.0, 0.6, 3.0),  # alpha = 1, mu < nu: Kummer only while (nu - mu) x <= 36
    ],
)
def test_grid_prabhakar_matches_scalar_calls_on_every_route(alpha, mu, nu):
    # u = x**(1/alpha) switches route at 5, 25 and 50, and x = 500 ends the
    # pole-collision exclusion: sample densely around each
    u = np.concatenate([np.linspace(4.3, 5.2, 19), np.linspace(24, 26, 5), np.linspace(48, 52, 5)])
    x = np.concatenate([[0.0], np.logspace(-3, 3.5, 53), u**alpha, np.linspace(490, 510, 5)])
    assert_grid_matches_points(lambda v: prabhakar_eval(alpha, mu, nu, v), x)


def test_auto_meets_the_50_digit_value_where_series_and_contour_once_disagreed():
    # the series cancels by 2.7e6 here and read 3.17147934705e-05, 1.1e-8
    # relative off; AUTO raised StrategyDisagreement against the contour, which
    # has the 50-digit value
    exact = 3.1714793117e-05
    assert prabhakar_eval(0.6, 5.1, 8.5, 2.5735) == pytest.approx(exact, rel=1e-10, abs=0.0)
    grid = prabhakar_eval(0.6, 5.1, 8.5, np.array([0.1, 1.0, 2.5735, 10.0]))
    assert grid[2] == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_grid_shapes():
    x = np.logspace(-2, 2, 12).reshape(3, 4)
    values = prabhakar_eval(0.5, 1.0, 1.0, x)
    assert values.shape == (3, 4)
    assert values.tolist() == [[prabhakar_eval(0.5, 1.0, 1.0, v) for v in row] for row in x.tolist()]


def test_relaxation_grid_at_zero_is_one():
    for spec in (
        ModelSpec("debye"),
        ModelSpec("cc", alpha=0.6),
        ModelSpec("cd", beta=0.4),
        ModelSpec("mcd", beta=0.4),
        ModelSpec("hn", alpha=0.6, beta=0.5),
        ModelSpec("jws", alpha=0.6, beta=0.5),
        ModelSpec("kww", alpha=0.6),
    ):
        n = relaxation(spec, np.array([0.0, 0.5, 0.0, 2.0]))
        assert n[0] == n[2] == 1.0
        assert n[1] == relaxation(spec, 0.5)


def test_negative_times_raise_domain_error():
    spec = ModelSpec("hn", alpha=0.6, beta=0.5)
    with pytest.raises(DomainError):
        relaxation(spec, np.array([1.0, -1e-3, 2.0]))
    with pytest.raises(DomainError):
        response(spec, np.array([1.0, -1e-3, 2.0]))
    with pytest.raises(DomainError):
        response(spec, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        prabhakar_eval(0.6, 1.0, 0.5, np.array([1.0, -2.0]))


@pytest.mark.parametrize(
    "mu, nu, x",
    [
        (1.0, 0.4, 1e-3),
        (1.0, 0.4, 100.0),
        (1.0, 0.4, 690.0),
        (0.4, 0.4, 5.0),
        (2.5, 1.3, 50.0),
        (1.6, -0.6, 300.0),
        (0.6, -0.4, 690.0),
        (0.3, 1.0, 51.0),
        (1.0, 5.0, 9.0),
        (3.0, 7.5, 8.0),
    ],
)
def test_kummer_route_matches_mpmath(mu, nu, x):
    assert mu > 0.0 and x <= 690.0 and (mu >= nu or (nu - mu) * x <= 36.0)
    with mpmath.workdps(40):
        exact = float(mpmath.hyp1f1(nu, mu, -x) / mpmath.gamma(mu))
    assert specfun._kummer(mu, nu, x) == pytest.approx(exact, rel=1e-11)
    assert prabhakar_eval(1.0, mu, nu, np.array([x]))[0] == pytest.approx(exact, rel=1e-11)
