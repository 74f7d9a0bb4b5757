"""Array paths of the tanh-sinh engine, the Levy density and the Efros building blocks."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxkit import laplace, quadrature, specfun
from relaxkit.exceptions import DomainError, QuadratureFailure
from relaxkit.models import ModelSpec, relaxation
from relaxkit.specfun import levy_stable_density


def hn_exponent(a, b):
    return lambda z: (1.0 + z**a) ** b - 1.0


def x_at(alpha, s_a):
    """The x at which s a(0+) = x**-q alpha**q (1 - alpha) takes the value ``s_a``."""
    q = alpha / (1.0 - alpha)
    return (alpha**q * (1.0 - alpha) / s_a) ** (1.0 / q)


def tail_start(alpha):
    """Smallest x with s a(0+) < 1e-8, where a per-point series loop once took over from the
    quadrature: the array series must still take every point beyond it."""
    return x_at(alpha, 1e-8)


def takes_series(alpha, x):
    """Per point of ``x``, whether the density takes the large-x series."""
    return ~np.isnan(specfun._levy_series(alpha, np.asarray(x, dtype=float) ** -alpha))


def series_switch(alpha):
    """(last s a(0+) that takes the series, first that does not), 1e-9 apart."""
    lo, hi = 1e-3, 3.0
    assert takes_series(alpha, [x_at(alpha, lo), x_at(alpha, hi)]).tolist() == [True, False]
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if takes_series(alpha, [x_at(alpha, mid)])[0] else (lo, mid)
    return lo, hi


def assert_matches_scalar_calls(fn, points):
    grid = fn(points)
    assert isinstance(grid, np.ndarray) and grid.shape == points.shape
    scalar = np.array([fn(float(p)) for p in points.ravel()]).reshape(points.shape)
    assert all(type(fn(float(p))) is float for p in points.ravel()[:2])
    np.testing.assert_allclose(grid, scalar, rtol=1e-14, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.2, 0.95), seed=st.integers(0, 2**16))
def test_levy_density_array_matches_scalar_calls(alpha, seed):
    x_tail = tail_start(alpha)
    rng = np.random.default_rng(seed)
    # from the small-x tail through the quadrature body to past the series switch
    x = 10.0 ** rng.uniform(-1.5, math.log10(x_tail) + 1.0, 24)
    x[:2] = x_tail * np.array([0.5, 2.0])
    assert (x > x_tail).any() and (x < x_tail).any()
    assert_matches_scalar_calls(lambda v: levy_stable_density(alpha, v), x.reshape(4, 6))


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.2, 0.95), log_t=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16))
def test_subordination_kernel_array_matches_scalar_calls(alpha, log_t, seed):
    u = 10.0 ** np.random.default_rng(seed).uniform(-4.0, 3.0, 20)
    t = 10.0**log_t
    assert_matches_scalar_calls(lambda v: laplace.subordination_kernel(alpha, v, t), u)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.3, 0.5),
    beta=st.floats(0.3, 0.9),
    log_t=st.floats(-0.7, 0.7),
    seed=st.integers(0, 2**16),
)
def test_subordination_pdf_array_matches_scalar_calls(alpha, beta, log_t, seed):
    xi = 10.0 ** np.random.default_rng(seed).uniform(-4.0, 1.5, 20)
    psi, t = hn_exponent(alpha, beta), 10.0**log_t
    assert_matches_scalar_calls(lambda v: laplace.subordination_pdf(psi, v, t), xi)


def test_subordination_pdf_keeps_its_overflow_checks():
    psi = hn_exponent(0.5, 0.5)
    with pytest.raises(QuadratureFailure, match="overflow"):
        laplace.subordination_pdf(lambda z: -psi(z), np.array([1.0, 1e3]), 1.0)
    with pytest.raises(DomainError):
        laplace.subordination_pdf(psi, np.array([1.0, 0.0]), 1.0)


@pytest.mark.parametrize("a, b, t", [(0.45, 0.6, 0.7), (0.6, 0.5, 2.0)])
def test_efros_with_scalar_only_h_equals_array_h(a, b, t):
    psi = hn_exponent(a, b)
    kernel_calls = []

    def kernel(xi, tt):
        kernel_calls.append(xi)
        return laplace.subordination_pdf(psi, xi, tt)

    scalar = laplace.efros_compose(lambda xi: math.exp(-xi), kernel, t, rel_tol=1e-8)
    # the array-capable kernel is adapted on its own: one probe call, one call for levels
    # 0-3, then one per batch of whole further levels, each batch starting where the last
    # one ended, with the nodes of one or both halves on (0, 1)
    assert all(isinstance(x, np.ndarray) for x in kernel_calls)
    assert kernel_calls[0].size == 61
    first = 0
    for x in kernel_calls[1:]:
        lasts = [3] if first == 0 else range(first, quadrature._MAX_LEVEL + 1)
        sizes = {k: quadrature._batch(0.0, 1.0, first, k)[0].size for k in lasts}
        first = 1 + next(k for k, n in sizes.items() if x.size in (n, 2 * n))
    array = laplace.efros_compose(lambda xi: np.exp(-xi), kernel, t, rel_tol=1e-8)
    assert scalar == pytest.approx(array, rel=1e-14, abs=0.0)
    assert array == pytest.approx(relaxation(ModelSpec("hn", a, b), t), abs=1e-9)


@pytest.mark.parametrize("kind, parent", [("hn", "cd"), ("jws", "mcd")])
def test_levy_parent_composition_calls_the_kernel_a_few_times(kind, parent):
    # split at the peak of u k(u), both halves in each call: the probe, levels 0-3, and at
    # most two batches of further levels
    a, b, t = 0.5, 0.5, 1.0
    calls = []

    def kernel(u, tt):
        calls.append(u)
        return laplace.subordination_kernel(a, u, tt)

    spec = ModelSpec(parent, 1.0, b)
    value = laplace.efros_compose(lambda u: relaxation(spec, u), kernel, t, rel_tol=1e-8)
    assert len(calls) <= 4
    assert value == pytest.approx(relaxation(ModelSpec(kind, a, b), t), abs=1e-9)


def test_tanh_sinh_takes_scalar_only_and_zero_dimensional_integrands():
    value, _ = quadrature.tanh_sinh(math.log, 0.0, 1.0)
    assert value == pytest.approx(-1.0, rel=1e-11, abs=0.0)
    value, _ = quadrature.tanh_sinh(lambda u: 1.0, 0.0, 2.0)
    assert value == pytest.approx(2.0, rel=1e-12, abs=0.0)
    value, _ = quadrature.tanh_sinh(lambda u: u if u < 2.0 else 0.0, 0.0, 1.0)
    assert value == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_array_fn_reraises_domain_errors_without_falling_back():
    calls = []

    def strict(x):
        calls.append(x)
        raise DomainError("outside the domain")

    with pytest.raises(DomainError):
        quadrature.tanh_sinh(strict, 0.0, 1.0)
    assert len(calls) == 1


def point_by_point_tanh_sinh(f, a, b, rel_tol, max_level):
    """Reference: the rule one float at a time, level sums in node order; also counts levels."""
    half, levels = 0.5 * (b - a), 0
    estimate = err = math.inf
    for level in range(max_level + 1):
        h = 2.0**-level
        new = 0.0
        for k in range(0 if level == 0 else 1, int(4.2 / h) + 1, 1 if level == 0 else 2):
            t = math.pi / 2.0 * math.sinh(k * h)
            w = math.pi / 2.0 * math.cosh(k * h) / math.cosh(t) ** 2
            off = 2.0 * math.exp(-2.0 * t) / (1.0 + math.exp(-2.0 * t))
            xl, xr = a + half * off, b - half * off
            new += w * ((f(xl) if xl > a else 0.0) + (f(xr) if k > 0 and xl < xr < b else 0.0))
        levels += 1
        prev, estimate = estimate, new * h * half + (0.5 * estimate if level else 0.0)
        err = abs(estimate - prev)
        if level >= 3 and err <= rel_tol * abs(estimate):
            break
    return estimate, err, levels


def levels_of_call(a, b, first_node, size):
    """The levels whose nodes on (a, b) make up an integrand call of the adaptive engine.

    A call holds the nodes of whole consecutive levels, so its first node, which is the
    first node of exactly one level (the centre at level 0, the innermost left node after
    it), tells the first level, and its size the last.
    """
    first = next(k for k in range(quadrature._MAX_LEVEL + 1)
                 if quadrature._nodes(a, b, k)[0][0] == first_node)
    last, n = first, quadrature._nodes(a, b, first)[0].size
    while n < size:
        last += 1
        n += quadrature._nodes(a, b, last)[0].size
    return range(first, last + 1)


def call_levels(a, b, calls):
    """The levels of each integrand call on (a, b), checked against the nodes of those levels."""
    levels = [levels_of_call(a, b, float(x[0]), x.size) for x in calls]
    for x, r in zip(calls, levels):
        assert x.tolist() == quadrature._batch(a, b, r[0], r[-1])[0].tolist()
    return levels


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
@pytest.mark.parametrize(
    "f, f_array, a, b",
    [
        (lambda x: x**-0.5, lambda x: x**-0.5, 0.0, 1.0),
        (math.log, np.log, 0.0, 2.0),
        (
            lambda x: math.exp(-x) * math.cos(3.0 * x),
            lambda x: np.exp(-x) * np.cos(3.0 * x),
            -1.0,
            4.0,
        ),
        (lambda x: 1.0 / (1e-3 + x * x), lambda x: 1.0 / (1e-3 + x * x), 0.0, 1.0),
    ],
)
def test_engine_matches_the_point_by_point_rule(f, f_array, a, b, rel_tol):
    calls = []

    def counted(x):
        calls.append(x)
        return f_array(x)

    value, err = quadrature.tanh_sinh(counted, a, b, rel_tol=rel_tol)
    ref_value, ref_err, levels = point_by_point_tanh_sinh(f, a, b, rel_tol, 12)
    # the same levels, one array call for levels 0-3 and one for each batch of later levels,
    # the last of which holds the stop level; the level sums differ only in summation order
    sampled = call_levels(a, b, calls)
    assert sampled[0] == range(4) and all(p.stop == r.start for p, r in zip(sampled, sampled[1:]))
    assert levels - 1 in sampled[-1] and all(np.ndim(x) == 1 for x in calls)
    assert value == pytest.approx(ref_value, rel=1e-14, abs=0.0)
    assert abs(err - ref_err) <= 1e-14 * abs(ref_value)
    assert quadrature.tanh_sinh(f, a, b, rel_tol=rel_tol)[0] == pytest.approx(value, rel=1e-14, abs=0.0)


def per_level_integrate_rows(f, a, b, n_rows, rel_tol, max_level):
    """Reference: the row engine as it ran before levels 0-3 shared one integrand call, one
    call per level; also returns each row's last level, -1 for a row left at the cap."""
    half = 0.5 * (b - a)
    estimate, err = np.zeros(n_rows), np.full(n_rows, math.inf)
    last = np.full(n_rows, -1)
    active = np.arange(n_rows)
    for level in range(max_level + 1):
        h = 2.0**-level
        x, w, _ = quadrature._nodes(a, b, level)
        new = (np.reshape(f(x, active), (active.size, x.size)) * w).sum(axis=1)
        prev = estimate[active]
        estimate[active] = 0.5 * prev + new * h * half if level else new * h * half
        err[active] = np.abs(estimate[active] - prev) if level else math.inf
        if level >= 3:
            done = err[active] <= rel_tol * np.abs(estimate[active])
            last[active[done]] = level
            active = active[~done]
            if not active.size:
                break
    return estimate, err, last


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, math.pi), (-1.0, 4.0)])
def test_levels_0_to_3_in_one_call_leave_every_sum_unchanged(a, b):
    # rows built from correctly rounded operations only, so a value does not depend on the
    # array it is computed in: a constant, a quadratic, an endpoint singularity, and peaks
    # at the left end, the narrowest of which is still short of tolerance at the cap
    widths = [1.0, 1e-1, 1e-2, 1e-3, 1e-4]

    def rows_fn(x, rows):
        y = (x - a) / (b - a)
        shapes = [np.ones_like(y), 1.0 + y * y, 1.0 / np.sqrt(y)]
        return np.array([shapes[r] if r < 3 else 1.0 / (widths[r - 3] + y * y) for r in rows])

    n_rows, max_level = 3 + len(widths), 5
    ref_value, ref_err, last = per_level_integrate_rows(rows_fn, a, b, n_rows, 1e-12, max_level)
    assert 3 in last and ((last > 3) & (last < max_level)).any() and -1 in last
    value, err = quadrature._integrate_rows(rows_fn, a, b, n_rows, 1e-12, max_level)
    assert value.tolist() == ref_value.tolist() and err.tolist() == ref_err.tolist()


def test_rows_stop_at_their_own_levels():
    # row 0 is a polynomial, row 1 a sharp peak at 0 that needs more levels
    seen = []

    def rows_fn(x, rows):
        seen.append((rows.tolist(), levels_of_call(0.0, 1.0, float(x[0]), x.size)))
        return np.array([1.0 + x * x if r == 0 else 1.0 / (1e-4 + x * x) for r in rows])

    value, err = quadrature._integrate_rows(rows_fn, 0.0, 1.0, 2, 1e-12, 12)
    joint = list(seen)
    last = per_level_integrate_rows(rows_fn, 0.0, 1.0, 2, 1e-12, 12)[2]
    assert last[0] < last[1]
    for r in (0, 1):
        seen.clear()
        alone = quadrature._integrate_rows(
            lambda x, rows: rows_fn(x, np.array([r])), 0.0, 1.0, 1, 1e-12, 12
        )
        assert (value[r], err[r]) == (alone[0][0], alone[1][0])
        # a row is sampled up to the call that holds its stop level, and by no later call
        for calls in (joint, seen):
            mine = [levels for rows, levels in calls if r in rows]
            assert last[r] in mine[-1] and mine == [levels for _, levels in calls][:len(mine)]
    assert value == pytest.approx([4.0 / 3.0, 100.0 * math.atan(100.0)], rel=1e-12, abs=0.0)


def peaks(widths):
    """Rows 1 / (width + x**2) on (0, 1), built from correctly rounded operations only."""
    return lambda x, rows: np.array([1.0 / (widths[r] + x * x) for r in rows])


def test_rows_stopping_at_three_levels_of_one_batch_match_the_per_level_engine():
    # the narrowest peak has the batch after levels 0-3 span levels 4-6; the three rows
    # stop at 4, 5 and 6 inside it
    rows_fn, seen = peaks([1.0, 0.03, 1e-4]), []

    def counted(x, rows):
        seen.append(levels_of_call(0.0, 1.0, float(x[0]), x.size))
        return rows_fn(x, rows)

    value, err = quadrature._integrate_rows(counted, 0.0, 1.0, 3, 1e-12, 12)
    ref_value, ref_err, last = per_level_integrate_rows(rows_fn, 0.0, 1.0, 3, 1e-12, 12)
    assert seen == [range(0, 4), range(4, 7)] and last.tolist() == [4, 5, 6]
    assert value.tolist() == ref_value.tolist() and err.tolist() == ref_err.tolist()


@pytest.mark.parametrize("failure", ["non-finite", "error"])
def test_a_failure_at_a_level_no_row_reaches_does_not_fail_the_run(failure):
    # this row stops at level 5 of a batch of levels 4-6; the per-level engine never samples
    # level 6, where the integrand returns inf or raises
    rows_fn, seen = peaks([1e-5]), []

    def failing(x, rows):
        seen.append(levels_of_call(0.0, 1.0, float(x[0]), x.size))
        values = rows_fn(x, rows)
        if 6 in seen[-1]:
            if failure == "error":
                raise DomainError("level 6 is outside the integrand's domain")
            start = sum(quadrature._nodes(0.0, 1.0, k)[0].size for k in seen[-1] if k < 6)
            values[:, start:start + quadrature._nodes(0.0, 1.0, 6)[0].size] = np.inf
        return values

    value, err = quadrature._integrate_rows(failing, 0.0, 1.0, 1, 1e-10, 12)
    ref_value, ref_err, last = per_level_integrate_rows(rows_fn, 0.0, 1.0, 1, 1e-10, 12)
    assert last.tolist() == [5] and seen[:2] == [range(0, 4), range(4, 7)]
    # a call that raised is made again one level per call
    assert seen[2:] == ([range(4, 5), range(5, 6)] if failure == "error" else [])
    assert value.tolist() == ref_value.tolist() and err.tolist() == ref_err.tolist()
    with pytest.raises(DomainError if failure == "error" else QuadratureFailure):
        quadrature._integrate_rows(failing, 0.0, 1.0, 1, 1e-13, 12)


@pytest.mark.parametrize(
    "a, b, rel_tol",
    [
        (0.0, math.inf, 1e-10),
        (-math.inf, 0.0, 1e-10),
        (0.0, math.nan, 1e-10),
        (0.0, 1.0, math.nan),
        (0.0, 1.0, math.inf),
        (0.0, 1.0, -1e-10),
    ],
)
def test_tanh_sinh_rejects_non_finite_endpoints_and_bad_tolerances(a, b, rel_tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            quadrature.tanh_sinh(lambda x: 1.0 / (1e-3 + x * x), a, b, rel_tol)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1e-9])
def test_efros_and_forward_laplace_reject_bad_tolerances(rel_tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            laplace.efros_compose(
                lambda u: np.exp(-u), lambda u, t: laplace.subordination_kernel(0.5, u, t), 1.0,
                rel_tol=rel_tol,
            )
        with pytest.raises(DomainError):
            laplace.forward_laplace(lambda t: np.exp(-t), 1.0, rel_tol=rel_tol)


def test_row_blocks_stay_within_the_block_size():
    shapes = []

    def rows_fn(x, rows):
        shapes.append((rows.size, x.size))
        return np.exp(-np.multiply.outer(rows + 1.0, x))

    value, _ = quadrature._integrate_rows(rows_fn, 0.0, 1.0, 400, 1e-12, 12)
    assert len({n for _, n in shapes}) < len(shapes)  # some level took several blocks
    assert all(r * n <= quadrature._BLOCK or r == 1 for r, n in shapes)
    k = np.arange(1.0, 401.0)
    np.testing.assert_allclose(value, -np.expm1(-k) / k, rtol=1e-13)


def test_a_non_finite_value_in_one_row_raises():
    def rows_fn(x, rows):
        out = np.ones((rows.size, x.size))
        out[rows == 1, 0] = np.inf
        return out

    with pytest.raises(QuadratureFailure, match="non-finite"):
        quadrature._integrate_rows(rows_fn, 0.0, 1.0, 3, 1e-10, 8)


def test_a_row_that_cannot_converge_raises_beside_converged_rows():
    # row 1 oscillates far faster than level 6 resolves
    def rows_fn(x, rows):
        return np.array([np.ones_like(x) if r == 0 else np.sin(1e4 * x) for r in rows])

    with pytest.raises(QuadratureFailure, match="did not converge"):
        quadrature._integrate_rows(rows_fn, 0.0, 1.0, 2, 1e-10, 6)


def test_levy_density_does_not_depend_on_how_the_array_is_split():
    x = np.logspace(-0.5, 1.0, 300)
    whole = levy_stable_density(0.6, x)
    halves = np.concatenate([levy_stable_density(0.6, x[:150]), levy_stable_density(0.6, x[150:])])
    np.testing.assert_allclose(whole, halves, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.95])
def test_levy_series_points_equal_their_halves_and_scalar_calls_exactly(alpha):
    # from just inside the switch to far out: every point sums its own terms in order
    x = np.geomspace(x_at(alpha, 0.99 * series_switch(alpha)[0]), 1e6 * tail_start(alpha), 200)
    assert takes_series(alpha, x).all()
    whole = levy_stable_density(alpha, x)
    halves = np.concatenate([levy_stable_density(alpha, v) for v in (x[:77], x[77:])])
    assert whole.tolist() == halves.tolist() == [levy_stable_density(alpha, v) for v in x.tolist()]


def test_levy_series_blocks_bound_the_memory_of_a_large_call():
    # 10**6 series points: unblocked, one points x terms array of a single 32-term block
    # would take 256 MB; each per-point array of the call takes 8 MB
    x = np.geomspace(tail_start(0.5), 1e12 * tail_start(0.5), 10**6)
    tracemalloc.start()
    try:
        value = levy_stable_density(0.5, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    some = x[::99_999]
    closed_form = some**-1.5 * np.exp(-0.25 / some) / (2.0 * math.sqrt(math.pi))
    np.testing.assert_allclose(value[::99_999], closed_form, rtol=1e-13, atol=0.0)


def zolotarev_oracle(alpha, x):
    """The Levy density by mpmath.quad over the Zolotarev integral at 30 digits.  (0, pi/2)
    is split in halves; (pi/2, pi) is taken in phi = pi - theta, which keeps sin(theta)
    accurate next to pi, and is split around phi = sin(pi alpha) x**-alpha, where the
    integrand peaks at large x, as narrowly as that.  The factor exp(-s a(0+)) is taken out
    of the integrand, whose largest value is then about a(0+): mpmath.quad stops on an
    absolute error, which would pass at once on an integrand of size e**-(s a(0+))."""
    with mp.workdps(30):
        a, x = mp.mpf(alpha), mp.mpf(x)
        q = a / (1 - a)
        scale = x**-q
        a_left = a**q * (1 - a)

        def integrand(theta, sin_theta):
            angle = mp.sin(a * theta) ** q * mp.sin((1 - a) * theta) / sin_theta ** (1 / (1 - a))
            return angle * mp.exp(-scale * (angle - a_left))

        peak = mp.sin(mp.pi * a) * x**-a
        cuts = {peak * 10**j for j in range(-2, 3) if peak * 10**j < mp.pi / 2}
        cuts = sorted(cuts | {mp.pi / 4})
        left = mp.quad(lambda th: integrand(th, mp.sin(th)), [0, mp.pi / 4, mp.pi / 2])
        right = mp.quad(lambda ph: integrand(mp.pi - ph, mp.sin(ph)), [0] + cuts + [mp.pi / 2])
        prefactor = a / (mp.pi * (1 - a)) * x ** (-1 / (1 - a)) * mp.exp(-scale * a_left)
        return float(prefactor * (left + right))


def series_oracle(alpha, x):
    """The large-x series as an mpmath number at 40 digits, for x so large that its terms
    fall off at once, and the Zolotarev integrand's power-law wing spans too many decades."""
    with mp.workdps(40):
        a, x = mp.mpf(alpha), mp.mpf(x)

        def term(k):
            size = mp.gamma(a * k + 1) / mp.factorial(k) * x ** (-a * k - 1)
            return (-1) ** (k + 1) * mp.sin(mp.pi * k * a) * size

        return mp.nsum(term, [1, mp.inf]) / mp.pi


@pytest.mark.parametrize("alpha", [0.2, 0.45, 0.5, 0.7, 0.9])
def test_levy_density_matches_the_zolotarev_integral_at_30_digits(alpha):
    x_low = x_at(alpha, 30.0)  # where the density is about e**-30
    x_tail = tail_start(alpha)
    last, first = series_switch(alpha)
    # the quadrature's body, a point between it and s a(0+) = 1e-8, both sides of that old
    # switch, where the series must not stop on a term whose sin(pi k alpha) vanishes
    # (alpha = 0.5, 0.9), then both sides of the new switch, where the series cancels most
    x = np.array([x_low, (x_low * x_tail) ** 0.5, 0.9 * x_tail, 1.1 * x_tail])
    x = np.append(x, [x_at(alpha, first), x_at(alpha, last)])
    assert takes_series(alpha, x).tolist() == [False, True, True, True, False, True]
    expected = [zolotarev_oracle(alpha, v) for v in x]
    np.testing.assert_allclose(levy_stable_density(alpha, x), expected, rtol=1e-12, atol=0.0)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.2, 0.95), where=st.floats(0.0, 1.0))
def test_levy_density_matches_the_zolotarev_integral_on_both_routes(alpha, where):
    lo, hi = x_at(alpha, 30.0), 1e3 * tail_start(alpha)
    x = lo * (hi / lo) ** where
    expected = zolotarev_oracle(alpha, x)
    assert levy_stable_density(alpha, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.1, 0.95), s_a=st.floats(2.0, 700.0))
@example(alpha=0.99, s_a=700.0)
def test_theta_route_matches_the_zolotarev_integral_at_small_x(alpha, s_a):
    # s a(0+) up to 700, where the density is about e**-700: the integrand is a spike at
    # theta = 0 whose exponent s (a - a(0+)) must keep its relative accuracy; from s a(0+) = 3
    # on (and below it where the series fails) the density is this quadrature
    x = x_at(alpha, s_a)
    value = specfun._levy_theta(alpha, np.array([x]))[0]
    assert value == pytest.approx(zolotarev_oracle(alpha, x), rel=1e-12, abs=0.0)
    if s_a >= 3.0 or not takes_series(alpha, [x])[0]:
        assert levy_stable_density(alpha, x) == value


def spans_sampled(monkeypatch):
    """The levels of each integrand call of the theta pass, recorded from then on."""
    seen, angles = [], specfun._levy_angles

    def recorded(alpha, span):
        seen.append(span.levels)
        return angles(alpha, span)

    monkeypatch.setattr(specfun, "_levy_angles", recorded)
    return seen


def test_rows_that_miss_level_6_go_one_level_finer(monkeypatch):
    # near alpha = 1 and s a(0+) = 1/2 the level-5 and level-6 sums differ by more than 1e-12
    seen = spans_sampled(monkeypatch)
    x = np.array([x_at(0.99, 0.5), x_at(0.99, 5.0)])
    value = specfun._levy_theta(0.99, x)
    assert seen == [range(7), range(7, 8)]
    seen.clear()
    assert specfun._levy_theta(0.99, x[1:]).tolist() == value[1:].tolist() and seen == [range(7)]
    expected = [zolotarev_oracle(0.99, v) for v in x]
    np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0.0)


def test_theta_pass_blocks_stay_within_the_block_size(monkeypatch):
    shapes, pass_ = [], quadrature._fixed_level_rows

    def recorded(f, *args):
        def g(span, rows):
            values = f(span, rows)
            shapes.append(values.shape)
            return values
        return pass_(g, *args)

    x = x_at(0.6, 1.0) * np.geomspace(1.0, 1e-2, 2000)  # s a(0+) from 1 to about 1000
    monkeypatch.setattr(specfun, "_fixed_level_rows", recorded)
    value = specfun._levy_theta(0.6, x)
    assert len(shapes) > 1 and all(r * n <= quadrature._BLOCK for r, n in shapes)
    # a row's sum is its own: each point alone gives its element of the large call
    alone = [specfun._levy_theta(0.6, x[i:i + 1])[0] for i in range(0, 2000, 199)]
    assert value[::199].tolist() == alone


def test_no_point_past_the_old_tail_switch_reaches_the_quadrature(monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("a point reached the theta quadrature")

    monkeypatch.setattr(specfun, "_fixed_level_rows", no_quadrature)
    for alpha in (0.2, 0.5, 0.8, 0.9, 0.95):
        x = tail_start(alpha) * np.geomspace(1.0, 1e12, 30)
        assert (levy_stable_density(alpha, x) > 0.0).all()


@pytest.mark.parametrize(
    "alpha, x",
    [(0.3, 1e300), (0.9, 1e200), (0.5, math.inf), (0.3, 1e230), (0.9, 1e160), (0.5, 1e200)],
)
def test_levy_density_is_finite_at_huge_x(alpha, x):
    # the first three underflow to 0, the others lie near the bottom of the normal range
    expected = float(series_oracle(alpha, x)) if math.isfinite(x) else 0.0
    assert levy_stable_density(alpha, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "alpha, u, t", [(0.1, 1e-40, 1.0), (0.1, 1e-300, 1.0), (0.5, 1e-200, 2.0), (0.9, 1e-30, 0.5)]
)
def test_subordination_kernel_keeps_its_small_u_limit(alpha, u, t):
    # t Phi(t u**(-1/alpha)) / (alpha u**(1 + 1/alpha)) in mpmath, whose exponents do not
    # overflow; it tends to Gamma(1 + alpha) sin(pi alpha) t**-alpha / (pi alpha)
    with mp.workdps(40):
        u_, t_, a = mp.mpf(u), mp.mpf(t), mp.mpf(alpha)
        expected = float(t_ * series_oracle(alpha, t_ * u_ ** (-1 / a)) / (a * u_ ** (1 + 1 / a)))
    limit = math.gamma(1.0 + alpha) * math.sin(math.pi * alpha) * t**-alpha / (math.pi * alpha)
    assert expected == pytest.approx(limit, rel=1e-8, abs=0.0)
    assert laplace.subordination_kernel(alpha, u, t) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_subordination_kernel_takes_a_t_whose_power_overflows():
    # t**-alpha passes the float range; at u = 1 the density's argument 1e-320 gives 0
    assert laplace.subordination_kernel(0.99, np.array([1.0, 10.0]), 1e-320).tolist() == [0.0, 0.0]


def test_subordination_kernel_at_subnormal_t_and_tiny_u():
    # u**(-1/alpha) passes the float range, x = t u**(-1/alpha) does not; where the kernel
    # itself passes the float range (about 1e316 here) it raises, never warning or giving NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            laplace.subordination_kernel(0.99, 1e-320, 1e-320)
        u, t = 1e-160, 1e-322
        value = laplace.subordination_kernel(0.5, u, t)
    # at alpha = 1/2 the density is x**-1.5 exp(-1/(4x)) / (2 sqrt(pi)); x is about 0.01
    with mp.workdps(30):
        u_, t_ = mp.mpf(u), mp.mpf(t)
        x = t_ / u_**2
        expected = t_ * x**-1.5 * mp.exp(-1 / (4 * x)) / (2 * mp.sqrt(mp.pi)) / (u_**3 / 2)
    assert value == pytest.approx(float(expected), rel=1e-11, abs=0.0)


def test_levy_density_keeps_its_accuracy_where_it_is_subnormal():
    # at alpha = 1/2 the density is x**-1.5 exp(-1/(4x)) / (2 sqrt(pi)), subnormal on
    # about x in (3.31e-4, 3.47e-4): there a float can only come within one subnormal
    # spacing of it, 2e-9 relative at x = 3.4e-4, on top of the 1e-12 relative that
    # holds in the normal range; at x = 3.3e-4 it rounds to 0
    x = np.array([3.3e-4, 3.34e-4, 3.37e-4, 3.4e-4, 3.43e-4, 3.46e-4])
    with mp.workdps(30):
        closed_form = lambda v: v**-1.5 * mp.exp(-1 / (4 * v)) / (2 * mp.sqrt(mp.pi))  # noqa: E731
        exact = [float(closed_form(v)) for v in map(mp.mpf, x)]
    assert exact[0] == 0.0 and all(0.0 < v < np.finfo(float).tiny for v in exact[1:])
    spacing = np.nextafter(0.0, 1.0)
    np.testing.assert_allclose(levy_stable_density(0.5, x), exact, rtol=1e-12, atol=spacing)


def test_levy_density_does_not_depend_on_earlier_calls():
    x = np.logspace(-1.0, 1.5, 40)
    first = levy_stable_density(0.6, x)
    for alpha in np.linspace(0.2, 0.9, 40):  # more (alpha, level) pairs than the caches hold
        levy_stable_density(alpha, x)
    assert levy_stable_density(0.6, x).tolist() == first.tolist()
    for cached in (specfun._levy_angles, specfun._levy_series_table, quadrature._nodes,
                   quadrature._batch):
        info = cached.cache_info()
        assert info.currsize <= info.maxsize == 64
    # the angle factors are keyed by the span of an integrand call of the theta pass, levels
    # 0-6 or one finer level on (0, pi), whose nodes are those levels' one after the other
    for levels in [range(7)] + [range(k, k + 1) for k in range(7, specfun._LEVY_MAX_LEVEL + 1)]:
        span = quadrature._Span(0.0, math.pi, levels)
        for i, v in enumerate(span.nodes()):
            parts = [quadrature._nodes(0.0, math.pi, k)[i] for k in levels]
            assert v.tolist() == np.concatenate(parts).tolist() and not v.flags.writeable
        again = quadrature._Span(0.0, math.pi, levels)
        assert specfun._levy_angles(0.6, span) is specfun._levy_angles(0.6, again)


def test_node_distances_are_the_offsets_from_the_nearer_endpoint():
    for a, b in ((0.0, math.pi), (-1.0, 4.0)):
        for level in (0, 3, 9):
            x, w, dist = quadrature._nodes(a, b, level)
            assert x.size == w.size == dist.size and (dist > 0.0).all()
            # x itself is rounded to the spacing of the endpoints' size
            ulp = 4.5e-16 * max(abs(a), abs(b))
            np.testing.assert_allclose(dist, np.minimum(x - a, b - x), rtol=0.0, atol=ulp)
            if a == 0.0:
                assert (dist[x < 0.5 * b] == x[x < 0.5 * b]).all()
            assert not x.flags.writeable and not dist.flags.writeable
