"""The in-house gamma-type functions against 40-digit mpmath: 1/Gamma, the regularized upper
incomplete gamma function Q(s, x), Gamma(-b, x) through the cd memory kernel, and the
alpha = 1 Kummer route."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxkit import KernelConfig, ModelSpec, memory_k_time, specfun
from relaxkit.exceptions import DomainError
from relaxkit.specfun import prabhakar_eval


@settings(max_examples=300, deadline=None)
@given(s=st.floats(-170.5, 171.5) | st.integers(-170, 0).map(float))
@example(s=-170.5)
@example(s=171.5)
@example(s=5e-324)
def test_rgamma_matches_mpmath(s):
    with mpmath.workdps(40):
        exact = float(mpmath.rgamma(s))
    got = specfun._rgamma(s)
    if exact == 0.0:  # a pole
        assert got == 0.0
    else:
        assert got == pytest.approx(exact, rel=1e-14, abs=0.0)
    # a row gives each element exactly as a number does, poles included
    row = s + np.arange(-3.0, 4.0) if abs(s) < 160.0 else np.array([s])
    assert np.array_equal(specfun._rgamma_row(row), [specfun._rgamma(v) for v in row.tolist()])


@settings(max_examples=100, deadline=None)
@given(s=st.floats(0.0, 1.0, exclude_min=True), log_x=st.floats(-300.0, 3.0))
@example(s=1e-300, log_x=0.0)
@example(s=1.0, log_x=math.log10(1.5))
@example(s=0.001, log_x=math.log10(1.49))
def test_gammaincc_matches_mpmath(s, log_x):
    x = 10.0**log_x
    with mpmath.workdps(40):
        exact = float(mpmath.gammainc(s, x) * mpmath.rgamma(s))
    # past x = 700 Q leaves the normal range, where only its absolute size is kept
    assert specfun._gammaincc(s, np.array([x]))[0] == pytest.approx(exact, rel=3e-14, abs=1e-300)


@pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 7.3, 20.2])
def test_gammaincc_above_one_matches_mpmath(s):
    # cd n with beta > 1 (allow_unphysical): Q(f, x) plus positive terms, f = s - n
    x = np.array([1e-3, 0.1, 1.0, 1.49, 1.5, 3.0, 10.0, 30.0, 100.0, 300.0, 700.0])
    with mpmath.workdps(40):
        exact = [float(mpmath.gammainc(s, v) * mpmath.rgamma(s)) for v in x]
    got = specfun._gammaincc(s, x).tolist()
    assert got == pytest.approx(exact, rel=3e-14, abs=1e-300)


@pytest.mark.parametrize("s", [0.0, -0.5])
def test_gammaincc_rejects_a_nonpositive_s(s):
    with pytest.raises(DomainError):
        specfun._gammaincc(s, np.array([1.0]))


@pytest.mark.parametrize("b", [1.5, 2.0, 3.0])
def test_cd_k_kernel_rejects_beta_above_one(b):
    # Gamma(-b, x) is taken for -1 < -b < 0 only; beyond, the kernel raises rather
    # than read the series outside its range
    spec = ModelSpec("cd", beta=b, allow_unphysical=True)
    with pytest.raises(DomainError):
        memory_k_time(KernelConfig(spec), np.array([0.5, 3.0]))


@pytest.mark.parametrize("b", [0.3, 0.5, 0.9])
def test_cd_k_kernel_holds_relative_precision_at_large_t(b):
    # k = Gamma(-b, x) / |Gamma(-b)|: at large x its closed form's two parts cancel
    spec = ModelSpec("cd", beta=b)
    t = np.array([1.0, 20.0, 100.0, 300.0, 600.0])
    with mpmath.workdps(40):
        exact = [float(mpmath.gammainc(-b, v) / abs(mpmath.gamma(-b))) for v in t]
    assert memory_k_time(KernelConfig(spec), t).tolist() == pytest.approx(exact, rel=1e-13, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(
    mu=st.floats(0.01, 3.0),
    nu=st.floats(-2.0, 3.0),
    log_x=st.floats(-3.0, math.log10(690.0)),
)
@example(mu=1.0, nu=0.95, log_x=math.log10(50.0))
@example(mu=1.0, nu=0.999999, log_x=math.log10(60.0))
@example(mu=2.0, nu=1.0, log_x=math.log10(300.0))
def test_kummer_matches_mpmath_over_its_route(mu, nu, log_x):
    x = 10.0**log_x
    if not (mu >= nu or (nu - mu) * x <= 36.0):
        return  # outside the route
    with mpmath.workdps(40):
        exact = float(mpmath.hyp1f1(nu, mu, -x) * mpmath.rgamma(mu))
        # the alternating terms for mu < nu carry rounding of their largest sum
        peak = float(mpmath.exp(-x) * mpmath.hyp1f1(abs(mu - nu), mu, x) * mpmath.rgamma(mu))
    tol = 3e-14 * max(1.0, peak / abs(exact)) if exact else 0.0
    if x >= 50.0 and specfun._expansion_serves(mu, nu):  # there the route takes the expansion
        got = prabhakar_eval(1.0, mu, nu, x)
    else:
        got = specfun._kummer(mu, nu, x)
    assert got == pytest.approx(exact, rel=tol, abs=0.0)
