"""Special-function layer: Prabhakar evaluation strategies, pFq, Levy density."""

import math

import numpy as np
import pytest
from scipy import special as sc
from scipy.integrate import quad

from relaxkit import specfun
from relaxkit.exceptions import DomainError, NonConvergent
from relaxkit.models import ModelSpec, relaxation
from relaxkit.specfun import (
    PrabhakarParams,
    RationalOrder,
    hyper_pfq,
    levy_stable_density,
    pochhammer,
    prabhakar,
    prabhakar_derivative,
    prabhakar_eval,
    prabhakar_rational,
)



def series_and_contour(alpha, mu, nu, x):
    """E[alpha, mu; nu](-x) on an array of x > 0 by the contour body, and by the series body
    where x**(1/alpha) <= 10 (NaN elsewhere)."""
    near, series = x ** (1.0 / alpha) <= 10.0, np.full(x.size, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        series[near] = specfun._series(alpha, mu, nu, x[near])[0]
        return series, specfun._contour(alpha, mu, nu, x)


# ---------------------------------------------------------------------------
# pochhammer
# ---------------------------------------------------------------------------


def rising_product(c, r):
    out = 1.0
    for j in range(r):
        out *= c + j
    return out


def test_pochhammer_factorial():
    assert pochhammer(1.0, 5) == 120.0


def test_pochhammer_empty_product():
    assert pochhammer(0.5, 0) == 1.0


def test_pochhammer_third():
    # (1/3)(4/3)(7/3) = 28/27
    assert pochhammer(1.0 / 3.0, 3) == pytest.approx(rising_product(1.0 / 3.0, 3), rel=1e-15)
    assert pochhammer(1.0 / 3.0, 3) == pytest.approx(28.0 / 27.0, rel=1e-14)


def test_pochhammer_negative_integer_terminates():
    assert pochhammer(-3.0, 5) == 0.0


def test_pochhammer_overflow_warns():
    with pytest.warns(RuntimeWarning):
        assert math.isinf(pochhammer(300.0, 200))


# ---------------------------------------------------------------------------
# hyper_pfq
# ---------------------------------------------------------------------------


def test_pfq_geometric():
    assert hyper_pfq([1.0], [], 0.5) == pytest.approx(2.0, rel=1e-13)


def test_pfq_at_zero_is_one():
    assert hyper_pfq([0.3, 1.7], [2.2], 0.0) == 1.0


def test_pfq_confluent_against_brute_force():
    # oracle: 200 explicit terms of sum (0.5)_r (-1)^r / ((1)_r r!), built by
    # term recursion to dodge factorial overflow
    total = 0.0
    term = 1.0
    for r in range(200):
        total += term
        term *= (0.5 + r) * (-1.0) / ((1.0 + r) * (r + 1.0))
    assert hyper_pfq([0.5], [1.0], -1.0) == pytest.approx(total, rel=1e-13)


def test_pfq_terminating_numerator_exact():
    # 1F0(-3; ; 2) = (1 - 2)^3 = -1, exact despite |x| >= 1
    assert hyper_pfq([-3.0], [], 2.0) == pytest.approx(-1.0, rel=1e-14)


def test_pfq_divergent_domain_error():
    with pytest.raises(DomainError):
        hyper_pfq([0.5, 1.0], [1.5], 1.2)


def test_pfq_too_many_numerators():
    with pytest.raises(DomainError):
        hyper_pfq([0.5, 1.0, 1.5], [2.0], 0.1)


def test_pfq_denominator_pole():
    with pytest.raises(DomainError):
        hyper_pfq([0.5], [-2.0], 0.3)


# ---------------------------------------------------------------------------
# prabhakar
# ---------------------------------------------------------------------------


def test_prabhakar_exponential_reduction():
    assert prabhakar(PrabhakarParams(1.0, 1.0, 1.0), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_prabhakar_at_zero():
    for mu in (0.25, 1.0, 1.7):
        assert prabhakar(PrabhakarParams(0.6, mu, 0.9), 0.0) == pytest.approx(
            1.0 / math.gamma(mu), rel=1e-14
        )


def test_prabhakar_erfc_oracle():
    # E_{1/2}(-x) = exp(x^2) erfc(x); cross-checked against a 300-term series
    oracle = math.e * float(sc.erfc(1.0))
    series_oracle = sum(
        (-1.0) ** r / math.gamma(0.5 * r + 1.0) for r in range(300)
    )
    assert oracle == pytest.approx(series_oracle, rel=1e-13)
    assert prabhakar(PrabhakarParams(0.5, 1.0, 1.0), 1.0) == pytest.approx(oracle, rel=1e-12)


def test_prabhakar_debye_reduction_tight():
    # exp(-x) to 1e-12 relative across [0, 20]
    p = PrabhakarParams(1.0, 1.0, 1.0)
    for x in np.linspace(0.0, 20.0, 50):
        assert prabhakar(p, float(x)) == pytest.approx(math.exp(-float(x)), rel=1e-12)


def test_prabhakar_rejects_negative_argument():
    with pytest.raises(DomainError):
        prabhakar(PrabhakarParams(0.5, 1.0, 1.0), -0.1)


def test_prabhakar_params_validation():
    with pytest.raises(DomainError):
        PrabhakarParams(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        PrabhakarParams(0.5, 1.0, -1.0)
    assert PrabhakarParams(0.5, 0.3, 0.5).in_cm_regime()
    assert not PrabhakarParams(0.5, 0.2, 0.5).in_cm_regime()  # mu below alpha*nu
    assert not PrabhakarParams(0.5, 1.2, 0.5).in_cm_regime()  # prefactor grows


def test_strategy_agreement_overlap_windows():
    # power series / contour / rational reduction pairwise within 1e-8
    # wherever each is valid (series and rational: x**(1/alpha) <= 10)
    orders = [RationalOrder(1, 3), RationalOrder(1, 2), RationalOrder(2, 3), RationalOrder(3, 4)]
    xs = np.logspace(-2, 2, 10)
    for order in orders:
        a = order.alpha
        for beta in (1.0 / 3.0, 0.5, 1.0):
            for mu in (a * beta, 1.0, 1.0 + a * beta):
                series, contour = series_and_contour(a, mu, beta, xs)
                for i, x in enumerate(xs.tolist()):
                    values = [contour[i]]
                    if not np.isnan(series[i]):
                        values.append(series[i])
                        values.append(prabhakar_rational(order, mu, beta, x))
                    scale = max(abs(v) for v in values)
                    for i in range(len(values)):
                        for j in range(i + 1, len(values)):
                            assert abs(values[i] - values[j]) <= 1e-8 * scale


def test_rational_order_validation():
    with pytest.raises(DomainError):
        RationalOrder(2, 4)
    with pytest.raises(DomainError):
        RationalOrder(3, 2)
    assert RationalOrder.from_float(0.75).k == 4
    with pytest.raises(DomainError):
        RationalOrder.from_float(0.123456789)


def test_rational_exponential_case():
    assert prabhakar_rational(RationalOrder(1, 1), 1.0, 1.0, 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-13
    )


def test_rational_matches_auto():
    for (mu, nu, x) in ((1.0, 1.0, 0.5), (0.5, 0.5, 0.3)):
        direct = prabhakar(PrabhakarParams(0.5, mu, nu), x)
        reduced = prabhakar_rational(RationalOrder(1, 2), mu, nu, x)
        assert reduced == pytest.approx(direct, rel=1e-10)


def test_rational_convergence_safeguard():
    with pytest.raises(DomainError):
        prabhakar_rational(RationalOrder(1, 2), 1.0, 1.0, 50.0)


@pytest.mark.parametrize("alpha", [1 / 4, 1 / 3, 1 / 2, 3 / 5, 3 / 4])
def test_rational_reduction_matches_mpmath_at_the_poles_of_gamma(alpha):
    # for mu <= 0, 1/Gamma(mu + j l/k) vanishes where the summand's pFq has a pole
    # in step; folded into the terms, their product stays finite, as it must
    x = [0.1, 1.0]
    order = RationalOrder.from_float(alpha)
    for mu in (-1.5, -1.0, -0.5, 0.0, 5e-324, 0.5, 1.0, 1.75):
        for nu in (0.5, 1.0, 2.0):
            exact = np.array([float(v) for v in mp_prabhakar(alpha, mu, nu, x, 40)])
            value = np.array([prabhakar_rational(order, mu, nu, v) for v in x])
            assert np.all(np.abs(value - exact) <= 1e-12 * np.maximum(np.abs(exact), 1.0))
    if alpha == 1 / 4:
        assert prabhakar_rational(order, 0.0, 1.0, 1.0) == pytest.approx(
            -0.06382225757900062, rel=1e-12
        )


# ---------------------------------------------------------------------------
# derivative via index shift
# ---------------------------------------------------------------------------


def test_derivative_exponential():
    p = PrabhakarParams(1.0, 1.0, 1.0)
    assert prabhakar_derivative(p, -1.0, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-12)


def test_derivative_matches_central_difference():
    p = PrabhakarParams(0.5, 1.0, 1.0)
    h = 1e-5

    def base(x):
        return x ** (p.mu - 1.0) * prabhakar(p, x**p.alpha)

    fd = (base(1.0 + h) - base(1.0 - h)) / (2.0 * h)
    assert prabhakar_derivative(p, -1.0, 1.0) == pytest.approx(fd, rel=1e-6)


def test_derivative_zero_scale_power_rule():
    p = PrabhakarParams(0.7, 1.4, 0.9)
    expected = (p.mu - 1.0) * 2.0 ** (p.mu - 2.0) / math.gamma(p.mu)
    assert prabhakar_derivative(p, 0.0, 2.0) == pytest.approx(expected, rel=1e-13)


def test_derivative_rejects_positive_scale():
    with pytest.raises(DomainError):
        prabhakar_derivative(PrabhakarParams(0.5, 1.0, 1.0), 1.0, 1.0)


# ---------------------------------------------------------------------------
# complete monotonicity and asymptotic windows
# ---------------------------------------------------------------------------


def test_cm_sign_pattern_index_shift():
    # h(t) = t**(mu-1) E(-t**alpha) with alpha*nu <= mu <= 1: h >= 0, h' <= 0
    # (derivatives through the analytic index shift, not finite differences)
    for (a, mu, nu) in ((0.6, 0.5, 0.5), (0.5, 0.6, 0.8), (0.8, 0.9, 0.7)):
        p = PrabhakarParams(a, mu, nu)
        assert p.in_cm_regime()
        for t in np.logspace(-2, 1, 50):
            t = float(t)
            h = t ** (mu - 1.0) * prabhakar(p, t**a)
            hp = prabhakar_derivative(p, -1.0, t)
            assert h >= 0.0
            assert hp <= 0.0


@pytest.mark.parametrize(
    "alpha, mu, nu, u",
    [
        (1.0, -1.0, 0.4, 18.0),  # the mcd n'' index family
        (1.0, -1.0, 0.9, 40.0),
        (0.6, -0.7, 0.5, 22.0),  # hn n'': mu = alpha nu - 1
        (0.75, -1.0, 0.9, 30.0),
        (0.5, -0.75, 0.5, 45.0),
        (0.9, -0.19, 0.9, 35.0),
    ],
)
def test_negative_mu_where_the_series_cancels_matches_mpmath(alpha, mu, nu, u):
    # u = x**(1/alpha) in (15, 50): the series cancels like exp(u) and the
    # expansion stalls; the recurrence in mu takes over from the series
    import mpmath

    x = u**alpha
    with mpmath.workdps(70):
        z, a = -mpmath.mpf(x), mpmath.mpf(alpha)
        exact = mpmath.nsum(
            lambda j: mpmath.rf(nu, j) * z**j / mpmath.factorial(j) * mpmath.rgamma(a * j + mu),
            [0, mpmath.inf],
        )
    assert prabhakar_eval(alpha, mu, nu, x) == pytest.approx(float(exact), rel=1e-9)


def mp_prabhakar(alpha, mu, nu, xs, dps):
    """E[alpha, mu; nu](-x) at each x of ``xs`` by the defining series at ``dps``
    digits (enough for its cancellation, about exp(x**(1/alpha))), with the
    coefficients summed until they are negligible at the largest x."""
    import mpmath

    with mpmath.workdps(dps):
        a, mu, nu = mpmath.mpf(alpha), mpmath.mpf(mu), mpmath.mpf(nu)
        top = -mpmath.mpf(max(xs))
        coeffs, poch, total, j = [], mpmath.mpf(1), mpmath.mpf(0), 0  # poch = (nu)_j / j!
        while True:
            coeffs.append(poch * mpmath.rgamma(a * j + mu))
            term = coeffs[-1] * top**j
            total += term
            if j > 10 and abs(term) < mpmath.mpf(10) ** (5 - dps) * abs(total):
                return [mpmath.polyval(coeffs[::-1], -mpmath.mpf(x)) for x in xs]
            poch *= (nu + j) / (j + 1)
            j += 1


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.95])
def test_series_in_its_cancellation_band_matches_mpmath(alpha):
    # u = x**(1/alpha) in [0.5, 5], the series route, for the HN and JWS index
    # families of n and phi: the sum cancels by up to ~1e3 there.  The worst
    # point reads 2.7e-11 whether the terms come from numpy's exp or libm's: the
    # error is the log-magnitude bookkeeping's, and the tolerance allows twice it.
    u = np.linspace(0.5, 5.0, 19)
    x = u**alpha
    for beta in (0.25, 0.5, 0.95):
        for mu in (1.0 + alpha * beta, alpha * beta, 1.0, 0.0):
            values, _ = specfun._series(alpha, mu, beta, x)
            exact = [float(v) for v in mp_prabhakar(alpha, mu, beta, x.tolist(), 50)]
            np.testing.assert_allclose(values, exact, rtol=5e-11, atol=0.0)


# seeded draws of (alpha, mu, nu, u = x**(1/alpha)) over AUTO's series range,
# u in [0.3, 5], where the series cancels by up to ~1e12 at large nu
SERIES_RANGE_DRAWS = np.random.default_rng(2015).uniform(
    (0.3, -2.5, 0.1, 0.3), (1.0, 6.0, 10.0, 5.0), (60, 4)
).tolist()


@pytest.mark.parametrize(
    "draw", SERIES_RANGE_DRAWS, ids=lambda d: "a%.3f-mu%.3f-nu%.3f-u%.3f" % tuple(d)
)
def test_auto_matches_the_80_digit_defining_series_on_seeded_draws(draw):
    # AUTO once kept a series that cancels by up to 1e8 (mu >= 0) or by any
    # amount (mu < 0) here, and raised StrategyDisagreement at the handoff
    alpha, mu, nu, u = draw
    x = u**alpha
    exact = float(mp_prabhakar(alpha, mu, nu, [x], 80)[0])
    assert prabhakar_eval(alpha, mu, nu, x) == pytest.approx(exact, rel=2e-8, abs=0.0)


@pytest.mark.parametrize(
    "alpha, beta, x",
    [
        (0.7, 1.2154780116220467, 49.61947603002898 / 0.95090873728403),
        (0.3, 0.95, 100.0),
        (0.3, 0.25, 100.0),
    ],
)
def test_expansion_skips_gamma_pole_coefficients(alpha, beta, x):
    # hn relaxation n = 1 - x**(ab) E[a, 1+ab; b](-x**a) on the expansion route,
    # where the coefficient 1/Gamma(1 - a j) sits on a pole at a j = 7 or 3
    # (rounding noise, not 0): it stopped the sum at 3.8e-9, 6.1e-7 and 1.2e-7
    spec = ModelSpec("hn", alpha=alpha, beta=beta, allow_unphysical=True)
    import mpmath

    with mpmath.workdps(200):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        e = mp_prabhakar(a, 1 + a * b, b, [mpmath.mpf(x) ** a], 200)[0]
        exact = float(1 - mpmath.mpf(x) ** (a * b) * e)
    assert relaxation(spec, x) == pytest.approx(exact, rel=1e-10)


def test_cm_fails_below_alpha_nu():
    # an interior point of the flipped inequality (mu < alpha*nu): the tail
    # coefficient 1/Gamma(mu - alpha nu) is negative and h crosses zero,
    # which is why in_cm_regime demands mu >= alpha*nu
    p = PrabhakarParams(0.6, 0.25, 0.5)
    assert not p.in_cm_regime()
    values = [float(t) ** (p.mu - 1.0) * prabhakar(p, float(t) ** p.alpha)
              for t in np.logspace(-1, 1.5, 40)]
    assert min(values) < 0.0


def test_asymptotic_window_small():
    # two-term small-argument form within 1% at x = 1e-4
    for (a, mu, nu) in ((0.5, 1.0, 0.5), (0.75, 0.375, 0.5), (0.6, 1.3, 0.5)):
        arg = 1e-4**a
        exact = prabhakar_eval(a, mu, nu, arg)
        lead = 1.0 / math.gamma(mu) - nu * arg * float(sc.rgamma(a + mu))
        assert abs(exact / lead - 1.0) < 0.01


def test_asymptotic_window_large():
    # two-term large-argument form within 2% at x = 1e4
    for (a, mu, nu) in ((0.5, 1.0, 0.5), (0.75, 0.375, 0.5), (0.6, 1.3, 0.5)):
        arg = 1e4**a
        exact = prabhakar_eval(a, mu, nu, arg)
        lead = arg**-nu * float(sc.rgamma(mu - a * nu)) - nu * arg ** (-nu - 1.0) * float(
            sc.rgamma(mu - a - a * nu)
        )
        assert abs(exact / lead - 1.0) < 0.02


def test_integral_route_reproduces_relaxation_form():
    # quadrature of u**-1 E[a,0;b](-u**alpha) from 0 to x, plus the unit point
    # mass the formal integrand carries at u = 0, rebuilds E[a,1;b](-x**alpha)
    a = b = 0.5
    for x in (0.5, 1.0, 2.0):
        integral, _ = quad(
            lambda u: prabhakar_eval(a, 0.0, b, u**a) / u, 0.0, x, points=[x / 2], limit=200
        )
        direct = prabhakar_eval(a, 1.0, b, x**a)
        assert 1.0 + integral == pytest.approx(direct, abs=1e-6)


# ---------------------------------------------------------------------------
# one-sided Levy stable density
# ---------------------------------------------------------------------------


def levy_half_closed_form(x):
    return x**-1.5 * math.exp(-1.0 / (4.0 * x)) / (2.0 * math.sqrt(math.pi))


def test_levy_half_closed_form():
    for x in (0.25, 0.5, 1.0, 2.0, 10.0):
        assert levy_stable_density(0.5, x) == pytest.approx(levy_half_closed_form(x), rel=1e-9)
    # forward-check the oracle itself: its transform is exp(-sqrt(z))
    fw, _ = quad(lambda u: math.exp(-u) * levy_half_closed_form(u), 0.0, np.inf, limit=300)
    assert fw == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_levy_vanishes_at_origin():
    assert levy_stable_density(0.5, 1e-3) < 1e-50


def test_levy_normalization():
    total, _ = quad(lambda u: levy_stable_density(0.7, u), 0.0, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_levy_forward_transform_identity():
    for alpha in (0.3, 0.5, 0.8):
        for z in (0.5, 1.0, 2.0):
            fw, _ = quad(
                lambda u: math.exp(-z * u) * levy_stable_density(alpha, u),
                0.0,
                np.inf,
                limit=300,
            )
            assert fw == pytest.approx(math.exp(-(z**alpha)), abs=1e-7)


def test_levy_domain_errors():
    with pytest.raises(DomainError):
        levy_stable_density(1.2, 1.0)
    with pytest.raises(DomainError):
        levy_stable_density(0.5, 0.0)


def test_asymptotic_is_nan_where_it_misses_its_tolerance():
    # at x = 0.5 the terms grow before they fall below 1e-12 of the sum
    assert np.isnan(specfun._asymptotic(0.5, 1.0, 1.0, np.array([0.5]))).all()
