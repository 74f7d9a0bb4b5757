"""Relaxation laws: spectra, permittivity, time-domain functions, densities."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy.integrate import quad

from relaxkit.exceptions import DomainError
from relaxkit.kernels import (
    KernelConfig,
    evolution_residual,
    kernel_singular_weight,
    memory_k_time,
    memory_M_time,
)
from relaxkit.laplace import forward_laplace, inverse_laplace
from relaxkit.models import (
    ModelSpec,
    PermittivityScale,
    asymptotic,
    laplace_image,
    pdf_g,
    pdf_g_hypergeometric,
    permittivity,
    relaxation,
    relaxation_derivatives,
    response,
    response_tail_exponent,
    spectral,
    spectral_ratio_real,
    theta,
    time_response,
)
from relaxkit.specfun import PrabhakarParams, RationalOrder, prabhakar, prabhakar_eval, prabhakar_rational

SCALE = PermittivityScale(10.0, 2.0)

HN_HALF = ModelSpec("hn", alpha=0.5, beta=0.5)
JWS_HALF = ModelSpec("jws", alpha=0.5, beta=0.5)


# ---------------------------------------------------------------------------
# ModelSpec validation
# ---------------------------------------------------------------------------


def test_kind_pinning():
    with pytest.raises(DomainError):
        ModelSpec("debye", alpha=0.5)
    with pytest.raises(DomainError):
        ModelSpec("cc", alpha=0.5, beta=0.7)
    with pytest.raises(DomainError):
        ModelSpec("cd", alpha=0.5, beta=0.5)
    with pytest.raises(DomainError):
        ModelSpec("nope", alpha=0.5)


def test_nonnegativity_regime_bounds():
    ModelSpec("hn", alpha=0.5, beta=2.0)  # beta = 1/alpha allowed
    with pytest.raises(DomainError):
        ModelSpec("hn", alpha=0.5, beta=2.5)
    ModelSpec("hn", alpha=0.5, beta=2.5, allow_unphysical=True)
    with pytest.raises(DomainError):
        ModelSpec("hn", alpha=0.5, beta=1.5, strict_experimental=True)


def test_permittivity_scale_order():
    with pytest.raises(DomainError):
        PermittivityScale(2.0, 2.0)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_half_angle():
    for a in (0.3, 0.5, 0.9):
        assert theta(a, 1.0) == pytest.approx(math.pi * a / 2.0, rel=1e-13, abs=0.0)


def test_theta_limits():
    assert theta(0.6, 1e-9) == pytest.approx(0.0, abs=1e-5)
    assert theta(0.6, 1e9) == pytest.approx(math.pi * 0.6, abs=1e-5)


def test_theta_monotone_continuous():
    values = [theta(0.8, float(y)) for y in np.logspace(-4, 4, 100)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def test_spectral_static_limit():
    for spec in (ModelSpec("debye"), HN_HALF, JWS_HALF, ModelSpec("cd", beta=0.3)):
        assert spectral(spec, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_spectral_debye_value():
    assert spectral(ModelSpec("debye"), 1.0) == pytest.approx(0.5 - 0.5j, abs=1e-15)


def test_spectral_hn_complex_oracle():
    oracle = (1.0 + cmath.exp(1j * math.pi / 4.0)) ** -0.5
    assert spectral(HN_HALF, 1.0) == pytest.approx(oracle, abs=1e-14)


def test_spectral_decays_at_infinity():
    for spec in (ModelSpec("debye"), HN_HALF, JWS_HALF, ModelSpec("mcd", beta=0.4)):
        assert abs(spectral(spec, 1e9)) < 1e-2


def test_spectral_magnitude_bounded():
    for spec in (HN_HALF, JWS_HALF, ModelSpec("cc", alpha=0.7), ModelSpec("mcd", beta=0.6)):
        for w in np.logspace(-3, 3, 40):
            assert abs(spectral(spec, float(w))) <= 1.0 + 1e-12


def test_spectral_kww_rejected():
    with pytest.raises(DomainError):
        spectral(ModelSpec("kww", alpha=0.6), 1.0)


# ---------------------------------------------------------------------------
# permittivity
# ---------------------------------------------------------------------------


def test_permittivity_static():
    assert permittivity(HN_HALF, SCALE, 0.0) == (10.0, 0.0)


def test_permittivity_debye_value():
    assert permittivity(ModelSpec("debye"), SCALE, 1.0) == pytest.approx((6.0, 4.0), abs=1e-13)


@pytest.mark.parametrize("spec", [
    ModelSpec("hn", alpha=0.6, beta=0.5), ModelSpec("hn", alpha=0.3, beta=0.95),
    ModelSpec("hn", alpha=0.5, beta=2.0), ModelSpec("jws", alpha=0.6, beta=0.5),
    ModelSpec("jws", alpha=0.9, beta=0.7), ModelSpec("jws", alpha=0.3, beta=0.9),
    ModelSpec("jws", alpha=0.8, beta=1.25), ModelSpec("cc", alpha=0.7), ModelSpec("cc", alpha=0.2),
    ModelSpec("cd", beta=0.4), ModelSpec("mcd", beta=0.6), ModelSpec("mcd", beta=0.25),
], ids=lambda spec: f"{spec.kind}-{spec.alpha:g}-{spec.beta:.3g}")
def test_permittivity_matches_40_digit_mpmath(spec):
    # eps* = eps_inf + strength phi_hat over 24 decades of omega tau, both wings included
    w = np.logspace(-12.0, 12.0, 97)
    eps_re, eps_im = permittivity(spec, SCALE, w)
    a, b = spec.alpha, spec.beta
    with mp.workdps(40):
        for v, re, im in zip(w.tolist(), eps_re, eps_im):
            iw = mp.mpc(0, v)
            phi = 1 - (1 + iw ** -a) ** -b if spec.kind in ("jws", "mcd") else (1 + iw**a) ** -b
            eps = SCALE.eps_inf + SCALE.strength * phi
            assert abs(re - eps.real) <= 1e-15 * SCALE.eps_static, v
            assert abs(im + eps.imag) <= 1e-14 * abs(eps.imag), v


@pytest.mark.parametrize("kind", ["hn", "jws"])
@pytest.mark.parametrize("alpha", [0.6, 0.9])
@pytest.mark.parametrize("w_tau", [1e170, 1e200, 1e300])
def test_hn_jws_permittivity_reaches_its_high_frequency_limit(kind, alpha, w_tau):
    # w**(2 alpha) passes the float range here; the amplitude must not.  Beyond
    # the loss peak eps* - eps_inf is strength (i w)**(-alpha beta) (HN) or
    # strength beta (i w)**-alpha (JWS) to first order
    beta, scale = 0.5, PermittivityScale(5.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        re, im = permittivity(ModelSpec(kind, alpha=alpha, beta=beta, tau=w_tau), scale, 1.0)
    power, weight = (alpha * beta, 1.0) if kind == "hn" else (alpha, beta)
    assert re == pytest.approx(scale.eps_inf, rel=0.0, abs=1e-15)
    expected = scale.strength * weight * w_tau**-power * math.sin(math.pi * power / 2.0)
    assert im == pytest.approx(expected, rel=1e-12, abs=0.0)


SPECTRAL_SPECS = (ModelSpec("debye"), ModelSpec("cc", alpha=0.7), ModelSpec("cd", beta=0.4),
                  ModelSpec("mcd", beta=0.6), ModelSpec("hn", alpha=0.75, beta=1 / 3),
                  ModelSpec("jws", alpha=0.6, beta=0.6, tau=2.0))


def test_array_spectral_and_permittivity_equal_scalar_calls():
    grid = np.concatenate([[0.0, 1e-8], np.logspace(-6, 6, 49), [1e8]])
    for spec in SPECTRAL_SPECS:
        phi = spectral(spec, grid)
        eps_re, eps_im = permittivity(spec, SCALE, grid)
        assert phi.shape == eps_re.shape == eps_im.shape == grid.shape
        for i, w in enumerate(grid.tolist()):
            scalar_phi = spectral(spec, w)
            scalar_eps = permittivity(spec, SCALE, w)
            assert type(scalar_phi) is complex and type(scalar_eps[0]) is float
            assert scalar_phi == phi[i]
            assert scalar_eps == (eps_re[i], eps_im[i])


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("debye", "cc", "cd", "mcd", "hn", "jws")),
    alpha=st.floats(0.05, 1.0),
    alpha_beta=st.floats(0.05, 1.0),
    log_tau=st.floats(-6.0, 6.0),
)
def test_array_permittivity_matches_spectral_sweep(kind, alpha, alpha_beta, log_tau):
    a = alpha if kind in ("cc", "hn", "jws") else 1.0
    b = alpha_beta / a if kind in ("cd", "mcd", "hn", "jws") else 1.0
    spec = ModelSpec(kind, alpha=a, beta=b, tau=10.0**log_tau)
    omega = np.concatenate([[0.0], np.logspace(-6, 6, 61) / spec.tau])
    eps_re, eps_im = permittivity(spec, SCALE, omega)
    eps = SCALE.eps_inf + SCALE.strength * spectral(spec, omega * spec.tau)
    assert np.max(np.abs(eps_re - eps.real)) <= 1e-12 * SCALE.eps_static
    assert np.max(np.abs(eps_im + eps.imag)) <= 1e-12 * SCALE.eps_static


def test_array_path_rejects_negative_omega_and_kww():
    grid = np.array([1.0, -1e-3, 2.0])
    for spec in SPECTRAL_SPECS:
        with pytest.raises(DomainError):
            spectral(spec, grid)
        with pytest.raises(DomainError):
            permittivity(spec, SCALE, grid)
    kww = ModelSpec("kww", alpha=0.6)
    with pytest.raises(DomainError):
        spectral(kww, np.logspace(-2, 2, 5))
    with pytest.raises(DomainError):
        permittivity(kww, SCALE, np.logspace(-2, 2, 5))


@pytest.mark.parametrize(
    "spec", [ModelSpec("mcd", beta=0.6), ModelSpec("jws", alpha=0.6, beta=0.6)]
)
def test_jws_mcd_spectral_high_frequency_wing_matches_mpmath(spec):
    import mpmath

    e = spec.alpha if spec.kind == "jws" else 1.0
    w = np.array([1e2, 1e4, 1e6, 1e8])
    phi = spectral(spec, w)
    with mpmath.workdps(40):
        for wi, value in zip(w.tolist(), phi.tolist()):
            exact = 1 - (1 + mpmath.mpc(0, wi) ** -e) ** -spec.beta
            assert abs(mpmath.mpc(value) - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize(
    "spec", [ModelSpec("mcd", beta=0.6), ModelSpec("jws", alpha=0.6, beta=0.6)]
)
def test_jws_mcd_laplace_image_and_exponent_match_mpmath(spec):
    import mpmath

    from relaxkit.models import _ratio

    e = spec.alpha if spec.kind == "jws" else 1.0
    image = laplace_image(spec)
    with mpmath.workdps(40):
        for z in (1e2, 1e4, 1e6, 1e8, 1e6 + 3e5j):
            exact = 1 - (1 + mpmath.mpc(z) ** -e) ** -spec.beta
            assert abs(mpmath.mpc(image.evaluator(z)) - exact) <= 1e-13 * abs(exact)
            # the characteristic-exponent core (1 - phi_hat) / phi_hat
            ratio = (1 - exact) / exact
            assert abs(mpmath.mpc(_ratio(spec, z)) - ratio) <= 1e-13 * abs(ratio)


def test_pow1p_m1_takes_hypot_where_the_squares_overflow():
    # |1 + w|**2 passes the float range beyond |w| ~ 1e154; array and scalar paths agree with
    # mpmath there to the rounding of b log|1 + w| (up to ~200 eps), without a RuntimeWarning
    import mpmath

    from relaxkit.models import _pow1p_m1

    w = np.array([1e160 + 3e159j, -2e200 + 1e250j, 1e300j, -1e155 - 1e155j, 0.5 + 0.1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _pow1p_m1(w, 0.3).tolist()
        scalars = [_pow1p_m1(v, 0.3) for v in w.tolist()]
    with mpmath.workdps(30):
        for v, value, scalar in zip(w.tolist(), values, scalars):
            exact = (1 + mpmath.mpc(v)) ** mpmath.mpf(0.3) - 1
            for got in (value, scalar):
                assert abs(mpmath.mpc(got) - exact) <= 1e-13 * abs(exact), (v, got)


# ---------------------------------------------------------------------------
# response / relaxation
# ---------------------------------------------------------------------------


def test_response_debye():
    spec = ModelSpec("debye", tau=2.0)
    assert response(spec, 2.0) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-13, abs=0.0)


def test_response_cd_closed_form():
    spec = ModelSpec("cd", beta=0.5)
    assert response(spec, 1.0) == pytest.approx(math.exp(-1.0) / math.sqrt(math.pi), rel=1e-13, abs=0.0)


def test_relaxation_normalization():
    for spec in (ModelSpec(k, alpha=0.6 if k in ("cc", "hn", "jws", "kww") else 1.0,
                           beta=0.7 if k in ("cd", "mcd", "hn", "jws") else 1.0)
                 for k in ("debye", "cc", "cd", "mcd", "hn", "jws", "kww")):
        assert relaxation(spec, 0.0) == 1.0


def test_relaxation_cc_value():
    assert relaxation(ModelSpec("cc", alpha=0.5), 1.0) == pytest.approx(
        math.e * float(sc.erfc(1.0)), rel=1e-12, abs=0.0
    )


def test_relaxation_cd_beta_one_is_debye():
    assert relaxation(ModelSpec("cd", beta=1.0), 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13, abs=0.0)


def test_response_is_minus_dn_dt():
    # analytic index-shift consistency on a log grid
    for spec in (HN_HALF, JWS_HALF, ModelSpec("cc", alpha=0.7), ModelSpec("cd", beta=0.4),
                 ModelSpec("mcd", beta=0.4)):
        for t in np.logspace(-2, 1, 12):
            t = float(t)
            h = 1e-6 * t
            fd = -(relaxation(spec, t + h) - relaxation(spec, t - h)) / (2.0 * h)
            assert response(spec, t) == pytest.approx(fd, rel=5e-6, abs=0.0)


def test_response_relaxation_index_shift_identity():
    # phi_HN written through the shifted Prabhakar index equals -dn/dt exactly
    spec = HN_HALF
    for t in np.logspace(-2, 1, 20):
        t = float(t)
        x = t / spec.tau
        phi = x ** (spec.alpha * spec.beta - 1.0) * prabhakar(
            PrabhakarParams(spec.alpha, spec.alpha * spec.beta, spec.beta), x**spec.alpha
        )
        assert response(spec, t) == pytest.approx(phi, rel=1e-9, abs=0.0)


def test_rational_alpha_response_cross_check():
    # the finite hypergeometric sum route for rational alpha
    spec = ModelSpec("hn", alpha=0.75, beta=0.5)
    order = RationalOrder(3, 4)
    for t in (0.3, 1.0, 2.0):
        x = t / spec.tau
        via_rational = x ** (spec.alpha * spec.beta - 1.0) * prabhakar_rational(
            order, spec.alpha * spec.beta, spec.beta, x**spec.alpha
        )
        assert response(spec, t) == pytest.approx(via_rational, rel=1e-9, abs=0.0)


def test_time_response_singular_weights():
    assert time_response(JWS_HALF).singular_weight == 1.0
    assert time_response(ModelSpec("mcd", beta=0.4)).singular_weight == 1.0
    assert time_response(HN_HALF).singular_weight == 0.0
    assert time_response(ModelSpec("debye")).singular_weight == 0.0


def test_jws_regular_part_nonnegative():
    tr = time_response(JWS_HALF)
    for t in np.logspace(-2, 2, 30):
        assert tr.regular(float(t)) >= 0.0


def test_hn_unimodal_response_beyond_regime():
    spec = ModelSpec("hn", alpha=0.5, beta=3.0, allow_unphysical=True)
    ts = np.logspace(-3, 1.5, 100)
    values = [response(spec, float(t)) for t in ts]
    peak = int(np.argmax(values))
    assert 0 < peak < len(ts) - 1


def test_laplace_consistency():
    # forward transform of the regular response reproduces the spectral image
    for spec in (HN_HALF, JWS_HALF, ModelSpec("cc", alpha=0.7), ModelSpec("mcd", beta=0.6)):
        tr = time_response(spec)
        image = laplace_image(spec)
        for z in (0.5, 1.0, 2.0):
            fw = forward_laplace(tr.regular, z, tail_exponent=response_tail_exponent(spec))
            assert fw == pytest.approx(image.evaluator(z).real, abs=1e-5)


def test_integral_representation_through_levy():
    # E(-x) = (1/alpha) Int xi**(-1-1/alpha) Phi(xi**(-1/alpha)) exp(-x xi) dxi
    from relaxkit.specfun import levy_stable_density

    a = 0.5
    for x in (0.5, 1.0, 2.0):
        value, _ = quad(
            lambda xi: math.exp(-x * xi)
            * xi ** (-1.0 - 1.0 / a)
            * levy_stable_density(a, xi ** (-1.0 / a))
            / a,
            0.0,
            np.inf,
            limit=400,
        )
        assert value == pytest.approx(prabhakar(PrabhakarParams(a, 1.0, 1.0), x), abs=1e-5)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def test_reductions_pointwise():
    # HN(a,1) = JWS(a,1) = CC(a); HN(1,b) = CD(b); JWS(1,b) = MCD(b)
    a, b = 0.6, 0.4
    pairs = [
        (ModelSpec("hn", alpha=a, beta=1.0), ModelSpec("cc", alpha=a)),
        (ModelSpec("jws", alpha=a, beta=1.0), ModelSpec("cc", alpha=a)),
        (ModelSpec("hn", alpha=1.0, beta=b), ModelSpec("cd", beta=b)),
        (ModelSpec("jws", alpha=1.0, beta=b), ModelSpec("mcd", beta=b)),
    ]
    for left, right in pairs:
        for w in (0.1, 1.0, 10.0):
            assert spectral(left, w) == pytest.approx(spectral(right, w), abs=1e-12)
        for t in (0.3, 1.0, 3.0):
            assert relaxation(left, t) == pytest.approx(relaxation(right, t), rel=1e-12, abs=0.0)
            assert response(left, t) == pytest.approx(response(right, t), rel=1e-12, abs=0.0)
        for xi in (0.4, 1.3, 3.0):
            assert pdf_g(left, xi) == pytest.approx(pdf_g(right, xi), abs=1e-12)
        for t in (0.3, 1.0, 3.0):
            assert relaxation_derivatives(left, t) == pytest.approx(
                relaxation_derivatives(right, t), rel=1e-12, abs=0.0
            )
        for s in (0.1, 1.0, 10.0):
            ratio = spectral_ratio_real(right, s)
            assert spectral_ratio_real(left, s) == pytest.approx(ratio, rel=1e-12, abs=0.0)
        for which in ("response", "relaxation"):
            for regime, t in (("short", 1e-4), ("long", 1e4)):
                lhs = asymptotic_or_error(left, which, regime, t)
                assert lhs == pytest.approx(asymptotic_or_error(right, which, regime, t), rel=1e-12, abs=0.0)


# the boundary specs of test_reductions_pointwise, then those that reduce to Debye
BOUNDARY_SPECS = [
    (ModelSpec("hn", alpha=0.6, beta=1.0, tau=2.0), ModelSpec("cc", alpha=0.6, tau=2.0)),
    (ModelSpec("jws", alpha=0.6, beta=1.0, tau=2.0), ModelSpec("cc", alpha=0.6, tau=2.0)),
    (ModelSpec("hn", alpha=1.0, beta=0.4, tau=2.0), ModelSpec("cd", beta=0.4, tau=2.0)),
    (ModelSpec("jws", alpha=1.0, beta=0.4, tau=2.0), ModelSpec("mcd", beta=0.4, tau=2.0)),
    (ModelSpec("hn", alpha=1.0, beta=1.0, tau=2.0), ModelSpec("debye", tau=2.0)),
    (ModelSpec("jws", alpha=1.0, beta=1.0, tau=2.0), ModelSpec("debye", tau=2.0)),
    (ModelSpec("cc", alpha=1.0, tau=2.0), ModelSpec("debye", tau=2.0)),
    (ModelSpec("mcd", beta=1.0, tau=2.0), ModelSpec("debye", tau=2.0)),
]


@pytest.mark.parametrize(
    "spec,law", BOUNDARY_SPECS, ids=lambda s: f"{s.kind}-{s.alpha:g}-{s.beta:g}"
)
def test_boundary_specs_share_tail_and_point_masses_with_their_law(spec, law):
    assert response_tail_exponent(spec) == response_tail_exponent(law)
    for which in ("M", "k"):
        weight = kernel_singular_weight(KernelConfig(law, rate_B=1.5), which)
        assert kernel_singular_weight(KernelConfig(spec, rate_B=1.5), which) == weight


@pytest.mark.parametrize(
    "spec,law", BOUNDARY_SPECS, ids=lambda s: f"{s.kind}-{s.alpha:g}-{s.beta:g}"
)
def test_boundary_specs_share_memory_kernels_with_their_law(spec, law):
    t = np.logspace(-2, 1.5, 12)
    for kernel in (memory_M_time, memory_k_time):
        expected = kernel(KernelConfig(law, rate_B=1.5), t)
        np.testing.assert_allclose(kernel(KernelConfig(spec, rate_B=1.5), t), expected, rtol=1e-12)
        for v in (0.3, 4.0):
            assert kernel(KernelConfig(spec, rate_B=1.5), v) == pytest.approx(
                kernel(KernelConfig(law, rate_B=1.5), v), rel=1e-12, abs=0.0
            )


def test_cole_cole_at_alpha_one_has_the_debye_kernels():
    # M = 1/(B tau); k is the point mass B tau delta(t) with regular part 0
    cfg = KernelConfig(ModelSpec("cc", alpha=1.0, tau=2.0), rate_B=1.5)
    assert memory_M_time(cfg, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)
    assert memory_k_time(cfg, 1.0) == 0.0
    assert (memory_k_time(cfg, np.array([0.1, 1.0, 10.0])) == 0.0).all()
    assert kernel_singular_weight(cfg, "k") == 3.0


@pytest.mark.parametrize("spec", [s for s, law in BOUNDARY_SPECS if law.kind == "debye"],
                         ids=lambda s: s.kind)
def test_specs_that_reduce_to_debye_solve_its_evolution_equation(spec):
    # tau n' + n = 0; the HN-family Caputo form degenerates at alpha = beta = 1
    assert evolution_residual(KernelConfig(spec), [0.5, 1.0, 2.0]) < 1e-14


def asymptotic_or_error(spec, which, regime, t):
    """The leading asymptotic term, or the name of the error it raises."""
    try:
        return asymptotic(spec, which, regime, t)
    except DomainError as exc:
        return type(exc).__name__


# the seven kinds, then the boundary specs that reduce to cc, cd, mcd and debye
DERIVATIVE_SPECS = [
    ModelSpec("debye", tau=2.0),
    ModelSpec("cc", alpha=0.6),
    ModelSpec("cd", beta=0.4),
    ModelSpec("mcd", beta=0.4, tau=0.5),
    HN_HALF,
    ModelSpec("jws", alpha=0.75, beta=1 / 3),
    ModelSpec("kww", alpha=0.6),
    ModelSpec("hn", alpha=0.6, beta=1.0),
    ModelSpec("jws", alpha=0.6, beta=1.0),
    ModelSpec("hn", alpha=1.0, beta=0.4),
    ModelSpec("jws", alpha=1.0, beta=0.4),
    ModelSpec("hn", alpha=1.0, beta=1.0),
]


@pytest.mark.parametrize(
    "spec", DERIVATIVE_SPECS, ids=lambda s: f"{s.kind}-{s.alpha:g}-{s.beta:.3g}"
)
def test_second_derivative_matches_central_difference_of_response(spec):
    for t in (0.05, 0.4, 2.0, 9.0):
        n, d1, d2 = relaxation_derivatives(spec, t)
        assert (n, d1) == (relaxation(spec, t), -response(spec, t))
        h = 1e-4 * t
        fd = -(response(spec, t + h) - response(spec, t - h)) / (2.0 * h)
        assert d2 == pytest.approx(fd, rel=1e-6, abs=0.0)


def test_cc_relaxation_keeps_its_relative_accuracy_deep_in_the_tail():
    # n = E[a, 1; 1](-x**a) directly; the HN form 1 - x**a E[a, 1+a; 1](-x**a)
    # cancels to a relative error of 1e-6 and worse at x = 1e20
    for a in (0.5, 0.8):
        for spec in (ModelSpec("cc", alpha=a), ModelSpec("hn", alpha=a, beta=1.0)):
            lead = asymptotic(spec, "relaxation", "long", 1e20)
            assert relaxation(spec, 1e20) == pytest.approx(lead, rel=1e-12, abs=0.0)


def test_debye_reduction_exact():
    hn_debye = ModelSpec("hn", alpha=1.0, beta=1.0)
    for t in np.logspace(-2, 1.3, 25):
        t = float(t)
        assert relaxation(hn_debye, t) == pytest.approx(math.exp(-t), rel=1e-12, abs=0.0)
        assert response(hn_debye, t) == pytest.approx(math.exp(-t), rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# mixture density g
# ---------------------------------------------------------------------------


def test_pdf_cd_support():
    spec = ModelSpec("cd", beta=0.5)
    for xi in (0.1, 0.5, 0.99):
        assert pdf_g(spec, xi) == 0.0
    assert pdf_g(spec, 1.5) > 0.0


def test_pdf_mcd_support():
    spec = ModelSpec("mcd", beta=0.5)
    for xi in (1.01, 2.0, 10.0):
        assert pdf_g(spec, xi) == 0.0
    assert pdf_g(spec, 0.5) > 0.0


def test_pdf_cc_closed_value():
    assert pdf_g(ModelSpec("cc", alpha=0.5), 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13, abs=0.0)


def test_pdf_cc_matches_closed_formula():
    spec = ModelSpec("cc", alpha=0.7)
    a = 0.7
    for xi in (0.2, 1.0, 4.0):
        closed = xi ** (a - 1.0) * math.sin(math.pi * a) / (
            math.pi * (xi ** (2 * a) + 2.0 * xi**a * math.cos(math.pi * a) + 1.0)
        )
        assert pdf_g(spec, xi) == pytest.approx(closed, rel=1e-13, abs=0.0)


def test_pdf_normalization_hn():
    spec = ModelSpec("hn", alpha=0.75, beta=1.0 / 3.0)
    head, _ = quad(lambda xi: pdf_g(spec, xi), 0.0, 1.0, limit=200)
    tail, _ = quad(lambda v: pdf_g(spec, 1.0 / v) / v**2, 1e-12, 1.0, limit=200)
    assert head + tail == pytest.approx(1.0, abs=1e-6)


def test_pdf_trig_vs_hypergeometric():
    for spec, grid in (
        (HN_HALF, (1.2, 2.0, 5.0)),
        (JWS_HALF, (0.2, 0.5, 0.85)),
        (ModelSpec("hn", alpha=0.75, beta=1 / 3), (1.5, 3.0)),
        (ModelSpec("cd", beta=0.4), (1.7,)),
        (ModelSpec("mcd", beta=0.4), (0.6,)),
    ):
        for xi in grid:
            assert pdf_g(spec, xi) == pytest.approx(
                pdf_g_hypergeometric(spec, xi), abs=1e-11, rel=1e-9
            )


def test_pdf_series_form_agrees():
    # the single-sum series over n (partial sums, large xi) against the closed form
    spec = HN_HALF
    a, b = 0.5, 0.5
    for xi in (3.0, 6.0):
        total = 0.0
        coeff = 1.0  # (-1)^n (b)_n / n!, by recursion
        for n in range(200):
            total += coeff * math.sin(a * (b + n) * math.pi) * xi ** (-1.0 - a * (b + n))
            coeff *= -(b + n) / (n + 1.0)
        assert pdf_g(spec, xi) == pytest.approx(total / math.pi, rel=1e-10, abs=0.0)


def test_pdf_negative_lobe_needs_override():
    with pytest.raises(DomainError):
        ModelSpec("hn", alpha=0.75, beta=7.0 / 3.0)
    spec = ModelSpec("hn", alpha=0.75, beta=7.0 / 3.0, allow_unphysical=True)
    values = [pdf_g(spec, float(xi)) for xi in np.logspace(-2, 2, 150)]
    assert min(values) < 0.0


def test_pdf_debye_is_point_mass():
    with pytest.raises(DomainError):
        pdf_g(ModelSpec("debye"), 1.0)
    with pytest.raises(DomainError):
        pdf_g(ModelSpec("debye"), np.array([0.5, 1.0]))


HN_SIX = ModelSpec("hn", alpha=0.6, beta=0.5)
ARGUMENT_ENTRY_POINTS = {
    "spectral_ratio_real": lambda s: spectral_ratio_real(HN_SIX, s),
    "pdf_g": lambda xi: pdf_g(HN_SIX, xi),
    "pdf_g-array": lambda xi: pdf_g(HN_SIX, np.array([1.0, xi])),
    "pdf_g-kww": lambda xi: pdf_g(ModelSpec("kww", alpha=0.6), xi),
    "pdf_g_hypergeometric": lambda xi: pdf_g_hypergeometric(HN_SIX, xi),
}


@pytest.mark.parametrize("arg", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ARGUMENT_ENTRY_POINTS)
def test_an_argument_outside_zero_to_infinity_raises_domain_error(entry, arg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            ARGUMENT_ENTRY_POINTS[entry](arg)


# entry points whose domain includes 0: a NaN argument passed their sign check
# and came back as the value at 0 (1.0 for all of these)
NAN_ENTRY_POINTS = {
    "prabhakar_eval": lambda x: prabhakar_eval(0.5, 1.0, 1.0, x),
    "prabhakar_eval-array": lambda x: prabhakar_eval(0.5, 1.0, 1.0, np.array([0.5, x])),
    # summed 2000 terms before raising NonConvergent
    "prabhakar_rational": lambda x: prabhakar_rational(RationalOrder(1, 2), 1.0, 1.0, x),
    "relaxation-jws": lambda t: relaxation(ModelSpec("jws", alpha=0.6, beta=0.5), t),
    "relaxation-cc": lambda t: relaxation(ModelSpec("cc", alpha=0.6), t),
    "relaxation-mcd": lambda t: relaxation(ModelSpec("mcd", beta=0.5), t),
    "memory_M_time-debye": lambda t: memory_M_time(KernelConfig(ModelSpec("debye")), t),
}


@pytest.mark.parametrize("entry", NAN_ENTRY_POINTS)
def test_a_nan_argument_raises_domain_error(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            NAN_ENTRY_POINTS[entry](math.nan)


def pdf_g_point(spec, xi):
    """Reference: g(xi) at one float by the math module, formula by formula."""
    a, b = spec.alpha, spec.beta
    s = math.sin(math.pi * b) / math.pi
    if spec.kind == "cd" or (spec.kind == "hn" and a == 1.0):
        return s / (xi * (xi - 1.0) ** b) if xi > 1.0 else 0.0
    if spec.kind == "mcd" or (spec.kind == "jws" and a == 1.0):
        return s * xi ** (b - 1.0) / (1.0 - xi) ** b if xi < 1.0 else 0.0
    amp_b = math.sqrt(xi ** (2 * a) + 2.0 * xi**a * math.cos(math.pi * a) + 1.0) ** b
    if spec.kind == "jws" and b != 1.0:
        return xi ** (a * b - 1.0) * math.sin(b * theta(a, 1.0 / xi)) / (math.pi * amp_b)
    return math.sin(b * theta(a, xi)) / (math.pi * xi * amp_b)


@pytest.mark.parametrize(
    "spec",
    [s for s in DERIVATIVE_SPECS if s.kind != "debye" and (s.alpha, s.beta) != (1.0, 1.0)]
    + [ModelSpec("hn", alpha=0.75, beta=7 / 3, allow_unphysical=True)],
    ids=lambda s: f"{s.kind}-{s.alpha:g}-{s.beta:.3g}",
)
def test_pdf_grid_equals_scalar_calls_and_the_point_formulas(spec):
    xi = np.logspace(-3, 3, 61).reshape(61, 1)
    xi[30, 0] = 1.0  # the Cole-Davidson support edge
    grid = pdf_g(spec, xi)
    assert isinstance(grid, np.ndarray) and grid.shape == xi.shape
    scalar = [pdf_g(spec, float(v)) for v in xi.ravel()]
    assert all(type(v) is float for v in scalar)
    assert grid.ravel().tolist() == scalar
    if spec.kind != "kww":  # kww is the Levy density, checked against mpmath on its own
        reference = [pdf_g_point(spec, float(v)) for v in xi.ravel()]
        np.testing.assert_allclose(grid.ravel(), reference, rtol=1e-13, atol=0.0)
    with pytest.raises(DomainError):
        pdf_g(spec, np.array([1.0, 0.0]))


def test_mixture_representation_single_case():
    spec = HN_HALF
    t = 1.0
    head, _ = quad(lambda xi: math.exp(-t * xi) * pdf_g(spec, xi), 0.0, 1.0, limit=300)
    tail, _ = quad(
        lambda v: math.exp(-t / v) * pdf_g(spec, 1.0 / v) / v**2, 1e-14, 1.0, limit=300
    )
    assert head + tail == pytest.approx(relaxation(spec, t), abs=1e-6)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotic_debye_short_response():
    assert asymptotic(ModelSpec("debye"), "response", "short", 1e-4) == pytest.approx(1.0, rel=1e-3, abs=0.0)


def test_asymptotic_hn_long_relaxation_value():
    value = asymptotic(ModelSpec("hn", alpha=0.5, beta=0.5), "relaxation", "long", 1e4)
    assert value == pytest.approx(0.5 * 0.01 / math.gamma(0.5), rel=1e-12, abs=0.0)
    assert value == pytest.approx(2.8209479177e-3, rel=1e-9, abs=0.0)


def test_asymptotic_jws_short_relaxation():
    assert asymptotic(JWS_HALF, "relaxation", "short", 1e-12) == pytest.approx(1.0, abs=1e-5)


def test_asymptotic_pole_raises():
    with pytest.raises(DomainError):
        asymptotic(ModelSpec("debye"), "response", "long", 1e4)
    with pytest.raises(DomainError):
        # alpha*beta = 1: long-time JWS relaxation gamma pole
        asymptotic(ModelSpec("jws", alpha=0.5, beta=2.0), "relaxation", "long", 1e4)
    value = asymptotic(
        ModelSpec("jws", alpha=0.5, beta=2.0), "relaxation", "long", 1e4, allow_next_order=True
    )
    assert math.isfinite(value)


def test_asymptotic_ratio_windows():
    for kind in ("hn", "jws"):
        for (a, b) in ((0.75, 0.5), (0.6, 0.5)):
            spec = ModelSpec(kind, alpha=a, beta=b)
            for which, exact_fn in (("response", response), ("relaxation", relaxation)):
                assert abs(
                    exact_fn(spec, 1e-4) / asymptotic(spec, which, "short", 1e-4) - 1.0
                ) < 0.01
                assert abs(
                    exact_fn(spec, 1e4) / asymptotic(spec, which, "long", 1e4) - 1.0
                ) < 0.02


@pytest.mark.parametrize(
    "spec", [ModelSpec("cc", alpha=0.75), ModelSpec("cd", beta=0.4), ModelSpec("mcd", beta=0.4)]
)
def test_asymptotic_ratio_windows_cc_cd_mcd(spec):
    for which, exact_fn in (("response", response), ("relaxation", relaxation)):
        assert abs(exact_fn(spec, 1e-4) / asymptotic(spec, which, "short", 1e-4) - 1.0) < 0.01
        if spec.kind == "cd":  # exponential decay: no algebraic long-time term at any order
            with pytest.raises(DomainError):
                asymptotic(spec, which, "long", 1e4, allow_next_order=True)
            continue
        assert abs(exact_fn(spec, 1e4) / asymptotic(spec, which, "long", 1e4) - 1.0) < 0.02


# ---------------------------------------------------------------------------
# duality and CM checks
# ---------------------------------------------------------------------------


def test_spectral_duality():
    for (a, b) in ((0.3, 0.5), (0.5, 0.5), (0.75, 1 / 3)):
        spec = ModelSpec("jws", alpha=a, beta=b)
        for w in np.logspace(-2, 2, 30):
            w = float(w)
            mirrored = (1.0 + (1j * w) ** -a) ** -b
            assert abs(spectral(spec, w) + mirrored - 1.0) < 1e-12


def test_relaxation_duality_lemma_route():
    # n_jws(t) = 1 - int_0^t phi_jws du, so the mirrored-HN complement is 1 - n
    from relaxkit.quadrature import tanh_sinh

    spec = JWS_HALF
    tr = time_response(spec)
    for t in (0.5, 1.0, 2.0):
        integral, _ = tanh_sinh(tr.regular, 0.0, t, rel_tol=1e-10)
        n_direct = relaxation(spec, t)
        assert n_direct + integral == pytest.approx(1.0, abs=1e-6)


def test_cm_spot_checks():
    cases = [
        HN_HALF,
        ModelSpec("hn", alpha=0.7, beta=0.9),
        JWS_HALF,
        ModelSpec("jws", alpha=0.3, beta=1.0),
        ModelSpec("cc", alpha=0.6),
        ModelSpec("cd", beta=0.4),
        ModelSpec("mcd", beta=0.4),
        ModelSpec("debye"),
        ModelSpec("kww", alpha=0.6),
    ]
    for spec in cases:
        for t in np.logspace(-2, 1, 50):
            n, d1, d2 = relaxation_derivatives(spec, float(t))
            assert n >= 0.0
            assert d1 <= 0.0
            assert d2 >= 0.0


def test_inverse_of_spectral_image_matches_response():
    for spec in (HN_HALF, ModelSpec("cc", alpha=0.7), ModelSpec("cd", beta=0.4)):
        image = laplace_image(spec)
        for t in (0.3, 1.0, 3.0):
            assert inverse_laplace(image, t) == pytest.approx(response(spec, t), rel=1e-7, abs=0.0)


def hn_tail_reference(alpha, beta, x):
    """The HN relaxation's tail -sum_{j>=1} (-1)**j (beta)_j x**(-alpha j) / (j! Gamma(1 - alpha j))
    summed to 40 digits."""
    with mp.workdps(40):
        a, b, y = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x) ** -mp.mpf(alpha)
        terms = (-((-1) ** j) * mp.rf(b, j) * y**j / mp.factorial(j) * mp.rgamma(1 - a * j)
                 for j in range(1, 80))
        return float(mp.fsum(terms))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.3, 0.95),
    beta=st.floats(0.25, 0.95),
    log_t=st.floats(4.0, 6.0, exclude_min=True),
)
@example(alpha=0.95, beta=0.25, log_t=math.log10(1.74e5))
@example(alpha=0.9, beta=0.9, log_t=6.0)
@example(alpha=0.5, beta=0.5, log_t=5.0)  # 1/Gamma(1 - 24 alpha) = 0: the 24th term is 0
@example(alpha=0.5, beta=0.5, log_t=6.0)
@example(alpha=0.75, beta=0.5, log_t=5.0)
@example(alpha=0.75, beta=0.5, log_t=6.0)
def test_hn_relaxation_tail_in_relative_precision(alpha, beta, log_t):
    # beyond the rule's window, 1 - x**(ab) E[a, 1+ab; b](-x**a) would cancel to about eps / n
    t = 10.0**log_t
    got = relaxation(ModelSpec("hn", alpha=alpha, beta=beta), t)
    assert got == pytest.approx(hn_tail_reference(alpha, beta, t), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "alpha, t", [(a, t) for a in (1.0 / 12.0, 0.1, 0.15) for t in (1e5, 1e6)]
)
def test_hn_tail_at_small_alpha_in_relative_precision(alpha, t):
    # at alpha = 1/12 the tail's 24th term is 0 (1 - 24 alpha is a pole of 1/Gamma); the
    # bound that truncates the sum is not, and the sum runs on to its 1e-17 term
    got = relaxation(ModelSpec("hn", alpha=alpha, beta=0.5), t)
    assert got == pytest.approx(hn_tail_reference(alpha, 0.5, t), rel=1e-13, abs=0.0)


def test_hn_tail_is_not_taken_where_its_terms_grow():
    # hn(0.5, 2.5) beyond the regime at t/tau = 2: the rule does not serve (a b > 1), and
    # the tail's odd terms grow about 6x a step, so only the HN form holds; against
    # 1 - x**(ab) E[a, 1+ab; b](-x**a) from its power series, to 40 digits
    alpha, beta, x = 0.5, 2.5, 2.0
    with mp.workdps(40):
        a, b, z = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x) ** mp.mpf(alpha)
        e = mp.fsum(mp.rf(b, k) * (-z) ** k / (mp.factorial(k) * mp.gamma(a * k + 1 + a * b))
                    for k in range(120))
        exact = float(1 - mp.mpf(x) ** (a * b) * e)
    got = relaxation(ModelSpec("hn", alpha=alpha, beta=beta, allow_unphysical=True), x)
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
