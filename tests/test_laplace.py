"""Forward/inverse Laplace machinery and the Efros composition operator."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from relaxkit.exceptions import ContourOverflow, DomainError
from relaxkit.inversion import gaver_stehfest, stehfest_weights, talbot, talbot_sum
from relaxkit.laplace import (
    LaplaceImage,
    efros_compose,
    forward_laplace,
    inverse_laplace,
    subordination_kernel,
    subordination_pdf,
)
from relaxkit.models import ModelSpec, _partials, asymptotic, relaxation
from relaxkit.quadrature import tanh_sinh

def test_tanh_sinh_endpoint_singularity():
    value, err = tanh_sinh(lambda t: t**-0.5, 0.0, 1.0)
    assert value == pytest.approx(2.0, rel=1e-12)
    value, _ = tanh_sinh(lambda t: math.log(t), 0.0, 1.0)
    assert value == pytest.approx(-1.0, rel=1e-11)


def test_inverse_debye_pair():
    image = LaplaceImage(lambda z: 1.0 / (1.0 + z))
    assert inverse_laplace(image, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-10)
    assert gaver_stehfest(image.regular, 1.0, 14) == pytest.approx(math.exp(-1.0), rel=1e-5)


def test_inverse_unit_step():
    image = LaplaceImage(lambda z: 1.0 / z)
    assert inverse_laplace(image, 2.0) == pytest.approx(1.0, rel=1e-10)


def test_inverse_branch_point_image():
    # z**-1/2 exp(-sqrt(z)) <-> exp(-1/(4t)) / sqrt(pi t); verify the closed
    # form by forward quadrature before using it as the oracle
    def original(t):
        return math.exp(-1.0 / (4.0 * t)) / math.sqrt(math.pi * t)

    fw, _ = quad(lambda t: math.exp(-t) * original(t), 0.0, np.inf, limit=200)
    assert fw == pytest.approx(math.exp(-1.0), abs=1e-9)

    image = LaplaceImage(lambda z: z**-0.5 * cmath.exp(-(z**0.5)))
    assert inverse_laplace(image, 1.0) == pytest.approx(original(1.0), rel=1e-9)


def test_methods_agree_on_smooth_images():
    images = [
        LaplaceImage(lambda z: 1.0 / (1.0 + z)),
        LaplaceImage(lambda z: (1.0 + z) ** -0.4),
        LaplaceImage(lambda z: 1.0 / (1.0 + z**0.5)),
        LaplaceImage(lambda z: (1.0 + z**0.7) ** -0.6),
    ]
    # order 14 and t below ~tau/2: the double-precision sweet spot where the
    # Salzer noise floor and the Gaver tail-truncation error both stay small
    for image in images:
        for t in (0.2, 0.5):
            a = inverse_laplace(image, t)
            b = gaver_stehfest(image.regular, t, 14)
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_gaver_stehfest_fails_on_an_oscillatory_image_that_talbot_resolves(t):
    # sin(8t): poles off the real axis defeat the real-axis samples of Gaver-Stehfest,
    # not the complex contour of Talbot (up to t = 1; by t = 2 Talbot too is off, by 1.4e-5)
    image = LaplaceImage(lambda z: 8.0 / (z * z + 64.0))
    assert inverse_laplace(image, t) == pytest.approx(math.sin(8.0 * t), abs=1e-10)
    assert abs(gaver_stehfest(image.regular, t, 14) - math.sin(8.0 * t)) > 1e-6


def test_the_inversion_takes_no_node_count():
    # the node count is fixed at 32: with a caller-set one, nodes=1 gives 0.746 here, not 1.0
    with pytest.raises(TypeError):
        talbot(lambda z: 1.0 / z, 1.0, nodes=1)
    with pytest.raises(TypeError):
        inverse_laplace(LaplaceImage(lambda z: 1.0 / z), 1.0, 1)


def test_singular_weight_not_folded():
    # image = 2 + 1/(1+z): the constant is a point mass, the pointwise value
    # must stay exp(-t)
    image = LaplaceImage(lambda z: 2.0 + 1.0 / (1.0 + z), singular_weight=2.0)
    assert inverse_laplace(image, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-9)
    for weight in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            LaplaceImage(lambda z: z, singular_weight=weight)


def test_forward_exponential():
    assert forward_laplace(lambda t: math.exp(-t), 1.0) == pytest.approx(0.5, rel=1e-9)


def test_forward_levy_identity():
    from relaxkit.specfun import levy_stable_density

    value = forward_laplace(lambda t: levy_stable_density(0.5, t), 1.0, tail_exponent=-1.5)
    assert value == pytest.approx(math.exp(-1.0), abs=1e-7)


def test_forward_power_law_pair():
    value = forward_laplace(
        lambda t: t**-0.5 / math.gamma(0.5), 4.0, tail_exponent=-0.5
    )
    assert value == pytest.approx(0.5, rel=1e-8)


def test_forward_heavy_tail_exponent():
    # an algebraic tail steeper than 1/t is fine under the exponential weight
    value = forward_laplace(
        lambda t: t**-0.5 * (1.0 + t) ** -1.0, 1.0, tail_exponent=-1.5
    )
    oracle, _ = quad(lambda t: math.exp(-t) * t**-0.5 / (1.0 + t), 0.0, np.inf, limit=200)
    assert value == pytest.approx(oracle, rel=1e-8)


def test_forward_rejects_nonpositive_z():
    with pytest.raises(DomainError):
        forward_laplace(lambda t: math.exp(-t), 0.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_forward_rejects_a_non_finite_tail_exponent(p):
    with pytest.raises(DomainError):
        forward_laplace(lambda t: math.exp(-t), 1.0, tail_exponent=p)


def test_efros_normalized_kernel():
    # any normalized kernel composed with h = 1 integrates to 1
    def gauss(u, t):
        return math.exp(-0.5 * ((u - t) / 0.2) ** 2) / (0.2 * math.sqrt(2.0 * math.pi))

    assert efros_compose(lambda u: 1.0, gauss, 3.0) == pytest.approx(1.0, abs=1e-6)


def test_efros_delta_limit_recovers_cc():
    # narrow Gaussian at xi = t: the trivial subordination row
    spec = ModelSpec("cc", alpha=0.5)
    t = 1.0
    target = relaxation(spec, t)
    errors = []
    for width in (0.02, 0.01):
        def kernel(u, tt, w=width):
            return math.exp(-0.5 * ((u - tt) / w) ** 2) / (w * math.sqrt(2.0 * math.pi))

        value = efros_compose(lambda u: relaxation(spec, u), kernel, t)
        errors.append(abs(value - target))
    assert errors[1] < errors[0]
    assert errors[1] < 1e-4


def test_efros_levy_kernel_builds_cc():
    # exp(-xi) composed with the Levy kernel is the Cole-Cole relaxation
    value = efros_compose(
        lambda u: math.exp(-u), lambda u, t: subordination_kernel(0.5, u, t), 1.0
    )
    from relaxkit.specfun import PrabhakarParams, prabhakar

    target = prabhakar(PrabhakarParams(0.5, 1.0, 1.0), 1.0)
    assert value == pytest.approx(target, abs=1e-8)


@pytest.mark.parametrize("kind, parent", [("hn", "cd"), ("jws", "mcd")])
@pytest.mark.parametrize("alpha, beta, t", [(0.35, 0.6, 0.5), (0.75, 0.4, 2.0)])
def test_levy_parent_composition_away_from_alpha_half(kind, parent, alpha, beta, t):
    # n_hn(t) = Int n_cd(u) f(alpha; u, t) du, and jws from mcd likewise
    pspec = ModelSpec(parent, alpha=1.0, beta=beta)
    value = efros_compose(
        lambda u: relaxation(pspec, u),
        lambda u, tt: subordination_kernel(alpha, u, tt),
        t,
        rel_tol=1e-8,
    )
    direct = relaxation(ModelSpec(kind, alpha=alpha, beta=beta), t)
    assert value == pytest.approx(direct, abs=1e-9)


def test_subordination_kernel_closed_form():
    # f(1/2; 1, 1) = exp(-1/4)/sqrt(pi)
    assert subordination_kernel(0.5, 1.0, 1.0) == pytest.approx(
        math.exp(-0.25) / math.sqrt(math.pi), rel=1e-10
    )


def test_subordination_kernel_tail_vanishes():
    assert subordination_kernel(0.5, 1e8, 1.0) < 1e-12


def test_subordination_kernel_normalization_grid():
    for alpha in (0.3, 0.5, 0.8):
        for t in (0.1, 1.0, 10.0):
            total, _ = quad(
                lambda u: subordination_kernel(alpha, u, t), 0.0, np.inf, limit=400
            )
            assert total == pytest.approx(1.0, abs=1e-6)


def test_inverse_laplace_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        inverse_laplace(LaplaceImage(lambda z: 1.0 / z), 0.0)


def test_inversion_cores_raise_domain_error():
    with pytest.raises(DomainError):
        talbot(lambda z: 1.0 / z, 0.0)
    with pytest.raises(DomainError):
        gaver_stehfest(lambda s: 1.0 / s, -1.0)
    with pytest.raises(DomainError):
        stehfest_weights(7)


def _hn_exponent(z):
    return (1.0 + z**0.5) ** 0.5 - 1.0


def _levy_kernel(u, t):
    return subordination_kernel(0.5, u, t)


# each entry point that takes one time t, plus subordination_pdf's xi and forward_laplace's z,
# on the image 1/z, the hn(0.5, 0.5) exponent or a Levy kernel; and models.asymptotic
TIME_ENTRY_POINTS = {
    "inverse_laplace-talbot": lambda t: inverse_laplace(LaplaceImage(lambda z: 1.0 / z), t),
    "gaver_stehfest-14": lambda t: gaver_stehfest(LaplaceImage(lambda z: 1.0 / z).regular, t, 14),
    "talbot": lambda t: talbot(lambda z: 1.0 / z, t),
    "gaver_stehfest": lambda t: gaver_stehfest(lambda s: 1.0 / s, t),
    "subordination_pdf": lambda t: subordination_pdf(_hn_exponent, 1.0, t),
    "subordination_pdf-xi": lambda xi: subordination_pdf(_hn_exponent, np.array([1.0, xi]), 1.0),
    "subordination_kernel": lambda t: subordination_kernel(0.5, 1.0, t),
    "efros_compose": lambda t: efros_compose(lambda xi: np.exp(-xi), _levy_kernel, t),
    "forward_laplace-z": lambda z: forward_laplace(lambda t: np.exp(-t), z),
    "asymptotic": lambda t: asymptotic(ModelSpec("hn", alpha=0.6, beta=0.5), "relaxation", "short", t),
}


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", TIME_ENTRY_POINTS)
def test_a_time_outside_zero_to_infinity_raises_domain_error(entry, t):
    with pytest.raises(DomainError):
        TIME_ENTRY_POINTS[entry](t)


def _overflowing(z, t):
    with np.errstate(over="ignore"):
        return np.exp(1e3 * z / t)  # inf wherever Re z / t > 0.71


@pytest.mark.parametrize(
    "image",
    [_overflowing, lambda z, t: np.stack([t / (t + z), _overflowing(z, t)], axis=-1)],
    ids=["points", "stacked"],
)
def test_a_non_finite_image_raises_contour_overflow(image):
    with pytest.raises(ContourOverflow):
        talbot_sum(image, np.array([0.5, 1.0, 2.0]))


def test_talbot_raises_contour_overflow_on_a_non_finite_image():
    with pytest.raises(ContourOverflow):
        talbot(lambda z: math.inf, 1.0)
    with pytest.raises(ContourOverflow):
        talbot(lambda z: complex(math.nan, 0.0), 1.0)


@pytest.mark.parametrize("spec", [ModelSpec("hn", alpha=0.7, beta=0.5), ModelSpec("jws", alpha=0.6, beta=0.5)])
def test_a_stacked_image_inverts_each_column_as_its_own_call(spec):
    # the time-domain fit Jacobian inverts its three partials as one stacked image of the
    # nodes z and the points x
    x = np.geomspace(1e-3, 1e3, 40)

    def image(z, x):
        return _partials(spec, z, x, factor=-x / z)

    stacked = talbot_sum(image, x)
    assert stacked.shape == (x.size, 3)
    for column in range(3):
        alone = talbot_sum(lambda z, x: image(z, x)[..., column], x)
        assert np.array_equal(stacked[:, column], alone)
