"""Memory kernels, Sonine pairing, characteristic exponent, evolution residuals."""

import math
import warnings

import numpy as np
import pytest

from relaxkit import quadrature
from relaxkit.exceptions import DomainError
from relaxkit.kernels import (
    KernelConfig,
    caputo_rl_identity_residual,
    characteristic_exponent,
    evolution_residual,
    kernel_singular_weight,
    memory_M_hat,
    memory_M_time,
    memory_k_hat,
    memory_k_time,
    memory_time_with_bound,
)
from relaxkit.laplace import LaplaceImage, forward_laplace, inverse_laplace
from relaxkit.models import ModelSpec

SQRT2 = math.sqrt(2.0)

ALL_KERNEL_SPECS = [
    ModelSpec("debye"),
    ModelSpec("cc", alpha=0.6),
    ModelSpec("cd", beta=0.4),
    ModelSpec("mcd", beta=0.7),
    ModelSpec("hn", alpha=0.5, beta=0.5),
    ModelSpec("jws", alpha=0.75, beta=1.0 / 3.0),
]


def hat_image(cfg: KernelConfig, which: str) -> LaplaceImage:
    """Complex continuation of the hat forms, independent of the time-domain code."""
    spec = cfg.spec

    def evaluator(z):
        zt = z * spec.tau
        a, b = spec.alpha, spec.beta
        if spec.kind == "debye":
            ratio = zt
        elif spec.kind == "cc":
            ratio = zt**a
        elif spec.kind == "cd":
            ratio = (1.0 + zt) ** b - 1.0
        elif spec.kind == "hn":
            ratio = (1.0 + zt**a) ** b - 1.0
        elif spec.kind == "jws":
            ratio = 1.0 / ((1.0 + zt**-a) ** b - 1.0)
        else:
            ratio = 1.0 / ((1.0 + zt**-1.0) ** b - 1.0)
        if which == "M":
            return 1.0 / (cfg.rate_B * ratio)
        return cfg.rate_B * ratio / z - kernel_singular_weight(cfg, "k")

    return LaplaceImage(evaluator)


def test_config_validation():
    with pytest.raises(DomainError):
        KernelConfig(ModelSpec("kww", alpha=0.5))
    with pytest.raises(DomainError):
        KernelConfig(ModelSpec("debye"), rate_B=0.0)


def test_memory_M_hat_debye():
    cfg = KernelConfig(ModelSpec("debye", tau=2.0), rate_B=3.0)
    for s in (0.3, 1.0, 4.0):
        assert memory_M_hat(cfg, s) == pytest.approx(1.0 / (3.0 * 2.0 * s), rel=1e-14)


def test_memory_M_hat_hn_value():
    cfg = KernelConfig(ModelSpec("hn", alpha=0.5, beta=0.5))
    assert memory_M_hat(cfg, 1.0) == pytest.approx(1.0 / (SQRT2 - 1.0), rel=1e-13)


def test_memory_k_hat_values():
    assert memory_k_hat(KernelConfig(ModelSpec("debye", tau=1.0)), 0.7) == pytest.approx(
        1.0, rel=1e-14
    )
    cfg = KernelConfig(ModelSpec("hn", alpha=0.5, beta=0.5))
    assert memory_k_hat(cfg, 1.0) == pytest.approx(SQRT2 - 1.0, rel=1e-13)


def test_sonine_identity_exact():
    rng = np.random.default_rng(42)
    for spec in ALL_KERNEL_SPECS:
        cfg = KernelConfig(spec, rate_B=1.7)
        for s in 10.0 ** rng.uniform(-3, 3, 20):
            prod = s * memory_M_hat(cfg, float(s)) * memory_k_hat(cfg, float(s))
            assert abs(prod - 1.0) < 1e-14


def test_memory_M_hat_monotone_decreasing():
    for spec in ALL_KERNEL_SPECS:
        cfg = KernelConfig(spec)
        values = [memory_M_hat(cfg, float(s)) for s in np.logspace(-3, 3, 30)]
        assert all(v > 0.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))


def test_characteristic_exponent_forms():
    deb = KernelConfig(ModelSpec("debye", tau=2.0), rate_B=3.0)
    assert characteristic_exponent(deb, 0.7) == pytest.approx(3.0 * 2.0 * 0.7, rel=1e-14)
    cc = KernelConfig(ModelSpec("cc", alpha=0.6, tau=2.0), rate_B=1.5)
    for s in (0.2, 1.0, 5.0):
        assert characteristic_exponent(cc, s) == pytest.approx(1.5 * (2.0 * s) ** 0.6, rel=1e-13)


def test_characteristic_exponent_vanishes_at_origin():
    cfg = KernelConfig(ModelSpec("hn", alpha=0.5, beta=0.5))
    assert characteristic_exponent(cfg, 1e-12) < 1e-5


def test_characteristic_exponent_bernstein_shape():
    # nondecreasing with nonincreasing increments (concavity spot check)
    cfg = KernelConfig(ModelSpec("jws", alpha=0.6, beta=0.5))
    s = np.linspace(0.5, 50.0, 40)
    psi = np.array([characteristic_exponent(cfg, float(v)) for v in s])
    d = np.diff(psi)
    assert np.all(d > 0.0)
    assert np.all(np.diff(d) < 1e-12)


def test_memory_M_time_debye_constant():
    cfg = KernelConfig(ModelSpec("debye", tau=2.0), rate_B=3.0)
    for t in (0.1, 1.0, 10.0):
        assert memory_M_time(cfg, t) == pytest.approx(1.0 / 6.0, rel=1e-13)
    # verified against Talbot inversion of 1/(B tau s)
    assert inverse_laplace(hat_image(cfg, "M"), 1.0) == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_debye_k_is_pure_point_mass():
    cfg = KernelConfig(ModelSpec("debye", tau=2.0), rate_B=3.0)
    assert kernel_singular_weight(cfg, "k") == 6.0
    assert memory_k_time(cfg, 1.0) == 0.0


def test_mcd_k_point_mass_weight():
    cfg = KernelConfig(ModelSpec("mcd", beta=0.5, tau=2.0), rate_B=1.5)
    assert kernel_singular_weight(cfg, "k") == pytest.approx(1.5 * 2.0 / 0.5, rel=1e-14)


def test_time_kernels_match_hat_inversion():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in ALL_KERNEL_SPECS:
            cfg = KernelConfig(spec)
            for which in ("M", "k"):
                if spec.kind == "debye" and which == "k":
                    continue
                for t in (0.1, 1.0, 10.0):
                    value, bound = memory_time_with_bound(cfg, t, which)
                    ref = inverse_laplace(hat_image(cfg, which), t)
                    assert abs(value - ref) <= max(1e-5 * (1.0 + abs(ref)), 2.0 * bound)


def test_hat_time_forward_consistency():
    # forward transform of k(t) (plus any point mass) reproduces k_hat
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = [
            (ModelSpec("hn", alpha=0.5, beta=0.5), 0.0),
            (ModelSpec("cc", alpha=0.7), 0.0),
            (ModelSpec("cd", beta=0.4), 0.0),
            (ModelSpec("mcd", beta=0.6), -0.6),
        ]
        for spec, tail in cases:
            cfg = KernelConfig(spec)
            weight = kernel_singular_weight(cfg, "k")
            for s in (0.5, 1.0, 2.0):
                fw = forward_laplace(lambda t: memory_k_time(cfg, t), s, tail_exponent=tail)
                assert fw + weight == pytest.approx(memory_k_hat(cfg, s), abs=1e-4)


def test_b_independence():
    # B scales out: residuals and Psi/B are invariant
    ts = [0.5, 2.0]
    spec = ModelSpec("hn", alpha=0.5, beta=0.5)
    r1 = evolution_residual(KernelConfig(spec, rate_B=1.0), ts)
    r2 = evolution_residual(KernelConfig(spec, rate_B=7.3), ts)
    assert r1 == pytest.approx(r2, abs=1e-12)
    p1 = characteristic_exponent(KernelConfig(spec, rate_B=1.0), 1.3)
    p2 = characteristic_exponent(KernelConfig(spec, rate_B=7.3), 1.3)
    assert p2 / 7.3 == pytest.approx(p1, rel=1e-14)
    prod = 1.3 * memory_M_hat(KernelConfig(spec, rate_B=7.3), 1.3) * memory_k_hat(
        KernelConfig(spec, rate_B=7.3), 1.3
    )
    assert prod == pytest.approx(1.0, abs=1e-14)


def test_evolution_residual_debye():
    assert evolution_residual(KernelConfig(ModelSpec("debye")), np.linspace(0.1, 5, 8)) < 1e-14


def test_evolution_residual_hn():
    cfg = KernelConfig(ModelSpec("hn", alpha=0.5, beta=0.5))
    assert evolution_residual(cfg, np.linspace(0.1, 5.0, 8)) < 1e-4


@pytest.mark.parametrize("alpha, beta", [(0.5, 2.0), (0.8, 1.25)])
def test_evolution_residual_on_the_regime_boundary(alpha, beta):
    # at alpha beta = 1 k carries the point mass B tau delta(t); a residual without its
    # (w/B) n'(t) term read 0.25 and 0.48 here
    cfg = KernelConfig(ModelSpec("hn", alpha=alpha, beta=beta), rate_B=1.7)
    assert evolution_residual(cfg, [0.5, 1.0, 2.0]) < 1e-6


@pytest.mark.parametrize("spec", [ModelSpec("jws", alpha=0.3, beta=0.95), ModelSpec("cc", alpha=0.6)])
def test_convolutions_give_the_kernel_its_exact_lag(spec):
    # forming the lag as t - (t - s) rounds it away where the kernel is singular: the
    # residuals read 1.1e-5 (jws) and 2.6e-7 (cc) that way
    assert evolution_residual(KernelConfig(spec), [0.01, 1.0, 20.0]) < 1e-9


def test_evolution_residual_jws():
    cfg = KernelConfig(ModelSpec("jws", alpha=0.5, beta=0.5))
    assert evolution_residual(cfg, np.linspace(0.1, 5.0, 8)) < 1e-4


@pytest.mark.parametrize("kind", ["hn", "jws"])
def test_evolution_residual_leaves_out_nodes_that_round_onto_t(kind):
    # the upper half of each convolution samples u = t - s; the kernel is singular at u = t,
    # where the nodes closest to s = 0 round
    t = 1.3
    assert any((t - quadrature._nodes(0.0, t / 2.0, k)[0] == t).any() for k in range(4))
    residual = evolution_residual(KernelConfig(ModelSpec(kind, alpha=0.5, beta=0.5)), [t])
    assert math.isfinite(residual) and residual < 1e-4


def test_evolution_residual_cc_reduces_to_caputo():
    # beta = 1: the HN kernel collapses to the Caputo power kernel, so the
    # general residual and the explicit Caputo formulation coincide
    from relaxkit.models import relaxation, response
    from relaxkit.quadrature import tanh_sinh

    a = 0.6
    cfg = KernelConfig(ModelSpec("cc", alpha=a))
    assert evolution_residual(cfg, [0.5, 1.0, 3.0]) < 1e-6
    spec = cfg.spec
    for t in (0.5, 2.0):
        def integrand(u):
            return (t - u) ** -a / math.gamma(1.0 - a) * (-response(spec, u))

        left, _ = tanh_sinh(integrand, 0.0, t / 2.0, rel_tol=1e-10)
        right, _ = tanh_sinh(integrand, t / 2.0, t, rel_tol=1e-10)
        caputo = left + right
        assert caputo + relaxation(spec, t) == pytest.approx(0.0, abs=1e-6)


def test_caputo_rl_identity():
    ts = [0.3, 1.0, 3.0]
    for spec in (ModelSpec("hn", alpha=0.5, beta=0.5), ModelSpec("jws", alpha=0.5, beta=0.5)):
        residual = caputo_rl_identity_residual(KernelConfig(spec), ts)
        assert residual < 1e-4
        assert caputo_rl_identity_residual(KernelConfig(spec, rate_B=7.3), ts) == residual


def test_evolution_residual_grid_validation():
    cfg = KernelConfig(ModelSpec("debye"))
    with pytest.raises(DomainError):
        evolution_residual(cfg, [2.0, 1.0])
    with pytest.raises(DomainError):
        evolution_residual(cfg, [-1.0, 1.0])
