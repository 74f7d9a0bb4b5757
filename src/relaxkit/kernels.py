"""Memory functions M and k, the Sonine pairing, and evolution-equation residuals.

In the Laplace domain everything follows algebraically from the spectral
function: ``M_hat = phi_hat / (B (1 - phi_hat))``, ``k_hat = 1 / (s M_hat)``
(the Sonine relation ``s M_hat k_hat = 1`` is exact by construction) and the
characteristic exponent ``Psi_hat = 1 / M_hat``.  The rate constant B is a
pure scale: it cancels from the Sonine product, the evolution residuals and
``Psi_hat / B``.

Time-domain kernels.  With ``g(w) = (1 + w)**beta - 1`` (``models._pow1p_m1``)
the HN family has ``M_hat(z) = 1 / (B g((z tau)**alpha))`` and the JWS family
``k_hat(z) = B / (g((z tau)**-alpha) z)``; cd and mcd are the alpha = 1 cases,
and mcd k loses its point mass ``B tau / beta``.  These four kernels are
inverted on the fixed 24-node Talbot contour (Abate & Valko 2004) as one
array over the nodes x the points; against 34-digit mpmath they are within
1e-10 relative on t/tau from 1e-3 to 1e3, the constant bound
``memory_time_with_bound`` reports for them.  (32 and 48 nodes lose digits
to rounding.)  The others are closed forms with bound 0: hn k and jws/mcd M
in Prabhakar functions, cd k as ``B Gamma(-beta, t/tau) / |Gamma(-beta)|``,
cc in powers of t, Debye ``M = 1/(B tau)`` and the pure point mass
``k = B tau delta(t)``.

Evolution equations.  The HN family shares one kernel
``K(w) = w**(-ab) E[a, 1-ab; -b](-(w/tau)**a)`` (``_K``), which the Caputo
residual, the Caputo/Riemann-Liouville identity and its RL side all
convolve against n' or n; every such convolution is one tanh-sinh pair split
at t/2 (``_split_integral``), a level of abscissae per integrand call.
"""

from __future__ import annotations

import math
import warnings  # noqa: F401  (rebound by relaxbench's tracer to count warnings)
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .exceptions import ContourOverflow, DomainError
from .inversion import talbot_contour
from .models import (
    ModelSpec,
    _SPECTRAL_KINDS,
    _jws,
    _law,
    _pow,
    _pow1p_m1,
    _ratio,
    _time_points,
    relaxation,
    response,
    spectral_ratio_real,
)
from .quadrature import tanh_sinh
from .specfun import DEFAULT_STRATEGY, EvalStrategy, prabhakar_eval

__all__ = [
    "KernelConfig",
    "memory_M_hat",
    "memory_k_hat",
    "characteristic_exponent",
    "memory_M_time",
    "memory_k_time",
    "memory_time_with_bound",
    "kernel_singular_weight",
    "evolution_residual",
    "caputo_rl_identity_residual",
]

_CONTOUR_BOUND = 1e-10  # relative error bound of the contour-inverted kernels
# nodes x 1 columns of the 24-node contour at t = 1
_CONTOUR_Z, _CONTOUR_W = (np.array(a)[:, None] for a in talbot_contour(24))


@dataclass(frozen=True)
class KernelConfig:
    """Model plus the Volterra rate constant B."""

    spec: ModelSpec
    rate_B: float = 1.0

    def __post_init__(self):
        if self.spec.kind not in _SPECTRAL_KINDS:
            raise DomainError(f"no memory-kernel formalism for kind {self.spec.kind!r}")
        if not (self.rate_B > 0.0):
            raise DomainError(f"rate_B must be positive, got {self.rate_B}")


def memory_M_hat(cfg: KernelConfig, s: float) -> float:
    """M_hat(s) = phi_hat(s) / (B (1 - phi_hat(s))), positive and decreasing in s."""
    ratio = spectral_ratio_real(cfg.spec, s)
    if ratio == 0.0:
        raise DomainError("phi_hat(s) = 1 at s = 0+; the memory function diverges there")
    return 1.0 / (cfg.rate_B * ratio)


def memory_k_hat(cfg: KernelConfig, s: float) -> float:
    """k_hat(s) = 1 / (s M_hat(s)); the Sonine partner of M."""
    return cfg.rate_B * spectral_ratio_real(cfg.spec, s) / s


def characteristic_exponent(cfg: KernelConfig, s: float) -> float:
    """Laplace-Levy exponent Psi_hat(s) = B (1 - phi_hat) / phi_hat = 1 / M_hat."""
    return cfg.rate_B * spectral_ratio_real(cfg.spec, s)


def kernel_singular_weight(cfg: KernelConfig, which: str) -> float:
    """Point-mass weight of the requested time-domain kernel.

    The weight is the s -> inf limit of the hat form.  The Debye k is the
    pure point mass ``B tau delta(t)``; the MCD k keeps ``B tau / beta`` of
    it, and the HN/CD k regain ``B tau`` exactly on the regime boundary
    ``alpha beta = 1``.  All M kernels and the other k kernels are regular.
    A boundary spec has the weight of the law it reduces to (``models._law``):
    jws(1, beta) that of mcd(beta), cc(1) that of Debye.
    """
    if which not in ("M", "k"):
        raise DomainError("which must be 'M' or 'k'")
    spec = cfg.spec
    if which == "k":
        law = _law(spec)
        if law in ("debye", "mcd"):
            return cfg.rate_B * spec.tau / spec.beta
        if law in ("hn", "cd") and spec.alpha * spec.beta == 1.0:
            return cfg.rate_B * spec.tau
    return 0.0


def _series_sum(*args):
    # kept only for the span table of relaxbench/tracing.py; it goes in the benchmark follow-up
    raise NotImplementedError("the kernel renewal series is gone")


def _invert(image, x):
    """Inverse Laplace transform of ``image(p)``, p = z tau on the nodes x points array, at the
    times x = t/tau (a float or an array).  A stacked image (nodes x points x columns) inverts
    every column in the same pass; the columns become the result's last axis.  The nodes are
    summed in ascending order (cumsum, not a pairwise sum), so a grid value equals the value
    of a scalar call."""
    xs = np.reshape(x, -1)
    values = image(_CONTOUR_Z / xs)
    columns = values.shape[2:]
    lift = (1,) * len(columns)
    terms = (_CONTOUR_W.reshape((-1, 1) + lift) * values).real
    if not np.all(np.isfinite(terms)):
        raise ContourOverflow("non-finite kernel image on the Talbot contour")
    value = np.cumsum(terms, axis=0)[-1] * 2.0 / (5.0 * xs).reshape((-1,) + lift)
    if isinstance(x, np.ndarray):
        return value.reshape(x.shape + columns)
    return value[0] if columns else float(value[0])


def _w_over_g_less(w, b: float):
    """``w / g(w) - 1/b`` as ``-h / (b (h + b))`` with ``h = g(w)/w - b``; at small |w|, where
    h cancels (and subtracting 1/b from w / g(w) would lose 3-5 digits of mcd k at small t),
    h is its binomial series ``sum_{j >= 2} C(b, j) w**(j-1)`` to j = 28, whose first
    dropped term is below 0.25**27 ~ 6e-17 of the sum."""
    h = _pow1p_m1(w, b) / w - b
    small = np.abs(w) < 0.25
    if small.any():
        h[small] = w[small] * np.polyval(sc.binom(b, np.arange(28, 1, -1)), w[small])
    return -h / (b * (h + b))


def memory_time_with_bound(
    cfg: KernelConfig, t, which: str, strategy: EvalStrategy = DEFAULT_STRATEGY
):
    """Regular part of M(t) or k(t) plus its error bound.

    ``t`` is a number (two floats) or an array (two arrays of its shape).  The
    bound is ``1e-10 |value|`` for the contour-inverted kernels (hn/cd M,
    jws/mcd k) and 0 for the closed forms.
    """
    t, exp = _time_points(t, positive=True)
    if which not in ("M", "k"):
        raise DomainError("which must be 'M' or 'k'")
    spec = cfg.spec
    a, b, tau, B = spec.alpha, spec.beta, spec.tau, cfg.rate_B
    x = t / tau
    zero = 0.0 * x

    if which == "M":
        if spec.kind in ("debye", "cc"):
            return _pow(x, a - 1.0) / (B * tau * math.gamma(a)), zero
        if _jws(spec):
            return prabhakar_eval(a, 0.0, -b, _pow(x, a), strategy) / (B * t), zero
        value = _invert(lambda p: 1.0 / _ratio(spec, p), x) / (B * tau)
        return value, _CONTOUR_BOUND * abs(value)

    # which == "k"
    if spec.kind == "debye":
        return zero, zero  # pure point mass B*tau*delta(t); see kernel_singular_weight
    if spec.kind == "cc":
        return B * _pow(x, -a) / math.gamma(1.0 - a), zero
    if spec.kind == "hn":
        val = B * _pow(x, -a * b) * prabhakar_eval(a, 1.0 - a * b, -b, _pow(x, a), strategy) - B
        return val, zero
    if spec.kind == "cd":
        # B Gamma(-b, x) / |Gamma(-b)| with Gamma(-b, x) = (x**-b e**-x - Gamma(1-b, x)) / b
        q = sc.gammaincc(1.0 - b, x)
        val = B * (_pow(x, -b) * exp(-x) * float(sc.rgamma(1.0 - b)) - q)
        return (val, zero) if isinstance(x, np.ndarray) else (float(val), zero)
    # jws / mcd: k_hat(z) = B tau p**(a-1) w / g(w) with p = z tau, w = p**-a; its
    # leading term p**(a-1) / b inverts in closed form (for mcd, a = 1, it is the
    # point mass and its regular part is 0), the rest on the contour
    lead = _pow(x, -a) * float(sc.rgamma(1.0 - a)) / b
    value = B * (lead + _invert(lambda p: p ** (a - 1.0) * _w_over_g_less(p**-a, b), x))
    return value, _CONTOUR_BOUND * abs(value)


def memory_M_time(cfg: KernelConfig, t: float, strategy: EvalStrategy = DEFAULT_STRATEGY) -> float:
    """Regular part of the memory function M(t)."""
    return memory_time_with_bound(cfg, t, "M", strategy)[0]


def memory_k_time(cfg: KernelConfig, t: float, strategy: EvalStrategy = DEFAULT_STRATEGY) -> float:
    """Regular part of the Sonine partner kernel k(t)."""
    return memory_time_with_bound(cfg, t, "k", strategy)[0]


def _K(spec: ModelSpec, w):
    """The HN-family evolution kernel w**(-ab) E[a, 1-ab; -b](-(w/tau)**a), w a number or array."""
    a, b = spec.alpha, spec.beta
    return w ** -(a * b) * prabhakar_eval(a, 1.0 - a * b, -b, (w / spec.tau) ** a)


def _split_integral(f, t: float, rel_tol: float) -> float:
    """Int_0^t f(u) du by tanh-sinh on [0, t/2] and [t/2, t]: the convolutions here carry an
    integrable singularity at each end (u**(ab-1) from n' at 0, the kernel's at t)."""
    left, _ = tanh_sinh(f, 0.0, t / 2.0, rel_tol=rel_tol)
    right, _ = tanh_sinh(f, t / 2.0, t, rel_tol=rel_tol)
    return left + right


def _caputo_convolution(spec: ModelSpec, t: float) -> float:
    """Int_0^t K(t-u) n'(u) du."""
    return _split_integral(lambda u: _K(spec, t - u) * (-response(spec, u)), t, 1e-9)


def evolution_residual(cfg: KernelConfig, t_grid) -> float:
    """Max absolute residual of the model's memory evolution equation on t_grid.

    HN family (hn, cc, cd, debye): the Caputo-type form,
    ``Int_0^t K(t-u) n'(u) du + tau**(-ab) = 0``.
    JWS family (jws, mcd): the integral form,
    ``Int_0^t (t-u)**-1 E[a, 0; -b](-((t-u)/tau)**a) n(u) du - 1 = 0``.
    Residuals are independent of the rate constant B.
    """
    ts = [float(t) for t in t_grid]
    if not ts or any(t <= 0.0 for t in ts) or sorted(ts) != ts:
        raise DomainError("t_grid must be positive and sorted ascending")
    spec = cfg.spec
    a, b, tau = spec.alpha, spec.beta, spec.tau
    worst = 0.0
    for t in ts:
        if spec.kind == "debye":
            # k is the point mass B*tau*delta: the equation collapses to tau n' + n = 0
            resid = tau * (-response(spec, t)) + relaxation(spec, t)
        elif _jws(spec):
            def integrand(u):
                w = t - u
                return prabhakar_eval(a, 0.0, -b, (w / tau) ** a) / w * relaxation(spec, u)

            # the kernel's formal delta samples n at the endpoint: the
            # distributional convolution is the regular integral plus n(t)
            resid = _split_integral(integrand, t, 1e-9) + relaxation(spec, t) - 1.0
        else:
            resid = (_caputo_convolution(spec, t) + tau ** (-a * b)) * tau ** (a * b)
        worst = max(worst, abs(resid))
    return worst


def caputo_rl_identity_residual(cfg: KernelConfig, t_grid, fd_step: float = 1e-3) -> float:
    """Max residual of the Caputo/Riemann-Liouville operator relation on t_grid.

    Checks ``C-op n(t) = RL-op n(t) - K(t) n(0+)`` with
    ``K(t) = t**(-ab) E[a, 1-ab; -b](-(t/tau)**a)``: the left side is the
    Caputo convolution against n', the RL side differentiates (by central
    finite difference with relative step ``fd_step``) the convolution against
    n itself.
    """
    ts = [float(t) for t in t_grid]
    if not ts or any(t <= 0.0 for t in ts):
        raise DomainError("t_grid must be positive")
    spec = cfg.spec

    def rl_integral(t: float) -> float:
        return _split_integral(lambda u: _K(spec, t - u) * relaxation(spec, u), t, 1e-10)

    worst = 0.0
    for t in ts:
        h = fd_step * t
        rl = (rl_integral(t + h) - rl_integral(t - h)) / (2.0 * h)
        worst = max(worst, abs(_caputo_convolution(spec, t) + _K(spec, t) - rl))
    return worst
