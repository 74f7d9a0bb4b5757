"""Memory functions M and k, the Sonine pairing, and evolution-equation residuals.

In the Laplace domain everything follows algebraically from the spectral
function: ``M_hat = phi_hat / (B (1 - phi_hat))``, ``k_hat = 1 / (s M_hat)``
(the Sonine relation ``s M_hat k_hat = 1`` is exact by construction) and the
characteristic exponent ``Psi_hat = 1 / M_hat``.  The rate constant B is a
pure scale: it cancels from the Sonine product, the evolution residuals and
``Psi_hat / B``.

Time-domain kernels.  With ``g(w) = (1 + w)**beta - 1`` (``models._pow1p_m1``),
p = z / x (z a contour node, x = t/tau) and each power of p taken as z**e x**-e,
``_ratio(z, x)`` is ``g(p**alpha)`` (HN family) or ``1 / g(p**-alpha)`` (JWS
family).  Every kernel that is not elementary is its own image inverted by
``inversion.talbot_sum`` on 24 nodes, all the points in one call, within its
bound against 30-digit mpmath on t/tau from 1e-3 to 1e3 (32 and 48 nodes lose
digits to rounding):

* M of hn, cd, jws and mcd: ``1 / (B _ratio(p))``, bound ``1e-10 |M|``;
* hn k: ``B _ratio(p) / p``, bound ``1e-10 |k|``, ``1e-11 / (1 - alpha) |k|``
  beyond alpha = 0.9; on ``alpha beta = 1`` each node leaves the point
  mass ``B tau delta(t)`` without cancellation;
* jws/mcd k: its leading term ``B x**-alpha / (beta Gamma(1 - alpha))`` in
  closed form (mcd's is the point mass ``B tau / beta``), the rest on the
  contour, bound ``1e-10 |k|``, ``1e-11 / (1 - alpha beta) |k|`` beyond
  alpha beta = 0.9 (measured to t/tau = 1e300 for beta <= 1).

The others are closed forms with bound 0: cd k as
``B Gamma(-beta, t/tau) / |Gamma(-beta)|``, cc in powers of t, Debye
``M = 1/(B tau)`` and the pure point mass ``k = B tau delta(t)``.

Evolution equations.  Each family convolves its own kernel, with w the
point-mass weight of k: ``n + (w/B) n' + (1/B) k * n' = 0`` for the HN
family, ``n - 1 + B M * n = 0`` for the JWS family; the
Caputo/Riemann-Liouville identity convolves the same kernel.
"""

from __future__ import annotations

import math
import warnings  # noqa: F401  (rebound by relaxbench's tracer to count warnings)
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .exceptions import DomainError
from .inversion import talbot_sum
from .models import (
    ModelSpec,
    _SPECTRAL_KINDS,
    _grid,
    _jws,
    _law,
    _pow1p_m1,
    _ratio,
    relaxation,
    response,
    spectral_ratio_real,
)
from .quadrature import _MAX_LEVEL, _integrate_rows
from .specfun import _gamma_upper, _rgamma

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


@lru_cache(maxsize=128)
def _binomials(b: float) -> np.ndarray:
    """C(b, j) for j = 28 down to 2, as the running product C(b, j+1) = C(b, j) (b - j) / (j + 1)."""
    return np.cumprod([b] + [(b - j) / (j + 1) for j in range(1, 28)])[:0:-1]


def _jws_k_image(spec: ModelSpec, z, x):
    """jws/mcd ``k_hat / (B tau)`` at p = z / x less its leading term, ``p**(a-1) (w / g(w) - 1/b)``
    with w = p**-a, as ``-h / (b q) x / (z w)`` with ``q = g(w)/w`` and ``h = q - b``.  q is kept
    apart: at large t it falls below b eps, and h + b would lose its digits, down to 0.  Past
    x**a = 1e10 w**(b-1) comes from real powers of x, as in ``models._ratio``: the log of
    |1 + w| would carry its rounding, about |log w| eps, into every node's value.  At small
    |w|, where h cancels (subtracting 1/b from w / g(w) would lose 3-5 digits of mcd k at small t),
    h is its series ``sum_{j >= 2} C(b, j) w**(j-1)`` to j = 28, first dropped term below 0.25**27
    of it, and g is not evaluated there."""
    a, b = spec.alpha, spec.beta
    xa = x**a
    w = z**-a * xa
    small = np.abs(w) < 0.25
    q = np.full_like(w, b)
    big = ~small
    q[big] = _pow1p_m1(w[big], b) / w[big]
    if (far := xa > 1e10).any():  # q = w**(b-1) (1 + 1/w)**b - 1/w, w**(b-1) by real powers
        wf = w[..., far]
        q[..., far] = z ** (a - a * b) * xa[far] ** (b - 1.0) * (1.0 + _pow1p_m1(1.0 / wf, b)) - 1.0 / wf
    h = q - b
    if small.any():
        h[small] = w[small] * np.polyval(_binomials(b), w[small])
        q[small] += h[small]
    return -x / (z * w) * h / (b * q)


def memory_time_with_bound(cfg: KernelConfig, t, which: str):
    """Regular part of M(t) or k(t) plus its error bound.

    ``t`` is a number (two floats) or an array (two arrays of its shape); a
    number is evaluated as a 1-element array, so it gives exactly the element
    of a grid call.  The bound is the contour's (see the module docstring)
    for the inverted kernels and 0 for the closed forms.
    """
    t, scalar = _grid(t, "t", positive=True)
    if which not in ("M", "k"):
        raise DomainError("which must be 'M' or 'k'")
    value, bound = _kernel(cfg, t.reshape(-1), which)
    if scalar:
        return float(value[0]), float(bound[0])
    return value.reshape(t.shape), bound.reshape(t.shape)


def _kernel(cfg: KernelConfig, t: np.ndarray, which: str):
    """(value, bound) of M or the regular part of k on a 1-D array of times t > 0."""
    spec = cfg.spec
    law, a, b, tau, B = _law(spec), spec.alpha, spec.beta, spec.tau, cfg.rate_B
    x = t / tau
    zero = np.zeros_like(x)

    if which == "M":
        if law in ("debye", "cc"):
            return x ** (a - 1.0) / (B * tau * math.gamma(a)), zero
        value = talbot_sum(lambda z, x: 1.0 / _ratio(spec, z, x), x) / (B * tau)
        return value, _CONTOUR_BOUND * abs(value)

    # which == "k"
    if law == "debye":
        return zero, zero  # pure point mass B*tau*delta(t); see kernel_singular_weight
    if law == "cc":
        return B * x**-a / math.gamma(1.0 - a), zero
    if law == "hn":  # b / Gamma(1 - a), the tail amplitude, shrinks like 1 - a; rounding does not
        value = B * talbot_sum(partial(_hn_k_image, spec), x)
        return value, _CONTOUR_BOUND * max(1.0, 0.1 / (1.0 - a)) * abs(value)
    if law == "cd":
        # B Gamma(-b, x) / |Gamma(-b)| = B b Gamma(-b, x) / Gamma(1 - b), with Gamma(-b, x)
        # itself from x = 1.5 (no cancellation there): within 2e-14 relative from there,
        # 3e-15 / b below; DomainError for b > 1, where -b leaves (-1, 0)
        return B * b * _rgamma(1.0 - b) * _gamma_upper(-b, x), zero
    # jws / mcd: k_hat(s) = B tau p**(a-1) w / g(w) with p = s tau, w = p**-a; its
    # leading term p**(a-1) / b inverts in closed form (for mcd, a = 1, it is the
    # point mass and its regular part is 0), the rest on the contour
    lead = x**-a * (1.0 / math.gamma(1.0 - a) if a < 1.0 else 0.0) / b
    value = B * (lead + talbot_sum(partial(_jws_k_image, spec), x))
    # the tail amplitude 1 / Gamma(1 - a b) shrinks like 1 - a b; the contour's rounding does not
    ab = a * b
    return value, _CONTOUR_BOUND * (0.1 / (1.0 - ab) if 0.9 < ab < 1.0 else 1.0) * abs(value)


def _hn_k_image(spec: ModelSpec, z, x):
    """hn ``k_hat / (B tau) = g(p**a) / p`` at p = z / x, less its point mass 1 at a b = 1,
    where away from the origin it is ``g(p**-a) - 1/p``: no cancellation against 1."""
    a, b = spec.alpha, spec.beta
    if a * b != 1.0:
        return _ratio(spec, z, x) * x / z
    out = _pow1p_m1(z**-a * x**a, b) - x / z
    near = np.abs(z) < x  # |p| < 1
    z, x = np.broadcast_arrays(z, x)
    out[near] = _ratio(spec, z[near], x[near]) * x[near] / z[near] - 1.0
    return out


def memory_M_time(cfg: KernelConfig, t: float) -> float:
    """Regular part of the memory function M(t)."""
    return memory_time_with_bound(cfg, t, "M")[0]


def memory_k_time(cfg: KernelConfig, t: float) -> float:
    """Regular part of the Sonine partner kernel k(t)."""
    return memory_time_with_bound(cfg, t, "k")[0]


def _convolution(cfg: KernelConfig, which: str, t: float, f, rel_tol: float) -> float:
    """Int_0^t kappa(t-u) f(u) du, kappa the regular part of M or k, split at t/2: it carries
    an integrable singularity at each end (f's at 0, the kernel's at t).  The halves are the
    two rows of one tanh-sinh run over s in (0, t/2), so an integrand call takes the nodes of
    both in one array: u = s on the first, t - u = s on the second, where the kernel gets its
    lag s itself (t - (t - s) would round it away near the singularity)."""

    def halves(s, rows):
        first = rows[:, None] == 0
        u, lag = np.where(first, s, t - s), np.where(first, t - s, s)
        return _kernel(cfg, lag.reshape(-1), which)[0].reshape(lag.shape) * f(u)

    parts, _ = _integrate_rows(halves, 0.0, t / 2.0, 2, rel_tol, _MAX_LEVEL)
    return float(parts[0] + parts[1])


def evolution_residual(cfg: KernelConfig, t_grid) -> float:
    """Max absolute residual of the model's memory evolution equation on t_grid.

    HN family (hn, cc, cd, debye), with k's point-mass weight w:
    ``n(t) + (w/B) n'(t) + (1/B) Int_0^t k(t-u) n'(u) du = 0``; Debye's
    regular k is 0 and w = B tau, so it reads ``n + tau n' = 0``.
    JWS family (jws, mcd): ``n(t) - 1 + B Int_0^t M(t-u) n(u) du = 0``.
    Residuals are independent of the rate constant B.
    """
    ts = [float(t) for t in t_grid]
    if not ts or any(t <= 0.0 for t in ts) or sorted(ts) != ts:
        raise DomainError("t_grid must be positive and sorted ascending")
    spec, B, w = cfg.spec, cfg.rate_B, kernel_singular_weight(cfg, "k")
    n, phi = partial(relaxation, spec), partial(response, spec)  # phi = -n'
    worst = 0.0
    for t in ts:
        if _jws(spec):
            resid = n(t) - 1.0 + B * _convolution(cfg, "M", t, n, 1e-9)
        else:
            resid = n(t) - (w * phi(t) + _convolution(cfg, "k", t, phi, 1e-9)) / B
        worst = max(worst, abs(resid))
    return worst


def caputo_rl_identity_residual(cfg: KernelConfig, t_grid) -> float:
    """Max residual of the Caputo/Riemann-Liouville operator relation on t_grid.

    Checks ``Int_0^t K(t-u) n'(u) du = d/dt Int_0^t K(t-u) n(u) du - K(t) n(0+)``
    with K the regular kernel of the family's evolution equation (k for the HN
    family, M for the JWS one) at B = 1, so the residual is independent of B:
    the left side is the Caputo convolution, the Riemann-Liouville side
    differentiates (by central finite difference with relative step 1e-3)
    the convolution against n itself.
    """
    ts = [float(t) for t in t_grid]
    if not ts or any(t <= 0.0 for t in ts):
        raise DomainError("t_grid must be positive")
    spec = cfg.spec
    unit, which = KernelConfig(spec), "M" if _jws(spec) else "k"

    def rl_integral(t: float) -> float:
        return _convolution(unit, which, t, partial(relaxation, spec), 1e-10)

    worst = 0.0
    for t in ts:
        h = 1e-3 * t
        rl = (rl_integral(t + h) - rl_integral(t - h)) / (2.0 * h)
        caputo = -_convolution(unit, which, t, partial(response, spec), 1e-9)
        worst = max(worst, abs(caputo + _kernel(unit, np.array([t]), which)[0][0] - rl))
    return worst
