"""Numerical forward/inverse Laplace transforms and the Efros composition operator.

Two independent inversion algorithms (fixed Talbot and Gaver-Stehfest) back
every time-domain identity in the package; disagreement between them is a
raised diagnostic rather than a silent average.  Point masses at t = 0 are
carried structurally as ``singular_weight`` (a constant term of the image)
and are never folded into a pointwise inversion value.

All operations are pure and take whole arrays where the Efros composition
needs them: it evaluates h and its kernel once per tanh-sinh level, the Levy
kernel runs all its points as rows of one quadrature, and the subordination
pdf samples the exponent once per call and sums the contour nodes in
ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import inversion
from .exceptions import ContourOverflow, DomainError, InversionDisagreement, QuadratureFailure
from .quadrature import array_fn, tanh_sinh
from .specfun import _levy_series, levy_stable_density

__all__ = [
    "LaplaceImage",
    "InversionConfig",
    "TALBOT",
    "GAVER_STEHFEST",
    "inverse_laplace",
    "forward_laplace",
    "efros_compose",
    "subordination_kernel",
    "subordination_pdf",
]

TALBOT = "talbot"
GAVER_STEHFEST = "gaver-stehfest"


@dataclass(frozen=True)
class LaplaceImage:
    """A Laplace image f_hat(z), analytic to the right of ``abscissa``.

    ``evaluator`` returns the full image including any constant term;
    ``singular_weight`` is that constant (the coefficient of a delta at
    t = 0).  Inversions subtract it before summing, so pointwise values are
    always the regular part.
    """

    evaluator: Callable[[complex], complex]
    abscissa: float = 0.0
    singular_weight: float = 0.0

    def __post_init__(self):
        if self.singular_weight < 0.0:
            raise DomainError("singular_weight must be nonnegative")

    def regular(self, z: complex) -> complex:
        return self.evaluator(z) - self.singular_weight


@dataclass(frozen=True)
class InversionConfig:
    method: str = TALBOT
    nodes: int = 32
    cross_check: bool = False
    cross_check_rel_tol: float = 1e-6

    def __post_init__(self):
        if self.method not in (TALBOT, GAVER_STEHFEST):
            raise DomainError(f"unknown inversion method {self.method!r}")
        if self.method == GAVER_STEHFEST and (self.nodes < 8 or self.nodes % 2 != 0):
            raise DomainError("Gaver-Stehfest needs an even node count >= 8")
        if self.method == TALBOT and self.nodes < 16:
            raise DomainError("Talbot needs at least 16 nodes")


DEFAULT_INVERSION = InversionConfig()
# best double-precision Gaver-Stehfest order: the Salzer weights grow like
# 10**(0.3 n) and amplify image rounding, so higher orders lose to roundoff
_GS_DEFAULT_NODES = 14


def inverse_laplace(image: LaplaceImage, t: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Regular part of the original f(t) at a single t > 0.

    With ``cfg.cross_check`` the value is computed by both methods and an
    :class:`InversionDisagreement` is raised when they differ by more than
    ``cross_check_rel_tol`` relative to the larger magnitude (the classic
    smoke alarm for oscillatory or otherwise Gaver-hostile originals).
    """
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if cfg.method == TALBOT:
        value = inversion.talbot(image.regular, t, nodes=cfg.nodes)
        if cfg.cross_check:
            other = inversion.gaver_stehfest(image.regular, t, nodes=_GS_DEFAULT_NODES)
            _check_agreement(value, other, cfg.cross_check_rel_tol)
        return value
    value = inversion.gaver_stehfest(image.regular, t, nodes=cfg.nodes)
    if cfg.cross_check:
        other = inversion.talbot(image.regular, t, nodes=max(cfg.nodes, 24))
        _check_agreement(other, value, cfg.cross_check_rel_tol)
    return value


def _check_agreement(talbot_value: float, stehfest_value: float, rel_tol: float) -> None:
    scale = max(abs(talbot_value), abs(stehfest_value), 1e-30)
    rel = abs(talbot_value - stehfest_value) / scale
    if rel > rel_tol:
        raise InversionDisagreement(talbot_value, stehfest_value, rel)


def forward_laplace(
    f: Callable[[float], float],
    z: float,
    tail_exponent: float = 0.0,
    rel_tol: float = 1e-9,
) -> float:
    """Forward transform Int_0^inf exp(-z t) f(t) dt for real z > 0.

    Adaptive (tanh-sinh) quadrature on (0, T] with T about 45/z, split at the
    scale 1/z; integrable singularities at t = 0 are fine (f may blow up like
    t**p with p > -1 there).  Beyond T the integrand is modelled by the
    supplied power law ``f ~ C t**tail_exponent`` with C read off at T; with
    the exponential weight the remainder is
    ``C exp(-zT) T**p / z * (1 + p/(zT) + p(p-1)/(zT)**2 + ...)``,
    valid for any real tail exponent.
    """
    if z <= 0.0:
        raise DomainError(f"z must be positive, got {z}")
    T = 45.0 / z

    def weighted(t):
        return np.exp(-z * t) * f(t)

    try:
        head, _ = tanh_sinh(weighted, 0.0, 1.0 / z, rel_tol=rel_tol)
        body, _ = tanh_sinh(weighted, 1.0 / z, T, rel_tol=rel_tol)
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"forward transform at z={z}: {exc}") from exc

    p = tail_exponent
    zT = z * T
    tail = f(T) * math.exp(-zT) / z * (1.0 + p / zT + p * (p - 1.0) / (zT * zT))
    return head + body + tail


def efros_compose(
    h: Callable[[float], float],
    kernel_f: Callable[[float, float], float],
    t: float,
    rel_tol: float = 1e-9,
) -> float:
    """Subordination-type composition Int_0^inf h(xi) kernel_f(xi, t) dxi.

    The kernel is probed on a wide log grid to locate its mass concentration
    point; the integral is then split there, with the substitution
    xi -> 1/v handling the upper half-line.  The kernel must be nonnegative
    and h bounded on its effective support.  ``h`` and ``kernel_f`` get 1-D
    arrays of xi, once for the probe and once per tanh-sinh level; a
    float-only one is evaluated point by point (``quadrature.array_fn``).
    """
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    h_arr = array_fn(h)
    kernel = array_fn(lambda u: kernel_f(u, t))

    probe = np.array([10.0 ** (-6.0 + 12.0 * i / 60.0) for i in range(61)])
    mass = kernel(probe)
    best = int(np.argmax(np.where(np.isnan(mass), -np.inf, mass)))
    if not (mass[best] > 0.0):
        raise QuadratureFailure("kernel probe found no positive mass")
    best_u = float(probe[best])

    def integrand(u):
        return h_arr(u) * kernel(u)

    lower, _ = tanh_sinh(integrand, 0.0, best_u, rel_tol=rel_tol)

    def transformed(v):
        u = 1.0 / v
        return integrand(u) * u * u

    upper, _ = tanh_sinh(transformed, 0.0, 1.0 / best_u, rel_tol=rel_tol)
    value = lower + upper
    if not math.isfinite(value):
        raise QuadratureFailure("Efros composition produced a non-finite value")
    return value


def subordination_kernel(alpha: float, u, t: float):
    """Levy subordination density f(alpha; u, t) = t Phi(t u**(-1/alpha)) / (alpha u**(1 + 1/alpha)).

    This is the inverse image of ``z**(alpha-1) exp(-u z**alpha)`` and is a
    probability density in u for every t > 0; ``u`` may be a number or an array.
    Where the density takes its large-x series, term k of the kernel is
    ``c_k t**(-alpha k) u**(k-1) / (pi alpha)``, summed as such, so the kernel
    keeps its finite limit ``Gamma(1+alpha) sin(pi alpha) t**-alpha / (pi alpha)``
    as u -> 0, where the density itself underflows.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    us = np.asarray(u, dtype=float)
    flat = us.ravel()
    if not (flat > 0.0).all() or t <= 0.0:
        raise DomainError("u and t must be positive")
    with np.errstate(over="ignore"):  # t**-alpha = inf leaves every point to the density
        t_alpha = np.float64(t) ** -alpha
    value = _levy_series(alpha, flat * t_alpha) * (t_alpha / (math.pi * alpha))
    # elsewhere x Phi(x) / (alpha u) at x = t u**(-1/alpha); x underflows to 0
    # only far out in u, where the density has long since underflowed too
    rest = np.flatnonzero(np.isnan(value))
    x = t * flat[rest] ** (-1.0 / alpha)
    value[rest] = 0.0
    rest, x = rest[x > 0.0], x[x > 0.0]
    if rest.size:
        value[rest] = x * levy_stable_density(alpha, x) / (alpha * flat[rest])
    return float(value[0]) if us.ndim == 0 else value.reshape(us.shape)


def subordination_pdf(
    exponent: Callable[[complex], complex],
    xi,
    t: float,
    nodes: int = 32,
):
    """Leading-process density f(xi, t) for a characteristic exponent Psi_hat.

    Inverts ``(Psi_hat(z)/z) exp(-xi Psi_hat(z))`` at time t on the fixed
    Talbot contour (:func:`relaxkit.inversion.talbot_contour`); composing it
    with ``exp(-xi)``-type parent relaxations reproduces the subordination
    integrals the memory formalism predicts.  ``xi`` may be a number or an
    array; the exponent is evaluated once per call, on the contour nodes.
    """
    xis = np.asarray(xi, dtype=float)
    if not (xis > 0.0).all() or t <= 0.0:
        raise DomainError("xi and t must be positive")
    zk, wk = inversion.talbot_contour(int(nodes))
    # Psi and Psi/z node by node in Python complex arithmetic, the rest as
    # points x nodes, so that a value does not depend on how many points share
    # the call: other numpy paths round complex products differently, and the
    # contour sum amplifies that a thousandfold
    z = [zj / t for zj in zk]
    psi = [exponent(zj) for zj in z]
    psi_z = np.array([p / zj for p, zj in zip(psi, z)])
    w = -np.multiply.outer(xis.ravel(), np.array(psi, dtype=complex))
    if (w.real > 690.0).any():
        raise QuadratureFailure("subordination image overflow")
    contrib = (np.array(wk) * (psi_z * np.exp(w))).real
    if not np.isfinite(contrib).all():
        raise ContourOverflow("non-finite image value on Talbot contour")
    value = contrib.cumsum(axis=1)[:, -1] * 2.0 / (5.0 * t)  # nodes in ascending order
    return float(value[0]) if xis.ndim == 0 else value.reshape(xis.shape)
