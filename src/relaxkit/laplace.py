"""Numerical forward/inverse Laplace transforms and the Efros composition operator.

``inverse_laplace`` inverts one image at one t by fixed Talbot on 32 nodes
(``inversion.talbot``, a wrapper of the one contour engine
``inversion.talbot_sum``).  Point masses at t = 0 are carried structurally as
``singular_weight`` (a constant term of the image) and are never folded into
a pointwise inversion value.

All operations are pure and take whole arrays where the Efros composition
needs them: its lower and upper halves are the two rows of one tanh-sinh run,
so it evaluates h and its kernel once for levels 0-3 and once per batch of
the further levels the run predicts it needs, both halves together; the Levy
kernel sends the points its series misses straight to the density's theta
quadrature, all as rows of one fixed-level pass (levels 0-6 at once, finer
levels only for the rows whose level-5 and level-6 sums disagree), and the
subordination pdf samples the exponent once per call and hands its image to
``inversion.talbot_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import inversion
from .exceptions import DomainError, QuadratureFailure
from .quadrature import _MAX_LEVEL, _integrate_rows, array_fn, tanh_sinh
from .specfun import _levy_series, _levy_theta, levy_stable_density

__all__ = [
    "LaplaceImage",
    "inverse_laplace",
    "forward_laplace",
    "efros_compose",
    "subordination_kernel",
    "subordination_pdf",
]


@dataclass(frozen=True)
class LaplaceImage:
    """A Laplace image f_hat(z), analytic in the right half-plane.

    ``evaluator`` returns the full image including any constant term;
    ``singular_weight`` is that constant (the coefficient of a delta at
    t = 0).  Inversions subtract it before summing, so pointwise values are
    always the regular part.
    """

    evaluator: Callable[[complex], complex]
    singular_weight: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.singular_weight < math.inf):
            raise DomainError(f"singular_weight must be finite and >= 0, got {self.singular_weight}")

    def regular(self, z: complex) -> complex:
        return self.evaluator(z) - self.singular_weight


def inverse_laplace(image: LaplaceImage, t: float) -> float:
    """Regular part of the original f(t) at a single t > 0, by fixed Talbot on 32 nodes.

    About 1e-11 of the image scale where the image's singularities lie on the negative real
    axis (the completely monotone laws); an oscillatory original is not detected and comes
    back wrong: sin(8t), image ``8 / (z**2 + 64)``, is off by 1.4e-5 at t = 2 and by 0.91 at
    t = 3.
    """
    return inversion.talbot(image.regular, t)


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
    valid for any finite tail exponent.
    """
    if not (0.0 < z < math.inf):
        raise DomainError(f"z must be positive and finite, got {z}")
    if not math.isfinite(tail_exponent):
        raise DomainError(f"tail_exponent must be finite, got {tail_exponent}")
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

    The kernel is probed on a wide log grid; the integral is split at the
    probe's peak of ``u kernel_f(u, t)``, the kernel's mass per unit of log u.
    Both halves are on s in (0, 1), the lower one through u = c s and the
    upper one through u = c / s, as the two rows of one tanh-sinh run
    (``quadrature._integrate_rows``).  The kernel must be nonnegative and h
    bounded on its effective support.  ``h`` and ``kernel_f`` get 1-D arrays
    of xi, once for the probe and then once per integrand call of the run
    (levels 0-3, then each batch of predicted further levels), each holding
    the nodes of both halves still running; a float-only one is evaluated
    point by point (``quadrature.array_fn``).
    """
    if not (0.0 < t < math.inf):
        raise DomainError(f"t must be positive and finite, got {t}")
    h_arr = array_fn(h)
    kernel = array_fn(lambda u: kernel_f(u, t))

    probe = np.array([10.0 ** (-6.0 + 12.0 * i / 60.0) for i in range(61)])
    mass = kernel(probe)
    best = int(np.argmax(np.where(np.isnan(mass), -np.inf, probe * mass)))
    if not (mass[best] > 0.0):
        raise QuadratureFailure("kernel probe found no positive mass")
    c = float(probe[best])

    def halves(s, rows):
        # row 0: c g(c s); row 1: g(u) du/ds = c g(c/s) / s**2 = g(u) u / s
        lower = rows[:, None] == 0
        u = np.where(lower, c * s, c / s).ravel()
        g = (h_arr(u) * kernel(u)).reshape(rows.size, s.size)
        return g * np.where(lower, c, u.reshape(g.shape) / s)

    parts, _ = _integrate_rows(halves, 0.0, 1.0, 2, rel_tol, _MAX_LEVEL)
    value = float(parts[0] + parts[1])
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
    as u -> 0, where the density itself underflows.  Points where that series
    fails take the density's angular quadrature without trying its series
    again; only where ``u t**-alpha`` overflowed, so that the kernel's series
    was not tried, does the density try its own on ``x**-alpha``.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    us = np.asarray(u, dtype=float)
    flat = us.ravel()
    if not (flat > 0.0).all() or not (0.0 < t < math.inf):
        raise DomainError("u and t must be positive, t finite")
    with np.errstate(over="ignore"):  # an infinite t**-alpha or y leaves the point to the density
        t_alpha = np.float64(t) ** -alpha
        y = flat * t_alpha
    value = _levy_series(alpha, y) * (t_alpha / (math.pi * alpha))
    # elsewhere x Phi(x) / (alpha u) at x = t u**(-1/alpha); x underflows to 0
    # only far out in u, where the density has long since underflowed too
    rest = np.flatnonzero(np.isnan(value))
    with np.errstate(over="ignore"):
        x = t * flat[rest] ** (-1.0 / alpha)
        # u**(-1/alpha) passes the float range at subnormal t and tiny u, x need not
        far = np.isinf(x)
        x[far] = np.exp(math.log(t) - np.log(flat[rest[far]]) / alpha)
    value[rest] = 0.0
    rest, x = rest[x > 0.0], x[x > 0.0]
    if rest.size:
        # the density's series on x**-alpha repeats the one that just failed on y, so
        # such points go straight to its quadrature; where y overflowed, it was not tried
        density = np.empty(rest.size)
        tried = np.isfinite(y[rest])
        density[tried] = _levy_theta(alpha, x[tried])
        if not tried.all():
            density[~tried] = levy_stable_density(alpha, x[~tried])
        with np.errstate(over="ignore", invalid="ignore"):
            value[rest] = x * density / (alpha * flat[rest])
        if not np.isfinite(value[rest]).all():
            raise DomainError(f"the subordination kernel passes the float range at t = {t}")
    return float(value[0]) if us.ndim == 0 else value.reshape(us.shape)


def subordination_pdf(exponent: Callable[[complex], complex], xi, t: float):
    """Leading-process density f(xi, t) for a characteristic exponent Psi_hat.

    Inverts ``(Psi_hat(z)/z) exp(-xi Psi_hat(z))`` at time t with
    :func:`relaxkit.inversion.talbot_sum` on 32 nodes; composing it
    with ``exp(-xi)``-type parent relaxations reproduces the subordination
    integrals the memory formalism predicts.  ``xi`` may be a number or an
    array; the exponent is evaluated once per call, on the contour nodes.
    """
    xis = np.asarray(xi, dtype=float)
    if not ((xis > 0.0) & (xis < math.inf)).all() or not (0.0 < t < math.inf):
        raise DomainError("xi and t must be positive and finite")

    def image(z, t):
        # Psi and Psi/z node by node in Python complex arithmetic, the rest as
        # nodes x points, so that a value does not depend on how many points
        # share the call: other numpy paths round complex products differently,
        # and the contour sum amplifies that a thousandfold
        zs = (z / t)[:, 0].tolist()
        psi = [exponent(zj) for zj in zs]
        psi_z = np.array([[p / zj] for p, zj in zip(psi, zs)])
        w = -np.multiply.outer(np.array(psi, dtype=complex), xis.ravel())
        if (w.real > 690.0).any():
            raise QuadratureFailure("subordination image overflow")
        return psi_z * np.exp(w)

    value = inversion.talbot_sum(image, t, 32)
    return float(value[0]) if xis.ndim == 0 else value.reshape(xis.shape)
