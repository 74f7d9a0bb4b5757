"""Memory functions M and k, the Sonine pairing, and evolution-equation residuals.

In the Laplace domain everything follows algebraically from the spectral
function: ``M_hat = phi_hat / (B (1 - phi_hat))``, ``k_hat = 1 / (s M_hat)``
(the Sonine relation ``s M_hat k_hat = 1`` is exact by construction) and the
characteristic exponent ``Psi_hat = 1 / M_hat``.  The rate constant B is a
pure scale: it cancels from the Sonine product, the evolution residuals and
``Psi_hat / B``.

Time-domain kernels:

* HN family: ``k(t) = B (tau/t)**(alpha beta) E[alpha, 1-alpha beta; -beta](-(t/tau)**alpha) - B``
  is closed-form; ``M(t)`` needs the renewal-type series
  ``(B t)**-1 sum_r (t/tau)**(alpha beta r) E[alpha, alpha beta r; beta r](-(t/tau)**alpha)``.
* JWS family: ``M(t) = E[alpha, 0; -beta](-(t/tau)**alpha) / (B t)`` is
  closed-form (the point masses of the conventional representation cancel;
  the image ``(1 + (s tau)**-alpha)**beta - 1`` vanishes at infinity), while
  ``k(t) = B sum_r E[alpha, 1; beta r](-(t/tau)**alpha)`` needs the series.
* Debye: ``M(t) = 1/(B tau)`` and ``k`` is the pure point mass ``B tau delta(t)``.

Series are truncated adaptively with a geometric tail bound estimated from
the last two terms; a :class:`TruncationWarning` is emitted when the bound
exceeds the requested tolerance, and the bound is available through
``memory_time_with_bound`` so consumers can widen their own tolerances.

The time-domain kernels take a number or an array of times.  On an array the
closed forms evaluate the whole grid at once, and a series is summed with one
Prabhakar grid call per term r over the points whose series have not yet
stopped; each point keeps the stop rules and the bound of a scalar call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, NonConvergent, TruncationWarning
from .inversion import talbot
from .models import ModelSpec, _pow, _pow1p_m1, _time_points, relaxation, response, spectral_ratio_real
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

_KERNEL_KINDS = ("debye", "cc", "cd", "mcd", "hn", "jws")
_REL_TOL = 1e-9
_LOG_MAX = math.log(1.7976931348623157e308)  # log of the largest float


@dataclass(frozen=True)
class KernelConfig:
    """Model plus the Volterra rate constant B and the series truncation cap."""

    spec: ModelSpec
    rate_B: float = 1.0
    series_terms: int = 1000

    def __post_init__(self):
        if self.spec.kind not in _KERNEL_KINDS:
            raise DomainError(f"no memory-kernel formalism for kind {self.spec.kind!r}")
        if not (self.rate_B > 0.0):
            raise DomainError(f"rate_B must be positive, got {self.rate_B}")
        if self.series_terms < 1:
            raise DomainError("series_terms must be >= 1")


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
    """
    if which not in ("M", "k"):
        raise DomainError("which must be 'M' or 'k'")
    spec = cfg.spec
    if which == "k":
        if spec.kind == "debye":
            return cfg.rate_B * spec.tau
        if spec.kind == "mcd":
            return cfg.rate_B * spec.tau / spec.beta
        if spec.kind in ("hn", "cd") and spec.alpha * spec.beta == 1.0:
            return cfg.rate_B * spec.tau
    return 0.0


def _series_sum(cfg: KernelConfig, t, term_fn):
    """Sum term_fn(r) for r = 1.. at every point of t, each point with a geometric
    tail bound from its last two terms.

    ``term_fn(r)`` returns the r-th term as a function of the times still
    summing: the number t, or an array of the points of an array t whose
    series go on, which one Prabhakar grid call evaluates.  A term whose
    evaluation fails (outside every strategy's reach) truncates that point's
    series there (a grid term that raises is evaluated again point by point);
    the reported bound then covers the dropped tail.
    """
    grid = isinstance(t, np.ndarray)
    ts = t.ravel() if grid else np.array([t])
    total, prev, bound = [0.0] * ts.size, [math.inf] * ts.size, [math.inf] * ts.size
    live = list(range(ts.size))
    for r in range(1, cfg.series_terms + 1):
        if not live:
            break
        at = term_fn(r)
        try:
            terms = at(ts[live]).tolist() if grid else [at(t)]
        except NonConvergent:
            live, terms = _point_terms(at, ts, live) if grid else ([], [])
        going = []
        for i, term in zip(live, terms):
            total[i] += term
            size = abs(term)
            if size < _REL_TOL * max(abs(total[i]), 1e-300):
                bound[i] = size
                continue
            if size < prev[i] and prev[i] < math.inf:
                rho = size / prev[i]
                bound[i] = size * rho / (1.0 - rho)
                if bound[i] < _REL_TOL * max(abs(total[i]), 1e-300):
                    continue
            prev[i] = size
            going.append(i)
        live = going
    for i, (value, tail) in enumerate(zip(total, bound)):
        if not (tail <= 1e-6 * max(abs(value), 1e-300)):
            warnings.warn(
                f"kernel series truncated at {cfg.series_terms} terms with tail bound "
                f"{tail:.3g} (value {value:.6g}, t = {ts[i]:.6g})",
                TruncationWarning,
                stacklevel=3,
            )
    if grid:
        return np.reshape(total, t.shape), np.reshape(bound, t.shape)
    return total[0], bound[0]


def _point_terms(at, ts: np.ndarray, live: list):
    """The term at each live point by a scalar call: the points where it raises
    NonConvergent stop there.  Returns the points that go on and their terms."""
    going, terms = [], []
    for i in live:
        try:
            terms.append(at(float(ts[i])))
        except NonConvergent:
            continue
        going.append(i)
    return going, terms


def memory_time_with_bound(
    cfg: KernelConfig, t, which: str, strategy: EvalStrategy = DEFAULT_STRATEGY
):
    """Regular part of M(t) or k(t) plus the truncation tail bound (0 for closed forms).

    ``t`` is a number (two floats) or an array (two arrays of its shape).  A
    renewal series that needs a term past the float range raises
    :class:`NonConvergent`.
    """
    t, _ = _time_points(t, positive=True)
    if which not in ("M", "k"):
        raise DomainError("which must be 'M' or 'k'")
    spec = cfg.spec
    a, b, tau, B = spec.alpha, spec.beta, spec.tau, cfg.rate_B
    x = t / tau
    zero = 0.0 * x

    if which == "M":
        if spec.kind == "debye":
            return 1.0 / (B * tau) + zero, zero
        if spec.kind == "cc":
            return _pow(x, a - 1.0) / (B * tau * math.gamma(a)), zero
        if spec.kind in ("jws", "mcd"):
            aa = a if spec.kind == "jws" else 1.0
            return prabhakar_eval(aa, 0.0, -b, _pow(x, aa), strategy) / (B * t), zero
        # hn / cd renewal series
        aa = a if spec.kind == "hn" else 1.0

        def term(r: int):
            p = aa * b * r

            def at(ts):
                top = ts.max() if isinstance(ts, np.ndarray) else ts
                if p * math.log(top / tau) > _LOG_MAX:
                    raise OverflowError(f"(t/tau)**{p:.6g} passes the float range at r = {r}, t = {top:g}")
                xs = ts / tau
                return _pow(xs, p) * prabhakar_eval(aa, p, b * r, _pow(xs, aa), strategy)

            return at

        try:
            total, bound = _series_sum(cfg, t, term)
        except OverflowError as exc:
            raise NonConvergent(f"renewal series of M: {exc}") from None
        return total / (B * t), bound / (B * t)

    # which == "k"
    if spec.kind == "debye":
        return zero, zero  # pure point mass B*tau*delta(t); see kernel_singular_weight
    if spec.kind == "cc":
        return B * _pow(x, -a) / math.gamma(1.0 - a), zero
    if spec.kind in ("hn", "cd"):
        aa = a if spec.kind == "hn" else 1.0
        val = B * _pow(x, -aa * b) * prabhakar_eval(aa, 1.0 - aa * b, -b, _pow(x, aa), strategy) - B
        return val, zero
    if spec.kind == "mcd":
        # the alpha = 1 reduction makes the geometric series of relaxation
        # terms oscillate with only algebraic decay (Laguerre amplitudes);
        # it is not classically summable, so the regular part comes straight
        # from the image with its s -> inf constant (the point mass) removed
        weight = kernel_singular_weight(cfg, "k")

        def image(z: complex) -> complex:
            return B / (_pow1p_m1(1.0 / (z * spec.tau), b) * z) - weight

        if isinstance(t, float):
            return talbot(image, t, nodes=32), 0.0
        return np.array([talbot(image, v, nodes=32) for v in t.tolist()]).reshape(t.shape), zero
    # jws: series of relaxation-like terms, superexponentially decaying for alpha < 1

    def term(r: int):
        return lambda ts: prabhakar_eval(a, 1.0, b * r, _pow(ts / tau, a), strategy)

    total, bound = _series_sum(cfg, t, term)
    return B * total, B * bound


def memory_M_time(cfg: KernelConfig, t: float, strategy: EvalStrategy = DEFAULT_STRATEGY) -> float:
    """Regular part of the memory function M(t)."""
    return memory_time_with_bound(cfg, t, "M", strategy)[0]


def memory_k_time(cfg: KernelConfig, t: float, strategy: EvalStrategy = DEFAULT_STRATEGY) -> float:
    """Regular part of the Sonine partner kernel k(t)."""
    return memory_time_with_bound(cfg, t, "k", strategy)[0]


def _caputo_convolution(cfg: KernelConfig, t: float) -> float:
    """Int_0^t K(t-u) n'(u) du with K(t) = t**(-ab) E[a, 1-ab; -b](-(t/tau)**a).

    Both endpoints carry integrable singularities (u**(ab-1) from the response
    at 0, (t-u)**(-ab) from the kernel at t); the interval is split at t/2 and
    each panel handled by tanh-sinh.
    """
    spec = cfg.spec
    a, b, tau = spec.alpha, spec.beta, spec.tau
    ab = a * b

    def integrand(u: float) -> float:
        w = t - u
        kern = w**-ab * prabhakar_eval(a, 1.0 - ab, -b, (w / tau) ** a)
        return kern * (-response(spec, u))

    left, _ = tanh_sinh(integrand, 0.0, t / 2.0, rel_tol=1e-9)
    right, _ = tanh_sinh(integrand, t / 2.0, t, rel_tol=1e-9)
    return left + right


def evolution_residual(cfg: KernelConfig, t_grid) -> float:
    """Max absolute residual of the model's memory evolution equation on t_grid.

    HN family (hn, cc, cd, debye): the Caputo-type form,
    ``Int_0^t (t-u)**(-ab) E[a, 1-ab; -b](-((t-u)/tau)**a) n'(u) du + tau**(-ab) = 0``.
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
        elif spec.kind in ("hn", "cc", "cd"):
            resid = (_caputo_convolution(cfg, t) + tau ** (-a * b)) * tau ** (a * b)
        else:  # jws / mcd
            aa = a if spec.kind == "jws" else 1.0

            def integrand(u: float) -> float:
                w = t - u
                kern = prabhakar_eval(aa, 0.0, -b, (w / tau) ** aa) / w
                return kern * relaxation(spec, u)

            left, _ = tanh_sinh(integrand, 0.0, t / 2.0, rel_tol=1e-9)
            right, _ = tanh_sinh(integrand, t / 2.0, t, rel_tol=1e-9)
            # the kernel's formal delta samples n at the endpoint: the
            # distributional convolution is the regular integral plus n(t)
            resid = left + right + relaxation(spec, t) - 1.0
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
    a, b, tau = spec.alpha, spec.beta, spec.tau
    ab = a * b

    def rl_integral(t: float) -> float:
        def integrand(u: float) -> float:
            w = t - u
            kern = w**-ab * prabhakar_eval(a, 1.0 - ab, -b, (w / tau) ** a)
            return kern * relaxation(spec, u)

        left, _ = tanh_sinh(integrand, 0.0, t / 2.0, rel_tol=1e-10)
        right, _ = tanh_sinh(integrand, t / 2.0, t, rel_tol=1e-10)
        return left + right

    worst = 0.0
    for t in ts:
        h = fd_step * t
        rl = (rl_integral(t + h) - rl_integral(t - h)) / (2.0 * h)
        caputo = _caputo_convolution(cfg, t)
        kt = t**-ab * prabhakar_eval(a, 1.0 - ab, -b, (t / tau) ** a)
        worst = max(worst, abs(caputo + kt - rl))
    return worst
