"""The standard non-Debye relaxation laws.

Seven kinds are supported: debye, cc (Cole-Cole), cd (Cole-Davidson),
mcd (mirror Cole-Davidson), hn (Havriliak-Negami), jws
(Jurlewicz-Weron-Stanislavsky) and kww (stretched exponential).  For each
the module evaluates, with x = t/tau and w = omega*tau:

* the spectral function phi_hat(i w), e.g. ``[1 + (i w)**alpha]**-beta`` for HN
  and ``1 - [1 + (i w)**-alpha]**-beta`` for JWS (KWW has no rational spectral
  form and is rejected there);
* complex permittivity split into (eps', eps'') with the sign convention
  ``eps* = eps' - i eps''``;
* the time-domain response and relaxation functions through the Prabhakar
  function, e.g. ``phi_HN = x**(alpha beta - 1) E[alpha, alpha beta; beta](-x**alpha) / tau``
  and ``n_JWS = E[alpha, 1; beta](-x**alpha)``;
* the relaxation-rate mixture density g(xi) with ``n(t) = Int exp(-x xi) g(xi) dxi``;
* the leading short/long-time asymptotic terms.

Delta bookkeeping.  The JWS and MCD responses are conventionally written as
``delta(t) - formula(t)`` where the formula term itself carries a hidden unit
point mass (its Laplace image tends to 1 at infinity), so the two masses
cancel: the net response is the plain nonnegative density -dn/dt and every
spectral function vanishes at infinite frequency.  ``TimeResponse`` keeps the
conventional flag (``singular_weight = 1`` for jws/mcd) while ``regular``
always returns the net pointwise density; Laplace images built here carry no
constant term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sc

from .exceptions import DomainError
from .laplace import LaplaceImage
from .specfun import (
    DEFAULT_STRATEGY,
    EvalStrategy,
    RationalOrder,
    hyper_pfq,
    levy_stable_density,
    prabhakar_eval,
)

__all__ = [
    "KINDS",
    "ModelSpec",
    "PermittivityScale",
    "TimeResponse",
    "theta",
    "spectral",
    "permittivity",
    "response",
    "time_response",
    "relaxation",
    "relaxation_derivatives",
    "pdf_g",
    "pdf_g_hypergeometric",
    "asymptotic",
    "laplace_image",
    "response_tail_exponent",
]

KINDS = ("debye", "cc", "cd", "mcd", "hn", "jws", "kww")

_SPECTRAL_KINDS = ("debye", "cc", "cd", "mcd", "hn", "jws")
_SINGULAR_KINDS = ("jws", "mcd")


@dataclass(frozen=True)
class ModelSpec:
    """A relaxation law plus its parameters.

    ``alpha`` is the width and ``beta`` the asymmetry parameter; kinds with a
    pinned exponent (debye: alpha=beta=1, cc: beta=1, cd/mcd: alpha=1) reject
    conflicting values.  For kww, ``alpha`` and ``tau`` play the role of the
    stretched-exponential pair and are unrelated to the other models'
    parameters.

    The library-valid asymmetry range is ``0 < beta <= 1/alpha`` (the
    non-negativity regime of the mixture density); ``strict_experimental``
    narrows it to ``beta <= 1``.  ``allow_unphysical`` lifts the regime check
    so the pathological ``beta > 1/alpha`` shapes (negative density lobes,
    unimodal responses) can be explored deliberately.
    """

    kind: str
    alpha: float = 1.0
    beta: float = 1.0
    tau: float = 1.0
    strict_experimental: bool = False
    allow_unphysical: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if not (self.tau > 0.0):
            raise DomainError(f"tau must be positive, got {self.tau}")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (self.beta > 0.0):
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.kind == "debye" and (self.alpha != 1.0 or self.beta != 1.0):
            raise DomainError("debye pins alpha = beta = 1")
        if self.kind == "cc" and self.beta != 1.0:
            raise DomainError("cc pins beta = 1")
        if self.kind in ("cd", "mcd") and self.alpha != 1.0:
            raise DomainError(f"{self.kind} pins alpha = 1")
        if self.kind == "kww" and self.beta != 1.0:
            raise DomainError("kww has no asymmetry parameter; leave beta = 1")
        if not self.allow_unphysical:
            if self.beta > 1.0 / self.alpha + 1e-12:
                raise DomainError(
                    f"beta = {self.beta} exceeds 1/alpha = {1.0 / self.alpha:.6g}; "
                    "outside the non-negativity regime (set allow_unphysical to explore it)"
                )
            if self.strict_experimental and self.beta > 1.0 + 1e-12:
                raise DomainError("strict_experimental narrows beta to (0, 1]")


@dataclass(frozen=True)
class PermittivityScale:
    """Static and high-frequency permittivity values (eps_static > eps_inf)."""

    eps_static: float
    eps_inf: float

    def __post_init__(self):
        if not (self.eps_static > self.eps_inf):
            raise DomainError(
                f"eps_static ({self.eps_static}) must exceed eps_inf ({self.eps_inf})"
            )

    @property
    def strength(self) -> float:
        return self.eps_static - self.eps_inf


@dataclass(frozen=True)
class TimeResponse:
    """Response function split into a formal delta weight and the regular density.

    ``regular(t)`` is the net pointwise density -dn/dt (nonnegative in the
    valid regime); ``singular_weight`` is 1 for jws/mcd, flagging the delta
    that appears in their conventional time-domain representation.  That
    delta is exactly cancelled by the distributional part of the accompanying
    Mittag-Leffler term, so it adds no mass: the Laplace transform of
    ``regular`` alone reproduces the spectral function.
    """

    singular_weight: float
    regular: Callable[[float], float]


def theta(alpha: float, y: float) -> float:
    """Branch-resolved angle theta_alpha(y) = arg[(y**-alpha + cos(pi alpha)) + i sin(pi alpha)].

    Continuous and increasing in y with range (0, pi*alpha); at y = 1 it
    equals pi*alpha/2.  Using the two-argument angle instead of a bare arctan
    removes the sign/branch split the closed-form mixture densities otherwise
    need, and reproduces the Heaviside supports of the Cole-Davidson pair in
    the alpha -> 1 limit.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    pa = math.pi * alpha
    return math.atan2(math.sin(pa), y**-alpha + math.cos(pa))


def _iw_pow(w: np.ndarray, p: float) -> np.ndarray:
    """(i w)**p for w > 0 with the principal branch."""
    return w**p * cmath.exp(1j * math.pi * p / 2.0)


def _grid(x, name: str) -> tuple[np.ndarray, bool]:
    """``x`` as a float array of rank >= 1, and whether it was a scalar.

    Scalars are evaluated as 1-element arrays, never as 0-d arrays or numpy
    scalars: numpy's scalar ``**`` can round differently from its array loop,
    and a scalar call must give exactly the element of a grid call.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0.0):
        raise DomainError(f"{name} must be nonnegative, got {np.min(arr)}")
    return arr, scalar


def _canonical(spec: ModelSpec) -> ModelSpec:
    """Reduce boundary parameter values to the closed-form kind.

    HN(alpha, 1) = JWS(alpha, 1) = CC(alpha), HN(1, beta) = CD(beta),
    JWS(1, beta) = MCD(beta), and everything at alpha = beta = 1 is Debye.
    The reduced formulas are algebraically identical but numerically exact
    (e.g. the general HN relaxation at alpha = beta = 1 would compute
    1 - x E[1,2;1](-x), losing the exp(-x) tail to cancellation).
    """
    k, a, b = spec.kind, spec.alpha, spec.beta
    if k in ("hn", "jws"):
        if b == 1.0:
            k = "debye" if a == 1.0 else "cc"
        elif a == 1.0:
            k = "cd" if k == "hn" else "mcd"
        else:
            return spec
    elif k == "cc" and a == 1.0:
        k = "debye"
    elif k in ("cd", "mcd") and b == 1.0:
        k = "debye"
    else:
        return spec
    return ModelSpec(
        k,
        alpha=a if k == "cc" else 1.0,
        beta=b if k in ("cd", "mcd") else 1.0,
        tau=spec.tau,
        strict_experimental=spec.strict_experimental,
        allow_unphysical=spec.allow_unphysical,
    )


def spectral(spec: ModelSpec, omega_tau):
    """Normalized spectral function phi_hat(i omega tau).

    ``omega_tau`` is a number (the result is a complex) or an array of any
    shape (the result is a complex array of that shape).  Satisfies
    phi_hat(0) = 1 and phi_hat(i inf) = 0 with ``|phi_hat| <= 1`` on the
    imaginary axis for valid parameters.  KWW is rejected: its
    frequency-domain form is not a rational expression of this family.
    """
    if spec.kind == "kww":
        raise DomainError("kww has no simple rational spectral function")
    w, scalar = _grid(omega_tau, "omega_tau")
    phi = _spectral(spec, w)
    return complex(phi[0]) if scalar else phi


def _spectral(spec: ModelSpec, w: np.ndarray) -> np.ndarray:
    """phi_hat(i w) on an array of w >= 0 (w = 0 maps to exactly 1)."""
    zero = w == 0.0
    w = np.where(zero, 1.0, w)
    a, b = spec.alpha, spec.beta
    if spec.kind == "debye":
        phi = 1.0 / (1.0 + 1j * w)
    elif spec.kind == "cc":
        phi = 1.0 / (1.0 + _iw_pow(w, a))
    elif spec.kind == "cd":
        phi = (1.0 + 1j * w) ** -b
    elif spec.kind == "hn":
        phi = (1.0 + _iw_pow(w, a)) ** -b
    else:  # jws / mcd: 1 - (1 + z)**-b, z = (i w)**-exponent
        phi = -_pow1p_m1(_iw_pow(w, -(a if spec.kind == "jws" else 1.0)), -b)
    return np.where(zero, 1.0 + 0.0j, phi)


def _pow1p_m1(w, b: float):
    """(1 + w)**b - 1 for complex w, a number or an array, accurate for tiny |w|.

    It is expm1(b log(1 + w)), with log(1 + w) from its modulus (log1p) and its
    angle (atan2).  The direct form cancels in the JWS/MCD high-frequency wing,
    and so does numpy's complex log1p.  A number takes numpy's complex expm1
    formula through the math module, which has no complex expm1.
    """
    scalar = isinstance(w, complex)
    lib = math if scalar else np
    re, im = w.real, w.imag
    u_re = b * (0.5 * lib.log1p(2.0 * re + re * re + im * im))
    u_im = b * (math.atan2(im, 1.0 + re) if scalar else np.arctan2(im, 1.0 + re))
    if not scalar:
        return np.expm1(u_re + 1j * u_im)
    half = math.sin(0.5 * u_im)
    return complex(math.expm1(u_re) * math.cos(u_im) - 2.0 * half * half, math.exp(u_re) * math.sin(u_im))


def spectral_ratio_real(spec: ModelSpec, s: float) -> float:
    """(1 - phi_hat(s)) / phi_hat(s) at real s > 0, stable at both ends.

    This is the characteristic exponent up to the rate constant, and the
    reciprocal of the normalized memory function.
    """
    if spec.kind == "kww":
        raise DomainError("kww has no simple rational spectral function")
    if s <= 0.0:
        raise DomainError(f"s must be positive, got {s}")
    w = s * spec.tau
    a, b = spec.alpha, spec.beta
    if spec.kind == "debye":
        return w
    if spec.kind == "cc":
        return w**a
    if spec.kind in ("cd", "hn"):
        arg = w if spec.kind == "cd" else w**a
        return math.expm1(b * math.log1p(arg))
    exponent = a if spec.kind == "jws" else 1.0
    return 1.0 / math.expm1(b * math.log1p(w**-exponent))


def permittivity(spec: ModelSpec, scale: PermittivityScale, omega):
    """(eps', eps'') at angular frequency omega, convention eps* = eps' - i eps''.

    ``omega`` is a number (the result is a pair of floats) or an array (the
    result is a pair of arrays of its shape).  HN and JWS go through the
    explicit trigonometric split (amplitude ``[1 + 2 w**alpha cos(pi alpha/2)
    + w**2 alpha]**(beta/2)`` and the branch-resolved angle of :func:`theta`);
    the other kinds use eps* = eps_inf + strength * phi_hat.  The two routes
    agree to rounding and the equality is pinned by tests.
    """
    if spec.kind == "kww":
        raise DomainError("kww has no frequency-domain permittivity here")
    w, scalar = _grid(omega, "omega")
    w = w * spec.tau
    zero = w == 0.0
    a, b = spec.alpha, spec.beta
    if spec.kind in ("hn", "jws"):
        w = np.where(zero, 1.0, w)
        sin_h, cos_h = math.sin(math.pi * a / 2.0), math.cos(math.pi * a / 2.0)
        wa = w**a
        denom = (1.0 + 2.0 * wa * cos_h + w ** (2.0 * a)) ** (b / 2.0)
        if spec.kind == "hn":
            ang = b * np.arctan2(sin_h, w**-a + cos_h)
            eps_re = scale.eps_inf + scale.strength * np.cos(ang) / denom
            eps_im = scale.strength * np.sin(ang) / denom
        else:
            ang = b * np.arctan2(sin_h, wa + cos_h)
            amp = scale.strength * w ** (a * b) / denom
            eps_re = scale.eps_static - amp * np.cos(ang)
            eps_im = amp * np.sin(ang)
    else:
        eps = scale.eps_inf + scale.strength * _spectral(spec, w)
        eps_re, eps_im = eps.real, -eps.imag
    eps_re = np.where(zero, scale.eps_static, eps_re)
    eps_im = np.where(zero, 0.0, eps_im)
    if scalar:
        return float(eps_re[0]), float(eps_im[0])
    return eps_re, eps_im


def _time_points(t, positive: bool):
    """(t, exp): float and math.exp, or float array and np.exp; checks the sign of t."""
    grid = not isinstance(t, (int, float)) and np.ndim(t) > 0
    t = np.asarray(t, dtype=float) if grid else float(t)
    low = t.min(initial=np.inf) if grid else t
    if low < 0.0 or (positive and low == 0.0):
        raise DomainError(f"t must be {'positive' if positive else 'nonnegative'}, got {low}")
    return t, (np.exp if grid else math.exp)


def _pow(x, p: float):
    """x**p by Python's pow, point by point for an array: numpy's pow can differ in the
    last bit, which the contour floor and HN's ``1 - x**(alpha beta) E`` magnify."""
    if isinstance(x, float):
        return x**p
    return np.fromiter((v**p for v in x.ravel().tolist()), float, x.size).reshape(x.shape)


def response(spec: ModelSpec, t, strategy: EvalStrategy = DEFAULT_STRATEGY):
    """Regular (pointwise) part of the response function phi(t) = -dn/dt at t > 0.

    ``t`` is a number (a float) or an array (an array, one Prabhakar grid call).
    """
    t, exp = _time_points(t, positive=True)
    spec = _canonical(spec)
    x = t / spec.tau
    a, b, tau = spec.alpha, spec.beta, spec.tau
    if spec.kind == "debye":
        return exp(-x) / tau
    if spec.kind == "cc":
        return _pow(x, a - 1.0) * prabhakar_eval(a, a, 1.0, _pow(x, a), strategy) / tau
    if spec.kind == "cd":
        return _pow(x, b - 1.0) * exp(-x) * float(sc.rgamma(b)) / tau
    if spec.kind == "hn":
        return _pow(x, a * b - 1.0) * prabhakar_eval(a, a * b, b, _pow(x, a), strategy) / tau
    if spec.kind == "jws":
        return -prabhakar_eval(a, 0.0, b, _pow(x, a), strategy) / (x * tau)
    if spec.kind == "mcd":
        return -prabhakar_eval(1.0, 0.0, b, x, strategy) / (x * tau)
    # kww
    return a * _pow(x, a - 1.0) * exp(-_pow(x, a)) / tau


def time_response(spec: ModelSpec, strategy: EvalStrategy = DEFAULT_STRATEGY) -> TimeResponse:
    """Response function as a TimeResponse (formal delta flag plus regular density)."""
    weight = 1.0 if spec.kind in _SINGULAR_KINDS else 0.0
    return TimeResponse(singular_weight=weight, regular=lambda t: response(spec, t, strategy))


def relaxation(spec: ModelSpec, t, strategy: EvalStrategy = DEFAULT_STRATEGY):
    """Relaxation function n(t) with n(0) = 1 exactly, monotone to 0 at infinity.

    ``t`` is a number (a float) or an array (an array, one Prabhakar grid call).
    """
    t, exp = _time_points(t, positive=False)
    spec = _canonical(spec)
    x = t / spec.tau
    a, b = spec.alpha, spec.beta
    if spec.kind == "debye":
        return exp(-x)
    if spec.kind == "cc":
        return prabhakar_eval(a, 1.0, 1.0, _pow(x, a), strategy)
    if spec.kind == "cd":
        # upper incomplete gamma ratio Gamma(beta, x) / Gamma(beta)
        n = sc.gammaincc(b, x)
        return n if isinstance(x, np.ndarray) else float(n)
    if spec.kind == "hn":
        return 1.0 - _pow(x, a * b) * prabhakar_eval(a, 1.0 + a * b, b, _pow(x, a), strategy)
    if spec.kind == "jws":
        return prabhakar_eval(a, 1.0, b, _pow(x, a), strategy)
    if spec.kind == "mcd":
        return prabhakar_eval(1.0, 1.0, b, x, strategy)
    return exp(-_pow(x, a))


def relaxation_derivatives(
    spec: ModelSpec, t: float, strategy: EvalStrategy = DEFAULT_STRATEGY
) -> tuple[float, float, float]:
    """(n, n', n'') at t > 0, derivatives via the analytic index shift, not differences.

    Each differentiation of ``t**(mu-1) E[alpha, mu; nu](-(t/tau)**alpha)``
    lowers mu by one, so the derivatives are Prabhakar evaluations in their
    own right; complete monotonicity shows up as the sign pattern (+, -, +).
    """
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    spec = _canonical(spec)
    x = t / spec.tau
    a, b, tau = spec.alpha, spec.beta, spec.tau
    n = relaxation(spec, t, strategy)
    d1 = -response(spec, t, strategy)
    if spec.kind == "debye":
        return n, d1, math.exp(-x) / tau**2
    if spec.kind == "kww":
        d2 = (a * x ** (a - 2.0) * math.exp(-(x**a)) * (a * x**a - (a - 1.0))) / tau**2
        return n, d1, d2
    if spec.kind == "cc":
        d2 = -x ** (a - 2.0) * prabhakar_eval(a, a - 1.0, 1.0, x**a, strategy) / tau**2
    elif spec.kind == "cd":
        d2 = x ** (b - 2.0) * math.exp(-x) * float(sc.rgamma(b)) * (x - (b - 1.0)) / tau**2
    elif spec.kind == "hn":
        d2 = -x ** (a * b - 2.0) * prabhakar_eval(a, a * b - 1.0, b, x**a, strategy) / tau**2
    elif spec.kind == "jws":
        d2 = prabhakar_eval(a, -1.0, b, x**a, strategy) / (x**2 * tau**2)
    else:  # mcd
        d2 = prabhakar_eval(1.0, -1.0, b, x, strategy) / (x**2 * tau**2)
    return n, d1, d2


def _amplitude(a: float, xi: float) -> float:
    """[xi**2a + 2 xi**a cos(pi a) + 1]**(1/2), the modulus of xi**a e^{i pi a} + 1."""
    return math.sqrt(xi ** (2.0 * a) + 2.0 * xi**a * math.cos(math.pi * a) + 1.0)


def pdf_g(spec: ModelSpec, xi: float) -> float:
    """Relaxation-rate mixture density g(xi) with n(t) = Int_0^inf e^{-t xi / tau} g(xi) dxi.

    Closed trigonometric forms throughout: the branch-resolved angle makes
    the HN/JWS expressions single-formula and nonnegative on the valid regime
    ``beta <= 1/alpha`` (for ``beta > 1/alpha``, reachable only with
    ``allow_unphysical``, the negative lobe appears naturally).  The
    Cole-Davidson supports are exact: g_cd vanishes for xi <= 1 and g_mcd for
    xi >= 1.  Debye has a unit point mass at xi = 1 instead of a density.
    """
    if xi <= 0.0:
        raise DomainError(f"xi must be positive, got {xi}")
    spec = _canonical(spec)
    a, b = spec.alpha, spec.beta
    if spec.kind == "debye":
        raise DomainError("the Debye mixing measure is a point mass at xi = 1, not a density")
    if spec.kind == "kww":
        if a >= 1.0:
            raise DomainError("kww density needs alpha < 1")
        return levy_stable_density(a, xi)
    if spec.kind == "cc":
        return xi ** (a - 1.0) * math.sin(math.pi * a) / (math.pi * _amplitude(a, xi) ** 2)
    if spec.kind == "cd":
        if xi <= 1.0:
            return 0.0
        return math.sin(math.pi * b) / (math.pi * xi * (xi - 1.0) ** b)
    if spec.kind == "mcd":
        if xi >= 1.0:
            return 0.0
        return math.sin(math.pi * b) * xi ** (b - 1.0) / (math.pi * (1.0 - xi) ** b)
    if spec.kind == "hn":
        return math.sin(b * theta(a, xi)) / (math.pi * xi * _amplitude(a, xi) ** b)
    # jws
    return xi ** (a * b - 1.0) * math.sin(b * theta(a, 1.0 / xi)) / (math.pi * _amplitude(a, xi) ** b)


def pdf_g_hypergeometric(
    spec: ModelSpec, xi: float, strategy: EvalStrategy = DEFAULT_STRATEGY
) -> float:
    """g(xi) through the finite hypergeometric sum for rational alpha = l/k.

    The j-th term is ``(-1)^j (beta)_j sin(pi l n_j / k) xi**(-+ l n_j / k - 1)
    (k+1)Fk(1, D(k, n_j); D(k, 1+j); z) / (pi j!)`` with ``n_j = beta + j``
    and argument ``z = (-1)**(l-k) xi**(-+l)`` (upper signs HN, lower JWS).
    Being a ratio-1 hypergeometric series it converges only for |z| < 1, i.e.
    xi > 1 for HN-type and xi < 1 for JWS-type; this is the cross-validation
    path against the closed trigonometric forms.
    """
    if xi <= 0.0:
        raise DomainError(f"xi must be positive, got {xi}")
    if spec.kind not in ("hn", "jws", "cc", "cd", "mcd"):
        raise DomainError(f"no hypergeometric mixture form for kind {spec.kind!r}")
    jws_like = spec.kind in ("jws", "mcd")
    order = RationalOrder.from_float(spec.alpha)
    l, k = order.l, order.k
    b = spec.beta
    sign_pow = (-1.0) ** (l - k)
    arg = sign_pow * (xi**l if jws_like else xi**-l)
    total = 0.0
    poch = 1.0
    for j in range(k):
        if j > 0:
            poch *= b + (j - 1)
        n_j = b + j
        trig = math.sin(math.pi * l * n_j / k)
        power = xi ** (l * n_j / k - 1.0) if jws_like else xi ** (-l * n_j / k - 1.0)
        coeff = (-1.0) ** j / math.factorial(j) * poch * trig * power
        if coeff == 0.0:
            continue
        nums = [1.0] + [(n_j + i) / k for i in range(k)]
        dens = [(1.0 + j + i) / k for i in range(k)]
        total += coeff * hyper_pfq(nums, dens, arg, strategy)
    return total / math.pi


def asymptotic(
    spec: ModelSpec,
    which: str,
    regime: str,
    t: float,
    allow_next_order: bool = False,
) -> float:
    """Leading short/long-time term of the response or relaxation function.

    ``which`` is "response" or "relaxation", ``regime`` is "short" or "long".
    Values follow the standard leading-order formulas, e.g. the HN response
    goes like ``(t/tau)**(alpha beta - 1) / (tau Gamma(alpha beta))`` at short
    times and the JWS relaxation like ``(t/tau)**(-alpha beta) / Gamma(1 -
    alpha beta)`` at long times.  Whether t actually sits in the requested
    regime is the caller's responsibility.  When the leading gamma factor
    sits at a pole (exponential decay, e.g. Debye or Cole-Davidson long
    times, or alpha*beta = 1 for the long-time JWS relaxation) a DomainError
    is raised unless ``allow_next_order`` asks for the next term explicitly.
    """
    if which not in ("response", "relaxation"):
        raise DomainError(f"which must be 'response' or 'relaxation', got {which!r}")
    if regime not in ("short", "long"):
        raise DomainError(f"regime must be 'short' or 'long', got {regime!r}")
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    spec = _canonical(spec)
    x = t / spec.tau
    a, b, tau = spec.alpha, spec.beta, spec.tau
    if spec.kind == "kww":
        if regime == "long":
            raise DomainError("kww decays as a stretched exponential; no algebraic long-time term")
        return a * x ** (a - 1.0) / tau if which == "response" else 1.0 - x**a

    if spec.kind in ("debye", "cc", "cd", "hn"):
        ab = {"debye": 1.0, "cc": a, "cd": b, "hn": a * b}[spec.kind]
        if which == "response":
            if regime == "short":
                terms = [
                    (float(sc.rgamma(ab)) / tau, ab - 1.0),
                    (-b * float(sc.rgamma(ab + a)) / tau, ab + a - 1.0),
                ]
            else:
                terms = [
                    (-b * float(sc.rgamma(-a)) / tau, -1.0 - a),
                    (b * (b + 1.0) / 2.0 * float(sc.rgamma(-2.0 * a)) / tau, -1.0 - 2.0 * a),
                ]
            return _leading(terms, x, allow_next_order)
        if regime == "short":
            return 1.0 - x**ab * float(sc.rgamma(1.0 + ab))
        terms = [
            (b * float(sc.rgamma(1.0 - a)), -a),
            (-b * (b + 1.0) / 2.0 * float(sc.rgamma(1.0 - 2.0 * a)), -2.0 * a),
        ]
        return _leading(terms, x, allow_next_order)

    # jws / mcd
    ea = a if spec.kind == "jws" else 1.0
    if which == "response":
        if regime == "short":
            terms = [
                (b * float(sc.rgamma(ea)) / tau, ea - 1.0),
                (-b * (b + 1.0) / 2.0 * float(sc.rgamma(2.0 * ea)) / tau, 2.0 * ea - 1.0),
            ]
        else:
            terms = [
                (-float(sc.rgamma(-ea * b)) / tau, -ea * b - 1.0),
                (b * float(sc.rgamma(-ea * b - ea)) / tau, -ea * b - ea - 1.0),
            ]
        return _leading(terms, x, allow_next_order)
    if regime == "short":
        return 1.0 - b * x**ea * float(sc.rgamma(1.0 + ea))
    terms = [
        (float(sc.rgamma(1.0 - ea * b)), -ea * b),
        (-b * float(sc.rgamma(1.0 - ea * b - ea)), -ea * b - ea),
    ]
    return _leading(terms, x, allow_next_order)


def _leading(terms: list[tuple[float, float]], x: float, allow_next_order: bool) -> float:
    coeff, power = terms[0]
    if coeff != 0.0:
        return coeff * x**power
    if not allow_next_order:
        raise DomainError(
            "leading asymptotic coefficient sits at a gamma pole; "
            "pass allow_next_order=True for the next term"
        )
    coeff, power = terms[1]
    if coeff == 0.0:
        raise DomainError("no algebraic asymptotic term exists in this regime (exponential decay)")
    return coeff * x**power


def laplace_image(spec: ModelSpec) -> LaplaceImage:
    """phi_hat as a LaplaceImage over the complex Laplace variable z (1/time units).

    Every spectral function here vanishes at infinite |z|, so the image
    carries no constant term (no net point mass at t = 0; see the module
    docstring on delta bookkeeping).
    """
    if spec.kind == "kww":
        raise DomainError("kww has no simple rational spectral image")
    a, b, tau = spec.alpha, spec.beta, spec.tau

    def evaluator(z: complex) -> complex:
        zt = z * tau
        if spec.kind == "debye":
            return 1.0 / (1.0 + zt)
        if spec.kind == "cc":
            return 1.0 / (1.0 + zt**a)
        if spec.kind == "cd":
            return (1.0 + zt) ** -b
        if spec.kind == "hn":
            return (1.0 + zt**a) ** -b
        return -_pow1p_m1(zt ** -(a if spec.kind == "jws" else 1.0), -b)

    return LaplaceImage(evaluator=evaluator, abscissa=0.0, singular_weight=0.0)


def response_tail_exponent(spec: ModelSpec) -> float:
    """Power of the algebraic long-time response tail (for tail-corrected quadrature).

    Kinds with exponential decay (debye, cd, kww) return 0; the coefficient
    fitted at the truncation point is then vanishingly small anyway.
    """
    if spec.kind in ("debye", "cd", "kww"):
        return 0.0
    if spec.kind in ("cc", "hn"):
        return -1.0 - spec.alpha
    if spec.kind == "jws":
        return -1.0 - spec.alpha * spec.beta
    return -1.0 - spec.beta  # mcd
