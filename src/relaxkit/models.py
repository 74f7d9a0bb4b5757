"""The standard non-Debye relaxation laws.

Seven kinds are supported: debye, cc (Cole-Cole), cd (Cole-Davidson),
mcd (mirror Cole-Davidson), hn (Havriliak-Negami), jws
(Jurlewicz-Weron-Stanislavsky) and kww (stretched exponential).  Apart from
kww they are two Prabhakar families: the HN family (debye, cc, cd, hn) with
``phi_hat = [1 + (i w)**alpha]**-beta`` and the JWS family (mcd, jws) with
``phi_hat = 1 - [1 + (i w)**-alpha]**-beta``.  ``ModelSpec`` pins alpha = 1
for cd/mcd and beta = 1 for debye/cc, so ``spec.alpha`` and ``spec.beta``
are always the family parameters and one formula per family serves every
member; boundary values (hn at beta = 1, say) reduce to the kind whose
closed form is exact (``_law``).  With x = t/tau and w = omega*tau the
module evaluates:

* the spectral function phi_hat(i w) (KWW has no rational spectral form and
  is rejected there);
* complex permittivity ``eps* = eps_inf + strength * phi_hat`` split into
  (eps', eps'') with the sign convention ``eps* = eps' - i eps''``;
* the time-domain response and relaxation functions: cc, hn and jws in the
  valid regime as positive sums over g (:func:`relaxation_derivatives`), the
  rest through the Prabhakar function, e.g.
  ``phi_HN = x**(alpha beta - 1) E[alpha, alpha beta; beta](-x**alpha) / tau``
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

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DomainError
from .laplace import LaplaceImage
from .specfun import (
    AUTO,
    DEFAULT_STRATEGY,
    EvalStrategy,
    RationalOrder,
    _special,
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


class _Kind(NamedTuple):
    family: str  # "hn" or "jws", the Prabhakar family; "" for kww
    free: tuple  # the parameters among alpha and beta that the kind does not pin to 1


_KINDS = {
    "debye": _Kind("hn", ()),
    "cc": _Kind("hn", ("alpha",)),
    "cd": _Kind("hn", ("beta",)),
    "mcd": _Kind("jws", ("beta",)),
    "hn": _Kind("hn", ("alpha", "beta")),
    "jws": _Kind("jws", ("alpha", "beta")),
    "kww": _Kind("", ("alpha",)),
}
KINDS = tuple(_KINDS)
_SPECTRAL_KINDS = tuple(k for k in KINDS if _KINDS[k].family)


def _jws(spec: ModelSpec) -> bool:
    return _KINDS[spec.kind].family == "jws"


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
        for name in ("alpha", "beta"):
            if name not in _KINDS[self.kind].free and getattr(self, name) != 1.0:
                raise DomainError(f"{self.kind} pins {name} = 1")
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


def theta(alpha: float, y):
    """Branch-resolved angle theta_alpha(y) = arg[(y**-alpha + cos(pi alpha)) + i sin(pi alpha)].

    Continuous and increasing in y with range (0, pi*alpha); at y = 1 it
    equals pi*alpha/2.  Using the two-argument angle instead of a bare arctan
    removes the sign/branch split the closed-form mixture densities otherwise
    need, and reproduces the Heaviside supports of the Cole-Davidson pair in
    the alpha -> 1 limit.  ``y`` is a number (a float is returned) or an
    array (an array of its shape).
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    ys = np.asarray(y, dtype=float)
    if not (ys > 0.0).all():
        raise DomainError(f"y must be positive, got {y}")
    angle = _theta(alpha, np.atleast_1d(ys))
    return float(angle[0]) if ys.ndim == 0 else angle.reshape(ys.shape)


def _theta(alpha: float, y: np.ndarray) -> np.ndarray:
    """:func:`theta` on an array of y > 0, unchecked."""
    pa = math.pi * alpha
    return np.arctan2(math.sin(pa), y**-alpha + math.cos(pa))


def _grid(x, name: str, positive: bool = False) -> tuple[np.ndarray, bool]:
    """``x`` as a float array of rank >= 1, and whether it was a scalar.

    Scalars are evaluated as 1-element arrays, never as 0-d arrays or numpy
    scalars: numpy's scalar ``**`` can round differently from its array loop,
    and a scalar call must give exactly the element of a grid call.  Raises
    DomainError for a negative value (or a zero one, with ``positive``).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    low = arr.min(initial=np.inf)
    if low < 0.0 or (positive and low == 0.0):
        raise DomainError(f"{name} must be {'positive' if positive else 'nonnegative'}, got {low}")
    return arr, scalar


def _law(spec: ModelSpec) -> str:
    """The kind whose formulas are exact at spec's parameters.

    HN(alpha, 1) = JWS(alpha, 1) = CC(alpha), HN(1, beta) = CD(beta),
    JWS(1, beta) = MCD(beta), and everything at alpha = beta = 1 is Debye.
    The reduced formulas are algebraically identical but numerically exact
    (e.g. the general HN relaxation at alpha = beta = 1 would compute
    1 - x E[1,2;1](-x), losing the exp(-x) tail to cancellation).  The pins
    make spec.alpha and spec.beta the parameters of the reduced kind as well.
    """
    if spec.kind == "kww":
        return "kww"
    if spec.beta == 1.0:
        return "debye" if spec.alpha == 1.0 else "cc"
    if spec.alpha == 1.0:
        return "mcd" if _jws(spec) else "cd"
    return spec.kind


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
    if _jws(spec):  # 1 - (1 + z)**-b, z = (i w)**-a = r (cos - i sin)(pi a/2), r = w**-a
        r = w**-a
        cos, sin = math.sin(math.pi / 2.0 * (1.0 - a)), math.sin(math.pi / 2.0 * a)  # cos = 0 at a = 1
        # log(1 + z) from |1 + z|**2 = 1 + r (2 cos + r) and its angle: real-array work
        with np.errstate(over="ignore"):  # the square overflows past r ~ 1e154: hypot there
            log_abs = 0.5 * np.log1p(r * (2.0 * cos + r))
        if log_abs.max(initial=0.0) == math.inf:
            log_abs = np.where(log_abs == math.inf, np.log(np.hypot(1.0 + r * cos, r * sin)), log_abs)
        u = np.empty(w.shape, dtype=complex)
        u.real, u.imag = -b * log_abs, -b * np.arctan2(-r * sin, 1.0 + r * cos)
        phi = -np.expm1(u, out=u)
    else:
        phi = (1.0 + w**a * 1j**a) ** -b  # (i w)**a on the principal branch
    return np.where(zero, 1.0 + 0.0j, phi)


def _pow1p_m1(w, b: float):
    """(1 + w)**b - 1 for a float w > -1, a complex w or a complex array, accurate for tiny |w|.

    It is expm1(b log(1 + w)), with log(1 + w) from its modulus (log1p) and its
    angle (atan2).  The direct form cancels in the JWS/MCD high-frequency wing,
    and so does numpy's complex log1p.  A complex number takes numpy's complex
    expm1 formula through the math module, which has no complex expm1.
    """
    if b == 1.0:
        return w  # exactly: the Debye and Cole-Cole exponent is w itself
    if isinstance(w, float):
        return math.expm1(b * math.log1p(w))
    scalar = isinstance(w, complex)
    lib = math if scalar else np
    re, im = w.real, w.imag
    with np.errstate(over="ignore"):  # the squares overflow past |w| ~ 1e154: hypot there
        log_abs = 0.5 * lib.log1p(2.0 * re + re * re + im * im)
    if (log_abs if scalar else log_abs.max(initial=0.0)) == math.inf:
        log_abs = np.where(log_abs == math.inf, np.log(np.hypot(1.0 + re, im)), log_abs)
    u_re, u_im = b * log_abs, b * (math.atan2(im, 1.0 + re) if scalar else np.arctan2(im, 1.0 + re))
    if not scalar:
        out = np.empty_like(w)
        out.real, out.imag = u_re, u_im
        return np.expm1(out, out=out)
    half = math.sin(0.5 * u_im)
    return complex(math.expm1(u_re) * math.cos(u_im) - 2.0 * half * half, math.exp(u_re) * math.sin(u_im))


def spectral_ratio_real(spec: ModelSpec, s: float) -> float:
    """(1 - phi_hat(s)) / phi_hat(s) at real s > 0, stable at both ends.

    This is the characteristic exponent up to the rate constant, and the
    reciprocal of the normalized memory function.
    """
    if spec.kind == "kww":
        raise DomainError("kww has no simple rational spectral function")
    if not (0.0 < s < math.inf):
        raise DomainError(f"s must be positive and finite, got {s}")
    return _ratio(spec, float(s * spec.tau))


def _ratio(spec: ModelSpec, z, x=1.0):
    """(1 - phi_hat) / phi_hat at p = z / x (z a float, a complex or nodes x 1; x positive reals).

    With g(w) = (1 + w)**beta - 1 it is g(p**alpha) for the HN family and 1 / g(p**-alpha)
    for the JWS family, the characteristic exponent up to the rate constant.  p**e is
    z**e x**-e; past |w| ~ 1e10 expm1(b log|1 + w|) would carry the log's rounding (1e-14
    at |w| = 1e120) into the result, so w**b is taken from the powers of z and x there.
    """
    e, b = (-spec.alpha if _jws(spec) else spec.alpha), spec.beta
    xe = x**-e
    g = _pow1p_m1(z**e * xe, b)
    if np.ndim(xe) and (far := xe > 1e10).any():  # w**b (1 + 1/w)**b - 1, w**b by real powers
        w = z**e * xe[far]
        g[..., far] = z ** (e * b) * xe[far] ** b * (1.0 + _pow1p_m1(1.0 / w, b)) - 1.0
    return 1.0 / g if _jws(spec) else g


def _partials(spec: ModelSpec, z, x: np.ndarray, free=(True, True), factor=1.0) -> np.ndarray:
    """d phi_hat / d(alpha, beta, log tau) times ``factor`` at p = z / x (z complex, nodes x 1
    or a number; x positive reals), stacked on a new last axis: the alpha and beta columns
    where ``free`` says so, then log tau.  With q = p**alpha, P = 1 + q, phi = P**-beta (HN
    family) or Q = p**-alpha, R = 1 + Q, psi = R**-beta (JWS family, phi_hat = 1 - psi); tau
    enters through p alone, so the log tau column is p d phi_hat / dp.  As in every contour
    image, p is never formed: log p = log z - log x and p**e = z**e x**-e, so only log P and
    P**-beta cost a complex transcendental per point; at beta = 1 phi is 1 / P, and log P
    serves the beta column only."""
    a, b = spec.alpha, spec.beta
    e = -a if _jws(spec) else a
    q = z**e * x**-e
    P = 1.0 + q
    log_P = _log(P) if free[1] or b != 1.0 else None
    # phi (psi for the JWS family) carries the factor: every column is proportional to it
    phi = factor / P if b == 1.0 else factor * np.exp(-b * log_P)
    s = q / P * phi
    columns = [(b * np.log(x) - b * np.log(z)) * s] if free[0] else []  # -b s log p
    if free[1]:
        columns.append((log_P if _jws(spec) else -log_P) * phi)
    columns.append((-a * b) * s)
    return np.stack(columns, axis=-1)


def _log(w: np.ndarray) -> np.ndarray:
    """np.log of a complex array from its modulus and angle, at about half the cost."""
    out = np.empty_like(w)
    out.real, out.imag = np.log(np.abs(w)), np.arctan2(w.imag, w.real)
    return out


def permittivity(spec: ModelSpec, scale: PermittivityScale, omega):
    """(eps', eps'') at angular frequency omega, convention eps* = eps' - i eps''.

    ``omega`` is a number (the result is a pair of floats) or an array (the
    result is a pair of arrays of its shape).  Every kind is
    ``eps* = eps_inf + strength * phi_hat(i omega tau)``; omega = 0 gives
    exactly ``(eps_static, 0)``.
    """
    if spec.kind == "kww":
        raise DomainError("kww has no frequency-domain permittivity here")
    w, scalar = _grid(omega, "omega")
    w = w * spec.tau
    zero = w == 0.0
    eps = scale.eps_inf + scale.strength * _spectral(spec, w)
    eps_re = np.where(zero, scale.eps_static, eps.real)
    eps_im = np.where(zero, 0.0, -eps.imag)
    if scalar:
        return float(eps_re[0]), float(eps_im[0])
    return eps_re, eps_im


def _derivative(spec: ModelSpec, x: np.ndarray, k: int, strategy: EvalStrategy) -> np.ndarray:
    """d^k n / dt^k (k = 0, 1, 2) at x = t/tau, an array.

    debye, cd and kww are closed forms.  cc, hn and jws take :func:`_cm_sum` at
    x in [3e-4, 1e4] where the rule serves them.  Other points shift the
    Prabhakar index: each differentiation of ``x**(mu-1) E[alpha, mu; beta](-x**alpha)``
    lowers mu and the power of x by one, starting from the HN form
    ``n = 1 - x**(ab) E[a, 1+ab; b](-x**a)`` or the JWS form
    ``n = E[a, 1; b](-x**a)``.  cc takes the JWS form for n and the HN form
    for its derivatives.
    """
    law, a, b, tau = _law(spec), spec.alpha, spec.beta, spec.tau
    if law in ("cc", "hn", "jws", "mcd"):
        level, inside = _rule(spec, x, strategy)
        out = np.empty_like(x)
        if inside.any():
            # n'' weighs large xi more: at small x its peak, xi ~ 2/x, needs the finer step
            out[inside] = _cm_sum(spec, x[inside], k, level + k // 2) / (-tau) ** k
        rest = ~inside
        if rest.any():
            xr = x[rest]
            if law in ("jws", "mcd") or (law == "cc" and k == 0):
                out[rest] = prabhakar_eval(a, 1.0 - k, b, xr**a, strategy) / (xr**k * tau**k)
            else:
                e = prabhakar_eval(a, a * b + (1 - k), b, xr**a, strategy)
                out[rest] = ((1.0 if k == 0 else 0.0) - xr ** (a * b - k) * e) / tau**k
        return out
    if k == 0:
        if law == "cd":  # upper incomplete gamma ratio Gamma(beta, x) / Gamma(beta)
            return _special().gammaincc(b, x)
        return np.exp(-(x**a)) if law == "kww" else np.exp(-x)
    if law == "debye":
        d = np.exp(-x)
    elif law == "cd":
        d = x ** (b - k) * np.exp(-x) * float(_special().rgamma(b)) * (1.0 if k == 1 else x - (b - 1.0))
    else:  # kww
        xa = x**a
        d = a * x ** (a - k) * np.exp(-xa) * (1.0 if k == 1 else a * xa - (a - 1.0))
    return (-d if k == 1 else d) / tau**k


def _exp_sinh(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes xi = exp((pi/2) sinh s) and weights h dxi/ds, step h = 2**-level, s in
    [-6.8, 3]: xi from 1e-300 to 6.7e6, where exp(-x xi) underflows at x = 3e-4."""
    s = np.arange(math.ceil(-6.8 * 2**level), math.floor(3.0 * 2**level) + 1) * 2.0**-level
    xi = np.exp(math.pi / 2.0 * np.sinh(s))
    return xi, xi * np.cosh(s) * (math.pi / 2.0 * 2.0**-level)


_EXP_SINH = {level: _exp_sinh(level) for level in (5, 6, 7, 8)}


_RULE_LAWS = ("cc", "hn", "jws")  # the laws whose n, n' and n'' the exp-sinh rule can serve


def _rule(spec: ModelSpec, x: np.ndarray, strategy: EvalStrategy) -> tuple[int, np.ndarray]:
    """The exp-sinh level at which the rule serves spec (0 if it does not) and the mask of
    the points x = t/tau it serves: cc, hn and jws under AUTO at x in [3e-4, 1e4].

    The rule needs g >= 0 (beta <= 1/alpha); its step 2**-level resolves g's singularities
    at log xi = +-i pi (1 - a)/a, and stops at level 7 (1255 nodes, alpha ~ 0.977); g ~
    xi**(p-1) at 0 leaves ~1e-300**p below the first node, so p (jws: alpha beta) >= 0.06."""
    law, a, b = _law(spec), spec.alpha, spec.beta
    if law in _RULE_LAWS and strategy.kind == AUTO and a * b <= 1.0:
        level = max(5, math.ceil(math.log2(a / (0.34 * (1.0 - a)))))  # alpha < 1 here
        if level <= 7 and (a * b if law == "jws" else a) >= 0.06:
            return level, (x >= 3e-4) & (x <= 1e4)
    return 0, np.zeros(x.shape, dtype=bool)


# numpy's vector exp leaves its fast path below about -707.7 and is then several times
# slower (12,560 lanes of -708 took 13x as long as of -700); a floored lane's term
# exp(-700) g w xi**k stays far below the rounding of every sum the rule serves (n, n'
# and n'' came out bit-identical to the floor at -708 on 300 random cc/hn/jws specs)
_EXP_FLOOR = -700.0


def _exp_rows(x: np.ndarray, xi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(max(-x_i xi_j, -700)) into ``out`` (len(x) x len(xi)), which it returns."""
    np.multiply.outer(-x, xi, out=out)
    np.maximum(out, _EXP_FLOOR, out=out)
    return np.exp(out, out=out)


def _cm_sum(spec: ModelSpec, x: np.ndarray, k: int, level: int) -> np.ndarray:
    """tau**k |d^k n / dt^k| = Sum_j xi_j**k exp(-x xi_j) g(xi_j) w_j for each x.

    Rows are summed one by one (``sum(axis=1)``: a matrix product's blocking would tie
    a row's bits to its neighbours), so a number equals its grid element."""
    xi, w = _EXP_SINH[level]
    gw = _density(spec, xi) * w * xi**k
    out = np.empty_like(x)
    buf = np.empty((16, xi.size))
    for i in range(0, x.size, 16):
        rows = _exp_rows(x[i : i + 16], xi, buf[: min(16, x.size - i)])
        rows *= gw
        out[i : i + 16] = rows.sum(axis=1)
    return out


def _time_function(spec: ModelSpec, t, k: int, strategy: EvalStrategy):
    """d^k n / dt^k at t, a number (a float) or an array (an array of its shape)."""
    x, scalar = _grid(t, "t", positive=k > 0)
    value = _derivative(spec, x / spec.tau, k, strategy)
    return float(value[0]) if scalar else value


def response(spec: ModelSpec, t, strategy: EvalStrategy = DEFAULT_STRATEGY):
    """Regular (pointwise) part of the response function phi(t) = -dn/dt at t > 0.

    ``t`` is a number (a float) or an array (an array of its shape, one grid call); a
    number is a 1-element grid, so it gives exactly the element of a grid call.  Routes
    and tolerances: :func:`relaxation_derivatives`.
    """
    return -_time_function(spec, t, 1, strategy)


def time_response(spec: ModelSpec, strategy: EvalStrategy = DEFAULT_STRATEGY) -> TimeResponse:
    """Response function as a TimeResponse (formal delta flag plus regular density)."""
    weight = 1.0 if _jws(spec) else 0.0
    return TimeResponse(singular_weight=weight, regular=lambda t: response(spec, t, strategy))


def relaxation(spec: ModelSpec, t, strategy: EvalStrategy = DEFAULT_STRATEGY):
    """Relaxation function n(t) with n(0) = 1 exactly, monotone to 0 at infinity.

    ``t`` is a number (a float) or an array (an array of its shape, one grid call); a
    number is a 1-element grid, so it gives exactly the element of a grid call.  Routes
    and tolerances: :func:`relaxation_derivatives`.
    """
    return _time_function(spec, t, 0, strategy)


def relaxation_derivatives(spec: ModelSpec, t, strategy: EvalStrategy = DEFAULT_STRATEGY) -> tuple:
    """(n, n', n'') at t > 0, derivatives in closed form, not differences.

    ``t`` is a number (three floats) or an array (three arrays of its shape,
    one grid call each); a number gives exactly the elements of a grid call.
    Complete monotonicity shows up as the sign pattern (+, -, +).

    Under AUTO, cc, hn and jws with beta <= 1/alpha at t/tau in [3e-4, 1e4] are
    ``(-1)**k tau**-k Sum_j xi_j**k exp(-t xi_j/tau) g(xi_j) w_j``, positive terms
    over the rate density g on a fixed exp-sinh rule: n and n' within 1e-11 relative,
    n'' within 1e-12 (not for alpha above ~0.977 or alpha, for jws alpha beta, below
    0.06).  The rest lowers mu by one per derivative of
    ``t**(mu-1) E[alpha, mu; nu](-(t/tau)**alpha)``: Prabhakar evaluations.
    """
    d2 = _time_function(spec, t, 2, strategy)
    return relaxation(spec, t, strategy), -response(spec, t, strategy), d2


def pdf_g(spec: ModelSpec, xi):
    """Relaxation-rate mixture density g(xi) with n(t) = Int_0^inf e^{-t xi / tau} g(xi) dxi.

    ``xi`` is a number (a float is returned) or an array of any shape (an
    array of its shape); a number is evaluated as a 1-element array, so it
    gives exactly the element of a grid call.  Closed trigonometric forms
    throughout: the branch-resolved angle of :func:`theta` makes the HN/JWS
    expressions single-formula and nonnegative on the valid regime
    ``beta <= 1/alpha`` (for ``beta > 1/alpha``, reachable only with
    ``allow_unphysical``, the negative lobe appears naturally).  The
    Cole-Davidson supports are exact: g_cd vanishes for xi <= 1 and g_mcd for
    xi >= 1.  Debye has a unit point mass at xi = 1 instead of a density;
    kww's density is the Levy stable density.
    """
    xs = np.asarray(xi, dtype=float)
    if not ((xs > 0.0) & (xs < math.inf)).all():
        raise DomainError(f"xi must be positive and finite, got {xi}")
    law, a, b = _law(spec), spec.alpha, spec.beta
    if law == "debye":
        raise DomainError("the Debye mixing measure is a point mass at xi = 1, not a density")
    if law == "kww":
        if a >= 1.0:
            raise DomainError("kww density needs alpha < 1")
        return levy_stable_density(a, xi)
    x = np.atleast_1d(xs)
    if law in ("cd", "mcd"):
        g = np.zeros_like(x)
        inside = x > 1.0 if law == "cd" else x < 1.0
        v = x[inside]
        if law == "cd":
            g[inside] = math.sin(math.pi * b) / (math.pi * v * (v - 1.0) ** b)
        else:
            g[inside] = math.sin(math.pi * b) * v ** (b - 1.0) / (math.pi * (1.0 - v) ** b)
    else:
        g = _density(spec, x)
    return float(g[0]) if xs.ndim == 0 else g.reshape(xs.shape)


def _density(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """:func:`pdf_g` of cc, hn or jws (by ``_law``) on an array of xi > 0, unchecked: the
    exp-sinh rule's nodes need no checks."""
    a, b = spec.alpha, spec.beta
    amp_b = np.sqrt(x ** (2.0 * a) + 2.0 * x**a * math.cos(math.pi * a) + 1.0) ** b
    if _law(spec) == "jws":
        return x ** (a * b - 1.0) * np.sin(b * _theta(a, 1.0 / x)) / (math.pi * amp_b)
    return np.sin(b * _theta(a, x)) / (math.pi * x * amp_b)  # hn and cc


def pdf_g_hypergeometric(spec: ModelSpec, xi: float) -> float:
    """g(xi) through the finite hypergeometric sum for rational alpha = l/k.

    The j-th term is ``(-1)^j (beta)_j sin(pi l n_j / k) xi**(-+ l n_j / k - 1)
    (k+1)Fk(1, D(k, n_j); D(k, 1+j); z) / (pi j!)`` with ``n_j = beta + j``
    and argument ``z = (-1)**(l-k) xi**(-+l)`` (upper signs HN, lower JWS).
    Being a ratio-1 hypergeometric series it converges only for |z| < 1, i.e.
    xi > 1 for HN-type and xi < 1 for JWS-type; this is the cross-validation
    path against the closed trigonometric forms.
    """
    if not (0.0 < xi < math.inf):
        raise DomainError(f"xi must be positive and finite, got {xi}")
    if spec.kind in ("debye", "kww"):
        raise DomainError(f"no hypergeometric mixture form for kind {spec.kind!r}")
    jws_like = _jws(spec)
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
        total += coeff * hyper_pfq(nums, dens, arg)
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
    if not (0.0 < t < math.inf):
        raise DomainError(f"t must be positive and finite, got {t}")
    x = t / spec.tau
    a, b, r = spec.alpha, spec.beta, _special().rgamma
    ab = a * b
    # the two leading terms (c, p) of tau * phi = c x**p + ...
    if spec.kind == "kww":
        if regime == "long":
            raise DomainError("kww decays as a stretched exponential; no algebraic long-time term")
        terms = [(a, a - 1.0), (-a, 2.0 * a - 1.0)]
    elif _jws(spec) and regime == "short":
        terms = [(b * r(a), a - 1.0), (-b * (b + 1.0) / 2.0 * r(2.0 * a), 2.0 * a - 1.0)]
    elif _jws(spec):
        terms = [(-r(-ab), -ab - 1.0), (b * r(-ab - a), -ab - a - 1.0)]
    elif regime == "short":
        terms = [(r(ab), ab - 1.0), (-b * r(ab + a), ab + a - 1.0)]
    else:
        terms = [(-b * r(-a), -1.0 - a), (b * (b + 1.0) / 2.0 * r(-2.0 * a), -1.0 - 2.0 * a)]
    if which == "response":
        return _leading(terms, x, allow_next_order) / spec.tau
    # n is 1 - Int_0^t phi at short times and Int_t^inf phi at long times
    tail = _leading([(-c / (p + 1.0), p + 1.0) for c, p in terms], x, allow_next_order)
    return 1.0 + tail if regime == "short" else tail


def _leading(terms: list[tuple[float, float]], x: float, allow_next_order: bool) -> float:
    coeff, power = terms[0]
    if coeff != 0.0:
        return float(coeff * x**power)
    if not allow_next_order:
        raise DomainError(
            "leading asymptotic coefficient sits at a gamma pole; "
            "pass allow_next_order=True for the next term"
        )
    coeff, power = terms[1]
    if coeff == 0.0:
        raise DomainError("no algebraic asymptotic term exists in this regime (exponential decay)")
    return float(coeff * x**power)


def laplace_image(spec: ModelSpec) -> LaplaceImage:
    """phi_hat as a LaplaceImage over the complex Laplace variable z (1/time units).

    Every spectral function here vanishes at infinite |z|, so the image
    carries no constant term (no net point mass at t = 0; see the module
    docstring on delta bookkeeping).
    """
    if spec.kind == "kww":
        raise DomainError("kww has no simple rational spectral image")
    return LaplaceImage(lambda z: 1.0 / (1.0 + _ratio(spec, z * spec.tau)))


def response_tail_exponent(spec: ModelSpec) -> float:
    """Power of the algebraic long-time response tail (for tail-corrected quadrature).

    Laws with exponential decay (debye, cd, kww, and the specs that reduce to
    them, e.g. hn(1, beta)) return 0; the coefficient fitted at the truncation
    point is then vanishingly small anyway.
    """
    if _law(spec) in ("debye", "cd", "kww"):
        return 0.0
    return -1.0 - spec.alpha * (spec.beta if _jws(spec) else 1.0)
