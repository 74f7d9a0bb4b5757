"""Three-parameter Mittag-Leffler (Prabhakar) evaluation and related special functions.

Everything the relaxation models need in the time domain reduces to
``E[alpha, mu; nu](-x)`` for ``x >= 0``, evaluated here by four strategies:

* power series, with log-gamma/sign bookkeeping and a cancellation monitor;
* fixed-Talbot contour inversion of the Laplace image
  ``z**(alpha*nu - mu) / (x + z**alpha)**nu`` at t = 1 (midrange workhorse);
* large-argument algebraic expansion with optimal truncation;
* for rational ``alpha = l/k``, the finite sum of k generalized
  hypergeometric functions (cross-validation path).

There is one route, chosen per point by a fixed rule: the series is tried
once, for ``u = x**(1/alpha)`` up to 5 (mu >= 0) or 25 (mu < 0), and kept
where its own cancellation estimate is at most 1e4; other points try the
expansion from u = 50, then the contour (mu >= 0) or a recurrence in mu.  No
caller picks a strategy, and no two are cross-checked.

``alpha == 1`` (mu > 0) is routed through the Kummer-transformed confluent
series ``exp(-x) 1F1(mu - nu; mu; x) / Gamma(mu)`` below x = 50, whose terms
are nonnegative for ``mu >= nu``, and its expansion in 1/x beyond, so the
Debye/Cole-Davidson reductions hold to 3e-14 relative or better at any
argument.

One dispatcher, ``_eval_grid``, routes a 1-D array of arguments, ``mu < 0``
included, with one call per strategy; a number is a 1-element array.  The
strategies are array bodies built from numpy's own ``exp``, ``log``, ``**``
and ``einsum``, whose value for an element does not depend on the array around it, so
a number gives exactly the element of a grid call.

The public dataclass ``PrabhakarParams`` enforces ``nu > 0`` (the regime the
relaxation models and the complete-monotonicity statements live in); the
module-level evaluators accept any real ``mu`` and ``nu``: second derivatives
need ``mu < 0``, and a negative ``nu`` is evaluated as well.

The gamma-type functions come from this module too, built on ``math`` and
numpy alone: ``_rgamma`` (1/Gamma) for the coefficient rows of every
Prabhakar strategy, ``_gammaincc`` and ``_gamma_upper`` (the incomplete gamma
function) for the Cole-Davidson closed forms, and the alpha = 1 Kummer route
in ``_kummer``.  Their tables are built on first use; nothing runs at import.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exceptions import DomainError, NonConvergent
from .inversion import talbot_sum
from .quadrature import _BLOCK, _call_levels, _integrate_rows, _nodes

__all__ = [
    "PrabhakarParams",
    "RationalOrder",
    "pochhammer",
    "hyper_pfq",
    "prabhakar",
    "prabhakar_eval",
    "prabhakar_rational",
    "prabhakar_derivative",
    "levy_stable_density",
]

# switch points in u = x**(1/alpha), the t/tau-like variable: the series loses
# about exp(u)*eps to cancellation, the asymptotic expansion gains exp(-u).
# The series is tried up to _CROSSOVER_U (mu >= 0) or _SERIES_MAX_U (mu < 0)
_CROSSOVER_U, _SERIES_MAX_U, _ASYM_SAFE_U = 5.0, 25.0, 50.0
# the series is kept where its cancellation, largest term over result, is at most this
_SERIES_MAX_CANCEL = 1e4
# the series' relative stop tolerance and its term cap
_REL_TOL = 1e-13
_MAX_TERMS = 2000
_TINY = 1e-300
# terms per block of the array series and expansion (the blocks bound their
# memory, and a point drops out after the block in which it converges), and
# the expansion's term cap
_SERIES_ROWS, _ASYM_ROWS, _ASYM_TERMS = 64, 16, 160


@dataclass(frozen=True)
class PrabhakarParams:
    """Index triple of ``E[alpha, mu; nu]``.

    ``alpha`` is the order (> 0), ``mu`` the second index (any real), ``nu``
    the power index (> 0).  The complete-monotonicity statements used by the
    relaxation models additionally need ``0 < alpha <= 1`` and
    ``alpha * nu <= mu <= 1``; see :meth:`in_cm_regime`.
    """

    alpha: float
    mu: float
    nu: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not (self.nu > 0.0):
            raise DomainError(f"nu must be positive, got {self.nu}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")

    def in_cm_regime(self) -> bool:
        """True when ``t**(mu-1) E[alpha, mu; nu](-t**alpha)`` is completely monotone.

        The condition is ``0 < alpha <= 1`` with ``alpha*nu <= mu <= 1``: the
        Laplace image ``z**(alpha nu - mu) / (1 + z**alpha)**nu`` must be a
        Stieltjes-type decreasing function of real z, which forces the
        exponent ``alpha nu - mu`` to be nonpositive, and the ``t**(mu-1)``
        prefactor must not grow.  For ``mu < alpha nu`` the function really
        does turn negative at large argument (the leading tail coefficient
        ``1/Gamma(mu - alpha nu)`` is negative there), so the occasionally
        quoted flipped inequality is refuted numerically by the tests.
        """
        return 0.0 < self.alpha <= 1.0 and self.alpha * self.nu <= self.mu <= 1.0


@dataclass(frozen=True)
class RationalOrder:
    """Rational order alpha = l/k in lowest terms, 0 < l <= k."""

    l: int
    k: int

    def __post_init__(self):
        if self.l <= 0 or self.k <= 0:
            raise DomainError("l and k must be positive integers")
        if self.l > self.k:
            raise DomainError("need l <= k so that alpha = l/k lies in (0, 1]")
        if math.gcd(self.l, self.k) != 1:
            raise DomainError(f"l/k = {self.l}/{self.k} is not in lowest terms")

    @property
    def alpha(self) -> float:
        return self.l / self.k

    @classmethod
    def from_float(cls, alpha: float) -> "RationalOrder":
        frac = Fraction(alpha).limit_denominator(64)
        if abs(float(frac) - alpha) > 1e-12:
            raise DomainError(f"alpha={alpha} is not a small rational l/k")
        return cls(frac.numerator, frac.denominator)


def pochhammer(c: float, r: int) -> float:
    """Rising factorial (c)_r = c (c+1) ... (c+r-1), as a running product.

    Deliberately not computed through gamma ratios: the product form keeps
    exact zeros for nonpositive-integer ``c`` and avoids overflow/cancellation
    in the gamma pair.  Overflow is flagged by returning ``inf`` alongside a
    warning.
    """
    if r < 0:
        raise DomainError("r must be a nonnegative integer")
    out = 1.0
    for j in range(r):
        out *= c + j
        if math.isinf(out):
            warnings.warn(
                f"pochhammer({c}, {r}) overflowed at factor {j}",
                RuntimeWarning,
                stacklevel=2,
            )
            return out
    return out


def _delta_list(n: int, a: float) -> list[float]:
    """Parameter list a/n, (a+1)/n, ..., (a+n-1)/n."""
    return [(a + j) / n for j in range(n)]


def hyper_pfq(numerators: Sequence[float], denominators: Sequence[float], x: float) -> float:
    """Generalized hypergeometric series pFq(numerators; denominators; x).

    Partial sums stop once three consecutive terms fall below
    ``1e-13 |sum|`` (alternating series make a single small term
    unreliable).  Terminating numerator parameters (nonpositive integers)
    stop the series exactly.  Requires ``p <= q + 1``; for ``p == q + 1`` the
    argument must satisfy ``|x| < 1`` unless the series terminates.
    """
    num = [float(c) for c in numerators]
    den = [float(d) for d in denominators]
    p, q = len(num), len(den)
    if p > q + 1:
        raise DomainError(f"pFq needs p <= q + 1, got p={p}, q={q}")

    def _terminates() -> bool:
        return any(c <= 0.0 and float(c).is_integer() for c in num)

    if p == q + 1 and abs(x) >= 1.0 and not _terminates():
        raise DomainError(f"{p}F{q} diverges for |x| >= 1 (got x={x})")

    total = 1.0
    term = 1.0
    small = 0
    for r in range(_MAX_TERMS):
        ratio_num = 1.0
        for c in num:
            ratio_num *= c + r
        if ratio_num == 0.0:
            return total  # a numerator parameter terminated the series
        ratio_den = float(r + 1)
        for d in den:
            if d + r == 0.0:
                raise DomainError(
                    f"denominator parameter {d} hits a nonpositive integer at term {r + 1}"
                )
            ratio_den *= d + r
        if ratio_den == 0.0:
            raise DomainError(f"pFq denominator product underflows to 0 at term {r + 1}")
        term *= x * ratio_num / ratio_den
        total += term
        if abs(term) > 1e200:
            raise NonConvergent(f"pFq terms grew past safeguard at r={r + 1}")
        if abs(term) < _REL_TOL * max(abs(total), _TINY):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise NonConvergent(
        f"pFq did not converge within {_MAX_TERMS} terms (|last|={abs(term):.3g})"
    )


# ---------------------------------------------------------------------------
# 1/Gamma and the incomplete gamma function, from math and numpy alone.
# ---------------------------------------------------------------------------


def _rgamma(s: float) -> float:
    """1/Gamma(s) of a float, from ``math.gamma`` (a few ulps).

    0 at the poles s = 0, -1, -2, ... and for s > 171.6, s itself for a subnormal s, +-inf
    where Gamma underflows (s below about -184), NaN for a NaN s.
    """
    try:
        return 1.0 / math.gamma(s)
    except ValueError:  # a pole, or -inf
        return 0.0
    except OverflowError:  # s > 171.6, or |s| so small that Gamma(s) ~ 1/s overflows
        return s if abs(s) < 1.0 else 0.0
    except ZeroDivisionError:  # Gamma underflowed to a signed zero
        return math.copysign(math.inf, math.gamma(s))


def _rgamma_row(s: np.ndarray) -> np.ndarray:
    """1/Gamma elementwise on a 1-D row (the coefficient rows of the strategies), each
    element :func:`_rgamma` of it."""
    return np.fromiter(map(_rgamma, s.tolist()), float, s.size)


# Stirling's coefficients B_2k / (2k (2k - 1)), k = 1..5
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


def _lgamma1p(s: float) -> float:
    """log Gamma(1 + s) for s >= 0, to a few ulps relative also where it nears 0 at small s.

    ``math.lgamma(1 + s)`` loses the digits of s that 1 + s rounds away.  Here
    ``log Gamma(1 + s) = D - sum_{m=1}^{20} log1p(s/m)`` with
    ``D = log Gamma(21 + s) - log Gamma(21)`` from the difference of Stirling's
    series at 21 (truncation below 1e-17 s), every part of it O(s).
    """
    t = math.log1p(s / 21.0)
    d = 20.5 * t + s * (math.log(21.0 + s) - 1.0)
    for k, c in enumerate(_STIRLING, 1):
        d += c * 21.0 ** (1 - 2 * k) * math.expm1((1 - 2 * k) * t)
    for m in range(1, 21):
        d -= math.log1p(s / m)
    return d


# Gamma(s, x) takes the Gauss-Laguerre rule from x = _LAGUERRE_X and, below it, the
# series of P = 1 - Q in 24 terms (x**24 / 24! < 1e-19 at x = 1.5); e**-x underflows
# from _GAMMA_ZERO_X
_LAGUERRE_X, _LAGUERRE_NODES, _GAMMA_ZERO_X = 1.5, 64, 746.0


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 64-point Gauss-Laguerre nodes and weights, largest node first, built on first use.

    Golub & Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Laguerre recurrence and the weights the squared first components of its
    eigenvectors; a rule sum of Gamma(s, x) is then within 1.3e-14 relative at
    x = 1.5 and 1.2e-15 from x = 2, against 1.2e-14 with numpy's ``laggauss``.
    Only the 34 nodes with weights of at least 1e-20 are kept: for an integrand
    that does not grow, the other 30 add less than 1e-19 of the sum.
    """
    n = _LAGUERRE_NODES
    jacobi = np.diag(2.0 * np.arange(n) + 1.0) + np.diag(np.arange(1.0, n), -1)
    u, vectors = np.linalg.eigh(jacobi)  # reads the lower triangle
    w = vectors[0] ** 2
    keep = w >= 1e-20
    u, w = u[keep][::-1].copy(), w[keep][::-1].copy()
    u.flags.writeable = w.flags.writeable = False
    return u, w


@functools.cache
def _p_series_table() -> tuple[np.ndarray, np.ndarray]:
    """n = 0..23 and (-1)**(n+1) / n! (0 at n = 0), for the series of P."""
    n = np.arange(24.0)
    base = np.array([0.0] + [(-1.0) ** (j + 1) / math.factorial(j) for j in range(1, 24)])
    n.flags.writeable = base.flags.writeable = False
    return n, base


def _laguerre(s: float, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) for -1 < s <= 1 on a 1-D array x >= 1.5, within 2e-14 relative.

    ``Gamma(s, x) = e**-x int_0^inf e**-u (x + u)**(s-1) du`` on the 64-point
    Gauss-Laguerre rule; the integrand's branch point u = -x lies at least 1.5
    from the rule's half-line.  Each point is a row of its own, contracted by
    ``einsum``, so its value does not depend on the array around it.
    """
    u, w = _laguerre_rule()
    f = np.log(np.add.outer(x, u))
    f *= s - 1.0
    return np.exp(-x) * np.einsum("ij,j->i", np.exp(f, out=f), w)


def _q_series(s: float, x: np.ndarray) -> np.ndarray:
    """Q(s, x) for 0 < s <= 1 on a 1-D array 0 < x < 1.5, within 1e-14 relative.

    From ``gamma(s, x) = sum_n (-1)**n x**(s+n) / (n! (s+n))`` (DLMF 8.7.1):
    ``Q = -expm1(E) + e**E s T`` with ``E = s log x - log Gamma(1+s)`` and
    ``T = sum_{n>=1} (-1)**(n+1) x**n / (n! (s+n))``.  Both parts are O(s), so a
    small s keeps its digits; below x = 1.5 they cancel by less than 15x.
    """
    n, base = _p_series_table()
    st = np.einsum("ij,j->i", np.power.outer(x, n), base * (s / (s + n)))
    e = np.log(x)
    e *= s
    e -= _lgamma1p(s)
    em = np.expm1(e)
    return st * np.exp(e) - em


def _gammaincc(s: float, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma function Q(s, x) = Gamma(s, x) / Gamma(s) for
    s > 0 on a 1-D array x >= 0: within 2e-14 relative for s <= 1.

    The series of :func:`_q_series` below x = 1.5 and the Gauss-Laguerre rule of
    :func:`_laguerre` from there; Q(s, 0) = 1, and Q = 0 from x = 746, where
    e**-x underflows.  A larger s = f + n, f in (0, 1], adds the n positive terms
    of ``Q(s, x) = Q(f, x) + sum_{k<n} x**(f+k) e**-x / Gamma(f+k+1)`` (DLMF 8.8.2),
    each a few ulps more while e**-x is a normal float (x < 708).
    """
    if not s > 0.0:
        raise DomainError(f"Q(s, x) needs s > 0, got {s}")
    n = math.ceil(s) - 1
    f = s - n
    out = np.where(x < _GAMMA_ZERO_X, 1.0, 0.0)
    big = (x >= _LAGUERRE_X) & (x < _GAMMA_ZERO_X)
    small = (x < _LAGUERRE_X) & (x > 0.0)
    if np.count_nonzero(small):
        out[small] = _q_series(f, x[small])
    if np.count_nonzero(big):
        out[big] = _laguerre(f, x[big]) * _rgamma(f)
    if n:
        term = x**f * np.exp(-x) * _rgamma(f + 1.0)
        for k in range(n):
            out += term
            term *= x / (f + k + 1.0)
    return out


def _gamma_upper(s: float, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) for -1 < s < 0 on a 1-D array x > 0: within 2e-14 relative from x = 1.5,
    and 3e-15 / |s| below.

    The Gauss-Laguerre rule of :func:`_laguerre` from x = 1.5, so no cancellation
    at large x (0 from x = 746); below, ``(Gamma(s + 1, x) - x**s e**-x) / s``,
    whose two parts cancel by up to about 1/|s| there.
    """
    if not -1.0 < s < 0.0:
        raise DomainError(f"Gamma(s, x) here needs -1 < s < 0, got {s}")
    out = np.zeros(x.shape)
    small = x < _LAGUERRE_X
    big = ~small & (x < _GAMMA_ZERO_X)
    if np.count_nonzero(small):
        xs = x[small]
        out[small] = (_q_series(s + 1.0, xs) * math.gamma(s + 1.0) - xs**s * np.exp(-xs)) / s
    if np.count_nonzero(big):
        out[big] = _laguerre(s, x[big])
    return out


# ---------------------------------------------------------------------------
# Prabhakar strategies.  All evaluate E[alpha, mu; nu](-x) on a 1-D array of x > 0.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """log j! for j < n, from math.lgamma; built on first use, not at import."""
    table = np.array([math.lgamma(j + 1.0) for j in range(n)])
    table.flags.writeable = False
    return table


def _term_blocks(nu: float, end: int, rows: int):
    """Blocks of ``rows`` indices j < end with log|(nu)_j|, the sign of (-1)^j (nu)_j
    (0 once (nu)_j terminates) and log j!; (-1)^j (nu)_j is the running product of
    the factors -(nu + i) for i < j."""
    log_fact = _log_factorials(end)
    log_poch, sign_poch = 0.0, 1.0
    for j0 in range(0, end, rows):
        j = np.arange(j0, min(j0 + rows, end))
        factor = -(nu + (j - 1.0))
        if j0 == 0:
            factor[0] = 1.0
        logs = np.log(np.maximum(np.abs(factor), _TINY))
        logs[0] += log_poch
        poch = np.cumsum(logs)
        sign = np.cumprod(np.sign(factor)) * sign_poch
        log_poch, sign_poch = poch[-1], sign[-1]
        yield j, poch, sign, log_fact[j0 : j0 + j.size]


def _series(alpha: float, mu: float, nu: float, x: np.ndarray):
    """Power series with sign/log-magnitude bookkeeping, at most ``_MAX_TERMS`` terms.

    Returns ``(value, cancellation)`` arrays, where cancellation is the ratio
    of the largest term magnitude to the result magnitude; a value carries
    about ``cancellation * eps`` of absolute rounding error.  Terms come
    ``_SERIES_ROWS`` to a block: each point carries its sum, largest term and
    last two small-term flags across blocks and stops at its third small term
    in a row.
    """
    log_x = np.log(x)[:, None]
    total, peak = np.zeros(x.size), np.zeros(x.size)
    small = np.zeros((x.size, 2), dtype=bool)
    live = np.arange(x.size)
    for r, poch, sign, log_fact in _term_blocks(nu, _MAX_TERMS, _SERIES_ROWS):
        mag, rg = poch + r * log_x[live] - log_fact, _rgamma_row(alpha * r + mu)
        term = sign * np.exp(np.minimum(mag, 709.0)) * rg
        size = np.abs(term)
        term[:, 0] += total[live]
        sums = np.cumsum(term, axis=1)
        flags = np.concatenate((small[live], size < _REL_TOL * np.maximum(np.abs(sums), _TINY)), axis=1)
        hit = flags[:, 2:] & flags[:, 1:-1] & flags[:, :-2]
        done = hit.any(axis=1)
        stop, rows = np.where(done, hit.argmax(axis=1), r.size - 1), np.arange(live.size)
        if mag.max() > 690.0 and np.any((mag > 690.0) & (rg != 0.0) & (np.arange(r.size) <= stop[:, None])):
            raise NonConvergent(f"series term overflow (alpha={alpha}, mu={mu}, nu={nu})")
        total[live] = sums[rows, stop]
        peak[live] = np.maximum(peak[live], np.maximum.accumulate(size, axis=1)[rows, stop])
        small[live] = flags[:, -2:]
        live = live[~done]
        if not live.size:
            break
    if live.size:
        raise NonConvergent(f"Prabhakar series needs more than {_MAX_TERMS} terms at x={x[live[0]]}")
    return total, peak / np.maximum(np.abs(total), _TINY)


# alpha = 1 (Kummer): the series below _KUMMER_X in 144 terms (e**-x x**n / n! < 1e-26 at
# n = 144, x = 50), and from there the expansion in 1/x in _KUMMER_ASYM terms or, where
# that is not accurate, the series in _KUMMER_LONG terms (enough up to x = 690)
_KUMMER_X, _KUMMER_ASYM, _KUMMER_LONG = 50.0, 24, 960


def _expansion_serves(mu: float, nu: float) -> bool:
    """True when the algebraic expansion of E[1, mu; nu](-x) is the whole value to 1e-16 at
    every x >= 50.

    For large x, ``E = x**-nu / Gamma(mu - nu) (1 + O(1/x)) + e**-x x**(nu - mu) /
    Gamma(nu) (1 + O(1/x))``, and the expansion keeps only the first part.  It
    does not serve where the second one exceeds e**-37 of the first at x = 50
    (it shrinks with x from there), or where mu - nu lies within 1e-6 of a
    nonpositive integer (the first part has (nearly) vanished).
    """
    a = mu - nu
    if a < 0.5 and abs(a - round(a)) < 1e-6:
        return False
    if nu <= 0.0 and nu == round(nu):
        return True  # 1/Gamma(nu) = 0: no second part
    x, p = _KUMMER_X, 2.0 * nu - mu
    return p < x and p * math.log(x) - x + math.lgamma(a) - math.lgamma(nu) < -37.0


def _kummer_expansion(mu: float, nu: float, x: np.ndarray) -> np.ndarray:
    """``E[1, mu; nu](-x) ~ x**-nu / Gamma(mu - nu) 2F0(nu, 1 - mu + nu;; 1/x)`` on a 1-D
    array x >= 50 (:func:`_expansion_serves` must hold), in 24 terms; NaN where the last
    of them is not below 1e-17 of the sum or the terms cancel by more than 4x.

    Term j is ``(nu)_j (1 - mu + nu)_j / j! x**-j``.  For nu > 0 and mu - nu <= 1
    every term is positive and shrinks with x, so one check at x = 50 serves all
    points; a 2F0 whose terms reach 0 is exact.
    """
    a = mu - nu
    k = np.arange(_KUMMER_ASYM - 1.0)
    d = np.empty(_KUMMER_ASYM)
    d[0] = _rgamma(a)
    np.multiply((nu + k) * (1.0 - a + k), 1.0 / (k + 1.0), out=d[1:])
    np.cumprod(d, out=d)
    powers = np.power.outer(x, -np.arange(float(_KUMMER_ASYM)))
    total = np.einsum("ij,j->i", powers, d)
    if nu > 0.0 and a <= 1.0:
        ok = abs(d[-1]) * _KUMMER_X ** (1 - _KUMMER_ASYM) <= 1e-17 * abs(d[0])
    else:
        size = np.einsum("ij,j->i", powers, np.abs(d))
        ok = (np.abs(d[-1]) * powers[:, -1] <= 1e-17 * np.abs(total)) & (size <= 4.0 * np.abs(total))
    return np.where(ok, x**-nu * total, np.nan)


@functools.lru_cache(maxsize=8)
def _kummer_table(b: float) -> tuple[np.ndarray, ...]:
    """k = 0..142 and (b + k) (k + 1), the recurrence of the series' coefficients, and the
    exponents 0..11 and 0, 12, ..., 132 of its blocks."""
    k = np.arange(143.0)
    table = (k, (b + k) * (k + 1.0), np.arange(12.0), np.arange(0.0, 144.0, 12.0))
    for row in table:
        row.flags.writeable = False
    return table


def _kummer_series(a: float, b: float, x: np.ndarray, scale: float) -> np.ndarray:
    """``scale e**-x 1F1(a; b; x)`` on a 1-D array 0 <= x < 50 in its first 144 terms.

    ``sum_n c_n x**n`` with ``c_n = (a)_n / ((b)_n n!)``, in 12 blocks of 12:
    ``sum_k x**(12 k) P_k(x)``, ``P_k(x) = sum_{j<12} c_{12k+j} x**j``.  Two
    tables of correctly rounded powers and one ``einsum`` contraction, whose
    value at a point, unlike a BLAS product's, does not depend on the array
    around it.
    """
    k, den, low, high = _kummer_table(b)
    c = np.empty(144)
    c[0] = scale
    np.divide(a + k, den, out=c[1:])
    blocks = np.einsum("ij,kj->ik", np.power.outer(x, low), np.cumprod(c, out=c).reshape(12, 12))
    blocks *= np.power.outer(x, high)
    return np.exp(-x) * blocks.sum(axis=1)


def _kummer_long(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """``e**-x 1F1(a; b; x)`` on a 1-D array x <= 690 in 960 terms, each the last times
    ``x (a + k - 1) / ((b + k - 1) k)``, starting from e**-x (so none overflows)."""
    k = np.arange(_KUMMER_LONG - 1.0)
    terms = np.empty((x.size, _KUMMER_LONG))
    terms[:, 0] = np.exp(-x)
    terms[:, 1:] = np.multiply.outer(x, (a + k) / ((b + k) * (k + 1.0)))
    return np.cumprod(terms, axis=1, out=terms).sum(axis=1)


def _kummer(mu: float, nu: float, x):
    """alpha = 1 case via Kummer's transformation, for a number or an array x >= 0, mu > 0.

    ``E[1, mu; nu](-x) = e**-x 1F1(mu - nu; mu; x) / Gamma(mu)``.  Below x = 50
    the series in its first 144 terms (:func:`_kummer_series`); for mu >= nu
    every term is nonnegative, and it is within 1e-14 relative (the Debye and
    Cole-Davidson reductions to 1e-12 and better).  From x = 50 the expansion
    in 1/x (:func:`_kummer_expansion`, within 3e-14 relative) where it serves
    (:func:`_expansion_serves`) and meets its checks, and otherwise the series
    in 960 terms (:func:`_kummer_long`) up to x = 690 and NaN beyond.  mu = nu
    gives e**-x / Gamma(mu) at any x.  For mu < nu the terms alternate; the
    route's ``(nu - mu) x <= 36`` bounds the cancellation.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    a, rg = mu - nu, _rgamma(mu)
    far = arr >= _KUMMER_X
    if a == 0.0:
        out = np.exp(-arr) * rg
    elif not np.count_nonzero(far):
        out = _kummer_series(a, mu, arr, rg)
    else:
        out = np.empty(arr.shape)
        out[~far] = _kummer_series(a, mu, arr[~far], rg)
        xf = arr[far]
        value = np.full(xf.shape, np.nan)
        if _expansion_serves(mu, nu):
            value = _kummer_expansion(mu, nu, xf)
        miss = np.isnan(value) & (xf <= 690.0)
        if np.count_nonzero(miss):
            value[miss] = _kummer_long(a, mu, xf[miss]) * rg
        out[far] = value
    return out.reshape(np.shape(x)) if isinstance(x, np.ndarray) else float(out[0])


def _asymptotic(alpha: float, mu: float, nu: float, x: np.ndarray):
    """Algebraic large-x expansion with optimal truncation.

    E[alpha, mu; nu](-x) ~ sum_j (-1)^j (nu)_j x**(-nu-j) / (j! Gamma(mu - alpha(nu+j))),
    summed until the terms start growing; the first omitted term bounds the
    error.  Terms come ``_ASYM_ROWS`` to a block, and each point stops at its
    first term that grows (not summed) or is small (summed).  A coefficient
    whose Gamma argument lies within 1e-9 of a nonpositive integer is zero
    (its computed 1/Gamma is rounding noise) and is skipped, so it cannot end
    the sum.  Points whose error bound exceeds 1e-12 of the sum are NaN.
    """
    log_x = np.log(x)[:, None]
    total, err, last = np.zeros(x.size), np.full(x.size, np.inf), np.full(x.size, np.inf)
    live = np.arange(x.size)
    for j, poch, sign, log_fact in _term_blocks(nu, _ASYM_TERMS, _ASYM_ROWS):
        s = mu - alpha * (nu + j)
        rg = _rgamma_row(s)
        keep = (rg != 0.0) & ~((s < 0.5) & (np.abs(s - np.round(s)) < 1e-9))
        if not keep.all():
            if not keep.any():
                continue
            j, poch, sign, log_fact, rg = j[keep], poch[keep], sign[keep], log_fact[keep], rg[keep]
        mag = (poch - log_fact) - (nu + j) * log_x[live]
        term = sign * np.exp(np.minimum(mag, 709.0)) * rg
        size = np.abs(term)
        grow = size > np.concatenate((last[live, None], size[:, :-1]), axis=1)
        term[grow] = 0.0  # a growing term is not summed
        term[:, 0] += total[live]
        sums = np.cumsum(term, axis=1)
        hit = grow | (size < _REL_TOL * np.maximum(np.abs(sums), _TINY))
        done = hit.any(axis=1)
        stop, rows = np.where(done, hit.argmax(axis=1), j.size - 1), np.arange(live.size)
        total[live] = sums[rows, stop]
        err[live] = np.where(done, size[rows, stop], np.inf)
        last[live] = size[:, -1]
        live = live[~done]
        if not live.size:
            break
    return np.where(err <= 1e-12 * np.maximum(np.abs(total), _TINY), total, np.nan)


_TAIL_TERMS = 24  # terms of the HN tail expansion


def _hn_tail(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """``1 - x**(alpha beta) E[alpha, 1 + alpha beta; beta](-x**alpha)`` on a 1-D array x > 1,
    0 < alpha < 1, in relative precision: NaN where its expansion does not serve.

    That is the HN relaxation at x = t/tau.  The expansion of the Prabhakar
    term starts with exactly 1, so the difference is the rest,
    ``-sum_{j>=1} (-1)**j (beta)_j x**(-alpha j) / (j! Gamma(1 - alpha j))``,
    with no cancellation against the 1.  Its first 24 terms are summed from the
    small end, on a row of :func:`_rgamma_row`.  By reflection each term is at
    most ``e_j = |(beta)_j| Gamma(alpha j) x**(-alpha j) / (j! pi)``, a bound that
    a pole of 1/Gamma (alpha j an integer) does not zero; a point is NaN unless
    ``e_25``, that of the first term left out, is below 1e-17 of the sum and
    below ``e_24``, and the terms cancel by at most 2x.
    """
    j = np.arange(1.0, _TAIL_TERMS + 1.0)
    rising = np.cumprod(-(beta - 1.0 + j) / j)  # (-1)**j (beta)_j / j!
    coef = (rising * _rgamma_row(1.0 - alpha * j))[::-1]
    powers = np.power.outer(x, -alpha * j[::-1])  # the small end first
    total, size = -np.einsum("ij,j->i", powers, coef), np.einsum("ij,j->i", powers, np.abs(coef))
    n = float(_TAIL_TERMS)
    e_last = abs(rising[-1]) * math.gamma(alpha * n) / math.pi * powers[:, 0]
    ratio = (beta + n) / (n + 1.0) * math.gamma(alpha * (n + 1.0)) / math.gamma(alpha * n)
    ratio = ratio * powers[:, -1]  # e_25 / e_24
    ok = (e_last * ratio <= 1e-17 * np.abs(total)) & (ratio < 1.0) & (size <= 2.0 * np.abs(total))
    return np.where(ok, total, np.nan)


def _contour(alpha: float, mu: float, nu: float, x: np.ndarray) -> np.ndarray:
    """Midrange evaluation by fixed-Talbot inversion of the Laplace image.

    t**(mu-1) E[alpha, mu; nu](-x t**alpha) has image
    z**(alpha nu - mu) / (x + z**alpha)**nu; evaluating the inversion at
    t = 1 yields E(-x).  For mu = 0 the image tends to 1 at infinity (a unit
    point mass at t = 0); the constant is subtracted so the returned value is
    the pointwise one.  Requires mu >= 0; the image goes to
    ``inversion.talbot_sum`` (24 nodes) at t = 1, all the points in one call.
    """
    if mu < 0.0:
        raise NonConvergent("contour inversion restricted to mu >= 0")

    def image(z, t):  # t = 1: the nodes z are the points p
        za = z**alpha
        # z**(alpha nu - mu) / (x + z**alpha)**nu in log space: the public
        # evaluators accept any nu, and a large one would overflow a direct
        # power
        w = nu * np.log(za / (x + za)) - mu * np.log(z)
        if np.any(w.real > 5.0):
            # a genuine image of this family stays bounded on the contour;
            # growth means the (large-nu, large-x) corner where the Talbot
            # tails blow up and the inversion is meaningless
            raise NonConvergent("image grows on the Talbot contour (nu and x too large)")
        return np.exp(w) - (1.0 if mu == 0.0 else 0.0)

    return talbot_sum(image, 1.0)


def _eval_grid(alpha: float, mu: float, nu: float, x: np.ndarray) -> np.ndarray:
    """E[alpha, mu; nu](-x) on a 1-D array of x >= 0: the one Prabhakar dispatcher.

    Every point takes its route, with one strategy call per route (a number is
    a 1-element array, so it equals its grid element by construction), by
    ``u = x**(1/alpha)``: x = 0 is 1/Gamma(mu); alpha = 1 with mu > 0 takes
    Kummer while its terms alternate mildly, at any x where its expansion
    serves from x = 50 (:func:`_expansion_serves`) and up to x = 690 where not;
    its NaN points go on.  The series is tried once, for ``u <= _CROSSOVER_U`` (5) when mu >= 0 and
    ``u <= _SERIES_MAX_U`` (25) when mu < 0, and kept wherever its own
    cancellation estimate is at most
    ``_SERIES_MAX_CANCEL`` (1e4).  Every other point with ``u >= 50`` tries the
    expansion, and what is left takes the contour for mu >= 0; mu < 0 has no
    Laplace image, so there it takes the recurrence
    E[a, mu; nu] = a nu E[a, mu+1; nu+1] - (a nu - mu) E[a, mu+1; nu]
    (Kilbas, Saigo & Saxena 2004) up to mu >= 0.
    """
    out = np.full(x.shape, _rgamma(mu))
    todo = x > 0.0
    if alpha == 1.0 and mu > 0.0:
        # Kummer terms are nonnegative for mu >= nu; for mu < nu they alternate
        # with peak ~exp(2 sqrt((nu-mu) x)) / mu, so only mild alternation is
        # allowed, and none that overflows for a subnormal mu
        kummer = todo & ((mu >= nu) | ((nu - mu) * x <= min(36.0, 1e300 * mu)))
        if not _expansion_serves(mu, nu):  # beyond x = 690 Kummer's series overflows
            kummer &= x <= 690.0
        if kummer.any():
            out[kummer] = value = _kummer(mu, nu, x[kummer])
            todo[kummer] = np.isnan(value)
    if not todo.any():
        return out
    u = x ** (1.0 / alpha)
    series = todo & (u <= (_CROSSOVER_U if mu >= 0.0 else _SERIES_MAX_U))
    if mu >= 0.0 and nu > 20.0:
        # a caller's large nu makes the series predictably cancel: straight to the image
        series &= nu * x <= 10.0
    if series.any():
        out[series], cancel = _series(alpha, mu, nu, x[series])
        todo[series] = cancel > _SERIES_MAX_CANCEL
    asym = todo & (u >= _ASYM_SAFE_U)
    if asym.any():
        out[asym] = value = _asymptotic(alpha, mu, nu, x[asym])
        todo[asym] = np.isnan(value)
    if not todo.any():
        return out
    if mu >= 0.0:
        out[todo] = _contour(alpha, mu, nu, x[todo])
    else:
        up, same = (_eval_grid(alpha, mu + 1.0, n, x[todo]) for n in (nu + 1.0, nu))
        out[todo] = alpha * nu * up - (alpha * nu - mu) * same
    return out


def prabhakar(params: PrabhakarParams, x: float) -> float:
    """E[alpha, mu; nu](-x) for x >= 0 (the only case the relaxation models need).

    Each point takes its route by ``u = x**(1/alpha)``: the power series
    where it cancels by at most 1e4 at ``u <= 5`` (``u <= 25`` for mu < 0),
    the algebraic expansion from ``u >= 50``, and contour inversion (mu >= 0)
    or the recurrence in mu (mu < 0) for every other point; see
    :func:`_eval_grid`.
    """
    return prabhakar_eval(params.alpha, params.mu, params.nu, x)


def prabhakar_eval(alpha: float, mu: float, nu: float, x):
    """Low-level Prabhakar evaluation accepting any real ``mu`` and ``nu``.

    A negative ``nu`` is evaluated as well; second derivatives of the
    relaxation functions need ``mu < 0``.  Same contract and the same route
    as :func:`prabhakar` otherwise: the series where its cancellation is at
    most 1e4, else the expansion, the contour or the recurrence in mu.
    ``x`` is a number (a float result) or an array (an array of its shape); both
    go through :func:`_eval_grid`, a number as a 1-element array, so it gives
    exactly the element of a grid call.  A negative or NaN ``x`` raises
    :class:`DomainError`.
    """
    if not (alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    if not np.all(flat >= 0.0):
        raise DomainError(f"x must be nonnegative, got {flat.min()}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _eval_grid(alpha, mu, nu, flat)
    return float(values[0]) if xs.ndim == 0 else values.reshape(xs.shape)


def prabhakar_rational(order: RationalOrder, mu: float, nu: float, x: float) -> float:
    """E[l/k, mu; nu](-x) as a finite sum of k generalized hypergeometric terms.

    The j-th summand is
    ``(nu)_j (-x)**j / (j! Gamma(c)) * (1+k)F(l+k)(1, D(k, nu+j);
    D(k, 1+j), D(l, c); (-1)**k x**k / l**l)`` with ``c = mu + j l/k`` and
    ``D(n, a)`` the list ``a/n, ..., (a+n-1)/n``.  Its ``1/Gamma(c)`` is folded
    into the terms: by Gauss's multiplication formula ``Gamma(c) prod_i
    ((c+i)/l)_r = Gamma(c + l r) / l**(l r)``, so term r carries
    ``1/Gamma(c + l r)``, which stays finite where ``Gamma(c)`` has a pole
    (mu <= 0).  This is a cross-validation path, not on the route: like the
    power series its accuracy degrades as exp(x**(k/l)), so arguments beyond
    the convergence safeguard are rejected, and a negative or NaN ``x`` raises
    :class:`DomainError`.
    """
    if not (x >= 0.0):
        raise DomainError(f"x must be nonnegative, got {x}")
    l, k = order.l, order.k
    if x > 0.0 and x ** (k / l) > _SERIES_MAX_U:
        raise DomainError(
            f"x={x} lies outside the hypergeometric reduction's convergence safeguard "
            f"(x**(k/l) = {x ** (k / l):.3g} > {_SERIES_MAX_U})"
        )
    arg = (-1.0) ** k * x**k  # the l**l of the pFq argument cancels against Gauss's l**(l r)
    total = 0.0
    for j in range(k):
        coeff = pochhammer(nu, j) * (-x) ** j / math.factorial(j)
        if coeff == 0.0:
            continue
        c = mu + l * j / k
        nums, dens = _delta_list(k, nu + j), _delta_list(k, 1.0 + j)
        # term r: coeff * prod (nums)_r / prod (dens)_r * arg**r / Gamma(c + l r)
        weight, part, small = coeff, 0.0, 0
        for r in range(_MAX_TERMS):
            term = weight * _rgamma(c + l * r)
            part += term
            if abs(term) > 1e200:
                raise NonConvergent(f"rational-order terms grew past safeguard at r={r}")
            # terms at the poles of Gamma are 0 and do not count towards the stop
            if c + l * r > 0.0 and abs(term) < _REL_TOL * max(abs(part), _TINY):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            for a in nums:
                weight *= a + r
            for d in dens:
                weight /= d + r
            weight *= arg
            if weight == 0.0:
                break  # a numerator parameter (or x = 0) terminated the series
        else:
            raise NonConvergent(f"rational-order sum did not converge within {_MAX_TERMS} terms")
        total += part
    return total


def prabhakar_derivative(params: PrabhakarParams, scale: float, x: float) -> float:
    """d/dx of ``x**(mu-1) E[alpha, mu; nu](scale * x**alpha)`` via the index shift mu -> mu - 1.

    Differentiation lowers the second index:
    ``d/dx [x**(mu-1) E[alpha, mu; nu](s x**alpha)] = x**(mu-2) E[alpha, mu-1; nu](s x**alpha)``.
    Only nonpositive ``scale`` is supported (negative-argument evaluation);
    ``scale = 0`` reduces to the bare power rule.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if scale > 0.0:
        raise DomainError("only nonpositive scale is supported (negative-argument evaluation)")
    arg = -scale * x**params.alpha
    value = prabhakar_eval(params.alpha, params.mu - 1.0, params.nu, arg)
    return x ** (params.mu - 2.0) * value


_LEVY_MAX_LEVEL = 11  # the theta quadrature's level cap
# the large-x series: its longest table, and terms per block (its points come
# _BLOCK // _LEVY_CHUNK to a block, which bounds the points x terms array)
_LEVY_TERMS, _LEVY_CHUNK = 256, 32
# the series cancels by about e**(s a(0+)): past s a(0+) = 3 its largest partial
# sum exceeds 10x the result at every alpha, so no such point is tried
_LEVY_SERIES_MAX_SA = 3.0


@functools.lru_cache(maxsize=64)
def _levy_series_table(alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(c_k, |c_k / sin(pi k alpha)|, y from which no point is tried) of the series in x**-alpha.

    ``c_k = (-1)**(k+1) Gamma(alpha k + 1) sin(pi k alpha) / k!`` for k = 1, 2, ...
    while the sine-free bound stays a normal float, at most ``_LEVY_TERMS``
    terms; built with ``math`` alone, in log-gamma form, since k! passes the
    float range at k = 171.
    """
    coef, bound = [], []
    for k in range(1, _LEVY_TERMS + 1):
        log_b = math.lgamma(alpha * k + 1.0) - math.lgamma(k + 1.0)
        if log_b < -700.0:
            break
        bound.append(math.exp(log_b))
        coef.append((-1.0) ** (k + 1) * math.sin(math.pi * k * alpha) * bound[-1])
    a_left = alpha ** (alpha / (1.0 - alpha)) * (1.0 - alpha)
    coef, bound = np.array(coef), np.array(bound)
    coef.flags.writeable = bound.flags.writeable = False
    return coef, bound, (_LEVY_SERIES_MAX_SA / a_left) ** (1.0 - alpha)


def _levy_series(alpha: float, y: np.ndarray) -> np.ndarray:
    """R(y) = sum_k c_k y**(k-1) for a 1-D array y = x**-alpha; NaN where the series is not taken.

    ``Phi(x) = y R(y) / (pi x)``, and the series (Pollard 1946; Zolotarev 1986)
    converges for every x when alpha < 1.  Only points with ``s a(0+) < 3``
    are tried.  A point stops at its first term whose sine-free bound
    ``|c_k / sin(pi k alpha)| y**(k-1)`` is below 1e-17 of the running sum,
    and takes the series if that happens within the table, with a positive
    sum that no earlier partial sum exceeds by more than 10x.  Each point is
    summed in term order on its own, so its value does not depend on the
    array around it.
    """
    coef, bound, y_max = _levy_series_table(alpha)
    out = np.full(y.size, np.nan)
    tried = np.flatnonzero(y < y_max)
    step = _BLOCK // _LEVY_CHUNK
    for start in range(0, tried.size, step):
        block = tried[start : start + step]
        yb = y[block, None]
        total, peak = np.zeros(yb.size), np.zeros(yb.size)
        live = np.arange(yb.size)
        for k0 in range(0, coef.size, _LEVY_CHUNK):
            c, b = coef[k0 : k0 + _LEVY_CHUNK], bound[k0 : k0 + _LEVY_CHUNK]
            power = yb[live] ** np.arange(k0, k0 + c.size)
            term = c * power
            term[:, 0] += total[live]
            sums = np.cumsum(term, axis=1)
            small = b * power < 1e-17 * np.abs(sums)
            done = small.any(axis=1)
            stop, rows = np.where(done, small.argmax(axis=1), c.size - 1), np.arange(live.size)
            total[live] = sums[rows, stop]
            peak[live] = np.maximum(
                peak[live], np.maximum.accumulate(np.abs(sums), axis=1)[rows, stop]
            )
            live = live[~done]
            if not live.size:
                break
        ok = (total > 0.0) & (peak <= 10.0 * total)
        ok[live] = False
        out[block[ok]] = total[ok]
    return out


@functools.lru_cache(maxsize=64)
def _levy_angles(alpha: float, levels: range) -> tuple[np.ndarray, np.ndarray]:
    """(log a(theta), a(theta) - a(0+)) on the nodes new at ``levels`` on (0, pi).

    The levels of one integrand call of the theta quadrature
    (``quadrature._call_levels``), so (alpha, levels) keys one call.
    sin(theta) is taken as the sine of the node's distance from the nearer
    endpoint, which keeps its relative accuracy next to pi.  Where
    a > e**690 the factor exp(-scale * a) has long since underflowed: log a is
    -inf there and a is capped at e**690, so the integrand is 0.
    """
    theta, dist = (np.concatenate([_nodes(0.0, math.pi, k)[i] for k in levels]) for i in (0, 2))
    q = alpha / (1.0 - alpha)
    log_a = (
        q * np.log(np.sin(alpha * theta))
        + np.log(np.sin((1.0 - alpha) * theta))
        - (1.0 + q) * np.log(np.sin(dist))
    )
    # a rises from a(0+) = alpha**q (1 - alpha); the clip keeps rounding from
    # turning the shift negative, which the scale would blow up
    shift = np.maximum(np.exp(np.minimum(log_a, 690.0)) - alpha**q * (1.0 - alpha), 0.0)
    log_a[log_a > 690.0] = -np.inf
    log_a.flags.writeable = shift.flags.writeable = False
    return log_a, shift


def _levy_theta(alpha: float, x: np.ndarray) -> np.ndarray:
    """The Levy density at the points of the 1-D array ``x`` by the angular quadrature alone.

    The integrals of all points are rows of one tanh-sinh run over theta.
    The angle factors log a(th) and a(th) - a(0+) depend on alpha and the
    call's nodes only, so they are computed once per (alpha, integrand call) and cached
    (:func:`_levy_angles`); a point's work is ``exp(log a - s (a - a(0+)))``.
    The factor ``exp(-s a(0+))`` joins the prefactor in log space, so the
    integrand does not underflow with the density, which keeps its relative
    accuracy down to the subnormal spacing once it leaves the normal range.
    """
    out = np.zeros(x.size)
    q = alpha / (1.0 - alpha)
    with np.errstate(over="ignore"):  # an infinite scale makes a zero density
        scale = x ** -q
    a_left = alpha**q * (1.0 - alpha)  # a(0+), the integrand's smallest exponent scale
    # log of the prefactor times exp(-scale a(0+)), which the integrand leaves out
    log_prefactor = (
        math.log(alpha / (math.pi * (1.0 - alpha)))
        - np.log(x) / (1.0 - alpha)
        - scale * a_left
    )
    # once scale a(0+) >= 1 the integrand is at most a(0+): where pi a(0+) times
    # the prefactor rounds to 0, so does the density, and its spike at theta = 0
    # would be too narrow to integrate
    body = ~((scale * a_left >= 1.0) & (log_prefactor + math.log(math.pi * a_left) < -746.0))
    if body.any():
        row_scale = scale[body]

        def integrand(theta, rows):
            levels = _call_levels(0.0, math.pi, float(theta[0]), theta.size)
            log_a, shift = _levy_angles(alpha, levels)
            with np.errstate(over="ignore"):
                expo = log_a - row_scale[rows, None] * shift
            # exp(-inf) = 0 takes numpy's fast path; the lanes below -745 would not
            expo[~(expo > -745.0)] = -math.inf
            return np.exp(expo, out=expo)

        value, _ = _integrate_rows(integrand, 0.0, math.pi, row_scale.size, 1e-12, _LEVY_MAX_LEVEL)
        out[body] = np.exp(log_prefactor[body] + np.log(value))
    return out


def levy_stable_density(alpha: float, x):
    """One-sided Levy stable density with Laplace transform exp(-z**alpha).

    Evaluated through the angular (Zolotarev) form of the collapsed inversion
    contour,

        Phi(x) = (alpha / (pi (1-alpha))) x**(-1/(1-alpha))
                 * Int_0^pi a(th) exp(-x**(-alpha/(1-alpha)) a(th)) dth,
        a(th)  = sin(alpha th)**(alpha/(1-alpha)) sin((1-alpha) th)
                 / sin(th)**(1/(1-alpha)),

    whose integrand is positive, so the density keeps full relative accuracy
    even deep in the small-x tail where a direct contour sum would cancel
    catastrophically (and, for alpha > 1/2, overflow).  With
    ``s = x**(-alpha/(1-alpha))`` and ``a(0+) = alpha**(alpha/(1-alpha)) (1-alpha)``,
    ``exp(-s a(0+))`` sets the density's decay towards x = 0.

    ``x`` may be a number (a float is returned) or an array.  Every point with
    ``s a(0+) < 3`` first tries the convergent large-x series (Pollard 1946;
    Zolotarev 1986)

        Phi(x) = (1/pi) sum_k (-1)**(k+1) Gamma(alpha k + 1)/k!
                        sin(pi k alpha) x**(-alpha k - 1),

    a polynomial in ``y = x**-alpha`` with a cached per-alpha coefficient
    table (:func:`_levy_series`).  It takes the series where the sum settles
    within the table (at most 256 terms) and cancels by at most 10x, which
    holds up to about ``s a(0+) = 2`` for alpha <= 0.9 and covers every point
    with ``s a(0+) < 1e-8`` for alpha <= 0.95; ``x = inf`` gives 0.  Every other
    point takes the angular quadrature (:func:`_levy_theta`).  The tests check
    both routes against a 30-digit quadrature of the Zolotarev integral at
    1e-12 relative.
    The alpha = 1/2 closed form ``x**-1.5 exp(-1/(4x)) / (2 sqrt(pi))`` is
    exposed in the tests as an oracle, never used here.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not (flat > 0.0).all():
        raise DomainError(f"x must be positive, got {x}")
    with np.errstate(over="ignore"):  # an infinite y is not tried
        y = flat**-alpha
    out = _levy_series(alpha, y)
    series = ~np.isnan(out)
    out[series] = out[series] * y[series] / math.pi / flat[series]
    out[~series] = _levy_theta(alpha, flat[~series])
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
