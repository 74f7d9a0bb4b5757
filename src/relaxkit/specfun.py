"""Three-parameter Mittag-Leffler (Prabhakar) evaluation and related special functions.

Everything the relaxation models need in the time domain reduces to
``E[alpha, mu; nu](-x)`` for ``x >= 0``, evaluated here by four
cross-validating strategies:

* power series, with log-gamma/sign bookkeeping and a cancellation monitor;
* fixed-Talbot contour inversion of the Laplace image
  ``z**(alpha*nu - mu) / (x + z**alpha)**nu`` at t = 1 (midrange workhorse);
* large-argument algebraic expansion with optimal truncation;
* for rational ``alpha = l/k``, the finite sum of k generalized
  hypergeometric functions (cross-validation path).

``alpha == 1`` is routed through the Kummer-transformed confluent series
``exp(-x) 1F1(mu - nu; mu; x) / Gamma(mu)``, whose terms are nonnegative for
``mu >= nu``, so the Debye/Cole-Davidson reductions hold to full double
precision at any argument.

One dispatcher, ``_eval_grid``, routes a 1-D array of arguments, every
strategy and ``mu < 0`` included, with one call per route; a number is a
1-element array.  The strategies are array bodies built from numpy's own
``exp``, ``log`` and ``**``, whose value for an element does not depend on the
array around it, so a number gives exactly the element of a grid call.

The public dataclass ``PrabhakarParams`` enforces ``nu > 0`` (the regime the
relaxation models and the complete-monotonicity statements live in); the
module-level evaluators accept any real ``mu`` and ``nu``: second derivatives
need ``mu < 0``, and a negative ``nu`` is evaluated as well.

``scipy.special`` takes longer to import than numpy and relaxkit together, so
it is imported on first use, through the cached accessor ``_special()``, which
``models`` and ``kernels`` share: ``rgamma`` for every Prabhakar evaluation,
``hyp1f1`` for the alpha = 1 Kummer route and ``gammaincc`` for the
Cole-Davidson closed forms.  The Debye and KWW closed forms, spectra and
permittivities, every M kernel, the hn, jws and mcd k kernels and the Levy
density never load it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exceptions import DomainError, NonConvergent, StrategyDisagreement
from .inversion import talbot_sum
from .quadrature import _BLOCK, _call_levels, _integrate_rows, _nodes

__all__ = [
    "PrabhakarParams",
    "EvalStrategy",
    "RationalOrder",
    "DEFAULT_STRATEGY",
    "pochhammer",
    "hyper_pfq",
    "prabhakar",
    "prabhakar_eval",
    "prabhakar_rational",
    "prabhakar_derivative",
    "levy_stable_density",
]

AUTO = "auto"
POWER_SERIES = "power-series"
ASYMPTOTIC_SERIES = "asymptotic-series"
CONTOUR_INVERSION = "contour-inversion"
HYPERGEOMETRIC_REDUCTION = "hypergeometric-reduction"

_KINDS = (AUTO, POWER_SERIES, ASYMPTOTIC_SERIES, CONTOUR_INVERSION, HYPERGEOMETRIC_REDUCTION)

# switch points in u = x**(1/alpha), the t/tau-like variable: the series loses
# about exp(u)*eps to cancellation, the asymptotic expansion gains exp(-u)
_SERIES_MAX_U = 25.0
_ASYM_SAFE_U = 50.0
# AUTO's series/contour crossover in u, the series' relative stop tolerance and
# its term cap
_CROSSOVER_U = 5.0
_REL_TOL = 1e-13
_MAX_TERMS = 2000
_TINY = 1e-300
# terms per block of the array series and expansion: the blocks bound their
# memory, and a point drops out after the block in which it converges
_SERIES_ROWS, _ASYM_ROWS = 64, 16


@functools.cache
def _special():
    """``scipy.special``, imported on the first call that needs one of its functions."""
    from scipy import special

    return special


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
class EvalStrategy:
    """Evaluation policy for the series/contour/asymptotic machinery: which route ``kind`` takes."""

    kind: str = AUTO

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown strategy kind {self.kind!r}")


DEFAULT_STRATEGY = EvalStrategy()


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
        mag, rg = poch + r * log_x[live] - log_fact, _special().rgamma(alpha * r + mu)
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


def _kummer(mu: float, nu: float, x):
    """alpha = 1 case via Kummer's transformation, for a number or an array x.

    E[1, mu; nu](-x) = exp(-x) * 1F1(mu - nu; mu; x) / Gamma(mu). For
    mu >= nu every term of the transformed series is nonnegative, so the
    result is correct to relative rounding error at any x (this is what makes
    the Debye and Cole-Davidson reductions exact to 1e-12 and better).
    """
    sc = _special()
    value = np.exp(-x) * sc.hyp1f1(mu - nu, mu, x) * sc.rgamma(mu)
    return value if isinstance(x, np.ndarray) else float(value)


def _asymptotic(alpha: float, mu: float, nu: float, x: np.ndarray, jmax: int = 160):
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
    for j, poch, sign, log_fact in _term_blocks(nu, jmax, _ASYM_ROWS):
        s = mu - alpha * (nu + j)
        rg = _special().rgamma(s)
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


def _check_handoff(series, contour, x, alpha, mu, nu) -> None:
    """Raise StrategyDisagreement where series and contour differ by more than
    1e-8 relative: the contour's own floor is ~1e-9 near coefficient poles."""
    scale = np.maximum(np.maximum(np.abs(series), np.abs(contour)), _TINY)
    for i in np.flatnonzero(np.abs(series - contour) > 1e-8 * scale)[:1]:
        raise StrategyDisagreement(
            f"series={series[i]:.12g} vs contour={contour[i]:.12g} at x={x[i]} "
            f"(alpha={alpha}, mu={mu}, nu={nu})"
        )


def _eval_grid(alpha: float, mu: float, nu: float, x: np.ndarray, strategy: EvalStrategy) -> np.ndarray:
    """E[alpha, mu; nu](-x) on a 1-D array of x >= 0: the one Prabhakar dispatcher.

    Every point takes its route, with one strategy call per route (a number is
    a 1-element array, so it equals its grid element by construction).  AUTO
    routes by ``u = x**(1/alpha)``: x = 0 is 1/Gamma(mu); alpha = 1 with mu > 0
    takes Kummer while its terms alternate mildly; the series for
    ``u <= _CROSSOVER_U`` (5), cross-checked against the contour in the
    handoff band ``u >= 0.9 _CROSSOVER_U``; the expansion from
    ``u >= 50``.  The rest takes the contour for mu >= 0.  mu < 0 has no
    Laplace image: there the series serves while u <= 25 and its cancellation
    is <= 1e4, and the remaining points take the recurrence
    E[a, mu; nu] = a nu E[a, mu+1; nu+1] - (a nu - mu) E[a, mu+1; nu]
    (Kilbas, Saigo & Saxena 2004) up to mu >= 0.
    """
    kind = strategy.kind
    if kind == HYPERGEOMETRIC_REDUCTION:
        order = RationalOrder.from_float(alpha)
        return np.array([prabhakar_rational(order, mu, nu, v) for v in x.tolist()])
    if kind == ASYMPTOTIC_SERIES:
        if not np.all(x > 0.0):
            raise NonConvergent("asymptotic expansion needs x > 0")
        out = _asymptotic(alpha, mu, nu, x)
        for i in np.flatnonzero(np.isnan(out))[:1]:
            raise NonConvergent(f"asymptotic expansion misses its tolerance at x={x[i]} (alpha={alpha})")
        return out
    out = np.full(x.shape, float(_special().rgamma(mu)))
    todo = x > 0.0
    if alpha == 1.0 and mu > 0.0 and kind != CONTOUR_INVERSION:
        kummer = todo & (x <= 690.0)
        if kind == AUTO:
            # Kummer terms are nonnegative for mu >= nu; for mu < nu they
            # alternate with peak ~exp(2 sqrt((nu-mu) x)), so only mild
            # alternation is allowed before the contour takes over
            kummer &= (mu >= nu) | ((nu - mu) * x <= 36.0)
        if kummer.any():
            out[kummer] = _kummer(mu, nu, x[kummer])
            todo &= ~kummer
    if not todo.any():
        return out
    if kind == CONTOUR_INVERSION:
        out[todo] = _contour(alpha, mu, nu, x[todo])
        return out
    if kind == POWER_SERIES:
        out[todo], cancel = _series(alpha, mu, nu, x[todo])
        if np.any(cancel > 1e13):
            raise NonConvergent(f"series cancellation {cancel.max():.2g} leaves no significant digits")
        return out
    u = x ** (1.0 / alpha)
    series = todo & (u <= _CROSSOVER_U)
    if mu >= 0.0 and nu > 20.0:
        # a caller's large nu makes the series predictably cancel: straight to the image
        series &= nu * x <= 10.0
    band = np.zeros_like(todo)
    if series.any():
        out[series], cancel = _series(alpha, mu, nu, x[series])
        if mu >= 0.0:
            # large |nu| can wreck the series even at small argument; the image
            # has no such cancellation.  In the handoff band the two are compared.
            todo[series] = cancel > 1e8
            band[series] = (u[series] >= 0.9 * _CROSSOVER_U) & (cancel < 1e8)
        else:
            todo[series] = False
    asym = todo & (u > _CROSSOVER_U) & (u >= _ASYM_SAFE_U)
    if asym.any():
        out[asym] = value = _asymptotic(alpha, mu, nu, x[asym])
        todo[asym] = np.isnan(value)
    if mu >= 0.0:
        contour = todo | band
        if contour.any():
            value = _contour(alpha, mu, nu, x[contour])
            if band.any():
                _check_handoff(out[band], value[band[contour]], x[band], alpha, mu, nu)
            out[todo] = value[todo[contour]]
        return out
    mid = todo & (u <= _SERIES_MAX_U)
    if mid.any():
        out[mid], cancel = _series(alpha, mu, nu, x[mid])
        todo[mid] = cancel > 1e4
    if todo.any():
        up, same = (_eval_grid(alpha, mu + 1.0, n, x[todo], strategy) for n in (nu + 1.0, nu))
        out[todo] = alpha * nu * up - (alpha * nu - mu) * same
    return out


def prabhakar(
    params: PrabhakarParams,
    x: float,
    strategy: EvalStrategy = DEFAULT_STRATEGY,
) -> float:
    """E[alpha, mu; nu](-x) for x >= 0 (the only case the relaxation models need).

    ``strategy.kind`` selects the evaluation path; the default AutoSwitch
    dispatches on ``u = x**(1/alpha)``: power series for ``u <= 5``, contour
    inversion in the midrange, the algebraic expansion beyond ``u >= 50``.
    Near the series/contour handoff the two are cross-checked and a
    :class:`StrategyDisagreement` is raised when they differ by more than
    1e-8 relative.
    """
    return prabhakar_eval(params.alpha, params.mu, params.nu, x, strategy)


def prabhakar_eval(
    alpha: float,
    mu: float,
    nu: float,
    x,
    strategy: EvalStrategy = DEFAULT_STRATEGY,
):
    """Low-level Prabhakar evaluation accepting any real ``mu`` and ``nu``.

    A negative ``nu`` is evaluated as well; second derivatives of the
    relaxation functions need ``mu < 0``.  Same contract as
    :func:`prabhakar` otherwise.  ``x`` is a number (a float result) or an
    array (an array of its shape); both go through :func:`_eval_grid`, a
    number as a 1-element array, so it gives exactly the element of a grid call.
    """
    if not (alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    if np.any(flat < 0.0):
        raise DomainError(f"x must be nonnegative, got {flat.min()}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _eval_grid(alpha, mu, nu, flat, strategy)
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
    (mu <= 0).  This is a cross-validation path, not the default: like the
    power series its accuracy degrades as exp(x**(k/l)), so arguments beyond
    the convergence safeguard are rejected.
    """
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    l, k = order.l, order.k
    if x > 0.0 and x ** (k / l) > _SERIES_MAX_U:
        raise DomainError(
            f"x={x} lies outside the hypergeometric reduction's convergence safeguard "
            f"(x**(k/l) = {x ** (k / l):.3g} > {_SERIES_MAX_U})"
        )
    arg = (-1.0) ** k * x**k  # the l**l of the pFq argument cancels against Gauss's l**(l r)
    total = 0.0
    rgamma = _special().rgamma
    for j in range(k):
        coeff = pochhammer(nu, j) * (-x) ** j / math.factorial(j)
        if coeff == 0.0:
            continue
        c = mu + l * j / k
        nums, dens = _delta_list(k, nu + j), _delta_list(k, 1.0 + j)
        # term r: coeff * prod (nums)_r / prod (dens)_r * arg**r / Gamma(c + l r)
        weight, part, small = coeff, 0.0, 0
        for r in range(_MAX_TERMS):
            term = weight * float(rgamma(c + l * r))
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


def prabhakar_derivative(
    params: PrabhakarParams,
    scale: float,
    x: float,
    strategy: EvalStrategy = DEFAULT_STRATEGY,
) -> float:
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
    value = prabhakar_eval(params.alpha, params.mu - 1.0, params.nu, arg, strategy)
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

        value, _ = _integrate_rows(
            integrand, 0.0, math.pi, row_scale.size, 1e-12, 0.0, _LEVY_MAX_LEVEL
        )
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
