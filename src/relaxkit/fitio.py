"""Dataset ingestion, synthetic data generation and nonlinear least-squares fitting.

Fits run a damped Gauss-Newton (Levenberg-Marquardt) loop in a transformed
parameter space that enforces the feasible box by construction:

* ``alpha = sigmoid(u1)`` in (0, 1);
* ``beta = sigmoid(u2) / alpha`` (so ``alpha*beta`` stays in (0, 1), the
  library regime) or ``beta = sigmoid(u2)`` under strict_experimental;
* ``tau = exp(u3)``;
* frequency fits add ``eps_inf`` (free) and ``delta_eps = exp(u5)``.

Residuals are evaluated per grid: one array call of ``models._spectral``
(frequency, the phi_hat of ``permittivity``) or ``models.relaxation`` (time)
per parameter vector, except that a cc, hn or jws decay takes the points the
exp-sinh rule serves as the row sums of ``E g w``, E = exp(-outer(t/tau, xi))
on the rule's nodes, the values ``relaxation`` gives there.  Both sigmoids
are floored at 1e-12, so a saturated transform still maps to a valid model,
and a tau or strength whose exp overflows raises ``DomainError``.

The Jacobian is exact, one array pass per iteration, one column per free
parameter: ``models._partials`` (d phi_hat / d(alpha, beta, log tau)) at
``p = i omega tau`` for spectra, with the last residual's phi_hat as the
strength column (the loop forms its Jacobian at the last trial it evaluated).
For the rule's points of a decay it is ``E @ [dg/dalpha w, dg/dbeta w,
xi g w]`` (the log tau column times t/tau), with the last residual's E and
dg/dtheta from ``models._partials`` on the cut.  Every other decay point
takes ``-partials / p``, the derivatives of the relaxation image
``(1 - phi_hat) / p`` on factored nodes p = z / x, inverted in one stacked
``inversion.talbot_sum`` call (kww, and Debye as kww at alpha = 1, by the
closed form).  The chain rule of the transforms follows: the alpha column
carries the ``beta = sigmoid(u2) / alpha`` coupling, and a sigmoid at its
floor has slope 0.

Each damped step is one Cholesky factorisation of the Marquardt-scaled normal
matrix plus the ridge, in plain floats (at most 5 x 5).  Accepted steps never
increase the residual norm, and a trial step whose residuals raise a
``RelaxkitError``, or whose damped matrix has a pivot that is not positive,
counts as rejected.  The loop converges on gradient max-norm < 1e-12, on step
norm < 1e-12 relative, or at the rounding floor: when the undamped
Gauss-Newton decrease ``g . A**-1 g`` (``g = J.T r``, ``A = J.T J``) is at
most 1e-13 of the cost, so that no step can lower the cost by more than
rounding.  That test does not depend on the damping, so a fit whose every
trial step raises still ends unconverged.  After 200 iterations, or when no
damping lowers the cost, it returns with ``converged=False``.  The gradient
bound sits below the rounding floor of ``aicc_score``, so a noise-free fit of
the generating kind reaches the floor and ties with the wider kinds that
contain it (at 1e-10 a cd(0.4) spectrum fit stopped at 7.2e-11, above the
4.5e-11 floor, and hn won).  Everything is deterministic (fixed evaluation
order, seeded noise).
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import DegenerateJacobian, DomainError, EmptyDataset, ParseError, RelaxkitError
from .inversion import talbot_sum
from .models import (
    _EXP_SINH,
    _KINDS,
    _RULE_LAWS,
    _SPECTRAL_KINDS,
    KINDS,
    ModelSpec,
    PermittivityScale,
    _density,
    _exp_rows,
    _partials,
    _rule,
    _spectral,
    permittivity,
    relaxation,
)

__all__ = [
    "SpectrumDataset",
    "TimeDataset",
    "FitResult",
    "parse_csv",
    "synthesize",
    "fit",
    "compare",
    "FREQUENCY_KINDS",
    "TIME_KINDS",
]

FREQUENCY_KINDS = _SPECTRAL_KINDS
TIME_KINDS = KINDS

_MAX_ITER = 200
_GRAD_TOL = 1e-12
_STEP_TOL = 1e-12
# the rounding floor: a Gauss-Newton decrease at most this fraction of the cost
_FLOOR_TOL = 1e-13
# ridge of the floor test's solve, relative to the damping diagonal: it only
# keeps flat directions from making the normal matrix singular
_FLOOR_RIDGE = 1e-12
# floor of the damping diagonal, for a column that is zero (a saturated sigmoid)
_DAMPING_FLOOR = 1e-12


# Dataset checks are row-wise: each fails on every prefix of the rows that holds
# the first offending row. parse_csv bisects on this to report that row's line,
# so a check over the whole dataset (a minimum row count, say) would misreport it.
def _require_finite(**columns) -> None:
    """Raise DomainError if a dataset column (None: absent) holds a NaN or an infinity."""
    for name, column in columns.items():
        if column is not None and not np.isfinite(column).all():
            raise DomainError(f"{name} values must be finite")


@dataclass(frozen=True)
class SpectrumDataset:
    """Measured or synthetic (omega, eps', eps'') samples."""

    omega: np.ndarray
    eps_re: np.ndarray
    eps_im: np.ndarray
    weights: Optional[np.ndarray] = None
    meta: str = ""

    def __post_init__(self):
        for name in ("omega", "eps_re", "eps_im"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.weights is not None:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        n = self.omega.size
        if self.eps_re.size != n or self.eps_im.size != n:
            raise DomainError("omega, eps_re and eps_im must have equal length")
        if self.weights is not None and self.weights.size != n:
            raise DomainError("weights must match the number of points")
        _require_finite(omega=self.omega, eps_re=self.eps_re, eps_im=self.eps_im, weights=self.weights)
        if np.any(self.omega <= 0.0) or np.any(np.diff(self.omega) <= 0.0):
            raise DomainError("omega values must be positive and strictly increasing")
        if self.weights is not None and np.any(self.weights <= 0.0):
            raise DomainError("weights must be positive")
        if np.any(self.eps_im < 0.0):
            warnings.warn("negative eps'' values in dataset (lossless points are unusual)")

    def __len__(self) -> int:
        return int(self.omega.size)


@dataclass(frozen=True)
class TimeDataset:
    """Sampled relaxation function (t, n)."""

    t: np.ndarray
    n: np.ndarray
    weights: Optional[np.ndarray] = None
    meta: str = ""

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "n", np.asarray(self.n, dtype=float))
        if self.weights is not None:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.n.size != self.t.size:
            raise DomainError("t and n must have equal length")
        if self.weights is not None and self.weights.size != self.t.size:
            raise DomainError("weights must match the number of points")
        _require_finite(t=self.t, n=self.n, weights=self.weights)
        if np.any(self.t < 0.0) or np.any(np.diff(self.t) <= 0.0):
            raise DomainError("t values must be nonnegative and strictly increasing")
        if self.weights is not None and np.any(self.weights <= 0.0):
            raise DomainError("weights must be positive")
        if self.t.size and abs(self.n[0] - 1.0) > 0.2:
            warnings.warn(f"first relaxation sample n = {self.n[0]:.3g} is far from 1")

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass(frozen=True)
class FitResult:
    """Recovered model, residual norm and convergence diagnostics."""

    spec: ModelSpec
    scale: Optional[PermittivityScale]
    residual_norm: float
    iterations: int
    converged: bool
    param_stderr: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_HEADERS = {
    "frequency": (("omega", "eps_re", "eps_im"), ("omega", "eps_re", "eps_im", "weight")),
    "time": (("t", "n"), ("t", "n", "weight")),
}


def parse_csv(source, domain: str):
    """Read a frequency or time dataset from a path, file object or string.

    Frequency files carry the exact header ``omega,eps_re,eps_im[,weight]``,
    time files ``t,n[,weight]``; lines starting with ``#`` are comments.
    Malformed rows raise :class:`ParseError` with the 1-based line number.
    """
    if domain not in _HEADERS:
        raise DomainError(f"domain must be 'frequency' or 'time', got {domain!r}")
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()

    header = None
    rows: list[tuple[int, list[float]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [cell.strip() for cell in line.split(",")]
        if header is None:
            header = tuple(fields)
            if header not in _HEADERS[domain]:
                raise ParseError(lineno, f"unexpected header {','.join(fields)!r} for {domain} data")
            continue
        if len(fields) != len(header):
            raise ParseError(lineno, f"expected {len(header)} fields, found {len(fields)}")
        try:
            rows.append((lineno, [float(cell) for cell in fields]))
        except ValueError as exc:
            raise ParseError(lineno, f"non-numeric value ({exc})") from None

    if header is None or not rows:
        raise EmptyDataset("no data rows found")

    data = np.array([vals for _, vals in rows], dtype=float)
    has_weight = len(header) == len(_HEADERS[domain][1])

    def dataset(d: np.ndarray):
        weights = d[:, -1] if has_weight else None
        if domain == "frequency":
            return SpectrumDataset(d[:, 0], d[:, 1], d[:, 2], weights=weights)
        return TimeDataset(d[:, 0], d[:, 1], weights=weights)

    try:
        return dataset(data)
    except DomainError as exc:
        error = exc
    # the dataset checks are row-wise (see _require_finite): bisect for the first bad row
    good, bad = 0, len(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                dataset(data[:mid])
            except DomainError as exc:
                bad, error = mid, exc
            else:
                good = mid
    raise ParseError(rows[bad - 1][0], str(error))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def synthesize(
    spec: ModelSpec,
    scale: Optional[PermittivityScale],
    grid: Sequence[float],
    noise_rel: float = 0.0,
    seed: int = 0,
    domain: str = "frequency",
):
    """Exact model values on ``grid`` with multiplicative Gaussian noise.

    ``noise_rel`` is the relative noise amplitude; the perturbation is
    ``value * (1 + noise_rel * g)`` with standard-normal g from a generator
    seeded by ``seed``, so identical inputs give bit-identical datasets.
    """
    if noise_rel < 0.0:
        raise DomainError("noise_rel must be nonnegative")
    grid = np.asarray(grid, dtype=float)
    rng = np.random.default_rng(seed)
    if domain == "frequency":
        if scale is None:
            raise DomainError("frequency synthesis needs a PermittivityScale")
        re, im = permittivity(spec, scale, grid)
        if noise_rel > 0.0:
            re *= 1.0 + noise_rel * rng.standard_normal(re.size)
            im *= 1.0 + noise_rel * rng.standard_normal(im.size)
        return SpectrumDataset(grid, re, im, meta=f"synthetic {spec.kind} seed={seed}")
    if domain == "time":
        n = relaxation(spec, grid)
        if noise_rel > 0.0:
            n = n * (1.0 + noise_rel * rng.standard_normal(n.size))
        return TimeDataset(grid, n, meta=f"synthetic {spec.kind} seed={seed}")
    raise DomainError(f"domain must be 'frequency' or 'time', got {domain!r}")


# ---------------------------------------------------------------------------
# Parameter transforms
# ---------------------------------------------------------------------------


_SIGMOID_FLOOR = 1e-12


def _sigmoid(u: float) -> float:
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    p = min(max(p, _SIGMOID_FLOOR), 1.0 - _SIGMOID_FLOOR)
    return math.log(p / (1.0 - p))


def _exp_packed(u: float, name: str) -> float:
    """exp(u) of a log-packed parameter; DomainError, so a rejected trial, where it overflows."""
    try:
        return math.exp(u)
    except OverflowError:
        raise DomainError(f"{name} = exp({u:.6g}) overflows") from None


def _floored_slope(u: float) -> float:
    """d/du max(sigmoid(u), floor): 0 where the floor holds."""
    s = _sigmoid(u)
    return s * (1.0 - s) if s > _SIGMOID_FLOOR else 0.0


class _Problem:
    """Residual assembly plus the transform between packed and physical parameters."""

    def __init__(self, dataset, kind: str, strict: bool, init: Optional[ModelSpec], init_scale):
        self.kind = kind
        self.strict = strict
        self.frequency = isinstance(dataset, SpectrumDataset)
        self.dataset = dataset
        if self.frequency and kind == "kww":
            raise DomainError("kww fits time-domain data only")
        self.free_alpha = "alpha" in _KINDS[kind].free
        self.free_beta = "beta" in _KINDS[kind].free
        w = dataset.weights if dataset.weights is not None else np.ones(len(dataset))
        self.w = w / np.max(w)
        if self.frequency:
            self.w_rows = np.repeat(self.w, 2)[:, None]  # eps' and eps'' rows alternate
        self.names = self._names()
        self.u0 = self._initial_vector(init, init_scale)
        # what the Jacobian at the last residual's spec reuses: (spec, phi_hat) of a
        # spectrum, (spec, E, g w) of a decay residual the rule served
        self._last = None

    def _names(self) -> list[str]:
        names = []
        if self.free_alpha:
            names.append("alpha")
        if self.free_beta:
            names.append("beta")
        names.append("tau")
        if self.frequency:
            names += ["eps_inf", "eps_static"]
        return names

    # -- heuristics ---------------------------------------------------------

    def _initial_vector(self, init: Optional[ModelSpec], init_scale) -> np.ndarray:
        if init is not None:
            alpha0, beta0, tau0 = init.alpha, init.beta, init.tau
        elif self.frequency:
            alpha0, beta0, tau0 = self._frequency_heuristics()
        else:
            alpha0, beta0, tau0 = self._time_heuristics()
        u = []
        if self.free_alpha:
            u.append(_logit(min(alpha0, 0.999)))
        else:
            alpha0 = 1.0
        if self.free_beta:
            if self.strict:
                u.append(_logit(min(beta0, 0.999)))
            else:
                u.append(_logit(min(alpha0 * beta0, 0.999)))
        u.append(math.log(tau0))
        if self.frequency:
            if init_scale is not None:
                eps_inf0, d0 = init_scale.eps_inf, init_scale.strength
            else:
                eps_inf0 = float(np.min(self.dataset.eps_re))
                d0 = max(float(np.max(self.dataset.eps_re)) - eps_inf0, 1e-6)
            u += [eps_inf0, math.log(d0)]
        return np.array(u, dtype=float)

    def _frequency_heuristics(self) -> tuple[float, float, float]:
        ds = self.dataset
        peak = int(np.argmax(ds.eps_im))
        tau0 = 1.0 / ds.omega[peak] if ds.omega[peak] > 0 else 1.0
        # wing slopes of eps'' in log-log coordinates (Jonscher-type powers)
        logw = np.log(ds.omega)
        logi = np.log(np.maximum(ds.eps_im, 1e-300))
        m = max(3, len(ds) // 4)
        lo = np.polyfit(logw[:m], logi[:m], 1)[0]
        hi = np.polyfit(logw[-m:], logi[-m:], 1)[0]
        slope = -hi if _KINDS[self.kind].family == "jws" else lo
        alpha0 = min(max(abs(slope), 0.1), 0.95)
        return alpha0, 0.8, tau0

    def _time_heuristics(self) -> tuple[float, float, float]:
        ds = self.dataset
        below = np.nonzero(ds.n < math.exp(-1.0))[0]
        tau0 = float(ds.t[below[0]]) if below.size else float(ds.t[-1])
        return 0.7, 0.8, max(tau0, 1e-12)

    # -- transforms ---------------------------------------------------------

    def unpack(self, u: np.ndarray) -> tuple[ModelSpec, Optional[PermittivityScale]]:
        # a saturated sigmoid rounds to 0.0, which ModelSpec rejects and
        # beta = s / alpha divides by; floor both at the bound _logit uses
        i = 0
        alpha = 1.0
        beta = 1.0
        if self.free_alpha:
            alpha = max(_sigmoid(u[i]), _SIGMOID_FLOOR)
            i += 1
        if self.free_beta:
            beta = max(_sigmoid(u[i]), _SIGMOID_FLOOR)
            if not self.strict:
                beta /= alpha
            i += 1
        tau = _exp_packed(u[i], "tau")
        i += 1
        spec = ModelSpec(
            self.kind, alpha=alpha, beta=beta, tau=tau, strict_experimental=self.strict
        )
        scale = None
        if self.frequency:
            eps_inf = u[i]
            strength = _exp_packed(u[i + 1], "the relaxation strength")
            scale = PermittivityScale(eps_inf + strength, eps_inf)
        return spec, scale

    def stderr_scale(self, u: np.ndarray) -> np.ndarray:
        """|d(physical)/d(packed)| for the Gauss-Newton covariance proxy."""
        grads = []
        i = 0
        alpha = 1.0
        if self.free_alpha:
            s = _sigmoid(u[i])
            alpha = max(s, _SIGMOID_FLOOR)
            grads.append(s * (1.0 - s))
            i += 1
        if self.free_beta:
            s = _sigmoid(u[i])
            grads.append(s * (1.0 - s) if self.strict else s * (1.0 - s) / alpha)
            i += 1
        grads.append(math.exp(u[i]))
        i += 1
        if self.frequency:
            grads.append(1.0)
            grads.append(math.exp(u[i + 1]))
        return np.array(grads)

    def residuals(self, u: np.ndarray) -> np.ndarray:
        spec, scale = self.unpack(u)
        if self.frequency:
            # permittivity's eps_inf + strength phi_hat (omega > 0 in every dataset),
            # keeping phi_hat for the Jacobian at spec
            phi = _spectral(spec, self.dataset.omega * spec.tau)
            self._last = (spec, phi)
            eps = scale.eps_inf + scale.strength * phi
            out = np.empty(2 * len(self.dataset))
            out[0::2] = self.w * (eps.real - self.dataset.eps_re)
            out[1::2] = self.w * (-eps.imag - self.dataset.eps_im)
            return out
        return self.w * (self._relaxation(spec) - self.dataset.n)

    def _relaxation(self, spec: ModelSpec) -> np.ndarray:
        """n at the dataset's times.  Where the exp-sinh rule serves spec (``models._rule``)
        it is the row sums of ``E g w``, E = exp(-outer(t/tau, xi)) the one matrix a
        parameter vector builds, exactly as ``relaxation`` sums them; E and g w are kept
        for the Jacobian at spec.  The other rows are ``relaxation``'s."""
        t = self.dataset.t
        if self.kind not in _RULE_LAWS:  # no other kind reduces to a law the rule serves
            return relaxation(spec, t)
        x = t / spec.tau
        level, inside = _rule(spec, x)
        count = np.count_nonzero(inside)
        if not count:
            return relaxation(spec, t)
        xi, w = _EXP_SINH[level]
        self._last = None  # one matrix at a time: the old one goes before the new one is built
        E = _exp_rows(x[inside], xi, np.empty((count, xi.size)))
        gw = _density(spec, xi) * w
        self._last = (spec, E, gw)
        n = np.empty_like(t)
        n[inside] = (E * gw).sum(axis=1)
        if count < t.size:
            n[~inside] = relaxation(spec, t[~inside])
        return n

    def model_partials(self, spec: ModelSpec, scale) -> np.ndarray:
        """d residuals / d(alpha, beta, log tau[, eps_inf, log delta_eps]), one column per
        free parameter, in the order of ``names``."""
        free = (self.free_alpha, self.free_beta)
        if self.frequency:
            w = self.dataset.omega * spec.tau
            shape = _partials(spec, 1j, 1.0 / w, free, scale.strength)  # p = i w
            if self._last is not None and self._last[0] == spec:
                phi = self._last[1]
            else:
                phi = _spectral(spec, w)
            d = np.column_stack([shape, np.ones(w.size), scale.strength * phi])
            rows = np.empty((2 * w.size, d.shape[1]))
            rows[0::2] = d.real  # eps' = Re eps*, eps'' = -Im eps*
            rows[1::2] = -d.imag
            return self.w_rows * rows
        x = self.dataset.t / spec.tau
        d = np.zeros((x.size, len(self.names)))  # n(0) = 1 for every parameter vector: zero rows
        if self.kind in ("kww", "debye"):  # n = exp(-x**alpha); kww at alpha = 1 is Debye
            positive = x > 0.0
            xa = x[positive] ** spec.alpha
            n = np.exp(-xa)
            if self.free_alpha:
                d[positive, 0] = -xa * np.log(x[positive]) * n
            d[positive, -1] = spec.alpha * xa * n
            return self.w[:, None] * d
        contour = x > 0.0
        if self.kind in _RULE_LAWS:
            level, inside = _rule(spec, x)
            if inside.any():
                d[inside] = self._rule_partials(spec, x[inside], level, free)
                contour &= ~inside
        if contour.any():
            # n_hat = (1 - phi_hat) / p, so d n / d theta inverts -(d phi_hat / d theta) / p
            d[contour] = talbot_sum(lambda z, x: _partials(spec, z, x, free, -x / z), x[contour])
        return self.w[:, None] * d

    def _rule_partials(self, spec: ModelSpec, x: np.ndarray, level: int, free) -> np.ndarray:
        """d n / d(alpha, beta, log tau) at the points x the rule serves: ``E @ [dg/dalpha w,
        dg/dbeta w, xi g w]``, the last column times x.  On the cut p = xi e**(i pi)
        ``g = -Im phi_hat(p) / (pi xi)``, so dg/dtheta comes from ``models._partials`` at the
        rule's nodes alone; E and g w are the last residual's when it was at spec."""
        xi, w = _EXP_SINH[level]
        if self._last is not None and self._last[0] == spec:
            E, gw = self._last[1:]
        else:
            E, gw = _exp_rows(x, xi, np.empty((x.size, xi.size))), _density(spec, xi) * w
        columns = _partials(spec, -1.0 + 0.0j, 1.0 / xi, free).imag * (-w / (math.pi * xi))[:, None]
        columns[:, -1] = xi * gw  # in place of the unused dg/dlog tau: tau enters through x alone
        d = E @ columns
        d[:, -1] *= x
        return d


def _jacobian(problem: _Problem, u: np.ndarray) -> np.ndarray:
    """d residuals / d u: the model's exact partials times the derivative of ``unpack``."""
    spec, scale = problem.unpack(u)
    J = problem.model_partials(spec, scale)
    beta_col = int(problem.free_alpha)  # the index of the beta column, when beta is free
    if problem.free_alpha:
        if problem.free_beta and not problem.strict:
            J[:, 0] -= spec.beta / spec.alpha * J[:, 1]  # beta = sigmoid(u2) / alpha
        J[:, 0] *= _floored_slope(u[0])
    if problem.free_beta:
        slope = _floored_slope(u[beta_col])
        J[:, beta_col] *= slope if problem.strict else slope / spec.alpha
    if not np.all(np.isfinite(J)):
        raise DegenerateJacobian("non-finite entries in the fit Jacobian")
    return J


def fit(
    dataset,
    kind_hypothesis: str = "auto",
    init: Optional[ModelSpec] = None,
    init_scale: Optional[PermittivityScale] = None,
    strict_experimental: bool = False,
) -> FitResult:
    """Least-squares fit of one model kind, or the best of all applicable kinds.

    With ``kind_hypothesis = "auto"`` every applicable kind is fitted and the
    winner is the lowest small-sample-corrected information score (ties go to
    the model with fewer free parameters, then lexical kind order).  Frequency
    datasets jointly optimize (alpha, beta, log tau, eps_inf, log delta_eps)
    with real and imaginary residuals stacked and equally weighted; time
    datasets optimize (alpha, beta, log tau).  ``converged=True`` means the
    fit stopped on the gradient, step-size or rounding-floor test (the
    undamped Gauss-Newton decrease at most 1e-13 of the cost: no step can
    lower it by more than rounding).  Non-convergence is not an exception:
    out of iterations, or with every damped trial step failing, the best
    parameters so far come back with ``converged=False``.
    """
    if len(dataset) < 5:
        raise DomainError("need at least 5 data points to fit")
    if kind_hypothesis == "auto":
        kinds = FREQUENCY_KINDS if isinstance(dataset, SpectrumDataset) else TIME_KINDS
        ranked = compare(dataset, kinds, strict_experimental=strict_experimental)
        return ranked[0][2]  # compare raises unless some candidate succeeded
    if kind_hypothesis not in KINDS:
        raise DomainError(f"unknown model kind {kind_hypothesis!r}")
    problem = _Problem(dataset, kind_hypothesis, strict_experimental, init, init_scale)
    return _levenberg_marquardt(problem)


def _levenberg_marquardt(problem: _Problem) -> FitResult:
    """Damped Gauss-Newton (Levenberg-Marquardt) from ``problem.u0``.

    Each iteration forms ``g = J.T r`` and ``A = J.T J`` once, and their
    Marquardt-scaled forms ``S = D**-1/2 A D**-1/2`` and ``c = D**-1/2 g``
    (``D`` the damping diagonal, ``max(diag A, 1e-12)``), so S has a unit
    diagonal and every ridge ``lam I`` sits above the rounding of ``J.T J``.
    It ends the fit converged when max |g| < ``_GRAD_TOL`` or when the
    Gauss-Newton decrease ``c . (S + _FLOOR_RIDGE I)**-1 c`` is at most
    ``_FLOOR_TOL`` of the cost: the rounding floor, where no step can lower
    the cost by more than rounding.  Otherwise it tries damped steps
    ``delta = -D**-1/2 (S + lam I)**-1 c``, each one Cholesky factorisation in
    plain floats, raising lambda tenfold per rejected trial, until one does
    not raise the cost.  A trial whose factorisation meets a pivot that is not
    positive is rejected, as is one the model cannot evaluate; such a pivot in
    the floor test means the fit is not at the floor.  An accepted step below
    ``_STEP_TOL`` of ``|u|`` also converges.  A fit out of iterations, or
    whose trials all fail up to lambda = 1e14, ends with ``converged=False``
    at its best point.  The last Jacobian is reused for the standard errors
    when ``u`` has not moved since it was formed.
    """
    u = problem.u0.copy()
    r = problem.residuals(u)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    J = None  # the Jacobian at u, while u has not moved since it was formed
    for iterations in range(1, _MAX_ITER + 1):
        J = _jacobian(problem, u)
        g = (J.T @ r).tolist()
        if max(map(abs, g)) < _GRAD_TOL:
            converged = True
            break
        S, s = _marquardt_scaled(J.T @ J)
        c = [gi * si for gi, si in zip(g, s)]
        L = _cholesky(S, _FLOOR_RIDGE)
        gauss_newton = math.inf if L is None else sum(map(operator.mul, c, _cholesky_solve(L, c)))
        if gauss_newton <= _FLOOR_TOL * cost:
            converged = True
            break
        step_taken = False
        for _ in range(60):
            delta = _damped_step(S, s, c, lam)
            if delta is None:
                cost_trial = math.inf  # a damped matrix that is not positive definite is rejected
            else:
                trial = u + delta
                try:
                    r_trial = problem.residuals(trial)
                    cost_trial = float(r_trial @ r_trial)
                except RelaxkitError:
                    cost_trial = math.inf  # a trial the model cannot evaluate is rejected
            if math.isfinite(cost_trial) and cost_trial <= cost:
                u, r, cost = trial, r_trial, cost_trial
                lam = max(lam / 3.0, 1e-14)
                step_taken = True
                J = None
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not step_taken:
            break
        if math.hypot(*delta) < _STEP_TOL * (math.hypot(*u.tolist()) + _STEP_TOL):
            converged = True
            break

    spec, scale = problem.unpack(u)
    stderr = _stderr(problem, u, r, J)
    return FitResult(
        spec=spec,
        scale=scale,
        residual_norm=math.sqrt(cost),
        iterations=iterations,
        converged=converged,
        param_stderr=stderr,
    )


def _marquardt_scaled(A: np.ndarray) -> tuple[list, list]:
    """``S = D**-1/2 A D**-1/2`` as nested lists and the diagonal of ``D**-1/2`` as a list,
    ``D = max(diag A, _DAMPING_FLOOR)``."""
    s = 1.0 / np.sqrt(np.maximum(A.diagonal(), _DAMPING_FLOOR))
    return (A * s * s[:, None]).tolist(), s.tolist()


def _damped_step(S: list, s: list, c: list, lam: float) -> Optional[list]:
    """``delta = -D**-1/2 (S + lam I)**-1 c``, which solves ``(A + lam D) delta = -g``, or None
    when a pivot of ``S + lam I`` is not positive."""
    L = _cholesky(S, lam)
    if L is None:
        return None
    return [-xi * si for xi, si in zip(_cholesky_solve(L, c), s)]


def _cholesky(S: list, lam: float) -> Optional[list]:
    """The lower Cholesky factor of ``S + lam I`` (``S`` symmetric, nested lists, a few rows),
    or None when a pivot is not positive."""
    L = []
    for i, S_i in enumerate(S):
        L_i = []
        for j in range(i):
            L_j = L[j]
            v = S_i[j]
            for k in range(j):
                v -= L_i[k] * L_j[k]
            L_i.append(v / L_j[j])
        v = S_i[i] + lam
        for k in range(i):
            v -= L_i[k] * L_i[k]
        if not v > 0.0:  # NaN too
            return None
        L_i.append(math.sqrt(v))
        L.append(L_i)
    return L


def _cholesky_solve(L: list, c: list) -> list:
    """x with ``L L.T x = c``, by forward and back substitution."""
    n = len(c)
    x = []
    for i, L_i in enumerate(L):
        v = c[i]
        for k in range(i):
            v -= L_i[k] * x[k]
        x.append(v / L_i[i])
    for i in range(n - 1, -1, -1):
        v = x[i]
        for k in range(i + 1, n):
            v -= L[k][i] * x[k]
        x[i] = v / L[i][i]
    return x


def _stderr(problem: _Problem, u: np.ndarray, r: np.ndarray, J: Optional[np.ndarray]) -> dict:
    """Gauss-Newton covariance proxy mapped to the physical parameters.

    ``J`` is the Jacobian at ``u`` when the caller has it; if None it is formed here.
    ``diag(A**-1)`` (``A = J.T J``) comes from the Cholesky factor of the scaled
    ``S = D**-1/2 A D**-1/2``, as ``(S**-1)_ii / D_ii``; where a pivot is not
    positive, or the Jacobian cannot be formed, every error is NaN.
    """
    m, p = r.size, u.size
    try:
        if J is None:
            J = _jacobian(problem, u)
    except RelaxkitError:
        return dict.fromkeys(problem.names, math.nan)
    S, s = _marquardt_scaled(J.T @ J)
    L = _cholesky(S, 0.0)
    if L is None:
        return dict.fromkeys(problem.names, math.nan)
    sigma2 = float(r @ r) / max(m - p, 1)
    # (A**-1)_ii = (S**-1)_ii s_i**2, the i-th entry of the solve against e_i
    unit = np.eye(p).tolist()
    inverse_diag = [_cholesky_solve(L, unit[i])[i] * s[i] ** 2 for i in range(p)]
    du = np.sqrt(np.maximum(sigma2 * np.array(inverse_diag), 0.0)) * problem.stderr_scale(u)
    out = {}
    for name, val in zip(problem.names, du):
        if name == "eps_static":
            # eps_static = eps_inf + strength: combine both packed errors
            out[name] = float(math.hypot(val, du[problem.names.index("eps_inf")]))
        else:
            out[name] = float(val)
    return out


def _free_parameter_count(kind: str, frequency: bool) -> int:
    # tau, the free shape parameters, and eps_inf and delta_eps in the frequency domain
    return 1 + len(_KINDS[kind].free) + (2 if frequency else 0)


def aicc_score(residual_norm: float, n_points: int, n_params: int, data_scale: float) -> float:
    """Small-sample-corrected information score used for model ranking.

    The residual sum of squares is floored at the rounding level of the data
    so that exactly-nested models tie instead of racing to log(0); ties are
    then broken by parameter count.
    """
    k = n_params + 1  # noise scale counts as a parameter
    if n_points <= k + 1:
        return math.inf
    rss = max(residual_norm**2, n_points * (1e-12 * data_scale) ** 2)
    return n_points * math.log(rss / n_points) + 2.0 * k + 2.0 * k * (k + 1) / (n_points - k - 1)


def compare(
    dataset,
    candidates: Sequence[str],
    strict_experimental: bool = False,
) -> list[tuple[str, float, "FitResult | RelaxkitError"]]:
    """Fit every candidate kind and rank by information score.

    Returns (kind, score, result) tuples sorted best-first; deterministic
    ranking with ties broken by fewer free parameters, then kind name.  The
    result is a FitResult, or for a candidate whose fit raised, the
    ``RelaxkitError`` it raised (its message is the reason): such a candidate
    scores ``inf`` and ranks after every candidate that was fitted.  Only if
    every candidate fails is the first ranked one's error raised.
    """
    if not candidates:
        raise DomainError("need at least one candidate kind")
    unknown = [kind for kind in candidates if kind not in KINDS]
    if unknown:
        raise DomainError(f"unknown model kinds {unknown}")
    frequency = isinstance(dataset, SpectrumDataset)
    if frequency:
        data_scale = float(np.max(np.abs(np.concatenate([dataset.eps_re, dataset.eps_im]))))
        n_points = 2 * len(dataset)
    else:
        data_scale = float(np.max(np.abs(dataset.n)))
        n_points = len(dataset)
    results = []
    for kind in candidates:
        if frequency and kind == "kww":
            continue
        try:
            res = fit(dataset, kind, strict_experimental=strict_experimental)
        except RelaxkitError as exc:
            results.append((kind, math.inf, exc))
            continue
        k = _free_parameter_count(kind, frequency)
        score = aicc_score(res.residual_norm, n_points, k, data_scale)
        results.append((kind, score, res))
    if not results:
        raise DomainError("no applicable candidate kinds for this dataset")
    results.sort(key=lambda item: (isinstance(item[2], RelaxkitError), item[1],
                                   _free_parameter_count(item[0], frequency), item[0]))
    if isinstance(results[0][2], RelaxkitError):
        raise results[0][2]
    return results


def fit_result_to_json(result: FitResult) -> str:
    """Serialize a FitResult to the documented JSON schema."""
    scale = result.scale
    out = {
        "model": result.spec.kind,
        "alpha": result.spec.alpha,
        "beta": result.spec.beta,
        "tau": result.spec.tau,
        "eps_static": scale.eps_static if scale else None,
        "eps_inf": scale.eps_inf if scale else None,
        "residual_norm": result.residual_norm,
        "converged": result.converged,
        "iterations": result.iterations,
        "stderr": dict(result.param_stderr),
    }
    return json.dumps(out, indent=2, sort_keys=True)
