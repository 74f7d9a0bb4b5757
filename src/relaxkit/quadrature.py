"""Tanh-sinh (double exponential) quadrature over finite intervals.

The tanh-sinh rule maps a finite interval onto the real line through
``x = tanh((pi/2) sinh(u))`` and applies the trapezoid rule in ``u``.  Node
weights decay double-exponentially towards the endpoints, so integrable
endpoint singularities (``x**p`` with ``p > -1``, log factors, Heaviside-type
supports) need no special treatment.  Offsets from the endpoints are computed
in a cancellation-free form so integrands may be sampled arbitrarily close to
a singular endpoint.

Levels 0-3 are always summed before the first stop test, so integrands get
the abscissae of all four in one 1-D array, then each further level's new
ones in one array (per level: the left side, then the right side, the
centre once at level 0); float-only callables are evaluated point by point
instead (:func:`array_fn`).  The abscissae and their matching weights are
built once per (interval, level) and kept in a small cache (:func:`_nodes`,
:func:`_batch`), so a level's sum is the row-wise
``(values * weights).sum(axis=1)`` over that level's own nodes, whose per-row
summation makes a row's value independent of the other rows evaluated with
it and of the levels sampled in the same call.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .exceptions import QuadratureFailure, RelaxkitError

_HALF_PI = math.pi / 2.0
_MAX_U = 4.2  # sinh(4.2)*pi/2 ~ 52; tanh is 1 to double precision well before
_BLOCK = 2**14  # largest rows x abscissae block handed to a row integrand
_FIRST_TEST = 3  # the first level whose estimate meets the stop test
_MAX_LEVEL = 12
_LEVELS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(offset_from_right, weight) of the nodes new at trapezoid spacing 2**-level.

    Odd multiples of h for level >= 1, all multiples for level 0 (whose first
    entry is the centre), on the reference interval (-1, 1) of full length 2.
    Built with the math module the first time a level is used.
    """
    if level not in _LEVELS:
        h = 2.0 ** (-level)
        offs, ws = [], []
        for k in range(int(level > 0), int(_MAX_U / h) + 1, 1 + (level > 0)):
            u = k * h
            t = _HALF_PI * math.sinh(u)
            ch = math.cosh(t)
            ws.append(_HALF_PI * math.cosh(u) / (ch * ch))
            e = math.exp(-2.0 * t)  # 1 -+ tanh(t) = 2 e / (1 + e), without cancellation
            offs.append(2.0 * e / (1.0 + e))
        _LEVELS[level] = (np.array(offs), np.array(ws))
    return _LEVELS[level]


@functools.lru_cache(maxsize=64)
def _nodes(a: float, b: float, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(abscissae, weights, endpoint distances) of the nodes new at ``level`` on (a, b).

    Left-side nodes first, then right-side ones; nodes that round onto an
    endpoint or past the other side are left out, and the level-0 centre
    appears once.  A node's distance from its nearer endpoint, ``x - a`` on
    the left and ``b - x`` on the right, is computed without the rounding of
    ``x`` itself, for integrands singular at an endpoint.  The arrays are
    read-only: the cache hands the same ones to every caller.
    """
    off, w = _level(level)
    half = 0.5 * (b - a)
    xl = a + half * off
    xr = b - half * off
    left = xl > a
    right = (off > 0.0) & (xr < b) & (xr > xl)
    right[0] &= level > 0  # the level-0 centre is sampled once
    nodes = (
        np.concatenate((xl[left], xr[right])),
        np.concatenate((w[left], w[right])),
        half * np.concatenate((off[left], off[right])),
    )
    for v in nodes:
        v.flags.writeable = False
    return nodes


def _batches(max_level: int) -> list[tuple[int, int]]:
    """(first, last) levels of each integrand call of a run capped at ``max_level``.

    Levels up to the first stop test share one call, every later level has its own.
    """
    first = min(_FIRST_TEST, max_level)
    return [(0, first)] + [(k, k) for k in range(first + 1, max_level + 1)]


@functools.lru_cache(maxsize=64)
def _batch(a: float, b: float, first: int, last: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """(abscissae, weights per level, endpoint distances) of levels first..last on (a, b).

    The levels' :func:`_nodes` one after the other: the nodes of one integrand
    call, whose level sums each take their own slice.  Read-only, like theirs.
    """
    parts = [_nodes(a, b, k) for k in range(first, last + 1)]
    if len(parts) == 1:
        return parts[0][0], (parts[0][1],), parts[0][2]
    x, dist = (np.concatenate([p[i] for p in parts]) for i in (0, 2))
    x.flags.writeable = dist.flags.writeable = False
    return x, tuple(p[1] for p in parts), dist


def array_fn(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """``f`` as a callable on 1-D arrays, deciding at its first call.

    The first call passes the whole array.  If that raises a ``TypeError`` or
    ``ValueError`` that is not a :class:`RelaxkitError`, or returns anything
    but an array of the input's shape, ``f`` is evaluated point by point from
    then on.
    """
    vectorised = None

    def call(x: np.ndarray) -> np.ndarray:
        nonlocal vectorised
        if vectorised is None:
            try:
                y = np.asarray(f(x))
            except RelaxkitError:
                raise
            except (TypeError, ValueError):
                y = None
            vectorised = y is not None and y.shape == x.shape
            if vectorised:
                return y
        return np.asarray(f(x)) if vectorised else np.array([f(v) for v in x.tolist()])

    return call


def _integrate_rows(f, a: float, b: float, n_rows: int, rel_tol: float, abs_tol: float,
                    max_level: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``n_rows`` integrands over (a, b) at once; (values, error estimates).

    ``f(x, rows)`` returns the integrands with indices ``rows`` at the
    abscissae ``x``, shape ``(len(rows), len(x))`` (or ``len(x)`` for one
    row), called on row blocks of at most ``_BLOCK`` values: once for levels
    0-3 together, then once per level (:func:`_batches`).  Each row stops at
    the first level >= 3 that meets the :func:`tanh_sinh` rule and drops out
    of later levels.
    """
    if not (b > a):
        raise QuadratureFailure(f"empty or inverted interval ({a}, {b})")
    half = 0.5 * (b - a)
    estimate = np.zeros(n_rows)
    err = np.full(n_rows, math.inf)
    active = np.arange(n_rows)
    for first, last in _batches(max_level):
        x, weights, _ = _batch(a, b, first, last)
        sums = np.empty((len(weights), active.size))
        step = max(1, _BLOCK // max(x.size, 1))
        for start in range(0, active.size, step):
            rows = active[start:start + step]
            values = np.reshape(f(x, rows), (rows.size, x.size))
            edge = 0
            for new, w in zip(sums, weights):
                new[start:start + step] = (values[:, edge:edge + w.size] * w).sum(axis=1)
                edge += w.size
        for level, new in enumerate(sums, first):
            if not np.isfinite(new).all():  # a non-finite value anywhere reaches its row's sum
                raise QuadratureFailure("integrand returned a non-finite value")
            h = 2.0**-level
            prev = estimate[active]
            estimate[active] = 0.5 * prev + new * h * half if level else new * h * half
            err[active] = np.abs(estimate[active] - prev) if level else math.inf
        if last >= _FIRST_TEST:
            active = active[err[active] > np.maximum(rel_tol * np.abs(estimate[active]), abs_tol)]
            if not active.size:
                return estimate, err
    # rows left at the cap pass if converged short of tolerance (err says so)
    short = err[active] > np.maximum(math.sqrt(rel_tol) * np.abs(estimate[active]), abs_tol)
    if short.any():
        i = active[short][0]
        raise QuadratureFailure(f"tanh-sinh did not converge (level {max_level}, "
                                f"err {err[i]:.3g}, value {estimate[i]:.6g})")
    return estimate, err


def tanh_sinh(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    max_level: int = _MAX_LEVEL,
) -> tuple[float, float]:
    """Integrate ``f`` over the finite interval (a, b).

    Returns ``(value, error_estimate)``.  ``f`` is called with 1-D arrays of
    abscissae: once with those of levels 0-3, then once per further level with
    that level's new ones; a float-only ``f`` is evaluated point by point
    instead (see :func:`array_fn`).  The integrand is
    never evaluated at the endpoints; integrable endpoint singularities are
    fine.  Raises :class:`QuadratureFailure` when the level cap is reached
    without the successive-refinement estimate meeting
    ``max(rel_tol*|I|, abs_tol)``, or when the integrand returns a non-finite
    value at an interior node.
    """
    g = array_fn(f)
    value, err = _integrate_rows(lambda x, rows: g(x), a, b, 1, rel_tol, abs_tol, max_level)
    return float(value[0]), float(err[0])
