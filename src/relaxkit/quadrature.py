"""Tanh-sinh (double exponential) quadrature over finite intervals.

The tanh-sinh rule maps a finite interval onto the real line through
``x = tanh((pi/2) sinh(u))`` and applies the trapezoid rule in ``u``.  Node
weights decay double-exponentially towards the endpoints, so integrable
endpoint singularities (``x**p`` with ``p > -1``, log factors, Heaviside-type
supports) are sampled as they are, but not all the way: the rule stops at
``u = _MAX_U``, whose node sits 6.6e-46 h from its endpoint on an interval of
half-length h.  The mass below it, ``(6.6e-46 h)**(p+1) / (p+1)`` for ``x**p``,
is dropped, and the level-to-level error estimate cannot see it: with h = 1
that is 3e-4 at p = -0.9 and 0.1 at p = -0.95.  Offsets from the endpoints
are computed in a cancellation-free form so integrands may be sampled that
close to a singular endpoint.

Levels 0-3 are always summed before the first stop test, so integrands get
the abscissae of all four in one 1-D array.  Each later call holds the new
abscissae of every further level the slowest running row is predicted to
need (:func:`_predicted_levels`; per level: the left side, then the right
side, the centre once at level 0); float-only callables are evaluated point
by point instead (:func:`array_fn`).  The abscissae and their matching
weights are built once per (interval, level) and kept in a small cache
(:func:`_nodes`, :func:`_batch`), so a level's sum is the row-wise
``(values * weights).sum(axis=1)`` over that level's own nodes, whose per-row
summation makes a row's value independent of the other rows evaluated with
it and of the levels sampled in the same call.  The stop test runs level by
level, so values, error estimates and stop levels do not depend on how the
levels are grouped into calls.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .exceptions import DomainError, QuadratureFailure, RelaxkitError

_HALF_PI = math.pi / 2.0
_MAX_U = 4.2  # sinh(4.2)*pi/2 ~ 52; tanh is 1 to double precision well before
_BLOCK = 2**14  # largest rows x abscissae block handed to a row integrand
_FIRST_TEST = 3  # the first level whose estimate meets the stop test
_LOOKAHEAD = 3  # most levels one predicted integrand call samples
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


@functools.lru_cache(maxsize=64)
def _batch(a: float, b: float, first: int, last: int) -> tuple[np.ndarray, tuple]:
    """(abscissae, weights per level) of levels first..last on (a, b).

    The levels' :func:`_nodes` one after the other: the nodes of one integrand
    call, whose level sums each take their own slice.  Read-only, like theirs.
    """
    parts = [_nodes(a, b, k) for k in range(first, last + 1)]
    x = parts[0][0] if len(parts) == 1 else np.concatenate([p[0] for p in parts])
    x.flags.writeable = False
    return x, tuple(p[1] for p in parts)


@functools.lru_cache(maxsize=64)
def _call_levels(a: float, b: float, first_node: float, size: int) -> range:
    """The levels whose :func:`_nodes` on (a, b) make up an integrand call.

    A call holds the nodes of whole consecutive levels, so its first node,
    which is the first node of exactly one level (the centre at level 0, the
    innermost left node after it), tells the first level, and its size the
    last.
    """
    first = next(k for k in range(_MAX_LEVEL + 1) if _nodes(a, b, k)[0][0] == first_node)
    last, n = first, _nodes(a, b, first)[0].size
    while n < size:
        last += 1
        n += _nodes(a, b, last)[0].size
    return range(first, last + 1)


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


def _predicted_levels(estimate: np.ndarray, err: np.ndarray, rel_tol: float) -> int:
    """Further levels the slowest of these rows is predicted to need, 1 to ``_LOOKAHEAD``.

    Tanh-sinh roughly doubles its correct digits per level (Takahasi & Mori
    1974; Bailey, Jeyabalan & Li 2005), so a row whose relative error
    ``err / |I|`` must fall to ``rel_tol`` needs about
    ``log2(log(rel_tol) / log(err / |I|))`` more levels.  A row whose error is
    not below its value, or whose target is 0, gets the most.
    """
    scale = np.abs(estimate)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(rel_tol) / np.log(err / scale)
    need = np.where(ratio > 0.0, ratio, math.inf).max()
    return _LOOKAHEAD if need > 2.0**_LOOKAHEAD else max(1, math.ceil(math.log2(need)))


def _level_sums(f, x: np.ndarray, weights: tuple, rows: np.ndarray) -> np.ndarray:
    """Row sums ``(values * w).sum(axis=1)`` of each level's slice of one integrand call.

    ``f`` gets ``x`` on row blocks of at most ``_BLOCK`` values; the result
    has one line per level of ``weights`` and one column per row.
    """
    sums = np.empty((len(weights), rows.size))
    step = max(1, _BLOCK // max(x.size, 1))
    for start in range(0, rows.size, step):
        block = rows[start:start + step]
        values = np.reshape(f(x, block), (block.size, x.size))
        edge = 0
        for new, w in zip(sums, weights):
            new[start:start + step] = (values[:, edge:edge + w.size] * w).sum(axis=1)
            edge += w.size
    return sums


def _integrate_rows(f, a: float, b: float, n_rows: int, rel_tol: float,
                    max_level: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``n_rows`` integrands over (a, b) at once; (values, error estimates).

    ``f(x, rows)`` returns the integrands with indices ``rows`` at the
    abscissae ``x``, shape ``(len(rows), len(x))`` (or ``len(x)`` for one
    row), called on row blocks of at most ``_BLOCK`` values: once for levels
    0-3 together, then once for each batch of the further levels that the
    slowest running row is predicted to need (:func:`_predicted_levels`).
    Each row stops at the first level >= 3 that meets the :func:`tanh_sinh`
    rule, tested level by level inside a batch, and drops out of later
    levels; a value it got at a later level of the batch is never used, not
    even to fail on a non-finite one.  If a call of several predicted levels
    raises, it is made again one level per call, as is the rest of the run,
    so only a level some row reaches can fail the run.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"tanh-sinh needs finite endpoints, got ({a}, {b})")
    if not (0.0 <= rel_tol < math.inf):
        raise DomainError(f"rel_tol must be finite and nonnegative, got {rel_tol}")
    if not (b > a):
        raise QuadratureFailure(f"empty or inverted interval ({a}, {b})")
    half = 0.5 * (b - a)
    estimate = np.zeros(n_rows)
    err = np.full(n_rows, math.inf)
    active = np.arange(n_rows)
    first, last, speculate = 0, min(_FIRST_TEST, max_level), True
    while True:
        x, weights = _batch(a, b, first, last)
        try:
            sums = _level_sums(f, x, weights, active)
        except Exception:  # whatever it is, a level some row reaches raises it again below
            if first == 0 or last == first:  # a call the level-by-level schedule makes too
                raise
            last, speculate = first, False
            continue
        cols = np.arange(active.size)  # the columns of sums that belong to running rows
        for level, new in enumerate(sums, first):
            new = new[cols]
            if not np.isfinite(new).all():  # a non-finite value anywhere reaches its row's sum
                raise QuadratureFailure("integrand returned a non-finite value")
            h = 2.0**-level
            prev = estimate[active]
            estimate[active] = 0.5 * prev + new * h * half if level else new * h * half
            err[active] = np.abs(estimate[active] - prev) if level else math.inf
            if level >= _FIRST_TEST:
                running = err[active] > rel_tol * np.abs(estimate[active])
                active, cols = active[running], cols[running]
                if not active.size:
                    return estimate, err
        if last == max_level:
            break
        first = last + 1
        if speculate:
            last += _predicted_levels(estimate[active], err[active], rel_tol) - 1
        last = min(last + 1, max_level)
    # rows left at the cap pass if converged short of tolerance (err says so)
    short = err[active] > math.sqrt(rel_tol) * np.abs(estimate[active])
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
) -> tuple[float, float]:
    """Integrate ``f`` over the finite interval (a, b).

    Returns ``(value, error_estimate)``.  ``f`` is called with 1-D arrays of
    abscissae: once with those of levels 0-3, then once per batch of further
    levels with their new ones, as many levels as the run's error predicts it
    needs (see :func:`_integrate_rows`); a float-only ``f`` is evaluated point
    by point instead (see :func:`array_fn`).  The integrand is never evaluated
    at the endpoints, and no closer to one than 6.6e-46 half-lengths: the mass
    of an endpoint singularity below that is dropped (see the module
    docstring).  Raises
    :class:`DomainError` for a non-finite endpoint or a NaN, infinite or
    negative ``rel_tol``, and :class:`QuadratureFailure` when the level cap is
    reached without the successive-refinement estimate meeting
    ``rel_tol*|I|``, or when the integrand returns a non-finite
    value at an interior node of a level the run reaches.
    """
    g = array_fn(f)
    value, err = _integrate_rows(lambda x, rows: g(x), a, b, 1, rel_tol, _MAX_LEVEL)
    return float(value[0]), float(err[0])
