"""Tanh-sinh (double exponential) quadrature over finite intervals.

The tanh-sinh rule maps a finite interval onto the real line through
``x = tanh((pi/2) sinh(u))`` and applies the trapezoid rule in ``u``.  Node
weights decay double-exponentially towards the endpoints, so integrable
endpoint singularities (``x**p`` with ``p > -1``, log factors, Heaviside-type
supports) need no special treatment.  Offsets from the endpoints are computed
in a cancellation-free form so integrands may be sampled arbitrarily close to
a singular endpoint.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from .exceptions import QuadratureFailure

_HALF_PI = math.pi / 2.0


@lru_cache(maxsize=None)
def _nodes(level: int, max_u: float) -> tuple[tuple[float, float], ...]:
    """Abscissa data at trapezoid spacing h = 2**-level, built once per level.

    Returns (offset_from_right, weight) for every node that is new at this
    level (odd multiples of h for level >= 1, all for level 0, whose first
    entry is the centre), expressed on the reference interval (-1, 1) of full
    length 2.  Plain floats, so that every call sums exactly what a freshly
    generated table would give.
    """
    h = 2.0 ** (-level)
    if level == 0:
        ks = range(int(max_u / h) + 1)
    else:
        ks = range(1, int(max_u / h) + 1, 2)
    table = []
    for k in ks:
        u = k * h
        t = _HALF_PI * math.sinh(u)
        if t > 350.0:
            break
        ch = math.cosh(t)
        w = _HALF_PI * math.cosh(u) / (ch * ch)
        # 1 -+ tanh(t) without cancellation
        e = math.exp(-2.0 * t)
        table.append((2.0 * e / (1.0 + e), w))
    return tuple(table)


def tanh_sinh(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    max_level: int = 12,
) -> tuple[float, float]:
    """Integrate ``f`` over the finite interval (a, b).

    Returns ``(value, error_estimate)``.  The integrand is never evaluated at
    the endpoints; integrable endpoint singularities are fine.  Raises
    :class:`QuadratureFailure` when the level cap is reached without the
    successive-refinement estimate meeting ``max(rel_tol*|I|, abs_tol)``, or
    when the integrand returns a non-finite value at an interior node.
    """
    if not (b > a):
        raise QuadratureFailure(f"empty or inverted interval ({a}, {b})")
    half = 0.5 * (b - a)
    max_u = 4.2  # sinh(4.2)*pi/2 ~ 52; tanh is 1 to double precision well before

    def sample(off: float) -> float:
        total = 0.0
        xl = a + half * off
        xr = b - half * off
        if xl > a:
            total += f(xl)
        if off > 0.0 and xr < b and xr > xl:
            total += f(xr)
        return total

    # level 0
    h = 1.0
    acc = 0.0
    for k, (off, w) in enumerate(_nodes(0, max_u)):
        if k == 0:
            val = w * f(a + half)  # center node, off side pairing handled below
        else:
            val = w * sample(off)
        if not math.isfinite(val):
            raise QuadratureFailure("integrand returned a non-finite value")
        acc += val
    estimate = acc * h * half
    err = math.inf

    for level in range(1, max_level + 1):
        h *= 0.5
        new = 0.0
        for off, w in _nodes(level, max_u):
            val = w * sample(off)
            if not math.isfinite(val):
                raise QuadratureFailure("integrand returned a non-finite value")
            new += val
        prev = estimate
        estimate = 0.5 * prev + new * h * half
        err = abs(estimate - prev)
        if err <= max(rel_tol * abs(estimate), abs_tol) and level >= 3:
            return estimate, err

    if err <= max(math.sqrt(rel_tol) * abs(estimate), abs_tol):
        # converged but short of the requested tolerance; report honestly
        return estimate, err
    raise QuadratureFailure(
        f"tanh-sinh did not converge (level {max_level}, err {err:.3g}, value {estimate:.6g})"
    )
