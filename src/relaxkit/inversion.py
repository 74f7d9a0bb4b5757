"""Fixed-Talbot inverse Laplace transform, and the Gaver-Stehfest reference.

:func:`talbot_sum` is the one fixed-Talbot engine (Abate & Valko 2004): the
kernels, the Prabhakar midrange, the subordination density, the fit's time
Jacobian and :func:`talbot` (``laplace.inverse_laplace``'s 32-node inversion
of one scalar image) each hand it an image of the nodes z and the times t that
forms its powers of p = z / t as z**e t**-e.  It owns the contour, the
non-finite check and the sum over the nodes in ascending order (cumsum), so a
point's value does not depend on the points that share its call.
:func:`gaver_stehfest` (Stehfest 1970, Salzer weights) samples the real axis
only; no library route calls it, the tests compare Talbot against it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .exceptions import ContourOverflow, DomainError

_LN2 = math.log(2.0)


@lru_cache(maxsize=None)
def talbot_contour(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``z_k = r theta (cot(theta) + i)`` (r = 2 nodes / 5, theta = k pi / nodes)
    and weights of the fixed Talbot contour at t = 1, as read-only nodes x 1 columns;
    other t scale the nodes by 1/t."""
    r = 2.0 * nodes / 5.0
    theta = np.arange(1, nodes) * math.pi / nodes
    cot = np.cos(theta) / np.sin(theta)
    z = np.append(r, r * theta * (cot + 1j))
    weights = np.exp(z) * np.append(0.5, 1.0 + 1j * (theta * (1.0 + cot**2) - cot))
    z.flags.writeable = weights.flags.writeable = False
    return z[:, None], weights[:, None]


def talbot_sum(image: Callable[..., np.ndarray], t, nodes: int = 24) -> np.ndarray:
    """Fixed-Talbot inversion of ``image`` at the times ``t`` (a number or a 1-D array).

    ``image(z, t)`` gets the read-only nodes z at t = 1 (nodes x 1) and the times as given,
    and returns nodes x points values at p = z / t, or nodes x points x columns, each column
    as if inverted alone.  A non-finite term raises :class:`ContourOverflow`.  Accuracy in
    doubles saturates around 1e-11 relative to the image scale for 24..32 nodes, for images
    whose singularities lie on the negative real axis (the completely monotone laws).  An
    image with singularities off that axis comes back wrong without an error: for sin(8t),
    ``8 / (p**2 + 64)``, 32 nodes are off by 1.4e-5 at t = 2 and by 0.91 at t = 3.
    """
    z, weights = talbot_contour(nodes)
    t = np.asarray(t, dtype=float)
    values = image(z, t)
    lift = (1,) * (values.ndim - 2)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below as ContourOverflow
        terms = (weights.reshape((-1, 1) + lift) * values).real
    if not np.all(np.isfinite(terms)):
        raise ContourOverflow("non-finite image value on the Talbot contour")
    return np.cumsum(terms, axis=0)[-1] * 2.0 / (5.0 * t).reshape((-1,) + lift)


def talbot(F: Callable[[complex], complex], t: float) -> float:
    """Fixed-Talbot inversion of a scalar image ``F`` at one time ``t``.

    On 32 nodes, calling ``F`` once per node; ``laplace.inverse_laplace`` is this inversion.
    """
    if not (0.0 < t < math.inf):
        raise DomainError(f"t must be positive and finite, got {t}")
    return float(
        talbot_sum(lambda z, t: np.array([[F(s)] for s in (z / t)[:, 0].tolist()]), t, 32)[0]
    )


@lru_cache(maxsize=None)
def stehfest_weights(n: int) -> tuple[float, ...]:
    """Salzer summation weights for the Gaver-Stehfest method of even order n.

    Computed in exact integer arithmetic before the final float conversion;
    the weights alternate in sign and grow roughly like 10**(0.3 n).
    """
    if n % 2 != 0 or n < 2:
        raise DomainError(f"Gaver-Stehfest order must be even and >= 2, got {n}")
    half = n // 2
    weights = []
    for k in range(1, n + 1):
        acc = 0
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = j ** half * math.factorial(2 * j)
            den = math.prod(map(math.factorial, (half - j, j, j - 1, k - j, 2 * j - k)))
            acc += num // den if num % den == 0 else num / den
        weights.append((-1) ** (k + half) * float(acc))
    return tuple(weights)


def gaver_stehfest(F: Callable[[float], float], t: float, nodes: int = 16) -> float:
    """Gaver-Stehfest inversion of image ``F`` at time ``t``.

    Samples the image on the real axis only; accurate for smooth,
    non-oscillatory originals (completely monotone images are ideal) and
    known to fail for oscillatory ones, which Talbot's complex contour
    resolves.  It is the tests' real-axis reference for :func:`talbot`.
    """
    if not (0.0 < t < math.inf):
        raise DomainError(f"t must be positive and finite, got {t}")
    n = int(nodes) + int(nodes) % 2
    V = stehfest_weights(n)
    s = _LN2 / t
    total = sum(V[k - 1] * complex(F(k * s)).real for k in range(1, n + 1))
    if not math.isfinite(total):
        raise ContourOverflow("non-finite image value on Gaver-Stehfest abscissae")
    return total * s
