"""Fixed-Talbot and Gaver-Stehfest inverse Laplace transform cores.

Both algorithms evaluate a user image F(z) and return the time-domain value
at a single t > 0.  Node evaluations are independent (safe to parallelise),
but the reduction is always performed in fixed ascending node order so
results are bit-stable regardless of how the evaluations were scheduled.

References: Abate & Valko (2004) for the fixed Talbot contour, Stehfest
(1970) / Salzer weights for the Gaver functional.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .exceptions import ContourOverflow, DomainError

_LN2 = math.log(2.0)


@lru_cache(maxsize=None)
def talbot_contour(nodes: int) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Nodes ``z_k = r theta (cot(theta) + i)`` (r = 2 nodes / 5, theta = k pi / nodes)
    and weights of the fixed Talbot contour at t = 1; other t scale the nodes by 1/t."""
    r = 2.0 * nodes / 5.0
    theta = np.arange(1, nodes) * math.pi / nodes
    cot = np.cos(theta) / np.sin(theta)
    z = np.append(r, r * theta * (cot + 1j))
    weights = np.exp(z) * np.append(0.5, 1.0 + 1j * (theta * (1.0 + cot**2) - cot))
    return tuple(z.tolist()), tuple(weights.tolist())


def talbot(F: Callable[[complex], complex], t: float, nodes: int = 32) -> float:
    """Fixed-Talbot inversion of image ``F`` at time ``t``.

    The contour (:func:`talbot_contour`) encloses singularities on or near the
    negative real axis.  Accuracy in doubles saturates around 1e-11 relative
    to the image scale for 24..32 nodes.
    """
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    total = 0.0
    for zk, wk in zip(*talbot_contour(int(nodes))):
        contrib = (wk * F(zk / t)).real
        if not math.isfinite(contrib):
            raise ContourOverflow("non-finite image value on Talbot contour")
        total += contrib
    return total * 2.0 / (5.0 * t)


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
            den = (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            acc += num // den if num % den == 0 else num / den
        weights.append((-1) ** (k + half) * float(acc))
    return tuple(weights)


def gaver_stehfest(F: Callable[[float], float], t: float, nodes: int = 16) -> float:
    """Gaver-Stehfest inversion of image ``F`` at time ``t``.

    Samples the image on the real axis only; accurate for smooth,
    non-oscillatory originals (completely monotone images are ideal) and
    known to fail for oscillatory ones, which is exactly the property the
    cross-check against Talbot exploits.
    """
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    n = int(nodes)
    if n % 2 != 0:
        n += 1
    V = stehfest_weights(n)
    s = _LN2 / t
    total = 0.0
    for k in range(1, n + 1):
        v = complex(F(k * s))
        total += V[k - 1] * v.real
    if not math.isfinite(total):
        raise ContourOverflow("non-finite image value on Gaver-Stehfest abscissae")
    return total * s
