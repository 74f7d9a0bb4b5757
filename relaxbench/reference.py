"""High-precision reference values for the benchmark's table checks.

Everything here is mpmath at 34 significant digits, independent of relaxkit:

* closed forms for debye, cd and kww;
* for the Prabhakar laws (cc, hn, jws, mcd) the defining series
  ``E[a, mu; nu](-x) = sum_r (nu)_r (-x)**r / (r! Gamma(a r + mu))`` for
  t/tau <= 1, and ``mpmath.invertlaplace`` (fixed Talbot) on the Laplace
  image beyond;
* for the memory kernels, ``mpmath.invertlaplace`` on M_hat and k_hat (rate
  constant B = 1), with the constant term of k_hat (its point mass) removed.

Usage, mirroring ``relaxkit eval``::

    python3 relaxbench/reference.py relaxation --model hn --alpha 0.6 --beta 0.5 \
        --tau 1 --grid 0.001:1000:32
"""

from __future__ import annotations

import argparse
import math
import sys

import mpmath as mp
import numpy as np

DPS = 34
# table values agree with the reference to this relative error; below the
# absolute floor a double result may underflow
REL_TOL = 1e-8
ABS_FLOOR = 1e-290


def phi_hat(law: str, a: float, b: float):
    """Normalised spectral function phi_hat(s) at tau = 1."""
    a, b = mp.mpf(a), mp.mpf(b)
    if law == "debye":
        return lambda s: 1 / (1 + s)
    if law == "cc":
        return lambda s: 1 / (1 + s**a)
    if law == "cd":
        return lambda s: (1 + s) ** -b
    if law == "hn":
        return lambda s: (1 + s**a) ** -b
    if law == "jws":
        return lambda s: 1 - (1 + s**-a) ** -b
    if law == "mcd":
        return lambda s: 1 - (1 + 1 / s) ** -b
    raise ValueError(f"no spectral function for {law!r}")


def prabhakar_series(a, mu, nu, x):
    """E[a, mu; nu](-x) by its defining series, at raised working precision."""
    a, mu, nu, x = (mp.mpf(v) for v in (a, mu, nu, x))
    with mp.workdps(DPS + 10):
        total = mp.mpf(0)
        coeff = mp.mpf(1)  # (nu)_r (-x)**r / r!
        r = 0
        small = 0
        while small < 3:
            term = coeff * mp.rgamma(a * r + mu)
            total += term
            small = small + 1 if r > 2 and abs(term) < mp.mpf(10) ** (-DPS - 5) * abs(total) else 0
            coeff *= -(nu + r) * x / (r + 1)
            r += 1
        return +total


def _invert(image, u):
    return mp.invertlaplace(image, u, method="talbot", degree=DPS)


def _prabhakar_time(quantity: str, law: str, a: float, b: float, u):
    """Relaxation or response at tau = 1 and t = u for a Prabhakar law."""
    if u > 1:
        phi = phi_hat(law, a, b)
        if quantity == "relaxation":
            return _invert(lambda s: (1 - phi(s)) / s, u)
        return _invert(phi, u)
    if law == "cc":
        law, b = "hn", 1.0
    if law == "mcd":
        law, a = "jws", 1.0
    a, b = mp.mpf(a), mp.mpf(b)
    xa = u**a
    if law == "hn":
        if quantity == "relaxation":
            return 1 - u ** (a * b) * prabhakar_series(a, 1 + a * b, b, xa)
        return u ** (a * b - 1) * prabhakar_series(a, a * b, b, xa)
    if quantity == "relaxation":
        return prabhakar_series(a, 1, b, xa)
    return -prabhakar_series(a, 0, b, xa) / u


def time_value(quantity: str, law: str, a: float, b: float, tau: float, t: float):
    """n(t) or the regular part of phi(t) for one law."""
    with mp.workdps(DPS):
        tau = mp.mpf(tau)
        u = mp.mpf(t) / tau
        a_, b_ = mp.mpf(a), mp.mpf(b)
        if law == "debye":
            value = mp.exp(-u) if quantity == "relaxation" else mp.exp(-u) / tau
        elif law == "cd":
            if quantity == "relaxation":
                value = mp.gammainc(b_, u, mp.inf, regularized=True)
            else:
                value = u ** (b_ - 1) * mp.exp(-u) * mp.rgamma(b_) / tau
        elif law == "kww":
            if quantity == "relaxation":
                value = mp.exp(-(u**a_))
            else:
                value = a_ * u ** (a_ - 1) * mp.exp(-(u**a_)) / tau
        else:
            value = _prabhakar_time(quantity, law, a, b, u)
            if quantity == "response":
                value /= tau
        return value


def kernel_value(which: str, law: str, a: float, b: float, tau: float, t: float):
    """Regular part of M(t) (``which="M"``) or k(t) (``"k"``) with B = 1."""
    with mp.workdps(DPS):
        tau = mp.mpf(tau)
        u = mp.mpf(t) / tau
        phi = phi_hat(law, a, b)
        if which == "M":
            # M_hat(s) = m_hat(s tau) with m_hat = phi/(1 - phi): M(t) = m(t/tau)/tau
            return _invert(lambda s: phi(s) / (1 - phi(s)), u) / tau
        # k_hat(s) = tau kappa_hat(s tau), kappa_hat = (1 - phi)/(s phi): k(t) = kappa(t/tau)
        weight = 0
        if law == "mcd":
            weight = 1 / mp.mpf(b)
        elif law in ("hn", "cd") and (a if law == "hn" else 1.0) * b == 1.0:
            weight = 1
        return _invert(lambda s: (1 - phi(s)) / (s * phi(s)) - weight, u)


def value(quantity: str, law: str, a: float, b: float, tau: float, t: float):
    if quantity in ("relaxation", "response"):
        return time_value(quantity, law, a, b, tau, t)
    if quantity in ("kernelM", "kernelK"):
        return kernel_value(quantity[-1], law, a, b, tau, t)
    raise ValueError(f"no reference for {quantity!r}")


def compare(table: dict, values) -> tuple[float, int]:
    """(worst relative error, its index) of ``values`` against the reference on ``table["t"]``.

    The relative error is taken against ``|ref| + ABS_FLOOR / REL_TOL``, so
    values that underflow in double precision pass; the table passes when the
    worst error is at most REL_TOL.
    """
    worst, where = 0.0, -1
    for i, (t, v) in enumerate(zip(table["t"], values)):
        ref = float(value(table["quantity"], table["law"], table["alpha"], table["beta"], table["tau"], t))
        err = abs(v - ref) / (abs(ref) + ABS_FLOOR / REL_TOL)
        if math.isnan(err):
            err = math.inf
        if err > worst:
            worst, where = err, i
    return worst, where


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("quantity", choices=("relaxation", "response", "kernelM", "kernelK"))
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--grid", required=True, help="start:stop:points (log-spaced)")
    args = p.parse_args(argv)
    start, stop, points = args.grid.split(":")
    print(f"t,{args.quantity}")
    for t in np.logspace(math.log10(float(start)), math.log10(float(stop)), int(points)):
        t = float(t)
        v = value(args.quantity, args.model, args.alpha, args.beta, args.tau, t)
        print(f"{t:.17g},{mp.nstr(v, 20)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
