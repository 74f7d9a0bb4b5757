"""Hash every value and error estimate of a fixed sweep of relaxkit's quadrature paths.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/quadrature_sweep.py

Two checkouts whose quadrature groups its levels into integrand calls
differently must print the same hashes: the sweep covers the Levy-parent
Efros compositions, the subordination kernel, the Levy density, the
Debye-parent compositions, the evolution residuals and ``tanh_sinh``.  It
also prints, per Levy-parent composition, the kernel calls, the passes of the
density's theta quadrature and the levels past 6 those passes went on to,
for comparing call schedules.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from relaxkit import kernels, laplace, quadrature, specfun
from relaxkit.models import ModelSpec, relaxation

ALPHAS = (0.3, 0.42, 0.54, 0.66, 0.78, 0.9)


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


def levy_compositions():
    """(values, kernel calls, theta passes, theta levels past 6) of hn/jws over alpha x beta x t."""
    counts = {"passes": 0, "deeper": 0}
    theta_pass = specfun._fixed_level_rows

    def counted_pass(f, *args):
        levels = set()

        def g(span, rows):
            levels.add(span.levels[-1])
            return f(span, rows)

        counts["passes"] += 1
        try:
            return theta_pass(g, *args)
        finally:
            counts["deeper"] += len(levels) - 1

    specfun._fixed_level_rows = counted_pass
    values, kernel_calls, passes, deeper = [], [], [], []
    try:
        for kind, parent in (("hn", "cd"), ("jws", "mcd")):
            for a in ALPHAS:
                for b in (0.4, 0.6, 0.8):
                    for t in (0.5, 1.0, 2.0):
                        calls = [0]

                        def kernel(u, tt, a=a, calls=calls):
                            calls[0] += 1
                            return laplace.subordination_kernel(a, u, tt)

                        spec = ModelSpec(parent, 1.0, b)
                        counts.update(passes=0, deeper=0)
                        values.append(laplace.efros_compose(
                            lambda u, spec=spec: relaxation(spec, u), kernel, t, rel_tol=1e-8))
                        kernel_calls.append(calls[0])
                        passes.append(counts["passes"])
                        deeper.append(counts["deeper"])
    finally:
        specfun._fixed_level_rows = theta_pass
    return values, kernel_calls, passes, deeper


def main() -> None:
    out = {}
    values, kernel_calls, passes, deeper = levy_compositions()
    out["levy_compositions"] = [len(values), digest(values)]
    out["kernel_calls_per_composition"] = [sum(kernel_calls) / len(kernel_calls), max(kernel_calls)]
    out["theta_passes_per_composition"] = sum(passes) / len(passes)
    out["theta_levels_past_6_per_composition"] = sum(deeper) / len(deeper)

    u = np.geomspace(1e-4, 1e3, 4001)
    grid = [laplace.subordination_kernel(a, u, t) for a in ALPHAS for t in (0.3, 1.0, 3.0, 10.0)]
    out["kernels"] = [sum(v.size for v in grid), digest(np.concatenate(grid))]

    x = np.geomspace(0.05, 50.0, 2001)
    dens = [specfun.levy_stable_density(a, x) for a in ALPHAS]
    out["densities"] = [sum(v.size for v in dens), digest(np.concatenate(dens))]

    debye = []
    for a, b, t in ((0.45, 0.6, 0.7), (0.6, 0.5, 2.0), (0.5, 0.7, 1.0)):
        psi = lambda z, a=a, b=b: (1.0 + z**a) ** b - 1.0  # noqa: E731
        debye.append(laplace.efros_compose(
            lambda xi: math.exp(-xi), lambda xi, tt, psi=psi: laplace.subordination_pdf(psi, xi, tt),
            t, rel_tol=1e-8))
    out["debye_compositions"] = [len(debye), digest(debye)]

    residuals = [kernels.evolution_residual(kernels.KernelConfig(ModelSpec(kind, a, b)), [t])
                 for kind, a, b, t in (("hn", 0.5, 0.5, 0.8), ("hn", 0.45, 0.55, 1.6),
                                       ("jws", 0.5, 0.5, 1.0))]
    out["residuals"] = [len(residuals), digest(residuals)]

    integrands = (
        (lambda v: v**-0.5, 0.0, 1.0),
        (np.log, 0.0, 2.0),
        (lambda v: np.exp(-v) * np.cos(3.0 * v), -1.0, 4.0),
        (lambda v: 1.0 / (1e-3 + v * v), 0.0, 1.0),
        (lambda v: 1.0 / (1e-6 + v * v), 0.0, 1.0),
    )
    pairs = [quadrature.tanh_sinh(f, lo, hi, rel_tol=tol)
             for f, lo, hi in integrands for tol in (1e-6, 1e-8, 1e-10, 1e-12)]
    out["tanh_sinh"] = [len(pairs), digest(pairs)]
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
