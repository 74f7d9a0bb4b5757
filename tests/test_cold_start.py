"""Cold start: importing relaxkit leaves scipy.special out until a call needs it."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# calls that never need scipy.special: a closed-form (Debye) relaxation table, an hn
# permittivity table, the contour-inverted hn, jws and mcd M and k kernels, the Levy
# density and an hn relaxation grid (a positive sum over the rate density g); the Prabhakar
# function needs rgamma
SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    import relaxkit
    import relaxkit.cli as cli
    from relaxkit import (KernelConfig, ModelSpec, levy_stable_density, memory_k_time,
                          memory_M_time, prabhakar_eval, relaxation)

    grid = ["--grid", "0.001:1000:32"]
    hn = ["--model", "hn", "--alpha", "0.6", "--beta", "0.5"]
    assert cli.main(["eval", "relaxation", "--model", "debye", *grid]) == 0
    assert cli.main(["eval", "permittivity", *hn, *grid]) == 0
    t = np.logspace(-2.0, 2.0, 24)
    spec = ModelSpec("hn", alpha=0.6, beta=0.5)
    memory_M_time(KernelConfig(spec), t)
    memory_k_time(KernelConfig(spec), t)
    for other in (ModelSpec("jws", alpha=0.6, beta=0.5), ModelSpec("mcd", beta=0.5)):
        memory_M_time(KernelConfig(other), t)
        memory_k_time(KernelConfig(other), t)
    levy_stable_density(0.5, t)
    relaxation(spec, t)
    assert cli.main(["eval", "response", *hn, *grid]) == 0
    print("before:", "scipy.special" in sys.modules)
    prabhakar_eval(0.6, 1.3, 0.5, t)
    print("after:", "scipy.special" in sys.modules)
    """
)


def test_scipy_special_loads_on_first_use():
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True,
    )
    lines = run.stdout.splitlines()
    assert lines[-2:] == ["before: False", "after: True"]
