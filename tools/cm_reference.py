"""Write the mpmath reference table of n and phi for cc, hn and jws.

Run from the root of a source checkout:

    python3 tools/cm_reference.py

It writes ``tests/data/cm_reference.csv``: n(t) and the regular response
phi(t) at tau = 1, on 14 specs and 12 points of t/tau in [3e-4, 1e4] (the
window of the exp-sinh rule in ``relaxkit.models``, both ends included, plus
t/tau = 44.17, where the midrange contour missed 1e-8).  The values come
from ``relaxbench/reference.py`` at 34 digits, which knows nothing of
relaxkit: the defining series up to t/tau = 1 and ``mpmath.invertlaplace``
beyond.  It takes a few seconds.
"""

from __future__ import annotations

import math
import os
import sys

import mpmath as mp
import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "relaxbench"))

import reference  # noqa: E402

SPECS = (
    ("cc", 0.3, 1.0), ("cc", 0.7, 1.0), ("cc", 0.95, 1.0),
    ("hn", 0.95, 0.25), ("hn", 0.6, 0.5), ("hn", 0.3, 0.95), ("hn", 0.3, 0.25),
    ("hn", 0.95, 0.95), ("hn", 0.97, 0.5), ("hn", 0.5, 2.0),
    ("jws", 0.6, 0.5), ("jws", 0.9, 0.3), ("jws", 0.3, 0.95), ("jws", 0.95, 0.95),
)
POINTS = sorted([3e-4, *np.logspace(math.log10(3e-4), 4.0, 11)[1:-1].tolist(), 44.17, 1e4])
OUT = os.path.join(ROOT, "tests", "data", "cm_reference.csv")


def main() -> int:
    lines = ["kind,alpha,beta,quantity,t,value"]
    for kind, a, b in SPECS:
        for quantity in ("relaxation", "response"):
            for t in POINTS:
                v = reference.value(quantity, kind, a, b, 1.0, t)
                lines.append(f"{kind},{a!r},{b!r},{quantity},{t!r},{mp.nstr(v, 20)}")
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} values to {os.path.relpath(OUT, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
