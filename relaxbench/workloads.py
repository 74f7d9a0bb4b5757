"""Seeded operation sets of the three benchmark workloads, and their checks.

A workload is a fixed list of operations.  Its seeded part draws model
parameters from ``numpy.random.default_rng`` and never fails; its fixed part
(the same on every seed) reproduces the program faults the README names and
fails every time.  Every run repeats the whole list, so the share of failed
operations is the same on every run and every seed.

An operation returns its output; the checks run after the timed phase:

* ``check(output)`` runs in the workload process and may call relaxkit
  (the direct n(t) for Efros compositions, residuals at the generating
  parameters for fits);
* ``table`` describes a CSV table that ``run.py`` compares against the
  mpmath reference of ``reference.py``.

relaxkit is imported lazily, so this module loads without it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("time-grid", "memory", "fit")
LAWS = ("debye", "cc", "cd", "mcd", "hn", "jws", "kww")
PRABHAKAR_LAWS = ("cc", "mcd", "hn", "jws")
SPECTRAL_LAWS = ("debye", "cc", "cd", "mcd", "hn", "jws")

TABLE_POINTS = 32
KERNEL_POINTS = 12
FIT_POINTS = 40

EFROS_TOL = 1e-5
RESIDUAL_TOL = 1e-4
FIT_PARAM_TOL = 1e-6
# the residual at the fitted parameters may exceed the one at the generating
# parameters by rounding only
FIT_RESIDUAL_SLACK = 1e-9


class ExitCode(Exception):
    """A CLI call returned a non-zero exit code."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"exit code {code}")


@dataclass
class Op:
    """One timed operation.

    ``fault`` names the program fault a fixed operation reproduces; it is
    ``None`` for the seeded operations, which must all succeed.
    """

    name: str
    run: Callable[[], object]
    check: Optional[Callable[[object], Optional[str]]] = None
    table: Optional[dict] = None
    fault: Optional[str] = None


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _num(x: float) -> str:
    return repr(float(x))


def run_cli(argv: list) -> str:
    """Run ``relaxkit.cli.main`` in-process and return what it wrote to stdout."""
    from relaxkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise ExitCode(code)
    return out.getvalue()


def parse_table(text: str) -> np.ndarray:
    """Data rows of a CSV table written by ``relaxkit eval`` (comments and header skipped)."""
    rows = [[float(v) for v in line.split(",")]
            for line in text.splitlines() if line and not (line[0] == "#" or line[0].isalpha())]
    return np.array(rows, dtype=float)


def _grid_values(start: float, stop: float, points: int) -> list:
    """The abscissae ``relaxkit eval --grid start:stop:points`` evaluates on."""
    return [float(v) for v in np.logspace(math.log10(start), math.log10(stop), points)]


def _cells(rng, n: int, lo: float, hi: float, step: int = 1) -> list:
    """n seeded values in [lo, hi], the i-th uniform in cell ``step*i mod n`` of n equal cells.

    Stratified draws keep the cost mix of the operation set nearly the same
    on every seed while the seed still moves every value; different
    ``step`` values (coprime to n) pair the cells of two parameters
    differently.
    """
    width = (hi - lo) / n
    return [lo + ((step * i) % n + float(rng.uniform())) * width for i in range(n)]


def _law_draws(rng, law: str, n: int, alphas=(0.3, 0.95), betas=(0.25, 0.95)) -> list:
    """n stratified (alpha, beta, tau) draws for ``law``; pinned exponents stay 1, tau in [1e-2, 1e2]."""
    a = _cells(rng, n, *alphas) if law in ("cc", "hn", "jws", "kww") else [1.0] * n
    b = _cells(rng, n, *betas, step=3 if n % 3 else 1) if law in ("cd", "mcd", "hn", "jws") else [1.0] * n
    tau = [10.0**v for v in _cells(rng, n, -2.0, 2.0)]
    return list(zip(a, b, tau))


# ---------------------------------------------------------------------------
# table operations (time-grid and the kernel tables of memory)
# ---------------------------------------------------------------------------


def _table_op(name, quantity, law, a, b, tau, start, stop, points, fault=None) -> Op:
    argv = ["eval", quantity, "--model", law, "--alpha", _num(a), "--beta", _num(b), "--tau", _num(tau)]
    if points == 1:
        argv += ["--at", _num(start)]
        ts = [float(start)]
    else:
        argv += ["--grid", f"{_num(start)}:{_num(stop)}:{points}"]
        ts = _grid_values(start, stop, points)
    table = {"quantity": quantity, "law": law, "alpha": a, "beta": b, "tau": tau, "t": ts}
    return Op(name, lambda: run_cli(argv), check=_check_table_shape, table=table, fault=fault)


def _check_table_shape(text: str) -> Optional[str]:
    rows = parse_table(text)
    if rows.ndim != 2 or rows.shape[1] != 2:
        return "table does not have two columns"
    if not np.all(np.isfinite(rows)):
        return "non-finite table entry"
    return None


def check_table_properties(quantity: str, values: np.ndarray) -> Optional[str]:
    """Properties every relaxation (or response) table must have."""
    if quantity == "relaxation":
        if np.any(values < 0.0) or np.any(values > 1.0):
            return "relaxation function outside [0, 1]"
        if np.any(np.diff(values) > 0.0):
            return "relaxation function increases on the grid"
    if quantity == "response" and np.any(values < 0.0):
        return "negative response function"
    return None


# beyond t/tau = 20 the HN-type (cc, hn) response misses 1e-8 once alpha
# nears 1; seeded response tables of those laws stop there, and the fixed
# operation below keeps the fault in the set
_HN_RESPONSE_STOP = 20.0
TIME_GRID_FAULTS = (
    ("fault/response/hn/tail", "hn", 0.95, 0.25,
     "response misses the 1e-8 reference tolerance beyond t/tau ~ 20 for alpha near 1"),
)


def _time_grid(seed: int) -> list:
    rng = _rng("time-grid", seed)
    ops = []
    # the Prabhakar laws do the work and get four draws each; the closed
    # forms get two, so the median falls among the Prabhakar tables
    for law in LAWS:
        draws = _law_draws(rng, law, 4 if law in PRABHAKAR_LAWS else 2, alphas=(0.3, 0.9))
        for d, (a, b, tau) in enumerate(draws):
            for quantity in ("relaxation", "response"):
                stop = _HN_RESPONSE_STOP if quantity == "response" and law in ("cc", "hn") else 1e3
                ops.append(_table_op(
                    f"table/{quantity}/{law}/{d}", quantity, law, a, b, tau,
                    1e-3 * tau, stop * tau, TABLE_POINTS,
                ))
    for name, law, a, b, fault in TIME_GRID_FAULTS:
        ops.append(_table_op(name, "response", law, a, b, 1.0, 1e-3, 1e3, TABLE_POINTS, fault=fault))
    return ops


# ---------------------------------------------------------------------------
# memory: kernel tables, Efros compositions, evolution residuals
# ---------------------------------------------------------------------------

# Seeded kernel tables stay where relaxkit meets the 1e-8 reference
# tolerance: the renewal-series M kernels (hn, cd) and the cd k closed form
# up to t/tau = 1.5, the closed forms up to 100.  jws k and mcd k miss it
# everywhere, so they appear only as fixed operations, as do the handoff and
# overflow faults.
_SHORT_SPANS = {
    ("kernelM", "cd"): (0.01, 1.5), ("kernelK", "cd"): (0.01, 1.5),
    ("kernelM", "jws"): (0.01, 100.0), ("kernelM", "mcd"): (0.01, 100.0),
    ("kernelK", "hn"): (0.01, 100.0), ("kernelM", "cc"): (0.01, 100.0), ("kernelK", "cc"): (0.01, 100.0),
}
_HN_M_SPAN = (0.01, 1.5)
HN_M_POINTS = 48

# (name, quantity, law, alpha, beta, grid or single t, fault)
MEMORY_FAULTS = (
    ("fault/kernelM/hn/handoff", "kernelM", "hn", 0.6, 0.5, (0.01, 10.0, 20),
     "StrategyDisagreement at the series/contour handoff (exit 3)"),
    ("fault/kernelK/jws/handoff", "kernelK", "jws", 0.6, 0.5, 4.79,
     "StrategyDisagreement at the series/contour handoff (exit 3)"),
    ("fault/kernelM/cd/overflow", "kernelM", "cd", 1.0, 0.4, 100.0,
     "raw OverflowError from x ** (aa*b*r) in memory_time_with_bound"),
    ("fault/kernelM/hn/overflow", "kernelM", "hn", 0.75, 1.0 / 3.0, 200.0,
     "raw OverflowError from x ** (aa*b*r) in memory_time_with_bound"),
    ("fault/kernelK/jws/series", "kernelK", "jws", 0.6, 0.5, (0.1, 2.0, 4),
     "jws k renewal series off the reference by 1e-4 and more, with a tail bound near 1e-9"),
    ("fault/kernelK/mcd/talbot", "kernelK", "mcd", 1.0, 0.5, (0.01, 0.3, 4),
     "mcd k by 32-node Talbot off the reference by ~1e-6 at small t/tau"),
    ("fault/kernelK/cd/cancellation", "kernelK", "cd", 1.0, 0.5, 20.0,
     "cd k closed form x**-b E[1, 1-b; -b](-x) - 1 cancels: off by 7e-4 at t/tau = 20"),
)


def _hn_exponent(a: float, b: float, tau: float) -> Callable[[complex], complex]:
    """Characteristic exponent (1 - phi_hat)/phi_hat = (1 + (z tau)**a)**b - 1 of HN (B = 1)."""
    def psi(z: complex) -> complex:
        return (1.0 + (z * tau) ** a) ** b - 1.0
    return psi


def _efros_levy(kind: str, a: float, b: float, t: float):
    from relaxkit import laplace, models

    parent = models.ModelSpec("cd" if kind == "hn" else "mcd", 1.0, b)
    return laplace.efros_compose(
        lambda u: models.relaxation(parent, u),
        lambda u, tt: laplace.subordination_kernel(a, u, tt),
        t,
        rel_tol=1e-8,
    )


def _efros_debye(a: float, b: float, t: float):
    from relaxkit import laplace

    psi = _hn_exponent(a, b, 1.0)
    return laplace.efros_compose(
        lambda xi: math.exp(-xi),
        lambda xi, tt: laplace.subordination_pdf(psi, xi, tt),
        t,
        rel_tol=1e-8,
    )


def _efros_op(name: str, kind: str, route: str, a: float, b: float, t: float) -> Op:
    def run():
        if route == "levy":
            return _efros_levy(kind, a, b, t)
        return _efros_debye(a, b, t)

    def check(value) -> Optional[str]:
        from relaxkit import models

        direct = models.relaxation(models.ModelSpec(kind, a, b), t)
        err = abs(value - direct)
        return None if err <= EFROS_TOL else f"Efros composition off the direct n(t) by {err:.3g}"

    return Op(name, run, check=check)


def _residual_op(name: str, kind: str, a: float, b: float, t: float) -> Op:
    def run():
        from relaxkit import kernels, models

        cfg = kernels.KernelConfig(models.ModelSpec(kind, a, b))
        return kernels.evolution_residual(cfg, [t])

    def check(value) -> Optional[str]:
        return None if value <= RESIDUAL_TOL else f"evolution residual {value:.3g}"

    return Op(name, run, check=check)


def _single_t_draws(rng, n: int, alphas, betas) -> list:
    """n stratified (alpha, beta, t) draws with t/tau in [0.5, 2] (tau = 1)."""
    a = _cells(rng, n, *alphas)
    b = _cells(rng, n, *betas, step=n - 1)
    t = [10.0**v for v in _cells(rng, n, -0.3, 0.3, step=2 if n % 2 else 1)]
    return list(zip(a, b, t))


def _memory(seed: int) -> list:
    """Three cost classes, sized so that the median falls among the hn M
    renewal-series tables and the tail percentile among the Levy-parent
    compositions: 14 short kernel tables; 10 hn M tables, 3 Debye-parent
    compositions and 3 residuals; 14 Levy-parent compositions."""
    rng = _rng("memory", seed)
    ops = []
    for (quantity, law), (lo, hi) in _SHORT_SPANS.items():
        draws = _law_draws(rng, law, 2, alphas=(0.4, 0.9), betas=(0.3, 0.9))
        for d, (a, b, tau) in enumerate(draws):
            ops.append(_table_op(
                f"table/{quantity}/{law}/{d}", quantity, law, a, b, tau,
                lo * tau, hi * tau, KERNEL_POINTS,
            ))
    for d, (a, b, tau) in enumerate(_law_draws(rng, "hn", 10, alphas=(0.5, 0.8), betas=(0.4, 0.8))):
        lo, hi = _HN_M_SPAN
        ops.append(_table_op(f"table/kernelM/hn/{d}", "kernelM", "hn", a, b, tau,
                             lo * tau, hi * tau, HN_M_POINTS))
    for d, (a, b, t) in enumerate(_single_t_draws(rng, 3, (0.45, 0.65), (0.4, 0.8))):
        ops.append(_efros_op(f"efros/debye/hn/{d}", "hn", "debye", a, b, t))
    for d, (a, b, t) in enumerate(_single_t_draws(rng, 3, (0.45, 0.55), (0.45, 0.55))):
        kind = ("hn", "hn", "jws")[d]
        ops.append(_residual_op(f"residual/{kind}/{d}", kind, a, b, t))
    for kind in ("hn", "jws"):
        for d, (a, b, t) in enumerate(_single_t_draws(rng, 7, (0.45, 0.55), (0.4, 0.8))):
            ops.append(_efros_op(f"efros/levy/{kind}/{d}", kind, "levy", a, b, t))
    for name, quantity, law, a, b, where, fault in MEMORY_FAULTS:
        lo, hi, n = where if isinstance(where, tuple) else (where, where, 1)
        ops.append(_table_op(name, quantity, law, a, b, 1.0, lo, hi, n, fault=fault))
    return ops


# ---------------------------------------------------------------------------
# fit: datasets written by `relaxkit synth` during set-up
# ---------------------------------------------------------------------------

_EPS0, _EPSINF = 5.0, 2.0

# Seeded single fits keep away from the parameter corners where trial steps
# fail: decays also from small alpha and beta, where a trial step hits a
# StrategyDisagreement, and jws decays altogether (they crash near
# alpha = beta = 0.55 on about one seed in six).
FIT_RANGES = {"frequency": ((0.4, 0.9), (0.35, 0.9)), "time": ((0.5, 0.9), (0.5, 0.9))}
DECAY_LAWS = ("debye", "cc", "cd", "mcd", "hn", "kww")

# Auto fits crash when one candidate's trial step fails, depending on the
# data (in both domains), so they run on fixed datasets only, as does the
# jws decay.  The first four reproduce the crashes, the last two succeed.
# (name, domain, law, fitted kind, alpha, beta, noise, noise seed, fault)
FIT_FIXED = (
    ("fault/fit/time/jws", "time", "jws", "jws", 0.54, 0.55, 0.0, 0,
     "StrategyDisagreement from a trial step of a single-kind jws decay fit (exit 3)"),
    ("fault/fit-auto/time/hn", "time", "hn", "auto", 0.39, 0.36, 0.0, 0,
     "StrategyDisagreement from a candidate's trial step (exit 3)"),
    ("fault/fit-auto/time/jws", "time", "jws", "auto", 0.85, 0.5, 0.0, 0,
     "DomainError 'beta must be positive, got 0.0' from the saturated sigmoid (exit 2)"),
    ("fault/fit-auto/frequency/debye", "frequency", "debye", "auto", 1.0, 1.0, 0.01, 43,
     "raw ZeroDivisionError from beta = sigmoid(u)/alpha once alpha underflows to 0"),
    ("fit/auto/time/hn", "time", "hn", "auto", 0.75, 0.5, 0.0, 0, None),
    ("fit/auto/time/cc", "time", "cc", "auto", 0.6, 1.0, 0.0, 0, None),
)


@dataclass(frozen=True)
class Dataset:
    path: str
    domain: str
    law: str
    alpha: float
    beta: float
    tau: float
    noise: float


def _synth(workdir: str, name: str, domain: str, law: str, a: float, b: float, tau: float,
           noise: float, seed: int) -> Dataset:
    path = os.path.join(workdir, name.replace("/", "_") + ".csv")
    if domain == "frequency":
        grid = f"{_num(1e-3 / tau)}:{_num(1e3 / tau)}:{FIT_POINTS}"
    else:
        grid = f"{_num(1e-3 * tau)}:{_num(1e3 * tau)}:{FIT_POINTS}"
    run_cli([
        "synth", "--model", law, "--alpha", _num(a), "--beta", _num(b), "--tau", _num(tau),
        "--eps0", _num(_EPS0), "--epsinf", _num(_EPSINF), "--domain", domain,
        "--grid", grid, "--noise", _num(noise), "--seed", str(seed), "--output", path,
    ])
    return Dataset(path, domain, law, a, b, tau, noise)


def _generating_fit(ds: Dataset) -> tuple[float, float]:
    """(residual norm, data scale) of the generating model on the (rounded, noisy) dataset."""
    from relaxkit import fitio, models

    spec = models.ModelSpec(ds.law, ds.alpha, ds.beta, ds.tau)
    data = fitio.parse_csv(ds.path, ds.domain)
    if ds.domain == "frequency":
        scale = models.PermittivityScale(_EPS0, _EPSINF)
        model = np.array([models.permittivity(spec, scale, float(w)) for w in data.omega])
        r = np.concatenate([model[:, 0] - data.eps_re, model[:, 1] - data.eps_im])
        data_scale = float(np.max(np.abs(np.concatenate([data.eps_re, data.eps_im]))))
    else:
        r = np.array([models.relaxation(spec, float(t)) for t in data.t]) - data.n
        data_scale = float(np.max(np.abs(data.n)))
    return float(np.sqrt(r @ r)), data_scale


def _score(ds: Dataset, kind: str, residual: float, data_scale: float) -> float:
    """The information score ``fit --auto`` ranks candidates by."""
    from relaxkit import fitio

    k = 1 + (kind in ("cc", "hn", "jws", "kww")) + (kind in ("cd", "mcd", "hn", "jws"))
    n = FIT_POINTS
    if ds.domain == "frequency":
        k, n = k + 2, 2 * n
    return fitio.aicc_score(residual, n, k, data_scale)


def _fit_check(ds: Dataset, kind: str):
    """Noise-free fits recover the kind and parameters, noisy single fits reach
    the generating residual, and noisy auto fits score no worse than the
    generating model."""
    def check(text: str) -> Optional[str]:
        res = json.loads(text)
        gen, data_scale = _generating_fit(ds)
        if kind == "auto" and ds.noise == 0.0 and res["model"] != ds.law:
            return f"auto fit chose {res['model']} for noise-free {ds.law} data"
        if kind == "auto" and ds.noise > 0.0:
            best = _score(ds, res["model"], res["residual_norm"], data_scale)
            truth = _score(ds, ds.law, gen, data_scale)
            if best <= truth + 1e-9 * abs(truth):
                return None
            return f"auto fit chose {res['model']} scoring {best:.6g} above the generating {truth:.6g}"
        if ds.noise == 0.0:
            errs = [abs(res["alpha"] - ds.alpha), abs(res["beta"] - ds.beta),
                    abs(res["tau"] / ds.tau - 1.0)]
            if ds.domain == "frequency":
                errs += [abs(res["eps_static"] - _EPS0) / _EPS0, abs(res["eps_inf"] - _EPSINF) / _EPSINF]
            worst = max(errs)
            return None if worst <= FIT_PARAM_TOL else f"parameters recovered to {worst:.3g}"
        if res["residual_norm"] <= gen * (1.0 + FIT_RESIDUAL_SLACK):
            return None
        return f"fitted residual {res['residual_norm']:.6g} above generating {gen:.6g}"
    return check


def _fit_op(name: str, ds: Dataset, kind: str, fault: Optional[str] = None) -> Op:
    argv = ["fit", ds.path, "--domain", ds.domain]
    argv += ["--auto"] if kind == "auto" else ["--model", kind]
    return Op(name, lambda: run_cli(argv), check=_fit_check(ds, kind), fault=fault)


def _fit(seed: int, workdir: str) -> list:
    rng = _rng("fit", seed)
    os.makedirs(workdir, exist_ok=True)
    ops = []

    def synth(name, domain, law, a, b, tau, noise):
        return _synth(workdir, name, domain, law, a, b, tau, noise, seed * 1000 + len(ops))

    # six draws per spectrum law and per Prabhakar-law decay, two per
    # closed-form decay: the median falls among the spectrum fits and the
    # tail percentile among the Prabhakar decay fits
    for domain, laws in (("frequency", SPECTRAL_LAWS), ("time", DECAY_LAWS)):
        for law in laws:
            n = 6 if domain == "frequency" or law in PRABHAKAR_LAWS else 2
            for i, (a, b, tau) in enumerate(_law_draws(rng, law, n, *FIT_RANGES[domain])):
                noise = (0.0, 0.01)[i % 2]
                name = f"fit/{domain}/{law}/{noise}/{i // 2}"
                ops.append(_fit_op(name, synth(name, domain, law, a, b, tau, noise), law))
    for name, domain, law, kind, a, b, noise, nseed, fault in FIT_FIXED:
        ds = _synth(workdir, name, domain, law, a, b, 1.0, noise, nseed)
        ops.append(_fit_op(name, ds, kind, fault))
    return ops


def build(workload: str, seed: int, workdir: str) -> list:
    """The operation set of ``workload`` for ``seed``; fit writes its datasets to ``workdir``."""
    if workload == "time-grid":
        return _time_grid(seed)
    if workload == "memory":
        return _memory(seed)
    if workload == "fit":
        return _fit(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
