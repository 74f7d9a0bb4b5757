"""Self-verification suites: the library's analytic identities run as numeric checks.

Each suite returns a list of :class:`CheckResult`; the CLI renders them as a
machine-readable report.  Suites are deterministic (no wall clock, no
unseeded randomness) and sized to run in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, laplace, models
from .exceptions import DomainError
from .quadrature import tanh_sinh

__all__ = ["CheckResult", "SUITES", "run_suite", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _spec(kind, a=1.0, b=1.0, **kw):
    return models.ModelSpec(kind, alpha=a, beta=b, **kw)


def _mixture_integral(spec: models.ModelSpec, t: float) -> float:
    """Int_0^inf exp(-t xi / tau) g(xi) dxi via split tanh-sinh quadrature."""
    x = t / spec.tau

    def low(xi: np.ndarray) -> np.ndarray:
        return np.exp(-x * xi) * models.pdf_g(spec, xi)

    head, _ = tanh_sinh(low, 0.0, 1.0, rel_tol=1e-11)
    if spec.kind == "mcd":
        return head

    def high(v: np.ndarray) -> np.ndarray:
        xi = 1.0 / v
        return np.exp(-x * xi) * models.pdf_g(spec, xi) * xi * xi

    tail, _ = tanh_sinh(high, 0.0, 1.0, rel_tol=1e-11)
    return head + tail


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_sonine() -> list[CheckResult]:
    """s * M_hat * k_hat = 1 for all kernel-bearing models across s in [1e-3, 1e3]."""
    out = []
    specs = [
        _spec("debye"),
        _spec("cc", 0.6),
        _spec("cd", 1.0, 0.4),
        _spec("mcd", 1.0, 0.7),
        _spec("hn", 0.5, 0.5),
        _spec("jws", 0.75, 1 / 3),
    ]
    for spec in specs:
        cfg = kernels.KernelConfig(spec, rate_B=1.7)
        worst = 0.0
        for s in np.logspace(-3, 3, 25):
            prod = s * kernels.memory_M_hat(cfg, float(s)) * kernels.memory_k_hat(cfg, float(s))
            worst = max(worst, abs(prod - 1.0))
        out.append(CheckResult("sonine", f"sonine-{spec.kind}", worst, 1e-14))
    return out


def suite_duality() -> list[CheckResult]:
    """Spectral and relaxation duality between the JWS and mirrored HN patterns."""
    out = []
    worst = 0.0
    for (a, b) in ((0.3, 0.5), (0.5, 0.5), (0.75, 1 / 3)):
        spec = _spec("jws", a, b)
        for w in np.logspace(-2, 2, 30):
            lhs = models.spectral(spec, float(w))
            mirrored = (1.0 + (1j * w) ** -a) ** -b
            worst = max(worst, abs(lhs + mirrored - 1.0))
    out.append(CheckResult("duality", "spectral-sum", worst, 1e-12))

    # n_jws(t) = 1 - Int_0^t phi_jws_regular(u) du (the mirrored-order route)
    worst = 0.0
    spec = _spec("jws", 0.5, 0.5)
    for t in (0.5, 1.0, 2.0):
        tr = models.time_response(spec)
        integral, _ = tanh_sinh(tr.regular, 0.0, t, rel_tol=1e-10)
        worst = max(worst, abs((1.0 - integral) - models.relaxation(spec, t)))
    out.append(CheckResult("duality", "relaxation-sum", worst, 1e-6))
    return out


def suite_pdf() -> list[CheckResult]:
    """Nonnegativity, normalization, supports and form agreement of g(xi)."""
    out = []
    cases = [
        _spec("hn", 0.75, 1 / 3),
        _spec("hn", 0.5, 0.5),
        _spec("jws", 0.5, 0.5),
        _spec("cc", 0.7),
        _spec("cd", 1.0, 0.4),
        _spec("mcd", 1.0, 0.4),
    ]
    worst_neg = 0.0
    worst_norm = 0.0
    for spec in cases:
        worst_neg = max(worst_neg, -float(models.pdf_g(spec, np.logspace(-3, 3, 60)).min()))
        worst_norm = max(worst_norm, abs(_mixture_integral(spec, 0.0) - 1.0))
    out.append(CheckResult("pdf", "nonnegative-valid-regime", worst_neg, 0.0))
    out.append(CheckResult("pdf", "normalization", worst_norm, 1e-6))

    support = max(
        max(models.pdf_g(_spec("cd", 1.0, 0.5), xi) for xi in (0.2, 0.7, 1.0)),
        max(models.pdf_g(_spec("mcd", 1.0, 0.5), xi) for xi in (1.0, 1.5, 4.0)),
    )
    out.append(CheckResult("pdf", "cd-mcd-supports-exact", support, 0.0))

    xi = np.logspace(-2, 2, 40)
    cc_form, hn_b1 = models.pdf_g(_spec("cc", 0.5), xi), models.pdf_g(_spec("hn", 0.5, 1.0), xi)
    worst = float(np.abs(cc_form - hn_b1).max())
    out.append(CheckResult("pdf", "hn-beta1-equals-cc", worst, 1e-12))

    worst = 0.0
    for spec, grid in (
        (_spec("hn", 0.5, 0.5), (1.2, 2.0, 5.0)),
        (_spec("hn", 0.75, 1 / 3), (1.5, 3.0, 8.0)),
        (_spec("jws", 0.5, 0.5), (0.2, 0.5, 0.8)),
        (_spec("jws", 0.75, 1 / 3), (0.15, 0.4, 0.7)),
    ):
        for xi in grid:
            worst = max(
                worst,
                abs(models.pdf_g(spec, xi) - models.pdf_g_hypergeometric(spec, xi)),
            )
    out.append(CheckResult("pdf", "trig-vs-hypergeometric", worst, 1e-9))

    out.append(_negative_lobe("pdf", "negative-lobe-beyond-regime"))
    return out


def _negative_lobe(suite: str, name: str) -> CheckResult:
    """The negative lobe of g beyond the regime (hn at beta = 7/3 > 1/alpha), on 120 points
    (shared by the pdf and figures suites)."""
    spec = _spec("hn", 0.75, 7 / 3, allow_unphysical=True)
    lobe = models.pdf_g(spec, np.logspace(-2, 2, 120)).min()
    return CheckResult(suite, name, 0.0 if lobe < 0 else 1.0, 0.5)


def suite_subordination() -> list[CheckResult]:
    """Direct n(t) against the Debye-parent and Levy-parent compositions."""
    out = []
    for kind, parent in (("hn", "cd"), ("jws", "mcd")):
        a, b = 0.5, 0.5
        spec = _spec(kind, a, b)
        pspec = _spec(parent, 1.0, b)
        cfg = kernels.KernelConfig(spec)
        worst_debye = 0.0
        worst_levy = 0.0
        for t in (0.2, 1.0, 5.0):
            direct = models.relaxation(spec, t)
            via_debye = laplace.efros_compose(
                lambda xi: math.exp(-cfg.rate_B * xi),
                lambda xi, tt: laplace.subordination_pdf(
                    lambda z: cfg.rate_B * models._ratio(spec, z * spec.tau), xi, tt
                ),
                t,
                rel_tol=1e-8,
            )
            via_levy = laplace.efros_compose(
                lambda u: models.relaxation(pspec, u),
                lambda u, tt: laplace.subordination_kernel(a, u, tt),
                t,
                rel_tol=1e-8,
            )
            worst_debye = max(worst_debye, abs(via_debye - direct))
            worst_levy = max(worst_levy, abs(via_levy - direct))
        out.append(CheckResult("subordination", f"{kind}-debye-parent", worst_debye, 1e-5))
        out.append(CheckResult("subordination", f"{kind}-{parent}-parent", worst_levy, 1e-5))

    worst = 0.0
    for (a, t) in ((0.3, 0.1), (0.5, 1.0), (0.8, 10.0)):
        total = laplace.efros_compose(
            lambda u: 1.0, lambda u, tt: laplace.subordination_kernel(a, u, tt), t
        )
        worst = max(worst, abs(total - 1.0))
    out.append(CheckResult("subordination", "kernel-normalization", worst, 1e-6))
    return out


def suite_cm() -> list[CheckResult]:
    """Sign pattern (+, -, +) of (n, n', n'') and the Fig-1-type shape checks."""
    out = []
    cases = [
        _spec("hn", 0.5, 0.5),
        _spec("hn", 0.7, 0.9),
        _spec("jws", 0.5, 0.5),
        _spec("jws", 0.3, 1.0),
        _spec("cc", 0.6),
        _spec("cd", 1.0, 0.4),
        _spec("mcd", 1.0, 0.4),
        _spec("debye"),
    ]
    worst = 0.0
    for spec in cases:
        n, d1, d2 = models.relaxation_derivatives(spec, np.logspace(-2, 1, 50))
        worst = max(worst, float(np.max(-n)), float(np.max(d1)), float(np.max(-d2)))
    out.append(CheckResult("cm", "sign-pattern", worst, 0.0))
    return out + _response_shapes("cm")


def _response_shapes(suite: str) -> list[CheckResult]:
    """The Fig-1-type HN response shapes beyond the regime: unimodal at beta = 3,
    monotone at beta = 2 (shared by the cm and figures suites)."""
    ts = np.logspace(-3, 1.5, 120)
    beyond = _spec("hn", 0.5, 3.0, allow_unphysical=True)
    peak = int(np.argmax(models.response(beyond, ts)))
    unimodal = 0 < peak < len(ts) - 1
    at_regime = _spec("hn", 0.5, 2.0, allow_unphysical=True)
    decreasing = bool(np.all(np.diff(models.response(at_regime, ts)) < 0.0))
    return [
        CheckResult(suite, "response-unimodal-beta3", 0.0 if unimodal else 1.0, 0.5),
        CheckResult(suite, "response-monotone-beta2", 0.0 if decreasing else 1.0, 0.5),
    ]


def suite_asymptotics() -> list[CheckResult]:
    """Exact/leading ratios at t/tau = 1e-4 and 1e4 for the HN and JWS pairs."""
    out = []
    for kind in ("hn", "jws"):
        worst_s = 0.0
        worst_l = 0.0
        for (a, b) in ((0.75, 0.5), (0.6, 0.5)):
            spec = _spec(kind, a, b)
            for which, exact_fn in (
                ("response", models.response),
                ("relaxation", models.relaxation),
            ):
                exact_s = exact_fn(spec, 1e-4)
                lead_s = models.asymptotic(spec, which, "short", 1e-4)
                worst_s = max(worst_s, abs(exact_s / lead_s - 1.0))
                exact_l = exact_fn(spec, 1e4)
                lead_l = models.asymptotic(spec, which, "long", 1e4)
                worst_l = max(worst_l, abs(exact_l / lead_l - 1.0))
        out.append(CheckResult("asymptotics", f"{kind}-short", worst_s, 0.01))
        out.append(CheckResult("asymptotics", f"{kind}-long", worst_l, 0.02))
    return out


def suite_figures() -> list[CheckResult]:
    """Qualitative shapes: response unimodality/monotonicity and the pdf negative lobe."""
    return _response_shapes("figures") + [_negative_lobe("figures", "pdf-negative-lobe")]


def suite_mixture() -> list[CheckResult]:
    """Mixture representation: Int exp(-t xi/tau) g(xi) dxi = n(t), n by Talbot inversion
    of its image (1 - phi_hat(z)) / z (``relaxation`` itself evaluates cc, hn and jws as
    this integral on a fixed rule, so it is no independent oracle)."""
    cases = [
        _spec("hn", 0.5, 0.5),
        _spec("jws", 0.5, 0.5),
        _spec("cc", 0.7),
        _spec("cd", 1.0, 0.4),
        _spec("mcd", 1.0, 0.4),
    ]
    worst = 0.0
    for spec in cases:
        phi_hat = models.laplace_image(spec).evaluator
        n_hat = laplace.LaplaceImage(lambda z: (1.0 - phi_hat(z)) / z)
        for t in (0.1, 1.0, 10.0):
            worst = max(worst, abs(_mixture_integral(spec, t) - laplace.inverse_laplace(n_hat, t)))
    return [CheckResult("mixture", "laplace-mixture", worst, 1e-5)]


def suite_evolution() -> list[CheckResult]:
    """Evolution-equation residuals and the Caputo/RL operator identity."""
    out = []
    ts = np.linspace(0.1, 5.0, 6)
    for spec in (_spec("hn", 0.5, 0.5), _spec("jws", 0.5, 0.5)):
        cfg = kernels.KernelConfig(spec)
        out.append(
            CheckResult(
                "evolution", f"{spec.kind}-residual", kernels.evolution_residual(cfg, ts), 1e-4
            )
        )
        out.append(
            CheckResult(
                "evolution",
                f"{spec.kind}-caputo-rl-identity",
                kernels.caputo_rl_identity_residual(cfg, [0.3, 1.0, 3.0]),
                1e-4,
            )
        )
    return out


SUITES = {
    "sonine": suite_sonine,
    "duality": suite_duality,
    "pdf": suite_pdf,
    "subordination": suite_subordination,
    "cm": suite_cm,
    "asymptotics": suite_asymptotics,
    "figures": suite_figures,
    "mixture": suite_mixture,
    "evolution": suite_evolution,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return run_all()
    if name not in SUITES:
        raise DomainError(
            f"unknown verify suite {name!r}; expected one of {sorted(SUITES)} or 'all'"
        )
    return SUITES[name]()


def run_all() -> list[CheckResult]:
    out = []
    for name in SUITES:
        out.extend(SUITES[name]())
    return out
