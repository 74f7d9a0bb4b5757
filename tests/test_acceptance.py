"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math

import numpy as np
from scipy.integrate import quad

from relaxkit import inversion, kernels, laplace, models, specfun
from relaxkit.fitio import fit, synthesize
from relaxkit.models import ModelSpec, PermittivityScale
from relaxkit.quadrature import tanh_sinh
from relaxkit.specfun import RationalOrder, levy_stable_density, prabhakar_rational

SCALE = PermittivityScale(5.0, 2.0)


def report(criterion: int, label: str, max_error: float, tolerance: float) -> None:
    status = "PASS" if max_error <= tolerance else "FAIL"
    print(f"[{status}] criterion {criterion:2d} ({label}): max_error={max_error:.3e} tol={tolerance:.0e}")
    assert max_error <= tolerance, f"criterion {criterion}: {max_error} > {tolerance}"


def test_criterion_01_debye_reductions():
    """Spectral, response, relaxation at alpha=beta=1 reduce to the Debye forms."""
    spec = ModelSpec("hn", alpha=1.0, beta=1.0, tau=1.0)
    worst = 0.0
    for w in np.logspace(-3, 3, 30):
        w = float(w)
        exact = 1.0 / (1.0 + 1j * w)
        worst = max(worst, abs(models.spectral(spec, w) - exact) / abs(exact))
    for t in np.logspace(-2, 1.3, 30):
        t = float(t)
        worst = max(worst, abs(models.response(spec, t) - math.exp(-t)) / math.exp(-t))
        worst = max(worst, abs(models.relaxation(spec, t) - math.exp(-t)) / math.exp(-t))
    report(1, "debye reductions", worst, 1e-12)


def test_criterion_02_representation_agreement():
    """Series, contour inversion and the rational-alpha sum pairwise within 1e-8."""
    worst = 0.0
    xs = np.logspace(-2, 2, 40)
    for order in (RationalOrder(1, 3), RationalOrder(1, 2), RationalOrder(2, 3), RationalOrder(3, 4)):
        a = order.alpha
        near = xs ** (1.0 / a) <= 10.0
        for beta in (1.0 / 3.0, 0.5, 1.0):
            for mu in (a * beta, 1.0, 1.0 + a * beta):
                # the route bodies themselves, each on its own
                with np.errstate(over="ignore", invalid="ignore"):
                    contour = specfun._contour(a, mu, beta, xs)
                    series = specfun._series(a, mu, beta, xs[near])[0].tolist()
                for i, x in enumerate(xs.tolist()):
                    values = [contour[i]]
                    if near[i]:
                        values.append(series.pop(0))
                        values.append(prabhakar_rational(order, mu, beta, x))
                    scale = max(abs(v) for v in values)
                    for i in range(len(values)):
                        for j in range(i + 1, len(values)):
                            worst = max(worst, abs(values[i] - values[j]) / scale)
    report(2, "representation agreement", worst, 1e-8)


def test_criterion_03_sonine_identity():
    """s * M_hat * k_hat = 1 for all six kernel-bearing models."""
    specs = [
        ModelSpec("debye"),
        ModelSpec("cc", alpha=0.6),
        ModelSpec("cd", beta=0.4),
        ModelSpec("mcd", beta=0.7),
        ModelSpec("hn", alpha=0.5, beta=0.5),
        ModelSpec("jws", alpha=0.75, beta=1.0 / 3.0),
    ]
    worst = 0.0
    for spec in specs:
        cfg = kernels.KernelConfig(spec, rate_B=2.3)
        for s in np.logspace(-3, 3, 30):
            s = float(s)
            worst = max(
                worst, abs(s * kernels.memory_M_hat(cfg, s) * kernels.memory_k_hat(cfg, s) - 1.0)
            )
    report(3, "sonine identity", worst, 1e-14)


def test_criterion_04_duality_identities():
    """Spectral sum identity to 1e-12; relaxation duality via the integral route to 1e-6."""
    worst_spectral = 0.0
    for (a, b) in ((0.3, 0.5), (0.5, 0.5), (0.75, 1 / 3)):
        spec = ModelSpec("jws", alpha=a, beta=b)
        for w in np.logspace(-2, 2, 30):
            w = float(w)
            mirrored = (1.0 + (1j * w) ** -a) ** -b
            worst_spectral = max(worst_spectral, abs(models.spectral(spec, w) + mirrored - 1.0))
    report(4, "duality: spectral sum", worst_spectral, 1e-12)

    worst_relax = 0.0
    spec = ModelSpec("jws", alpha=0.5, beta=0.5)
    tr = models.time_response(spec)
    for t in (0.5, 1.0, 2.0):
        integral, _ = tanh_sinh(tr.regular, 0.0, t, rel_tol=1e-10)
        # the mirrored-HN complement is the accumulated response mass
        worst_relax = max(worst_relax, abs(models.relaxation(spec, t) + integral - 1.0))
    report(4, "duality: relaxation (integral route)", worst_relax, 1e-6)


def _pdf_norm(spec):
    head, _ = tanh_sinh(lambda xi: models.pdf_g(spec, xi), 0.0, 1.0, rel_tol=1e-11)
    if spec.kind == "mcd":
        return head
    tail, _ = tanh_sinh(lambda v: models.pdf_g(spec, 1.0 / v) / v**2, 0.0, 1.0, rel_tol=1e-11)
    return head + tail


def test_criterion_05_pdf_suite():
    """Nonnegativity, normalization, exact supports, closed-form and dual-form agreement."""
    cases = [
        ModelSpec("hn", alpha=0.5, beta=0.5),
        ModelSpec("hn", alpha=0.75, beta=1 / 3),
        ModelSpec("jws", alpha=0.5, beta=0.5),
        ModelSpec("cc", alpha=0.7),
        ModelSpec("cd", beta=0.4),
        ModelSpec("mcd", beta=0.4),
    ]
    worst_neg = 0.0
    worst_norm = 0.0
    for spec in cases:
        for xi in np.logspace(-3, 3, 60):
            worst_neg = max(worst_neg, -models.pdf_g(spec, float(xi)))
        worst_norm = max(worst_norm, abs(_pdf_norm(spec) - 1.0))
    report(5, "pdf nonnegativity", worst_neg, 0.0)
    report(5, "pdf normalization", worst_norm, 1e-6)

    support = 0.0
    for xi in (0.2, 0.7, 1.0):
        support = max(support, abs(models.pdf_g(ModelSpec("cd", beta=0.5), xi)))
    for xi in (1.0, 1.5, 4.0):
        support = max(support, abs(models.pdf_g(ModelSpec("mcd", beta=0.5), xi)))
    report(5, "cd/mcd supports exact", support, 0.0)

    worst_cc = 0.0
    for xi in np.logspace(-2, 2, 40):
        xi = float(xi)
        a = 0.5
        closed = xi ** (a - 1.0) * math.sin(math.pi * a) / (
            math.pi * (xi ** (2 * a) + 2 * xi**a * math.cos(math.pi * a) + 1.0)
        )
        worst_cc = max(worst_cc, abs(models.pdf_g(ModelSpec("hn", alpha=0.5, beta=1.0), xi) - closed))
    report(5, "g_HN(beta=1) = closed CC form", worst_cc, 1e-12)

    worst_forms = 0.0
    for spec, grid in (
        (ModelSpec("hn", alpha=0.5, beta=0.5), (1.2, 2.0, 5.0)),
        (ModelSpec("hn", alpha=0.75, beta=1 / 3), (1.5, 3.0, 8.0)),
        (ModelSpec("jws", alpha=0.5, beta=0.5), (0.2, 0.5, 0.8)),
        (ModelSpec("jws", alpha=0.75, beta=1 / 3), (0.15, 0.4, 0.7)),
    ):
        for xi in grid:
            worst_forms = max(
                worst_forms,
                abs(models.pdf_g(spec, xi) - models.pdf_g_hypergeometric(spec, xi)),
            )
    report(5, "trig vs hypergeometric forms", worst_forms, 1e-9)

    lobe = min(
        models.pdf_g(ModelSpec("hn", alpha=0.75, beta=7 / 3, allow_unphysical=True), float(xi))
        for xi in np.logspace(-2, 2, 150)
    )
    report(5, "negative lobe for (3/4, 7/3)", 0.0 if lobe < 0.0 else 1.0, 0.0)


def test_criterion_06_mixture_representation():
    """Int exp(-t xi / tau) g(xi) dxi = n(t) for five models at t/tau in {0.1, 1, 10}."""
    cases = [
        ModelSpec("hn", alpha=0.5, beta=0.5),
        ModelSpec("jws", alpha=0.5, beta=0.5),
        ModelSpec("cc", alpha=0.7),
        ModelSpec("cd", beta=0.4),
        ModelSpec("mcd", beta=0.4),
    ]
    worst = 0.0
    for spec in cases:
        for t in (0.1, 1.0, 10.0):
            head, _ = tanh_sinh(
                lambda xi: math.exp(-t * xi) * models.pdf_g(spec, xi), 0.0, 1.0, rel_tol=1e-11
            )
            total = head
            if spec.kind != "mcd":
                tail, _ = tanh_sinh(
                    lambda v: math.exp(-t / v) * models.pdf_g(spec, 1.0 / v) / v**2,
                    0.0,
                    1.0,
                    rel_tol=1e-11,
                )
                total += tail
            worst = max(worst, abs(total - models.relaxation(spec, t)))
    report(6, "mixture representation", worst, 1e-5)


def test_criterion_07_subordination_equivalence():
    """Direct n(t) vs Debye-parent and CD/MCD-parent compositions, pairwise 1e-5."""
    worst = 0.0
    for kind, parent in (("hn", "cd"), ("jws", "mcd")):
        a = b = 0.5
        spec = ModelSpec(kind, alpha=a, beta=b)
        parent_spec = ModelSpec(parent, beta=b)
        cfg = kernels.KernelConfig(spec)

        def exponent(z):
            return cfg.rate_B * _ratio_z(spec, z)

        for t in (0.2, 1.0, 5.0):
            direct = models.relaxation(spec, t)
            via_debye = laplace.efros_compose(
                lambda xi: math.exp(-cfg.rate_B * xi),
                lambda xi, tt: laplace.subordination_pdf(exponent, xi, tt),
                t,
                rel_tol=1e-8,
            )
            via_levy = laplace.efros_compose(
                lambda u: models.relaxation(parent_spec, u),
                lambda u, tt: laplace.subordination_kernel(a, u, tt),
                t,
                rel_tol=1e-8,
            )
            for pair in ((direct, via_debye), (direct, via_levy), (via_debye, via_levy)):
                worst = max(worst, abs(pair[0] - pair[1]))
    report(7, "subordination equivalence", worst, 1e-5)


def _ratio_z(spec, z):
    zt = z * spec.tau
    a, b = spec.alpha, spec.beta
    if spec.kind == "hn":
        return (1.0 + zt**a) ** b - 1.0
    if spec.kind == "jws":
        return 1.0 / ((1.0 + zt**-a) ** b - 1.0)
    raise AssertionError


def test_criterion_08_evolution_residuals():
    """HN Caputo-type and JWS integral residuals below 1e-4; Caputo/RL identity."""
    ts = np.linspace(0.1, 5.0, 8)
    hn = kernels.KernelConfig(ModelSpec("hn", alpha=0.5, beta=0.5))
    jws = kernels.KernelConfig(ModelSpec("jws", alpha=0.5, beta=0.5))
    r_hn = kernels.evolution_residual(hn, ts)
    r_jws = kernels.evolution_residual(jws, ts)
    report(8, "HN Caputo-type residual", r_hn, 1e-4)
    report(8, "JWS integral residual", r_jws, 1e-4)
    ident = max(
        kernels.caputo_rl_identity_residual(hn, [0.3, 1.0, 3.0]),
        kernels.caputo_rl_identity_residual(jws, [0.3, 1.0, 3.0]),
    )
    report(8, "Caputo/RL operator identity", ident, 1e-4)


def test_criterion_09_asymptotics():
    """Exact/leading ratios: 1% at t/tau = 1e-4 and 2% at t/tau = 1e4, HN and JWS."""
    worst_short = 0.0
    worst_long = 0.0
    for kind in ("hn", "jws"):
        for (a, b) in ((0.75, 0.5), (0.6, 0.5)):
            spec = ModelSpec(kind, alpha=a, beta=b)
            for which, fn in (("response", models.response), ("relaxation", models.relaxation)):
                worst_short = max(
                    worst_short,
                    abs(fn(spec, 1e-4) / models.asymptotic(spec, which, "short", 1e-4) - 1.0),
                )
                worst_long = max(
                    worst_long,
                    abs(fn(spec, 1e4) / models.asymptotic(spec, which, "long", 1e4) - 1.0),
                )
    report(9, "short-time asymptotics", worst_short, 0.01)
    report(9, "long-time asymptotics", worst_long, 0.02)


def test_criterion_10_cm_spot_checks():
    """(n, n', n'') sign pattern (+, -, +) plus the Fig-1 shape checks."""
    cases = [
        ModelSpec("hn", alpha=0.5, beta=0.5),
        ModelSpec("hn", alpha=0.7, beta=0.9),
        ModelSpec("jws", alpha=0.5, beta=0.5),
        ModelSpec("jws", alpha=0.3, beta=1.0),
        ModelSpec("cc", alpha=0.6),
        ModelSpec("cd", beta=0.4),
        ModelSpec("mcd", beta=0.4),
        ModelSpec("debye"),
    ]
    worst = 0.0
    for spec in cases:
        for t in np.logspace(-2, 1, 50):
            n, d1, d2 = models.relaxation_derivatives(spec, float(t))
            worst = max(worst, -n, d1, -d2)
    report(10, "CM sign pattern", worst, 0.0)

    ts = np.logspace(-3, 1.5, 120)
    unimodal_spec = ModelSpec("hn", alpha=0.5, beta=3.0, allow_unphysical=True)
    values = [models.response(unimodal_spec, float(t)) for t in ts]
    peak = int(np.argmax(values))
    monotone_spec = ModelSpec("hn", alpha=0.5, beta=2.0, allow_unphysical=True)
    mono = [models.response(monotone_spec, float(t)) for t in ts]
    shape_ok = (0 < peak < len(ts) - 1) and all(b < a for a, b in zip(mono, mono[1:]))
    report(10, "Fig-1 shape checks", 0.0 if shape_ok else 1.0, 0.0)


def test_criterion_11_transform_round_trip():
    """forward(inverse(phi_hat)) = phi_hat at z in {0.5, 1, 2, 5}; Talbot vs Gaver-Stehfest."""
    specs = [
        ModelSpec("debye"),
        ModelSpec("cc", alpha=0.7),
        ModelSpec("cd", beta=0.4),
        ModelSpec("mcd", beta=0.6),
        ModelSpec("hn", alpha=0.5, beta=0.5),
        ModelSpec("jws", alpha=0.6, beta=0.5),
    ]
    worst = 0.0
    for spec in specs:
        image = models.laplace_image(spec)

        def original(t):
            return laplace.inverse_laplace(image, t)

        tail = models.response_tail_exponent(spec)
        for z in (0.5, 1.0, 2.0, 5.0):
            fw = laplace.forward_laplace(original, z, tail_exponent=tail, rel_tol=1e-8)
            target = image.evaluator(complex(z)).real
            worst = max(worst, abs(fw - target) / abs(target))
    report(11, "round trip", worst, 1e-5)

    # Gaver-Stehfest agreement is certified where the method is sound in
    # doubles: order 14 (the Salzer-weight noise floor) and t below ~tau/2
    # (beyond, the Gaver truncation error in the decaying tail dominates)
    worst_methods = 0.0
    for spec in specs:
        image = models.laplace_image(spec)
        for t in (0.2, 0.5):
            a = laplace.inverse_laplace(image, t)
            b = inversion.gaver_stehfest(image.regular, t, 14)
            worst_methods = max(worst_methods, abs(a - b) / max(abs(a), abs(b)))
    report(11, "Talbot vs Gaver-Stehfest", worst_methods, 1e-6)


def test_criterion_12_fit_recovery():
    """Noisy and noiseless synthetic recovery plus auto model selection."""
    truth = ModelSpec("hn", alpha=0.75, beta=1.0 / 3.0, tau=1.0)
    grid = np.logspace(-3, 3, 40)

    noisy = synthesize(truth, SCALE, grid, 0.01, seed=7)
    res = fit(noisy, "hn")
    worst_noisy = max(
        abs(res.spec.alpha - 0.75) / 0.75,
        abs(res.spec.beta - 1.0 / 3.0) / (1.0 / 3.0),
        abs(res.spec.tau - 1.0),
    )
    report(12, "1% noise recovery within 5%", worst_noisy, 0.05)

    clean = synthesize(truth, SCALE, grid, 0.0, seed=7)
    res = fit(clean, "hn")
    worst_clean = max(
        abs(res.spec.alpha - 0.75) / 0.75,
        abs(res.spec.beta - 1.0 / 3.0) / (1.0 / 3.0),
        abs(res.spec.tau - 1.0),
    )
    report(12, "noiseless recovery within 1e-6", worst_clean, 1e-6)

    ok = True
    for kind, a, b in (("cc", 0.7, 1.0), ("cd", 1.0, 0.4), ("jws", 0.6, 0.6)):
        ds = synthesize(ModelSpec(kind, alpha=a, beta=b, tau=2.0), SCALE, grid / 2.0, 0.0, seed=3)
        ok = ok and fit(ds, "auto").spec.kind == kind
    report(12, "auto selects generating model", 0.0 if ok else 1.0, 0.0)


def test_criterion_13_levy_density():
    """Normalization to 1e-6, forward transform to 1e-7, closed form to 1e-9."""
    norm, _ = quad(lambda u: levy_stable_density(0.7, u), 0.0, np.inf, limit=300)
    report(13, "levy normalization", abs(norm - 1.0), 1e-6)

    worst_fw = 0.0
    for alpha in (0.3, 0.5, 0.8):
        for z in (0.5, 1.0, 2.0):
            fw, _ = quad(
                lambda u: math.exp(-z * u) * levy_stable_density(alpha, u), 0.0, np.inf, limit=300
            )
            worst_fw = max(worst_fw, abs(fw - math.exp(-(z**alpha))))
    report(13, "levy forward transform", worst_fw, 1e-7)

    worst_cf = 0.0
    for x in (0.25, 0.5, 1.0, 2.0, 10.0):
        closed = x**-1.5 * math.exp(-1.0 / (4.0 * x)) / (2.0 * math.sqrt(math.pi))
        worst_cf = max(worst_cf, abs(levy_stable_density(0.5, x) - closed) / closed)
    report(13, "levy alpha=1/2 closed form", worst_cf, 1e-9)
