"""Dataset parsing, synthesis, least-squares fitting and model comparison."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxkit import fitio
from relaxkit.exceptions import DomainError, EmptyDataset, NonConvergent, ParseError
from relaxkit.fitio import (
    FitResult,
    SpectrumDataset,
    TimeDataset,
    compare,
    fit,
    _jacobian,
    _Problem,
    fit_result_to_json,
    parse_csv,
    synthesize,
)
from relaxkit.inversion import talbot_sum
from relaxkit.models import KINDS, ModelSpec, PermittivityScale, _partials, permittivity, relaxation

SCALE = PermittivityScale(5.0, 2.0)
GRID = np.logspace(-3, 3, 40)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

GOOD_FREQ = """# a comment line
omega,eps_re,eps_im
0.1,4.9,0.2
1.0,3.5,1.2
10.0,2.1,0.3
"""


def test_parse_frequency():
    ds = parse_csv(io.StringIO(GOOD_FREQ), "frequency")
    assert len(ds) == 3
    assert ds.omega[1] == 1.0
    assert ds.eps_im[2] == 0.3
    assert ds.weights is None


def test_parse_weight_column():
    text = "omega,eps_re,eps_im,weight\n0.1,4.9,0.2,1.0\n1.0,3.5,1.2,2.0\n"
    ds = parse_csv(io.StringIO(text), "frequency")
    assert ds.weights is not None and ds.weights[1] == 2.0


def test_parse_time():
    text = "t,n\n0.0,1.0\n1.0,0.5\n2.0,0.2\n"
    ds = parse_csv(io.StringIO(text), "time")
    assert len(ds) == 3 and ds.n[0] == 1.0


def test_parse_malformed_row_reports_line():
    text = "omega,eps_re,eps_im\n0.1,4.9,0.2\n1.0,oops,1.2\n"
    with pytest.raises(ParseError) as err:
        parse_csv(io.StringIO(text), "frequency")
    assert err.value.line == 3


def test_parse_wrong_field_count():
    text = "omega,eps_re,eps_im\n0.1,4.9\n"
    with pytest.raises(ParseError) as err:
        parse_csv(io.StringIO(text), "frequency")
    assert err.value.line == 2


def test_parse_non_monotone_omega():
    text = "omega,eps_re,eps_im\n1.0,4.9,0.2\n0.5,3.5,1.2\n"
    with pytest.raises(ParseError):
        parse_csv(io.StringIO(text), "frequency")


@pytest.mark.parametrize(
    "domain, text, line, reason",
    [
        ("time", "t,n\n0.0,1.0\n1.0,nan\n2.0,0.3\n3.0,0.2\n4.0,0.1\n", 3, "n values must be finite"),
        (
            "frequency",
            "omega,eps_re,eps_im\n0.1,4.9,0.2\n1.0,3.5,1.2\n0.5,3.0,1.0\n10.0,2.1,0.3\n20.0,2.0,0.1\n",
            4,
            "omega values must be positive and strictly increasing",
        ),
        ("time", "t,n,weight\n0.0,1.0,1.0\n1.0,0.5,1.0\n2.0,0.3,0.0\n3.0,0.2,1.0\n", 4,
         "weights must be positive"),
        # the first offending row's reason, not the one the whole dataset fails on first
        (
            "time",
            "t,n\n0.0,1.0\n2.0,0.5\n1.0,0.3\n3.0,0.2\n4.0,nan\n",
            4,
            "t values must be nonnegative and strictly increasing",
        ),
    ],
    ids=["time", "frequency", "weight", "two-faults"],
)
def test_parse_reports_the_line_of_the_first_offending_row(domain, text, line, reason):
    with pytest.raises(ParseError) as err:
        parse_csv(io.StringIO(text), domain)
    assert (err.value.line, err.value.reason) == (line, reason)


def test_parse_bad_header():
    with pytest.raises(ParseError):
        parse_csv(io.StringIO("freq,re,im\n1,2,3\n"), "frequency")


def test_parse_empty():
    with pytest.raises(EmptyDataset):
        parse_csv(io.StringIO("omega,eps_re,eps_im\n# nothing\n"), "frequency")


def test_dataset_warnings():
    with pytest.warns(UserWarning):
        SpectrumDataset([0.1, 1.0], [3.0, 2.5], [0.1, -0.2])
    with pytest.warns(UserWarning):
        TimeDataset([0.0, 1.0], [0.5, 0.2])


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_noiseless_exact():
    from relaxkit.models import permittivity

    spec = ModelSpec("hn", alpha=0.75, beta=1 / 3)
    ds = synthesize(spec, SCALE, GRID, 0.0, seed=0)
    re, im = permittivity(spec, SCALE, float(GRID[7]))
    assert ds.eps_re[7] == re and ds.eps_im[7] == im


def test_synthesize_deterministic():
    spec = ModelSpec("cc", alpha=0.7)
    a = synthesize(spec, SCALE, GRID, 0.02, seed=11)
    b = synthesize(spec, SCALE, GRID, 0.02, seed=11)
    c = synthesize(spec, SCALE, GRID, 0.02, seed=12)
    assert np.array_equal(a.eps_re, b.eps_re) and np.array_equal(a.eps_im, b.eps_im)
    assert not np.array_equal(a.eps_re, c.eps_re)


def test_synthesize_time_domain():
    spec = ModelSpec("kww", alpha=0.6, tau=2.0)
    ds = synthesize(spec, None, np.logspace(-2, 1, 20), 0.0, seed=0, domain="time")
    assert ds.n[0] == pytest.approx(math.exp(-((0.01 / 2.0) ** 0.6)), rel=1e-12)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_debye_noiseless():
    ds = synthesize(ModelSpec("debye", tau=1.0), SCALE, GRID, 0.0, seed=1)
    res = fit(ds, "debye")
    assert res.converged
    assert res.spec.tau == pytest.approx(1.0, rel=1e-6)
    assert res.residual_norm < 1e-10


def test_fit_hn_noiseless_recovery():
    truth = ModelSpec("hn", alpha=0.75, beta=1.0 / 3.0, tau=1.0)
    ds = synthesize(truth, SCALE, GRID, 0.0, seed=7)
    res = fit(ds, "hn")
    assert res.spec.alpha == pytest.approx(0.75, rel=1e-6)
    assert res.spec.beta == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert res.spec.tau == pytest.approx(1.0, rel=1e-6)
    assert res.scale.eps_static == pytest.approx(5.0, rel=1e-6)
    assert res.scale.eps_inf == pytest.approx(2.0, rel=1e-6)
    assert res.residual_norm < 1e-10


def test_fit_idempotent():
    truth = ModelSpec("hn", alpha=0.75, beta=1.0 / 3.0, tau=1.0)
    ds = synthesize(truth, SCALE, GRID, 0.01, seed=5)
    first = fit(ds, "hn")
    again = fit(ds, "hn", init=first.spec, init_scale=first.scale)
    assert again.spec.alpha == pytest.approx(first.spec.alpha, abs=1e-8)
    assert again.spec.beta == pytest.approx(first.spec.beta, abs=1e-8)
    assert again.spec.tau == pytest.approx(first.spec.tau, abs=1e-8)


def test_fit_deterministic():
    ds = synthesize(ModelSpec("hn", alpha=0.75, beta=1 / 3), SCALE, GRID, 0.01, seed=5)
    a, b = fit(ds, "hn"), fit(ds, "hn")
    assert a == b


def test_fit_scale_equivariance():
    truth = ModelSpec("hn", alpha=0.75, beta=1.0 / 3.0, tau=1.0)
    base = synthesize(truth, SCALE, GRID, 0.0, seed=5)
    c = 1000.0
    shifted = SpectrumDataset(base.omega * c, base.eps_re, base.eps_im)
    r1, r2 = fit(base, "hn"), fit(shifted, "hn")
    assert r2.spec.tau * c == pytest.approx(r1.spec.tau, rel=1e-5)
    assert r2.spec.alpha == pytest.approx(r1.spec.alpha, abs=1e-6)
    assert r2.spec.beta == pytest.approx(r1.spec.beta, abs=1e-6)


def test_fit_needs_enough_points():
    ds = synthesize(ModelSpec("debye"), SCALE, np.logspace(-1, 1, 4), 0.0, seed=0)
    with pytest.raises(DomainError):
        fit(ds, "debye")


def test_fit_time_domain_kww():
    grid = np.logspace(-2, 1.5, 30)
    ds = synthesize(ModelSpec("kww", alpha=0.65, tau=1.3), None, grid, 0.0, seed=2, domain="time")
    res = fit(ds, "kww")
    assert res.spec.alpha == pytest.approx(0.65, rel=1e-6)
    assert res.spec.tau == pytest.approx(1.3, rel=1e-6)


def test_fit_kww_rejects_frequency_data():
    ds = synthesize(ModelSpec("debye"), SCALE, GRID, 0.0, seed=0)
    with pytest.raises(DomainError):
        fit(ds, "kww")


def test_fit_weights_pull_solution():
    # two inconsistent halves; the weighted fit should track the heavy half
    spec_a = ModelSpec("debye", tau=1.0)
    spec_b = ModelSpec("debye", tau=3.0)
    grid = np.logspace(-2, 2, 24)
    da = synthesize(spec_a, SCALE, grid, 0.0, seed=0)
    db = synthesize(spec_b, SCALE, grid, 0.0, seed=0)
    mixed_re = np.concatenate([da.eps_re[:12], db.eps_re[12:]])
    mixed_im = np.concatenate([da.eps_im[:12], db.eps_im[12:]])
    heavy_a = np.concatenate([np.full(12, 100.0), np.full(12, 1e-3)])
    heavy_b = np.concatenate([np.full(12, 1e-3), np.full(12, 100.0)])
    ra = fit(SpectrumDataset(grid, mixed_re, mixed_im, weights=heavy_a), "debye")
    rb = fit(SpectrumDataset(grid, mixed_re, mixed_im, weights=heavy_b), "debye")
    assert abs(ra.spec.tau - 1.0) < 0.2
    assert abs(rb.spec.tau - 3.0) < 1.0


# ---------------------------------------------------------------------------
# model comparison / auto
# ---------------------------------------------------------------------------


def test_compare_tie_break_prefers_fewer_parameters():
    ds = synthesize(ModelSpec("debye", tau=1.0), SCALE, GRID, 0.0, seed=3)
    ranked = compare(ds, ("hn", "debye"))
    assert ranked[0][0] == "debye"


def test_auto_selects_generating_kind():
    for kind, a, b in (("cc", 0.7, 1.0), ("cd", 1.0, 0.4), ("jws", 0.6, 0.6)):
        ds = synthesize(ModelSpec(kind, alpha=a, beta=b, tau=2.0), SCALE, GRID / 2.0, 0.0, seed=3)
        res = fit(ds, "auto")
        assert res.spec.kind == kind


def test_unpack_saturated_sigmoid_gives_valid_spec():
    ds = synthesize(ModelSpec("hn", alpha=0.6, beta=0.5), SCALE, GRID, 0.0, seed=0)
    problem = _Problem(ds, "hn", False, None, None)
    for index in (0, 1):
        u = problem.u0.copy()
        u[index] = -800.0
        spec, scale = problem.unpack(u)
        assert 0.0 < spec.alpha <= 1.0 and 0.0 < spec.beta <= 1.0 / spec.alpha
        assert scale is not None
        assert fitio._stderr(problem, u, problem.residuals(u)).keys() == set(problem.names)


def test_auto_time_fit_survives_sigmoid_saturation():
    # a trial step of one candidate drives beta = sigmoid(u) / alpha to 0.0;
    # the CSV round trip (12 significant digits) is what puts the fit there
    grid = np.logspace(-3, 3, 40)
    ds = synthesize(ModelSpec("jws", alpha=0.85, beta=0.5), None, grid, 0.0, seed=0, domain="time")
    text = "t,n\n" + "".join(f"{t:.12g},{n:.12g}\n" for t, n in zip(ds.t, ds.n))
    res = fit(parse_csv(io.StringIO(text), "time"), "auto")
    assert res.spec.kind == "jws"
    assert res.spec.alpha == pytest.approx(0.85, rel=1e-6)


def test_compare_single_candidate():
    ds = synthesize(ModelSpec("debye"), SCALE, GRID, 0.0, seed=0)
    ranked = compare(ds, ("debye",))
    assert len(ranked) == 1 and math.isfinite(ranked[0][1])


def test_compare_ranking_deterministic():
    ds = synthesize(ModelSpec("jws", alpha=0.6, beta=0.6), SCALE, GRID, 0.005, seed=9)
    r1 = compare(ds, ("cc", "hn", "jws"))
    r2 = compare(ds, ("cc", "hn", "jws"))
    assert [k for k, _, _ in r1] == [k for k, _, _ in r2]
    assert r1[0][0] == "jws"


def test_fit_result_json_schema():
    ds = synthesize(ModelSpec("debye", tau=1.0), SCALE, GRID, 0.0, seed=4)
    res = fit(ds, "debye")
    doc = json.loads(fit_result_to_json(res))
    assert set(doc) == {
        "model",
        "alpha",
        "beta",
        "tau",
        "eps_static",
        "eps_inf",
        "residual_norm",
        "converged",
        "iterations",
        "stderr",
    }
    assert doc["model"] == "debye"
    assert isinstance(doc["stderr"], dict) and "tau" in doc["stderr"]


# ---------------------------------------------------------------------------
# exact Jacobian
# ---------------------------------------------------------------------------

# a representative of each kind: its free parameters away from the boundaries
SHAPES = {"debye": (1.0, 1.0), "cc": (0.7, 1.0), "cd": (1.0, 0.4), "mcd": (1.0, 0.6),
          "hn": (0.6, 0.5), "jws": (0.7, 0.6), "kww": (0.6, 1.0)}


def _problem(kind, domain, strict, grid=np.logspace(-3, 3, 24)):
    spec = ModelSpec(kind, *SHAPES[kind], tau=1.5)
    scale = SCALE if domain == "frequency" else None
    ds = synthesize(spec, scale, grid, 0.01, seed=4, domain=domain)
    return _Problem(ds, kind, strict, None, None)


def _central_differences(problem, u, h=1e-4):
    cols = []
    for j in range(u.size):
        step = np.zeros(u.size)
        step[j] = h * (1.0 + abs(u[j]))
        cols.append((problem.residuals(u + step) - problem.residuals(u - step)) / (2.0 * step[j]))
    return np.column_stack(cols)


def _assert_matches_differences(problem, u, scale=None):
    """Exact and differenced Jacobian agree to 1e-6 of each column's maximum (or of ``scale``)."""
    exact, fd = _jacobian(problem, u), _central_differences(problem, u)
    if scale is None:
        scale = np.max(np.abs(fd), axis=0)
    assert np.all(np.abs(exact - fd) <= 1e-6 * scale)


SWEEP = [(k, d, s) for k in KINDS for d in ("frequency", "time") for s in (False, True)
         if not (k == "kww" and d == "frequency")]


@pytest.mark.parametrize("kind,domain,strict", SWEEP)
@settings(max_examples=6, deadline=None)
@given(offsets=st.lists(st.floats(-1.5, 1.5), min_size=5, max_size=5))
# hn decays here took the expansion at t/tau = 52, where a Gamma-pole coefficient
# (1/Gamma(1 - 0.7*10) as rounding noise) stopped it at 3.8e-9 for some betas
@example(offsets=[0.0, 1.5, 0.25, 0.0, 0.0])
def test_exact_jacobian_matches_central_differences(kind, domain, strict, offsets):
    problem = _problem(kind, domain, strict)
    _assert_matches_differences(problem, problem.u0 + np.array(offsets[: problem.u0.size]))


@pytest.mark.parametrize("domain", ["frequency", "time"])
def test_saturated_sigmoid_has_a_zero_column(domain):
    # at the floor the model is flat in every shape direction, so the columns
    # are compared on the scale of the Jacobian at the starting point
    problem = _problem("hn", domain, False)
    scale = np.max(np.abs(_jacobian(problem, problem.u0)), axis=0)
    for index in (0, 1):
        u = problem.u0.copy()
        u[index] = -800.0
        with np.errstate(over="ignore"):  # alpha = 1e-12 with beta = sigmoid(u2) / alpha
            J = _jacobian(problem, u)
            assert np.all(J[:, index] == 0.0)
            _assert_matches_differences(problem, u, scale)


@pytest.mark.parametrize("kind", ["hn", "jws", "kww"])
def test_time_sample_at_zero_has_a_zero_row(kind):
    problem = _problem(kind, "time", False, grid=np.concatenate([[0.0], np.logspace(-3, 3, 24)]))
    J = _jacobian(problem, problem.u0)
    assert np.all(J[0] == 0.0) and np.all(np.any(J[1:] != 0.0, axis=1))
    _assert_matches_differences(problem, problem.u0)


def _all_partials(spec, p):
    """d phi_hat / d(alpha, beta, log tau) from complex logs and powers of p itself: the
    reference for the factored partials."""
    a, b = spec.alpha, spec.beta
    log_p = np.log(p)
    if spec.kind in ("mcd", "jws"):
        Q = np.exp(-a * log_p)
        R = 1.0 + Q
        log_R = np.log(R)
        psi = np.exp(-b * log_R)
        s = b * psi * Q / R
        return np.stack([-s * log_p, log_R * psi, -a * s], axis=-1)
    q = np.exp(a * log_p)
    P = 1.0 + q
    log_P = np.log(P)
    phi = np.exp(-b * log_P)
    s = b * q / P * phi
    return np.stack([-s * log_p, -log_P * phi, -a * s], axis=-1)


# every kind at SHAPES, the pins alpha = 1 and beta = 1 reached inside the wide kinds,
# and a saturated alpha sigmoid
FREE_COLUMN_SPECS = [(kind, *SHAPES[kind]) for kind in KINDS if kind != "kww"] + [
    ("hn", 1.0, 0.5), ("hn", 0.6, 1.0), ("jws", 1.0, 0.6), ("jws", 0.7, 1.0),
    ("cc", 1e-12, 1.0), ("hn", 1e-12, 0.5), ("jws", 1e-12, 0.5),
]


@pytest.mark.parametrize("kind,alpha,beta", FREE_COLUMN_SPECS)
def test_time_partials_match_the_stacked_all_column_inversion(kind, alpha, beta):
    # the free columns, on factored nodes (Debye in closed form), against one stacked
    # Talbot inversion of all three partials at p = z tau
    spec = ModelSpec(kind, alpha, beta, tau=1.5)
    t = np.logspace(-3, 3, 40)
    problem = _Problem(TimeDataset(t, np.ones(t.size)), kind, False, None, None)

    def image(z, x):  # p formed, as the reference does not factor it
        return -_all_partials(spec, z / x) / (z / x)[..., None]

    reference = talbot_sum(image, t / spec.tau)
    free = [i for i, name in enumerate(("alpha", "beta", "tau")) if name in problem.names]
    expected = reference[:, free]
    got = problem.model_partials(spec, None)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-12 * np.max(np.abs(expected), axis=0))


# the kinds whose decays the exp-sinh rule serves; the second grid has a sample at 0
# and rows below and above the rule's window t/tau in [3e-4, 1e4]
RULE_SPECS = [("cc", 0.7, 1.0), ("hn", 0.6, 0.5), ("jws", 0.6, 0.5), ("hn", 0.3, 0.25)]
RULE_GRIDS = [np.logspace(-3, 3, 40), np.concatenate([[0.0], np.logspace(-6, 6, 41)])]


@pytest.mark.filterwarnings("ignore:first relaxation sample")
@pytest.mark.parametrize("grid", RULE_GRIDS, ids=["inside", "outside"])
@pytest.mark.parametrize("kind,alpha,beta", RULE_SPECS)
def test_rule_residual_equals_the_relaxation_residual_bit_for_bit(kind, alpha, beta, grid):
    ds = synthesize(ModelSpec(kind, alpha, beta, tau=0.8), None, grid, 0.01, seed=3, domain="time")
    problem = _Problem(ds, kind, False, None, None)
    for offset in (0.0, 0.3, -0.4):
        u = problem.u0 + offset
        spec, _ = problem.unpack(u)
        expected = problem.w * (relaxation(spec, ds.t) - ds.n)
        np.testing.assert_array_equal(problem.residuals(u), expected)


def _talbot_partials(problem, spec):
    """The time partials of every row by the stacked Talbot inversion alone."""
    free = (problem.free_alpha, problem.free_beta)
    x = problem.dataset.t / spec.tau
    d = np.zeros((x.size, len(problem.names)))
    positive = x > 0.0
    d[positive] = talbot_sum(lambda z, x: _partials(spec, z, x, free, -x / z), x[positive])
    return problem.w[:, None] * d


@pytest.mark.parametrize("kind", ["cc", "hn", "jws"])
@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.3, 0.95), beta=st.floats(0.25, 0.95), log_tau=st.floats(-1.0, 1.0))
def test_rule_jacobian_matches_the_talbot_jacobian(kind, alpha, beta, log_tau):
    spec = ModelSpec(kind, alpha, 1.0 if kind == "cc" else beta, tau=10.0**log_tau)
    t = np.logspace(-3, 3, 40)
    problem = _Problem(TimeDataset(t, np.ones(t.size)), kind, False, None, None)
    expected = _talbot_partials(problem, spec)
    got = problem.model_partials(spec, None)
    assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected))


@pytest.mark.parametrize("grid", RULE_GRIDS, ids=["inside", "outside"])
@pytest.mark.parametrize("kind,alpha,beta", RULE_SPECS[:3])  # every trial step within the rule's reach
def test_a_rule_fit_builds_one_exponential_matrix_per_residual(monkeypatch, kind, alpha, beta, grid):
    ds = synthesize(ModelSpec(kind, alpha, beta), None, grid, 0.01, seed=5, domain="time")
    events, _ = _record_evaluations(monkeypatch)
    exp_rows = fitio._exp_rows

    def counted_exp_rows(x, xi, out):
        events.append("E")
        return exp_rows(x, xi, out)

    monkeypatch.setattr(fitio, "_exp_rows", counted_exp_rows)
    res = fit(ds, kind)
    assert res.iterations >= 3
    # each residual builds its matrix, each Jacobian reuses the last residual's
    assert "".join(events).replace("rE", "") == "J" * events.count("J")
    assert events.count("E") == events.count("r")


@pytest.mark.parametrize("kind,alpha,beta", [("hn", 0.6, 0.5), ("jws", 0.7, 0.5), ("debye", 1.0, 1.0)])
def test_a_spectrum_fit_forms_phi_hat_once_per_residual(monkeypatch, kind, alpha, beta):
    ds = synthesize(ModelSpec(kind, alpha, beta), SCALE, GRID, 0.01, seed=5)
    events, points = _record_evaluations(monkeypatch)
    spectral, jacobian = fitio._spectral, fitio._jacobian
    jacobians = []

    def counted_spectral(spec, w):
        events.append("S")
        return spectral(spec, w)

    def kept_jacobian(problem, u):
        jacobians.append(jacobian(problem, u))
        return jacobians[-1]

    monkeypatch.setattr(fitio, "_spectral", counted_spectral)
    monkeypatch.setattr(fitio, "_jacobian", kept_jacobian)
    res = fit(ds, kind)
    assert res.iterations >= 3
    # each residual forms phi_hat, each Jacobian takes the last residual's
    assert "".join(events).replace("rS", "") == "J" * events.count("J")
    assert events.count("S") == events.count("r")
    monkeypatch.undo()
    fresh = _Problem(ds, kind, False, None, None)
    assert np.array_equal(jacobians[-1], fitio._jacobian(fresh, points[-1]))
    # and the residual is permittivity's, bit for bit
    spec, scale = fresh.unpack(points[-1])
    re, im = permittivity(spec, scale, ds.omega)
    expected = np.empty(2 * len(ds))
    expected[0::2], expected[1::2] = re - ds.eps_re, im - ds.eps_im
    assert np.array_equal(fresh.residuals(points[-1]), expected)


# ---------------------------------------------------------------------------
# failure-tolerant fits
# ---------------------------------------------------------------------------


def _csv_round_trip(ds):
    # 12 significant digits, as `relaxkit synth` writes them
    text = "t,n\n" + "".join(f"{t:.12g},{n:.12g}\n" for t, n in zip(ds.t, ds.n))
    return parse_csv(io.StringIO(text), "time")


def test_jws_decay_fit_survives_a_failing_trial_step():
    spec = ModelSpec("jws", alpha=0.54, beta=0.55)
    ds = synthesize(spec, None, np.logspace(-3, 3, 40), 0.0, seed=0, domain="time")
    res = fit(_csv_round_trip(ds), "jws")
    assert res.converged
    assert res.spec.alpha == pytest.approx(0.54, rel=1e-6)
    assert res.spec.beta == pytest.approx(0.55, rel=1e-6)


@pytest.mark.filterwarnings("ignore:first relaxation sample")
def test_auto_decay_fit_survives_a_failing_candidate_step():
    spec = ModelSpec("hn", alpha=0.39, beta=0.36)
    ds = synthesize(spec, None, np.logspace(-3, 3, 40), 0.0, seed=0, domain="time")
    res = fit(_csv_round_trip(ds), "auto")
    assert res.converged and res.spec.kind == "hn"
    assert res.spec.alpha == pytest.approx(0.39, rel=1e-6)


def test_a_trial_step_that_raises_is_rejected(monkeypatch):
    ds = synthesize(ModelSpec("hn", alpha=0.75, beta=1 / 3), SCALE, GRID, 0.0, seed=7)
    original = _Problem.residuals
    calls = []

    def residuals(self, u):
        calls.append(u)
        if len(calls) == 2:  # the first call is the starting point, the second the first trial
            raise NonConvergent("trial step outside the evaluator's reach")
        return original(self, u)

    monkeypatch.setattr(_Problem, "residuals", residuals)
    res = fit(ds, "hn")
    assert len(calls) > 3 and res.converged
    assert res.spec.alpha == pytest.approx(0.75, rel=1e-6)


def test_unpack_raises_a_domain_error_where_tau_or_the_strength_overflows():
    problem = _Problem(synthesize(ModelSpec("debye"), SCALE, GRID, 0.0, seed=0), "debye", False, None, None)
    for index in (0, 2):  # log tau, log strength
        u = problem.u0.copy()
        u[index] = 800.0
        with pytest.raises(DomainError, match="overflows"):
            problem.unpack(u)


@pytest.mark.filterwarnings("ignore:negative")
@pytest.mark.parametrize("kind", ["debye", "cc", "cd", "mcd", "hn", "jws", "auto"])
def test_a_trial_step_whose_tau_overflows_is_rejected(kind):
    # eps' < 0 everywhere pulls log tau past 709 in a trial step; its OverflowError
    # once escaped the fit
    ds = SpectrumDataset(GRID, -np.ones(GRID.size), np.ones(GRID.size))
    assert isinstance(fit(ds, kind), FitResult)


def test_a_rank_deficient_jacobian_still_fits(monkeypatch):
    # two equal columns make A = J.T J singular; every damped S + lam I stays positive definite
    # or has a pivot that is not positive, which rejects the trial
    ds = synthesize(ModelSpec("hn", alpha=0.6, beta=0.5), SCALE, GRID, 0.01, seed=2)
    jacobian = fitio._jacobian

    def duplicated(problem, u):
        J = jacobian(problem, u)
        J[:, 1] = J[:, 0]
        return J

    monkeypatch.setattr(fitio, "_jacobian", duplicated)
    res = fit(ds, "hn")
    assert isinstance(res, FitResult) and math.isfinite(res.residual_norm)


def test_compare_ranks_a_failing_candidate_last(monkeypatch):
    ds = synthesize(ModelSpec("cc", alpha=0.7), SCALE, GRID, 0.0, seed=3)
    original = _Problem.residuals

    def residuals(self, u):
        if self.kind == "cc":
            raise NonConvergent("cc cannot be evaluated here")
        return original(self, u)

    monkeypatch.setattr(_Problem, "residuals", residuals)
    ranked = compare(ds, ("cc", "debye", "hn"))
    assert [kind for kind, _, _ in ranked] == ["hn", "debye", "cc"]
    assert ranked[-1][1] == math.inf and isinstance(ranked[-1][2], NonConvergent)
    assert fit(ds, "auto").spec.kind == "hn"
    with pytest.raises(NonConvergent):
        compare(ds, ("cc",))


def test_compare_rejects_unknown_kinds():
    ds = synthesize(ModelSpec("debye"), SCALE, GRID, 0.0, seed=0)
    with pytest.raises(DomainError):
        compare(ds, ("debye", "havriliak"))


# ---------------------------------------------------------------------------
# stop rules
# ---------------------------------------------------------------------------


def test_a_fit_whose_every_trial_raises_ends_unconverged(monkeypatch):
    # lambda grows tenfold per rejected trial, so any stop on the damped
    # predicted decrease would call this fit converged; the floor test does not
    ds = synthesize(ModelSpec("hn", alpha=0.6, beta=0.5), SCALE, GRID, 0.01, seed=2)
    original = _Problem.residuals
    calls = []

    def residuals(self, u):
        calls.append(u)
        if len(calls) > 1:  # every call after the starting point is a trial
            raise NonConvergent("trial step outside the evaluator's reach")
        return original(self, u)

    monkeypatch.setattr(_Problem, "residuals", residuals)
    res = fit(ds, "hn")
    assert not res.converged and res.iterations == 1 and len(calls) > 10


def _record_evaluations(monkeypatch):
    """Log 'J' per Jacobian and 'r' per residual evaluation, and the last Jacobian's point."""
    events, points = [], []
    residuals, jacobian = _Problem.residuals, fitio._jacobian

    def counted_residuals(self, u):
        events.append("r")
        return residuals(self, u)

    def counted_jacobian(problem, u):
        events.append("J")
        points.append(u.copy())
        return jacobian(problem, u)

    monkeypatch.setattr(_Problem, "residuals", counted_residuals)
    monkeypatch.setattr(fitio, "_jacobian", counted_jacobian)
    return events, points


def _generating_residual(ds, spec):
    if isinstance(ds, SpectrumDataset):
        re, im = permittivity(spec, SCALE, ds.omega)
        r = np.concatenate([re - ds.eps_re, im - ds.eps_im])
    else:
        r = relaxation(spec, ds.t) - ds.n
    return float(np.sqrt(r @ r))


# 1 %-noise fits at the rounding floor: without the floor test the loop evaluated
# 14, 12 and 14 trials in its last iteration before lambda or the step size stopped it
FLOOR_FITS = [
    ("hn", "time", 0.55, 0.7, 0),
    ("hn", "frequency", 0.6, 0.4, 0),
    ("jws", "frequency", 0.7, 0.5, 1),
]


@pytest.mark.parametrize("kind,domain,alpha,beta,seed", FLOOR_FITS)
def test_a_fit_at_the_rounding_floor_stops_within_a_few_trials(monkeypatch, kind, domain, alpha, beta, seed):
    spec = ModelSpec(kind, alpha=alpha, beta=beta)
    ds = synthesize(spec, SCALE if domain == "frequency" else None, GRID, 0.01, seed=seed, domain=domain)
    events, _ = _record_evaluations(monkeypatch)
    res = fit(ds, kind)
    # the last iteration's trials run from its Jacobian to the next one (or to the end)
    starts = [i for i, e in enumerate(events) if e == "J"] + [len(events)]
    assert starts[res.iterations] - starts[res.iterations - 1] - 1 <= 4
    assert res.converged
    assert res.residual_norm <= _generating_residual(ds, spec) * (1.0 + 1e-9)


def test_a_fit_that_ends_by_the_floor_test_forms_one_jacobian_per_iteration(monkeypatch):
    ds = synthesize(ModelSpec("hn", alpha=0.55, beta=0.7), None, GRID, 0.01, seed=0, domain="time")
    events, points = _record_evaluations(monkeypatch)
    res = fit(ds, "hn")
    jacobians = events.count("J")
    # the loop ended right after forming a Jacobian, with the gradient above its bound
    assert res.converged and events[-1] == "J"
    problem = _Problem(ds, "hn", False, None, None)
    g = fitio._jacobian(problem, points[-1]).T @ problem.residuals(points[-1])
    assert np.max(np.abs(g)) >= fitio._GRAD_TOL
    assert jacobians == res.iterations


# ---------------------------------------------------------------------------
# the damped step and the standard errors
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    log_lam=st.floats(-12.0, 14.0),
    log_cond=st.floats(0.0, 4.0),
    log_scales=st.lists(st.floats(-4.0, 4.0), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_damped_step_matches_a_dense_solve(n, log_lam, log_cond, log_scales, seed):
    # A = D**1/2 C D**1/2 with unit-diagonal C (condition number up to 1e4) and column
    # scales spanning up to 1e8, as tau's and eps's do: cond(A) reaches 1e8 and beyond.
    # The reference solves the equilibrated system: np.linalg.solve on A + lam D itself is
    # off by up to 4e-9 at lam ~ 1e6 there (against 50-digit mpmath; the step: 4e-16)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    C = (q * np.logspace(0.0, log_cond, n)) @ q.T
    C = C / np.sqrt(np.outer(np.diag(C), np.diag(C)))
    scales = 10.0 ** np.array(log_scales[:n])
    A = C * np.outer(scales, scales)
    g = rng.standard_normal(n) * scales
    lam = 10.0**log_lam
    S, s = fitio._marquardt_scaled(A)
    delta = fitio._damped_step(S, s, (g * s).tolist(), lam)
    root_d = np.sqrt(np.diag(A))
    expected = np.linalg.solve(A / np.outer(root_d, root_d) + lam * np.eye(n), -g / root_d) / root_d
    assert delta is not None
    assert np.linalg.norm(np.array(delta) - expected) <= 1e-10 * np.linalg.norm(expected)


def test_a_pivot_that_is_not_positive_gives_no_factor():
    S = [[1.0, 1.0], [1.0, 1.0]]  # singular: the second pivot is 0
    assert fitio._cholesky(S, 0.0) is None
    assert fitio._cholesky([[math.nan]], 1.0) is None
    assert fitio._cholesky(S, 1e-12) is not None


def _recorded_stderr(monkeypatch):
    """Log the (problem, u, r) of every standard-error evaluation."""
    stderr, calls = fitio._stderr, []

    def recorded(problem, u, r):
        calls.append((problem, u, r))
        return stderr(problem, u, r)

    monkeypatch.setattr(fitio, "_stderr", recorded)
    return calls


def _packed_delta_method(problem, u, r):
    """sqrt(diag(G sigma2 (J.T J)**-1 G.T)): the packed-space covariance mapped by G, the
    derivative of (alpha, beta, tau, eps_inf, eps_static) with respect to u."""
    G = np.zeros((u.size, u.size))
    i, alpha = 0, 1.0
    if problem.free_alpha:
        alpha = 1.0 / (1.0 + math.exp(-u[0]))
        G[0, 0] = alpha * (1.0 - alpha)
        i = 1
    if problem.free_beta:
        b = 1.0 / (1.0 + math.exp(-u[i]))
        if problem.strict:
            G[i, i] = b * (1.0 - b)
        else:  # beta = b / alpha
            G[i, i] = b * (1.0 - b) / alpha
            if problem.free_alpha:
                G[i, 0] = -b / alpha**2 * G[0, 0]
        i += 1
    G[i, i] = math.exp(u[i])  # tau
    if problem.frequency:
        G[i + 1, i + 1] = 1.0  # eps_inf
        G[i + 2, i + 1], G[i + 2, i + 2] = 1.0, math.exp(u[i + 2])  # eps_inf + strength
    J = _jacobian(problem, u)
    sigma2 = float(r @ r) / (r.size - u.size)
    covariance = G @ (sigma2 * np.linalg.inv(J.T @ J)) @ G.T
    return dict(zip(problem.names, np.sqrt(np.diag(covariance))))


STDERR_FITS = [pytest.param(kind, domain, noise, strict, id=f"{kind}-{domain}-{noise}" + strict * "-strict")
               for kind in ("debye", "cc", "cd", "mcd", "hn", "jws")
               for domain in ("frequency", "time") for noise in (0.0, 0.01)
               for strict in (False, True) if not strict or kind in ("hn", "jws")]


@pytest.mark.parametrize("kind,domain,noise,strict", STDERR_FITS)
def test_stderr_matches_the_inverse_normal_matrix(monkeypatch, kind, domain, noise, strict):
    # the reference works in the packed space the loop fits in: it checks the
    # physical-space errors, beta's coupling to alpha and eps_static's covariance
    spec = ModelSpec(kind, *SHAPES[kind], tau=1.5)
    ds = synthesize(spec, SCALE if domain == "frequency" else None, GRID, noise, seed=6, domain=domain)
    calls = _recorded_stderr(monkeypatch)
    res = fit(ds, kind, strict_experimental=strict)
    expected = _packed_delta_method(*calls[0])
    assert res.param_stderr.keys() == expected.keys()
    for name, value in expected.items():
        assert res.param_stderr[name] == pytest.approx(value, rel=1e-10)


def _physical_delta_method(problem, u, r):
    """sqrt(diag(M sigma2 (P.T P)**-1 M.T)) from a fresh problem's model partials P, M the
    derivative of (alpha, beta, tau, eps_inf, eps_static) with respect to P's parameters."""
    spec, scale = problem.unpack(u)
    P = _Problem(problem.dataset, problem.kind, problem.strict, None, None).model_partials(spec, scale)
    M = np.eye(u.size)
    M[problem.names.index("tau")] *= spec.tau
    if problem.frequency:
        M[-1, -2:] = 1.0, scale.strength
    sigma2 = float(r @ r) / (r.size - u.size)
    covariance = M @ (sigma2 * np.linalg.inv(P.T @ P)) @ M.T
    return dict(zip(problem.names, np.sqrt(np.diag(covariance))))


# 0.1 %-noise Cole-Davidson data under the wider kind of its family: the fit ends at
# alpha = 1.0, where alpha's sigmoid has slope 0 and the packed normal matrix is singular
@pytest.mark.parametrize("data,kind,domain,seed", [
    ("cd", "hn", "frequency", 2), ("cd", "hn", "time", 2),
    ("mcd", "jws", "frequency", 0), ("mcd", "jws", "time", 1),
])
def test_stderr_is_finite_where_alpha_saturates(monkeypatch, data, kind, domain, seed):
    spec = ModelSpec(data, beta=0.5, tau=0.1)
    ds = synthesize(spec, SCALE if domain == "frequency" else None, GRID, 1e-3, seed=seed, domain=domain)
    calls = _recorded_stderr(monkeypatch)
    res = fit(ds, kind)
    assert res.converged and res.spec.alpha == 1.0
    expected = _physical_delta_method(*calls[0])
    assert res.param_stderr.keys() == expected.keys()
    for name, value in expected.items():
        assert math.isfinite(res.param_stderr[name])
        assert res.param_stderr[name] == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize("kind,domain,alpha,beta,seed", FLOOR_FITS)
def test_the_standard_errors_add_no_model_evaluation(monkeypatch, kind, domain, alpha, beta, seed):
    spec = ModelSpec(kind, alpha=alpha, beta=beta)
    ds = synthesize(spec, SCALE if domain == "frequency" else None, GRID, 0.01, seed=seed, domain=domain)
    events, _ = _record_evaluations(monkeypatch)
    model_partials = _Problem.model_partials

    def counted(self, spec, scale):
        events.append("P")
        return model_partials(self, spec, scale)

    monkeypatch.setattr(_Problem, "model_partials", counted)
    res = fit(ds, kind)
    # the fit ended on the gradient or floor test, right after its last Jacobian
    assert res.converged and events[-2:] == ["J", "P"]
    assert events.count("P") == events.count("J")
    assert all(map(math.isfinite, res.param_stderr.values()))
