"""Dataset parsing, synthesis, least-squares fitting and model comparison."""

import io
import json
import math

import numpy as np
import pytest

from relaxkit.exceptions import DomainError, EmptyDataset, ParseError
from relaxkit.fitio import (
    SpectrumDataset,
    TimeDataset,
    compare,
    fit,
    _Problem,
    fit_result_to_json,
    parse_csv,
    synthesize,
)
from relaxkit.models import ModelSpec, PermittivityScale

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
        assert scale is not None and np.all(np.isfinite(problem.stderr_scale(u)))


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
