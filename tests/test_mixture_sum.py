"""n, phi and n'' of cc, hn and jws as positive sums over the rate density g."""

import csv
import os

import mpmath
import numpy as np
import pytest

from relaxkit import models
from relaxkit.models import ModelSpec, relaxation, relaxation_derivatives, response

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cm_reference.csv")


def _table():
    """{(kind, alpha, beta, quantity): (t, mpmath value)} from tools/cm_reference.py."""
    rows = {}
    with open(TABLE) as fh:
        for r in csv.DictReader(fh):
            key = (r["kind"], float(r["alpha"]), float(r["beta"]), r["quantity"])
            rows.setdefault(key, []).append((float(r["t"]), float(r["value"])))
    return {key: tuple(np.array(c) for c in zip(*pairs)) for key, pairs in rows.items()}


def test_relaxation_and_response_match_the_mpmath_table():
    table = _table()
    assert len(table) == 28
    for (kind, a, b, quantity), (t, ref) in table.items():
        fn = relaxation if quantity == "relaxation" else response
        got = fn(ModelSpec(kind, alpha=a, beta=b), t)
        err = np.abs(got / ref - 1.0)
        assert err.max() <= 1e-11, (kind, a, b, quantity, t[err.argmax()], err.max())


def _hn_second_derivative(a, b, x):
    """n'' of hn at tau = 1 from the defining series of E[a, ab-1; b](-x**a), 60 digits."""
    with mpmath.workdps(60):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        z, total, coeff, term, r = x**a, mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1), 0
        while r < 20 or abs(term) > mpmath.mpf(10) ** -70:
            term = coeff * mpmath.rgamma(a * r + a * b - 1)
            total += term
            coeff *= -(b + r) * z / (r + 1)
            r += 1
        return float(-(x ** (a * b - 2)) * total)


def test_hn_second_derivative_matches_the_series_where_the_contour_missed():
    # the Prabhakar route was off by up to 4e-9 here, in the midrange contour band
    spec = ModelSpec("hn", alpha=0.95, beta=0.25)
    t = np.linspace(18.0, 44.0, 6)
    ref = np.array([_hn_second_derivative(0.95, 0.25, v) for v in t])
    assert np.abs(relaxation_derivatives(spec, t)[2] / ref - 1.0).max() <= 1e-12


# (0.6, 0.5): level 5; 0.95: level 6; 0.977: level 7, the last the rule serves; 0.978: level 8
@pytest.mark.parametrize(
    "kind, alpha, beta",
    [("hn", 0.6, 0.5), ("jws", 0.95, 0.5), ("cc", 0.977, 1.0), ("hn", 0.978, 0.5)],
)
def test_a_number_equals_its_grid_element_across_the_window_edges(kind, alpha, beta):
    spec = ModelSpec(kind, alpha=alpha, beta=beta, tau=2.5)
    x = [3e-4, 1e4]
    x += [np.nextafter(v, 0.0) for v in x] + [np.nextafter(v, np.inf) for v in x]
    t = np.concatenate([np.array(x), np.logspace(-5, 5, 37)]) * spec.tau
    n, d1, d2 = relaxation_derivatives(spec, t)
    for i, v in enumerate(t.tolist()):
        assert relaxation_derivatives(spec, v) == (n[i], d1[i], d2[i])
        assert relaxation(spec, v) == n[i] and response(spec, v) == -d1[i]
    assert relaxation(spec, np.array([0.0, 1.0]))[0] == relaxation(spec, 0.0) == 1.0


def _prabhakar_calls(monkeypatch):
    calls = []
    real = models.prabhakar_eval

    def counted(a, mu, nu, x):
        calls.append(np.size(x))
        return real(a, mu, nu, x)

    monkeypatch.setattr(models, "prabhakar_eval", counted)
    return calls


def test_the_rule_serves_its_window_and_the_prabhakar_route_the_rest(monkeypatch):
    calls = _prabhakar_calls(monkeypatch)
    spec = ModelSpec("hn", alpha=0.6, beta=0.5)
    relaxation_derivatives(spec, np.logspace(np.log10(3e-4), 4, 40))
    assert calls == []
    relaxation(spec, np.array([0.0, 1e-4, 1.0, 2e4]))
    assert calls == [2]  # 2e4 takes the tail expansion of n beyond x = 1, not the HN form


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("hn", alpha=0.6, beta=2.0, allow_unphysical=True),
        ModelSpec("jws", alpha=0.5, beta=2.5, allow_unphysical=True),
        ModelSpec("hn", alpha=0.98, beta=0.5),
        ModelSpec("jws", alpha=0.3, beta=0.1),
    ],
)
def test_beyond_the_rule_every_point_takes_the_prabhakar_route(monkeypatch, spec):
    # beyond the regime g has a negative lobe; near alpha = 1 the step would be
    # finer than 2**-7; for small alpha beta the mass below xi = 1e-300 shows
    calls = _prabhakar_calls(monkeypatch)
    t = np.array([0.01, 0.5, 2.0])
    for k, fn in enumerate((relaxation, response)):
        fn(spec, t)
        assert calls[k:] == [3]
