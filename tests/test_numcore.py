"""Grids, stable sums, and power-law fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import numcore
from semistab.errors import DomainError, EdgeDominatedWarning, InsufficientDataError


def test_geometric_grid_examples():
    g = numcore.geometric_grid(1.0, 100.0, 3)
    assert np.allclose(g, [1.0, 10.0, 100.0])
    g2 = numcore.geometric_grid(2.0, 32.0, 5)
    assert np.allclose(g2, [2.0, 4.0, 8.0, 16.0, 32.0])


def test_geometric_grid_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = float(rng.uniform(1e-6, 10.0))
        b = a * float(rng.uniform(1.5, 1e6))
        n = int(rng.integers(2, 200))
        g = numcore.geometric_grid(a, b, n)
        assert g[0] == a and g[-1] == b
        ratios = g[1:] / g[:-1]
        assert np.all(np.abs(ratios / ratios[0] - 1.0) < 1e-12)
        assert np.all(np.diff(g) > 0)


def test_geometric_grid_errors():
    with pytest.raises(DomainError):
        numcore.geometric_grid(1.0, 1.0, 8)
    with pytest.raises(DomainError):
        numcore.geometric_grid(-1.0, 2.0, 8)
    with pytest.raises(DomainError):
        numcore.geometric_grid(1.0, 2.0, 1)


def test_stable_exp_sum_small_values():
    assert numcore.stable_exp_sum(1) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert numcore.stable_exp_sum(2) == pytest.approx(3.0, rel=1e-12)
    # frozen from a 60-digit direct summation
    assert numcore.stable_exp_sum(10) == pytest.approx(5301.2744459411832, rel=1e-12)
    lower = math.exp(10.0) / (10.0**0.25 * math.exp(2.0))
    upper = math.exp(10.0) / 10.0**0.25
    assert lower <= numcore.stable_exp_sum(10) <= upper


def test_stable_exp_sum_errors():
    with pytest.raises(DomainError):
        numcore.stable_exp_sum(0)
    with pytest.raises(DomainError):
        numcore.stable_exp_sum(-3)
    with pytest.raises(DomainError):
        numcore.stable_exp_sum(2.5)


def test_stable_exp_sum_bounds_log_domain():
    for m in range(1, 501):
        lv = numcore.stable_exp_sum_log(m)
        assert m - 2.0 - 0.25 * math.log(m) <= lv <= m - 0.25 * math.log(m)


def test_stable_exp_sum_no_overflow_at_1e5():
    m = 10**5
    lv = numcore.stable_exp_sum_log(m)
    assert math.isfinite(lv)
    assert m - 2.0 - 0.25 * math.log(m) <= lv <= m - 0.25 * math.log(m)
    assert numcore.stable_exp_sum(m) == math.inf  # exceeds float64


def test_fit_power_law_exact_cases():
    g = numcore.geometric_grid(1.0, 1e4, 40)
    fit = numcore.fit_power_law(g, g**-2.0)
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
    assert fit.residual < 1e-10
    flat = numcore.fit_power_law(g, np.full(40, 7.0))
    assert flat.exponent == pytest.approx(0.0, abs=1e-12)
    assert flat.constant == pytest.approx(7.0, rel=1e-12)


def test_fit_power_law_exact_for_random_exponents():
    rng = np.random.default_rng(11)
    g = numcore.geometric_grid(0.5, 2e3, 64)
    for _ in range(10):
        p = float(rng.uniform(-10.0, 10.0))
        c = float(rng.uniform(0.1, 5.0))
        fit = numcore.fit_power_law(g, c * g**p)
        assert fit.exponent == pytest.approx(p, abs=1e-10)
        assert fit.residual < 1e-10


def test_fit_power_law_noisy():
    rng = np.random.default_rng(5)
    g = numcore.geometric_grid(1.0, 1e3, 60)
    noise = 1e-6 * (2.0 * rng.random(60) - 1.0)
    fit = numcore.fit_power_law(g, 3.0 * g**1.5 * (1.0 + noise))
    assert fit.exponent == pytest.approx(1.5, abs=1e-4)


def test_fit_power_law_refinement_invariance():
    for count in (32, 64, 128):
        g = numcore.geometric_grid(2.0, 500.0, count)
        fit = numcore.fit_power_law(g, 1.7 * g**-3.25)
        assert fit.exponent == pytest.approx(-3.25, abs=1e-10)


def test_fit_power_law_errors():
    g = numcore.geometric_grid(1.0, 10.0, 4)
    with pytest.raises(InsufficientDataError):
        numcore.fit_power_law(g, g, window=(0, 2))
    with pytest.raises(DomainError):
        numcore.fit_power_law(g, np.array([1.0, -1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        numcore.fit_power_law(g, np.ones(5))


def test_fit_power_law_log_factor_mode():
    g = numcore.geometric_grid(10.0, 1e6, 80)
    vals = 2.0 * g**-1.5 * np.log(g) ** 2.0
    fit = numcore.fit_power_law(g, vals, with_log_factor=True)
    assert fit.exponent == pytest.approx(-1.5, abs=1e-8)
    assert fit.log_coefficient == pytest.approx(2.0, abs=1e-6)
    plain = numcore.fit_power_law(g, vals)
    assert abs(plain.exponent + 1.5) > abs(fit.exponent + 1.5)


def test_fit_exp_rate():
    t = np.linspace(0.0, 30.0, 40)
    fit = numcore.fit_exp_rate(t, 2.0 * np.exp(-0.7 * t))
    assert fit.rate == pytest.approx(-0.7, abs=1e-10)
    assert fit.constant == pytest.approx(2.0, rel=1e-8)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    c=st.floats(1e-3, 1e3),
    p=st.floats(-8.0, 8.0),
    start=st.floats(0.1, 10.0),
    decades=st.floats(0.5, 4.0),
    count=st.integers(8, 64),
)
def test_fit_power_law_recovers_exact_power_laws(c, p, start, decades, count):
    g = numcore.geometric_grid(start, start * 10.0**decades, count)
    fit = numcore.fit_power_law(g, c * g**p)
    assert fit.exponent == pytest.approx(p, abs=1e-9)
    assert fit.constant == pytest.approx(c, rel=1e-8)
    assert fit.residual < 1e-10


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    c=st.floats(1e-3, 1e3),
    r=st.floats(-2.0, 2.0),
    t0=st.floats(0.0, 50.0),
    span=st.floats(1.0, 100.0),
    count=st.integers(8, 64),
)
def test_fit_exp_rate_recovers_exact_exponentials(c, r, t0, span, count):
    t = np.linspace(t0, t0 + span, count)
    fit = numcore.fit_exp_rate(t, c * np.exp(r * t))
    assert fit.rate == pytest.approx(r, abs=1e-9)
    assert fit.constant == pytest.approx(c, rel=1e-8)
    assert fit.residual < 1e-10


def test_sup_on_grid_refines_peak():
    nodes = np.geomspace(0.1, 10.0, 41)

    def f(s):
        return 1.0 / (1.0 + (np.log(np.asarray(s)) - 0.337) ** 2)

    best = numcore.sup_on_grid(f, nodes)
    assert best == pytest.approx(1.0, abs=1e-9)


def test_sup_on_grid_edge_warning():
    nodes = np.geomspace(1.0, 100.0, 32)
    with pytest.warns(EdgeDominatedWarning):
        numcore.sup_on_grid(lambda s: np.asarray(s, dtype=float), nodes)
    # flat functions and interior peaks stay silent
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        numcore.sup_on_grid(lambda s: np.ones_like(np.asarray(s)), nodes)
