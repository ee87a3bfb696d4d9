"""Resolvent probing, growth-pair fitting, and spectral bounds."""

import math

import numpy as np
import pytest

from semistab import numcore, operators, resolvent
from semistab.errors import InsufficientDataError


def test_probe_scalar_values():
    model = operators.DenseMatrixModel([[1.0]])
    grid = numcore.geometric_grid(0.1, 10.0, 12)
    table = resolvent.probe_resolvent_norms(model, grid, eta=0.0)
    for e in table.entries:
        assert e.status == "ok"
        assert e.norm == pytest.approx(1.0 / abs(1.0 + 1j * e.xi), rel=1e-10)


def test_probe_jordan_respects_neumann_bound():
    model = operators.JordanSumModel(0.5, 0.5, 200)
    for xi in (3.0, 17.0, 63.0):
        norm = model.shifted_resolvent_norm(1j * (-xi))
        bound = 0.0
        for m, a, b in model.groups:
            for n in range(a, b + 1):
                w = abs(-1j * xi - 1j * n + model.gamma)
                bound = max(bound, sum(w ** -(k + 1) for k in range(m)))
        assert norm <= bound * (1.0 + 1e-12)


def test_fit_growth_profile_flat_for_bounded_resolvent():
    model = operators.DenseMatrixModel([[1.0]])
    table = resolvent.probe_resolvent_norms(model, numcore.geometric_grid(1e-2, 1e2, 40))
    profile = resolvent.fit_growth_profile(table)
    assert profile.alpha_hat == 0.0
    assert profile.beta_hat == 0.0
    assert profile.m_constant <= 1.0 + 1e-9


def test_fit_growth_profile_requires_probes_each_side():
    model = operators.DenseMatrixModel([[1.0]])
    table = resolvent.probe_resolvent_norms(model, numcore.geometric_grid(2.0, 50.0, 20))
    with pytest.raises(InsufficientDataError):
        resolvent.fit_growth_profile(table)


def test_fit_growth_profile_jordan_small():
    model = operators.JordanSumModel(0.5, 0.5, 2000)
    table = resolvent.probe_resolvent_norms(model, numcore.geometric_grid(1e-2, 300.0, 80))
    profile = resolvent.fit_growth_profile(table)
    assert profile.alpha_hat == 0.0
    assert abs(profile.beta_hat - 1.0) <= 0.15
    assert math.isfinite(profile.m_constant)


def test_m_constant_stable_under_probe_doubling():
    model = operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e6, grid_count=1024)
    profiles = []
    for count in (48, 96):
        table = resolvent.probe_resolvent_norms(model, numcore.geometric_grid(1e-2, 1e2, count))
        profiles.append(resolvent.fit_growth_profile(table))
    m1, m2 = profiles[0].m_constant, profiles[1].m_constant
    assert math.isfinite(m1) and math.isfinite(m2)
    assert abs(m2 - m1) / m1 < 0.10


def test_spectral_bounds_dense_diag():
    model = operators.DenseMatrixModel(np.diag([1.0, 2.0]))
    bounds = resolvent.spectral_bounds(
        model,
        numcore.geometric_grid(1.0, 30.0, 16),
        np.linspace(-0.9, 0.5, 6),
        betas=(0.0,),
        xi_grid=np.geomspace(0.1, 50.0, 24),
    )
    assert bounds.s_minus_a == pytest.approx(-1.0, abs=1e-12)
    assert bounds.omega0_hat == pytest.approx(-1.0, abs=1e-6)
    assert bounds.s_minus_a <= bounds.omega0_hat + 1e-6
    assert bounds.s_beta[0.0] == pytest.approx(-1.0, abs=0.05)


def test_spectral_bounds_defective_dense():
    # identity plus nilpotent: decay rate -1 with a polynomial transient
    model = operators.DenseMatrixModel(np.array([[1.0, 1.0], [0.0, 1.0]]))
    bounds = resolvent.spectral_bounds(
        model,
        numcore.geometric_grid(5.0, 200.0, 24),
        np.linspace(-0.9, 0.5, 4),
        betas=(),
        xi_grid=np.geomspace(0.1, 50.0, 24),
    )
    assert bounds.s_minus_a == pytest.approx(-1.0, abs=1e-12)
    assert bounds.omega0_hat == pytest.approx(-1.0, abs=0.05)


def test_jordan_growth_rate_matches_gamma():
    # delta near 1 retains deep blocks, so the growth window is long enough
    # for the exponential fit to see the asymptotic rate
    model = operators.JordanSumModel(0.5, 0.9, 2000)
    m_top = model.groups[-1][0]
    ts = np.linspace(5.0, float(m_top - 1), 12)
    norms = model.semigroup_norm(ts)
    rate = numcore.fit_exp_rate(ts, norms, window=(0, len(ts))).rate
    assert rate == pytest.approx(1.0 - model.gamma, abs=0.05)
