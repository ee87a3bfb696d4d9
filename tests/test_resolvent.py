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
        norm = model.shifted_resolvent_norm([1j * (-xi)])[0][0]
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


def test_spectral_bounds_probe_each_line_once(monkeypatch):
    # betas 1 and 2 test the lines at eta = 1.2, 0.05, -0.0875 and -0.225
    # both; each line is probed once and keeps both verdicts
    probed = []
    probe = resolvent.probe_resolvent_norms

    def counted(model, xi_grid, eta=0.0):
        probed.append(eta)
        return probe(model, xi_grid, eta)

    monkeypatch.setattr(resolvent, "probe_resolvent_norms", counted)
    model = operators.JordanSumModel(0.5, 0.5, 10**4)
    bounds = resolvent.spectral_bounds(model, numcore.geometric_grid(1.0, 12.0, 10), np.linspace(0.05, 1.2, 8),
                                       betas=(1.0, 2.0), xi_grid=np.geomspace(1.0, 5e3, 112))
    assert len(probed) == len(set(probed)) == 12
    assert bounds.s_beta == {1.0: 0.024218750000000004, 2.0: -0.2078125}


def test_spectral_bounds_inf_when_the_largest_eta_is_not_tame():
    # the block sum's spectrum sits on Re lam = -gamma = -0.5; at eta = -0.2,
    # 0.3 from it, the blocks' norms keep growing along the line unless a
    # beta of 2 tempers them
    model = operators.JordanSumModel(0.5, 0.5, 10**4)
    bounds = resolvent.spectral_bounds(model, numcore.geometric_grid(1.0, 12.0, 10), np.linspace(-0.4, -0.2, 3),
                                       betas=(0.0, 2.0), xi_grid=np.geomspace(1.0, 5e3, 112))
    assert bounds.s_beta[0.0] == math.inf
    assert -0.5 < bounds.s_beta[2.0] <= -0.2


def test_a_line_with_a_singular_or_edge_probe_is_not_tame():
    flat = [resolvent.ProbeEntry(float(xi), 0.5, 1.0, "ok") for xi in np.geomspace(0.1, 100.0, 16)]
    assert resolvent._line_is_tame(resolvent.ProbeTable(flat), 0.0)
    for status, norm in (("singular", None), ("edge", 1.0)):
        entries = [*flat[:8], resolvent.ProbeEntry(flat[8].xi, 0.5, norm, status), *flat[9:]]
        assert not resolvent._line_is_tame(resolvent.ProbeTable(entries), 0.0), status


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


def test_envelope_fit_takes_each_bins_first_maximum():
    # the bins are slices of the increasing nodes; each keeps the first node
    # of its largest value, as a mask per bin does, ties and empty bins included
    rng = np.random.default_rng(9)
    for _ in range(50):
        xis = np.unique(np.exp(rng.uniform(-5.0, 7.0, int(rng.integers(3, 80)))))
        norms = np.round(rng.uniform(0.5, 3.0, len(xis)), 1)  # ties within bins
        lo, hi = xis.min(), xis.max()
        edges = np.geomspace(lo, hi * (1.0 + 1e-12), max(3, int(math.ceil(math.log10(hi / lo) * 6))) + 1)
        picks = [np.flatnonzero(sel)[np.argmax(norms[sel])] for sel in
                 ((xis >= a) & (xis < b) for a, b in zip(edges[:-1], edges[1:])) if sel.any()]
        window = (0, len(picks)) if len(picks) < 3 else None
        want = numcore.fit_power_law(xis[picks], norms[picks], window=window)
        assert resolvent._envelope_fit(xis, norms) == want
