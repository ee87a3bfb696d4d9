"""The norm oracles against the independent values of ``_references``.
Where an oracle is known to under-read (ROADMAP item 2), the case is a
strict xfail next to a passing case where it is right, so mending the
defect turns the xfail into an error that asks to unmark it."""

import numpy as np
import pytest
from _references import (dense_fractional_norm, dense_shifted_resolvent_norm, diagonal_resolvent_sup,
                         exp_nilpotent_norm)
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import numcore
from semistab.operators import DenseMatrixModel, DiagonalSymbolModel, OperatorMatrixModel


def _diagonal_reference(model, lams):
    return np.array([diagonal_resolvent_sup(model.a, model.b, model.grid[0], model.grid[-1], lam, model.sobolev)
                     for lam in lams])


@pytest.mark.parametrize("n", [2, 3])
def test_opmatrix_semigroup_norm_is_the_exp_nilpotent_norm(n):
    # the s nodes start at 1e-9, so the norm reads t * 1e-9 low: at most 1e-7 here
    ts = np.geomspace(1e-2, 100.0, 25)
    want = [exp_nilpotent_norm(t, n) for t in ts]
    np.testing.assert_allclose(OperatorMatrixModel(n).semigroup_norm(ts), want, rtol=1e-6, atol=0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2, operator-matrix s floor: the s nodes start at 1e-9, "
                                       "so ||T(t)|| reads t * 1e-9 relative low")
def test_opmatrix_semigroup_norm_at_large_times():
    ts = np.array([1e4, 1e8])  # reads 9999.9001 and 9.0484e7 against 10000.0001 and 1e8
    want = [exp_nilpotent_norm(t, 2) for t in ts]
    np.testing.assert_allclose(OperatorMatrixModel(2).semigroup_norm(ts), want, rtol=1e-6, atol=0)


def test_sobolev_rates_probes_match_the_reference():
    # the model and the 192 probe points of the battery's sobolev.rates case
    model = DiagonalSymbolModel(1.0, 0.5)
    xis = numcore.geometric_grid(1e-2, 1e3, 96)
    lams = 1j * np.concatenate([xis, -xis])
    norms, _ = model.shifted_resolvent_norm(lams)
    np.testing.assert_allclose(norms, _diagonal_reference(model, lams), rtol=1e-12, atol=0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2, diagonal resonances: the grid steps over the narrow "
                                       "peak of 1/|lam + g| at s* = (-Im lam)^(1/b)")
def test_diagonal_resonance_between_grid_nodes():
    model = DiagonalSymbolModel(2.0, 0.5, sobolev=False)
    lams = np.array([-1000j])  # reads 9.7511e11; the peak at s* = 1e6 is 1e12
    norms, _ = model.shifted_resolvent_norm(lams)
    np.testing.assert_allclose(norms, _diagonal_reference(model, lams), rtol=1e-6, atol=0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2, diagonal edge cells: an argmax at the last node is "
                                       "not refined, so a peak inside the last grid cell is missed")
def test_diagonal_peak_in_the_last_grid_cell():
    model = DiagonalSymbolModel(1.0, 0.5, s_max=1e4, grid_count=512, sobolev=False)
    lams = np.array([-99.75j])  # reads 4.00, flagged an edge; the peak at s* = 9950.06 is 9950.06
    norms, _ = model.shifted_resolvent_norm(lams)
    np.testing.assert_allclose(norms, _diagonal_reference(model, lams), rtol=1e-6, atol=0)


# the dense kind against mpmath at 30 digits.  Its eigen route loses about
# eps * cond(V) for eigenvectors V: about 1e-13 relative on the random draws
# below, and far more on a nearly defective matrix (the xfail after them)
_DENSE_RTOL = 1e-10


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), coupling=st.floats(0.0, 10.0),
       t=st.floats(0.0, 20.0), sigma=st.integers(0, 2), tau=st.integers(0, 2), xi=st.floats(-10.0, 10.0))
def test_dense_norms_match_mpmath(dim, seed, coupling, t, sigma, tau, xi):
    # a random stable matrix: complex Gaussian entries plus a real strictly
    # upper part scaled by ``coupling`` (non-normal), shifted so that the
    # spectrum lies in Re z >= margin for a margin in [0.05, 1]
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m += coupling * np.triu(rng.standard_normal((dim, dim)), 1)
    m += (rng.uniform(0.05, 1.0) - np.linalg.eigvals(m).real.min()) * np.eye(dim)
    model = DenseMatrixModel(m)
    ts = np.array([t])
    np.testing.assert_allclose(model.semigroup_norm(ts), [dense_fractional_norm(m, t)], rtol=_DENSE_RTOL, atol=0)
    np.testing.assert_allclose(model.fractional_norm(ts, float(sigma), float(tau)),
                               [dense_fractional_norm(m, t, sigma, tau)], rtol=_DENSE_RTOL, atol=0)
    norms, _ = model.shifted_resolvent_norm(np.array([1j * xi]))
    np.testing.assert_allclose(norms, [dense_shifted_resolvent_norm(m, 1j * xi)], rtol=_DENSE_RTOL, atol=0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2, nearly defective dense matrices: the eigen route of "
                                       "_expm_neg passes its 1e-9 reconstruction check at an eigenvector "
                                       "condition near 6e10 and loses about eps * cond of ||T(t)||")
def test_dense_semigroup_norm_of_a_nearly_defective_matrix():
    m = np.array([[1.0, 30.0], [0.0, 1.0 + 1e-9]])  # reads 1.6e-7 relative low at t = 0.5
    np.testing.assert_allclose(DenseMatrixModel(m).semigroup_norm(np.array([0.5])), [dense_fractional_norm(m, 0.5)],
                               rtol=_DENSE_RTOL, atol=0)
