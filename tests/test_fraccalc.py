"""Contour quadrature for fractional powers and the scalar identity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import fraccalc, operators
from semistab.errors import ContourError, DomainError, TruncationWarning


def test_identity_closed_forms():
    chk = fraccalc.verify_contour_identity(1.0, 1.0, 1.0, 1j)
    assert chk.closed_form == pytest.approx(0.5, abs=1e-15)
    assert chk.rel_error < 1e-10
    chk0 = fraccalc.verify_contour_identity(0.0, 1.0, 1.0, 1j)
    assert chk0.closed_form == pytest.approx(0.5 + 0.5j, abs=1e-15)
    assert chk0.rel_error < 1e-10
    chk2 = fraccalc.verify_contour_identity(2.0, 0.5, 0.5, 2j)
    assert chk2.rel_error < 1e-6


def test_identity_domain_checks():
    with pytest.raises(DomainError):
        fraccalc.verify_contour_identity(1.0, 1.0, 1.0, -1.0 + 0.2j)  # left half-plane
    with pytest.raises(DomainError):
        fraccalc.verify_contour_identity(1.0, 1.0, 1.0, 0.9 + 0.1j)  # inside the sector
    with pytest.raises(DomainError):
        fraccalc.verify_contour_identity(1.0, 0.0, 1.0, 1j)  # beta must be positive
    with pytest.raises(DomainError):
        fraccalc.verify_contour_identity(1.0, 1.0, 1.5, 1j)  # eta must lie in (0, 1]
    with pytest.raises(ContourError):
        fraccalc.verify_contour_identity(
            1.0, 1.0, 1.0, 1j, contour=fraccalc.ContourSpec(theta=0.6 * math.pi),
        )


def test_identity_convergence_ladder():
    prev = None
    nodes = 128
    while nodes <= 1024:
        err = fraccalc.verify_contour_identity(
            0.5, 1.0, 1.0, 1j, contour=fraccalc.ContourSpec(nodes_per_ray=nodes)
        ).rel_error
        if prev is not None and prev > 1e-10:
            assert err <= max(prev / 4.0, 1e-10)
        prev = err
        nodes *= 2


def test_scalar_fractional_power_values():
    one = operators.DenseMatrixModel([[1.0]])
    got = fraccalc.contour_fractional_apply(
        one, fraccalc.FractionalIndex(0.5, 0.5, 1.0), np.array([1.0 + 0j])
    )
    assert got[0] == pytest.approx(0.5, rel=1e-9)
    two = operators.DenseMatrixModel([[2.0]])
    got2 = fraccalc.contour_fractional_apply(
        two, fraccalc.FractionalIndex(1.0, 0.5, 1.0), np.array([1.0 + 0j])
    )
    assert got2[0] == pytest.approx(2.0 * 3.0**-1.5, rel=1e-9)


def test_alpha_zero_reduces_to_resolvent():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) / 2.0 + 1.2 * np.eye(4)
    model = operators.DenseMatrixModel(m)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = fraccalc.contour_fractional_apply(model, fraccalc.FractionalIndex(0.0, 1.0, 1.0), x)
    want = np.linalg.solve(np.eye(4) + m, x)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8


def test_identity_indices_return_copy():
    model = operators.DenseMatrixModel([[1.0]])
    x = np.array([2.0 + 0j])
    out = fraccalc.fractional_power_apply(model, 0.0, 0.0, x)
    assert out[0] == x[0]
    out[0] = 0.0
    assert x[0] == 2.0 + 0j


def test_composition_law_closed_form_route():
    model = operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e5, grid_count=128)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    two = fraccalc.fractional_power_apply(
        model, 0.5, 0.25, fraccalc.fractional_power_apply(model, 0.75, 0.5, x)
    )
    one = fraccalc.fractional_power_apply(model, 1.25, 0.75, x)
    assert np.linalg.norm(two - one) / np.linalg.norm(one) < 1e-8


_INDEX = st.one_of(st.integers(0, 2).map(float), st.floats(0.0, 2.0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5),
       a1=_INDEX, b1=_INDEX, a2=_INDEX, b2=_INDEX)
def test_composition_law_on_dense_closed_forms(seed, dim, a1, b1, a2, b2):
    # Phi^{a1}_{b1} Phi^{a2}_{b2} = Phi^{a1+a2}_{b1+b2} on a diagonalizable
    # matrix with well-separated eigenvalues in the right half-plane; integer
    # exponents take the matrix-power route, the others the eigen route
    rng = np.random.default_rng(seed)
    mu = 0.3 + 0.6 * rng.permutation(dim) + 1j * rng.uniform(-2.0, 2.0, dim)
    v = np.eye(dim) + 0.3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / dim
    model = operators.DenseMatrixModel(v @ np.diag(mu) @ np.linalg.inv(v))
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    two = fraccalc.fractional_power_apply(model, a1, b1, fraccalc.fractional_power_apply(model, a2, b2, x))
    one = fraccalc.fractional_power_apply(model, a1 + a2, b1 + b2, x)
    assert np.linalg.norm(two - one) <= 1e-10 * np.linalg.norm(one)


def test_defective_dense_falls_back_to_contour():
    # [[1,1],[0,1]] has no eigenbasis, so the closed form is unavailable and
    # fractional_power_apply must route through the contour; the oracle is
    # the two-term Taylor value f(1) I + f'(1) N for f(z) = z^a (1+z)^(-a-b)
    model = operators.DenseMatrixModel([[1.0, 1.0], [0.0, 1.0]])
    assert model.info.sectorial and not model._diagonalizable
    a, b = 0.5, 0.25
    f1 = 2.0 ** -0.75
    fp1 = 2.0 ** -0.75 / 8.0
    oracle = np.array([[f1, fp1], [0.0, f1]], dtype=complex)
    # beta < 1/2 needs a wider contour than the default (tail ~ r_max^-beta)
    wide = fraccalc.ContourSpec(r_min=1e-48, r_max=1e48, nodes_per_ray=4096)
    for x in (np.array([1.0, 0.0], complex), np.array([0.3, -0.7j], complex)):
        got = fraccalc.fractional_power_apply(model, a, b, x, contour=wide)
        want = oracle @ x
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8


def test_injectivity_gate():
    singular = operators.DenseMatrixModel([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        fraccalc.fractional_power_apply(singular, 0.5, 0.5, np.array([1.0, 1.0]))


def test_contour_rejects_beta_zero_and_nonsectorial():
    model = operators.DenseMatrixModel([[1.0]])
    with pytest.raises(ContourError):
        fraccalc.contour_fractional_apply(
            model, fraccalc.FractionalIndex(1.0, 0.0, 1.0), np.array([1.0 + 0j])
        )
    om = operators.OperatorMatrixModel(2)
    with pytest.raises(ContourError):
        fraccalc.contour_fractional_apply(
            om, fraccalc.FractionalIndex(1.0, 1.0, 1.0), np.zeros((16, 2), complex)
        )


def test_contour_angle_must_clear_model_angle():
    # spectrum on a ray at 170 degrees is outside every admissible sector
    z = cmath.rect(1.0, 0.95 * math.pi)
    model = operators.DenseMatrixModel([[z]])
    assert not model.info.sectorial or model.info.sectorial_angle > 0.75 * math.pi
    with pytest.raises(ContourError):
        fraccalc.contour_fractional_apply(
            model, fraccalc.FractionalIndex(0.5, 0.5, 1.0), np.array([1.0 + 0j])
        )


def test_truncation_warning_for_small_beta():
    # the tail scales like r_max^(-beta); beta = 0.1 on the default contour
    # cannot meet the 1e-8 tail tolerance and must say so
    model = operators.DenseMatrixModel([[1.0]])
    with pytest.warns(TruncationWarning):
        fraccalc.contour_fractional_apply(
            model, fraccalc.FractionalIndex(0.5, 0.1, 1.0), np.array([1.0 + 0j])
        )


def test_contour_spec_validation():
    with pytest.raises(ContourError):
        fraccalc.ContourSpec(theta=3.5)
    with pytest.raises(ContourError):
        fraccalc.ContourSpec(r_min=1.0, r_max=0.5)
    with pytest.raises(ContourError):
        fraccalc.ContourSpec(nodes_per_ray=4)
    for alpha, beta, eta in [(-1.0, 0.5, 1.0), (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                             (1.0, 0.5, 0.0), (1.0, 0.5, math.nan)]:
        with pytest.raises(DomainError):
            fraccalc.FractionalIndex(alpha, beta, eta)
    one = operators.DenseMatrixModel([[1.0]])
    for alpha, beta in [(math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(DomainError):
            fraccalc.fractional_power_apply(one, alpha, beta, np.array([1.0 + 0j]))
