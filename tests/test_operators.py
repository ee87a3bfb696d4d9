"""Model zoo: norm oracles, and the state-space actions of the dense and
diagonal kinds."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, fractional_matrix_power, toeplitz

from semistab import battery, numcore, operators, resolvent
from semistab.errors import (
    DomainError,
    EdgeDominatedWarning,
    ShapeError,
    UnsupportedModelError,
)


def _models(seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = m / 3.0 + 1.5 * np.eye(5)
    return {
        "dense": operators.DenseMatrixModel(m),
        "diagonal": operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e6, grid_count=256),
        "jordan": operators.JordanSumModel(0.5, 0.5, 500),
        "opmatrix": operators.OperatorMatrixModel(3),
    }


def _random_state(model, rng):
    n = model.dim if isinstance(model, operators.DenseMatrixModel) else len(model.grid)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _apply_a(model, x):
    """Independent application of A, for the defining-identity check."""
    if isinstance(model, operators.DenseMatrixModel):
        return model.matrix @ x
    return model.symbol(model.grid) * x


def _resolvent_apply(model, lam, x):
    return model.resolvent_apply_many([lam], x)[0]


def _resolvent_norm(model, lam):
    """||(lam + A)^{-1}|| from the line oracle on a one-point line."""
    return model.shifted_resolvent_norm([lam])[0][0]


def _diff(a, b):
    return float(np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b)))


def test_scalar_semigroup_value():
    model = operators.DenseMatrixModel([[1.0]])
    assert model.semigroup_norm([2.0])[0] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_scalar_resolvent_value():
    model = operators.DenseMatrixModel([[2.0]])
    out = _resolvent_apply(model, 3.0, np.array([1.0 + 0j]))
    assert out[0] == pytest.approx(1.0, rel=1e-14)  # x / (3 - 2)


@pytest.mark.parametrize("kind", ["dense", "diagonal", "jordan", "opmatrix"])
def test_identity_at_time_zero(kind):
    # T(0) = I, so ||T(0)|| = 1
    model = _models()[kind]
    assert model.semigroup_norm([0.0])[0] == pytest.approx(1.0, rel=1e-12)


# norms of the dense and block-sum kinds are exact, so they obey the
# semigroup law's norm inequalities up to rounding
@pytest.mark.parametrize("kind", ["dense", "jordan"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    t=st.floats(0.0, 30.0),
    s=st.floats(0.0, 30.0),
    sigma=st.floats(0.0, 2.0),
    tau=st.floats(0.0, 4.0),
)
@example(t=0.0, s=0.0, sigma=0.0, tau=0.0)
@example(t=7.0, s=0.0, sigma=1.0, tau=0.5)
def test_semigroup_law(kind, t, s, sigma, tau):
    model = _models()[kind]
    margin = 1.0 + 1e-10
    norm_sum, norm_t, norm_s = model.semigroup_norm([t + s, t, s])
    assert norm_sum <= norm_t * norm_s * margin
    after = _quiet_fractional_norm(model, t + s, sigma, tau)
    before = _quiet_fractional_norm(model, s, sigma, tau)
    assert after <= norm_t * before * margin


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
def test_resolvent_defining_identity(kind):
    rng = np.random.default_rng(3)
    model = _models()[kind]
    for lam in (3.0 + 0.0j, -1.0 + 2.0j, 0.7 - 4.3j):
        x = _random_state(model, rng)
        y = _resolvent_apply(model, lam, x)
        back = lam * y - _apply_a(model, y)
        assert _diff(back, x) < 1e-10


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
def test_resolvent_identity(kind):
    rng = np.random.default_rng(4)
    model = _models()[kind]
    lam, mu = 2.0 + 1.5j, -0.7 + 3.0j
    x = _random_state(model, rng)
    r1 = _resolvent_apply(model, lam, x)
    r2 = _resolvent_apply(model, mu, x)
    rr = _resolvent_apply(model, lam, _resolvent_apply(model, mu, x))
    lhs = r1 - r2
    rhs = (mu - lam) * rr
    if float(np.linalg.norm(lhs)) == 0.0:
        return
    assert _diff(lhs, rhs) < 1e-8


def test_resolvent_norm_is_inf_within_tolerance_of_the_spectrum():
    # eigenvalue 1 of A: 1e-13 away is on the spectrum, 1e-9 away is not
    model = operators.DenseMatrixModel(np.diag([1.0, 2.0]))
    (on, off), edges = model.shifted_resolvent_norm([-(1.0 + 1e-13j), -(1.0 + 1e-9j)])
    d = model.spectrum_distance([1.0 + 1e-9j])[0]
    assert on == math.inf and math.isfinite(off) and off >= 1.0 / d
    assert not edges.any()


@pytest.mark.parametrize("kind", ["dense", "diagonal", "jordan", "opmatrix", "tiny-eigenvalue"])
def test_invertible_exactly_when_the_resolvent_at_zero_is_finite(kind):
    # an eigenvalue within the oracle's tolerance of 0 makes A non-invertible
    models = {**_models(), "tiny-eigenvalue": operators.DenseMatrixModel(np.diag([1e-13, 1.0]))}
    model = models[kind]
    assert model.info.invertible == np.isfinite(model.shifted_resolvent_norm([0.0])[0][0])


def test_shape_and_time_errors():
    model = operators.DenseMatrixModel(np.diag([1.0, 2.0]))
    with pytest.raises(ShapeError):
        model.resolvent_apply_many([3.0], np.ones(3))
    with pytest.raises(DomainError):
        model.semigroup_norm([-0.5])


_KINDS = ["dense", "diagonal", "jordan", "opmatrix"]


@pytest.mark.parametrize("oracle", ["semigroup", "fractional"])
@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize(
    "ts", [[-0.5], [1.0, math.nan], [math.inf], 2.0, [[1.0, 2.0]]],
    ids=["negative", "nan", "inf", "scalar", "2-d"],
)
def test_time_checks_shared_by_every_kind(kind, oracle, ts):
    model = _models()[kind]
    with pytest.raises(DomainError):
        if oracle == "semigroup":
            model.semigroup_norm(ts)
        else:
            model.fractional_norm(ts, 1.0, 0.5)


def _models_with_defective():
    # the dense kind takes exp(-tA) by Pade for a defective matrix
    return {**_models(), "defective": operators.DenseMatrixModel([[1.0, 1.0], [0.0, 1.0]])}


@pytest.mark.parametrize("kind", [*_KINDS, "defective"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    ts=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6),
    data=st.data(),
    sigma=st.sampled_from([0.0, 1.0]),
    tau=st.floats(0.0, 2.0),
)
def test_sweep_equals_its_pieces(kind, ts, data, sigma, tau):
    # a sweep carries nothing from one time to the next: the norms of any
    # permutation of the times, taken in any split, are the sweep's own
    model = _models_with_defective()[kind]
    if kind == "defective":
        tau = float(round(tau))  # a defective matrix has integer powers only
    order = data.draw(st.permutations(range(len(ts))))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(ts)), max_size=3)))
    pieces = np.split(np.array(ts)[order], cuts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeDominatedWarning)
        for norms in (model.semigroup_norm, lambda x: model.fractional_norm(x, sigma, tau)):
            whole = norms(np.array(ts))
            parts = np.concatenate([norms(piece) for piece in pieces])
            assert np.array_equal(parts, whole[order])


@pytest.mark.parametrize("kind", _KINDS)
def test_models_keep_no_state(kind):
    model = _models()[kind]
    before = {key: id(val) for key, val in vars(model).items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeDominatedWarning)
        model.semigroup_norm([0.0, 1.5, 4.0])
        model.fractional_norm([0.0, 1.5, 4.0], 1.0, 0.5)
        resolvent.probe_resolvent_norms(model, numcore.geometric_grid(0.1, 10.0, 4), eta=0.5)
    assert {key: id(val) for key, val in vars(model).items()} == before


def test_models_copy_their_arrays():
    # a caller that changes its array afterwards changes no model, and the
    # diagonal model's own grid cannot be changed
    entries = np.diag([1.0 + 0j, 2.0])
    dense = operators.DenseMatrixModel(entries)
    before = _resolvent_norm(dense, 1.0)
    entries[0, 0] = 5.0
    assert _resolvent_norm(dense, 1.0) == before
    with pytest.raises(ValueError):
        operators.DiagonalSymbolModel(1.0, 0.5, grid_count=64).grid[-1] = 1e4


@pytest.mark.parametrize(
    "fields",
    [{"grid_count": 1}, {"s_start": 2.0, "s_max": 2.0 + 1e-15, "grid_count": 64},
     {"s_start": 3.0, "s_max": 2.0}, {"s_max": math.nan}, {"s_start": 1.0}, {"s_max": math.inf}],
    ids=["one-node", "repeated", "decreasing", "nan", "at-1", "inf"],
)
def test_diagonal_grid_checked(fields):
    with pytest.raises(DomainError):
        operators.DiagonalSymbolModel(1.0, 0.5, **fields)


@pytest.mark.parametrize("kind", _KINDS)
def test_empty_sweep_checks_indices(kind):
    # the indices are checked before the time loop, so an empty sweep
    # rejects them too
    model = _models()[kind]
    bad = [(-1.0, 0.0), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)]
    for sigma, tau in bad:
        with pytest.raises(DomainError):
            model.fractional_norm(np.array([]), sigma, tau)
    if kind == "opmatrix":  # integer sigma only
        with pytest.raises(DomainError):
            model.fractional_norm(np.array([]), 0.5, 0.0)


def test_opmatrix_subnormal_time():
    # nothing divides by a subnormal t, so nothing overflows
    t = 2.225073858507e-311
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = operators.OperatorMatrixModel(3)
        norms = model.semigroup_norm([t]), model.fractional_norm([t], 1.0, 0.5)
    assert all(np.isfinite(n).all() for n in norms)


@pytest.mark.parametrize("kind", ["jordan", "opmatrix"])
def test_state_space_actions_only_on_array_kinds(kind):
    model = _models()[kind]
    with pytest.raises(UnsupportedModelError):
        model.resolvent_apply_many([3.0], np.ones(2))
    with pytest.raises(UnsupportedModelError):
        model.phi_closed_apply(0.5, 0.5, np.ones(2))


def test_dense_lower_resolvent_bound():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    model = operators.DenseMatrixModel(m)
    for _ in range(10):
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        d = model.spectrum_distance([-lam])[0]
        if d < 1e-6:
            continue
        assert _resolvent_norm(model, lam) >= 1.0 / d - 1e-8


def _series(t, m, rate):
    """The row e^{-rate t} t^k/k!, k < m, of one time t."""
    return operators._exp_series_rows(np.array([t]), m, rate)[0][0]


def test_jordan_exponential_polynomial_matches_dense_expm():
    model = operators.JordanSumModel(0.5, 0.5, 500)
    n = 130
    m = model.block_size(n)
    t = 2.7
    coeffs = _series(t, m, model.gamma)
    explicit = toeplitz(
        np.concatenate([[coeffs[0]], np.zeros(m - 1)]), coeffs.astype(complex)
    )
    b = np.eye(m, k=1) - model.gamma * np.eye(m)
    assert np.linalg.norm(explicit - expm(t * b), 2) / np.linalg.norm(explicit, 2) < 1e-10


def test_jordan_orbit_norm_closed_form():
    # the jordan.rates orbit witness at tau = 0 is ||T(t) e_m|| at t = m-1
    model = operators.JordanSumModel(0.4, 0.6, 400)
    for n in (model.n_start, 37, 200):
        m = model.block_size(n)
        t, got = battery._block_witness(model, n, 0.0)
        assert t == m - 1
        want = math.exp(-model.gamma * t) * math.sqrt(
            sum((t**k / math.factorial(k)) ** 2 for k in range(m))
        )
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
def test_block_witness_matches_dense_block(tau):
    # ||T(t) e_m|| / ||(1+A_n)^tau e_m|| with block n of A the dense matrix
    # (gamma - i n) I - B on C^m(n), B the unit upper shift
    model = operators.JordanSumModel(0.4, 0.6, 400)
    for n in (model.n_start, 37, 200):
        m = model.block_size(n)
        a_n = (model.gamma - 1j * n) * np.eye(m) - np.eye(m, k=1)
        e_m = np.eye(m)[-1]
        t, got = battery._block_witness(model, n, tau)
        num = np.linalg.norm(expm(-t * a_n) @ e_m)
        den = np.linalg.norm(fractional_matrix_power(np.eye(m) + a_n, tau) @ e_m)
        assert got == pytest.approx(num / den, rel=1e-10)


# the block-sum model of the jordan.rates battery case
_RATE_GAMMA, _RATE_DELTA = 0.5, 0.9
_TAU_STATED = (1.0 - _RATE_GAMMA) / math.log(1.0 / _RATE_DELTA)
_BETA0 = math.log(1.0 / _RATE_GAMMA) / math.log(1.0 / _RATE_DELTA)


@pytest.mark.parametrize(
    "tau", [_TAU_STATED / 2.0, (_TAU_STATED + _BETA0) / 2.0, _BETA0],
    ids=["half-stated", "mid", "beta0"],
)
def test_jordan_fractional_norm_growth_rate(tau):
    # block m contributes ~ delta^(tau m) e^(-gamma t) t^m/m!, largest at
    # m ~ t delta^tau, so ||T(t)(1+A)^-tau|| grows at max(delta^tau - gamma, 0)
    gamma, delta = _RATE_GAMMA, _RATE_DELTA
    model = operators.JordanSumModel(gamma, delta, 10**4)
    ts = np.linspace(5.0, float(model.groups[-1][0] - 1), 20)
    vals = model.fractional_norm(ts, 0.0, tau)
    rate = numcore.fit_exp_rate(ts, vals, window=(0, len(ts))).rate
    assert rate == pytest.approx(max(delta**tau - gamma, 0.0), abs=0.05)


def _jordan_fractional_brute_force(model, t, sigma, tau):
    """sup over every block of the T(t) Phi^sigma_tau block norm, one SVD each."""
    best = 0.0
    for m, a, b in model.groups:
        for n in range(a, b + 1):
            coeffs = operators._shifted_power_rows(
                np.array([1.0 + model.gamma - 1j * n]), -(sigma + tau), m
            )[0]
            if sigma:
                num = operators._shifted_power_rows(
                    np.array([model.gamma - 1j * n]), float(sigma), m
                )[0]
                coeffs = np.convolve(coeffs, num)[:m]
            coeffs = np.convolve(coeffs, _series(t, m, 0.0))[:m]
            best = max(best, operators._toeplitz_norm(coeffs))
    return best * math.exp(-model.gamma * t)


def _quiet_fractional_norm(model, t, sigma, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeDominatedWarning)
        return model.fractional_norm([t], sigma, tau)[0]


def test_jordan_sup_matches_brute_force():
    model = operators.JordanSumModel(0.5, 0.7, 200)
    for t, sigma, tau in ((3.0, 0.0, 1.0), (7.0, 0.0, 2.5), (2.0, 0.5, 1.0), (9.0, 1.5, 0.5)):
        got = _quiet_fractional_norm(model, t, sigma, tau)
        want = _jordan_fractional_brute_force(model, t, sigma, tau)
        assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.05, 0.95),
    delta=st.floats(0.5, 0.9),
    n_max=st.integers(30, 300),
    t=st.floats(0.0, 40.0),
    sigma=st.floats(0.0, 2.0),
    tau=st.floats(0.0, 5.0),
)
# tau = 0 with sigma > 0: block norms all close to 1, so groups stay open
# after their first visit and fall back to their exact rows
@example(gamma=0.5, delta=0.7, n_max=200, t=1.0, sigma=0.1, tau=0.0)
@example(gamma=0.5, delta=0.7, n_max=200, t=20.0, sigma=2.0, tau=0.0)
# t = 0: the Phi rows are the exact rows
@example(gamma=0.5, delta=0.7, n_max=200, t=0.0, sigma=1.0, tau=0.5)
@example(gamma=0.3, delta=0.6, n_max=300, t=0.0, sigma=0.0, tau=1.0)
# a group that falls back to its exact rows with tau > 0
@example(gamma=0.3, delta=0.6, n_max=2000, t=7.5, sigma=0.0, tau=1.0)
def test_jordan_sup_matches_brute_force_random_indices(gamma, delta, n_max, t, sigma, tau):
    assume(sigma + tau > 0.0)
    model = operators.JordanSumModel(gamma, delta, n_max)
    got = _quiet_fractional_norm(model, t, sigma, tau)
    want = _jordan_fractional_brute_force(model, t, sigma, tau)
    assert got == pytest.approx(want, rel=1e-12)


def _groups_by_walk(delta, n_max, n_start):
    """(n_start, groups) from a walk over every n, or None where the model
    must refuse the truncation."""
    def block_size(n):
        return int(math.floor(math.log(n) / math.log(1.0 / delta)))

    if n_max < 2 or block_size(n_max) < 2:
        return None
    n0 = n_start
    while block_size(n0) < 2:
        n0 += 1
    if n0 > n_max:
        return None
    groups, first = [], n0
    for n in range(n0 + 1, n_max + 1):
        if block_size(n) != block_size(first):
            groups.append((block_size(first), first, n - 1))
            first = n
    groups.append((block_size(first), first, n_max))
    return n0, groups


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    delta=st.floats(0.01, 0.99),
    n_max=st.integers(1, 5000),
    n_start=st.integers(1, 5000),
)
# log(1000) / log(10) rounds below 3, so block 1000 ends the m = 2 group:
# the groups are (2, 100, 1000) and (3, 1001, 2000)
@example(delta=0.1, n_max=2000, n_start=2)
def test_jordan_groups_match_the_walk(delta, n_max, n_start):
    want = _groups_by_walk(delta, n_max, n_start)
    if want is None:
        with pytest.raises(DomainError):
            operators.JordanSumModel(0.5, delta, n_max, n_start)
        return
    model = operators.JordanSumModel(0.5, delta, n_max, n_start)
    assert (model.n_start, model.groups) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.05, 0.95),
    delta=st.floats(0.05, 0.95),
    n_max=st.integers(30, 3000),
    t=st.just(0.0) | st.floats(0.0, 80.0),
    sigma=st.just(0.0) | st.floats(0.0, 3.0),
    tau=st.just(0.0) | st.floats(0.0, 6.0),
)
# the worst case of the branch and bound: block norms rise toward the
# end of each group, at t = 0 and at t > 0
@example(gamma=0.5, delta=0.9, n_max=1000, t=0.0, sigma=1.0, tau=0.0)
@example(gamma=0.5, delta=0.9, n_max=1000, t=20.0, sigma=1.0, tau=0.0)
# delta = 0.1: m(1000) = 2, as log(1000) / log(10) rounds below 3
@example(gamma=0.5, delta=0.1, n_max=3000, t=1.0, sigma=0.5, tau=1.0)
def test_jordan_end_blocks_bound_their_group(gamma, delta, n_max, t, sigma, tau):
    # no proof is known that a group's supremum sits at one of its two end
    # blocks (the phases of e(t) and phi_n do not cancel under the diagonal
    # phase change), so every block of every group is checked against them
    assume(math.log(n_max) / math.log(1.0 / delta) >= 2.0)
    model = operators.JordanSumModel(gamma, delta, n_max)
    # an SVD of size m costs ~m^3: this keeps an example to about a second
    assume(sum((b - a + 1) * m**3 for m, a, b in model.groups) <= 3e8)
    for m, a, b in model.groups:
        rows = model._phi_block_rows(sigma, tau, np.arange(a, b + 1).astype(float), m)
        if t:
            rows = _convolved(rows, t, model.gamma)
        norms = [operators._toeplitz_norm(row) for row in rows]
        assert max(norms) <= max(norms[0], norms[-1]) * (1.0 + 1e-12), (m, a, b)


def _convolved(rows, t, rate):
    """The rows of e^{-rate t} exp(t B_m) T(row) for the rows (of length m)
    at one time t."""
    return operators._exp_convolve(rows[None], _series(t, rows.shape[-1], rate)[None])[0]


def _block_rows(groups):
    """_BlockRows of one pair's [(ns, rows)] groups."""
    rows = tuple(rows[None] for _, rows in groups)
    starts = np.cumsum([0] + [r.shape[1] for r in rows])
    sizes = np.array([r.shape[2] for r in rows])
    ns = np.concatenate([ns for ns, _ in groups])
    l1 = np.concatenate([np.abs(r).sum(axis=2) for r in rows], axis=1)
    return operators._BlockRows(ns, rows, l1, starts, sizes)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), spread=st.floats(1e-3, 2.0), t=st.floats(0.0, 30.0))
@example(seed=0, spread=1e-3, t=0.0)
@example(seed=1, spread=0.5, t=0.0)
def test_jordan_branch_and_bound_on_random_rows(seed, spread, t):
    # rows scattered around a common row, so many blocks have nearly the
    # same norm and the l1 bounds leave most of them open; at t > 0 the
    # rows are Phi factors and the blocks e(t) * phi.  The times 0, t, 2t
    # and t share one call, so a time also meets bounds of a group that
    # another time's first visit lowered
    rng = np.random.default_rng(seed)
    model = operators.JordanSumModel(0.5, 0.5, 100)
    groups = []
    for g, m in enumerate((3, 5)):
        base = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        noise = rng.standard_normal((20, m)) + 1j * rng.standard_normal((20, m))
        groups.append((np.arange(20 * g, 20 * g + 20), base + spread * noise))
    ts = np.array([0.0, t, 2.0 * t, t])
    blocks = [[_convolved(rows, s, model.gamma) if s else rows for _, rows in groups] for s in ts]
    want = [max(operators._toeplitz_norm(row) for rows in at_s for row in rows) for at_s in blocks]
    assert model._sup_over_blocks(_block_rows(groups), np.zeros(len(ts), dtype=int), ts)[0].tolist() == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    problems=st.integers(1, 6),
    candidates=st.integers(1, 12),
    ties=st.booleans(),
    lowering=st.floats(0.0, 1.0),
)
@example(seed=0, problems=3, candidates=5, ties=True, lowering=1.0)
def test_branch_and_bound_answers_each_largest_norm_whatever_the_bounds_fall_to(
    seed, problems, candidates, ties, lowering
):
    # bounds at or above the norms (some infinite), and each visit lowers a
    # random share of the bounds not yet visited, of any problem, to any value
    # still at or above their norms, down to the norm itself: whatever order
    # the bounds fall in, each problem's best is its largest norm, bit for
    # bit, and the candidate it names attains it
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.0, 1.0, (problems, candidates))
    if ties:
        norms = np.round(norms, 1)
    ub = norms + rng.exponential(1.0, norms.shape)
    ub[rng.random(norms.shape) < 0.1] = np.inf
    visited = np.zeros(norms.shape, dtype=bool)

    def visit(ps, cs):
        assert not visited[ps, cs].any()
        visited[ps, cs] = True
        lower = ~visited & (rng.random(norms.shape) < lowering)
        share = rng.choice([0.0, 0.5, 1.0], norms.shape) * rng.random(norms.shape)
        with np.errstate(invalid="ignore"):
            lowered = np.where(share == 0.0, norms, norms + (ub - norms) * share)
        ub[lower] = lowered[lower]
        return norms[ps, cs]

    best, at = operators._branch_and_bound(ub, visit)
    assert best.tobytes() == norms.max(axis=1).tobytes()
    assert (norms[np.arange(problems), at] == best).all()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40), t=st.floats(0.0, 60.0))
@example(seed=0, m=2, t=0.0)
@example(seed=3, m=40, t=60.0)
def test_jordan_factored_bounds_on_random_rows(seed, m, t):
    # T(t) Phi has row e(t) * phi with e_k = t^k/k! >= 0, so its norm is at
    # most s_m(t) times the l1 norm of the Phi row, s_m(t) = sum_{k<m} t^k/k!
    rng = np.random.default_rng(seed)
    decay = np.exp(-rng.uniform(0.0, 3.0) * np.arange(m))
    phi = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * decay
    gain = math.fsum(t**k / math.factorial(k) for k in range(m))
    row = _convolved(phi[None], t, 0.0)[0]
    assert operators._toeplitz_norm(row) <= operators._BOUND_MARGIN * gain * np.abs(phi).sum()


def _jordan_resolvent_brute_force(model, lam):
    """Every block's norm, one SVD each, with rows formed as in the model."""
    norms, blocks = [], []
    for m, a, b in model.groups:
        ns = np.arange(a, b + 1)
        w = lam - 1j * ns.astype(float) + model.gamma
        rows = w[:, None] ** (-(np.arange(m)[None, :] + 1.0))
        norms.extend(operators._toeplitz_norm(row) for row in rows)
        blocks.extend(int(n) for n in ns)
    return max(norms), blocks[int(np.argmax(norms))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.05, 0.95),
    delta=st.floats(0.2, 0.9),
    n_max=st.integers(30, 300),
    re_w=st.floats(0.02, 3.0),
    block=st.integers(-20, 320),
    offset=st.floats(-0.5, 0.5),
)
@example(gamma=0.5, delta=0.5, n_max=300, re_w=0.5, block=300, offset=-0.5)
@example(gamma=0.3, delta=0.6, n_max=251, re_w=0.1, block=250, offset=0.5)
@example(gamma=0.5, delta=0.5, n_max=300, re_w=0.05, block=100, offset=0.5)
def test_jordan_resolvent_nearest_block_matches_brute_force(
    gamma, delta, n_max, re_w, block, offset
):
    # Im lam = block + offset: an exact half-integer offset ties two blocks
    model = operators.JordanSumModel(gamma, delta, n_max)
    lam = complex(re_w - gamma, block + offset)
    want, argmax_block = _jordan_resolvent_brute_force(model, lam)
    (got,), (edge,) = model.shifted_resolvent_norm([lam])
    assert got == pytest.approx(want, rel=1e-12)
    assert edge == (argmax_block == model.n_max)


def test_jordan_resolvent_far_from_large_blocks_is_finite():
    # w^(k+1) overflows for the m = 87 blocks at |w| ~ 5e3; their entries
    # underflow to 0 and must not turn the supremum into nan
    model = operators.JordanSumModel(0.5, 0.9, 10**4)
    lam = 0.3 + 4352.7j
    got = _resolvent_norm(model, lam)
    best = 0.0
    for m, a, b in model.groups:
        n = min(max(round(lam.imag), a), b)
        row = np.cumprod(np.full(m, 1.0 / abs(lam + model.gamma - 1j * n)))
        best = max(best, operators._toeplitz_norm(row))
    assert got == pytest.approx(best, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.05, 0.95),
    delta=st.floats(0.2, 0.9),
    n_max=st.integers(30, 10**4),
    re_w=st.floats(0.02, 3.0),
    im_lam=st.floats(-100.0, 2e4),
)
@example(gamma=0.5, delta=0.9, n_max=10**4, re_w=0.8, im_lam=4352.7)
@example(gamma=0.5, delta=0.9, n_max=10**4, re_w=0.05, im_lam=1.5e4)
def test_jordan_resolvent_rows_lose_their_phase(gamma, delta, n_max, re_w, im_lam):
    # the phase change diag(e^{ik arg w}) maps the row w^-(k+1) to |w|^-(k+1):
    # the model's real rows give the norms of the complex rows of the blocks
    # nearest Im lam, also where |w|^(k+1) overflows and the entries underflow
    model = operators.JordanSumModel(gamma, delta, n_max)
    lam = complex(re_w - gamma, im_lam)
    (got,), _ = model.shifted_resolvent_norm([lam])
    want = 0.0
    for m, a, b in model.groups:
        for n in {min(max(math.floor(im_lam) + j, a), b) for j in (0, 1)}:
            # w^-(k+1) as a running product, which underflows to 0 far from the block
            row = np.cumprod(np.full(m, 1.0 / (lam + gamma - 1j * n)))
            want = max(want, operators._toeplitz_norm(row))
    assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("entries", [1, 300])
def test_jordan_resolvent_line_in_chunks_equals_the_whole_line(entries, monkeypatch):
    # a line whose rows are built a few points at a time (one point, or
    # about 300 row entries of 7 groups x 8) answers as the line built at once
    model = operators.JordanSumModel(0.5, 0.5, 500)
    rng = np.random.default_rng(4)
    lams = np.concatenate([rng.uniform(0.05, 2.0, 20) + 1j * rng.uniform(-50.0, 600.0, 20),
                           [0.3 + 40.5j, 0.05 + 500.0j, 0.5 + 7.0j]])
    want = model.shifted_resolvent_norm(lams)
    monkeypatch.setattr(operators, "_LINE_ENTRIES", entries)
    got = model.shifted_resolvent_norm(lams)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert want[1][-2] and not want[1].all()


def test_stacked_toeplitz_norms_equal_their_one_row_calls():
    # one LAPACK call per matrix of a stack, so stacking changes no bit
    rng = np.random.default_rng(5)
    for m in (2, 5, 8, 13, 40, 87):
        rows = rng.standard_normal((30, m)) + 1j * rng.standard_normal((30, m))
        rows *= np.exp(-rng.uniform(0.0, 3.0, (30, 1)) * np.arange(m))
        want = np.array([operators._toeplitz_norm(row) for row in rows])
        assert operators._toeplitz_norm(rows).tobytes() == want.tobytes()


def _sweep_with_warnings(model, ts, sigma, tau):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EdgeDominatedWarning)
        norms = model.fractional_norm(ts, sigma, tau)
    return norms, [str(w.message) for w in caught]


@pytest.mark.parametrize("times_per_chunk", [None, 3])
@pytest.mark.parametrize("sigma,tau", [(0.0, 1.0), (0.1, 0.0), (2.0, 0.0), (0.5, 2.0)])
def test_jordan_fractional_sweep_in_chunks_equals_the_whole_sweep(times_per_chunk, sigma, tau, monkeypatch):
    # a sweep run one time at a time (budget 1) or three at a time answers,
    # and warns, as the sweep run at once; t = 0 and repeated times included
    model = operators.JordanSumModel(0.5, 0.5, 500)
    ts = np.concatenate([[0.0], np.linspace(0.5, 30.0, 11), [1.0, 0.0, 20.0]])
    want = _sweep_with_warnings(model, ts, sigma, tau)
    per_time = sum(m * len({a, b}) for m, a, b in model.groups)
    monkeypatch.setattr(operators, "_LINE_ENTRIES", 1 if times_per_chunk is None else 32 * 3 * per_time)
    got = _sweep_with_warnings(model, ts, sigma, tau)
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def test_jordan_semigroup_sweep_equals_its_one_time_calls():
    # the largest block is 87 x 87, so the sweep takes stacks of four
    model = operators.JordanSumModel(0.5, 0.9, 10**4)
    ts = np.linspace(0.0, 86.0, 9)
    assert model.semigroup_norm(ts).tolist() == [model.semigroup_norm([t])[0] for t in ts]


def test_jordan_sweep_overflow_names_its_first_time(monkeypatch):
    # each e^{-t/1000} t^k/k! up to m = 127 is finite below t = 14986.75,
    # but at t = 14986 their sum, and so the convolved rows, overflow.  The
    # sweep runs in one chunk: t = 14900 is still open when t = 14986 fails
    monkeypatch.setattr(operators, "_LINE_ENTRIES", 2**40)
    model = operators.JordanSumModel(0.001, 0.85, 10**9)
    with pytest.raises(DomainError, match="overflow float64 at t=14986"):
        model.fractional_norm(np.array([14900.0, 14986.0, 14987.0, 14988.0]), 0.0, 1.0)


def _pair_calls(model, ts, pairs):
    """The norms (pairs x times; None after an error), warning texts and
    error of one call per pair in turn, and of one call with every pair."""
    out = []
    for calls in ([([s], [t]) for s, t in pairs], [([s for s, _ in pairs], [t for _, t in pairs])]):
        norms, error = [], None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", EdgeDominatedWarning)
            try:
                for sigmas, taus in calls:
                    norms.extend(model.fractional_norm(ts, sigmas, taus))
            except DomainError as exc:
                norms, error = None, str(exc)
        out.append((norms and np.array(norms).tobytes(), [str(w.message) for w in caught], error))
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.05, 0.95),
    delta=st.floats(0.2, 0.85),
    n_max=st.integers(10, 10**5),
    pairs=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0)),
                   min_size=1, max_size=4),
    times=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6),
)
@example(gamma=0.5, delta=0.5, n_max=10**4, pairs=[(0.0, 1.0), (0.0, 2.0)], times=[0.0, 1.0, 40.0])
@example(gamma=0.5, delta=0.5, n_max=10**4, pairs=[(2.0, 0.0), (0.0, 0.0), (0.0, 1.0), (2.0, 0.0)],
         times=[0.0, 3.0, 0.0])
def test_jordan_pairs_in_one_call_equal_their_one_pair_calls(gamma, delta, n_max, pairs, times):
    # every pair's norms, its warnings in order and the error equal those of
    # one call per pair, bit for bit; t = 0 and the pair (0, 0) included
    assume(math.log(n_max) / math.log(1.0 / delta) >= 2.0)
    model = operators.JordanSumModel(gamma, delta, n_max)
    one_by_one, together = _pair_calls(model, np.array([0.0] + times), pairs)
    assert together == one_by_one


@pytest.mark.parametrize("problems", [1, 3, 8])
def test_jordan_pairs_in_chunks_keep_the_memory_budget(problems, monkeypatch):
    # a chunk holds at most the budget's worth of convolved rows over all its
    # (time, pair) problems, so with room for fewer than one time of every
    # pair a time's pairs straddle two chunks
    model = operators.JordanSumModel(0.5, 0.5, 500)
    ts = np.concatenate([[0.0], np.linspace(0.5, 30.0, 7)])
    pairs = [(0.0, 1.0), (2.0, 0.0), (0.5, 2.0)]
    want = _pair_calls(model, ts, pairs)[0]
    per_problem = sum(m * len({a, b}) for m, a, b in model.groups)
    monkeypatch.setattr(operators, "_LINE_ENTRIES", 32 * per_problem * problems)
    chunks = []
    sup_over_blocks = operators.JordanSumModel._sup_over_blocks

    def counted(self, blocks, pair_of, chunk):
        chunks.append(len(chunk))
        return sup_over_blocks(self, blocks, pair_of, chunk)

    monkeypatch.setattr(operators.JordanSumModel, "_sup_over_blocks", counted)
    assert _pair_calls(model, ts, pairs)[1] == want
    chunks.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeDominatedWarning)
        model.fractional_norm(ts, [s for s, _ in pairs], [t for _, t in pairs])
    assert max(chunks) <= problems
    assert sum(chunks) == len(pairs) * len(ts)


def test_jordan_two_pair_overflow_raises_the_first_pairs_error():
    # e^{-t/10^6} t^57/57! overflows at t = 1e7, so both pairs fail there;
    # the call warns for the first pair's earlier times only, as its one-pair
    # call does, and raises that pair's error
    model = operators.JordanSumModel(1e-6, 0.7, 10**9)
    ts = np.array([1.0, 2.0, 1e7, 5.0])
    _, first_warnings, first_error = _pair_calls(model, ts, [(2.0, 0.0)])[0]
    one_by_one, together = _pair_calls(model, ts, [(2.0, 0.0), (1.0, 0.5)])
    assert together == one_by_one
    assert together[1] == first_warnings and len(first_warnings) == 2
    assert together[2] == first_error == "matrix entries overflow float64 at t=1e+07; the norm is out of range"


@pytest.mark.parametrize("problems", [2, 3])
def test_jordan_pair_whose_rows_overflow_raises_after_the_pairs_before_it(problems, monkeypatch):
    # at t = 6e6 the rows e^{-t/10^6} t^k/k! are finite, and the convolved
    # rows overflow for (2, 0) but not for (0, 3): the call answers and warns
    # for the pairs before (2, 0), then raises its error, whether a chunk
    # holds one time (3 problems) or a time's pairs straddle two chunks (2 problems)
    model = operators.JordanSumModel(1e-6, 0.7, 10**9)
    per_problem = sum(m * len({a, b}) for m, a, b in model.groups)
    monkeypatch.setattr(operators, "_LINE_ENTRIES", 32 * per_problem * problems)
    ts = np.array([1.0, 6e6, 2.0, 3.0])
    one_by_one, together = _pair_calls(model, ts, [(0.0, 3.0), (0.0, 2.5), (2.0, 0.0)])
    assert together == one_by_one
    assert together[2] == "matrix entries overflow float64 at t=6e+06; the norm is out of range"


def test_pairs_in_one_call_equal_their_one_pair_calls_on_every_kind():
    ts = np.array([0.0, 0.5, 3.0, 20.0])
    pairs = [(0.0, 1.0), (1.0, 0.5), (0.0, 0.0), (2.0, 1.0)]
    for kind, model in _models().items():
        one_by_one, together = _pair_calls(model, ts, pairs)
        assert together == one_by_one, kind
        assert model.fractional_norm(ts, 1.0, [0.5, 2.0]).shape == (2, len(ts)), kind
        # an invalid pair, or indices that are not numbers or 1-D arrays, raise
        with pytest.raises(DomainError, match="indices must be finite"):
            model.fractional_norm(ts, [0.0, -1.0], [1.0, 1.0])
        with pytest.raises(DomainError, match="numbers or 1-D arrays"):
            model.fractional_norm(ts, [[0.0]], 1.0)


def test_exp_series_rows_equal_their_one_time_rows():
    # one exp call for all times changes no bit of the one-time rows
    # exp(k log t - log k! - rate t) (the unit row at t = 0); a row that
    # overflows, and every row after it, is 0, and its index is returned
    rng = np.random.default_rng(8)
    for m in (2, 13, 87, 680):
        for rate in (0.0, 0.5):
            ts = np.concatenate([[0.0], np.exp(rng.uniform(-20.0, 6.5, 30)), [0.0]])
            rows, bad = operators._exp_series_rows(ts, m, rate)
            assert bad is None
            want = [np.exp(np.arange(m) * np.log(t) - numcore.log_factorials(m) - rate * t) if t else np.eye(m)[0]
                    for t in ts]
            assert rows.tobytes() == np.array(want).tobytes()
    rows, bad = operators._exp_series_rows(np.array([1.0, 800.0, 2.0]), 680, 0.0)
    assert bad == 1 and not rows[1:].any()
    assert rows[0].tobytes() == _series(1.0, 680, 0.0).tobytes()
    # e^{-t/2} taken in the log domain keeps the row at t = 800 finite
    assert operators._exp_series_rows(np.array([1.0, 800.0, 2.0]), 680, 0.5)[1] is None


def test_jordan_band_sweep_memory_peak():
    # jordan.rates' band sweep; holding every time's convolved rows at once
    # reads 1.55 MiB
    gamma, delta = 0.5, 0.9
    model = operators.JordanSumModel(gamma, delta, 10**4)
    ts = np.linspace(5.0, float(model.groups[-1][0] - 1), 20)
    tau = (1.0 - gamma) / math.log(1.0 / delta)
    fn = lambda: model.fractional_norm(ts, 0.0, tau)  # noqa: E731
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 1.0


def _spectral_point(kind, model):
    if kind == "dense":
        return model._eigvals[2]
    if kind == "diagonal":
        return model.symbol(model.grid[100])
    if kind == "jordan":
        return complex(model.gamma, -40.0)  # the eigenvalue of block 40
    return 0.5  # operator-matrix: s = 0.5 in the spectrum [0, 1]


@pytest.mark.parametrize("kind", _KINDS)
def test_resolvent_singular_point(kind):
    # every kind answers inf, not an edge, on the spectrum of -A, and the
    # rest of the line as if that point were not on it
    model = _models()[kind]
    ok = [1.0 + 2.0j, 0.3 - 40.0j]
    norms, edges = model.shifted_resolvent_norm([ok[0], -_spectral_point(kind, model), ok[1]])
    assert norms[1] == math.inf and not edges[1]
    want_norms, want_edges = model.shifted_resolvent_norm(ok)
    assert np.array_equal(norms[[0, 2]], want_norms) and np.isfinite(want_norms).all()
    assert np.array_equal(edges[[0, 2]], want_edges)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize(
    "lams", [1j, [[1j, 2j]], [1j, math.nan], [complex(0.0, math.inf)]],
    ids=["scalar", "2-d", "nan", "inf"],
)
def test_resolvent_line_checks_shared_by_every_kind(kind, lams):
    with pytest.raises(DomainError):
        _models()[kind].shifted_resolvent_norm(lams)


@pytest.mark.parametrize("kind", _KINDS)
def test_empty_resolvent_line(kind):
    norms, edges = _models()[kind].shifted_resolvent_norm([])
    assert norms.shape == edges.shape == (0,)
    assert edges.dtype == bool


# -105i puts the diagonal supremum at the s_max edge of the small-s_max
# model below; 0.05 + 500i lies next to block n_max = 500 of the block sum
_EDGE_POINTS = {"diagonal": -105.0j, "jordan": 0.05 + 500.0j}


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(lams=st.lists(st.builds(complex, st.floats(0.05, 3.0), st.floats(-600.0, 600.0)), max_size=6))
@example(lams=[1.0 + 2.0j, -105.0j, 0.05 + 500.0j, 0.3 - 40.0j])
def test_resolvent_line_equals_its_points(kind, lams):
    # a line carries nothing from one point to the next
    model = dict(_models(), diagonal=operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e4, grid_count=512))[kind]
    norms, edges = model.shifted_resolvent_norm(lams)
    points = [model.shifted_resolvent_norm([lam]) for lam in lams]
    assert np.array_equal(norms, [norm[0] for norm, _ in points])
    assert np.array_equal(edges, [edge[0] for _, edge in points])
    if _EDGE_POINTS.get(kind) in lams:
        assert edges[lams.index(_EDGE_POINTS[kind])]


def test_probe_line_marks_a_singular_point_and_keeps_its_neighbours():
    # at eta = -gamma, xi = 40 hits the eigenvalue of block 40, and
    # xi = 499.7 lies next to block n_max = 500
    model = operators.JordanSumModel(0.5, 0.5, 500)
    xi = np.array([39.5, 40.0, 40.5, 499.7])
    table = resolvent.probe_resolvent_norms(model, xi, eta=-0.5)
    assert [e.status for e in table.entries] == ["ok"] * 2 + ["singular"] + ["ok"] * 3 + ["edge", "ok"]
    assert table.entries == [e for x in xi for e in resolvent.probe_resolvent_norms(model, [x], -0.5).entries]
    rest = table.ok_entries()
    norms, edges = model.shifted_resolvent_norm([complex(e.eta, e.xi) for e in rest])
    assert [e.norm for e in rest] == norms.tolist()
    assert [e.status == "edge" for e in rest] == edges.tolist()


def test_fractional_norm_is_one_at_zero_indices():
    for kind, model in _models().items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EdgeDominatedWarning)
            assert model.fractional_norm([0.0], 0.0, 0.0)[0] == pytest.approx(1.0, rel=1e-6), kind


def test_semigroup_norm_is_fractional_norm_at_zero_indices():
    # one semigroup norm for every kind but the block sum, which keeps its
    # largest-block formula and answers (0, 0) with it
    models = dict(_models(), defective=operators.DenseMatrixModel([[0.1, 1.0], [0.0, 0.1]]))
    ts = np.array([0.0, 0.3, 2.0, 17.0, 150.0])
    for kind, model in models.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EdgeDominatedWarning)
            assert np.array_equal(model.semigroup_norm(ts), model.fractional_norm(ts, 0.0, 0.0)), kind


def test_opmatrix_resolvent_matches_direct_solve():
    # sup over s of ||(lam + s I - N)^{-1}||: the direct solve at the s nearest -lam;
    # at n = 3 that s, 0.9804, lies in the grid's last cell, which golden section skips
    for n, lam in [(2, 2.0 + 0.7j), (2, -1.5 - 0.2j), (2, 0.5j), (2, -0.3 + 0.1j), (3, -0.9804 + 0.2879j)]:
        got, want, grid = _opmatrix_resolvent_norms(operators.OperatorMatrixModel(n), lam)
        assert got == pytest.approx(want, rel=1e-12)
        assert grid <= want * (1.0 + 1e-12)


def test_opmatrix_norm_growth():
    model = operators.OperatorMatrixModel(3)
    # ||T(t)|| ~ t^{n-1}/ (n-1)! for the nilpotent part
    ts = np.array([50.0, 200.0])
    assert model.semigroup_norm(ts) == pytest.approx(ts**2 / 2.0, rel=0.01)


def test_opmatrix_rejects_fractional_sigma():
    model = operators.OperatorMatrixModel(2)
    with pytest.raises(DomainError):
        model.fractional_norm([1.0], 0.5, 0.0)


# the upper-triangular Toeplitz row algebra behind the block models


def _rows(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dense_toeplitz(row):
    return toeplitz(np.concatenate([row[:1], np.zeros(len(row) - 1)]), row)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), m=st.integers(1, 12))
def test_toeplitz_stack_matches_scipy(seed, count, m):
    rows = _rows(seed, (count, m))
    stack = operators._toeplitz_stack(rows)
    for row, mat in zip(rows, stack):
        assert np.array_equal(mat, _dense_toeplitz(row))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), m=st.integers(1, 12))
def test_row_product_matches_matrix_product(seed, count, m):
    a, b = _rows(seed, (2, count, m))
    got = operators._toeplitz_stack(operators._row_product(a, b))
    for i in range(count):
        want = _dense_toeplitz(a[i]) @ _dense_toeplitz(b[i])
        np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-13 * np.abs(want).max())


# the dense per-s symbols the operator-matrix model used to evaluate, kept
# as the reference for its Toeplitz-row evaluation


def _shift(model):
    """The unit upper shift N of the symbol M(s) = s I - N."""
    return np.eye(model.n, k=1)


def _dense_expm_tN(model, t):
    out = np.eye(model.n)
    p = np.eye(model.n)
    for k in range(1, model.n):
        p = p @ (t * _shift(model)) / k
        out = out + p
    return out


def _dense_symbol_phi(model, alpha, beta, s):
    nilp = _shift(model)
    base = np.linalg.matrix_power(s * np.eye(model.n) - nilp, int(alpha))
    rows = operators._shifted_power_rows(np.array([1.0 + s]), -(alpha + beta), model.n)[0]
    den = sum(c * np.linalg.matrix_power(nilp, k) for k, c in enumerate(rows))
    return base @ den


def _dense_symbols(model, t, sigma, tau):
    e = _dense_expm_tN(model, t)
    return {
        "semigroup": lambda s: math.exp(-t * s) * e,
        "fractional": lambda s: math.exp(-t * s) * e @ _dense_symbol_phi(model, sigma, tau, s),
    }


def _opmatrix_resolvent_norms(model, lam):
    """The model's resolvent norm at lam, the direct solve at s* = clip(-Re lam, 0, 1),
    and the grid-and-golden supremum over s of the direct solves."""
    eye = np.eye(model.n)

    def inverse(s):
        return np.linalg.solve((lam + s) * eye - _shift(model), eye)

    want = float(np.linalg.norm(inverse(min(1.0, max(0.0, -lam.real))), 2))
    return _resolvent_norm(model, lam), want, _dense_sup(model, inverse)


def _dense_sup(model, mat, seeds=()):
    def f(i, ss):
        return np.array([float(np.linalg.norm(mat(s), 2)) for s in np.atleast_1d(ss)])

    nodes = model._sup_nodes
    if len(seeds):
        nodes = np.unique(np.concatenate([nodes, np.asarray(seeds, dtype=float)]))
    return numcore.sup_on_grid(f, nodes, 1, 1)[0][0, 0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 4),
    t=st.floats(0.0, 1e3),
    sigma=st.integers(0, 3),
    tau=st.floats(0.0, 3.0),
    lam=st.complex_numbers(max_magnitude=4.0),
)
@example(n=4, t=1e3, sigma=3, tau=0.0, lam=0.5j)
@example(n=3, t=0.0, sigma=0, tau=0.0, lam=-1.5 + 0j)
def test_opmatrix_norms_match_dense_symbols(n, t, sigma, tau, lam):
    model = operators.OperatorMatrixModel(n)
    assume(model.spectrum_distance(-lam) > 1e-2)
    dense = _dense_symbols(model, t, sigma, tau)
    ss = model._sup_nodes
    semigroup = np.exp(-t * ss)[:, None] * _series(t, model.n, 0.0)
    rows = {
        "semigroup": semigroup,
        "fractional": operators._row_product(semigroup, model._phi_rows(sigma, tau, ss)),
    }
    for kind, row in rows.items():
        got = np.linalg.norm(operators._toeplitz_stack(row), 2, axis=(1, 2))
        want = np.array([np.linalg.norm(dense[kind](s), 2) for s in ss])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def seeds(count):
        return [min(1.0, max(1e-9, c / t)) if t > 0 else 0.5 for c in range(count)]

    resolvent, exact, grid = _opmatrix_resolvent_norms(model, lam)
    sups = [
        (model.semigroup_norm([t])[0], _dense_sup(model, dense["semigroup"], seeds(n))),
        (model.fractional_norm([t], sigma, tau)[0], _dense_sup(model, dense["fractional"], seeds(2 * n))),
        (resolvent, exact),
    ]
    for got, want in sups:
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert grid <= exact * (1.0 + 1e-12)


def test_diagonal_edge_domination_flagged():
    model = operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e4, grid_count=512)
    # resonance at s = xi^(1/b) = 11025 lies just beyond s_max = 1e4, so the
    # supremum climbs into the truncation edge
    assert model.shifted_resolvent_norm([-105.0j])[1][0]


@pytest.mark.parametrize("lam", [1e160j, (1.0 + 1.0j) * 1e160, 1e307j])
def test_diagonal_resolvent_norm_far_from_the_spectrum(lam):
    # (lam + g(s))**2 overflows beyond |lam| ~ 1e154, so the g' term divides by lam + g(s) twice there
    model = _models()["diagonal"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (norm,), (edge,) = model.shifted_resolvent_norm([lam])
    assert norm == pytest.approx(1.0 / abs(lam), rel=1e-12)
    assert not edge


def _sampled_spectrum(kind, model):
    """The whole spectrum of A, or for the operator matrix the dyadic sample j/256 of [0, 1]."""
    if kind == "dense":
        return np.linalg.eigvals(model.matrix)
    if kind == "diagonal":
        return model.symbol(model.grid)
    if kind == "jordan":
        return model.gamma - 1j * np.arange(model.n_start, model.n_max + 1.0)
    return np.linspace(0.0, 1.0, 257) + 0j


# real offsets are multiples of 1/256, so each operator-matrix point has
# its nearest spectral point in the sample; +/- 0.5 ties two blocks of the
# block sum, and +/- 1e3 passes both of its ends
@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(st.integers(0, 10**4),
                                 st.sampled_from([0.0, 0.25, 0.5, -0.5, 3.0, -1e3]),
                                 st.sampled_from([0.0, 1e-13, -1e-9, 0.5, -0.5, 0.3, 7.0, 1e3, -1e3])),
                       max_size=8))
@example(points=[(0, 0.0, 0.0), (0, 0.0, 1e3), (10**4, 0.0, -1e3), (7, 0.0, 0.5), (7, 0.0, -0.5), (3, 0.0, 1e-13)])
def test_spectrum_distance_is_the_nearest_sampled_point(kind, points):
    model = _models()[kind]
    spec = _sampled_spectrum(kind, model)
    lams = np.array([spec[k % len(spec)] + complex(dx, dy) for k, dx, dy in points], dtype=complex)
    want = np.array([np.abs(lam - spec).min() for lam in lams])
    got = model.spectrum_distance(lams)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    assert np.array_equal(got < 1e-11, want < 1e-11)


def test_diagonal_fractional_edge_domination_warns():
    # |exp(-t g(s))| = exp(-t s^-a) rises toward s_max, so at t = s_max the
    # truncation edge holds the supremum of g and of g'
    model = operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e4, grid_count=512)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model.fractional_norm([1e4], 0.0, 0.0)
    assert [(w.category, str(w.message)) for w in caught] == [
        (EdgeDominatedWarning, f"supremum of T(t)Phi^0.0_0.0 symbol{prime} attained at the right "
         "domain edge 10000; truncated domain may not contain the supremum")
        for prime in ("", "'")
    ]
    assert {w.filename for w in caught} == {__file__}


# the diagonal kind's norms, taken from real moduli, against the complex
# formulas g and g' below: a relative bound, since the two round differently
_DIAGONAL_RTOL = 1e-13


def _symbol_derivative(model, s):
    """g'(s) of the diagonal kind's symbol g(s) = s^-a + i s^b."""
    return -model.a * s ** (-model.a - 1.0) + 1j * model.b * s ** (model.b - 1.0)


def _diagonal_symbols(model, ts, sigma, tau):
    """g(i, s) and g'(i, s) of the diagonal kind's fractional norms in
    complex arithmetic, with every factor evaluated afresh at each time."""

    def g(i, s):
        ph = model.symbol(s)
        out = np.exp(-ts[i] * ph)
        if tau:
            out = out * (1.0 + ph) ** -tau
        if sigma:
            out = out * (ph / (1.0 + ph)) ** sigma
        return out

    def gp(i, s):
        ph, dph = model.symbol(s), _symbol_derivative(model, s)
        factor = -ts[i] * dph - (sigma + tau) * dph / (1.0 + ph)
        if sigma:
            factor = factor + sigma * dph / ph
        return g(i, s) * factor

    return g, gp


def _diagonal_norms_per_time(model, ts, sigma, tau):
    """The diagonal kind's fractional norms from ``_diagonal_symbols``: |g|
    and, if used, |g'| as the rows of one ``sup_on_grid`` call, g' taken
    where strictly larger."""
    g, gp = _diagonal_symbols(model, ts, sigma, tau)

    def rows(i, s):
        return np.abs([g(i, s), gp(i, s)] if model.sobolev else [g(i, s)])

    best, _ = numcore.sup_on_grid(rows, model.grid, len(ts), 1 + model.sobolev)
    return np.where(best[-1] > best[0], best[-1], best[0])


@pytest.mark.parametrize("sobolev", [True, False])
@pytest.mark.parametrize("sigma,tau", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.5, 2.0), (3.0, 6.0)])
def test_diagonal_factors_taken_once_per_sweep_keep_every_bit(monkeypatch, sobolev, sigma, tau):
    # the symbol's factors on the grid are taken once per sweep, not once per
    # time, and the norms are those of the complex formulas taken per time
    model = operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e6, grid_count=512, sobolev=sobolev)
    ts = np.geomspace(1.0, 1e4, 9)
    on_grid, moduli = [], operators.DiagonalSymbolModel._moduli

    def counted(self, s):
        on_grid.append(s is self.grid)
        return moduli(self, s)

    monkeypatch.setattr(operators.DiagonalSymbolModel, "_moduli", counted)
    got = model.fractional_norm(ts, sigma, tau)
    assert on_grid.count(True) == 1
    want = _diagonal_norms_per_time(model, ts, sigma, tau)
    np.testing.assert_allclose(got, want, rtol=_DIAGONAL_RTOL, atol=0)


def _two_searches(model, g, gp, count):
    """Norms and edge masks of ``count`` stacked diagonal symbols by the
    rule of two searches: sup |g| over the stack in one ``sup_on_grid``
    call, then, on the Sobolev space, sup |g'| in another, taken where
    strictly larger; the masks are g's row, then g''s."""
    val, edge = numcore.sup_on_grid(lambda i, s: np.abs(g(i, s)), model.grid, count, 1)
    if not model.sobolev:
        return val[0], edge
    dval, dedge = numcore.sup_on_grid(lambda i, s: np.abs(gp(i, s)), model.grid, count, 1)
    return np.where(dval > val, dval, val)[0], np.concatenate([edge, dedge])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(0.05, 3.0),
    b=st.floats(0.05, 0.95),
    s_max=st.floats(1e2, 1e8),
    grid_count=st.sampled_from([64, 512, 4096]),
    sobolev=st.booleans(),
    sigma=st.one_of(st.sampled_from([0.0, 1.0, 400.0]), st.floats(0.0, 400.0)),
    tau=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
    ts=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e5)), min_size=1, max_size=4),
    # |lam + g|^2 overflows float64 beyond about 1.3e154
    lams=st.lists(st.one_of(st.complex_numbers(max_magnitude=1e4),
                            st.complex_numbers(min_magnitude=1e154, max_magnitude=1e300)), max_size=4),
)
@example(a=1.0, b=0.5, s_max=1e4, grid_count=512, sobolev=True, sigma=0.0, tau=0.0,
         ts=[0.0, 1e4], lams=[-105.0j, 1.0])
@example(a=1.0, b=0.5, s_max=1e8, grid_count=64, sobolev=False, sigma=400.0, tau=1.0,
         ts=[0.0, 10.0, 100.0], lams=[1e160j])
@example(a=2.0, b=0.5, s_max=1e6, grid_count=512, sobolev=True, sigma=400.0, tau=0.0,
         ts=[1.0, 1e3], lams=[1e160j, -1e200 + 1e200j, 3.0 - 7.0j])
def test_diagonal_rows_equal_two_searches(a, b, s_max, grid_count, sobolev, sigma, tau, ts, lams):
    assume(a + b >= 1.0)
    model = operators.DiagonalSymbolModel(a, b, s_max=s_max, grid_count=grid_count, sobolev=sobolev)
    ts = np.array(ts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = model.fractional_norm(ts, sigma, tau)
    want, edges = _two_searches(model, *_diagonal_symbols(model, ts, sigma, tau), len(ts))
    np.testing.assert_allclose(got, want, rtol=_DIAGONAL_RTOL, atol=0)
    assert [str(w.message) for w in caught if w.category is EdgeDominatedWarning] == [
        f"supremum of T(t)Phi^{sigma}_{tau} symbol" + "'" * row + " attained at the right domain edge "
        f"{model.grid[-1]:g}; truncated domain may not contain the supremum" for row in np.nonzero(edges)[0]
    ]

    lams = np.array(lams, dtype=complex)
    norms, flags = model.shifted_resolvent_norm(lams)
    off = model.spectrum_distance(-lams) >= operators._SING_TOL
    off_lams = lams[off]

    def gp(i, s):
        d = off_lams[i] + model.symbol(s)
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = d**2
        fits = np.isfinite(d2)
        return -_symbol_derivative(model, s) / np.where(fits, d2, d) / np.where(fits, 1.0, d)

    want, edges = _two_searches(model, lambda i, s: 1.0 / (off_lams[i] + model.symbol(s)), gp, len(off_lams))
    np.testing.assert_allclose(norms[off], want, rtol=_DIAGONAL_RTOL, atol=0)
    assert flags[off].tolist() == edges.any(axis=0).tolist()
    assert np.all(np.isinf(norms[~off])) and not flags[~off].any()


@pytest.mark.parametrize("sobolev", [True, False])
def test_diagonal_norm_is_one_search(monkeypatch, sobolev):
    # |g| and |g'| are two rows of one sup_on_grid call, per pair and per line
    calls = []

    def counted(f, grid, count, rows):
        calls.append(rows)
        return numcore.sup_on_grid(f, grid, count, rows)

    monkeypatch.setattr(operators, "sup_on_grid", counted)
    model = operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e6, grid_count=64, sobolev=sobolev)
    model.fractional_norm([0.0, 10.0], [0.0, 1.0], [1.0, 2.0])
    model.shifted_resolvent_norm([1.0, 2.0j])
    assert calls == [1 + sobolev] * 3


def _diagonal_brute_sup(model, t, sigma, tau, count=2 * 10**6, chunk=2 * 10**5):
    """The diagonal kind's fractional norm as a maximum over ``count``
    geometric nodes of its domain, taken in the log domain: log|g| =
    -t Re ph + sigma log|ph/(1+ph)| - tau log|1+ph|, plus log|g'/g|."""
    nodes = np.geomspace(model.grid[0], model.grid[-1], count)
    best = -np.inf
    for first in range(0, count, chunk):
        s = nodes[first : first + chunk]
        ph, dph = model.symbol(s), _symbol_derivative(model, s)
        log_g = (-t * ph.real + sigma * (np.log(np.abs(ph)) - np.log(np.abs(1.0 + ph)))
                 - tau * np.log(np.abs(1.0 + ph)))
        if model.sobolev:
            ratio = -t * dph - (sigma + tau) * dph / (1.0 + ph) + sigma * dph / ph
            log_g = np.maximum(log_g, log_g + np.log(np.abs(ratio)))
        best = max(best, float(log_g.max()))
    return math.exp(best)


@pytest.mark.parametrize("sobolev", [True, False])
def test_diagonal_fractional_norm_at_large_sigma_is_finite(sobolev):
    # ph^400 overflows where (1+ph)^-401 underflows; their ratio does neither
    model = operators.DiagonalSymbolModel(1.0, 0.5, grid_count=64, sobolev=sobolev)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.fractional_norm([10.0, 100.0], 400.0, 1.0)
    assert np.all(np.isfinite(got))
    want = [_diagonal_brute_sup(model, t, 400.0, 1.0) for t in (10.0, 100.0)]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("a,b", [(1.0, 0.5), (2.0, 0.5), (0.6, 0.8)])
def test_diagonal_known_growth_pair_follows_sobolev(a, b):
    # on plain L^2 the resolvent grows like |xi|^(a/b), and the probes fit it
    plain = operators.DiagonalSymbolModel(a, b, sobolev=False)
    assert plain.info.known_growth_pair == (0.0, a / b)
    table = resolvent.probe_resolvent_norms(plain, numcore.geometric_grid(1e-2, 1e3, 96))
    assert abs(resolvent.fit_growth_profile(table).beta_hat - a / b) <= 0.05
    sobolev = operators.DiagonalSymbolModel(a, b, grid_count=64)
    assert sobolev.info.known_growth_pair == (0.0, (b - 1.0 + 2.0 * a) / b)


def test_overflowing_norms_raise_domain_error():
    # LAPACK answers NaN, or fails to converge, on non-finite entries
    for row in ([1.0, np.inf], [np.nan, 0.0]):
        with pytest.raises(DomainError, match="overflow"):
            operators._toeplitz_norm(row)
    # t^2/2 overflows beyond t ~ 1.9e154
    with pytest.raises(DomainError, match="overflow"):
        operators.OperatorMatrixModel(3).fractional_norm([1e155], 1.0, 0.0)
    # e^{-t/1000} t^k/k! overflows at the largest block, m = 127, from
    # t ~ 14986.75 to beyond 1e5, in both block-sum norms, whose branch and
    # bound would otherwise read the NaN rows as 0
    jordan = operators.JordanSumModel(0.001, 0.85, 10**9)
    with pytest.raises(DomainError, match="overflow float64 at t=100000"):
        jordan.semigroup_norm([1e5])
    with pytest.raises(DomainError, match="overflow float64 at t=100000"):
        jordan.fractional_norm([100.0, 1e5], 0.0, 1.0)
    # at t = 14986 each entry is finite, but their sum and the FFT of the
    # convolved rows overflow
    with pytest.raises(DomainError, match="overflow float64 at t=14986"):
        jordan.fractional_norm([14986.0], 0.0, 1.0)


@pytest.mark.parametrize("gamma,delta,t", [(0.5, 0.97, 800.0), (0.05, 0.85, 14000.0)])
def test_block_sum_norm_is_finite_where_only_t_k_over_k_factorial_overflows(gamma, delta, t):
    # t^k/k! overflows in the largest block at these times, e^{-gamma t} t^k/k!
    # does not: the norm of its Toeplitz matrix lies between the largest entry
    # of the row and the row's l1 norm, both taken in the log domain
    from scipy.special import gammaln, logsumexp

    model = operators.JordanSumModel(gamma, delta, 10**9)
    k = np.arange(model.groups[-1][0])
    log_terms = k * math.log(t) - gammaln(k + 1)
    assert log_terms.max() > math.log(np.finfo(float).max)
    log_row = log_terms - gamma * t
    assert log_row.max() <= math.log(model.semigroup_norm([t])[0]) <= logsumexp(log_row)


def test_metadata_flags():
    models = _models()
    assert models["dense"].info.sectorial
    assert models["diagonal"].info.sectorial and models["diagonal"].info.invertible
    assert models["jordan"].info.sectorial and models["jordan"].info.injective
    assert not models["opmatrix"].info.sectorial
    assert not models["opmatrix"].info.invertible
    singular = operators.DenseMatrixModel([[1.0, 0.0], [0.0, 0.0]])
    assert not singular.info.injective


def test_sectorial_models_are_injective_and_invertible():
    # fraccalc's contour quadrature checks neither flag, nor a missing angle
    models = {**_models_with_defective(), "singular": operators.DenseMatrixModel([[1.0, 0.0], [0.0, 0.0]])}
    for name, model in models.items():
        info = model.info
        assert not info.sectorial or (info.injective and info.invertible and info.sectorial_angle is not None), name
    assert [name for name, model in models.items() if not model.info.sectorial] == ["opmatrix", "singular"]


_PARTS = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(row=st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1, max_size=40))
def test_toeplitz_norm_between_l2_and_l1(row):
    # the last column holds the whole row, and T = sum_k row_k B^k with
    # ||B^k|| <= 1; the l1 side is the bound the block-sum search prunes with
    row = np.array(row)
    l1 = float(np.abs(row).sum())
    norm = operators._toeplitz_norm(row)
    assert float(np.linalg.norm(row)) <= norm + 1e-12 * l1
    assert norm <= l1 * (1.0 + 1e-12)


@pytest.mark.parametrize("alpha, beta", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 3), (3, 0)])
def test_jordan_phi_closed_apply_matches_dense_blocks(alpha, beta):
    # block n of A is (gamma - i n) I - B on C^m(n), B the unit upper shift
    model = operators.JordanSumModel(0.5, 0.5, 200)
    rng = np.random.default_rng(7)
    for n in (model.n_start, 5, 37, 200):
        m = model.block_size(n)
        a_n = (model.gamma - 1j * n) * np.eye(m) - np.eye(m, k=1)
        dense = np.linalg.matrix_power(a_n, alpha) @ np.linalg.matrix_power(np.eye(m) + a_n, -(alpha + beta))
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        row = model._phi_block_rows(alpha, beta, np.array([float(n)]), m)[0]
        got = operators._toeplitz_stack(row) @ v
        want = dense @ v
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        if alpha == beta == 0:
            assert np.array_equal(got, v)
