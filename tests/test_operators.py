"""Model zoo: norm oracles, and the state-space actions of the dense and
diagonal kinds."""

import math
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
    with pytest.raises(DomainError):
        model.fractional_norm(np.array([]), -1.0, 0.0)
    if kind == "opmatrix":  # integer sigma only
        with pytest.raises(DomainError):
            model.fractional_norm(np.array([]), 0.5, 0.0)


def test_opmatrix_subnormal_time():
    # c / t overflows at a subnormal t; every seed with c >= t is 1
    t = 2.225073858507e-311
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert operators._bump_seeds(t, 4) == [1e-9, 1.0, 1.0, 1.0]
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


def test_jordan_exponential_polynomial_matches_dense_expm():
    model = operators.JordanSumModel(0.5, 0.5, 500)
    n = 130
    m = model.block_size(n)
    t = 2.7
    coeffs = operators._exp_series_coeffs(t, m)
    explicit = toeplitz(
        np.concatenate([[coeffs[0]], np.zeros(m - 1)]), coeffs.astype(complex)
    )
    b = np.eye(m, k=1)
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
            coeffs = np.convolve(coeffs, operators._exp_series_coeffs(t, m))[:m]
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
            rows = operators._exp_convolve(rows, t)
        norms = [operators._toeplitz_norm(row) for row in rows]
        assert max(norms) <= max(norms[0], norms[-1]) * (1.0 + 1e-12), (m, a, b)


def _block_rows(groups):
    """_BlockRows of [(ns, rows)] groups."""
    rows = tuple(rows for _, rows in groups)
    starts = np.cumsum([0] + [len(r) for r in rows])
    sizes = np.array([r.shape[1] for r in rows])
    ns = np.concatenate([ns for ns, _ in groups])
    l1 = np.concatenate([np.abs(r).sum(axis=1) for r in rows])
    return operators._BlockRows(ns, rows, l1, starts, sizes)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), spread=st.floats(1e-3, 2.0), t=st.floats(0.0, 30.0))
@example(seed=0, spread=1e-3, t=0.0)
@example(seed=1, spread=0.5, t=0.0)
def test_jordan_branch_and_bound_on_random_rows(seed, spread, t):
    # rows scattered around a common row, so many blocks have nearly the
    # same norm and the l1 bounds leave most of them open; at t > 0 the
    # rows are Phi factors and the blocks e(t) * phi
    rng = np.random.default_rng(seed)
    model = operators.JordanSumModel(0.5, 0.5, 100)
    groups = []
    for g, m in enumerate((3, 5)):
        base = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        noise = rng.standard_normal((20, m)) + 1j * rng.standard_normal((20, m))
        groups.append((np.arange(20 * g, 20 * g + 20), base + spread * noise))
    blocks = [operators._exp_convolve(rows, t) if t else rows for _, rows in groups]
    want = max(operators._toeplitz_norm(row) for rows in blocks for row in rows)
    assert model._sup_over_blocks(_block_rows(groups), t)[0] == want


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
    row = operators._exp_convolve(phi[None], t)[0]
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
    # sup over s of ||(lam + s I - N)^{-1}||, each inverse by a direct solve
    model = operators.OperatorMatrixModel(2)
    eye = np.eye(2)
    for lam in (2.0 + 0.7j, -1.5 - 0.2j, 0.5j):
        got = _resolvent_norm(model, lam)
        want = _dense_sup(model, lambda s: np.linalg.solve((lam + s) * eye - _shift(model), eye))
        assert got == pytest.approx(want, rel=1e-12)


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


def _dense_symbols(model, t, sigma, tau, lam):
    e = _dense_expm_tN(model, t)
    return {
        "semigroup": lambda s: math.exp(-t * s) * e,
        "fractional": lambda s: math.exp(-t * s) * e @ _dense_symbol_phi(model, sigma, tau, s),
        "resolvent": lambda s: sum(
            np.linalg.matrix_power(_shift(model), k) * (lam + s) ** (-(k + 1)) for k in range(model.n)
        ),
    }


def _dense_sup(model, mat, seeds=()):
    def f(i, ss):
        return np.array([float(np.linalg.norm(mat(s), 2)) for s in np.atleast_1d(ss)])

    nodes = model._sup_nodes
    if len(seeds):
        nodes = np.unique(np.concatenate([nodes, np.asarray(seeds, dtype=float)]))
    return numcore.sup_on_grid(f, [nodes])[0][0]


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
    dense = _dense_symbols(model, t, sigma, tau, lam)
    ss = model._sup_nodes
    rows = {
        "semigroup": model._semigroup_rows(t, ss),
        "fractional": operators._row_product(
            model._semigroup_rows(t, ss), model._phi_rows(sigma, tau, ss)
        ),
    }
    for kind, row in rows.items():
        got = np.linalg.norm(operators._toeplitz_stack(row), 2, axis=(1, 2))
        want = np.array([np.linalg.norm(dense[kind](s), 2) for s in ss])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def seeds(count):
        return [min(1.0, max(1e-9, c / t)) if t > 0 else 0.5 for c in range(count)]

    sups = [
        (model.semigroup_norm([t])[0], _dense_sup(model, dense["semigroup"], seeds(n))),
        (model.fractional_norm([t], sigma, tau)[0], _dense_sup(model, dense["fractional"], seeds(2 * n))),
        (_resolvent_norm(model, lam), _dense_sup(model, dense["resolvent"])),
    ]
    for got, want in sups:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


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


def test_metadata_flags():
    models = _models()
    assert models["dense"].info.sectorial
    assert models["diagonal"].info.sectorial and models["diagonal"].info.invertible
    assert models["jordan"].info.sectorial and models["jordan"].info.injective
    assert not models["opmatrix"].info.sectorial
    assert not models["opmatrix"].info.invertible
    singular = operators.DenseMatrixModel([[1.0, 0.0], [0.0, 0.0]])
    assert not singular.info.injective


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
