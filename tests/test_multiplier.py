"""Discrete transforms, multiplier application, and norm estimates."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import battery, cli, multiplier, numcore, operators
from semistab.errors import DomainError, ShapeError, SingularSymbolError, WindowError


@pytest.fixture
def grid():
    return multiplier.FourierGridSpec(64.0, 2**10)


def _bump(grid, center=0.0, width=2.0, freq=0.0):
    ts = grid.times
    return np.exp(-0.5 * ((ts - center) / width) ** 2) * np.exp(1j * freq * ts)


def test_grid_validation():
    with pytest.raises(DomainError):
        multiplier.FourierGridSpec(-1.0, 8)
    with pytest.raises(DomainError):
        multiplier.FourierGridSpec(10.0, 100)  # not a power of two
    for period in (math.inf, math.nan):
        with pytest.raises(DomainError, match="period"):
            multiplier.FourierGridSpec(period, 8)


def test_grid_nodes_are_read_only_and_keep_their_formulas(grid):
    assert np.array_equal(grid.times, -0.5 * grid.period + grid.dt * np.arange(grid.samples))
    assert np.array_equal(grid.freqs, 2.0 * math.pi * np.fft.fftfreq(grid.samples, d=grid.dt))
    assert grid.times is grid.times and grid.freqs is grid.freqs
    for nodes in (grid.times, grid.freqs):
        with pytest.raises(ValueError):
            nodes[0] = 1.0
    # the cached phases are the ones each transform computed per call
    f = _bump(grid, freq=1.0)
    forward = grid.dt * np.exp(-1j * grid.freqs * grid.times[0]) * np.fft.fft(f)
    assert np.array_equal(multiplier.fourier_forward(f, grid), forward)
    inverse = np.fft.ifft(f * np.exp(1j * grid.freqs * grid.times[0])) / grid.dt
    assert np.array_equal(multiplier.fourier_inverse(f, grid), inverse)


def test_symbol_samples(grid):
    rsym = multiplier.resolvent_power_symbol(operators.DenseMatrixModel(np.diag([1.0, 2.0])), 1)
    samples = rsym.on(grid)
    assert samples.symbol is rsym and samples.grid is grid
    assert np.array_equal(samples.values, rsym.eval_all(grid.freqs))
    assert np.array_equal(samples.norms, np.linalg.norm(samples.values, ord=2, axis=(1, 2)))
    for arr in (samples.values, samples.norms):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_round_trip(grid):
    rng = np.random.default_rng(0)
    f = rng.standard_normal(grid.samples) + 1j * rng.standard_normal(grid.samples)
    back = multiplier.fourier_inverse(multiplier.fourier_forward(f, grid), grid)
    assert np.max(np.abs(back - f)) < 1e-12


def test_parseval_fixes_normalization(grid):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.samples) + 1j * rng.standard_normal(grid.samples)
    fhat = multiplier.fourier_forward(f, grid)
    lhs = grid.dxi * np.sum(np.abs(fhat) ** 2)
    rhs = 2.0 * math.pi * grid.dt * np.sum(np.abs(f) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_identity_symbol(grid):
    f = _bump(grid, freq=1.0)
    sym = multiplier.Symbol(lambda x: np.ones_like(np.asarray(x, dtype=complex)))
    out = multiplier.apply_multiplier(sym, f, grid)
    assert np.max(np.abs(out - f)) < 1e-12


def test_shift_symbol_is_circular_shift(grid):
    f = _bump(grid, center=3.0)
    h = 8.0 * grid.dt
    sym = multiplier.Symbol(lambda x: np.exp(-1j * np.asarray(x) * h))
    out = multiplier.apply_multiplier(sym, f, grid)
    assert np.max(np.abs(out - np.roll(f, 8))) < 1e-10


def test_scalar_resolvent_symbol_matches_causal_convolution():
    a = 1.0
    grid = multiplier.FourierGridSpec(200.0 / a, 2**14)
    f = _bump(grid, center=0.0, width=1.5)
    sym = multiplier.Symbol(lambda x: 1.0 / (1j * np.asarray(x) + a))
    out = multiplier.apply_multiplier(sym, f, grid)
    # direct quadrature of the causal convolution with e^{-a t}: the kernel
    # samples start at t = 0, so the linear convolution aligns with the grid
    ts = grid.times
    tpos = ts[ts >= 0.0]
    kernel = np.exp(-a * tpos)
    w = np.full(len(tpos), grid.dt)
    w[0] *= 0.5
    direct = np.convolve(kernel * w, f)[: grid.samples]
    err = np.linalg.norm(out - direct) / np.linalg.norm(direct)
    assert err < 1e-3


def test_exact_l2_norm_values(grid):
    sym = multiplier.Symbol(lambda x: 1.0 / (1j * np.asarray(x) + 2.0))
    assert multiplier.exact_l2_norm(sym.on(grid)) == pytest.approx(0.5, rel=1e-9)
    model = operators.DenseMatrixModel(np.diag([1.0 + 5.0j, 3.0]))
    rsym = multiplier.resolvent_power_symbol(model, 1)
    # normal matrix: sup over xi of max_mu 1/|i xi + mu|; the xi grid hits
    # -Im(mu) = -5 exactly only approximately
    got = multiplier.exact_l2_norm(rsym.on(grid))
    assert got == pytest.approx(1.0, rel=0.02)


def test_lower_bound_constant_symbol(grid):
    sym = multiplier.Symbol(lambda x: 0.7 * np.ones_like(np.asarray(x, dtype=complex)))
    samples = sym.on(grid)
    [lower] = multiplier.estimate_pq_norm_lower(samples, [(2.0, 2.0)])
    assert lower >= 0.99 * 0.7
    assert lower <= multiplier.exact_l2_norm(samples) + 1e-6


def test_lower_bound_requires_q_at_least_p(grid):
    sym = multiplier.Symbol(lambda x: np.ones_like(np.asarray(x, dtype=complex)))
    with pytest.raises(DomainError):
        multiplier.estimate_pq_norm_lower(sym.on(grid), [(2.0, 1.0)])


def test_lower_bound_one_infinity_respects_kernel_sup():
    # the (1, oo) multiplier of a stable resolvent symbol is convolution
    # against the semigroup, so sup_t ||T(t)|| bounds it from above
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 3)) / 3.0 + 0.8 * np.eye(3)
    model = operators.DenseMatrixModel(m)
    grid = multiplier.FourierGridSpec(120.0, 2**11)
    sym = multiplier.resolvent_power_symbol(model, 1)
    [lower] = multiplier.estimate_pq_norm_lower(sym.on(grid), [(1.0, math.inf)])
    kernel_sup = model.semigroup_norm(np.linspace(0.0, 30.0, 120)).max()
    assert lower <= kernel_sup + 1e-6


def test_upper_bound_values(grid):
    zero = multiplier.Symbol(lambda x: np.zeros_like(np.asarray(x, dtype=complex))).on(grid)
    assert multiplier.upper_bound_pq_norm_fourier_type(zero, 1.0, math.inf) == 0.0
    lor = multiplier.Symbol(lambda x: (1.0 + np.abs(np.asarray(x))) ** -2.0).on(grid)
    got = multiplier.upper_bound_pq_norm_fourier_type(lor, 1.0, math.inf)
    # (1/2 pi) * F_1^2 * integral of (1+|xi|)^-2 = 2/(2 pi) = 1/pi
    assert got == pytest.approx(1.0 / math.pi, rel=0.05)
    with pytest.raises(DomainError):
        multiplier.upper_bound_pq_norm_fourier_type(lor, 2.0, 1.0)
    with pytest.raises(DomainError):
        multiplier.fourier_constant(1.5)


def test_singular_symbol_modes(grid):
    def inv(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (1j * np.asarray(x, dtype=complex))

    f = _bump(grid)
    err_sym = multiplier.Symbol(inv, name="1/(i xi)")  # the default "value" mode
    with pytest.raises(SingularSymbolError) as err:
        multiplier.apply_multiplier(err_sym, f, grid)
    assert err.value.node == 0.0
    zero_sym = multiplier.Symbol(inv, at_zero="zero")
    out = multiplier.apply_multiplier(zero_sym, f, grid)
    assert np.all(np.isfinite(out))


def test_symbol_fn_is_vectorized():
    # fn is called once on each block of nodes: a scalar result is a shape
    # error, and an error of fn propagates instead of a retry node by node
    grid = multiplier.FourierGridSpec(200.0, 2**13)
    f = _bump(grid)
    with pytest.raises(ShapeError, match=rf"expected \({multiplier._RESOLVENT_BLOCK},\)"):
        multiplier.apply_multiplier(multiplier.Symbol(lambda x: 0.7), f, grid)
    with pytest.raises(TypeError):
        multiplier.apply_multiplier(multiplier.Symbol(math.cos), f, grid)


def test_semigroup_convolution_identity_and_pulse():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) / 3.0 + 1.0 * np.eye(3)
    model = operators.DenseMatrixModel(m)
    grid = multiplier.FourierGridSpec(80.0, 2**12)
    f = _bump(grid, center=2.0, width=2.0)[:, None] * np.ones((1, 3))
    for k, conv in enumerate(multiplier.semigroup_convolution(model, (0, 1), f, grid)):
        sym = multiplier.resolvent_power_symbol(model, k + 1)
        via = math.factorial(k) * multiplier.apply_multiplier(sym, f, grid)
        assert np.linalg.norm(conv - via) / np.linalg.norm(via) < 1e-3
    # a delta-like pulse reproduces s^k T(s) x
    pulse = np.zeros((grid.samples, 3), dtype=complex)
    i0 = int(np.argmin(np.abs(grid.times)))
    x = np.array([1.0, -0.5, 0.25], dtype=complex)
    pulse[i0] = x / grid.dt
    (out,) = multiplier.semigroup_convolution(model, [1], pulse, grid)
    for s in (2.0, 5.0):
        i = int(np.argmin(np.abs(grid.times - s)))
        want = grid.times[i] * (model._expm_neg(grid.times[i]) @ x)
        assert np.linalg.norm(out[i] - want) / np.linalg.norm(want) < 1e-2


def test_convolution_window_errors():
    growing = operators.DenseMatrixModel([[-0.2]])  # semigroup e^{0.2 t} grows
    grid = multiplier.FourierGridSpec(40.0, 2**10)
    f = _bump(grid)[:, None]
    with pytest.raises(WindowError):
        multiplier.semigroup_convolution(growing, [0], f, grid)
    slow = operators.DenseMatrixModel([[0.05]])  # decays too slowly for the window
    with pytest.raises(WindowError):
        multiplier.semigroup_convolution(slow, [0], f, grid)


def test_laplace_identity_window_error():
    model = operators.DenseMatrixModel([[1.0]])
    x = np.array([1.0 + 0j])
    with pytest.raises(WindowError):
        multiplier.verify_laplace_identity(model, [0], x, multiplier.FourierGridSpec(5.0, 2**10))


def test_laplace_identity_overflow_names_the_first_time():
    # e^{-tA} overflows from t ~ 35 of the window's 50, in a later block of
    # times; the error is the one of a single T(t) evaluation at every time
    model = operators.DenseMatrixModel([[-20.0, 1.0], [0.0, -19.0]])
    grid = multiplier.FourierGridSpec(100.0, 2**14)
    tpos = grid.times[grid.times >= 0.0]
    with pytest.raises(DomainError) as whole:
        model._expm_neg(tpos)
    with pytest.raises(DomainError) as blocked:
        multiplier.verify_laplace_identity(model, [0], np.ones(2), grid)
    assert str(blocked.value) == str(whole.value)
    assert 30.0 < float(str(whole.value).split("t=")[1].split(";")[0]) < 40.0


def test_laplace_identity_scalar():
    # transform of t^n e^{-t} recovers n! (i xi + 1)^(-n-1)
    model = operators.DenseMatrixModel([[1.0]])
    x = np.array([1.0 + 0j])
    grid = multiplier.FourierGridSpec(100.0, 2**14)
    assert max(multiplier.verify_laplace_identity(model, (0, 2), x, grid)) < 1e-3


def test_power_arrays_equal_one_power_calls():
    # T(t), its norms and the resolvent powers are shared across the powers,
    # and each entry is still its one-power call bit for bit
    model = battery._stable_dense(battery._rng(0, 7), 4, 0.8)
    x = np.arange(1.0, 5.0) + 1j
    grid = multiplier.FourierGridSpec(100.0, 2**14)
    ns = (2, 0, 1)
    errs = multiplier.verify_laplace_identity(model, ns, x, grid)
    assert errs == [multiplier.verify_laplace_identity(model, [n], x, grid)[0] for n in ns]
    f = _bump(grid, center=5.0, width=3.0)[:, None] * np.exp(0.25j * grid.times)[:, None] * np.ones((1, 4))
    # repeated powers, and a 1-D f on a scalar model, too
    for m, g, ks in ((model, f, ns), (model, f, (1, 1)),
                     (operators.DenseMatrixModel([[0.8]]), f[:, 0], (2, 0, 2))):
        convs = multiplier.semigroup_convolution(m, ks, g, grid)
        for k, conv in zip(ks, convs, strict=True):
            assert conv.shape == g.shape
            assert conv.tobytes() == multiplier.semigroup_convolution(m, [k], g, grid)[0].tobytes()
    for bad in ([0, -1], [1.5]):
        with pytest.raises(DomainError):
            multiplier.verify_laplace_identity(model, bad, x, grid)
        with pytest.raises(DomainError):
            multiplier.semigroup_convolution(model, bad, f, grid)


def _laplace_case_inputs():
    """The model, vector, grid and convolution input of laplace.identity at seed 0."""
    rng = battery._rng(0, 7)
    model = battery._stable_dense(rng, 4, 0.8)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x /= np.linalg.norm(x)
    grid = multiplier.FourierGridSpec(100.0, 2**14)
    ts = grid.times
    f = np.exp(-0.5 * ((ts - 5.0) / 3.0) ** 2)[:, None] * np.ones((1, 4)) * np.exp(0.25j * ts)[:, None]
    return model, x, grid, f


def test_laplace_identity_prints_its_pinned_values():
    res = battery.case_laplace_identity(0)
    assert [r["value"] for r in res.rows] == [
        "7.813e-12", "4.415e-11", "2.816e-08", "2.560e-05", "5.534e-06", "2.996e-11"]


def test_frequency_domain_sum_matches_entrywise_convolution():
    # the d^2 route: convolve every entry of t^k T(t) with f, then sum over columns
    model, _, grid, f = _laplace_case_inputs()
    tpos = grid.times[grid.times >= 0.0]
    weights = np.full(len(tpos), grid.dt)
    weights[0] *= 0.5
    kernels = model._expm_neg(tpos)
    ks = (0, 1, 2)
    for k, got in zip(ks, multiplier.semigroup_convolution(model, ks, f, grid)):
        series = (weights * tpos**k)[:, None, None] * kernels
        want = numcore.fftconvolve(series, f[:, None, :], axes=0)[: grid.samples].sum(axis=2)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_vector_chain_matches_matrix_powers():
    model, x, grid, _ = _laplace_case_inputs()
    band = grid.freqs[np.abs(grid.freqs) <= grid.samples / (4.0 * grid.period) * 2.0 * math.pi]
    chain = multiplier._resolvent_chain(model, band, x, 3)
    for p, got in enumerate(chain):
        want = multiplier.resolvent_power_symbol(model, p + 1).eval_all(band) @ x
        assert np.max(np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)) <= 1e-13


def test_resolvent_symbol_blocks_keep_the_one_batch_bits():
    # more nodes than one block, xi = 0 and both signs, real and complex A
    xis = np.fft.fftfreq(5000, d=0.01) * 2.0 * math.pi
    rng = np.random.default_rng(5)
    for a in (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3.0 * np.eye(3),
              np.diag([1.0, 2.0, 0.5])):
        model = operators.DenseMatrixModel(a)
        inv = np.linalg.inv(1j * xis[:, None, None] * np.eye(3)[None] + model.matrix[None])
        assert multiplier.resolvent_power_symbol(model, 1).eval_all(xis).tobytes() == inv.tobytes()
        cube = inv @ inv @ inv
        assert multiplier.resolvent_power_symbol(model, 3).eval_all(xis).tobytes() == cube.tobytes()


def _traced_peak(fn):
    """The tracemalloc peak of ``fn()`` in MiB, after one untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_laplace_identity_memory_peaks():
    # the entrywise convolution with full-grid resolvent powers read 21.6 MiB
    # (case) and 19.9 MiB (convolution); full-grid matrix-symbol values, a
    # held spectrum of f, out-of-place transforms and the (8192, 4, 4) orbit
    # stack read 12.76 and 9.81 MiB; without them, 8.45 and 6.69 MiB
    model, _, grid, f = _laplace_case_inputs()
    assert _traced_peak(lambda: battery.case_laplace_identity(seed=0)) <= 10.0
    assert _traced_peak(lambda: multiplier.semigroup_convolution(model, (0, 1, 2), f, grid)) <= 8.0


def test_transforms_leave_their_inputs_unchanged(grid):
    rng = np.random.default_rng(2)
    for shape in ((grid.samples,), (grid.samples, 3)):
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = f.copy()
        for transform in (multiplier.fourier_forward, multiplier.fourier_inverse):
            out = transform(f, grid)
            assert not np.shares_memory(out, f)
            assert f.tobytes() == kept.tobytes()


def _one_batch_apply(vals, f, grid):
    """T_m f from the symbol's values ``vals`` at all nodes at once: the
    whole transform of f multiplied (values first) and transformed back."""
    F = multiplier.fourier_forward(f, grid)
    if vals.ndim == 1:
        G = vals.reshape((-1,) + (1,) * (F.ndim - 1)) * F
    else:
        G = np.einsum("nij,nj->ni", vals, F)
    return multiplier.fourier_inverse(G, grid)


def test_matrix_symbol_blocks_keep_the_one_batch_bits():
    # four blocks of nodes; the reference evaluates and applies all nodes at once
    grid = multiplier.FourierGridSpec(64.0, 4 * multiplier._RESOLVENT_BLOCK)
    rng = np.random.default_rng(4)
    model = operators.DenseMatrixModel(rng.standard_normal((3, 3)) / 3.0 + 1.5 * np.eye(3))
    f = _bump(grid, center=1.0, width=3.0, freq=0.5)[:, None] * (rng.standard_normal(3) + 1j)
    for power in (1, 2):
        sym = multiplier.resolvent_power_symbol(model, power)
        want = _one_batch_apply(sym.eval_all(grid.freqs), f, grid)
        assert multiplier.apply_multiplier(sym, f, grid).tobytes() == want.tobytes()
    # scalar symbols, on one sample per node and broadcast over three
    for sym in (multiplier.Symbol(lambda x: 1.0 / (1j * x + 0.7)),
                multiplier.Symbol(lambda x: (1.0 + np.abs(x)) ** -2.0)):
        for g in (f[:, 0], f):
            want = _one_batch_apply(sym.eval_all(grid.freqs), g, grid)
            assert multiplier.apply_multiplier(sym, g, grid).tobytes() == want.tobytes()
    # singular at two nodes of later blocks: the first in FFT order is named
    nodes = grid.freqs[[3 * multiplier._RESOLVENT_BLOCK + 7, multiplier._RESOLVENT_BLOCK + 5]]

    def poles(xis):
        return np.prod(xis[:, None] - nodes[None, :], axis=1)

    for sym, g in ((multiplier.Symbol(lambda x: 1.0 / poles(x), name="poles"), np.ones(grid.samples)),
                   (multiplier.Symbol(lambda x: (np.eye(2)[None] / poles(x)[:, None, None]).astype(complex),
                                      dim=2, name="poles"), np.ones((grid.samples, 2)))):
        with pytest.raises(SingularSymbolError) as whole:
            sym.eval_all(grid.freqs)
        with pytest.raises(SingularSymbolError) as blocked:
            multiplier.apply_multiplier(sym, g, grid)
        assert blocked.value.node == whole.value.node == grid.freqs[multiplier._RESOLVENT_BLOCK + 5]
        assert str(blocked.value) == str(whole.value)


def test_witness_search_keeps_the_one_batch_bits():
    # the four mult.norms symbols on their grid of four blocks, against a
    # search that applies each symbol's samples at all nodes at once
    grid = multiplier.FourierGridSpec(200.0, 2**13)
    for _, sym in battery._mult_battery(battery._rng(0, 8)):
        samples = sym.on(grid)
        want = [0.0] * len(battery.PQ_PAIRS)
        for f in multiplier._witness_bank(samples):
            image = _one_batch_apply(samples.values, f, grid)
            for i, (p, q) in enumerate(battery.PQ_PAIRS):
                denom = multiplier.lebesgue_norm(f, p, grid)
                if denom != 0.0:
                    want[i] = max(want[i], multiplier.lebesgue_norm(image, q, grid) / denom)
        assert multiplier.estimate_pq_norm_lower(samples, battery.PQ_PAIRS) == want


def test_convolution_and_identity_shape_errors():
    # a small grid, so that a 3-D f broadcast to a (size, size, d, d)
    # product instead of rejected stays small
    model = operators.DenseMatrixModel(np.eye(3) + 0.1)
    grid = multiplier.FourierGridSpec(80.0, 2**6)
    with pytest.raises(ShapeError, match="64"):
        multiplier.semigroup_convolution(model, [0], np.ones((10, 3)), grid)
    with pytest.raises(ShapeError, match="64"):
        multiplier.semigroup_convolution(model, [0], np.ones((grid.samples, 3, 1)), grid)
    with pytest.raises(ShapeError, match="model dimension 3"):
        multiplier.semigroup_convolution(model, [0], np.ones((grid.samples, 2)), grid)
    with pytest.raises(ShapeError, match=r"\(3,\)"):
        multiplier.verify_laplace_identity(model, [0], np.ones(4), grid)
    with pytest.raises(ShapeError, match=r"\(3,\)"):
        multiplier.verify_laplace_identity(model, [0], np.ones((3, 1)), grid)


def test_apply_multiplier_shape_errors(grid):
    sym = multiplier.Symbol(lambda x: np.ones_like(np.asarray(x, dtype=complex)))
    with pytest.raises(ShapeError):
        multiplier.apply_multiplier(sym, np.ones(grid.samples // 2), grid)
    model = operators.DenseMatrixModel(np.eye(2))
    rsym = multiplier.resolvent_power_symbol(model, 1)
    with pytest.raises(ShapeError):
        multiplier.apply_multiplier(rsym, np.ones(grid.samples), grid)


# ---------------------------------------------------------------------------
# the streamed many-pairs witness search against the one-pair brute force


def _brute_force_lower(sym, p, q, grid):
    """The witness search as one loop per pair: the symbol is re-evaluated
    by apply_multiplier for every witness."""
    best = 0.0
    for f in multiplier._witness_bank(sym.on(grid)):
        denom = multiplier.lebesgue_norm(f, p, grid)
        if denom == 0.0:
            continue
        val = multiplier.lebesgue_norm(multiplier.apply_multiplier(sym, f, grid), q, grid) / denom
        best = max(best, val)
    return best


def _scalar_symbol(kind, a):
    if kind == "resolvent":
        return multiplier.Symbol(lambda x: 1.0 / (1j * x + a))
    if kind == "lorentz":
        return multiplier.Symbol(lambda x: (1.0 + np.abs(x)) ** -a)
    return multiplier.Symbol(lambda x: a * np.ones_like(np.asarray(x, dtype=complex)))


def _dense_resolvent_symbol(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) / dim + 1.5 * np.eye(dim)
    return multiplier.resolvent_power_symbol(operators.DenseMatrixModel(m), 1)


symbols = st.one_of(
    st.builds(_scalar_symbol, st.sampled_from(["resolvent", "lorentz", "constant"]),
              st.floats(0.3, 3.0)),
    st.builds(_dense_resolvent_symbol, st.integers(2, 4), st.integers(0, 2**32 - 1)),
)
grids = st.builds(multiplier.FourierGridSpec, st.floats(20.0, 200.0),
                  st.sampled_from([2**7, 2**8, 2**9, 2**10]))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    sym=symbols,
    grid=grids,
    pairs=st.lists(st.sampled_from(battery.PQ_PAIRS), min_size=1, max_size=4, unique=True),
)
def test_many_pairs_search_equals_brute_force(sym, grid, pairs):
    # every pair scores on the whole bank, as if searched alone
    samples = sym.on(grid)
    got = multiplier.estimate_pq_norm_lower(samples, pairs)
    assert len(got) == len(pairs)
    for (p, q), lower in zip(pairs, got):
        assert lower == _brute_force_lower(sym, p, q, grid)
        assert multiplier.estimate_pq_norm_lower(samples, [(p, q)]) == [lower]


@pytest.mark.parametrize("sym", [_scalar_symbol("resolvent", 1.0), _dense_resolvent_symbol(3, 0)],
                         ids=["scalar", "dense"])
def test_witness_bank_is_64_fixed_bumps(grid, sym):
    # 8 scales x 8 modulations, a matrix symbol's along one direction only
    samples = sym.on(grid)
    bank = list(multiplier._witness_bank(samples))
    assert len(bank) == 64
    assert all(f.shape == ((grid.samples,) if sym.dim == 1 else (grid.samples, sym.dim)) for f in bank)
    assert all(np.array_equal(f, g) for f, g in zip(bank, multiplier._witness_bank(samples)))


@pytest.mark.parametrize("pairs", [[(2.0, 1.0)], [(1.0, 2.0), (math.inf, 2.0)]])
def test_many_pairs_rejects_q_below_p_before_work(grid, pairs, monkeypatch):
    calls = []
    monkeypatch.setattr(multiplier, "_witness_bank", lambda *args: calls.append(1) or iter(()))
    samples = multiplier.Symbol(lambda x: np.ones_like(np.asarray(x, dtype=complex))).on(grid)
    with pytest.raises(DomainError):
        multiplier.estimate_pq_norm_lower(samples, pairs)
    assert not calls


@pytest.mark.parametrize("p, q", [(0.5, 2.0), (0.5, 0.5), (-math.inf, 1.0), (math.nan, 2.0),
                                  (2.0, math.nan), (math.nan, math.nan), (2.0, 1.0), (math.inf, 2.0)])
def test_both_bounds_reject_bad_exponents_before_work(grid, p, q, monkeypatch):
    calls = []
    monkeypatch.setattr(multiplier, "_witness_bank", lambda *args: calls.append(1) or iter(()))
    samples = multiplier.Symbol(lambda x: 1.0 / (1j * x + 1.0)).on(grid)
    with pytest.raises(DomainError):
        multiplier.estimate_pq_norm_lower(samples, [(p, q)])
    with pytest.raises(DomainError):
        multiplier.upper_bound_pq_norm_fourier_type(samples, p, q, fourier_constants=(1.0, 1.0))
    assert not calls


def test_each_symbol_streams_one_witness_bank(tmp_path, monkeypatch):
    # mult.norms and `semistab mult` score all pair bounds of each of their
    # 4 symbols in one pass
    banks = []
    bank = multiplier._witness_bank

    def counted(samples):
        banks.append(id(samples))
        return bank(samples)

    monkeypatch.setattr(multiplier, "_witness_bank", counted)
    assert battery.case_mult_norms(0).passed
    assert len(banks) == len(set(banks)) == 4
    banks.clear()
    assert cli.main(["mult", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    assert len(banks) == len(set(banks)) == 4


@pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
def test_lebesgue_norm_rejects_exponents_outside_one_to_infinity(grid, p):
    with pytest.raises(DomainError):
        multiplier.lebesgue_norm(np.ones(grid.samples), p, grid)


def test_each_symbol_is_evaluated_once(tmp_path, monkeypatch):
    # mult.norms and `semistab mult` sample each of their 4 symbols once
    evaluated = []
    eval_all = multiplier.Symbol.eval_all

    def counted(self, xis):
        evaluated.append(id(self))
        return eval_all(self, xis)

    monkeypatch.setattr(multiplier.Symbol, "eval_all", counted)
    assert battery.case_mult_norms(0).passed
    assert len(evaluated) == len(set(evaluated)) == 4
    evaluated.clear()
    assert cli.main(["mult", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    assert len(evaluated) == len(set(evaluated)) == 4


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, 2), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_semigroup_convolution_matches_direct(k, dim, seed):
    rng = np.random.default_rng(seed)
    model = operators.DenseMatrixModel(rng.standard_normal((dim, dim)) / (2 * dim) + 2.0 * np.eye(dim))
    grid = multiplier.FourierGridSpec(80.0, 2**10)
    f = (rng.standard_normal((grid.samples, dim)) + 1j * rng.standard_normal((grid.samples, dim)))
    f *= np.exp(-0.5 * (grid.times / 5.0) ** 2)[:, None]
    (got,) = multiplier.semigroup_convolution(model, [k], f, grid)
    tpos = grid.times[grid.times >= 0.0]
    w = np.full(len(tpos), grid.dt)
    w[0] *= 0.5
    series = (w * tpos**k)[:, None, None] * np.stack([model._expm_neg(t) for t in tpos])
    want = np.zeros((grid.samples, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            want[:, r] += np.convolve(series[:, r, c], f[:, c])[: grid.samples]
    got = got.reshape(want.shape)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_mult_command(tmp_path, capsys):
    seed = 3
    cfg = {
        "operator": {"kind": "dense-matrix", "entries": [[1.0]]},
        "grids": {"fourier_grid": {"period": 50.0, "samples": 2**10}},
        "seed": seed,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["mult", "--config", str(cfg_path), "--out-dir", str(tmp_path / "m")])
    grid = multiplier.FourierGridSpec(50.0, 2**10)
    want = []
    for name, sym in battery._mult_battery(np.random.Generator(np.random.Philox(key=seed))):
        for p, q in battery.PQ_PAIRS:
            lower = _brute_force_lower(sym, p, q, grid)
            upper = multiplier.upper_bound_pq_norm_fourier_type(sym.on(grid), p, q)
            want.append([f"{name};p={p:g};q={q:g}", "", f"{lower:.9g}", "", f"{upper:.9g}", "pq-norm",
                         "PASS" if lower <= upper + 1e-6 else "FAIL"])
        exact = multiplier.exact_l2_norm(sym.on(grid))
        want.append([f"{name};p=2;q=2", "", f"{exact:.9g}", "", "", "plancherel-exact", ""])
    with open(tmp_path / "m" / "mult.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [cli.CSV_HEADER] + want
    assert code == (0 if all(r[6] != "FAIL" for r in want) else 1)
    assert "multiplier battery:" in capsys.readouterr().out
