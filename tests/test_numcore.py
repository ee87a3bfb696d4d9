"""Grids, stable sums, and power-law fits."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import cli, numcore
from semistab.errors import DomainError, InsufficientDataError


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
    # [1, 1 + 1e-15] holds 6 floats, too few for 100 strictly increasing nodes
    for stop in (1.0 + 1e-15, math.inf):
        with pytest.raises(DomainError):
            numcore.geometric_grid(1.0, stop, 100)


def test_fftconvolve_equals_scipy_signal():
    # the call shapes of the block-sum rows and of the multiplier's kernel
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(0)
    calls = []
    for m in (2, 5, 13, 40, 87):
        for count in (1, 7, 500):
            rows, other = (rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
                           for _ in range(2))
            kernel = rng.standard_normal((1, m))
            calls += [(rows, kernel, 1), (rows, other, 1), (kernel.T, kernel.T, 0)]
    f = rng.standard_normal((128, 4)) + 1j * rng.standard_normal((128, 4))
    calls.append((rng.standard_normal((64, 4, 4)), f[:, None, :], 0))
    for a, b, axis in calls:
        want = fftconvolve(a, b, axes=axis)
        assert numcore.fftconvolve(a, b, axes=axis).tobytes() == want.tobytes()


_NO_SCIPY_STEPS = """
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import workloads

def heavy_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "_hashlib") or m == "semistab.battery")

steps = {}
from semistab import cli
steps["import semistab.cli"] = heavy_modules()
operators = [
    {"kind": "dense-matrix", "entries": [[1.0, 1.0], [0.0, 1.0]]},
    {"kind": "diagonal-symbol", "a": 1.0, "b": 0.5, "grid_count": 64},
    {"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5},
    {"kind": "operator-matrix", "n": 3},
]
assert sorted(op["kind"] for op in operators) == sorted(cli._OPERATORS)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cfg.json")
    for op in operators:
        with open(path, "w") as fh:
            json.dump({"operator": op}, fh)
        cli.load_config(path)
    steps["load_config of every kind"] = heavy_modules()
    with open(path, "w") as fh:
        json.dump(workloads.JORDAN_CONFIG, fh)
    for command in ("analyze", "decay"):
        code = cli.main([command, "--config", path, "--out-dir", os.path.join(tmp, command)])
        steps[f"{command} JORDAN_CONFIG"] = heavy_modules() if code == 0 else f"exit {code}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify-examples", "--only", "appendix.exp-sum"])
    steps["verify-examples --only appendix.exp-sum"] = ["semistab.battery" in sys.modules, code]
print(json.dumps(steps))
"""


def test_package_paths_load_no_scipy():
    # importing any scipy module costs more than the rest of the start-up;
    # only the defective-matrix exponential imports scipy.linalg.  analyze
    # and decay also load neither OpenSSL (_hashlib) nor the battery, which
    # verify-examples imports when it runs
    root = Path(numcore.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": str(Path(numcore.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_STEPS, str(root / "perfbench")], env=env,
                         capture_output=True, text=True, check=True, cwd=root)
    steps = json.loads(out.stdout.strip().splitlines()[-1])
    on_demand = steps.pop("verify-examples --only appendix.exp-sum")
    assert list(steps) == ["import semistab.cli", "load_config of every kind", "analyze JORDAN_CONFIG",
                           "decay JORDAN_CONFIG"]
    assert all(mods == [] for mods in steps.values()), steps
    assert on_demand == [True, 0]  # the battery loaded, and the case passed


def test_one_blas_thread_caps_every_openblas_and_restores_it():
    handles = numcore.loaded_openblas()
    if not handles:
        pytest.skip("no OpenBLAS is loaded in this process")

    def counts():
        return [get() for get, _ in handles]

    before = counts()
    try:
        # a known count above 1 to come back to
        for _, set_threads in handles:
            set_threads(2)
        with numcore.one_blas_thread():
            assert counts() == [1] * len(handles)
        assert counts() == [2] * len(handles)
        with pytest.raises(RuntimeError), numcore.one_blas_thread():
            assert counts() == [1] * len(handles)
            raise RuntimeError
        assert counts() == [2] * len(handles)
        # argparse exits through SystemExit on a bad flag
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-examples", "--no-such-flag"])
        assert exc.value.code == 2
        assert counts() == [2] * len(handles)
        assert numcore.loaded_openblas() is handles  # looked up once per process
    finally:
        for (_, set_threads), count in zip(handles, before):
            set_threads(count)


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len

    for real in (True, False):
        got = [numcore.next_fast_len(n, real) for n in range(1, 2**16)]
        assert got == [next_fast_len(n, real) for n in range(1, 2**16)]


def test_log_factorial_equals_scipy_gammaln():
    from scipy.special import gammaln

    ks = np.arange(2**17)
    assert numcore.log_factorial(ks).tobytes() == gammaln(ks + 1).tobytes()
    assert numcore.log_factorials(2**17).tobytes() == gammaln(ks + 1).tobytes()
    far = np.unique(np.geomspace(1, 2**53, 2000).astype(np.int64))
    assert numcore.log_factorial(far).tobytes() == gammaln(far + 1).tobytes()
    assert numcore.log_factorial(20).tobytes() == gammaln(21.0).tobytes()


def test_log_factorials_table_is_read_only():
    table = numcore.log_factorials(40)
    assert table.shape == (40,) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1.0


def test_stable_exp_sum_log_equals_scipy_logsumexp():
    from scipy.special import gammaln, logsumexp

    for m in range(1, 3001):
        j = np.arange(m + 1)
        want = 0.5 * float(logsumexp(2.0 * (j * math.log(m) - gammaln(j + 1))))
        assert numcore.stable_exp_sum_log(m) == want, m


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

    def f(i, s):
        return 1.0 / (1.0 + (np.log(np.asarray(s)) - 0.337) ** 2)

    best, _ = numcore.sup_on_grid(f, [nodes])
    assert best.shape == (1,)
    assert best[0] == pytest.approx(1.0, abs=1e-9)


def test_sup_on_grid_edge_mask():
    nodes = np.geomspace(1.0, 100.0, 32)
    assert numcore.sup_on_grid(lambda i, s: np.asarray(s, dtype=float), [nodes])[1].tolist() == [True]
    # flat functions and interior peaks are not edge-dominated
    assert numcore.sup_on_grid(lambda i, s: np.ones_like(np.asarray(s)), [nodes])[1].tolist() == [False]


def _scalar_golden_max(f, lo, hi):
    """Golden-section search on one bracket with Python floats, step by
    step: the reference each bracket of the lockstep search must match."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c1 = b - g * (b - a)
    c2 = a + g * (b - a)
    f1, f2 = f(c1), f(c2)
    best = max(f1, f2)
    for _ in range(60):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + g * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - g * (b - a)
            f1 = f(c1)
        best = max(best, f1, f2)
    return best


def _peaks(u, centre, width, power):
    """-width * |u - centre|^power: unimodal, and flat at power 0."""
    return -width * np.abs(u - centre) ** power


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    brackets=st.lists(
        st.tuples(
            st.floats(-50.0, 50.0),
            st.floats(1e-6, 20.0),
            st.floats(-0.5, 1.5),
            st.floats(1e-3, 1e3),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_lockstep_golden_max_matches_scalar_search(brackets):
    # the peak sits anywhere from left of the bracket to right of it
    lo, span, where, width, power = (np.array(col) for col in zip(*brackets))
    hi = lo + span
    centre = lo + where * span
    got = numcore.golden_max(lambda u: _peaks(u, centre, width, power), lo, hi)
    for k in range(len(lo)):
        args = (centre[k : k + 1], width[k : k + 1], power[k : k + 1])
        want = _scalar_golden_max(lambda x: float(_peaks(np.array([x]), *args)[0]), lo[k], hi[k])
        assert got[k] == want


def _stacked(calls):
    """Three bumps in log s with different peaks, heights and grids; the
    third peaks beyond its grid's right edge.  Each call is counted."""
    centre, height = np.array([0.3, 1.7, 9.0]), np.array([1.0, 2.5, 0.5])
    nodes = [np.geomspace(0.1, 10.0, 41), np.geomspace(1.0, 50.0, 29), np.geomspace(0.5, 20.0, 64)]

    def f(i, s):
        calls.append(np.shape(i))
        return height[i] / (1.0 + (np.log(s) - centre[i]) ** 2)

    return f, nodes


def test_stacked_sup_on_grid_matches_single_calls():
    calls = []
    f, nodes = _stacked(calls)
    got, _ = numcore.sup_on_grid(f, nodes)
    # one grid evaluation per function, then one per golden step for all
    assert len(calls) == len(nodes) + 62
    assert calls[len(nodes):] == [(2,)] * 62  # the third function is not refined
    for k, grid in enumerate(nodes):
        single, _ = numcore.sup_on_grid(lambda i, s: f(np.asarray(i) + k, s), [grid])
        assert single[0] == got[k]
    assert got[:2] == pytest.approx([1.0, 2.5], rel=1e-12)

    # no interior argmax: the grid pass alone
    calls.clear()
    numcore.sup_on_grid(lambda i, s: f(2, s), nodes[2:] * 2)
    assert len(calls) == 2


def test_stacked_sup_on_grid_flags_each_edge_dominated_function():
    f, nodes = _stacked([])
    # the second bump now peaks beyond its grid too
    nodes[1] = np.geomspace(0.1, 3.0, 32)
    assert numcore.sup_on_grid(f, nodes)[1].tolist() == [False, True, True]
