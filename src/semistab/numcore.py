"""Shared numerics: geometric grids, FFT convolution, log factorials,
stable sums, asymptotic-rate fits, and the one-thread BLAS cap of the CLI.

Everything here is a pure function of its arguments but three:
``one_blas_thread`` sets the thread count of the process's OpenBLAS,
``loaded_openblas`` caches the libraries the process had loaded at its
first call, and ``log_factorials`` grows a module-level table (replaced
whole, never written in place).  Values are safe to share between
threads.  The module imports no scipy: the FFT lengths, the log
factorials and the log-sum-exp take scipy's steps on numpy and ``math``,
so their values equal scipy's bit for bit.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InsufficientDataError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# cephes lgam: 0.5 log(2 pi) and the Stirling-series coefficients below x = 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_log_factorial_table = np.zeros(1)  # log k! for k < len; replaced, never written, as it grows
# thread-count entry points of numpy's and scipy's OpenBLAS wheels, then of a system build
_OPENBLAS_THREAD_CALLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                          ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
                          ("openblas_get_num_threads", "openblas_set_num_threads"))
_openblas_handles = None  # (get, set) of each OpenBLAS loaded at the first lookup
# numpy refuses, before allocating, an array of more bytes than this
MAX_ARRAY_BYTES = np.iinfo(np.intp).max


def loaded_openblas():
    """(get, set) thread-count functions of every OpenBLAS the process had
    loaded at the first call; looked up once per process."""
    global _openblas_handles
    if _openblas_handles is None:
        import ctypes  # here, so that importing the package does not

        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
        except OSError:  # no /proc: nothing to find
            paths = []
        handles = []
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # the mapped file is gone
                continue
            for get_name, set_name in _OPENBLAS_THREAD_CALLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_threads = getattr(lib, get_name), getattr(lib, set_name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    handles.append((get, set_threads))
                    break
        _openblas_handles = tuple(handles)
    return _openblas_handles


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore each library's
    earlier thread count, also when the block raises or exits.

    It caps the libraries of ``loaded_openblas`` and does nothing where
    there is none.  The thread count is global to the process, so the cap
    applies to all its threads while it lasts.
    """
    handles = loaded_openblas()
    before = [get() for get, _ in handles]
    for _, set_threads in handles:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(handles, before):
            set_threads(count)


def geometric_grid(start, stop, count):
    """The array of ``count`` geometrically spaced, strictly increasing
    nodes on [start, stop].

    The endpoints are exact and the node ratio is constant to relative
    1e-12.  A range too narrow for ``count`` distinct floats raises
    DomainError, as do non-finite endpoints and a ``count`` whose array
    numpy refuses to allocate.
    """
    if not (0.0 < start < stop < math.inf):
        raise DomainError(f"need 0 < start < stop < inf, got start={start}, stop={stop}")
    if count < 2:
        raise DomainError(f"need count >= 2, got {count}")
    if count > MAX_ARRAY_BYTES // 8:
        raise DomainError(f"{count} nodes exceed numpy's largest array")
    try:
        nodes = np.geomspace(start, stop, count)
    except MemoryError as exc:
        raise DomainError(f"cannot allocate {count} nodes: {exc}") from None
    nodes[0] = start
    nodes[-1] = stop
    if not np.all(np.diff(nodes) > 0.0):
        raise DomainError(f"[{start}, {stop}] holds no {count} strictly increasing nodes")
    return nodes


@lru_cache(maxsize=None)
def _smooth_numbers(primes, bits):
    """The sorted numbers below 2**bits whose prime factors are in ``primes``."""
    nums = [1]
    for p in primes:
        grown = []
        for v in nums:
            while v < 1 << bits:
                grown.append(v)
                v *= p
        nums = grown
    return sorted(nums)


def next_fast_len(target, real):
    """The smallest n >= ``target`` (>= 1) whose prime factors are 2, 3 and 5
    (``real``) or 2, 3, 5, 7 and 11: ``scipy.fft.next_fast_len``."""
    # the power of two at or above target lies below 2**bits
    table = _smooth_numbers((2, 3, 5) if real else (2, 3, 5, 7, 11), (target - 1).bit_length() + 1)
    return table[bisect.bisect_left(table, target)]


def _fft(x, n, axis):
    """Complex FFT of length ``n`` along ``axis``; a real ``x`` goes through
    ``rfft`` and its Hermitian half is filled in, as scipy's ``fftn`` does
    (``np.fft.fft`` of a real array differs from it in the last bit)."""
    if np.iscomplexobj(x):
        return np.fft.fft(x, n, axis)
    half = np.moveaxis(np.fft.rfft(x, n, axis), axis, -1)
    rest = np.conj(half[..., 1 : n - n // 2][..., ::-1])
    return np.moveaxis(np.concatenate([half, rest], axis=-1), -1, axis)


def fftconvolve(a, b, axes):
    """Full linear convolution of ``a`` and ``b`` along the one axis
    ``axes`` (>= 0), broadcasting the others.

    The steps of ``scipy.signal.fftconvolve`` for one axis, on ``numpy.fft``,
    so the values are the same bit for bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[axes] + b.shape[axes] - 1
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        size = next_fast_len(n, False)
        out = np.fft.ifft(_fft(a, size, axes) * _fft(b, size, axes), size, axes)
    else:
        size = next_fast_len(n, True)
        out = np.fft.irfft(np.fft.rfft(a, size, axes) * np.fft.rfft(b, size, axes), size, axes)
    return out[(slice(None),) * axes + (slice(n),)]


def log_factorial(k):
    """log k! for an array of integers 0 <= k < 2^53, bit for bit
    ``scipy.special.gammaln(k + 1)``: the steps of cephes ``lgam`` at
    x = k + 1, with the C library's log (``math.log``; ``np.log`` differs
    from it in the last bit from k = 9170 on)."""
    x = (np.asarray(k, dtype=np.int64) + 1).astype(float)
    logs = np.array([math.log(v) for v in x.ravel().tolist()]).reshape(x.shape)
    stirling = (x - 0.5) * logs - x + _LS2PI
    p = 1.0 / (x * x)
    series = np.full_like(x, _LGAM_A[0])
    for c in _LGAM_A[1:]:
        series = series * p + c
    short = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    out = np.where(x > 1e8, stirling,
                   np.where(x >= 1000.0, stirling + short / x, stirling + series / x))
    # below 13, cephes takes the log of the product (x - 1)!, exact in floats
    small = x < 13.0
    out[small] = [math.log(math.factorial(int(v) - 1)) for v in x[small]]
    return out


def log_factorials(count):
    """log k! for k < ``count``: a read-only view of a table of
    ``log_factorial`` values that grows on demand."""
    global _log_factorial_table
    table = _log_factorial_table
    if count > len(table):
        grown = log_factorial(np.arange(len(table), max(count, 2 * len(table))))
        table = np.concatenate([table, grown])
        table.setflags(write=False)
        _log_factorial_table = table
    return table[:count]


@dataclass(frozen=True)
class PowerFit:
    """Least-squares fit of log(value) against log(node).

    ``exponent`` is the slope, ``constant`` the prefactor exp(intercept),
    ``residual`` the RMS of the log residuals over the fit window.
    """

    exponent: float
    constant: float
    residual: float


MIN_FIT_POINTS = 3  # the fewest nodes a log-linear fit takes


def default_window(count):
    """Index window dropping the first and last 10% of nodes."""
    k = int(round(0.1 * count))
    k = min(k, (count - 1) // 2)
    return (k, count - k)


def _log_fit(nodes, values, window, design, what):
    """Least squares of log(values) against the columns ``design(t)`` over
    the half-open index ``window`` (default: ``default_window``) of a node
    array.  Returns (coefficients, RMS log residual)."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != nodes.shape:
        raise DomainError(f"values length {values.shape} does not match grid {nodes.shape}")
    if window is None:
        window = default_window(len(nodes))
    lo, hi = int(window[0]), int(window[1])
    t = nodes[lo:hi]
    v = values[lo:hi]
    if len(t) < MIN_FIT_POINTS:
        raise InsufficientDataError(f"window {window} leaves {len(t)} points; need >= {MIN_FIT_POINTS}")
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise DomainError(f"{what} fit requires finite positive values")
    cols = design(t)
    logv = np.log(v)
    coef, *_ = np.linalg.lstsq(cols, logv, rcond=None)
    resid = logv - cols @ coef
    return coef, float(np.sqrt(np.mean(resid**2)))


def fit_power_law(grid, values, window=None):
    """Fit values ~ C * t^exponent on the node array ``grid``.

    ``window`` is a half-open index pair; by default the first and last
    10% of nodes are dropped to suppress transient and truncation edges.
    """
    coef, rms = _log_fit(grid, values, window, lambda t: np.vstack([np.ones_like(t), np.log(t)]).T,
                         "power-law")
    return PowerFit(float(coef[1]), float(math.exp(coef[0])), rms)


@dataclass(frozen=True)
class ExpRateFit:
    """Least-squares fit of log(value) against t: value ~ C * exp(rate*t)."""

    rate: float
    constant: float
    residual: float


def fit_exp_rate(nodes, values, window=None):
    """Fit values ~ C * exp(rate * t); the workhorse for growth bounds."""
    coef, rms = _log_fit(nodes, values, window, lambda t: np.vstack([np.ones_like(t), t]).T, "exponential")
    return ExpRateFit(float(coef[1]), float(math.exp(coef[0])), rms)


def stable_exp_sum_log(m):
    """log of (sum_{j<=m} (m^j/j!)^2)^(1/2), stable for m up to 1e5.

    Terms near j = m dominate and direct evaluation overflows around
    m = 90, so the sum is taken with log-sum-exp.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise DomainError(f"m must be a positive integer, got {m!r}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    j = np.arange(m + 1)
    log_terms = 2.0 * (j * math.log(m) - log_factorials(m + 1))
    # scipy.special.logsumexp in 1-D: the maxima are counted apart from the rest
    top = log_terms.max(keepdims=True)
    at_top = log_terms == top
    count = at_top.sum(keepdims=True, dtype=float)
    rest = np.exp(np.where(at_top, -np.inf, log_terms) - top).sum(keepdims=True)
    rest = np.where(rest == 0, rest, rest / count)
    return 0.5 * float((np.log1p(rest) + np.log(count) + top)[0])


def stable_exp_sum(m):
    """(sum_{j<=m} (m^j/j!)^2)^(1/2); overflows float64 for m >= 710.

    Use stable_exp_sum_log for bound checks at large m.
    """
    log_value = stable_exp_sum_log(m)
    return math.exp(log_value) if log_value < 709.0 else math.inf


def _larger(x, y):
    """Elementwise ``max(x, y)`` with Python's rule: y only where y > x."""
    return np.where(y > x, y, x)


def golden_max(f, lo, hi):
    """Golden-section maximization of unimodal functions, in lockstep on the
    brackets [lo[k], hi[k]]: 60 steps, the largest value seen per bracket.

    ``f`` maps an array of points, one per bracket, to their values, and is
    called once per step.  Each bracket takes the steps, in the same float
    arithmetic, of a search on it alone.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c1, c2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    best = _larger(f1, f2)
    for _ in range(60):
        # f1 < f2: keep [c1, b], c2 becomes c1 and a new c2 is probed; else the mirror
        up = f1 < f2
        a, b = np.where(up, c1, a), np.where(up, b, c2)
        new = np.where(up, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        f_new = f(new)
        c1, c2 = np.where(up, c2, new), np.where(up, new, c1)
        f1, f2 = np.where(up, f2, f_new), np.where(up, f_new, f1)
        best = _larger(_larger(best, f1), f2)
    return best


def sup_on_grid(f, nodes):
    """Suprema of a stack of functions over their grid nodes, refined by
    golden section, and the mask of the edge-dominated functions.

    ``nodes`` holds one node array per function, and ``f(i, s)`` evaluates
    function ``i`` at the nodes ``s``: an index with a node array, or an
    index array with a node array of the same shape.  The grid pass takes
    one function at a time; then one lockstep ``golden_max`` refines, in
    log-node space, every function whose grid argmax is interior.  A
    function is edge-dominated when its grid maximum lies in the outer 10%
    at the right and clearly exceeds the interior values.
    """
    best, edge = np.empty(len(nodes)), np.zeros(len(nodes), dtype=bool)
    refined = []  # (function, log lo, log hi) of each interior argmax
    for k, grid in enumerate(nodes):
        grid = np.asarray(grid, dtype=float)
        vals = np.asarray(f(k, grid), dtype=float)
        i, n = int(np.argmax(vals)), len(grid)
        best[k] = vals[i]
        cut = n - max(1, n // 10)
        edge[k] = n >= 4 and i >= cut and best[k] > 1.05 * np.max(vals[:cut])
        if 0 < i < n - 1:
            refined.append((k, math.log(grid[i - 1]), math.log(grid[i + 1])))
    if refined:
        idx, lo, hi = (np.array(col) for col in zip(*refined))

        def at(u):
            # math.exp, not np.exp: the two differ in the last bit for some u
            return np.asarray(f(idx, np.array([math.exp(x) for x in u])), dtype=float)

        best[idx] = _larger(best[idx], golden_max(at, lo, hi))
    return best, edge
