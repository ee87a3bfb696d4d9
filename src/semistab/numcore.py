"""Shared numerics: geometric grids, FFT convolution, log factorials,
stable sums, asymptotic-rate fits, and the one-thread BLAS cap of the CLI.

Everything here is a pure function of its arguments but three:
``one_blas_thread`` sets the thread count of the process's OpenBLAS,
``loaded_openblas`` caches the libraries the process had loaded at its
first call, and ``log_factorials`` grows a module-level table (replaced
whole, never written in place).  Values are safe to share between
threads.  The module imports no scipy: the FFT lengths are scipy's
``next_fast_len``, and the convolution, the log factorials and the
log-sum-exp are plain numpy and ``math``, equal to scipy's up to rounding
(the tests state the bounds).
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
    if not np.all(np.diff(nodes) > 0.0):
        raise DomainError(f"[{start}, {stop}] holds no {count} strictly increasing nodes")
    return nodes


@lru_cache(maxsize=None)
def _smooth_numbers(bits):
    """The sorted numbers below 2**bits whose prime factors are 2, 3, 5, 7 and 11."""
    nums = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for v in nums:
            while v < 1 << bits:
                grown.append(v)
                v *= p
        nums = grown
    return sorted(nums)


def next_fast_len(target):
    """The smallest n >= ``target`` (>= 1) whose prime factors are 2, 3, 5, 7
    and 11: ``scipy.fft.next_fast_len`` for complex transforms."""
    # the power of two at or above target lies below 2**bits
    table = _smooth_numbers((target - 1).bit_length() + 1)
    return table[bisect.bisect_left(table, target)]


def fftconvolve(a, b, axes):
    """Full linear convolution of ``a`` and ``b``, at least one of them
    complex, along the one axis ``axes`` (>= 0), broadcasting the others.

    Both operands are transformed with ``np.fft.fft`` at the padded length
    ``next_fast_len``, as ``scipy.signal.fftconvolve`` pads them.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[axes] + b.shape[axes] - 1
    size = next_fast_len(n)
    out = np.fft.ifft(np.fft.fft(a, size, axes) * np.fft.fft(b, size, axes), size, axes)
    return out[(slice(None),) * axes + (slice(n),)]


def log_factorials(count):
    """log k! for k < ``count``: a read-only view of a table of
    ``math.lgamma(k + 1)`` values that grows on demand."""
    global _log_factorial_table
    table = _log_factorial_table
    if count > len(table):
        grown = [math.lgamma(k + 1.0) for k in range(len(table), max(count, 2 * len(table)))]
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
    top = float(log_terms.max())
    return 0.5 * (top + math.log(np.exp(log_terms - top).sum()))


def stable_exp_sum(m):
    """(sum_{j<=m} (m^j/j!)^2)^(1/2); overflows float64 to inf for m >= 713.

    Use stable_exp_sum_log for bound checks at large m.
    """
    try:
        return math.exp(stable_exp_sum_log(m))
    except OverflowError:
        return math.inf


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
    best = np.maximum(f1, f2)
    for _ in range(60):
        # f1 < f2: keep [c1, b], c2 becomes c1 and a new c2 is probed; else the mirror
        up = f1 < f2
        a, b = np.where(up, c1, a), np.where(up, b, c2)
        new = np.where(up, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        f_new = f(new)
        c1, c2 = np.where(up, c2, new), np.where(up, new, c1)
        f1, f2 = np.where(up, f2, f_new), np.where(up, f_new, f1)
        best = np.maximum(np.maximum(best, f1), f2)
    return best


def sup_on_grid(f, grid, count, rows):
    """Suprema of a stack of ``count`` functions over the nodes ``grid``,
    refined by golden section, and the mask of the edge-dominated ones.

    ``f(i, s)`` evaluates function ``i`` at the nodes ``s``: an index with
    the grid, or an index array with a node array of the same shape.  It
    returns ``rows`` rows of values, each its own function to maximise
    (one row may come as a 1-D array), and the suprema and the mask have
    shape (rows, count).  The grid pass takes one function at a time, all
    its rows at once; then one lockstep ``golden_max`` refines, in log-node
    space, every row whose grid argmax is interior.  A row is
    edge-dominated when its grid maximum lies in the outer 10% at the
    right and clearly exceeds the interior values.
    """
    grid = np.asarray(grid, dtype=float)
    n = len(grid)
    cut = n - max(1, n // 10)
    best, edge = np.empty((rows, count)), np.zeros((rows, count), dtype=bool)
    refined = []  # (row, function, log lo, log hi) of each interior argmax
    for k in range(count):
        for r, vals in enumerate(np.asarray(f(k, grid), dtype=float).reshape(rows, n)):
            i = int(np.argmax(vals))
            best[r, k] = vals[i]
            edge[r, k] = n >= 4 and i >= cut and best[r, k] > 1.05 * np.max(vals[:cut])
            if 0 < i < n - 1:
                refined.append((r, k, math.log(grid[i - 1]), math.log(grid[i + 1])))
    if refined:
        row, idx, lo, hi = (np.array(col) for col in zip(*refined))

        def at(u):
            vals = np.asarray(f(idx, np.exp(u)), dtype=float)
            return vals.reshape(rows, len(u))[row, np.arange(len(u))]

        best[row, idx] = np.maximum(best[row, idx], golden_max(at, lo, hi))
    return best, edge
