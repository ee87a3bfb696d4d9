"""Shared numerics: geometric grids, FFT convolution, stable sums, and
asymptotic-rate fits.

Everything here is a pure function of its arguments; values are safe to
share between threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy.special import gammaln, logsumexp

from .errors import DomainError, EdgeDominatedWarning, InsufficientDataError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def geometric_grid(start, stop, count):
    """The array of ``count`` geometrically spaced, strictly increasing
    nodes on [start, stop].

    The endpoints are exact and the node ratio is constant to relative
    1e-12.  A range too narrow for ``count`` distinct floats raises
    DomainError, as do non-finite endpoints.
    """
    if not (0.0 < start < stop < math.inf):
        raise DomainError(f"need 0 < start < stop < inf, got start={start}, stop={stop}")
    if count < 2:
        raise DomainError(f"need count >= 2, got {count}")
    nodes = np.geomspace(start, stop, count)
    nodes[0] = start
    nodes[-1] = stop
    if not np.all(np.diff(nodes) > 0.0):
        raise DomainError(f"[{start}, {stop}] holds no {count} strictly increasing nodes")
    return nodes


def fftconvolve(a, b, axes):
    """Full linear convolution of ``a`` and ``b`` along the one axis
    ``axes`` (>= 0), broadcasting the others.

    The steps of ``scipy.signal.fftconvolve`` for one axis, so the values
    are the same; importing ``scipy.signal`` (it pulls in ``scipy.stats``)
    would take longer than importing the rest of the package.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[axes] + b.shape[axes] - 1
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    size = [sp_fft.next_fast_len(n, real)]
    fft, ifft = (sp_fft.rfftn, sp_fft.irfftn) if real else (sp_fft.fftn, sp_fft.ifftn)
    out = ifft(fft(a, size, axes=[axes]) * fft(b, size, axes=[axes]), size, axes=[axes])
    return out[(slice(None),) * axes + (slice(n),)]


@dataclass(frozen=True)
class PowerFit:
    """Least-squares fit of log(value) against log(node).

    ``exponent`` is the slope, ``constant`` the prefactor exp(intercept),
    ``residual`` the RMS of the log residuals over ``window`` (a half-open
    index range into the grid), ``log_coefficient`` the optional
    coefficient of the extra log-log regressor.
    """

    exponent: float
    constant: float
    residual: float
    window: tuple[int, int]
    log_coefficient: float | None = None


def default_window(count):
    """Index window dropping the first and last 10% of nodes."""
    k = int(round(0.1 * count))
    k = min(k, (count - 1) // 2)
    return (k, count - k)


def _log_fit(nodes, values, window, design, what):
    """Least squares of log(values) against the columns ``design(t)`` over
    the half-open index ``window`` (default: ``default_window``) of a node
    array.  Returns (coefficients, RMS log residual, window)."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != nodes.shape:
        raise DomainError(f"values length {values.shape} does not match grid {nodes.shape}")
    if window is None:
        window = default_window(len(nodes))
    lo, hi = int(window[0]), int(window[1])
    t = nodes[lo:hi]
    v = values[lo:hi]
    if len(t) < 3:
        raise InsufficientDataError(f"window {window} leaves {len(t)} points; need >= 3")
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise DomainError(f"{what} fit requires finite positive values")
    cols = design(t)
    logv = np.log(v)
    coef, *_ = np.linalg.lstsq(cols, logv, rcond=None)
    resid = logv - cols @ coef
    return coef, float(np.sqrt(np.mean(resid**2))), (lo, hi)


def fit_power_law(grid, values, window=None, with_log_factor=False):
    """Fit values ~ C * t^exponent on the node array ``grid``.

    ``window`` is a half-open index pair; by default the first and last
    10% of nodes are dropped to suppress transient and truncation edges.
    With ``with_log_factor`` an extra log(log t) regressor accommodates
    rates carrying a logarithmic factor; it degrades conditioning and is
    off by default.
    """

    def design(t):
        logt = np.log(t)
        cols = [np.ones_like(logt), logt]
        if with_log_factor:
            if np.any(t <= 1.0):
                raise DomainError("log-factor fit requires all window nodes > 1")
            cols.append(np.log(logt))
        return np.vstack(cols).T

    coef, rms, window = _log_fit(grid, values, window, design, "power-law")
    logc = float(coef[2]) if with_log_factor else None
    return PowerFit(float(coef[1]), float(math.exp(coef[0])), rms, window, logc)


@dataclass(frozen=True)
class ExpRateFit:
    """Least-squares fit of log(value) against t: value ~ C * exp(rate*t)."""

    rate: float
    constant: float
    residual: float
    window: tuple[int, int]


def fit_exp_rate(nodes, values, window=None):
    """Fit values ~ C * exp(rate * t); the workhorse for growth bounds."""
    coef, rms, window = _log_fit(nodes, values, window, lambda t: np.vstack([np.ones_like(t), t]).T,
                                 "exponential")
    return ExpRateFit(float(coef[1]), float(math.exp(coef[0])), rms, window)


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
    log_terms = 2.0 * (j * math.log(m) - gammaln(j + 1))
    return 0.5 * float(logsumexp(log_terms))


def stable_exp_sum(m):
    """(sum_{j<=m} (m^j/j!)^2)^(1/2); overflows float64 for m >= 710.

    Use stable_exp_sum_log for bound checks at large m.
    """
    return math.exp(stable_exp_sum_log(m)) if stable_exp_sum_log(m) < 709.0 else math.inf


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


def sup_on_grid(f, nodes, warn_edges=("right",), label=""):
    """Suprema of a stack of functions over their grid nodes, refined by
    golden section: one supremum per function.

    ``nodes`` holds one node array per function, and ``f(i, s)`` evaluates
    function ``i`` at the nodes ``s``: an index with a node array, or an
    index array with a node array of the same shape.  The grid pass takes
    one function at a time; then one lockstep ``golden_max`` refines, in
    log-node space, every function whose grid argmax is interior.  With
    "right" in ``warn_edges`` (the default; pass () to switch it off), a
    grid maximum in the outer 10% of the right edge that clearly exceeds
    the interior values means the domain truncation dominates the
    supremum: that function gets an EdgeDominatedWarning (its value is
    still returned).
    """
    best = np.empty(len(nodes))
    refined = []  # (function, log lo, log hi) of each interior argmax
    for k, grid in enumerate(nodes):
        grid = np.asarray(grid, dtype=float)
        vals = np.asarray(f(k, grid), dtype=float)
        i, n = int(np.argmax(vals)), len(grid)
        best[k] = vals[i]
        edge = max(1, n // 10)
        if ("right" in warn_edges and n >= 4 and i >= n - edge
                and best[k] > 1.05 * np.max(vals[: n - edge])):
            warnings.warn(f"supremum{' of ' + label if label else ''} attained at the right domain "
                          f"edge {grid[-1]:g}; truncated domain may not contain the supremum",
                          EdgeDominatedWarning, stacklevel=2)
        if 0 < i < n - 1:
            refined.append((k, math.log(grid[i - 1]), math.log(grid[i + 1])))
    if refined:
        idx, lo, hi = (np.array(col) for col in zip(*refined))

        def at(u):
            # math.exp, not np.exp: the two differ in the last bit for some u
            return np.asarray(f(idx, np.array([math.exp(x) for x in u])), dtype=float)

        best[idx] = _larger(best[idx], golden_max(at, lo, hi))
    return best
