"""Shared numerics: geometric grids, stable sums, and asymptotic-rate fits.

Everything here is a pure function of its arguments; values are safe to
share between threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import DomainError, EdgeDominatedWarning, InsufficientDataError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def geometric_grid(start, stop, count):
    """The array of ``count`` geometrically spaced, strictly increasing
    nodes on [start, stop].

    The endpoints are exact and the node ratio is constant to relative
    1e-12.
    """
    if not (0.0 < start < stop):
        raise DomainError(f"need 0 < start < stop, got start={start}, stop={stop}")
    if count < 2:
        raise DomainError(f"need count >= 2, got {count}")
    nodes = np.geomspace(start, stop, count)
    nodes[0] = start
    nodes[-1] = stop
    return nodes


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


def golden_max(f, lo, hi):
    """Golden-section maximization of a unimodal scalar function on
    [lo, hi]: 60 steps, the largest value seen."""
    a, b = float(lo), float(hi)
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    best = max(f1, f2)
    for _ in range(60):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = f(c1)
        best = max(best, f1, f2)
    return best


def sup_on_grid(f, nodes, warn_edges=("right",), label=""):
    """Supremum of ``f`` over grid nodes with golden-section refinement.

    ``f`` must accept an ndarray of nodes.  The refinement searches in
    log-node space around the discrete argmax.  With "right" in
    ``warn_edges`` (the default; pass () to switch it off), a maximum in
    the outer 10% of the right edge that clearly exceeds the interior
    values means the domain truncation dominates the supremum, and an
    EdgeDominatedWarning is emitted (the value is still returned).
    """
    nodes = np.asarray(nodes, dtype=float)
    vals = np.asarray(f(nodes), dtype=float)
    i = int(np.argmax(vals))
    best = float(vals[i])
    n = len(nodes)
    edge = max(1, n // 10)
    if (
        "right" in warn_edges
        and n >= 4
        and i >= n - edge
        and best > 1.05 * float(np.max(vals[: n - edge]))
    ):
        warnings.warn(
            f"supremum{' of ' + label if label else ''} attained at the right "
            f"domain edge {nodes[-1]:g}; truncated domain may not contain the supremum",
            EdgeDominatedWarning,
            stacklevel=2,
        )
    if 0 < i < n - 1:
        lo, hi = nodes[i - 1], nodes[i + 1]

        def g(u):
            return float(np.asarray(f(np.array([math.exp(u)])))[0])

        best = max(best, golden_max(g, math.log(lo), math.log(hi)))
    return best
