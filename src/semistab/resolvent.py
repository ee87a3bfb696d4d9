"""Resolvent probing along vertical lines, growth-pair fitting, and
spectral-bound estimation.

Probes evaluate ||(lam + A)^{-1}|| at lam = eta + i xi; a probing run
covers both signs of xi because the models need not have conjugation
symmetry, and takes a whole line in one call of the model's resolvent
oracle.  Fits estimate the growth envelope: mirrored pairs are reduced by
max and the surviving points are reduced to per-bin maxima before the
log-log regression, so that resonance peaks rather than the valleys
between them set the exponent.

Probing covers the imaginary axis plus a finite eta grid only, so every
result here is 'probed', never 'certified'.  Nothing here probes a
sector: the sector the contour quadrature of ``fraccalc`` assumes is the
model's own ``info.sectorial_angle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError
from .numcore import fit_exp_rate, fit_power_law

_SNAP_TOL = 0.05


class ProbeEntry(NamedTuple):
    # a tuple, not a frozen dataclass: a probe line builds one per point
    xi: float
    eta: float
    norm: float | None
    status: str  # "ok", "singular", "edge"


@dataclass(frozen=True)
class ProbeTable:
    entries: list[ProbeEntry]

    def ok_entries(self):
        return [e for e in self.entries if e.norm is not None]


def probe_resolvent_norms(model, xi_grid, eta=0.0):
    """||(lam + A)^{-1}|| at lam = eta + i xi for xi in +/- grid, the
    entries ordered xi, -xi per node.

    The whole line is one call of the model's resolvent oracle.  Points on
    the spectrum, where it answers inf, give "singular" entries without a
    norm and the analysis continues; suprema it flags as edge-dominated are
    kept with status "edge".
    """
    nodes = np.asarray(xi_grid, dtype=float)
    xis = np.stack([nodes, -nodes], axis=1).ravel()
    norms, edges = model.shifted_resolvent_norm(eta + 1j * xis)
    status = np.where(np.isinf(norms), "singular", np.where(edges, "edge", "ok"))
    return ProbeTable([ProbeEntry(float(xi), float(eta), None if s == "singular" else float(v), str(s))
                       for xi, v, s in zip(xis, norms, status)])


@dataclass(frozen=True)
class ResolventGrowthProfile:
    """Fitted resolvent-growth pair with the associated sup constant."""

    alpha_hat: float
    beta_hat: float
    m_constant: float


def _mirror_max(entries, values):
    """Sorted |xi| > 0 of the probe entries and, at each, the larger of the
    two mirrored values (``values`` holds one value per entry)."""
    by_abs = {}
    for e, v in zip(entries, values):
        key = abs(e.xi)
        if key != 0.0:
            by_abs[key] = max(by_abs.get(key, 0.0), v)
    xs = np.array(sorted(by_abs))
    return xs, np.array([by_abs[x] for x in xs])


def _envelope_fit(xis, norms):
    """Power-law fit through the per-bin maxima of the (|xi|, norm) pairs,
    ``xis`` increasing, on a log-spaced binning of 6 bins per decade; with
    fewer than 3 bins the fit keeps every bin."""
    lo, hi = xis.min(), xis.max()
    if hi > lo * (1.0 + 1e-12):
        n_bins = max(3, int(math.ceil(math.log10(hi / lo) * 6)))
        edges = np.geomspace(lo, hi * (1.0 + 1e-12), n_bins + 1)
        # xis increase, so bin i is the slice of those in [edges[i], edges[i+1]),
        # and the picks, one per nonempty bin, stay increasing
        cuts = np.searchsorted(xis, edges).tolist()
        picks = [a + int(np.argmax(norms[a:b])) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
        xis, norms = xis[picks], norms[picks]
    return fit_power_law(xis, norms, window=(0, len(xis)) if len(xis) < 3 else None)


def fit_growth_profile(table):
    """Fit the low/high-frequency growth pair from imaginary-axis probes.

    Mirrored probes are reduced by max, then to per-bin maxima (6 bins per
    decade).  alpha_hat is the clamped negative slope over |xi| <= 1,
    beta_hat the clamped slope over |xi| >= 1; fitted slopes of magnitude
    below 0.05 snap to zero (low-order resolvent growth collapses to
    exponent zero).  Requires at least 8 usable probes on each side of
    |xi| = 1.
    """
    ok = table.ok_entries()
    xs, vs = _mirror_max(ok, [e.norm for e in ok])
    low = xs <= 1.0
    high = xs >= 1.0
    if low.sum() < 8 or high.sum() < 8:
        raise InsufficientDataError(
            "need >= 8 probes on each side of |xi|=1.0, "
            f"got {int(low.sum())} low / {int(high.sum())} high"
        )
    alpha_hat = max(0.0, -_envelope_fit(xs[low], vs[low]).exponent)
    beta_hat = max(0.0, _envelope_fit(xs[high], vs[high]).exponent)
    if alpha_hat < _SNAP_TOL:
        alpha_hat = 0.0
    if beta_hat < _SNAP_TOL:
        beta_hat = 0.0
    lam = np.array([complex(e.eta, e.xi) for e in ok])
    norms = np.array([e.norm for e in ok])
    weights = np.abs(lam) ** alpha_hat / (1.0 + np.abs(lam)) ** (alpha_hat + beta_hat)
    m_constant = float(np.max(weights * norms))
    return ResolventGrowthProfile(alpha_hat, beta_hat, m_constant)


@dataclass(frozen=True)
class SpectralBounds:
    """Spectral abscissa, tempered-resolvent abscissas, and growth rate."""

    s_minus_a: float
    s_beta: dict[float, float] = field(default_factory=dict)
    omega0_hat: float = math.nan


def _line_is_tame(table, beta):
    """Whether the probes ``table`` of a vertical line Re lam = eta look tame:
    True when the tempered norms (1+|lam|)^{-beta} ||(lam+A)^{-1}|| look
    bounded.

    Untame lines show singular probes, edge-dominated suprema, or a
    tempered envelope whose outer-half maximum clearly exceeds the
    inner-half maximum (growth along the line); a saturating envelope
    stays within a factor 1.08.
    """
    if any(e.status != "ok" for e in table.entries):
        return False
    xs, vs = _mirror_max(table.entries, [e.norm * (1.0 + abs(complex(e.eta, e.xi))) ** (-beta)
                                         for e in table.entries])
    # compare the outermost log-quarter against the one before it: a line
    # with genuine growth keeps rising there, while bounded lines (even
    # with a saturating low-frequency transient) have flattened out
    logx = np.log(xs)
    q3 = logx[0] + 0.50 * (logx[-1] - logx[0])
    q4 = logx[0] + 0.75 * (logx[-1] - logx[0])
    third = vs[(logx >= q3) & (logx < q4)]
    fourth = vs[logx >= q4]
    if len(third) < 2 or len(fourth) < 2:
        return bool(np.argmax(vs) < len(vs) - 1)
    return float(fourth.max()) <= 1.08 * float(third.max())


def spectral_bounds(model, t_grid, eta_grid, betas, xi_grid):
    """Exact spectral abscissa s(-A), the tempered abscissas s_beta(-A) for
    each beta in ``betas``, and the fitted exponential growth rate of
    ||T(t)|| over ``t_grid``.

    s_beta is the smallest eta whose vertical line, probed at +/- xi in
    ``xi_grid``, is tame: first the smallest tame node of ``eta_grid``,
    then bisection down toward s(-A) to width 0.01; inf when even the
    largest node of ``eta_grid`` is not tame.  Each distinct eta is probed
    once, whichever betas ask about its line.
    """
    s = model.spectral_abscissa_neg()
    omega0 = fit_exp_rate(t_grid, model.semigroup_norm(t_grid)).rate
    eta_nodes = np.asarray(eta_grid, dtype=float)
    tables = {}

    def tame(eta, beta):
        if eta not in tables:
            tables[eta] = probe_resolvent_norms(model, xi_grid, eta)
        return _line_is_tame(tables[eta], beta)

    s_beta = {}
    for beta in betas:
        lo = float(s)  # tame fails at/below the spectral abscissa
        hi = float(np.max(eta_nodes))
        if not tame(hi, beta):
            s_beta[float(beta)] = math.inf
            continue
        # shrink hi toward the smallest tame eta on the given grid first
        for eta in sorted(eta_nodes):
            if eta <= lo:
                continue
            if tame(float(eta), beta):
                hi = float(eta)
                break
        while hi - lo > 1e-2:
            mid = 0.5 * (lo + hi)
            if tame(mid, beta):
                hi = mid
            else:
                lo = mid
        s_beta[float(beta)] = hi
    return SpectralBounds(float(s), s_beta, float(omega0))
