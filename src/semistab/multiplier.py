"""Discretized operator-valued Fourier multipliers on the line.

One transform normalization is fixed package-wide, matching
F f (xi) = integral e^{-i xi t} f(t) dt, and every DFT carries the
explicit L/N and 2 pi/L weights; multiplier-norm numerics are
normalization-fragile, so the convention is asserted by the Parseval
test rather than assumed.  Under it, Plancherel reads
||f_hat||_2^2 = 2 pi ||f||_2^2, so the Fourier-transform constant of a
finite-dimensional inner-product space is sqrt(2 pi) at exponent 2 and
1 at exponent 1.

Discrete Lebesgue norms use left-endpoint Riemann weights (max for the
sup norm).  Time-domain samples live on t_k = -L/2 + k L/N.

(L^p, L^q) lower bounds come from a witness search: one call of
``estimate_pq_norms_lower`` evaluates the symbol once on the grid and
scores a whole list of (p, q) pairs in one streamed pass over the
witness bank, holding only the current witness and its image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ShapeError,
    SingularSymbolError,
    UnsupportedModelError,
    WindowError,
)
from .numcore import fftconvolve, fit_exp_rate
from .operators import DenseMatrixModel

TRANSFORM_CONSTANT_P1 = 1.0
TRANSFORM_CONSTANT_P2 = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FourierGridSpec:
    """Sampling of the line: window [-L/2, L/2), N power-of-two samples."""

    period: float
    samples: int

    def __post_init__(self):
        if self.period <= 0:
            raise DomainError(f"need period > 0, got {self.period}")
        n = self.samples
        if n < 2 or (n & (n - 1)) != 0:
            raise DomainError(f"samples must be a power of two >= 2, got {n}")

    @property
    def dt(self):
        return self.period / self.samples

    @property
    def times(self):
        return -0.5 * self.period + self.dt * np.arange(self.samples)

    @property
    def freqs(self):
        """Frequency nodes 2 pi k / L in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.samples, d=self.dt)

    @property
    def dxi(self):
        return 2.0 * math.pi / self.period


def fourier_forward(f, grid):
    """Discretization of integral e^{-i xi t} f(t) dt on the grid."""
    f = np.asarray(f, dtype=complex)
    phase = np.exp(-1j * grid.freqs * grid.times[0])
    shape = (-1,) + (1,) * (f.ndim - 1)
    return grid.dt * phase.reshape(shape) * np.fft.fft(f, axis=0)


def fourier_inverse(F, grid):
    """Inverse of fourier_forward (exact on the discrete grid)."""
    F = np.asarray(F, dtype=complex)
    phase = np.exp(1j * grid.freqs * grid.times[0])
    shape = (-1,) + (1,) * (F.ndim - 1)
    return np.fft.ifft(F * phase.reshape(shape), axis=0) / grid.dt


def lebesgue_norm(f, p, grid):
    """Discrete L^p norm with left-endpoint weights; p may be math.inf."""
    f = np.asarray(f)
    mags = np.abs(f) if f.ndim == 1 else np.linalg.norm(f, axis=1)
    if p == math.inf:
        return float(np.max(mags))
    if p < 1:
        raise DomainError(f"need p >= 1, got {p}")
    return float((grid.dt * np.sum(mags**p)) ** (1.0 / p))


class Symbol:
    """A frequency symbol xi -> scalar or matrix, with zero-node policy.

    ``fn`` is vectorized: called on an array of N nodes it returns all N
    values at once, shape (N,) for dim 1, else (N, dim, dim).

    ``at_zero`` selects the treatment of the node xi = 0: "value" (the
    default) evaluates it like any node, so a symbol singular there raises
    SingularSymbolError naming node 0; "zero" assigns the zero map there
    (the homogeneous-distribution modelling device for non-invertible
    generators, a choice rather than a theorem).
    """

    def __init__(self, fn, dim=1, at_zero="value", name="symbol"):
        if at_zero not in ("value", "zero"):
            raise DomainError(f"unknown at_zero mode {at_zero!r}")
        self.fn = fn
        self.dim = int(dim)
        self.at_zero = at_zero
        self.name = name

    def eval_all(self, xis):
        """Values at all nodes: shape (N,) for dim 1, else (N, dim, dim)."""
        xis = np.asarray(xis, dtype=float)
        expected = (len(xis),) if self.dim == 1 else (len(xis), self.dim, self.dim)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(self.fn(xis), dtype=complex)
        if vals.shape != expected:
            raise ShapeError(f"{self.name} returned shape {vals.shape}, expected {expected}")
        bad = ~np.isfinite(vals).reshape(len(xis), -1).all(axis=1)
        for j in np.flatnonzero(xis == 0.0):
            if self.at_zero == "zero":
                # the homogeneous-distribution device: drop the zero node
                vals[j] = 0.0
                bad[j] = False
            elif bad[j]:
                raise SingularSymbolError(f"{self.name} singular at xi=0", 0.0)
        if np.any(bad):
            node = float(xis[int(np.flatnonzero(bad)[0])])
            raise SingularSymbolError(f"{self.name} singular at xi={node:g}", node)
        return vals

    def norms_of(self, vals):
        """Pointwise norms of values returned by ``eval_all``."""
        if self.dim == 1:
            return np.abs(vals)
        return np.linalg.norm(vals, ord=2, axis=(1, 2))

    def norms_on(self, xis):
        return self.norms_of(self.eval_all(xis))


def scalar_symbol(fn):
    """The scalar symbol xi -> fn(xi), evaluated at every node."""
    return Symbol(fn)


def resolvent_power_symbol(model, power=1):
    """(i xi + A)^{-power} for a dense model, evaluated by batched inverses."""
    if not isinstance(model, DenseMatrixModel):
        raise UnsupportedModelError("resolvent symbols are built from dense models")
    a = model.matrix
    d = model.dim
    eye = np.eye(d)

    def fn(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        mats = 1j * xis[:, None, None] * eye[None] + a[None]
        inv = np.linalg.inv(mats)
        out = inv
        for _ in range(power - 1):
            out = out @ inv
        return out if d > 1 else out[:, 0, 0]

    return Symbol(fn, d, name=f"(i xi + A)^-{power}")


def apply_multiplier(symbol, f, grid):
    """T_m f = inverse transform of m . (transform of f)."""
    f = np.asarray(f, dtype=complex)
    if f.shape[0] != grid.samples:
        raise ShapeError(f"expected {grid.samples} time samples, got {f.shape[0]}")
    if symbol.dim > 1 and (f.ndim != 2 or f.shape[1] != symbol.dim):
        raise ShapeError(f"symbol of dim {symbol.dim} needs samples of shape (N, {symbol.dim})")
    return _apply_values(symbol, symbol.eval_all(grid.freqs), f, grid)


def _apply_values(symbol, vals, f, grid):
    """T_m f for symbol values ``vals`` already evaluated on the grid."""
    F = fourier_forward(f, grid)
    if symbol.dim == 1:
        shape = (-1,) + (1,) * (F.ndim - 1)
        G = vals.reshape(shape) * F
    else:
        G = np.einsum("nij,nj->ni", vals, F)
    return fourier_inverse(G, grid)


# ---------------------------------------------------------------------------
# time-domain convolutions against t^k T(t)


def _dense_semigroup_samples(model, ts):
    if not isinstance(model, DenseMatrixModel):
        raise UnsupportedModelError("time-domain convolution needs a dense model")
    return model._expm_neg(ts)


def _check_window_tail(tpos, norms, integral, what):
    """WindowError unless ``norms``, sampled at the window's times ``tpos``
    >= 0, decay inside it: an exponential fit over the last quarter must
    have a negative rate and put the tail beyond the window below 1e-6 of
    the window ``integral``."""
    start = int(0.75 * len(tpos))
    fit = fit_exp_rate(tpos[start:], np.maximum(norms[start:], 1e-300), window=(0, len(tpos) - start))
    if fit.rate >= -1e-12 or norms[-1] / abs(fit.rate) > 1e-6 * max(integral, 1e-300):
        raise WindowError(
            f"{what} is not integrable inside the window; enlarge the period "
            f"(fitted tail rate {fit.rate:.3e}, window integral {integral:.3e})"
        )


def semigroup_convolution(model, k, f, grid):
    """S_k(f)(s) = integral_0^oo t^k T(t) f(s-t) dt by grid quadrature.

    Defined when t^k ||T(t)|| is integrable over the window; the tail
    beyond the window is estimated from an exponential fit of the sampled
    kernel norms (``_check_window_tail``).
    """
    if k < 0 or not float(k).is_integer():
        raise DomainError(f"need integer k >= 0, got {k}")
    f = np.asarray(f, dtype=complex)
    if f.ndim == 1:
        f = f[:, None]
    d = f.shape[1]
    ts = grid.times
    pos = ts >= 0.0
    tpos = ts[pos]
    kernels = _dense_semigroup_samples(model, tpos)
    if kernels.shape[1] != d:
        raise ShapeError(f"model dimension {kernels.shape[1]} vs samples dimension {d}")
    weights = np.full(len(tpos), grid.dt)
    weights[0] *= 0.5  # trapezoid across the t=0 boundary of the kernel
    knorms = (tpos**k) * np.linalg.norm(kernels, 2, axis=(1, 2))
    _check_window_tail(tpos, knorms, float(np.sum(weights * knorms)), f"kernel t^{k} ||T(t)||")
    series = weights[:, None, None] * (tpos**k)[:, None, None] * kernels
    # out[:, r] = sum_c series[:, r, c] * f[:, c], all d^2 convolutions in one
    conv = fftconvolve(series, f[:, None, :], axes=0)
    out = conv[: grid.samples].sum(axis=2)
    return out if d > 1 else out[:, 0]


def verify_laplace_identity(model, n, x, grid):
    """Max relative error between the transform of t -> t^n T(t) x and the
    closed-form n! (i xi + A)^{-n-1} x over the aliasing-safe band.

    The orbit must decay inside the window (``_check_window_tail``).  The
    sampled orbit is jump-corrected: a reference t^n e^{-t} sum_{j<4} t^j w_j matching the
    orbit's Taylor coefficients at t = 0+ is subtracted before the DFT and
    its exact transform is added back, which removes the slowly decaying
    aliasing tail of the raw orbit transform.  Frequencies above half the
    Nyquist band are excluded.
    """
    if not isinstance(model, DenseMatrixModel):
        raise UnsupportedModelError("the identity check needs a dense model")
    if n < 0 or not float(n).is_integer():
        raise DomainError(f"need integer n >= 0, got {n}")
    n = int(n)
    x = np.asarray(x, dtype=complex)
    ts = grid.times
    pos = ts >= 0.0
    tpos = ts[pos]
    orbit = np.zeros((grid.samples, model.dim), dtype=complex)
    mats = _dense_semigroup_samples(model, tpos)
    orbit[pos] = (tpos**n)[:, None] * np.einsum("kij,j->ki", mats, x)
    onorms = np.linalg.norm(orbit[pos], axis=1)
    _check_window_tail(tpos, onorms, float(np.sum(onorms) * grid.dt), "orbit")
    # jump-matched reference t^n e^{-t} sum_j t^j w_j with w_j the Taylor
    # coefficients of e^{(1-A)t} x: the sampled difference is C^3 at t=0+,
    # which kills the slowly decaying aliasing tail of the raw transform
    shift = np.eye(model.dim) - model.matrix
    ws = [x]
    for j in range(1, 4):
        ws.append(shift @ ws[-1] / j)
    ref = np.zeros_like(orbit)
    decay = np.exp(-tpos)
    for j, wj in enumerate(ws):
        ref[pos] += (tpos ** (n + j) * decay)[:, None] * wj[None, :]
    F = fourier_forward(orbit - ref, grid)
    xis = grid.freqs
    denom = 1j * xis + 1.0
    F_ref = np.zeros_like(F)
    for j, wj in enumerate(ws):
        F_ref += (math.factorial(n + j) / denom ** (n + j + 1))[:, None] * wj[None, :]
    F_total = F + F_ref
    keep = np.abs(xis) <= (grid.samples / (4.0 * grid.period)) * 2.0 * math.pi
    eye = np.eye(model.dim)
    inv = np.linalg.inv(1j * xis[keep][:, None, None] * eye[None] + model.matrix[None])
    closed = inv
    for _ in range(n):
        closed = closed @ inv
    target = math.factorial(n) * np.einsum("kij,j->ki", closed, x)
    err = np.linalg.norm(F_total[keep] - target, axis=1)
    scale = np.linalg.norm(target, axis=1)
    return float(np.max(err / scale))


# ---------------------------------------------------------------------------
# (L^p, L^q) norm estimation


@dataclass(frozen=True)
class PQNormEstimate:
    p: float
    q: float
    lower_bound: float
    upper_bound: float | None
    method: str

    def __post_init__(self):
        if self.upper_bound is not None and self.lower_bound > self.upper_bound + 1e-9:
            raise DomainError("lower bound exceeds upper bound")


def _witness_bank(symbol, grid, trials, seed, xi_star):
    """Yield the fixed witness family one at a time: bumps at 8 scales x
    8 modulations (the first at the peak frequency ``xi_star``), then
    ``trials`` seeded random band-limited draws.  A matrix symbol takes
    each profile along the top right singular vector at ``xi_star`` and
    along one seeded random direction.

    The ``trials=k`` bank is an exact prefix of the ``trials=k+j`` bank:
    the bumps draw no random numbers, the random direction is drawn
    before the trials, and the trials draw in sequence from one stream.
    """
    ts = grid.times
    L = grid.period
    xis = grid.freqs
    d = symbol.dim
    directions = [None] if d == 1 else []
    if d > 1:
        vals = symbol.eval_all(np.array([xi_star]))[0]
        _, _, vh = np.linalg.svd(vals)
        directions.append(vh[0].conj())
    rng = np.random.Generator(np.random.Philox(key=seed))
    if d > 1:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        directions.append(v / np.linalg.norm(v))

    def emit(profile):
        for direction in directions:
            yield profile if direction is None else profile[:, None] * direction[None, :]

    scales = [L / 2.0** (j + 3) for j in range(8)]
    xi_max = float(np.max(np.abs(xis)))
    mods = [xi_star] + [xi_max / 2.0 * (k + 1) / 8.0 for k in range(7)]
    for s in scales:
        bump = np.exp(-0.5 * (ts / s) ** 2)
        for wfreq in mods:
            yield from emit(bump * np.exp(1j * wfreq * ts))
    band = np.abs(xis) <= xi_max / 4.0
    for _ in range(int(trials)):
        coeff = np.zeros(grid.samples, dtype=complex)
        coeff[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(int(band.sum()))
        yield from emit(fourier_inverse(coeff, grid))


def estimate_pq_norms_lower(symbol, pairs, grid, trials=16, seed=0):
    """Witness-search lower bounds for the (L^p, L^q) multiplier norms of
    every ``(p, q)`` in ``pairs``, one ``PQNormEstimate`` each, in order.

    The symbol is evaluated once on the grid, and one streamed pass over
    the witness bank scores every pair: each witness is transformed, hit
    by the symbol values and transformed back once, then normed at each
    needed p and q.  Only the current witness and its image are held,
    never the bank.  Deterministic for a given seed; the true norm may
    exceed the result by an unquantified gap, so each estimate is
    labelled a lower bound.
    """
    pairs = [(float(p), float(q)) for p, q in pairs]
    for p, q in pairs:
        if q < p:
            raise DomainError(f"need q >= p, got p={p}, q={q}")
    vals = symbol.eval_all(grid.freqs)
    xi_star = float(grid.freqs[int(np.argmax(symbol.norms_of(vals)))])
    ps = {p for p, _ in pairs}
    qs = {q for _, q in pairs}
    best = [0.0] * len(pairs)
    for f in _witness_bank(symbol, grid, trials, seed, xi_star):
        out = _apply_values(symbol, vals, f, grid)
        denoms = {p: lebesgue_norm(f, p, grid) for p in ps}
        nums = {q: lebesgue_norm(out, q, grid) for q in qs}
        for i, (p, q) in enumerate(pairs):
            if denoms[p] != 0.0:
                best[i] = max(best[i], nums[q] / denoms[p])
    return [PQNormEstimate(p, q, float(b), None, "witness-search") for (p, q), b in zip(pairs, best)]


def estimate_pq_norm_lower(symbol, p, q, grid, trials=16, seed=0):
    """Witness-search lower bound for one (L^p, L^q) multiplier norm; see
    ``estimate_pq_norms_lower``."""
    return estimate_pq_norms_lower(symbol, [(p, q)], grid, trials, seed)[0]


def exact_l2_norm(symbol, grid):
    """Essential sup of the symbol norm over the grid: the exact (2,2)
    multiplier norm on inner-product state spaces."""
    return float(np.max(symbol.norms_on(grid.freqs)))


def conjugate_exponent(p):
    """Hoelder conjugate with the endpoint conventions 1' = oo, oo' = 1."""
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def fourier_constant(p):
    """Transform norm of a finite-dimensional inner-product space under the
    package normalization, at the exponents where it is elementary."""
    if p == 1.0 or p == math.inf:
        return TRANSFORM_CONSTANT_P1
    if p == 2.0:
        return TRANSFORM_CONSTANT_P2
    raise DomainError(
        f"transform constant at p={p} is not elementary; supply it explicitly"
    )


def upper_bound_pq_norm_fourier_type(symbol, p, q, grid, fourier_constants=None):
    """The Fourier-type multiplier bound
    (1/2 pi) F_p F_q' ||  ||m(.)||  ||_{L^r},  1/r = 1/p - 1/q,
    evaluated by left-endpoint quadrature of the sampled symbol norms.

    ``fourier_constants`` is the pair (F_p of the source space, F_q' of
    the target space); defaults apply only at the elementary exponents.
    """
    if q < p:
        raise DomainError(f"1/r = 1/p - 1/q undefined for q < p (p={p}, q={q})")
    if fourier_constants is None:
        fourier_constants = (fourier_constant(p), fourier_constant(conjugate_exponent(q)))
    c1, c2 = fourier_constants
    inv_r = 1.0 / p - (0.0 if q == math.inf else 1.0 / q)
    norms = symbol.norms_on(grid.freqs)
    if inv_r == 0.0:
        lr = float(np.max(norms))
    else:
        r = 1.0 / inv_r
        lr = float((grid.dxi * np.sum(norms**r)) ** (1.0 / r))
    bound = c1 * c2 * lr / (2.0 * math.pi)
    return PQNormEstimate(float(p), float(q), 0.0, float(bound), "fourier-type-bound")
