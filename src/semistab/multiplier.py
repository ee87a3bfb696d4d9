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

Every symbol, scalar or matrix, is applied by ``_apply_values``: one
transform of f, multiplied in place by the symbol's values one block of
``_RESOLVENT_BLOCK`` nodes at a time, and one inverse transform.

A symbol is sampled once per grid (``Symbol.on``), and the exact (2,2)
norm, the Fourier-type upper bound and the witness search all read those
samples.  The witness search scores a whole list of (p, q) pairs on one
streamed pass over a fixed bank of 64 bumps, holding only one witness and
its image; it draws no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    ShapeError,
    SingularSymbolError,
    UnsupportedModelError,
    WindowError,
)
from .numcore import MAX_ARRAY_BYTES, fit_exp_rate, next_fast_len
from .operators import DenseMatrixModel

TRANSFORM_CONSTANT_P1 = 1.0
TRANSFORM_CONSTANT_P2 = math.sqrt(2.0 * math.pi)
_RESOLVENT_BLOCK = 2048  # nodes per batched inverse, and per block a symbol is applied on
_ORBIT_BLOCK = 1024  # times per block of T(t) x in verify_laplace_identity


@dataclass(frozen=True)
class FourierGridSpec:
    """Sampling of the line: window [-L/2, L/2), N power-of-two samples.
    Its nodes and transform phases are computed once, as read-only arrays."""

    period: float
    samples: int

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:  # NaN fails too
            raise DomainError(f"need 0 < period < oo, got {self.period}")
        n = self.samples
        if n < 2 or (n & (n - 1)) != 0:
            raise DomainError(f"samples must be a power of two >= 2, got {n}")
        # the transforms hold complex arrays of n samples
        if n > MAX_ARRAY_BYTES // 16:
            raise DomainError(f"{n} samples exceed numpy's largest complex array")

    @property
    def dt(self):
        return self.period / self.samples

    @cached_property
    def times(self):
        return _read_only(-0.5 * self.period + self.dt * np.arange(self.samples))

    @cached_property
    def freqs(self):
        """Frequency nodes 2 pi k / L in FFT order."""
        return _read_only(2.0 * math.pi * np.fft.fftfreq(self.samples, d=self.dt))

    @cached_property
    def _phases(self):
        """exp(-i xi t_0) and exp(i xi t_0), of fourier_forward and fourier_inverse."""
        return tuple(_read_only(np.exp(sign * self.freqs * self.times[0])) for sign in (-1j, 1j))

    @property
    def dxi(self):
        return 2.0 * math.pi / self.period


def _read_only(a):
    a.flags.writeable = False
    return a


def fourier_forward(f, grid):
    """Discretization of integral e^{-i xi t} f(t) dt on the grid."""
    f = np.asarray(f, dtype=complex)
    shape = (-1,) + (1,) * (f.ndim - 1)
    F = np.fft.fft(f, axis=0)
    # scaled in place, weight first: a complex product is not bitwise commutative
    return np.multiply(grid.dt * grid._phases[0].reshape(shape), F, out=F)


def fourier_inverse(F, grid):
    """Inverse of fourier_forward (exact on the discrete grid)."""
    F = np.asarray(F, dtype=complex)
    shape = (-1,) + (1,) * (F.ndim - 1)
    G = F * grid._phases[1].reshape(shape)
    np.fft.ifft(G, axis=0, out=G)
    G /= grid.dt
    return G


def lebesgue_norm(f, p, grid):
    """Discrete L^p norm with left-endpoint weights; p may be math.inf."""
    if not 1.0 <= p:  # the rule of _check_exponents, which NaN fails too
        raise DomainError(f"need 1 <= p <= oo, got {p}")
    return _lebesgue_norms(f, [p], grid)[p]


def _lebesgue_norms(f, ps, grid):
    """{p: ``lebesgue_norm(f, p, grid)``} for checked exponents ``ps``, from
    the pointwise magnitudes of f, taken once."""
    f = np.asarray(f)
    mags = np.abs(f) if f.ndim == 1 else np.linalg.norm(f, axis=1)
    return {p: float(np.max(mags)) if p == math.inf else float((grid.dt * np.sum(mags**p)) ** (1.0 / p))
            for p in ps}


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

    def on(self, grid):
        """The symbol sampled once on the frequency nodes of ``grid``."""
        values = self.eval_all(grid.freqs)
        norms = np.abs(values) if self.dim == 1 else np.linalg.norm(values, ord=2, axis=(1, 2))
        return SymbolSamples(self, grid, _read_only(values), _read_only(norms))


class SymbolSamples(NamedTuple):
    """A symbol's values at a grid's frequency nodes and their 2-norms, read-only."""

    symbol: Symbol
    grid: FourierGridSpec
    values: np.ndarray
    norms: np.ndarray


def resolvent_power_symbol(model, power=1):
    """(i xi + A)^{-power} for a dense model, evaluated by batched inverses
    over blocks of ``_RESOLVENT_BLOCK`` nodes: only the result is held at
    full length, with the same bits as one batch over all nodes."""
    if not isinstance(model, DenseMatrixModel):
        raise UnsupportedModelError("resolvent symbols are built from dense models")
    a = model.matrix
    d = model.dim
    diag = np.arange(d)

    def fn(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        out = np.empty((len(xis), d, d), dtype=complex)
        for lo in range(0, len(xis), _RESOLVENT_BLOCK):
            block = xis[lo : lo + _RESOLVENT_BLOCK]
            # i xi + A in one buffer, written only on the diagonal, and freed
            # before the powers are multiplied up
            shifted = np.empty((len(block), d, d), dtype=complex)
            shifted[:] = a
            shifted[:, diag, diag] += 1j * block[:, None]
            inv = np.linalg.inv(shifted)
            del shifted
            part = inv
            for _ in range(power - 1):
                part = part @ inv
            out[lo : lo + _RESOLVENT_BLOCK] = part
        return out if d > 1 else out[:, 0, 0]

    return Symbol(fn, d, name=f"(i xi + A)^-{power}")


def apply_multiplier(symbol, f, grid):
    """T_m f = inverse transform of m . (transform of f), the symbol evaluated
    one block of nodes at a time, so its values on the whole grid are never held."""
    f = np.asarray(f, dtype=complex)
    if f.shape[0] != grid.samples:
        raise ShapeError(f"expected {grid.samples} time samples, got {f.shape[0]}")
    if symbol.dim > 1 and (f.ndim != 2 or f.shape[1] != symbol.dim):
        raise ShapeError(f"symbol of dim {symbol.dim} needs samples of shape (N, {symbol.dim})")
    return _apply_values(lambda block: symbol.eval_all(grid.freqs[block]), f, grid)


def _apply_values(values_at, f, grid):
    """T_m f with the symbol's values ``values_at(block)`` on each slice of
    ``_RESOLVENT_BLOCK`` frequency nodes, multiplied into the transform of f
    in place (values first: a complex product is not bitwise commutative)."""
    F = fourier_forward(f, grid)
    for lo in range(0, grid.samples, _RESOLVENT_BLOCK):
        block = slice(lo, lo + _RESOLVENT_BLOCK)
        vals = values_at(block)
        if vals.ndim == 1:
            np.multiply(vals.reshape((-1,) + (1,) * (F.ndim - 1)), F[block], out=F[block])
        else:
            F[block] = np.einsum("nij,nj->ni", vals, F[block])
    return fourier_inverse(F, grid)


# ---------------------------------------------------------------------------
# time-domain convolutions against t^k T(t)


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


def _check_powers(powers, name):
    """The integers of ``powers``, each >= 0."""
    for k in powers:
        if k < 0 or not float(k).is_integer():
            raise DomainError(f"need integer {name} >= 0, got {k}")
    return [int(k) for k in powers]


def semigroup_convolution(model, ks, f, grid):
    """S_k(f)(s) = integral_0^oo t^k T(t) f(s-t) dt by grid quadrature, one
    (N, d) array per k in ``ks`` (shape (N,) for d = 1); T(t) and its norms
    on the grid are built once.

    The convolution is summed over the entries of T(t) in the frequency
    domain: for each k and column c, f's component c is transformed, and
    each entry t^k T(t)_{ic} is transformed on its own, multiplied by it and
    added into row i of one (size, d) spectrum, whose inverse transform, in
    place, gives S_k(f).  Only one padded transform of length size is held
    beside that spectrum, and T(t) is released after the last k's forward
    transforms.  Convolving each entry on its own would inverse-transform a
    (size, d, d) array per k instead.

    Defined when t^k ||T(t)|| is integrable over the window; the tail
    beyond the window is estimated from an exponential fit of the sampled
    kernel norms (``_check_window_tail``).
    """
    if not isinstance(model, DenseMatrixModel):
        raise UnsupportedModelError("time-domain convolution needs a dense model")
    ks = _check_powers(ks, "k")
    f = np.asarray(f, dtype=complex)
    d = model.dim
    if f.ndim not in (1, 2) or f.shape[0] != grid.samples:
        raise ShapeError(f"expected samples of shape ({grid.samples}, {d}), got {f.shape}")
    if f.ndim == 1:
        f = f[:, None]
    if f.shape[1] != d:
        raise ShapeError(f"model dimension {d} vs samples dimension {f.shape[1]}")
    ts = grid.times
    tpos = ts[ts >= 0.0]
    kernels = model._expm_neg(tpos)
    weights = np.full(len(tpos), grid.dt)
    weights[0] *= 0.5  # trapezoid across the t=0 boundary of the kernel
    norms = np.linalg.norm(kernels, 2, axis=(1, 2))
    size = next_fast_len(len(tpos) + grid.samples - 1)
    spectrum = np.empty((size, d), dtype=complex)
    outs = []
    for pos, k in enumerate(ks):
        knorms = (tpos**k) * norms
        _check_window_tail(tpos, knorms, float(np.sum(weights * knorms)), f"kernel t^{k} ||T(t)||")
        scale = weights * tpos**k
        spectrum[:] = 0.0
        for c in range(d):
            f_hat = np.fft.fft(f[:, c], size)
            for i in range(d):
                entry = np.fft.fft(scale * kernels[:, i, c], size)
                entry *= f_hat
                spectrum[:, i] += entry
                del entry  # freed before the next entry is transformed
            del f_hat
        if pos == len(ks) - 1:  # by position: ks may repeat the last power
            del kernels
        np.fft.ifft(spectrum, axis=0, out=spectrum)
        # a copy, so the padded spectrum is not kept alive by a view
        out = spectrum[: grid.samples].copy()
        outs.append(out if d > 1 else out[:, 0])
    return outs


def _resolvent_chain(model, xis, x, count):
    """[(i xi + A)^{-p-1} x for p < ``count``] at the nodes ``xis``, each of
    shape (len(xis), d), by the vector chain v_0 = R x, v_p = R v_{p-1} with
    R = (i xi + A)^{-1}; R is the only (len(xis), d, d) array, and no power
    of it is formed."""
    resolvent = resolvent_power_symbol(model).eval_all(xis).reshape(-1, model.dim, model.dim)
    chain = [(resolvent @ x[:, None])[:, :, 0]]
    while len(chain) < count:
        chain.append((resolvent @ chain[-1][:, :, None])[:, :, 0])
    return chain


def verify_laplace_identity(model, ns, x, grid):
    """For each n in ``ns``, the max relative error between the transform
    of t -> t^n T(t) x and the closed form n! (i xi + A)^{-n-1} x over the
    aliasing-safe band.  T(t) x is built once, and the closed forms come
    from the vector chain v_0 = R x, v_p = R v_{p-1} with R = (i xi + A)^{-1}
    sampled once on the band (``_resolvent_chain``); no power of R is formed.
    ``x`` must have shape (d,) for the model dimension d (ShapeError).

    The orbit must decay inside the window (``_check_window_tail``).  The
    sampled orbit is jump-corrected: a reference t^n e^{-t} sum_{j<4} t^j w_j matching the
    orbit's Taylor coefficients at t = 0+ is subtracted before the DFT and
    its exact transform is added back, which removes the slowly decaying
    aliasing tail of the raw orbit transform.  Frequencies above half the
    Nyquist band are excluded, and only the kept band of each transform is
    held.
    """
    if not isinstance(model, DenseMatrixModel):
        raise UnsupportedModelError("the identity check needs a dense model")
    ns = _check_powers(ns, "n")
    x = model._check_vec(x)
    ts = grid.times
    pos = ts >= 0.0
    tpos = ts[pos]
    # T(t) x over blocks of times, so no (len(tpos), d, d) stack is held; an
    # overflow still names the first time whose matrix is not finite
    path = np.empty((len(tpos), model.dim), dtype=complex)
    for lo in range(0, len(tpos), _ORBIT_BLOCK):
        block = slice(lo, lo + _ORBIT_BLOCK)
        path[block] = np.einsum("kij,j->ki", model._expm_neg(tpos[block]), x)
    # Taylor coefficients w_j of e^{(1-A)t} x, for the jump-matched reference
    shift = np.eye(model.dim) - model.matrix
    ws = [x]
    for j in range(1, 4):
        ws.append(shift @ ws[-1] / j)
    decay = np.exp(-tpos)
    xis = grid.freqs
    keep = np.abs(xis) <= (grid.samples / (4.0 * grid.period)) * 2.0 * math.pi
    denom = 1j * xis[keep] + 1.0
    chain = []
    errs = []
    for n in ns:
        orbit = np.zeros((grid.samples, model.dim), dtype=complex)
        orbit[pos] = (tpos**n)[:, None] * path
        onorms = np.linalg.norm(orbit[pos], axis=1)
        _check_window_tail(tpos, onorms, float(np.sum(onorms) * grid.dt), "orbit")
        if not chain:  # once an orbit is known to decay, for every n at once
            chain = _resolvent_chain(model, xis[keep], x, max(ns) + 1)
        # the sampled difference from the reference t^n e^{-t} sum_j t^j w_j is
        # C^3 at t=0+, which kills the slowly decaying aliasing tail of the raw transform
        ref = np.zeros((len(tpos), model.dim), dtype=complex)
        for j, wj in enumerate(ws):
            ref += (tpos ** (n + j) * decay)[:, None] * wj[None, :]
        orbit[pos] -= ref
        del ref
        F = fourier_forward(orbit, grid)[keep]
        del orbit
        F_ref = np.zeros_like(F)
        for j, wj in enumerate(ws):
            F_ref += (math.factorial(n + j) / denom ** (n + j + 1))[:, None] * wj[None, :]
        F += F_ref
        target = math.factorial(n) * chain[n]
        err = np.linalg.norm(F - target, axis=1)
        scale = np.linalg.norm(target, axis=1)
        errs.append(float(np.max(err / scale)))
    return errs


# ---------------------------------------------------------------------------
# (L^p, L^q) norm estimation


def _witness_bank(samples):
    """Yield the fixed witness family one at a time: bumps at 8 scales x
    8 modulations, the first at the peak frequency of the symbol norms.
    A matrix symbol takes each bump along the top right singular vector
    of its value at the peak."""
    grid = samples.grid
    ts = grid.times
    L = grid.period
    xis = grid.freqs
    peak = int(np.argmax(samples.norms))
    direction = None
    if samples.symbol.dim > 1:
        direction = np.linalg.svd(samples.values[peak])[2][0].conj()
    scales = [L / 2.0** (j + 3) for j in range(8)]
    xi_max = float(np.max(np.abs(xis)))
    mods = [float(xis[peak])] + [xi_max / 2.0 * (k + 1) / 8.0 for k in range(7)]
    for s in scales:
        bump = np.exp(-0.5 * (ts / s) ** 2)
        for wfreq in mods:
            profile = bump * np.exp(1j * wfreq * ts)
            yield profile if direction is None else profile[:, None] * direction[None, :]


def estimate_pq_norm_lower(samples, pairs):
    """Witness-search lower bounds of the sampled symbol's (L^p, L^q)
    multiplier norm, one float per ``(p, q)`` in ``pairs``.

    One streamed pass over the bank scores every pair: each witness is
    transformed, hit by the symbol samples and transformed back once, and
    normed at each p and q from magnitudes taken once.  Only the current
    witness and its image are held.  The true norm may exceed the result
    by an unquantified gap, so each value is a lower bound.
    """
    pairs = [(float(p), float(q)) for p, q in pairs]
    for p, q in pairs:
        _check_exponents(p, q)
    ps = {p for p, _ in pairs}
    qs = {q for _, q in pairs}
    grid = samples.grid
    best = [0.0] * len(pairs)
    for f in _witness_bank(samples):
        denoms = _lebesgue_norms(f, ps, grid)
        nums = _lebesgue_norms(_apply_values(lambda block: samples.values[block], f, grid), qs, grid)
        for i, (p, q) in enumerate(pairs):
            if denoms[p] != 0.0:
                best[i] = max(best[i], nums[q] / denoms[p])
    return best


def exact_l2_norm(samples):
    """Essential sup of the sampled symbol norms: the exact (2,2)
    multiplier norm on inner-product state spaces."""
    return float(np.max(samples.norms))


def _check_exponents(p, q):
    """DomainError unless 1 <= p <= q <= oo (NaN fails every comparison)."""
    if not 1.0 <= p <= q:
        raise DomainError(f"need 1 <= p <= q, got p={p}, q={q}")


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


def upper_bound_pq_norm_fourier_type(samples, p, q, fourier_constants=None):
    """The Fourier-type multiplier bound
    (1/2 pi) F_p F_q' ||  ||m(.)||  ||_{L^r},  1/r = 1/p - 1/q,
    evaluated by left-endpoint quadrature of the sampled symbol norms.

    ``fourier_constants`` is the pair (F_p of the source space, F_q' of
    the target space); defaults apply only at the elementary exponents.
    """
    _check_exponents(p, q)
    if fourier_constants is None:
        fourier_constants = (fourier_constant(p), fourier_constant(conjugate_exponent(q)))
    c1, c2 = fourier_constants
    inv_r = 1.0 / p - (0.0 if q == math.inf else 1.0 / q)
    norms = samples.norms
    if inv_r == 0.0:
        lr = float(np.max(norms))
    else:
        r = 1.0 / inv_r
        lr = float((samples.grid.dxi * np.sum(norms**r)) ** (1.0 / r))
    return float(c1 * c2 * lr / (2.0 * math.pi))
