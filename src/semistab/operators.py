"""Concrete operator models and their operator-norm oracles.

Four model kinds are bundled:

* dense-matrix     -- an arbitrary finite complex matrix;
* diagonal-symbol  -- multiplication by s^(-a) + i s^b on a truncated
                      half-line, with an optional first-derivative
                      (Sobolev-style) norm surrogate;
* jordan-sum       -- a truncated direct sum of shifted nilpotent blocks
                      with block n rotated by -i n;
* operator-matrix  -- a nilpotent perturbation of multiplication by s on
                      (0, 1), realized through its matrix-valued symbol.

Each constructor's parameters are the fields of its kind in the CLI
config, and their defaults are the config defaults.

Every model answers the norms the analyses measure: ||T(t)||,
||T(t) A^sigma (1+A)^{-sigma-tau}|| and ||(lam + A)^{-1}||.  The two
time-indexed norms take a 1-D array of times and return one norm per
time, so a sweep is one call and t-independent work is done once per
call; ||T(t)|| is the second at sigma = tau = 0, except in the block sum,
where the largest block decides it.  The fractional norm also takes
several (sigma, tau) pairs at once, one row of norms per pair: the block
sum runs them in one lockstep, the other kinds one after another.  The
resolvent norm takes a line, a 1-D complex array of points, and returns
one norm and one edge flag per point, inf on the spectrum of -A.  Suprema
over s take one ``sup_on_grid`` call per sweep or line, on the rows |g| and,
if used, |g'| (diagonal kind) or one row of norms (operator matrix).
Conventions: the semigroup is T(t) = exp(-t A); resolvent norms are
reported for (lam + A)^{-1} because stability analysis probes the closed
right half-plane.  State-space actions, (lam - A)^{-1} x and closed-form
A^alpha (1+A)^{-alpha-beta} x on arrays, exist only for the dense and
diagonal kinds, the two the contour quadrature of ``fraccalc`` serves.

All models are immutable after construction and their operations are
pure, so values may be evaluated from several threads at once.
"""

from __future__ import annotations

import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EdgeDominatedWarning, ShapeError, UnsupportedModelError
from .numcore import _larger, fftconvolve, geometric_grid, log_factorials, sup_on_grid

_SING_TOL = 1e-11
# branch and bound in JordanSumModel skips a block once its bound times
# this factor is at most the best norm found
_BOUND_MARGIN = 1.0 + 1e-10
# block-sum resolvent rows are built in chunks of about this many entries, and
# a sweep's convolved rows or stacked matrices in chunks of at most 1/32 of it
_LINE_ENTRIES = 2**20


@dataclass(frozen=True)
class ModelInfo:
    """Metadata every model carries."""

    kind: str
    injective: bool
    invertible: bool
    sectorial: bool
    sectorial_angle: float | None
    known_growth_pair: tuple[float, float] | None = None


class OperatorModel(ABC):
    """A concrete operator A, given by exact or discretized norm oracles;
    by the usual convention ||(lam + A)^{-1}|| is inf on the spectrum of -A."""

    info: ModelInfo

    @abstractmethod
    def spectrum_distance(self, lams):
        """Estimated distances from the points of ``lams`` to the spectrum of A, one per point."""

    def semigroup_norm(self, ts):
        """The operator norms of T(t), one per time in the 1-D array ``ts``:
        the fractional norms at sigma = tau = 0, where A^0 (1+A)^0 = I."""
        return self.fractional_norm(ts, 0.0, 0.0)

    @abstractmethod
    def shifted_resolvent_norm(self, lams):
        """Norms of (lam + A)^{-1} and edge flags (True: the supremum sits at a
        truncation edge), one per point of the 1-D complex array ``lams``;
        inf, with edge False, on the spectrum of -A (see ``_off_spectrum``)."""

    @abstractmethod
    def fractional_norm(self, ts, sigma, tau):
        """Norms of T(t) A^sigma (1+A)^{-sigma-tau}, one per time in the 1-D
        array ``ts``: the computable surrogate for the norm of T(t) from the
        smoothness-(sigma, tau) domain to X.  ``sigma`` and ``tau`` are
        numbers, or 1-D arrays that broadcast to a list of pairs; then the
        answer has one row per pair, and its warnings and its error are
        those of one call per pair in turn."""

    @abstractmethod
    def spectral_abscissa_neg(self):
        """s(-A) = sup Re sigma(-A)."""

    def resolvent_apply_many(self, lams, x):
        """Stacked (lam - A)^{-1} x, one row per lam, for an array state x.

        Only array-state kinds implement it; the others raise
        UnsupportedModelError.
        """
        raise UnsupportedModelError(f"model kind {self.info.kind!r} has no state-space action")

    def phi_closed_apply(self, alpha, beta, x):
        """Closed-form A^alpha (1+A)^{-alpha-beta} x for an array state x.

        Raises UnsupportedModelError when the model has no state-space
        action or no closed form; callers fall back to contour quadrature.
        """
        raise UnsupportedModelError(f"model kind {self.info.kind!r} has no state-space action")

    def _check_times(self, ts):
        """``ts`` as a float array; DomainError unless it is 1-D with finite
        times >= 0."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1 or not (np.isfinite(ts) & (ts >= 0.0)).all():
            raise DomainError(f"semigroup times must be a 1-D array of finite times >= 0, got {ts}")
        return ts

    def _check_fractional_indices(self, sigma, tau):
        if not (0.0 <= sigma < math.inf and 0.0 <= tau < math.inf):
            raise DomainError(f"fractional indices must be finite and >= 0, got ({sigma}, {tau})")


def _off_spectrum(norms_of):
    """Make a kind's resolvent computation its ``shifted_resolvent_norm``: DomainError
    unless ``lams`` is 1-D and finite, inf and edge False at the points within _SING_TOL
    of the spectrum of -A (one check per line), ``norms_of`` on the others, if any."""

    def shifted_resolvent_norm(self, lams):
        lams = np.asarray(lams, dtype=complex)
        if lams.ndim != 1 or not np.isfinite(lams).all():
            raise DomainError(f"resolvent points must be a finite 1-D array, got {lams}")
        norms, edges = np.full(len(lams), np.inf), np.zeros(len(lams), dtype=bool)
        off = self.spectrum_distance(-lams) >= _SING_TOL
        if off.any():
            norms[off], edges[off] = norms_of(self, lams[off])
        return norms, edges

    return shifted_resolvent_norm


def _index_pairs(sigma, tau):
    """The (sigma, tau) pairs of a fractional-norm call and the leading shape
    of its answer: the two numbers as given and (), or the pairs of two
    1-D arrays that broadcast to length k, as Python numbers, and (k,)."""
    sigmas, taus = np.broadcast_arrays(sigma, tau)
    if sigmas.ndim == 0:
        return [(sigma, tau)], ()
    if sigmas.ndim > 1:
        raise DomainError(f"fractional indices must be numbers or 1-D arrays, got shape {sigmas.shape}")
    return list(zip(sigmas.tolist(), taus.tolist())), sigmas.shape


def _each_pair(norms_of):
    """Make a kind's one-pair computation ``norms_of(self, ts, sigma, tau)``
    its ``fractional_norm``: the times checked once, then each pair's
    indices checked and its norms taken in turn.  A warning ``norms_of``
    raises with stacklevel=3 names the caller of ``fractional_norm``."""

    def fractional_norm(self, ts, sigma, tau):
        ts = self._check_times(ts)
        pairs, shape = _index_pairs(sigma, tau)
        norms = np.empty((len(pairs), len(ts)))
        for i, (s, t) in enumerate(pairs):
            self._check_fractional_indices(s, t)
            norms[i] = norms_of(self, ts, s, t)
        return norms.reshape(shape + ts.shape)

    return fractional_norm


# ---------------------------------------------------------------------------
# helpers shared by the block-structured models


def _exp_series_rows(ts, m, rate):
    """Coefficient rows e^{-rate t} t^k/k! for k < m, the polynomials
    e^{-rate t} exp(t B_m), one per time of the 1-D array ``ts``, and the
    index of the first time whose row overflows, or None; the rows from
    that time on are 0.  The factor is taken in the log domain, so a row
    overflows only where its entries do."""
    rows = np.zeros((len(ts), m))
    rows[:, 0] = 1.0  # t = 0 keeps this row
    on = np.flatnonzero(ts)
    t = ts[on][:, None]
    with np.errstate(over="ignore"):
        rows[on] = np.exp(np.arange(m) * np.log(t) - log_factorials(m) - rate * t)
    finite = np.isfinite(rows).all(axis=1)
    if finite.all():
        return rows, None
    bad = int(np.argmin(finite))
    rows[bad:] = 0.0
    return rows, bad


def _overflow_at(t):
    return DomainError(f"matrix entries overflow float64 at t={t:g}; the norm is out of range")


def _shifted_power_rows(zetas, p, m):
    """Rows of coefficients c_k with (zeta I - B_m)^p = sum_k c_k B_m^k.

    Finite Taylor expansion of z^p (principal branch) around each zeta;
    vectorized over an array of zetas, and real for real zetas > 0.
    """
    zetas = np.atleast_1d(np.asarray(zetas))
    out = np.zeros((len(zetas), m), dtype=zetas.dtype)
    out[:, 0] = zetas**p
    for k in range(1, m):
        out[:, k] = out[:, k - 1] * (-(p - (k - 1))) / (k * zetas)
    return out


def _toeplitz_stack(rows):
    """Upper-triangular Toeplitz matrices T[..., i, j] = rows[..., j - i]
    (zero below the diagonal), one per row of a stack of rows."""
    rows = np.asarray(rows)
    m = rows.shape[-1]
    # m - 1 zeros ahead of each row, gathered at m - 1 + j - i
    padded = np.zeros(rows.shape[:-1] + (2 * m - 1,), rows.dtype)
    padded[..., m - 1 :] = rows
    k = np.arange(m)
    return padded[..., m - 1 + k - k[:, None]]


def _row_product(a, b):
    """Row of T(a) T(b) for stacked rows: their convolution truncated to m terms."""
    return np.einsum("...i,...ij->...j", a, _toeplitz_stack(b))


def _svdvals(mats):
    """Singular values, largest first, of a matrix or of each in a stack;
    DomainError if an entry is not finite (an overflowed norm), where LAPACK
    would answer NaN or fail to converge."""
    if not np.isfinite(mats).all():
        raise DomainError("matrix entries overflow float64; the norm is out of range")
    return np.linalg.svd(mats, compute_uv=False)


def _toeplitz_norm(coeffs):
    """Norm of the upper-triangular Toeplitz matrix of a coefficient row, or
    an array of one norm per row of a 2-D stack of equal-length rows; each
    equals its row's own norm bit for bit (one LAPACK call per matrix), and
    real rows take a real SVD."""
    top = _svdvals(_toeplitz_stack(coeffs))[..., 0]
    return float(top) if top.ndim == 0 else top


# ---------------------------------------------------------------------------
# dense matrices


class DenseMatrixModel(OperatorModel):
    """A on C^n given by an explicit matrix; everything is exact linear algebra."""

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)  # a copy: the caller's array may change
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DomainError(f"matrix must be square and nonempty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("matrix entries must be finite")
        self.matrix = a
        self.dim = a.shape[0]
        self._eigvals, self._eigvecs = np.linalg.eig(a)
        try:
            self._eigvecs_inv = np.linalg.inv(self._eigvecs)
            resid = self._eigvecs @ np.diag(self._eigvals) @ self._eigvecs_inv - a
            scale = max(1.0, float(np.linalg.norm(a, 2)))
            self._diagonalizable = float(np.linalg.norm(resid, 2)) / scale < 1e-9
        except np.linalg.LinAlgError:
            self._eigvecs_inv = None
            self._diagonalizable = False
        # 0 is in the spectrum exactly when the resolvent oracle answers inf at 0
        injective = bool(self.spectrum_distance([0.0])[0] >= _SING_TOL)
        on_neg_axis = np.any(
            (self._eigvals.real <= 0.0) & (np.abs(self._eigvals.imag) < 1e-14)
        )
        angle = float(np.max(np.abs(np.angle(self._eigvals)))) if injective else None
        sectorial = injective and not bool(on_neg_axis)
        self.info = ModelInfo(
            kind="dense-matrix",
            injective=injective,
            invertible=injective,
            sectorial=sectorial,
            sectorial_angle=angle if sectorial else None,
        )

    # -- state-space plumbing

    def _check_vec(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim,):
            raise ShapeError(f"expected vector of shape ({self.dim},), got {x.shape}")
        return x

    def _expm_neg(self, t):
        """exp(-t A) for a time or an array of times (stacked on the leading
        axes); eigen route when safely diagonalizable, else Pade.  DomainError
        naming the first time whose matrix is not finite."""
        ts = np.asarray(t, dtype=float)
        t = ts[..., None, None]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            if self._diagonalizable:
                out = (self._eigvecs * np.exp(-t * self._eigvals)) @ self._eigvecs_inv
            else:
                from scipy.linalg import expm  # about 0.3 s to import, so only this branch does

                out = expm(-t * self.matrix)
        finite = np.isfinite(out).all(axis=(-2, -1))
        if not finite.all():
            raise _overflow_at(ts[~finite][0])
        return out

    # -- operations

    def resolvent_apply_many(self, lams, x):
        x = self._check_vec(x)
        lams = np.asarray(lams, dtype=complex)
        mats = lams[:, None, None] * np.eye(self.dim)[None] - self.matrix[None]
        rhs = np.broadcast_to(x[None, :, None], (len(lams), self.dim, 1)).copy()
        return np.linalg.solve(mats, rhs)[:, :, 0]

    def spectrum_distance(self, lams):
        return np.abs(np.asarray(lams, dtype=complex)[:, None] - self._eigvals).min(axis=1)

    @_off_spectrum
    def shifted_resolvent_norm(self, lams):
        mats = lams[:, None, None] * np.eye(self.dim) + self.matrix
        return 1.0 / _svdvals(mats)[:, -1], np.zeros(len(lams), bool)

    def phi_matrix(self, alpha, beta):
        """A^alpha (1+A)^{-alpha-beta} as a dense matrix."""
        self._check_fractional_indices(alpha, beta)
        if alpha > 0 and not self.info.injective:
            raise DomainError("positive power of a non-injective matrix")
        if alpha + beta > 0 and self.spectrum_distance([-1.0])[0] < _SING_TOL:
            raise DomainError("1 + A is singular: -1 is an eigenvalue of A")
        eye = np.eye(self.dim)
        if float(alpha).is_integer() and float(alpha + beta).is_integer():
            num = np.linalg.matrix_power(self.matrix, int(alpha))
            # a negative power inverts first; power 0 inverts nothing
            den = np.linalg.matrix_power(eye + self.matrix, -int(alpha + beta))
            return num @ den
        if self._diagonalizable:
            mu = self._eigvals
            diag = mu**alpha * (1.0 + mu) ** (-(alpha + beta))
            return (self._eigvecs * diag) @ self._eigvecs_inv
        raise UnsupportedModelError(
            "non-integer fractional power of a defective matrix has no closed "
            "form here; use contour quadrature"
        )

    def phi_closed_apply(self, alpha, beta, x):
        x = self._check_vec(x)
        return self.phi_matrix(alpha, beta) @ x

    @_each_pair
    def fractional_norm(self, ts, sigma, tau):
        phi = self.phi_matrix(sigma, tau)
        return _svdvals(self._expm_neg(ts) @ phi)[:, 0]

    def spectral_abscissa_neg(self):
        return float(-np.min(self._eigvals.real))


# ---------------------------------------------------------------------------
# diagonal multiplication symbols on a truncated half-line


class DiagonalSymbolModel(OperatorModel):
    """Multiplication by s^(-a) + i s^b on (1, s_max], sampled on ``grid``.

    With ``sobolev=True`` operator norms use the first-order surrogate
    max(sup |g|, sup |g'|), which reproduces the multiplication-operator
    norm on the Sobolev space up to two-sided constants; otherwise plain
    sup |g|.  Suprema are grid maxima refined by golden section, taken per
    sweep or line in one stacked ``sup_on_grid`` whose functions return |g|
    and, if used, |g'| as two rows; one at the s_max edge is flagged
    (EdgeDominatedWarning in ``fractional_norm``).  The rows are real:
    they read only Re g, Im g and |g'| (``_moduli``), so e^{-tg} is taken
    as e^{-t Re g} and |lam + g| by ``np.hypot``, never squared.
    ``grid`` (read-only) holds ``grid_count`` geometric nodes on
    [s_start, s_max], with s_start > 1, and ``_values`` (read-only) the
    symbol on them.
    """

    def __init__(self, a, b, s_start=1 + 1e-6, s_max=1e8, grid_count=4096, sobolev=True):
        if not (a > 0.0):
            raise DomainError(f"need a > 0, got {a}")
        if not (0.0 < b < 1.0):
            raise DomainError(f"need b in (0,1), got {b}")
        if a + b < 1.0:
            raise DomainError(f"need a + b >= 1, got {a + b}")
        if not (s_start > 1.0):
            raise DomainError(f"need s_start > 1, got {s_start}")
        grid = geometric_grid(s_start, s_max, grid_count)
        grid.setflags(write=False)
        self.a = float(a)
        self.b = float(b)
        self.grid = grid
        self.sobolev = bool(sobolev)
        self._values = self.symbol(grid)
        self._values.setflags(write=False)
        angle = float(np.max(np.abs(np.angle(self._values))))
        self.info = ModelInfo(
            kind="diagonal-symbol",
            injective=True,
            invertible=True,
            sectorial=True,
            sectorial_angle=angle,
            # |R(i xi)| grows like |xi|^(a/b) on L^2, one order of g' more on the Sobolev space
            known_growth_pair=(0.0, ((b - 1.0 + 2.0 * a) if self.sobolev else a) / b),
        )

    def symbol(self, s):
        return s ** (-self.a) + 1j * s**self.b

    def _check_vec(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape != self.grid.shape:
            raise ShapeError(f"expected vector of shape {self.grid.shape}, got {x.shape}")
        return x

    # -- operations

    def resolvent_apply_many(self, lams, x):
        x = self._check_vec(x)
        lams = np.asarray(lams, dtype=complex)
        return x[None, :] / (lams[:, None] - self._values[None, :])

    def spectrum_distance(self, lams):
        # a point at a time: a (points x grid) temporary would take gigabytes on fine grids
        return np.array([np.abs(lam - self._values).min() for lam in np.asarray(lams, dtype=complex)])

    def _moduli(self, s):
        """Re g, Im g and |g'| at the nodes s: the real numbers every norm reads."""
        return s**-self.a, s**self.b, np.hypot(self.a * s ** (-self.a - 1.0), self.b * s ** (self.b - 1.0))

    @_off_spectrum
    def shifted_resolvent_norm(self, lams):
        on_grid = self._moduli(self.grid)

        def rows(i, s):
            # 1/|d| and |g'|/|d|/|d| with d = lam + g(s); |d| by hypot, never squared
            re, im, dmod = on_grid if s is self.grid else self._moduli(s)
            d = np.hypot(lams[i].real + re, lams[i].imag + im)
            return np.stack([1.0 / d, dmod / d / d]) if self.sobolev else (1.0 / d)[None]

        norms, edges = sup_on_grid(rows, self.grid, len(lams), 1 + self.sobolev)
        # g' only where strictly larger; with one row, _larger(g, g) is g
        return _larger(norms[0], norms[-1]), edges.any(axis=0)

    @_each_pair
    def fractional_norm(self, ts, sigma, tau):
        def parts(s):
            # the t-independent real factors at the nodes s: Re g, |(1+g)^-tau (g/(1+g))^sigma|
            # (at most 1, since Re g > 0), |g'| and c with |g'/g| = |g'| |t + c|
            re, im, dmod = self._moduli(s)
            ph, shifted = re + 1j * im, np.hypot(1.0 + re, im)  # g and |1 + g|
            c = (sigma + tau) / (1.0 + ph) - (sigma / ph if sigma else 0.0)
            return re, shifted**-tau * (np.hypot(re, im) / shifted) ** sigma, dmod, c.real, c.imag

        on_grid = parts(self.grid)

        def rows(i, s):
            # |g| = e^{-t Re g} times the factors and, if used, |g'| = |g| |g'| |t + c|; the
            # grid pass hands over the grid itself, golden-section nodes are new
            re, scale, dmod, c_re, c_im = on_grid if s is self.grid else parts(s)
            out = np.exp(-ts[i] * re) * scale
            if not self.sobolev:
                return out[None]
            return np.stack([out, out * dmod * np.hypot(ts[i] + c_re, c_im)])

        norms, edges = sup_on_grid(rows, self.grid, len(ts), 1 + self.sobolev)
        for row in np.nonzero(edges)[0]:  # g's edges, then g''s
            label = f"T(t)Phi^{sigma}_{tau} symbol" + "'" * row
            warnings.warn(f"supremum of {label} attained at the right domain edge {self.grid[-1]:g}; "
                          "truncated domain may not contain the supremum",
                          EdgeDominatedWarning, stacklevel=3)
        return _larger(norms[0], norms[-1])

    def phi_closed_apply(self, alpha, beta, x):
        x = self._check_vec(x)
        return x * self._values**alpha * (1.0 + self._values) ** (-(alpha + beta))

    def spectral_abscissa_neg(self):
        # sup of -Re(symbol) over the untruncated half-line is 0 (s -> oo).
        return 0.0


# ---------------------------------------------------------------------------
# direct sums of shifted Jordan blocks


def _exp_convolve(rows, coeffs):
    """Rows of e^{-rate t} exp(t B_m) T(row), the shape of ``rows``
    (problems, rows, m): problem i's rows convolved with its own row
    ``coeffs[i]`` (of ``_exp_series_rows``, at least m terms), truncated to
    m terms, in one FFT call.  Overflowed entries stay inf or NaN; callers
    check the problems they read.  A copy, since callers hold the rows and
    a view would hold the FFT output."""
    m = rows.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return fftconvolve(rows, coeffs[:, None, :m], axes=2)[..., :m].copy()


def _branch_and_bound(ub, visit):
    """(best, at) per problem: the largest norm over the candidates of each
    row of the bounds ``ub`` (problems x candidates, consumed) and the first
    candidate attaining it, or -1.

    The problems run in lockstep: each round, every open problem visits
    its first candidate of largest bound, and closes once that bound times
    ``_BOUND_MARGIN`` cannot beat its best.  ``visit(ps, cs)`` answers the
    norms of candidates ``cs`` of problems ``ps`` at once, and it may lower
    any bound not yet visited."""
    best, at = np.zeros(len(ub)), np.full(len(ub), -1)
    ps = np.arange(len(ub))
    while True:
        cs = np.argmax(ub[ps], axis=1)
        live = ub[ps, cs] * _BOUND_MARGIN > best[ps]
        ps, cs = ps[live], cs[live]
        if not len(ps):
            return best, at
        vals = visit(ps, cs)
        ub[ps, cs] = -np.inf
        better = vals > best[ps]
        best[ps[better]], at[ps[better]] = vals[better], cs[better]


class _BlockRows(NamedTuple):
    """Coefficient rows of a set of blocks for each of a list of pairs,
    grouped by block size: group g owns the numbers starts[g]:starts[g+1]
    and rows[g][p] holds their rows for pair p, of length sizes[g].  Number
    i is block ns[i], and l1[p, i] its row's l1 norm for pair p."""

    ns: np.ndarray
    rows: tuple
    l1: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


class JordanSumModel(OperatorModel):
    """Truncated direct sum over n of (-i n + gamma - B_{m(n)}).

    Block n acts on an m(n)-dimensional space with m(n) = floor(log n /
    log(1/delta)); blocks with m(n) < 2 are dropped, and the sum runs up
    to the truncation index ``n_max`` <= 2^53 (block numbers stay exact
    as floats) with m(n_max) <= 1024 (a norm takes SVDs of size m).  m(n)
    is nondecreasing, so bisection finds the groups of constant m.  The
    direct sum is an l2 sum, so operator norms are block-wise suprema.

    Each block operator is an upper-triangular Toeplitz matrix, so it is
    given by its coefficient row.  Three facts leave at most two rows per
    group, whatever ``n_max`` is:

    * Resolvent: the block of (lam + A)^{-1} at n has row w^{-(k+1)} with
      w = lam + gamma - i n.  The unitary phase change diag(e^{ik arg w})
      maps it to the row |w|^{-(k+1)}; that matrix is entrywise
      non-negative and its entries fall as |w| grows.  So within a group
      of constant m the norm is largest at the block nearest Im lam, and
      one row per group decides the supremum.  So resolvent rows are built
      real, as |w|^{-(k+1)}, which underflow to 0 far from a block.
    * End blocks: within a group, the norm of T(t) A_n^sigma
      (1+A_n)^{-sigma-tau} is at most the larger of its values at the
      group's first and last block.  No proof is known; the property test
      ``test_jordan_end_blocks_bound_their_group`` checks it block by block.
    * Semigroup factor: up to a unimodular phase, the row of T(t) Phi_n is
      the truncated convolution e(t) * phi_n with e_k = e^{-gamma t}
      t^k/k! >= 0, so ||T(t) Phi_n|| <= ||e(t) * phi_n||_1 <= s_m(t)
      ||phi_n||_1 with s_m(t) = sum_{k<m} e_k; ``_sup_over_blocks`` runs
      a branch and bound on these bounds.  At t = 0, T(0) Phi = Phi, so
      the Phi rows are exact.

    The rows of A^sigma (1+A)^{-sigma-tau} and their l1 norms do not
    depend on t, so ``fractional_norm`` builds them once per call and pair.
    Every norm of a call is one problem of a lockstep ``_branch_and_bound``
    (each (time, pair) of a sweep, the points of a line), in chunks that
    bound the rows held: each round takes one stacked SVD per block size,
    and the first visit to a group by any problem of a chunk convolves the
    group's rows of every problem with its own e(t) in one FFT call and
    lowers every problem's bounds of the group.  Which problem lowers a
    bound changes the steps, not the norms: a problem closes only when no
    bound it has not visited can beat its best, so its norm is the largest
    over its candidates in whatever order its bounds fall.
    ``semigroup_norm`` needs only the largest block: one stacked SVD per
    chunk of its times, of the real rows e(t).  Only the Phi rows, and with
    them the rows of T(t) Phi_n, are complex.
    """

    def __init__(self, gamma, delta, n_max=10**4, n_start=None):
        if not (0.0 < gamma < 1.0):
            raise DomainError(f"need gamma in (0,1), got {gamma}")
        if not (0.0 < delta < 1.0):
            raise DomainError(f"need delta in (0,1), got {delta}")
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.n_max = int(n_max)
        if self.n_max > 2**53:
            raise DomainError(f"need n_max <= 2**53, got {self.n_max}")
        n0 = 2 if n_start is None else int(n_start)
        if n0 < 1:
            raise DomainError(f"need n_start >= 1, got {n0}")
        # m(n) is nondecreasing, so this also bounds the search for n0
        if self.n_max < 2 or self.block_size(self.n_max) < 2:
            raise DomainError("truncation n_max retains no block with m(n) >= 2")
        if self.block_size(self.n_max) > 1024:
            raise DomainError(f"need m(n_max) <= 1024, got {self.block_size(self.n_max)}")
        if self.block_size(n0) < 2:
            n0 = self._last_of_size(n0, 1) + 1
        if n0 > self.n_max:
            raise DomainError("n_start is beyond the truncation n_max")
        self.n_start = n0
        self._groups = self._build_groups()
        self._sizes = np.array([m for m, _, _ in self._groups])
        # the end blocks of each group: its first and last, or its one block
        ends = [[a] if a == b else [a, b] for _, a, b in self._groups]
        self._ends = np.array([n for pair in ends for n in pair], dtype=float)
        self._end_starts = np.cumsum([0] + [len(pair) for pair in ends])
        self._firsts = np.array([a for _, a, _ in self._groups], dtype=float)
        self._lasts = np.array([b for _, _, b in self._groups], dtype=float)
        angle = math.atan2(self.n_max, self.gamma)
        self.info = ModelInfo(
            kind="jordan-sum",
            injective=True,
            invertible=True,
            sectorial=True,
            sectorial_angle=angle,
            known_growth_pair=(0.0, math.log(1.0 / gamma) / math.log(1.0 / delta)),
        )

    def block_size(self, n):
        return int(math.floor(math.log(n) / math.log(1.0 / self.delta)))

    def _last_of_size(self, n, m):
        """The last block in [n, n_max] of size <= m, given that n is one."""
        # the last is near (1/delta)^(m+1) - 1, and a guess its neighbour confirms
        # is exact, since m(n) is nondecreasing; else bisection finds it
        try:
            guess = min(self.n_max, math.ceil((1.0 / self.delta) ** (m + 1)) - 1)
        except OverflowError:
            guess = self.n_max
        confirmed = guess == self.n_max or self.block_size(guess + 1) > m
        if n <= guess and self.block_size(guess) <= m and confirmed:
            return guess
        hi = self.n_max
        while n < hi:
            mid = (n + hi + 1) // 2
            if self.block_size(mid) <= m:
                n = mid
            else:
                hi = mid - 1
        return n

    def _build_groups(self):
        out = []
        first = self.n_start
        while first <= self.n_max:
            m = self.block_size(first)
            out.append((m, first, self._last_of_size(first, m)))
            first = out[-1][2] + 1
        return out

    @property
    def groups(self):
        """List of (block size m, first n, last n) with constant m."""
        return list(self._groups)

    # -- operations

    def spectrum_distance(self, lams):
        # the eigenvalues gamma - i n share their real part, so the nearest is at the nearest n
        lams = np.asarray(lams, dtype=complex)
        n = np.clip(np.rint(-lams.imag), self.n_start, self.n_max)
        return np.hypot(lams.real - self.gamma, lams.imag + n)

    def semigroup_norm(self, ts):
        ts = self._check_times(ts)
        m = self._groups[-1][0]
        # exp(t B_m) norms are nondecreasing in m, so the largest block decides
        rows, bad = _exp_series_rows(ts, m, self.gamma)
        if bad is not None:
            raise _overflow_at(ts[bad])
        norms = np.empty(len(ts))
        # stacks of at most 512 KiB: all 28 of jordan.rates' 87 x 87 matrices at once
        # raise the verify-examples peak RSS by 0.5 MB
        step = max(1, _LINE_ENTRIES // (32 * m * m))
        for i in range(0, len(ts), step):
            norms[i : i + step] = _toeplitz_norm(rows[i : i + step])
        return norms

    def _sup_over_blocks(self, blocks, pair_of, ts):
        """Exact sups of the block norms of ``blocks`` (a ``_BlockRows``) for a
        list of problems, problem i the rows of pair ``pair_of[i]`` at time
        ``ts[i]``: (sups, whether n_max attains each, whether each failed
        because its rows overflow), one entry per problem.

        The blocks' rows at t are e(t) * blocks.rows, truncated (see the
        class docstring), and one lockstep ``_branch_and_bound`` visits
        them for every problem.  A problem's bounds start at s_m(t)
        ||phi||_1.  The first visit to a group by any problem convolves the
        group's rows of every problem, lowers every problem's bounds of the
        group to the l1 norms of its rows, and fails every open problem
        whose rows there are not finite.  At t = 0 the rows are exact, so a
        chunk of times 0 convolves nothing.
        """
        starts, sizes = blocks.starts, blocks.sizes
        counts = np.diff(starts)
        # a sweep raises at its first failed time, so the problems from the
        # first whose series overflows fail, and their zero series close them
        coeffs, bad = _exp_series_rows(ts, int(sizes[-1]), self.gamma)
        failed = np.zeros(len(ts), dtype=bool)
        if bad is not None:
            failed[bad:] = True
        with np.errstate(over="ignore"):  # an infinite bound still bounds
            gains = np.repeat(np.cumsum(coeffs, axis=1)[:, sizes - 1], counts, axis=1)
            ub = blocks.l1[pair_of] * gains
        group_of = np.repeat(np.arange(len(sizes)), counts)
        rows = {}  # group -> every problem's rows there, from the group's first visit

        def visit(ps, cs):
            gs, vals = group_of[cs], np.zeros(len(ps))
            for g in set(gs.tolist()) - rows.keys():
                phi = blocks.rows[g][pair_of]
                rows[g] = _exp_convolve(phi, coeffs) if ts.any() else phi
                rows[g][ts == 0] = phi[ts == 0]
                own = ub[:, starts[g] : starts[g + 1]]
                with np.errstate(invalid="ignore"):
                    np.minimum(own, np.abs(rows[g]).sum(axis=2), out=own)
                # ps are the open problems
                failing = ps[~np.isfinite(rows[g][ps]).all(axis=(1, 2))]
                failed[failing], ub[failing] = True, -np.inf
            ok = ~failed[ps]
            for g in set(gs[ok].tolist()):
                on = ok & (gs == g)
                vals[on] = _toeplitz_norm(rows[g][ps[on], cs[on] - starts[g]])
            return vals

        best, at = _branch_and_bound(ub, visit)
        return best, (at >= 0) & (blocks.ns[at] == self.n_max), failed

    @_off_spectrum
    def shifted_resolvent_norm(self, lams):
        norms, edges = np.empty(len(lams)), np.zeros(len(lams), dtype=bool)
        ks = np.arange(self._sizes[-1])
        step = max(1, _LINE_ENTRIES // (len(ks) * len(self._sizes)))
        for first in range(0, len(lams), step):
            chunk = lams[first : first + step]
            x = chunk.imag[:, None]
            # the block of each group nearest x, the lower on an exact tie: there
            # x - lo = -(x - hi) exactly and hypot is even, so both rows are the same bits
            lo = np.minimum(np.maximum(np.floor(x), self._firsts), self._lasts)
            hi = np.minimum(lo + 1.0, self._lasts)
            ns = np.where(np.abs(x - hi) < np.abs(x - lo), hi, lo)
            # the phase change of the class docstring: the row |w|^-(k+1), w = lam + gamma - i n
            with np.errstate(over="ignore"):  # an entry past float64 fails the SVD check
                rows = np.hypot(chunk.real[:, None] + self.gamma, x - ns)[:, :, None] ** -(ks + 1.0)
            rows[:, ks[None, :] >= self._sizes[:, None]] = 0.0

            def visit(ps, cs):
                # one stacked SVD per block size
                sizes, vals = self._sizes[cs], np.empty(len(ps))
                for m in set(sizes.tolist()):
                    on = sizes == m
                    vals[on] = _toeplitz_norm(rows[ps[on], cs[on], :m])
                return vals

            best, at = _branch_and_bound(rows.sum(axis=2), visit)
            hit = ns[np.arange(len(chunk)), at] == self.n_max
            norms[first : first + step], edges[first : first + step] = best, (at >= 0) & hit
        return norms, edges

    def _phi_block_rows(self, sigma, tau, ns, m):
        """Rows of A_n^sigma (1+A_n)^{-sigma-tau} for the blocks ``ns`` (a
        float array) of size ``m``, or of sizes m[i] zero-padded to the
        largest: the row of (1+A_n)^{-sigma-tau}, convolved once per size
        with the row of A_n^sigma when sigma > 0."""
        sizes = np.broadcast_to(m, ns.shape)
        width = int(sizes.max())
        phi = _shifted_power_rows(1.0 + self.gamma - 1j * ns, -(sigma + tau), width)
        if sigma:
            num = _shifted_power_rows(self.gamma - 1j * ns, float(sigma), width)
            for size in set(sizes.tolist()):
                on = sizes == size
                phi[on, :size] = fftconvolve(phi[on, :size], num[on, :size], axes=1)[:, :size]
        phi[np.arange(width) >= sizes[:, None]] = 0.0
        return phi

    def _phi_rows(self, pairs):
        """``_BlockRows`` of A^sigma (1+A)^{-sigma-tau} over the end blocks
        of each group, for each (sigma, tau) of ``pairs``."""
        sizes = np.repeat(self._sizes, np.diff(self._end_starts))
        phi = np.stack([self._phi_block_rows(sigma, tau, self._ends, sizes) for sigma, tau in pairs])
        bounds = zip(self._end_starts[:-1], self._end_starts[1:], self._sizes)
        rows = tuple(phi[:, a:b, :m] for a, b, m in bounds)
        return _BlockRows(self._ends, rows, np.abs(phi).sum(axis=2), self._end_starts, self._sizes)

    def fractional_norm(self, ts, sigma, tau):
        ts = self._check_times(ts)
        pairs, shape = _index_pairs(sigma, tau)
        # the lockstep runs the pairs before the first with invalid indices, but
        # not (0, 0), whose norms are the semigroup's; each raises in its turn
        runs = []
        for i, (s, t) in enumerate(pairs):
            try:
                self._check_fractional_indices(s, t)
            except DomainError:
                break
            if not (s == 0 and t == 0):
                runs.append(i)
        # one problem per (time, pair), in that order
        sups = np.empty((len(ts), len(runs)))
        edges, failed = np.empty((2, *sups.shape), dtype=bool)
        if runs:
            blocks = self._phi_rows([pairs[i] for i in runs])
            # at most 512 KiB of convolved rows per chunk, or one problem:
            # jordan.rates' band sweep reads a tracemalloc peak of 0.47 MiB, 1.55 MiB
            # with its 20 times in one chunk
            step = max(1, _LINE_ENTRIES // 32 // int(blocks.sizes @ np.diff(blocks.starts)))
            time_of, pair_of = np.divmod(np.arange(sups.size), len(runs))
            for first in range(0, sups.size, step):
                chunk = slice(first, first + step)
                got = self._sup_over_blocks(blocks, pair_of[chunk], ts[time_of[chunk]])
                sups.flat[chunk], edges.flat[chunk], failed.flat[chunk] = got
        norms = np.empty((len(pairs), len(ts)))
        for i, (s, t) in enumerate(pairs):
            self._check_fractional_indices(s, t)
            if s == 0 and t == 0:
                norms[i] = self.semigroup_norm(ts)
                continue
            j = runs.index(i)
            # a loop, not a comprehension, so the warning's stacklevel names the caller
            for k, time in enumerate(ts):
                if failed[k, j]:
                    raise _overflow_at(time)
                norms[i, k] = sups[k, j]
                if edges[k, j]:
                    warnings.warn(f"supremum of T({time})Phi^{s}_{t} attained at the truncation block "
                                  f"n={self.n_max}; value is a lower estimate",
                                  EdgeDominatedWarning, stacklevel=2)
        return norms.reshape(shape + ts.shape)

    def spectral_abscissa_neg(self):
        return -self.gamma


# ---------------------------------------------------------------------------
# operator matrices: multiplication by s minus a nilpotent shift


class OperatorMatrixModel(OperatorModel):
    """A = (mult by s) I - N on n copies of L^2(0,1), N the unit upper shift.

    The symbol M(s) = s I - N is one Jordan block, so at each s every
    operator the model needs is an upper-triangular Toeplitz matrix in N,
    given by its coefficient row: e^{-t M(s)} has row e^{-ts} t^k/k!,
    (lam + M(s))^{-1} the Taylor row of 1/z at lam + s, and Phi^sigma_tau
    the row product of z^sigma at s and z^{-sigma-tau} at 1 + s.  Rows are
    built for a whole array of s at once.  Time-indexed norms are suprema
    over s in (0,1) of batched spectral norms, maxima on the nodes
    ``_sup_nodes`` (the same for every t) refined by golden section, one
    ``sup_on_grid`` row per sweep; the resolvent norm is exact, at the s nearest -lam.
    For s in (0, 1] every row is real (powers of s > 0 and 1 + s > 0), so
    every norm takes a real SVD.
    Not sectorial: the resolvent blows up like |lam|^{-n} at the origin.
    """

    def __init__(self, n):
        if n < 2:
            raise DomainError(f"need nilpotency size n >= 2, got {n}")
        self.n = int(n)
        self._sup_nodes = np.geomspace(1e-9, 1.0, 384)
        self.info = ModelInfo(
            kind="operator-matrix",
            injective=True,
            invertible=False,
            sectorial=False,
            sectorial_angle=None,
            known_growth_pair=(float(n), 0.0),
        )

    def _phi_rows(self, sigma, tau, ss):
        """Rows of Phi^sigma_tau(M(s)) at each s, for an integer sigma >= 0."""
        rows = _shifted_power_rows(1.0 + ss, -(sigma + tau), self.n)
        if sigma:
            rows = _row_product(_shifted_power_rows(ss, float(sigma), self.n), rows)
        return rows

    # -- operations

    def spectrum_distance(self, lams):
        lams = np.asarray(lams, dtype=complex)
        return np.hypot(lams.real - np.clip(lams.real, 0.0, 1.0), lams.imag)

    @_off_spectrum
    def shifted_resolvent_norm(self, lams):
        # a diagonal unitary turns the row w^-(k+1) of (w - N)^{-1}, w = lam + s,
        # into |w|^-(k+1), whose Toeplitz norm falls as |w| grows: the supremum
        # over s is at the s nearest -lam, where |w| is the spectrum distance
        rows = self.spectrum_distance(-lams)[:, None] ** -(np.arange(self.n) + 1.0)
        return _svdvals(_toeplitz_stack(rows))[:, 0], np.zeros(len(lams), bool)

    @_each_pair
    def fractional_norm(self, ts, sigma, tau):
        if not float(sigma).is_integer():
            raise DomainError(
                "operator-matrix models support integer smoothing powers only "
                "(fractional powers are unbounded at the spectral origin)"
            )
        coeffs, bad = _exp_series_rows(ts, self.n, 0.0)
        if bad is not None:
            raise _overflow_at(ts[bad])

        def norms_at(i, ss):
            # the rows e^{-ts} t^k/k! of exp(-t M(s)), times the Phi rows
            decay = np.exp(-ts[i] * ss)[:, None] * coeffs[i]
            return _svdvals(_toeplitz_stack(_row_product(decay, self._phi_rows(sigma, tau, ss))))[:, 0]

        # s = 1 ends the domain itself, so no supremum there is a truncation edge
        return sup_on_grid(norms_at, self._sup_nodes, len(ts), rows=1)[0][0]

    def spectral_abscissa_neg(self):
        return 0.0
