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
where the largest block decides it.  The resolvent norm takes a line, a
1-D complex array of points, and returns one norm and one edge flag per
point, inf on the spectrum of -A.  The diagonal kind takes each sweep's
or line's suprema over s in one stacked ``sup_on_grid``, the
operator-matrix kind each sweep's.
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
from .numcore import fftconvolve, geometric_grid, log_factorials, sup_on_grid

_SING_TOL = 1e-11
# branch and bound in JordanSumModel skips a block once its bound times
# this factor is at most the best norm found
_BOUND_MARGIN = 1.0 + 1e-10
_LINE_ENTRIES = 2**20  # block-sum resolvent rows are built in chunks of about this many entries


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
        smoothness-(sigma, tau) domain to X."""

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


# ---------------------------------------------------------------------------
# helpers shared by the block-structured models


def _exp_series_coeffs(t, m):
    """Coefficients t^k/k! for k < m, the polynomial exp(t B_m); DomainError
    naming t if one overflows, since every norm built on them would too."""
    if t == 0.0:
        out = np.zeros(m)
        out[0] = 1.0
        return out
    with np.errstate(over="ignore"):
        out = np.exp(np.arange(m) * math.log(t) - log_factorials(m))
    return _finite_at(out, t)


def _finite_at(entries, t):
    """``entries`` if all are finite, else DomainError naming the time t."""
    if not np.isfinite(entries).all():
        raise DomainError(f"matrix entries overflow float64 at t={t:g}; the norm is out of range")
    return entries


def _shifted_power_rows(zetas, p, m):
    """Rows of coefficients c_k with (zeta I - B_m)^p = sum_k c_k B_m^k.

    Finite Taylor expansion of z^p (principal branch) around each zeta;
    vectorized over an array of zetas.
    """
    zetas = np.atleast_1d(np.asarray(zetas, dtype=complex))
    out = np.zeros((len(zetas), m), dtype=complex)
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
    return float(_svdvals(_toeplitz_stack(np.asarray(coeffs, dtype=complex)))[0])


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
        axes); eigen route when safely diagonalizable, else Pade."""
        t = np.asarray(t, dtype=float)[..., None, None]
        if self._diagonalizable:
            out = (self._eigvecs * np.exp(-t * self._eigvals)) @ self._eigvecs_inv
        else:
            from scipy.linalg import expm  # about 0.3 s to import, so only this branch does

            out = expm(-t * self.matrix)
        if not np.all(np.isfinite(out)):
            raise DomainError("exp(-t A) overflows at the requested time")
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

    def fractional_norm(self, ts, sigma, tau):
        ts = self._check_times(ts)
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
    sup |g|.  Suprema are grid maxima refined by golden section; one at the
    s_max edge is flagged (EdgeDominatedWarning in ``fractional_norm``).
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
            known_growth_pair=(0.0, (b - 1.0 + 2.0 * a) / b),
        )

    def symbol(self, s):
        return s ** (-self.a) + 1j * s**self.b

    def symbol_derivative(self, s):
        return -self.a * s ** (-self.a - 1.0) + 1j * self.b * s ** (self.b - 1.0)

    def _check_vec(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape != self.grid.shape:
            raise ShapeError(f"expected vector of shape {self.grid.shape}, got {x.shape}")
        return x

    def _sup_norm(self, g, gprime, count):
        """Norms of ``count`` stacked symbols g(i, s) with derivatives
        gprime(i, s), and edge masks: a row for g and, if used, one for g'."""
        val, edge = sup_on_grid(lambda i, s: np.abs(g(i, s)), [self.grid] * count)
        if not self.sobolev:
            return val, edge[None]
        dval, dedge = sup_on_grid(lambda i, s: np.abs(gprime(i, s)), [self.grid] * count)
        return np.where(dval > val, dval, val), np.stack([edge, dedge])

    # -- operations

    def resolvent_apply_many(self, lams, x):
        x = self._check_vec(x)
        lams = np.asarray(lams, dtype=complex)
        return x[None, :] / (lams[:, None] - self._values[None, :])

    def spectrum_distance(self, lams):
        # a point at a time: a (points x grid) temporary would take gigabytes on fine grids
        return np.array([np.abs(lam - self._values).min() for lam in np.asarray(lams, dtype=complex)])

    @_off_spectrum
    def shifted_resolvent_norm(self, lams):
        def gprime(i, s):
            # -g'/d**2 with d = lam + g(s), or (-g'/d)/d where d**2 overflows
            d = lams[i] + self.symbol(s)
            with np.errstate(over="ignore", invalid="ignore"):
                d2 = d**2
            fits = np.isfinite(d2)
            return -self.symbol_derivative(s) / np.where(fits, d2, d) / np.where(fits, 1.0, d)

        norms, edges = self._sup_norm(lambda i, s: 1.0 / (lams[i] + self.symbol(s)), gprime, len(lams))
        return norms, edges.any(axis=0)

    def fractional_norm(self, ts, sigma, tau):
        ts = self._check_times(ts)
        self._check_fractional_indices(sigma, tau)

        def parts(s):
            # the t-independent factors of g and the terms of g'/g at the nodes s
            ph, dph = self.symbol(s), self.symbol_derivative(s)
            return (ph, ph**sigma, (1.0 + ph) ** (-(sigma + tau)), dph,
                    (sigma + tau) * dph / (1.0 + ph), sigma * dph / ph if sigma else None)

        on_grid = parts(self.grid)

        def g_and_parts(i, s):
            # the grid pass hands over the grid itself; golden-section nodes are new
            ph, power, inverse, dph, shift, lift = on_grid if s is self.grid else parts(s)
            out = np.exp(-ts[i] * ph)
            if sigma:
                out = out * power
            if sigma or tau:
                out = out * inverse
            return out, dph, shift, lift

        def gp(i, s):
            out, dph, shift, lift = g_and_parts(i, s)
            factor = -ts[i] * dph - shift
            if sigma:
                factor = factor + lift
            return out * factor

        def g(i, s):
            return g_and_parts(i, s)[0]

        norms, edges = self._sup_norm(g, gp, len(ts))
        for row in np.nonzero(edges)[0]:  # g's edges, then g''s
            label = f"T(t)Phi^{sigma}_{tau} symbol" + "'" * row
            warnings.warn(f"supremum of {label} attained at the right domain edge {self.grid[-1]:g}; "
                          "truncated domain may not contain the supremum",
                          EdgeDominatedWarning, stacklevel=2)
        return norms

    def phi_closed_apply(self, alpha, beta, x):
        x = self._check_vec(x)
        return x * self._values**alpha * (1.0 + self._values) ** (-(alpha + beta))

    def spectral_abscissa_neg(self):
        # sup of -Re(symbol) over the untruncated half-line is 0 (s -> oo).
        return 0.0


# ---------------------------------------------------------------------------
# direct sums of shifted Jordan blocks


def _exp_convolve(rows, t):
    """Rows of exp(t B_m) T(row): each row convolved with t^k/k!, truncated to
    m terms; DomainError naming t if an entry overflows, since the branch and
    bound would read NaN rows as 0."""
    m = rows.shape[-1]
    coeffs = _exp_series_coeffs(t, m)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_at(fftconvolve(rows, coeffs[None, :], axes=1)[:, :m], t)


def _branch_and_bound(ub, norm_of):
    """(best, at): the largest ``norm_of(i)`` over the candidates of the bounds ``ub``
    (consumed) and the first candidate attaining it, or None.  The first of largest
    bound goes next while that bound times ``_BOUND_MARGIN`` could beat the best;
    ``norm_of`` may instead lower bounds in ``ub`` and return None."""
    best, at = 0.0, None
    while True:
        i = int(np.argmax(ub))
        if not ub[i] * _BOUND_MARGIN > best:
            return best, at
        val = norm_of(i)
        if val is None:
            continue
        ub[i] = -np.inf
        if val > best:
            best, at = val, i


class _BlockRows(NamedTuple):
    """Coefficient rows of a set of blocks, grouped by block size: group g
    owns the numbers starts[g]:starts[g+1] and rows[g] holds their rows, of
    length sizes[g].  Number i is block ns[i], and l1[i] its row's l1 norm."""

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
      one row per group decides the supremum.
    * End blocks: within a group, the norm of T(t) A_n^sigma
      (1+A_n)^{-sigma-tau} is at most the larger of its values at the
      group's first and last block.  No proof is known; the property test
      ``test_jordan_end_blocks_bound_their_group`` checks it block by block.
    * Semigroup factor: the row of T(t) Phi_n is the truncated convolution
      e(t) * phi_n with e_k = t^k/k! >= 0, so ||T(t) Phi_n|| <=
      ||e(t) * phi_n||_1 <= s_m(t) ||phi_n||_1 with s_m(t) = sum_{k<m}
      t^k/k!; ``_sup_over_blocks`` runs a branch and bound on these
      bounds.  At t = 0, T(0) Phi = Phi, so the Phi rows are exact.

    The rows of A^sigma (1+A)^{-sigma-tau} and their l1 norms do not
    depend on t, so ``fractional_norm`` builds them once per call and runs
    the branch and bound once per time.
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
        m = self._groups[-1][0]
        # exp(t B_m) norms are nondecreasing in m, so the largest block decides
        return np.array([
            math.exp(-self.gamma * t) * _toeplitz_norm(_exp_series_coeffs(t, m).astype(complex))
            for t in self._check_times(ts)
        ])

    def _sup_over_blocks(self, blocks, t):
        """Exact sup of the block norms of ``blocks`` (a ``_BlockRows``) and whether n_max attains it.

        The blocks' rows are e(t) * blocks.rows, truncated (see the class
        docstring), and ``_branch_and_bound`` visits them.  Bounds start at
        s_m(t) ||phi||_1; the first visit to a group (t > 0) convolves its
        rows and caps their bounds at the rows' l1 norms.
        """
        starts, sizes = blocks.starts, blocks.sizes
        ub = blocks.l1.copy()
        exact = {} if t else dict(enumerate(blocks.rows))  # group -> e(t) * rows
        if t:
            coeffs = _exp_series_coeffs(t, int(sizes[-1]))
            with np.errstate(over="ignore"):  # an infinite bound still bounds
                gains = np.cumsum(coeffs)[sizes - 1]
            ub *= np.repeat(gains, np.diff(starts))

        def norm_of(i):
            g = int(np.searchsorted(starts, i, side="right")) - 1
            lo, hi = starts[g], starts[g + 1]
            if g in exact:
                return _toeplitz_norm(exact[g][i - lo])
            exact[g] = _exp_convolve(blocks.rows[g], t)
            np.minimum(ub[lo:hi], np.abs(exact[g]).sum(axis=1), out=ub[lo:hi])
            return None

        best, at = _branch_and_bound(ub, norm_of)
        return best, at is not None and bool(blocks.ns[at] == self.n_max)

    @_off_spectrum
    def shifted_resolvent_norm(self, lams):
        norms, edges = np.empty(len(lams)), np.zeros(len(lams), dtype=bool)
        ks = np.arange(self._sizes[-1])
        step = max(1, _LINE_ENTRIES // (len(ks) * len(self._sizes)))
        for first in range(0, len(lams), step):
            chunk = lams[first : first + step]
            x = chunk.imag[:, None]
            # the block of each group nearest x, or both neighbours on an exact tie
            lo = np.minimum(np.maximum(np.floor(x), self._firsts), self._lasts)
            hi = np.minimum(lo + 1.0, self._lasts)
            d_lo, d_hi = np.abs(x - lo), np.abs(x - hi)
            take = np.stack([(lo == hi) | (d_lo <= d_hi), (lo != hi) & (d_hi <= d_lo)], axis=2)
            point, group, _ = np.nonzero(take)  # point by point, in group order
            ns, sizes = np.stack([lo, hi], axis=2)[take], self._sizes[group]
            w = chunk[point] - 1j * ns + self.gamma
            # w^(k+1) overflows at large |w|: nan where the entry underflows to 0
            with np.errstate(over="ignore", invalid="ignore"):
                rows = w[:, None] ** (-(ks[None, :] + 1.0))
            rows[np.isnan(rows) & (np.abs(w) > 1.0)[:, None]] = 0.0
            rows[ks[None, :] >= sizes[:, None]] = 0.0
            l1 = np.abs(rows).sum(axis=1)
            starts = np.searchsorted(point, np.arange(len(chunk) + 1))
            for j, (a, b) in enumerate(zip(starts[:-1], starts[1:]), start=first):
                best, at = _branch_and_bound(l1[a:b], lambda i: _toeplitz_norm(rows[a + i, : sizes[a + i]]))
                norms[j], edges[j] = best, at is not None and ns[a + at] == self.n_max
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
            for size in np.unique(sizes):
                on = sizes == size
                phi[on, :size] = fftconvolve(phi[on, :size], num[on, :size], axes=1)[:, :size]
        phi[np.arange(width) >= sizes[:, None]] = 0.0
        return phi

    def _phi_rows(self, sigma, tau):
        """``_BlockRows`` of A^sigma (1+A)^{-sigma-tau} over the end blocks
        of each group: its first and last, or its one block."""
        ends = [np.unique([a, b]).astype(float) for _, a, b in self._groups]
        counts = [len(ns) for ns in ends]
        ns = np.concatenate(ends)
        phi = self._phi_block_rows(sigma, tau, ns, np.repeat(self._sizes, counts))
        starts = np.concatenate([[0], np.cumsum(counts)])
        rows = tuple(phi[a:b, :m] for a, b, m in zip(starts[:-1], starts[1:], self._sizes))
        return _BlockRows(ns, rows, np.abs(phi).sum(axis=1), starts, self._sizes)

    def fractional_norm(self, ts, sigma, tau):
        ts = self._check_times(ts)
        self._check_fractional_indices(sigma, tau)
        if sigma == 0 and tau == 0:
            return self.semigroup_norm(ts)
        blocks = self._phi_rows(sigma, tau)
        norms = np.empty(len(ts))
        # a loop, not a comprehension, so the warning's stacklevel names the caller
        for i, t in enumerate(ts):
            best, edge = self._sup_over_blocks(blocks, t)
            norms[i] = math.exp(-self.gamma * t) * best
            if edge:
                warnings.warn(f"supremum of T({t})Phi^{sigma}_{tau} attained at the truncation block "
                              f"n={self.n_max}; value is a lower estimate",
                              EdgeDominatedWarning, stacklevel=2)
        return norms

    def spectral_abscissa_neg(self):
        return -self.gamma


# ---------------------------------------------------------------------------
# operator matrices: multiplication by s minus a nilpotent shift


def _bump_seeds(t, count):
    """Maximisers s* = min(1, c/t) of exp(-t s) s^c for c < count."""
    # c >= t gives 1 without dividing, which overflows at subnormal t
    return [0.5 if t <= 0 else 1.0 if c >= t else max(1e-9, c / t) for c in range(count)]


class OperatorMatrixModel(OperatorModel):
    """A = (mult by s) I - N on n copies of L^2(0,1), N the unit upper shift.

    The symbol M(s) = s I - N is one Jordan block, so at each s every
    operator the model needs is an upper-triangular Toeplitz matrix in N,
    given by its coefficient row: e^{-t M(s)} has row e^{-ts} t^k/k!,
    (lam + M(s))^{-1} the Taylor row of 1/z at lam + s, and Phi^sigma_tau
    the row product of z^sigma at s and z^{-sigma-tau} at 1 + s.  Rows are
    built for a whole array of s at once.  Time-indexed norms are suprema
    over s in (0,1) of batched spectral norms, seeded at the critical
    points s* = min(1, c/t) of exp(-t s) s^c and refined by golden
    section; the resolvent norm is exact, the norm at the s nearest -lam.
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

    def fractional_norm(self, ts, sigma, tau):
        ts = self._check_times(ts)
        self._check_fractional_indices(sigma, tau)
        if not float(sigma).is_integer():
            raise DomainError(
                "operator-matrix models support integer smoothing powers only "
                "(fractional powers are unbounded at the spectral origin)"
            )
        coeffs = np.array([_exp_series_coeffs(t, self.n) for t in ts])

        def norms_at(i, ss):
            # the rows e^{-ts} t^k/k! of exp(-t M(s)), times the Phi rows
            decay = np.exp(-ts[i] * ss)[:, None] * coeffs[i]
            return _svdvals(_toeplitz_stack(_row_product(decay, self._phi_rows(sigma, tau, ss))))[:, 0]

        nodes = [np.unique(np.concatenate([self._sup_nodes, _bump_seeds(t, 2 * self.n)])) for t in ts]
        # s = 1 ends the domain itself, so no supremum there is a truncation edge
        return sup_on_grid(norms_at, nodes)[0]

    def spectral_abscissa_neg(self):
        return 0.0
