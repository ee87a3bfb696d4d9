"""Reference values for the norm oracles, computed without the package.

Each reference builds its operator from the formula in the model's
docstring and maximises with a method of its own, so it can see what the
package's grids step over.  Nothing in ``src/`` imports this module.
"""

import math

import mpmath as mp
import numpy as np
from scipy.optimize import minimize_scalar


def exp_nilpotent_norm(t, n):
    """||e^{-tN}|| for the n x n unit upper shift N: the largest singular
    value of the explicit matrix whose row i holds t^k/k! at column i + k
    (a diagonal unitary takes the signs of (-t)^k away)."""
    m = np.zeros((n, n))
    for i in range(n):
        for k in range(n - i):
            m[i, i + k] = t**k / math.factorial(k)
    return float(np.linalg.norm(m, 2))


def diagonal_resolvent_sup(a, b, lo, hi, lam, sobolev, count=20001):
    """sup over s in [lo, hi] of 1/|lam + g(s)|, g(s) = s^-a + i s^b, and,
    with ``sobolev``, also of |g'(s)|/|lam + g(s)|^2: the larger of the two.

    The peak of 1/|lam + g| sits near s* = (-Im lam)^{1/b}, where Im g
    cancels Im lam, and may be far narrower than any grid cell; so s* joins
    ``count`` geometric nodes as a candidate.
    Each row's three largest candidates are refined by bounded Brent search
    in log s between their neighbours, and the largest value seen wins.
    """

    def rows(s):
        d = np.abs(lam + (s**-a + 1j * s**b))
        out = [1.0 / d]
        if sobolev:
            out.append(np.abs(-a * s ** (-a - 1.0) + 1j * b * s ** (b - 1.0)) / d**2)
        return out

    s = np.geomspace(lo, hi, count)
    if lam.imag < 0:
        seed = (-lam.imag) ** (1.0 / b)
        if lo < seed < hi:
            s = np.insert(s, np.searchsorted(s, seed), seed)
    best = 0.0
    for r, vals in enumerate(rows(s)):
        best = max(best, float(vals.max()))
        for i in np.argsort(vals)[-3:]:
            # u = log(s / s_i): small, so Brent's relative tolerance in u is fine in s
            left, right = math.log(s[max(i - 1, 0)] / s[i]), math.log(s[min(i + 1, len(s) - 1)] / s[i])
            if left < right:
                res = minimize_scalar(lambda u: -rows(s[i] * np.exp(u))[r], bounds=(left, right),
                                      method="bounded", options={"xatol": 1e-14})
                best = max(best, -float(res.fun))
    return best


def _mp_matrix(matrix):
    return mp.matrix([[mp.mpc(complex(z)) for z in row] for row in np.asarray(matrix)])


def _mp_top_singular_value(m):
    return float(max(mp.svd_c(m, compute_uv=False)))


def dense_fractional_norm(matrix, t, sigma=0, tau=0):
    """||e^{-tA} A^sigma (1 + A)^{-sigma-tau}|| for integers sigma, tau >= 0,
    at 30 digits: ``mp.expm``, exact matrix powers, and the largest singular
    value from ``mp.svd_c``.  sigma = tau = 0 gives ||e^{-tA}||."""
    with mp.workdps(30):
        a = _mp_matrix(matrix)
        eye = mp.eye(a.rows)
        phi = a**sigma * (eye + a) ** -(sigma + tau)
        return _mp_top_singular_value(mp.expm(-mp.mpf(float(t)) * a) * phi)


def dense_shifted_resolvent_norm(matrix, lam):
    """||(lam + A)^{-1}|| at 30 digits: one over the smallest singular value
    of lam + A from ``mp.svd_c``."""
    with mp.workdps(30):
        shifted = _mp_matrix(matrix) + mp.mpc(complex(lam)) * mp.eye(len(matrix))
        return float(1 / min(mp.svd_c(shifted, compute_uv=False)))
