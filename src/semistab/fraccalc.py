"""Fractional operator powers by sector-boundary contour quadrature.

The boundary of the sector of half-angle theta is traversed positively:
in along the upper ray from infinity to the origin, out along the lower
ray.  Nodes are placed geometrically in the radius and summed with
trapezoidal weights in log-radius; for integrands that decay
exponentially in log-radius this converges spectrally, so doubling the
node count squares the error until the truncation floor is reached.

The quadrature applies the model's stacked resolvent
``resolvent_apply_many`` to an array state, so it serves the dense and
diagonal kinds; the other kinds have no state-space action and raise
UnsupportedModelError.  The scalar residue identity behind the
quadrature (same engine, the operator resolvent replaced by a scalar
pole) doubles as a self-test; see ``verify_contour_identity``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, DomainError, TruncationWarning, UnsupportedModelError

# Truncation tails on the two rays scale like r_max^(-beta) and
# r_min^alpha; the wide default range pushes both to ~1e-12 even for the
# smallest indices in the bundled battery (alpha or beta = 1/2).
_DEFAULT_R_MIN = 1e-24
_DEFAULT_R_MAX = 1e24
_DEFAULT_NODES = 2048
_TAIL_FRACTION = 0.1
_TAIL_REL_TOL = 1e-8
# the scalar identity check takes lam outside the open sector of this half-angle
_PHI_ANGLE = math.pi / 3


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature description of a sector boundary."""

    theta: float = 0.75 * math.pi
    r_min: float = _DEFAULT_R_MIN
    r_max: float = _DEFAULT_R_MAX
    nodes_per_ray: int = _DEFAULT_NODES

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi):
            raise ContourError(f"need theta in (0, pi), got {self.theta}")
        if not (0.0 < self.r_min < self.r_max):
            raise ContourError("need 0 < r_min < r_max")
        if self.nodes_per_ray < 8:
            raise ContourError(f"need nodes_per_ray >= 8, got {self.nodes_per_ray}")

    def radii_and_weights(self):
        """Geometric radii and dr-weights of a log-radius trapezoid rule."""
        u = np.linspace(math.log(self.r_min), math.log(self.r_max), self.nodes_per_ray)
        du = u[1] - u[0]
        r = np.exp(u)
        w = np.full(self.nodes_per_ray, du)
        w[0] *= 0.5
        w[-1] *= 0.5
        return r, w * r


@dataclass(frozen=True)
class FractionalIndex:
    """The index triple of A^alpha (eta + A)^{-alpha-beta}."""

    alpha: float
    beta: float
    eta: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise DomainError(f"need finite alpha, beta >= 0, got {self.alpha}, {self.beta}")
        if not (0.0 < self.eta < math.inf):
            raise DomainError(f"need finite eta > 0, got {self.eta}")


def _ray_quadrature(kernel, alpha, beta, eta, contour):
    """(1/2 pi i) * contour integral of z^alpha (eta+z)^(-alpha-beta) kernel(z).

    ``kernel`` maps an ndarray of contour points to an (n_nodes, ...) array;
    it is evaluated on 256 nodes at a time to bound memory.  Returns
    (value, tail_value) where tail_value collects the outermost node
    contributions of both rays (the truncation diagnostic).
    """
    r, w = contour.radii_and_weights()
    n = len(r)
    k_tail = max(1, int(_TAIL_FRACTION * n))
    total = None
    tail = None
    for sgn in (+1.0, -1.0):
        ray = cmath.exp(1j * sgn * contour.theta)
        z_all = r * ray
        g_all = np.exp(alpha * np.log(z_all) - (alpha + beta) * np.log(eta + z_all))
        weights = (-sgn) * w * ray * g_all  # upper ray inward, lower ray outward
        for lo in range(0, n, 256):
            hi = min(n, lo + 256)
            vals = np.asarray(kernel(z_all[lo:hi]))
            contrib = weights[lo:hi].reshape((-1,) + (1,) * (vals.ndim - 1)) * vals
            s = contrib.sum(axis=0)
            total = s if total is None else total + s
            t_lo = max(lo, n - k_tail)
            if t_lo < hi:
                st = contrib[t_lo - lo :].sum(axis=0)
                tail = st if tail is None else tail + st
    return total / (2j * math.pi), tail / (2j * math.pi)


def _check_tails(idx, contour, result, tail):
    rnorm = float(np.linalg.norm(np.atleast_1d(result)))
    tnorm = float(np.linalg.norm(np.atleast_1d(tail)))
    if rnorm > 0.0 and tnorm > _TAIL_REL_TOL * rnorm:
        head = ""
        if 0.0 < idx.alpha < 1.0:
            head = (
                f"; head estimate r_min^alpha/alpha = "
                f"{contour.r_min**idx.alpha / idx.alpha:.3e}"
            )
        warnings.warn(
            f"outer {int(_TAIL_FRACTION * 100)}% of contour nodes contribute "
            f"{tnorm / rnorm:.3e} of the result (tolerance {_TAIL_REL_TOL:g}); "
            f"enlarge r_max or nodes_per_ray{head}",
            TruncationWarning,
            stacklevel=3,
        )


def contour_fractional_apply(model, idx, x, contour=None):
    """Quadrature approximation of A^alpha (eta+A)^{-alpha-beta} x for an
    array state x of a model with ``resolvent_apply_many``."""
    if contour is None:
        contour = ContourSpec()
    if idx.alpha == 0.0 and idx.beta == 0.0:
        return np.asarray(x, dtype=complex).copy()
    if idx.beta == 0.0:
        raise ContourError(
            "beta = 0 leaves a non-integrable contour tail (the symbol tends "
            "to 1 at infinity); use a closed form or compose exponents"
        )
    # a sectorial model is injective and invertible, with an angle (ModelInfo)
    if not model.info.sectorial:
        raise ContourError(f"model kind {model.info.kind!r} is not sectorial")
    angle = model.info.sectorial_angle
    if contour.theta <= angle:
        raise ContourError(
            f"contour angle {contour.theta:.4f} must exceed the model's "
            f"sectorial angle estimate {angle:.4f}"
        )

    def kernel(zs):
        return np.asarray(model.resolvent_apply_many(zs, x))

    result, tail = _ray_quadrature(kernel, idx.alpha, idx.beta, idx.eta, contour)
    _check_tails(idx, contour, result, tail)
    return result


def fractional_power_apply(model, alpha, beta, x, contour=None):
    """A^alpha (1+A)^{-alpha-beta} x: closed form if the model has one,
    otherwise contour quadrature with eta = 1.  Of the kinds, only a dense
    matrix may be non-injective, and its closed form rejects alpha > 0."""
    idx = FractionalIndex(alpha, beta, 1.0)
    if alpha == 0.0 and beta == 0.0:
        return np.asarray(x, dtype=complex).copy()
    try:
        return model.phi_closed_apply(alpha, beta, x)
    except UnsupportedModelError:
        pass
    return contour_fractional_apply(model, idx, x, contour)


@dataclass(frozen=True)
class IdentityCheck:
    """Result of the scalar contour self-test."""

    closed_form: complex
    rel_error: float


def verify_contour_identity(alpha, beta, eta, lam, contour=None):
    """Check the scalar residue identity underlying the fractional-power
    contour: the quadrature of z^alpha (eta+z)^(-alpha-beta) / (z+lam+eta-1)
    must equal (1-eta-lam)^alpha / (1-lam)^(alpha+beta).

    ``lam`` must lie in the closed right half-plane, off the origin and
    outside the open sector of half-angle pi/3; the contour angle must
    exceed 2 pi/3.
    """
    if alpha < 0:
        raise DomainError(f"need alpha >= 0, got {alpha}")
    if beta <= 0:
        raise DomainError(f"need beta > 0, got {beta}")
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"need eta in (0, 1], got {eta}")
    lam = complex(lam)
    if lam == 0 or lam.real < -1e-15 or abs(cmath.phase(lam)) < _PHI_ANGLE - 1e-12:
        raise DomainError(
            f"lambda={lam} must lie in the closed right half-plane outside the "
            f"open sector of half-angle {_PHI_ANGLE:.4f}"
        )
    if contour is None:
        contour = ContourSpec()
    if not (math.pi - _PHI_ANGLE < contour.theta < math.pi):
        raise ContourError(
            f"contour angle {contour.theta:.4f} must lie in "
            f"(pi - {_PHI_ANGLE:.4f}, pi)"
        )

    pole_shift = lam + eta - 1.0

    def kernel(zs):
        return 1.0 / (zs + pole_shift)

    quad, tail = _ray_quadrature(kernel, alpha, beta, eta, contour)
    quad = complex(quad)
    closed = complex((1.0 - eta - lam) ** alpha / (1.0 - lam) ** (alpha + beta))
    rel = abs(quad - closed) / abs(closed)
    idx = FractionalIndex(alpha if alpha > 0 else 0.0, beta, eta)
    _check_tails(idx, contour, np.array([quad]), np.array([complex(tail)]))
    return IdentityCheck(closed, rel)
