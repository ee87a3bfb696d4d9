"""Decay measurement on fractional domains and guaranteed-rate calculators.

The calculators turn a resolvent-growth pair (alpha, beta), smoothing
indices (sigma, tau), and space-geometry parameters into guaranteed decay
exponents rho with their applicability conditions.  Throughout, the
divisions (sigma+1)/alpha etc. use the conventions 1/0 = oo and 0/0 = oo,
so the exponential regime appears as rho = oo and is distinct from "no
rate" (a failed hypothesis).

The general, Fourier-type and type/cotype calculators apply one rule,
``RateRule``, elementwise over arrays of index tuples:
rho = min((sigma+1)/alpha - 1, (tau-1/r)/beta - 1) under sigma > alpha - 1
and tau > beta + 1/r.  The geometry enters only through the smoothing
index 1/r: 1 on a general Banach space, 1/p - 1/p'
for Fourier type p (``_fourier_index``), 1/p - 1/q for type p and cotype
q or a p-convex, q-concave lattice (``_pq_index``), and 0 on a Hilbert
space.  The same map gives ``exponential_smoothness_index``.

Geometry parameters are user inputs and are never inferred; hypotheses
the artifact cannot check numerically (R-boundedness of the tempered
resolvent family, a negative non-analytic growth bound) enter as asserted
flags and are recorded as such in the condition ledger of each prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
from .numcore import MIN_FIT_POINTS, PowerFit, default_window, fit_exp_rate, fit_power_law

INF = math.inf


def _div(num, den):
    """num/den with the 1/0 = 0/0 = oo convention (num, den >= 0), elementwise."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(den == 0.0, INF, np.true_divide(num, den))


@dataclass(frozen=True)
class GeometryDescriptor:
    """User-supplied geometric data of the underlying space."""

    hilbert: bool = False
    fourier_type: float | None = None
    type_p: float | None = None
    cotype_q: float | None = None
    lattice: tuple[float, float] | None = None  # (p-convex, q-concave)
    positive_semigroup: bool = False
    r_resolvent_growth_asserted: bool = False
    zeta_negative_asserted: bool = False

    def __post_init__(self):
        if self.hilbert:
            object.__setattr__(self, "fourier_type", 2.0)
            object.__setattr__(self, "type_p", 2.0)
            object.__setattr__(self, "cotype_q", 2.0)
            object.__setattr__(self, "r_resolvent_growth_asserted", True)
        if self.fourier_type is not None and not (1.0 <= self.fourier_type <= 2.0):
            raise DomainError(f"Fourier type must lie in [1,2], got {self.fourier_type}")
        if self.type_p is not None and not (1.0 <= self.type_p <= 2.0):
            raise DomainError(f"type must lie in [1,2], got {self.type_p}")
        if self.cotype_q is not None and not (2.0 <= self.cotype_q):
            raise DomainError(f"cotype must lie in [2,oo], got {self.cotype_q}")
        if self.lattice is not None:
            pc, qc = self.lattice
            if not (1.0 <= pc <= 2.0 and 2.0 <= qc < INF):
                raise DomainError(f"lattice convexity pair out of range: {self.lattice}")


@dataclass(frozen=True)
class Condition:
    name: str
    passed: bool


@dataclass(frozen=True)
class RatePrediction:
    """A guaranteed decay exponent with its source and hypotheses.

    ``rho`` is None when a hypothesis fails ("no rate"); math.inf encodes
    the exponential regime.  ``strict`` records whether the exponent is an
    open supremum (every rho' < rho is guaranteed) or attained.
    """

    rho: float | None
    strict: bool
    r_index: float  # the smoothing index 1/r demanded by the source theorem
    source: str
    conditions: tuple[Condition, ...] = ()
    log_factor: bool = False

    @property
    def applicable(self):
        return all(c.passed for c in self.conditions)


def _prediction(source, conds, rho, strict, r_index, log_factor=False):
    if not all(c.passed for c in conds):
        return RatePrediction(None, strict, r_index, source, tuple(conds), log_factor)
    return RatePrediction(float(rho), strict, r_index, source, tuple(conds), log_factor)


def _fourier_index(p):
    """1/r = 1/p - 1/p' of Fourier type p."""
    return 2.0 / p - 1.0


def _pq_index(p, q):
    """1/r = 1/p - 1/q (1/oo = 0) of type p and cotype q, or of a
    p-convex, q-concave lattice."""
    return 1.0 / p - (0.0 if q == INF else 1.0 / q)


@dataclass(frozen=True)
class RateRule:
    """The rate theorem of every geometry: rho = min((sigma+1)/alpha - 1,
    (tau-1/r)/beta - 1) under sigma > alpha - 1 and tau > beta + 1/r.  An
    ``attained`` rule (Hilbert space, lattices) also admits tau = beta + 1/r,
    and its beta branch is attained; ``tau_rule`` names the tau condition."""

    source: str
    r_index: float
    attained: bool
    tau_rule: str

    def rates(self, alpha, beta, sigma, tau):
        """(rho, sigma_ok, tau_ok, strict), elementwise over arrays of the
        indices; rho is -oo where a condition fails."""
        sigma_ok = sigma > alpha - 1.0
        tau_ok = tau >= beta + self.r_index if self.attained else tau > beta + self.r_index
        branch_a = _div(sigma + 1.0, alpha) - 1.0
        branch_b = _div(tau - self.r_index, beta) - 1.0
        strict = branch_a < branch_b if self.attained else np.full(np.shape(branch_a), True)
        return np.where(sigma_ok & tau_ok, np.minimum(branch_a, branch_b), -INF), sigma_ok, tau_ok, strict

    def predict(self, alpha, beta, sigma, tau, conds=()):
        """The ``RatePrediction`` at one tuple, with the extra ``conds`` first."""
        rho, sigma_ok, tau_ok, strict = self.rates(alpha, beta, sigma, tau)
        conds = [*conds, Condition("sigma > alpha - 1", bool(sigma_ok)), Condition(self.tau_rule, bool(tau_ok))]
        return _prediction(self.source, conds, rho, bool(strict), self.r_index)


GENERAL_RULE = RateRule("general-banach", 1.0, False, "tau > beta + 1")


def fourier_type_rule(geometry):
    """The rule of Fourier type p; its Hilbert branch (p = 2) is attained."""
    p = geometry.fourier_type
    if p is None:
        raise DomainError("geometry.fourier_type is required")
    if p == 2.0:
        return RateRule("fourier-type-hilbert", _fourier_index(p), True, "tau >= beta")
    return RateRule("fourier-type", _fourier_index(p), False, "tau > beta + 1/r")


def predict_rate_general(alpha, beta, sigma, tau):
    """Rate on a general Banach space (1/r = 1): rho < min((sigma+1)/alpha - 1,
    (tau-1)/beta - 1) under sigma > alpha - 1 and tau > beta + 1."""
    return GENERAL_RULE.predict(alpha, beta, sigma, tau)


def predict_rate_fourier_type(alpha, beta, sigma, tau, geometry):
    """Rate under a Fourier-type hypothesis (``fourier_type_rule``)."""
    return fourier_type_rule(geometry).predict(alpha, beta, sigma, tau)


def predict_rate_type_cotype(alpha, beta, sigma, tau, geometry):
    """Rate under type/cotype (and optionally lattice-convexity) data;
    requires the R-resolvent-growth hypothesis as an asserted flag."""
    p, q = geometry.type_p, geometry.cotype_q
    if p is None or q is None:
        raise DomainError("geometry.type_p and geometry.cotype_q are required")
    asserted = (Condition("R-resolvent growth asserted", geometry.r_resolvent_growth_asserted),)
    args = (alpha, beta, sigma, tau, asserted)
    if p == 2.0 and q == 2.0:
        return RateRule("type-cotype-hilbert", _pq_index(p, q), True, "tau >= beta").predict(*args)
    best = RateRule("type-cotype", _pq_index(p, q), False, "tau > beta + 1/r").predict(*args)
    if geometry.lattice is not None:
        lat = RateRule("type-cotype-lattice", _pq_index(*geometry.lattice), True,
                       "tau >= beta + 1/r").predict(*args)
        if lat.applicable and (not best.applicable or lat.rho >= best.rho):
            best = lat
    return best


def predict_rate_asymptotically_analytic(alpha, sigma, zeta_negative_asserted):
    """tau-free rate rho < (sigma+1)/alpha - 1 for asymptotically analytic
    semigroups; ``zeta_negative_asserted`` is the user's assertion that the
    non-analytic growth bound is negative (``GeometryDescriptor`` carries
    it as a flag of the same name)."""
    conds = [
        Condition("non-analytic growth bound < 0 asserted", bool(zeta_negative_asserted)),
        Condition("sigma > alpha - 1", sigma > alpha - 1.0),
    ]
    rho = _div(sigma + 1.0, alpha) - 1.0
    return _prediction("asymptotically-analytic", conds, rho, True, 0.0)


def predict_rate_growth_aware(alpha, beta, sigma, tau, mu):
    """Rates that discount the measured growth exponent mu of ||T(t)||.

    The plain candidate is min(sigma/alpha, tau/beta) - mu (strict); for
    alpha = 0 a rescaling of the bounded-semigroup literature adds the
    candidate tau/beta - mu with a logarithmic factor.  Returns the plain
    candidate, then the scaling one when alpha = 0.  Negative net
    exponents are reported as failed conditions, not as rates.
    """
    if mu < 0:
        raise DomainError(f"need mu >= 0, got {mu}")
    # (source, raw exponent, strict, log_factor) of each candidate
    candidates = [("growth-aware", float(min(_div(sigma, alpha), _div(tau, beta))), True, False)]
    if alpha == 0.0:
        candidates.append(("growth-aware-scaling", float(_div(tau, beta)), False, True))
    preds = []
    for source, raw, strict, log_factor in candidates:
        net = raw - mu if raw != INF else INF
        conds = [Condition("net exponent >= 0", net >= 0.0)]
        preds.append(_prediction(source, conds, net, strict, 1.0, log_factor))
    return preds


def predictions_for(geometry, alpha, beta, sigma, tau, mu_hat):
    """The rates the geometry has data for, at growth pair (alpha, beta) and
    indices (sigma, tau): general, Fourier-type, type/cotype, asymptotically
    analytic, then (unless ``mu_hat`` is None) growth-aware at max(0, mu_hat)."""
    preds = [predict_rate_general(alpha, beta, sigma, tau)]
    if geometry.fourier_type is not None:
        preds.append(predict_rate_fourier_type(alpha, beta, sigma, tau, geometry))
    if geometry.type_p is not None and geometry.cotype_q is not None:
        preds.append(predict_rate_type_cotype(alpha, beta, sigma, tau, geometry))
    if geometry.zeta_negative_asserted:
        preds.append(predict_rate_asymptotically_analytic(alpha, sigma, zeta_negative_asserted=True))
    if mu_hat is not None:
        preds.extend(predict_rate_growth_aware(alpha, beta, sigma, tau, max(0.0, mu_hat)))
    return preds


def interpolate_rates(rate1, rate2, theta):
    """Combine two decay rates (sigma, tau, rho) by interpolation.

    For theta in [0,1] the exponent at the convex combination of indices
    interpolates linearly; for theta >= 1 the first rate must be a pure
    power law and scales to (theta*sigma1, theta*tau1) with exponent
    theta*rho1.  Returns (sigma, tau, exponent).
    """
    s1, t1, r1 = rate1
    s2, t2, r2 = rate2
    if theta < 0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    if theta <= 1.0:
        if s1 < s2 or t1 < t2:
            raise DomainError(
                "interpolation needs sigma1 >= sigma2 and tau1 >= tau2, got "
                f"({s1},{t1}) vs ({s2},{t2})"
            )
        return (
            theta * s1 + (1.0 - theta) * s2,
            theta * t1 + (1.0 - theta) * t2,
            theta * r1 + (1.0 - theta) * r2,
        )
    return (theta * s1, theta * t1, theta * r1)


@dataclass(frozen=True)
class SmoothnessIndex:
    value: float
    source: str


def exponential_smoothness_index(geometry):
    """Smallest fractional-domain index at which the applicable spectral
    bound controls exponential decay of orbits, with its source."""
    candidates = []
    if geometry.hilbert:
        candidates.append((0.0, "hilbert"))
    if geometry.fourier_type is not None:
        candidates.append((_fourier_index(geometry.fourier_type), "fourier-type"))
    if geometry.type_p is not None and geometry.cotype_q is not None:
        r_index = _pq_index(geometry.type_p, geometry.cotype_q)
        if geometry.r_resolvent_growth_asserted:
            candidates.append((r_index, "type-cotype"))
        candidates.append((2.0 * r_index, "type-cotype-unconditional"))
    if geometry.lattice is not None and geometry.positive_semigroup:
        candidates.append((_pq_index(*geometry.lattice), "positive-lattice"))
    if not candidates:
        raise DomainError("geometry carries no usable parameters")
    value, source = min(candidates, key=lambda c: c[0])
    return SmoothnessIndex(value, source)


# ---------------------------------------------------------------------------
# measurements


@dataclass(frozen=True)
class DecayMeasurement:
    """Measured norms of T(t) from a fractional domain to X with fits."""

    sigma: float
    tau: float
    norms: np.ndarray
    fit: PowerFit
    rho_hat: float  # decay reported as a positive exponent
    super_polynomial: bool
    growth_mu_hat: float | None = None


def _classify_super_polynomial(power_fit, exp_fit):
    """Exponential orbits: the exponential fit is much better in log space
    and has a genuinely negative rate."""
    return (
        exp_fit.rate < -1e-8
        and power_fit.residual > 0.1
        and exp_fit.residual < 0.25 * power_fit.residual
    )


def measure_decay(model, sigma, tau, t_grid, with_growth=False):
    """Norms of T(t) Phi^sigma_tau(A) over the grid with a power-law fit
    over ``default_window`` (the first and last 10% of nodes dropped).

    ``rho_hat`` is the fitted decay exponent (positive = decay).  With
    ``with_growth`` the growth exponent of ||T(t)|| on X is fitted over
    the same window for the growth-aware predictors.  A norm that
    underflows to exactly 0 lies below the smallest double, a decay no
    power of t on the grid reaches: the fit window ends before the first
    such norm and the measurement is classified super-polynomial.  If that
    leaves too few norms to fit, InsufficientDataError names the indices
    and the time of that norm.
    """
    norms = model.fractional_norm(t_grid, sigma, tau)
    gnorms = model.semigroup_norm(t_grid) if with_growth else None
    lo, hi = default_window(len(norms))
    zero = norms == 0.0 if gnorms is None else (norms == 0.0) | (gnorms == 0.0)
    underflow = np.flatnonzero(zero[lo:hi])
    if underflow.size:
        hi = lo + int(underflow[0])
        if hi - lo < MIN_FIT_POINTS:
            raise InsufficientDataError(
                f"sigma={sigma:g}, tau={tau:g}: the norms underflow to 0 at t={t_grid[hi]:.12g}, "
                f"leaving {hi - lo} nonzero norms in the fit window; need >= {MIN_FIT_POINTS}"
            )
    fit = fit_power_law(t_grid, norms, window=(lo, hi))
    exp_fit = fit_exp_rate(t_grid, norms, window=(lo, hi))
    growth = None if gnorms is None else fit_power_law(t_grid, gnorms, window=(lo, hi)).exponent
    return DecayMeasurement(
        float(sigma),
        float(tau),
        norms,
        fit,
        -fit.exponent,
        bool(underflow.size) or _classify_super_polynomial(fit, exp_fit),
        growth,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    margin: float | None
    detail: str


def check_consistency(measurement, prediction, tol):
    """PASS iff the measured decay exponent is at least the guaranteed one
    (within tol); rho = oo passes through the super-polynomial flag."""
    if not prediction.applicable:
        raise DomainError(
            f"prediction {prediction.source} is not applicable: "
            + "; ".join(c.name for c in prediction.conditions if not c.passed)
        )
    if prediction.rho == INF:
        if measurement.super_polynomial:
            return ConsistencyReport(True, None, "super-polynomial measurement matches rho=oo")
        return ConsistencyReport(
            False, None, "rho=oo predicted but measurement is not super-polynomial"
        )
    if measurement.super_polynomial:
        return ConsistencyReport(
            True, None, f"super-polynomial decay dominates rho={prediction.rho:g}"
        )
    margin = measurement.rho_hat - prediction.rho
    passed = margin >= -tol
    return ConsistencyReport(
        passed,
        float(margin),
        f"measured rho_hat={measurement.rho_hat:.4f} vs predicted {prediction.rho:.4f} "
        f"({prediction.source}, tol={tol:g})",
    )
