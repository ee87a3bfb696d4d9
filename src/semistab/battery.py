"""The bundled verification battery.

Each case checks one block of the package's headline claims on the
bundled example models at pinned tolerances; the CLI's verify-examples
subcommand and the acceptance test suite both run exactly these cases.
Case names are hierarchical ("appendix.exp-sum", "jordan.rates", ...)
so batches can be filtered by prefix.

Checks marked informative report context (for instance the orbit-based
optimality witness of the block-sum example) and do not decide the
case verdict.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import CSV_HEADER, decaylab, fraccalc, multiplier, numcore, operators, resolvent
from .errors import WindowError

TOL_EXPONENT = 0.05
TOL_BETA = 0.1


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str
    informative: bool = False


@dataclass
class CaseResult:
    name: str
    criterion: str
    checks: list[CheckResult] = field(default_factory=list)
    duration: float = 0.0
    rows: list[dict] = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks if not c.informative)

    def add(self, label, passed, detail, informative=False, **row):
        """Append a check; given ``row`` fields, also its CSV row, whose
        verdict is the check's."""
        self.checks.append(CheckResult(label, bool(passed), detail, informative))
        if row:
            self.row(**row, verdict="PASS" if passed else "FAIL")

    def row(self, **kwargs):
        base = dict.fromkeys(CSV_HEADER, "")
        base["case"] = self.name
        base.update({k: str(v) for k, v in kwargs.items()})
        self.rows.append(base)


def _case(name, criterion):
    """Make ``body(out, seed)`` the battery case ``name`` of ``criterion``:
    ``case(seed=0)`` fills a new CaseResult, timed over the whole body."""

    def decorate(body):
        @functools.wraps(body)
        def case(seed=0):
            out = CaseResult(name, criterion)
            t0 = time.perf_counter()
            body(out, seed)
            out.duration = time.perf_counter() - t0
            return out

        del case.__wrapped__  # so introspection shows case(seed=0), not the body
        case.name = name
        return case

    return decorate


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=int(seed) + (int(stream) << 64)))


def _stable_dense(rng, dim, margin):
    """Random dense model whose spectrum has real parts >= margin."""
    m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(dim)
    shift = margin - np.linalg.eigvals(m).real.min()
    return operators.DenseMatrixModel(m + shift * np.eye(dim))


# ---------------------------------------------------------------------------
# criterion 1


@_case("appendix.exp-sum", "1")
def case_appendix_exp_sum(out, seed):
    worst = math.inf
    bad = []
    for m in range(1, 501):
        lv = numcore.stable_exp_sum_log(m)
        lo = m - 2.0 - 0.25 * math.log(m)
        hi = m - 0.25 * math.log(m)
        worst = min(worst, lv - lo, hi - lv)
        if not (lo <= lv <= hi):
            bad.append(m)
    out.add(
        "two-sided bound for m in 1..500 (log domain)",
        not bad,
        f"violations: {bad or 'none'}; smallest slack {worst:.4f}",
    )
    exact = [(1, math.sqrt(2.0)), (2, 3.0), (10, 5301.2744459411832)]
    errs = [abs(numcore.stable_exp_sum(m) - v) / v for m, v in exact]
    out.add(
        "closed values m in {1,2,10}",
        max(errs) < 1e-12,
        f"max rel err {max(errs):.2e}",
    )
    for m in (1, 2, 10, 100, 500):
        out.row(t_or_xi=m, value=f"{numcore.stable_exp_sum_log(m):.12g}", source="log-value")


# ---------------------------------------------------------------------------
# criterion 2


def contour_identity_battery():
    """>= 20 index/pole tuples; the -0.5+i pole of the brief is reflected
    into the admissible region as 0.5+i (the region excludes Re < 0)."""
    tuples = []
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for beta in (0.5, 1.0, 2.0):
            for eta in (0.5, 1.0):
                for lam in (1j, 2j, 0.5 + 1j):
                    tuples.append((alpha, beta, eta, lam))
    return tuples


@_case("appendix.contour-identity", "2")
def case_appendix_contour_identity(out, seed):
    worst = 0.0
    for alpha, beta, eta, lam in contour_identity_battery():
        chk = fraccalc.verify_contour_identity(alpha, beta, eta, lam)
        worst = max(worst, chk.rel_error)
        out.row(
            t_or_xi=f"a={alpha};b={beta};eta={eta};lam={lam}",
            value=f"{chk.rel_error:.3e}",
            source="contour-identity",
            verdict="PASS" if chk.rel_error < 1e-6 else "FAIL",
        )
    out.add(
        f"{len(contour_identity_battery())} tuples at default contour < 1e-6",
        worst < 1e-6,
        f"worst rel err {worst:.3e}",
    )
    ladder_ok = True
    detail = []
    for alpha, beta, eta, lam in [(0.5, 1.0, 1.0, 1j), (2.0, 0.5, 0.5, 2j), (1.0, 2.0, 1.0, 0.5 + 1j)]:
        prev = None
        nodes = 128
        while nodes <= 2048:
            contour = fraccalc.ContourSpec(nodes_per_ray=nodes)
            err = fraccalc.verify_contour_identity(alpha, beta, eta, lam, contour=contour).rel_error
            if prev is not None and prev > 1e-10 and not (err <= max(prev / 4.0, 1e-10)):
                ladder_ok = False
                detail.append(f"(a={alpha},b={beta}): {prev:.2e} -> {err:.2e} at {nodes}")
            prev = err
            nodes *= 2
    out.add(
        "doubling nodes gains >= 4x until 1e-10",
        ladder_ok,
        "; ".join(detail) if detail else "ladders clean",
    )


# ---------------------------------------------------------------------------
# criterion 3


@_case("frac.oracle", "3")
def case_frac_oracle(out, seed):
    rng = _rng(seed, 3)
    # diagonal model: contour vs eigenvalue-wise closed form
    dg = operators.DiagonalSymbolModel(1.0, 0.5, s_max=1e6, grid_count=256)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    worst_diag = 0.0
    for alpha, beta, eta in [(0.5, 0.5, 1.0), (1.0, 0.5, 1.0), (0.0, 1.0, 1.0), (1.5, 0.75, 0.5)]:
        ref = x * dg.symbol(dg.grid) ** alpha * (eta + dg.symbol(dg.grid)) ** (-(alpha + beta))
        got = fraccalc.contour_fractional_apply(dg, fraccalc.FractionalIndex(alpha, beta, eta), x)
        worst_diag = max(worst_diag, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    out.add("diagonal contour vs closed form < 1e-8", worst_diag < 1e-8, f"worst {worst_diag:.2e}")

    dm = _stable_dense(rng, 6, 0.4)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    worst_dense = 0.0
    for alpha, beta, eta in [(0.5, 0.5, 1.0), (1.0, 1.0, 1.0), (0.25, 0.75, 0.5)]:
        mu = dm._eigvals
        diag = mu**alpha * (eta + mu) ** (-(alpha + beta))
        ref = (dm._eigvecs * diag) @ dm._eigvecs_inv @ y
        got = fraccalc.contour_fractional_apply(dm, fraccalc.FractionalIndex(alpha, beta, eta), y)
        worst_dense = max(worst_dense, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    out.add("dense contour vs eigen closed form < 1e-8", worst_dense < 1e-8, f"worst {worst_dense:.2e}")

    # composition law, once via closed forms and once via the contour route
    # (contour-route exponents keep beta >= 0.5: the truncation tail scales
    # like r_max^-beta, so smaller beta needs a wider contour)
    worst_law = 0.0
    for a1, b1, a2, b2 in [(0.5, 0.25, 0.25, 0.5), (1.0, 0.5, 0.5, 1.0)]:
        two = fraccalc.fractional_power_apply(dm, a1, b1, fraccalc.fractional_power_apply(dm, a2, b2, y))
        one = fraccalc.fractional_power_apply(dm, a1 + a2, b1 + b2, y)
        worst_law = max(worst_law, float(np.linalg.norm(two - one) / np.linalg.norm(one)))
    for a1, b1, a2, b2 in [(0.5, 0.5, 0.5, 0.5), (1.0, 0.5, 0.5, 1.0)]:
        idx1 = fraccalc.FractionalIndex(a1, b1, 1.0)
        idx2 = fraccalc.FractionalIndex(a2, b2, 1.0)
        idx12 = fraccalc.FractionalIndex(a1 + a2, b1 + b2, 1.0)
        two_c = fraccalc.contour_fractional_apply(dm, idx1, fraccalc.contour_fractional_apply(dm, idx2, y))
        one_c = fraccalc.contour_fractional_apply(dm, idx12, y)
        worst_law = max(worst_law, float(np.linalg.norm(two_c - one_c) / np.linalg.norm(one_c)))
    out.add("composition law < 1e-8", worst_law < 1e-8, f"worst {worst_law:.2e}")


# ---------------------------------------------------------------------------
# criterion 4


@_case("sobolev.rates", "4")
def case_sobolev_rates(out, seed):
    a, b = 1.0, 0.5
    model = operators.DiagonalSymbolModel(a, b)
    beta_known = model.info.known_growth_pair[1]
    table = resolvent.probe_resolvent_norms(model, numcore.geometric_grid(1e-2, 1e3, 96))
    profile = resolvent.fit_growth_profile(table)
    out.add(
        f"resolvent exponent beta_hat = {beta_known} +/- {TOL_BETA}",
        abs(profile.beta_hat - beta_known) <= TOL_BETA,
        f"beta_hat={profile.beta_hat:.4f}, alpha_hat={profile.alpha_hat:.4f}, "
        f"M={profile.m_constant:.3g}",
        value=f"{profile.beta_hat:.6f}", predicted=f"{beta_known}", source="beta-hat",
    )

    t_grid = numcore.geometric_grid(10.0, 1e5, 48)
    taus = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0)
    measurements = dict(zip(taus, decaylab.measure_decay(model, [(0.0, tau) for tau in taus], t_grid,
                                                         with_growth=True)))
    mu_hat = measurements[0.0].growth_mu_hat
    for tau in (0.0, 1.0, 2.0):
        want = (1.0 - b + b * tau) / a - 1.0
        got = measurements[tau].rho_hat
        out.add(
            f"decay exponent at tau={tau:g} = {want:g} +/- {TOL_EXPONENT}",
            abs(got - want) <= TOL_EXPONENT,
            f"rho_hat={got:.4f}",
            t_or_xi=f"tau={tau:g}", value=f"{got:.6f}", fit_exponent=f"{-got:.6f}",
            predicted=f"{want:g}", source="decay-fit",
        )

    # every applicable prediction from the model's known growth pair (0, 3)
    # must PASS: the general, Hilbert-branch Fourier-type and growth-aware rates
    alpha_p, beta_p = model.info.known_growth_pair
    geometry = decaylab.GeometryDescriptor(fourier_type=2.0)
    n_checked = 0
    all_pass = True
    details = []
    for tau, meas in measurements.items():
        for pred in decaylab.predictions_for(geometry, alpha_p, beta_p, 0.0, tau, mu_hat):
            if not pred.applicable:
                continue
            rep = decaylab.check_consistency(meas, pred, TOL_EXPONENT)
            n_checked += 1
            all_pass &= rep.passed
            details.append(f"tau={tau:g}/{pred.source}:{'PASS' if rep.passed else 'FAIL'}")
            out.row(t_or_xi=f"tau={tau:g}", value=f"{meas.rho_hat:.6f}",
                    predicted="inf" if pred.rho == math.inf else f"{pred.rho:.6f}",
                    source=pred.source, verdict="PASS" if rep.passed else "FAIL")
    out.add(
        "all applicable Hilbert-branch predictions consistent",
        all_pass and n_checked > 0,
        f"{n_checked} predictions checked; " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# criterion 5


@_case("matrix.rates", "5")
def case_matrix_rates(out, seed):
    n = 3
    model = operators.OperatorMatrixModel(n)
    t_grid = numcore.geometric_grid(10.0, 1e4, 24)
    fits = dict(enumerate(decaylab.measure_decay(model, [(float(m), 0.0) for m in range(n)], t_grid)))
    for m, meas in fits.items():
        want = float(n - 1 - m)
        got = meas.fit.exponent
        out.add(
            f"||T(t) A^{m}|| exponent = {want:g} +/- {TOL_EXPONENT}",
            abs(got - want) <= TOL_EXPONENT,
            f"fitted {got:.4f}",
            t_or_xi=f"m={m}", value=f"{got:.6f}", predicted=f"{want:g}", source="matrix-decay-fit",
        )
    top = fits[n - 1]
    norms = top.norms
    bounded = abs(top.fit.exponent) <= TOL_EXPONENT and norms.min() > 0.1 * norms.max()
    out.add(
        "highest smoothing power is bounded-not-decaying",
        bounded and not top.super_polynomial,
        f"exponent {top.fit.exponent:.4f}, norm band {norms.max() / norms.min():.3f}",
    )
    # the tau-free analytic-regime rate applies (bounded generator)
    pred = decaylab.predict_rate_asymptotically_analytic(float(n), 3.0, zeta_negative_asserted=True)
    [meas] = decaylab.measure_decay(model, [(3.0, 0.0)], t_grid)
    rep = decaylab.check_consistency(meas, pred, TOL_EXPONENT)
    out.add(
        "tau-free rate at sigma=3 consistent",
        rep.passed,
        rep.detail,
        informative=True,
    )


# ---------------------------------------------------------------------------
# criterion 6


def _block_witness(model, n, tau):
    """The last-coordinate orbit witness of block n at time m(n)-1:
    ||T(t) x|| / ||(1+A)^tau x||, the quantity the optimality argument controls."""
    m = model.block_size(n)
    t = float(m - 1)
    num = float(np.linalg.norm(operators._exp_series_rows(np.array([t]), m, model.gamma)[0][0]))
    coeffs = operators._shifted_power_rows(
        np.array([1.0 + model.gamma - 1j * n]), float(tau), m
    )[0]
    den = float(np.linalg.norm(coeffs))  # action on the last basis vector
    return t, num / den


@_case("jordan.rates", "6")
def case_jordan_rates(out, seed):
    """Block-sum example: resolvent growth, ||T(t)|| growth and norm bands.

    The "factor-10 band" clause at the stated index (1-gamma)/log(1/delta)
    is implemented as stated and fails.  Block n of size m contributes
    about delta^(tau m) e^(-gamma t) t^m/m! to ||T(t)(1+A)^(-tau)||, largest
    at m* ~ t delta^tau, so the norm grows like exp(max(delta^tau - gamma,
    0) t): zero exactly at beta0 = log(1/gamma)/log(1/delta), and
    e^(-(1-gamma)) - gamma > 0 at the stated index, which is the
    first-order Taylor form of beta0 (log(1/gamma) ~ 1-gamma).  The stated
    index is critical only for the orbit witness at t = m(n)-1
    (``_block_witness``); the informative checks report both facts.
    """
    probe_model = operators.JordanSumModel(0.5, 0.5, 10**4)
    table = resolvent.probe_resolvent_norms(probe_model, numcore.geometric_grid(1e-2, 1e3, 96))
    profile = resolvent.fit_growth_profile(table)
    beta0 = probe_model.info.known_growth_pair[1]
    out.add(
        f"beta_hat = {beta0:g} +/- {TOL_BETA} (gamma=delta=0.5)",
        abs(profile.beta_hat - beta0) <= TOL_BETA,
        f"beta_hat={profile.beta_hat:.4f}",
        value=f"{profile.beta_hat:.6f}", predicted=f"{beta0:g}", source="beta-hat",
    )

    gamma, delta = 0.5, 0.9
    model = operators.JordanSumModel(gamma, delta, 10**4)
    m_top = model.groups[-1][0]
    t_lo, t_hi = 5.0, float(m_top - 1)
    ts = np.linspace(t_lo, t_hi, 28)
    growth_norms = model.semigroup_norm(ts)
    slope = numcore.fit_exp_rate(ts, growth_norms, window=(0, len(ts))).rate
    out.add(
        f"log-growth slope of ||T(t)|| = {1 - gamma:g} +/- {TOL_EXPONENT}",
        abs(slope - (1.0 - gamma)) <= TOL_EXPONENT,
        f"slope={slope:.4f} over t in [{t_lo:g}, {t_hi:g}]",
        value=f"{slope:.6f}", predicted=f"{1 - gamma:g}", source="growth-slope",
    )

    tau_taylor = (1.0 - gamma) / math.log(1.0 / delta)
    # the band and the growth-index norms sweep the same times, so one call takes both
    beta0_full = model.info.known_growth_pair[1]
    band_ts = np.linspace(t_lo, t_hi, 20)
    band_vals, b0_vals = model.fractional_norm(band_ts, 0.0, [tau_taylor, beta0_full])
    band = band_vals.max() / band_vals.min()
    out.add(
        f"factor-10 band at tau=(1-gamma)/log(1/delta)={tau_taylor:.4f}",
        band <= 10.0,
        f"band max/min = {band:.3g} over t in [{t_lo:g}, {t_hi:g}] "
        "(the stated index bounds the coordinate-orbit witness, not the "
        "operator norm; see the informative checks)",
        t_or_xi=f"tau={tau_taylor:.4f}", value=f"{band:.6g}", predicted="<=10", source="norm-band",
    )

    half_ts = np.linspace(t_lo, t_hi, 12)
    half_vals = model.fractional_norm(half_ts, 0.0, tau_taylor / 2.0)
    growth_factor = half_vals[-1] / half_vals[0]
    out.add(
        "growth >= 10x at half that index",
        growth_factor >= 10.0,
        f"grew by {growth_factor:.3g}",
        t_or_xi=f"tau={tau_taylor / 2:.4f}", value=f"{growth_factor:.6g}", predicted=">=10",
        source="norm-growth",
    )

    # informative: the operator norm stays in a band exactly at the
    # resolvent-growth index, and the block model's orbit witness is the
    # quantity controlled by the Taylor-approximate index
    b0_band = b0_vals.max() / b0_vals.min()
    out.add(
        f"norm band at the growth index tau=log(1/gamma)/log(1/delta)={beta0_full:.4f}",
        b0_band <= 10.0,
        f"band max/min = {b0_band:.3g}",
        informative=True,
    )
    ns = np.unique(np.geomspace(model.n_start + 1, model.n_max, 40).astype(int))
    wit = np.array([_block_witness(model, int(n), tau_taylor)[1] for n in ns])
    wit_half = np.array([_block_witness(model, int(n), tau_taylor / 2.0)[1] for n in ns])
    out.add(
        f"orbit witness bounded at tau={tau_taylor:.4f}",
        wit.max() / wit.min() <= 10.0,
        f"witness band {wit.max() / wit.min():.3g}",
        informative=True,
    )
    out.add(
        f"orbit witness grows >= 10x at tau={tau_taylor / 2:.4f}",
        wit_half[-1] / wit_half[0] >= 10.0,
        f"witness grew by {wit_half[-1] / wit_half[0]:.3g}",
        informative=True,
    )

    # soundness sweep entry for this model's stated pair (0, beta0_full):
    # the Hilbert guarantee at tau = beta0 is rho <= 0, and the measurement
    # at that index indeed does not decay slower than that
    fit_b0 = numcore.fit_power_law(band_ts, b0_vals, window=(0, len(band_ts)))
    meas_b0 = decaylab.DecayMeasurement(0.0, beta0_full, b0_vals, fit_b0, -fit_b0.exponent, False)
    pred_b0 = decaylab.predict_rate_fourier_type(
        0.0, beta0_full, 0.0, beta0_full, decaylab.GeometryDescriptor(hilbert=True)
    )
    rep = decaylab.check_consistency(meas_b0, pred_b0, TOL_EXPONENT)
    out.add(
        "soundness: Hilbert guarantee at the stated growth pair holds",
        rep.passed,
        rep.detail,
        informative=True,
    )


# ---------------------------------------------------------------------------
# criterion 7


@_case("laplace.identity", "7")
def case_laplace_identity(out, seed):
    rng = _rng(seed, 7)
    # decay margin 0.8: the t^n-weighted window tail at t = 50 must stay
    # below the relative target at the top of the compared frequency band
    model = _stable_dense(rng, 4, 0.8)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x /= np.linalg.norm(x)
    grid = multiplier.FourierGridSpec(100.0, 2**14)
    worst = 0.0
    for n, err in enumerate(multiplier.verify_laplace_identity(model, (0, 1, 2), x, grid)):
        worst = max(worst, err)
        out.row(t_or_xi=f"n={n}", value=f"{err:.3e}", source="laplace-identity",
                verdict="PASS" if err < 1e-3 else "FAIL")
    out.add("transform of t^n T(t)x matches resolvent powers < 1e-3", worst < 1e-3,
            f"worst rel err {worst:.2e}")

    ts = grid.times
    f = np.exp(-0.5 * ((ts - 5.0) / 3.0) ** 2)[:, None] * np.ones((1, 4))
    f = f * np.exp(0.25j * ts)[:, None]
    worst_conv = 0.0
    convs = multiplier.semigroup_convolution(model, (0, 1, 2), f, grid)
    resolvent = multiplier.resolvent_power_symbol(model, 1)
    chain = f  # (i xi + A)^{-k-1} f, one more resolvent multiplier per k
    for k in range(len(convs)):
        chain = multiplier.apply_multiplier(resolvent, chain, grid)
        via_mult = math.factorial(k) * chain
        # this k's convolution and multiple are released before the next application
        err = float(np.linalg.norm(convs.pop(0) - via_mult) / np.linalg.norm(via_mult))
        del via_mult
        worst_conv = max(worst_conv, err)
        out.row(t_or_xi=f"k={k}", value=f"{err:.3e}", source="convolution-identity",
                verdict="PASS" if err < 1e-3 else "FAIL")
    out.add("time convolution matches k! x multiplier < 1e-3", worst_conv < 1e-3,
            f"worst rel err {worst_conv:.2e}")

    try:
        multiplier.verify_laplace_identity(model, [0], x, multiplier.FourierGridSpec(5.0, 2**10))
        out.add("short window raises a window error", False, "no error raised")
    except WindowError as exc:
        out.add("short window raises a window error", True, str(exc)[:60])


# ---------------------------------------------------------------------------
# criterion 8


# the (p, q) pairs whose multiplier norms mult.norms and `semistab mult` bound
PQ_PAIRS = ((2.0, 2.0), (1.0, 2.0), (2.0, math.inf), (1.0, math.inf))


def pq_bounds(samples):
    """(p, q, lower, upper, ok) for each ``PQ_PAIRS`` entry: the
    witness-search lower bound and the Fourier-type upper bound of the
    sampled symbol's (L^p, L^q) multiplier norm, and whether the lower
    bound stays below the upper (to 1e-6).  One witness pass scores all
    pairs."""
    lowers = multiplier.estimate_pq_norm_lower(samples, PQ_PAIRS)
    bounds = []
    for (p, q), lower in zip(PQ_PAIRS, lowers):
        upper = multiplier.upper_bound_pq_norm_fourier_type(samples, p, q)
        bounds.append((p, q, lower, upper, lower <= upper + 1e-6))
    return bounds


def _mult_battery(rng):
    model = _stable_dense(rng, 4, 0.6)
    return [
        ("scalar-resolvent", multiplier.Symbol(lambda x: 1.0 / (1j * x + 1.0))),
        ("scalar-lorentz", multiplier.Symbol(lambda x: (1.0 + np.abs(x)) ** -2.0)),
        ("constant", multiplier.Symbol(lambda x: 0.7 * np.ones_like(np.asarray(x, dtype=complex)))),
        ("dense-resolvent", multiplier.resolvent_power_symbol(model, 1)),
    ]


@_case("mult.norms", "8")
def case_mult_norms(out, seed):
    rng = _rng(seed, 8)
    grid = multiplier.FourierGridSpec(200.0, 2**13)
    battery = [(name, sym.on(grid)) for name, sym in _mult_battery(rng)]
    bounds = [pq_bounds(samples) for _, samples in battery]
    worst_gap = 0.0
    for (name, samples), pq in zip(battery, bounds):
        lower = pq[PQ_PAIRS.index((2.0, 2.0))][2]
        exact = multiplier.exact_l2_norm(samples)
        gap = (exact - lower) / exact
        worst_gap = max(worst_gap, gap)
        ok = lower <= exact + 1e-6 and gap <= 0.05
        out.row(t_or_xi=name, value=f"{lower:.6f}", predicted=f"{exact:.6f}",
                source="plancherel", verdict="PASS" if ok else "FAIL")
    out.add("(2,2) witness search within 5% of the symbol sup", worst_gap <= 0.05,
            f"worst gap {100 * worst_gap:.2f}%")

    violations = []
    for (name, _), pq in zip(battery, bounds):
        for p, q, lower, upper, ok in pq:
            out.row(t_or_xi=f"{name};p={p:g};q={q:g}", value=f"{lower:.6f}",
                    predicted=f"{upper:.6f}", source="pq-bounds", verdict="PASS" if ok else "FAIL")
            if not ok:
                violations.append(f"{name} (p={p:g}, q={q:g})")
    out.add("every lower bound <= its transform-bound upper", not violations,
            "; ".join(violations) if violations else "no violations")

    # closed-form check of the (1, oo) bound for the Lorentzian symbol:
    # (1/2 pi) * integral of (1+|x|)^-2 = 1/pi
    lor = battery[1][1]
    bound = multiplier.upper_bound_pq_norm_fourier_type(lor, 1.0, math.inf)
    want = 1.0 / math.pi
    out.add("(1,oo) bound of the Lorentzian equals 1/pi", abs(bound - want) / want < 0.02,
            f"bound {bound:.6f} vs {want:.6f}")


# ---------------------------------------------------------------------------
# criterion 9


@_case("predict.algebra", "9")
def case_predict_algebra(out, seed):
    rng = _rng(seed, 9)
    n_tuples = 10**4
    alpha, beta, sigma, tau = rng.uniform(0.0, (3.0, 3.0, 5.0, 6.0), size=(n_tuples, 4)).T
    # alpha and beta are each 0 with probability 1/2
    alpha, beta = np.where(rng.integers(0, 2, size=(2, n_tuples)), (alpha, beta), 0.0)
    # rho is -oo exactly where a condition fails (a rate is > -1), so equal
    # rhos are equal predictions
    general = decaylab.GENERAL_RULE.rates(alpha, beta, sigma, tau)[0]
    p1 = decaylab.fourier_type_rule(decaylab.GeometryDescriptor(fourier_type=1.0))
    mismatches = np.count_nonzero(general != p1.rates(alpha, beta, sigma, tau)[0])
    out.add(f"fourier-type at p=1 equals the general rate on {n_tuples} tuples",
            mismatches == 0, f"{mismatches} mismatches")

    lows, highs = (0.0, 0.0, 0.0, 0.0, 0.01), (3.0, 3.0, 5.0, 6.0, 1.0)
    alpha, beta, sigma, tau, d = rng.uniform(lows, highs, size=(2000, 5)).T
    bad_mono = 0
    for rule in (
        decaylab.GENERAL_RULE,
        decaylab.fourier_type_rule(decaylab.GeometryDescriptor(fourier_type=1.5)),
        decaylab.fourier_type_rule(decaylab.GeometryDescriptor(hilbert=True)),
    ):
        base = rule.rates(alpha, beta, sigma, tau)[0]
        bad_mono += np.count_nonzero(rule.rates(alpha, beta, sigma + d, tau)[0] < base)
        bad_mono += np.count_nonzero(rule.rates(alpha, beta, sigma, tau + d)[0] < base)
        bad_mono += np.count_nonzero(rule.rates(alpha + d, beta, sigma, tau)[0] > base)
        bad_mono += np.count_nonzero(rule.rates(alpha, beta + d, sigma, tau)[0] > base)
    out.add("rates monotone in all four indices (random sweep)", bad_mono == 0,
            f"{bad_mono} violations")

    model = operators.DiagonalSymbolModel(1.0, 0.5)
    t_grid = numcore.geometric_grid(10.0, 1e5, 40)
    m1, m3, m2 = decaylab.measure_decay(model, [(0.0, 1.0), (0.0, 3.0), (0.0, 2.0)], t_grid)
    _, tau_mid, rho_mid = decaylab.interpolate_rates(
        (0.0, 3.0, m3.rho_hat), (0.0, 1.0, m1.rho_hat), 0.5
    )
    out.add(
        "interpolated midpoint rate matches the measured one within 0.05",
        abs(tau_mid - 2.0) < 1e-12 and abs(rho_mid - m2.rho_hat) <= TOL_EXPONENT,
        f"interpolated {rho_mid:.4f} vs measured {m2.rho_hat:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 10


@_case("spectral.shadow", "10")
def case_spectral_shadow(out, seed):
    rng = _rng(seed, 10)
    worst = -math.inf
    bad = []
    for trial in range(20):
        dim = int(rng.integers(2, 51))
        model = _stable_dense(rng, dim, 0.3)
        s = model.spectral_abscissa_neg()  # s_beta = s(-A) exactly in finite dimension
        ts = np.linspace(20.0, 500.0, 40)
        for beta in (0.0, 1.0):
            norms = model.fractional_norm(ts, 0.0, beta + 1.0)
            rate = numcore.fit_exp_rate(ts, norms, window=(0, len(ts))).rate
            excess = rate - s
            worst = max(worst, excess)
            if excess > TOL_EXPONENT:
                bad.append((trial, dim, beta, excess))
    out.add(
        "decay abscissa of smoothed orbits <= s_beta(-A) + 0.05 (20 models)",
        not bad,
        f"worst excess {worst:.4f}; violations: {bad or 'none'}",
    )

    # informative: the bisection estimator reproduces the block-sum model's
    # closed-form tempered abscissas delta^beta - gamma
    jm = operators.JordanSumModel(0.5, 0.5, 10**4)
    bounds = resolvent.spectral_bounds(
        jm,
        numcore.geometric_grid(1.0, 12.0, 10),
        np.linspace(0.05, 1.2, 8),
        betas=(1.0, 2.0),
        xi_grid=np.geomspace(1.0, 5e3, 112),
    )
    want1 = jm.delta - jm.gamma
    want2 = jm.delta**2 - jm.gamma
    ok = abs(bounds.s_beta[1.0] - want1) <= 0.05 and abs(bounds.s_beta[2.0] - want2) <= 0.05
    out.add(
        "bisected tempered abscissas match the closed forms (beta in {1,2})",
        ok,
        f"s_1 {bounds.s_beta[1.0]:.3f} vs {want1}, s_2 {bounds.s_beta[2.0]:.3f} vs {want2}, "
        f"omega0_hat {bounds.omega0_hat:.3f} vs {1.0 - jm.gamma}",
        informative=True,
    )


# ---------------------------------------------------------------------------

ALL_CASES = [
    (case.name, case)
    for case in (
        case_appendix_exp_sum, case_appendix_contour_identity, case_frac_oracle,
        case_sobolev_rates, case_matrix_rates, case_jordan_rates, case_laplace_identity,
        case_mult_norms, case_predict_algebra, case_spectral_shadow,
    )
]


def matching_cases(only=None):
    """The ``ALL_CASES`` entries whose names start with ``only`` (all if not given)."""
    return [(name, case) for name, case in ALL_CASES if not only or name.startswith(only)]
