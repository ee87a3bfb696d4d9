"""Acceptance gate: one test per criterion of the verification battery.

Each test runs the corresponding bundled battery case at its pinned
tolerances, prints one PASS/FAIL line per criterion, and enforces the
stated runtime budget.  These are exactly the cases behind the CLI's
verify-examples subcommand.

Criterion 6 (block-sum example ``jordan.rates``) has its own assertions.
Its stated clause "factor-10 band at tau=(1-gamma)/log(1/delta)" is
false for the operator norm, and the battery reports it red by design.
Block n of size m contributes about delta^(tau m) e^(-gamma t) t^m/m! to
||T(t)(1+A)^(-tau)||, which is largest at m* ~ t delta^tau, so the norm
grows like exp(max(delta^tau - gamma, 0) t).  The rate is zero exactly
at the resolvent-growth index beta0 = log(1/gamma)/log(1/delta).  The
stated index comes from the first-order Taylor step log(1/gamma) ~
1-gamma; it is the critical index only of the coordinate-orbit witness
at t = m(n)-1.  At gamma=0.5, delta=0.9 the stated index is 4.7456 and
the norm grows at delta^tau - gamma = 0.1065 over the battery window, a
band of ~3e3.  The test therefore asserts that the stated clause reports
its own threshold honestly and that its band grows at that derived rate,
while every other check of the case passes.
"""

import math
import re
import warnings

from semistab import battery

SEED = 0
BUDGETS = {
    "1": 1.0,
    "2": 5.0,
    "3": 10.0,
    "4": 30.0,
    "5": 30.0,
    "6": 60.0,
    "7": 20.0,
    "8": 30.0,
    "9": 10.0,
    "10": 60.0,
}


def _report(res):
    status = "PASS" if res.passed else "FAIL"
    print(f"\ncriterion {res.criterion} [{status}] {res.name} ({res.duration:.1f}s)")
    for c in res.checks:
        tag = "info" if c.informative else ("pass" if c.passed else "FAIL")
        print(f"  [{tag}] {c.label}: {c.detail}")
    assert res.duration < BUDGETS[res.criterion], (
        f"runtime budget exceeded: {res.duration:.1f}s"
    )


def _run(case_fn):
    res = case_fn(seed=SEED)
    _report(res)
    failed = [c for c in res.checks if not c.passed and not c.informative]
    assert not failed, "; ".join(f"{c.label} ({c.detail})" for c in failed)
    return res


def test_criterion_01_exponential_sum_bounds():
    _run(battery.case_appendix_exp_sum)


def test_criterion_02_contour_identity_battery():
    _run(battery.case_appendix_contour_identity)


def test_criterion_03_fractional_power_oracle():
    _run(battery.case_frac_oracle)


def test_criterion_04_sobolev_multiplication_rates():
    _run(battery.case_sobolev_rates)


def test_criterion_05_operator_matrix_rates():
    _run(battery.case_matrix_rates)


def test_criterion_06_jordan_sum_rates():
    # every check but the stated band clause passes; that clause reports
    # its own threshold, and its band grows at the derived rate
    # delta^tau - gamma rather than staying within a factor 10
    # the case's sweeps raise no warning of any category, so none is hidden
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = battery.case_jordan_rates(seed=SEED)
    assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]
    _report(res)
    gamma, delta = 0.5, 0.9
    tau_stated = (1.0 - gamma) / math.log(1.0 / delta)

    def check(prefix):
        found = [c for c in res.checks if c.label.startswith(prefix)]
        assert len(found) == 1, f"expected one check labelled {prefix!r}, got {found}"
        return found[0]

    band_check = check(f"factor-10 band at tau=(1-gamma)/log(1/delta)={tau_stated:.4f}")
    stated = [check(p) for p in ("beta_hat = ", "log-growth slope of ||T(t)||",
                                 "growth >= 10x at half that index")]
    others = [c for c in res.checks if c is not band_check]
    assert not any(c.informative for c in [band_check, *stated])
    assert sum(c.informative for c in others) == 4
    failed = [c for c in others if not c.passed]
    assert not failed, "; ".join(f"{c.label} ({c.detail})" for c in failed)

    (row,) = [r for r in res.rows if r["source"] == "norm-band"]
    assert row["t_or_xi"] == f"tau={tau_stated:.4f}"
    band = float(row["value"])
    assert band_check.passed == (band <= 10.0)
    assert row["verdict"] == ("PASS" if band <= 10.0 else "FAIL")
    t_lo, t_hi = map(float, re.search(r"over t in \[(\S+), (\S+)\]", band_check.detail).groups())
    rate = math.log(band) / (t_hi - t_lo)
    want = max(delta**tau_stated - gamma, 0.0)
    assert abs(rate - want) <= battery.TOL_EXPONENT, (
        f"band {band:.3g} over t in [{t_lo:g}, {t_hi:g}] gives rate {rate:.4f}, "
        f"analysis gives {want:.4f}"
    )


def test_criterion_07_laplace_identity():
    _run(battery.case_laplace_identity)


def test_criterion_08_multiplier_norms():
    _run(battery.case_mult_norms)


def test_criterion_09_predictor_algebra():
    _run(battery.case_predict_algebra)


def test_criterion_10_spectral_shadow():
    _run(battery.case_spectral_shadow)
