"""Rate calculators, measurements, and consistency checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semistab import decaylab, numcore, operators
from semistab.errors import DomainError

INF = math.inf


def test_general_rate_examples():
    p = decaylab.predict_rate_general(0.0, 1.0, 0.0, 3.0)
    assert p.applicable and p.rho == pytest.approx(1.0) and p.strict
    p = decaylab.predict_rate_general(0.0, 0.0, 1.0, 2.0)
    assert p.applicable and p.rho == INF
    p = decaylab.predict_rate_general(1.0, 0.0, 2.0, 1.5)
    assert p.applicable and p.rho == pytest.approx(2.0)
    p = decaylab.predict_rate_general(2.0, 1.0, 0.5, 3.0)
    assert not p.applicable and p.rho is None  # sigma <= alpha - 1


def test_hilbert_branch():
    geo = decaylab.GeometryDescriptor(hilbert=True)
    p = decaylab.predict_rate_fourier_type(0.0, 2.0, 0.0, 4.0, geo)
    assert p.applicable and p.rho == pytest.approx(1.0)
    assert not p.strict  # beta branch attained
    p0 = decaylab.predict_rate_fourier_type(0.0, 2.0, 0.0, 2.0, geo)
    assert p0.applicable and p0.rho == pytest.approx(0.0)
    below = decaylab.predict_rate_fourier_type(0.0, 2.0, 0.0, 1.5, geo)
    assert not below.applicable


def test_fourier_type_p1_equals_general():
    geo = decaylab.GeometryDescriptor(fourier_type=1.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        args = (
            float(rng.choice([0.0, rng.uniform(0, 3)])),
            float(rng.choice([0.0, rng.uniform(0, 3)])),
            float(rng.uniform(0, 5)),
            float(rng.uniform(0, 6)),
        )
        a = decaylab.predict_rate_general(*args)
        b = decaylab.predict_rate_fourier_type(*args, geo)
        assert a.applicable == b.applicable
        assert a.rho == b.rho


def test_type_cotype_branches():
    hil = decaylab.predict_rate_type_cotype(
        0.0, 2.0, 0.0, 4.0, decaylab.GeometryDescriptor(type_p=2.0, cotype_q=2.0,
                                                        r_resolvent_growth_asserted=True)
    )
    assert hil.applicable and hil.rho == pytest.approx(1.0)
    assert hil.source == "type-cotype-hilbert"

    missing = decaylab.predict_rate_type_cotype(
        0.0, 2.0, 0.0, 4.0, decaylab.GeometryDescriptor(type_p=2.0, cotype_q=4.0)
    )
    assert not missing.applicable
    assert any("asserted" in c.name and not c.passed for c in missing.conditions)

    # L^u-style space, u = 4: type/cotype index 1/r = 1/2 - 1/4, strictly
    # smaller than the Fourier-type index 2/min(u,u') - 1 = 1/2
    geo = decaylab.GeometryDescriptor(type_p=2.0, cotype_q=4.0, r_resolvent_growth_asserted=True)
    tc = decaylab.predict_rate_type_cotype(0.0, 1.0, 0.0, 3.0, geo)
    assert tc.r_index == pytest.approx(0.25)
    ft = decaylab.predict_rate_fourier_type(
        0.0, 1.0, 0.0, 3.0, decaylab.GeometryDescriptor(fourier_type=4.0 / 3.0)
    )
    assert ft.r_index == pytest.approx(0.5)
    assert tc.rho > ft.rho

    lat = decaylab.predict_rate_type_cotype(
        0.0, 2.0, 0.0, 2.25,
        decaylab.GeometryDescriptor(type_p=2.0, cotype_q=4.0, lattice=(2.0, 4.0),
                                    r_resolvent_growth_asserted=True),
    )
    # lattice branch permits tau = beta + 1/r exactly
    assert lat.source == "type-cotype-lattice"
    assert lat.applicable and lat.rho == pytest.approx(0.0)


def test_asymptotically_analytic():
    p = decaylab.predict_rate_asymptotically_analytic(1.0, 2.0, zeta_negative_asserted=True)
    assert p.applicable and p.rho == pytest.approx(2.0)
    p = decaylab.predict_rate_asymptotically_analytic(0.0, 2.0, zeta_negative_asserted=True)
    assert p.rho == INF
    p = decaylab.predict_rate_asymptotically_analytic(2.0, 1.0, zeta_negative_asserted=True)
    assert not p.applicable  # boundary sigma = alpha - 1 excluded
    p = decaylab.predict_rate_asymptotically_analytic(1.0, 2.0, zeta_negative_asserted=False)
    assert not p.applicable


def test_growth_aware():
    plain, scaling = decaylab.predict_rate_growth_aware(0.0, 1.0, 0.0, 3.0, 1.0)
    assert scaling.log_factor
    assert scaling.rho == pytest.approx(2.0)
    (flat,) = decaylab.predict_rate_growth_aware(1.0, 2.0, 2.0, 3.0, 0.0)
    assert flat.rho == pytest.approx(min(2.0 / 1.0, 3.0 / 2.0))
    neg = decaylab.predict_rate_growth_aware(0.0, 1.0, 0.0, 0.5, 2.0)
    assert not neg[0].applicable
    with pytest.raises(DomainError):
        decaylab.predict_rate_growth_aware(0.0, 1.0, 0.0, 1.0, -0.5)


def test_interpolation():
    assert decaylab.interpolate_rates((2.0, 3.0, 2.0), (1.0, 1.0, 0.0), 0.0) == (1.0, 1.0, 0.0)
    sig, tau, rho = decaylab.interpolate_rates((2.0, 3.0, 2.0), (1.0, 1.0, 0.0), 0.5)
    assert (sig, tau, rho) == (1.5, 2.0, 1.0)
    sig, tau, rho = decaylab.interpolate_rates((1.0, 2.0, 1.0), (0.0, 0.0, 0.0), 2.0)
    assert (sig, tau, rho) == (2.0, 4.0, 2.0)
    with pytest.raises(DomainError):
        decaylab.interpolate_rates((1.0, 1.0, 1.0), (2.0, 2.0, 0.0), 0.5)
    with pytest.raises(DomainError):
        decaylab.interpolate_rates((2.0, 3.0, 2.0), (1.0, 1.0, 0.0), -0.5)


def test_measure_decay_exponential_flagged_super_polynomial():
    model = operators.DenseMatrixModel([[1.0]])
    [meas] = decaylab.measure_decay(model, [(0.0, 1.0)], numcore.geometric_grid(1.0, 40.0, 24))
    assert meas.super_polynomial
    pred = decaylab.predict_rate_general(0.0, 0.0, 0.0, 2.0)
    assert pred.rho == INF
    rep = decaylab.check_consistency(meas, pred, 0.05)
    assert rep.passed


def test_measure_decay_power_law_not_flagged():
    model = operators.OperatorMatrixModel(2)
    [meas] = decaylab.measure_decay(model, [(0.0, 0.0)], numcore.geometric_grid(10.0, 1e3, 20))
    assert not meas.super_polynomial
    assert meas.rho_hat == pytest.approx(-1.0, abs=0.05)  # ||T(t)|| ~ t


def test_check_consistency_orderings():
    model = operators.OperatorMatrixModel(2)
    [meas] = decaylab.measure_decay(model, [(1.0, 0.0)], numcore.geometric_grid(10.0, 1e3, 20))
    good = decaylab.RatePrediction(0.0, True, 1.0, "stub", ())
    assert decaylab.check_consistency(meas, good, 0.05).passed
    strong = decaylab.RatePrediction(2.0, True, 1.0, "stub", ())
    rep = decaylab.check_consistency(meas, strong, 0.05)
    assert not rep.passed and rep.margin == pytest.approx(meas.rho_hat - 2.0)
    gated = decaylab.predict_rate_general(2.0, 1.0, 0.5, 3.0)
    with pytest.raises(DomainError):
        decaylab.check_consistency(meas, gated, 0.05)
    # rho = oo asks for super-polynomial decay, which t^-rho_hat is not
    assert not meas.super_polynomial
    rep = decaylab.check_consistency(meas, decaylab.RatePrediction(INF, True, 1.0, "stub", ()), 0.05)
    assert not rep.passed and rep.margin is None


def test_geometry_rates_need_their_geometry_data():
    bare = decaylab.GeometryDescriptor()
    with pytest.raises(DomainError):
        decaylab.predict_rate_fourier_type(0.0, 1.0, 0.0, 3.0, bare)
    for geo in (bare, decaylab.GeometryDescriptor(type_p=1.5), decaylab.GeometryDescriptor(cotype_q=4.0)):
        with pytest.raises(DomainError):
            decaylab.predict_rate_type_cotype(0.0, 1.0, 0.0, 3.0, geo)


def test_geometry_validation():
    geo = decaylab.GeometryDescriptor(hilbert=True)
    assert geo.fourier_type == 2.0 and geo.type_p == 2.0 and geo.cotype_q == 2.0
    with pytest.raises(DomainError):
        decaylab.GeometryDescriptor(fourier_type=3.0)
    with pytest.raises(DomainError):
        decaylab.GeometryDescriptor(cotype_q=1.5)
    with pytest.raises(DomainError):
        decaylab.GeometryDescriptor(lattice=(0.5, 3.0))


def test_prediction_monotone_small_sweep():
    geo = decaylab.GeometryDescriptor(fourier_type=1.5)
    rng = np.random.default_rng(2)

    def key(p):
        return -INF if not p.applicable else p.rho

    for _ in range(300):
        a, b = rng.uniform(0, 3, 2)
        s, t = rng.uniform(0, 6, 2)
        d = rng.uniform(0.01, 1.0)
        base = key(decaylab.predict_rate_fourier_type(a, b, s, t, geo))
        assert key(decaylab.predict_rate_fourier_type(a, b, s + d, t, geo)) >= base
        assert key(decaylab.predict_rate_fourier_type(a, b, s, t + d, geo)) >= base
        assert key(decaylab.predict_rate_fourier_type(a + d, b, s, t, geo)) <= base
        assert key(decaylab.predict_rate_fourier_type(a, b + d, s, t, geo)) <= base


def _rate_key(pred):
    return pred.rho if pred.applicable else -INF


def _fourier(p):
    geo = decaylab.GeometryDescriptor(fourier_type=p)
    return lambda a, b, s, t: decaylab.predict_rate_fourier_type(a, b, s, t, geo)


def _type_cotype(p, q, lattice, asserted):
    geo = decaylab.GeometryDescriptor(type_p=p, cotype_q=q, lattice=lattice,
                                      r_resolvent_growth_asserted=asserted)
    return lambda a, b, s, t: decaylab.predict_rate_type_cotype(a, b, s, t, geo)


# the general, Fourier-type and type/cotype calculators as functions of
# (alpha, beta, sigma, tau), the Hilbert branches (p = q = 2) included
_P = st.one_of(st.just(1.0), st.just(2.0), st.floats(1.0, 2.0))
_Q = st.one_of(st.just(2.0), st.just(INF), st.floats(2.0, 50.0))
_RATES = st.one_of(
    st.just(decaylab.predict_rate_general),
    st.builds(_fourier, _P),
    st.builds(_type_cotype, _P, _Q, st.none() | st.tuples(_P, st.floats(2.0, 50.0)), st.booleans()),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    rate=_RATES,
    alpha=st.floats(0.0, 3.0),
    beta=st.floats(0.0, 3.0),
    sigma=st.floats(0.0, 5.0),
    tau=st.floats(0.0, 6.0),
    d=st.floats(0.01, 1.0),
)
def test_rates_monotone_in_all_four_indices(rate, alpha, beta, sigma, tau, d):
    # more smoothing never lowers a guaranteed rate, more resolvent growth
    # never raises it; a failed hypothesis counts as the lowest rate
    base = _rate_key(rate(alpha, beta, sigma, tau))
    assert _rate_key(rate(alpha, beta, sigma + d, tau)) >= base
    assert _rate_key(rate(alpha, beta, sigma, tau + d)) >= base
    assert _rate_key(rate(alpha + d, beta, sigma, tau)) <= base
    assert _rate_key(rate(alpha, beta + d, sigma, tau)) <= base


# (rule, its scalar calculator): general, Fourier type 1.5 and the Hilbert branch
_RULE_PAIRS = [
    (decaylab.GENERAL_RULE, decaylab.predict_rate_general),
    (decaylab.fourier_type_rule(decaylab.GeometryDescriptor(fourier_type=1.5)), _fourier(1.5)),
    (decaylab.fourier_type_rule(decaylab.GeometryDescriptor(hilbert=True)), _fourier(2.0)),
]
_INDEX = st.floats(0.0, 6.0)


@pytest.mark.parametrize("rule, scalar", _RULE_PAIRS, ids=["general", "fourier-1.5", "hilbert"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tuples=st.lists(st.tuples(st.just(0.0) | _INDEX, st.just(0.0) | _INDEX, _INDEX, _INDEX),
                       min_size=1, max_size=30))
@example(tuples=[
    (0.0, 1.0, 2.0, 4.0),  # alpha = 0: the alpha branch is oo
    (1.0, 0.0, 2.0, 4.0),  # beta = 0: the beta branch is oo
    (0.0, 0.0, 1.0, 2.0),  # an oo rate
    (0.5, 0.5, 1.0, 1.5),  # tau = beta + 1 of the general rule
    (0.5, 0.5, 1.0, 0.5),  # tau = beta of the Hilbert branch
    (0.5, 0.5, 1.0, 0.5 + decaylab._fourier_index(1.5)),  # tau = beta + 1/r at Fourier type 1.5
    (2.0, 0.5, 1.0, 3.0),  # sigma = alpha - 1
    (1.0, 1.0, 1.0, 2.0),  # equal branches: an attained rule is not strict
])
def test_rate_rule_arrays_equal_the_calculators(rule, scalar, tuples):
    # one call on the arrays answers each tuple as the scalar calculator does,
    # and as the rule written out for one tuple; rho is -oo where there is no rate
    alpha, beta, sigma, tau = np.array(tuples).T
    rho, sigma_ok, tau_ok, strict = rule.rates(alpha, beta, sigma, tau)
    r = rule.r_index
    for i, (a, b, s, t) in enumerate(tuples):
        pred = scalar(a, b, s, t)
        applicable = s > a - 1.0 and (t >= b + r if rule.attained else t > b + r)
        branch_a = (INF if a == 0.0 else (s + 1.0) / a) - 1.0
        branch_b = (INF if b == 0.0 else (t - r) / b) - 1.0
        assert pred.applicable == (sigma_ok[i] and tau_ok[i]) == applicable
        assert rho[i] == (pred.rho if pred.applicable else -INF)
        assert rho[i] == (min(branch_a, branch_b) if applicable else -INF)
        assert strict[i] == pred.strict == (branch_a < branch_b if rule.attained else True)
        assert [c.passed for c in pred.conditions] == [sigma_ok[i], tau_ok[i]]


@pytest.mark.parametrize(
    "geometry, sources",
    [
        (decaylab.GeometryDescriptor(fourier_type=2.0),
         ["general-banach", "fourier-type-hilbert", "growth-aware", "growth-aware-scaling"]),
        (decaylab.GeometryDescriptor(hilbert=True, zeta_negative_asserted=True),
         ["general-banach", "fourier-type-hilbert", "type-cotype-hilbert", "asymptotically-analytic",
          "growth-aware", "growth-aware-scaling"]),
        (decaylab.GeometryDescriptor(), ["general-banach", "growth-aware", "growth-aware-scaling"]),
    ],
    ids=["fourier-2", "hilbert-zeta", "banach"],
)
def test_predictions_for_geometry(geometry, sources):
    preds = decaylab.predictions_for(geometry, 0.0, 3.0, 0.0, 4.0, -0.2)
    assert [p.source for p in preds] == sources
    assert preds[0] == decaylab.predict_rate_general(0.0, 3.0, 0.0, 4.0)
    # a negative growth exponent counts as zero
    assert preds[-2:] == decaylab.predict_rate_growth_aware(0.0, 3.0, 0.0, 4.0, 0.0)
    assert [p.source for p in decaylab.predictions_for(geometry, 0.0, 3.0, 0.0, 4.0, None)] == [
        s for s in sources if not s.startswith("growth-aware")
    ]


_SIGMA = "sigma > alpha - 1"
_ASSERTED = "R-resolvent growth asserted"


def _type_cotype_at(p, q, lattice=None):
    geo = decaylab.GeometryDescriptor(type_p=p, cotype_q=q, lattice=lattice,
                                      r_resolvent_growth_asserted=True)
    return lambda t: decaylab.predict_rate_type_cotype(1.0, 1.0, 2.0, t, geo)


# every source at alpha = beta = 1 and sigma = 2 as a function of tau, the
# boundary tau = beta + 1/r of its rule, and the ledger (source, rho,
# strict, applicable, condition names) at the boundary and one ulp below
# it; the growth-aware rules discount mu = 2, so their net exponent
# vanishes at tau = 2, and the asymptotically analytic rule reads no tau
_LEDGER = {
    "general-banach": (
        lambda t: decaylab.predict_rate_general(1.0, 1.0, 2.0, t), 2.0,
        ("general-banach", None, True, False, [_SIGMA, "tau > beta + 1"]),
        ("general-banach", None, True, False, [_SIGMA, "tau > beta + 1"]),
    ),
    "fourier-type-hilbert": (
        lambda t: decaylab.predict_rate_fourier_type(
            1.0, 1.0, 2.0, t, decaylab.GeometryDescriptor(fourier_type=2.0)), 1.0,
        ("fourier-type-hilbert", 0.0, False, True, [_SIGMA, "tau >= beta"]),
        ("fourier-type-hilbert", None, False, False, [_SIGMA, "tau >= beta"]),
    ),
    "fourier-type": (
        lambda t: decaylab.predict_rate_fourier_type(
            1.0, 1.0, 2.0, t, decaylab.GeometryDescriptor(fourier_type=4.0 / 3.0)), 1.5,
        ("fourier-type", None, True, False, [_SIGMA, "tau > beta + 1/r"]),
        ("fourier-type", None, True, False, [_SIGMA, "tau > beta + 1/r"]),
    ),
    "type-cotype-hilbert": (
        _type_cotype_at(2.0, 2.0), 1.0,
        ("type-cotype-hilbert", 0.0, False, True, [_ASSERTED, _SIGMA, "tau >= beta"]),
        ("type-cotype-hilbert", None, False, False, [_ASSERTED, _SIGMA, "tau >= beta"]),
    ),
    "type-cotype": (
        _type_cotype_at(2.0, 4.0), 1.25,
        ("type-cotype", None, True, False, [_ASSERTED, _SIGMA, "tau > beta + 1/r"]),
        ("type-cotype", None, True, False, [_ASSERTED, _SIGMA, "tau > beta + 1/r"]),
    ),
    # below its boundary the lattice rule fails too, and the type/cotype
    # rule (1/r = 5/12) is reported
    "type-cotype-lattice": (
        _type_cotype_at(1.5, 4.0, lattice=(2.0, 4.0)), 1.25,
        ("type-cotype-lattice", 0.0, False, True, [_ASSERTED, _SIGMA, "tau >= beta + 1/r"]),
        ("type-cotype", None, True, False, [_ASSERTED, _SIGMA, "tau > beta + 1/r"]),
    ),
    "asymptotically-analytic": (
        lambda t: decaylab.predict_rate_asymptotically_analytic(1.0, 2.0, True), 2.0,
        ("asymptotically-analytic", 2.0, True, True,
         ["non-analytic growth bound < 0 asserted", _SIGMA]),
        ("asymptotically-analytic", 2.0, True, True,
         ["non-analytic growth bound < 0 asserted", _SIGMA]),
    ),
    "growth-aware": (
        lambda t: decaylab.predict_rate_growth_aware(1.0, 1.0, 2.0, t, 2.0)[0], 2.0,
        ("growth-aware", 0.0, True, True, ["net exponent >= 0"]),
        ("growth-aware", None, True, False, ["net exponent >= 0"]),
    ),
    "growth-aware-scaling": (
        lambda t: decaylab.predict_rate_growth_aware(0.0, 1.0, 2.0, t, 2.0)[1], 2.0,
        ("growth-aware-scaling", 0.0, False, True, ["net exponent >= 0"]),
        ("growth-aware-scaling", None, False, False, ["net exponent >= 0"]),
    ),
}


@pytest.mark.parametrize("source", list(_LEDGER))
def test_rate_ledger_at_tau_boundary(source):
    rate, boundary, at, below = _LEDGER[source]

    def ledger(pred):
        names = [c.name for c in pred.conditions]
        return pred.source, pred.rho, pred.strict, pred.applicable, names

    assert ledger(rate(boundary)) == at
    assert ledger(rate(math.nextafter(boundary, -INF))) == below
