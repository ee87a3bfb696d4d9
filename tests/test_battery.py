"""The battery's contract with its callers outside the package: the case
list, the case call, and the one CSV row a check may carry."""

import inspect

import numpy as np
import pytest

from semistab import battery, cli

# the order of verify-examples' printout and of verify.csv
CASE_NAMES = [
    "appendix.exp-sum",
    "appendix.contour-identity",
    "frac.oracle",
    "sobolev.rates",
    "matrix.rates",
    "jordan.rates",
    "laplace.identity",
    "mult.norms",
    "predict.algebra",
    "spectral.shadow",
]


def test_all_cases_lists_name_case_pairs_in_order():
    assert isinstance(battery.ALL_CASES, list)
    assert [name for name, _ in battery.ALL_CASES] == CASE_NAMES
    for name, case in battery.ALL_CASES:
        params = inspect.signature(case).parameters
        assert list(params) == ["seed"] and params["seed"].default == 0, name


def test_case_call_takes_a_positional_seed_and_times_its_body():
    res = dict(battery.ALL_CASES)["appendix.exp-sum"](0)
    assert isinstance(res, battery.CaseResult)
    assert (res.name, res.criterion) == ("appendix.exp-sum", "1")
    assert res.duration > 0
    assert [r["case"] for r in res.rows] == ["appendix.exp-sum"] * 5


def test_cases_keep_their_docstrings():
    assert "factor-10 band" in battery.case_jordan_rates.__doc__


def test_a_check_carries_at_most_one_row_with_its_verdict():
    res = battery.CaseResult("x", "0")
    res.add("plain", True, "no row")
    assert res.rows == []
    res.add("failing", False, "one row", value=1.5, source="s")
    res.add("passing", True, "one row", t_or_xi="t")
    assert [c.passed for c in res.checks] == [True, False, True]
    assert [r["verdict"] for r in res.rows] == ["FAIL", "PASS"]
    assert res.rows[0] == {**dict.fromkeys(cli.CSV_HEADER, ""), "case": "x", "value": "1.5",
                           "source": "s", "verdict": "FAIL"}
    assert list(res.rows[1]) == cli.CSV_HEADER


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_predict_algebra_draws_the_tuples_of_choice(seed):
    # predict.algebra's zero-or-uniform draws read the stream as
    # rng.choice([0.0, u]) does, and its monotonicity sweep's one block of
    # uniforms as 2000 rounds of five scalar draws
    rng = battery._rng(seed, 9)
    want = []
    for _ in range(10**4):
        alpha = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
        beta = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
        want.append((alpha, beta, float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 6.0))))
    sweep = [[rng.uniform(lo, hi) for lo, hi in ((0, 3), (0, 3), (0, 5), (0, 6), (0.01, 1))]
             for _ in range(2000)]
    got_rng = battery._rng(seed, 9)
    assert np.array_equal(battery._algebra_tuples(got_rng, 10**4), np.array(want).T)
    lows, highs = (0.0, 0.0, 0.0, 0.0, 0.01), (3.0, 3.0, 5.0, 6.0, 1.0)
    assert np.array_equal(got_rng.uniform(lows, highs, size=(2000, 5)), sweep)
    assert got_rng.integers(0, 2**32) == rng.integers(0, 2**32)
