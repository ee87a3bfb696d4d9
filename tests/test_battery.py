"""The battery's contract with its callers outside the package: the case
list, the case call, and the one CSV row a check may carry."""

import inspect

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
