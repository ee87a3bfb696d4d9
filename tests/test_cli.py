"""CLI: config validation, pipeline outputs, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semistab import battery, cli, decaylab
from semistab.errors import ConfigError


def _base_config(out_dir):
    return {
        "operator": {
            "kind": "diagonal-symbol",
            "a": 1.0,
            "b": 0.5,
            "grid_count": 512,
            "s_max": 1e6,
        },
        "grids": {
            "t_grid": {"start": 10.0, "stop": 1e4, "count": 24},
            "xi_grid": {"start": 0.01, "stop": 100.0, "count": 32},
        },
        "geometry": {"hilbert": True},
        "indices": [[0.0, 2.0], [0.0, 4.0]],
        "seed": 3,
        "threads": 1,
        "out_dir": str(out_dir),
    }


def test_validate_config_field_paths(tmp_path):
    cfg = _base_config(tmp_path)
    cfg["grids"]["t_grid"]["count"] = 1
    with pytest.raises(ConfigError) as err:
        cli.validate_config(cfg)
    assert err.value.field == "grids.t_grid.count"

    cfg = _base_config(tmp_path)
    del cfg["operator"]["a"]
    with pytest.raises(ConfigError) as err:
        cli.validate_config(cfg)
    assert err.value.field.startswith("operator")

    cfg = _base_config(tmp_path)
    cfg["operator"]["kind"] = "mystery"
    with pytest.raises(ConfigError) as err:
        cli.validate_config(cfg)
    assert err.value.field == "operator.kind"

    cfg = _base_config(tmp_path)
    cfg["tolerances"] = {"consistency_tol": -1.0}
    with pytest.raises(ConfigError) as err:
        cli.validate_config(cfg)
    assert err.value.field == "tolerances.consistency_tol"

    # known top-level keys only; integers that are not booleans; finite
    # numbers, never strings; objects where objects are expected
    cases = [
        ("gridz", {"t_grid": {"start": 1.0, "stop": 10.0, "count": 4}}, "gridz"),
        ("seed", True, "seed"),
        ("threads", True, "threads"),
        ("tolerances", {"fit_tol": math.nan}, "tolerances.fit_tol"),
        ("tolerances", {"consistency_tol": math.inf}, "tolerances.consistency_tol"),
        # frac reads no config and analyze and decay have no quadrature
        ("tolerances", {"quad_tol": 1e-6}, "tolerances.quad_tol"),
        ("tolerances", [0.1], "tolerances"),
        # only a missing or null tolerances object means the defaults
        ("tolerances", [], "tolerances"),
        ("tolerances", 0, "tolerances"),
        ("tolerances", False, "tolerances"),
        ("tolerances", "", "tolerances"),
        ("indices", [[0.0, "2"]], "indices[0]"),
        ("indices", [[math.nan, 2.0]], "indices[0]"),
        ("grids", {"t_grid": {"start": 1.0, "stop": math.inf, "count": 4}}, "grids.t_grid.stop"),
        ("out_dir", 5, "out_dir"),
        # unknown keys inside the nested objects
        ("operator", {"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5, "nmax": 200}, "operator.nmax"),
        ("operator", {"kind": "operator-matrix", "n": 2, "entries": [[1.0]]}, "operator.entries"),
        ("operator", {"kind": "dense-matrix", "entries": [[1.0]], "n": None}, "operator.n"),
        ("grids", {"t_grid": {"start": 1.0, "stop": 40.0, "count": 8, "cnt": 3}}, "grids.t_grid.cnt"),
        ("grids", {"tgrid": {}}, "grids.tgrid"),
        ("grids", {"fourier_grid": {"period": 200.0, "samples": 1024, "n": 1}}, "grids.fourier_grid.n"),
        ("geometry", {"hilbret": True}, "geometry.hilbret"),
    ]
    for key, value, field in cases:
        cfg = _base_config(tmp_path)
        cfg[key] = value
        with pytest.raises(ConfigError) as err:
            cli.validate_config(cfg)
        assert err.value.field == field, (key, value)


def test_null_tolerances_means_the_defaults(tmp_path):
    cfg = _base_config(tmp_path)
    cfg["tolerances"] = None
    assert cli.validate_config(cfg)["tolerances"] == cli.DEFAULT_TOLERANCES


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    cfg = _base_config(tmp_path)
    cfg["grids"]["t_grid"]["count"] = 1
    path.write_text(json.dumps(cfg))
    code = cli.main(["analyze", "--config", str(path)])
    assert code == 2
    assert "grids.t_grid.count" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["hilbert", "r_resolvent_growth_asserted", "zeta_negative_asserted"])
def test_geometry_flags_must_be_booleans(tmp_path, capsys, flag):
    # "no" is truthy in Python; it must not be read as true
    cfg = _base_config(tmp_path / "o")
    cfg["geometry"] = {flag: "no"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["decay", "--config", str(path)]) == 2
    assert f"geometry.{flag}" in capsys.readouterr().err


def test_unread_positive_semigroup_is_an_unknown_geometry_key(tmp_path, capsys):
    # no subcommand's predictions read it, so a config may not set it
    cfg = _base_config(tmp_path / "o")
    cfg["geometry"] = {"positive_semigroup": True}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in ("analyze", "decay"):
        assert cli.main([command, "--config", str(path)]) == 2
        assert "geometry.positive_semigroup: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "operator, field",
    [
        ({"kind": "dense-matrix", "entries": [[1.0, 0.0], ["0", 2.0]]}, "operator.entries[1][0]"),
        ({"kind": "diagonal-symbol", "a": "1", "b": 0.5}, "operator.a"),
        ({"kind": "jordan-sum", "gamma": 0.5, "delta": True}, "operator.delta"),
        ({"kind": "operator-matrix", "n": 2.5}, "operator.n"),
    ],
    ids=["dense-matrix", "diagonal-symbol", "jordan-sum", "operator-matrix"],
)
def test_operator_fields_must_be_numbers(tmp_path, capsys, operator, field):
    cfg = _base_config(tmp_path / "o")
    cfg["operator"] = operator
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["decay", "--config", str(path)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


_HUGE = 10**400  # a JSON integer that overflows a float

# field -> how a config puts _HUGE there
_HUGE_FIELDS = {
    "operator.entries[0][0]": lambda c: c.update(
        operator={"kind": "dense-matrix", "entries": [[_HUGE, 0.0], [0.0, 1.0]]}),
    "operator.a": lambda c: c["operator"].update(a=_HUGE),
    "grids.t_grid.stop": lambda c: c["grids"]["t_grid"].update(stop=_HUGE),
    "tolerances.fit_tol": lambda c: c.update(tolerances={"fit_tol": _HUGE}),
    "indices[0]": lambda c: c.update(indices=[[0.0, _HUGE]]),
    "grids.fourier_grid.period": lambda c: c["grids"].update(
        fourier_grid={"period": _HUGE, "samples": 1024}),
    # geometry exponents may be infinite, but not an integer no float holds
    "geometry.cotype_q": lambda c: c.update(geometry={"hilbert": False, "cotype_q": _HUGE}),
}


@pytest.mark.parametrize("field", list(_HUGE_FIELDS))
def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys, field):
    cfg = _base_config(tmp_path / "o")
    _HUGE_FIELDS[field](cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["decay", "--config", str(path)]) == 2
    assert f"config error: {field}: integer too large for a float" in capsys.readouterr().err


def _run_decay(tmp_path, operator, timeout):
    """``semistab decay`` on a config of ``operator`` alone, in a fresh
    process that is killed after ``timeout`` seconds."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"operator": operator, "out_dir": str(tmp_path / "o")}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "semistab.cli", "decay", "--config", str(path)],
                          env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("delta", [0.5, 1e-5])
def test_decay_at_a_large_truncation_runs_in_seconds(tmp_path, delta):
    # the block sum costs O(groups), not O(n_max): 38 groups at delta = 0.5,
    # one group starting at n = 10^10 at delta = 1e-5
    operator = {"kind": "jordan-sum", "gamma": 0.5, "delta": delta, "n_max": 10**12}
    proc = _run_decay(tmp_path, operator, timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_truncation_beyond_exact_floats_exits_2(tmp_path):
    operator = {"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5, "n_max": 2**53 + 1}
    proc = _run_decay(tmp_path, operator, timeout=30)
    assert proc.returncode == 2
    assert "config error: operator: need n_max <= 2**53" in proc.stderr


def test_block_size_beyond_the_cap_exits_2(tmp_path):
    # m(10^4) = 92098 at delta = 0.9999: one norm would take SVDs of that size
    operator = {"kind": "jordan-sum", "gamma": 0.5, "delta": 0.9999, "n_max": 10**4}
    proc = _run_decay(tmp_path, operator, timeout=30)
    assert proc.returncode == 2
    assert "config error: operator: need m(n_max) <= 1024, got 92098" in proc.stderr


@pytest.mark.parametrize("operator,grids", [
    # e^{-t/1000} t^k/k! overflows in the largest block (m = 127) from
    # t ~ 14986.75, so at the grid node t = 19306.98
    ({"kind": "jordan-sum", "gamma": 0.001, "delta": 0.85, "n_max": 10**9},
     {"t_grid": {"start": 1.0, "stop": 1e5, "count": 8},
      "xi_grid": {"start": 0.01, "stop": 1e3, "count": 24}}),
    # t^2/2 overflows beyond t ~ 1.9e154
    ({"kind": "operator-matrix", "n": 3}, {"t_grid": {"start": 10.0, "stop": 1e200, "count": 32}}),
    # e^{t/2} overflows beyond t ~ 1420, so from the grid node t = 1681.92
    ({"kind": "dense-matrix", "entries": [[-0.5]]}, {"t_grid": {"start": 10.0, "stop": 1e4, "count": 32}}),
    # a Jordan block takes the Pade route, and overflows there too
    ({"kind": "dense-matrix", "entries": [[-0.5, 1.0], [0.0, -0.5]]},
     {"t_grid": {"start": 10.0, "stop": 1e4, "count": 32}}),
], ids=["jordan-sum", "operator-matrix", "dense-matrix", "dense-defective"])
def test_overflowing_norms_are_an_analysis_error(tmp_path, operator, grids):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"operator": operator, "grids": grids}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "semistab.cli", "analyze", "--config", str(path),
                           "--out-dir", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "analysis error: matrix entries overflow float64 at t=" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("only", ["laplace", "jordan"])
def test_one_blas_thread_changes_no_verify_row(tmp_path, only):
    # cli.main runs on one OpenBLAS thread; direct calls keep the caller's count
    assert cli.main(["verify-examples", "--only", only, "--out-dir", str(tmp_path / "cli")]) in (0, 1)
    rows = [row for _, case in battery.matching_cases(only) for row in case(seed=0).rows]
    cli._write_csv(str(tmp_path), "direct.csv", rows)
    assert (tmp_path / "cli" / "verify.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_analyze_outputs_and_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(tmp_path / "o")))
    code1 = cli.main(
        ["analyze", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o1"), "--threads", "1"]
    )
    code8 = cli.main(
        ["analyze", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o8"), "--threads", "8"]
    )
    assert code1 == 0 and code8 == 0
    s1 = (tmp_path / "o1" / "summary.json").read_bytes()
    s8 = (tmp_path / "o8" / "summary.json").read_bytes()
    assert s1 == s8
    summary = json.loads(s1)
    assert summary["overall"] == "PASS"
    assert abs(summary["profile"]["beta_hat"] - 3.0) < 0.3
    for name in ("probes.csv", "decay.csv", "predictions.csv"):
        with open(tmp_path / "o1" / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli.CSV_HEADER
        assert len(rows) > 1


def test_predicted_column_uses_the_csv_precision(tmp_path):
    # the fitted growth pair makes rho a full-precision float, so a 17-digit
    # repr would show one-ulp moves that the other .12g columns hide
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(tmp_path / "o")))
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "o" / "predictions.csv", newline="") as fh:
        predicted = [row["predicted"] for row in csv.DictReader(fh) if row["predicted"]]
    assert predicted
    assert predicted == [format(float(field), ".12g") for field in predicted]


def test_analyze_jordan_sum_thread_determinism(tmp_path):
    # --threads is accepted for compatibility; the run is single-threaded and
    # the indices replace the block-sum model's cached Phi rows in turn
    cfg = _base_config(tmp_path / "o")
    cfg["operator"] = {"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5, "n_max": 500}
    cfg["grids"] = {
        "t_grid": {"start": 1.0, "stop": 40.0, "count": 12},
        "xi_grid": {"start": 0.01, "stop": 400.0, "count": 24},
    }
    cfg["indices"] = [[0.0, 1.0], [0.5, 1.0], [0.0, 2.0]]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    codes = [
        cli.main(
            ["analyze", "--config", str(cfg_path), "--out-dir", str(tmp_path / f"o{n}"),
             "--threads", str(n)]
        )
        for n in (1, 8)
    ]
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    s1 = (tmp_path / "o1" / "summary.json").read_bytes()
    assert s1 == (tmp_path / "o8" / "summary.json").read_bytes()
    assert len(json.loads(s1)["measurements"]) == 3


@pytest.mark.parametrize(
    "operator",
    [
        {"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5, "n_max": 500},
        {"kind": "dense-matrix", "entries": [[1.0, 1.0], [0.0, [2.0, 0.5]]]},
    ],
    ids=["jordan-sum", "dense-matrix"],
)
def test_analyze_norms_that_underflow_are_super_polynomial(tmp_path, operator):
    # exponentially stable models: on t in [10, 1e4] the norms underflow to
    # exactly 0 at large t, which no power-law fit can take
    cfg = _base_config(tmp_path / "o")
    cfg["operator"] = operator
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["analyze", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["overall"] == "PASS"
    assert [m["super_polynomial"] for m in summary["measurements"]] == [True, True]
    with open(tmp_path / "o" / "decay.csv", newline="") as fh:
        values = [float(r["value"]) for r in csv.DictReader(fh)]
    assert 0.0 in values and all(math.isfinite(v) for v in values)


def test_decay_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(tmp_path / "d")))
    code = cli.main(["decay", "--config", str(cfg_path), "--out-dir", str(tmp_path / "d")])
    assert code == 0
    assert (tmp_path / "d" / "decay.csv").exists()
    assert not (tmp_path / "d" / "predictions.csv").exists()


def test_frac_subcommand(tmp_path):
    code = cli.main(["frac", "--out-dir", str(tmp_path / "f")])
    assert code == 0
    with open(tmp_path / "f" / "frac.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["verdict"] == "PASS" for r in rows)
    assert any("lam=0+1i" in r["case"] for r in rows)  # complex CSV encoding


def test_verify_examples_filter_and_mutation(tmp_path, capsys, monkeypatch):
    code = cli.main(["verify-examples", "--only", "appendix.exp-sum"])
    out = capsys.readouterr().out
    assert code == 0 and "appendix.exp-sum" in out

    # injecting a wrong expected exponent must FAIL naming the case
    def broken_case(seed=0):
        res = battery.CaseResult("appendix.exp-sum", "1")
        res.add("injected wrong exponent", False, "expected exponent 3 != 2")
        return res

    monkeypatch.setattr(
        battery, "ALL_CASES", [("appendix.exp-sum", broken_case)]
    )
    code = cli.main(["verify-examples", "--only", "appendix.exp-sum"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED cases: appendix.exp-sum" in out

    code = cli.main(["verify-examples", "--only", "no-such-case"])
    assert code == 2


def _unusable_out_dir(tmp_path, kind):
    """An output path that cannot be made a directory: empty, or an existing file."""
    if kind == "empty":
        return ""
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    return str(blocker)


@pytest.mark.parametrize("kind", ["empty", "file"])
@pytest.mark.parametrize("command", ["analyze", "decay"])
def test_unusable_out_dir_key_exits_2_before_the_run(tmp_path, capsys, command, kind):
    cfg = _base_config(_unusable_out_dir(tmp_path, kind))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "config error: out_dir: cannot create the output directory" in captured.err
    assert "overall" not in captured.out


@pytest.mark.parametrize("kind", ["empty", "file"])
@pytest.mark.parametrize("command", ["analyze", "decay", "frac", "mult", "verify-examples"])
def test_unusable_out_dir_flag_exits_2_before_the_run(tmp_path, capsys, command, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(tmp_path / "o")))
    argv = {"analyze": ["--config", str(cfg_path)], "decay": ["--config", str(cfg_path)],
            "verify-examples": ["--only", "appendix.exp-sum"]}.get(command, [])
    out_dir = _unusable_out_dir(tmp_path, kind)
    assert cli.main([command, *argv, "--out-dir", out_dir]) == 2
    captured = capsys.readouterr()
    assert "config error: --out-dir: cannot create the output directory" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()  # the flag overrides the config's out_dir


def test_unmatched_only_creates_no_out_dir(tmp_path, capsys):
    assert cli.main(["verify-examples", "--only", "no-such-case", "--out-dir", str(tmp_path / "o")]) == 2
    assert "no cases match" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_format_complex():
    assert cli.format_complex(1 + 2j) == "1+2i"
    assert cli.format_complex(-0.5 - 1.25j) == "-0.5-1.25i"


@pytest.mark.parametrize("value", ["-3", "0", "x"], ids=lambda v: f"--threads-{v}")
def test_thread_count_must_be_positive_integer(tmp_path, capsys, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(tmp_path / "o")))
    with pytest.raises(SystemExit) as exc:  # argparse rejects a bad flag value itself
        cli.main(["decay", "--config", str(cfg_path), "--threads", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--threads" in err and "must be a positive integer" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["analyze", "decay"])
def test_growth_fit_failure_exits_cleanly(tmp_path, capsys, command):
    # 12 xi nodes on [0.01, 100] leave 6 probes on each side of |xi| = 1,
    # too few for the growth-profile fit
    cfg = {
        "operator": {"kind": "operator-matrix", "n": 2},
        "grids": {"xi_grid": {"start": 0.01, "stop": 100, "count": 12}},
        "indices": [[0, 1]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    assert "growth-profile fit failed: " in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["overall"] == "FAIL"
    with open(out / "probes.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) > 1
    assert (out / "predictions.csv").exists() == (command == "analyze")


def test_jsonable_handles_inf():
    assert cli._jsonable(math.inf) == "inf"
    assert cli._jsonable(1.5) == 1.5


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=json_values)
@example(value={"b": [math.inf, -math.inf, math.nan, -0.0, 1e300, 2**70], "a": {"\u00e9\n\"": [], "": {}}})
def test_indented_summary_writes_the_bytes_of_json_dumps(value):
    # the summary writer matches json's indented dump: sorted keys, ASCII
    # escapes, float repr with NaN and Infinity, empty containers inline
    assert cli._indented_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_indented_summary_rejects_what_json_rejects():
    for value in (b"x", {"a": {1.5}}, [1j]):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._indented_json(value)
    with pytest.raises(TypeError):  # json would write the key as "1"; a summary's keys are str
        cli._indented_json({1: 2})


def test_readme_config_is_valid():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config reference\n\n```json\n(.*?)```", text, re.S).group(1)
    cli.validate_config(json.loads(block))


def test_config_builds_each_operator_kind():
    def model(operator):
        return cli.validate_config({"operator": operator})["model"]

    entries = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [2.0, 0.0]]]
    dense = model({"kind": "dense-matrix", "entries": entries})
    assert dense.info.kind == "dense-matrix" and dense.dim == 2
    assert dense.matrix[0, 1] == 1j
    diag = model({"kind": "diagonal-symbol", "a": 1.0, "b": 0.5, "grid_count": 64, "s_max": 1e4})
    assert diag.info.kind == "diagonal-symbol" and len(diag.grid) == 64
    jor = model({"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5, "n_max": 100})
    assert jor.info.kind == "jordan-sum" and jor.n_start == 4
    om = model({"kind": "operator-matrix", "n": 3})
    assert om.info.kind == "operator-matrix"


def test_config_tables_match_constructors():
    # each config field is a constructor parameter and each parameter a
    # field, so a default can live only in the constructor
    for kind, (model, fields) in cli._OPERATORS.items():
        assert list(fields) == list(inspect.signature(model).parameters), kind
    geometry = [f.name for f in dataclasses.fields(decaylab.GeometryDescriptor)]
    assert sorted([*cli._GEOMETRY_FIELDS, "lattice"]) == sorted(geometry)


def test_grid_with_repeated_nodes_exits_2(tmp_path, capsys):
    # [10, 10 + 1 ulp] holds 2 floats, too few for 32 distinct nodes
    cfg = _base_config(tmp_path / "o")
    cfg["grids"]["t_grid"] = {"start": 10.0, "stop": 10.000000000000002, "count": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["decay", "--config", str(path)]) == 2
    assert "config error: grids.t_grid:" in capsys.readouterr().err


# size fields at counts whose arrays numpy refuses before allocating them;
# each sets the count where a config puts it and names the reported path
_OVERSIZED = {
    "grids.t_grid": lambda c, n: c["grids"]["t_grid"].update(count=n),
    "grids.xi_grid": lambda c, n: c["grids"]["xi_grid"].update(count=n),
    "operator": lambda c, n: c["operator"].update(grid_count=n),
    "grids.fourier_grid": lambda c, n: c["grids"].update(fourier_grid={"period": 200.0, "samples": n}),
}


@pytest.mark.parametrize("count", [2**60, 2**62, 2**63, 2**64], ids=lambda n: f"2**{n.bit_length() - 1}")
@pytest.mark.parametrize("field", list(_OVERSIZED))
def test_sizes_numpy_refuses_exit_2(tmp_path, capsys, field, count):
    cfg = _base_config(tmp_path / "o")
    _OVERSIZED[field](cfg, count)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    command = "mult" if field == "grids.fourier_grid" else "decay"
    assert cli.main([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {field}: {count} " in capsys.readouterr().err


@pytest.mark.parametrize("operator,tau", [
    ({"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5, "n_max": 10**4}, 1e6),
    ({"kind": "dense-matrix", "entries": [[1.0, 1.0], [0.0, 1.0]]}, 1e308),
    ({"kind": "operator-matrix", "n": 3}, 1e308),
    ({"kind": "diagonal-symbol", "a": 1.0, "b": 0.5, "grid_count": 64}, 1e308),
], ids=["jordan-sum", "dense-matrix", "operator-matrix", "diagonal-symbol"])
def test_norms_that_underflow_before_the_fit_window_name_the_indices(tmp_path, capsys, operator, tau):
    # (1 + A)^-tau underflows to 0 from the first node of the fit window on
    cfg = _base_config(tmp_path / "o")
    cfg.update(operator=operator, indices=[[0, tau]])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["analyze", "--config", str(path)]) == 1
    first = cli.validate_config(cfg)["t_grid"][2]  # the window drops 2 of the 24 nodes
    assert capsys.readouterr().err == (
        f"analysis error: sigma=0, tau={tau:g}: the norms underflow to 0 at t={first:.12g}, "
        "leaving 0 nonzero norms in the fit window; need >= 3\n")


def _digest_configs():
    """The base, README and huge-number configs, and one with non-ASCII strings."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = json.loads(re.search(r"### Config reference\n\n```json\n(.*?)```", text, re.S).group(1))
    huge = _base_config("o")
    for put in _HUGE_FIELDS.values():
        put(huge)
    unicode = dict(_base_config("résultats/σ-τ/出力"), note="∞ ≠ 1e308 😀")
    return [_base_config("o"), readme, huge, unicode]


def test_digest_is_the_sha256_of_the_canonical_config():
    for raw in _digest_configs():
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
        assert cli._digest(raw) == hashlib.sha256(canonical).hexdigest()


_DIGEST_FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # no built-in SHA-256
import hashlib
from semistab import cli
assert cli.sha256 is hashlib.sha256
print(json.dumps([cli._digest(raw) for raw in json.loads(sys.argv[1])]))
"""


def test_digest_falls_back_to_hashlib():
    configs = _digest_configs()
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _DIGEST_FALLBACK, json.dumps(configs)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [cli._digest(raw) for raw in configs]


# random configs for the fuzz test: each field is mostly a sensible value,
# else a special number, null or a value of the wrong JSON type, and objects
# sometimes carry an unknown key; size fields are always given and never
# null, which would select a model's large default size
_SPECIAL = st.sampled_from([0, -1, 0.5, 1.5, 1e-300, 1e300, math.nan, math.inf, -math.inf])
_WRONG = st.one_of(st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                   st.just({}))
_UNKNOWN = st.dictionaries(st.text("abcnstx_", min_size=1, max_size=5), st.integers(0, 2),
                           min_size=1, max_size=1)


def _field(good, nullable=True):
    bad = st.one_of(_SPECIAL, _WRONG, *([st.none()] if nullable else []))
    return st.integers(0, 11).flatmap(lambda i: bad if i == 0 else good)


def _size(lo, hi):
    return _field(st.integers(lo, hi), nullable=False)


def _obj(required, optional=None):
    known = st.fixed_dictionaries(required, optional=optional or {})
    return st.integers(0, 11).flatmap(
        lambda i: st.builds(lambda a, b: {**a, **b}, known, _UNKNOWN) if i == 0 else known
    )


_NUM = st.floats
_ENTRIES = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.lists(_field(st.one_of(_NUM(-2, 2), st.tuples(_NUM(-2, 2), _NUM(-2, 2)).map(list))),
                 min_size=d, max_size=d),
        min_size=d, max_size=d,
    )
)
_OPERATOR = st.one_of(
    _obj({"kind": _field(st.just("dense-matrix")), "entries": _field(_ENTRIES)}),
    _obj({"kind": _field(st.just("diagonal-symbol")), "a": _field(_NUM(0.1, 3)),
          "b": _field(_NUM(0.05, 0.95)), "grid_count": _size(2, 16)},
         {"s_start": _field(_NUM(1, 10)), "s_max": _field(_NUM(10, 1e6)),
          "sobolev": _field(st.booleans())}),
    _obj({"kind": _field(st.just("jordan-sum")), "gamma": _field(_NUM(0.05, 0.95)),
          "delta": _field(_NUM(0.2, 0.8)), "n_max": _size(2, 64)},
         {"n_start": _size(1, 16)}),
    _obj({"kind": _field(st.just("operator-matrix")), "n": _size(2, 4)}),
)
_GRIDS = _obj({}, {
    "t_grid": _field(_obj({"start": _field(_NUM(0.5, 5)), "stop": _field(_NUM(5, 100)),
                           "count": _size(2, 6)})),
    "xi_grid": _field(_obj({"start": _field(_NUM(0.01, 0.5)), "stop": _field(_NUM(2, 100)),
                            "count": _size(2, 24)})),
    "fourier_grid": _field(_obj({"period": _field(_NUM(1, 100)), "samples": _size(2, 64)})),
})
_GEOMETRY = _obj({}, {
    "hilbert": _field(st.booleans()), "fourier_type": _field(_NUM(1, 2)),
    "type_p": _field(_NUM(1, 2)), "cotype_q": _field(_NUM(2, 10)),
    "lattice": _field(st.tuples(_NUM(1, 2), _NUM(2, 10)).map(list)),
    "zeta_negative_asserted": _field(st.booleans()), "r_resolvent_growth_asserted": _field(st.booleans()),
})
_CONFIG = _obj({"operator": _field(_OPERATOR)}, {
    "grids": _field(_GRIDS),
    "geometry": _field(_GEOMETRY),
    "indices": _field(st.lists(_field(st.tuples(_NUM(0, 3), _NUM(0, 3)).map(list)),
                               min_size=1, max_size=2)),
    "tolerances": _field(_obj({}, {"fit_tol": _field(_NUM(0.01, 1)),
                                   "consistency_tol": _field(_NUM(0.01, 1))})),
    "seed": _field(st.integers(0, 5)),
    "threads": _size(1, 4),
    "out_dir": _field(st.text(max_size=3)),
})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(config=_CONFIG)
# exp(-tA) overflows (growing semigroup); 1 + A singular, with and without
# a smoothing index; fractional power of a defective matrix; the block
# search of a tiny delta; a zero n_start
@example(config={"operator": {"kind": "dense-matrix", "entries": [[-0.5]]}})
@example(config={"operator": {"kind": "dense-matrix", "entries": [[-1]]}})
@example(config={"operator": {"kind": "dense-matrix", "entries": [[-1]]}, "indices": [[0, 0]],
                 "grids": {"t_grid": {"start": 0.5, "stop": 5.0, "count": 6}}})
@example(config={"operator": {"kind": "dense-matrix", "entries": [[1, 1], [0, 1]]},
                 "indices": [[0.5, 1.0]]})
@example(config={"operator": {"kind": "jordan-sum", "gamma": 0.5, "delta": 1e-300, "n_max": 64}})
@example(config={"operator": {"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5, "n_max": 64,
                              "n_start": 0}})
def test_decay_fuzz_exits_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(["decay", "--config", str(path), "--out-dir", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag itself
        return exc.code


@pytest.mark.parametrize("value", ["-1", str(2**64), "x"])
@pytest.mark.parametrize("command", ["verify-examples", "mult"])
def test_seed_flag_out_of_range_exits_2(tmp_path, capsys, command, value):
    # Philox keys take the seed below bit 64 and the battery's stream above it
    assert _exit_code([command, "--seed", value, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "[0, 2**64)" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [-1, 2**64])
@pytest.mark.parametrize("command", ["mult", "decay"])
def test_seed_key_out_of_range_exits_2(tmp_path, capsys, command, value):
    cfg = _base_config(tmp_path / "o")
    cfg["seed"] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path)]) == 2
    assert "config error: seed: must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_largest_seed_runs(tmp_path):
    seed = str(2**64 - 1)
    assert cli.main(["verify-examples", "--only", "frac.oracle", "--seed", seed]) == 0
    cfg = _base_config(tmp_path / "o")
    cfg["seed"] = 2**64 - 1
    assert cli.validate_config(cfg)["seed"] == 2**64 - 1


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "x"])
@pytest.mark.parametrize("command", ["analyze", "frac"])
def test_tol_flag_must_be_positive_finite(tmp_path, capsys, command, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(tmp_path / "o")))
    argv = [command, "--tol", value, "--out-dir", str(tmp_path / "o")]
    if command == "analyze":
        argv += ["--config", str(cfg_path)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "--tol" in err and "must be a positive finite number" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [["frac", "--config", "/nonexistent.json"], ["frac", "--seed", "0"], ["mult", "--tol", "0.1"],
     ["decay", "--tol", "0.1", "--config", "/nonexistent.json"]],
    ids=["frac-config", "frac-seed", "mult-tol", "decay-tol"],
)
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, capsys, argv):
    # the unread flag comes first after the subcommand
    assert _exit_code(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mult_config_needs_only_seed_and_fourier_grid(tmp_path, capsys):
    # mult reads the seed and grids.fourier_grid; the rest of an analyze
    # config may be absent, and a full one still runs
    minimal = {"seed": 1, "grids": {"fourier_grid": {"period": 200.0, "samples": 8192}}}
    bad = {"grids": {"fourier_grid": {"period": 200.0, "samples": "8192"}}}
    for cfg, code in ((minimal, 0), (bad, 2), (_base_config(tmp_path / "o"), 0)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["mult", "--config", str(path), "--out-dir", str(tmp_path / "m")]) == code
    assert "config error: grids.fourier_grid.samples:" in capsys.readouterr().err


def test_main_does_not_rebuild_the_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once, when cli is imported, and parsing leaves it as it was
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    for _ in range(2):
        assert cli.main(["verify-examples", "--only", "no-such-case"]) == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["decay", "--tol", "1.0"])  # decay reads no tolerance
        assert exc.value.code == 2
    assert "no cases match --only 'no-such-case'" in capsys.readouterr().err


def _dict_writer_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli.CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in cli.CSV_HEADER})


def _json_dump_summary(out_dir, summary, timings):
    for name, record in (("summary.json", summary), ("run_meta.json", {"timings_s": timings})):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
            fh.write("\n")


def test_writers_write_the_bytes_of_dict_writer_and_json_dump(tmp_path):
    # missing and extra keys, quoting, line breaks and non-ASCII text
    rows = [
        {"case": "sigma=0.5;tau=σ²", "value": "1.5", "source": "décroissance"},
        {"case": 'a,b "quoted"', "t_or_xi": "line\nbreak", "verdict": "PASS", "extra": "dropped"},
        {},
        {"predicted": "", "fit_exponent": " spaced ", "case": "⌀ 🙂"},
    ]
    for rows_ in (rows, []):
        cli._write_csv(str(tmp_path), "new.csv", rows_)
        _dict_writer_csv(tmp_path / "old.csv", rows_)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    summary = {"overall": "PASS", "name": "σ-décroissance 🙂", "rho": math.inf, "margin": -0.0, "nan": math.nan,
               "nested": {"b": [1, 2.5, None], "a": [], "c": {}, "d": [{"z": True, "y": False}]}}
    timings = {"probe": 0.0012, "measure": 1e-7}
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    cli._write_summary(str(tmp_path / "new"), summary, timings)
    _json_dump_summary(str(tmp_path / "old"), summary, timings)
    for name in ("summary.json", "run_meta.json"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
