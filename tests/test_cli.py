"""CLI: config validation, pipeline outputs, determinism, exit codes."""

import csv
import json
import math

import pytest

from semistab import battery, cli
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
        ("tolerances", [0.1], "tolerances"),
        ("indices", [[0.0, "2"]], "indices[0]"),
        ("indices", [[math.nan, 2.0]], "indices[0]"),
        ("grids", {"t_grid": {"start": 1.0, "stop": math.inf, "count": 4}}, "grids.t_grid.stop"),
        ("out_dir", 5, "out_dir"),
    ]
    for key, value, field in cases:
        cfg = _base_config(tmp_path)
        cfg[key] = value
        with pytest.raises(ConfigError) as err:
            cli.validate_config(cfg)
        assert err.value.field == field, (key, value)


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    cfg = _base_config(tmp_path)
    cfg["grids"]["t_grid"]["count"] = 1
    path.write_text(json.dumps(cfg))
    code = cli.main(["analyze", "--config", str(path)])
    assert code == 2
    assert "grids.t_grid.count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", ["hilbert", "positive_semigroup", "r_resolvent_growth_asserted", "zeta_negative_asserted"]
)
def test_geometry_flags_must_be_booleans(tmp_path, capsys, flag):
    # "no" is truthy in Python; it must not be read as true
    cfg = _base_config(tmp_path / "o")
    cfg["geometry"] = {flag: "no"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["decay", "--config", str(path)]) == 2
    assert f"geometry.{flag}" in capsys.readouterr().err


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


def test_format_complex():
    assert cli.format_complex(1 + 2j) == "1+2i"
    assert cli.format_complex(-0.5 - 1.25j) == "-0.5-1.25i"


def test_threads_env_default(monkeypatch):
    monkeypatch.setenv("SEMISTAB_THREADS", "5")
    parser = cli.build_parser()
    args = parser.parse_args(["verify-examples"])
    assert args.threads == 5
    monkeypatch.delenv("SEMISTAB_THREADS")
    args = cli.build_parser().parse_args(["verify-examples"])
    assert args.threads is None


@pytest.mark.parametrize("value", ["-3", "0", "x"])
@pytest.mark.parametrize("source", ["--threads", "SEMISTAB_THREADS"])
def test_thread_count_must_be_positive_integer(tmp_path, capsys, monkeypatch, source, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(tmp_path / "o")))
    argv = ["decay", "--config", str(cfg_path)]
    if source == "--threads":
        argv += ["--threads", value]
    else:
        monkeypatch.setenv("SEMISTAB_THREADS", value)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert source in err and "must be a positive integer" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["analyze", "decay"])
def test_growth_fit_failure_exits_cleanly(tmp_path, capsys, command):
    # 12 xi nodes on [0.01, 100] leave 6 probes on each side of |xi| = 1,
    # too few for the growth-profile fit
    cfg = {
        "operator": {"kind": "operator-matrix", "n": 2, "s_count": 64},
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
