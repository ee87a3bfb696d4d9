"""Tests of the benchmark itself: spec, wrappers, reference gate, failure mode.

    python3 -m pytest perfbench/tests -q

The coverage tests run each workload once, traced (verify-examples takes
about a minute).
"""

from __future__ import annotations

import copy
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_is_well_formed_and_matches_the_layer_map():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "pass_frac"]
    setup = spec["end_to_end"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.LAYER_MAP)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    all_names = names + [m["name"] for m in spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(all_names) == len(set(all_names))


def test_every_target_is_rebound_and_restored():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from semistab import cli, decaylab, numcore, operators

    before = (decaylab.fit_power_law, operators.sup_on_grid, operators.JordanSumModel.fractional_norm,
              cli.load_config)
    t = tracer.Tracer()
    t.install()
    try:
        missing = [target for target, n in t.rebinds.items() if n < 1]
        assert not missing
        # names imported with "from .numcore import ..." are wrapped where they are called
        assert decaylab.fit_power_law is numcore.fit_power_law is not before[0]
        assert operators.sup_on_grid is not before[1]
    finally:
        t.uninstall()
    after = (decaylab.fit_power_law, operators.sup_on_grid, operators.JordanSumModel.fractional_norm,
             cli.load_config)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_wrapper_coverage(workload):
    """Every per-layer metric reads nonzero on the workloads it is mapped to,
    and the top-level spans account for the traced pass."""
    record = run.measure(workload, 0, 0, trace=1)
    assert record["failed"] == 0, record["mismatches"]
    metrics = record["metrics"]
    assert set(metrics) == set(workloads.LAYER_MAP)
    silent = [name for name, (on, _) in workloads.LAYER_MAP.items()
              if workload in on and not metrics[name] > 0]
    assert not silent, f"wrappers recorded nothing on {workload}: {silent}"
    assert metrics["trace.top_span_share"] >= 1.0 - report.SPAN_REMAINDER


def _verify_outputs():
    ref = reference.load("verify-examples")
    seed = ref["seeds"][0]
    summary = {"cases": copy.deepcopy(ref["cases"])}
    return ref, seed, {"exit": ref["exit"], "summary": summary,
                       "rows": copy.deepcopy(ref["rows_by_seed"][seed])}


def test_reference_gate_counts_the_known_red_check_and_flags_flips():
    ref, seed, outputs = _verify_outputs()
    cmp = reference.compare("verify", seed, outputs, ref)
    assert cmp.mismatches == []
    assert len(cmp.failed_checks) == 1 and "jordan.rates" in cmp.failed_checks[0]
    assert cmp.passed_ops == cmp.ops - 1

    for case in outputs["summary"]["cases"]:
        for check in case["checks"]:
            if not check["passed"] and not check["informative"]:
                check["passed"] = True  # the known-red clause turning green is a mismatch too
    flipped = reference.compare("verify", seed, outputs, ref)
    assert len(flipped.mismatches) == 1 and flipped.failed_checks == []


def test_reference_gate_applies_the_stated_tolerance():
    ref, seed, outputs = _verify_outputs()
    i, row = next((i, r) for i, r in enumerate(outputs["rows"]) if r["value"] not in ("", "0"))
    value = float(row["value"])
    row["value"] = repr(value * (1 + reference.RTOL / 10))
    assert reference.compare("verify", seed, outputs, ref).mismatches == []
    row["value"] = repr(value * (1 + reference.RTOL * 10) + reference.ATOL * 10)
    assert len(reference.compare("verify", seed, outputs, ref).mismatches) == 1
    # a seed without stored rows is compared on the seed-invariant fields only
    other = reference.compare("verify", 10**6, outputs, ref)
    assert len(other.mismatches) == ("value" in ref["invariant_fields"][i])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = run.load_spec()
    proc = subprocess.run(
        spec["command"] + ["--workload", "analyze-jordan", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
