"""Workload definitions, the layer map and the per-layer metric formulas.

Names, units and bounds of every metric live in BENCHMARK.json at the
root of the checkout; this module adds what that file cannot hold: the
command line of each workload, and for each per-layer metric the
workloads it must read nonzero on and the end-to-end metric it should
move.
"""

from __future__ import annotations

import copy

# Block sum with small blocks (m <= 13) reached through the cli probe
# and measure stages, against the large blocks of jordan.rates.
JORDAN_CONFIG = {
    "operator": {"kind": "jordan-sum", "gamma": 0.5, "delta": 0.5, "n_max": 10**4},
    "grids": {
        "t_grid": {"start": 1.0, "stop": 40.0, "count": 16},
        "xi_grid": {"start": 0.01, "stop": 1e3, "count": 48},
    },
    "geometry": {"hilbert": True},
    "indices": [[0.0, 1.0], [0.0, 2.0]],
    "threads": 1,
}

WORKLOADS = {
    "verify-examples": {"kind": "verify", "config": None},
    "analyze-jordan": {"kind": "analyze", "config": JORDAN_CONFIG},
}


def config_for(workload, seed):
    """The generated analyze config: the fixed config with the seed."""
    cfg = copy.deepcopy(WORKLOADS[workload]["config"])
    cfg["seed"] = int(seed)
    return cfg


def pass_argv(workload, seed, config_path, out_dir):
    if WORKLOADS[workload]["kind"] == "verify":
        return ["verify-examples", "--seed", str(seed), "--out-dir", out_dir]
    return ["analyze", "--config", config_path, "--out-dir", out_dir, "--threads", "1"]


V, AJ = "verify-examples", "analyze-jordan"

# per-layer metric -> (workloads it must read nonzero on, what it should move)
LAYER_MAP = {
    "cli.probe_s": ((AJ,), "wall_s"),
    "cli.fit_profile_s": ((AJ,), "wall_s"),
    "cli.measure_s": ((AJ,), "wall_s"),
    "cli.predict_s": ((AJ,), "wall_s"),
    "battery.jordan_rates_s": ((V,), "wall_s"),
    "battery.spectral_shadow_s": ((V,), "wall_s"),
    "battery.mult_norms_s": ((V,), "wall_s"),
    "battery.laplace_identity_s": ((V,), "wall_s"),
    "battery.matrix_rates_s": ((V,), "wall_s"),
    "battery.sobolev_rates_s": ((V,), "wall_s"),
    "battery.predict_algebra_s": ((V,), "wall_s"),
    "battery.other_s": ((V,), "wall_s"),
    "operators.jordan.resolvent_norm.calls": ((V, AJ), "wall_s"),
    "operators.jordan.resolvent_norm.s": ((V, AJ), "wall_s"),
    "operators.jordan.fractional_norm.calls": ((V, AJ), "wall_s"),
    "operators.jordan.fractional_norm.s": ((V, AJ), "wall_s"),
    "operators.jordan.semigroup_norm.calls": ((V, AJ), "wall_s"),
    "operators.jordan.semigroup_norm.s": ((V, AJ), "wall_s"),
    "operators.toeplitz_svd.calls": ((V, AJ), "wall_s"),
    "operators.toeplitz_svd.s": ((V, AJ), "wall_s"),
    "operators.toeplitz_svd.flops": ((V, AJ), "wall_s and peak_rss_mb if batched"),
    "operators.jordan.svds_per_norm": ((V, AJ), "wall_s"),
    "operators.fftconvolve.calls": ((V, AJ), "wall_s"),
    "operators.fftconvolve.s": ((V, AJ), "wall_s"),
    "operators.diagonal.resolvent_norm.calls": ((V,), "wall_s"),
    "operators.diagonal.resolvent_norm.s": ((V,), "wall_s"),
    "operators.diagonal.fractional_norm.calls": ((V,), "wall_s"),
    "operators.diagonal.fractional_norm.s": ((V,), "wall_s"),
    "operators.dense.fractional_norm.calls": ((V,), "wall_s"),
    "operators.dense.fractional_norm.s": ((V,), "wall_s"),
    "operators.opmatrix.fractional_norm.calls": ((V,), "wall_s"),
    "operators.opmatrix.fractional_norm.s": ((V,), "wall_s"),
    "numcore.sup_on_grid.calls": ((V,), "wall_s"),
    "numcore.sup_on_grid.s": ((V,), "wall_s"),
    "numcore.golden_max.calls": ((V,), "wall_s"),
    "numcore.golden_max.s": ((V,), "wall_s"),
    "numcore.fit_power_law.calls": ((V, AJ), "wall_s"),
    "numcore.fit_power_law.s": ((V, AJ), "wall_s"),
    "numcore.fit_exp_rate.calls": ((V, AJ), "wall_s"),
    "numcore.fit_exp_rate.s": ((V, AJ), "wall_s"),
    "resolvent.probe.calls": ((V, AJ), "wall_s"),
    "resolvent.probe.s": ((V, AJ), "wall_s"),
    "resolvent.probe.points": ((V, AJ), "wall_s"),
    "resolvent.probe.edge_frac": ((), "wall_s"),
    "resolvent.spectral_bounds.s": ((V,), "wall_s"),
    "resolvent.tame_lines": ((V,), "wall_s"),
    "decaylab.measure_decay.calls": ((V,), "wall_s"),
    "decaylab.measure_decay.s": ((V,), "wall_s"),
    "decaylab.predict.calls": ((V,), "wall_s"),
    "decaylab.predict.s": ((V,), "wall_s"),
    "decaylab.check_consistency.calls": ((V,), "wall_s"),
    "fraccalc.contour_apply.calls": ((V,), "wall_s"),
    "fraccalc.contour_apply.s": ((V,), "wall_s"),
    "fraccalc.identity_check.calls": ((V,), "wall_s"),
    "fraccalc.identity_check.s": ((V,), "wall_s"),
    "multiplier.eval_all.calls": ((V,), "wall_s"),
    "multiplier.eval_all.s": ((V,), "wall_s"),
    "multiplier.eval_all.nodes": ((V,), "wall_s"),
    "multiplier.apply.calls": ((V,), "wall_s"),
    "multiplier.apply.s": ((V,), "wall_s"),
    "multiplier.evals_per_apply": ((V,), "wall_s"),
    "multiplier.pq_lower.calls": ((V,), "wall_s"),
    "multiplier.pq_lower.s": ((V,), "wall_s"),
    "multiplier.fft.calls": ((V,), "wall_s"),
    "trace.wall_s": ((V, AJ), "traced wall_s; minus wall_s it is the tracing overhead"),
    "trace.top_span_share": ((V, AJ), "none; checks that spans account for the pass"),
}

BATTERY_CASES = {
    "battery.jordan_rates_s": ("jordan.rates",),
    "battery.spectral_shadow_s": ("spectral.shadow",),
    "battery.mult_norms_s": ("mult.norms",),
    "battery.laplace_identity_s": ("laplace.identity",),
    "battery.matrix_rates_s": ("matrix.rates",),
    "battery.sobolev_rates_s": ("sobolev.rates",),
    "battery.predict_algebra_s": ("predict.algebra",),
    "battery.other_s": ("appendix.exp-sum", "appendix.contour-identity", "frac.oracle"),
}

CLI_STAGES = {
    "cli.probe_s": "probe",
    "cli.fit_profile_s": "fit_profile",
    "cli.measure_s": "measure",
    "cli.predict_s": "predict",
}

# spans whose call counts and inclusive seconds are metrics of their own
SPAN_METRICS = (
    "operators.jordan.resolvent_norm", "operators.jordan.fractional_norm",
    "operators.jordan.semigroup_norm", "operators.toeplitz_svd", "operators.fftconvolve",
    "operators.diagonal.resolvent_norm", "operators.diagonal.fractional_norm",
    "operators.dense.fractional_norm", "operators.opmatrix.fractional_norm",
    "numcore.sup_on_grid", "numcore.golden_max", "numcore.fit_power_law",
    "numcore.fit_exp_rate", "resolvent.probe", "decaylab.measure_decay",
    "decaylab.predict", "fraccalc.contour_apply", "fraccalc.identity_check",
    "multiplier.eval_all", "multiplier.apply", "multiplier.pq_lower",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(workload, agg, counts, top_s, wall_s, timings):
    """Per-layer metrics of one traced pass.

    agg: span name -> {"calls", "s", "self_s"}; counts: tracer counters;
    top_s: seconds covered by top-level spans; timings: the pass's
    run_meta.json "timings_s" (cli stages or battery cases).
    """
    kind = WORKLOADS[workload]["kind"]

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def secs(name):
        return agg.get(name, {}).get("s", 0.0)

    m = {}
    for metric, stage in CLI_STAGES.items():
        m[metric] = float(timings.get(stage, 0.0)) if kind == "analyze" else 0.0
    for metric, cases in BATTERY_CASES.items():
        m[metric] = sum(float(timings.get(c, 0.0)) for c in cases) if kind == "verify" else 0.0
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    m["operators.toeplitz_svd.flops"] = counts.get("operators.toeplitz_svd.flops", 0)
    jordan_norms = sum(calls(f"operators.jordan.{k}_norm") for k in ("resolvent", "fractional", "semigroup"))
    m["operators.jordan.svds_per_norm"] = _ratio(calls("operators.toeplitz_svd"), jordan_norms)
    m["resolvent.probe.points"] = counts.get("resolvent.probe.points", 0)
    m["resolvent.probe.edge_frac"] = _ratio(
        counts.get("resolvent.probe.edge", 0), counts.get("resolvent.probe.points", 0)
    )
    m["resolvent.spectral_bounds.s"] = secs("resolvent.spectral_bounds")
    m["resolvent.tame_lines"] = calls("resolvent.tame_line")
    m["decaylab.check_consistency.calls"] = calls("decaylab.check_consistency")
    m["multiplier.eval_all.nodes"] = counts.get("multiplier.eval_all.nodes", 0)
    m["multiplier.evals_per_apply"] = _ratio(calls("multiplier.eval_all"), calls("multiplier.apply"))
    m["multiplier.fft.calls"] = calls("multiplier.fft")
    m["trace.wall_s"] = wall_s
    m["trace.top_span_share"] = _ratio(top_s, wall_s)
    return m
