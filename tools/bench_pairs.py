"""Parent-versus-change benchmark record, written to a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ../semistab-parent --change . \
        --out BENCH_block_sum.json

``--parent`` and ``--change`` are two checkouts of this repository (each
with ``src/semistab`` and ``perfbench/``).  For each, the script records:

- the duration of every battery case (``battery.ALL_CASES``) from direct
  calls, one fresh process per seed in ``CASE_SEEDS``.  Direct calls
  bypass ``cli.main``, so they run at the default OpenBLAS thread count
  and cannot show the CLI's one-thread cap;
- the jordan.rates first-call stall: the case timed through
  ``cli.main(["verify-examples", "--only", "jordan.rates"])`` in
  ``STALL_ROUNDS`` fresh processes per checkout, and the number of those
  passes over ``STALL_S`` seconds (a pass takes 0.2-0.4 s without a
  stall);
- the block-sum worst case: ``JordanSumModel.fractional_norm`` at tau = 0,
  sigma in ``WORST_SIGMAS`` and t in ``WORST_TIMES`` on the models
  ``WORST_MODELS``, where every block has nearly the same norm, so the
  bounds of the branch and bound prune little.  Each one-time call's
  time, SVD count (matrices, whether or not a call stacks several) and
  count of ``_exp_convolve`` calls (one FFT call per convolved group),
  in ``WORST_ROUNDS`` fresh processes per checkout;
  each timed call includes building the model's Phi rows for that
  sigma;
- the peak resident set after each battery case of one
  ``cli.main(["verify-examples"])`` pass (seed 0): ``ru_maxrss`` read as
  each case returns, in ``RSS_ROUNDS`` fresh processes per checkout.
  ``ru_maxrss`` is a high-water mark, so a case's value is the process
  peak up to its end, and the case that raises it sets the pass's peak;
- the start-up footprint of ``analyze``, in ``STARTUP_ROUNDS`` fresh
  processes per checkout: the set-up time as perfbench's worker times it
  (``from semistab import cli`` and ``cli.load_config`` on
  ``JORDAN_CONFIG``, after importing perfbench's ``reference`` and
  ``workloads`` as the worker does), ``ru_maxrss`` after the import and
  after one ``analyze`` pass, and the ``semistab.*``, ``_hashlib`` and
  ``scipy*`` modules loaded by then;
- the per-layer metrics under ``TRACED_PREFIXES`` of one traced run of
  each workload (``perfbench/run.py --trace 1``, seed 0);
- the end-to-end ``wall_s``, ``cpu_s``, ``peak_rss_mb``, ``setup_s`` and
  ``pass_frac`` of ``PAIRS`` untraced parent/change run pairs of each
  workload (``perfbench/run.py --trace 0``, seeds ``FIRST_SEED``
  onwards), with the quartiles of each side and the number of pairs in
  which the change reads lower.

Parent and change processes alternate, and the side that runs first in a
round alternates too, so both see the host at similar times.  A full run
takes about 25 minutes on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

CASE_SEEDS = (0, 1, 2)
PAIRS = 10
FIRST_SEED = 801
WORKLOADS = ("verify-examples", "analyze-jordan")
WORST_MODELS = ((0.5, 0.5, 10**4), (0.5, 0.9, 10**4))
WORST_SIGMAS = (0.1, 2.0)
WORST_TIMES = (0.0, 1.0, 20.0)
WORST_ROUNDS = 5
STALL_ROUNDS = 24
STALL_S = 0.8
RSS_ROUNDS = 6
STARTUP_ROUNDS = 20

CASE_TIMER = """
import json, sys
from semistab import battery
seed = int(sys.argv[1])
print(json.dumps({name: case(seed).duration for name, case in battery.ALL_CASES}))
"""

STALL_TIMER = """
import contextlib, io, json, os, tempfile
from semistab import cli
with tempfile.TemporaryDirectory() as tmp:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify-examples", "--only", "jordan.rates", "--out-dir", tmp])
    with open(os.path.join(tmp, "run_meta.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["timings_s"]["jordan.rates"]
print(json.dumps(seconds))
"""

CASE_RSS = """
import contextlib, io, json, resource, tempfile
from semistab import battery, cli
def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
peaks = {"before": maxrss_mb()}
def probed(name, case):
    def run(seed=0):
        result = case(seed=seed)
        peaks[name] = maxrss_mb()
        return result
    return run
# cli.main reads its cases from this list, so wrap the entries
battery.ALL_CASES[:] = [(name, probed(name, case)) for name, case in battery.ALL_CASES]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify-examples", "--out-dir", tmp])
print(json.dumps(peaks))
"""

STARTUP = """
import contextlib, io, json, os, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
import reference, workloads
def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workloads.config_for("analyze-jordan", 0), fh)
    t0 = time.perf_counter()
    from semistab import cli
    import_rss_mb = maxrss_mb()
    cli.load_config(path)
    out = {"setup_s": time.perf_counter() - t0, "import_rss_mb": import_rss_mb}
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(workloads.pass_argv("analyze-jordan", 0, path, os.path.join(tmp, "out")))
out["analyze_rss_mb"] = maxrss_mb()
out["modules"] = sorted(m for m in sys.modules
                        if m.split(".")[0] in ("semistab", "_hashlib", "scipy"))
print(json.dumps(out))
"""

WORST_CASE = """
import json, sys, time, warnings
import numpy as np
from semistab import operators
models, sigmas, times = json.loads(sys.argv[1])
svds, convs = [0], [0]
svd, convolve = operators._toeplitz_norm, operators._exp_convolve
def counted(coeffs):
    svds[0] += len(np.atleast_2d(coeffs))  # one SVD per row of a stack
    return svd(coeffs)
def counted_convolve(rows, coeffs):
    convs[0] += 1
    return convolve(rows, coeffs)
operators._toeplitz_norm, operators._exp_convolve = counted, counted_convolve
warnings.simplefilter("ignore")
out = {}
for params in models:
    model = operators.JordanSumModel(*params)
    for sigma in sigmas:
        for t in times:
            before = svds[0], convs[0]
            start = time.perf_counter()
            model.fractional_norm([t], sigma, 0.0)
            out[f"{params} sigma={sigma} t={t}"] = [time.perf_counter() - start, svds[0] - before[0],
                                                    convs[0] - before[1]]
print(json.dumps(out))
"""

TRACED_PREFIXES = (
    "battery.",
    "multiplier.",
    "operators.jordan.",
    "operators.toeplitz_svd.",
    "operators.fftconvolve.",
)

END_TO_END_KEYS = ["wall_s", "cpu_s", "peak_rss_mb", "setup_s", "pass_frac"]


def _env(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def _child(tree, script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], env=_env(tree),
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _perfbench(tree, workload, seed, trace):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "20", "--trace", str(trace)]
    proc = subprocess.run(cmd, env=_env(tree), check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: perfbench reports reference mismatches on {workload} seed {seed}")
    return {key: metric["value"] for key, metric in result["metrics"].items()}


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": med, "q1": q1, "q3": q3}


def _alternating(i):
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    cases = {name: {} for name in trees}
    for i, seed in enumerate(CASE_SEEDS):
        for name in _alternating(i):
            cases[name][str(seed)] = _child(trees[name], CASE_TIMER, str(seed))
            print(f"{name} seed {seed}: {cases[name][str(seed)]}", flush=True)

    stalls = {name: [] for name in trees}
    for i in range(STALL_ROUNDS):
        for name in _alternating(i):
            stalls[name].append(_child(trees[name], STALL_TIMER))
    stall = {name: {"s": _summary(runs), "passes_over_stall_s": sum(s > STALL_S for s in runs)}
             for name, runs in stalls.items()}
    stall["stall_s"] = STALL_S
    print(f"jordan.rates through cli.main: {stall}", flush=True)

    rss_runs = {name: [] for name in trees}
    for i in range(RSS_ROUNDS):
        for name in _alternating(i):
            rss_runs[name].append(_child(trees[name], CASE_RSS))
    case_rss = {name: {case: _summary([r[case] for r in runs]) for case in runs[0]}
                for name, runs in rss_runs.items()}
    print(f"verify-examples peak RSS per case: {case_rss}", flush=True)

    startup_runs = {name: [] for name in trees}
    for i in range(STARTUP_ROUNDS):
        for name in _alternating(i):
            startup_runs[name].append(_child(trees[name], STARTUP, os.path.join(trees[name], "perfbench")))
    startup = {}
    for name, runs in startup_runs.items():
        startup[name] = {key: _summary([r[key] for r in runs])
                         for key in ("setup_s", "import_rss_mb", "analyze_rss_mb")}
        startup[name]["modules"] = sorted({tuple(r["modules"]) for r in runs})
    print(f"analyze start-up footprint: {startup}", flush=True)

    spec = json.dumps([WORST_MODELS, WORST_SIGMAS, WORST_TIMES])
    rounds = {name: [] for name in trees}
    for i in range(WORST_ROUNDS):
        for name in _alternating(i):
            rounds[name].append(_child(trees[name], WORST_CASE, spec))
            print(f"{name} worst case round {i}: {rounds[name][-1]}", flush=True)
    worst = {}
    for key in rounds["parent"][0]:
        row = {}
        for name in trees:
            row[name] = {"s": _summary([r[key][0] for r in rounds[name]]),
                         "svds": sorted({r[key][1] for r in rounds[name]}),
                         "convolutions": sorted({r[key][2] for r in rounds[name]})}
        row["time_ratio_of_medians"] = row["change"]["s"]["median"] / row["parent"]["s"]["median"]
        worst[key] = row

    traced = {}
    for workload in WORKLOADS:
        traced[workload] = {}
        for name, tree in trees.items():
            metrics = _perfbench(tree, workload, 0, 1)
            traced[workload][name] = {key: value for key, value in metrics.items()
                                      if key.startswith(TRACED_PREFIXES)}
            print(f"{name} traced {workload}: {traced[workload][name]}", flush=True)

    end_to_end = {}
    for workload in WORKLOADS:
        runs = {name: {key: [] for key in END_TO_END_KEYS} for name in trees}
        for i in range(PAIRS):
            for name in _alternating(i):
                metrics = _perfbench(trees[name], workload, FIRST_SEED + i, 0)
                for key in END_TO_END_KEYS:
                    runs[name][key].append(metrics[key])
                print(f"{workload} {name} seed {FIRST_SEED + i}: {metrics}", flush=True)
        record = {name: {key: _summary(vals) for key, vals in runs[name].items()} for name in trees}
        record["change_lower_in_pairs"] = {
            key: sum(c < p for p, c in zip(runs["parent"][key], runs["change"][key]))
            for key in END_TO_END_KEYS
        }
        end_to_end[workload] = record

    record = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "case_seconds_direct_calls": cases,
        "jordan_rates_stall_via_cli": stall,
        "block_sum_worst_case": worst,
        "verify_examples_peak_rss_mb_per_case": case_rss,
        "analyze_startup": startup,
        "traced_seed0": traced,
        "end_to_end": end_to_end,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
