"""Before/after numbers for the multiplier layer, written to BENCH_multiplier.json.

    python3 tools/bench_multiplier.py --parent ../semistab-parent --change . \
        --out BENCH_multiplier.json

``--parent`` and ``--change`` are two checkouts of this repository (each
with ``src/semistab`` and ``perfbench/``).  For each, the script records:

- the durations of the ``mult.norms`` and ``laplace.identity`` battery
  cases from direct calls of ``battery.case_mult_norms`` and
  ``battery.case_laplace_identity``, one fresh process per seed in
  ``CASE_SEEDS``;
- the per-layer multiplier counts and battery case times of one traced
  ``verify-examples`` run (``perfbench/run.py --trace 1``, seed 0);
- the end-to-end ``wall_s``, ``cpu_s``, ``peak_rss_mb``, ``setup_s`` and
  ``pass_frac`` of ``PAIRS`` untraced parent/change run pairs of each of
  ``verify-examples`` and ``analyze-jordan`` (``perfbench/run.py
  --trace 0``, seeds ``FIRST_SEED`` onwards), with the quartiles of each
  side and the number of pairs in which the change reads lower.

Parent and change runs alternate, and the side that runs first in a
pair alternates too, so both see the host at similar times.
A full run takes about 25 minutes on a 2-CPU host.
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

CASE_TIMER = """
import json, sys
from semistab import battery
seed = int(sys.argv[1])
out = {}
for case in (battery.case_mult_norms, battery.case_laplace_identity):
    res = case(seed)
    out[res.name] = res.duration
print(json.dumps(out))
"""

TRACED_KEYS = [
    "multiplier.eval_all.calls",
    "multiplier.apply.calls",
    "multiplier.fft.calls",
    "multiplier.pq_lower.calls",
    "battery.mult_norms_s",
    "battery.laplace_identity_s",
    "operators.fftconvolve.calls",
]

END_TO_END_KEYS = ["wall_s", "cpu_s", "peak_rss_mb", "setup_s", "pass_frac"]


def _env(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env.pop("SEMISTAB_THREADS", None)
    return env


def _case_times(tree, seed):
    proc = subprocess.run([sys.executable, "-c", CASE_TIMER, str(seed)], env=_env(tree),
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", default="BENCH_multiplier.json")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    cases = {name: {} for name in trees}
    for seed in CASE_SEEDS:
        for name, tree in trees.items():
            cases[name][str(seed)] = _case_times(tree, seed)
            print(f"{name} seed {seed}: {cases[name][str(seed)]}", flush=True)

    traced = {}
    for name, tree in trees.items():
        metrics = _perfbench(tree, "verify-examples", 0, 1)
        traced[name] = {key: metrics[key] for key in TRACED_KEYS}
        print(f"{name} traced: {traced[name]}", flush=True)

    end_to_end = {}
    for workload in WORKLOADS:
        runs = {name: {key: [] for key in END_TO_END_KEYS} for name in trees}
        for i in range(PAIRS):
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
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
        "what": "multiplier layer: mult.norms and laplace.identity, parent vs change",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "case_seconds_direct_calls": cases,
        "traced_verify_examples_seed0": traced,
        "end_to_end": end_to_end,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
