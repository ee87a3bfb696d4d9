"""Run every workload on several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 0 1 2 3 4 5 6 7 8 9 --out perfbench/baseline.json

Each run is one untraced ``run.py`` run.  For every end-to-end metric it
records the values, their median and quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread at or
above its BENCHMARK.json bound is flagged, because then a change of that
size cannot be told from noise.  One traced run per workload, on the
first seed, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import workloads


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads.WORKLOADS:
        records = [run.measure(workload, seed, seconds, trace=0) for seed in args.seeds]
        traced = run.measure(workload, args.seeds[0], seconds, trace=1)
        entry = {
            "correct": all(r["failed"] == 0 for r in records + [traced]),
            "passes": [r["passes"] for r in records],
            "metrics": {n: summarise([r["metrics"][n] for r in records]) for n in bounds},
            "per_layer": traced["metrics"],
        }
        out["workloads"][workload] = entry
        out["provenance"] = records[-1]["provenance"]
        for name, s in entry["metrics"].items():
            flag = "" if s["spread"] < bounds[name] else "  SPREAD AT OR ABOVE BOUND"
            steady &= not flag
            print(f"{workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        print(f"{workload}: outputs match the reference on every seed: {entry['correct']}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if steady and all(w["correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
