"""Print every metric by name and unit, check outputs, and rerun on a second seed.

    python3 perfbench/report.py

For each workload it makes one untraced run (end-to-end metrics) and one
traced run (per-layer metrics) on SEED, each of BENCHMARK.json's run_seconds,
checks every pass against the committed reference, and prints:
  - the tracing overhead: traced wall_s minus untraced wall_s;
  - the self-time check: the top-level spans must cover the traced pass
    apart from at most SPAN_REMAINDER of it (the cli and battery glue
    outside every wrapped call: argument parsing, printing, check
    arithmetic), and the spans with the most self time.
Then it runs each workload once on SECOND_SEED and records the
verdicts in perfbench/out/second_seed.json.  Exit code 0 when every
output matched the reference and every check held, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads

SPAN_REMAINDER = 0.05
SEED = 0
SECOND_SEED = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    ok = True
    try:
        run.check_checkout()
        for workload in workloads.WORKLOADS:
            plain = run.measure(workload, SEED, seconds, trace=0)
            traced = run.measure(workload, SEED, seconds, trace=1)
            for record in (plain, traced):
                print("\n".join(run.describe(record, spec)))
                ok &= record["failed"] == 0
            overhead = traced["metrics"]["trace.wall_s"] - plain["metrics"]["wall_s"]
            print(f"  tracing overhead: {overhead:+.4f} s "
                  f"({overhead / plain['metrics']['wall_s']:+.2%} of untraced wall_s)")
            share = traced["metrics"]["trace.top_span_share"]
            held = share >= 1.0 - SPAN_REMAINDER
            ok &= held
            print(f"  top-level spans cover {share:.2%} of the traced pass "
                  f"(remainder allowed {SPAN_REMAINDER:.0%}): {'ok' if held else 'NOT MET'}")
            top = sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:8]
            for name, agg in top:
                print(f"    self {agg['self_s']:9.4f} s  inclusive {agg['s']:9.4f} s  "
                      f"{agg['calls']:7d} calls  {name}")
        second = {}
        for workload in workloads.WORKLOADS:
            record = run.measure(workload, SECOND_SEED, 0, trace=0)
            second[workload] = {"verdicts": record["verdicts"], "correct": record["failed"] == 0,
                                "mismatches": record["mismatches"]}
            ok &= record["failed"] == 0
            print(f"second seed {SECOND_SEED}, {workload}: verdicts {record['verdicts']}, "
                  f"matches reference: {record['failed'] == 0}")
        os.makedirs(run.OUT, exist_ok=True)
        with open(os.path.join(run.OUT, "second_seed.json"), "w", encoding="utf-8") as fh:
            json.dump({"seed": SECOND_SEED, "workloads": second}, fh, indent=1, sort_keys=True)
    except (run.RunError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("report: all outputs match the reference" if ok else "report: CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
