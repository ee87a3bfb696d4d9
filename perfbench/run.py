"""Benchmark entry point: one run of one workload, last line a JSON result.

    python3 perfbench/run.py --workload analyze-jordan --seed 0 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src``.  A run measures set-up in
SETUP_SAMPLES fresh processes (the workload process is one of them) and
then runs passes of ``cli.main`` in the workload process for
``--seconds``.  Everything it writes goes under ``perfbench/out``.
With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The exit code is
0 when a result was printed, also when outputs mismatch the reference
(``correct`` is then false); it is nonzero, without a result, when the
checkout has no program or the workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0

sys.path.insert(0, HERE)
import reference  # noqa: E402
import workloads  # noqa: E402


class RunError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("SEMISTAB_THREADS", None)
    return env


def _worker(args, deadline):
    """Run worker.py with ``args``; return its JSON result."""
    result_path = args[args.index("--result") + 1]
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time limit reached before the workload process started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise RunError(f"workload process exceeded {TIME_LIMIT_S:g} s") from None
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _prepare(workload, seed, trace):
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = ""
    if workloads.WORKLOADS[workload]["kind"] == "analyze":
        config_path = os.path.join(run_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(workloads.config_for(workload, seed), fh, indent=1)
    return run_dir, config_path


def _common_args(workload, seed, config_path, out_dir, result):
    return ["--workload", workload, "--seed", str(seed), "--config", config_path,
            "--out-dir", out_dir, "--result", result]


def check_checkout():
    if not os.path.isfile(os.path.join(SRC, "semistab", "cli.py")):
        raise RunError(f"no program to measure: {SRC}/semistab/cli.py is missing")


def single_pass_outputs(workload, seed):
    """Outputs of one untimed pass, for building the reference."""
    check_checkout()
    run_dir, config_path = _prepare(workload, seed, "ref")
    out_dir = os.path.join(run_dir, "outputs")
    result = _worker(_common_args(workload, seed, config_path, out_dir,
                                  os.path.join(run_dir, "result.json")) + ["--no-reference"],
                     time.monotonic() + TIME_LIMIT_S)
    kind = workloads.WORKLOADS[workload]["kind"]
    return reference.read_outputs(kind, out_dir, result["passes"][0]["exit"])


def provenance():
    prov = {"git_commit": None, "nproc": len(os.sched_getaffinity(0))}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            prov["git_commit"] = proc.stdout.strip() or None
        except OSError:  # no git program
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "semistab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    prov["src_sha256"] = digest.hexdigest()
    prov["blas_env"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return prov


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns the full record (metrics, provenance, detail)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    check_checkout()
    run_dir, config_path = _prepare(workload, seed, trace)
    out_dir = os.path.join(run_dir, "outputs")

    def setup_samples(first, count):
        for i in range(first, first + count):
            res = _worker(_common_args(workload, seed, config_path, out_dir,
                                       os.path.join(run_dir, f"setup{i}.json")) + ["--setup-only"],
                          deadline)
            setups.append(res["setup_s"])

    # set-up samples before and after the workload process, so that they
    # see the host at different times
    setups = []
    extra = 0 if trace else SETUP_SAMPLES - 1
    setup_samples(0, extra // 2)
    result = _worker(_common_args(workload, seed, config_path, out_dir,
                                  os.path.join(run_dir, "result.json"))
                     + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append(result["setup_s"])
    setup_samples(extra // 2, extra - extra // 2)
    passes = result["passes"]
    walls = [p["wall_s"] for p in passes]
    ops = sum(p["ops"] for p in passes)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "attempted": ops,
        "failed": sum(len(p["mismatches"]) for p in passes),
        "pass_frac": sum(p["passed_ops"] for p in passes) / ops,
        "wall_all_s": walls,
        "setup_all_s": setups,
        "mismatches": sorted({m for p in passes for m in p["mismatches"]}),
        "failed_checks": sorted({m for p in passes for m in p["failed_checks"]}),
        "byte_identical": [p["byte_identical"] for p in passes],
        "verdicts": passes[-1]["verdicts"],
        "provenance": dict(provenance(), **result["versions"]),
    }
    if trace:
        names = passes[0]["layers"]
        record["metrics"] = {k: statistics.median(p["layers"][k] for p in passes) for k in names}
        record["rebinds"] = result["rebinds"]
        record["spans"] = _sum_spans(p["spans"] for p in passes)
    else:
        record["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_frac": record["pass_frac"],
        }
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def _sum_spans(per_pass):
    total = {}
    for agg in per_pass:
        for name, a in agg.items():
            t = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in t:
                t[k] += a[k]
    return total


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def describe(record, spec):
    """Human-readable lines: provenance, every metric with its unit, checks."""
    section = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    prov = record["provenance"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['passes']} passes in a closed loop, one client",
        "provenance: git {git_commit}, src sha256 {src_sha256:.12}, python {python}, numpy {numpy}, "
        "scipy {scipy}, nproc {nproc}".format(**prov),
    ]
    for blas in prov["openblas"]:
        lines.append(f"  {blas['library']}: {blas.get('config')} threads={blas.get('threads')}")
    lines.append(f"  BLAS env: {prov['blas_env']}")
    for name, value in record["metrics"].items():
        lines.append(f"  {name} = {value!r} {units.get(name, '?')}")
    walls = sorted(record["wall_all_s"])
    lines.append(f"  wall per pass: median {statistics.median(walls):.6g} s, "
                 f"max (p100) {walls[-1]:.6g} s over n={len(walls)}")
    lines.append(f"  operations: {record['attempted']} attempted, {len(record['mismatches'])} distinct "
                 f"reference mismatches, fail_frac {1.0 - record['pass_frac']:.6g}")
    for what in record["failed_checks"]:
        lines.append(f"  failed check: {what}")
    for what in record["mismatches"][:20]:
        lines.append(f"  MISMATCH: {what}")
    if record["byte_identical"][0] is not None:
        lines.append(f"  summary.json byte-identical to reference (information only): "
                     f"{all(record['byte_identical'])}")
    lines.append(f"  verdicts: {record['verdicts']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one workload of the semistab benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    for line in describe(record, spec):
        print(line)
    section = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
