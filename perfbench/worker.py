"""One fresh workload process: set up, then run passes of ``cli.main``.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
With ``--setup-only`` it times one set-up and exits.  Otherwise it runs
passes in a closed loop with one client (the next pass starts when the
previous one ends) until ``--seconds`` have passed, at least one pass,
checks every pass's outputs against the committed reference and writes
one JSON result file.  With ``--trace 1`` the tracer wraps the program's
functions after set-up and each pass yields the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time


def _setup(kind, config_path):
    """Import semistab and, for analyze, load and validate the config,
    which builds the model.  Returns (cli module, seconds)."""
    t0 = time.perf_counter()
    from semistab import cli

    if kind == "analyze":
        cli.load_config(config_path)
    return cli, time.perf_counter() - t0


def _blas_info():
    """Version string and thread count of every OpenBLAS the process loaded."""
    out = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["threads"] = get_threads()
                info["config"] = get_config().decode()
                break
            if "threads" in info:
                break
        out.append(info)
    return out


def _versions():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_info(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--config", default="")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-reference", action="store_true", help="skip the comparison")
    args = parser.parse_args(argv)

    import reference
    import workloads

    kind = workloads.WORKLOADS[args.workload]["kind"]
    cli, setup_s = _setup(kind, args.config)
    import semistab

    if not os.path.abspath(semistab.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"semistab imported from {semistab.__file__}, not from {args.src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    ref = None if args.no_reference else reference.load(args.workload)
    tracer = None
    if args.trace:
        from semistab import battery

        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        # run_battery reads its cases from this list, so wrap the entries
        battery.ALL_CASES[:] = [
            (name, tracer.wrap_call(f"battery.{name}", fn)) for name, fn in battery.ALL_CASES
        ]
        result["rebinds"] = {f"{m}.{a}": n for (m, a), n in tracer.rebinds.items()}

    argv_pass = workloads.pass_argv(args.workload, args.seed, args.config, args.out_dir)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        mark = tracer.mark() if tracer else None
        sink = io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv_pass)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        outputs = reference.read_outputs(kind, args.out_dir, code)
        rec = {"exit": code, "wall_s": wall, "cpu_s": cpu, "verdicts": _verdicts(kind, outputs)}
        if ref is not None:
            cmp = reference.compare(kind, args.seed, outputs, ref)
            rec.update(ops=cmp.ops, passed_ops=cmp.passed_ops, mismatches=cmp.mismatches,
                       failed_checks=cmp.failed_checks, byte_identical=cmp.byte_identical)
        if tracer:
            with open(os.path.join(args.out_dir, "run_meta.json"), encoding="utf-8") as fh:
                timings = json.load(fh)["timings_s"]
            agg, counts, top = tracer.aggregate(mark)
            rec["layers"] = workloads.layer_metrics(args.workload, agg, counts, top, wall, timings)
            rec["spans"] = agg
        passes.append(rec)
        if time.perf_counter() >= deadline:
            break
    if tracer:
        tracer.uninstall()
        _write_spans(tracer, os.path.join(args.out_dir, "spans.json"))
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _verdicts(kind, outputs):
    summary = outputs["summary"]
    if kind == "verify":
        return {c["name"]: "PASS" if c["passed"] else "FAIL" for c in summary["cases"]}
    return {"overall": summary.get("overall")}


def _write_spans(tracer, path):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p, _ in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "names": names, "spans": rows}, fh)


if __name__ == "__main__":
    sys.exit(main())
