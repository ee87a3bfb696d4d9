"""Compare the CLI outputs of two checkouts of this repository.

    python3 tools/compare_outputs.py --parent ../semistab-parent --change . \
        [--work /tmp/compare] [--json report.json]

``--parent`` and ``--change`` are two checkouts (each with ``src/semistab``).
Both run the same commands, each into its own output directory:

- ``verify-examples --seed 0``, ``1`` and ``2``;
- ``analyze`` and ``decay`` on perfbench's ``JORDAN_CONFIG`` and on the
  README's config reference (both read from the change checkout);
- ``mult --seed 0`` and ``frac``.

For each command the report gives the two exit codes and, for every file
either side wrote but ``run_meta.json`` (wall-clock timings), whether the
two files are byte-identical.  For each ``summary.json`` it lists every
numeric field whose value differs, with both values and the relative drift
|new - old| / max(|old|, |new|), and the largest drift of the command.
The script exits 0 when every file is byte-identical and every exit code
agrees, else 1.  A full run takes about a minute on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile

MAIN = "import sys; from semistab.cli import main; sys.exit(main(sys.argv[1:]))"


def _configs(change):
    """{name: config} for perfbench's jordan-sum workload and the README config."""
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(change, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(os.path.join(change, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"### Config reference\n\n```json\n(.*?)```", fh.read(), re.S).group(1)
    return {"jordan": workloads.JORDAN_CONFIG, "readme": json.loads(block)}


def _commands(config_paths):
    """(label, argv) of every compared run, without --out-dir."""
    runs = [(f"verify-examples-seed{seed}", ["verify-examples", "--seed", str(seed)]) for seed in (0, 1, 2)]
    for sub in ("analyze", "decay"):
        runs += [(f"{sub}-{name}", [sub, "--config", path]) for name, path in config_paths.items()]
    return runs + [("mult-seed0", ["mult", "--seed", "0"]), ("frac", ["frac"])]


def _run(tree, argv, out_dir):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv, "--out-dir", out_dir], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return proc.returncode


def _numeric_leaves(value, path=""):
    """{dotted path: number} of every int or float (not bool) in a JSON value."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items() for k, v in _numeric_leaves(item, f"{path}.{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _numeric_leaves(item, f"{path}[{i}]").items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {path.lstrip("."): value}
    return {}


def _drift(old, new):
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def _compare(old_dir, new_dir):
    """Per-file identity and the moved summary fields of one command."""
    names = sorted((set(os.listdir(old_dir)) | set(os.listdir(new_dir))) - {"run_meta.json"})
    files, moved = {}, []
    for name in names:
        blobs = []
        for d in (old_dir, new_dir):
            path = os.path.join(d, name)
            blobs.append(open(path, "rb").read() if os.path.exists(path) else None)
        files[name] = blobs[0] is not None and blobs[0] == blobs[1]
        if name == "summary.json" and None not in blobs and not files[name]:
            old, new = (_numeric_leaves(json.loads(b)) for b in blobs)
            for key in sorted(old.keys() & new.keys()):
                drift = _drift(old[key], new[key])
                if drift:
                    moved.append({"field": key, "old": old[key], "new": new[key], "drift": drift})
    return files, moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--work", help="directory for configs and outputs (default: a new temporary one)")
    parser.add_argument("--json", help="also write the report to this file")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare-outputs-")
    os.makedirs(work, exist_ok=True)
    config_paths = {}
    for name, config in _configs(args.change).items():
        config_paths[name] = os.path.join(work, f"{name}.json")
        with open(config_paths[name], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    report, same = [], True
    for label, argv_ in _commands(config_paths):
        dirs = [os.path.join(work, side, label) for side in ("parent", "change")]
        codes = [_run(tree, argv_, d) for tree, d in zip((args.parent, args.change), dirs)]
        files, moved = _compare(*dirs)
        same &= codes[0] == codes[1] and all(files.values())
        report.append({"command": label, "exit": codes, "identical": files, "moved": moved,
                       "max_drift": max((m["drift"] for m in moved), default=0.0)})
        print(f"{label}: exit {codes[0]} / {codes[1]}")
        for name, identical in files.items():
            print(f"  {name}: {'identical' if identical else 'DIFFERS'}")
        for m in moved:
            print(f"  summary {m['field']}: {m['old']!r} -> {m['new']!r} (relative {m['drift']:.3g})")
    print("all outputs identical" if same else "outputs differ")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
