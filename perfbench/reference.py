"""Committed reference outputs and the comparison that gates every pass.

An operation is one compared output: the exit code, each case and check
verdict of verify-examples, each verify.csv row, and each leaf of an
analyze summary.json.  An operation *mismatches* when it differs from
the reference: verdicts, strings and booleans must match exactly and
numbers within ``|x - ref| <= ATOL + RTOL * |ref|``.  A verdict that
differs in either direction is a mismatch, so the known-red clause of
criterion 6 must stay red.

The battery draws some inputs from the seed, so verify.csv is stored
for each reference seed.  For any other seed a row is compared on the
fields that read the same on every reference seed; the rest of that
row is seed-dependent and not checked.  analyze does not use the seed
beyond echoing it, so its summary is compared in full apart from the
``seed`` and ``inputs_digest`` fields.  Output fields the reference lacks
are not compared; a field it has and the output lacks is a mismatch.

Regenerate with ``python3 perfbench/reference.py --seeds 0 1 2``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys

RTOL = 1e-5
ATOL = 1e-8
SEED_FIELDS = ("seed", "inputs_digest")

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")


def read_outputs(workload_kind, out_dir, exit_code):
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        text = fh.read()
    out = {"exit": exit_code, "summary": json.loads(text)}
    if workload_kind == "verify":
        with open(os.path.join(out_dir, "verify.csv"), newline="", encoding="utf-8") as fh:
            out["rows"] = list(csv.DictReader(fh))
    else:
        out["summary_text"] = text
    return out


def _same(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b or a == b and type(a) is type(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= ATOL + RTOL * abs(b)
    return a == b


def _same_field(a, b):
    """CSV fields: numeric when both parse as floats, else exact text."""
    try:
        return _same(float(a), float(b))
    except ValueError:
        return a == b


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


class Comparison:
    def __init__(self):
        self.ops = 0
        self.mismatches = []
        self.failed_checks = []
        self.byte_identical = None

    def op(self, ok, what):
        self.ops += 1
        if not ok:
            self.mismatches.append(what)

    @property
    def passed_ops(self):
        failed = set(self.mismatches) | set(self.failed_checks)
        return self.ops - len(failed)


def _normalise_seed(text, ref):
    for key in SEED_FIELDS:
        text = re.sub(rf'("{key}": )[^,\n]*', lambda m: m.group(1) + json.dumps(ref[key]), text)
    return text


def compare(workload_kind, seed, outputs, ref):
    """Compare one pass's outputs with the reference; see the module doc."""
    cmp = Comparison()
    cmp.op(outputs["exit"] == ref["exit"], f"exit code {outputs['exit']} (reference {ref['exit']})")
    if workload_kind == "verify":
        _compare_verify(cmp, seed, outputs, ref)
    else:
        _compare_analyze(cmp, outputs, ref)
    return cmp


def _compare_analyze(cmp, outputs, ref):
    got = dict(_leaves(outputs["summary"]))
    for path, want in _leaves(ref["summary"]):
        if path in SEED_FIELDS:
            continue
        have = got.get(path, "<missing>")
        cmp.op(_same(have, want), f"summary {path}: {have!r} (reference {want!r})")
        leaf = path.rsplit(".", 1)[-1]
        if leaf in ("verdict", "overall") and have == "FAIL":
            cmp.failed_checks.append(f"summary {path}: {have!r} (reference {want!r})")
    cmp.byte_identical = _normalise_seed(outputs["summary_text"], ref["summary"]) == ref["summary_text"]


def _compare_verify(cmp, seed, outputs, ref):
    cases = {c["name"]: c for c in outputs["summary"].get("cases", [])}
    for want in ref["cases"]:
        have = cases.get(want["name"], {"passed": None, "checks": []})
        cmp.op(have["passed"] == want["passed"], f"case {want['name']}: passed={have['passed']}")
        for i, wc in enumerate(want["checks"]):
            hc = have["checks"][i] if i < len(have["checks"]) else {}
            what = f"check {want['name']} / {wc['label']}: passed={hc.get('passed')}"
            cmp.op(hc.get("label") == wc["label"] and hc.get("passed") == wc["passed"]
                   and hc.get("informative") == wc["informative"], what)
            if hc.get("passed") is False and not hc.get("informative"):
                cmp.failed_checks.append(what)
    rows = outputs["rows"]
    ref_rows = ref["rows_by_seed"].get(str(seed))
    for i, invariant in enumerate(ref["invariant_fields"]):
        want = ref_rows[i] if ref_rows is not None else ref["rows_by_seed"][ref["seeds"][0]][i]
        fields = list(want) if ref_rows is not None else invariant
        have = rows[i] if i < len(rows) else {}
        bad = [f for f in fields if not _same_field(have.get(f, "<missing>"), want[f])]
        cmp.op(not bad, f"verify.csv row {i} ({want['case']}): {', '.join(bad)} differ")
    cmp.op(len(rows) == len(ref["invariant_fields"]),
           f"verify.csv has {len(rows)} rows (reference {len(ref['invariant_fields'])})")


def load(workload):
    with open(os.path.join(REF_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def make(workload, kind, outputs_by_seed):
    """Build a reference from outputs of several seeds."""
    seeds = sorted(outputs_by_seed, key=int)
    first = outputs_by_seed[seeds[0]]
    if kind == "analyze":
        return {"exit": first["exit"], "summary": first["summary"], "summary_text": first["summary_text"]}
    cases = [
        {"name": c["name"], "passed": c["passed"], "checks": c["checks"]}
        for c in first["summary"]["cases"]
    ]
    for s in seeds[1:]:
        other = outputs_by_seed[s]
        if other["summary"]["cases"] != first["summary"]["cases"] or other["exit"] != first["exit"]:
            raise SystemExit(f"{workload}: verdicts differ between seed {seeds[0]} and seed {s}")
    rows = {s: outputs_by_seed[s]["rows"] for s in seeds}
    invariant = []
    for i, row in enumerate(rows[seeds[0]]):
        invariant.append([f for f in row if all(rows[s][i][f] == row[f] for s in seeds)])
    return {
        "exit": first["exit"],
        "cases": cases,
        "seeds": seeds,
        "rows_by_seed": rows,
        "invariant_fields": invariant,
        "tolerance": {"rtol": RTOL, "atol": ATOL},
    }


def main(argv=None):
    import run  # the same runner the benchmark uses

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    os.makedirs(REF_DIR, exist_ok=True)
    for workload in WORKLOADS:
        kind = WORKLOADS[workload]["kind"]
        seeds = args.seeds if kind == "verify" else args.seeds[:1]
        outputs = {}
        for seed in seeds:
            outputs[str(seed)] = run.single_pass_outputs(workload, seed)
            print(f"{workload} seed {seed}: exit {outputs[str(seed)]['exit']}", file=sys.stderr)
        ref = make(workload, kind, outputs)
        with open(os.path.join(REF_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
