"""Batch front door: JSON config in, CSV tables and a JSON summary out.

Subcommands: analyze, decay, frac, mult, verify-examples; each takes only
the flags it reads.  Exit codes: 0 all checks pass, 1 an analysis or
consistency check failed, 2 the configuration or a flag is invalid (the
diagnostic names the offending field or flag).

Runs are single-threaded: ``main`` sets every OpenBLAS the process has
loaded to one thread for the run (``numcore.one_blas_thread``) and
restores the earlier counts afterwards.  The libraries are looked up
once, when this module is imported, so an OpenBLAS loaded later, such as
the scipy one that the defective-matrix branch of ``DenseMatrixModel``
loads mid-run, is not capped.  Library calls and other BLAS libraries are
left alone.  --threads and the config key "threads" are accepted and
validated for compatibility but have no effect.  Identical (config, seed)
pairs produce byte-identical summary.json; wall-clock timings go to a
separate run_meta.json.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

# the subcommands that run the battery import it; fraccalc and multiplier
# stay imported here, since perfbench/tracer.py finds the modules it wraps
# in sys.modules once cli is imported
from . import CSV_HEADER, decaylab, fraccalc, multiplier, numcore, operators, resolvent
from .errors import ConfigError, DomainError, InsufficientDataError, UnsupportedModelError

# CPython's built-in SHA-256: hashlib maps OpenSSL's libcrypto (several MB)
# for the one digest a run takes
try:
    from _sha2 import sha256
except ImportError:  # before Python 3.12
    try:
        from _sha256 import sha256
    except ImportError:  # a build without the built-in module
        from hashlib import sha256

DEFAULT_TOLERANCES = {"fit_tol": 0.1, "consistency_tol": 0.05}

# main's one-thread cap looks its libraries up here, not inside the first run,
# whose time the lookup (about 0.5 ms) would otherwise carry
numcore.loaded_openblas()

# seeds key Philox streams with the stream number above bit 64 (battery._rng)
SEED_LIMIT = 2**64

_TOP_LEVEL_KEYS = ("operator", "grids", "geometry", "indices", "tolerances", "seed", "threads", "out_dir")


def format_complex(z):
    """Fixed CSV encoding of complex values: 're+imi'."""
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _fail(field, msg):
    raise ConfigError(f"{field}: {msg}", field)


def _check(val, field, kind, finite=True):
    """JSON type check: str and bool match exactly, int and float take no
    bool, float takes ints that do not overflow a float; a float must be finite
    unless ``finite`` is False."""
    if kind in (str, bool):
        ok = isinstance(val, kind)
    else:
        ok = isinstance(val, int if kind is int else (int, float)) and not isinstance(val, bool)
    if not ok:
        _fail(field, f"expected {kind.__name__}, got {type(val).__name__}")
    if kind is float and isinstance(val, int):
        try:
            float(val)
        except OverflowError:
            _fail(field, "integer too large for a float")
    if finite and isinstance(val, float) and not math.isfinite(val):
        _fail(field, f"must be finite, got {val}")
    return val


def _check_keys(obj, known, path):
    for key in obj:
        if key not in known:
            _fail(f"{path}.{key}" if path else str(key), f"unknown key; expected one of {tuple(known)}")


def _need(cfg, field, path, kind=None):
    name = f"{path}.{field}" if path else field
    if field not in cfg:
        _fail(name, "missing")
    return cfg[field] if kind is None else _check(cfg[field], name, kind)


def _entries(entries, path):
    """The complex matrix of rows of equal length whose entries are numbers
    or [re, im] pairs."""
    if not (isinstance(entries, (list, tuple)) and entries
            and all(isinstance(r, (list, tuple)) and len(r) == len(entries[0]) for r in entries)):
        _fail(path, "expected a nonempty list of rows of equal length")
    out = np.empty((len(entries), len(entries[0])), dtype=complex)
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            parts = e if isinstance(e, (list, tuple)) and len(e) == 2 else (e,)
            out[i, j] = complex(*(_check(x, f"{path}[{i}][{j}]", float) for x in parts))
    return out


# a geometry exponent: a number, which may be infinite
_exponent = partial(_check, kind=float, finite=False)


def _lattice(val, path):
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        _fail(path, "expected a [p_convex, q_concave] pair")
    return tuple(float(_exponent(x, path)) for x in val)


def _table(build, rules, tag=()):
    """(build, the rule of each of its parameters, the keys an object may
    have, the parameters without a default); made at import, not per call."""
    params = inspect.signature(build).parameters
    return build, rules, (*tag, *rules), {name for name, p in params.items() if p.default is p.empty}


# each operator kind's model and the rule of each constructor parameter
_OPERATORS = {kind: _table(model, rules, ("kind",)) for kind, model, rules in [
    ("dense-matrix", operators.DenseMatrixModel, {"entries": _entries}),
    ("diagonal-symbol", operators.DiagonalSymbolModel,
     {"a": float, "b": float, "s_start": float, "s_max": float, "grid_count": int, "sobolev": bool}),
    ("jordan-sum", operators.JordanSumModel, {"gamma": float, "delta": float, "n_max": int, "n_start": int}),
    ("operator-matrix", operators.OperatorMatrixModel, {"n": int}),
]}

_GEOMETRY_FIELDS = {"hilbert": bool, "fourier_type": _exponent, "type_p": _exponent, "cotype_q": _exponent,
                    "r_resolvent_growth_asserted": bool, "zeta_negative_asserted": bool, "lattice": _lattice}
_GEOMETRY = _table(decaylab.GeometryDescriptor, _GEOMETRY_FIELDS)
_GRID = _table(numcore.geometric_grid, {"start": float, "stop": float, "count": int})
_FOURIER_GRID = _table(multiplier.FourierGridSpec, {"period": float, "samples": int})


def _object(raw, path, table, build=None):
    """The JSON object ``raw`` at ``path`` built by its table (or by ``build``):
    a null field is not given; a given one passes its rule, a JSON type for
    ``_check`` or a function of (value, path); a DomainError names ``path``."""
    make, rules, keys, required = table
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    _check_keys(raw, keys, path)
    kwargs = {}
    for name, rule in rules.items():
        val = raw.get(name)
        if val is not None:
            field = f"{path}.{name}"
            kwargs[name] = _check(val, field, rule) if isinstance(rule, type) else rule(val, field)
        elif name in required:
            _fail(f"{path}.{name}", "missing")
    try:
        return (build or make)(**kwargs)
    except DomainError as exc:
        _fail(path, str(exc))


def _validate_grid(g, path):
    def nodes(start, stop, count):
        if count < 2:
            _fail(f"{path}.count", f"need at least 2 nodes, got {count}")
        if not (0 < start < stop):
            _fail(f"{path}.start", f"need 0 < start < stop, got [{start}, {stop}]")
        return numcore.geometric_grid(float(start), float(stop), count)

    return _object(g, path, _GRID, nodes)


def _validate_operator(op, path):
    """The model of the operator object at ``path``, built by its kind's table."""
    if not isinstance(op, dict):
        _fail(path, "expected an object")
    kind = _need(op, "kind", path, str)
    if kind not in _OPERATORS:
        _fail(f"{path}.kind", f"unknown kind {kind!r}; expected one of {tuple(_OPERATORS)}")
    return _object(op, path, _OPERATORS[kind])


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        _fail("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        _fail("config", f"invalid JSON: {exc}")


def load_config(path):
    return validate_config(_read_json(path))


def _check_top_level(raw):
    """The top-level object and its known keys; returns its ``grids`` object
    with known keys."""
    if not isinstance(raw, dict):
        _fail("config", "top level must be an object")
    _check_keys(raw, _TOP_LEVEL_KEYS, "")
    grids = raw.get("grids", {})
    if not isinstance(grids, dict):
        _fail("grids", "expected an object")
    _check_keys(grids, ("t_grid", "xi_grid", "fourier_grid"), "grids")
    return grids


def _validate_fourier_grid(grids):
    return _object(grids.get("fourier_grid", {"period": 200.0, "samples": 2**13}), "grids.fourier_grid",
                   _FOURIER_GRID, lambda period, samples: multiplier.FourierGridSpec(float(period), samples))


def _validate_seed(raw):
    seed = _check(raw.get("seed", 0), "seed", int)
    if not 0 <= seed < SEED_LIMIT:
        _fail("seed", f"must be an integer in [0, 2**64), got {seed}")
    return seed


def validate_config(raw):
    grids = _check_top_level(raw)
    cfg = {}
    cfg["raw"] = raw
    cfg["model"] = _validate_operator(_need(raw, "operator", ""), "operator")
    cfg["t_grid"] = _validate_grid(grids.get("t_grid", {"start": 10.0, "stop": 1e4, "count": 32}),
                                   "grids.t_grid")
    cfg["xi_grid"] = _validate_grid(grids.get("xi_grid", {"start": 1e-2, "stop": 1e3, "count": 64}),
                                    "grids.xi_grid")
    cfg["fourier_grid"] = _validate_fourier_grid(grids)
    # a missing or null geometry is a Hilbert space
    geometry = raw.get("geometry")
    cfg["geometry"] = _object({"hilbert": True} if geometry is None else geometry, "geometry", _GEOMETRY)
    indices = raw.get("indices", [[0.0, 1.0]])
    if not isinstance(indices, list) or not indices:
        _fail("indices", "expected a nonempty list of [sigma, tau] pairs")
    parsed = []
    for i, pair in enumerate(indices):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            _fail(f"indices[{i}]", "expected a [sigma, tau] pair")
        sigma, tau = (float(_check(x, f"indices[{i}]", float)) for x in pair)
        if sigma < 0 or tau < 0:
            _fail(f"indices[{i}]", "indices must be >= 0")
        parsed.append((sigma, tau))
    cfg["indices"] = parsed
    # null means "not given"; any other non-object is an error
    tolerances = raw.get("tolerances")
    if not isinstance(tolerances, (dict, type(None))):
        _fail("tolerances", "expected an object")
    tols = dict(DEFAULT_TOLERANCES)
    for key, val in (tolerances or {}).items():
        if key not in DEFAULT_TOLERANCES:
            _fail(f"tolerances.{key}", "unknown tolerance")
        if _check(val, f"tolerances.{key}", float) <= 0:
            _fail(f"tolerances.{key}", "must be a positive number")
        tols[key] = float(val)
    cfg["tolerances"] = tols
    cfg["seed"] = _validate_seed(raw)
    # accepted and validated for compatibility; runs are single-threaded
    cfg["threads"] = _check(raw.get("threads", 1), "threads", int)
    if cfg["threads"] < 1:
        _fail("threads", "must be a positive integer")
    cfg["out_dir"] = _check(raw.get("out_dir", "semistab-out"), "out_dir", str)
    return cfg


def _digest(raw):
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _make_out_dir(args, default="semistab-out", source="--out-dir"):
    """Create the run's output directory before the run and return it:
    --out-dir if given, else ``default``, which ``source`` supplied; a path
    that cannot be made a directory is a config error naming its source."""
    path = default
    if args.out_dir is not None:
        path, source = args.out_dir, "--out-dir"
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        _fail(source, f"cannot create the output directory {path!r}: {exc.strerror}")
    return path


def _write_file(out_dir, name, text):
    """Write ``text`` to out_dir/name in one write, newlines as given."""
    with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(out_dir, name, rows):
    """Write ``rows`` (dicts; a missing column is empty, other keys are
    dropped) under ``CSV_HEADER`` to out_dir/name."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    writer.writerows([row.get(k, "") for k in CSV_HEADER] for row in rows)
    _write_file(out_dir, name, buf.getvalue())


def _write_summary(out_dir, summary, timings):
    for name, record in (("summary.json", summary), ("run_meta.json", {"timings_s": timings})):
        _write_file(out_dir, name, json.dumps(record, sort_keys=True, indent=2) + "\n")


def run_analyze(config, measure_only=False):
    """probe -> fit profile -> measure per index -> predict -> check.

    Returns (summary dict, rows dict, timings, exit_code).
    """
    model = config["model"]
    tol = config["tolerances"]["consistency_tol"]
    timings = {}
    rows = {"probes": [], "decay": [], "predictions": []}
    summary = {
        "inputs_digest": _digest(config["raw"]),
        "operator_kind": model.info.kind,
        "seed": config["seed"],
    }

    t0 = time.perf_counter()
    table = resolvent.probe_resolvent_norms(model, config["xi_grid"], 0.0)
    for e in table.entries:
        rows["probes"].append(
            {
                "case": f"probe;eta={e.eta:g}",
                "t_or_xi": f"{e.xi:.12g}",
                "value": "" if e.norm is None else f"{e.norm:.12g}",
                "source": "resolvent-probe",
                "verdict": e.status,
            }
        )
    timings["probe"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        profile = resolvent.fit_growth_profile(table)
    except InsufficientDataError as exc:
        summary["overall"] = "FAIL"
        return summary, rows, timings, (1, f"growth-profile fit failed: {exc}")
    summary["profile"] = {
        "alpha_hat": profile.alpha_hat,
        "beta_hat": profile.beta_hat,
        "m_constant": profile.m_constant,
        # finite probing cannot certify a half-plane bound, and guarantees
        # derived from an understated exponent can exceed what short or
        # pre-asymptotic measurement windows show
        "status": "probed",
    }
    timings["fit_profile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    t_grid = config["t_grid"]
    measurements = decaylab.measure_decay(model, config["indices"], t_grid, with_growth=True)
    mu_hat = measurements[0].growth_mu_hat
    summary["growth_mu_hat"] = mu_hat
    fit_tol = config["tolerances"]["fit_tol"]
    summary["measurements"] = []
    summary["fit_warnings"] = []
    for meas in measurements:
        summary["measurements"].append(
            {
                "sigma": meas.sigma,
                "tau": meas.tau,
                "rho_hat": meas.rho_hat,
                "fit_residual": meas.fit.residual,
                "super_polynomial": meas.super_polynomial,
            }
        )
        if meas.fit.residual > fit_tol and not meas.super_polynomial:
            summary["fit_warnings"].append(
                f"sigma={meas.sigma:g};tau={meas.tau:g}: log-residual "
                f"{meas.fit.residual:.3g} exceeds fit_tol {fit_tol:g}"
            )
        for t, v in zip(t_grid, meas.norms):
            rows["decay"].append(
                {
                    "case": f"sigma={meas.sigma:g};tau={meas.tau:g}",
                    "t_or_xi": f"{t:.12g}",
                    "value": f"{v:.12g}",
                    "fit_exponent": f"{meas.fit.exponent:.12g}",
                    "source": "decay-measurement",
                }
            )
    timings["measure"] = time.perf_counter() - t0

    if measure_only:
        summary["overall"] = "PASS"
        return summary, rows, timings, (0, "")

    t0 = time.perf_counter()
    geometry = config["geometry"]
    alpha, beta = profile.alpha_hat, profile.beta_hat
    summary["predictions"] = []
    overall = True
    any_applicable = False
    for meas in measurements:
        for pred in decaylab.predictions_for(geometry, alpha, beta, meas.sigma, meas.tau, mu_hat):
            record = {
                "sigma": meas.sigma,
                "tau": meas.tau,
                "source": pred.source,
                "rho": _jsonable(pred.rho) if pred.rho is not None else None,
                "strict": pred.strict,
                "applicable": pred.applicable,
                "conditions": [
                    {"name": c.name, "passed": c.passed} for c in pred.conditions
                ],
            }
            verdict = "not-applicable"
            if pred.applicable:
                any_applicable = True
                rep = decaylab.check_consistency(meas, pred, tol)
                verdict = "PASS" if rep.passed else "FAIL"
                record["margin"] = rep.margin
                overall &= rep.passed
            record["verdict"] = verdict
            summary["predictions"].append(record)
            rows["predictions"].append(
                {
                    "case": f"sigma={meas.sigma:g};tau={meas.tau:g}",
                    "value": f"{meas.rho_hat:.12g}",
                    "fit_exponent": f"{-meas.rho_hat:.12g}",
                    "predicted": "" if pred.rho is None else f"{pred.rho:.12g}",
                    "source": pred.source,
                    "verdict": verdict,
                }
            )
    timings["predict"] = time.perf_counter() - t0
    summary["overall"] = "PASS" if overall else "FAIL"
    code = 0 if overall else 1
    note = "" if overall else "a consistency check failed"
    if not any_applicable:
        note = "no applicable predictions; measurements reported"
    return summary, rows, timings, (code, note)


def _cmd_analyze(args, measure_only=False):
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if not measure_only and args.tol is not None:
        config["tolerances"]["consistency_tol"] = args.tol
    out_dir = _make_out_dir(args, config["out_dir"], "out_dir")
    summary, rows, timings, (code, note) = run_analyze(config, measure_only=measure_only)
    _write_csv(out_dir, "probes.csv", rows["probes"])
    _write_csv(out_dir, "decay.csv", rows["decay"])
    if not measure_only:
        _write_csv(out_dir, "predictions.csv", rows["predictions"])
    _write_summary(out_dir, summary, timings)
    if note:
        print(note, file=sys.stderr)
    print(f"overall: {summary['overall']} (outputs in {out_dir})")
    return code


def _cmd_frac(args):
    from . import battery

    quad_tol = args.tol if args.tol is not None else 1e-6
    out_dir = _make_out_dir(args)
    rows = []
    worst = 0.0
    for alpha, beta, eta, lam in battery.contour_identity_battery():
        chk = fraccalc.verify_contour_identity(alpha, beta, eta, lam)
        worst = max(worst, chk.rel_error)
        rows.append(
            {
                "case": f"identity;alpha={alpha:g};beta={beta:g};eta={eta:g};lam={format_complex(lam)}",
                "value": f"{chk.rel_error:.6e}",
                "predicted": format_complex(chk.closed_form),
                "source": "contour-identity",
                "verdict": "PASS" if chk.rel_error < quad_tol else "FAIL",
            }
        )
    _write_csv(out_dir, "frac.csv", rows)
    ok = worst < quad_tol
    _write_summary(out_dir, {"overall": "PASS" if ok else "FAIL", "worst_rel_error": worst}, {})
    print(f"contour identity battery: worst rel error {worst:.3e} ({'PASS' if ok else 'FAIL'})")
    return 0 if ok else 1


def _cmd_mult(args):
    from . import battery

    # the battery reads only the seed and the Fourier grid, so only those
    # are validated beyond the known-key checks
    raw = _read_json(args.config) if args.config else {}
    grid = _validate_fourier_grid(_check_top_level(raw))
    seed = _validate_seed(raw)
    if args.seed is not None:
        seed = args.seed
    out_dir = _make_out_dir(args)
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    ok = True
    for name, sym in battery._mult_battery(rng):
        samples = sym.on(grid)
        exact2 = multiplier.exact_l2_norm(samples)
        for p, q, lower, upper, good in battery.pq_bounds(samples):
            ok &= good
            rows.append(
                {
                    "case": f"{name};p={p:g};q={q:g}",
                    "value": f"{lower:.9g}",
                    "predicted": f"{upper:.9g}",
                    "source": "pq-norm",
                    "verdict": "PASS" if good else "FAIL",
                }
            )
        rows.append(
            {
                "case": f"{name};p=2;q=2",
                "value": f"{exact2:.9g}",
                "source": "plancherel-exact",
                "verdict": "",
            }
        )
    _write_csv(out_dir, "mult.csv", rows)
    _write_summary(out_dir, {"overall": "PASS" if ok else "FAIL"}, {})
    print(f"multiplier battery: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_verify(args):
    from . import battery

    seed = args.seed if args.seed is not None else 0
    cases = battery.matching_cases(args.only)
    if not cases:
        print(f"no cases match --only {args.only!r}", file=sys.stderr)
        return 2
    if args.out_dir is not None:
        _make_out_dir(args)
    results = [case(seed=seed) for _, case in cases]
    rows = []
    failures = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.criterion}: {res.name} ({res.duration:.1f}s)")
        for c in res.checks:
            tag = "info" if c.informative else ("pass" if c.passed else "FAIL")
            print(f"    [{tag}] {c.label}: {c.detail}")
        rows.extend(res.rows)
        if not res.passed:
            failures.append(res.name)
    if args.out_dir is not None:
        _write_csv(args.out_dir, "verify.csv", rows)
        summary = {
            "overall": "PASS" if not failures else "FAIL",
            "cases": [
                {
                    "name": r.name,
                    "criterion": r.criterion,
                    "passed": r.passed,
                    "checks": [
                        {
                            "label": c.label,
                            "passed": c.passed,
                            "informative": c.informative,
                        }
                        for c in r.checks
                    ],
                }
                for r in results
            ],
        }
        _write_summary(args.out_dir, summary, {r.name: r.duration for r in results})
    if failures:
        print("FAILED cases: " + ", ".join(failures))
        return 1
    print("all cases PASS")
    return 0


def _flag_type(parse, ok, what):
    """An argparse type: ``parse`` the text, which must satisfy ``ok``,
    else the flag is rejected as not ``what``."""

    def check(text):
        try:
            val = parse(text)
        except ValueError:
            val = None
        if val is None or not ok(val):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return val

    return check


# each flag is validated like its config key
_positive_int = _flag_type(int, lambda n: n >= 1, "a positive integer")
_seed = _flag_type(int, lambda n: 0 <= n < SEED_LIMIT, "an integer in [0, 2**64)")
_positive_float = _flag_type(float, lambda x: math.isfinite(x) and x > 0, "a positive finite number")


def build_parser():
    """The argument parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="semistab",
        description="semigroup stability laboratory: analyses, fractional powers, multipliers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help_text, config=None, seed=None, tol=None):
        """A subparser with --out-dir and --threads, and only the other flags
        the subcommand reads: --config (required when ``config`` is True,
        optional when False), and --seed and --tol with the given help."""
        p = sub.add_parser(name, help=help_text)
        if config is not None:
            p.add_argument("--config", required=config, help="JSON config path")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--threads", type=_positive_int,
                       help="accepted for compatibility; runs use one OpenBLAS thread, "
                            "restored afterwards")
        if seed:
            p.add_argument("--seed", type=_seed, default=None, help=seed)
        if tol:
            p.add_argument("--tol", type=_positive_float, default=None, help=tol)
        return p

    subcommand("analyze", "full probe/fit/measure/predict pipeline", config=True,
               seed="override the config seed", tol="override the consistency tolerance")
    subcommand("decay", "decay measurements only", config=True, seed="override the config seed")
    subcommand("frac", "contour-identity battery", tol="override the quadrature tolerance")
    subcommand("mult", "multiplier-norm battery", config=False, seed="override the config seed")
    p_ver = subcommand("verify-examples", "run the bundled verification battery", seed="battery seed")
    p_ver.add_argument("--only", default=None, help="case-name prefix filter (e.g. 'appendix')")
    return parser


# built once, at import: parsing leaves the parser unchanged, so in-process
# callers that run many passes do not pay for it again
_PARSER = build_parser()


def main(argv=None):
    """Run one subcommand on one OpenBLAS thread and return its exit code."""
    with numcore.one_blas_thread():
        try:
            args = _PARSER.parse_args(argv)
            if args.command == "analyze":
                return _cmd_analyze(args)
            if args.command == "decay":
                return _cmd_analyze(args, measure_only=True)
            if args.command == "frac":
                return _cmd_frac(args)
            if args.command == "mult":
                return _cmd_mult(args)
            if args.command == "verify-examples":
                return _cmd_verify(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (DomainError, InsufficientDataError, UnsupportedModelError) as exc:
            print(f"analysis error: {exc}", file=sys.stderr)
            return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
