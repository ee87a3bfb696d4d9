"""Spans and counters recorded around semistab's public functions.

The tracer wraps functions from outside the program: it replaces every
binding of a target function in every ``semistab`` module namespace, so
a name imported with ``from .numcore import fit_power_law`` is wrapped
in the module that calls it, and it replaces methods on the class that
defines them.  ``uninstall`` puts every original back.

Spans are kept in memory as (name, start, end, parent index, outermost)
and aggregated per pass.  A name's inclusive time counts only its outermost
active span, so recursion or nesting under the same name is not counted
twice; its self time subtracts the time covered by child spans.  The
tracer assumes one thread, which holds because the benchmark runs
``analyze`` with ``--threads 1`` and the battery starts no threads.
"""

from __future__ import annotations

import functools
import sys
import time


def _count_flops(tracer, args, result):
    # one dense SVD of an m x m Toeplitz matrix costs O(m^3); computed, not measured
    tracer.add("operators.toeplitz_svd.flops", len(args[0]) ** 3)


def _count_probe_points(tracer, args, result):
    tracer.add("resolvent.probe.points", len(result.entries))
    tracer.add("resolvent.probe.edge", sum(e.status == "edge" for e in result.entries))


def _count_nodes(tracer, args, result):
    tracer.add("multiplier.eval_all.nodes", len(args[1]))


# (span name, module, attribute; "Class.method" for methods, hook on return)
TARGETS = [
    ("cli.load_config", "cli", "load_config", None),
    ("cli.write", "cli", "_write_csv", None),
    ("cli.write", "cli", "_write_summary", None),
    ("operators.jordan.resolvent_norm", "operators", "JordanSumModel.shifted_resolvent_norm", None),
    ("operators.jordan.fractional_norm", "operators", "JordanSumModel.fractional_norm", None),
    ("operators.jordan.semigroup_norm", "operators", "JordanSumModel.semigroup_norm", None),
    ("operators.toeplitz_svd", "operators", "_toeplitz_norm", _count_flops),
    ("operators.fftconvolve", "operators", "fftconvolve", None),
    ("operators.diagonal.resolvent_norm", "operators", "DiagonalSymbolModel.shifted_resolvent_norm", None),
    ("operators.diagonal.fractional_norm", "operators", "DiagonalSymbolModel.fractional_norm", None),
    ("operators.dense.fractional_norm", "operators", "DenseMatrixModel.fractional_norm", None),
    ("operators.opmatrix.fractional_norm", "operators", "OperatorMatrixModel.fractional_norm", None),
    ("numcore.sup_on_grid", "numcore", "sup_on_grid", None),
    ("numcore.golden_max", "numcore", "golden_max", None),
    ("numcore.fit_power_law", "numcore", "fit_power_law", None),
    ("numcore.fit_exp_rate", "numcore", "fit_exp_rate", None),
    ("resolvent.probe", "resolvent", "probe_resolvent_norms", _count_probe_points),
    ("resolvent.spectral_bounds", "resolvent", "spectral_bounds", None),
    ("resolvent.tame_line", "resolvent", "_line_is_tame", None),
    ("decaylab.measure_decay", "decaylab", "measure_decay", None),
    ("decaylab.predict", "decaylab", "predict_rate_general", None),
    ("decaylab.predict", "decaylab", "predict_rate_fourier_type", None),
    ("decaylab.predict", "decaylab", "predict_rate_type_cotype", None),
    ("decaylab.predict", "decaylab", "predict_rate_asymptotically_analytic", None),
    ("decaylab.predict", "decaylab", "predict_rate_growth_aware", None),
    ("decaylab.check_consistency", "decaylab", "check_consistency", None),
    ("fraccalc.contour_apply", "fraccalc", "contour_fractional_apply", None),
    ("fraccalc.identity_check", "fraccalc", "verify_contour_identity", None),
    ("multiplier.eval_all", "multiplier", "Symbol.eval_all", _count_nodes),
    ("multiplier.apply", "multiplier", "apply_multiplier", None),
    ("multiplier.pq_lower", "multiplier", "estimate_pq_norm_lower", None),
    # multiplier's only FFTs are the ones in its forward and inverse transforms
    ("multiplier.fft", "multiplier", "fourier_forward", None),
    ("multiplier.fft", "multiplier", "fourier_inverse", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, outermost)
        self.counts = {}
        self._stack = []
        self._active = {}
        self._undo = []
        self.rebinds = {}  # (module, attribute) -> bindings replaced

    # -- recording

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._active[name] = tracer._active.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                tracer.spans[idx] = (name, start, end, parent, tracer._active[name] == 0)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def wrap_call(self, name, fn):
        """Wrap a single callable, for entries held in containers."""
        return self._wrap(fn, name, None)

    # -- installation

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "semistab" or k.startswith("semistab.")]
        for name, modname, attr, hook in TARGETS:
            module = sys.modules[f"semistab.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name, hook))
                self._undo.append((cls, meth, original))
                self.rebinds[(modname, attr)] = 1
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            n = 0
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
                        n += 1
            self.rebinds[(modname, attr)] = n

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation

    def mark(self):
        return len(self.spans), dict(self.counts)

    def aggregate(self, since):
        """Per-name calls, inclusive and self seconds, and top-level seconds,
        over the spans recorded after ``since`` (a ``mark()``)."""
        first, counts0 = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        out = {}
        top = 0.0
        for _, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
            else:
                top += end - start
        for i, (name, start, end, parent, outermost) in enumerate(spans):
            dur = end - start
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            if outermost:
                agg["s"] += dur
            agg["self_s"] += dur - child[i]
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()}
        return out, counts, top
