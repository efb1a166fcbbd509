"""Span and counter recording around simpvex's layer boundaries.

The program has no tracing of its own, so ``Tracer.install`` replaces the
public functions each layer's caller looks up (module attributes and
class attributes) with wrappers that record a span: name, start, end and
the enclosing span.  Expression evaluations are far too many for spans;
the compiled ``FunctionModel.f_fn``/``df_fn`` and ``EtaMap`` callables
only count calls.  Spans stay in compact arrays in memory until the work
ends; ``summary`` then computes self times (span time minus the time of
its direct children) and ``write`` stores the spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict

import jsonschema

from simpvex import bounds, expr, kernel, quadrature, runner
from simpvex.invexity import EtaMap

KERNEL_FUNCTIONS = ("eval_m", "moment_p", "moment_p_exact", "log_moment_p",
                    "weighted_moments", "half_weights")
BOUND_FUNCTIONS = ("bound_T3_1", "bound_T3_2", "bound_T3_3", "bound_T3_4", "bound_T4_1",
                   "bound_T4_2", "bound_T4_3", "bound_C4_2_midpoint", "bound_classical")

# per-layer self-time metric -> span names whose self time it sums
SELF_TIME = {
    "expr.parse_s": ("expr.parse", "expr.compile_expr"),
    "quadrature.s": ("quadrature.integrate",),
    "kernel.s": tuple(f"kernel.{n}" for n in KERNEL_FUNCTIONS),
    "invexity.invex_set_s": ("invexity.check_invex_set",),
    "invexity.hypothesis_s": ("invexity.hypothesis_pair",),
    "bounds.validate_s": ("bounds.FunctionModel.validate",),
    "bounds.defect_s": ("bounds.simpson_defect",),
    "bounds.lemma_s": ("bounds.lemma_rhs",),
    "bounds.bound_s": ("bounds.midpoint_gap",) + tuple(f"bounds.{n}" for n in BOUND_FUNCTIONS),
    "runner.schema_s": ("jsonschema.validate", "runner.case_schema", "runner.report_schema"),
    "runner.load_s": ("runner.load_corpus", "runner.load_case"),
    "runner.case_self_s": ("runner.run_case",),
    "runner.scan_self_s": ("runner.tightness_scan",),
    "runner.to_json_s": ("runner.RunReport.to_json",),
}
# per-layer call-count metric -> span names it counts
CALLS = {
    "quadrature.calls": ("quadrature.integrate",),
    "kernel.calls": SELF_TIME["kernel.s"],
    "bounds.bound_calls": tuple(f"bounds.{n}" for n in BOUND_FUNCTIONS),
}
COUNTERS = ("expr.df_evals", "expr.f_evals", "expr.eta_evals", "quadrature.evals",
            "invexity.sweeps", "invexity.samples", "invexity.hypothesis_df_evals",
            "invexity.hypothesis_samples")


class Tracer:
    def __init__(self):
        self.labels = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {c: [0] for c in COUNTERS}
        self._undo = []

    def _wrap(self, label, fn):
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span(self, owner, attr, label):
        self._patch(owner, attr, self._wrap(label, getattr(owner, attr)))

    def _count_compiled(self, attr, counter):
        cell = self.counts[counter]
        compile_fn = bounds.FunctionModel.__dict__[attr].func

        def make(model):
            fn = compile_fn(model)

            def counted(*args):
                cell[0] += 1
                return fn(*args)

            return counted

        prop = functools.cached_property(make)
        prop.__set_name__(bounds.FunctionModel, attr)
        self._patch(bounds.FunctionModel, attr, prop)

    def install(self):
        """Wrap every layer boundary the benchmark measures."""
        c = self.counts
        self._span(expr, "parse", "expr.parse")
        self._span(expr, "compile_expr", "expr.compile_expr")
        self._count_compiled("f_fn", "expr.f_evals")
        self._count_compiled("df_fn", "expr.df_evals")
        eta_call = EtaMap.__call__
        eta_cell = c["expr.eta_evals"]

        def counted_eta(self, v, u):
            eta_cell[0] += 1
            return eta_call(self, v, u)

        self._patch(EtaMap, "__call__", counted_eta)

        integrate = self._wrap("quadrature.integrate", quadrature.integrate)

        def counted_integrate(*args, **kwargs):
            result = integrate(*args, **kwargs)
            c["quadrature.evals"][0] += result.evaluations
            return result

        self._patch(quadrature, "integrate", counted_integrate)
        for fn in KERNEL_FUNCTIONS:
            self._span(kernel, fn, f"kernel.{fn}")

        invex = self._wrap("invexity.check_invex_set", runner.check_invex_set)

        def counted_invex(*args, **kwargs):
            report = invex(*args, **kwargs)
            c["invexity.sweeps"][0] += 1
            c["invexity.samples"][0] += report.samples
            return report

        pair = self._wrap("invexity.hypothesis_pair", runner.hypothesis_pair)
        df_cell = c["expr.df_evals"]

        def counted_pair(*args, **kwargs):
            before = df_cell[0]
            pre, quasi = pair(*args, **kwargs)
            c["invexity.sweeps"][0] += 1
            c["invexity.samples"][0] += pre.samples
            c["invexity.hypothesis_df_evals"][0] += df_cell[0] - before
            c["invexity.hypothesis_samples"][0] += pre.samples
            return pre, quasi

        self._patch(runner, "check_invex_set", counted_invex)
        self._patch(runner, "hypothesis_pair", counted_pair)

        self._span(bounds.FunctionModel, "validate", "bounds.FunctionModel.validate")
        for fn in ("simpson_defect", "lemma_rhs", "midpoint_gap") + BOUND_FUNCTIONS:
            self._span(bounds, fn, f"bounds.{fn}")

        self._span(jsonschema, "validate", "jsonschema.validate")
        for fn in ("case_schema", "report_schema", "load_case", "load_corpus",
                   "run_case", "tightness_scan"):
            self._span(runner, fn, f"runner.{fn}")
        self._span(runner.RunReport, "to_json", "runner.RunReport.to_json")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self, window_s: float) -> dict:
        """Self time and calls per span name, counters, and span coverage."""
        n = len(self.name)
        child = [0.0] * n
        covered = 0.0
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            else:
                covered += dur
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i in range(n):
            label = self.labels[name[i]]
            self_s[label] += end[i] - start[i] - child[i]
            calls[label] += 1
        return {
            "self_s": {m: sum(self_s[s] for s in spans) for m, spans in SELF_TIME.items()},
            "calls": {m: sum(calls[s] for s in spans) for m, spans in CALLS.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
            "spans": n,
            "covered_s": covered,
            "window_s": window_s,
        }

    def write(self, path) -> None:
        """Store the spans: a JSON header plus four little-endian arrays."""
        header = {"labels": self.labels, "spans": len(self.name),
                  "arrays": ["name:i32", "parent:i32", "start:f64", "end:f64"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(out)
