"""Span tracer that times the sktlab layers from outside the package.

`install()` replaces every public module-level function of the layer
modules (and every alias of it that another sktlab module imported) with a
wrapper that records a span, plus the `scipy.linalg.solve_banded` name that
sktlab modules call directly, recorded as the kernel span `linalg.banded`.
Nothing in `src/` is edited.  `model`, `grid`, `analytic` and `errors` are
vectorised helpers and are not wrapped, so their time is self time of
their callers.

A span has a name (`module.function`), start, end, parent span and the id
of the operation it belongs to.  Self time is a span's duration minus the
time covered by its child spans; it is accumulated as each span closes.
The first `KEEP_PER_SITE` spans of each (operation, parent name, name) site
are kept in full; later ones (the march makes 40 000 kernel calls per
operation) are folded into one summary row per site, so memory stays
bounded.  Everything is held in memory and written out by `write_spans`.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

import scipy.linalg

LAYERS = ("cli", "io", "steady", "linalg", "bounds", "limitstudy", "limits",
          "bifurcation", "twolobe")
KEEP_PER_SITE = 16
BANDED = "linalg.banded"
# kernel calls are attributed to the nearest enclosing span of these names;
# everything else that solves a banded system is a Newton iteration
KERNEL_SITES = {"steady.time_march": "march", "twolobe.solve_unit": "lobe"}


class Tracer:
    """Collects spans and per-layer counters for the operations of one run."""

    def __init__(self):
        self.op_id = None          # operation being traced; None = pass through
        self.op_n = None           # its grid size
        self.stack = []            # open frames: [span_id, name, child_s, site]
        self.next_id = 1
        self.spans = []            # (span_id, parent_id, op_id, name, t0, t1)
        self.folded = {}           # (op_id, parent_name, name) -> [count, dur, self]
        self.site_count = collections.Counter()
        self.calls = collections.Counter()           # name -> calls
        self.self_s = collections.defaultdict(float)  # name -> self time
        self.total_s = collections.defaultdict(float)  # name -> inclusive time
        self.by_n = collections.defaultdict(float)    # (what, name, n) -> value
        self.raised = collections.Counter()          # (name, exception type)
        self.counters = collections.defaultdict(float)
        self.maxima = collections.defaultdict(float)
        self.op_self_sum = collections.defaultdict(float)  # op_id -> sum of self

    def call(self, name, fn, args, kwargs, observe):
        stack = self.stack
        parent = stack[-1] if stack else None
        span_id = self.next_id
        self.next_id += 1
        site = KERNEL_SITES.get(name) or (parent[3] if parent else "newton")
        frame = [span_id, name, 0.0, site]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.raised[(name, type(exc).__name__)] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[2] += dur
            self._close(frame, parent, t0, t1, dur - frame[2])
        if observe is not None:
            observe(self, site, args, kwargs, result)
        return result

    def _close(self, frame, parent, t0, t1, self_t):
        span_id, name = frame[0], frame[1]
        op = self.op_id
        self.calls[name] += 1
        self.self_s[name] += self_t
        self.total_s[name] += t1 - t0
        self.by_n[("calls", name, self.op_n)] += 1
        self.by_n[("self_s", name, self.op_n)] += self_t
        self.op_self_sum[op] += self_t
        key = (op, parent[1] if parent else None, name)
        if self.site_count[key] < KEEP_PER_SITE:
            self.site_count[key] += 1
            self.spans.append((span_id, parent[0] if parent else None, op, name, t0, t1))
        else:
            row = self.folded.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += self_t

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"span": span_id, "parent": parent_id, "op": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")
            for (op, parent_name, name), (count, dur, self_t) in self.folded.items():
                fh.write(json.dumps({"folded": True, "op": op, "parent_name": parent_name,
                                     "name": name, "count": count, "dur_s": dur,
                                     "self_s": self_t}) + "\n")


def _wrap(tracer: Tracer, name: str, fn, observe=None):
    def traced(*args, **kwargs):
        if tracer.op_id is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs, observe)
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    traced.__wrapped__ = fn
    return traced


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observers(orig):
    """Counters read from arguments and results at the layer boundaries.

    `orig` maps span names to the unwrapped functions, so observers never
    open spans of their own.
    """
    import numpy as np
    residual_floor = orig["linalg.residual_floor"]

    def banded(tr, site, args, kwargs, x):
        ab, rhs = args[1], args[2]
        nbytes = ab.nbytes + rhs.nbytes + x.nbytes   # read ab, rhs; write x
        tr.by_n[("kernel_calls", site, tr.op_n)] += 1
        tr.by_n[("kernel_bytes", site, tr.op_n)] += nbytes
        tr.counters["linalg.banded.bytes"] += nbytes

    def newton_solve(tr, site, args, kwargs, st):
        a = _bound_args(orig["steady.newton_solve"], args, kwargs)
        p, u, v = st.params, np.abs(st.u.values), np.abs(st.v.values)
        scale = float(np.max((p.d1 + p.alpha * v) * u)) \
            + float(np.max((p.d2 + p.beta * u) * v))
        _steady_counts(tr, "steady.newton_solve", st, a["tol"], scale)

    def newton_solve_wq(tr, site, args, kwargs, st):
        a = _bound_args(orig["steady.newton_solve_wq"], args, kwargs)
        p, u, v = st.params, st.u.values, st.v.values
        w = p.d1 * u - (p.alpha / p.beta) * p.d2 * v
        scale = max(float(np.max(np.abs(w))), float(np.max(u * v)))
        _steady_counts(tr, "steady.newton_solve_wq", st, a["tol"], scale)

    def _steady_counts(tr, name, st, tol, scale):
        tr.counters[name + ".iters"] += st.newton_iters
        ratio = st.residual_inf / max(tol, residual_floor(st.grid.h, scale))
        tr.maxima["steady.resid_ratio_max"] = max(tr.maxima["steady.resid_ratio_max"],
                                                  ratio)

    def solve_unit(tr, site, args, kwargs, lobe):
        tr.maxima["twolobe.mismatch_max"] = max(tr.maxima["twolobe.mismatch_max"],
                                                lobe.mismatch)

    def switch_and_continue(tr, site, args, kwargs, branch):
        tr.counters["bifurcation.branch_points"] += len(branch.points)
        tr.counters["bifurcation.corrector_iters"] += sum(pt.newton_iters
                                                          for pt in branch.points)
        tr.counters["bifurcation.truncated"] += int(branch.truncated)

    def run_sequence(tr, site, args, kwargs, report):
        tr.counters["limitstudy.steps"] += len(report.steps)

    def written(tr, site, args, kwargs, result):
        tr.counters["io.bytes_written"] += os.path.getsize(args[0])

    return {BANDED: banded,
            "steady.newton_solve": newton_solve,
            "steady.newton_solve_wq": newton_solve_wq,
            "twolobe.solve_unit": solve_unit,
            "bifurcation.switch_and_continue": switch_and_continue,
            "limitstudy.run_sequence": run_sequence,
            "io.write_csv": written,
            "io.write_metadata": written}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module of the imported
    sktlab package, at every module attribute that refers to them."""
    layer_mods = {layer: importlib.import_module(f"sktlab.{layer}") for layer in LAYERS}
    orig = {}                     # span name -> original function
    by_identity = {}              # id(original) -> span name
    for layer, mod in layer_mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            orig[name] = obj
            by_identity[id(obj)] = name
    orig[BANDED] = scipy.linalg.solve_banded
    by_identity[id(scipy.linalg.solve_banded)] = BANDED

    observers = _observers(orig)
    wrappers = {name: _wrap(tracer, name, fn, observers.get(name))
                for name, fn in orig.items()}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sktlab" or modname.startswith("sktlab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            name = by_identity.get(id(obj))
            if name is not None and obj is orig[name]:
                setattr(mod, attr, wrappers[name])
