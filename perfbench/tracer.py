"""Spans and counts recorded around calls into the ncorlicz layers.

The library is not edited: ``install`` replaces layer functions with timing
wrappers at every module that binds them.  A function reached through a
from-import is bound once per importing module, so each binding is replaced,
or its calls would go uncounted.  Spans (name, start, end, parent, op id) stay
in memory; ``dump`` writes them once at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# Spans whose durations make up the per-layer figures.  Spectral helpers of
# the algebra layer nest (absolute calls spectral_calculus), so the algebra
# figure is self time; the others are inclusive.
ALGEBRA_SPECTRAL = ("eigen_spectrum", "spectral_calculus", "power_on_support",
                    "positive_eigenvalues", "absolute", "polar_decompose",
                    "support_projection", "operator_norm", "reduce_to_support")
MODULE_SPANS = {
    "trace_orlicz": {"singular_value_measures": "trace_orlicz.svm",
                     "_luxemburg_from_measures": "trace_orlicz.rootfind"},
    "core_model": {"_cellwise": "core_model.write", "dual_action": "core_model.write",
                   "core_luxemburg_report": "core_model.read",
                   "canonical_trace": "core_model.read"},
    "modular": {"relative_modular": "modular.matrix", "gns": "modular.gns",
                "connes_cocycle": "modular.cocycle", "radon_nikodym_sqrt": "modular.rn_sqrt",
                "modular_flow": "modular.flow"},
}
EIGH_DIMS = (2, 3, 6)


class Tracer:
    """In-memory span store.  Spans are appended in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        # Off while the benchmark checks results, so checks add no spans.
        self.active = True

    def _append(self, name: str, start: float, end: float, parent: int, op: int) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.start) - 1

    def open(self, name: str) -> int:
        idx = self._append(name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id)
        self.stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed elsewhere, as a child of the open span."""
        self._append(name, start, end, self.stack[-1] if self.stack else -1, self.op_id)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def span_counts(self, first: int = 0) -> Counter:
        """Calls per span name among spans recorded from index ``first`` on."""
        out = Counter()
        for nid in self.span_name[first:]:
            out[self.names[nid]] += 1
        return out

    def totals(self) -> tuple[Counter, Counter]:
        """(inclusive seconds, self seconds) per span name."""
        child = [0.0] * len(self.start)
        incl, self_t = Counter(), Counter()
        for i in range(len(self.start) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur
            name = self.names[self.span_name[i]]
            incl[name] += dur
            self_t[name] += dur - child[i]
        return incl, self_t

    def _inside(self, i: int, nid: int) -> bool:
        """Whether span ``i`` has an ancestor with name id ``nid``."""
        p = self.parent[i]
        while p >= 0 and self.span_name[p] != nid:
            p = self.parent[p]
        return p >= 0

    def calls_inside(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` with an ancestor named ``outer``."""
        inner_id, outer_id = self.name_id.get(inner), self.name_id.get(outer)
        if inner_id is None or outer_id is None:
            return 0
        return sum(1 for i in range(len(self.start))
                   if self.span_name[i] == inner_id and self._inside(i, outer_id))

    def outermost_seconds(self, name: str) -> float:
        """Seconds inside spans called ``name`` that have no ancestor of that name."""
        nid = self.name_id.get(name)
        if nid is None:
            return 0.0
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.span_name[i] == nid and not self._inside(i, nid))

    def merge(self, spans: list, counts: dict) -> None:
        """Append spans recorded by another process under the open span."""
        base = len(self.start)
        outer = self.stack[-1] if self.stack else -1
        for name, start, end, parent, _ in spans:
            self._append(name, start, end, base + parent if parent >= 0 else outer, self.op_id)
        self.counts.update(counts)

    def dump(self, path, **extra) -> None:
        spans = [[self.names[self.span_name[i]], self.start[i], self.end[i],
                  self.parent[i], self.op[i]] for i in range(len(self.start))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts), **extra}, fh)


def _rebind(original, replacement) -> None:
    """Replace every module-level binding of ``original`` in the package."""
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "ncorlicz" or name.startswith("ncorlicz."))]
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported ncorlicz package."""
    from ncorlicz import _linalg, algebra, core_model, functorial, modular, orliczfn, \
        trace_orlicz

    eigh = _linalg.hermitian_eigh

    def traced_eigh(a, *args, **kwargs):
        if not tracer.active:
            return eigh(a, *args, **kwargs)
        idx = tracer.open(f"linalg.eigh.d{a.shape[0]}")
        try:
            return eigh(a, *args, **kwargs)
        finally:
            tracer.close(idx)

    _rebind(eigh, traced_eigh)

    for name in ALGEBRA_SPECTRAL:
        fn = getattr(algebra, name)
        _rebind(fn, tracer.wrap("algebra.spectral", fn))
    for cls, meth in ((algebra.Functional, "is_positive"), (algebra.Functional, "is_faithful")):
        setattr(cls, meth, tracer.wrap("algebra.spectral", getattr(cls, meth)))

    element_init = algebra.Element.__init__

    def counted_init(self, *args, **kwargs):
        tracer.counts["algebra.elements_built"] += tracer.active
        element_init(self, *args, **kwargs)

    algebra.Element.__init__ = counted_init
    # No subclass overrides eval_array, so one class-level wrapper sees every call.
    orliczfn.OrliczFunction.eval_array = tracer.wrap("orliczfn.eval",
                                                     orliczfn.OrliczFunction.eval_array)

    for mod, table in ((trace_orlicz, MODULE_SPANS["trace_orlicz"]),
                       (core_model, MODULE_SPANS["core_model"]),
                       (modular, MODULE_SPANS["modular"])):
        for attr, span in table.items():
            fn = getattr(mod, attr)
            if attr == "_cellwise":
                fn = _counting_cells(tracer, fn)
            _rebind(getattr(mod, attr), tracer.wrap(span, fn))
    modular.ModularOperator.matrix = tracer.wrap("modular.matrix",
                                                 modular.ModularOperator.matrix)
    functorial.Isomorphism.lift = tracer.wrap("functorial.lift", functorial.Isomorphism.lift)


def _counting_cells(tracer: Tracer, cellwise):
    def counted(*args, **kwargs):
        out = cellwise(*args, **kwargs)
        tracer.counts["core_model.cells"] += len(out.pieces) if tracer.active else 0
        return out

    return counted


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op layer figures from every span recorded so far."""
    incl, self_t = tracer.totals()
    calls = tracer.span_counts()
    per_op = 1.0 / ops
    eigh_names = [n for n in calls if n.startswith("linalg.eigh.d")]
    out = {
        "linalg.eigh_calls": (sum(calls[n] for n in eigh_names) * per_op, "count"),
        "linalg.eigh_ms": (sum(incl[n] for n in eigh_names) * 1e3 * per_op, "ms"),
    }
    for d in EIGH_DIMS:
        n = f"linalg.eigh.d{d}"
        out[f"linalg.eigh_us.d{d}"] = (incl[n] / calls[n] * 1e6 if calls[n] else 0.0, "us")
    rootfinds = calls["trace_orlicz.rootfind"]
    evals_in_rootfind = tracer.calls_inside("orliczfn.eval", "trace_orlicz.rootfind")
    out.update({
        "algebra.spectral_calls": (calls["algebra.spectral"] * per_op, "count"),
        "algebra.spectral_ms": (self_t["algebra.spectral"] * 1e3 * per_op, "ms"),
        "algebra.elements_built": (tracer.counts["algebra.elements_built"] * per_op, "count"),
        "orliczfn.evals": (calls["orliczfn.eval"] * per_op, "count"),
        "orliczfn.eval_ms": (incl["orliczfn.eval"] * 1e3 * per_op, "ms"),
        "trace_orlicz.svm_calls": (calls["trace_orlicz.svm"] * per_op, "count"),
        "trace_orlicz.svm_ms": (incl["trace_orlicz.svm"] * 1e3 * per_op, "ms"),
        "trace_orlicz.evals_per_norm": (evals_in_rootfind / rootfinds if rootfinds else 0.0,
                                        "count"),
        "trace_orlicz.rootfind_ms": (incl["trace_orlicz.rootfind"] * 1e3 * per_op, "ms"),
        "core_model.cells": (tracer.counts["core_model.cells"] * per_op, "count"),
        "core_model.write_ms": (tracer.outermost_seconds("core_model.write") * 1e3 * per_op, "ms"),
        "core_model.read_ms": (tracer.outermost_seconds("core_model.read") * 1e3 * per_op, "ms"),
        "functorial.lift_ms": (incl["functorial.lift"] * 1e3 * per_op, "ms"),
    })
    for part in ("matrix", "gns", "cocycle", "rn_sqrt", "flow"):
        seconds = tracer.outermost_seconds(f"modular.{part}")
        out[f"modular.{part}_ms"] = (seconds * 1e3 * per_op, "ms")
    return out
