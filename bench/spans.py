"""Span tracing for the benchmark's traced run.

The tracer wraps the library's public calls from outside: nothing inside
`src/prodconj` knows it is being measured.  Each wrapped call records one
span (name, start, end, parent) in flat arrays, so a pass with several
hundred thousand jet products keeps its spans in a few megabytes.  Self
times come from the nested spans after the pass (`self_times`), never from
timers inside the program.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

# Modules whose own functions form one layer each; connection classes are
# traced per subclass on top of that.
FUNCTION_LAYERS = ("conjugation", "connections", "distributions", "generalized")

# Vector-jet algebra and frame scans in `fields`, re-bound in every module
# that imported them by name.
VECTOR_HELPERS = ("vadd", "vsub", "vneg", "vscale", "endo_apply", "metric_pair",
                  "oneform_apply", "dirderiv", "bracket", "vvalues", "vmax_abs",
                  "jets_matrix_values")
FRAME_SCANS = ("frame_pair_residual", "frame_triple_residual",
               "frame_triple_scalar_residual")

# Every module of the package that binds library names at import time.
BINDING_MODULES = ("fields", "jets", "connections", "conjugation", "distributions",
                   "generalized", "checks", "scenario", "runner")


def self_times(names, parents, starts, ends, n_names: int) -> np.ndarray:
    """Self time per span name: each span's duration minus its children's.

    `parents[i]` is the index of span i's enclosing span, or -1.  Children
    run strictly inside their parent, so subtracting their full durations
    leaves the time the parent spent in its own code.
    """
    names = np.asarray(names, dtype=np.intp)
    parents = np.asarray(parents, dtype=np.intp)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    return np.bincount(names, weights=dur - child, minlength=n_names)


def is_constant(jet) -> bool:
    """Same value at every sample point and every derivative identically zero."""
    v = jet.value
    if v.size and not (v == v.flat[0]).all():
        return False
    return all(a is None or not a.any() for a in (jet.grad, jet.hess))


def is_zero(jet) -> bool:
    return all(a is None or not a.any() for a in (jet.value, jet.grad, jet.hess))


def classify_product(a, b) -> str:
    """'zero' if an operand is identically zero, else 'const' if one is
    constant, else 'full' -- the cases a constant-aware product could skip."""
    if is_zero(a) or is_zero(b):
        return "zero"
    if is_constant(a) or is_constant(b):
        return "const"
    return "full"


def jet_nbytes(jet) -> int:
    return sum(a.nbytes for a in (jet.value, jet.grad, jet.hess) if a is not None)


class Tracer:
    """Records spans and counters while installed; restores everything on exit."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # ---- span storage ------------------------------------------------

    def reset(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts.clear()

    def name_id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def open(self, nid: int) -> int:
        idx = len(self.names)
        self.names.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive seconds are only meaningful for names that never nest in
        a span of the same name; the ones reported are never recursive.
        """
        n = len(self.name_ids)
        own = self_times(self.names, self.parents, self.starts, self.ends, n)
        names = np.frombuffer(self.names, dtype=np.int32).astype(np.intp)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for name, i in self.name_ids.items()}

    # ---- wrappers ----------------------------------------------------

    def spanned(self, fn, name: str):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapped

    def _product(self, fn):
        """Jet multiplication: a span plus the product classifier.

        Classification runs in its own `trace.classify` span so its cost
        lands in the tracing overhead, not in the caller's self time.
        """
        classify_id = self.name_id("trace.classify")
        from prodconj.jets import Jet
        traced = self.spanned(fn, "jets.mul")

        @functools.wraps(fn)
        def wrapped(a, b):
            if isinstance(b, Jet):
                idx = self.open(classify_id)
                self.counts["jets.jet_products"] += 1
                self.counts["jets.products." + classify_product(a, b)] += 1
                operand_bytes = jet_nbytes(a) + jet_nbytes(b)
                self.close(idx)
                out = traced(a, b)
                idx = self.open(classify_id)
                self.counts["jets.bytes_computed"] += operand_bytes + jet_nbytes(out)
                self.close(idx)
                return out
            return traced(a, b)
        return wrapped

    def _in_layer(self, callback):
        """`callback` in a span of the layer that defined it, if it is one
        of FUNCTION_LAYERS; otherwise `callback` itself."""
        layer = (getattr(callback, "__module__", None) or "").rpartition(".")[2]
        return self.spanned(callback, layer) if layer in FUNCTION_LAYERS else callback

    def _cached(self, fn):
        """Cache lookups, counted as hits or misses.  A build runs in a span
        of the layer that defined it, so a connection's coefficient table
        counts as connection time and not as the cache's."""
        traced = self.spanned(fn, "fields.cached")

        @functools.wraps(fn)
        def wrapped(ctx, key, build):
            built = False

            def counted_build():
                nonlocal built
                built = True
                return self._in_layer(build)()
            out = traced(ctx, key, counted_build)
            self.counts["fields.cache_misses" if built else "fields.cache_hits"] += 1
            return out
        return wrapped

    def _render(self, fn):
        traced = self.spanned(fn, "reporting.render")

        @functools.wraps(fn)
        def wrapped(report, *args, **kwargs):
            self.counts["reporting.rows"] += len(report.rows)
            return traced(report, *args, **kwargs)
        return wrapped

    def _frame_scan(self, fn):
        """Frame scans call back into the suite that asked for them; the
        callback's span carries the suite's layer, so a suite's closures
        count as its own time and not as the scan's."""
        traced = self.spanned(fn, "fields.frame_scan")

        @functools.wraps(fn)
        def wrapped(ctx, callback):
            return traced(ctx, self._in_layer(callback))
        return wrapped

    # ---- installation ------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        _set(owner, attr, value)

    def _rebind(self, modules, original, replacement) -> None:
        """Replace `original` under every name that refers to it in `modules`."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        import importlib

        import prodconj
        from prodconj import checks, connections, fields, jets, scenario
        from prodconj.fields import EvalContext
        from prodconj.jets import Jet
        from prodconj.reporting import Report

        modules = [prodconj] + [importlib.import_module(f"prodconj.{m}")
                                for m in BINDING_MODULES]

        product = self._product(Jet.__mul__)
        self._patch(Jet, "__mul__", product)
        self._patch(Jet, "__rmul__", product)
        for attr, name in (("__add__", "jets.add"), ("__radd__", "jets.add"),
                           ("__sub__", "jets.other"), ("__rsub__", "jets.other"),
                           ("__neg__", "jets.other"), ("__truediv__", "jets.other"),
                           ("__rtruediv__", "jets.other")):
            self._patch(Jet, attr, self.spanned(Jet.__dict__[attr], name))
        self._rebind(modules, jets.shift, self.spanned(jets.shift, "jets.shift"))
        self._patch(EvalContext, "scalar", self.spanned(EvalContext.scalar, "jets.eval"))
        self._patch(EvalContext, "cached", self._cached(EvalContext.cached))

        for name in VECTOR_HELPERS:
            fn = getattr(fields, name)
            self._rebind(modules, fn, self.spanned(fn, "fields.vec"))
        for name in FRAME_SCANS:
            fn = getattr(fields, name)
            self._rebind(modules, fn, self._frame_scan(fn))

        for cls in subclasses(connections.ConnectionOp):
            if "apply" in cls.__dict__:
                self._patch(cls, "apply", self.spanned(
                    cls.__dict__["apply"], f"connections.apply.{cls.__name__}"))
        for layer in FUNCTION_LAYERS:
            module = importlib.import_module(f"prodconj.{layer}")
            for fn in list(vars(module).values()):
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._rebind(modules, fn, self.spanned(fn, layer))

        for kind in checks.REGISTRY.values():
            self._patch(kind, "runner", self.spanned(kind.runner, f"checks.kind.{kind.name}"))
        self._rebind(modules, checks.judge, self.spanned(checks.judge, "checks.judge"))
        for fn, name in ((scenario.load_scenario, "scenario.load"),
                         (scenario.make_context, "runner.make_context"),
                         (prodconj.run_scenario, "runner.run_scenario")):
            self._rebind(modules, fn, self.spanned(fn, name))
        self._patch(Report, "render_lines", self._render(Report.render_lines))

    def uninstall(self) -> None:
        while self._patches:
            _set(*self._patches.pop())

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:  # a module, or a frozen dataclass instance (CheckKind)
        object.__setattr__(owner, attr, value)


def subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(subclasses(sub))
    return sorted(set(out), key=lambda c: c.__name__)
