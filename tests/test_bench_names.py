"""The traced benchmark's metric names follow the program's names.

`bench/run.py` names per-layer metrics after every `ConnectionOp` subclass
and every registered check kind.  A class or kind renamed or deleted drops
a metric that `BENCHMARK.json` lists, and the traced run no longer reports
it.  This test builds the names the way the benchmark does, from a traced
run of the shipped corpus, without changing anything under `bench/`.
"""

import importlib.util
import json
import math
from pathlib import Path

import prodconj
from prodconj.checks import REGISTRY
from prodconj.jets import Jet
from prodconj.runner import corpus_names, corpus_text, run_scenario
from prodconj.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]

# names `per_layer` adds beside those of `layer_metrics`
TRACE_METRICS = ("trace.overhead_s", "trace.spans")


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_metrics_cover_the_listed_names_and_are_finite():
    run = _bench_run()
    scenarios = [load_scenario(corpus_text(n), name=n) for n in corpus_names()]
    kinds = sorted(REGISTRY)
    classes = [c.__name__ for c in run.subclasses(prodconj.ConnectionOp)]
    tracer = run.Tracer()
    with tracer:
        for scn in scenarios:
            run_scenario(scn, samples=4)
    metrics = run.layer_metrics(tracer.span_table(), tracer.counts, kinds, classes)
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert listed - set(metrics) - set(TRACE_METRICS) == set()
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["checks.kind.prop11_s"][0] > 0


# the arithmetic `bench/spans.py` wraps in `Jet`'s own class body
JET_DUNDERS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
               "__neg__", "__truediv__", "__rtruediv__")


def test_the_tracer_finds_what_it_wraps_where_it_looks():
    """The tracer replaces each kind's `runner` in the kind's own dict and
    each `Jet` dunder in the class's own dict; a runner that moved to a
    class, or a dunder inherited or generated elsewhere, would stop it."""
    assert all("runner" in vars(kind) for kind in REGISTRY.values())
    assert all(name in vars(Jet) for name in JET_DUNDERS)
    tracer = _bench_run().Tracer()
    with tracer:
        wrapped = {attr for owner, attr, _ in tracer._patches if owner is Jet}
        kinds = {owner.name for owner, attr, _ in tracer._patches if attr == "runner"}
    assert wrapped == set(JET_DUNDERS) and kinds == set(REGISTRY)
