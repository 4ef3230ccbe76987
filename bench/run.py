"""Benchmark for prodconj: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus_200 --seed 7 --seconds 36 --trace 0

The program is imported from `src/` of the checkout; nothing is installed.
The run repeats whole passes over the workload until the next pass would
overrun `--seconds` (at least one pass), checks every row of every pass
against `expected/<workload>.tsv`, prints one line per metric and, as the
last line, a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics with tracing off,
times scaled to a reference host speed (see hostspeed.py); `--trace 1`
runs one untraced pass, then traced passes, and reports the per-layer
metrics.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import sys

import numpy  # noqa: F401  (before the snapshot below: set-up does not count it)

# The modules a fresh interpreter holds once numpy is imported.  Every set-up
# repetition drops all others, so whatever the package imports is timed.
BASE_MODULES = frozenset(sys.modules)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, subclasses  # noqa: E402

# Set-up is repeated this many times in a run; the median is reported.
SETUP_REPEATS = 7
# Host-speed kernel batch: the workloads' sample count; set-up is
# interpreter-bound like the 200-sample workloads.
SMALL_ROWS = 200


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def repeat_for(seconds: float, one_pass) -> list:
    """Run `one_pass` until another pass of median length would overrun."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def kernel_rows(workload: str) -> int:
    return wl.R3_SAMPLES if workload == "r3_wide" else SMALL_ROWS


def bracketed(one_pass, rows: int) -> tuple[wl.PassResult, float]:
    """A pass and its wall time scaled by kernel slices just before and after."""
    before = hostspeed.sample(rows, 3)
    result = one_pass()
    return result, hostspeed.scaled(result.wall_s, before + hostspeed.sample(rows, 3), rows)


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Set-up repeated in this process, raw and scaled by kernel slices
    timed just before and after each repetition.

    Each repetition drops every module loaded since `BASE_MODULES` from
    `sys.modules`, the package's and those it imports, and imports them
    again.  numpy stays loaded: a fresh interpreter's import time follows
    the host's file cache, which no kernel slice tracks.  The benchmark's
    own modules are dropped too; it holds them by reference.  Run this
    after the passes, which hold the first import's modules.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m not in BASE_MODULES]:
            del sys.modules[name]
        before = hostspeed.sample(SMALL_ROWS, 3)
        seconds = wl.timed_setup(workload, ROOT)
        raw.append(seconds)
        scaled.append(hostspeed.scaled(seconds, before + hostspeed.sample(SMALL_ROWS, 3),
                                       SMALL_ROWS))
    return raw, scaled


class Verdict:
    """Accumulates row checks over passes, plus report determinism."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def add(self, result: wl.PassResult) -> None:
        attempted, problems = wl.row_problems(self.expected, result.rows)
        self.attempted += attempted
        self.problems.extend(problems)
        digest = hashlib.sha256("\n".join(result.lines).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.problems.append("report bytes differ between passes of one seed")

    def summary(self) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": len(self.problems)}


def end_to_end(args, prodconj, verdict: Verdict) -> tuple[dict, int]:
    texts = wl.scenario_texts(prodconj)
    scenarios = wl.starting_scenarios(args.workload, prodconj, texts)
    calls = wl.plan(args.workload, args.seed, scenarios)
    rows = kernel_rows(args.workload)
    speed = hostspeed.HostSpeed(rows)

    def one_pass():
        count = len(speed.slices)
        result = wl.run_pass(args.workload, prodconj, calls, scenarios, texts, speed.clock)
        return result, speed.since(count)

    with speed:
        passes = repeat_for(args.seconds, one_pass)
    raw_setup, setup = setup_seconds(args.workload)
    for result, _ in passes:
        verdict.add(result)
    walls = [hostspeed.scaled(r.wall_s, s, rows) for r, s in passes]
    slowest = [hostspeed.scaled(r.slowest_call_s, s, rows) for r, s in passes]
    print(f"raw: setup_s {statistics.median(raw_setup):.6g} s, wall_s "
          f"{statistics.median(r.wall_s for r, _ in passes):.6g} s; kernel slice "
          f"{statistics.median(speed.slices):.6g} s against "
          f"{hostspeed.REFERENCE_S[rows]} s for the reference speed")
    failed_frac = len(verdict.problems) / verdict.attempted
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_max_s": (max(walls), "s"),
        "slowest_call_s": (statistics.median(slowest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rows_ok_frac": (1.0 - failed_frac, "ratio"),
    }, len(passes)


def layer_metrics(table: dict, counts, kinds, connection_classes) -> dict:
    """Per-layer metrics of one traced pass from its span table and counters."""
    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def inclusive(name):
        return table.get(name, {}).get("s", 0.0)

    def own(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    products = counts["jets.jet_products"]
    hits, misses = counts["fields.cache_hits"], counts["fields.cache_misses"]
    applies = [f"connections.apply.{c}" for c in connection_classes]
    m = {
        "jets.mul_calls": (calls("jets.mul"), "count"),
        "jets.add_calls": (calls("jets.add"), "count"),
        "jets.other_calls": (calls("jets.other"), "count"),
        "jets.shift_calls": (calls("jets.shift"), "count"),
        "jets.mul_self_s": (own("jets.mul"), "s"),
        "jets.add_self_s": (own("jets.add"), "s"),
        "jets.other_self_s": (own("jets.other"), "s"),
        "jets.jet_products": (products, "count"),
        "jets.mul_const_share": (
            (counts["jets.products.const"] + counts["jets.products.zero"])
            / max(products, 1), "ratio"),
        "jets.mul_zero_share": (counts["jets.products.zero"] / max(products, 1), "ratio"),
        "jets.bytes_computed": (counts["jets.bytes_computed"], "bytes"),
        "jets.eval_calls": (calls("jets.eval"), "count"),
        "jets.eval_s": (inclusive("jets.eval"), "s"),
        "fields.cache_hits": (hits, "count"),
        "fields.cache_misses": (misses, "count"),
        "fields.cache_hit_ratio": (hits / max(hits + misses, 1), "ratio"),
        "fields.frame_scan_calls": (calls("fields.frame_scan"), "count"),
        "fields.self_s": (own("fields.cached", "fields.vec", "fields.frame_scan"), "s"),
    }
    for cls, name in zip(connection_classes, applies):
        m[f"connections.apply_calls.{cls}"] = (calls(name), "count")
    m["connections.apply_self_s"] = (own(*applies), "s")
    m["connections.self_s"] = (own("connections", *applies), "s")
    for layer in ("conjugation", "distributions", "generalized"):
        m[f"{layer}.self_s"] = (own(layer), "s")
    for kind in kinds:
        m[f"checks.kind.{kind}_s"] = (inclusive(f"checks.kind.{kind}"), "s")
    m["checks.judge_s"] = (inclusive("checks.judge"), "s")
    m["scenario.load_calls"] = (calls("scenario.load"), "count")
    m["scenario.load_s"] = (inclusive("scenario.load"), "s")
    m["runner.make_context_s"] = (inclusive("runner.make_context"), "s")
    m["reporting.render_s"] = (inclusive("reporting.render"), "s")
    m["reporting.rows"] = (counts["reporting.rows"], "count")
    return m


def per_layer(args, prodconj, verdict: Verdict) -> tuple[dict, int]:
    texts = wl.scenario_texts(prodconj)
    scenarios = wl.starting_scenarios(args.workload, prodconj, texts)
    calls = wl.plan(args.workload, args.seed, scenarios)
    rows = kernel_rows(args.workload)
    start = time.perf_counter()
    untraced, untraced_s = bracketed(lambda: wl.run_pass(
        args.workload, prodconj, calls, scenarios, texts), rows)
    verdict.add(untraced)
    kinds = sorted(prodconj.checks.REGISTRY)
    classes = [c.__name__ for c in subclasses(prodconj.ConnectionOp)]
    tracer = Tracer()

    def traced_pass():
        tracer.reset()
        loaded = wl.starting_scenarios(args.workload, prodconj, texts)
        result, traced_s = bracketed(lambda: wl.run_pass(
            args.workload, prodconj, calls, loaded, texts), rows)
        verdict.add(result)
        metrics = layer_metrics(tracer.span_table(), tracer.counts, kinds, classes)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.spans"] = (len(tracer.names), "count")
        return metrics

    with tracer:
        traced = repeat_for(args.seconds - (time.perf_counter() - start), traced_pass)
    return {name: (statistics.median(p[name][0] for p in traced), unit)
            for name, (_, unit) in traced[0].items()}, len(traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    prodconj = wl.import_program(ROOT)
    verdict = Verdict(wl.read_expected(args.workload))
    measure = per_layer if args.trace else end_to_end
    metrics, passes = measure(args, prodconj, verdict)
    summary = verdict.summary()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes}{' traced' if args.trace else ''}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(f"rows attempted={summary['attempted']} failed={summary['failed']} "
          f"rows_failed_frac={summary['failed'] / summary['attempted']:.6g}")
    for problem in verdict.problems[:20]:
        print(f"problem: {problem}")
    summary["metrics"] = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
