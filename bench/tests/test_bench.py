"""Tests of the benchmark's own logic: span self times, the product
classifier, the status comparison, workload generation and host-speed
scaling.

    python3 -m pytest bench/tests
"""

import math
import signal
import time

import numpy as np
import pytest

import hostspeed
import spans
import workloads as wl
from prodconj import Jet, load_scenario
from prodconj.runner import corpus_names, corpus_text


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]; another root d [11, 12]
    names = [0, 1, 2, 1, 0]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 6.0, 11.0]
    ends = [10.0, 5.0, 3.0, 9.0, 12.0]
    own = spans.self_times(names, parents, starts, ends, 3)
    # name 0: root 10 - (4 + 3) = 3, plus d 1;  name 1: a 4 - 1 = 3, c 3;  name 2: b 1
    np.testing.assert_allclose(own, [4.0, 6.0, 1.0])
    assert own.sum() == pytest.approx(11.0)  # total wall covered by root spans


def test_tracer_spans_nest_and_restore():
    tracer = spans.Tracer()

    def inner():
        return 1

    def outer():
        return traced_inner() + traced_inner()

    traced_inner = tracer.spanned(inner, "inner")
    traced_outer = tracer.spanned(outer, "outer")
    assert traced_outer() == 2
    table = tracer.span_table()
    assert table["outer"]["calls"] == 1 and table["inner"]["calls"] == 2
    assert list(tracer.parents) == [-1, 0, 0]
    outer_s = table["outer"]["s"]
    assert table["outer"]["self_s"] == pytest.approx(outer_s - table["inner"]["s"])


def test_tracer_install_is_undone():
    from prodconj import checks, fields, jets
    before = (jets.Jet.__mul__, fields.shift, fields.EvalContext.cached,
              checks.REGISTRY["prop11"].runner, checks.judge)
    with spans.Tracer():
        assert jets.Jet.__mul__ is not before[0]
        assert fields.shift is not before[1]
    after = (jets.Jet.__mul__, fields.shift, fields.EvalContext.cached,
             checks.REGISTRY["prop11"].runner, checks.judge)
    assert all(a is b for a, b in zip(after, before))


def test_cache_build_is_charged_to_the_layer_that_defined_it():
    tracer = spans.Tracer()
    cached = tracer._cached(lambda ctx, key, build: build())

    def build():
        return 1
    build.__module__ = "prodconj.connections"
    assert cached(None, "key", build) == 1
    assert cached(None, "key", lambda: 2) == 2  # defined here: no layer span
    table = tracer.span_table()
    assert table["connections"]["calls"] == 1 and table["fields.cached"]["calls"] == 2
    assert tracer.counts["fields.cache_misses"] == 2


def _full(m=4):
    x = np.linspace(0.1, 0.9, m)
    return Jet(2, 2, x ** 2, np.stack([2 * x, 0 * x], -1), np.zeros((m, 3)) + 2.0)


def test_product_classifier():
    zero = Jet.constant(0.0, 2, 2, (4,))
    const = Jet.constant(3.0, 2, 2, (4,))
    full = _full()
    assert spans.classify_product(full, zero) == "zero"
    assert spans.classify_product(const, zero) == "zero"
    assert spans.classify_product(const, full) == "const"
    assert spans.classify_product(full, full) == "full"
    # uniform value but a nonzero derivative is not constant
    sloped = Jet(2, 1, np.ones(4), np.ones((4, 2)))
    assert spans.classify_product(sloped, full) == "full"
    assert spans.jet_nbytes(full) == 8 * 4 * (1 + 2 + 3)


def test_traced_product_counts_and_bytes():
    tracer = spans.Tracer()
    zero = Jet.constant(0.0, 2, 2, (4,))
    with tracer:
        _full() * zero
        _full() * _full()
        _full() * 2.0
    assert tracer.counts["jets.jet_products"] == 2
    assert tracer.counts["jets.products.zero"] == 1
    assert tracer.counts["jets.products.full"] == 1
    assert tracer.counts["jets.bytes_computed"] == 2 * 3 * 8 * 4 * 6
    assert tracer.span_table()["jets.mul"]["calls"] == 3


def test_status_comparison_flags_flip_nan_and_missing():
    expected = {("s", "-", "c.a"): "pass", ("s", "-", "c.b"): "skip",
                ("s", "-", "c.c"): "pass"}
    good = {("s", "-", "c.a"): ("pass", 1e-14), ("s", "-", "c.b"): ("skip", math.nan),
            ("s", "-", "c.c"): ("pass", 0.0)}
    assert wl.row_problems(expected, good) == (3, [])

    flipped = dict(good)
    flipped[("s", "-", "c.b")] = ("pass", 0.0)
    attempted, problems = wl.row_problems(expected, flipped)
    assert attempted == 3 and len(problems) == 1 and "expected skip" in problems[0]

    nan_pass = dict(good)
    nan_pass[("s", "-", "c.a")] = ("pass", math.nan)
    assert len(wl.row_problems(expected, nan_pass)[1]) == 1

    missing = dict(good)
    del missing[("s", "-", "c.c")]
    missing[("s", "-", "c.extra")] = ("pass", 0.0)
    assert wl.row_problems(expected, missing) == (4, [
        "s/-/c.c: missing, expected pass",
        "s/-/c.extra: unexpected row with status pass"])

    failed = dict(good)
    failed[("s", "-", "c.a")] = ("fail", 1.0)
    assert wl.row_problems(expected, failed)[1] == ["s/-/c.a: fail"]


def test_expected_tables_round_trip(tmp_path, monkeypatch):
    rows = {("s", "-", "c.a"): ("pass", 0.0), ("s", "chk", "c.b"): ("skip", math.nan)}
    monkeypatch.setattr(wl, "EXPECTED_DIR", tmp_path)
    wl.expected_path("x").write_text(wl.format_expected(rows))
    assert wl.read_expected("x") == {k: s for k, (s, _) in rows.items()}


@pytest.fixture(scope="module")
def scenarios():
    return {n: load_scenario(corpus_text(n), name=n) for n in corpus_names()}


def test_workload_generation_is_seed_determined(scenarios):
    for workload in wl.WORKLOADS:
        assert wl.plan(workload, 11, scenarios) == wl.plan(workload, 11, scenarios)
        assert all(c.seed == 11 for c in wl.plan(workload, 11, scenarios))
    assert len(wl.plan("corpus_200", 7, scenarios)) == 9
    assert wl.plan("r3_wide", 7, scenarios) == [wl.Call("involutivity_r3", None, 5000, 7)]
    cold = wl.plan("single_check_cold", 7, scenarios)
    assert len(cold) == 163 and len(set(cold)) == 163
    with pytest.raises(ValueError):
        wl.plan("nope", 7, scenarios)


def test_expected_tables_match_the_shipped_corpus():
    counts = {w: {} for w in wl.WORKLOADS}
    for workload in wl.WORKLOADS:
        for status in wl.read_expected(workload).values():
            counts[workload][status] = counts[workload].get(status, 0) + 1
    assert counts["corpus_200"] == {"pass": 505, "skip": 21}
    assert counts["r3_wide"] == {"pass": 45, "skip": 3}
    assert sum(counts["single_check_cold"].values()) == 556


def test_scaled_time_follows_the_kernel():
    ref = hostspeed.REFERENCE_S[200]
    assert hostspeed.scaled(2.0, [ref, ref], 200) == pytest.approx(2.0)
    # kernel slices twice as slow as the reference: the host ran at half speed
    assert hostspeed.scaled(2.0, [2 * ref, 2 * ref], 200) == pytest.approx(1.0)


def test_host_speed_clock_leaves_out_kernel_slices():
    speed = hostspeed.HostSpeed(200)
    with speed:
        real0, clock0 = time.perf_counter(), speed.clock()
        while time.perf_counter() - real0 < 4 * hostspeed.INTERVAL_S:
            pass
        real, clocked = time.perf_counter() - real0, speed.clock() - clock0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.slices) >= 2
    assert real - clocked >= sum(speed.slices)
    count = len(speed.slices)
    assert len(speed.since(count)) == 1  # no slice fired since: one is taken
