"""Residual accumulation and judging, with non-finite residuals."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from prodconj.checks import REGISTRY, judge
from prodconj.fields import Chart, EvalContext, frame_pair_residual
from prodconj.reporting import ERROR, CheckRow, Residual, ResidualMax

POINTS = np.arange(12.0).reshape(6, 2)


def _accumulated(frames):
    acc = ResidualMax(POINTS)
    for f, values in enumerate(frames):
        acc.update(values, frame=f"f{f}")
    return acc.result()


def test_nan_after_a_finite_frame_is_kept():
    res = _accumulated([np.full(6, 1e-3), np.array([0, 0, np.nan, 0, 0, 0])])
    assert math.isnan(res.value)
    assert res.frame == "f1" and res.worst_point == (4.0, 5.0)


def test_first_nan_stays_the_witness():
    res = _accumulated([np.array([np.nan, 0, 0, 0, 0, 0]), np.full(6, np.inf),
                        np.array([0, 0, 0, np.nan, 0, 0])])
    assert math.isnan(res.value)
    assert res.frame == "f0" and res.worst_point == (0.0, 1.0)


def test_scalar_updates_keep_the_largest():
    acc = ResidualMax(POINTS)
    acc.update(5.0, frame="a")
    acc.update(1.0, frame="b")
    assert acc.value == 5.0 and acc.frame == "a"


def test_merged_keeps_a_nan_on_either_side():
    nan, one = Residual(math.nan, (1.0, 2.0), "n"), Residual(1.0, None, "one")
    assert nan.merged(one) is nan
    assert one.merged(nan) is nan
    assert one.merged(Residual(1.0)) is one


def test_frame_pair_residual_takes_per_sample_arrays():
    ctx = EvalContext(Chart(2, ("x", "y"), ((0.0, 20.0), (0.0, 20.0))), POINTS)
    res = frame_pair_residual(ctx, lambda X, Y: X[0].value * Y[1].value * POINTS[:, 0])
    assert res.value == 10.0
    assert res.frame == "(dx,dy)" and res.worst_point == (10.0, 11.0)


def _judged(res, expect="pass", row="involution"):
    [out] = judge("c", REGISTRY["almost_product"], [(row, res, "note")], {},
                  1e-9, 1e-3, expect)
    return out


def test_non_finite_residual_is_an_error_under_every_expectation():
    for value in (math.nan, math.inf):
        res = Residual(value, (0.5, 0.25), "(dx,dy)")
        for expect in ("pass", "fail"):
            row = _judged(res, expect)
            assert row.status == ERROR, (value, expect)
            assert row.worst_point == (0.5, 0.25) and row.frame == "(dx,dy)"
    rows = judge("c", REGISTRY["recurrent"],
                 [("hypothesis_recurrence", Residual(math.inf), "")],
                 {"mode": "structure"}, 1e-9, 1e-3, "hypothesis_fail")
    assert [r.status for r in rows] == [ERROR, "fail"]


@settings(max_examples=60, deadline=None)
@given(frames=st.lists(st.lists(st.floats(0.0, 1e-12), min_size=6, max_size=6),
                       min_size=1, max_size=9),
       where=st.tuples(st.integers(0, 8), st.integers(0, 5)),
       bad=st.sampled_from([math.nan, math.inf]))
def test_injected_non_finite_value_reaches_the_row(frames, where, bad):
    frames = [np.array(f) for f in frames]
    f, k = where[0] % len(frames), where[1]
    frames[f][k] = bad
    res = _accumulated(frames)
    assert res.value == bad or (math.isnan(bad) and math.isnan(res.value))
    assert res.frame == f"f{f}" and res.worst_point == tuple(POINTS[k])
    row = CheckRow.judged("c.r", "-", res, 1e-9)
    assert row.status == ERROR and row.worst_point == tuple(POINTS[k])
