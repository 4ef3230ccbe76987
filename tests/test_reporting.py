"""Residual accumulation and judging, with non-finite residuals."""

import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prodconj
from prodconj import fields
from prodconj.checks import REGISTRY, judge
from prodconj.fields import Chart, EvalContext, frame_pair_residual, worst
from prodconj.jets import Jet
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


# One per-sample defect, largest at samples 1 and 3, in each output form
# the reducer takes; the other entries are smaller at every sample.
DEFECT = np.array([0.1, 0.5, 0.3, 0.5, 0.2, 0.0])
OUTPUT_FORMS = {
    "vec": lambda d: [Jet(2, 0, d / 2), Jet(2, 0, -d)],
    "jet": lambda d: Jet(2, 0, -d),
    "array": lambda d: np.stack([np.stack([d / 4, -d], -1), np.stack([d / 2, d / 3], -1)], -2),
}


@pytest.mark.parametrize("form", OUTPUT_FORMS)
def test_worst_reads_every_output_form_alike(form):
    ctx = EvalContext(Chart(2, ("x", "y"), ((0.0, 20.0), (0.0, 20.0))), POINTS)
    make = OUTPUT_FORMS[form]

    def items(nan_in=None):
        for label, scale in (("small", 0.1), ("big", 1.0), ("tie", 1.0)):
            d = scale * DEFECT
            if label == nan_in:
                d = d.copy()
                d[4] = np.nan
            yield label, make(d)

    res = worst(ctx, items())
    assert res.value == 0.5 and res.frame == "big" and res.worst_point == (2.0, 3.0)
    for label in ("small", "big", "tie"):
        res = worst(ctx, items(nan_in=label))
        assert math.isnan(res.value), label
        assert res.frame == label and res.worst_point == (8.0, 9.0)


def test_only_the_reducer_accumulates_residuals():
    """Every suite measures through `fields.worst`; none keeps its own loop."""
    reducer = inspect.getsource(fields.worst)
    for path in sorted(Path(prodconj.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "fields.py":
            assert reducer in text
            text = text.replace(reducer, "")
        for needle in ("ResidualMax(", ".residuals()"):
            assert needle not in text, f"{path.name} accumulates its own residuals ({needle})"


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
