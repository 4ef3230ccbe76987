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
from prodconj.reporting import ERROR, CheckRow, Residual

POINTS = np.arange(12.0).reshape(6, 2)
CTX = EvalContext(Chart(2, ("x", "y"), ((0.0, 20.0), (0.0, 20.0))), POINTS)


def _accumulated(frames):
    return worst(CTX, ((f"f{f}", values) for f, values in enumerate(frames)))


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
    res = worst(CTX, [("a", np.array(5.0)), ("b", np.array(1.0))])
    assert res.value == 5.0 and res.frame == "a" and res.worst_point is None


def test_all_zero_outputs_keep_the_first_witness():
    res = _accumulated([np.zeros(6), np.zeros(6)])
    assert res.value == 0.0
    assert res.frame == "f0" and res.worst_point == (0.0, 1.0)
    assert worst(CTX, []) == Residual(0.0)


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


def _with_nan(sample):
    d = DEFECT.copy()
    d[sample] = np.nan
    return d


# NaNs at frame pair (dy,dx) and then at (dy,dy); the first one must stay.
LATE_NANS = {(1, 0): _with_nan(4), (1, 1): _with_nan(1)}

# case: (dim, per-sample defect at frame pair (i, j) for each yielded name,
#        (name, expected value, witness frame, witness sample))
SCANS = {
    "tie": (2, {"same": lambda i, j: DEFECT, "grows": lambda i, j: (1 + i + j) * DEFECT},
            ("same", 0.5, "(dx,dx)", 1)),
    "nan_at_a_later_pair": (2, {"late_nan": lambda i, j: LATE_NANS.get((i, j), DEFECT),
                                "finite": lambda i, j: (1 + j) * DEFECT},
                            ("late_nan", math.nan, "(dy,dx)", 4)),
    "one_call_per_pair": (3, {"grows": lambda i, j: (1 + 3 * i + j) * DEFECT},
                          ("grows", 4.5, "(dz,dz)", 1)),
}


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("case", SCANS)
def test_frame_pair_rows_matches_one_scan_per_name(case):
    """One pass over the frame pairs gives every name the residual its own
    scan would: same value, same witness, rows called once per pair."""
    dim, outputs, (name, value, frame, sample) = SCANS[case]
    points = np.arange(6.0 * dim).reshape(6, dim)
    ctx = EvalContext(Chart(dim, ("x", "y", "z")[:dim], ((0.0, 20.0),) * dim), points)

    def pair(X, Y):  # the frame indices (i, j) of a frame pair
        return tuple(next(k for k, c in enumerate(V) if c.value[0] == 1.0) for V in (X, Y))

    calls = []

    def rows(X, Y):
        calls.append(pair(X, Y))
        for key, out in outputs.items():
            yield key, out(*pair(X, Y))

    res = fields.frame_pair_rows(ctx, rows)
    assert calls == [(i, j) for i in range(dim) for j in range(dim)]
    assert list(res) == list(outputs)
    for key, out in outputs.items():
        alone = frame_pair_residual(ctx, lambda X, Y: out(*pair(X, Y)))
        assert _same(res[key].value, alone.value), key
        assert (res[key].frame, res[key].worst_point) == (alone.frame, alone.worst_point)
    assert _same(res[name].value, value)
    assert (res[name].frame, res[name].worst_point) == (frame, tuple(points[sample]))


def test_only_the_reducer_accumulates_residuals():
    """Every suite measures through `fields.worst`, which folds by
    `Residual.merged`; no module keeps a fold of its own."""
    reducer = inspect.getsource(fields.worst)
    for path in sorted(Path(prodconj.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "fields.py":
            assert reducer in text
            text = text.replace(reducer, "")
        for needle in ("ResidualMax", ".residuals()"):
            assert needle not in text, f"{path.name} accumulates its own residuals ({needle})"


def test_only_the_gate_decides_hypotheses():
    """Every hypothesis gate goes through `fields.gated`: outside it,
    `.within(` appears only in the judge's rule and the loader's two probes,
    and no module writes a skip note of its own."""
    gate = inspect.getsource(fields.gated)
    allowed = {"reporting.py": 1, "scenario.py": 2}
    for path in sorted(Path(prodconj.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "fields.py":
            assert gate in text
            text = text.replace(gate, "")
        assert text.count(".within(") == allowed.get(path.name, 0), path.name
        assert "skipped:" not in text, path.name


@pytest.mark.parametrize("values, opens", [
    ((0.0, 1e-9), True),
    ((0.0, 2e-9), False),
    ((math.nan, 0.0), False),
    ((0.0, math.inf), False),
], ids=["within", "above", "nan", "inf"])
def test_gate_opens_only_when_every_hypothesis_holds(values, opens):
    hypotheses = [(f"h{k}", Residual(v)) for k, v in enumerate(values)]
    measured = [("c1", Residual(0.5), "measured"), ("c2", Residual(0.25), "")]
    calls = []

    def measure():
        calls.append(None)
        return measured

    rows = fields.gated(1e-9, hypotheses, ["c1", "c2"], measure)
    if opens:
        assert rows == measured and len(calls) == 1
    else:
        note = f"skipped: hypothesis fails (h0 {values[0]:.3e}, h1 {values[1]:.3e})"
        assert rows == [("c1", None, note), ("c2", None, note)]
        assert calls == [], "a closed gate must not measure its conclusions"


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
