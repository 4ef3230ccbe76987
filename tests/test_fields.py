"""Point batches, evaluation contexts, and the vector-jet helpers."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodconj import fields
from prodconj.connections import ChristoffelConnection, LeviCivitaConnection, Sandwiched
from prodconj.errors import ConfigError, EvaluationError
from prodconj.expr import ZERO, parse_expr
from prodconj.fields import (
    Chart,
    EndoField,
    EvalContext,
    FrameVector,
    Grid,
    MetricField,
    OneFormField,
    Tensor12Field,
    VectorField,
    almost_product_residual,
    bracket,
    complement_endo,
    context_for,
    contract,
    dirderiv,
    endo_apply,
    endo_from_difference,
    frame_pair_residual,
    magnitude,
    metric_compat_residual,
    metric_pair,
    oneform_apply,
    vadd,
    vmax_abs,
    vscale,
    vsub,
    vvalues,
)
from prodconj.jets import Jet, tri_size
from prodconj.sampling import SamplePlan, sample_points

from oracles import eval_scalar

BOX = ((-1.0, 1.0), (-1.0, 1.0))
CHART = Chart(2, ("x", "y"), BOX)
NAMES = ("x", "y")


def _p(text):
    return parse_expr(text, names=NAMES)


def _endo(rows, label="E"):
    return EndoField(CHART, tuple(tuple(_p(t) for t in row) for row in rows), label=label)


SWAP = _endo([("0", "1"), ("1", "0")], "swap")
SHEAR = _endo([("1", "x"), ("0", "-1")], "shear")
HPROJ = _endo([("1", "0"), ("0", "0")], "h")


def _ctx(seed=7, count=40):
    return context_for(CHART, SamplePlan(seed, count, BOX))


# ---- sampling ---------------------------------------------------------


def test_sampling_deterministic_and_interior():
    plan = SamplePlan(7, 500, BOX)
    a = sample_points(plan)
    b = sample_points(SamplePlan(7, 500, BOX))
    assert a.shape == (500, 2)
    assert np.array_equal(a, b)
    assert np.all(a > -1.0) and np.all(a < 1.0)
    c = sample_points(plan.replace(seed=8))
    assert not np.array_equal(a, c)


def test_sampling_validation():
    with pytest.raises(ConfigError):
        SamplePlan(7, 0, BOX)
    with pytest.raises(ConfigError):
        SamplePlan(7, 10, ())
    with pytest.raises(ConfigError):
        SamplePlan(7, 10, ((1.0, 1.0),))


def test_plan_may_tighten_but_not_exceed_chart_box():
    inner = SamplePlan(7, 20, ((-0.5, 0.5), (-0.5, 0.5)))
    ctx = context_for(CHART, inner)
    assert np.all(np.abs(ctx.points) < 0.5)
    with pytest.raises(ConfigError):
        context_for(CHART, SamplePlan(7, 20, ((-2.0, 2.0), (-1.0, 1.0))))


def test_chart_validation():
    with pytest.raises(ConfigError):
        Chart(2, ("x", "x"), BOX)
    with pytest.raises(ConfigError):
        Chart(2, ("x", "y"), ((-1.0, 1.0),))


# ---- contexts ---------------------------------------------------------


def test_context_caches_by_field_object():
    ctx = _ctx()
    assert ctx.endo(SWAP) is ctx.endo(SWAP)
    f = VectorField(CHART, (_p("x"), _p("1")))
    assert ctx.vector(f) is ctx.vector(f)


def test_scalar_values_match_direct_evaluation():
    ctx = _ctx(count=25)
    e = _p("(* (sin x) (+ 1 (* y y)))")
    jet = ctx.scalar(e)
    for m, pt in enumerate(ctx.points):
        assert jet.value[m] == pytest.approx(float(eval_scalar(e, pt)), rel=1e-12)


def test_metric_gate_rejects_degenerate():
    g = MetricField(CHART, ((_p("1"), _p("0")), (_p("0"),)), label="bad")
    ctx = _ctx()
    with pytest.raises(EvaluationError):
        ctx.metric_values(g)


def test_metric_entry_symmetry():
    g = MetricField(CHART, ((_p("1"), _p("x")), (_p("2"),)))
    assert g.entry(1, 0) is g.entry(0, 1)


# ---- algebra ----------------------------------------------------------


def test_endo_apply_matches_matrix_product():
    ctx = _ctx(count=15)
    E = ctx.endo(SHEAR)
    v = ctx.vector(VectorField(CHART, (_p("y"), _p("(* x x)"))))
    out = vvalues(endo_apply(E, v))
    for m, (x, y) in enumerate(ctx.points):
        A = np.array([[1.0, x], [0.0, -1.0]])
        assert np.allclose(out[m], A @ np.array([y, x * x]))


def test_metric_and_oneform_pairings():
    ctx = _ctx(count=15)
    G = ctx.metric(MetricField(CHART, ((_p("1"), _p("0")), (_p("(pow (sin x) 2)"),))))
    frame = ctx.frame()
    s = metric_pair(G, frame[1], frame[1])
    assert np.allclose(s.value, np.sin(ctx.points[:, 0]) ** 2)
    w = ctx.oneform(OneFormField(CHART, (_p("x"), _p("1"))))
    v = ctx.vector(VectorField(CHART, (_p("1"), _p("y"))))
    assert np.allclose(oneform_apply(w, v).value,
                       ctx.points[:, 0] + ctx.points[:, 1])


def lie_bracket(ctx, X, Y):
    return bracket(ctx.vector(X), ctx.vector(Y))


def test_lie_bracket_frozen_example():
    # X = (1, x), Y = (y, 1): [X, Y] = (x, -y)
    ctx = _ctx(count=20)
    X = VectorField(CHART, (_p("1"), _p("x")))
    Y = VectorField(CHART, (_p("y"), _p("1")))
    out = vvalues(lie_bracket(ctx, X, Y))
    assert np.allclose(out[:, 0], ctx.points[:, 0])
    assert np.allclose(out[:, 1], -ctx.points[:, 1])


def test_coordinate_frame_commutes():
    ctx = _ctx(count=10)
    frame = ctx.frame()
    out = vvalues(bracket(frame[0], frame[1]))
    assert np.all(out == 0)


def test_frame_pair_residual_reports_worst_pair():
    ctx = _ctx(count=10)

    def fn(X, Y):
        # nonzero only when both inputs are the second frame field
        s = X[1] * Y[1]
        return [s, s]

    res = frame_pair_residual(ctx, fn)
    assert res.value == pytest.approx(1.0)
    assert res.frame == "(dy,dy)"


# ---- structure residuals ---------------------------------------------


def test_involution_residuals():
    ctx = _ctx()
    assert almost_product_residual(ctx, SWAP).value <= 1e-15
    assert almost_product_residual(ctx, SHEAR).value <= 1e-15
    assert almost_product_residual(ctx, HPROJ).value == pytest.approx(1.0)


def check_almost_product(E, plan, tol):
    res = almost_product_residual(context_for(E.chart, plan), E)
    if res.value > tol:
        res.frame = "not an involution"
    return res


def test_check_almost_product_flags_failure():
    res = check_almost_product(HPROJ, SamplePlan(7, 30, BOX), 1e-9)
    assert res.value > 1e-9
    assert res.frame == "not an involution"


def test_metric_compat_residual():
    round_g = MetricField(CHART, ((_p("1"), _p("0")), (_p("(+ 2 x)"),)))
    refl = _endo([("1", "0"), ("0", "-1")], "refl")
    ctx = _ctx()
    assert metric_compat_residual(ctx, round_g, refl).value <= 1e-15
    assert metric_compat_residual(ctx, round_g, SHEAR).value > 1e-3


def test_difference_and_complement_endos():
    E = endo_from_difference(HPROJ, complement_endo(HPROJ))
    ctx = _ctx(count=10)
    A = np.stack([np.stack([j.value for j in row], -1) for row in ctx.endo(E)], -2)
    assert np.allclose(A, np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_tensor_shape_validation():
    with pytest.raises(ConfigError):
        Tensor12Field.from_components(CHART, [[[_p("0")]]])


# ---- where component sums live ---------------------------------------


GEOMETRY_MODULES = ("fields", "connections", "conjugation", "distributions", "generalized")


def _sum_loops(tree: ast.AST, scope: str = "", looping: bool = False):
    """Qualified names of the functions holding a loop that folds a name
    into itself: `acc = ... acc + term ...`, `acc += term` or
    `acc = vadd(acc, piece)` inside a for or while body."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= _sum_loops(node, f"{scope}{node.name}.", False)
            continue
        inner = looping or isinstance(node, (ast.For, ast.While))
        if inner and isinstance(node, (ast.Assign, ast.AugAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            folds = isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add):
                    operands = (sub.left, sub.right)
                elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "vadd":
                    operands = sub.args
                else:
                    continue
                folds |= any(getattr(o, "id", None) == getattr(target, "id", "")
                             for o in operands)
            if folds and isinstance(target, ast.Name):
                found.add(scope.rstrip("."))
        found |= _sum_loops(node, scope, inner)
    return found


def test_three_loops_hold_every_component_sum():
    """contract, endo_apply and dirderiv are the only component-sum loops
    besides CombinationOp.apply's fold over its terms; the pairings, the
    bracket and the Levi-Civita table are built on them."""
    package = Path(fields.__file__).parent
    found = {f"{module}.{name}" for module in GEOMETRY_MODULES for name in _sum_loops(
        ast.parse((package / f"{module}.py").read_text(encoding="utf-8")))}
    assert found == {"fields.contract", "fields.endo_apply", "fields.dirderiv",
                     "connections.CombinationOp.apply"}
    built_on = {fields.metric_pair: "contract(", fields.oneform_apply: "endo_apply(",
                fields.bracket: "dirderiv(", LeviCivitaConnection._jets: "endo_apply("}
    for fn, call in built_on.items():
        assert call in inspect.getsource(fn), fn.__qualname__


# ---- frame operands: read by index, equal to the whole sum -----------

CHART3 = Chart(3, ("x", "y", "z"), ((-1.0, 1.0),) * 3)
CTX3 = EvalContext(CHART3, np.array([[0.1, -0.2, 0.3], [0.5, 0.4, -0.6]]))
BAD = (math.inf, -math.inf, math.nan)


@st.composite
def _entry(draw, poisoned=False, orders=(1, 2)):
    """A jet on CTX3's batch: a constant (0 and 1 included) or random arrays,
    some large enough that products overflow; a poisoned one holds one inf
    or NaN entry."""
    order = draw(st.sampled_from(orders))
    if not poisoned and draw(st.booleans()):
        return Jet.constant(draw(st.sampled_from((0.0, 1.0, -2.5))), 3, order, (CTX3.count,))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from((1.0, 1e200)))
    arrays = [scale * rng.standard_normal((CTX3.count,) + tail)
              for tail in ((), (3,), (tri_size(3),))[:order + 1]]
    if poisoned:
        slot = arrays[draw(st.integers(0, order))]
        where = tuple(draw(st.integers(0, n - 1)) for n in slot.shape)
        slot[where] = draw(st.sampled_from(BAD))
    return Jet(3, order, *arrays)


@st.composite
def _vector(draw, poison):
    """Three jets, one order each unless drawn mixed; `poison` picks one."""
    order = draw(st.sampled_from((1, 2)))
    orders = (1, 2) if draw(st.booleans()) else (order,)
    return [draw(_entry(poisoned=(poison == k), orders=orders)) for k in range(3)]


def _assert_same_jet(got, want):
    """Equal order, const and arrays, NaN equal to NaN; the sign of a zero
    may differ, since a sum of exact zeros keeps the first one's."""
    assert got.order == want.order
    assert got.const == want.const
    for g, w in ((got.value, want.value), (got.grad, want.grad), (got.hess, want.hess)):
        assert (g is None) == (w is None)
        assert g is None or np.array_equal(g, w, equal_nan=True)


def _assert_same_vec(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_jet(g, w)


FRAME_ROUTE = settings(derandomize=True, database=None, deadline=None, max_examples=80)


@FRAME_ROUTE
@given(st.data())
def test_contract_with_a_frame_operand_is_the_whole_sum(data):
    """Each loop against itself on `list(frame vector)`, which carries no
    index and so takes the whole sum; one table entry, vector component or
    start jet may hold an inf or NaN."""
    draw = data.draw
    where = draw(st.sampled_from(("none", "table", "vector", "start")))
    bad = draw(st.integers(0, 26))
    table = [Grid([None if draw(st.integers(0, 3)) == 0 else
                   draw(_entry(poisoned=(where == "table" and bad == 9 * k + 3 * i + j)))
                   for j in range(3)] for i in range(3)) for k in range(3)]
    start = None
    if draw(st.booleans()):
        start = [draw(_entry(poisoned=(where == "start" and bad % 3 == k))) for k in range(3)]
    frame = CTX3.frame()
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    other = draw(_vector(bad % 3 if where == "vector" else None))
    for x, y in ((frame[a], other), (frame[a], frame[b]), (other, frame[b])):
        with np.errstate(all="ignore"):
            got = contract(table, x, y, start=start)
            want = contract(table, list(x), list(y), start=start)
        _assert_same_vec(got, want)


@FRAME_ROUTE
@given(st.data())
def test_endo_apply_on_a_frame_vector_is_the_whole_sum(data):
    draw = data.draw
    bad = draw(st.one_of(st.none(), st.integers(0, 8)))  # the poisoned entry, if any
    E = Grid([draw(_entry(poisoned=(bad == 3 * k + j))) for j in range(3)] for k in range(3))
    b = draw(st.integers(0, 2))
    with np.errstate(all="ignore"):
        got = endo_apply(E, CTX3.frame()[b])
        want = endo_apply(E, list(CTX3.frame()[b]))
    _assert_same_vec(got, want)


@FRAME_ROUTE
@given(st.data())
def test_dirderiv_along_a_frame_vector_is_the_whole_sum(data):
    draw = data.draw
    s = draw(_entry(poisoned=draw(st.booleans())))
    i = draw(st.integers(0, 2))
    with np.errstate(all="ignore"):
        got = dirderiv(CTX3.frame()[i], s)
        want = dirderiv(list(CTX3.frame()[i]), s)
    _assert_same_jet(got, want)


def test_frame_pair_christoffel_apply_of_a_flat_table_multiplies_nothing(monkeypatch):
    flat = ChristoffelConnection(CHART3, [[[ZERO] * 3] * 3] * 3)
    products = []
    original = Jet.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)
    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    frame = CTX3.frame()
    for X in frame:
        for Y in frame:
            assert np.all(vvalues(flat.apply(CTX3, X, Y)) == 0.0)
    assert products == []


def test_only_the_context_frame_carries_its_index():
    ctx = _ctx(count=5)
    frame = ctx.frame()
    assert [v.index for v in frame] == [0, 1]
    assert all(type(v) is FrameVector for v in frame)
    X, Y = frame
    E = ctx.endo(SHEAR)
    flat = ChristoffelConnection(CHART, [[[ZERO] * 2] * 2] * 2)
    derived = [vadd(X, Y), vsub(X, Y), vscale(2.0, X), vscale(X[0], Y), endo_apply(E, X),
               bracket(X, Y), Sandwiched(flat).apply(ctx, X, Y),
               Sandwiched(flat, out=SHEAR, arg=SHEAR, along=SHEAR).apply(ctx, X, Y)]
    assert all(type(v) is list for v in derived)


def test_magnitude_folds_components_like_a_reduction():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((50, 3, 2))
    arr[7, 1, 0], arr[9, 0, 1], arr[11, 2, 1] = math.nan, -math.inf, -0.0
    want = np.max(np.abs(arr), axis=(1, 2))
    assert np.array_equal(magnitude(arr), want, equal_nan=True)
    assert np.array_equal(magnitude(arr[:, 0, 0]), np.abs(arr[:, 0, 0]))
    vec = [Jet(2, 0, arr[:, k, 0]) for k in range(3)]
    assert np.array_equal(vmax_abs(vec), np.max(np.abs(arr[..., 0]), axis=1), equal_nan=True)
