"""Point batches, evaluation contexts, and the vector-jet helpers."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from prodconj import fields
from prodconj.connections import LeviCivitaConnection
from prodconj.errors import ConfigError, EvaluationError
from prodconj.expr import parse_expr
from prodconj.fields import (
    Chart,
    EndoField,
    EvalContext,
    MetricField,
    OneFormField,
    Tensor12Field,
    VectorField,
    almost_product_residual,
    bracket,
    complement_endo,
    context_for,
    endo_apply,
    endo_from_difference,
    frame_pair_residual,
    metric_compat_residual,
    metric_pair,
    oneform_apply,
    vvalues,
)
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
