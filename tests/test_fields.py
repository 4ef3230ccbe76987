"""Point batches, evaluation contexts, and the vector-jet helpers."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodconj import connections, fields
from prodconj.connections import LeviCivitaConnection
from prodconj.errors import ConfigError, EvaluationError, OrderError
from prodconj.expr import parse_expr
from prodconj.fields import (
    Chart,
    EndoField,
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
    vmax_abs,
    vvalues,
)
from prodconj.jets import Jet, tri_size
from prodconj.sampling import SamplePlan, sample_points

from oracles import eval_scalar, whole_contract, whole_dirderiv, whole_endo_apply

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
    besides the two folds of a normal form: `connections._evaluate` adds
    the weighted derivatives of its words, and `connections._fold` a
    combination's table entries.  The pairings, the bracket, the
    Levi-Civita table and every operator's apply are built on them."""
    package = Path(fields.__file__).parent
    found = {f"{module}.{name}" for module in GEOMETRY_MODULES for name in _sum_loops(
        ast.parse((package / f"{module}.py").read_text(encoding="utf-8")))}
    assert found == {"fields.contract", "fields.endo_apply", "fields.dirderiv",
                     "connections._evaluate", "connections._fold"}
    built_on = {fields.metric_pair: "contract(", fields.oneform_apply: "endo_apply(",
                fields.bracket: "dirderiv(", LeviCivitaConnection._jets: "endo_apply(",
                connections._evaluate: "contract(", connections.CombinationOp._normal_form:
                "_fold("}
    for fn, call in built_on.items():
        assert call in inspect.getsource(fn), fn.__qualname__


# ---- the three loops against their whole sums ---------------------------

# 1e200 squared overflows, so a product of two of them is inf
LOOP_CONSTANTS = (0.0, 1.0, -2.5, 1e200)
SPOILED_OPERANDS = (None, "table", "matrix", "vector", "scalar")


@st.composite
def _loop_jet(draw, dim, shape, orders=(0, 1, 2)):
    """A constant jet (0, 1 or another number), or a random one scaled by
    1 or 1e200, at one of `orders`."""
    order = draw(st.sampled_from(orders))
    if draw(st.booleans()):
        return Jet.constant(draw(st.sampled_from(LOOP_CONSTANTS)), dim, order, shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from((1.0, 1e200)))
    return Jet(dim, order, *(scale * rng.standard_normal(shape + tail)
                             for tail in ((), (dim,), (tri_size(dim),))[:order + 1]))


@st.composite
def _loop_vector(draw, dim, shape):
    """A coordinate frame vector, constants 0 and 1 at order 2, or a list of
    `_loop_jet`s."""
    if draw(st.booleans()):
        i = draw(st.integers(0, dim - 1))
        return [Jet.constant(float(k == i), dim, 2, shape) for k in range(dim)]
    return [draw(_loop_jet(dim, shape)) for _ in range(dim)]


@st.composite
def _loop_plane(draw, dim, shape):
    """A coefficient plane: all None, or entries None, at order 1 as a
    normal form stores them, or at any order."""
    entry = st.one_of(st.none(), _loop_jet(dim, shape, orders=(1,)), _loop_jet(dim, shape))
    if draw(st.integers(0, 3)) == 0:
        return [[None] * dim for _ in range(dim)]
    return [[draw(entry) for _ in range(dim)] for _ in range(dim)]


def _spoiled(draw, jet):
    """jet with one inf or NaN entry in one of its arrays."""
    arrays = [np.array(a, dtype=float) for a in (jet.value, jet.grad, jet.hess)[:jet.order + 1]]
    slot = arrays[draw(st.integers(0, jet.order))]
    slot[tuple(draw(st.integers(0, n - 1)) for n in slot.shape)] = draw(
        st.sampled_from((math.inf, -math.inf, math.nan)))
    return Jet(jet.dim, jet.order, *arrays)


def _assert_same_jet(got, want):
    """Equal order, const, and value, gradient and Hessian, NaN equal to
    NaN and the sign of zero ignored."""
    assert (got.order, got.const) == (want.order, want.const)
    for a, b in ((got.value, want.value), (got.grad, want.grad), (got.hess, want.hess)):
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b, equal_nan=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_the_three_loops_equal_their_whole_sums(data):
    """contract, endo_apply and dirderiv, which leave out the terms that are
    the constant 0, equal the loops that form and add every term: frame
    vectors beside random and overflowing operands, mixed orders, start
    jets, all-None planes, and one inf or NaN in one operand."""
    draw = data.draw
    dim, shape = draw(st.integers(2, 3)), draw(st.sampled_from(((), (3,))))
    table = [draw(_loop_plane(dim, shape)) for _ in range(dim)]
    x, y = draw(_loop_vector(dim, shape)), draw(_loop_vector(dim, shape))
    start = draw(st.none() | st.lists(_loop_jet(dim, shape), min_size=dim, max_size=dim))
    E = [draw(_loop_vector(dim, shape)) for _ in range(dim)]
    s = draw(_loop_jet(dim, shape, orders=(1, 2)))
    spoil = draw(st.sampled_from(SPOILED_OPERANDS))
    if spoil == "table":
        k, i, j = (draw(st.integers(0, dim - 1)) for _ in range(3))
        if table[k][i][j] is not None:
            table[k][i][j] = _spoiled(draw, table[k][i][j])
    elif spoil == "matrix":
        k, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        E[k][j] = _spoiled(draw, E[k][j])
    elif spoil == "vector":
        v, i = draw(st.sampled_from((x, y))), draw(st.integers(0, dim - 1))
        v[i] = _spoiled(draw, v[i])
    elif spoil == "scalar":
        s = _spoiled(draw, s)
    with np.errstate(all="ignore"):
        pairs = [(contract(table, x, y, start), whole_contract(table, x, y, start)),
                 (endo_apply(E, x), whole_endo_apply(E, x)),
                 ([dirderiv(x, s)], [whole_dirderiv(x, s)])]
    for got, want in pairs:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_jet(g, w)


def test_a_zero_y_keeps_the_nan_of_an_overflowing_c_x():
    """With finite c and x^i whose product overflows, (c x^i) y^j is NaN
    for y^j = 0 in the whole sum; contract forms c x^i and sees it is not
    finite before it leaves the term out, so it reads NaN too."""
    dim, shape = 2, (3,)
    big = Jet.constant(1e200, dim, 1, shape)
    x = [Jet(dim, 2, np.full(shape, 1e200), np.zeros(shape + (dim,)),
             np.zeros(shape + (tri_size(dim),)))] * dim
    y = [Jet.constant(0.0, dim, 2, shape)] * dim
    table = [[[big, None], [None, None]] for _ in range(dim)]
    with np.errstate(all="ignore"):
        got, want = contract(table, x, y), whole_contract(table, x, y)
    for g, w in zip(got, want):
        assert np.isnan(w.value).all()
        _assert_same_jet(g, w)


def test_a_sum_of_left_out_terms_keeps_their_order():
    """A plane whose one entry meets a zero keeps that term's order 2 as
    the constant 0, whatever the order of an x^i no entry reads; a plane
    with no entry and no start is the constant 0 at x^0's order."""
    shape = (3,)
    x = [Jet.constant(1.0, 2, 1, shape), Jet.constant(0.0, 2, 2, shape)]
    y = [Jet.constant(1.0, 2, 2, shape)] * 2
    entry = Jet.constant(2.5, 2, 2, shape)
    table = [[[None, None], [None, entry]], [[None, None], [None, None]]]
    got, want = contract(table, x, y), whole_contract(table, x, y)
    assert [(g.order, g.const) for g in got] == [(2, 0.0), (1, 0.0)]
    for g, w in zip(got, want):
        _assert_same_jet(g, w)


def test_dirderiv_of_an_order_0_scalar_is_refused():
    """Even along a zero vector, whose terms take no partial of s, with
    the message a partial of it gives."""
    zero = [Jet.constant(0.0, 2, 2, (3,))] * 2
    with pytest.raises(OrderError, match="partial of an order-0 jet"):
        dirderiv(zero, Jet.constant(1.0, 2, 0, (3,)))


def test_magnitude_folds_components_like_a_reduction():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((50, 3, 2))
    arr[7, 1, 0], arr[9, 0, 1], arr[11, 2, 1] = math.nan, -math.inf, -0.0
    want = np.max(np.abs(arr), axis=(1, 2))
    assert np.array_equal(magnitude(arr), want, equal_nan=True)
    assert np.array_equal(magnitude(arr[:, 0, 0]), np.abs(arr[:, 0, 0]))
    vec = [Jet(2, 0, arr[:, k, 0]) for k in range(3)]
    assert np.array_equal(vmax_abs(vec), np.max(np.abs(arr[..., 0]), axis=1), equal_nan=True)
