"""Taylor data against difference quotients and the calculus laws.

The driving comparison: one thousand random expression/point pairs,
gradients and Hessians from the jets against central differences with
step 1e-5, within 1e-6 relative.  The remaining tests pin the ring and
chain rules as properties rather than samples, and the constant-jet
shortcuts against the whole product rule, inf and NaN included.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds
from hypothesis import given, settings, strategies as st

from prodconj.errors import ConfigError, EvaluationError, OrderError
from prodconj.expr import (
    Const,
    Coord,
    Cos,
    Exp,
    Neg,
    Power,
    Product,
    Quotient,
    Sin,
    Sum,
    parse_expr,
)
from prodconj.jets import Jet, eval_jet, jcos, jexp, jsin, shift, tri_size
from prodconj.runner import corpus_text, run_scenario
from prodconj.scenario import load_scenario

from oracles import eval_scalar, fd_grad, fd_hess, full_product, full_sum


def _hess_matrix(jet):
    """Unpack a jet's packed upper-triangle Hessian into the full symmetric matrix."""
    I, J = np.triu_indices(jet.dim)
    full = np.zeros(jet.value.shape + (jet.dim, jet.dim))
    full[..., I, J] = jet.hess
    full[..., J, I] = jet.hess
    return full

_DIM = 2


def _random_expr(rng, depth):
    """Expression trees whose values and derivatives stay O(1) on the box."""
    if depth == 0 or rng.random() < 0.28:
        r = rng.random()
        if r < 0.45:
            return Coord(int(rng.integers(0, _DIM)))
        return Const(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
    op = rng.integers(0, 8)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if op == 0:
        return Sum((a, b))
    if op == 1:
        return Product((a, b))
    if op == 2:
        return Sin(a)
    if op == 3:
        return Cos(a)
    if op == 4:
        return Power(a, int(rng.integers(0, 4)))
    if op == 5:
        # an argument in [-1, 1]: nested exps would leave the float range
        # where a difference quotient means anything
        return Exp(Sin(a))
    if op == 6:
        return Neg(a)
    # keep denominators away from zero on the sample box
    return Quotient(a, Sum((Const(Fraction(3)), Product((b, b)))))


def test_thousand_pairs_match_central_differences():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 1000:
        e = _random_expr(rng, depth=3)
        pt = rng.uniform(-0.9, 0.9, size=_DIM)
        jet = eval_jet(e, pt, 2)
        val = float(eval_scalar(e, pt))
        scale = max(1.0, abs(val))
        if not np.isfinite(val) or scale > 1e3:
            continue  # rare blow-ups make the difference quotient meaningless
        assert jet.value == pytest.approx(val, rel=1e-12, abs=1e-12)
        g = fd_grad(e, pt, h=1e-5)
        h = fd_hess(e, pt, h=1e-5)
        gs = max(1.0, float(np.max(np.abs(g))))
        hs = max(1.0, float(np.max(np.abs(h))))
        assert np.max(np.abs(jet.grad - g)) <= 1e-6 * gs
        assert np.max(np.abs(_hess_matrix(jet) - h)) <= 1e-6 * hs
        checked += 1


def _jet_of(text, pt=(0.4, -0.7)):
    return eval_jet(parse_expr(text, names=("x", "y")), np.asarray(pt), 2)


jet_texts = st.sampled_from([
    "(+ x (* y y))", "(* x (sin y))", "(exp (* 1/2 x))",
    "(pow (+ 1 (* x y)) 3)", "(/ x (+ 2 (* y y)))", "(cos (+ x y))",
])
points = st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))


@settings(max_examples=60)
@given(jet_texts, jet_texts, points)
def test_leibniz_rule(ta, tb, pt):
    a, b = _jet_of(ta, pt), _jet_of(tb, pt)
    prod = a * b
    for i in range(_DIM):
        want = shift(a, i) * b + a * shift(b, i)
        got = shift(prod, i)
        assert np.allclose(got.value, want.value, rtol=1e-10, atol=1e-10)
        # one more shift compares the Hessian row through the product rule
        for j in range(_DIM):
            assert np.allclose(shift(got, j).value, shift(want, j).value,
                               rtol=1e-9, atol=1e-9)


@settings(max_examples=60)
@given(jet_texts, points)
def test_chain_rule_for_sin(text, pt):
    f = _jet_of(text, pt)
    s = jsin(f)
    c = jcos(f)
    for i in range(_DIM):
        assert np.allclose(shift(s, i).value, (c * shift(f, i)).value,
                           rtol=1e-10, atol=1e-10)
        assert np.allclose(shift(c, i).value, (-(s * shift(f, i))).value,
                           rtol=1e-10, atol=1e-10)


@settings(max_examples=40)
@given(jet_texts, points)
def test_exp_is_its_own_derivative(text, pt):
    f = _jet_of(text, pt)
    g = jexp(f)
    for i in range(_DIM):
        assert np.allclose(shift(g, i).value, (g * shift(f, i)).value,
                           rtol=1e-10, atol=1e-10)


def test_shift_lowers_order():
    f = _jet_of("(* x y)")
    assert f.order == 2
    fx = shift(f, 0)
    assert fx.order == 1
    assert shift(fx, 1).order == 0
    with pytest.raises(OrderError):
        shift(shift(fx, 1), 0)


def test_shift_index_checked():
    with pytest.raises(ConfigError):
        shift(_jet_of("x"), 5)


def test_division_by_zero_raises():
    with pytest.raises(EvaluationError):
        eval_jet(parse_expr("(/ 1 (coord 0))"), np.array([0.0, 1.0]), 1)


def test_batched_points_same_as_loop():
    e = parse_expr("(* (sin x) (+ 1 y))", names=("x", "y"))
    pts = np.array([[0.1, 0.2], [-0.5, 0.7], [0.9, -0.9]])
    batch = eval_jet(e, pts, 2)
    for m, pt in enumerate(pts):
        one = eval_jet(e, pt, 2)
        assert np.allclose(batch.value[m], one.value)
        assert np.allclose(batch.grad[m], one.grad)
        assert np.allclose(batch.hess[m], one.hess)


def test_packed_triangle_size():
    assert tri_size(2) == 3
    assert tri_size(3) == 6
    f = _jet_of("(+ (* x x) (* x y))")
    assert f.hess.shape[-1] == 3
    hm = _hess_matrix(f)
    assert np.allclose(hm, hm.swapaxes(-1, -2))


def test_constant_jet():
    c = Jet.constant(2.5, 2, 2, ())
    assert c.value == 2.5
    assert np.all(c.grad == 0) and np.all(c.hess == 0)


# ---- constant jets: the shortcuts against the whole product rule --------

CONSTANTS = (0.0, -0.0, 1.0, -1.0, 2.5, math.inf, math.nan)
BATCH_SHAPES = ((), (1,), (3,), (2, 3))


@st.composite
def _whole_operand(draw, dim, shape, min_order=0):
    """A constant jet, or a random one with at most one inf or NaN entry."""
    order = draw(st.integers(min_order, 2))
    if draw(st.booleans()):
        return Jet.constant(draw(st.sampled_from(CONSTANTS)), dim, order, shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from((1.0, 1e300)))  # 1e300 overflows products
    arrays = [np.array(scale * rng.standard_normal(shape + tail))
              for tail in ((), (dim,), (tri_size(dim),))[:order + 1]]
    if draw(st.booleans()):
        slot = arrays[draw(st.integers(0, order))]
        where = tuple(draw(st.integers(0, n - 1)) for n in slot.shape)
        slot[where] = draw(st.sampled_from((math.inf, -math.inf, math.nan)))
    return Jet(dim, order, *arrays)


@st.composite
def _operand(draw, dim, shape):
    """A whole operand, or a shift or truncation of one taken after its
    finiteness is known, so that the part inherits the flag or drops the
    source's one inf or NaN entry."""
    if draw(st.booleans()):
        return draw(_whole_operand(dim, shape))
    f = draw(_whole_operand(dim, shape, min_order=1))
    with np.errstate(invalid="ignore"):  # inf + -inf in the scan's sum
        f.finite()
    if draw(st.booleans()):
        return shift(f, draw(st.integers(0, dim - 1)))
    return f.truncated(draw(st.integers(0, f.order)))


@st.composite
def _operand_pairs(draw):
    dim = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(BATCH_SHAPES))
    a = draw(_operand(dim, shape))
    b = draw(_operand(dim, draw(st.sampled_from((shape, ())))))
    return a, b


def _same(x, y):
    """Equal arrays (None alike), NaN equal to NaN, the sign of zero ignored."""
    if x is None or y is None:
        return x is None and y is None
    return np.array_equal(np.asarray(x) + 0.0, np.asarray(y) + 0.0, equal_nan=True)


def _assert_matches(jet, reference):
    order, value, grad, hess = reference
    assert jet.order == order
    assert _same(jet.value, value)
    assert _same(jet.grad, grad)
    assert _same(jet.hess, hess)


def _assert_const_contract(jet):
    if jet.const is None:
        return
    assert math.isfinite(jet.const)
    assert np.all(jet.value == jet.const)
    assert all(a is None or not a.any() for a in (jet.grad, jet.hess))


def _assert_finite_flag(jet):
    """`finite()`, scanned, known by construction or inherited, says what a
    fresh entry-by-entry scan of the jet's arrays says."""
    scan = all(a is None or np.isfinite(a).all() for a in (jet.value, jet.grad, jet.hess))
    with np.errstate(invalid="ignore"):  # inf + -inf in the scan's sum
        assert jet.finite() == scan


@settings(max_examples=400, deadline=None)
@given(_operand_pairs(), st.sampled_from((0.5, -3.0, 1e308, math.inf, math.nan)))
def test_constant_shortcuts_match_the_whole_product_rule(pair, scalar):
    a, b = pair
    with np.errstate(all="ignore"):
        results = [(a * b, full_product(a, b)), (b * a, full_product(b, a)),
                   (a + b, full_sum(a, b)), (b + a, full_sum(b, a))]
        scalar_ops = (a * scalar, a + scalar, a - scalar, -a, scalar - a)
    for jet, reference in results:
        _assert_matches(jet, reference)
        _assert_const_contract(jet)
    for jet in (a, b, *(jet for jet, _ in results)):
        _assert_finite_flag(jet)
    for jet in scalar_ops:
        _assert_const_contract(jet)


def _bits(a):
    return None if a is None else np.asarray(a).tobytes()


@st.composite
def _lone_operand(draw):
    return draw(_operand(draw(st.integers(1, 4)), draw(st.sampled_from(BATCH_SHAPES))))


@settings(max_examples=300, deadline=None)
@given(_lone_operand())
def test_a_jet_minus_itself_is_the_full_difference(x):
    """x - x equals the full x + (-x) in order and in every bit of its
    value, gradient and Hessian; a finite x gives the shared constant 0 of
    its order, and an inf or NaN in x keeps its NaN."""
    with np.errstate(all="ignore"):
        got, (order, *arrays) = x - x, full_sum(x, -x)
    assert got.order == order
    assert [_bits(a) for a in (got.value, got.grad, got.hess)] == [_bits(a) for a in arrays]
    if all(a is None or np.isfinite(a).all() for a in (x.value, x.grad, x.hess)):
        assert got is Jet.constant(0.0, x.dim, x.order, x.value.shape)
    else:
        assert got.const is None and any(np.isnan(a).any() for a in arrays if a is not None)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_jet_minus_itself_stays_nan(bad):
    grad = np.zeros((3, 2))
    grad[1, 0] = bad
    x = Jet(2, 1, np.arange(3.0), grad)
    with np.errstate(invalid="ignore"):
        d = x - x
    assert d.const is None and np.isnan(d.grad[1, 0]) and not d.grad[[0, 2]].any()


def test_const_marks_only_finite_constants():
    c = Jet.constant(2.5, 2, 2, (3,))
    assert c.const == 2.5
    assert Jet.constant(math.inf, 2, 2, (3,)).const is None
    assert Jet.constant(math.nan, 2, 2, (3,)).const is None
    partial = shift(c, 1)
    assert partial.const == 0.0 and partial.order == 1
    assert (c / Jet.constant(2.0, 2, 2, (3,))).const is None
    assert jexp(c).const is None
    with np.errstate(over="ignore"):
        assert (Jet.constant(1e308, 2, 2, (3,)) * 10.0).const is None
    assert (c * Jet.constant(-2.0, 2, 2, (3,))).const == -5.0
    assert (c + 1).const == 3.5 and (-c).const == -2.5
    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert eval_jet(parse_expr("(* 3 2)"), pts, 2).const == 6.0
    assert eval_jet(parse_expr("x", names=("x", "y")), pts, 2).const is None
    assert Jet(2, 0, np.ones(3)).const is None


def test_constant_jets_cost_no_scans_and_no_copies(monkeypatch):
    c = Jet.constant(2.5, 3, 2, (4,))
    pts = np.array([[0.1, 0.2, 0.3], [0.3, -0.4, 0.5], [0.0, 0.6, -0.2], [0.7, 0.1, 0.9]])
    f = eval_jet(parse_expr("(* x (sin (+ y z)))", names=("x", "y", "z")), pts, 2)
    assert f.finite()  # the one scan these jets need
    parts = [shift(c, 1), shift(f, 0), shift(shift(f, 2), 1), f.truncated(1), f.truncated(0)]
    scans = []

    def counting_isfinite(x):
        scans.append(x)
        return math.isfinite(x)
    monkeypatch.setattr("prodconj.jets.math", SimpleNamespace(isfinite=counting_isfinite))
    assert c.finite() and all(part.finite() for part in parts)
    assert scans == []

    d = Jet.constant(-1.0, 3, 2, (4,))
    assert d.grad is c.grad and d.hess is c.hess
    assert np.shares_memory(shift(c, 1).grad, c.grad)
    for shared in (c.grad, c.hess):
        with pytest.raises(ValueError):
            shared[0, 0] = 1.0


def test_a_coordinate_has_constant_partials():
    """shift of a coordinate's jet is the constant 0 or 1, one order lower,
    holding no batch-sized array of its own: a stride-0 value over one
    number and the shared zero gradient.  The coordinate's gradient is a
    read-only unit row with stride 0 over the batch; a product of
    coordinates keeps per-sample partials."""
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (5000, 3))
    zero_grad = Jet.constant(0.0, 3, 1, (5000,)).grad
    for i in range(3):
        x = eval_jet(Coord(i), pts, 2)
        assert x.const is None and x.grad.strides[0] == 0
        with pytest.raises(ValueError):
            x.grad[0, i] = 2.0
        for j in range(3):
            d = shift(eval_jet(Coord(i), pts, 2), j)
            assert d.const == float(i == j) and d.order == 1
            low, high = byte_bounds(d.value)
            assert d.value.strides == (0,) and high - low == d.value.itemsize
            assert d.grad is zero_grad
            assert shift(x.truncated(1), j).const == float(i == j)
    assert shift(eval_jet(Coord(0), pts[0], 2), 0).const == 1.0
    xy = eval_jet(parse_expr("(* x y)", names=("x", "y", "z")), pts, 2)
    assert shift(xy, 0).const is None


def test_a_constant_holds_no_per_sample_array():
    """A constant's value is a read-only stride-0 view of one number, and
    sums, negations and products of constants, or of a constant and a
    number, are such constants again."""
    c = Jet.constant(2.5, 3, 2, (5000,))
    d = Jet.constant(-4.0, 3, 1, (5000,))
    for jet in (c, c + d, c - d, -c, c * 3.0, 3.0 * c, c + 1.0, c * d, d * c):
        assert jet.const is not None and jet.value.strides == (0,), jet
        low, high = byte_bounds(jet.value)
        assert high - low == jet.value.itemsize
        with pytest.raises(ValueError):
            jet.value[0] = 1.0
    assert (c * d).const == -10.0 and (c * d).order == 1
    assert np.array_equal(c.value, np.full(5000, 2.5))


def test_a_constant_zero_is_one_shared_jet(monkeypatch):
    """Every constant zero of one sign, dim, order and batch shape is one
    jet: +0.0 and -0.0 stay apart, each with its sign bit in `const` and in
    the value, and each other dim, order or shape has its own jet.  Its
    arrays are read-only and `finite` needs no scan."""
    z = Jet.constant(0.0, 3, 2, (4,))
    neg = Jet.constant(-0.0, 3, 2, (4,))
    assert Jet.constant(0, 3, 2, (4,)) is z and z.like_constant(0.0) is z
    assert Jet.constant(-0.0, 3, 2, (4,)) is neg and neg is not z
    assert -z is neg and -neg is z
    assert math.copysign(1.0, z.const) == 1.0 and not np.signbit(z.value).any()
    assert math.copysign(1.0, neg.const) == -1.0 and np.signbit(neg.value).all()
    others = [Jet.constant(0.0, dim, order, shape) for dim, order, shape in
              ((2, 2, (4,)), (3, 1, (4,)), (3, 0, (4,)), (3, 2, (5,)), (3, 2, ()),
               (3, 2, (4, 1)))]
    assert len({id(jet) for jet in (z, neg, *others)}) == 8
    for jet in others:
        assert jet is Jet.constant(0.0, jet.dim, jet.order, jet.value.shape)
    for jet in (z, neg):
        for a in (jet.value, jet.grad, jet.hess):
            with pytest.raises(ValueError):
                a[0] = 1.0
    scans = []
    monkeypatch.setattr("prodconj.jets.math", SimpleNamespace(
        isfinite=lambda x: scans.append(x) or math.isfinite(x)))
    assert all(jet.finite() for jet in (z, neg, *others)) and scans == []


def test_truncating_or_shifting_a_zero_gives_the_shared_jet():
    z = Jet.constant(0.0, 2, 2, (3,))
    neg = Jet.constant(-0.0, 2, 2, (3,))
    assert z.truncated(1) is Jet.constant(0.0, 2, 1, (3,))
    assert z.truncated(0) is Jet.constant(0.0, 2, 0, (3,))
    assert neg.truncated(1) is Jet.constant(-0.0, 2, 1, (3,))
    partial = Jet.constant(0.0, 2, 1, (3,))
    for f in (z, neg, Jet.constant(2.5, 2, 2, (3,))):
        assert shift(f, 0) is partial and shift(f, 1) is partial
    assert shift(partial, 1) is Jet.constant(0.0, 2, 0, (3,))


def test_a_second_run_builds_no_zero_jet(monkeypatch):
    """Zeros are built once per process: a second run of involutivity_r3
    constructs no jet whose `const` is 0 (13,057 of its 13,632 jets were
    such zeros before they were shared)."""
    scn = load_scenario(corpus_text("involutivity_r3"), name="involutivity_r3")
    run_scenario(scn, samples=200)
    zeros = []
    init = Jet.__init__

    def counted(jet, *args, **kwargs):
        init(jet, *args, **kwargs)
        zeros.append(jet.const == 0.0)
    monkeypatch.setattr(Jet, "__init__", counted)
    assert not run_scenario(scn, samples=200).failed
    assert zeros and not any(zeros)
