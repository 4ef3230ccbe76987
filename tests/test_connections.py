"""Connection operators against difference-quotient coefficient oracles.

The Levi-Civita coefficients and the curvature both have independent
finite-difference reconstructions in oracles.py; numbers at fixed points
are frozen so regressions move a literal, not a tolerance.
"""

import numpy as np
import pytest

from prodconj.errors import ConfigError
from prodconj.expr import ZERO, parse_expr
from prodconj.fields import (
    Chart,
    EvalContext,
    MetricField,
    Tensor12Field,
    VectorField,
    context_for,
    vvalues,
)
from prodconj.connections import (
    ChristoffelConnection,
    CombinationOp,
    LeviCivitaConnection,
    SumConnection,
    ZeroOp,
    connection_laws_residual,
    curvature,
    flat_connection,
    leibniz_defect_residual,
    metricity_residual,
    nabla_endo,
    torsion,
    torsion_residual,
)
from prodconj.sampling import SamplePlan

from engine_tables import materialize_christoffels
from oracles import christoffel_fd, riemann_fd

BOX = ((-1.0, 1.0), (-1.0, 1.0))
CHART = Chart(2, ("x", "y"), BOX)
SPHERE_BOX = ((0.3, 1.2), (-1.0, 1.0))
SPHERE_CHART = Chart(2, ("x", "y"), SPHERE_BOX)


def _p(text):
    return parse_expr(text, names=("x", "y"))


def _metric(chart, g00, g01, g11):
    return MetricField(chart, ((_p(g00), _p(g01)), (_p(g11),)))


ROUND = _metric(SPHERE_CHART, "1", "0", "(pow (sin x) 2)")
WARPED = _metric(CHART, "1", "0", "(+ 1 (* x x))")


def _ctx(chart, seed=7, count=40):
    return context_for(chart, SamplePlan(seed, count, chart.box))


def _ctx_at(chart, *points):
    return EvalContext(chart, np.array(points, dtype=float))


# ---- Levi-Civita coefficients ----------------------------------------


def test_round_metric_frozen_coefficients():
    ctx = _ctx_at(SPHERE_CHART, (0.7, 0.1))
    gam = materialize_christoffels(ctx, LeviCivitaConnection(ROUND))[0]
    # nonzero entries: k=0 (i,j)=(1,1) is -sin x cos x; k=1 mixed is cot x
    assert gam[0, 1, 1] == pytest.approx(-0.4927248649942301, abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(1.1872418321266796, abs=1e-12)
    assert gam[1, 1, 0] == pytest.approx(1.1872418321266796, abs=1e-12)
    assert abs(gam[0, 0, 0]) + abs(gam[0, 0, 1]) + abs(gam[1, 1, 1]) < 1e-14


def test_warped_metric_frozen_coefficients():
    ctx = _ctx_at(CHART, (0.5, -0.2))
    gam = materialize_christoffels(ctx, LeviCivitaConnection(WARPED))[0]
    assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-13)
    assert gam[1, 0, 1] == pytest.approx(0.4, abs=1e-13)


@pytest.mark.parametrize("metric,chart", [(ROUND, SPHERE_CHART), (WARPED, CHART)])
def test_coefficients_match_difference_quotients(metric, chart):
    ctx = _ctx(chart, count=12)
    gam = materialize_christoffels(ctx, LeviCivitaConnection(metric))
    for m, pt in enumerate(ctx.points):
        want = christoffel_fd(metric, pt)
        assert np.max(np.abs(gam[m] - want)) < 1e-6


@pytest.mark.parametrize("metric,chart", [(ROUND, SPHERE_CHART), (WARPED, CHART)])
def test_levi_civita_contract(metric, chart):
    ctx = _ctx(chart)
    lc = LeviCivitaConnection(metric)
    assert torsion_residual(ctx, lc).value < 1e-12
    assert metricity_residual(ctx, lc, metric).value < 1e-11


# ---- curvature --------------------------------------------------------


def test_round_metric_frozen_curvature():
    # R(d0, d1)d1 = sin^2(x) d0 at x = 0.7
    ctx = _ctx_at(SPHERE_CHART, (0.7, 0.3))
    frame = ctx.frame()
    R = vvalues(curvature(ctx, LeviCivitaConnection(ROUND), frame[0], frame[1], frame[1]))
    assert R[0, 0] == pytest.approx(0.41501642854987947, abs=1e-12)
    assert R[0, 1] == pytest.approx(0.0, abs=1e-13)


def test_curvature_matches_difference_quotients():
    ctx = _ctx(SPHERE_CHART, count=8)
    lc = LeviCivitaConnection(ROUND)
    frame = ctx.frame()
    got = np.empty((ctx.count, 2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                got[:, :, i, j, k] = vvalues(curvature(ctx, lc, frame[i], frame[j], frame[k]))

    def gamma_at(pt):
        return materialize_christoffels(_ctx_at(SPHERE_CHART, pt), lc)[0]

    for m, pt in enumerate(ctx.points):
        want = riemann_fd(gamma_at, pt)
        assert np.max(np.abs(got[m] - want)) < 2e-5


def test_flat_connection_is_flat_and_symmetric():
    ctx = _ctx(CHART)
    flat = flat_connection(CHART)
    frame = ctx.frame()
    assert torsion_residual(ctx, flat).value == 0.0
    R = vvalues(curvature(ctx, flat, frame[0], frame[1], frame[1]))
    assert np.all(R == 0.0)


# ---- coordinate connections ------------------------------------------


def _rolled():
    gamma = [[[ZERO, _p("y")], [ZERO, ZERO]],
             [[ZERO, ZERO], [_p("x"), ZERO]]]
    return ChristoffelConnection(CHART, gamma, label="rolled")


def test_torsion_components_of_skewed_table():
    # gamma^0_01 = y and gamma^1_10 = x give T(d0, d1) = (y, -x)
    ctx = _ctx(CHART, count=20)
    frame = ctx.frame()
    T = vvalues(torsion(ctx, _rolled(), frame[0], frame[1]))
    assert np.allclose(T[:, 0], ctx.points[:, 1])
    assert np.allclose(T[:, 1], -ctx.points[:, 0])
    assert torsion_residual(ctx, _rolled()).value > 1e-3


def test_materialize_round_trips_the_table():
    ctx = _ctx(CHART, count=10)
    gam = materialize_christoffels(ctx, _rolled())
    assert np.allclose(gam[:, 0, 0, 1], ctx.points[:, 1])
    assert np.allclose(gam[:, 1, 1, 0], ctx.points[:, 0])
    gam[:, 0, 0, 1] = 0.0
    gam[:, 1, 1, 0] = 0.0
    assert np.all(gam == 0.0)


def test_gamma_shape_validation():
    with pytest.raises(ConfigError):
        ChristoffelConnection(CHART, [[[ZERO]]])


# ---- axioms and defects ----------------------------------------------


WEIGHT = _p("(* x (+ 1 (* y y)))")


def _args(ctx):
    x = ctx.vector(VectorField(CHART, (_p("1"), _p("x"))))
    y = ctx.vector(VectorField(CHART, (_p("y"), _p("1"))))
    return x, y


def test_connection_laws_hold_for_tables():
    ctx = _ctx(CHART)
    x, y = _args(ctx)
    assert connection_laws_residual(ctx, _rolled(), WEIGHT, x, y).value < 1e-12


def test_connection_laws_reject_tensorial_op():
    ctx = _ctx(CHART)
    x, y = _args(ctx)
    res = connection_laws_residual(ctx, ZeroOp(CHART), WEIGHT, x, y)
    assert res.value > 1e-3
    assert res.frame == "argument"


def test_leibniz_defect_scales_with_coefficient_sum():
    ctx = _ctx(CHART)
    x, y = _args(ctx)
    half = CombinationOp([(0.5, flat_connection(CHART)), (2.0, _rolled())])
    assert leibniz_defect_residual(ctx, half, 2.5, WEIGHT, x, y).value < 1e-12
    assert leibniz_defect_residual(ctx, half, 1.0, WEIGHT, x, y).value > 1e-3


def test_sum_connection_equals_table_sum():
    comps = [[[ZERO, _p("x")], [ZERO, ZERO]],
             [[_p("1"), ZERO], [ZERO, _p("y")]]]
    summed = SumConnection(flat_connection(CHART), Tensor12Field.from_components(CHART, comps))
    direct = ChristoffelConnection(CHART, comps)
    ctx = _ctx(CHART, count=15)
    x, y = _args(ctx)
    assert np.allclose(vvalues(summed.apply(ctx, x, y)), vvalues(direct.apply(ctx, x, y)))


def test_combination_empty_rejected():
    with pytest.raises(ConfigError):
        CombinationOp([])


def test_endo_derivative_of_flat_is_coordinate_derivative():
    from prodconj.fields import EndoField
    E = EndoField(CHART, ((_p("1"), _p("x")), (_p("0"), _p("-1"))), label="shear")
    ctx = _ctx(CHART, count=20)
    frame = ctx.frame()
    flat = flat_connection(CHART)
    Ej = ctx.endo(E)
    # d(shear)/dx applied to d1 is (1, 0); along y everything is constant
    out = vvalues(nabla_endo(ctx, flat, Ej, frame[0], frame[1]))
    assert np.allclose(out, np.broadcast_to([1.0, 0.0], out.shape))
    out = vvalues(nabla_endo(ctx, flat, Ej, frame[1], frame[1]))
    assert np.all(out == 0.0)
