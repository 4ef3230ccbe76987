"""Conjugate connections, projectors, splittings, and pencils.

Frozen component values all come from hand expansion on the shear
structure [[1, x], [0, -1]] over a flat base, where every covariant
derivative collapses to the coordinate derivative of the structure.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodconj.errors import ConfigError
from prodconj.expr import Const, ZERO, parse_expr
from prodconj.fields import (
    Chart,
    EndoField,
    EvalContext,
    MetricField,
    OneFormField,
    Tensor12Field,
    VectorField,
    context_for,
    oneform_apply,
    vadd,
    vscale,
    vvalues,
)
from prodconj.connections import (
    ChristoffelConnection,
    LeviCivitaConnection,
    flat_connection,
)
from prodconj.conjugation import (
    ConjugateConnection,
    Pencil,
    chi_tensor,
    conjugate_suite,
    forms_agreement_residual,
    mean_decomposition_suite,
    membership_suite,
    metric_consequence_suite,
    pencil_suite,
    projective_suite,
    projective_tensor,
    projector_suite,
    psi_connection,
    recurrent_suite,
    skew_commutation_residual,
    splitting_suite,
    structural_tensor,
    virtual_tensor,
)
from prodconj.sampling import SamplePlan

from engine_tables import materialize_christoffels
from oracles import christoffel_fd, conjugate_gamma

BOX = ((-1.0, 1.0), (-1.0, 1.0))
CHART = Chart(2, ("x", "y"), BOX)


def _p(text):
    return parse_expr(text, names=("x", "y"))


def _endo(rows, label="E"):
    return EndoField(CHART, tuple(tuple(_p(t) for t in row) for row in rows), label=label)


SHEAR = _endo([("1", "x"), ("0", "-1")], "shear")
SWAP = _endo([("0", "1"), ("1", "0")], "swap")
REFL = _endo([("1", "0"), ("0", "-1")], "refl")
FLAT = flat_connection(CHART)
WARPED = MetricField(CHART, ((_p("1"), _p("0")), (_p("(+ 1 (* x x))"),)))


def _rolled():
    gamma = [[[ZERO, _p("y")], [ZERO, ZERO]],
             [[ZERO, ZERO], [_p("x"), ZERO]]]
    return ChristoffelConnection(CHART, gamma, label="rolled")


def _ctx(seed=7, count=40):
    return context_for(CHART, SamplePlan(seed, count, BOX))


def _ctx_at(*points):
    return EvalContext(CHART, np.array(points, dtype=float))


def _assert_rows(rows, bound=1e-9, absent=()):
    for name, res, note in rows:
        if name in absent:
            assert res is None, f"{name} should have been gated off ({note})"
            continue
        assert res is not None, f"{name} unexpectedly skipped: {note}"
        assert res.value <= bound, f"{name}: {res.value:.3e} ({note})"


# ---- the conjugate table ---------------------------------------------


def test_flat_shear_conjugate_frozen_table():
    ctx = _ctx(count=25)
    gam = materialize_christoffels(ctx, ConjugateConnection(FLAT, SHEAR))
    assert np.allclose(gam[:, 0, 0, 1], 1.0, atol=1e-14)
    gam[:, 0, 0, 1] = 0.0
    assert np.max(np.abs(gam)) < 1e-14


def test_conjugate_matches_pointwise_oracle():
    lc = LeviCivitaConnection(WARPED)
    conj = ConjugateConnection(lc, SHEAR)
    pts = [(0.5, -0.2), (-0.3, 0.8), (0.9, 0.1)]
    ctx = _ctx_at(*pts)
    got = materialize_christoffels(ctx, conj)
    for m, pt in enumerate(pts):
        x = pt[0]
        E = np.array([[1.0, x], [0.0, -1.0]])
        dE = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))]
        want = conjugate_gamma(christoffel_fd(WARPED, pt), E, dE)
        assert np.max(np.abs(got[m] - want)) < 1e-6


def test_conjugation_requires_shared_chart():
    other = Chart(2, ("x", "y"), BOX)
    with pytest.raises(ConfigError):
        ConjugateConnection(FLAT, EndoField(other, ((_p("1"), _p("0")), (_p("0"), _p("-1")))))


def test_two_presentations_agree():
    ctx = _ctx()
    assert forms_agreement_residual(ctx, _rolled(), SHEAR).value < 1e-12


def test_double_conjugate_restores_base():
    ctx = _ctx()
    base = _rolled()
    double = ConjugateConnection(ConjugateConnection(base, SHEAR), SHEAR)
    got = materialize_christoffels(ctx, double)
    want = materialize_christoffels(ctx, base)
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=40)
@given(st.integers(-3, 3), st.integers(1, 3))
def test_involution_for_random_trace_free_structures(num, den):
    # [[t, 1 - t^2], [1, -t]] squares to the identity for every rational t
    t = Fraction(num, den)
    E = EndoField(CHART, (
        (Const(t), Const(1 - t * t)),
        (Const(Fraction(1)), Const(-t))), label="et")
    ctx = _ctx(count=12)
    base = _rolled()
    double = ConjugateConnection(ConjugateConnection(base, E), E)
    got = materialize_christoffels(ctx, double)
    want = materialize_christoffels(ctx, base)
    assert np.max(np.abs(got - want)) < 1e-9


def test_conjugate_suite_with_compatible_metric():
    round_box = ((0.3, 1.2), (-1.0, 1.0))
    chart = Chart(2, ("x", "y"), round_box)
    names = ("x", "y")
    g = MetricField(chart, ((parse_expr("1", names=names), parse_expr("0", names=names)),
                            (parse_expr("(pow (sin x) 2)", names=names),)))
    refl = EndoField(chart, ((parse_expr("1", names=names), parse_expr("0", names=names)),
                             (parse_expr("0", names=names), parse_expr("-1", names=names))))
    ctx = context_for(chart, SamplePlan(7, 30, round_box))
    rows = conjugate_suite(ctx, LeviCivitaConnection(g), refl, metric=g)
    assert [r[0] for r in rows] == ["structure_flip", "argument_transport", "involution",
                                    "torsion_shift", "curvature_transport", "metric_transport"]
    _assert_rows(rows, bound=1e-9)


def test_conjugate_suite_gates_incompatible_metric():
    round_box = ((0.3, 1.2), (-1.0, 1.0))
    chart = Chart(2, ("x", "y"), round_box)
    names = ("x", "y")
    g = MetricField(chart, ((parse_expr("1", names=names), parse_expr("0", names=names)),
                            (parse_expr("(pow (sin x) 2)", names=names),)))
    swap = EndoField(chart, ((parse_expr("0", names=names), parse_expr("1", names=names)),
                             (parse_expr("1", names=names), parse_expr("0", names=names))))
    ctx = context_for(chart, SamplePlan(7, 30, round_box))
    rows = conjugate_suite(ctx, LeviCivitaConnection(g), swap, metric=g)
    _assert_rows(rows, bound=1e-9, absent=("metric_transport",))


# ---- projectors -------------------------------------------------------


TAU = Tensor12Field.from_components(CHART, [
    [[ZERO, _p("x")], [ZERO, ZERO]],
    [[_p("1"), ZERO], [ZERO, _p("(sin y)")]]], label="tau")


def test_projector_suite_laws():
    ctx = _ctx()
    _assert_rows(projector_suite(ctx, _rolled(), SHEAR, TAU))


def test_mean_decomposition():
    ctx = _ctx()
    _assert_rows(mean_decomposition_suite(ctx, _rolled(), SHEAR))


def test_membership_two_sided():
    ctx = _ctx()
    _assert_rows(membership_suite(ctx, FLAT, SWAP), bound=1e-12)
    rows = membership_suite(ctx, FLAT, SHEAR)
    assert all(res.value > 1e-3 for _, res, _ in rows)


def test_psi_image_is_fixed_by_psi():
    ctx = _ctx()
    averaged = psi_connection(_rolled(), SHEAR)
    _assert_rows(membership_suite(ctx, averaged, SHEAR), bound=1e-12)


def test_chi_of_chi_matches_chi():
    ctx = _ctx(count=15)
    c1 = chi_tensor(TAU, SHEAR)
    c2 = chi_tensor(c1, SHEAR)
    v = ctx.vector(VectorField(CHART, (_p("y"), _p("1"))))
    w = ctx.vector(VectorField(CHART, (_p("1"), _p("x"))))
    assert np.allclose(vvalues(c1.apply(ctx, v, w)), vvalues(c2.apply(ctx, v, w)),
                       atol=1e-13)


# ---- structural / virtual halves -------------------------------------


def test_splitting_frozen_components():
    ctx = _ctx(count=20)
    x = ctx.points[:, 0]
    frame = ctx.frame()
    C = structural_tensor(FLAT, SHEAR)
    B = virtual_tensor(FLAT, SHEAR)
    cv = {(i, j): vvalues(C.apply(ctx, frame[i], frame[j])) for i in range(2) for j in range(2)}
    bv = {(i, j): vvalues(B.apply(ctx, frame[i], frame[j])) for i in range(2) for j in range(2)}
    assert np.allclose(cv[(1, 1)][:, 0], x / 2)
    assert np.allclose(bv[(0, 1)][:, 0], 1.0)
    assert np.allclose(bv[(1, 1)][:, 0], x / 2)
    for key in ((0, 0), (1, 0)):
        assert np.max(np.abs(cv[key])) < 1e-14
        assert np.max(np.abs(bv[key])) < 1e-14
    assert np.max(np.abs(cv[(0, 1)])) < 1e-14
    # base - C + B reproduces the conjugate table entry gamma^0_01 = 1
    assert np.allclose(bv[(0, 1)][:, 0] - cv[(0, 1)][:, 0], 1.0)


def test_splitting_suite_laws():
    ctx = _ctx()
    _assert_rows(splitting_suite(ctx, LeviCivitaConnection(WARPED), SHEAR))


def test_projective_suite_laws():
    ctx = _ctx()
    tau = OneFormField(CHART, (_p("(cos y)"), _p("x")))
    _assert_rows(projective_suite(ctx, LeviCivitaConnection(WARPED), SHEAR, tau))


def test_projective_tensor_is_the_rank_one_shift():
    """T(X, Y) = tau(X) Y + tau(Y) X on non-frame fields, from the table."""
    ctx = _ctx()
    tau = OneFormField(CHART, (_p("(cos y)"), _p("(* x (+ 1 y))")))
    X = ctx.vector(VectorField(CHART, (_p("(+ 1 y)"), _p("(sin x)"))))
    Y = ctx.vector(VectorField(CHART, (_p("(* x y)"), _p("(+ 2 x)"))))
    w = ctx.oneform(tau)
    expect = vvalues(vadd(vscale(oneform_apply(w, X), Y), vscale(oneform_apply(w, Y), X)))
    scale = np.max(np.abs(expect))
    got = vvalues(projective_tensor(tau).apply(ctx, X, Y))
    assert np.max(np.abs(got - expect)) <= 1e-13 * max(scale, 1.0)


# ---- recurrence -------------------------------------------------------


def _solved_recurrent_base():
    # [S_i, shear] = -d_i(shear) with S symmetric; solved by hand
    comps = [[[ZERO, _p("1/2")], [_p("1/2"), _p("(/ x 4)")]],
             [[ZERO, ZERO], [ZERO, ZERO]]]
    return ChristoffelConnection(CHART, comps, label="solved")


ETA0 = OneFormField(CHART, (_p("0"), _p("0")), label="eta0")
ETAX = OneFormField(CHART, (_p("1"), _p("0")), label="etax")


@pytest.mark.parametrize("mode", ["structure", "identity"])
def test_recurrent_suite_solved_base(mode):
    ctx = _ctx()
    rows = recurrent_suite(ctx, _solved_recurrent_base(), SHEAR, ETA0, mode, 1e-9)
    assert [r[0] for r in rows] == ["hypothesis_recurrence", "hypothesis_symmetry",
                                    "torsion_shape"]
    _assert_rows(rows, bound=1e-12)


def test_recurrent_suite_gates_on_failed_hypothesis():
    ctx = _ctx()
    rows = recurrent_suite(ctx, _solved_recurrent_base(), SHEAR, ETAX, "structure", 1e-9)
    by_name = {name: res for name, res, _ in rows}
    assert by_name["hypothesis_recurrence"].value > 1e-3
    assert by_name["torsion_shape"] is None


def test_recurrent_suite_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        recurrent_suite(_ctx(), FLAT, SHEAR, ETA0, "exotic", 1e-9)


# ---- pencils ----------------------------------------------------------


def test_pencil_weights_must_sit_on_circle():
    with pytest.raises(ConfigError):
        Pencil(REFL, SWAP, Fraction(1), Fraction(1))
    Pencil(REFL, SWAP, Fraction(3, 5), Fraction(4, 5))


def test_pencil_suite_constant_pair():
    ctx = _ctx()
    pencil = Pencil(REFL, SWAP, Fraction(3, 5), Fraction(4, 5))
    rows = pencil_suite(ctx, _rolled(), pencil)
    by_name = {name: res for name, res, _ in rows}
    assert by_name["skew_commutation"].value == 0.0
    assert by_name["mixing_rule"].value < 1e-12
    assert by_name["axis_reduction_first"].value == 0.0
    assert by_name["axis_reduction_second"].value == 0.0


def test_pencil_recurrent_case_with_parallel_pair():
    ctx = _ctx()
    pencil = Pencil(REFL, SWAP, Fraction(3, 5), Fraction(4, 5))
    rows = pencil_suite(ctx, FLAT, pencil, eta=ETA0, case="recurrent")
    _assert_rows(rows, bound=1e-12)
    names = [r[0] for r in rows]
    assert "conjugates_coincide" in names and "pencil_invariance" in names


def test_pencil_mixed_case_with_parallel_pair():
    ctx = _ctx()
    pencil = Pencil(REFL, SWAP, Fraction(3, 5), Fraction(4, 5))
    rows = pencil_suite(ctx, FLAT, pencil, eta=ETA0, case="mixed")
    _assert_rows(rows, bound=1e-12)
    assert "pencil_shift" in [r[0] for r in rows]


def test_pencil_case_requires_eta():
    with pytest.raises(ConfigError):
        pencil_suite(_ctx(), FLAT, Pencil(REFL, SWAP, Fraction(1), Fraction(0)),
                     case="recurrent")


def test_skew_commutation_flags_commuting_pair():
    ctx = _ctx()
    assert skew_commutation_residual(ctx, REFL, REFL).value == pytest.approx(2.0)


# ---- metric consequences ---------------------------------------------


def test_metric_consequences_product_metric():
    g = MetricField(CHART, ((_p("(+ 1 (* x x))"), _p("0")), (_p("(+ 1 (* y y))"),)))
    ctx = _ctx()
    rows = metric_consequence_suite(ctx, LeviCivitaConnection(g), REFL, g, 1e-9)
    _assert_rows(rows, bound=1e-11)
    assert [r[0] for r in rows] == ["compatibility", "conjugate_metricity", "parallel_collapse"]


def test_metric_consequences_gate_nonparallel():
    round_box = ((0.3, 1.2), (-1.0, 1.0))
    chart = Chart(2, ("x", "y"), round_box)
    names = ("x", "y")
    g = MetricField(chart, ((parse_expr("1", names=names), parse_expr("0", names=names)),
                            (parse_expr("(pow (sin x) 2)", names=names),)))
    refl = EndoField(chart, ((parse_expr("1", names=names), parse_expr("0", names=names)),
                             (parse_expr("0", names=names), parse_expr("-1", names=names))))
    ctx = context_for(chart, SamplePlan(7, 30, round_box))
    rows = metric_consequence_suite(ctx, LeviCivitaConnection(g), refl, g, 1e-9)
    by_name = {name: res for name, res, _ in rows}
    assert by_name["compatibility"].value <= 1e-9
    assert by_name["conjugate_metricity"].value <= 1e-9
    assert by_name["parallel_collapse"] is None
