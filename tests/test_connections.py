"""Connection operators against difference-quotient coefficient oracles.

The Levi-Civita coefficients and the curvature both have independent
finite-difference reconstructions in oracles.py; numbers at fixed points
are frozen so regressions move a literal, not a tolerance.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodconj import connections, fields
from prodconj.errors import ConfigError
from prodconj.expr import ZERO, parse_expr
from prodconj.conjugation import (ConjugateConnection, chi_tensor, expansion_form,
                                  projective_tensor, psi_connection, structural_tensor,
                                  virtual_tensor)
from prodconj.distributions import (DistributionSpec, SchoutenConnection, fundamental_tensors,
                                    pair_from_h)
from prodconj.fields import (
    Chart,
    EndoField,
    EvalContext,
    MetricField,
    OneFormField,
    Tensor12Field,
    VectorField,
    bracket,
    context_for,
    dirderiv,
    endo_apply,
    vadd,
    vscale,
    vsub,
    vvalues,
)
from prodconj.connections import (
    ChristoffelConnection,
    CombinationOp,
    LeviCivitaConnection,
    Sandwiched,
    SumConnection,
    ZeroOp,
    connection_laws_residual,
    curvature,
    flat_connection,
    frame_apply,
    frame_curvature,
    leibniz_defect_residual,
    metricity_residual,
    structure_derivative_twist,
    torsion,
    torsion_residual,
)
from prodconj.generalized import (GeneralizedConjugate, family_member, mixed_derivative_twist,
                                  rotated_twist)
from prodconj.jets import Jet
from prodconj.runner import corpus_names, corpus_text, run_scenario
from prodconj.sampling import SamplePlan
from prodconj.scenario import load_scenario

from engine_tables import (composed_apply, composed_curvature, composed_torsion,
                           materialize_christoffels)
from oracles import christoffel_fd, riemann_fd

DATA = Path(__file__).resolve().parent / "data"
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


def test_levi_civita_gradients_match_difference_quotients():
    """The gradient of every Levi-Civita coefficient of a non-diagonal dim-3
    metric, built with the inverse metric's derivative -G⁻¹ ∂G G⁻¹, matches
    central difference quotients of the coefficient values."""
    lc = LeviCivitaConnection(METRIC3)
    h = 1e-5
    for pt in _ctx(CHART3, count=4).points:
        ctx = _ctx_at(CHART3, pt, *(pt + s * h * np.eye(3)[l] for l in range(3) for s in (1, -1)))
        for e in (e for plane in lc._jets(ctx) for row in plane for e in row):
            fd = [(e.value[1 + 2 * l] - e.value[2 + 2 * l]) / (2 * h) for l in range(3)]
            np.testing.assert_allclose(e.grad[0], fd, rtol=1e-7, atol=1e-7)


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


FRAME_PAIRS = [(i, j) for i in range(2) for j in range(2)]


def _law_defects(ctx, op, s, x, y):
    """max |op(fx, y) - f op(x, y)| and max |op(x, fy) - f op(x, y) - s x(f) y|
    for the fields x, y, which the library's frame-pair laws do not take."""
    f = ctx.scalar(WEIGHT)
    xy = op.apply(ctx, x, y)
    direction = vvalues(op.apply(ctx, vscale(f, x), y)) - vvalues(vscale(f, xy))
    leibniz = vvalues(op.apply(ctx, x, vscale(f, y))) - \
        vvalues(vadd(vscale(f, xy), vscale(dirderiv(x, f) * s, y)))
    return np.abs(direction).max(), np.abs(leibniz).max()


def test_connection_laws_hold_for_tables():
    ctx = _ctx(CHART)
    for i, j in FRAME_PAIRS:
        assert connection_laws_residual(ctx, _rolled(), WEIGHT, i, j).value < 1e-12
    assert max(_law_defects(ctx, _rolled(), 1.0, *_args(ctx))) < 1e-12


def test_connection_laws_reject_tensorial_op():
    ctx = _ctx(CHART)
    for i, j in FRAME_PAIRS:
        res = connection_laws_residual(ctx, ZeroOp(CHART), WEIGHT, i, j)
        assert res.value > 1e-3
        assert res.frame == "argument"
    direction, leibniz = _law_defects(ctx, ZeroOp(CHART), 1.0, *_args(ctx))
    assert leibniz > 1e-3 and direction < leibniz


def test_leibniz_defect_scales_with_coefficient_sum():
    ctx = _ctx(CHART)
    half = CombinationOp([(0.5, flat_connection(CHART)), (2.0, _rolled())])
    for i, j in FRAME_PAIRS:
        assert leibniz_defect_residual(ctx, half, 2.5, WEIGHT, i, j).value < 1e-12
        assert leibniz_defect_residual(ctx, half, 1.0, WEIGHT, i, j).value > 1e-3
    x, y = _args(ctx)
    assert _law_defects(ctx, half, 2.5, x, y)[1] < 1e-12
    assert _law_defects(ctx, half, 1.0, x, y)[1] > 1e-3


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
    dE = structure_derivative_twist(flat_connection(CHART), E)
    # d(shear)/dx applied to d1 is (1, 0); along y everything is constant
    out = vvalues(dE.apply(ctx, frame[0], frame[1]))
    assert np.allclose(out, np.broadcast_to([1.0, 0.0], out.shape))
    out = vvalues(dE.apply(ctx, frame[1], frame[1]))
    assert np.all(out == 0.0)


# ---- operator algebra ---------------------------------------------------

OTHER = Chart(2, ("x", "y"), BOX)


def _shear(chart, label="shear"):
    return EndoField(chart, ((_p("1"), _p("x")), (_p("0"), _p("-1"))), label=label)


@pytest.mark.parametrize("build", [
    lambda: CombinationOp([(1.0, flat_connection(CHART)), (0.5, flat_connection(OTHER))]),
    lambda: SumConnection(flat_connection(CHART),
                          Tensor12Field.from_components(OTHER, [[[ZERO] * 2] * 2] * 2)),
    lambda: Sandwiched(flat_connection(CHART), out=_shear(OTHER)),
    lambda: Sandwiched(flat_connection(CHART), arg=_shear(CHART), along=_shear(OTHER)),
], ids=["combination", "sum", "sandwiched_out", "sandwiched_along"])
def test_operators_refuse_mixed_charts(build):
    with pytest.raises(ConfigError, match="different charts"):
        build()


# h = (I + shear)/2, so the pair's structure h - v is the shear itself
SHEAR_PAIR = pair_from_h(EndoField(CHART, ((_p("1"), _p("(* 1/2 x)")), (ZERO, ZERO)),
                                   label="h"))


def _derived_tensors():
    pair = SHEAR_PAIR
    base, E = LeviCivitaConnection(WARPED), pair.structure
    tau = Tensor12Field.from_components(CHART, [[[_p("x"), ZERO], [_p("y"), _p("1")]],
                                                [[ZERO, _p("(* x y)")], [ZERO, ZERO]]])
    dE = structure_derivative_twist(base, E)
    T, A = fundamental_tensors(base, pair)
    return {"chi": chi_tensor(tau, E), "structural": structural_tensor(base, E),
            "virtual": virtual_tensor(base, E), "structure_derivative": dE,
            "rotated": rotated_twist(dE, E), "fundamental_T": T, "fundamental_A": A,
            "derivative_mix": mixed_derivative_twist(base, E, 0.7, -1.3),
            "projective": projective_tensor(OneFormField(CHART, (_p("(cos y)"), _p("(* x y)"))))}


DERIVED = _derived_tensors()


def _off_frame(ctx):
    """Two non-constant vector fields with a non-vanishing bracket, and the
    weight f, as jets."""
    x = ctx.vector(VectorField(CHART, (_p("(+ 1 y)"), _p("(sin x)"))))
    y = ctx.vector(VectorField(CHART, (_p("(* x y)"), _p("(+ 2 x)"))))
    return x, y, ctx.scalar(WEIGHT)


@pytest.mark.parametrize("name", DERIVED)
def test_derived_tensors_are_bilinear_over_functions(name):
    """S(fX, Y) = f S(X, Y) = S(X, fY) for non-constant X, Y and f: the
    spot check that composed tensors owe their callers."""
    S = DERIVED[name]
    ctx = _ctx(CHART, count=30)
    x, y, f = _off_frame(ctx)
    expect = vvalues(vscale(f, S.apply(ctx, x, y)))
    scale = np.max(np.abs(expect))
    assert scale > 1e-2, "a vanishing tensor makes the check vacuous"
    for got in (S.apply(ctx, vscale(f, x), y), S.apply(ctx, x, vscale(f, y))):
        assert np.max(np.abs(vvalues(got) - expect)) <= 1e-13 * max(scale, 1.0)


@pytest.mark.parametrize("conjugated", [False, True], ids=["levi_civita", "conjugate"])
def test_torsion_and_curvature_are_tensorial_off_the_frame(conjugated):
    """The composed definitions give T(fX, Y) = f T(X, Y) and
    R(fX, Y)Y = f R(X, Y)Y where the bracket [fX, Y] = f[X, Y] - Y(f)X is
    not f[X, Y]: on frame pairs every bracket vanishes, so only non-frame
    fields see the bracket's sign.  The library's tensor reads are held to
    these oracles below."""
    nabla = LeviCivitaConnection(WARPED)
    if conjugated:
        nabla = ConjugateConnection(nabla, SHEAR_PAIR.structure)
    ctx = _ctx(CHART, count=30)
    x, y, f = _off_frame(ctx)
    fx = vscale(f, x)
    shortfall = vvalues(vsub(bracket(fx, y), vscale(f, bracket(x, y))))
    assert np.max(np.abs(shortfall)) > 1e-2, "a tensorial bracket makes the check vacuous"
    for got, at_x in ((composed_torsion(ctx, nabla, fx, y), composed_torsion(ctx, nabla, x, y)),
                      (composed_curvature(ctx, nabla, fx, y, y),
                       composed_curvature(ctx, nabla, x, y, y))):
        got, expect = vvalues(got), vvalues(vscale(f, at_x))
        scale = max(1.0, np.max(np.abs(got)), np.max(np.abs(expect)))
        assert np.max(np.abs(got - expect)) <= 1e-12 * scale


@pytest.mark.parametrize("conjugated", [False, True], ids=["levi_civita", "conjugate"])
def test_tensor_reads_equal_the_definitions_off_the_frame(conjugated):
    """`torsion` and `curvature` read the node's tables; on non-frame fields
    with a non-vanishing bracket they equal the composed definitions to
    1e-12 relative (to 1 at least, the size of the fields).  The corpus's
    probe pairs read R = 0, so a transposed contraction shows only here."""
    nabla = LeviCivitaConnection(WARPED)
    if conjugated:
        nabla = ConjugateConnection(nabla, SHEAR_PAIR.structure)
    ctx = _ctx(CHART, count=30)
    x, y, _ = _off_frame(ctx)
    R = curvature(ctx, nabla, x, y, y)
    assert np.max(np.abs(vvalues(R))) > 1e-2, "a vanishing curvature makes the check vacuous"
    for got, want in ((torsion(ctx, nabla, x, y), composed_torsion(ctx, nabla, x, y)),
                      (R, composed_curvature(ctx, nabla, x, y, y)),
                      (curvature(ctx, nabla, y, x, x), composed_curvature(ctx, nabla, y, x, x))):
        got, want = vvalues(got), vvalues(want)
        scale = max(1.0, np.max(np.abs(got)), np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_frame_pair_torsion_makes_no_apply(monkeypatch):
    """With a conjugate's normal form built, `torsion` at a frame pair reads
    the table and applies nothing; the definition makes two applies."""
    conj = ConjugateConnection(LeviCivitaConnection(WARPED), SHEAR_PAIR.structure)
    ctx = _ctx(CHART, count=10)
    conj.normal_form(ctx)
    frame = ctx.frame()
    applies = []
    apply = connections.ConnectionOp.apply

    def counted(self, *args):
        applies.append(self)
        return apply(self, *args)
    monkeypatch.setattr(connections.ConnectionOp, "apply", counted)
    T = torsion(ctx, conj, frame[0], frame[1])
    assert applies == []
    monkeypatch.undo()
    assert np.array_equal(vvalues(T), vvalues(composed_torsion(ctx, conj, frame[0], frame[1])))


def _leaves(op):
    """The leaves under the composition nodes of an operator tree."""
    if isinstance(op, Sandwiched):
        yield from _leaves(op.op)
    elif isinstance(op, CombinationOp):
        for _, term in op.terms:
            yield from _leaves(term)
    else:
        yield op


def _is_component_table(t, n):
    return isinstance(t, Tensor12Field) and len(t.components) == n and all(
        len(plane) == n and all(len(row) == n for row in plane) for plane in t.components)


@pytest.mark.parametrize("name", corpus_names())
def test_shipped_operators_are_tables_under_composition_nodes(name):
    """Every shipped connection and tensor, and the projective tensor of
    every shipped one-form, is a tree of Sandwiched and CombinationOp nodes
    over component tables, Christoffel connections and zeros."""
    scn = load_scenario(corpus_text(name), name=name)
    n = scn.chart.dim
    ops = [*scn.connections.values(), *scn.tensors.values(),
           *(projective_tensor(tau) for tau in scn.oneforms.values())]
    for op in ops:
        for leaf in _leaves(op):
            assert (isinstance(leaf, (ChristoffelConnection, ZeroOp))
                    or _is_component_table(leaf, n)), (op.label, leaf)
            table = getattr(leaf, "table", None)
            assert table is None or _is_component_table(table, n), (op.label, leaf)


# ---- derived operators are values ------------------------------------

FLAT_SWAP = load_scenario(corpus_text("flat_swap"), name="flat_swap")


# two choices of every leaf a derived constructor takes, from the shipped
# scenario: the first is the default, the second the change
LEAVES = {"base": (FLAT_SWAP.connections["adapted"], FLAT_SWAP.connections["obstructed"]),
          "structure": (FLAT_SWAP.endos["swap"], FLAT_SWAP.endos["refl"]),
          "tau": (FLAT_SWAP.tensors["tau"], FLAT_SWAP.tensors["csym"]),
          "pair": (FLAT_SWAP.pairs["coords"], pair_from_h(FLAT_SWAP.endos["hproj"])),
          "lam": (0.5, 2.0), "mu": (-1.0, 0.0)}

# name: (constructor, the leaves it takes in order)
CONSTRUCTORS = {
    "conjugate": (ConjugateConnection, ("base", "structure")),
    "psi": (psi_connection, ("base", "structure")),
    "chi": (chi_tensor, ("tau", "structure")),
    "structure_derivative": (structure_derivative_twist, ("base", "structure")),
    "structural": (structural_tensor, ("base", "structure")),
    "virtual": (virtual_tensor, ("base", "structure")),
    "fundamental_T": (lambda b, p: fundamental_tensors(b, p)[0], ("base", "pair")),
    "fundamental_A": (lambda b, p: fundamental_tensors(b, p)[1], ("base", "pair")),
    "twisted_conjugate": (GeneralizedConjugate, ("base", "structure", "tau")),
    "schouten": (SchoutenConnection, ("base", "pair")),
    "family_member": (family_member, ("base", "structure", "lam", "mu")),
    "expansion_form": (expansion_form, ("base", "structure")),
    "rotated_twist": (rotated_twist, ("tau", "structure")),
    "sum": (SumConnection, ("base", "tau")),
}


def _build(name, changed=None):
    fn, leaves = CONSTRUCTORS[name]
    return fn(*(LEAVES[leaf][1 if leaf == changed else 0] for leaf in leaves))


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_a_constructor_on_the_same_leaves_gives_one_value(name):
    """Built twice, a derived operator is two equal, hash-equal nodes that
    share one context cache entry."""
    a, b = _build(name), _build(name)
    assert a is not b and a == b and hash(a) == hash(b)
    ctx = _ctx(CHART, count=3)
    first = ctx.cached((a, "table"), object)
    assert ctx.cached((b, "table"), lambda: pytest.fail("built again")) is first


@pytest.mark.parametrize("name, leaf", [(name, leaf) for name, (_, leaves) in
                                        CONSTRUCTORS.items() for leaf in leaves])
def test_a_changed_leaf_or_coefficient_gives_another_value(name, leaf):
    assert _build(name) != _build(name, changed=leaf)


def test_every_slot_and_coefficient_takes_part_in_equality():
    """Sandwiched(dE, along=E), the structural half's first term, is not
    dE sandwiched in any other slot; the structural and virtual tensors
    differ only in one coefficient's sign."""
    base, E = LEAVES["base"][0], LEAVES["structure"][0]
    dE = structure_derivative_twist(base, E)
    nodes = [Sandwiched(dE, out=o, arg=a, along=w)
             for o in (None, E) for a in (None, E) for w in (None, E)]
    assert all((x == y) == (i == j) for i, x in enumerate(nodes) for j, y in enumerate(nodes))
    assert structural_tensor(base, E) != virtual_tensor(base, E)
    assert CombinationOp(((0.5, dE),)) != CombinationOp(((-0.5, dE),))
    assert ZeroOp(CHART) == ZeroOp(CHART) != ZeroOp(SPHERE_CHART)


def test_a_label_never_takes_part_in_equality():
    """The loader's labelled structure derivative equals the unlabelled
    one, and distributions differing only in label are one value."""
    scn = FLAT_SWAP
    base, E, tau = scn.connections["adapted"], scn.endos["swap"], scn.tensors["tau"]
    named = scn.tensors["dswap"]
    assert named.label == "dswap" and named == structure_derivative_twist(base, E)
    assert hash(named) == hash(structure_derivative_twist(base, E))
    assert Sandwiched(tau, out=E, label="a") == Sandwiched(tau, out=E, label="b")
    assert SumConnection(base, tau, label="a") == SumConnection(base, tau)
    assert mixed_derivative_twist(base, E, 1.0, 0.0, label="a").op == named
    span = DistributionSpec.from_span((scn.vectors["e0"],), label="other")
    assert span == scn.distributions["dh"] and hash(span) == hash(scn.distributions["dh"])
    pair = scn.pairs["coords"]
    sides = [DistributionSpec.from_pair(pair, side, label=label)
             for side in ("horizontal", "vertical") for label in ("Dh", "D")]
    assert sides[0] == sides[1] != sides[2] == sides[3]
    assert DistributionSpec.from_pair(pair_from_h(pair.h), "horizontal") != sides[0]


# ---- normal forms: every apply against the composed route ------------

CHART3 = Chart(3, ("x", "y", "z"), ((-1.0, 1.0),) * 3)


def _p3(text):
    return parse_expr(text, names=("x", "y", "z"))


def _table3(texts):
    """A dim-3 coefficient grid from 27 expression texts in [k][i][j] order."""
    it = iter(texts)
    return [[[_p3(next(it)) for _ in range(3)] for _ in range(3)] for _ in range(3)]


# overflows to inf where x is large enough, so products with it turn into NaN
OVERFLOW = "(exp (exp (exp (* 3 x))))"
POLYS3 = ("(* x y)", "0", "(+ 1 z)", "(* -2 z z)", "y", "0", "(- x 1)", "0", "(* 1/2 y z)")

# the leaves and endomorphisms a random tree is built over, per chart
TREE_PARTS = {
    2: (CHART, [LeviCivitaConnection(WARPED), _rolled(), ZeroOp(CHART),
                Tensor12Field.from_components(CHART, [[[_p("x"), ZERO], [_p("y"), _p("1")]],
                                                      [[ZERO, _p("(* x y)")], [ZERO, ZERO]]]),
                Tensor12Field.from_components(CHART, [[[_p(OVERFLOW), ZERO], [ZERO, ZERO]],
                                                      [[ZERO, ZERO], [_p("x"), ZERO]]])],
        [SHEAR_PAIR.structure, SHEAR_PAIR.h, SHEAR_PAIR.v, _shear(CHART),
         EndoField(CHART, ((_p("(sin y)"), _p("x")), (_p("(* x y)"), _p("2"))))]),
    3: (CHART3, [ChristoffelConnection(CHART3, _table3(POLYS3 * 3)), flat_connection(CHART3),
                 ZeroOp(CHART3),
                 Tensor12Field.from_components(CHART3, _table3((OVERFLOW,) + POLYS3[1:] * 3
                                                               + ("x",) * 2))],
        [EndoField(CHART3, tuple(tuple(_p3(e) for e in row) for row in rows))
         for rows in ((("1", "0", "0"), ("0", "1", "0"), ("0", "x", "0")),
                      (("1", "0", "0"), ("0", "1", "0"), ("0", "(* 2 x)", "-1")),
                      (("y", "1", "(* x z)"), ("0", "(+ 1 x)", "z"), ("1", "0", "(* y y)")))]),
}


@st.composite
def _trees(draw, leaves, endos, depth=3):
    """A random operator: a leaf, a Sandwiched node whose out, arg and along
    slots each hold one of `endos` or the identity, or a combination of up
    to three terms with coefficients that are not all 1."""
    kind = draw(st.sampled_from(("leaf", "sandwiched", "combination") if depth else ("leaf",)))
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    below = _trees(leaves, endos, depth - 1)
    if kind == "sandwiched":
        slot = st.one_of(st.none(), st.sampled_from(endos))
        return Sandwiched(draw(below), out=draw(slot), arg=draw(slot), along=draw(slot))
    coefficients = st.sampled_from((1.0, -1.0, 0.5, 2.0, -0.75))
    return CombinationOp(tuple(draw(st.lists(st.tuples(coefficients, below),
                                             min_size=1, max_size=3))))


# two fields per chart that are not frame vectors, for the operands (u, w)
OPERANDS = {
    2: [VectorField(CHART, (_p("(+ 1 (* x y))"), _p("(sin x)"))),
        VectorField(CHART, (_p("(* y y)"), _p("(- 2 x)")))],
    3: [VectorField(CHART3, (_p3("(+ y z)"), _p3("(* x x)"), _p3("(cos z)"))),
        VectorField(CHART3, (_p3("1"), _p3("(* x (+ y 1))"), _p3("(- z (* x y))")))],
}


def _same_jets(got, want, what, parts=("value", "grad"), at=slice(None), scale=1.0,
               only_finite=False):
    """Value and gradient (or the named `parts`) equal to 1e-12 relative
    where finite, and not finite in the same places, at the samples `at`;
    relative to the largest of `want` and `scale`, the size of the terms
    that `want` cancels.  With `only_finite`, compared where `want` is
    finite only: there `got` must be finite and equal, elsewhere it may be
    anything.
    An overflow may read inf on one route and NaN on the other: a table
    entry stores an inf entry's products with the frame's zeros as NaN, and
    an apply that reads it sees them, where the composed route sees the inf
    itself."""
    for g, w in zip(got, want, strict=True):
        for a, b in ((getattr(g, part)[at], getattr(w, part)[at]) for part in parts):
            finite = np.isfinite(b)
            assert only_finite or np.array_equal(np.isfinite(a), finite), what
            size = max(1.0, scale, float(np.max(np.abs(b[finite]), initial=0.0)))
            np.testing.assert_allclose(a[finite], b[finite], rtol=1e-12, atol=1e-12 * size,
                                       err_msg=str(what))


@pytest.mark.parametrize("dim", sorted(TREE_PARTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_frame_pair_tables_equal_the_composed_route(dim, data):
    """op.apply, which reads the normal form built from the frame-pair
    tables, equals the composed route of `composed_apply` on every frame
    pair and on operands that are not frame vectors."""
    chart, leaves, endos = TREE_PARTS[dim]
    op = data.draw(_trees(leaves, endos), label="operator")
    ctx = _ctx(chart, count=25)
    frame = ctx.frame()
    u, w = (ctx.vector(f) for f in OPERANDS[dim])
    pairs = [((i, j), X, Y) for i, X in enumerate(frame) for j, Y in enumerate(frame)]
    pairs += [("uw", u, w), ("wu", w, u), ("d0u", frame[0], u), ("ud", u, frame[-1])]
    with np.errstate(all="ignore"):
        for name, x, y in pairs:
            _same_jets(op.apply(ctx, x, y), composed_apply(ctx, op, x, y), (name, op))


def test_the_overflowing_leaves_reach_nan():
    """The NaN case of the table test is not vacuous: a tree over each
    overflowing tensor gives NaN on some frame pair."""
    for chart, leaves, endos in TREE_PARTS.values():
        op = Sandwiched(leaves[-1], out=endos[-1], arg=endos[-1])
        ctx = _ctx(chart, count=25)
        with np.errstate(all="ignore"):
            values = [vvalues(op.apply(ctx, X, Y)) for X in ctx.frame() for Y in ctx.frame()]
        assert np.isnan(values).any()


def test_sandwiched_weight_is_out_weight_arg():
    """Each word (P, Q) becomes (O·P·R, Q·L): a connection's identity word
    becomes ((O, R), (L,)), a conjugate of a conjugate ((E, E, E, E), ()),
    and nested alongs apply the inner one last.  A tensor has no weight."""
    chart, leaves, (E, h, v, *_) = TREE_PARTS[2]
    ctx = _ctx(chart, count=3)
    base, tau = leaves[0], leaves[3]
    assert base.normal_form(ctx)[0] == {((), ()): 1.0}
    assert Sandwiched(base, out=h, arg=v).normal_form(ctx)[0] == {((h, v), ()): 1.0}
    assert Sandwiched(base, arg=v, along=h).normal_form(ctx)[0] == {((v,), (h,)): 1.0}
    nested = Sandwiched(Sandwiched(base, out=E, along=h), arg=E, along=v)
    assert nested.normal_form(ctx)[0] == {((E, E), (h, v)): 1.0}
    assert Sandwiched(tau, arg=v, along=h).normal_form(ctx)[0] == {}
    assert Sandwiched(tau, out=h, arg=v).normal_form(ctx)[0] == {}
    twice = ConjugateConnection(ConjugateConnection(base, E), E)
    assert twice.normal_form(ctx)[0] == {((E, E, E, E), ()): 1.0}
    assert psi_connection(base, E).normal_form(ctx)[0] == {((), ()): 0.5, ((E, E), ()): 0.5}


def test_weights_cancel_by_structure():
    """nabla E has no derivative weight, so the structural and virtual
    tensors, which derive it along E, have none either; the O'Neill-Gray T
    and A derive the swap along a projector and keep the swap's two words,
    taken along it."""
    chart, leaves, (E, *_) = TREE_PARTS[2]
    ctx = _ctx(chart, count=3)
    base = leaves[0]
    for op in (structure_derivative_twist(base, E), structural_tensor(base, E),
               virtual_tensor(base, E), mixed_derivative_twist(base, E, 0.7, -1.3)):
        assert op.normal_form(ctx)[0] == {}, op
    assert CombinationOp(((1.0, base), (-1.0, base))).normal_form(ctx)[0] == {}
    h, v = SHEAR_PAIR.h, SHEAR_PAIR.v
    T, A = fundamental_tensors(base, SHEAR_PAIR)
    assert T.normal_form(ctx)[0] == {((h, v), (v,)): 1.0, ((v, h), (v,)): 1.0}
    assert A.normal_form(ctx)[0] == {((h, v), (h,)): 1.0, ((v, h), (h,)): 1.0}


def test_a_frame_pair_apply_forms_few_products(monkeypatch):
    """apply(d_i, d_j) of a dim-3 Christoffel connection with a dense,
    finite table, and of its conjugate, makes at most 2n jet products per
    output component; forming every term of the contraction alone makes
    2n^3 per apply.  A frame's zeros leave their terms out."""
    n = 3
    base = ChristoffelConnection(CHART3, _table3([f"(+ {k} (* x z))" for k in range(1, 28)]))
    ctx = _ctx(CHART3, count=20)
    frame = ctx.frame()
    products = []
    mul = Jet.__mul__

    def counted(a, b):
        products.append(b)
        return mul(a, b)
    for op in (base, ConjugateConnection(base, TREE_PARTS[3][2][2])):
        op.normal_form(ctx)  # built once per context, before the count
        with monkeypatch.context() as m:
            m.setattr(Jet, "__mul__", counted)
            for X in frame:
                for Y in frame:
                    products.clear()
                    assert len(op.apply(ctx, X, Y)) == n
                    assert len(products) <= 2 * n * n, op


@pytest.mark.parametrize("dim", sorted(TREE_PARTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_frame_pair_reads_equal_the_composed_route(dim, data):
    """`frame_apply(op, i, j)` is the table entry Γ[k][i][j] at order <= 1
    bit for bit at every sample, the shared order-1 constant 0 for a None
    entry, and equals both the composed route and `op.apply` on every frame
    pair, in value and gradient, wherever that route is finite."""
    chart, leaves, endos = TREE_PARTS[dim]
    op = data.draw(_trees(leaves, endos), label="operator")
    ctx = _ctx(chart, count=25)
    frame = ctx.frame()
    zero = Jet.constant(0.0, dim, 1, (ctx.count,))
    with np.errstate(all="ignore"):
        _, table = op.normal_form(ctx)
        for i in range(dim):
            for j in range(dim):
                got = frame_apply(ctx, op, i, j)
                for k, e in enumerate(got):
                    entry = table[k][i][j]
                    if entry is None:
                        assert e is zero, (i, j, k, op)
                    else:
                        assert _bits(e) == _bits(entry.truncated(min(entry.order, 1))), op
                for route in (composed_apply(ctx, op, frame[i], frame[j]),
                              op.apply(ctx, frame[i], frame[j])):
                    _same_jets(got, route, ((i, j), op), only_finite=True)


def test_a_frame_pair_read_makes_no_apply(monkeypatch):
    """Once a node's normal form is built, `frame_apply` applies nothing
    and takes no directional derivative, on a leaf connection, a tensor and
    composites of both."""
    chart, leaves, (E, *_) = TREE_PARTS[3]
    base, tau = leaves[0], leaves[3]
    ops = [base, tau, ConjugateConnection(base, E), SumConnection(base, tau),
           structure_derivative_twist(base, E)]
    ctx = _ctx(chart, count=10)
    with np.errstate(all="ignore"):
        for op in ops:
            op.normal_form(ctx)
    calls = []
    apply, dirderiv = connections.ConnectionOp.apply, connections.dirderiv

    def counted_apply(self, *args):
        calls.append("apply")
        return apply(self, *args)

    def counted_dirderiv(*args):
        calls.append("dirderiv")
        return dirderiv(*args)
    monkeypatch.setattr(connections.ConnectionOp, "apply", counted_apply)
    monkeypatch.setattr(connections, "dirderiv", counted_dirderiv)
    monkeypatch.setattr(fields, "dirderiv", counted_dirderiv)
    with np.errstate(all="ignore"):
        for op in ops:
            for i in range(3):
                for j in range(3):
                    assert len(frame_apply(ctx, op, i, j)) == 3
    assert calls == []


def test_no_apply_meets_two_frame_vectors(monkeypatch):
    """Every S(d_i, d_j) of the shipped corpus and of split_r4 is read by
    frame index: no `ConnectionOp.apply` gets two of its context's frame
    vectors."""
    apply = connections.ConnectionOp.apply
    calls, frame_pairs = [], []

    def watched(self, ctx, x, y):
        frame = ctx.frame()
        calls.append(self)
        if any(x is f for f in frame) and any(y is f for f in frame):
            frame_pairs.append(self.label)
        return apply(self, ctx, x, y)
    monkeypatch.setattr(connections.ConnectionOp, "apply", watched)
    texts = [(name, corpus_text(name)) for name in corpus_names()]
    texts.append(("split_r4", (DATA / "split_r4.scn").read_text()))
    for name, text in texts:
        run_scenario(load_scenario(text, name=name))
    assert calls, "the guard watched no apply"
    assert frame_pairs == []


def test_a_second_read_returns_the_same_vec():
    """`frame_apply` and `EvalContext.frame_image` read entries by index:
    a second read of one pair or one column equals the first bit for bit
    and shares its arrays, and a column's jets are the endomorphism's own."""
    chart, leaves, endos = TREE_PARTS[3]
    ctx = _ctx(chart, count=10)
    nodes = [*leaves, ConjugateConnection(leaves[0], endos[2])]
    with np.errstate(all="ignore"):
        for node in nodes:
            for i in range(3):
                for j in range(3):
                    first, second = frame_apply(ctx, node, i, j), frame_apply(ctx, node, i, j)
                    assert [_bits(e) for e in first] == [_bits(e) for e in second], node
                    assert all(a.value is b.value for a, b in zip(first, second)), node
        for F in endos:
            for j in range(3):
                column = ctx.frame_image(F, j)
                assert column == ctx.frame_image(F, j)
                assert all(e is row[j] for e, row in zip(column, ctx.endo(F)))


# an endomorphism per chart with one overflowing entry and one not symmetric
OVERFLOWING_ENDOS = {
    2: EndoField(CHART, ((_p(OVERFLOW), _p("y")), (_p("(* x y)"), ZERO))),
    3: EndoField(CHART3, tuple(tuple(_p3(e) for e in row) for row in (
        (OVERFLOW, "0", "1"), ("x", "0", "z"), ("0", "y", "(* x x)")))),
}


def _bits(jet):
    return jet.order, [None if a is None else np.asarray(a).tobytes()
                       for a in (jet.value, jet.grad, jet.hess)]


@pytest.mark.parametrize("dim", sorted(TREE_PARTS))
def test_column_reads_equal_the_endomorphism_applied(dim):
    """ctx.frame_image(F, j) is column j of F's entry jets, and equals
    endo_apply(F, d_j) in order and in every bit wherever that is finite;
    where an overflowing entry meets the frame's zeros, endo_apply reads
    NaN and the column keeps its own entry."""
    chart, _, endos = TREE_PARTS[dim]
    ctx = _ctx(chart, count=25)
    frame = ctx.frame()
    nan = False
    with np.errstate(all="ignore"):
        for F in (*endos, OVERFLOWING_ENDOS[dim]):
            E = ctx.endo(F)
            for j in range(dim):
                got = ctx.frame_image(F, j)
                assert got == [row[j] for row in E], (F.label, j)
                for e, w in zip(got, endo_apply(E, frame[j]), strict=True):
                    if w.finite():
                        assert _bits(e) == _bits(w), (F.label, j)
                    else:
                        _same_jets([e], [w], (F.label, j), ("value", "grad", "hess"),
                                   only_finite=True)
                        nan = True
    assert nan


def test_an_overflowing_entry_leaves_the_other_reads_finite():
    """A dim-3 tensor leaf whose entry Γ[0][0][0] overflows, and an
    endomorphism whose entry E[0][0] overflows: every other frame-pair read
    and every other column entry is finite at every sample, in value and
    derivatives, where the composed route turns component 0 of S(d_0, d_j)
    and of E d_j into NaN through 0·inf for j > 0."""
    chart, leaves, _ = TREE_PARTS[3]
    leaf, F = leaves[3], OVERFLOWING_ENDOS[3]
    ctx = _ctx(chart, count=25)
    frame = ctx.frame()
    others = []
    with np.errstate(all="ignore"):
        _, table = leaf.normal_form(ctx)
        assert not table[0][0][0].finite() and not ctx.endo(F)[0][0].finite()
        for i in range(3):
            for j in range(3):
                others += [e for k, e in enumerate(frame_apply(ctx, leaf, i, j))
                           if (k, i, j) != (0, 0, 0)]
        for j in range(3):
            others += [e for k, e in enumerate(ctx.frame_image(F, j)) if (k, j) != (0, 0)]
        for j in (1, 2):
            assert np.isnan(composed_apply(ctx, leaf, frame[0], frame[j])[0].value).any()
            assert np.isnan(endo_apply(ctx.endo(F), frame[j])[0].value).any()
    assert len(others) == 3 * 9 - 1 + 3 * 3 - 1
    assert all(e.finite() for e in others)


def test_frame_tables_add_no_per_sample_array(monkeypatch):
    """On the shipped corpus and split_r4, every jet of a frame-pair read
    and of a column read shares its value array with the table or
    endomorphism entry it reads, or is a constant, whose value is one
    number at stride 0: the reads add no per-sample array."""
    reads = {"frame pairs": [], "columns": []}

    def recorded_pair(ctx, node, i, j):
        out = frame_apply(ctx, node, i, j)
        _, table = node.normal_form(ctx)
        reads["frame pairs"] += [(node, jet, plane[i][j]) for jet, plane in zip(out, table)]
        return out
    frame_image = EvalContext.frame_image

    def recorded_column(ctx, F, j):
        out = frame_image(ctx, F, j)
        reads["columns"] += [(F, jet, row[j]) for jet, row in zip(out, ctx.endo(F))]
        return out
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("prodconj") and \
                getattr(module, "frame_apply", None) is frame_apply:
            monkeypatch.setattr(module, "frame_apply", recorded_pair)
    monkeypatch.setattr(EvalContext, "frame_image", recorded_column)
    texts = [(name, corpus_text(name)) for name in corpus_names()]
    texts.append(("split_r4", (DATA / "split_r4.scn").read_text()))
    for name, text in texts:
        run_scenario(load_scenario(text, name=name))
    for tag, seen in reads.items():
        assert seen, tag
        for owner, jet, entry in seen:
            one_number = jet.const is not None and not any(jet.value.strides)
            assert one_number or (entry is not None and jet.value is entry.value), (owner, tag)


# ---- curvature and torsion tables against the composed route --------

CHART4 = Chart(4, ("x", "y", "z", "w"), ((-1.0, 1.0),) * 4)


def _p4(text):
    return parse_expr(text, names=("x", "y", "z", "w"))


def _table4(texts):
    """A dim-4 coefficient grid from expression texts in [k][i][j] order,
    cycled to fill 64 entries."""
    it = iter(texts * (64 // len(texts) + 1))
    return [[[_p4(next(it)) for _ in range(4)] for _ in range(4)] for _ in range(4)]


POLYS4 = ("(* x w)", "0", "(+ 1 z)", "0", "y", "(- w 1)", "0", "(* 1/2 y z)", "0")

# the leaves and endomorphisms of the curvature tables' trees: those of the
# frame-pair tables, and a dim-4 set with one overflowing leaf
CURVATURE_PARTS = {**TREE_PARTS, 4: (
    CHART4, [ChristoffelConnection(CHART4, _table4(POLYS4)), flat_connection(CHART4),
             ZeroOp(CHART4),
             Tensor12Field.from_components(CHART4, _table4((OVERFLOW,) + ("0",) * 20 + ("x",)))],
    [EndoField(CHART4, tuple(tuple(_p4(e) for e in row) for row in rows))
     for rows in ((("1", "0", "0", "0"), ("0", "-1", "x", "0"), ("0", "0", "1", "0"),
                   ("w", "0", "0", "1")),
                  (("y", "1", "0", "(* x z)"), ("0", "(+ 1 x)", "z", "0"),
                   ("1", "0", "(* y y)", "0"), ("0", "w", "0", "2")))])}

# one field per chart that is not a frame vector, at order 2
CURVATURE_OPERANDS = {2: OPERANDS[2][0], 3: OPERANDS[3][1],
                      4: VectorField(CHART4, (_p4("(+ y w)"), _p4("(* x x)"), _p4("(cos z)"),
                                              _p4("(- 1 (* x w))")))}


def _overflow_edge(ctx, op):
    """The samples where a finite coefficient of a leaf of op, or one of its
    partials, exceeds 1e100.  There a product of two or three of them may
    overflow on one route and not on another, which multiplies other pairs."""
    edge = np.zeros(ctx.count, bool)
    for leaf in _leaves(op):
        for e in (e for plane in leaf.normal_form(ctx)[1] for row in plane for e in row):
            for a in () if e is None else (e.value[None], e.grad.reshape(ctx.count, -1).T):
                edge |= np.any(np.isfinite(a) & (np.abs(a) > 1e100), axis=0)
    return edge


def _cancelled(ctx, op, X, Y, Z, at):
    """The largest finite |S(X, S(Y, Z))| and |S(Y, S(X, Z))| at the samples
    `at`: the terms whose difference is R(X, Y)Z on frame pairs (X, Y)."""
    terms = np.abs([vvalues(op.apply(ctx, U, op.apply(ctx, V, Z)))[at]
                    for U, V in ((X, Y), (Y, X))])
    return float(np.max(terms, initial=0.0, where=np.isfinite(terms)))


@pytest.mark.parametrize("dim", sorted(CURVATURE_PARTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_curvature_and_torsion_tables_equal_the_composed_route(dim, data):
    """`frame_curvature(op, i, j, z)` equals `composed_curvature(op, d_i,
    d_j, z)` for every frame triple wherever the composed route is finite,
    and for an order-2 z that is not a frame vector where op's curvature is
    a tensor in z; `torsion` equals `composed_torsion` on every frame pair,
    non-finite samples included.  The trees may hold an overflowing leaf;
    the samples at its overflow edge, where the two routes square different
    entries, are left out.  The table reads S(d_j, d_k) by index, so an
    overflowing entry does not reach the other entries of its plane through
    0·inf as it does on the composed route: a scan over every triple is
    non-finite on the table only at samples where the composed route is.
    R_ii is the constant 0, where the composed route reads inf - inf as
    NaN."""
    chart, leaves, endos = CURVATURE_PARTS[dim]
    op = data.draw(_trees(leaves, endos), label="operator")
    ctx = _ctx(chart, count=25)
    frame = ctx.frame()
    poisoned = {"table": np.zeros(ctx.count, bool), "composed": np.zeros(ctx.count, bool)}
    with np.errstate(all="ignore"):
        at = ~_overflow_edge(ctx, op)
        # sum_k z^k R(d_i, d_j)d_k is R(d_i, d_j)z when every derivative word
        # is the identity word, as in a connection of any coefficient sum
        # (frame fields commute), or when there is none, as in a tensor
        tensorial = all(word == ((), ()) for word in op.normal_form(ctx)[0])
        operands = [*enumerate(frame)] + ([("z", ctx.vector(CURVATURE_OPERANDS[dim]))]
                                          if tensorial else [])
        for i, X in enumerate(frame):
            for j, Y in enumerate(frame):
                for k, Z in operands:
                    got = frame_curvature(ctx, op, i, j, Z)
                    want = composed_curvature(ctx, op, X, Y, Z)
                    for route, v in (("table", got), ("composed", want)):
                        poisoned[route] |= ~np.isfinite(vvalues(v)).all(axis=1)
                    if i == j:
                        assert not vvalues(got).any()
                        assert not np.nan_to_num(vvalues(want), posinf=0, neginf=0).any()
                    else:
                        # a table holds values (order 0): values only
                        _same_jets(got, want, ("curvature", i, j, k, op), ("value",), at,
                                   _cancelled(ctx, op, X, Y, Z, at), only_finite=True)
                _same_jets(torsion(ctx, op, X, Y), composed_torsion(ctx, op, X, Y),
                           ("torsion", i, j, op), at=at)
    assert not (poisoned["table"] & ~poisoned["composed"])[at].any()


def test_the_curvature_tables_reach_nan():
    """The NaN case of the curvature table test is not vacuous: a
    combination with each overflowing tensor reads NaN from its table."""
    for chart, leaves, _ in CURVATURE_PARTS.values():
        op = CombinationOp(((1.0, leaves[0]), (0.5, leaves[-1])))
        ctx = _ctx(chart, count=25)
        with np.errstate(all="ignore"):
            images = [vvalues(frame_curvature(ctx, op, 0, j, Z))
                      for j in range(1, chart.dim) for Z in ctx.frame()]
        assert any(np.isnan(v).any() for v in images)


def _symmetric_christoffel(chart, parse, texts):
    """A torsion-free coordinate connection: gamma[k][i][j] = gamma[k][j][i],
    filled from `texts` in order over i <= j."""
    n = chart.dim
    it = iter(texts * n ** 3)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                gamma[k][i][j] = gamma[k][j][i] = parse(next(it))
    return ChristoffelConnection(chart, gamma, label="symmetric")


METRIC3 = MetricField(CHART3, ((_p3("(+ 2 (* x x))"), _p3("(* 1/2 y)"), _p3("0")),
                               (_p3("(+ 1 (* z z))"), _p3("(* 1/4 x)")), (_p3("(+ 3 y)"),)))
TORSION_FREE = {
    "symmetric_dim3": _symmetric_christoffel(CHART3, _p3, POLYS3),
    "symmetric_dim4": _symmetric_christoffel(CHART4, _p4, POLYS4),
    "levi_civita_warped": LeviCivitaConnection(WARPED),
    "levi_civita_dim3": LeviCivitaConnection(METRIC3),
}


@pytest.mark.parametrize("name", sorted(TORSION_FREE))
def test_curvature_tables_keep_the_first_bianchi_identity(name):
    """On a torsion-free node, R(d_i, d_j)d_k + R(d_j, d_k)d_i +
    R(d_k, d_i)d_j = 0 from the tables, which never see the identity;
    R_ji z = -R_ij z exactly and R_ii z is the constant 0.  The curvature
    is not 0, so the sum cancels."""
    nabla = TORSION_FREE[name]
    ctx = _ctx(nabla.chart, count=20)
    frame, n = ctx.frame(), nabla.chart.dim
    assert torsion_residual(ctx, nabla).value == 0.0

    def r(i, j, k):
        return vvalues(frame_curvature(ctx, nabla, i, j, frame[k]))
    size = max(np.max(np.abs(r(i, j, k))) for i in range(n) for j in range(n) for k in range(n))
    assert size > 1e-2
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cyclic = r(i, j, k) + r(j, k, i) + r(k, i, j)
                assert np.max(np.abs(cyclic)) <= 1e-12 * size, (i, j, k)
                assert np.array_equal(r(i, j, k), -r(j, i, k))
                if i == j:
                    assert all(e.const == 0.0
                               for e in frame_curvature(ctx, nabla, i, i, frame[k]))


def test_one_curvature_table_per_node_and_context(monkeypatch):
    """The shear scenario's prop11, generalized_identities and
    curvature_transcription checks read the flat base's table, and the
    last two the twisted operator's: each node's table is built once in
    the scenario's context, and it stores R_ij for i < j only."""
    builds = []
    build = connections._curvature_table

    def counted(ctx, nabla):
        builds.append((id(ctx), nabla))
        R = build(ctx, nabla)
        assert all(R[i][j] is None for i in range(len(R)) for j in range(i)), "R_ji stored"
        return R
    monkeypatch.setattr(connections, "_curvature_table", counted)
    scn = load_scenario(corpus_text("shear"), name="shear")
    assert not run_scenario(scn).failed
    kinds = {spec.kind.name for spec in scn.checks}
    assert {"prop11", "generalized_identities", "curvature_transcription"} <= kinds
    assert len({ctx for ctx, _ in builds}) == 1
    nodes = [nabla for _, nabla in builds]
    assert scn.connections["flat"] in nodes
    assert all(nodes.count(nabla) == 1 for nabla in nodes), nodes
    assert len(nodes) == len(set(nodes)) >= 5
