"""Projector pairs, distribution membership, and splitting invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodconj.errors import ConfigError, EvaluationError
from prodconj.expr import ZERO, parse_expr, parse_exprs
from prodconj.fields import (
    Chart,
    EndoField,
    EvalContext,
    MetricField,
    VectorField,
    context_for,
    vvalues,
)
from prodconj.connections import ChristoffelConnection, LeviCivitaConnection, flat_connection
from prodconj.distributions import (
    DistributionSpec,
    ProjectorPair,
    SchoutenConnection,
    conjugate_geodesic_rows,
    conjugate_restriction_rows,
    conjugate_torsion_magnitude,
    fundamental_tensors,
    geodesic_residual,
    hv_form_rows,
    invariance_residual,
    involutivity_rows,
    pair_axiom_rows,
    pair_from_h,
    restriction_collapse_rows,
    restriction_residual,
    schouten_rows,
    skew_bridge_rows,
    skew_pair_rows,
    splitting_block_rows,
    structure_rows,
)
from prodconj.reporting import Residual
from prodconj.runner import corpus_text, run_scenario
from prodconj.sampling import SamplePlan
from prodconj.scenario import load_scenario

from oracles import whole_batch_certify

BOX = ((-1.0, 1.0), (-1.0, 1.0))
CHART = Chart(2, ("x", "y"), BOX)


def _p(text):
    return parse_expr(text, names=("x", "y"))


def _endo(rows, label="E"):
    return EndoField(CHART, tuple(tuple(_p(t) for t in row) for row in rows), label=label)


HX = _endo([("1", "0"), ("x", "0")], "hx")          # x-dependent projector
HPROJ = _endo([("1", "0"), ("0", "0")], "h")
SWAP = _endo([("0", "1"), ("1", "0")], "swap")
REFL = _endo([("1", "0"), ("0", "-1")], "refl")
SLANTED = pair_from_h(HX)
COORDS = pair_from_h(HPROJ)
FLAT = flat_connection(CHART)


def _framed():
    gamma = [[[ZERO, ZERO], [ZERO, ZERO]],
             [[_p("-1"), ZERO], [ZERO, ZERO]]]
    return ChristoffelConnection(CHART, gamma, label="framed")


def _rolled():
    gamma = [[[ZERO, _p("y")], [ZERO, ZERO]],
             [[ZERO, ZERO], [_p("x"), ZERO]]]
    return ChristoffelConnection(CHART, gamma, label="rolled")


def _ctx(seed=7, count=40):
    return context_for(CHART, SamplePlan(seed, count, BOX))


def _assert_rows(rows, bound=1e-9, absent=()):
    for name, res, note in rows:
        if name in absent:
            assert res is None, f"{name} should have been gated off ({note})"
            continue
        assert res is not None, f"{name} unexpectedly skipped: {note}"
        assert res.value <= bound, f"{name}: {res.value:.3e} ({note})"


# ---- pair algebra -----------------------------------------------------


def test_pair_axioms_hold_for_projectors():
    ctx = _ctx()
    _assert_rows(pair_axiom_rows(ctx, SLANTED), bound=1e-14)
    _assert_rows(structure_rows(ctx, SLANTED), bound=1e-14)


def test_pair_axioms_fail_for_non_idempotent():
    bad = ProjectorPair(SWAP, _endo([("1", "-1"), ("-1", "1")], "c"))
    ctx = _ctx()
    rows = {name: res for name, res, _ in pair_axiom_rows(ctx, bad)}
    assert rows["partition"].value <= 1e-14
    assert rows["h_idempotent"].value > 1e-3


def test_slanted_structure_matrix():
    ctx = _ctx(count=10)
    E = SLANTED.structure
    A = np.stack([np.stack([j.value for j in row], -1) for row in ctx.endo(E)], -2)
    x = ctx.points[:, 0]
    assert np.allclose(A[:, 0, 0], 1.0) and np.allclose(A[:, 1, 1], -1.0)
    assert np.allclose(A[:, 1, 0], 2 * x) and np.allclose(A[:, 0, 1], 0.0)


# ---- membership -------------------------------------------------------


def test_distribution_spec_validation():
    f = VectorField(CHART, (_p("1"), _p("x")))
    with pytest.raises(ConfigError):
        DistributionSpec("both", span=(f,), pair=SLANTED, side="horizontal")
    with pytest.raises(ConfigError):
        DistributionSpec.from_pair(SLANTED, "sideways")
    with pytest.raises(ConfigError):
        DistributionSpec.from_span(())


def test_span_rank_drop_raises():
    a = VectorField(CHART, (_p("1"), _p("0")))
    b = VectorField(CHART, (_p("2"), _p("0")))
    D = DistributionSpec.from_span((a, b), label="thin")
    with pytest.raises(EvaluationError):
        D.certify(_ctx())


def test_complement_values_separate_members_from_outsiders():
    ctx = _ctx()
    tilt = DistributionSpec.from_span((VectorField(CHART, (_p("1"), _p("x"))),), label="tilt")
    inside = ctx.vector(VectorField(CHART, (_p("y"), _p("(* x y)"))))  # y * (1, x)
    outside = ctx.vector(VectorField(CHART, (_p("0"), _p("1"))))
    assert np.max(tilt.complement_values(ctx, inside)) < 1e-12
    assert np.min(tilt.complement_values(ctx, outside)) > 1e-3


def test_pair_route_membership_matches_span_route():
    ctx = _ctx()
    Dh_pair = DistributionSpec.from_pair(SLANTED, "horizontal", label="Dh")
    Dh_span = DistributionSpec.from_span((VectorField(CHART, (_p("1"), _p("x"))),))
    w = ctx.vector(VectorField(CHART, (_p("(sin y)"), _p("1"))))
    a = Dh_pair.complement_values(ctx, w)
    b = Dh_span.complement_values(ctx, w)
    # same kernel, different projectors; zeros must agree, here both nonzero
    assert np.all((a > 1e-6) == (b > 1e-6))
    member = ctx.vector(VectorField(CHART, (_p("y"), _p("(* x y)"))))
    assert np.max(Dh_pair.complement_values(ctx, member)) < 1e-12
    assert np.max(Dh_span.complement_values(ctx, member)) < 1e-12


def test_invariance_under_structure():
    ctx = _ctx()
    Dh = DistributionSpec.from_pair(SLANTED, "horizontal", label="Dh")
    assert invariance_residual(ctx, Dh, SLANTED.structure).value < 1e-12
    Dc = DistributionSpec.from_pair(COORDS, "horizontal", label="Dc")
    assert invariance_residual(ctx, Dc, SWAP).value == pytest.approx(1.0)


def test_restriction_residual_two_sided():
    ctx = _ctx()
    tilt = DistributionSpec.from_span((VectorField(CHART, (_p("1"), _p("x"))),), label="tilt")
    assert restriction_residual(ctx, _framed(), tilt).value < 1e-12
    assert restriction_residual(ctx, FLAT, tilt).value > 1e-3


def test_geodesic_residual_weaker_than_restriction():
    ctx = _ctx()
    tilt = DistributionSpec.from_span((VectorField(CHART, (_p("1"), _p("x"))),), label="tilt")
    assert geodesic_residual(ctx, _framed(), tilt).value < 1e-12


def test_conjugate_restriction_rows_positive_and_gated():
    ctx = _ctx()
    Dh = DistributionSpec.from_pair(SLANTED, "horizontal", label="Dh")
    rows = conjugate_restriction_rows(ctx, _framed(), Dh, SLANTED.structure, 1e-9)
    _assert_rows(rows, bound=1e-11)
    tilt = DistributionSpec.from_span((VectorField(CHART, (_p("(- 0 x)"), _p("1"))),))
    gated = conjugate_restriction_rows(ctx, FLAT, tilt, REFL, 1e-9)
    assert dict((n, r) for n, r, _ in gated)["conjugate_restricts"] is None


def test_conjugate_geodesic_rows_gate_on_restriction():
    ctx = _ctx()
    Dh = DistributionSpec.from_pair(SLANTED, "horizontal", label="Dh")
    rows = conjugate_geodesic_rows(ctx, _framed(), Dh, SLANTED.structure, 1e-9)
    assert [n for n, _, _ in rows] == \
        ["hypothesis_invariance", "hypothesis_restriction", "conjugate_geodesic"]
    _assert_rows(rows, bound=1e-11)
    # geodesic invariance of the base alone must not open the gate
    axis = DistributionSpec.from_span((VectorField(CHART, (_p("1"), ZERO)),), label="axis")
    assert geodesic_residual(ctx, _rolled(), axis).value < 1e-12
    assert restriction_residual(ctx, _rolled(), axis).value > 1e-3
    gated = conjugate_geodesic_rows(ctx, _rolled(), axis, REFL, 1e-9)
    named = dict((n, r) for n, r, _ in gated)
    assert named["conjugate_geodesic"] is None


# ---- splittings of the conjugate --------------------------------------


def test_four_term_form_is_universal():
    ctx = _ctx()
    _assert_rows(hv_form_rows(ctx, _rolled(), SLANTED), bound=1e-12)


def test_restriction_collapse_rows():
    ctx = _ctx()
    _assert_rows(restriction_collapse_rows(ctx, _framed(), SLANTED, 1e-9), bound=1e-11)
    gated = restriction_collapse_rows(ctx, FLAT, SLANTED, 1e-9)
    by_name = dict((n, r) for n, r, _ in gated)
    assert by_name["conjugate_collapse"] is None and by_name["split_form"] is None


def test_schouten_rows():
    ctx = _ctx()
    rows = schouten_rows(ctx, FLAT, SLANTED, 1e-9)
    _assert_rows(rows, bound=1e-11, absent=("reduces_to_base",))
    rows = schouten_rows(ctx, _framed(), SLANTED, 1e-9)
    _assert_rows(rows, bound=1e-11)


def test_schouten_is_a_projection_of_the_base():
    # applying the splitting twice changes nothing
    ctx = _ctx()
    s1 = SchoutenConnection(_rolled(), SLANTED)
    s2 = SchoutenConnection(s1, SLANTED)
    x = ctx.vector(VectorField(CHART, (_p("1"), _p("y"))))
    y = ctx.vector(VectorField(CHART, (_p("x"), _p("1"))))
    assert np.allclose(vvalues(s1.apply(ctx, x, y)), vvalues(s2.apply(ctx, x, y)),
                       atol=1e-13)


def test_involutivity_rows_gate_and_conclusion():
    ctx = _ctx()
    rows = involutivity_rows(ctx, FLAT, SLANTED, 1e-9)
    _assert_rows(rows, bound=1e-12)
    assert conjugate_torsion_magnitude(ctx, FLAT, SLANTED).value < 1e-12
    gated = involutivity_rows(ctx, _rolled(), SLANTED, 1e-9)
    by_name = dict((n, r) for n, r, _ in gated)
    assert by_name["vertical_involutive"] is None


def test_involutivity_gate_fails_closed_on_nan(monkeypatch):
    monkeypatch.setattr("prodconj.distributions.torsion_residual",
                        lambda ctx, nabla: Residual(float("nan")))
    rows = involutivity_rows(_ctx(), FLAT, SLANTED, 1e-9)
    by_name = dict((n, r) for n, r, _ in rows)
    assert np.isnan(by_name["hypothesis_torsion_free"].value)
    assert by_name["vertical_involutive"] is None
    assert by_name["horizontal_involutive"] is None


def test_pair_structure_is_built_once():
    pair = pair_from_h(HX)
    assert pair.structure is pair.structure


def test_one_rank_svd_per_projector_in_a_context(monkeypatch):
    """`restricts` on a pair side and `schouten`, which builds its own side
    specs, share the rank of each projector: one rank build for h and one
    for v.  Builds are counted, not SVD calls, since a projector whose
    constant zeros leave one row or one column takes no SVD."""
    built = []
    cached = EvalContext.cached

    def counted(self, key, build):
        def counted_build():
            built.append(key[0].side)
            return build()
        return cached(self, key, counted_build if key[-1] == "rank" else build)
    monkeypatch.setattr(EvalContext, "cached", counted)
    ctx = _ctx()
    restriction_residual(ctx, _rolled(), DistributionSpec.from_pair(SLANTED, "horizontal"))
    schouten_rows(ctx, _rolled(), SLANTED, 1e-9)
    assert sorted(built) == ["horizontal", "vertical"]


def test_wide_involutivity_r3_takes_one_rank_svd(monkeypatch):
    """At 5000 samples h of involutivity_r3 drops its constant-zero column
    and takes one SVD of a (5000, 3, 2) batch; v keeps one row, whose rank
    needs no SVD."""
    shapes = []
    svd = np.linalg.svd

    def recorded(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return svd(M, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recorded)
    scn = load_scenario(corpus_text("involutivity_r3"), name="involutivity_r3")
    assert not run_scenario(scn, samples=5000).failed
    assert shapes == [(5000, 3, 2)]


# Projector entries for the rank property: the constant 0, other constants,
# sample-dependent entries (a zero at some points), and entries that are inf
# or NaN where x = 7.
_ZERO_ENTRIES = ("0", "(* 0 x)")
_CONST_ENTRIES = ("1", "-2", "1/2", "(+ 1 2)")
_VARIABLE_ENTRIES = ("x", "y", "(* x y)", "(+ 1 x)", "(- x x)")
_INF, _NAN = "(exp (exp x))", "(- (exp (exp x)) (exp (exp x)))"
_COORDINATE_VALUES = (-1.0, 0.0, 0.5, 7.0)
_NAMES = ("x", "y", "z", "w")


def _outcome(certify, ctx):
    """certify(ctx), or the type, message and witness point it raised."""
    try:
        with np.errstate(all="ignore"):
            return certify(ctx)
    except (EvaluationError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc), getattr(exc, "point", None)


def _rank_like_whole_batch(rows, points):
    """certify of both sides of the pair whose h has the given rows of
    entries agrees with the whole-batch SVD: the same rank, or the same
    exception type, message and witness point."""
    dim = len(rows)
    chart = Chart(dim, _NAMES[:dim], ((-10.0, 10.0),) * dim)
    h = EndoField(chart, tuple(tuple(parse_exprs(row, names=chart.names)) for row in rows))
    pair = pair_from_h(h)
    for side in ("horizontal", "vertical"):
        spec = DistributionSpec.from_pair(pair, side)
        got = _outcome(spec.certify, EvalContext(chart, np.array(points, dtype=float)))
        want = _outcome(lambda ctx: whole_batch_certify(spec, ctx),
                        EvalContext(chart, np.array(points, dtype=float)))
        assert got == want, (side, rows, points)


@pytest.mark.parametrize("rows, points", [
    (("0 0 0", "0 0 0", "0 0 0"), [(0.5, 1, 0), (0, 0, 0)]),          # all zero
    (("1 0 0", "0 1 0", "0 0 0"), [(0.5, 1, 0), (0, 0, 0)]),          # all constant
    (("1 -2 0", "0 0 0", "0 0 0"), [(0.5, 1, 0)]),                    # constant 1 x 2
    (("x 0", "y 0"), [(0.5, 1), (0, 0), (-1, 0)]),                    # 2 x 1, rank varies
    (("x y 0", "0 0 0", "0 0 0"), [(0.5, 1, 0), (0, 0, 1)]),          # 1 x 2, rank varies
    (("1 0 0", "0 1 0", "0 x 0"), [(0.5, 1, 0), (0, 0.5, 7)]),        # involutivity_r3's h
    (("1 0", "0 x"), [(0.5, 1), (0, 1)]),                             # SVD, rank varies
    ((f"{_INF} 1", "0 0"), [(0.5, 1), (7, 1)]),                       # inf in a 1 x 2
    ((f"{_NAN} 1", "0 0"), [(0.5, 1), (7, 1)]),                       # NaN in a 1 x 2
    ((f"{_NAN} 1", "1 x"), [(0.5, 1), (7, 1)]),                       # NaN in a 2 x 2
    (("x 0 0 0", "0 (* x y) 0 0", "0 0 0 0", "1 0 0 z"), [(0.5, 1, 0, 7), (0, 1, 1, 1)]),
])
def test_rank_matches_the_whole_batch_svd(rows, points):
    _rank_like_whole_batch(rows, points)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(data=st.data())
def test_rank_matches_the_whole_batch_svd_on_drawn_matrices(data):
    dim = data.draw(st.integers(2, 4), label="dim")
    # weighted by repetition: mostly zeros, a non-finite entry rarely
    entry = st.sampled_from(_ZERO_ENTRIES * 6 + _CONST_ENTRIES * 2 + _VARIABLE_ENTRIES * 2
                            + (_INF, _NAN))
    texts = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                               min_size=dim, max_size=dim), label="h")
    coordinate = st.sampled_from(_COORDINATE_VALUES)
    points = data.draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=5),
                       label="points")
    _rank_like_whole_batch([" ".join(row) for row in texts], points)


_EE = "(exp (exp x))"  # inf where x > log(log(max float)), about 6.566


@pytest.mark.parametrize("rows, points, witness", [
    (("x 0", "0 0"), [(0, 1), (0.5, 1), (0.25, 1)], (0.0, 1.0)),
    (("x 0", "0 0"), [(0.5, 1), (0, 1), (0.25, 1)], (0.0, 1.0)),
    ((f"1 {_EE}", "0 0"), [(6, 1), (8, 1), (7, 1)], (8.0, 1.0)),
    ((f"1 {_EE}", "0 0"), [(8, 1), (6, 1), (7, 1)], (8.0, 1.0)),
    ((f"1 {_EE}", "0 0"), [(6, 1), (6.5, 1), (7, 1), (8, 1)], (7.0, 1.0)),
])
def test_rank_witness_is_the_first_sample_below_the_largest_rank(rows, points, witness):
    """The reference rank is the largest over the samples, whichever comes
    first, so the witness is a sample where the rank drops: x = 0 for
    h = [[x, 0], [0, 0]], and an overflowing exp(exp(x)) entry."""
    chart = Chart(2, ("x", "y"), ((-10.0, 10.0),) * 2)
    h = EndoField(chart, tuple(tuple(parse_exprs(row, names=chart.names)) for row in rows))
    spec = DistributionSpec.from_pair(pair_from_h(h), "horizontal")
    for certify in (spec.certify, lambda ctx: whole_batch_certify(spec, ctx)):
        got = _outcome(certify, EvalContext(chart, np.array(points, dtype=float)))
        assert got[0] is EvaluationError and tuple(got[2]) == witness, got


def test_rank_error_of_a_scenario_names_an_overflowing_sample():
    """On x in [6, 8] the projector entry exp(exp(x)) is finite at some
    samples and inf at others; the error names a sample where it is inf."""
    scn = load_scenario("""\
[chart]
dim = 2
names = x, y
box = 6:8, 0:1

[endo hee]
row 0 = 1 (exp (exp x))
row 1 = 0 0

[pair p]
h = hee

[distribution hd]
pair = p
side = horizontal

[connection flat]
kind = flat

[check closed]
kind = restricts
connection = flat
distribution = hd
""", name="ee")
    (row,) = run_scenario(scn, samples=20).rows
    assert row.status == "error" and "drops or varies" in row.note
    x = float(row.note.split("at point (")[1].split(",")[0])
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(np.exp(x)))


# ---- fundamental tensors ---------------------------------------------


def test_fundamental_tensors_frozen_on_round_metric():
    box = ((0.3, 1.2), (-1.0, 1.0))
    chart = Chart(2, ("x", "y"), box)
    names = ("x", "y")
    g = MetricField(chart, ((parse_expr("1", names=names), parse_expr("0", names=names)),
                            (parse_expr("(pow (sin x) 2)", names=names),)))
    hproj = EndoField(chart, ((parse_expr("1", names=names), parse_expr("0", names=names)),
                              (parse_expr("0", names=names), parse_expr("0", names=names))))
    pair = pair_from_h(hproj)
    lc = LeviCivitaConnection(g)
    ctx = EvalContext(chart, np.array([[0.7, 0.2]]))
    T, A = fundamental_tensors(lc, pair)
    frame = ctx.frame()
    t11 = vvalues(T.apply(ctx, frame[1], frame[1]))[0]
    t10 = vvalues(T.apply(ctx, frame[1], frame[0]))[0]
    assert t11[0] == pytest.approx(-np.sin(0.7) * np.cos(0.7), abs=1e-12)
    assert abs(t11[1]) < 1e-14
    assert t10[1] == pytest.approx(1.0 / np.tan(0.7), abs=1e-12)
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(vvalues(A.apply(ctx, frame[i], frame[j])))) < 1e-14
    t0 = vvalues(T.apply(ctx, frame[0], frame[1]))
    assert np.max(np.abs(t0)) < 1e-14  # first slot is projected to the vertical side


@pytest.mark.parametrize("nabla,pair", [(FLAT, COORDS), (FLAT, SLANTED)])
def test_splitting_block_rows_pass(nabla, pair):
    ctx = _ctx()
    _assert_rows(splitting_block_rows(ctx, nabla, pair), bound=1e-11)


def test_splitting_block_rows_curved():
    ctx = _ctx()
    g = MetricField(CHART, ((_p("1"), _p("0")), (_p("(+ 1 (* x x))"),)))
    _assert_rows(splitting_block_rows(ctx, LeviCivitaConnection(g), SLANTED), bound=1e-10)


# ---- two splittings at once ------------------------------------------


def test_skew_pair_rows_bridge_is_exact():
    ctx = _ctx()
    straight = pair_from_h(HPROJ)
    rows = dict((n, r) for n, r, _ in skew_pair_rows(ctx, SLANTED, straight)
                + skew_bridge_rows(ctx, SLANTED, straight))
    assert rows["structure_skew"].value > 1e-3
    assert rows["projector_skew"].value > 1e-3
    assert rows["defect_bridge"].value < 1e-12


def test_skew_pair_rows_anticommuting_structures():
    ctx = _ctx()
    p1 = pair_from_h(_endo([("1/2", "1/2"), ("1/2", "1/2")], "havg"))
    p2 = pair_from_h(HPROJ)
    rows = dict((n, r) for n, r, _ in skew_pair_rows(ctx, p2, p1)
                + skew_bridge_rows(ctx, p2, p1))
    # structures refl and swap anticommute exactly; projectors never do
    assert rows["structure_skew"].value < 1e-15
    assert rows["projector_skew"].value > 1e-3
    assert rows["defect_bridge"].value < 1e-14
