"""Twisted conjugation: the kernel condition, the coefficient plane, sweeps.

The recurrence feasibility results are backed by the least-squares oracle:
the solvable case must come back with a numerically zero defect and the
unsolvable one-form must stay bounded away from zero, so the shipped
difference tensor is certified from outside the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodconj import conjugation, fields, generalized
from prodconj.expr import ZERO, parse_expr
from prodconj.fields import (
    Chart,
    EndoField,
    MetricField,
    Tensor12Field,
    VectorField,
    context_for,
    frame_pair_residual,
    vvalues,
)
from prodconj.connections import (
    ChristoffelConnection,
    CombinationOp,
    LeviCivitaConnection,
    flat_connection,
)
from prodconj.conjugation import (
    ConjugateConnection,
    mean_decomposition_suite,
    membership_suite,
)
from prodconj.generalized import (
    GeneralizedConjugate,
    curvature_transcription_residual,
    degeneration_rows,
    duality_rows,
    family_member,
    family_rows,
    generalized_identity_rows,
    mixed_derivative_twist,
    rotated_twist,
    structure_derivative_twist,
    sweep_rows,
)
from prodconj.runner import corpus_text, run_scenario
from prodconj.sampling import SamplePlan
from prodconj.scenario import load_scenario

from engine_tables import materialize_christoffels
from oracles import recurrence_residual

BOX = ((-1.0, 1.0), (-1.0, 1.0))
CHART = Chart(2, ("x", "y"), BOX)


def _p(text):
    return parse_expr(text, names=("x", "y"))


def _endo(rows, label="E"):
    return EndoField(CHART, tuple(tuple(_p(t) for t in row) for row in rows), label=label)


SHEAR = _endo([("1", "x"), ("0", "-1")], "shear")
SWAP = _endo([("0", "1"), ("1", "0")], "swap")
IDENT = _endo([("1", "0"), ("0", "1")], "ident")
FLAT = flat_connection(CHART)
WARPED_LC = LeviCivitaConnection(
    MetricField(CHART, ((_p("1"), _p("0")), (_p("(+ 1 (* x x))"),))))

OFFKERNEL = Tensor12Field.from_components(CHART, [
    [[_p("1"), ZERO], [ZERO, ZERO]],
    [[ZERO, ZERO], [ZERO, ZERO]]], label="offc")

CSYM = Tensor12Field.from_components(CHART, [
    [[_p("x"), ZERO], [ZERO, ZERO]],
    [[ZERO, ZERO], [ZERO, ZERO]]], label="csym")

WEIGHT = _p("(* x x)")


def _ctx(seed=7, count=40):
    return context_for(CHART, SamplePlan(seed, count, BOX))


def _probes(ctx):
    return [ctx.vector(VectorField(CHART, (_p("(+ 1 y)"), _p("x")))),
            ctx.vector(VectorField(CHART, (_p("x"), _p("(+ 1 x)"))))]


def _assert_rows(rows, bound=1e-9, absent=()):
    for name, res, note in rows:
        if name in absent:
            assert res is None, f"{name} should have been gated off ({note})"
            continue
        assert res is not None, f"{name} unexpectedly skipped: {note}"
        assert res.value <= bound, f"{name}: {res.value:.3e} ({note})"


# ---- the kernel condition --------------------------------------------


def _defect(ctx, base, structure, twist):
    """duality_rows' defect row: max |E(C(X, EY)) + C(X, Y)| over frame pairs."""
    return {name: res for name, res, _ in duality_rows(ctx, base, structure, twist)}["defect"]


@pytest.mark.parametrize("base", [FLAT, WARPED_LC], ids=["flat", "curved"])
def test_canonical_twist_solves_the_kernel_condition(base):
    ctx = _ctx()
    d = structure_derivative_twist(base, SHEAR)
    assert _defect(ctx, base, SHEAR, d).value < 1e-11
    assert _defect(ctx, base, SHEAR, rotated_twist(d, SHEAR)).value < 1e-11


def test_off_kernel_twist_detected():
    ctx = _ctx()
    assert _defect(ctx, FLAT, SHEAR, OFFKERNEL).value > 1e-3


@settings(max_examples=30)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_kernel_is_closed_under_mixing(lam, mu):
    ctx = _ctx(count=10)
    mix = mixed_derivative_twist(WARPED_LC, SHEAR, lam, mu)
    assert _defect(ctx, WARPED_LC, SHEAR, mix).value < 1e-9


# suite: (module it scans from, its run on a context)
ONE_PASS = {
    "mean_decomposition": (conjugation,
                           lambda ctx: mean_decomposition_suite(ctx, WARPED_LC, SHEAR)),
    "membership": (conjugation, lambda ctx: membership_suite(ctx, WARPED_LC, SHEAR)),
    "duality": (generalized, lambda ctx: duality_rows(ctx, WARPED_LC, SHEAR, OFFKERNEL)),
}


@pytest.mark.parametrize("suite", ONE_PASS)
def test_one_pass_rows_match_separate_scans(suite, monkeypatch):
    """The suite scans the frame pairs once, and each row it merges there
    has the value, frame and point of a separate scan of the same output."""
    module, run = ONE_PASS[suite]
    passes = []

    def recorded(ctx, rows):
        passes.append(rows)
        return fields.frame_pair_rows(ctx, rows)

    def forbidden(ctx, fn):
        raise AssertionError("a second frame scan")

    monkeypatch.setattr(module, "frame_pair_rows", recorded)
    monkeypatch.setattr(module, "frame_pair_residual", forbidden)
    monkeypatch.setattr(module, "frame_triple_residual", forbidden)
    ctx = _ctx(count=12)
    got = run(ctx)
    [rows] = passes
    assert [name for name, _, _ in got] == list(dict(rows(0, 1)))
    for name, res, _ in got:
        alone = frame_pair_residual(ctx, lambda i, j: dict(rows(i, j))[name])
        assert res.value == alone.value, name
        assert (res.frame, res.worst_point) == (alone.frame, alone.worst_point), name


@pytest.mark.parametrize("name", ["dshear", "dmix"])
def test_a_derivative_twist_evaluates_nabla_e_once(name, monkeypatch):
    """Either shipped derivative tensor reads one nabla E table, built once
    per context however often the tensor is applied; the mix weights that
    nabla E by lam I + mu E.  nabla E's derivative weights, E from
    nabla_X(EY) and E from E(nabla_X Y), cancel by structure: W = {}."""
    scn = load_scenario(corpus_text("shear"), name="shear")
    dE = structure_derivative_twist(scn.connections["flat"], scn.endos["shear"])
    twist, builds = scn.tensors[name], []
    build = CombinationOp._normal_form

    def counted(self, ctx):
        builds.append((self, ctx))
        return build(self, ctx)

    monkeypatch.setattr(CombinationOp, "_normal_form", counted)
    contexts = [_ctx(count=5), _ctx(seed=8, count=5)]
    for ctx in contexts:
        for _ in range(2):
            for X in ctx.frame():
                for Y in ctx.frame():
                    twist.apply(ctx, X, Y)
            twist.normal_form(ctx)
        assert dE.normal_form(ctx)[0] == {}
    assert [ctx for node, ctx in builds if node == dE] == contexts


def test_duality_rows_with_kernel_twist():
    ctx = _ctx()
    rows = duality_rows(ctx, WARPED_LC, SHEAR, structure_derivative_twist(WARPED_LC, SHEAR))
    assert [r[0] for r in rows] == ["defect", "double_application", "expansion",
                                    "canonical_solution", "rotation_closure"]
    _assert_rows(rows, bound=1e-10)


def test_duality_rows_expansion_is_twist_independent():
    # off-kernel twists break the first two rows but never the expansion
    ctx = _ctx()
    by_name = {n: r for n, r, _ in duality_rows(ctx, FLAT, SHEAR, OFFKERNEL)}
    assert by_name["defect"].value > 1e-3
    assert by_name["double_application"].value > 1e-3
    assert by_name["expansion"].value < 1e-11
    assert by_name["canonical_solution"].value < 1e-11


def test_twisted_operator_charts_must_match():
    from prodconj.errors import ConfigError
    other_chart = Chart(2, ("x", "y"), BOX)
    alien = Tensor12Field.from_components(other_chart, [[[ZERO] * 2] * 2] * 2)
    with pytest.raises(ConfigError):
        GeneralizedConjugate(FLAT, SHEAR, alien)


# ---- the coefficient plane -------------------------------------------


def test_family_member_special_reductions():
    ctx = _ctx(count=20)
    conj = ConjugateConnection(WARPED_LC, SHEAR)
    base_tab = materialize_christoffels(ctx, WARPED_LC)
    conj_tab = materialize_christoffels(ctx, conj)
    for (lam, mu), (cb, cc) in {(0.0, 0.0): (0, 1), (1.0, -1.0): (1, 0),
                                (0.0, -2.0): (0, -1), (-1.0, -1.0): (-1, 0)}.items():
        tab = materialize_christoffels(ctx, family_member(WARPED_LC, SHEAR, lam, mu))
        assert np.max(np.abs(tab - cb * base_tab - cc * conj_tab)) < 1e-11


@pytest.mark.parametrize("lam,mu", [(0.0, 0.0), (1.0, -1.0), (0.5, -0.5), (2.0, 1.0)])
def test_family_rows(lam, mu):
    ctx = _ctx()
    rows = family_rows(ctx, WARPED_LC, SHEAR, lam, mu, WEIGHT)
    _assert_rows(rows, bound=1e-10)
    has_reduction = (lam, mu) in ((0.0, 0.0), (1.0, -1.0))
    assert ("reduction" in [r[0] for r in rows]) == has_reduction


def test_sweep_finds_exactly_four_solutions():
    ctx = _ctx()
    grid = [(float(l), float(m)) for l in range(-2, 3) for m in range(-2, 3)]
    rows = sweep_rows(ctx, WARPED_LC, SHEAR, grid, _probes(ctx), 1e-9, 1e-3)
    by_name = {n: (r, note) for n, r, note in rows}
    assert by_name["genericity"][0].value == 0.0
    solutions = {(0.0, 0.0), (1.0, -1.0), (0.0, -2.0), (-1.0, -1.0)}
    for lam, mu in grid:
        res, note = by_name[f"member({lam:g},{mu:g})"]
        assert res is not None
        assert res.value <= 1e-9, f"({lam},{mu}): {res.value:.3e} ({note})"
        if (lam, mu) not in solutions:
            assert "non-closure predicted" in note
    assert by_name["coefficient_match"][0].value <= 1e-9
    assert by_name["expansion_fit"][0].value <= 1e-9
    assert by_name["solution_count"][0].value == 0.0


def test_sweep_member_short_of_the_floor_fails_with_a_finite_residual():
    """A member predicted not to close whose square moves less than the floor
    is a genuine failure, not a failed evaluation."""
    text = corpus_text("prop32_grid").replace("probes = p1, p2",
                                              "probes = p1, p2\nfloor = 1000000")
    report = run_scenario(load_scenario(text, name="high_floor"), filter_substr="sweep")
    members = [r for r in report.rows if ".member(" in r.row_id]
    moving = [r for r in members if "non-closure predicted" in r.note]
    assert len(members) == 16 and len(moving) == 12
    for row in moving:
        assert row.status == "fail" and np.isfinite(row.residual), row
        assert row.residual > 9e5 and "against floor 1e+06" in row.note, row
    assert all(r.status == "pass" for r in members if r not in moving)


def test_sweep_keeps_a_nan_fit(monkeypatch):
    """A NaN fit for one grid member is not folded away by the finite ones after it."""
    scenario = load_scenario(corpus_text("prop32_grid"), name="prop32_grid")
    lstsq, calls = np.linalg.lstsq, []

    def nan_for_third_member(a, b, **kwargs):
        calls.append(None)
        coeffs, *rest = lstsq(a, b, **kwargs)
        return (np.full_like(coeffs, np.nan) if len(calls) == 3 else coeffs, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", nan_for_third_member)
    report = run_scenario(scenario, filter_substr="sweep")
    status = {r.row_id: r.status for r in report.rows}
    assert len(calls) > 3
    assert status["sweep.coefficient_match"] == status["sweep.expansion_fit"] == "error"


def test_sweep_refuses_degenerate_probe_basis():
    # conjugating by the identity makes both basis operators equal
    ctx = _ctx()
    grid = [(0.0, 0.0), (1.0, 1.0)]
    rows = sweep_rows(ctx, WARPED_LC, IDENT, grid, _probes(ctx), 1e-9, 1e-3)
    assert all(res is None for _, res, _ in rows)
    assert rows[0][0] == "genericity"
    assert rows[0][2].startswith("skipped: hypothesis fails (condition ")
    # a closed gate skips every conclusion an open gate reports, none dropped
    opened = sweep_rows(ctx, WARPED_LC, SHEAR, grid, _probes(ctx), 1e-9, 1e-3)
    assert opened[0][1] is not None
    assert [name for name, _, _ in rows] == [name for name, _, _ in opened]


# ---- identities of the twisted operator ------------------------------


def test_generalized_identity_rows_with_parallel_structure():
    ctx = _ctx()
    rows = generalized_identity_rows(ctx, FLAT, SWAP, CSYM, 1e-9, probes=_probes(ctx))
    assert [r[0] for r in rows] == ["structure_derivative", "torsion_form",
                                    "torsion_collapse", "curvature_form"]
    _assert_rows(rows, bound=1e-9)


def test_generalized_identity_rows_gate_torsion_collapse():
    ctx = _ctx()
    twist = structure_derivative_twist(FLAT, SHEAR)
    rows = generalized_identity_rows(ctx, FLAT, SHEAR, twist, 1e-9, probes=_probes(ctx))
    _assert_rows(rows, bound=1e-9, absent=("torsion_collapse",))


def test_transcribed_curvature_only_matches_for_zero_twist():
    ctx = _ctx()
    zero = Tensor12Field.from_components(CHART, [[[ZERO] * 2] * 2] * 2, label="0")
    assert curvature_transcription_residual(ctx, WARPED_LC, SHEAR, zero,
                                            probes=_probes(ctx)).value < 1e-10
    live = structure_derivative_twist(FLAT, SHEAR)
    assert curvature_transcription_residual(ctx, FLAT, SHEAR, live,
                                            probes=_probes(ctx)).value > 1e-3


def test_degeneration_rows():
    ctx = _ctx()
    _assert_rows(degeneration_rows(ctx, WARPED_LC, SHEAR), bound=1e-12)


# ---- recurrence feasibility oracle -----------------------------------


def _shear_at(pt):
    return np.array([[1.0, pt[0]], [0.0, -1.0]])


def _dshear_at(pt):
    return [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))]


def test_recurrence_solvable_with_vanishing_form():
    for pt in [(0.4, 0.1), (-0.8, 0.5)]:
        defect, S = recurrence_residual(_shear_at, _dshear_at, np.zeros(2), pt)
        assert defect < 1e-12
        # the solved tensor must reproduce the commutator equations
        E = _shear_at(pt)
        dE = _dshear_at(pt)
        for i in range(2):
            comm = S[:, i, :] @ E - E @ S[:, i, :]
            assert np.max(np.abs(comm + dE[i])) < 1e-10


def test_recurrence_infeasible_with_coordinate_form():
    for pt, bound in [((0.4, 0.1), 0.5), ((-0.8, 0.5), 0.5)]:
        defect, _ = recurrence_residual(_shear_at, _dshear_at, np.array([1.0, 0.0]), pt)
        assert defect > bound


def test_shipped_difference_tensor_satisfies_the_equations():
    # S^0_01 = S^0_10 = 1/2 and S^0_11 = x/4 solve [S_i, E] = -d_i E
    for x in (0.3, -0.7, 0.9):
        S = np.zeros((2, 2, 2))
        S[0, 0, 1] = S[0, 1, 0] = 0.5
        S[0, 1, 1] = x / 4.0
        E = _shear_at((x, 0.0))
        dE = _dshear_at((x, 0.0))
        for i in range(2):
            comm = S[:, i, :] @ E - E @ S[:, i, :]
            assert np.max(np.abs(comm + dE[i])) < 1e-14
        assert np.max(np.abs(S - S.transpose(0, 2, 1))) == 0.0


def test_solved_base_keeps_structure_parallel():
    comps = [[[ZERO, _p("1/2")], [_p("1/2"), _p("(/ x 4)")]],
             [[ZERO, ZERO], [ZERO, ZERO]]]
    nabla = ChristoffelConnection(CHART, comps, label="solved")
    ctx = _ctx()
    from prodconj.conjugation import parallel_structure_residual
    from prodconj.connections import torsion_residual
    assert parallel_structure_residual(ctx, nabla, SHEAR).value < 1e-12
    assert torsion_residual(ctx, nabla).value == 0.0
