"""Check registry: every runnable identity check, with anchors and judging.

A check kind bundles a runner over resolved scenario objects, a parameter
schema the loader validates against, an anchor for each row it can emit,
and the set of rows whose judgment flips under a failure expectation.
The table in `_kinds` is the only place a kind is declared, and a
runner's argument list (`_suite`, `_row`) is its kind's parameter table.
Anchors are the harness's own catalog labels tying rows to the source
material's numbered statements; infrastructure rows carry "plumbing".

Expectation semantics, per check:
  pass             every row's residual must sit within tolerance.
  fail             rows listed as invertible must EXCEED the floor (the
                   instance is a deliberate counterexample); other rows
                   are judged normally.
  hypothesis_fail  at least one of the kind's hypothesis rows must exceed
                   the floor and the rows it gates must come back skipped;
                   a check whose hypotheses all hold under this expectation
                   fails.  Only a check whose kind reports hypothesis rows
                   under its parameters takes it.
A non-finite residual is an error under every expectation.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .conjugation import (
    conjugate_suite,
    mean_decomposition_suite,
    membership_suite,
    metric_consequence_suite,
    pencil_suite,
    projective_suite,
    projector_suite,
    psi_connection,
    recurrent_suite,
    skew_commutation_residual,
    splitting_suite,
)
from .connections import connection_laws_residual, torsion_residual
from .expr import parse_expr
from .distributions import (
    conjugate_geodesic_rows,
    conjugate_restriction_rows,
    conjugate_torsion_magnitude,
    geodesic_residual,
    hv_form_rows,
    invariance_residual,
    involutivity_rows,
    pair_axiom_rows,
    restriction_collapse_rows,
    restriction_residual,
    schouten_rows,
    skew_bridge_rows,
    skew_pair_rows,
    splitting_block_rows,
    structure_rows,
)
from .fields import almost_product_residual, metric_compat_residual
from .generalized import (
    curvature_transcription_residual,
    degeneration_rows,
    duality_rows,
    family_rows,
    generalized_identity_rows,
    sweep_rows,
)
from .reporting import ERROR, FAIL, PASS, SKIP, CheckRow, Residual

EXPECTATIONS = ("pass", "fail", "hypothesis_fail")
DEFAULT_FLOOR = 1e-3

# product-rule probes use a weight with a nonconstant gradient
_WEIGHT = parse_expr("(* (coord 0) (coord 0))")

# the sweep grid: the four closing pairs plus twelve probes that must visibly fail
_GRID = (
    (0.0, 0.0), (0.0, -2.0), (1.0, -1.0), (-1.0, -1.0),
    (0.5, 0.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0),
    (0.0, 1.0), (1.0, 1.0), (2.0, 0.0), (0.0, 0.5),
    (-0.5, -1.0), (1.0, -2.0), (-1.0, 1.0), (0.25, -0.5),
)


class ParamSpec:
    """One check parameter: its resolution role and default.

    Roles name object tables of the scenario (connection, structure,
    metric, oneform, tensor, pair, pencil, distribution), plain values
    (float, str), or composites (vectors = comma-joined vector-field
    names).  `needs` names a parameter that must be given whenever this
    one is.
    """

    def __init__(self, role: str, required: bool = False, default: object = None,
                 choices: tuple[str, ...] | None = None, needs: str | None = None):
        self.role = role
        self.required = required
        self.default = default
        self.choices = choices
        self.needs = needs


class AnchorBy:
    """A row anchor picked by the value of one check parameter."""

    def __init__(self, param: str, by_value: dict[str, str]):
        self.param = param
        self.by_value = by_value


class CheckKind:
    """One runnable check: its runner, parameters, anchors and judging.

    `runner(ctx, params, tol)` returns rows as (name, residual_or_None,
    note) triples, the shared suite convention.  `row_tols` gives, per
    row, a fixed tolerance that replaces the check tolerance for it.
    `hypotheses` names the rows measuring a gate's hypotheses, where an
    `expect = hypothesis_fail` check looks for the violation;
    `hypotheses_need` names the parameter without which the runner reports
    none of them.  A `probe_exempt` kind measures involution itself, so
    when it is expected to fail its structures skip the loader's
    involution probe.
    """

    def __init__(self, name: str, summary: str, runner: Callable,
                 params: dict[str, ParamSpec] | None = None,
                 anchors: dict[str, str | AnchorBy] | None = None,
                 default_anchor: str = "plumbing", invertible: frozenset = frozenset(),
                 row_tols: dict[str, float] | None = None, hypotheses: frozenset = frozenset(),
                 hypotheses_need: str | None = None, probe_exempt: bool = False):
        self.name = name
        self.summary = summary
        self.runner = runner  # in the instance's dict, where a tracer can wrap it
        self.params = {} if params is None else params
        self.anchors = {} if anchors is None else anchors
        self.default_anchor = default_anchor
        self.invertible = invertible
        self.row_tols = {} if row_tols is None else row_tols
        self.hypotheses = hypotheses
        self.hypotheses_need = hypotheses_need
        self.probe_exempt = probe_exempt

    def anchor_for(self, row_name: str, params: dict) -> str:
        anchor = self.anchors.get(row_name, self.default_anchor)
        if isinstance(anchor, AnchorBy):
            return anchor.by_value[params[anchor.param]]
        return anchor

    def anchor_labels(self) -> set[str]:
        """Every anchor label a row of this kind can carry."""
        labels = set()
        for anchor in self.anchors.values():
            for value in (anchor.by_value.values() if isinstance(anchor, AnchorBy)
                          else (anchor,)):
                labels.update(value.split(","))
        if not self.anchors:
            labels.add(self.default_anchor)
        return labels


# ---- runners -----------------------------------------------------------

TOL = object()  # stands for the check tolerance among a runner's arguments

# parameters that mean the same in every kind that takes them: name, role
_SHARED = {name: ParamSpec(role, required=True) for name, role in (
    ("connection", "connection"), ("structure", "structure"), ("metric", "metric"),
    ("pair", "pair"), ("other", "pair"), ("distribution", "distribution"),
    ("pencil", "pencil"), ("first", "structure"), ("second", "structure"),
    ("twist", "tensor"))}


def _suite(fn, *args, **specs):
    """A kind's (runner, params): the runner calls fn(ctx, *args).

    A `str` arg is a parameter, specified in `specs` or else in `_SHARED`;
    `TOL` is the check tolerance; any other arg is passed as it is.
    `params` lists the parameters in call order, so the call is the kind's
    only declaration of them.  A vectors parameter reaches fn as jet
    vectors evaluated on the run's context.

    `fn` is looked up in its module at every call, as a call written in
    this module would be, so rebinding the module attribute (a tracer's
    wrapper, say) reaches the table too.
    """
    module, name = sys.modules[fn.__module__], fn.__name__
    params = {a: specs.pop(a) if a in specs else _SHARED[a]
              for a in args if isinstance(a, str)}
    if specs:
        raise TypeError(f"{name}: no argument takes {sorted(specs)}")

    def value(a, ctx, p, tol):
        if not isinstance(a, str):
            return tol if a is TOL else a
        if params[a].role == "vectors" and p[a] is not None:
            return [ctx.vector(f) for f in p[a]]
        return p[a]

    def run(ctx, p, tol):
        return getattr(module, name)(ctx, *(value(a, ctx, p, tol) for a in args))
    return run, params


def _row(row_name: str, fn, *args, note: str = "", **specs):
    """`_suite` for a kind with the single row `row_name`: fn's residual."""
    residual, params = _suite(fn, *args, **specs)

    def run(ctx, p, tol):
        return [(row_name, residual(ctx, p, tol), note)]
    return run, params


def _laws_residual(ctx, connection, weight):
    """The connection laws on the first and last coordinate fields."""
    return connection_laws_residual(ctx, connection, weight, 0, ctx.chart.dim - 1)


def _psi_laws_residual(ctx, connection, structure, weight):
    return _laws_residual(ctx, psi_connection(connection, structure), weight)


# ---- the registry ------------------------------------------------------


def _kinds() -> dict[str, CheckKind]:
    table = [
        CheckKind(
            "almost_product",
            "squared structure against the identity",
            *_row("involution", almost_product_residual, "structure"),
            anchors={"involution": "0.0"},
            invertible=frozenset({"involution"}),
            probe_exempt=True),
        CheckKind(
            "metric_compat",
            "metric against structure compatibility",
            *_row("compatibility", metric_compat_residual, "metric", "structure"),
            anchors={"compatibility": "1.7"},
            invertible=frozenset({"compatibility"})),
        CheckKind(
            "connection_laws",
            "tensoriality in the direction, product rule in the argument",
            *_row("laws", _laws_residual, "connection", _WEIGHT,
                  note="tensoriality and the product rule")),
        CheckKind(
            "torsion_free",
            "torsion of a connection on the coordinate frame",
            *_row("torsion", torsion_residual, "connection"),
            invertible=frozenset({"torsion"})),
        CheckKind(
            "prop11",
            "conjugate basics: derivative flip, transport, involution, torsion, curvature, metric",
            *_suite(conjugate_suite, "connection", "structure", "metric", TOL,
                    metric=ParamSpec("metric")),
            anchors={
                "structure_flip": "P1.1.1,1.4",
                "argument_transport": "1.3",
                "involution": "P1.1.2,0.6",
                "torsion_shift": "P1.1.3,1.5",
                "curvature_transport": "P1.1.4,1.6",
                "metric_transport": "P1.1.5,1.7",
            }),
        CheckKind(
            "psi_chi",
            "projector algebra of the averaging pair",
            *_suite(projector_suite, "connection", "structure", "tau",
                    tau=ParamSpec("tensor", required=True)),
            anchors={
                "psi_idempotent": "0.4,0.2",
                "chi_idempotent": "0.4,0.3",
                "affinity": "0.4,0.1",
                "image_parallel": "D0.1",
            }),
        CheckKind(
            "psi_laws",
            "the averaged operator obeys the connection axioms",
            *_row("laws", _psi_laws_residual, "connection", "structure", _WEIGHT,
                  note="the averaged operator is a connection")),
        CheckKind(
            "mean_decomposition",
            "average of base and conjugate, against both presentations",
            *_suite(mean_decomposition_suite, "connection", "structure"),
            anchors={"halving": "0.5", "forms_agreement": "1.1,1.2"}),
        CheckKind(
            "membership",
            "parallel structure and the fixed-point characterization",
            *_suite(membership_suite, "connection", "structure"),
            anchors={"parallel_structure": "D0.1", "fixed_point": "D0.1"},
            invertible=frozenset({"parallel_structure", "fixed_point"})),
        CheckKind(
            "levi_civita_props",
            "metric-born connection: conjugate metricity and the parallel collapse",
            *_suite(metric_consequence_suite, "connection", "structure", "metric", TOL),
            anchors={
                "compatibility": "1.7",
                "conjugate_metricity": "C1.i",
                "parallel_collapse": "C1.ii",
            }),
        CheckKind(
            "recurrent",
            "torsion shape of the conjugate under a recurrence hypothesis",
            *_suite(recurrent_suite, "connection", "structure", "eta", "mode", TOL,
                    eta=ParamSpec("oneform", required=True),
                    mode=ParamSpec("str", required=True, choices=("structure", "identity"))),
            anchors={
                "hypothesis_recurrence": "P1.2",
                "hypothesis_symmetry": "P1.2",
                "torsion_shape": AnchorBy("mode", {"structure": "P1.2.i",
                                                   "identity": "P1.2.ii"}),
            },
            default_anchor="P1.2",
            hypotheses=frozenset({"hypothesis_recurrence", "hypothesis_symmetry"})),
        CheckKind(
            "pencil_precondition",
            "skew commutation of two structures",
            *_row("skew_commutation", skew_commutation_residual, "first", "second"),
            anchors={"skew_commutation": "1.8"},
            invertible=frozenset({"skew_commutation"})),
        CheckKind(
            "pencil",
            "mixing rule of a structure pencil, axis reductions, special cases",
            *_suite(pencil_suite, "connection", "pencil", "eta", "case", TOL,
                    eta=ParamSpec("oneform"),
                    case=ParamSpec("str", choices=("recurrent", "mixed"), needs="eta")),
            anchors={
                "skew_commutation": "1.8",
                "mixing_rule": "1.8",
                "axis_reduction_first": "1.8",
                "axis_reduction_second": "1.8",
                "hypothesis_recurrence": "1.9",
                "conjugates_coincide": "1.9",
                "pencil_invariance": "1.9",
                "hypothesis_mixed": "1.10",
                "average": "1.10",
                "pencil_shift": "1.10",
            },
            # the axis reductions rebuild the pencil with exact weights
            row_tols={"axis_reduction_first": 1e-12, "axis_reduction_second": 1e-12},
            hypotheses=frozenset({"hypothesis_recurrence", "hypothesis_mixed"}),
            hypotheses_need="case"),
        CheckKind(
            "kirichenko",
            "structural and virtual tensors: flips, rotations, decomposition",
            *_suite(splitting_suite, "connection", "structure"),
            anchors={
                "structural_flip": "1.13,1.11",
                "virtual_flip": "1.13,1.12",
                "structural_rotation": "1.14",
                "virtual_rotation": "1.14",
                "decomposition": "1.15",
            }),
        CheckKind(
            "projective_change",
            "projective shift: structural invariance, virtual difference",
            *_suite(projective_suite, "connection", "structure", "tau",
                    tau=ParamSpec("oneform", required=True)),
            anchors={"structural_invariance": "1.16", "virtual_difference": "1.17"}),
        CheckKind(
            "pair_axioms",
            "complementary projector algebra",
            *_suite(pair_axiom_rows, "pair"),
            default_anchor="D2.1"),
        CheckKind(
            "structure_from_pair",
            "difference structure and the half-sum/half-difference inverses",
            *_suite(structure_rows, "pair"),
            default_anchor="2.1"),
        CheckKind(
            "invariant_distribution",
            "distribution invariance under the structure",
            *_row("invariance", invariance_residual, "distribution", "structure"),
            anchors={"invariance": "P2.2"},
            invertible=frozenset({"invariance"})),
        CheckKind(
            "restricts",
            "covariant derivative stays inside the distribution",
            *_row("restriction", restriction_residual, "connection", "distribution"),
            anchors={"restriction": "D2.1.i"},
            invertible=frozenset({"restriction"})),
        CheckKind(
            "geodesic_invariant",
            "symmetrized covariant derivative stays inside the distribution",
            *_row("geodesic", geodesic_residual, "connection", "distribution"),
            anchors={"geodesic": "D2.1.ii"},
            invertible=frozenset({"geodesic"})),
        CheckKind(
            "prop22",
            "invariance plus restriction carries over to the conjugate",
            *_suite(conjugate_restriction_rows, "connection", "distribution", "structure", TOL),
            anchors={
                "hypothesis_invariance": "P2.2",
                "hypothesis_restriction": "D2.1.i",
                "conjugate_restricts": "P2.2",
            },
            hypotheses=frozenset({"hypothesis_invariance", "hypothesis_restriction"})),
        CheckKind(
            "prop23",
            "invariance plus restriction makes the conjugate geodesically invariant",
            *_suite(conjugate_geodesic_rows, "connection", "distribution", "structure", TOL),
            anchors={
                "hypothesis_invariance": "P2.3",
                "hypothesis_restriction": "D2.1.i",
                "conjugate_geodesic": "P2.3",
            },
            hypotheses=frozenset({"hypothesis_invariance", "hypothesis_restriction"})),
        CheckKind(
            "conjugate_hv",
            "conjugate by the difference structure in projected form",
            *_suite(hv_form_rows, "connection", "pair"),
            anchors={"four_term_form": "2.2"}),
        CheckKind(
            "restriction_collapse",
            "a connection restricting to both sides is its own conjugate",
            *_suite(restriction_collapse_rows, "connection", "pair", TOL),
            default_anchor="2.3",
            hypotheses=frozenset({"hypothesis_restricts_h", "hypothesis_restricts_v"})),
        CheckKind(
            "schouten",
            "projected-sum connection: restriction, parallelism, self-conjugacy",
            *_suite(schouten_rows, "connection", "pair", TOL),
            default_anchor="2.4"),
        CheckKind(
            "prop25",
            "torsion-free conjugate forces both distributions involutive",
            *_suite(involutivity_rows, "connection", "pair", TOL),
            default_anchor="P2.5",
            hypotheses=frozenset({"hypothesis_torsion_free"})),
        CheckKind(
            "nonzero_torsion",
            "conjugate torsion magnitude on a non-involutive pair",
            *_row("conjugate_torsion", conjugate_torsion_magnitude, "connection", "pair",
                  note="conjugate torsion magnitude; a counterexample must keep it large"),
            anchors={"conjugate_torsion": "X2.4"},
            invertible=frozenset({"conjugate_torsion"})),
        CheckKind(
            "prop27",
            "block structure of the splitting tensors over the two distributions",
            *_suite(splitting_block_rows, "connection", "pair"),
            anchors={
                "structural_formula": "P2.7,2.5",
                "virtual_formula": "P2.7,2.5",
                "cross_antisymmetry": "2.6",
                "diagonal_antisymmetry": "2.6",
                "cross_vanishing": "2.7",
                "diagonal_vanishing": "2.7",
                "structural_split": "2.8",
                "virtual_split": "2.8",
                "structural_blocks": "2.9",
                "virtual_blocks": "2.10",
                "fundamental_structural": "2.12,2.11",
                "fundamental_virtual": "2.12,2.11",
            }),
        CheckKind(
            "skew_pairs",
            "skew commutation of two pair structures and their projectors",
            *_suite(skew_pair_rows, "pair", "other"),
            default_anchor="X2.5",
            invertible=frozenset({"structure_skew", "projector_skew"})),
        CheckKind(
            "skew_bridge",
            "structure anticommutator rewritten through the projectors",
            *_suite(skew_bridge_rows, "pair", "other"),
            default_anchor="X2.5"),
        CheckKind(
            "duality",
            "twist kernel condition and the double application",
            *_suite(duality_rows, "connection", "structure", "twist"),
            anchors={
                "defect": "3.3",
                "double_application": "3.2",
                "expansion": "D3.1,3.1,3.2",
                "canonical_solution": "3.3",
                "rotation_closure": "3.3",
            },
            invertible=frozenset({"defect", "double_application"})),
        CheckKind(
            "family",
            "one coefficient pair of the scaled family",
            *_suite(family_rows, "connection", "structure", "lam", "mu", _WEIGHT,
                    lam=ParamSpec("float", required=True),
                    mu=ParamSpec("float", required=True)),
            anchors={
                "route_agreement": "3.4",
                "leibniz_scaling": "3.4",
                "reduction": "3.4,P3.2",
            }),
        CheckKind(
            "prop32_sweep",
            "grid sweep of the family: closure set and coefficient extraction",
            *_suite(sweep_rows, "connection", "structure", _GRID, "probes", TOL, "floor",
                    probes=ParamSpec("vectors", required=True),
                    floor=ParamSpec("float", default=DEFAULT_FLOOR)),
            default_anchor="P3.2"),
        CheckKind(
            "generalized_identities",
            "twisted operator: structure derivative, torsion, curvature",
            *_suite(generalized_identity_rows, "connection", "structure", "twist", TOL,
                    "probes", probes=ParamSpec("vectors")),
            anchors={
                "structure_derivative": "G.1",
                "torsion_form": "G.3",
                "torsion_collapse": "G.3",
                "curvature_form": "G.4",
            }),
        CheckKind(
            "curvature_transcription",
            "shortened curvature form that only a vanishing twist satisfies",
            *_row("transcription", curvature_transcription_residual,
                  "connection", "structure", "twist", "probes", probes=ParamSpec("vectors"),
                  note="shortened curvature form; only a vanishing twist satisfies it"),
            anchors={"transcription": "G.4"},
            invertible=frozenset({"transcription"})),
        CheckKind(
            "degeneration",
            "zero twist recovers the plain conjugate",
            *_suite(degeneration_rows, "connection", "structure"),
            anchors={"zero_twist": "D3.1"}),
    ]
    return {k.name: k for k in table}


REGISTRY: dict[str, CheckKind] = _kinds()


def judge(check_id: str, kind: CheckKind, rows, params: dict,
          tol: float, floor: float, expect: str) -> list[CheckRow]:
    """Turn suite rows into judged report rows under the expectation."""
    out: list[CheckRow] = []
    hypothesis_violated = False
    for name, res, note in rows:
        suffix = ""
        if res is None:
            res, status = Residual(math.nan), SKIP
            if expect == "hypothesis_fail":
                suffix = "skip expected here"
        elif not math.isfinite(res.value):
            status = ERROR
        elif expect == "hypothesis_fail" and name in kind.hypotheses and res.value > floor:
            hypothesis_violated = True
            status, suffix = PASS, "hypothesis violated as expected"
        elif expect == "fail" and name in kind.invertible:
            status = PASS if res.value > floor else FAIL
            suffix = f"expected violation, floor {floor:g}"
        else:
            status = PASS if res.within(kind.row_tols.get(name, tol)) else FAIL
        if suffix:
            note = (note + "; " if note else "") + suffix
        out.append(CheckRow(f"{check_id}.{name}", kind.anchor_for(name, params), res.value,
                            status, res.worst_point, res.frame, note))
    if expect == "hypothesis_fail" and not hypothesis_violated:
        out.append(CheckRow(f"{check_id}.expectation", kind.default_anchor,
                            math.inf, FAIL,
                            note="expected a hypothesis violation; every hypothesis held"))
    return out


def error_row(check_id: str, kind: CheckKind, exc: Exception) -> CheckRow:
    return CheckRow(f"{check_id}.error", kind.default_anchor, math.inf, ERROR,
                    note=f"{type(exc).__name__}: {exc}")


def catalog_lines() -> list[str]:
    """Stable catalog listing: kind, anchors, one-line summary."""
    return [f"{name}\t{','.join(sorted(kind.anchor_labels()))}\t{kind.summary}"
            for name, kind in sorted(REGISTRY.items())]
