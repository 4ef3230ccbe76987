"""Check registry: every runnable identity check, with anchors and judging.

A check kind bundles a runner over resolved scenario objects, a parameter
schema the loader validates against, an anchor for each row it can emit,
and the set of rows whose judgment flips under a failure expectation.
The table in `_kinds` is the only place a kind is declared: most runners
bind one suite to parameter names (`_suite`, `_row`).
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
from dataclasses import dataclass, field
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
from .reporting import ERROR, FAIL, PASS, SKIP, CheckRow

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


@dataclass(frozen=True)
class ParamSpec:
    """One check parameter: its resolution role and default.

    Roles name object tables of the scenario (connection, structure,
    metric, oneform, tensor, pair, pencil, distribution), plain values
    (float, str), or composites (vectors = comma-joined vector-field
    names).  A vectors parameter reaches its runner as jet vectors
    evaluated on the run's context.
    """

    role: str
    required: bool = False
    default: object = None
    choices: tuple[str, ...] | None = None


@dataclass(frozen=True)
class AnchorBy:
    """A row anchor picked by the value of one check parameter."""

    param: str
    by_value: dict[str, str]


@dataclass(frozen=True)
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

    name: str
    summary: str
    runner: Callable
    params: dict[str, ParamSpec] = field(default_factory=dict)
    anchors: dict[str, str | AnchorBy] = field(default_factory=dict)
    default_anchor: str = "plumbing"
    invertible: frozenset = frozenset()
    row_tols: dict[str, float] = field(default_factory=dict)
    hypotheses: frozenset = frozenset()
    hypotheses_need: str | None = None
    probe_exempt: bool = False

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

    def runner_params(self, ctx, params: dict) -> dict:
        """`params` with every vectors parameter evaluated to jet vectors."""
        return {name: [ctx.vector(f) for f in value]
                if value is not None and self.params[name].role == "vectors" else value
                for name, value in params.items()}


# ---- runners -----------------------------------------------------------

TOL = object()  # stands for the check tolerance among a runner's arguments


def _suite(fn, *args):
    """Runner calling fn(ctx, *args), each arg a parameter name or TOL.

    `fn` is looked up in its module at every call, as a call written in
    this module would be, so rebinding the module attribute (a tracer's
    wrapper, say) reaches the table too.
    """
    module, name = sys.modules[fn.__module__], fn.__name__

    def run(ctx, params, tol):
        return getattr(module, name)(
            ctx, *(tol if a is TOL else params[a] for a in args))
    return run


def _row(row_name: str, fn, *args, note: str = ""):
    """Runner for a kind with the single row `row_name`: fn's residual."""
    residual = _suite(fn, *args)

    def run(ctx, params, tol):
        return [(row_name, residual(ctx, params, tol), note)]
    return run


def _connection_laws(ctx, p, tol):
    frame = ctx.frame()
    res = connection_laws_residual(ctx, p["connection"], _WEIGHT, frame[0], frame[-1])
    return [("laws", res, "tensoriality and the product rule")]


def _psi_laws(ctx, p, tol):
    psi = psi_connection(p["connection"], p["structure"])
    frame = ctx.frame()
    res = connection_laws_residual(ctx, psi, _WEIGHT, frame[0], frame[-1])
    return [("laws", res, "the averaged operator is a connection")]


def _family(ctx, p, tol):
    return family_rows(ctx, p["connection"], p["structure"], p["lam"], p["mu"], _WEIGHT)


def _sweep(ctx, p, tol):
    return sweep_rows(ctx, p["connection"], p["structure"], _GRID, p["probes"], tol, p["floor"])


# ---- the registry ------------------------------------------------------


def _kinds() -> dict[str, CheckKind]:
    conn = {"connection": ParamSpec("connection", required=True)}
    conn_struct = dict(conn, structure=ParamSpec("structure", required=True))
    table = [
        CheckKind(
            "almost_product",
            "squared structure against the identity",
            _row("involution", almost_product_residual, "structure"),
            params={"structure": ParamSpec("structure", required=True)},
            anchors={"involution": "0.0"},
            invertible=frozenset({"involution"}),
            probe_exempt=True),
        CheckKind(
            "metric_compat",
            "metric against structure compatibility",
            _row("compatibility", metric_compat_residual, "metric", "structure"),
            params={"metric": ParamSpec("metric", required=True),
                    "structure": ParamSpec("structure", required=True)},
            anchors={"compatibility": "1.7"},
            invertible=frozenset({"compatibility"})),
        CheckKind(
            "connection_laws",
            "tensoriality in the direction, product rule in the argument",
            _connection_laws,
            params=dict(conn)),
        CheckKind(
            "torsion_free",
            "torsion of a connection on the coordinate frame",
            _row("torsion", torsion_residual, "connection"),
            params=dict(conn),
            invertible=frozenset({"torsion"})),
        CheckKind(
            "prop11",
            "conjugate basics: derivative flip, transport, involution, torsion, curvature, metric",
            _suite(conjugate_suite, "connection", "structure", "metric", TOL),
            params=dict(conn_struct, metric=ParamSpec("metric")),
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
            _suite(projector_suite, "connection", "structure", "tau"),
            params=dict(conn_struct, tau=ParamSpec("tensor", required=True)),
            anchors={
                "psi_idempotent": "0.4,0.2",
                "chi_idempotent": "0.4,0.3",
                "affinity": "0.4,0.1",
                "image_parallel": "D0.1",
            }),
        CheckKind(
            "psi_laws",
            "the averaged operator obeys the connection axioms",
            _psi_laws,
            params=dict(conn_struct)),
        CheckKind(
            "mean_decomposition",
            "average of base and conjugate, against both presentations",
            _suite(mean_decomposition_suite, "connection", "structure"),
            params=dict(conn_struct),
            anchors={"halving": "0.5", "forms_agreement": "1.1,1.2"}),
        CheckKind(
            "membership",
            "parallel structure and the fixed-point characterization",
            _suite(membership_suite, "connection", "structure"),
            params=dict(conn_struct),
            anchors={"parallel_structure": "D0.1", "fixed_point": "D0.1"},
            invertible=frozenset({"parallel_structure", "fixed_point"})),
        CheckKind(
            "levi_civita_props",
            "metric-born connection: conjugate metricity and the parallel collapse",
            _suite(metric_consequence_suite, "connection", "structure", "metric", TOL),
            params=dict(conn_struct, metric=ParamSpec("metric", required=True)),
            anchors={
                "compatibility": "1.7",
                "conjugate_metricity": "C1.i",
                "parallel_collapse": "C1.ii",
            }),
        CheckKind(
            "recurrent",
            "torsion shape of the conjugate under a recurrence hypothesis",
            _suite(recurrent_suite, "connection", "structure", "eta", "mode", TOL),
            params=dict(conn_struct,
                        eta=ParamSpec("oneform", required=True),
                        mode=ParamSpec("str", required=True,
                                       choices=("structure", "identity"))),
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
            _row("skew_commutation", skew_commutation_residual, "first", "second"),
            params={"first": ParamSpec("structure", required=True),
                    "second": ParamSpec("structure", required=True)},
            anchors={"skew_commutation": "1.8"},
            invertible=frozenset({"skew_commutation"})),
        CheckKind(
            "pencil",
            "mixing rule of a structure pencil, axis reductions, special cases",
            _suite(pencil_suite, "connection", "pencil", "eta", "case", TOL),
            params=dict(conn,
                        pencil=ParamSpec("pencil", required=True),
                        eta=ParamSpec("oneform"),
                        case=ParamSpec("str", choices=("recurrent", "mixed"))),
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
            _suite(splitting_suite, "connection", "structure"),
            params=dict(conn_struct),
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
            _suite(projective_suite, "connection", "structure", "tau"),
            params=dict(conn_struct, tau=ParamSpec("oneform", required=True)),
            anchors={
                "structural_invariance": "1.16",
                "virtual_difference": "1.17",
            }),
        CheckKind(
            "pair_axioms",
            "complementary projector algebra",
            _suite(pair_axiom_rows, "pair"),
            params={"pair": ParamSpec("pair", required=True)},
            default_anchor="D2.1"),
        CheckKind(
            "structure_from_pair",
            "difference structure and the half-sum/half-difference inverses",
            _suite(structure_rows, "pair"),
            params={"pair": ParamSpec("pair", required=True)},
            default_anchor="2.1"),
        CheckKind(
            "invariant_distribution",
            "distribution invariance under the structure",
            _row("invariance", invariance_residual, "distribution", "structure"),
            params={"distribution": ParamSpec("distribution", required=True),
                    "structure": ParamSpec("structure", required=True)},
            anchors={"invariance": "P2.2"},
            invertible=frozenset({"invariance"})),
        CheckKind(
            "restricts",
            "covariant derivative stays inside the distribution",
            _row("restriction", restriction_residual, "connection", "distribution"),
            params=dict(conn, distribution=ParamSpec("distribution", required=True)),
            anchors={"restriction": "D2.1.i"},
            invertible=frozenset({"restriction"})),
        CheckKind(
            "geodesic_invariant",
            "symmetrized covariant derivative stays inside the distribution",
            _row("geodesic", geodesic_residual, "connection", "distribution"),
            params=dict(conn, distribution=ParamSpec("distribution", required=True)),
            anchors={"geodesic": "D2.1.ii"},
            invertible=frozenset({"geodesic"})),
        CheckKind(
            "prop22",
            "invariance plus restriction carries over to the conjugate",
            _suite(conjugate_restriction_rows, "connection", "distribution", "structure", TOL),
            params=dict(conn,
                        distribution=ParamSpec("distribution", required=True),
                        structure=ParamSpec("structure", required=True)),
            anchors={
                "hypothesis_invariance": "P2.2",
                "hypothesis_restriction": "D2.1.i",
                "conjugate_restricts": "P2.2",
            },
            hypotheses=frozenset({"hypothesis_invariance", "hypothesis_restriction"})),
        CheckKind(
            "prop23",
            "invariance plus restriction makes the conjugate geodesically invariant",
            _suite(conjugate_geodesic_rows, "connection", "distribution", "structure", TOL),
            params=dict(conn,
                        distribution=ParamSpec("distribution", required=True),
                        structure=ParamSpec("structure", required=True)),
            anchors={
                "hypothesis_invariance": "P2.3",
                "hypothesis_restriction": "D2.1.i",
                "conjugate_geodesic": "P2.3",
            },
            hypotheses=frozenset({"hypothesis_invariance", "hypothesis_restriction"})),
        CheckKind(
            "conjugate_hv",
            "conjugate by the difference structure in projected form",
            _suite(hv_form_rows, "connection", "pair"),
            params=dict(conn, pair=ParamSpec("pair", required=True)),
            anchors={"four_term_form": "2.2"}),
        CheckKind(
            "restriction_collapse",
            "a connection restricting to both sides is its own conjugate",
            _suite(restriction_collapse_rows, "connection", "pair", TOL),
            params=dict(conn, pair=ParamSpec("pair", required=True)),
            default_anchor="2.3",
            hypotheses=frozenset({"hypothesis_restricts_h", "hypothesis_restricts_v"})),
        CheckKind(
            "schouten",
            "projected-sum connection: restriction, parallelism, self-conjugacy",
            _suite(schouten_rows, "connection", "pair", TOL),
            params=dict(conn, pair=ParamSpec("pair", required=True)),
            default_anchor="2.4"),
        CheckKind(
            "prop25",
            "torsion-free conjugate forces both distributions involutive",
            _suite(involutivity_rows, "connection", "pair", TOL),
            params=dict(conn, pair=ParamSpec("pair", required=True)),
            default_anchor="P2.5",
            hypotheses=frozenset({"hypothesis_torsion_free"})),
        CheckKind(
            "nonzero_torsion",
            "conjugate torsion magnitude on a non-involutive pair",
            _row("conjugate_torsion", conjugate_torsion_magnitude, "connection", "pair",
                 note="conjugate torsion magnitude; a counterexample must keep it large"),
            params=dict(conn, pair=ParamSpec("pair", required=True)),
            anchors={"conjugate_torsion": "X2.4"},
            invertible=frozenset({"conjugate_torsion"})),
        CheckKind(
            "prop27",
            "block structure of the splitting tensors over the two distributions",
            _suite(splitting_block_rows, "connection", "pair"),
            params=dict(conn, pair=ParamSpec("pair", required=True)),
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
            _suite(skew_pair_rows, "pair", "other"),
            params={"pair": ParamSpec("pair", required=True),
                    "other": ParamSpec("pair", required=True)},
            default_anchor="X2.5",
            invertible=frozenset({"structure_skew", "projector_skew"})),
        CheckKind(
            "skew_bridge",
            "structure anticommutator rewritten through the projectors",
            _suite(skew_bridge_rows, "pair", "other"),
            params={"pair": ParamSpec("pair", required=True),
                    "other": ParamSpec("pair", required=True)},
            default_anchor="X2.5"),
        CheckKind(
            "duality",
            "twist kernel condition and the double application",
            _suite(duality_rows, "connection", "structure", "twist"),
            params=dict(conn_struct, twist=ParamSpec("tensor", required=True)),
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
            _family,
            params=dict(conn_struct,
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
            _sweep,
            params=dict(conn_struct,
                        probes=ParamSpec("vectors", required=True),
                        floor=ParamSpec("float", default=DEFAULT_FLOOR)),
            default_anchor="P3.2"),
        CheckKind(
            "generalized_identities",
            "twisted operator: structure derivative, torsion, curvature",
            _suite(generalized_identity_rows, "connection", "structure", "twist", TOL,
                   "probes"),
            params=dict(conn_struct,
                        twist=ParamSpec("tensor", required=True),
                        probes=ParamSpec("vectors")),
            anchors={
                "structure_derivative": "G.1",
                "torsion_form": "G.3",
                "torsion_collapse": "G.3",
                "curvature_form": "G.4",
            }),
        CheckKind(
            "curvature_transcription",
            "shortened curvature form that only a vanishing twist satisfies",
            _row("transcription", curvature_transcription_residual,
                 "connection", "structure", "twist", "probes",
                 note="shortened curvature form; only a vanishing twist satisfies it"),
            params=dict(conn_struct,
                        twist=ParamSpec("tensor", required=True),
                        probes=ParamSpec("vectors")),
            anchors={"transcription": "G.4"},
            invertible=frozenset({"transcription"})),
        CheckKind(
            "degeneration",
            "zero twist recovers the plain conjugate",
            _suite(degeneration_rows, "connection", "structure"),
            params=dict(conn_struct),
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
        row_id = f"{check_id}.{name}"
        anchor = kind.anchor_for(name, params)
        if res is None:
            status = SKIP
            if expect == "hypothesis_fail":
                note = (note + "; " if note else "") + "skip expected here"
            out.append(CheckRow(row_id, anchor, math.nan, status, note=note))
            continue
        row_tol = kind.row_tols.get(name, tol)
        finite = math.isfinite(res.value)
        if expect == "hypothesis_fail" and name in kind.hypotheses \
                and finite and res.value > floor:
            hypothesis_violated = True
            out.append(CheckRow(row_id, anchor, res.value, PASS,
                                res.worst_point, res.frame,
                                (note + "; " if note else "") + "hypothesis violated as expected"))
            continue
        if expect == "fail" and name in kind.invertible and finite:
            status = PASS if res.value > floor else FAIL
            out.append(CheckRow(row_id, anchor, res.value, status,
                                res.worst_point, res.frame,
                                (note + "; " if note else "")
                                + f"expected violation, floor {floor:g}"))
        else:
            out.append(CheckRow.judged(row_id, anchor, res, row_tol, note))
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
