"""Complementary projector pairs and tangent distributions.

A pair (h, v) with h + v = I and both idempotent splits the tangent
space; E = h - v turns the split into an involutive structure.  This
module measures membership quantitatively: a vector belongs to a
distribution up to the size of its complement component, so closure
statements (invariance, restriction, geodesic invariance, involutivity)
become residual checks like everything else.

Spanning-field distributions project with the Euclidean least-squares
projector of the chart; pair-side distributions use the pair's own
complementary projector.  Zero residual means the same thing either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .connections import ConnectionOp, nabla_endo, symmetric_product, torsion_residual
from .conjugation import (
    ConjugateConnection,
    skew_commutation_residual,
    structural_tensor,
    virtual_tensor,
)
from .errors import ConfigError, EvaluationError
from .fields import (
    EndoField,
    EvalContext,
    bracket,
    Tensor12Field,
    Vec,
    VectorField,
    almost_product_residual,
    complement_endo,
    endo_apply,
    endo_from_difference,
    frame_pair_residual,
    jets_matrix_values,
    magnitude,
    vadd,
    vscale,
    vsub,
    vvalues,
    worst,
)
from .reporting import Residual

Rows = list

_RANK_RTOL = 1e-8  # singular values below this fraction of the largest are rank drops


@dataclass(frozen=True, eq=False)
class ProjectorPair:
    h: EndoField
    v: EndoField
    _structure: EndoField | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.h.chart is not self.v.chart:
            raise ConfigError("projector pair members live on different charts")

    @property
    def chart(self):
        return self.h.chart

    def structure(self) -> EndoField:
        """E = h - v, built on first use and the same object on every call,
        so all suites of one pair share its cached jets."""
        if self._structure is None:
            object.__setattr__(self, "_structure", endo_from_difference(self.h, self.v))
        return self._structure


def pair_from_h(h: EndoField) -> ProjectorPair:
    return ProjectorPair(h, complement_endo(h))


def _pointwise_row(ctx: EvalContext, name: str, defect: np.ndarray, note: str = ""):
    """A row for a matrix defect given at every sample, shape (m, n, n)."""
    return (name, worst(ctx, [(None, defect)]), note)


def pair_axiom_rows(ctx: EvalContext, pair: ProjectorPair) -> Rows:
    H = jets_matrix_values(ctx.endo(pair.h))
    V = jets_matrix_values(ctx.endo(pair.v))
    eye = np.eye(ctx.chart.dim)
    return [
        _pointwise_row(ctx, "partition", H + V - eye),
        _pointwise_row(ctx, "h_idempotent", H @ H - H),
        _pointwise_row(ctx, "v_idempotent", V @ V - V),
        _pointwise_row(ctx, "annihilation_hv", H @ V),
        _pointwise_row(ctx, "annihilation_vh", V @ H),
    ]


def structure_rows(ctx: EvalContext, pair: ProjectorPair) -> Rows:
    E = pair.structure()
    Ev = jets_matrix_values(ctx.endo(E))
    H = jets_matrix_values(ctx.endo(pair.h))
    V = jets_matrix_values(ctx.endo(pair.v))
    eye = np.eye(ctx.chart.dim)
    return [
        ("involution", almost_product_residual(ctx, E), ""),
        _pointwise_row(ctx, "half_sum", (eye + Ev) / 2.0 - H, "recovers h"),
        _pointwise_row(ctx, "half_diff", (eye - Ev) / 2.0 - V, "recovers v"),
    ]


class DistributionSpec:
    """A distribution given by spanning fields or by one side of a pair."""

    def __init__(self, label: str, span: tuple[VectorField, ...] | None = None,
                 pair: ProjectorPair | None = None, side: str | None = None):
        if (span is None) == (pair is None):
            raise ConfigError(f"distribution {label!r} needs spanning fields or a pair side, not both")
        if pair is not None and side not in ("horizontal", "vertical"):
            raise ConfigError(f"distribution {label!r} side must be horizontal or vertical")
        if span is not None and len(span) == 0:
            raise ConfigError(f"distribution {label!r} has an empty spanning list")
        self.label = label
        self.span = span
        self.pair = pair
        self.side = side

    @staticmethod
    def from_span(fields, label: str = "D") -> "DistributionSpec":
        return DistributionSpec(label, span=tuple(fields))

    @staticmethod
    def from_pair(pair: ProjectorPair, side: str, label: str = "D") -> "DistributionSpec":
        return DistributionSpec(label, pair=pair, side=side)

    # ---- membership machinery ----------------------------------------

    def _onto(self) -> EndoField:
        return self.pair.h if self.side == "horizontal" else self.pair.v

    def _complement_proj(self) -> EndoField:
        return self.pair.v if self.side == "horizontal" else self.pair.h

    def basis(self, ctx: EvalContext) -> list[Vec]:
        """Jet vectors spanning the distribution at every sample.  The
        pair route returns the projected frame, so entries may be
        linearly dependent; residual scans just visit all of them."""
        if self.span is not None:
            return [ctx.vector(f) for f in self.span]
        P = ctx.endo(self._onto())
        return [endo_apply(P, X) for X in ctx.frame()]

    def certify(self, ctx: EvalContext) -> int:
        """Pointwise rank, constant across the batch; raises on a drop."""
        def build():
            if self.span is not None:
                S = np.stack([vvalues(ctx.vector(f)) for f in self.span], axis=-1)
                sv = np.linalg.svd(S, compute_uv=False)
                bad = sv[:, -1] <= _RANK_RTOL * np.maximum(sv[:, 0], 1e-300)
                if np.any(bad):
                    raise EvaluationError(
                        f"spanning fields of {self.label!r} drop rank",
                        point=ctx.points[int(np.argmax(bad))])
                return len(self.span)
            P = jets_matrix_values(ctx.endo(self._onto()))
            sv = np.linalg.svd(P, compute_uv=False)
            counts = np.sum(sv > _RANK_RTOL * sv[:, :1], axis=1)
            if np.any(counts != counts[0]):
                raise EvaluationError(
                    f"projector rank of {self.label!r} varies across samples",
                    point=ctx.points[int(np.argmax(counts != counts[0]))])
            return int(counts[0])
        return ctx.cached((self, "rank"), build)

    def complement_values(self, ctx: EvalContext, w: Vec) -> np.ndarray:
        """|component of w outside the distribution| at every sample."""
        self.certify(ctx)
        if self.span is not None:
            def build():
                S = np.stack([vvalues(ctx.vector(f)) for f in self.span], axis=-1)
                return S @ np.linalg.pinv(S)
            P = ctx.cached((self, "proj"), build)
            W = vvalues(w)
            return magnitude(W - np.einsum("mij,mj->mi", P, W))
        return magnitude(endo_apply(ctx.endo(self._complement_proj()), w))


def invariance_residual(ctx: EvalContext, D: DistributionSpec, E: EndoField) -> Residual:
    """Closure of the distribution under the structure."""
    J = ctx.endo(E)
    return worst(ctx, ((f"basis[{j}]", D.complement_values(ctx, endo_apply(J, w)))
                       for j, w in enumerate(D.basis(ctx))))


def restriction_residual(ctx: EvalContext, nabla: ConnectionOp, D: DistributionSpec) -> Residual:
    """Closure of the distribution under covariant derivatives from any direction."""
    basis, names = D.basis(ctx), ctx.chart.names
    return worst(ctx, ((f"(d{names[i]},basis[{j}])",
                        D.complement_values(ctx, nabla.apply(ctx, X, Y)))
                       for i, X in enumerate(ctx.frame()) for j, Y in enumerate(basis)))


def geodesic_residual(ctx: EvalContext, nabla: ConnectionOp, D: DistributionSpec) -> Residual:
    """Closure under the symmetric product of member fields."""
    basis = D.basis(ctx)
    return worst(ctx, ((f"(basis[{i}],basis[{j}])",
                        D.complement_values(ctx, symmetric_product(ctx, nabla, X, Y)))
                       for i, X in enumerate(basis) for j, Y in enumerate(basis)))


def _carried_over(ctx: EvalContext, nabla: ConnectionOp, D: DistributionSpec,
                  structure: EndoField, tol: float, name: str, conclusion) -> Rows:
    """Invariance of D under the structure and restriction of the base to D
    gate `conclusion(ctx, conjugate, D)`, the statement carried over."""
    inv = invariance_residual(ctx, D, structure)
    res = restriction_residual(ctx, nabla, D)
    rows = [
        ("hypothesis_invariance", inv, ""),
        ("hypothesis_restriction", res, ""),
    ]
    if not (inv.within(tol) and res.within(tol)):
        rows.append((name, None,
                     f"skipped: hypothesis fails (invariance {inv.value:.3e}, "
                     f"restriction {res.value:.3e})"))
    else:
        rows.append((name, conclusion(ctx, ConjugateConnection(nabla, structure), D), ""))
    return rows


def conjugate_restriction_rows(ctx: EvalContext, nabla: ConnectionOp,
                               D: DistributionSpec, structure: EndoField,
                               tol: float) -> Rows:
    """Invariant distribution plus restricting base forces the conjugate
    to restrict as well; both hypotheses gate the conclusion."""
    return _carried_over(ctx, nabla, D, structure, tol, "conjugate_restricts",
                         restriction_residual)


def conjugate_geodesic_rows(ctx: EvalContext, nabla: ConnectionOp,
                            D: DistributionSpec, structure: EndoField,
                            tol: float) -> Rows:
    """Same hypotheses as the restriction carry-over, but the conclusion
    only asks for the symmetrized derivative to stay inside.

    The hypothesis must be full restriction: weakening it to geodesic
    invariance of the base fails once the structure mixes eigendirections
    inside the distribution (the cross terms pick up a bracket that no
    symmetrized hypothesis controls), so the gate measures nabla itself.
    """
    return _carried_over(ctx, nabla, D, structure, tol, "conjugate_geodesic",
                         geodesic_residual)


# ---- the h/v shape of the conjugate -----------------------------------


def hv_form_rows(ctx: EvalContext, nabla: ConnectionOp, pair: ProjectorPair) -> Rows:
    """Direct conjugation by h - v against the four projected blocks."""
    H, V = ctx.endo(pair.h), ctx.endo(pair.v)
    conj = ConjugateConnection(nabla, pair.structure())

    def four_term(X, Y):
        hY, vY = endo_apply(H, Y), endo_apply(V, Y)
        a = endo_apply(H, nabla.apply(ctx, X, hY))
        b = endo_apply(H, nabla.apply(ctx, X, vY))
        c = endo_apply(V, nabla.apply(ctx, X, hY))
        d = endo_apply(V, nabla.apply(ctx, X, vY))
        return vsub(conj.apply(ctx, X, Y), vadd(vsub(vsub(a, b), c), d))

    return [("four_term_form", frame_pair_residual(ctx, four_term), "")]


def restriction_collapse_rows(ctx: EvalContext, nabla: ConnectionOp,
                              pair: ProjectorPair, tol: float) -> Rows:
    """When the base restricts to both sides, conjugation changes nothing
    and the connection already splits through the projectors."""
    Dh = DistributionSpec.from_pair(pair, "horizontal", label="Dh")
    Dv = DistributionSpec.from_pair(pair, "vertical", label="Dv")
    rh = restriction_residual(ctx, nabla, Dh)
    rv = restriction_residual(ctx, nabla, Dv)
    rows = [
        ("hypothesis_restricts_h", rh, ""),
        ("hypothesis_restricts_v", rv, ""),
    ]
    if not (rh.within(tol) and rv.within(tol)):
        rows.append(("conjugate_collapse", None,
                     f"skipped: base does not restrict to both sides "
                     f"({rh.value:.3e}, {rv.value:.3e})"))
        rows.append(("split_form", None, "skipped: same hypothesis"))
        return rows
    conj = ConjugateConnection(nabla, pair.structure())
    H, V = ctx.endo(pair.h), ctx.endo(pair.v)
    rows.append(("conjugate_collapse",
                 frame_pair_residual(ctx, lambda X, Y: vsub(conj.apply(ctx, X, Y),
                                                            nabla.apply(ctx, X, Y))), ""))

    def split(X, Y):
        hY, vY = endo_apply(H, Y), endo_apply(V, Y)
        return vsub(conj.apply(ctx, X, Y),
                    vadd(nabla.apply(ctx, X, hY), nabla.apply(ctx, X, vY)))

    rows.append(("split_form", frame_pair_residual(ctx, split), ""))
    return rows


class SchoutenConnection(ConnectionOp):
    """h(nabla_x(hy)) + v(nabla_x(vy)): the part of the base preserving
    both sides of the splitting."""

    def __init__(self, base: ConnectionOp, pair: ProjectorPair, label: str | None = None):
        if pair.chart is not base.chart:
            raise ConfigError("pair and connection live on different charts")
        self.base = base
        self.pair = pair
        self.chart = base.chart
        self.label = label or f"schouten({base.label})"

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        H, V = ctx.endo(self.pair.h), ctx.endo(self.pair.v)
        a = endo_apply(H, self.base.apply(ctx, x, endo_apply(H, y)))
        b = endo_apply(V, self.base.apply(ctx, x, endo_apply(V, y)))
        return vadd(a, b)


def schouten_rows(ctx: EvalContext, nabla: ConnectionOp, pair: ProjectorPair,
                  tol: float) -> Rows:
    s = SchoutenConnection(nabla, pair)
    E = pair.structure()
    Ej = ctx.endo(E)
    Dh = DistributionSpec.from_pair(pair, "horizontal", label="Dh")
    Dv = DistributionSpec.from_pair(pair, "vertical", label="Dv")
    conj_s = ConjugateConnection(s, E)
    rows = [
        ("restricts_h", restriction_residual(ctx, s, Dh), ""),
        ("restricts_v", restriction_residual(ctx, s, Dv), ""),
        ("parallel_structure",
         frame_pair_residual(ctx, lambda X, Y: nabla_endo(ctx, s, Ej, X, Y)),
         "the split part always keeps the structure parallel"),
        ("self_conjugate",
         frame_pair_residual(ctx, lambda X, Y: vsub(conj_s.apply(ctx, X, Y),
                                                    s.apply(ctx, X, Y))), ""),
    ]
    base_h = restriction_residual(ctx, nabla, Dh)
    base_v = restriction_residual(ctx, nabla, Dv)
    if base_h.within(tol) and base_v.within(tol):
        rows.append(("reduces_to_base",
                     frame_pair_residual(ctx, lambda X, Y: vsub(s.apply(ctx, X, Y),
                                                                nabla.apply(ctx, X, Y))),
                     "base restricts to both sides"))
    else:
        rows.append(("reduces_to_base", None,
                     f"skipped: base does not restrict to both sides "
                     f"({base_h.value:.3e}, {base_v.value:.3e})"))
    return rows


def involutivity_rows(ctx: EvalContext, nabla: ConnectionOp, pair: ProjectorPair,
                      tol: float) -> Rows:
    """Torsion-free conjugate forces both sides to close under brackets.

    The gate follows the statement and checks only the conjugate's
    torsion; the shipped instances all have torsion-free bases as well,
    which the proof quietly uses, so the base torsion is reported in the
    note for transparency.
    """
    conj = ConjugateConnection(nabla, pair.structure())
    hyp = torsion_residual(ctx, conj)
    base_t = torsion_residual(ctx, nabla)
    rows = [("hypothesis_torsion_free", hyp,
             f"base torsion {base_t.value:.3e}")]
    if not hyp.within(tol):
        rows.append(("vertical_involutive", None,
                     f"skipped: conjugate has torsion ({hyp.value:.3e})"))
        rows.append(("horizontal_involutive", None, "skipped: same hypothesis"))
        return rows
    H, V = ctx.endo(pair.h), ctx.endo(pair.v)
    frame, label = ctx.frame(), ctx.chart.frame_label

    def closure(P, Q, name):
        # max |Q [P X, P Y]| over frame pairs i < j: the bracket of two
        # members of one side must have no component on the other side.
        return (name, worst(ctx, (
            (label(i, j), endo_apply(Q, bracket(endo_apply(P, frame[i]), endo_apply(P, frame[j]))))
            for i, j in combinations(range(ctx.chart.dim), 2))), "")

    rows.append(closure(V, H, "vertical_involutive"))
    rows.append(closure(H, V, "horizontal_involutive"))
    return rows


def conjugate_torsion_magnitude(ctx: EvalContext, nabla: ConnectionOp,
                                pair: ProjectorPair) -> Residual:
    return torsion_residual(ctx, ConjugateConnection(nabla, pair.structure()))


# ---- fundamental splitting tensors ------------------------------------


def fundamental_tensors(nabla: ConnectionOp, pair: ProjectorPair):
    """The two mixed-derivative invariants of the splitting."""
    def t_op(ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        H, V = ctx.endo(pair.h), ctx.endo(pair.v)
        vx = endo_apply(V, x)
        return vadd(endo_apply(H, nabla.apply(ctx, vx, endo_apply(V, y))),
                    endo_apply(V, nabla.apply(ctx, vx, endo_apply(H, y))))

    def a_op(ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        H, V = ctx.endo(pair.h), ctx.endo(pair.v)
        hx = endo_apply(H, x)
        return vadd(endo_apply(V, nabla.apply(ctx, hx, endo_apply(H, y))),
                    endo_apply(H, nabla.apply(ctx, hx, endo_apply(V, y))))

    chart = pair.chart
    return (Tensor12Field.from_operator(chart, t_op, label="T"),
            Tensor12Field.from_operator(chart, a_op, label="A"))


def splitting_block_rows(ctx: EvalContext, nabla: ConnectionOp,
                         pair: ProjectorPair) -> Rows:
    """The projected shape of the structural and virtual tensors at
    E = h - v: vanishing blocks, the two-block splits, the explicit block
    formulas, and their expression through the fundamental tensors."""
    E = pair.structure()
    C = structural_tensor(nabla, E)
    B = virtual_tensor(nabla, E)
    T, A = fundamental_tensors(nabla, pair)
    H, V = ctx.endo(pair.h), ctx.endo(pair.v)

    def hv(X):
        return endo_apply(H, X), endo_apply(V, X)

    def structural_formula(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        rhs = vscale(2.0, vadd(endo_apply(H, nabla.apply(ctx, vX, vY)),
                               endo_apply(V, nabla.apply(ctx, hX, hY))))
        return vsub(C.apply(ctx, X, Y), rhs)

    def virtual_formula(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        rhs = vscale(-2.0, vadd(endo_apply(H, nabla.apply(ctx, hX, vY)),
                                endo_apply(V, nabla.apply(ctx, vX, hY))))
        return vsub(B.apply(ctx, X, Y), rhs)

    def cross_antisym(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        return vadd(C.apply(ctx, hX, vY), C.apply(ctx, vX, hY))

    def diag_antisym(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        return vadd(B.apply(ctx, hX, hY), B.apply(ctx, vX, vY))

    # The *_vanish and *_blocks scans measure two blocks at once: they
    # return the components of both as one list, so the reducer takes the
    # larger of the two at every sample.
    def cross_vanish(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        return [*C.apply(ctx, hX, vY), *C.apply(ctx, vX, hY)]

    def diag_vanish(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        return [*B.apply(ctx, hX, hY), *B.apply(ctx, vX, vY)]

    def structural_split(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        return vsub(C.apply(ctx, X, Y),
                    vadd(C.apply(ctx, hX, hY), C.apply(ctx, vX, vY)))

    def virtual_split(X, Y):
        # The virtual half lives entirely on the mixed blocks; its diagonal
        # blocks vanish, so the split runs over the cross terms.
        hX, vX = hv(X)
        hY, vY = hv(Y)
        return vsub(B.apply(ctx, X, Y),
                    vadd(B.apply(ctx, hX, vY), B.apply(ctx, vX, hY)))

    def structural_blocks(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        a = vsub(C.apply(ctx, hX, hY),
                 vscale(2.0, endo_apply(V, nabla.apply(ctx, hX, hY))))
        b = vsub(C.apply(ctx, vX, vY),
                 vscale(2.0, endo_apply(H, nabla.apply(ctx, vX, vY))))
        return [*a, *b]

    def virtual_blocks(X, Y):
        hX, vX = hv(X)
        hY, vY = hv(Y)
        a = vadd(B.apply(ctx, hX, vY),
                 vscale(2.0, endo_apply(H, nabla.apply(ctx, hX, vY))))
        b = vadd(B.apply(ctx, vX, hY),
                 vscale(2.0, endo_apply(V, nabla.apply(ctx, vX, hY))))
        return [*a, *b]

    def fundamental_structural(X, Y):
        hY, vY = hv(Y)
        rhs = vscale(2.0, vadd(T.apply(ctx, X, vY), A.apply(ctx, X, hY)))
        return vsub(C.apply(ctx, X, Y), rhs)

    def fundamental_virtual(X, Y):
        hY, vY = hv(Y)
        rhs = vscale(-2.0, vadd(T.apply(ctx, X, hY), A.apply(ctx, X, vY)))
        return vsub(B.apply(ctx, X, Y), rhs)

    scans = [
        ("structural_formula", structural_formula),
        ("virtual_formula", virtual_formula),
        ("cross_antisymmetry", cross_antisym),
        ("diagonal_antisymmetry", diag_antisym),
        ("cross_vanishing", cross_vanish),
        ("diagonal_vanishing", diag_vanish),
        ("structural_split", structural_split),
        ("virtual_split", virtual_split),
        ("structural_blocks", structural_blocks),
        ("virtual_blocks", virtual_blocks),
        ("fundamental_structural", fundamental_structural),
        ("fundamental_virtual", fundamental_virtual),
    ]
    notes = {"virtual_split": "mixed blocks carry the whole virtual half"}
    return [(name, frame_pair_residual(ctx, fn), notes.get(name, ""))
            for name, fn in scans]


def skew_pair_rows(ctx: EvalContext, pair1: ProjectorPair, pair2: ProjectorPair) -> Rows:
    """Skew-commutation of two splittings, at the structure level and at
    the projector level.  For pairs sharing a vertical side both defects
    are forced away from zero, so these rows usually carry a flipped
    expectation."""
    e_skew = skew_commutation_residual(ctx, pair1.structure(), pair2.structure())
    H1 = jets_matrix_values(ctx.endo(pair1.h))
    H2 = jets_matrix_values(ctx.endo(pair2.h))
    return [("structure_skew", e_skew, ""),
            _pointwise_row(ctx, "projector_skew", H1 @ H2 + H2 @ H1)]


def skew_bridge_rows(ctx: EvalContext, pair1: ProjectorPair, pair2: ProjectorPair) -> Rows:
    """The exact algebraic bridge between the structure and projector
    skew-commutation defects of two splittings."""
    H1 = jets_matrix_values(ctx.endo(pair1.h))
    H2 = jets_matrix_values(ctx.endo(pair2.h))
    A1 = jets_matrix_values(ctx.endo(pair1.structure()))
    A2 = jets_matrix_values(ctx.endo(pair2.structure()))
    h_anti = H1 @ H2 + H2 @ H1
    bridge = (A1 @ A2 + A2 @ A1) - (4.0 * h_anti - 4.0 * (H1 + H2) + 2.0 * np.eye(ctx.chart.dim))
    return [_pointwise_row(ctx, "defect_bridge", bridge,
                           "structure defect rewritten through the projectors, always exact")]
