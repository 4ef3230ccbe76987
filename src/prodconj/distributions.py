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

from .connections import (CombinationOp, ConnectionOp, Sandwiched, structure_derivative_twist,
                          symmetric_product, torsion_residual)
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
    Vec,
    VectorField,
    almost_product_residual,
    complement_endo,
    endo_apply,
    endo_from_difference,
    frame_pair_residual,
    frame_pair_rows,
    gated,
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
        """Pointwise rank: full for spanning fields, and for a pair side the
        projector's rank, the same at every sample; raises otherwise."""
        def build():
            M = (np.stack([vvalues(ctx.vector(f)) for f in self.span], axis=-1)
                 if self.span is not None else jets_matrix_values(ctx.endo(self._onto())))
            sv = np.linalg.svd(M, compute_uv=False)
            counts = np.sum(sv > _RANK_RTOL * sv[:, :1], axis=1)
            rank = len(self.span) if self.span is not None else counts[0]
            if np.any(counts != rank):
                raise EvaluationError(f"rank of {self.label!r} drops or varies across samples",
                                      point=ctx.points[int(np.argmax(counts != rank))])
            return int(rank)
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
    return [("hypothesis_invariance", inv, ""), ("hypothesis_restriction", res, ""),
            *gated(tol, [("invariance", inv), ("restriction", res)], [name],
                   lambda: [(name, conclusion(ctx, ConjugateConnection(nabla, structure), D), "")])]


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
    conj = ConjugateConnection(nabla, pair.structure())
    H, V = ctx.endo(pair.h), ctx.endo(pair.v)

    def conclusions(X, Y):
        conj_xy = conj.apply(ctx, X, Y)
        yield "conjugate_collapse", vsub(conj_xy, nabla.apply(ctx, X, Y))
        yield "split_form", vsub(conj_xy, vadd(nabla.apply(ctx, X, endo_apply(H, Y)),
                                               nabla.apply(ctx, X, endo_apply(V, Y))))

    rh = restriction_residual(ctx, nabla, Dh)
    rv = restriction_residual(ctx, nabla, Dv)
    return [("hypothesis_restricts_h", rh, ""), ("hypothesis_restricts_v", rv, ""),
            *gated(tol, [("restricts_h", rh), ("restricts_v", rv)],
                   ["conjugate_collapse", "split_form"],
                   lambda: [(name, res, "") for name, res
                            in frame_pair_rows(ctx, conclusions).items()])]


class SchoutenConnection(CombinationOp):
    """h(nabla_x(hy)) + v(nabla_x(vy)): the part of the base preserving
    both sides of the splitting."""

    def __init__(self, base: ConnectionOp, pair: ProjectorPair, label: str | None = None):
        super().__init__(((1.0, Sandwiched(base, out=pair.h, arg=pair.h)),
                          (1.0, Sandwiched(base, out=pair.v, arg=pair.v))),
                         label=label or f"schouten({base.label})")


def schouten_rows(ctx: EvalContext, nabla: ConnectionOp, pair: ProjectorPair,
                  tol: float) -> Rows:
    s = SchoutenConnection(nabla, pair)
    E = pair.structure()
    dE = structure_derivative_twist(s, E)
    Dh = DistributionSpec.from_pair(pair, "horizontal", label="Dh")
    Dv = DistributionSpec.from_pair(pair, "vertical", label="Dv")
    conj_s = ConjugateConnection(s, E)

    def pair_rows(X, Y):
        yield "parallel_structure", dE.apply(ctx, X, Y)
        yield "self_conjugate", vsub(conj_s.apply(ctx, X, Y), s.apply(ctx, X, Y))

    def reduction(X, Y):
        return vsub(s.apply(ctx, X, Y), nabla.apply(ctx, X, Y))

    rows = [("restricts_h", restriction_residual(ctx, s, Dh), ""),
            ("restricts_v", restriction_residual(ctx, s, Dv), "")]
    notes = {"parallel_structure": "the split part always keeps the structure parallel"}
    rows += [(name, res, notes.get(name, ""))
             for name, res in frame_pair_rows(ctx, pair_rows).items()]
    base_h = restriction_residual(ctx, nabla, Dh)
    base_v = restriction_residual(ctx, nabla, Dv)
    return rows + gated(tol, [("base_restricts_h", base_h), ("base_restricts_v", base_v)],
                        ["reduces_to_base"],
                        lambda: [("reduces_to_base", frame_pair_residual(ctx, reduction),
                                  "base restricts to both sides")])


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

    def closure(side):
        # how far the bracket of projected frame vectors i < j leaves the side
        D = DistributionSpec.from_pair(pair, side)
        basis = D.basis(ctx)
        return (f"{side}_involutive", worst(ctx, (
            (ctx.chart.frame_label(i, j), D.complement_values(ctx, bracket(basis[i], basis[j])))
            for i, j in combinations(range(ctx.chart.dim), 2))), "")

    return [("hypothesis_torsion_free", hyp, f"base torsion {base_t.value:.3e}"),
            *gated(tol, [("torsion_free", hyp)], ["vertical_involutive", "horizontal_involutive"],
                   lambda: [closure("vertical"), closure("horizontal")])]


def conjugate_torsion_magnitude(ctx: EvalContext, nabla: ConnectionOp,
                                pair: ProjectorPair) -> Residual:
    return torsion_residual(ctx, ConjugateConnection(nabla, pair.structure()))


# ---- fundamental splitting tensors ------------------------------------


def fundamental_tensors(nabla: ConnectionOp, pair: ProjectorPair):
    """The two mixed-derivative invariants of the splitting."""
    h, v = pair.h, pair.v
    swap = CombinationOp(((1.0, Sandwiched(nabla, out=h, arg=v)),
                          (1.0, Sandwiched(nabla, out=v, arg=h))))
    return Sandwiched(swap, along=v, label="T"), Sandwiched(swap, along=h, label="A")


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

    def half(X, Y, S, sign, live, dead, fundamental, names):
        # S lives on the `live` blocks, where each equals sign * Q(nabla_a b),
        # and vanishes on the `dead` ones.  The *_vanishing and *_blocks rows
        # measure two blocks at once: both blocks' components form one list,
        # so the reducer takes the larger of the two at every sample.  Values
        # are made in the order that keeps the fewest alive during each
        # S.apply; the dead blocks are freed when `vanishing` returns.
        antisym, vanish, fund, split, formula, blocks = names
        yield from vanishing(S, dead, antisym, vanish)
        SXY = S.apply(ctx, X, Y)
        y1, y2 = fundamental
        yield fund, vsub(SXY, vscale(sign, vadd(T.apply(ctx, X, y1), A.apply(ctx, X, y2))))
        s = [S.apply(ctx, a, b) for a, b, _ in live]
        yield split, vsub(SXY, vadd(*s))
        q = [endo_apply(Q, nabla.apply(ctx, a, b)) for a, b, Q in live]
        yield formula, vsub(SXY, vscale(sign, vadd(*q)))
        yield blocks, [*vsub(s[0], vscale(sign, q[0])), *vsub(s[1], vscale(sign, q[1]))]

    def vanishing(S, dead, antisym, vanish):
        d = [S.apply(ctx, a, b) for a, b in dead]
        yield antisym, vadd(*d)
        yield vanish, [*d[0], *d[1]]

    def rows(X, Y):
        hX, vX, hY, vY = (endo_apply(P, W) for W in (X, Y) for P in (H, V))
        yield from half(X, Y, C, 2.0, ((hX, hY, V), (vX, vY, H)), ((hX, vY), (vX, hY)),
                        (vY, hY), ("cross_antisymmetry", "cross_vanishing",
                                   "fundamental_structural", "structural_split",
                                   "structural_formula", "structural_blocks"))
        # The virtual half lives entirely on the mixed blocks; its diagonal
        # blocks vanish, so its split runs over the cross terms.
        yield from half(X, Y, B, -2.0, ((hX, vY, H), (vX, hY, V)), ((hX, hY), (vX, vY)),
                        (hY, vY), ("diagonal_antisymmetry", "diagonal_vanishing",
                                   "fundamental_virtual", "virtual_split",
                                   "virtual_formula", "virtual_blocks"))

    notes = {"virtual_split": "mixed blocks carry the whole virtual half"}
    return [(name, res, notes.get(name, ""))
            for name, res in frame_pair_rows(ctx, rows).items()]


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
