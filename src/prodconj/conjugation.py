"""Conjugation of connections by an involutive structure.

The central operator: given a connection and an endomorphism field E with
E^2 = I, the conjugate sends (x, y) to E(nabla_x(Ey)).  Around it live the
averaging projector psi, its tensor companion chi, the structural/virtual
splitting of the difference, pencils of two skew-commuting structures, and
the torsion shapes produced by recurrent structures.

Suite functions return rows as (name, residual_or_None, note) triples; a
None residual marks a row skipped by a failed hypothesis gate.  Judging
rows against tolerances is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connections import (
    ConnectionOp,
    CombinationOp,
    SumConnection,
    curvature,
    dnabla_endo,
    metricity_residual,
    nabla_endo,
    nabla_metric,
    torsion,
    torsion_residual,
)
from .errors import ConfigError
from .expr import Const, Product, Sum
from .fields import (
    EndoField,
    EvalContext,
    MetricField,
    OneFormField,
    Tensor12Field,
    Vec,
    endo_apply,
    frame_pair_residual,
    frame_triple_residual,
    jets_matrix_values,
    metric_compat_residual,
    oneform_apply,
    vadd,
    vscale,
    vsub,
    worst,
)
from .reporting import Residual

Rows = list  # list[tuple[str, Residual | None, str]]


class ConjugateConnection(ConnectionOp):
    """E(nabla_x(Ey)).  Consumes one jet order, same as the base."""

    def __init__(self, base: ConnectionOp, structure: EndoField, label: str | None = None):
        if structure.chart is not base.chart:
            raise ConfigError(
                f"structure {structure.label!r} and connection {base.label!r} live on different charts")
        self.base = base
        self.structure = structure
        self.chart = base.chart
        self.label = label if label is not None else f"conj({base.label},{structure.label})"

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        E = ctx.endo(self.structure)
        return endo_apply(E, self.base.apply(ctx, x, endo_apply(E, y)))


def conjugate(base: ConnectionOp, structure: EndoField, label: str | None = None) -> ConjugateConnection:
    return ConjugateConnection(base, structure, label)


def expansion_form(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                   x: Vec, y: Vec) -> Vec:
    """The additive presentation: nabla_x y + E((nabla_x E)y)."""
    E = ctx.endo(structure)
    return vadd(base.apply(ctx, x, y), endo_apply(E, nabla_endo(ctx, base, E, x, y)))


def forms_agreement_residual(ctx: EvalContext, base: ConnectionOp,
                             structure: EndoField) -> Residual:
    conj = ConjugateConnection(base, structure)
    return frame_pair_residual(
        ctx, lambda X, Y: vsub(conj.apply(ctx, X, Y),
                               expansion_form(ctx, base, structure, X, Y)))


def psi_connection(base: ConnectionOp, structure: EndoField,
                   label: str | None = None) -> ConnectionOp:
    """The averaging projector applied to a connection: (base + conjugate)/2."""
    conj = ConjugateConnection(base, structure)
    return CombinationOp(((0.5, base), (0.5, conj)),
                         label=label or f"psi({base.label},{structure.label})")


def chi_tensor(tau: Tensor12Field, structure: EndoField,
               label: str | None = None) -> Tensor12Field:
    """The tensor companion of psi: (tau + E tau(.,E.))/2."""
    def op(ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        E = ctx.endo(structure)
        rotated = endo_apply(E, tau.apply(ctx, x, endo_apply(E, y)))
        return vscale(0.5, vadd(tau.apply(ctx, x, y), rotated))
    return Tensor12Field.from_operator(tau.chart, op, label=label or f"chi({tau.label})")


def parallel_structure_residual(ctx: EvalContext, base: ConnectionOp,
                                structure: EndoField) -> Residual:
    """Max |(nabla_X E)Y| over frame pairs; zero iff the structure is parallel."""
    E = ctx.endo(structure)
    return frame_pair_residual(ctx, lambda X, Y: nabla_endo(ctx, base, E, X, Y))


def projector_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                    tau: Tensor12Field) -> Rows:
    """Idempotence of psi and chi, affinity across a tensor shift, and the
    parallelism of every psi image."""
    psi1 = psi_connection(base, structure)
    psi2 = psi_connection(psi1, structure)
    chi1 = chi_tensor(tau, structure)
    chi2 = chi_tensor(chi1, structure)
    shifted = SumConnection(base, tau)
    psi_shifted = psi_connection(shifted, structure)
    E = ctx.endo(structure)
    rows = [
        ("psi_idempotent",
         frame_pair_residual(ctx, lambda X, Y: vsub(psi2.apply(ctx, X, Y),
                                                    psi1.apply(ctx, X, Y))), ""),
        ("chi_idempotent",
         frame_pair_residual(ctx, lambda X, Y: vsub(chi2.apply(ctx, X, Y),
                                                    chi1.apply(ctx, X, Y))), ""),
        ("affinity",
         frame_pair_residual(ctx, lambda X, Y: vsub(
             psi_shifted.apply(ctx, X, Y),
             vadd(psi1.apply(ctx, X, Y), chi1.apply(ctx, X, Y)))), ""),
        ("image_parallel",
         frame_pair_residual(ctx, lambda X, Y: nabla_endo(ctx, psi1, E, X, Y)),
         "psi lands in the parallel class for any input"),
    ]
    return rows


def mean_decomposition_suite(ctx: EvalContext, base: ConnectionOp,
                             structure: EndoField) -> Rows:
    conj = ConjugateConnection(base, structure)
    psi1 = psi_connection(base, structure)
    return [
        ("halving",
         frame_pair_residual(ctx, lambda X, Y: vsub(
             psi1.apply(ctx, X, Y),
             vscale(0.5, vadd(base.apply(ctx, X, Y), conj.apply(ctx, X, Y))))), ""),
        ("forms_agreement", forms_agreement_residual(ctx, base, structure), ""),
    ]


def membership_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField) -> Rows:
    """Both sides of the fixed-point characterization: the structure is
    parallel exactly when psi leaves the connection alone.  Callers flip
    the expectation to probe the negative direction."""
    psi1 = psi_connection(base, structure)
    return [
        ("parallel_structure", parallel_structure_residual(ctx, base, structure), ""),
        ("fixed_point",
         frame_pair_residual(ctx, lambda X, Y: vsub(psi1.apply(ctx, X, Y),
                                                    base.apply(ctx, X, Y))), ""),
    ]


# ---- the five basic conjugate identities ------------------------------


def conjugate_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                    metric: MetricField | None = None,
                    compat_tol: float = 1e-9) -> Rows:
    """Structure derivative flip, involution, torsion and curvature
    transport, and (metric given and compatible) covariant-derivative
    transport of the metric."""
    conj = ConjugateConnection(base, structure)
    double = ConjugateConnection(conj, structure)
    E = ctx.endo(structure)

    def item1(X, Y):
        return vadd(nabla_endo(ctx, conj, E, X, Y), nabla_endo(ctx, base, E, X, Y))

    def transport_out(X, Y):
        return vsub(conj.apply(ctx, X, endo_apply(E, Y)),
                    endo_apply(E, base.apply(ctx, X, Y)))

    def transport_in(X, Y):
        return vsub(endo_apply(E, conj.apply(ctx, X, Y)),
                    base.apply(ctx, X, endo_apply(E, Y)))

    def item3(X, Y):
        lhs = torsion(ctx, conj, X, Y)
        rhs = vadd(torsion(ctx, base, X, Y),
                   endo_apply(E, dnabla_endo(ctx, base, E, X, Y)))
        return vsub(lhs, rhs)

    def item4(X, Y, Z):
        lhs = curvature(ctx, conj, X, Y, Z)
        rhs = endo_apply(E, curvature(ctx, base, X, Y, endo_apply(E, Z)))
        return vsub(lhs, rhs)

    rows = [
        ("structure_flip", frame_pair_residual(ctx, item1), ""),
        ("argument_transport",
         frame_pair_residual(ctx, transport_out).merged(
             frame_pair_residual(ctx, transport_in)),
         "moving the structure through either slot"),
        ("involution",
         frame_pair_residual(ctx, lambda X, Y: vsub(double.apply(ctx, X, Y),
                                                    base.apply(ctx, X, Y))), ""),
        ("torsion_shift", frame_pair_residual(ctx, item3), ""),
        ("curvature_transport", frame_triple_residual(ctx, item4), ""),
    ]

    if metric is not None:
        compat = metric_compat_residual(ctx, metric, structure)
        if not compat.within(compat_tol):
            rows.append(("metric_transport", None,
                         f"metric not structure-compatible (residual {compat.value:.3e})"))
        else:
            G = ctx.metric(metric)

            def item5(X, Y, Z):
                lhs = nabla_metric(ctx, conj, G, X, endo_apply(E, Y), endo_apply(E, Z))
                return lhs - nabla_metric(ctx, base, G, X, Y, Z)

            rows.append(("metric_transport",
                         frame_triple_residual(ctx, item5), ""))
    return rows


def metric_consequence_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                             metric: MetricField, tol: float) -> Rows:
    """For a metric-born symmetric connection: the conjugate stays metric
    when the metric is structure-compatible, and a parallel structure
    collapses the conjugate back onto the base."""
    conj = ConjugateConnection(base, structure)
    rows = []
    compat = metric_compat_residual(ctx, metric, structure)
    rows.append(("compatibility", compat,
                 "gate for the metricity row" if compat.within(tol) else "metric moves under the structure"))
    if compat.within(tol):
        rows.append(("conjugate_metricity", metricity_residual(ctx, conj, metric), ""))
    else:
        rows.append(("conjugate_metricity", None, "skipped: incompatible metric"))
    par = parallel_structure_residual(ctx, base, structure)
    if par.within(tol):
        rows.append(("parallel_collapse",
                     frame_pair_residual(ctx, lambda X, Y: vsub(conj.apply(ctx, X, Y),
                                                                base.apply(ctx, X, Y))),
                     "parallel structure, conjugate must equal the base"))
    else:
        rows.append(("parallel_collapse", None,
                     f"skipped: structure not parallel (residual {par.value:.3e})"))
    return rows


# ---- recurrent structures ---------------------------------------------


def recurrent_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                    eta: OneFormField, mode: str, tol: float) -> Rows:
    """Torsion shape of the conjugate under a recurrence hypothesis.

    mode "structure": nabla E = eta (x) E, torsion eta(X)Y - eta(Y)X.
    mode "identity": nabla E = eta (x) I, torsion eta(X)EY - eta(Y)EX.
    Both conclusion rows are gated on the hypothesis actually holding.
    """
    if mode not in ("structure", "identity"):
        raise ConfigError(f"unknown recurrence mode {mode!r}")
    E = ctx.endo(structure)
    w = ctx.oneform(eta)
    conj = ConjugateConnection(base, structure)

    def hyp(X, Y):
        lhs = nabla_endo(ctx, base, E, X, Y)
        scale = oneform_apply(w, X)
        target = endo_apply(E, Y) if mode == "structure" else Y
        return vsub(lhs, vscale(scale, target))

    hyp_res = frame_pair_residual(ctx, hyp)
    sym_res = torsion_residual(ctx, base)
    rows = [
        ("hypothesis_recurrence", hyp_res, f"mode={mode}"),
        ("hypothesis_symmetry", sym_res, "base torsion must vanish"),
    ]
    if not (hyp_res.within(tol) and sym_res.within(tol)):
        rows.append(("torsion_shape", None,
                     f"skipped: hypothesis fails (recurrence {hyp_res.value:.3e}, "
                     f"base torsion {sym_res.value:.3e})"))
        return rows

    def shape(X, Y):
        lhs = torsion(ctx, conj, X, Y)
        a, b = oneform_apply(w, X), oneform_apply(w, Y)
        if mode == "structure":
            rhs = vsub(vscale(a, Y), vscale(b, X))
        else:
            rhs = vsub(vscale(a, endo_apply(E, Y)), vscale(b, endo_apply(E, X)))
        return vsub(lhs, rhs)

    rows.append(("torsion_shape", frame_pair_residual(ctx, shape), f"mode={mode}"))
    return rows


# ---- pencils ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pencil:
    """alpha E1 + beta E2 for skew-commuting structures, (alpha, beta) on
    the unit circle.  The circle constraint is exact rational arithmetic,
    so it never competes with the residual tolerances."""

    first: EndoField
    second: EndoField
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.first.chart is not self.second.chart:
            raise ConfigError("pencil members live on different charts")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha ** 2 + self.beta ** 2 != 1:
            raise ConfigError(
                f"pencil weights ({self.alpha}, {self.beta}) are off the unit circle")

    def endo(self, label: str | None = None) -> EndoField:
        chart = self.first.chart
        n = chart.dim
        a, b = Const(self.alpha), Const(self.beta)
        rows = tuple(
            tuple(Sum((Product((a, self.first.entries[k][j])),
                       Product((b, self.second.entries[k][j]))))
                  for j in range(n))
            for k in range(n))
        return EndoField(chart, rows, label=label or f"pencil({self.alpha},{self.beta})")


def skew_commutation_residual(ctx: EvalContext, first: EndoField,
                              second: EndoField) -> Residual:
    A = jets_matrix_values(ctx.endo(first))
    B = jets_matrix_values(ctx.endo(second))
    return worst(ctx, [(None, A @ B + B @ A)])


def pencil_suite(ctx: EvalContext, base: ConnectionOp, pencil: Pencil,
                 eta: OneFormField | None = None, case: str | None = None,
                 tol: float = 1e-9) -> Rows:
    """The mixing rule for the pencil conjugate, exact reductions at the
    circle's axis points, and the two recurrent special cases when an eta
    is supplied."""
    E1, E2 = pencil.first, pencil.second
    J1, J2 = ctx.endo(E1), ctx.endo(E2)
    conj1 = ConjugateConnection(base, E1)
    conj2 = ConjugateConnection(base, E2)
    mixed = ConjugateConnection(base, pencil.endo())
    a2 = float(pencil.alpha ** 2)
    b2 = float(pencil.beta ** 2)
    ab = float(pencil.alpha * pencil.beta)

    def mixing(X, Y):
        cross = vadd(endo_apply(J1, base.apply(ctx, X, endo_apply(J2, Y))),
                     endo_apply(J2, base.apply(ctx, X, endo_apply(J1, Y))))
        rhs = vadd(vadd(vscale(a2, conj1.apply(ctx, X, Y)),
                        vscale(b2, conj2.apply(ctx, X, Y))),
                   vscale(ab, cross))
        return vsub(mixed.apply(ctx, X, Y), rhs)

    rows = [
        ("skew_commutation", skew_commutation_residual(ctx, E1, E2), ""),
        ("mixing_rule", frame_pair_residual(ctx, mixing), ""),
    ]

    # Axis reductions rebuild the pencil with exact weights (1,0) and (0,1),
    # so the residual must be exactly representable zero, not merely small.
    axis1 = ConjugateConnection(base, Pencil(E1, E2, Fraction(1), Fraction(0)).endo())
    axis2 = ConjugateConnection(base, Pencil(E1, E2, Fraction(0), Fraction(1)).endo())
    rows.append(("axis_reduction_first",
                 frame_pair_residual(ctx, lambda X, Y: vsub(axis1.apply(ctx, X, Y),
                                                            conj1.apply(ctx, X, Y))), ""))
    rows.append(("axis_reduction_second",
                 frame_pair_residual(ctx, lambda X, Y: vsub(axis2.apply(ctx, X, Y),
                                                            conj2.apply(ctx, X, Y))), ""))

    if case is None:
        return rows
    if eta is None:
        raise ConfigError(f"pencil case {case!r} needs a recurrence one-form")
    w = ctx.oneform(eta)

    def recurrence(JA, JB):
        # max |(nabla_X JA)Y - eta(X) JB Y| over frame pairs
        return frame_pair_residual(ctx, lambda X, Y: vsub(
            nabla_endo(ctx, base, JA, X, Y), vscale(oneform_apply(w, X), endo_apply(JB, Y))))

    if case == "recurrent":
        # Both structures recurrent with one shared one-form.
        hyp = recurrence(J1, J1).merged(recurrence(J2, J2))
        rows.append(("hypothesis_recurrence", hyp, ""))
        if not hyp.within(tol):
            rows.append(("conjugates_coincide", None, "skipped: recurrence fails"))
            rows.append(("pencil_invariance", None, "skipped: recurrence fails"))
            return rows
        rows.append(("conjugates_coincide",
                     frame_pair_residual(ctx, lambda X, Y: vsub(conj1.apply(ctx, X, Y),
                                                                conj2.apply(ctx, X, Y))), ""))
        rows.append(("pencil_invariance",
                     frame_pair_residual(ctx, lambda X, Y: vsub(mixed.apply(ctx, X, Y),
                                                                conj1.apply(ctx, X, Y))), ""))
        return rows

    if case == "mixed":
        hyp = recurrence(J1, J2).merged(recurrence(J2, J1))
        rows.append(("hypothesis_mixed", hyp, ""))
        if not hyp.within(tol):
            rows.append(("average", None, "skipped: mixed recurrence fails"))
            rows.append(("pencil_shift", None, "skipped: mixed recurrence fails"))
            return rows
        rows.append(("average",
                     frame_pair_residual(ctx, lambda X, Y: vsub(
                         base.apply(ctx, X, Y),
                         vscale(0.5, vadd(conj1.apply(ctx, X, Y),
                                          conj2.apply(ctx, X, Y))))), ""))
        coeff = float(pencil.alpha ** 2 - pencil.beta ** 2)

        def shift_rule(X, Y):
            prod = endo_apply(J1, endo_apply(J2, Y))
            rhs = vadd(base.apply(ctx, X, Y),
                       vscale(coeff, vscale(oneform_apply(w, X), prod)))
            return vsub(mixed.apply(ctx, X, Y), rhs)

        rows.append(("pencil_shift", frame_pair_residual(ctx, shift_rule), ""))
        return rows

    raise ConfigError(f"unknown pencil case {case!r}")


# ---- structural / virtual splitting -----------------------------------


def _half_tensor(base: ConnectionOp, structure: EndoField, combine,
                 label: str) -> Tensor12Field:
    """Half of combine((nabla_{Ex} E)y, (nabla_x E)Ey)."""
    def op(ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        E = ctx.endo(structure)
        left = nabla_endo(ctx, base, E, endo_apply(E, x), y)
        right = nabla_endo(ctx, base, E, x, endo_apply(E, y))
        return vscale(0.5, combine(left, right))
    return Tensor12Field.from_operator(structure.chart, op, label=label)


def structural_tensor(base: ConnectionOp, structure: EndoField,
                      label: str | None = None) -> Tensor12Field:
    """Half the sum of the two ways of deriving the structure along its
    own rotation; the symmetric half of the conjugation difference."""
    return _half_tensor(base, structure, vadd, label or f"structural({base.label})")


def virtual_tensor(base: ConnectionOp, structure: EndoField,
                   label: str | None = None) -> Tensor12Field:
    """Half the difference of the same two derivatives."""
    return _half_tensor(base, structure, vsub, label or f"virtual({base.label})")


def splitting_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField) -> Rows:
    """Sign flip under conjugation, behavior under structure rotation of
    both arguments, and the decomposition of the conjugate through the
    two halves."""
    conj = ConjugateConnection(base, structure)
    C = structural_tensor(base, structure)
    B = virtual_tensor(base, structure)
    Cc = structural_tensor(conj, structure)
    Bc = virtual_tensor(conj, structure)
    E = ctx.endo(structure)

    def rot(T, sign, X, Y):
        lhs = T.apply(ctx, endo_apply(E, X), endo_apply(E, Y))
        rhs = vscale(sign, T.apply(ctx, X, Y))
        return vsub(lhs, rhs)

    return [
        ("structural_flip",
         frame_pair_residual(ctx, lambda X, Y: vadd(Cc.apply(ctx, X, Y),
                                                    C.apply(ctx, X, Y))), ""),
        ("virtual_flip",
         frame_pair_residual(ctx, lambda X, Y: vadd(Bc.apply(ctx, X, Y),
                                                    B.apply(ctx, X, Y))), ""),
        ("structural_rotation",
         frame_pair_residual(ctx, lambda X, Y: rot(C, 1.0, X, Y)), ""),
        ("virtual_rotation",
         frame_pair_residual(ctx, lambda X, Y: rot(B, -1.0, X, Y)), ""),
        ("decomposition",
         frame_pair_residual(ctx, lambda X, Y: vsub(
             conj.apply(ctx, X, Y),
             vadd(vsub(base.apply(ctx, X, Y), C.apply(ctx, X, Y)),
                  B.apply(ctx, X, Y)))), ""),
    ]


def projective_tensor(tau: OneFormField, label: str | None = None) -> Tensor12Field:
    """tau(x) y + tau(y) x, the symmetric rank-one shift of a connection."""
    def op(ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        w = ctx.oneform(tau)
        return vadd(vscale(oneform_apply(w, x), y), vscale(oneform_apply(w, y), x))
    return Tensor12Field.from_operator(tau.chart, op, label=label or f"proj({tau.label})")


def projective_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                     tau: OneFormField) -> Rows:
    """The structural half ignores a projective shift; the virtual half
    moves by an explicit rank-two difference."""
    shifted = SumConnection(base, projective_tensor(tau))
    C0 = structural_tensor(base, structure)
    C1 = structural_tensor(shifted, structure)
    B0 = virtual_tensor(base, structure)
    B1 = virtual_tensor(shifted, structure)
    E = ctx.endo(structure)
    w = ctx.oneform(tau)

    def diff_rule(X, Y):
        lhs = vsub(B1.apply(ctx, X, Y), B0.apply(ctx, X, Y))
        rhs = vsub(vscale(oneform_apply(w, endo_apply(E, Y)), endo_apply(E, X)),
                   vscale(oneform_apply(w, Y), X))
        return vsub(lhs, rhs)

    return [
        ("structural_invariance",
         frame_pair_residual(ctx, lambda X, Y: vsub(C1.apply(ctx, X, Y),
                                                    C0.apply(ctx, X, Y))), ""),
        ("virtual_difference", frame_pair_residual(ctx, diff_rule), ""),
    ]
