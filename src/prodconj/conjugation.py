"""Conjugation of connections by an involutive structure.

The central operator: given a connection and an endomorphism field E with
E^2 = I, the conjugate sends (x, y) to E(nabla_x(Ey)).  Around it live the
averaging projector psi, its tensor companion chi, the structural/virtual
splitting of the difference, pencils of two skew-commuting structures, and
the torsion shapes produced by recurrent structures.

Suite functions return rows as (name, residual_or_None, note) triples; a
None residual marks a row skipped by a failed hypothesis gate
(`fields.gated`).  Judging rows against tolerances is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connections import (
    ConnectionOp,
    CombinationOp,
    Sandwiched,
    SumConnection,
    curvature,
    metricity_residual,
    nabla_metric,
    structure_derivative_twist,
    torsion,
    torsion_residual,
)
from .errors import ConfigError
from .expr import ZERO, Sum
from .fields import (
    EndoField,
    EvalContext,
    MetricField,
    OneFormField,
    Tensor12Field,
    endo_apply,
    endo_combination,
    frame_pair_residual,
    frame_pair_rows,
    frame_triple_residual,
    gated,
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


class ConjugateConnection(Sandwiched):
    """E(nabla_x(Ey)).  Consumes one jet order, same as the base."""

    def __init__(self, base: ConnectionOp, structure: EndoField, label: str | None = None):
        super().__init__(base, out=structure, arg=structure, label=label if label is not None
                         else f"conj({base.label},{structure.label})")


def expansion_form(base: ConnectionOp, structure: EndoField) -> SumConnection:
    """The additive presentation of the conjugate: nabla_x y + E((nabla_x E)y)."""
    return SumConnection(base, Sandwiched(structure_derivative_twist(base, structure),
                                          out=structure))


def psi_connection(base: ConnectionOp, structure: EndoField,
                   label: str | None = None) -> ConnectionOp:
    """The averaging projector applied to a connection: (base + conjugate)/2."""
    conj = ConjugateConnection(base, structure)
    return CombinationOp(((0.5, base), (0.5, conj)),
                         label=label or f"psi({base.label},{structure.label})")


def chi_tensor(tau: Tensor12Field, structure: EndoField,
               label: str | None = None) -> CombinationOp:
    """The tensor companion of psi: (tau + E tau(.,E.))/2."""
    return CombinationOp(((0.5, tau), (0.5, Sandwiched(tau, out=structure, arg=structure))),
                         label=label or f"chi({tau.label})")


def parallel_structure_residual(ctx: EvalContext, base: ConnectionOp,
                                structure: EndoField) -> Residual:
    """Max |(nabla_X E)Y| over frame pairs; zero iff the structure is parallel."""
    dE = structure_derivative_twist(base, structure)
    return frame_pair_residual(ctx, lambda X, Y: dE.apply(ctx, X, Y))


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
    dE_psi = structure_derivative_twist(psi1, structure)

    def rows(X, Y):
        p1, c1 = psi1.apply(ctx, X, Y), chi1.apply(ctx, X, Y)
        yield "psi_idempotent", vsub(psi2.apply(ctx, X, Y), p1)
        yield "chi_idempotent", vsub(chi2.apply(ctx, X, Y), c1)
        yield "affinity", vsub(psi_shifted.apply(ctx, X, Y), vadd(p1, c1))
        yield "image_parallel", dE_psi.apply(ctx, X, Y)

    notes = {"image_parallel": "psi lands in the parallel class for any input"}
    return [(name, res, notes.get(name, ""))
            for name, res in frame_pair_rows(ctx, rows).items()]


def mean_decomposition_suite(ctx: EvalContext, base: ConnectionOp,
                             structure: EndoField) -> Rows:
    """psi against the average of base and conjugate, and the conjugate
    against its additive presentation."""
    conj = ConjugateConnection(base, structure)
    psi1 = psi_connection(base, structure)
    expansion = expansion_form(base, structure)

    def rows(X, Y):
        conj_xy = conj.apply(ctx, X, Y)
        yield "halving", vsub(psi1.apply(ctx, X, Y),
                              vscale(0.5, vadd(base.apply(ctx, X, Y), conj_xy)))
        yield "forms_agreement", vsub(conj_xy, expansion.apply(ctx, X, Y))

    return [(name, res, "") for name, res in frame_pair_rows(ctx, rows).items()]


def membership_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField) -> Rows:
    """Both sides of the fixed-point characterization: the structure is
    parallel exactly when psi leaves the connection alone.  Callers flip
    the expectation to probe the negative direction."""
    dE = structure_derivative_twist(base, structure)
    psi1 = psi_connection(base, structure)

    def rows(X, Y):
        yield "parallel_structure", dE.apply(ctx, X, Y)
        yield "fixed_point", vsub(psi1.apply(ctx, X, Y), base.apply(ctx, X, Y))

    return [(name, res, "") for name, res in frame_pair_rows(ctx, rows).items()]


# ---- the five basic conjugate identities ------------------------------


def conjugate_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                    metric: MetricField | None = None, tol: float = 1e-9) -> Rows:
    """Structure derivative flip, involution, torsion and curvature
    transport, and (metric given and compatible) covariant-derivative
    transport of the metric."""
    conj = ConjugateConnection(base, structure)
    double = ConjugateConnection(conj, structure)
    dE = structure_derivative_twist(base, structure)
    dE_conj = structure_derivative_twist(conj, structure)
    E = ctx.endo(structure)

    def pair_rows(X, Y):
        EY, base_xy = endo_apply(E, Y), base.apply(ctx, X, Y)
        d = dE.apply(ctx, X, Y)
        yield "structure_flip", vadd(dE_conj.apply(ctx, X, Y), d)
        # Measured under two names and merged after the pass, as two scans
        # would be, so a tie keeps transport_out's witness.
        yield "transport_out", vsub(conj.apply(ctx, X, EY), endo_apply(E, base_xy))
        yield "transport_in", vsub(endo_apply(E, conj.apply(ctx, X, Y)), base.apply(ctx, X, EY))
        yield "involution", vsub(double.apply(ctx, X, Y), base_xy)
        rhs = vadd(torsion(ctx, base, X, Y), endo_apply(E, vsub(d, dE.apply(ctx, Y, X))))
        yield "torsion_shift", vsub(torsion(ctx, conj, X, Y), rhs)

    def item4(X, Y, Z):
        lhs = curvature(ctx, conj, X, Y, Z)
        rhs = endo_apply(E, curvature(ctx, base, X, Y, endo_apply(E, Z)))
        return vsub(lhs, rhs)

    def item5(X, Y, Z):
        lhs = nabla_metric(ctx, conj, G, X, endo_apply(E, Y), endo_apply(E, Z))
        return lhs - nabla_metric(ctx, base, G, X, Y, Z)

    res = frame_pair_rows(ctx, pair_rows)
    rows = [
        ("structure_flip", res["structure_flip"], ""),
        ("argument_transport", res["transport_out"].merged(res["transport_in"]),
         "moving the structure through either slot"),
        ("involution", res["involution"], ""),
        ("torsion_shift", res["torsion_shift"], ""),
        ("curvature_transport", frame_triple_residual(ctx, item4), ""),
    ]
    if metric is None:
        return rows
    G = ctx.metric(metric)
    return rows + gated(tol, [("compatibility", metric_compat_residual(ctx, metric, structure))],
                        ["metric_transport"],
                        lambda: [("metric_transport", frame_triple_residual(ctx, item5), "")])


def metric_consequence_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                             metric: MetricField, tol: float) -> Rows:
    """For a metric-born symmetric connection: the conjugate stays metric
    when the metric is structure-compatible, and a parallel structure
    collapses the conjugate back onto the base."""
    conj = ConjugateConnection(base, structure)

    def collapse(X, Y):
        return vsub(conj.apply(ctx, X, Y), base.apply(ctx, X, Y))

    compat = metric_compat_residual(ctx, metric, structure)
    par = parallel_structure_residual(ctx, base, structure)
    return [("compatibility", compat, "gate for the metricity row"),
            *gated(tol, [("compatibility", compat)], ["conjugate_metricity"],
                   lambda: [("conjugate_metricity", metricity_residual(ctx, conj, metric), "")]),
            *gated(tol, [("parallel_structure", par)], ["parallel_collapse"],
                   lambda: [("parallel_collapse", frame_pair_residual(ctx, collapse),
                             "parallel structure, conjugate must equal the base")])]


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
    dE = structure_derivative_twist(base, structure)

    def hyp(X, Y):
        lhs = dE.apply(ctx, X, Y)
        scale = oneform_apply(w, X)
        target = endo_apply(E, Y) if mode == "structure" else Y
        return vsub(lhs, vscale(scale, target))

    def shape(X, Y):
        lhs = torsion(ctx, conj, X, Y)
        a, b = oneform_apply(w, X), oneform_apply(w, Y)
        if mode == "structure":
            rhs = vsub(vscale(a, Y), vscale(b, X))
        else:
            rhs = vsub(vscale(a, endo_apply(E, Y)), vscale(b, endo_apply(E, X)))
        return vsub(lhs, rhs)

    hyp_res = frame_pair_residual(ctx, hyp)
    sym_res = torsion_residual(ctx, base)
    return [("hypothesis_recurrence", hyp_res, f"mode={mode}"),
            ("hypothesis_symmetry", sym_res, "base torsion must vanish"),
            *gated(tol, [("recurrence", hyp_res), ("symmetry", sym_res)], ["torsion_shape"],
                   lambda: [("torsion_shape", frame_pair_residual(ctx, shape), f"mode={mode}")])]


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
        return endo_combination(((self.alpha, self.first), (self.beta, self.second)),
                                label=label or f"pencil({self.alpha},{self.beta})")


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

    if case is not None and eta is None:
        raise ConfigError(f"pencil case {case!r} needs a recurrence one-form")
    # Each case's hypothesis merges two recurrences (nabla_X EA)Y = eta(X) EB Y.
    dE1, dE2 = structure_derivative_twist(base, E1), structure_derivative_twist(base, E2)
    recurrences = {None: (), "recurrent": ((dE1, J1), (dE2, J2)),
                   "mixed": ((dE1, J2), (dE2, J1))}.get(case)
    if recurrences is None:
        raise ConfigError(f"unknown pencil case {case!r}")
    w = ctx.oneform(eta) if case else None
    # Axis reductions rebuild the pencil with exact weights (1,0) and (0,1),
    # so the residual must be exactly representable zero, not merely small.
    axis1 = ConjugateConnection(base, Pencil(E1, E2, Fraction(1), Fraction(0)).endo())
    axis2 = ConjugateConnection(base, Pencil(E1, E2, Fraction(0), Fraction(1)).endo())

    def rows(X, Y):
        c1, c2 = conj1.apply(ctx, X, Y), conj2.apply(ctx, X, Y)
        cross = vadd(endo_apply(J1, base.apply(ctx, X, endo_apply(J2, Y))),
                     endo_apply(J2, base.apply(ctx, X, endo_apply(J1, Y))))
        rhs = vadd(vadd(vscale(a2, c1), vscale(b2, c2)), vscale(ab, cross))
        yield "mixing_rule", vsub(mixed.apply(ctx, X, Y), rhs)
        yield "axis_reduction_first", vsub(axis1.apply(ctx, X, Y), c1)
        yield "axis_reduction_second", vsub(axis2.apply(ctx, X, Y), c2)
        for k, (dEA, JB) in enumerate(recurrences):
            yield f"recurrence{k}", vsub(dEA.apply(ctx, X, Y),
                                         vscale(oneform_apply(w, X), endo_apply(JB, Y)))

    out = [("skew_commutation", skew_commutation_residual(ctx, E1, E2), "")]
    res = frame_pair_rows(ctx, rows)
    out += [(name, res[name], "") for name in
            ("mixing_rule", "axis_reduction_first", "axis_reduction_second")]
    if case is None:
        return out
    if case == "recurrent":
        # Both structures recurrent with one shared one-form.
        def conclusions(X, Y):
            c1 = conj1.apply(ctx, X, Y)
            yield "conjugates_coincide", vsub(c1, conj2.apply(ctx, X, Y))
            yield "pencil_invariance", vsub(mixed.apply(ctx, X, Y), c1)
        label, names = "recurrence", ("conjugates_coincide", "pencil_invariance")
    else:
        coeff = float(pencil.alpha ** 2 - pencil.beta ** 2)

        def conclusions(X, Y):
            base_xy = base.apply(ctx, X, Y)
            yield "average", vsub(base_xy, vscale(0.5, vadd(conj1.apply(ctx, X, Y),
                                                            conj2.apply(ctx, X, Y))))
            prod = endo_apply(J1, endo_apply(J2, Y))
            rhs = vadd(base_xy, vscale(coeff, vscale(oneform_apply(w, X), prod)))
            yield "pencil_shift", vsub(mixed.apply(ctx, X, Y), rhs)
        label, names = "mixed", ("average", "pencil_shift")
    hyp = res["recurrence0"].merged(res["recurrence1"])
    return out + [(f"hypothesis_{label}", hyp, "")] + gated(
        tol, [(label, hyp)], names,
        lambda: [(name, r, "") for name, r in frame_pair_rows(ctx, conclusions).items()])


# ---- structural / virtual splitting -----------------------------------


def _half_tensor(base: ConnectionOp, structure: EndoField, sign: float,
                 label: str) -> CombinationOp:
    """((nabla_{Ex} E)y + sign (nabla_x E)Ey) / 2."""
    dE = structure_derivative_twist(base, structure)
    return CombinationOp(((0.5, Sandwiched(dE, along=structure)),
                          (0.5 * sign, Sandwiched(dE, arg=structure))), label=label)


def structural_tensor(base: ConnectionOp, structure: EndoField,
                      label: str | None = None) -> CombinationOp:
    """Half the sum of the two ways of deriving the structure along its
    own rotation; the symmetric half of the conjugation difference."""
    return _half_tensor(base, structure, 1.0, label or f"structural({base.label})")


def virtual_tensor(base: ConnectionOp, structure: EndoField,
                   label: str | None = None) -> CombinationOp:
    """Half the difference of the same two derivatives."""
    return _half_tensor(base, structure, -1.0, label or f"virtual({base.label})")


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

    def rows(X, Y):
        CXY, BXY = C.apply(ctx, X, Y), B.apply(ctx, X, Y)
        yield "structural_flip", vadd(Cc.apply(ctx, X, Y), CXY)
        yield "virtual_flip", vadd(Bc.apply(ctx, X, Y), BXY)
        yield "decomposition", vsub(conj.apply(ctx, X, Y),
                                    vadd(vsub(base.apply(ctx, X, Y), CXY), BXY))
        # Rotating both arguments keeps the structural half and flips the virtual one.
        EX, EY = endo_apply(E, X), endo_apply(E, Y)
        yield "structural_rotation", vsub(C.apply(ctx, EX, EY), CXY)
        yield "virtual_rotation", vadd(B.apply(ctx, EX, EY), BXY)

    return [(name, res, "") for name, res in frame_pair_rows(ctx, rows).items()]


def projective_tensor(tau: OneFormField, label: str | None = None) -> Tensor12Field:
    """tau(x) y + tau(y) x, the symmetric rank-one shift of a connection:
    T^k_ij = tau_i delta_jk + tau_j delta_ik."""
    n, w = tau.chart.dim, tau.components

    def entry(k: int, i: int, j: int):
        terms = tuple(t for t, hit in ((w[i], j == k), (w[j], i == k)) if hit)
        return Sum(terms) if len(terms) == 2 else terms[0] if terms else ZERO
    return Tensor12Field.from_components(
        tau.chart, [[[entry(k, i, j) for j in range(n)] for i in range(n)] for k in range(n)],
        label=label or f"proj({tau.label})")


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

    def rows(X, Y):
        yield "structural_invariance", vsub(C1.apply(ctx, X, Y), C0.apply(ctx, X, Y))
        lhs = vsub(B1.apply(ctx, X, Y), B0.apply(ctx, X, Y))
        rhs = vsub(vscale(oneform_apply(w, endo_apply(E, Y)), endo_apply(E, X)),
                   vscale(oneform_apply(w, Y), X))
        yield "virtual_difference", vsub(lhs, rhs)

    return [(name, res, "") for name, res in frame_pair_rows(ctx, rows).items()]
