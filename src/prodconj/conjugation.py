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

from fractions import Fraction
from functools import cached_property

from .connections import (
    ConnectionOp,
    CombinationOp,
    Sandwiched,
    SumConnection,
    frame_apply,
    frame_curvature,
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

    def __init__(self, base: ConnectionOp, structure: EndoField):
        super().__init__(base, out=structure, arg=structure)


def expansion_form(base: ConnectionOp, structure: EndoField) -> SumConnection:
    """The additive presentation of the conjugate: nabla_x y + E((nabla_x E)y)."""
    return SumConnection(base, Sandwiched(structure_derivative_twist(base, structure),
                                          out=structure))


def psi_connection(base: ConnectionOp, structure: EndoField) -> ConnectionOp:
    """The averaging projector applied to a connection: (base + conjugate)/2."""
    return CombinationOp(((0.5, base), (0.5, ConjugateConnection(base, structure))))


def chi_tensor(tau: Tensor12Field, structure: EndoField) -> CombinationOp:
    """The tensor companion of psi: (tau + E tau(.,E.))/2."""
    return CombinationOp(((0.5, tau), (0.5, Sandwiched(tau, out=structure, arg=structure))))


def parallel_structure_residual(ctx: EvalContext, base: ConnectionOp,
                                structure: EndoField) -> Residual:
    """Max |(nabla_X E)Y| over frame pairs; zero iff the structure is parallel."""
    dE = structure_derivative_twist(base, structure)
    return frame_pair_residual(ctx, lambda i, j: frame_apply(ctx, dE, i, j))


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

    def rows(i, j):
        p1, c1 = frame_apply(ctx, psi1, i, j), frame_apply(ctx, chi1, i, j)
        yield "psi_idempotent", vsub(frame_apply(ctx, psi2, i, j), p1)
        yield "chi_idempotent", vsub(frame_apply(ctx, chi2, i, j), c1)
        yield "affinity", vsub(frame_apply(ctx, psi_shifted, i, j), vadd(p1, c1))
        yield "image_parallel", frame_apply(ctx, dE_psi, i, j)

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

    def rows(i, j):
        conj_xy = frame_apply(ctx, conj, i, j)
        yield "halving", vsub(frame_apply(ctx, psi1, i, j),
                              vscale(0.5, vadd(frame_apply(ctx, base, i, j), conj_xy)))
        yield "forms_agreement", vsub(conj_xy, frame_apply(ctx, expansion, i, j))

    return [(name, res, "") for name, res in frame_pair_rows(ctx, rows).items()]


def membership_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField) -> Rows:
    """Both sides of the fixed-point characterization: the structure is
    parallel exactly when psi leaves the connection alone.  Callers flip
    the expectation to probe the negative direction."""
    dE = structure_derivative_twist(base, structure)
    psi1 = psi_connection(base, structure)

    def rows(i, j):
        yield "parallel_structure", frame_apply(ctx, dE, i, j)
        yield "fixed_point", vsub(frame_apply(ctx, psi1, i, j), frame_apply(ctx, base, i, j))

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
    E, frame = ctx.endo(structure), ctx.frame()

    def pair_rows(i, j):
        X, Y = frame[i], frame[j]
        EY, base_xy = ctx.frame_image(structure, j), frame_apply(ctx, base, i, j)
        d = frame_apply(ctx, dE, i, j)
        yield "structure_flip", vadd(frame_apply(ctx, dE_conj, i, j), d)
        # Measured under two names and merged after the pass, as two scans
        # would be, so a tie keeps transport_out's witness.
        yield "transport_out", vsub(conj.apply(ctx, X, EY), endo_apply(E, base_xy))
        yield "transport_in", vsub(endo_apply(E, frame_apply(ctx, conj, i, j)),
                                   base.apply(ctx, X, EY))
        yield "involution", vsub(frame_apply(ctx, double, i, j), base_xy)
        rhs = vadd(torsion(ctx, base, X, Y), endo_apply(E, vsub(d, frame_apply(ctx, dE, j, i))))
        yield "torsion_shift", vsub(torsion(ctx, conj, X, Y), rhs)

    def item4(i, j, k):
        Z = frame[k]
        lhs = frame_curvature(ctx, conj, i, j, Z)
        rhs = endo_apply(E, frame_curvature(ctx, base, i, j, ctx.frame_image(structure, k)))
        return vsub(lhs, rhs)

    def item5(i, j, k):
        X, Y, Z = frame[i], frame[j], frame[k]
        EY, EZ = ctx.frame_image(structure, j), ctx.frame_image(structure, k)
        lhs = nabla_metric(G, X, EY, EZ, conj.apply(ctx, X, EY), conj.apply(ctx, X, EZ))
        return lhs - nabla_metric(G, X, Y, Z, frame_apply(ctx, base, i, j),
                                  frame_apply(ctx, base, i, k))

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

    def collapse(i, j):
        return vsub(frame_apply(ctx, conj, i, j), frame_apply(ctx, base, i, j))

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
    frame = ctx.frame()
    w = ctx.oneform(eta)
    conj = ConjugateConnection(base, structure)
    dE = structure_derivative_twist(base, structure)

    def hyp(i, j):
        X, Y = frame[i], frame[j]
        lhs = frame_apply(ctx, dE, i, j)
        scale = oneform_apply(w, X)
        target = ctx.frame_image(structure, j) if mode == "structure" else Y
        return vsub(lhs, vscale(scale, target))

    def shape(i, j):
        X, Y = frame[i], frame[j]
        lhs = torsion(ctx, conj, X, Y)
        a, b = oneform_apply(w, X), oneform_apply(w, Y)
        if mode == "structure":
            rhs = vsub(vscale(a, Y), vscale(b, X))
        else:
            rhs = vsub(vscale(a, ctx.frame_image(structure, j)),
                       vscale(b, ctx.frame_image(structure, i)))
        return vsub(lhs, rhs)

    hyp_res = frame_pair_residual(ctx, hyp)
    sym_res = torsion_residual(ctx, base)
    return [("hypothesis_recurrence", hyp_res, f"mode={mode}"),
            ("hypothesis_symmetry", sym_res, "base torsion must vanish"),
            *gated(tol, [("recurrence", hyp_res), ("symmetry", sym_res)], ["torsion_shape"],
                   lambda: [("torsion_shape", frame_pair_residual(ctx, shape), f"mode={mode}")])]


# ---- pencils ----------------------------------------------------------


class Pencil:
    """alpha E1 + beta E2 for skew-commuting structures, (alpha, beta) on
    the unit circle.  The circle constraint is exact rational arithmetic,
    so it never competes with the residual tolerances."""

    def __init__(self, first: EndoField, second: EndoField, alpha: Fraction, beta: Fraction):
        if first.chart is not second.chart:
            raise ConfigError("pencil members live on different charts")
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha ** 2 + beta ** 2 != 1:
            raise ConfigError(f"pencil weights ({alpha}, {beta}) are off the unit circle")
        self.first = first
        self.second = second
        self.alpha = alpha
        self.beta = beta

    @cached_property
    def endo(self) -> EndoField:
        """alpha E1 + beta E2, one field per pencil, so its checks share its jets."""
        return endo_combination(((self.alpha, self.first), (self.beta, self.second)))

    @cached_property
    def axes(self) -> tuple[EndoField, EndoField]:
        """The endos at exact weights (1, 0) and (0, 1), one pair per pencil."""
        return tuple(Pencil(self.first, self.second, a, b).endo for a, b in ((1, 0), (0, 1)))


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
    frame = ctx.frame()
    conj1 = ConjugateConnection(base, E1)
    conj2 = ConjugateConnection(base, E2)
    mixed = ConjugateConnection(base, pencil.endo)
    a2 = float(pencil.alpha ** 2)
    b2 = float(pencil.beta ** 2)
    ab = float(pencil.alpha * pencil.beta)

    if case is not None and eta is None:
        raise ConfigError(f"pencil case {case!r} needs a recurrence one-form")
    # Each case's hypothesis merges two recurrences (nabla_X EA)Y = eta(X) EB Y.
    dE1, dE2 = structure_derivative_twist(base, E1), structure_derivative_twist(base, E2)
    recurrences = {None: (), "recurrent": ((dE1, E1), (dE2, E2)),
                   "mixed": ((dE1, E2), (dE2, E1))}.get(case)
    if recurrences is None:
        raise ConfigError(f"unknown pencil case {case!r}")
    w = ctx.oneform(eta) if case else None
    # The axis endos carry exact weights, so these residuals must be exact zeros.
    axis1, axis2 = (ConjugateConnection(base, E) for E in pencil.axes)

    def rows(i, j):
        X = frame[i]
        c1, c2 = frame_apply(ctx, conj1, i, j), frame_apply(ctx, conj2, i, j)
        cross = vadd(endo_apply(J1, base.apply(ctx, X, ctx.frame_image(E2, j))),
                     endo_apply(J2, base.apply(ctx, X, ctx.frame_image(E1, j))))
        rhs = vadd(vadd(vscale(a2, c1), vscale(b2, c2)), vscale(ab, cross))
        yield "mixing_rule", vsub(frame_apply(ctx, mixed, i, j), rhs)
        yield "axis_reduction_first", vsub(frame_apply(ctx, axis1, i, j), c1)
        yield "axis_reduction_second", vsub(frame_apply(ctx, axis2, i, j), c2)
        for k, (dEA, EB) in enumerate(recurrences):
            yield f"recurrence{k}", vsub(frame_apply(ctx, dEA, i, j),
                                         vscale(oneform_apply(w, X), ctx.frame_image(EB, j)))

    out = [("skew_commutation", skew_commutation_residual(ctx, E1, E2), "")]
    res = frame_pair_rows(ctx, rows)
    out += [(name, res[name], "") for name in
            ("mixing_rule", "axis_reduction_first", "axis_reduction_second")]
    if case is None:
        return out
    if case == "recurrent":
        # Both structures recurrent with one shared one-form.
        def conclusions(i, j):
            c1 = frame_apply(ctx, conj1, i, j)
            yield "conjugates_coincide", vsub(c1, frame_apply(ctx, conj2, i, j))
            yield "pencil_invariance", vsub(frame_apply(ctx, mixed, i, j), c1)
        label, names = "recurrence", ("conjugates_coincide", "pencil_invariance")
    else:
        coeff = float(pencil.alpha ** 2 - pencil.beta ** 2)

        def conclusions(i, j):
            base_xy = frame_apply(ctx, base, i, j)
            yield "average", vsub(base_xy, vscale(0.5, vadd(frame_apply(ctx, conj1, i, j),
                                                            frame_apply(ctx, conj2, i, j))))
            prod = endo_apply(J1, ctx.frame_image(E2, j))
            rhs = vadd(base_xy, vscale(coeff, vscale(oneform_apply(w, frame[i]), prod)))
            yield "pencil_shift", vsub(frame_apply(ctx, mixed, i, j), rhs)
        label, names = "mixed", ("average", "pencil_shift")
    hyp = res["recurrence0"].merged(res["recurrence1"])
    return out + [(f"hypothesis_{label}", hyp, "")] + gated(
        tol, [(label, hyp)], names,
        lambda: [(name, r, "") for name, r in frame_pair_rows(ctx, conclusions).items()])


# ---- structural / virtual splitting -----------------------------------


def _half_tensor(base: ConnectionOp, structure: EndoField, sign: float) -> CombinationOp:
    """((nabla_{Ex} E)y + sign (nabla_x E)Ey) / 2."""
    dE = structure_derivative_twist(base, structure)
    return CombinationOp(((0.5, Sandwiched(dE, along=structure)),
                          (0.5 * sign, Sandwiched(dE, arg=structure))))


def structural_tensor(base: ConnectionOp, structure: EndoField) -> CombinationOp:
    """Half the sum of the two ways of deriving the structure along its
    own rotation; the symmetric half of the conjugation difference."""
    return _half_tensor(base, structure, 1.0)


def virtual_tensor(base: ConnectionOp, structure: EndoField) -> CombinationOp:
    """Half the difference of the same two derivatives."""
    return _half_tensor(base, structure, -1.0)


def splitting_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField) -> Rows:
    """Sign flip under conjugation, behavior under structure rotation of
    both arguments, and the decomposition of the conjugate through the
    two halves."""
    conj = ConjugateConnection(base, structure)
    C = structural_tensor(base, structure)
    B = virtual_tensor(base, structure)
    Cc = structural_tensor(conj, structure)
    Bc = virtual_tensor(conj, structure)

    def rows(i, j):
        CXY, BXY = frame_apply(ctx, C, i, j), frame_apply(ctx, B, i, j)
        yield "structural_flip", vadd(frame_apply(ctx, Cc, i, j), CXY)
        yield "virtual_flip", vadd(frame_apply(ctx, Bc, i, j), BXY)
        yield "decomposition", vsub(frame_apply(ctx, conj, i, j),
                                    vadd(vsub(frame_apply(ctx, base, i, j), CXY), BXY))
        # Rotating both arguments keeps the structural half and flips the virtual one.
        EX, EY = ctx.frame_image(structure, i), ctx.frame_image(structure, j)
        yield "structural_rotation", vsub(C.apply(ctx, EX, EY), CXY)
        yield "virtual_rotation", vadd(B.apply(ctx, EX, EY), BXY)

    return [(name, res, "") for name, res in frame_pair_rows(ctx, rows).items()]


def projective_tensor(tau: OneFormField) -> Tensor12Field:
    """tau(x) y + tau(y) x, the symmetric rank-one shift of a connection:
    T^k_ij = tau_i delta_jk + tau_j delta_ik."""
    n, w = tau.chart.dim, tau.components

    def entry(k: int, i: int, j: int):
        terms = tuple(t for t, hit in ((w[i], j == k), (w[j], i == k)) if hit)
        return Sum(terms) if len(terms) == 2 else terms[0] if terms else ZERO
    return Tensor12Field.from_components(
        tau.chart, [[[entry(k, i, j) for j in range(n)] for i in range(n)] for k in range(n)])


def projective_suite(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                     tau: OneFormField) -> Rows:
    """The structural half ignores a projective shift; the virtual half
    moves by an explicit rank-two difference."""
    shifted = SumConnection(base, projective_tensor(tau))
    C0 = structural_tensor(base, structure)
    C1 = structural_tensor(shifted, structure)
    B0 = virtual_tensor(base, structure)
    B1 = virtual_tensor(shifted, structure)
    frame = ctx.frame()
    w = ctx.oneform(tau)

    def rows(i, j):
        X, Y = frame[i], frame[j]
        yield "structural_invariance", vsub(frame_apply(ctx, C1, i, j),
                                            frame_apply(ctx, C0, i, j))
        lhs = vsub(frame_apply(ctx, B1, i, j), frame_apply(ctx, B0, i, j))
        rhs = vsub(vscale(oneform_apply(w, ctx.frame_image(structure, j)),
                          ctx.frame_image(structure, i)),
                   vscale(oneform_apply(w, Y), X))
        yield "virtual_difference", vsub(lhs, rhs)

    return [(name, res, "") for name, res in frame_pair_rows(ctx, rows).items()]
