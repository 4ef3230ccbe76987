"""Conjugation twisted by an auxiliary (1,2)-tensor.

The twisted operator sends (x, y) to E(nabla_x(Ey)) + C(x, y).  Applying
it twice lands back on the start exactly when C kills its own rotation,
a linear condition with a whole solution space; the derivative of the
structure is one solution and rotating any solution by E gives another.

A second thread scales the two halves instead of twisting by a tensor:
members (1 + mu) * conjugate + lam * base form a plane of operators, and
the double application closes up only on four isolated coefficient
pairs.  The sweep helpers walk a grid of pairs, extract the coefficients
of the squared member numerically, and compare against the closed form.

Rows follow the same convention as the neighbouring modules: (name,
residual_or_None, note) triples, a None residual meaning the row's
hypothesis gate failed and the caller should skip rather than judge.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

import numpy as np

from .connections import (
    CombinationOp,
    ConnectionOp,
    curvature,
    dnabla_endo,
    leibniz_defect_residual,
    nabla_endo,
    torsion,
)
from .conjugation import ConjugateConnection, expansion_form
from .errors import ConfigError
from .expr import Expr
from .fields import (
    EndoField,
    EvalContext,
    Tensor12Field,
    Vec,
    bracket,
    endo_apply,
    frame_pair_residual,
    frame_triple_residual,
    vadd,
    vscale,
    vsub,
    vvalues,
    worst,
)
from .reporting import Residual

Rows = list  # list[tuple[str, Residual | None, str]]


class GeneralizedConjugate(ConnectionOp):
    """E(nabla_x(Ey)) + C(x, y) for a chosen twist tensor C."""

    def __init__(self, base: ConnectionOp, structure: EndoField,
                 twist: Tensor12Field, label: str | None = None):
        if structure.chart is not base.chart or twist.chart is not base.chart:
            raise ConfigError(
                f"connection {base.label!r}, structure {structure.label!r} and "
                f"twist {twist.label!r} must share a chart")
        self.base = base
        self.structure = structure
        self.twist = twist
        self.chart = base.chart
        self.label = label if label is not None else (
            f"gconj({base.label},{structure.label},{twist.label})")

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        E = ctx.endo(self.structure)
        conj = endo_apply(E, self.base.apply(ctx, x, endo_apply(E, y)))
        return vadd(conj, self.twist.apply(ctx, x, y))


def rotated_twist(twist: Tensor12Field, structure: EndoField,
                  label: str | None = None) -> Tensor12Field:
    """E composed after the twist; preserves membership in the duality kernel."""
    def op(ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        return endo_apply(ctx.endo(structure), twist.apply(ctx, x, y))
    return Tensor12Field.from_operator(
        twist.chart, op, label=label or f"rot({twist.label})")


def structure_derivative_twist(base: ConnectionOp, structure: EndoField,
                               label: str | None = None) -> Tensor12Field:
    """(nabla_x E)y packaged as a twist tensor; the canonical kernel element."""
    def op(ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        return nabla_endo(ctx, base, ctx.endo(structure), x, y)
    return Tensor12Field.from_operator(
        base.chart, op, label=label or f"d{structure.label}")


def mixed_derivative_twist(base: ConnectionOp, structure: EndoField,
                           lam: float, mu: float,
                           label: str | None = None) -> Tensor12Field:
    """lam * (nabla E) + mu * E(nabla E); the kernel is linear, so any mix stays inside."""
    def op(ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        E = ctx.endo(structure)
        d = nabla_endo(ctx, base, E, x, y)
        return vadd(vscale(lam, d), vscale(mu, endo_apply(E, d)))
    return Tensor12Field.from_operator(
        base.chart, op,
        label=label or f"mix({lam:g},{mu:g})d{structure.label}")


def duality_defect_residual(ctx: EvalContext, base: ConnectionOp,
                            structure: EndoField, twist: Tensor12Field) -> Residual:
    """Max |E(C(X, EY)) + C(X, Y)|; zero iff double conjugation returns the base."""
    E = ctx.endo(structure)

    def defect(X: Vec, Y: Vec) -> Vec:
        rot = endo_apply(E, twist.apply(ctx, X, endo_apply(E, Y)))
        return vadd(rot, twist.apply(ctx, X, Y))
    return frame_pair_residual(ctx, defect)


def duality_rows(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                 twist: Tensor12Field) -> Rows:
    """Kernel condition, its equivalence with the double application, and closure.

    The defect row tests the pointwise condition on the twist alone; the
    double_application row squares the actual operator against the base, and
    expansion checks the two are reconciled by the same algebra.  The two
    closure rows confirm the canonical solution and the rotation symmetry
    of the solution space.
    """
    E = ctx.endo(structure)
    gen = GeneralizedConjugate(base, structure, twist)
    gen2 = GeneralizedConjugate(gen, structure, twist)

    def double_defect(X: Vec, Y: Vec) -> Vec:
        return vsub(gen2.apply(ctx, X, Y), base.apply(ctx, X, Y))

    def expansion_defect(X: Vec, Y: Vec) -> Vec:
        # squared operator minus [base + E(C(X, EY)) + C(X, Y)], term by term
        rot = endo_apply(E, twist.apply(ctx, X, endo_apply(E, Y)))
        rhs = vadd(vadd(base.apply(ctx, X, Y), rot), twist.apply(ctx, X, Y))
        return vsub(gen2.apply(ctx, X, Y), rhs)

    canonical = structure_derivative_twist(base, structure)
    rotated = rotated_twist(canonical, structure)
    rows: Rows = [
        ("defect", duality_defect_residual(ctx, base, structure, twist),
         f"twist={twist.label}"),
        ("double_application", frame_pair_residual(ctx, double_defect),
         "squared operator against the base"),
        ("expansion", frame_pair_residual(ctx, expansion_defect),
         "square rewritten through the defect"),
        ("canonical_solution",
         duality_defect_residual(ctx, base, structure, canonical),
         "structure derivative as the twist"),
        ("rotation_closure",
         duality_defect_residual(ctx, base, structure, rotated),
         "rotated canonical twist stays a solution"),
    ]
    return rows


# ---- the two-parameter family -----------------------------------------


def family_member(base: ConnectionOp, structure: EndoField,
                  lam: float, mu: float, label: str | None = None) -> ConnectionOp:
    """(1 + mu) * conjugate + lam * base as one operator."""
    conj = ConjugateConnection(base, structure)
    return CombinationOp(((1.0 + mu, conj), (lam, base)),
                         label=label or f"family({lam:g},{mu:g})")


def _member_by_expansion(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                         lam: float, mu: float, x: Vec, y: Vec) -> Vec:
    # independent route: conjugate via the additive presentation, then scale
    conj = expansion_form(ctx, base, structure, x, y)
    return vadd(vscale(1.0 + mu, conj), vscale(lam, base.apply(ctx, x, y)))


_SPECIAL_MEMBERS = {
    (0.0, 0.0): (0.0, 1.0, "conjugate itself"),
    (1.0, -1.0): (1.0, 0.0, "base itself"),
    (0.0, -2.0): (0.0, -1.0, "negated conjugate"),
    (-1.0, -1.0): (-1.0, 0.0, "negated base"),
}


def family_rows(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                lam: float, mu: float, weight: Expr) -> Rows:
    """One family member: route agreement, scaling law, pinned reductions.

    The member is affine only when its coefficients sum to one; the
    leibniz row measures the defect against the exact multiple of X(f)Y
    predicted by the coefficient sum, so it holds for every (lam, mu).
    """
    member = family_member(base, structure, lam, mu)
    conj = ConjugateConnection(base, structure)

    def route_defect(X: Vec, Y: Vec) -> Vec:
        return vsub(member.apply(ctx, X, Y),
                    _member_by_expansion(ctx, base, structure, lam, mu, X, Y))

    frame = ctx.frame()
    rows: Rows = [
        ("route_agreement", frame_pair_residual(ctx, route_defect),
         "combination operator against the expanded form"),
        ("leibniz_scaling",
         leibniz_defect_residual(ctx, member, (1.0 + mu) + lam,
                                 weight, frame[0], frame[-1]),
         f"defect scale {(1.0 + mu) + lam:g}"),
    ]

    key = (float(lam), float(mu))
    if key in _SPECIAL_MEMBERS:
        cb, cc, what = _SPECIAL_MEMBERS[key]

        def reduction_defect(X: Vec, Y: Vec) -> Vec:
            expect = vadd(vscale(cb, base.apply(ctx, X, Y)),
                          vscale(cc, conj.apply(ctx, X, Y)))
            return vsub(member.apply(ctx, X, Y), expect)
        rows.append(("reduction", frame_pair_residual(ctx, reduction_defect), what))
    return rows


def _pooled_values(ctx: EvalContext, op_fn, probes: list[Vec]) -> np.ndarray:
    """Stack op_fn(X, Y) component values over probe pairs, shape (P, m, n)."""
    return np.stack([vvalues(op_fn(X, Y)) for X, Y in combinations(probes, 2)])


def sweep_rows(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
               grid: list[tuple[float, float]], probes: list[Vec],
               tol: float, floor: float) -> Rows:
    """Square every grid member, judge closure, and fit the square's coefficients.

    The squared member expands over the base and the conjugate with weights
    (1+mu)^2 + lam^2 and 2*lam*(1+mu).  The fit is a least-squares solve in
    that two-operator basis, pooled over samples, probe pairs and components;
    it only identifies the weights when the two basis operators are pointwise
    independent, so a genericity gate runs first and a degenerate probe set
    skips the whole sweep rather than reporting noise.
    """
    conj = ConjugateConnection(base, structure)
    Vb = _pooled_values(ctx, lambda X, Y: base.apply(ctx, X, Y), probes)
    Vc = _pooled_values(ctx, lambda X, Y: conj.apply(ctx, X, Y), probes)

    design = np.stack([Vb.ravel(), Vc.ravel()], axis=1)
    sv = np.linalg.svd(design, compute_uv=False)
    scale = max(sv[0], 1.0)
    rows: Rows = []
    if not sv[-1] > 1e-8 * scale:  # a NaN singular value is not well conditioned
        note = f"probe responses dependent (sv ratio {sv[-1] / scale:.3e}); sweep inconclusive"
        rows.append(("genericity", None, note))
        for lam, mu in grid:
            rows.append((f"member({lam:g},{mu:g})", None, "skipped: degenerate basis"))
        rows.append(("coefficient_match", None, "skipped: degenerate basis"))
        rows.append(("expansion_fit", None, "skipped: degenerate basis"))
        return rows

    rows.append(("genericity", Residual(0.0, None, "singular values"),
                 f"basis well conditioned (relative ratio {sv[-1] / scale:.3e})"))

    coeff_err = 0.0
    fit_err = 0.0
    solution_set = []
    for lam, mu in grid:
        member = family_member(base, structure, lam, mu)
        squared = CombinationOp(((1.0 + mu, ConjugateConnection(member, structure)),
                                 (lam, member)))
        Vs = _pooled_values(ctx, lambda X, Y: squared.apply(ctx, X, Y), probes)
        diff = np.max(np.abs(Vs - Vb))

        a_pred = (1.0 + mu) ** 2 + lam ** 2
        b_pred = 2.0 * lam * (1.0 + mu)
        closes = abs(a_pred - 1.0) <= 1e-12 and abs(b_pred) <= 1e-12
        # the row residual is judged against tol downstream, so a member
        # predicted not to close reports 0 when the square visibly moves
        # away from the base and infinity when it fails to
        if closes:
            solution_set.append((lam, mu))
            note = f"closure predicted; residual {diff:.3e}"
            rows.append((f"member({lam:g},{mu:g})",
                         Residual(float(diff), None, f"({lam:g},{mu:g})"), note))
        else:
            note = f"non-closure predicted; residual {diff:.3e} against floor {floor:g}"
            margin = 0.0 if diff > floor else np.inf
            rows.append((f"member({lam:g},{mu:g})",
                         Residual(margin, None, f"({lam:g},{mu:g})"), note))

        coeffs, _, _, _ = np.linalg.lstsq(design, Vs.ravel(), rcond=None)
        fitted = design @ coeffs
        fit_err = max(fit_err, float(np.max(np.abs(fitted - Vs.ravel()))))
        coeff_err = max(coeff_err,
                        abs(float(coeffs[0]) - a_pred),
                        abs(float(coeffs[1]) - b_pred))

    rows.append(("coefficient_match", Residual(coeff_err, None, None),
                 f"weights against ((1+mu)^2+lam^2, 2 lam (1+mu)) on {len(grid)} members"))
    rows.append(("expansion_fit", Residual(fit_err, None, None),
                 "squared member lies in the span of base and conjugate"))
    rows.append(("solution_count",
                 Residual(float(abs(len(solution_set) - 4)), None, None),
                 f"closing members found: {sorted(solution_set)}"))
    return rows


# ---- derived identities of the twisted operator ------------------------


def _curvature_scan(ctx: EvalContext, defect, probes: list[Vec] | None) -> Residual:
    """Max |defect(X, Y, Z)| over coordinate frame triples, and over probe
    pairs (X, Y) against every frame Z when probes are supplied, since
    coordinate frames never exercise the bracket term."""
    res = frame_triple_residual(ctx, defect)
    if not probes:
        return res
    frame, label = ctx.frame(), ctx.chart.frame_label
    return res.merged(worst(ctx, ((f"probes,{label(k)}", defect(X, Y, Z))
                                  for X, Y in combinations(probes, 2)
                                  for k, Z in enumerate(frame))))


def _curvature_form_defect(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                           twist: Tensor12Field, shortened: bool = False):
    """(X, Y, Z) -> curvature of the twisted operator minus its closed form,
    obtained by expanding the definition.  The shortened form differentiates
    the twist of (Y, Z) along Y instead of X and drops the twist squares."""
    E = ctx.endo(structure)
    gen = GeneralizedConjugate(base, structure, twist)
    C = twist.apply

    def defect(X: Vec, Y: Vec, Z: Vec) -> Vec:
        lhs = curvature(ctx, gen, X, Y, Z)
        EZ = endo_apply(E, Z)
        terms = [
            endo_apply(E, curvature(ctx, base, X, Y, EZ)),
            C(ctx, X, endo_apply(E, base.apply(ctx, Y, EZ))),
            vscale(-1.0, C(ctx, Y, endo_apply(E, base.apply(ctx, X, EZ)))),
            vscale(-1.0, C(ctx, bracket(X, Y), Z)),
            endo_apply(E, base.apply(ctx, Y if shortened else X,
                                     endo_apply(E, C(ctx, Y, Z)))),
            vscale(-1.0, endo_apply(E, base.apply(ctx, Y, endo_apply(E, C(ctx, X, Z))))),
        ]
        if not shortened:
            terms += [C(ctx, X, C(ctx, Y, Z)), vscale(-1.0, C(ctx, Y, C(ctx, X, Z)))]
        return vsub(lhs, reduce(vadd, terms))
    return defect


def generalized_identity_rows(ctx: EvalContext, base: ConnectionOp,
                              structure: EndoField, twist: Tensor12Field,
                              tol: float, probes: list[Vec] | None = None) -> Rows:
    """Structure derivative, torsion and curvature of the twisted operator.

    Everything is checked against the closed forms obtained by expanding
    the definition; the curvature row also scans probe pairs with a
    nonvanishing bracket when probes are supplied, since coordinate frames
    never exercise the bracket term.  The torsion_collapse row only makes
    sense when the twist is symmetric and the structure parallel, so both
    hypotheses gate it.
    """
    E = ctx.endo(structure)
    gen = GeneralizedConjugate(base, structure, twist)
    C = twist.apply

    def structure_defect(X: Vec, Y: Vec) -> Vec:
        lhs = nabla_endo(ctx, gen, E, X, Y)
        rhs = vadd(vsub(C(ctx, X, endo_apply(E, Y)),
                        nabla_endo(ctx, base, E, X, Y)),
                   vscale(-1.0, endo_apply(E, C(ctx, X, Y))))
        return vsub(lhs, rhs)

    def torsion_defect(X: Vec, Y: Vec) -> Vec:
        lhs = torsion(ctx, gen, X, Y)
        skew = vsub(C(ctx, X, Y), C(ctx, Y, X))
        rhs = vadd(vadd(torsion(ctx, base, X, Y),
                        endo_apply(E, dnabla_endo(ctx, base, E, X, Y))), skew)
        return vsub(lhs, rhs)

    rows: Rows = [
        ("structure_derivative", frame_pair_residual(ctx, structure_defect),
         "derivative of E under the twisted operator"),
        ("torsion_form", frame_pair_residual(ctx, torsion_defect),
         "torsion against base torsion, structure curl and twist skew part"),
    ]

    skew_res = frame_pair_residual(
        ctx, lambda X, Y: vsub(C(ctx, X, Y), C(ctx, Y, X)))
    parallel_res = frame_pair_residual(
        ctx, lambda X, Y: nabla_endo(ctx, base, E, X, Y))
    if skew_res.within(tol) and parallel_res.within(tol):
        collapse = frame_pair_residual(
            ctx, lambda X, Y: vsub(torsion(ctx, gen, X, Y), torsion(ctx, base, X, Y)))
        rows.append(("torsion_collapse", collapse,
                     "symmetric twist and parallel structure keep the torsion"))
    else:
        rows.append(("torsion_collapse", None,
                     f"skipped: twist skew {skew_res.value:.3e}, "
                     f"structure derivative {parallel_res.value:.3e}"))

    rows.append(("curvature_form",
                 _curvature_scan(ctx, _curvature_form_defect(ctx, base, structure, twist),
                                 probes),
                 "curvature against the expanded closed form"))
    return rows


def curvature_transcription_residual(ctx: EvalContext, base: ConnectionOp,
                                     structure: EndoField, twist: Tensor12Field,
                                     probes: list[Vec] | None = None) -> Residual:
    """Curvature against the shortened form that drops the twist squares.

    The shortened form also differentiates the twist of (Y, Z) along Y
    instead of X.  It agrees with the true curvature only when the twist
    vanishes; callers pair this residual with a failure expectation on any
    scenario with a live twist.
    """
    defect = _curvature_form_defect(ctx, base, structure, twist, shortened=True)
    return _curvature_scan(ctx, defect, probes)


def degeneration_rows(ctx: EvalContext, base: ConnectionOp,
                      structure: EndoField) -> Rows:
    """Zero twist collapses the twisted operator onto the plain conjugate."""
    zero = Tensor12Field.from_operator(
        base.chart, lambda c, x, y: c.zero_vector(), label="0")
    gen = GeneralizedConjugate(base, structure, zero)
    conj = ConjugateConnection(base, structure)

    def defect(X: Vec, Y: Vec) -> Vec:
        return vsub(gen.apply(ctx, X, Y), conj.apply(ctx, X, Y))
    return [("zero_twist", frame_pair_residual(ctx, defect),
             "twisted operator with no twist equals the conjugate")]
