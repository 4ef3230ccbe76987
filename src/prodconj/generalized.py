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
    Sandwiched,
    ZeroOp,
    curvature,
    leibniz_defect_residual,
    structure_derivative_twist,
    torsion,
)
from .conjugation import ConjugateConnection, expansion_form
from .expr import Expr
from .fields import (
    EndoField,
    EvalContext,
    Tensor12Field,
    Vec,
    bracket,
    endo_apply,
    endo_combination,
    frame_pair_residual,
    frame_pair_rows,
    frame_triple_residual,
    gated,
    vadd,
    vscale,
    vsub,
    vvalues,
    worst,
)
from .reporting import Residual

Rows = list  # list[tuple[str, Residual | None, str]]

# the sweep's least-squares basis counts as independent up to this
# condition number (largest over smallest singular value)
_MAX_CONDITION = 1e8


class GeneralizedConjugate(CombinationOp):
    """E(nabla_x(Ey)) + C(x, y) for a chosen twist tensor C."""

    def __init__(self, base: ConnectionOp, structure: EndoField,
                 twist: Tensor12Field, label: str | None = None):
        super().__init__(((1.0, ConjugateConnection(base, structure)), (1.0, twist)),
                         label=label if label is not None else
                         f"gconj({base.label},{structure.label},{twist.label})")


def rotated_twist(twist: Tensor12Field, structure: EndoField,
                  label: str | None = None) -> Sandwiched:
    """E composed after the twist; preserves membership in the duality kernel."""
    return Sandwiched(twist, out=structure, label=label or f"rot({twist.label})")


def mixed_derivative_twist(base: ConnectionOp, structure: EndoField,
                           lam: float, mu: float,
                           label: str | None = None) -> Sandwiched:
    """lam * (nabla E) + mu * E(nabla E), as (lam I + mu E) after one nabla E;
    the kernel is linear, so any mix stays inside."""
    weights = endo_combination(((lam, None), (mu, structure)),
                               label=f"{lam:g}I+{mu:g}{structure.label}")
    return Sandwiched(structure_derivative_twist(base, structure), out=weights,
                      label=label or f"mix({lam:g},{mu:g})d{structure.label}")


def duality_rows(ctx: EvalContext, base: ConnectionOp, structure: EndoField,
                 twist: Tensor12Field) -> Rows:
    """Kernel condition, its equivalence with the double application, and closure.

    The defect row tests the pointwise condition |E(C(X, EY)) + C(X, Y)| on
    the twist alone; the double_application row squares the actual operator
    against the base, and expansion checks the two are reconciled by the
    same algebra.  The two closure rows confirm the canonical solution and
    the rotation symmetry of the solution space.
    """
    E = ctx.endo(structure)
    gen = GeneralizedConjugate(base, structure, twist)
    gen2 = GeneralizedConjugate(gen, structure, twist)
    canonical = structure_derivative_twist(base, structure)
    rotated = rotated_twist(canonical, structure)

    def halves(C, X: Vec, Y: Vec) -> tuple[Vec, Vec]:
        """E(C(X, EY)) and C(X, Y): the defect is their sum."""
        return endo_apply(E, C.apply(ctx, X, endo_apply(E, Y))), C.apply(ctx, X, Y)

    def pair_rows(X: Vec, Y: Vec):
        rot, plain = halves(twist, X, Y)
        yield "defect", vadd(rot, plain)
        square, base_xy = gen2.apply(ctx, X, Y), base.apply(ctx, X, Y)
        yield "double_application", vsub(square, base_xy)
        # squared operator minus [base + E(C(X, EY)) + C(X, Y)], term by term
        yield "expansion", vsub(square, vadd(vadd(base_xy, rot), plain))
        yield "canonical_solution", vadd(*halves(canonical, X, Y))
        yield "rotation_closure", vadd(*halves(rotated, X, Y))

    notes = {"defect": f"twist={twist.label}",
             "double_application": "squared operator against the base",
             "expansion": "square rewritten through the defect",
             "canonical_solution": "structure derivative as the twist",
             "rotation_closure": "rotated canonical twist stays a solution"}
    return [(name, res, notes[name]) for name, res in frame_pair_rows(ctx, pair_rows).items()]


# ---- the two-parameter family -----------------------------------------


def family_member(base: ConnectionOp, structure: EndoField,
                  lam: float, mu: float, label: str | None = None) -> ConnectionOp:
    """(1 + mu) * conjugate + lam * base as one operator."""
    conj = ConjugateConnection(base, structure)
    return CombinationOp(((1.0 + mu, conj), (lam, base)),
                         label=label or f"family({lam:g},{mu:g})")


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
    # independent route: the conjugate by its additive presentation, then scaled
    by_expansion = CombinationOp(((1.0 + mu, expansion_form(base, structure)), (lam, base)))
    conj = ConjugateConnection(base, structure)

    special = _SPECIAL_MEMBERS.get((float(lam), float(mu)))

    def pair_rows(X: Vec, Y: Vec):
        member_xy = member.apply(ctx, X, Y)
        yield "route_agreement", vsub(member_xy, by_expansion.apply(ctx, X, Y))
        if special:
            cb, cc, _ = special
            expect = vadd(vscale(cb, base.apply(ctx, X, Y)), vscale(cc, conj.apply(ctx, X, Y)))
            yield "reduction", vsub(member_xy, expect)

    res = frame_pair_rows(ctx, pair_rows)
    frame = ctx.frame()
    rows: Rows = [
        ("route_agreement", res["route_agreement"],
         "combination operator against the expanded form"),
        ("leibniz_scaling",
         leibniz_defect_residual(ctx, member, (1.0 + mu) + lam,
                                 weight, frame[0], frame[-1]),
         f"defect scale {(1.0 + mu) + lam:g}"),
    ]
    if special:
        rows.append(("reduction", res["reduction"], special[2]))
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
    with np.errstate(all="ignore"):  # a rank-deficient design has condition inf
        condition = Residual(float(scale / sv[-1]))

    # one list of conclusion names for both sides of the gate
    conclusions = ["genericity", *(f"member({lam:g},{mu:g})" for lam, mu in grid),
                   "coefficient_match", "expansion_fit", "solution_count"]

    def measure() -> Rows:
        found = [(Residual(0.0, None, "singular values"),
                  f"basis well conditioned (relative ratio {sv[-1] / scale:.3e})")]
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
            if abs(a_pred - 1.0) <= 1e-12 and abs(b_pred) <= 1e-12:
                solution_set.append((lam, mu))
                residual, note = diff, f"closure predicted; residual {diff:.3e}"
            else:
                # judged against tol downstream like any row: a member
                # predicted not to close reports how far its square falls
                # short of moving the floor away from the base
                residual = np.maximum(floor - diff, 0.0)
                note = f"non-closure predicted; residual {diff:.3e} against floor {floor:g}"
            found.append((Residual(float(residual), None, f"({lam:g},{mu:g})"), note))

            coeffs, _, _, _ = np.linalg.lstsq(design, Vs.ravel(), rcond=None)
            fitted = design @ coeffs
            # np.max, unlike max(), keeps a NaN from any member
            fit_err = float(np.max([fit_err, np.max(np.abs(fitted - Vs.ravel()))]))
            coeff_err = float(np.max([coeff_err, abs(coeffs[0] - a_pred),
                                      abs(coeffs[1] - b_pred)]))

        found += [
            (Residual(coeff_err, None, None),
             f"weights against ((1+mu)^2+lam^2, 2 lam (1+mu)) on {len(grid)} members"),
            (Residual(fit_err, None, None),
             "squared member lies in the span of base and conjugate"),
            (Residual(float(abs(len(solution_set) - 4)), None, None),
             f"closing members found: {sorted(solution_set)}"),
        ]
        return [(name, res, note) for name, (res, note) in zip(conclusions, found, strict=True)]

    return gated(_MAX_CONDITION, [("condition", condition)], conclusions, measure)


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
    dE = structure_derivative_twist(base, structure)
    dE_gen = structure_derivative_twist(gen, structure)
    C = twist.apply

    def pair_rows(X: Vec, Y: Vec):
        # The two gate measurements, the twist's skew part and the
        # structure derivative, ride along with the rows that use them.
        d = dE.apply(ctx, X, Y)
        rhs = vadd(vsub(C(ctx, X, endo_apply(E, Y)), d),
                   vscale(-1.0, endo_apply(E, C(ctx, X, Y))))
        yield "structure_derivative", vsub(dE_gen.apply(ctx, X, Y), rhs)
        yield "parallel", d
        skew = vsub(C(ctx, X, Y), C(ctx, Y, X))
        rhs = vadd(vadd(torsion(ctx, base, X, Y),
                        endo_apply(E, vsub(d, dE.apply(ctx, Y, X)))), skew)
        yield "torsion_form", vsub(torsion(ctx, gen, X, Y), rhs)
        yield "skew", skew

    def collapse(X: Vec, Y: Vec) -> Vec:
        return vsub(torsion(ctx, gen, X, Y), torsion(ctx, base, X, Y))

    res = frame_pair_rows(ctx, pair_rows)
    rows: Rows = [
        ("structure_derivative", res["structure_derivative"],
         "derivative of E under the twisted operator"),
        ("torsion_form", res["torsion_form"],
         "torsion against base torsion, structure curl and twist skew part"),
    ]
    rows += gated(tol, [("skew", res["skew"]), ("parallel", res["parallel"])],
                  ["torsion_collapse"],
                  lambda: [("torsion_collapse", frame_pair_residual(ctx, collapse),
                            "symmetric twist and parallel structure keep the torsion")])
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
    gen = GeneralizedConjugate(base, structure, ZeroOp(base.chart))
    conj = ConjugateConnection(base, structure)

    def defect(X: Vec, Y: Vec) -> Vec:
        return vsub(gen.apply(ctx, X, Y), conj.apply(ctx, X, Y))
    return [("zero_twist", frame_pair_residual(ctx, defect),
             "twisted operator with no twist equals the conjugate")]
