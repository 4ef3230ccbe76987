"""Connections as composable jet operators.

A ConnectionOp maps (direction jets, argument jets) at order k to result
jets at order k-1, against a shared evaluation context.  Operators close
over each other rather than materializing coefficient tables, so derived
connections (conjugates, projections, sums) evaluate exactly.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import ConfigError
from .expr import Expr
from .fields import (EvalContext, MetricField, Tensor12Field, Vec, Chart,
                     bracket, dirderiv, endo_apply, is_zero_expr,
                     metric_pair, vadd, vscale, vsub, vvalues, worst)
from .jets import Jet, shift


class ConnectionOp:
    """Base operator; subclasses implement apply(ctx, x, y) -> Vec."""

    label = "nabla"
    chart: Chart

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        raise NotImplementedError

    def __call__(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        return self.apply(ctx, x, y)


class ChristoffelConnection(ConnectionOp):
    """Coordinate connection from a table of coefficient expressions.

    gamma[k][i][j] is the k-th output component of the derivative of the
    j-th frame field along the i-th frame field.
    """

    def __init__(self, chart: Chart, gamma, label: str = "nabla"):
        n = chart.dim
        if len(gamma) != n or any(
                len(plane) != n or any(len(row) != n for row in plane) for plane in gamma):
            raise ConfigError(f"connection {label!r} needs a {n}x{n}x{n} coefficient grid")
        self.chart = chart
        self.gamma = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
        self.label = label

    def _jets(self, ctx: EvalContext):
        def build():
            return [[[None if is_zero_expr(e) else ctx.scalar(e) for e in row]
                     for row in plane] for plane in self.gamma]
        return ctx.cached((self, "gamma"), build)

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        G = self._jets(ctx)
        n = self.chart.dim
        out = []
        for k in range(n):
            acc = None
            for i in range(n):
                term = x[i] * shift(y[k], i)
                acc = term if acc is None else acc + term
                for j in range(n):
                    g = G[k][i][j]
                    if g is not None:
                        acc = acc + g * x[i] * y[j]
            out.append(acc)
        return out


def flat_connection(chart: Chart, label: str = "flat") -> ChristoffelConnection:
    from .expr import ZERO
    n = chart.dim
    zeros = tuple(tuple(tuple(ZERO for _ in range(n)) for _ in range(n)) for _ in range(n))
    return ChristoffelConnection(chart, zeros, label=label)


class LeviCivitaConnection(ConnectionOp):
    """The unique torsion-free metric connection, built numerically.

    Coefficient jets are assembled per context from metric jets and the
    batched inverse metric (with its first derivative via -G dG G), which
    is exactly the depth the order budget ever needs.
    """

    def __init__(self, metric: MetricField, label: str | None = None):
        self.metric = metric
        self.chart = metric.chart
        self.label = label or f"levi_civita({metric.label})"

    def _jets(self, ctx: EvalContext):
        def build():
            n = self.chart.dim
            G = ctx.metric(self.metric)
            Gv = ctx.metric_values(self.metric)
            Ginv = np.linalg.inv(Gv)
            # dG[:, i, a, b] = derivative of entry (a, b) along coordinate i
            dG = np.empty(Gv.shape[:1] + (n, n, n))
            for a in range(n):
                for b in range(n):
                    dG[:, :, a, b] = G[a][b].grad
            dGinv = -np.einsum("mab,mibc,mcd->miad", Ginv, dG, Ginv)
            inv_jets = [[Jet(n, 1, Ginv[:, a, b], dGinv[:, :, a, b])
                         for b in range(n)] for a in range(n)]
            dmet = [[[shift(G[a][b], i) for b in range(n)] for a in range(n)]
                    for i in range(n)]
            gammas = [[[None] * n for _ in range(n)] for _ in range(n)]
            for k in range(n):
                for i in range(n):
                    for j in range(i, n):
                        acc = None
                        for l in range(n):
                            brace = dmet[i][j][l] + dmet[j][i][l] - dmet[l][i][j]
                            term = inv_jets[k][l] * brace
                            acc = term if acc is None else acc + term
                        gammas[k][i][j] = gammas[k][j][i] = acc * 0.5
            return gammas
        return ctx.cached((self, "gamma"), build)

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        G = self._jets(ctx)
        n = self.chart.dim
        out = []
        for k in range(n):
            acc = None
            for i in range(n):
                term = x[i] * shift(y[k], i)
                for j in range(n):
                    term = term + G[k][i][j] * x[i] * y[j]
                acc = term if acc is None else acc + term
            out.append(acc)
        return out


def levi_civita(metric: MetricField) -> LeviCivitaConnection:
    return LeviCivitaConnection(metric)


class SumConnection(ConnectionOp):
    """base + (1,2)-tensor; still a connection because the defect is tensorial."""

    def __init__(self, base: ConnectionOp, tensor: Tensor12Field, label: str | None = None):
        self.base = base
        self.tensor = tensor
        self.chart = base.chart
        self.label = label or f"({base.label} + {tensor.label})"

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        return vadd(self.base.apply(ctx, x, y), self.tensor.apply(ctx, x, y))


class CombinationOp(ConnectionOp):
    """Pointwise linear combination of operators.

    A connection only when the coefficients sum to one; callers that rely
    on connection axioms must check the Leibniz defect, which for
    coefficient sum s equals (s - 1) * X(f) * Y exactly.
    """

    def __init__(self, terms, label: str = "combination"):
        terms = tuple((float(c), op) for c, op in terms)
        if not terms:
            raise ConfigError("combination needs at least one term")
        self.terms = terms
        self.chart = terms[0][1].chart
        self.label = label

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        acc = None
        for c, op in self.terms:
            piece = op.apply(ctx, x, y)
            if c != 1.0:
                piece = vscale(c, piece)
            acc = piece if acc is None else vadd(acc, piece)
        return acc


class ZeroOp(ConnectionOp):
    """The zero bilinear map; what degenerate combinations collapse to."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self.label = "zero"

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        z = ctx.zero_scalar()
        return [z] * self.chart.dim


# ---- derived quantities ----------------------------------------------


def torsion(ctx: EvalContext, nabla: ConnectionOp, x: Vec, y: Vec) -> Vec:
    return vsub(vsub(nabla.apply(ctx, x, y), nabla.apply(ctx, y, x)), bracket(x, y))


def curvature(ctx: EvalContext, nabla: ConnectionOp, x: Vec, y: Vec, z: Vec) -> Vec:
    """R(x, y)z; consumes two jet orders, so feed order-2 inputs."""
    t1 = nabla.apply(ctx, x, nabla.apply(ctx, y, z))
    t2 = nabla.apply(ctx, y, nabla.apply(ctx, x, z))
    t3 = nabla.apply(ctx, bracket(x, y), z)
    return vsub(vsub(t1, t2), t3)


def nabla_endo(ctx: EvalContext, nabla: ConnectionOp, E: list[list[Jet]],
               x: Vec, y: Vec) -> Vec:
    """(derivative of E along x) applied to y: nabla_x(Ey) - E(nabla_x y)."""
    return vsub(nabla.apply(ctx, x, endo_apply(E, y)),
                endo_apply(E, nabla.apply(ctx, x, y)))


def dnabla_endo(ctx: EvalContext, nabla: ConnectionOp, E: list[list[Jet]],
                x: Vec, y: Vec) -> Vec:
    """Antisymmetrized endomorphism derivative (exterior-derivative style)."""
    return vsub(nabla_endo(ctx, nabla, E, x, y), nabla_endo(ctx, nabla, E, y, x))


def nabla_metric(ctx: EvalContext, nabla: ConnectionOp, G: list[list[Jet]],
                 x: Vec, v: Vec, w: Vec) -> Jet:
    """(derivative of g along x)(v, w) by the product rule."""
    s = dirderiv(x, metric_pair(G, v, w))
    s = s - metric_pair(G, nabla.apply(ctx, x, v), w)
    s = s - metric_pair(G, v, nabla.apply(ctx, x, w))
    return s


def symmetric_product(ctx: EvalContext, nabla: ConnectionOp, x: Vec, y: Vec) -> Vec:
    return vadd(nabla.apply(ctx, x, y), nabla.apply(ctx, y, x))


# ---- contract residuals ----------------------------------------------


def torsion_residual(ctx: EvalContext, nabla: ConnectionOp):
    frame, label = ctx.frame(), ctx.chart.frame_label
    return worst(ctx, ((label(i, j), torsion(ctx, nabla, frame[i], frame[j]))
                       for i, j in combinations(range(nabla.chart.dim), 2)))


def metricity_residual(ctx: EvalContext, nabla: ConnectionOp, g: MetricField):
    G = ctx.metric(g)
    ctx.metric_values(g)
    frame, label = ctx.frame(), ctx.chart.frame_label
    n = nabla.chart.dim
    return worst(ctx, ((label(i, a, b), nabla_metric(ctx, nabla, G, frame[i], frame[a], frame[b]))
                       for i in range(n)
                       for a, b in combinations_with_replacement(range(n), 2)))


def connection_laws_residual(ctx: EvalContext, nabla: ConnectionOp,
                             f: Expr, x: Vec, y: Vec):
    """Direction tensoriality and the Leibniz rule against one weight function."""
    fj = ctx.scalar(f)
    direction = vvalues(nabla.apply(ctx, vscale(fj, x), y)) - \
        vvalues(vscale(fj, nabla.apply(ctx, x, y)))
    lhs = nabla.apply(ctx, x, vscale(fj, y))
    rhs = vadd(vscale(dirderiv(x, fj), y), vscale(fj, nabla.apply(ctx, x, y)))
    return worst(ctx, [("direction", direction), ("argument", vvalues(lhs) - vvalues(rhs))])


def leibniz_defect_residual(ctx: EvalContext, op: ConnectionOp, coefficient_sum: float,
                            f: Expr, x: Vec, y: Vec):
    """|nabla_x(fy) - f nabla_x y - s X(f) y| with the defect scale s pinned."""
    fj = ctx.scalar(f)
    lhs = op.apply(ctx, x, vscale(fj, y))
    xf = dirderiv(x, fj)
    rhs = vadd(vscale(fj, op.apply(ctx, x, y)), vscale(xf * coefficient_sum, y))
    return worst(ctx, [("leibniz-defect", vvalues(lhs) - vvalues(rhs))])
