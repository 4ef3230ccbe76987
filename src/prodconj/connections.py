"""Connections as composable jet operators.

A ConnectionOp maps (direction jets, argument jets) at order k to result
jets at order k-1, against a shared evaluation context.  Every operator is
a coefficient-table contraction (ChristoffelConnection, or a component
Tensor12Field), endomorphisms applied around another operator (Sandwiched),
a linear combination (CombinationOp) or ZeroOp; composites never
materialize tables, so they are exact.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import ConfigError
from .expr import Expr
from .fields import (EndoField, EvalContext, MetricField, Tensor12Field, Vec, Chart,
                     bracket, contract, dirderiv, endo_apply,
                     metric_pair, vadd, vscale, vsub, vvalues, worst)
from .jets import Jet, shift


class ConnectionOp:
    """Base operator; subclasses implement apply(ctx, x, y) -> Vec."""

    label = "nabla"
    chart: Chart

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        raise NotImplementedError


class ChristoffelConnection(ConnectionOp):
    """Coordinate connection from a table of coefficient expressions.

    gamma[k][i][j] is the k-th output component of the derivative of the
    j-th frame field along the i-th frame field.  The table is held as a
    component tensor; apply adds the coordinate derivative to it.
    """

    def __init__(self, chart: Chart, gamma, label: str = "nabla"):
        self.chart = chart
        self.table = Tensor12Field.from_components(chart, gamma, label)
        self.label = label

    def _jets(self, ctx: EvalContext):
        return ctx.tensor_components(self.table)

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        return contract(self._jets(ctx), x, y, start=(dirderiv(x, yk) for yk in y))


def flat_connection(chart: Chart, label: str = "flat") -> ChristoffelConnection:
    from .expr import ZERO
    n = chart.dim
    zeros = tuple(tuple(tuple(ZERO for _ in range(n)) for _ in range(n)) for _ in range(n))
    return ChristoffelConnection(chart, zeros, label=label)


class LeviCivitaConnection(ChristoffelConnection):
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
            for i in range(n):
                for j in range(i, n):
                    braces = [dmet[i][j][l] + dmet[j][i][l] - dmet[l][i][j] for l in range(n)]
                    for k, total in enumerate(endo_apply(inv_jets, braces)):
                        gammas[k][i][j] = gammas[k][j][i] = total * 0.5
            return gammas
        return ctx.cached((self, "gamma"), build)


def _same_chart(pieces, what: str) -> None:
    if any(p.chart is not pieces[0].chart for p in pieces):
        raise ConfigError(f"{what} {[p.label for p in pieces]} live on different charts")


class Sandwiched(ConnectionOp):
    """out(op_{along x}(arg y)) for endomorphism fields out, arg and along.

    A None slot is the identity.  op is a connection or a (1,2)-tensor; a
    connection stays one when out after arg is the identity (E nabla E).
    """

    def __init__(self, op, out: EndoField | None = None, arg: EndoField | None = None,
                 along: EndoField | None = None, label: str | None = None):
        _same_chart([f for f in (op, out, arg, along) if f is not None],
                    "operator and endomorphisms")
        self.op, self.out, self.arg, self.along = op, out, arg, along
        self.chart = op.chart
        self.label = label if label is not None else op.label

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        if self.along is not None:
            x = endo_apply(ctx.endo(self.along), x)
        if self.arg is not None:
            y = endo_apply(ctx.endo(self.arg), y)
        r = self.op.apply(ctx, x, y)
        return r if self.out is None else endo_apply(ctx.endo(self.out), r)


class CombinationOp(ConnectionOp):
    """Pointwise linear combination of operators and (1,2)-tensors.

    A connection only when the connection terms' coefficients sum to one;
    callers that rely on connection axioms must check the Leibniz defect,
    which for coefficient sum s equals (s - 1) * X(f) * Y exactly.
    """

    def __init__(self, terms, label: str = "combination"):
        terms = tuple((float(c), op) for c, op in terms)
        if not terms:
            raise ConfigError("combination needs at least one term")
        _same_chart([op for _, op in terms], "combination terms")
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


class SumConnection(CombinationOp):
    """base + (1,2)-tensor; still a connection because the defect is tensorial."""

    def __init__(self, base: ConnectionOp, tensor, label: str | None = None):
        super().__init__(((1.0, base), (1.0, tensor)),
                         label=label or f"({base.label} + {tensor.label})")


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


def structure_derivative_twist(base: ConnectionOp, structure: EndoField,
                               label: str | None = None) -> CombinationOp:
    """(nabla_x E)y = nabla_x(Ey) - E(nabla_x y) as a tensor node; the
    canonical kernel element."""
    return CombinationOp(((1.0, Sandwiched(base, arg=structure)),
                          (-1.0, Sandwiched(base, out=structure))),
                         label=label or f"d{structure.label}")


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
