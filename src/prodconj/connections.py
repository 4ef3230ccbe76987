"""Connections as composable jet operators.

A ConnectionOp maps (direction jets, argument jets) at order k to result
jets at order k-1, against a shared evaluation context.  Every operator is
a coefficient-table contraction (ChristoffelConnection, or a component
Tensor12Field), endomorphisms applied around another operator (Sandwiched),
a linear combination (CombinationOp) or ZeroOp.  Leaves compare by
identity, composites by their operands, slots and coefficients, never by
label.

Every operator also has a per-context Christoffel normal form
S(x, y) = W·x(y) + Γ(x, y) (`normal_form`).  Γ is the frame-pair table,
Γ[k][i][j] = S(d_i, d_j)^k at order <= 1, None for an exact zero; W is the
derivative weight, a formal sum of words of endomorphism fields, so that
the weights of a connection's terms cancel exactly by structure (W = {} for
nabla E).  A composite builds its table once per context from its operands'
tables.  A Sandwiched node applied to a frame pair reads its table, and a
CombinationOp folds its terms' frame-pair columns; every other operand
takes the composed route, which applies the operands themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import ConfigError
from .expr import Expr
from .fields import (EndoField, EvalContext, FrameVector, Grid, MetricField, Tensor12Field,
                     Vec, Chart, bracket, contract, dirderiv, endo_apply,
                     metric_pair, vadd, vscale, vsub, vvalues, worst)
from .jets import Jet, shift


class ConnectionOp:
    """Base operator; subclasses implement apply(ctx, x, y) -> Vec and
    normal_form(ctx) -> (W, table)."""

    label = "nabla"
    chart: Chart

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        raise NotImplementedError

    def normal_form(self, ctx: EvalContext) -> tuple[dict | None, list]:
        """(W, Γ) with self(x, y) = W·x(y) + Γ(x, y).  W maps words, tuples
        of endomorphism fields applied right to left, to coefficients:
        {(): 1.0} is the identity and {} is 0.  W is None when the operator
        has no such form; its table still holds its frame-pair values."""
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

    def normal_form(self, ctx: EvalContext) -> tuple[dict, list]:
        return {(): 1.0}, self._jets(ctx)


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
            gammas = [Grid([None] * n for _ in range(n)) for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    braces = [dmet[i][j][l] + dmet[j][i][l] - dmet[l][i][j] for l in range(n)]
                    for k, total in enumerate(endo_apply(inv_jets, braces)):
                        gammas[k][i][j] = gammas[k][j][i] = total * 0.5
            return gammas
        return ctx.cached((self, "gamma"), build)


def _column(table, x: FrameVector, y: FrameVector) -> Vec:
    """The table at the frame pair (d_i, d_j), the constant 0 for None."""
    i, j = x.index, y.index
    zero = Jet.constant(0.0, x[0].dim, 1, x[0].value.shape)
    return [zero if e is None else e for e in (plane[i][j] for plane in table)]


def _order1(v: Vec) -> Vec:
    return [e.truncated(min(e.order, 1)) for e in v]


def _tabulated(ctx: EvalContext, entry) -> list[Grid]:
    """The frame-pair table whose column at (d_i, d_j) is entry(i, j), each
    entry as `_stored` keeps it."""
    n = ctx.chart.dim
    table = [Grid([None] * n for _ in range(n)) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for plane, e in zip(table, entry(i, j)):
                plane[i][j] = _stored(e)
    return table


def _stored(e: Jet) -> Jet | None:
    """e at order <= 1; a constant jet when its value is one finite number
    at every sample and its gradient is zero, so that it holds no per-sample
    array; None for the constant 0."""
    e = e.truncated(min(e.order, 1))
    if e.const is None:
        c = float(e.value.flat[0]) if e.value.size else math.nan
        if math.isfinite(c) and (e.value == c).all() and (e.grad is None or not e.grad.any()):
            e = e.like_constant(c)
    return None if e.const == 0.0 else e


def _weight_block(ctx: EvalContext, weight: dict) -> list[list[Jet]]:
    """The weight W = sum c·P over its words P as the block row
    [c1·P1 | c2·P2 | ...], so that W·u is one `endo_apply` of it against u
    repeated once per word.  Column m of a word's P is its endomorphisms
    applied to d_m, right to left."""
    frame = ctx.frame()
    words = [(c, [reduce(lambda v, F: endo_apply(ctx.endo(F), v), reversed(word), e)
                  for e in frame]) for word, c in weight.items()]
    return [[col[k] * c for c, cols in words for col in cols] for k in range(ctx.chart.dim)]


def _same_chart(pieces, what: str) -> Chart:
    if any(p.chart is not pieces[0].chart for p in pieces):
        raise ConfigError(f"{what} {[p.label for p in pieces]} live on different charts")
    return pieces[0].chart


@dataclass(frozen=True)
class Sandwiched(ConnectionOp):
    """out(op_{along x}(arg y)) for endomorphism fields out, arg and along.

    A None slot is the identity.  op is a connection or a (1,2)-tensor; a
    connection stays one when out after arg is the identity (E nabla E).
    """

    op: ConnectionOp | Tensor12Field
    out: EndoField | None = None
    arg: EndoField | None = None
    along: EndoField | None = None
    label: str = field(default="nabla", compare=False)

    def __post_init__(self):
        pieces = [f for f in (self.op, self.out, self.arg, self.along) if f is not None]
        object.__setattr__(self, "chart", _same_chart(pieces, "operator and endomorphisms"))

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        if isinstance(x, FrameVector) and isinstance(y, FrameVector):
            return _column(self.normal_form(ctx)[1], x, y)
        if self.along is not None:
            x = endo_apply(ctx.endo(self.along), x)
        if self.arg is not None:
            y = endo_apply(ctx.endo(self.arg), y)
        r = self.op.apply(ctx, x, y)
        return r if self.out is None else endo_apply(ctx.endo(self.out), r)

    def normal_form(self, ctx: EvalContext) -> tuple[dict | None, list]:
        """W' = O·W·R and Γ'(d_i, d_j) = O·(W·d_{L d_i}(R d_j) + Γ(L d_i, R d_j)).
        With L not the identity that holds only for W = {}; otherwise W' is
        None and the table holds O·op(L d_i, R d_j) from the composed route."""
        return ctx.cached((self, "table"), lambda: self._normal_form(ctx))

    def _normal_form(self, ctx: EvalContext) -> tuple[dict | None, list]:
        weight, table = self.op.normal_form(ctx)
        O, R, L = (None if f is None else ctx.endo(f) for f in (self.out, self.arg, self.along))
        frame = ctx.frame()
        xs = frame if L is None else [endo_apply(L, e) for e in frame]
        ys = frame if R is None else [endo_apply(R, e) for e in frame]
        formed = weight is not None and (L is None or not weight)
        block = _weight_block(ctx, weight) if formed and weight and R is not None else None
        args = ys if R is None else [_order1(y) for y in ys]

        def entry(i, j):
            if not formed:
                r = self.op.apply(ctx, xs[i], ys[j])
            else:
                # d_{d_i}(R d_j) is column j of R's partials along i.
                start = None if block is None else endo_apply(
                    block, [dirderiv(frame[i], e) for e in ys[j]] * len(weight))
                r = contract(table, xs[i], args[j], start=start)
            r = _order1(r)
            return r if O is None else endo_apply(O, r)
        if formed:
            weight = {_slot(self.out) + word + _slot(self.arg): c for word, c in weight.items()}
        return weight if formed else None, _tabulated(ctx, entry)


def _slot(f: EndoField | None) -> tuple:
    return () if f is None else (f,)


@dataclass(frozen=True)
class CombinationOp(ConnectionOp):
    """Pointwise linear combination of operators and (1,2)-tensors.

    A connection only when the connection terms' coefficients sum to one;
    callers that rely on connection axioms must check the Leibniz defect,
    which for coefficient sum s equals (s - 1) * X(f) * Y exactly.
    """

    terms: tuple
    label: str = field(default="combination", compare=False)

    def __post_init__(self):
        terms = tuple((float(c), op) for c, op in self.terms)
        if not terms:
            raise ConfigError("combination needs at least one term")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "chart", _same_chart([op for _, op in terms], "combination terms"))

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        acc = None
        for c, op in self.terms:
            piece = op.apply(ctx, x, y)
            if c != 1.0:
                piece = vscale(c, piece)
            acc = piece if acc is None else vadd(acc, piece)
        return acc

    def normal_form(self, ctx: EvalContext) -> tuple[dict | None, list]:
        """W = sum c·W_t, with words that cancel dropped, and Γ = sum c·Γ_t,
        whose column at a frame pair is `apply`'s fold of the terms' own
        columns there."""
        return ctx.cached((self, "table"), lambda: self._normal_form(ctx))

    def _normal_form(self, ctx: EvalContext) -> tuple[dict | None, list]:
        parts = [(c, op.normal_form(ctx)[0]) for c, op in self.terms]
        weight = None
        if all(w is not None for _, w in parts):
            words = dict.fromkeys(word for _, w in parts for word in w)
            weight = {word: s for word in words
                      if (s := sum(c * w.get(word, 0.0) for c, w in parts)) != 0.0}
        frame = ctx.frame()
        return weight, _tabulated(ctx, lambda i, j: self.apply(ctx, frame[i], frame[j]))


class SumConnection(CombinationOp):
    """base + (1,2)-tensor; still a connection because the defect is tensorial."""

    def __init__(self, base: ConnectionOp, tensor, label: str = "combination"):
        super().__init__(((1.0, base), (1.0, tensor)), label)


@dataclass(frozen=True)
class ZeroOp(ConnectionOp):
    """The zero bilinear map; what degenerate combinations collapse to."""

    chart: Chart

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        return [x[0].like_constant(0.0)] * self.chart.dim

    def normal_form(self, ctx: EvalContext) -> tuple[dict, list]:
        n = self.chart.dim
        return {}, [Grid([None] * n for _ in range(n)) for _ in range(n)]


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
                               label: str = "combination") -> CombinationOp:
    """(nabla_x E)y = nabla_x(Ey) - E(nabla_x y) as a tensor node; the
    canonical kernel element."""
    return CombinationOp(((1.0, Sandwiched(base, arg=structure)),
                          (-1.0, Sandwiched(base, out=structure))), label)


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
    return worst(ctx, [("direction", direction)]).merged(
        leibniz_defect_residual(ctx, nabla, 1.0, f, x, y, label="argument"))


def leibniz_defect_residual(ctx: EvalContext, op: ConnectionOp, coefficient_sum: float,
                            f: Expr, x: Vec, y: Vec, label: str = "leibniz-defect"):
    """|nabla_x(fy) - f nabla_x y - s X(f) y| with the defect scale s pinned."""
    fj = ctx.scalar(f)
    lhs = op.apply(ctx, x, vscale(fj, y))
    xf = dirderiv(x, fj)
    rhs = vadd(vscale(fj, op.apply(ctx, x, y)), vscale(xf * coefficient_sum, y))
    return worst(ctx, [(label, vvalues(lhs) - vvalues(rhs))])
