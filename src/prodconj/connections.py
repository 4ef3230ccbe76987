"""Connections as composable jet operators.

A ConnectionOp maps (direction jets, argument jets) at order k to result
jets at order k-1, against a shared evaluation context.  Every operator is
a coefficient-table contraction (ChristoffelConnection, or a component
Tensor12Field), endomorphisms applied around another operator (Sandwiched),
a linear combination (CombinationOp) or ZeroOp.  Leaves compare by
identity, composites by their operands, slots and coefficients, never by
label.

Every operator has a per-context Christoffel normal form (`normal_form`)

    S(x, y) = sum c·P(d_{Qx} y) + Γ(x, y),

and `ConnectionOp.apply` reads it for every operand.  The weight W maps
words (outs P, alongs Q), each a tuple of endomorphism fields applied right
to left, to coefficients c, so that the weights of a connection's terms
cancel exactly by structure (W = {} for nabla E).  Γ is the frame-pair
table, Γ[k][i][j] = S(d_i, d_j)^k, since a frame field has no derivative;
None is an exact zero.  A leaf's table is its coefficient jets.  A
composite builds its form once per context from its operands' forms, and
stores its entries at order <= 1, the most an apply can use; no form
applies an operator.

Torsion and curvature read per-node tables for every operand, since on a
connection both are tensors.  `torsion` is Γ(x, y) - Γ(y, x) of the
frame-pair table.  `frame_curvature` reads R(d_i, d_j)z from R[i][j], the
matrix of R(d_i, d_j), built once per context for i < j:
R(d_i, d_j)d_k = S(d_i, S(d_j, d_k)) - S(d_j, S(d_i, d_k)), one apply of
the normal form per term, since the bracket of two frame fields is 0; it
reads R_ji = -R_ij with a sign.  `curvature` contracts x and y against
those images.  The composed definitions, with applies and a bracket, are
the tests' oracles.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import ConfigError
from .expr import Expr
from .fields import (EndoField, EvalContext, MetricField, Tensor12Field, Vec, Chart,
                     contract, dirderiv, endo_apply, metric_pair, vadd, vneg, vscale, vsub,
                     vvalues, worst)
from .jets import Jet, shift
from .reporting import Keyed


class ConnectionOp:
    """Base operator.  A composite gives _normal_form(ctx) -> (W, Γ), which
    normal_form builds once per context, and a leaf overrides normal_form;
    apply(ctx, x, y) -> Vec reads it."""

    label = "nabla"
    chart: Chart

    def normal_form(self, ctx: EvalContext) -> tuple[dict, list]:
        """(W, Γ) with self(x, y) = sum c·P(d_{Qx} y) + Γ(x, y) over the
        words (P, Q) -> c of W: {((), ()): 1.0} is the coordinate derivative
        and {} is none."""
        return ctx.cached((self, "table"), lambda: self._normal_form(ctx))

    def apply(self, ctx: EvalContext, x: Vec, y: Vec) -> Vec:
        return _evaluate(ctx, *self.normal_form(ctx), x, y)


def _evaluate(ctx: EvalContext, weight: dict, table, x: Vec, y: Vec) -> Vec:
    """sum c·P(d_{Qx} y) + Γ(x, y) for the normal form (W, Γ), with one
    `dirderiv` pass per distinct along word Q."""
    derivs: dict = {}
    start = None
    for (outs, alongs), c in weight.items():
        d = derivs.get(alongs)
        if d is None:
            u = _word(ctx, alongs, x)
            d = derivs[alongs] = [dirderiv(u, yk) for yk in y]
        term = _word(ctx, outs, d)
        if c != 1.0:
            term = vscale(c, term)
        start = term if start is None else vadd(start, term)
    return contract(table, x, y, start=start)


def _order1(e: Jet) -> Jet:
    """e at order <= 1, the most an apply's result holds."""
    return e.truncated(min(e.order, 1))


def _word(ctx: EvalContext, word: tuple, v: Vec) -> Vec:
    """The endomorphisms of `word` applied to v, right to left."""
    for F in reversed(word):
        v = endo_apply(ctx.endo(F), v)
    return v


def _fold(terms) -> Jet | None:
    """sum c·e over (c, e) table entries at order <= 1, a None e being
    zero; None when every e is."""
    acc = None
    for c, e in terms:
        if e is not None:
            e = _order1(e)
            term = e if c == 1.0 else e * c
            acc = term if acc is None else acc + term
    return acc


class ChristoffelConnection(ConnectionOp):
    """Coordinate connection from a table of coefficient expressions.

    gamma[k][i][j] is the k-th output component of the derivative of the
    j-th frame field along the i-th frame field.  The table is held as a
    component tensor, and the normal form adds the coordinate derivative.
    """

    def __init__(self, chart: Chart, gamma, label: str = "nabla"):
        self.chart = chart
        self.table = Tensor12Field.from_components(chart, gamma, label)
        self.label = label

    def _jets(self, ctx: EvalContext):
        return ctx.tensor_components(self.table)

    def normal_form(self, ctx: EvalContext) -> tuple[dict, list]:
        return {((), ()): 1.0}, self._jets(ctx)


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
            gammas = _empty_table(n)
            for i in range(n):
                for j in range(i, n):
                    braces = [dmet[i][j][l] + dmet[j][i][l] - dmet[l][i][j] for l in range(n)]
                    for k, total in enumerate(endo_apply(inv_jets, braces)):
                        gammas[k][i][j] = gammas[k][j][i] = total * 0.5
            return gammas
        return ctx.cached((self, "gamma"), build)


def _empty_table(n: int) -> list:
    return [[[None] * n for _ in range(n)] for _ in range(n)]


def _tabulated(ctx: EvalContext, entry) -> list:
    """The frame-pair table whose column at (d_i, d_j) is entry(i, j), each
    entry as `_stored` keeps it."""
    n = ctx.chart.dim
    table = _empty_table(n)
    for i in range(n):
        for j in range(n):
            for plane, e in zip(table, entry(i, j)):
                plane[i][j] = _stored(e)
    return table


def _stored(e: Jet | None) -> Jet | None:
    """e at order <= 1; a constant jet when its value is one finite number
    at every sample and its gradient is zero, so that it holds no per-sample
    array; None for None and for the constant 0."""
    if e is None:
        return None
    e = _order1(e)
    if e.const is None:
        c = float(e.value.flat[0]) if e.value.size else math.nan
        if math.isfinite(c) and (e.value == c).all() and (e.grad is None or not e.grad.any()):
            e = e.like_constant(c)
    return None if e.const == 0.0 else e


def _same_chart(pieces, what: str) -> Chart:
    if any(p.chart is not pieces[0].chart for p in pieces):
        raise ConfigError(f"{what} {[p.label for p in pieces]} live on different charts")
    return pieces[0].chart


def _slot(f: EndoField | None) -> tuple:
    return () if f is None else (f,)


class Sandwiched(Keyed, ConnectionOp):
    """out(op_{along x}(arg y)) for endomorphism fields out, arg and along.

    A None slot is the identity.  op is a connection or a (1,2)-tensor; a
    connection stays one when out after arg is the identity (E nabla E).
    """

    def __init__(self, op: ConnectionOp | Tensor12Field, out: EndoField | None = None,
                 arg: EndoField | None = None, along: EndoField | None = None,
                 label: str = "nabla"):
        pieces = [f for f in (op, out, arg, along) if f is not None]
        self.chart = _same_chart(pieces, "operator and endomorphisms")
        self.op = op
        self.out = out
        self.arg = arg
        self.along = along
        self.label = label
        self._key = (op, out, arg, along)
        self._hash = hash(self._key)

    def _normal_form(self, ctx: EvalContext) -> tuple[dict, list]:
        """Each word (P, Q) of op becomes (O·P·R, Q·L), and
        Γ'(d_i, d_j) = O·(sum c·P(d_{QL d_i}(R d_j)) + Γ(L d_i, R d_j)),
        where d_{QL d_i}(R d_j) derives R's column j, d_j being constant."""
        weight, table = self.op.normal_form(ctx)
        frame = ctx.frame()
        # x at order 1 keeps every product at the order the table stores.
        xs = [[_order1(c) for c in _word(ctx, _slot(self.along), e)] for e in frame]
        ys = [_word(ctx, _slot(self.arg), e) for e in frame]
        out = _slot(self.out)

        def entry(i, j):
            return _word(ctx, out, _evaluate(ctx, weight, table, xs[i], ys[j]))
        words = {(out + outs + _slot(self.arg), alongs + _slot(self.along)): c
                 for (outs, alongs), c in weight.items()}
        return words, _tabulated(ctx, entry)


class CombinationOp(Keyed, ConnectionOp):
    """Pointwise linear combination of operators and (1,2)-tensors.

    A connection only when the connection terms' coefficients sum to one;
    callers that rely on connection axioms must check the Leibniz defect,
    which for coefficient sum s equals (s - 1) * X(f) * Y exactly.
    """

    def __init__(self, terms: tuple, label: str = "combination"):
        terms = tuple((float(c), op) for c, op in terms)
        if not terms:
            raise ConfigError("combination needs at least one term")
        self.chart = _same_chart([op for _, op in terms], "combination terms")
        self.terms = terms
        self.label = label
        self._key = terms
        self._hash = hash(self._key)

    def _normal_form(self, ctx: EvalContext) -> tuple[dict, list]:
        """W = sum c·W_t, with words that cancel dropped, and Γ = sum c·Γ_t
        entry by entry."""
        forms = [(c, *op.normal_form(ctx)) for c, op in self.terms]
        words = dict.fromkeys(word for _, w, _ in forms for word in w)
        weight = {word: s for word in words
                  if (s := sum(c * w.get(word, 0.0) for c, w, _ in forms)) != 0.0}
        n = self.chart.dim
        return weight, _tabulated(ctx, lambda i, j: [
            _fold((c, t[k][i][j]) for c, _, t in forms) for k in range(n)])


class SumConnection(CombinationOp):
    """base + (1,2)-tensor; still a connection because the defect is tensorial."""

    def __init__(self, base: ConnectionOp, tensor, label: str = "combination"):
        super().__init__(((1.0, base), (1.0, tensor)), label)


class ZeroOp(Keyed, ConnectionOp):
    """The zero bilinear map; what degenerate combinations collapse to."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self._key = (chart,)
        self._hash = hash(self._key)

    def _normal_form(self, ctx: EvalContext) -> tuple[dict, list]:
        return {}, _empty_table(self.chart.dim)


# ---- derived quantities ----------------------------------------------


def torsion(ctx: EvalContext, nabla: ConnectionOp, x: Vec, y: Vec) -> Vec:
    """T(x, y) = Γ(x, y) - Γ(y, x), read from the frame-pair table: the
    torsion of a connection is a tensor, and at a frame pair the derivative
    words and the bracket are 0.  `contract` reads the table as an apply
    does, so a non-finite entry reaches the same components."""
    _, table = nabla.normal_form(ctx)
    return vsub(contract(table, x, y), contract(table, y, x))


def curvature(ctx: EvalContext, nabla: ConnectionOp, x: Vec, y: Vec, z: Vec) -> Vec:
    """R(x, y)z = sum x^i y^j R(d_i, d_j)z over the frame reader's images:
    the curvature of a connection is a tensor."""
    n = ctx.chart.dim
    images = [[frame_curvature(ctx, nabla, i, j, z) for j in range(n)] for i in range(n)]
    table = [[[images[i][j][m] for j in range(n)] for i in range(n)] for m in range(n)]
    return contract(table, x, y)


def frame_curvature(ctx: EvalContext, nabla: ConnectionOp, i: int, j: int, z: Vec) -> Vec:
    """R(d_i, d_j)z from the node's table, built once per context: R_ij z
    for i <= j and -R_ji z for i > j, since the table stores R_ij once."""
    R = ctx.cached((nabla, "curvature"), lambda: _curvature_table(ctx, nabla))
    return endo_apply(R[i][j], z) if i <= j else vneg(endo_apply(R[j][i], z))


def _curvature_table(ctx: EvalContext, nabla: ConnectionOp) -> list:
    """R[i][j], the matrix of R(d_i, d_j), for i < j: R(d_i, d_j)d_k =
    A_ijk - A_jik with A_ijk = S(d_i, S(d_j, d_k)), one apply of the normal
    form each, since the bracket of two frame fields is 0.  R_ii is the
    shared zero matrix and R_ji (= -R_ij) is None.  Entries are values
    (order 0), kept as `_stored` keeps them, an exact zero as the constant
    0, so that `endo_apply` reads the matrix as it is."""
    weight, table = nabla.normal_form(ctx)
    # A reader takes R's values only, so the Γ·Γ terms of A form no gradient;
    # S(d_j, d_k) keeps its own for the derivative words.
    values = [[[None if e is None else e.truncated(0) for e in row] for row in plane]
              for plane in table]
    frame = ctx.frame()
    n = len(frame)
    pairs = [[nabla.apply(ctx, Y, Z) for Z in frame] for Y in frame]

    def A(i, j, k):
        return _evaluate(ctx, weight, values, frame[i], pairs[j][k])
    zero = Jet.constant(0.0, n, 0, (ctx.count,))
    zeros = [[zero] * n for _ in range(n)]
    R = [[zeros if i == j else None for j in range(n)] for i in range(n)]
    for i, j in combinations(range(n), 2):
        columns = [vsub(A(i, j, k), A(j, i, k)) for k in range(n)]
        R[i][j] = [[_stored(column[m]) or zero for column in columns] for m in range(n)]
    return R


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
    label, frame = ctx.chart.frame_label, ctx.frame()
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
