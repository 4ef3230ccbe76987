"""Charts, coordinate fields, and batched evaluation contexts.

Fields hold expression trees per component.  An EvalContext binds a chart
to a concrete batch of sample points and evaluates every expression there
at order 2 exactly once; operators downstream consume jet orders from that
shared pool.  Vector quantities are plain lists of Jets, one per component,
and a matrix is a list of rows; a coefficient table is a list of such
planes, with None for an entry known to be zero.  Three loops, `contract`,
`endo_apply` and `dirderiv`, hold every component sum.  They treat every
operand alike and leave out each term with a constant-zero factor whose
other factors are finite, since that term is the constant 0; the sum still
takes its order.  A coordinate frame vector is a list of constant jets, so
a frame operand leaves out most terms, and the jet products already skip
its exact ones (see `jets`).  The frame-pair and frame-triple scans hand
their callbacks the frame indices, so a suite reads per-node tables by
index, S(d_i, d_j) among them (`connections.frame_apply`), and indexes
`frame()` where it needs the vectors.  Torsion and curvature read those
tables for any operand, so `bracket` serves only the statements that name
a bracket.  The image F d_j of a frame vector under an endomorphism field
is read the same way: `EvalContext.frame_image` returns column j of F's
entry jets.

A residual reduces each output to its largest per-sample magnitude
(`_sample_max`).  An output whose components are all constant has one
size, its largest |const|, with sample 0 as witness, as argmax gives on a
uniform array, and builds no per-sample array.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

import numpy as np

from .errors import ConfigError, EvaluationError, OrderError
from .expr import Const, Expr, Neg, Product, Sum, validate_expr, ZERO, ONE
from .jets import Jet, eval_jet, filled, shift
from .reporting import Residual
from .sampling import SamplePlan, sample_points

Vec = list  # list[Jet], one entry per chart coordinate


class Chart:
    def __init__(self, dim: int, names: tuple[str, ...], box: tuple[tuple[float, float], ...]):
        if dim < 1:
            raise ConfigError(f"chart dimension must be positive, got {dim}")
        if len(names) != dim or len(set(names)) != dim:
            raise ConfigError(f"chart needs {dim} distinct coordinate names, got {names!r}")
        if len(box) != dim:
            raise ConfigError(f"chart box needs {dim} intervals, got {len(box)}")
        self.dim = dim
        self.names = names
        self.box = box

    def frame_label(self, *indices: int) -> str:
        return "(" + ",".join("d" + self.names[i] for i in indices) + ")"


def _validated(chart: Chart, exprs) -> None:
    for e in exprs:
        validate_expr(e, chart.dim)


class VectorField:
    def __init__(self, chart: Chart, components: tuple[Expr, ...], label: str = "X"):
        if len(components) != chart.dim:
            raise ConfigError(f"vector field {label!r} needs {chart.dim} components")
        _validated(chart, components)
        self.chart = chart
        self.components = components
        self.label = label


class OneFormField:
    def __init__(self, chart: Chart, components: tuple[Expr, ...], label: str = "w"):
        if len(components) != chart.dim:
            raise ConfigError(f"one-form {label!r} needs {chart.dim} components")
        _validated(chart, components)
        self.chart = chart
        self.components = components
        self.label = label


class EndoField:
    """A (1,1)-tensor field; entries[k][j] multiplies input component j into output k."""

    def __init__(self, chart: Chart, entries: tuple[tuple[Expr, ...], ...], label: str = "E"):
        n = chart.dim
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ConfigError(f"endomorphism field {label!r} needs a {n}x{n} entry grid")
        for row in entries:
            _validated(chart, row)
        self.chart = chart
        self.entries = entries
        self.label = label


class MetricField:
    """Symmetric (0,2)-tensor field; only the upper triangle is stored."""

    def __init__(self, chart: Chart, upper: tuple[tuple[Expr, ...], ...], label: str = "g"):
        n = chart.dim
        if len(upper) != n or any(len(upper[i]) != n - i for i in range(n)):
            raise ConfigError(f"metric {label!r} needs upper-triangle rows of lengths {n}..1")
        for row in upper:
            _validated(chart, row)
        self.chart = chart
        self.upper = upper
        self.label = label

    def entry(self, i: int, j: int) -> Expr:
        if i > j:
            i, j = j, i
        return self.upper[i][j - i]


class Tensor12Field:
    """A (1,2)-tensor by its components: components[k][i][j] = T^k_ij."""

    def __init__(self, chart: Chart, components: tuple[tuple[tuple[Expr, ...], ...], ...],
                 label: str = "T"):
        self.chart = chart
        self.components = components
        self.label = label

    @staticmethod
    def from_components(chart: Chart, components, label: str = "T") -> "Tensor12Field":
        """Checks the grid is n x n x n with every entry valid on the chart;
        a ChristoffelConnection's coefficient table is built here too."""
        n = chart.dim
        if len(components) != n or any(
                len(plane) != n or any(len(row) != n for row in plane) for plane in components):
            raise ConfigError(f"{label!r} needs a {n}x{n}x{n} coefficient grid")
        for plane in components:
            for row in plane:
                _validated(chart, row)
        return Tensor12Field(chart, tuple(tuple(tuple(r) for r in p) for p in components), label)

    def apply(self, ctx: "EvalContext", x: Vec, y: Vec) -> Vec:
        return contract(ctx.tensor_components(self), x, y)

    def normal_form(self, ctx: "EvalContext") -> tuple[dict, list]:
        """No derivative weight, and the components as the table."""
        return {}, ctx.tensor_components(self)


def is_zero_expr(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


class EvalContext:
    """A chart bound to a point batch; every expression evaluates at order 2."""

    def __init__(self, chart: Chart, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != chart.dim:
            raise ConfigError(f"points must have shape (m, {chart.dim}), got {points.shape}")
        self.chart = chart
        self.points = points
        self._memo: dict = {}  # expression jets by (expr, 2), built values by (owner, tag)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    # ---- expression-level --------------------------------------------

    def scalar(self, e: Expr) -> Jet:
        return eval_jet(e, self.points, 2, self._memo)

    def cached(self, key, build):
        hit = self._memo.get(key)
        if hit is None:
            hit = build()
            self._memo[key] = hit
        return hit

    # ---- field-level --------------------------------------------------

    def vector(self, f: VectorField | OneFormField) -> Vec:
        return self.cached((f, "vec"), lambda: [self.scalar(c) for c in f.components])

    oneform = vector

    def endo(self, f: EndoField) -> list[list[Jet]]:
        return self.cached(
            (f, "endo"), lambda: [[self.scalar(e) for e in row] for row in f.entries])

    def metric(self, f: MetricField) -> list[list[Jet]]:
        def build():
            n = self.chart.dim
            jets = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    jets[i][j] = jets[j][i] = self.scalar(f.entry(i, j))
            return jets
        return self.cached((f, "metric"), build)

    def metric_values(self, f: MetricField) -> np.ndarray:
        """(m, n, n) value matrix, checked nondegenerate at every point."""
        def build():
            G = jets_matrix_values(self.metric(f))
            sv = np.linalg.svd(G, compute_uv=False)
            bad = sv[:, -1] <= 1e-12 * np.maximum(sv[:, 0], 1.0)
            if np.any(bad):
                raise EvaluationError(f"metric {f.label!r} is degenerate",
                                      point=self.points[int(np.argmax(bad))])
            return G
        return self.cached((f, "metric_values"), build)

    def tensor_components(self, f: Tensor12Field):
        """Component jets with zero entries dropped (None): the jets of every
        coefficient table read from expressions, Christoffel ones included."""
        def build():
            return [[[None if is_zero_expr(e) else self.scalar(e) for e in row]
                     for row in plane] for plane in f.components]
        return self.cached((f, "tensor"), build)

    def frame(self) -> list[Vec]:
        """The coordinate frame fields d_i: the constant 1 at i and 0
        elsewhere, at order 2."""
        def build():
            n = self.chart.dim
            shape = (self.count,)
            return [[Jet.constant(1.0 if k == i else 0.0, n, 2, shape) for k in range(n)]
                    for i in range(n)]
        return self.cached(("frame",), build)

    def frame_image(self, F: EndoField, j: int) -> Vec:
        """F d_j, column j of F's entry jets."""
        return [row[j] for row in self.endo(F)]


def context_for(chart: Chart, plan: SamplePlan) -> EvalContext:
    if plan.box != chart.box:
        # The plan may tighten the chart box but must stay inside it.
        for (plo, phi), (clo, chi_) in zip(plan.box, chart.box):
            if plo < clo or phi > chi_:
                raise ConfigError("sample box exceeds the chart box")
    return EvalContext(chart, sample_points(plan))


# ---- vector-jet algebra ----------------------------------------------
# contract, endo_apply and dirderiv hold the only component-sum loops;
# metric_pair, oneform_apply and bracket are built on them.


def vadd(a: Vec, b: Vec) -> Vec:
    return [x + y for x, y in zip(a, b)]


def vsub(a: Vec, b: Vec) -> Vec:
    return [x - y for x, y in zip(a, b)]


def vneg(a: Vec) -> Vec:
    return [-x for x in a]


def vscale(c, a: Vec) -> Vec:
    return [c * x for x in a] if isinstance(c, Jet) else [x * c for x in a]


def _vanishes(a: Jet, b: Jet) -> bool:
    """a * b is the constant 0: one factor is a constant zero and the other
    is finite (an inf or NaN there would have made a NaN)."""
    return (a.const == 0.0 and b.finite()) or (b.const == 0.0 and a.finite())


# The loops below leave out every term that is the constant 0.  Adding such
# a term would only lower the sum to the term's order, so each loop keeps
# the lowest such order in k, which starts above every jet order, and
# `_summed` applies it at the end.
_ABOVE_EVERY_ORDER = 3


def _summed(acc: Jet | None, k: int, like: Jet) -> Jet:
    """The sum acc of the formed terms, at the lowest order k of the terms
    left out where that is below its own; with no term formed, the
    constant 0 at order k, batched like `like`."""
    if acc is None:
        return Jet.constant(0.0, like.dim, k, like.value.shape)
    return acc.truncated(min(acc.order, k))


def contract(table, x: Vec, y: Vec, start=None) -> Vec:
    """start + sum_ij T^k_ij x^i y^j per output k; a None entry or start
    jet is zero."""
    n = len(x)
    out = []
    for plane, acc in zip(table, [None] * n if start is None else start):
        k = _ABOVE_EVERY_ORDER
        for i in range(n):
            for j in range(n):
                c = plane[i][j]
                if c is not None:
                    xi, yj = x[i], y[j]
                    # c * x^i is formed first and may overflow, so a zero
                    # y^j leaves the term out only once that product is finite.
                    p = None if _vanishes(c, xi) and yj.finite() else c * xi
                    if p is None or _vanishes(p, yj):
                        k = min(k, c.order, xi.order, yj.order)
                    else:
                        term = p * yj
                        acc = term if acc is None else acc + term
        if acc is None and k == _ABOVE_EVERY_ORDER:  # no entry and no start
            acc = x[0].like_constant(0.0)
        out.append(_summed(acc, k, x[0]))
    return out


def endo_apply(E: list[list[Jet]], v: Vec) -> Vec:
    """E v, one output per row of E: sum_j E_kj v^j."""
    out = []
    for row in E:
        acc, k = None, _ABOVE_EVERY_ORDER
        for e, vj in zip(row, v):
            if _vanishes(e, vj):
                k = min(k, e.order, vj.order)
            else:
                term = e * vj
                acc = term if acc is None else acc + term
        out.append(_summed(acc, k, v[0]))
    return out


def dirderiv(x: Vec, s: Jet) -> Jet:
    """Derivative of the scalar s along x, as a jet one order lower.  A zero
    x^i beside a finite s takes no partial of s."""
    if s.order < 1:
        raise OrderError("cannot take a partial of an order-0 jet")
    acc, k = None, _ABOVE_EVERY_ORDER
    for i, xi in enumerate(x):
        d = None if xi.const == 0.0 and s.finite() else shift(s, i)
        if d is None or _vanishes(xi, d):
            k = min(k, xi.order, s.order - 1)
        else:
            term = xi * d
            acc = term if acc is None else acc + term
    return _summed(acc, k, x[0])


def metric_pair(G: list[list[Jet]], v: Vec, w: Vec) -> Jet:
    return contract([G], v, w)[0]


def oneform_apply(w: Vec, v: Vec) -> Jet:
    return endo_apply([w], v)[0]


def bracket(x: Vec, y: Vec) -> Vec:
    """Commutator [x, y]; consumes one jet order."""
    return [dirderiv(x, yk) - dirderiv(y, xk) for xk, yk in zip(x, y)]


def vvalues(v: Vec) -> np.ndarray:
    return np.stack([j.value for j in v], axis=-1)


def vmax_abs(v: Vec) -> np.ndarray:
    """max |component| at every sample, folded elementwise; a NaN stays.
    The constant components fold as one number and build no array; with
    no other component, the result is a stride-0 view of that number."""
    sizes = [np.abs(j.value) for j in v if j.const is None]
    c = max((abs(j.const) for j in v if j.const is not None), default=None)
    if c is None:
        return reduce(np.maximum, sizes)
    return reduce(np.maximum, sizes, c) if sizes else filled(c, v[0].value.shape)


def jets_matrix_values(M: list[list[Jet]]) -> np.ndarray:
    return np.moveaxis(np.array([[e.value for e in row] for row in M]), (0, 1), (-2, -1))


# ---- residuals --------------------------------------------------------


def magnitude(out) -> np.ndarray:
    """Per-sample size of a check output: max |component| of a Vec, |value|
    of a Jet, or max |entry| of an array whose first axis is the sample.
    A Vec or Jet folds its constant components as `vmax_abs` does."""
    if isinstance(out, Jet):
        return vmax_abs([out])
    if isinstance(out, np.ndarray):
        if out.ndim < 2:
            return np.abs(out)
        return reduce(np.maximum, np.abs(out.reshape(len(out), -1)).T)
    return vmax_abs(out)


def _sample_max(ctx: EvalContext, out, label: str | None) -> Residual:
    """The largest magnitude of one output over the samples, with its sample
    point and label; argmax takes the first maximum and finds the first NaN.
    A 0-d magnitude has no point.  An output whose components are all
    constant has one size, its largest |const|, and sample 0 as witness, as
    argmax gives on a uniform array; it builds no per-sample array."""
    jets = [out] if isinstance(out, Jet) else out if isinstance(out, list) else ()
    if jets and all(e.const is not None for e in jets):
        point = tuple(float(c) for c in ctx.points[0]) if jets[0].value.ndim else None
        return Residual(max(abs(e.const) for e in jets), point, label)
    size = magnitude(out)
    if size.ndim == 0:
        return Residual(float(size), None, label)
    k = int(np.argmax(size))
    return Residual(float(size[k]), tuple(float(c) for c in ctx.points[k]), label)


def worst(ctx: EvalContext, items) -> Residual:
    """The worst magnitude over (label, output) pairs, with its sample point
    and label, folded by `Residual.merged`: the first maximum wins ties, and
    the first NaN stays.  No items give Residual(0.0)."""
    reduced = (_sample_max(ctx, out, label) for label, out in items)
    first = next(reduced, None)
    return Residual(0.0) if first is None else reduce(Residual.merged, reduced, first)


def gated(tol: float, hypotheses, conclusions, measure) -> list:
    """measure()'s rows when every (label, Residual) hypothesis is within tol;
    otherwise each named conclusion as a skipped row (residual None) whose
    note gives every hypothesis value.  A NaN hypothesis never holds, so the
    gate fails closed, and a closed gate never calls measure."""
    if all(res.within(tol) for _, res in hypotheses):
        return measure()
    values = ", ".join(f"{label} {res.value:.3e}" for label, res in hypotheses)
    return [(name, None, f"skipped: hypothesis fails ({values})") for name in conclusions]


def frame_pair_rows(ctx: EvalContext, rows) -> dict:
    """Worst output per name over coordinate frame pairs, in first-yield order.

    rows(i, j) yields (name, output) for the frame pair (d_i, d_j); it reads
    per-node tables such as `connections.frame_apply` by the indices and
    indexes ctx.frame() where it needs the vectors.  Each output is reduced
    as it is yielded and merged into its name's running residual, so a name
    keeps `worst`'s rules: the first maximum wins ties, the first NaN stays.
    """
    n, label = ctx.chart.dim, ctx.chart.frame_label
    out: dict = {}
    for i in range(n):
        for j in range(n):
            for name, value in rows(i, j):
                res = _sample_max(ctx, value, label(i, j))
                del value  # not held while rows computes the next output
                out[name] = out[name].merged(res) if name in out else res
    return out


def frame_pair_residual(ctx: EvalContext, fn) -> Residual:
    """Worst fn(i, j) over the index pairs of the coordinate frame."""
    return frame_pair_rows(ctx, lambda i, j: [(None, fn(i, j))])[None]


def frame_triple_residual(ctx: EvalContext, fn) -> Residual:
    """Worst fn(i, j, k) over the index triples of the coordinate frame;
    fn indexes ctx.frame() where it needs the vectors, and reads per-node
    tables such as `connections.frame_curvature` by the same indices."""
    label = ctx.chart.frame_label
    return worst(ctx, ((label(*ijk), fn(*ijk))
                       for ijk in product(range(ctx.chart.dim), repeat=3)))


# A second name for the same scan, kept because bench/spans.py traces it by name.
frame_triple_scalar_residual = frame_triple_residual


def almost_product_residual(ctx: EvalContext, E: EndoField) -> Residual:
    A = jets_matrix_values(ctx.endo(E))
    return worst(ctx, [(None, A @ A - np.eye(ctx.chart.dim))])


def metric_compat_residual(ctx: EvalContext, g: MetricField, E: EndoField) -> Residual:
    G = ctx.metric_values(g)
    A = jets_matrix_values(ctx.endo(E))
    return worst(ctx, [(None, np.swapaxes(A, -1, -2) @ G @ A - G)])


def endo_combination(terms) -> EndoField:
    """sum c F entrywise at the expression level over (c, F) terms, a None F
    standing for the identity.  A weight 1 adds the entry itself and -1 its
    negation; any other weight multiplies it as a rational constant."""
    chart = next(F.chart for _, F in terms if F is not None)
    n = chart.dim
    weighted = [(c, F, Const(c)) for c, F in terms]

    def entry(k: int, j: int) -> Expr:
        parts = []
        for c, F, w in weighted:
            e = (ONE if k == j else ZERO) if F is None else F.entries[k][j]
            parts.append(e if c == 1 else Neg(e) if c == -1 else Product((w, e)))
        return Sum(tuple(parts))
    return EndoField(chart, tuple(tuple(entry(k, j) for j in range(n)) for k in range(n)))


def endo_from_difference(h: EndoField, v: EndoField) -> EndoField:
    """Entrywise h - v at the expression level."""
    return endo_combination(((1, h), (-1, v)))


def complement_endo(h: EndoField) -> EndoField:
    """I - h at the expression level."""
    return endo_combination(((1, None), (-1, h)))
