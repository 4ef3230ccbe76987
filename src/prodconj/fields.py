"""Charts, coordinate fields, and batched evaluation contexts.

Fields hold expression trees per component.  An EvalContext binds a chart
to a concrete batch of sample points and evaluates every expression there
at order 2 exactly once; operators downstream consume jet orders from that
shared pool.  Vector quantities are plain lists of Jets, one per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, EvaluationError
from .expr import Const, Expr, Neg, Product, Sum, validate_expr, ZERO, ONE
from .jets import Jet, eval_jet, shift
from .reporting import Residual
from .sampling import SamplePlan, sample_points

Vec = list  # list[Jet], one entry per chart coordinate


@dataclass(frozen=True, eq=False)
class Chart:
    dim: int
    names: tuple[str, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"chart dimension must be positive, got {self.dim}")
        if len(self.names) != self.dim or len(set(self.names)) != self.dim:
            raise ConfigError(f"chart needs {self.dim} distinct coordinate names, got {self.names!r}")
        if len(self.box) != self.dim:
            raise ConfigError(f"chart box needs {self.dim} intervals, got {len(self.box)}")

    def frame_label(self, *indices: int) -> str:
        return "(" + ",".join("d" + self.names[i] for i in indices) + ")"


def _validated(chart: Chart, exprs) -> None:
    for e in exprs:
        validate_expr(e, chart.dim)


@dataclass(frozen=True, eq=False)
class VectorField:
    chart: Chart
    components: tuple[Expr, ...]
    label: str = "X"

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ConfigError(f"vector field {self.label!r} needs {self.chart.dim} components")
        _validated(self.chart, self.components)


@dataclass(frozen=True, eq=False)
class OneFormField:
    chart: Chart
    components: tuple[Expr, ...]
    label: str = "w"

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ConfigError(f"one-form {self.label!r} needs {self.chart.dim} components")
        _validated(self.chart, self.components)


@dataclass(frozen=True, eq=False)
class EndoField:
    """A (1,1)-tensor field; entries[k][j] multiplies input component j into output k."""

    chart: Chart
    entries: tuple[tuple[Expr, ...], ...]
    label: str = "E"

    def __post_init__(self):
        n = self.chart.dim
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ConfigError(f"endomorphism field {self.label!r} needs a {n}x{n} entry grid")
        for row in self.entries:
            _validated(self.chart, row)


@dataclass(frozen=True, eq=False)
class MetricField:
    """Symmetric (0,2)-tensor field; only the upper triangle is stored."""

    chart: Chart
    upper: tuple[tuple[Expr, ...], ...]
    label: str = "g"

    def __post_init__(self):
        n = self.chart.dim
        if len(self.upper) != n or any(len(self.upper[i]) != n - i for i in range(n)):
            raise ConfigError(f"metric {self.label!r} needs upper-triangle rows of lengths {n}..1")
        for row in self.upper:
            _validated(self.chart, row)

    def entry(self, i: int, j: int) -> Expr:
        if i > j:
            i, j = j, i
        return self.upper[i][j - i]


@dataclass(frozen=True, eq=False)
class Tensor12Field:
    """A (1,2)-tensor by its components: components[k][i][j] = T^k_ij."""

    chart: Chart
    components: tuple[tuple[tuple[Expr, ...], ...], ...]
    label: str = "T"

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
        self._expr_memo: dict = {}
        self._memo: dict = {}

    @property
    def count(self) -> int:
        return self.points.shape[0]

    # ---- expression-level --------------------------------------------

    def scalar(self, e: Expr) -> Jet:
        return eval_jet(e, self.points, 2, self._expr_memo)

    def cached(self, key, build):
        hit = self._memo.get(key)
        if hit is None:
            hit = build()
            self._memo[key] = hit
        return hit

    # ---- field-level --------------------------------------------------

    def vector(self, f: VectorField) -> Vec:
        return self.cached((f, "vec"), lambda: [self.scalar(c) for c in f.components])

    def oneform(self, f: OneFormField) -> Vec:
        return self.cached((f, "form"), lambda: [self.scalar(c) for c in f.components])

    def endo(self, f: EndoField) -> list[list[Jet]]:
        return self.cached(
            (f, "endo"),
            lambda: [[self.scalar(e) for e in row] for row in f.entries])

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
        def build():
            n = self.chart.dim
            shape = (self.count,)
            basis = []
            for i in range(n):
                basis.append([Jet.constant(1.0 if k == i else 0.0, n, 2, shape)
                              for k in range(n)])
            return basis
        return self.cached(("frame",), build)

    def zero_scalar(self) -> Jet:
        return Jet.constant(0.0, self.chart.dim, 2, (self.count,))


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


def contract(table, x: Vec, y: Vec, start=None) -> Vec:
    """start + sum_ij T^k_ij x^i y^j per output k; a None entry is zero.  A
    generator `start` is read one k at a time, keeping one start jet alive."""
    n = len(x)
    out = []
    for plane, acc in zip(table, [None] * n if start is None else start):
        for i in range(n):
            for j in range(n):
                c = plane[i][j]
                if c is not None:
                    term = c * x[i] * y[j]
                    acc = term if acc is None else acc + term
        out.append(acc if acc is not None else x[0].like_constant(0.0))
    return out


def endo_apply(E: list[list[Jet]], v: Vec) -> Vec:
    """E v, one output per row of E: sum_j E_kj v^j."""
    out = []
    for row in E:
        acc = row[0] * v[0]
        for j in range(1, len(v)):
            acc = acc + row[j] * v[j]
        out.append(acc)
    return out


def dirderiv(x: Vec, s: Jet) -> Jet:
    """Derivative of the scalar s along x, as a jet one order lower."""
    acc = x[0] * shift(s, 0)
    for i in range(1, len(x)):
        acc = acc + x[i] * shift(s, i)
    return acc


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
    return np.max(np.abs(vvalues(v)), axis=-1)


def jets_matrix_values(M: list[list[Jet]]) -> np.ndarray:
    return np.stack([np.stack([e.value for e in row], axis=-1) for row in M], axis=-2)


# ---- residuals --------------------------------------------------------


def magnitude(out) -> np.ndarray:
    """Per-sample size of a check output: max |component| of a Vec, |value|
    of a Jet, or max |entry| of an array whose first axis is the sample."""
    if isinstance(out, Jet):
        return np.abs(out.value)
    if isinstance(out, np.ndarray):
        return np.max(np.abs(out), axis=tuple(range(1, out.ndim)))
    return vmax_abs(out)


def _sample_max(ctx: EvalContext, out, label: str | None) -> Residual:
    """The largest magnitude of one output over the samples, with its sample
    point and label; argmax takes the first maximum and finds the first NaN.
    A 0-d magnitude has no point."""
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

    rows(X, Y) yields (name, output) for one pair.  Each output is reduced as
    it is yielded and merged into its name's running residual, so a name
    keeps `worst`'s rules: the first maximum wins ties, the first NaN stays.
    """
    frame, label = ctx.frame(), ctx.chart.frame_label
    out: dict = {}
    for i, X in enumerate(frame):
        for j, Y in enumerate(frame):
            for name, value in rows(X, Y):
                res = _sample_max(ctx, value, label(i, j))
                del value  # not held while rows computes the next output
                out[name] = out[name].merged(res) if name in out else res
    return out


def frame_pair_residual(ctx: EvalContext, fn) -> Residual:
    """Worst fn(X, Y) over coordinate frame pairs."""
    return frame_pair_rows(ctx, lambda X, Y: [(None, fn(X, Y))])[None]


def frame_triple_residual(ctx: EvalContext, fn) -> Residual:
    """Worst fn(X, Y, Z) over coordinate frame triples."""
    frame, label = ctx.frame(), ctx.chart.frame_label
    return worst(ctx, ((label(i, j, k), fn(X, Y, Z)) for i, X in enumerate(frame)
                       for j, Y in enumerate(frame) for k, Z in enumerate(frame)))


# A second name for the same scan, kept because bench/spans.py traces it by name.
frame_triple_scalar_residual = frame_triple_residual


def almost_product_residual(ctx: EvalContext, E: EndoField) -> Residual:
    A = jets_matrix_values(ctx.endo(E))
    return worst(ctx, [(None, A @ A - np.eye(ctx.chart.dim))])


def metric_compat_residual(ctx: EvalContext, g: MetricField, E: EndoField) -> Residual:
    G = ctx.metric_values(g)
    A = jets_matrix_values(ctx.endo(E))
    return worst(ctx, [(None, np.swapaxes(A, -1, -2) @ G @ A - G)])


def endo_combination(terms, label: str = "E") -> EndoField:
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
    return EndoField(chart, tuple(tuple(entry(k, j) for j in range(n)) for k in range(n)),
                     label=label)


def endo_from_difference(h: EndoField, v: EndoField, label: str = "E") -> EndoField:
    """Entrywise h - v at the expression level."""
    return endo_combination(((1, h), (-1, v)), label=label)


def complement_endo(h: EndoField, label: str = "v") -> EndoField:
    """I - h at the expression level."""
    return endo_combination(((1, None), (-1, h)), label=label)
