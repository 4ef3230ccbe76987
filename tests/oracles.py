"""Slow second-route evaluators the tests compare the library against.

Scalars are evaluated by direct recursion over the expression tree in
extended precision, derivatives come from central difference quotients,
Christoffel symbols from the metric formula with those quotients, and
curvature from difference quotients of Christoffel values.  The
derivative of a structure comes from the same quotients.  The
recurrence equations are assembled as a dense pointwise linear system
and handed to a least-squares solver.  Jet sums and products are
recomputed from the operands' arrays with every term of the product
rule.  None of this touches the jet arithmetic, the connection
operators, or the sampling code, except the whole-sum loops: they are the
engine's three component sums with every term formed and added by the
jet arithmetic, none left out.  The whole-batch rank and residual
reductions are the engine's own rank guard and residual scan as they were
before constants were folded: one SVD of every sample's whole matrix, and
one per-sample array for every component.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

import numpy as np

from prodconj.expr import (
    Coord,
    Const,
    Cos,
    Exp,
    Neg,
    Power,
    Product,
    Quotient,
    Sin,
    Sum,
)
from prodconj.distributions import _RANK_RTOL
from prodconj.errors import EvaluationError
from prodconj.fields import jets_matrix_values, vvalues
from prodconj.jets import Jet, shift
from prodconj.reporting import Residual


def eval_scalar(e, point):
    p = np.asarray(point, dtype=np.longdouble)
    if isinstance(e, Coord):
        return p[e.index]
    if isinstance(e, Const):
        return np.longdouble(e.value.numerator) / np.longdouble(e.value.denominator)
    if isinstance(e, Sum):
        return sum((eval_scalar(t, p) for t in e.terms), np.longdouble(0))
    if isinstance(e, Product):
        out = np.longdouble(1)
        for t in e.factors:
            out = out * eval_scalar(t, p)
        return out
    if isinstance(e, Neg):
        return -eval_scalar(e.arg, p)
    if isinstance(e, Power):
        return eval_scalar(e.base, p) ** e.exponent
    if isinstance(e, Quotient):
        return eval_scalar(e.numer, p) / eval_scalar(e.denom, p)
    if isinstance(e, Sin):
        return np.sin(eval_scalar(e.arg, p))
    if isinstance(e, Cos):
        return np.cos(eval_scalar(e.arg, p))
    if isinstance(e, Exp):
        return np.exp(eval_scalar(e.arg, p))
    raise TypeError(f"not an expression: {e!r}")


def fd_grad(e, point, h=1e-5):
    point = np.asarray(point, dtype=float)
    out = np.empty(point.size)
    for i in range(point.size):
        hi = np.zeros_like(point)
        hi[i] = h
        out[i] = (eval_scalar(e, point + hi) - eval_scalar(e, point - hi)) / (2 * h)
    return out


def fd_hess(e, point, h=1e-5):
    point = np.asarray(point, dtype=float)
    n = point.size
    out = np.empty((n, n))
    f0 = eval_scalar(e, point)
    for i in range(n):
        hi = np.zeros_like(point)
        hi[i] = h
        out[i, i] = (eval_scalar(e, point + hi) - 2 * f0
                     + eval_scalar(e, point - hi)) / (h * h)
        for j in range(i + 1, n):
            hj = np.zeros_like(point)
            hj[j] = h
            out[i, j] = out[j, i] = (
                eval_scalar(e, point + hi + hj) - eval_scalar(e, point + hi - hj)
                - eval_scalar(e, point - hi + hj) + eval_scalar(e, point - hi - hj)
            ) / (4 * h * h)
    return out


def full_product(a, b):
    """(order, value, grad, hess) of the jet product a*b, every term of the
    product rule computed from the operands' arrays, none skipped.  The
    packed Hessian follows numpy's upper-triangle order."""
    k = min(a.order, b.order)
    f0, g0 = a.value, b.value
    grad = hess = None
    if k >= 1:
        grad = f0[..., None] * b.grad + g0[..., None] * a.grad
        if k >= 2:
            I, J = np.triu_indices(a.dim)
            cross = a.grad[..., I] * b.grad[..., J] + a.grad[..., J] * b.grad[..., I]
            hess = f0[..., None] * b.hess + g0[..., None] * a.hess + cross
    return k, f0 * g0, grad, hess


def full_sum(a, b):
    """(order, value, grad, hess) of the jet sum a+b, entry by entry."""
    k = min(a.order, b.order)
    return (k, a.value + b.value,
            a.grad + b.grad if k >= 1 else None,
            a.hess + b.hess if k >= 2 else None)


def whole_contract(table, x, y, start=None):
    """start + sum_ij T^k_ij x^i y^j per output k, every term (c x^i) y^j
    formed and added; a None entry or start jet is zero."""
    n = len(x)
    out = []
    for plane, acc in zip(table, [None] * n if start is None else start):
        for i in range(n):
            for j in range(n):
                c = plane[i][j]
                if c is not None:
                    term = c * x[i] * y[j]
                    acc = term if acc is None else acc + term
        if acc is None:
            acc = x[0].like_constant(0.0)
        out.append(acc)
    return out


def whole_endo_apply(E, v):
    """E v with every term E_kj v^j formed and added."""
    out = []
    for row in E:
        acc = row[0] * v[0]
        for j in range(1, len(v)):
            acc = acc + row[j] * v[j]
        out.append(acc)
    return out


def whole_dirderiv(x, s):
    """sum_i x^i d_i s with every partial taken and every term formed."""
    acc = x[0] * shift(s, 0)
    for i in range(1, len(x)):
        acc = acc + x[i] * shift(s, i)
    return acc


def whole_batch_certify(self, ctx):
    """`DistributionSpec.certify` of `self` without its cache: one SVD of
    the whole matrix at every sample."""
    M = (np.stack([vvalues(ctx.vector(f)) for f in self.span], axis=-1)
         if self.span is not None else jets_matrix_values(ctx.endo(self._onto())))
    sv = np.linalg.svd(M, compute_uv=False)
    counts = np.sum(sv > _RANK_RTOL * sv[:, :1], axis=1)
    rank = len(self.span) if self.span is not None else counts.max()
    if np.any(counts != rank):
        raise EvaluationError(f"rank of {self.label!r} drops or varies across samples",
                              point=ctx.points[int(np.argmax(counts != rank))])
    return int(rank)


def whole_batch_magnitude(out):
    """Per-sample size of a check output, one array for every component."""
    if isinstance(out, Jet):
        return np.abs(out.value)
    if isinstance(out, np.ndarray):
        if out.ndim < 2:
            return np.abs(out)
        return reduce(np.maximum, np.abs(out.reshape(len(out), -1)).T)
    return reduce(np.maximum, (np.abs(j.value) for j in out))


def whole_batch_sample_max(ctx, out, label):
    """The largest magnitude of one output over the samples, by argmax over
    the whole per-sample size; a 0-d size has no point."""
    size = whole_batch_magnitude(out)
    if size.ndim == 0:
        return Residual(float(size), None, label)
    k = int(np.argmax(size))
    return Residual(float(size[k]), tuple(float(c) for c in ctx.points[k]), label)


def metric_values(metric, point):
    n = metric.chart.dim
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            g[i, j] = float(eval_scalar(metric.entry(i, j), point))
    return g


def christoffel_fd(metric, point, h=1e-6):
    """Gamma^k_ij from the metric formula with difference-quotient derivatives."""
    point = np.asarray(point, dtype=float)
    n = point.size
    g = metric_values(metric, point)
    ginv = np.linalg.inv(g)
    dg = np.empty((n, n, n))  # dg[l, i, j] = d_l g_ij
    for l in range(n):
        hl = np.zeros_like(point)
        hl[l] = h
        dg[l] = (metric_values(metric, point + hl)
                 - metric_values(metric, point - hl)) / (2 * h)
    gamma = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for l in range(n):
                    acc += ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


def riemann_fd(gamma_at, point, h=1e-5):
    """R[l, i, j, k] with R(e_i, e_j)e_k = R^l e_l, from Gamma difference quotients."""
    point = np.asarray(point, dtype=float)
    n = point.size
    G = gamma_at(point)
    dG = np.empty((n, n, n, n))  # dG[m, k, i, j] = d_m Gamma^k_ij
    for m in range(n):
        hm = np.zeros_like(point)
        hm[m] = h
        dG[m] = (gamma_at(point + hm) - gamma_at(point - hm)) / (2 * h)
    R = np.zeros((n, n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    val = dG[i, l, j, k] - dG[j, l, i, k]
                    for m in range(n):
                        val += G[l, i, m] * G[m, j, k] - G[l, j, m] * G[m, i, k]
                    R[l, i, j, k] = val
    return R


def conjugate_gamma(gamma, E, dE):
    """Christoffels of the reflected connection from the pointwise expansion.

    gamma[k, i, j], E[k, j] and dE[i][k, j] are plain arrays at one point;
    the result is E(d_i(E e_j) + Gamma contraction) written back in the
    same index layout.
    """
    n = E.shape[0]
    out = np.zeros((n, n, n))
    for i in range(n):
        inner = dE[i] + np.einsum("km,mj->kj", gamma[:, i, :], E)
        out[:, i, :] = E @ inner
    return out


def structure_derivative(gamma, E, dE):
    """The derivative of the structure, (nabla_i E)^k_j, from the pointwise
    expansion d_i E^k_j + Gamma^k_im E^m_j - E^k_m Gamma^m_ij.

    gamma[k, i, j], E[k, j] and dE[i][k, j] are plain arrays at one point,
    as for `conjugate_gamma`; the result is laid out [k, i, j].
    """
    n = E.shape[0]
    out = np.zeros((n, n, n))
    for i in range(n):
        out[:, i, :] = dE[i] + gamma[:, i, :] @ E - E @ gamma[:, i, :]
    return out


def recurrence_residual(E_at, dE_at, eta, point):
    """Least-squares defect of the symmetric-difference-tensor equations.

    Unknowns are the n^3 components S^k_ij of a difference tensor added
    to the flat base.  Equations: for each direction i the commutator
    [S_i, E] must equal eta_i E - d_i E, and S must be symmetric in its
    lower pair.  A vanishing defect certifies a torsion-free base keeping
    the structure recurrent with that form; a large defect certifies no
    such base exists.
    """
    point = np.asarray(point, dtype=float)
    n = point.size
    E = E_at(point)
    dE = dE_at(point)
    index = {(k, i, j): (k * n + i) * n + j
             for k in range(n) for i in range(n) for j in range(n)}
    rows, rhs = [], []
    for i in range(n):
        for k in range(n):
            for j in range(n):
                r = np.zeros(n ** 3)
                for m in range(n):
                    r[index[(k, i, m)]] += E[m, j]
                    r[index[(m, i, j)]] -= E[k, m]
                rows.append(r)
                rhs.append(eta[i] * E[k, j] - dE[i][k, j])
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                r = np.zeros(n ** 3)
                r[index[(k, i, j)]] += 1.0
                r[index[(k, j, i)]] -= 1.0
                rows.append(r)
                rhs.append(0.0)
    A = np.array(rows)
    b = np.array(rhs)
    s = np.linalg.lstsq(A, b, rcond=None)[0]
    return float(np.linalg.norm(A @ s - b)), s.reshape(n, n, n)
