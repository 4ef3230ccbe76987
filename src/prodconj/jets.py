"""Truncated Taylor data (order <= 2) and its arithmetic.

A Jet carries value / gradient / Hessian arrays for a scalar quantity,
batched over an arbitrary leading shape (the sample batch).  The Hessian
is stored packed as the upper triangle, so symmetry is structural.
Binary operations truncate to the minimum order of their operands;
consuming a derivative (shift) lowers the order by one.

A jet known to be constant carries that number in `const`: its value is
`const` at every sample and its derivatives are exactly zero.  Products
with such a jet skip the product-rule terms that are exactly zero, and
adding a constant zero is the identity.  Each shortcut gives the full
product rule's result up to the sign of zero, so a product skips them
unless the other operand is finite (`Jet.finite`): there `inf * 0` would
have made a NaN the shortcut leaves out.  A jet minus itself is the shared
constant 0 of its order when the jet is finite, bit for bit the full
difference, whose arrays are all +0; `inf - inf` is NaN, so a non-finite
jet takes the full difference.

A constant jet costs nothing per sample.  Its value is a read-only
stride-0 array over one stored number, and constants of one batch shape
share one read-only zero gradient and Hessian, so building one allocates
no batch-sized array.  Every constant zero of one sign, dim, order and
batch shape is one shared jet (`_ZERO_JETS`), so a zero is built once
per process; `truncated` of a constant zero and `shift` of a constant
return that jet too.  Sums, negations and products of constants, and a
constant times a number, are constants again while they stay finite.  A
constant is finite by construction, so `finite` scans nothing for it.
`shift` and `truncated` of a jet already found finite inherit the flag,
since their arrays are sub-arrays of the source's; any other jet is
scanned once, when first asked.

A coordinate's jet is not constant, but its partials are: its gradient is
a read-only unit row with stride 0 over the batch, and its Hessian the
shared zero.  `shift` of a jet with the shared zero Hessian (or none) and
such a gradient is the constant it reads, 0 or 1 for a coordinate.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError, EvaluationError, OrderError
from .expr import (Const, Coord, Cos, Exp, Expr, Neg, Power, Product,
                   Quotient, Sin, Sum, format_expr)

_TRI_CACHE: dict[int, tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]] = {}
_ZEROS_CACHE: dict[tuple[int, ...], np.ndarray] = {}
_ZERO_JETS: dict[tuple[bytes, int, int, tuple[int, ...]], "Jet"] = {}
_PACK = struct.Struct("d").pack


def _tri(dim: int):
    """Packed-triangle index arrays: (I, J) with I[k] <= J[k], and per-row maps."""
    cached = _TRI_CACHE.get(dim)
    if cached is not None:
        return cached
    I, J = np.triu_indices(dim)
    pos = {(int(I[k]), int(J[k])): k for k in range(len(I))}
    rows = tuple(
        np.array([pos[(min(i, j), max(i, j))] for j in range(dim)], dtype=np.intp)
        for i in range(dim)
    )
    _TRI_CACHE[dim] = (I, J, rows)
    return _TRI_CACHE[dim]


def tri_size(dim: int) -> int:
    return dim * (dim + 1) // 2


def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """One read-only zero array per shape, shared by every constant jet."""
    cached = _ZEROS_CACHE.get(shape)
    if cached is None:
        cached = _ZEROS_CACHE[shape] = np.zeros(shape)
        cached.flags.writeable = False
    return cached


def _unit(i: int, shape: tuple[int, ...]) -> np.ndarray:
    """The i-th unit row at every batch index of `shape`: a read-only view
    with stride 0 on the batch axes, so the batch costs no memory."""
    row = np.zeros(shape[-1])
    row[i] = 1.0
    return np.broadcast_to(row, shape)


def _uniform(a: np.ndarray) -> bool:
    """`a` repeats one row over its batch axes by construction: each of
    them has stride 0 (or there are none)."""
    return a.size > 0 and not any(a.strides[:-1])


def filled(c: float, shape: tuple[int, ...]) -> np.ndarray:
    """c at every index of `shape`: a read-only stride-0 view of one packed
    float, so the batch costs no memory."""
    return np.ndarray(shape, float, _PACK(c), 0, (0,) * len(shape))


class Jet:
    """Order-k truncated Taylor data of one scalar, k in {0, 1, 2}.

    value has the batch shape S; grad has S+(dim,) when order >= 1; hess
    holds the packed upper triangle, S+(dim*(dim+1)//2,), when order == 2.
    `const`, when set, is a finite number equal to the value at every
    sample, with gradient and Hessian exactly zero.  Arrays are never
    mutated after construction, so jets may share them.
    """

    def __init__(self, dim: int, order: int, value: np.ndarray, grad: np.ndarray | None = None,
                 hess: np.ndarray | None = None, const: float | None = None):
        if order not in (0, 1, 2):
            raise OrderError(f"jet order must be 0, 1, or 2, got {order}")
        if order >= 1 and grad is None:
            raise OrderError("order >= 1 jet needs a gradient")
        if order >= 2 and hess is None:
            raise OrderError("order 2 jet needs a Hessian")
        self.dim = dim
        self.order = order
        self.value = value
        self.grad = grad
        self.hess = hess
        self.const = const
        self._finite = None  # unknown until `finite` scans or a source lends it

    # ---- constructors -------------------------------------------------

    @staticmethod
    def constant(c: float, dim: int, order: int, batch_shape: tuple[int, ...]) -> "Jet":
        """c at every sample of `batch_shape`, with zero derivatives.  A
        zero is the shared jet of its sign (kept apart by its packed bits),
        dim, order and batch shape."""
        c = float(c)
        if c == 0.0:
            key = (_PACK(c), dim, order, batch_shape)
            shared = _ZERO_JETS.get(key)
            if shared is None:
                shared = _ZERO_JETS[key] = Jet._built(c, dim, order, batch_shape)
            return shared
        return Jet._built(c, dim, order, batch_shape)

    @staticmethod
    def _built(c: float, dim: int, order: int, batch_shape: tuple[int, ...]) -> "Jet":
        grad = _zeros(batch_shape + (dim,)) if order >= 1 else None
        hess = _zeros(batch_shape + (tri_size(dim),)) if order >= 2 else None
        return Jet(dim, order, filled(c, batch_shape), grad, hess, _finite_const(c))

    def like_constant(self, c: float) -> "Jet":
        return Jet.constant(c, self.dim, self.order, self.value.shape)

    def finite(self) -> bool:
        """No inf or nan in the value, gradient or Hessian.

        A constant is finite without a scan, and `shift` or `truncated` of
        a jet already found finite inherits the flag; any other jet sums
        its arrays once, at the first call.  A finite sum has finite
        terms.  A sum that overflows only makes a finite jet read as
        non-finite, which costs the shortcuts, never exactness.
        """
        if self._finite is None:
            self._finite = self.const is not None or all(
                a is None or math.isfinite(a.sum())
                for a in (self.value, self.grad, self.hess))
        return self._finite

    def truncated(self, k: int) -> "Jet":
        """This jet at order k <= self.order, sharing its arrays."""
        if k == self.order:
            return self
        if self.const == 0.0:
            return Jet.constant(self.const, self.dim, k, self.value.shape)
        return _inherit_finite(
            Jet(self.dim, k, self.value, self.grad if k >= 1 else None, None, self.const),
            self)

    # ---- ring operations ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            if self.const is not None and (c := _finite_const(self.const + other)) is not None:
                return self.like_constant(c)
            return Jet(self.dim, self.order, self.value + other, self.grad, self.hess)
        k = min(self.order, other.order)
        if self.value.shape == other.value.shape:
            if other.const == 0.0:
                return self.truncated(k)
            if self.const == 0.0:
                return other.truncated(k)
            if (self.const is not None and other.const is not None
                    and (c := _finite_const(self.const + other.const)) is not None):
                return Jet.constant(c, self.dim, k, self.value.shape)
        return Jet(
            self.dim, k, self.value + other.value,
            self.grad + other.grad if k >= 1 else None,
            self.hess + other.hess if k >= 2 else None,
        )

    __radd__ = __add__

    def __neg__(self):
        if self.const is not None:
            return self.like_constant(-self.const)
        return Jet(
            self.dim, self.order, -self.value,
            None if self.grad is None else -self.grad,
            None if self.hess is None else -self.hess,
        )

    def __sub__(self, other):
        if other is self and self.finite():
            return self.like_constant(0.0)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = float(other)
            if self.const is not None and (p := _finite_const(self.const * c)) is not None:
                return self.like_constant(p)
            return Jet(
                self.dim, self.order, self.value * c,
                None if self.grad is None else self.grad * c,
                None if self.hess is None else self.hess * c,
            )
        k = min(self.order, other.order)
        f0, g0 = self.value, other.value
        if f0.shape == g0.shape:
            if self.const is not None and other.finite():
                return _times_const(self, other, k)
            if other.const is not None and self.finite():
                return _times_const(other, self, k)
        grad = hess = None
        if k >= 1:
            grad = f0[..., None] * other.grad + g0[..., None] * self.grad
            if k >= 2:
                I, J, _ = _tri(self.dim)
                cross = (self.grad[..., I] * other.grad[..., J]
                         + self.grad[..., J] * other.grad[..., I])
                hess = f0[..., None] * other.hess + g0[..., None] * self.hess + cross
        return Jet(self.dim, k, f0 * g0, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / float(other))
        if np.any(other.value == 0.0):
            raise EvaluationError("division by zero")
        k = min(self.order, other.order)
        q = self.value / other.value
        grad = hess = None
        if k >= 1:
            grad = (self.grad - q[..., None] * other.grad) / other.value[..., None]
            if k >= 2:
                I, J, _ = _tri(self.dim)
                cross = (grad[..., I] * other.grad[..., J]
                         + grad[..., J] * other.grad[..., I])
                hess = (self.hess - q[..., None] * other.hess - cross) / other.value[..., None]
        return Jet(self.dim, k, q, grad, hess)

    def __rtruediv__(self, other):
        return self.like_constant(float(other)) / self


def _inherit_finite(part: Jet, source: Jet) -> Jet:
    """`part`, whose arrays are sub-arrays of `source`'s, marked finite
    when `source` is already known finite; otherwise left to its own scan."""
    if source._finite:
        part._finite = True
    return part


def _finite_const(c) -> float | None:
    """`c` as a jet's `const`: a finite float, else None (an array too)."""
    return float(c) if isinstance(c, float) and math.isfinite(c) else None


def _times_const(c: Jet, f: Jet, k: int) -> Jet:
    """c * f at order k for a constant c and a finite f of the same batch
    shape: the product rule without its terms in c's zero derivatives."""
    a = c.const
    if a == 1.0:
        return f.truncated(k)
    if a == 0.0:
        return c.truncated(k)
    if f.const is not None and (p := _finite_const(a * f.const)) is not None:
        return Jet.constant(p, f.dim, k, f.value.shape)
    return Jet(f.dim, k, f.value * a,
               a * f.grad if k >= 1 else None,
               a * f.hess if k >= 2 else None)


def _chain(f: Jet, u0: np.ndarray, u1, u2) -> Jet:
    grad = hess = None
    if f.order >= 1:
        grad = u1[..., None] * f.grad
        if f.order >= 2:
            I, J, _ = _tri(f.dim)
            outer = f.grad[..., I] * f.grad[..., J]
            hess = u1[..., None] * f.hess + u2[..., None] * outer
    return Jet(f.dim, f.order, u0, grad, hess)


def jsin(f: Jet) -> Jet:
    s = np.sin(f.value)
    return _chain(f, s,
                  np.cos(f.value) if f.order >= 1 else None,
                  -s if f.order >= 2 else None)


def jcos(f: Jet) -> Jet:
    c = np.cos(f.value)
    return _chain(f, c,
                  -np.sin(f.value) if f.order >= 1 else None,
                  -c if f.order >= 2 else None)


def jexp(f: Jet) -> Jet:
    e = np.exp(f.value)
    return _chain(f, e, e if f.order >= 1 else None, e if f.order >= 2 else None)


def jpow(f: Jet, n: int) -> Jet:
    if not isinstance(n, int) or n < 0:
        raise ConfigError(f"jet power needs a nonnegative integer exponent, got {n!r}")
    if n == 0:
        return f.like_constant(1.0)
    if n == 1:
        return f
    v = f.value
    return _chain(f, v ** n,
                  n * v ** (n - 1) if f.order >= 1 else None,
                  n * (n - 1) * v ** (n - 2) if f.order >= 2 else None)


def shift(f: Jet, i: int) -> Jet:
    """The jet of the i-th partial derivative, one order lower."""
    if f.order < 1:
        raise OrderError("cannot take a partial of an order-0 jet")
    if not 0 <= i < f.dim:
        raise ConfigError(f"partial index {i} out of range for dimension {f.dim}")
    if f.const is not None:
        return Jet.constant(0.0, f.dim, f.order - 1, f.value.shape)
    if (f.order == 1 or f.hess is _ZEROS_CACHE.get(f.hess.shape)) and _uniform(f.grad):
        # One number at every sample with zero derivatives, as for a coordinate.
        return Jet.constant(f.grad[..., i].flat[0], f.dim, f.order - 1, f.value.shape)
    grad = None
    if f.order >= 2:
        _, _, rows = _tri(f.dim)
        grad = f.hess[..., rows[i]]
    return _inherit_finite(Jet(f.dim, f.order - 1, f.grad[..., i], grad), f)


def eval_jet(e: Expr, point, order: int, memo: dict | None = None) -> Jet:
    """Exact truncated Taylor data of `e` at `point`.

    `point` is one chart point (dim,) or a batch (m, dim); the jet's batch
    shape follows.  `memo` caches subexpression jets by identity and is
    shared across calls within one evaluation context.
    """
    if order not in (0, 1, 2):
        raise OrderError(f"jet order must be 0, 1, or 2, got {order}")
    P = np.asarray(point, dtype=float)
    if P.ndim not in (1, 2):
        raise ConfigError(f"point must have shape (dim,) or (m, dim), got {P.shape}")
    if memo is None:
        memo = {}
    return _eval(e, P, order, memo)


def _eval(e: Expr, P: np.ndarray, order: int, memo: dict) -> Jet:
    key = (e, order)
    hit = memo.get(key)
    if hit is not None:
        return hit
    dim = P.shape[-1]
    batch = P.shape[:-1]
    match e:
        case Coord(index=i):
            if i >= dim:
                raise ConfigError(f"coordinate index {i} out of range for dimension {dim}")
            grad = hess = None
            if order >= 1:
                grad = _unit(i, batch + (dim,))
                if order >= 2:
                    hess = _zeros(batch + (tri_size(dim),))
            out = Jet(dim, order, P[..., i] + 0.0, grad, hess)
        case Const(value=v):
            out = Jet.constant(float(v), dim, order, batch)
        case Sum(terms=ts):
            out = _eval(ts[0], P, order, memo)
            for t in ts[1:]:
                out = out + _eval(t, P, order, memo)
        case Product(factors=fs):
            out = _eval(fs[0], P, order, memo)
            for f in fs[1:]:
                out = out * _eval(f, P, order, memo)
        case Neg(arg=a):
            out = -_eval(a, P, order, memo)
        case Power(base=b, exponent=n):
            out = jpow(_eval(b, P, order, memo), n)
        case Quotient(numer=p, denom=q):
            den = _eval(q, P, order, memo)
            bad = den.value == 0.0
            if np.any(bad):
                where = P if P.ndim == 1 else P[np.argmax(bad)]
                raise EvaluationError("division by zero", point=where,
                                      expr_text=format_expr(q))
            out = _eval(p, P, order, memo) / den
        case Sin(arg=a):
            out = jsin(_eval(a, P, order, memo))
        case Cos(arg=a):
            out = jcos(_eval(a, P, order, memo))
        case Exp(arg=a):
            out = jexp(_eval(a, P, order, memo))
        case _:
            raise TypeError(f"not an expression: {e!r}")
    memo[key] = out
    return out
