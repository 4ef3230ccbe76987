"""Engine results read back as coefficient arrays, and the composed route,
for comparing against the oracles and closed forms in the tests.

Unlike oracles.py this module uses the engine: it applies a connection to
the coordinate frame and stacks the values, or applies an operator tree
node by node.
"""

from functools import reduce

import numpy as np

from prodconj.connections import (ChristoffelConnection, CombinationOp, Sandwiched,
                                  ZeroOp)
from prodconj.fields import Tensor12Field, contract, dirderiv, endo_apply, vadd, vscale, vvalues


def materialize_christoffels(ctx, nabla) -> np.ndarray:
    """Coefficient values on the coordinate frame, shape (m, n, n, n) = [.., k, i, j]."""
    n = nabla.chart.dim
    frame = ctx.frame()
    out = np.empty((ctx.count, n, n, n))
    for i in range(n):
        for j in range(n):
            out[:, :, i, j] = vvalues(nabla.apply(ctx, frame[i], frame[j]))
    return out


def composed_apply(ctx, op, x, y):
    """op(x, y) by the composed route: a Sandwiched node applies its
    endomorphisms around its operand's composed apply, a combination sums
    its terms' composed applies, and a leaf contracts its coefficient jets,
    a connection adding the coordinate derivative.  No composite's normal
    form is read."""
    if isinstance(op, Sandwiched):
        if op.along is not None:
            x = endo_apply(ctx.endo(op.along), x)
        if op.arg is not None:
            y = endo_apply(ctx.endo(op.arg), y)
        r = composed_apply(ctx, op.op, x, y)
        return r if op.out is None else endo_apply(ctx.endo(op.out), r)
    if isinstance(op, CombinationOp):
        return reduce(vadd, (vscale(c, composed_apply(ctx, t, x, y)) for c, t in op.terms))
    if isinstance(op, ChristoffelConnection):
        return contract(op._jets(ctx), x, y, start=[dirderiv(x, yk) for yk in y])
    if isinstance(op, Tensor12Field):
        return contract(ctx.tensor_components(op), x, y)
    assert isinstance(op, ZeroOp), op
    return [x[0].like_constant(0.0)] * op.chart.dim
