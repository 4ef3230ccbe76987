"""Engine results read back as coefficient arrays, and the composed route,
for comparing against the oracles and closed forms in the tests.

Unlike oracles.py this module uses the engine: it applies a connection to
the coordinate frame and stacks the values, applies an operator tree node
by node, or composes torsion and curvature from applies and brackets by
their definitions.
"""

from functools import reduce

import numpy as np

from prodconj.connections import (ChristoffelConnection, CombinationOp, Sandwiched,
                                  ZeroOp)
from prodconj.fields import (Tensor12Field, bracket, contract, dirderiv, endo_apply, vadd,
                             vscale, vsub, vvalues)


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


def composed_torsion(ctx, nabla, x, y):
    """T(x, y) = nabla_x y - nabla_y x - [x, y] by the definition."""
    return vsub(vsub(nabla.apply(ctx, x, y), nabla.apply(ctx, y, x)), bracket(x, y))


def composed_curvature(ctx, nabla, x, y, z):
    """R(x, y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z by the
    definition; consumes two jet orders, so feed order-2 inputs."""
    t1 = nabla.apply(ctx, x, nabla.apply(ctx, y, z))
    t2 = nabla.apply(ctx, y, nabla.apply(ctx, x, z))
    t3 = nabla.apply(ctx, bracket(x, y), z)
    return vsub(vsub(t1, t2), t3)
