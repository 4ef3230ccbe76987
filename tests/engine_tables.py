"""Engine results read back as coefficient arrays, for comparing against
the oracles and closed forms in the tests.

Unlike oracles.py this module uses the engine: it applies a connection to
the coordinate frame and stacks the values.
"""

import numpy as np

from prodconj.fields import vvalues


def materialize_christoffels(ctx, nabla) -> np.ndarray:
    """Coefficient values on the coordinate frame, shape (m, n, n, n) = [.., k, i, j]."""
    n = nabla.chart.dim
    frame = ctx.frame()
    out = np.empty((ctx.count, n, n, n))
    for i in range(n):
        for j in range(n):
            out[:, :, i, j] = vvalues(nabla.apply(ctx, frame[i], frame[j]))
    return out
