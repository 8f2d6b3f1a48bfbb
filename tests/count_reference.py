"""Broadcast reference for the points strictly below each anchor, for tests.

Compares every anchor with every point, len(t) x N x s booleans in chunks
of about 4M, the direct form that `discrepancy._count_below` must equal.
"""

import numpy as np


def count_below_reference(x, t):
    counts = np.empty(len(t), dtype=np.int64)
    chunk = max(1, (1 << 22) // len(x))
    for i in range(0, len(t), chunk):
        tt = t[i : i + chunk]
        counts[i : i + chunk] = np.all(x[None, :, :] < tt[:, None, :], axis=2).sum(axis=1)
    return counts
