"""Float64 reference for the squared L2 discrepancy, for tests at large N.

Warnock's pairwise formula summed in float64 blocks of 256 rows with
math.fsum, O(N^2 s).  Its relative error grows with N through
cancellation (about 1e-9 at N = 16384).
"""

import math

import numpy as np


def l2_float_reference(ps) -> float:
    x = ps.float_array()
    n = len(x)
    sums = [
        float((1.0 - np.maximum(x[i : i + 256, None, :], x[None, :, :])).prod(axis=2).sum())
        for i in range(0, n, 256)
    ]
    sq = math.fsum(sums) / n**2 - 2.0 * math.fsum(((1.0 - x**2) / 2.0).prod(axis=1)) / n + 3.0**-ps.s
    return math.sqrt(max(sq, 0.0))
