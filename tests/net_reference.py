"""Matrix-product reference for net point digits, and integer dual elements, for tests.

Stacks the base-b digit vectors of the indices as an int64 matrix D and
takes (D @ C_j^T) mod b per coordinate, the direct form of the definition
that `nets._net_digits` must equal.  `digit_ints` reads (n, s, p) index
digits, least significant first, as integer vectors (k_1, ..., k_s), the
form in which witnesses are reported.
"""

import numpy as np


def net_digits_reference(n_from, n_to, b, matrices):
    rows, cols = matrices[0].shape
    n = np.arange(n_from, n_to, dtype=np.int64)
    D = (n[:, None] // b ** np.arange(cols, dtype=np.int64)[None, :]) % b
    out = np.empty((n_to - n_from, len(matrices), rows), dtype=np.uint8)
    for j, mat in enumerate(matrices):
        out[:, j] = (D @ np.asarray(mat, dtype=np.int64).T) % b
    return out


def digit_ints(digits, b):
    """The integer vectors (k_1, ..., k_s) of an (n, s, p) array of index digits."""
    return [tuple(sum(int(d) * b**i for i, d in enumerate(row)) for row in element) for element in digits]
