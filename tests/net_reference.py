"""Matrix-product reference for net point digits, and integer dual elements, for tests.

Stacks the base-b digit vectors of the indices as an int64 matrix D and
takes (D @ C_j^T) mod b per coordinate, the direct form of the definition
that `nets._net_digits` must equal.  Dual elements are (s, p) digit
arrays, least significant digit first; `index_digits` and `digit_ints`
convert between them and the integer vectors (k_1, ..., k_s) in which
tests write them and the CLI prints witnesses.  `compositions` lists the
box shapes and row prefixes that the loop oracles of the geometric check
and of the t-value go through one by one.
"""

import numpy as np


def net_digits_reference(count, b, matrices):
    """(count, s, rows) digits of points 0..count-1 of the net of `matrices`."""
    rows, cols = matrices[0].shape
    n = np.arange(count, dtype=np.int64)
    D = (n[:, None] // b ** np.arange(cols, dtype=np.int64)[None, :]) % b
    out = np.empty((count, len(matrices), rows), dtype=np.uint8)
    for j, mat in enumerate(matrices):
        out[:, j] = (D @ np.asarray(mat, dtype=np.int64).T) % b
    return out


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def index_digits(indices, base, precision):
    """The lowest `precision` base-b digits of each index k >= 0, least significant first.

    A (len(indices), precision) int64 array; the indices are Python ints of any size.
    """
    digits = []
    for k in indices:
        for _ in range(precision):
            k, d = divmod(k, base)
            digits.append(d)
    return np.array(digits, dtype=np.int64).reshape(len(indices), precision)


def digit_ints(digits, b):
    """The integer vectors (k_1, ..., k_s) of an (n, s, p) array of index digits."""
    return [tuple(sum(int(d) * b**i for i, d in enumerate(row)) for row in element) for element in digits]
