"""Point-level reference for the interlaced sequence constructions, for tests.

Builds each Niederreiter matrix entry by entry from its Laurent quotient,
takes the first N points of each sequence coordinate by the matrix
product of `net_reference`, and interlaces the points digit by digit
with `interlace_pointset`.  `dp_finite_base_reference` first prepends the
index coordinate n*2^-m as the long-division digits of `fraction_digits`.
No matrix-level interlacing and no net-prefix generation is involved, so
this is an independent path for `dp_sequence` and `dp_finite_base`.
"""

import numpy as np

from lowdisc.constructions import interlace_pointset
from lowdisc.field import irreducible_polys_f2, poly_degree, poly_divmod, poly_mul
from lowdisc.nets import PointSet, fraction_digits

from net_reference import net_digits_reference


def niederreiter_matrix_reference(p, m):
    """The m x m block of the Niederreiter matrix of polynomial p, entry by entry.

    Entry (k, ell) is the coefficient of x^-ell in x^(e - z - 1) / p^i,
    where e = deg p and k - 1 = (i-1) e + z with 0 <= z < e.
    """
    e = poly_degree(p)
    arr = np.zeros((m, m), dtype=np.int64)
    for k in range(1, m + 1):
        i, z = divmod(k - 1, e)
        power = 1
        for _ in range(i + 1):
            power = poly_mul(power, p)
        quotient, _ = poly_divmod(1 << (e - z - 1 + m), power)
        for ell in range(1, m + 1):
            arr[k - 1, ell - 1] = (quotient >> (m - ell)) & 1
    return arr


def sequence_digits_reference(dim, count, m):
    """(count, dim, m) digits of the first `count` points of the dim-dimensional sequence."""
    matrices = [niederreiter_matrix_reference(p, m) for p in irreducible_polys_f2(dim)]
    return net_digits_reference(count, 2, matrices)


def dp_sequence_reference(s, n_max):
    m = max(1, (n_max - 1).bit_length())
    points = PointSet.from_digits(sequence_digits_reference(5 * s, n_max, m), 2)
    return interlace_pointset(points, 5).digit_array()


def dp_finite_base_reference(m, s):
    count = 1 << m
    index = fraction_digits(np.arange(count), count, 2, m)[:, None]
    digits = np.concatenate([index, sequence_digits_reference(3 * s - 1, count, m)], axis=1)
    return interlace_pointset(PointSet.from_digits(digits, 2), 3).digit_array()
