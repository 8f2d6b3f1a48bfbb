"""References for the squared L2 discrepancy, for tests beyond the rational oracle.

`l2_float_reference` is Warnock's pairwise formula summed in float64
blocks of 256 rows with math.fsum, O(N^2 s).  Its relative error grows
with N through cancellation (about 1e-9 at N = 16384).

`l2_integer_reference` is the same formula in Python integers, O(N^2 s)
and exact: with x_jn = X_jn / P and u_jn = P - X_jn, the pair term is
sum_{a,b} prod_j min(u_ja, u_jb) and the cross term sum_n prod_j (P^2 - X_jn^2).

`tie_heavy` draws the tie-heavy point sets that the L2 tests feed to both.
"""

import math
from fractions import Fraction

import numpy as np

from lowdisc.nets import PointSet


def l2_float_reference(ps) -> float:
    x = ps.float_array()
    n = len(x)
    sums = [
        float((1.0 - np.maximum(x[i : i + 256, None, :], x[None, :, :])).prod(axis=2).sum())
        for i in range(0, n, 256)
    ]
    sq = math.fsum(sums) / n**2 - 2.0 * math.fsum(((1.0 - x**2) / 2.0).prod(axis=1)) / n + 3.0**-ps.s
    return math.sqrt(max(sq, 0.0))


def integer_coordinates(ps) -> list[list[int]]:
    """X_jn as Python integers, one list per coordinate j."""
    coords = [[0] * len(ps) for _ in range(ps.s)]
    for n, point in enumerate(ps.digit_array().tolist()):
        for j, digits in enumerate(point):
            for d in digits:
                coords[j][n] = coords[j][n] * ps.base + d
    return coords


def pair_sum_reference(ps) -> int:
    """sum_{a,b} prod_j min(u_ja, u_jb) in Python integers, one row of pairs at a time."""
    big_p = ps.base**ps.precision
    u = [np.array([big_p - x for x in coord], dtype=object) for coord in integer_coordinates(ps)]
    total = 0
    for a in range(len(ps)):
        row = np.ones(len(ps), dtype=object)
        for u_j in u:
            row *= np.minimum(u_j, u_j[a])
        total += sum(row.tolist())
    return total


def l2_integer_reference(ps) -> Fraction:
    n, s = len(ps), ps.s
    big_p = ps.base**ps.precision
    cross = 0
    for point in zip(*integer_coordinates(ps)):
        cross += math.prod(big_p * big_p - x * x for x in point)
    return (
        Fraction(pair_sum_reference(ps), n * n * big_p**s)
        - Fraction(2 * cross, n * 2**s * big_p ** (2 * s))
        + Fraction(1, 3**s)
    )


def tie_heavy(n, s, b, p, rng):
    """N random points with duplicates, a first coordinate of three values
    and, for s > 1, an all-zero last coordinate."""
    digits = rng.integers(0, b, size=(n, s, p)).astype(np.uint8)
    digits[n - n // 4 :] = digits[: n // 4]
    digits[:, 0] = digits[np.arange(n) % 3, 0]
    if s > 1:
        digits[:, -1] = 0
    return PointSet.from_digits(digits, b)
