"""Explicit generating-matrix families and point-set constructions.

Covers the binomial-coefficient matrices of Chen and Skriganov (Faure's
matrices are the interlacing-factor-1 special case), generalized
Niederreiter sequences over F_2 built from Laurent series of irreducible
polynomials, digit interlacing at both the point and the matrix level,
the interlaced finite/infinite constructions built from them, the
trim-and-rescale device that turns b^m-point sets into N-point sets for
arbitrary N, and Davenport's symmetrized two-dimensional set.

Every digital construction is one (s, rows, cols) matrix array passed
through `nets.generate_net_points`.  A digital sequence is a net prefix:
its first N points are points 0..N-1 of the net of the upper-left
blocks of its matrices (Niederreiter, J. Number Theory 30 (1988)), so
`dp_sequence` and `dp_finite_base` interlace matrices, not points.
`interlace_pointset` stays as the independent point-level path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConsistencyError, ParameterError
from .field import (
    binomial_mod_p,
    irreducible_polys_f2,
    is_prime,
    poly_degree,
    poly_divmod,
    poly_mul,
)
from .nets import (
    GeneratingMatrixSet,
    PointSet,
    _net_exponent,
    check_capacity,
    check_matrix_capacity,
    fraction_digits,
    generate_net_points,
)

__all__ = [
    "cs_matrices",
    "faure_matrices",
    "niederreiter_t_bound",
    "niederreiter_net_matrices",
    "interlace_pointset",
    "interlace_matrices",
    "dp_net_matrices",
    "dp_net",
    "dp_finite_base",
    "dp_finite_pointset",
    "dp_sequence",
    "arbitrary_n_trim",
    "davenport_symmetrized",
    "van_der_corput_matrices",
    "van_der_corput",
]

# Base-b digits kept of a coordinate whose expansion does not terminate (the trim's
# rescaled first coordinate, Davenport's {n alpha} and n/M).
_TAIL_DIGITS = 48


# ----------------------------------------------------------------------
# Chen-Skriganov / Faure matrices
# ----------------------------------------------------------------------

def default_betas(alpha: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Row-major enumeration 0, 1, ..., alpha*s - 1; distinct by construction."""
    return tuple(tuple(i * alpha + l for l in range(alpha)) for i in range(s))


def cs_matrices(
    b: int,
    alpha: int,
    m: int,
    s: int,
    betas: Sequence[Sequence[int]] | None = None,
) -> GeneratingMatrixSet:
    """Binomial-coefficient generating matrices over F_b.

    Matrix i has alpha*m rows and columns; row (l-1)*m + j carries the
    entries C(k-1, j-1) * beta_{i,l}^(k-j) mod b for k = 1..alpha*m, with
    the conventions C(i, j) = 0 for j > i and 0^0 = 1.  Requires b >= alpha*s
    and pairwise distinct beta values.
    """
    if not is_prime(b):
        raise ParameterError(f"base {b} is not prime")
    if alpha < 1 or m < 1 or s < 1:
        raise ParameterError("alpha, m, s must be positive")
    if b < alpha * s:
        raise ParameterError(f"need b >= alpha*s, got b={b} < {alpha * s}")
    if betas is None:
        betas = default_betas(alpha, s)
    flat = [beta for row in betas for beta in row]
    if len(betas) != s or any(len(row) != alpha for row in betas):
        raise ParameterError("betas must be an s x alpha array")
    if any(not 0 <= beta < b for beta in flat):
        raise ParameterError("beta values must lie in F_b")
    if len(set(flat)) != len(flat):
        raise ParameterError("beta values must be pairwise distinct")
    n = alpha * m
    check_matrix_capacity(s, n, n)
    binom = [[binomial_mod_p(k, j, b) for k in range(n)] for j in range(m)]  # C(k, j) mod b
    arr = np.zeros((s, n, n), dtype=np.int64)
    for i in range(s):
        for l, beta in enumerate(betas[i]):
            for j in range(m):
                for k in range(j, n):  # pow(beta, 0, b) = 1 gives the diagonal, 0^0 included
                    arr[i, l * m + j, k] = binom[j][k] * pow(beta, k - j, b) % b
    return GeneratingMatrixSet(b, arr)


def faure_matrices(b: int, m: int, s: int) -> GeneratingMatrixSet:
    """The classical power-of-Pascal matrices: interlacing factor 1."""
    return cs_matrices(b, 1, m, s)


# ----------------------------------------------------------------------
# Generalized Niederreiter sequences over F_2
# ----------------------------------------------------------------------

def niederreiter_t_bound(s: int) -> int:
    """Quality parameter of the s-dimensional sequence: the sum of deg p_j - 1."""
    return sum(poly_degree(p) - 1 for p in irreducible_polys_f2(s))


def niederreiter_net_matrices(s: int, m: int) -> GeneratingMatrixSet:
    """The upper-left m x m blocks of the generalized Niederreiter sequence matrices.

    Dimension j uses the j-th polynomial p_j, of degree e_j, of the
    degree-sorted irreducible list over F_2 (starting x, 1+x, 1+x+x^2, ...).
    Entry (k, ell) of C_j is the coefficient of x^-ell in the Laurent
    expansion of x^(e_j - z - 1) / p_j(x)^i, where k - 1 = (i-1) e_j + z,
    0 <= z < e_j: bit m - ell of the polynomial quotient of
    x^(e_j - z - 1 + m) by p_j^i, which has degree m - k.  Entries vanish
    for k > ell.
    """
    if s < 1:
        raise ParameterError("dimension must be >= 1")
    if m < 1:
        raise ParameterError("need m >= 1")
    check_matrix_capacity(s, m, m)
    quotients = []  # row k of every C_j, C_1's first, as an m-bit integer
    for p in irreducible_polys_f2(s):
        e = poly_degree(p)
        power = 1  # p_j^i for the current row
        for k in range(m):
            z = k % e
            if z == 0:
                power = poly_mul(power, p)
            quotients.append(poly_divmod(1 << (e - z - 1 + m), power)[0])
    width = (m + 7) // 8
    packed = np.frombuffer(b"".join(q.to_bytes(width, "big") for q in quotients), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(s * m, width), axis=1)[:, width * 8 - m :]
    return GeneratingMatrixSet(2, bits.reshape(s, m, m))


# ----------------------------------------------------------------------
# Digit interlacing
# ----------------------------------------------------------------------

def interlace_pointset(ps: PointSet, alpha: int) -> PointSet:
    """Apply digit interlacing to blocks of alpha coordinates of every point.

    Output digit r + (a-1)*alpha of a block is digit a of its input
    coordinate r: the transpose of each (alpha, p) digit block.
    """
    if ps.s % alpha != 0:
        raise ParameterError(f"dimension {ps.s} not divisible by alpha={alpha}")
    if ps.base != 2:
        raise ParameterError("digit interlacing is defined for base 2")
    n, s_out, p = len(ps), ps.s // alpha, ps.precision
    blocks = ps.digit_array().reshape(n, s_out, alpha, p)
    digits = blocks.transpose(0, 1, 3, 2).reshape(n, s_out, p * alpha)
    return PointSet.from_digits(digits, 2, ps.provenance)


def interlace_matrices(gm: GeneratingMatrixSet, alpha: int) -> GeneratingMatrixSet:
    """Matrix-level digit interlacing.

    Row u*alpha + v of the j-th output matrix is row u + 1 of input matrix
    (j-1)*alpha + v: the transpose of each (alpha, p) block of rows, as in
    `interlace_pointset`.  The output has alpha*p rows and the same
    columns, and generates exactly the pointwise-interlaced net.
    """
    if gm.s % alpha != 0:
        raise ParameterError(f"dimension {gm.s} not divisible by alpha={alpha}")
    s_out = gm.s // alpha
    blocks = gm.array.reshape(s_out, alpha, gm.rows, gm.cols)
    return GeneratingMatrixSet(
        gm.base, blocks.transpose(0, 2, 1, 3).reshape(s_out, gm.rows * alpha, gm.cols)
    )


# ----------------------------------------------------------------------
# Interlaced Niederreiter constructions
# ----------------------------------------------------------------------

def dp_net_matrices(alpha: int, m: int, s: int) -> GeneratingMatrixSet:
    """Interlaced generating matrices: Niederreiter in dimension alpha*s."""
    if alpha < 1 or m < 1 or s < 1:
        raise ParameterError("alpha, m, s must be positive")
    base = niederreiter_net_matrices(alpha * s, m)
    return interlace_matrices(base, alpha)


def dp_net(alpha: int, m: int, s: int) -> PointSet:
    """2^m-point interlaced net in [0,1)^s with higher-order dual weight."""
    ps = generate_net_points(
        dp_net_matrices(alpha, m, s),
        provenance={"family": "dp-net", "alpha": alpha, "m": m, "s": s},
    )
    return ps


def dp_finite_base(m: int, s: int) -> PointSet:
    """The 2^m-point interlaced set that dp_finite_pointset trims.

    The net of the m x m anti-identity stacked on the Niederreiter
    matrices of dimension 3s-1, interlaced in blocks of three: the first
    2^m points of the Niederreiter sequence with the coordinate n*2^-m
    prepended (digit k of n*2^-m is bit m-1-k of n).  The first
    coordinate is verified to hit every m-digit prefix exactly once,
    which is what makes the trim to arbitrary N possible.
    """
    if m < 1 or s < 1:
        raise ParameterError("need m >= 1 and s >= 1")
    index = np.eye(m, dtype=np.int64)[None, ::-1]
    stacked = np.concatenate([index, niederreiter_net_matrices(3 * s - 1, m).array])
    interlaced = generate_net_points(interlace_matrices(GeneratingMatrixSet(2, stacked), 3))
    if _stratified_prefixes(interlaced, m) is None:
        raise ConsistencyError(
            "projection onto the first coordinate is not a maximally stratified "
            "one-dimensional net; upstream construction is broken"
        )
    return interlaced


def dp_finite_pointset(N: int, s: int) -> PointSet:
    """N-point set in [0,1)^s for arbitrary N >= 2.

    Trims dp_finite_base (with 2^(m-1) < N <= 2^m) to its first N points
    along coordinate one and rescales that coordinate by 2^m/N.
    """
    if N < 2:
        raise ParameterError("need N >= 2")
    if s < 1:
        raise ParameterError("need s >= 1")
    m = (N - 1).bit_length()
    trimmed = arbitrary_n_trim(dp_finite_base(m, s), N)
    return PointSet.from_digits(
        trimmed.digit_array(), 2, provenance={"family": "dp-finite", "N": N, "s": s}
    )


def _stratified_prefixes(ps: PointSet, m: int) -> np.ndarray | None:
    """The m-digit prefixes of the first coordinates as integers, or None unless
    they are 0..b^m-1 in some order, i.e. every count |{x_1 < r*b^-m}| is r."""
    k = min(m, ps.precision)
    powers = ps.base ** np.arange(m - 1, m - 1 - k, -1, dtype=np.int64)
    prefixes = ps.digit_array()[:, 0, :k].astype(np.int64) @ powers
    return prefixes if np.array_equal(np.sort(prefixes), np.arange(len(ps))) else None


def dp_sequence(s: int, n_max: int) -> PointSet:
    """First n_max points of the interlacing-factor-5 sequence in [0,1)^s.

    The sequence is digital, so its first n_max points are a net prefix:
    points 0..n_max-1 of dp_net(5, m, s), with m = max(1, bit_length(n_max - 1))
    the fewest columns that index them.
    """
    if n_max < 1:
        raise ParameterError("need n_max >= 1")
    if s < 1:
        raise ParameterError("need s >= 1")
    m = max(1, (n_max - 1).bit_length())
    return generate_net_points(
        dp_net_matrices(5, m, s),
        provenance={"family": "dp-sequence", "s": s, "n_max": n_max},
        count=n_max,
    )


# ----------------------------------------------------------------------
# Arbitrary-N trim and Davenport's symmetrized set
# ----------------------------------------------------------------------

def arbitrary_n_trim(ps: PointSet, N: int) -> PointSet:
    """Keep the first N points along coordinate one and rescale by b^m/N.

    Requires b^(m-1) < N <= b^m where the input holds b^m points, and the
    hypothesis that the first coordinate hits every m-digit prefix exactly
    once (checked).  Rescaled first coordinates are generally not base-b
    rationals of finite expansion, so they are truncated to _TAIL_DIGITS
    digits (or the input's precision, if larger).
    """
    b, count, m = ps.base, len(ps), _net_exponent(ps)
    if m == 0:
        if N != 1:
            raise ParameterError(f"a single-point set can only be trimmed to N=1, got N={N}")
    elif not b ** (m - 1) < N <= b**m:
        raise ParameterError(f"need {b}^{m - 1} < N <= {b}^{m}, got N={N}")
    prefixes = _stratified_prefixes(ps, m)
    if prefixes is None:
        raise ParameterError(
            "first coordinate does not hit every prefix exactly once; "
            "the trim construction requires a maximally stratified projection"
        )
    prov = dict(ps.provenance) if ps.provenance else {}
    prov.update({"trimmed_to": N})
    if N == count:
        return PointSet.from_digits(ps.digit_array(), b, prov)
    out_precision = max(ps.precision, _TAIL_DIGITS)
    keep = prefixes < N
    digits = np.pad(ps.digit_array()[keep], ((0, 0), (0, 0), (0, out_precision - ps.precision)))
    # x * b^m / N: the m-digit prefix over N, then the digits after it brought down
    digits[:, 0] = fraction_digits(prefixes[keep], N, b, out_precision, tail=digits[:, 0, m:])
    return PointSet.from_digits(digits, b, prov)


def davenport_symmetrized(M: int) -> PointSet:
    """The 2M points ({n*alpha}, n/M) and ({-n*alpha}, n/M), n = 1..M.

    alpha is the golden ratio, represented exactly by its first Fibonacci
    convergent with denominator above M^2, so the fractional parts are
    exact rationals before truncation to _TAIL_DIGITS binary digits.  The
    n = M second coordinate would be 1 and wraps to 0 to stay inside [0,1).
    """
    if M < 1:
        raise ParameterError("need M >= 1")
    check_capacity(2 * M, 2, _TAIL_DIGITS)
    num, den = 1, 1
    while den <= M * M:
        num, den = num + den, num
    num %= den
    n = np.repeat(np.arange(1, M + 1, dtype=np.int64 if M * den < 2**63 else object), 2)
    x = (np.tile([1, -1], M) * n * num) % den  # {n alpha}, {-n alpha}, ... times den
    digits = np.stack(
        [fraction_digits(x, den, 2, _TAIL_DIGITS), fraction_digits(n % M, M, 2, _TAIL_DIGITS)], axis=1
    )
    prov = {"family": "davenport", "M": M, "alpha_cf": "golden", "precision": _TAIL_DIGITS}
    return PointSet.from_digits(digits, 2, prov)


def van_der_corput_matrices(b: int, m: int) -> GeneratingMatrixSet:
    """The m x m identity over F_b: the generating matrix of the radical-inverse net."""
    if m < 1:
        raise ParameterError("need m >= 1")
    check_matrix_capacity(1, m, m)
    return GeneratingMatrixSet(b, np.eye(m, dtype=np.int64)[None])


def van_der_corput(b: int, m: int) -> PointSet:
    """The b^m-point radical-inverse set."""
    return generate_net_points(
        van_der_corput_matrices(b, m), provenance={"family": "van-der-corput", "b": b, "m": m}
    )
