"""Local discrepancy, exact L2 discrepancy, and Lq estimation.

The squared L2 discrepancy of an N-point set has the closed pairwise form

    (1/N^2) sum_{n,n'} prod_j (1 - max(x_jn, x_jn'))
    - (2/N) sum_n prod_j (1 - x_jn^2)/2  +  3^-s,

evaluated here in float64 with exact (fsum) reduction of block sums, and
independently in exact rational arithmetic as a brute-force oracle for
small inputs.  General Lq norms have no closed form and are estimated by
stratified Monte Carlo.  Lower-bound comparators use the explicit Roth
constant c_s = 7 / (27 * 2^(2s-1) * (log 2)^((s-1)/2) * sqrt((s-1)!)).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .constructions import arbitrary_n_trim
from .errors import CapacityError, ParameterError
from .nets import PointSet, fraction_digits

__all__ = [
    "DiscrepancyReport",
    "local_discrepancy",
    "l2_exact",
    "l2_exact_rational",
    "lq_estimate",
    "roth_constant",
    "roth_lower_bound",
    "RothBound",
    "sum_of_digits",
    "roth_sequence_ratio",
    "SequenceProfile",
    "ProfileRow",
    "sequence_profile",
    "profile_grid",
    "trim_inequality_check",
    "append_index_coordinate",
]


@dataclass(frozen=True)
class DiscrepancyReport:
    """One discrepancy measurement of an N-point set in dimension s."""

    N: int
    s: int
    q: float
    value: float
    method: str  # exact-pairwise | exact-rational | estimated
    stderr: float | None = None
    roth_ratio: float | None = None

    def csv_row(self, family: str = "", params: str = "") -> str:
        se = "" if self.stderr is None else repr(self.stderr)
        rr = "" if self.roth_ratio is None else repr(self.roth_ratio)
        sn = sum_of_digits(self.N) if self.N >= 1 else ""
        return (
            f"{family},{params},{self.N},{self.s},{self.q},{self.method},"
            f"{self.value!r},{se},{rr},{sn}"
        )


CSV_HEADER = "family,params,N,s,q,method,value,stderr,roth_ratio,S_N"


def local_discrepancy(ps: PointSet, t: Sequence[float]) -> float:
    """Empirical fraction of points in the box [0, t) minus its volume."""
    if len(t) != ps.s:
        raise ParameterError(f"anchor has {len(t)} coordinates, expected {ps.s}")
    if len(ps) == 0:
        raise ParameterError("empty point set")
    x = ps.float_array()
    inside = np.all(x < np.asarray(t, dtype=np.float64)[None, :], axis=1)
    volume = float(np.prod(np.asarray(t, dtype=np.float64)))
    return float(np.count_nonzero(inside)) / len(ps) - volume


def _pair_block_sum(x: np.ndarray, i0: int, i1: int) -> float:
    block = 1.0 - np.maximum(x[i0:i1, None, :], x[None, :, :])
    return float(block.prod(axis=2).sum())


def l2_exact(ps: PointSet, threads: int = 1) -> DiscrepancyReport:
    """Exact-formula L2 discrepancy in float64, O(N^2 s).

    Pair sums are reduced blockwise with math.fsum, so results are
    bit-reproducible for any thread count.
    """
    n = len(ps)
    if n == 0:
        raise ParameterError("empty point set")
    x = ps.float_array()
    block = 256
    ranges = [(i, min(i + block, n)) for i in range(0, n, block)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = list(pool.map(lambda r: _pair_block_sum(x, *r), ranges))
    else:
        sums = [_pair_block_sum(x, *r) for r in ranges]
    term_pairs = math.fsum(sums) / n**2
    term_cross = 2.0 * math.fsum(((1.0 - x**2) / 2.0).prod(axis=1)) / n
    sq = term_pairs - term_cross + 3.0**-ps.s
    value = math.sqrt(max(sq, 0.0))
    return DiscrepancyReport(
        N=n,
        s=ps.s,
        q=2.0,
        value=value,
        method="exact-pairwise",
        roth_ratio=_roth_ratio(n, ps.s, value),
    )


def l2_exact_rational(ps: PointSet) -> Fraction:
    """Squared L2 discrepancy as an exact rational; oracle for l2_exact.

    Same pairwise formula, evaluated with Fraction coordinates.  Capped at
    N <= 64, s <= 3 where the quadratic cost stays trivial.
    """
    n = len(ps)
    if n == 0:
        raise ParameterError("empty point set")
    if n > 64 or ps.s > 3:
        raise CapacityError(f"rational oracle capped at N <= 64, s <= 3 (got N={n}, s={ps.s})")
    coords = [ps.fractions(i) for i in range(n)]
    term_pairs = Fraction(0)
    for a in coords:
        for b in coords:
            prod = Fraction(1)
            for j in range(ps.s):
                prod *= 1 - max(a[j], b[j])
            term_pairs += prod
    term_cross = Fraction(0)
    for a in coords:
        prod = Fraction(1)
        for j in range(ps.s):
            prod *= (1 - a[j] ** 2) / 2
        term_cross += prod
    return term_pairs / n**2 - 2 * term_cross / n + Fraction(1, 3**ps.s)


def lq_estimate(
    ps: PointSet,
    q: float,
    samples: int,
    seed: int = 0,
) -> DiscrepancyReport:
    """Stratified Monte Carlo estimate of the Lq discrepancy, q < infinity.

    The cube is split into 2^(s*L) dyadic cells (the largest such grid not
    exceeding the sample budget) with an equal number of uniform draws per
    cell.  The reported standard error treats the draws as a simple random
    sample, which upper-bounds the stratified error.
    """
    if not 1 <= q < math.inf:
        raise ParameterError("need 1 <= q < infinity")
    if samples < 1:
        raise ParameterError("need at least one sample")
    n = len(ps)
    if n == 0:
        raise ParameterError("empty point set")
    s = ps.s
    level = 0
    while 2 ** (s * (level + 1)) <= samples:
        level += 1
    cells_per_axis = 2**level
    cells = cells_per_axis**s
    per_cell = samples // cells
    rng = np.random.default_rng(seed)
    x = ps.float_array()
    corners = np.stack(
        np.meshgrid(*[np.arange(cells_per_axis)] * s, indexing="ij"), axis=-1
    ).reshape(cells, s)
    draws = rng.random((cells, per_cell, s))
    t = (corners[:, None, :] + draws) / cells_per_axis
    t = t.reshape(cells * per_cell, s)
    used = t.shape[0]
    vals = np.empty(used)
    chunk = max(1, (1 << 22) // max(n, 1))
    for i0 in range(0, used, chunk):
        tt = t[i0 : i0 + chunk]
        inside = np.all(x[None, :, :] < tt[:, None, :], axis=2)
        vals[i0 : i0 + chunk] = inside.sum(axis=1) / n - tt.prod(axis=1)
    powered = np.abs(vals) ** q
    mean = float(powered.mean())
    var = float(powered.var(ddof=1)) if used > 1 else 0.0
    se_mean = math.sqrt(var / used)
    value = mean ** (1.0 / q)
    stderr = se_mean * value ** (1.0 - q) / q if mean > 0 else se_mean ** (1.0 / q)
    return DiscrepancyReport(
        N=n,
        s=s,
        q=q,
        value=value,
        method="estimated",
        stderr=stderr,
        roth_ratio=_roth_ratio(n, s, value) if q >= 2 else None,
    )


# ----------------------------------------------------------------------
# Lower-bound comparators
# ----------------------------------------------------------------------

class RothBound(NamedTuple):
    value: float
    constant_known: bool


def roth_constant(s: int) -> float:
    """The explicit constant in the (log N)^((s-1)/2) / N lower bound."""
    if s < 1:
        raise ParameterError("dimension must be >= 1")
    return 7.0 / (
        27.0 * 2.0 ** (2 * s - 1) * math.log(2.0) ** ((s - 1) / 2.0) * math.sqrt(math.factorial(s - 1))
    )


def roth_lower_bound(s: int, N: int, q: float = 2.0) -> RothBound:
    """Universal lower bound on the Lq discrepancy of any N-point set.

    For q >= 2 the explicit constant applies; for 1 <= q < 2 only the
    shape is known, so the value is 0 with constant_known=False.
    """
    if N < 2:
        raise ParameterError("the bound needs N >= 2")
    if q < 1:
        raise ParameterError("need q >= 1")
    if q < 2:
        return RothBound(0.0, False)
    return RothBound(roth_constant(s) * math.log(N) ** ((s - 1) / 2.0) / N, True)


def _roth_ratio(n: int, s: int, value: float) -> float | None:
    if n < 2:
        return None
    return value / roth_lower_bound(s, n).value


def sum_of_digits(N: int) -> int:
    """Number of ones in the binary expansion of N >= 1."""
    if N < 1:
        raise ParameterError("need N >= 1")
    return bin(N).count("1")


def roth_sequence_ratio(N: int, s: int, value: float) -> float:
    """N * value / ((log N)^((s-1)/2) * sqrt(S(N))), the sequence normaliser."""
    return N * value / (math.log(N) ** ((s - 1) / 2.0) * math.sqrt(sum_of_digits(N)))


# ----------------------------------------------------------------------
# Sequence profiles and the trim inequality
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileRow:
    N: int
    value: float
    s_n: int
    ratio_roth: float
    ratio_partition: float


@dataclass(frozen=True)
class SequenceProfile:
    s: int
    q: float
    rows: tuple[ProfileRow, ...]

    def csv(self) -> str:
        lines = ["N,value,S_N,ratio_roth,ratio_partition"]
        for r in self.rows:
            lines.append(f"{r.N},{r.value!r},{r.s_n},{r.ratio_roth!r},{r.ratio_partition!r}")
        return "\n".join(lines) + "\n"


def profile_grid(n_max: int) -> list[int]:
    """All N <= 256, plus powers of two and (2^m - 1)-values up to n_max."""
    grid = set(range(2, min(n_max, 256) + 1))
    m = 1
    while 2**m <= n_max:
        grid.add(2**m)
        m += 1
    m = 2
    while 2**m - 1 <= n_max:
        grid.add(2**m - 1)
        m += 1
    return sorted(grid)


def _partition_normalizer(N: int, s: int, q: float) -> float:
    """r^(3/2 - 1/q) * sqrt(sum of m_v^(s-1)) for N = 2^m_1 + ... + 2^m_r."""
    exponents = [i for i in range(N.bit_length()) if (N >> i) & 1]
    r = len(exponents)
    return r ** (1.5 - 1.0 / q) * math.sqrt(sum(float(m_v) ** (s - 1) for m_v in exponents))


def sequence_profile(
    family: Callable[[int, int], PointSet],
    s: int,
    n_max: int,
    q: float = 2.0,
    samples: int = 4096,
    seed: int = 0,
    threads: int = 1,
) -> SequenceProfile:
    """Discrepancy of the first N points of a sequence across a grid of N.

    `family(s, n_max)` must return the first n_max points of the sequence.
    At q = 2 the exact formula is used; otherwise the Monte Carlo estimate.
    Each row records N * Lq divided by the two normalizers of interest:
    (log N)^((s-1)/2) * sqrt(S(N)), and the binary-partition quantity
    r^(3/2-1/q) * sqrt(sum m_v^(s-1)).
    """
    if n_max < 2:
        raise ParameterError("need n_max >= 2")
    full = family(s, n_max)
    rows = []
    for n in profile_grid(n_max):
        ps = full.prefix(n)
        if q == 2.0:
            rep = l2_exact(ps, threads=threads)
        else:
            rep = lq_estimate(ps, q, samples, seed)
        ratio_roth = roth_sequence_ratio(n, s, rep.value)
        ratio_part = n * rep.value / _partition_normalizer(n, s, q)
        rows.append(ProfileRow(n, rep.value, sum_of_digits(n), ratio_roth, ratio_part))
    return SequenceProfile(s, q, tuple(rows))


def trim_inequality_check(ps_full: PointSet, N: int, rel_tol: float = 1e-9) -> bool:
    """Verify N * L2(trimmed) <= sqrt(b) * b^m * L2(full) numerically."""
    trimmed = arbitrary_n_trim(ps_full, N)
    lhs = N * l2_exact(trimmed).value
    rhs = math.sqrt(ps_full.base) * len(ps_full) * l2_exact(ps_full).value
    return lhs <= rhs * (1.0 + rel_tol)


def append_index_coordinate(ps: PointSet, N: int, precision: int | None = None) -> PointSet:
    """First N points with the extra coordinate k/N appended.

    The device behind lifting sequence lower bounds to dimension s + 1;
    with N a power of the base the new coordinate is digit-exact.
    """
    if len(ps) < N:
        raise ParameterError(f"need at least N={N} points, got {len(ps)}")
    if N < 1:
        raise ParameterError("need N >= 1")
    b = ps.base
    exact_digits = next(e for e in range(N.bit_length() + 1) if b**e >= N)
    if b**exact_digits == N:
        out_precision = max(ps.precision, exact_digits, 1)
    else:
        out_precision = max(ps.precision, 48 if precision is None else precision)
    digits = np.pad(ps.digit_array()[:N], ((0, 0), (0, 1), (0, out_precision - ps.precision)))
    digits[:, ps.s] = fraction_digits(np.arange(N), N, b, out_precision)
    prov = dict(ps.provenance) if ps.provenance else {}
    prov["appended_index_coordinate"] = N
    return PointSet.from_digits(digits, b, prov)
