"""Local discrepancy, exact L2 discrepancy, and Lq estimation.

The squared L2 discrepancy of an N-point set has Warnock's closed
pairwise form

    (1/N^2) sum_{n,n'} prod_j (1 - max(x_jn, x_jn'))
    - (2/N) sum_n prod_j (1 - x_jn^2)/2  +  3^-s.

Points are digit-exact, x_jn = X_jn / P with P = b^precision, so
`l2_exact` evaluates it exactly in integers.  The pair term
sum prod_j min(P - X_jn, P - X_jn') is a closed form for s = 1.  For
s >= 2, Heinrich's divide and conquer (S. Heinrich, Math. Comp. 65
(1996) 1621-1633; Bentley's multidimensional divide and conquer, CACM 23
(1980)) halves on rank in the first s - 2 coordinates, and one plane
kernel takes the last two: it halves on rank in the first of them, sorts
each level's blocks by rank in the second, and keeps two uint64 sums per
point across all levels, with one modular product per point at the end.
That is O(N log^2 N) for s = 2 and O(N log^s N) for s >= 3.  Integer
sums are carried modulo coprime moduli below 2^32 and recovered by the
Chinese remainder theorem; the squared value is kept as a Fraction on the
report.  `l2_exact_rational` is the same formula with
Fraction coordinates, a brute-force oracle for small inputs.  General Lq
norms have no closed form and are estimated by stratified Monte Carlo;
the points below each draw are counted with prefix bitsets (sort each
coordinate once, look up one bitset per coordinate, AND them, popcount),
about samples * N * s / 64 word operations plus N log N per coordinate.
Lower-bound comparators use the explicit Roth constant
c_s = 7 / (27 * 2^(2s-1) * (log 2)^((s-1)/2) * sqrt((s-1)!)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .constructions import arbitrary_n_trim
from .errors import CapacityError, ParameterError
from .nets import PointSet, _exponent, fraction_digits

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
    "scaling_ratio",
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
    exact: Fraction | None = None  # the squared value, when computed exactly

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
    anchor = np.asarray(t, dtype=np.float64)
    inside = np.count_nonzero(np.all(ps.float_array() < anchor, axis=1))
    return float(inside) / len(ps) - float(np.prod(anchor))


# Groups of at most this many (A, B) pairs are summed pair by pair.
_DIRECT_PAIRS = 64
# Items per recursive call and pairs per direct batch: this bounds the
# (items, moduli) temporaries to a few MB.
_BATCH_ITEMS = 1 << 14


@functools.cache
def _moduli(count: int) -> tuple[int, ...]:
    """The first `count` integers below 2^32, counting down, coprime to those before.

    Each is above 2^31, and residue products stay below 2^64, so uint64
    arrays carry them exactly.
    """
    moduli, q = [], 2**32
    while len(moduli) < count:
        q -= 1
        if all(math.gcd(q, m) == 1 for m in moduli):
            moduli.append(q)
    return tuple(moduli)


def _moduli_above(bound: int) -> np.ndarray:
    """Enough moduli that their product exceeds `bound`."""
    return np.array(_moduli(bound.bit_length() // 31 + 1), dtype=np.uint64)


def _crt(residues: np.ndarray, moduli: np.ndarray) -> int:
    """The integer in [0, prod(moduli)) with the given residues."""
    total = math.prod(moduli.tolist())
    value = 0
    for r, q in zip(residues.tolist(), moduli.tolist()):
        rest = total // q
        value += r * rest * pow(rest, -1, q)
    return value % total


class _Coordinates(NamedTuple):
    rank: np.ndarray  # (s, N) int64: order of u_j = P - X_j, ties broken arbitrarily
    res: np.ndarray  # (s, r, N) uint64: u_j modulo each modulus
    q: np.ndarray  # (r, 1) uint64: the moduli, shaped to broadcast over items


def _integer_coordinates(ps: PointSet, moduli: np.ndarray) -> _Coordinates:
    """Ranks and residues of u_jn = P - X_jn, where x_jn = X_jn / P and P = b^precision.

    X is read by Horner's rule over chunks of digits whose value fits in
    int64; the chunks order X lexicographically and give its residues.
    """
    b, p, n = ps.base, ps.precision, len(ps)
    q = moduli[:, None]
    digits = ps.digit_array().transpose(1, 0, 2)  # (s, N, precision)
    width = 1
    while b ** (width + 1) < 2**63:
        width += 1
    chunks = []
    x_res = np.zeros((ps.s, len(moduli), n), dtype=np.uint64)
    for lo in range(0, p, width):
        hi = min(lo + width, p)
        powers = b ** np.arange(hi - lo - 1, -1, -1, dtype=np.int64)
        chunk = np.einsum("jnk,k->jn", digits[:, :, lo:hi], powers)  # no int64 copy of the digits
        chunks.append(chunk)
        part = chunk.astype(np.uint64)[:, None, :] % q
        part *= np.array([pow(b, p - hi, int(m)) for m in moduli], dtype=np.uint64)[:, None]
        part %= q
        x_res += part
        x_res %= q
    big_p = np.array([pow(b, p, int(m)) for m in moduli], dtype=np.uint64)[:, None]
    u_res = np.subtract(big_p + q, x_res, out=x_res)  # P - X, reduced below
    u_res %= q
    rank = np.empty((ps.s, n), dtype=np.int64)
    for j in range(ps.s):
        descending_x = np.lexsort([c[j] for c in reversed(chunks)])[::-1]
        rank[j, descending_x] = np.arange(n)
    return _Coordinates(rank, u_res, q)


def _run_bounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) of each item's run of equal sorted keys."""
    edges = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [len(keys)]))
    return np.repeat(starts, ends - starts), np.repeat(ends, ends - starts)


def _pair_term(co: _Coordinates) -> np.ndarray:
    """T = sum_{a,b} prod_j min(u_ja, u_jb), modulo each modulus.

    The diagonal plus twice the pairs a < b in rank order of the first
    coordinate, whose minimum there is u_1a: a closed form for s = 1, the
    plane kernel for s = 2, and halving on that rank (Heinrich's recursion)
    down to the plane kernel for s >= 3.
    """
    q = co.q
    s, n = co.rank.shape
    diag = np.ones((len(q), n), dtype=np.uint64)
    for j in range(s):
        diag = diag * co.res[j] % q
    if s == 1:
        off = (co.res[0] * (n - 1 - co.rank[0]).astype(np.uint64) % q).sum(axis=1)
    elif s == 2:
        off = _plane_sum(np.zeros(n, dtype=np.int64), None, np.argsort(co.rank[0]), None, (0, 1), co)
    else:
        ones = np.ones((len(q), n), dtype=np.uint64)
        off = _halve(np.zeros(n, dtype=np.int64), None, np.argsort(co.rank[0]), ones, tuple(range(s)), co)
    return (diag.sum(axis=1) % q[:, 0] + 2 * (off % q[:, 0])) % q[:, 0]


def _cross_sum(group, colour, point, weight, dims, co: _Coordinates) -> np.ndarray:
    """Sum over groups g of sum_{a in A_g, b in B_g} w_a w_b prod_{j in dims} min(u_ja, u_jb).

    Items are (group id, colour: True for A, point index) and a column of
    weight residues each, with at least two dims; the result is taken modulo
    each modulus.  Groups without both colours hold no pairs; the rest are
    sorted by rank in dims[0] and go to the plane kernel when two dims are
    left, and are halved otherwise.
    """
    q = co.q
    size = int(group.max()) + 1
    pairs = (np.bincount(group[colour], minlength=size) * np.bincount(group[~colour], minlength=size))[group]
    total = np.zeros(len(q), dtype=np.uint64)
    leaf = (pairs > 0) & (pairs <= _DIRECT_PAIRS)
    if leaf.any():
        total = _direct_sum(group[leaf], colour[leaf], point[leaf], weight[:, leaf], dims, co)
    keep = np.flatnonzero(pairs > _DIRECT_PAIRS)
    if not len(keep):
        return total
    order = keep[np.argsort(group[keep] * co.rank.shape[1] + co.rank[dims[0], point[keep]])]
    group, colour, point, weight = group[order], colour[order], point[order], weight[:, order]
    if len(dims) == 2:
        return total + _plane_sum(group, colour, point, weight, dims, co)
    return total + _halve(group, colour, point, weight, dims, co)


def _halve(group, colour, point, weight, dims, co: _Coordinates) -> np.ndarray:
    """The pairs of `_cross_sum` found by halving each group on rank in dims[0].

    At each level, every block of 2^(level+1) consecutive ranks splits in
    a lower and an upper half.  A pair across the halves has its minimum
    u_j at the lower item, which takes u_j into its weight; the pair goes
    on with dims[1:] in a group of its own, one per block and pairing of
    halves.  Items come sorted by (group, rank); `colour` None pairs each
    lower half with its upper half within one set of points.
    """
    q = co.q
    start, end = _run_bounds(group)
    pos = np.arange(len(group)) - start
    length = end - start
    lifted = weight * co.res[dims[0]][:, point] % q
    total = np.zeros(len(q), dtype=np.uint64)
    levels = int(length.max() - 1).bit_length()
    step = max(1, _BATCH_ITEMS // len(group))  # levels per recursive call
    for first in range(0, levels, step):
        level = np.arange(first, min(first + step, levels))[:, None]
        lower = (pos >> level) & 1 == 0
        block_key = pos >> (level + 1)
        fresh = np.ones(lower.shape, dtype=bool)
        fresh[:, 1:] = (group[1:] != group[:-1]) | (block_key[:, 1:] != block_key[:, :-1])
        block = np.cumsum(fresh) - 1  # numbered across all levels of the call
        c = lower if colour is None else np.broadcast_to(colour, lower.shape)
        live = (length > (1 << level)).ravel()  # groups larger than a half-block
        total += _cross_sum(
            (2 * block + (c != lower).ravel())[live],
            c.ravel()[live],
            np.tile(point, len(level))[live],
            np.where(lower, lifted[:, None], weight[:, None]).reshape(len(q), -1)[:, live],
            dims[1:],
            co,
        )
    return total % q[:, 0]


def _plane_sum(group, colour, point, weight, dims, co: _Coordinates) -> np.ndarray:
    """The sum of `_cross_sum` over the last two dims (x, y), in one sort per halving level.

    Each group is halved on rank in x as in `_halve`, and each block's
    items are sorted by rank in y.  A pair across the halves of a block
    has u_x of its lower item L, and u_y of whichever of L and its upper
    item U ranks lower in y.  So every item keeps two sums: `below`, the
    weight of its upper partners that rank above it in y, and `above`,
    sum w u_x of its lower partners that rank above it in y.  The pair sum
    is then sum over items of (w u_x u_y) below + (w u_y) above.  An item's
    partners at different levels are different items, so both sums stay
    below items * 2^32 and take no modulus until the end.  `weight` None
    means unit weights, for which `below` is one row of counts.
    """
    q = co.q
    x, y = dims
    start, end = _run_bounds(group)
    pos = np.arange(len(group)) - start
    length = end - start
    u_x, u_y = np.take(co.res[x], point, axis=1), np.take(co.res[y], point, axis=1)
    lifted = u_x if weight is None else weight * u_x % q
    below = np.zeros((1 if weight is None else len(q), len(group)), dtype=np.uint64)
    above = np.zeros((len(q), len(group)), dtype=np.uint64)
    rank_y = co.rank[y, point]
    for level in range(int(length.max() - 1).bit_length()):
        live = np.flatnonzero(length > (1 << level))  # groups larger than a half-block
        lower = (pos[live] >> level) & 1 == 0
        key = 2 * (start[live] + (pos[live] >> (level + 1)))  # one number per block
        if colour is not None:
            key += colour[live] != lower
        order = np.argsort(key * co.rank.shape[1] + rank_y[live])
        item, lower = live[order], lower[order]
        _, stop = _run_bounds(key[order])  # end of each item's block
        lo, hi = np.flatnonzero(lower), np.flatnonzero(~lower)
        n_lo = np.zeros(len(item) + 1, dtype=np.int64)  # lower items before each position
        np.cumsum(lower, out=n_lo[1:])
        n_hi = np.arange(len(item) + 1) - n_lo
        _add_columns(above, item[hi], _suffix_sums(lifted, item[lo], n_lo[hi], n_lo[stop[hi]]))
        if weight is None:
            below[0, item[lo]] += (n_hi[stop[lo]] - n_hi[lo]).astype(np.uint64)
        else:
            _add_columns(below, item[lo], _suffix_sums(weight, item[hi], n_hi[lo], n_hi[stop[lo]]))
    if weight is not None:  # counts of unit weights are below N, so below every modulus
        below %= q
    above %= q
    w_y = u_y if weight is None else weight * u_y % q
    total = (w_y * above % q).sum(axis=1) % q[:, 0]
    w_y *= u_x
    w_y %= q
    return (total + (w_y * below % q).sum(axis=1) % q[:, 0]) % q[:, 0]


def _suffix_sums(values: np.ndarray, items: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per (first, stop), the sum of columns first..stop-1 of values[:, items], taken
    without a modulus: exact while the sums stay below 2^64."""
    cum = np.zeros((len(values), len(items) + 1), dtype=np.uint64)
    np.cumsum(np.take(values, items, axis=1), axis=1, out=cum[:, 1:])
    return np.take(cum, stop, axis=1) - np.take(cum, first, axis=1)


def _add_columns(acc: np.ndarray, columns: np.ndarray, values: np.ndarray) -> None:
    """acc[:, columns] += values for distinct columns, through flat indices
    (about twice as fast as the two-axis fancy index)."""
    flat = (np.arange(len(acc))[:, None] * acc.shape[1] + columns).ravel()
    np.put(acc, flat, np.take(acc, flat) + values.ravel())


def _direct_sum(group, colour, point, weight, dims, co: _Coordinates) -> np.ndarray:
    """The sum of `_cross_sum`, pair by pair, for groups of few pairs."""
    q = co.q
    total = np.zeros(len(q), dtype=np.uint64)
    a_items = np.flatnonzero(colour)
    a_items = a_items[np.argsort(group[a_items], kind="stable")]
    b_items = np.flatnonzero(~colour)
    b_items = b_items[np.argsort(group[b_items], kind="stable")]
    n_b = np.bincount(group[b_items], minlength=int(group.max()) + 1)
    b_start = np.cumsum(n_b) - n_b
    partners = np.cumsum(n_b[group[a_items]])
    for a in np.split(a_items, np.searchsorted(partners, np.arange(_BATCH_ITEMS, partners[-1], _BATCH_ITEMS))):
        reps = n_b[group[a]]
        pa = np.repeat(a, reps)
        pb = b_items[np.repeat(b_start[group[a]] - (np.cumsum(reps) - reps), reps) + np.arange(len(pa))]
        prod = weight[:, pa] * weight[:, pb] % q
        xa, xb = point[pa], point[pb]
        for j in dims:
            prod *= co.res[j][:, np.where(co.rank[j, xa] < co.rank[j, xb], xa, xb)]  # u_j of the lower
            prod %= q
        total = (total + prod.sum(axis=1)) % q[:, 0]
    return total


def _l2_squared(ps: PointSet) -> Fraction:
    """Warnock's formula in integers: T/(N^2 P^s) - 2C/(N 2^s P^2s) + 3^-s.

    T = sum_{a,b} prod_j min(u_ja, u_jb) is the pair term and
    C = sum_n prod_j (P^2 - X_jn^2) the cross term.  Both are computed
    modulo coprime moduli below 2^32 in uint64 arrays and recovered exactly
    by the Chinese remainder theorem.
    """
    n, s = len(ps), ps.s
    big_p = ps.base**ps.precision
    pair_bound, cross_bound = n * n * big_p**s, n * big_p ** (2 * s)
    moduli = _moduli_above(max(pair_bound, cross_bound))
    co = _integer_coordinates(ps, moduli)
    q = co.q
    two_p = np.array([2 * big_p % int(m) for m in moduli], dtype=np.uint64)[:, None]
    cross = np.ones((len(moduli), n), dtype=np.uint64)
    for j in range(s):
        cross *= co.res[j]
        cross %= q
        cross *= (two_p + q - co.res[j]) % q
        cross %= q
    cross_term = _crt(cross.sum(axis=1) % moduli, moduli)
    r = len(_moduli_above(pair_bound))
    co = _Coordinates(co.rank, np.ascontiguousarray(co.res[:, :r]), q[:r])
    pair_term = _crt(_pair_term(co), moduli[:r])
    return (
        Fraction(pair_term, n * n * big_p**s)
        - Fraction(2 * cross_term, n * 2**s * big_p ** (2 * s))
        + Fraction(1, 3**s)
    )


def l2_exact(ps: PointSet) -> DiscrepancyReport:
    """Exact L2 discrepancy from the digit array, in integer arithmetic.

    The squared value is kept on the report as the Fraction `exact`; the
    float `value` is its square root.  About N (log N)^max(1, s-1) items
    are sorted in all, each once per halving level of the plane kernel,
    against N^2 s terms for the pairwise sum; each carries one uint64 sum
    per modulus (4 to 6 of them at the usual sizes).
    """
    n = len(ps)
    if n == 0:
        raise ParameterError("empty point set")
    sq = _l2_squared(ps)
    value = math.sqrt(float(sq))
    return DiscrepancyReport(
        N=n,
        s=ps.s,
        q=2.0,
        value=value,
        method="exact-pairwise",
        roth_ratio=_roth_ratio(n, ps.s, value),
        exact=sq,
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


# Largest float64 draw array (samples x s x 8 bytes) lq_estimate allocates.
MAX_DRAW_BYTES = 1 << 27
# Points per block of _count_below: a block's prefix table is (B + 1) x B/64
# uint64 words, 2 MB per coordinate.
_LQ_BLOCK = 4096
# uint64 words per gathered anchor chunk of _count_below (1 MB).
_LQ_GATHER_WORDS = 1 << 17


def _count_below(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """For each anchor row of t, the number of rows of x strictly below it in every coordinate.

    Points go in blocks of at most _LQ_BLOCK.  Per block and coordinate j
    the block's x_j is sorted once and row k of a prefix table holds the
    bitset of the k smallest points, so searchsorted(sorted x_j, t_j) picks
    the row of the points with x_j < t_j.  An anchor's count is the popcount
    of the AND of its s rows: about len(t) N s / 64 word operations, plus
    N log N per coordinate for the sorts.
    """
    n, s = x.shape
    counts = np.zeros(len(t), dtype=np.int64)
    for lo in range(0, n, _LQ_BLOCK):
        block = x[lo : lo + _LQ_BLOCK]
        size = len(block)
        words = (size + 63) // 64
        tables, keys = [], []
        for j in range(s):
            order = np.argsort(block[:, j], kind="stable")
            table = np.zeros((size + 1, words), dtype=np.uint64)
            table[np.arange(1, size + 1), order >> 6] = np.uint64(1) << (order & 63).astype(np.uint64)
            tables.append(np.bitwise_or.accumulate(table, axis=0, out=table))
            keys.append(block[order, j])
        chunk = max(1, _LQ_GATHER_WORDS // words)
        for a in range(0, len(t), chunk):
            anchors = t[a : a + chunk]
            inside = tables[0][np.searchsorted(keys[0], anchors[:, 0], side="left")]
            for j in range(1, s):
                inside &= tables[j][np.searchsorted(keys[j], anchors[:, j], side="left")]
            counts[a : a + chunk] += np.bitwise_count(inside).sum(axis=1, dtype=np.int64)
    return counts


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
    sample, which upper-bounds the stratified error.  The points in each
    draw's box [0, t) are counted by `_count_below`: the points are sorted
    once per coordinate into prefix bitsets, and a draw's count is the
    popcount of the AND of one bitset per coordinate, about
    samples * N * s / 64 word operations plus N log N per coordinate.  The
    anchors are shifted into their cells inside the draw array, axis by
    axis, and the counts are turned into |local discrepancy|^q in place, so
    the peak allocation stays near the draw array plus two sample-length
    float64 arrays (2x the draws for s = 2).  A draw array above
    MAX_DRAW_BYTES is refused with CapacityError before anything is drawn.
    """
    if not 1 <= q < math.inf:
        raise ParameterError("need 1 <= q < infinity")
    if samples < 1:
        raise ParameterError("need at least one sample")
    n = len(ps)
    if n == 0:
        raise ParameterError("empty point set")
    s = ps.s
    if samples * s * 8 > MAX_DRAW_BYTES:
        raise CapacityError(
            f"{samples} samples x {s} coordinates of float64 draws exceed "
            f"the {MAX_DRAW_BYTES}-byte draw limit"
        )
    level = 0
    while 2 ** (s * (level + 1)) <= samples:
        level += 1
    cells_per_axis = 2**level
    cells = cells_per_axis**s
    per_cell = samples // cells
    rng = np.random.default_rng(seed)
    x = ps.float_array()
    t = rng.random((cells, per_cell, s))
    shift = np.arange(cells_per_axis)[:, None]
    for j in range(s):  # cells are i_1..i_s in C order: coordinate j moves by i_(j+1)
        t.reshape(cells_per_axis**j, cells_per_axis, -1, s)[:, :, :, j] += shift
    t /= cells_per_axis
    t = t.reshape(cells * per_cell, s)
    used = t.shape[0]
    powered = _count_below(x, t) / n  # the int64 counts are freed here
    powered -= t.prod(axis=1)
    np.abs(powered, out=powered)
    powered **= q
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
    """N * value / ((log N)^((s-1)/2) * sqrt(S(N))), the sequence normaliser.

    For s >= 2 the normaliser vanishes at N = 1, so N < 2 is refused there.
    """
    if s >= 2 and N < 2:
        raise ParameterError(f"the sequence ratio needs N >= 2 in dimension s = {s}")
    return N * value / (math.log(N) ** ((s - 1) / 2.0) * math.sqrt(sum_of_digits(N)))


def scaling_ratio(family: str, n: int, s: int, value: float, m: int | None) -> float:
    """n * value over the family's normaliser, the `scaling` ratio column.

    sqrt(log n) for davenport, the sequence normaliser for dp-sequence,
    (log n)^((s-1)/2) for dp-finite, and m^((s-1)/2) for a b^m-point net.
    """
    if family == "davenport":
        return n * value / math.sqrt(math.log(n))
    if family == "dp-sequence":
        return roth_sequence_ratio(n, s, value)
    if family == "dp-finite":
        return n * value / math.log(n) ** ((s - 1) / 2.0)
    return n * value / float(m) ** ((s - 1) / 2.0)


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
            rep = l2_exact(ps)
        else:
            rep = lq_estimate(ps, q, samples, seed)
        ratio_roth = roth_sequence_ratio(n, s, rep.value)
        ratio_part = n * rep.value / _partition_normalizer(n, s, q)
        rows.append(ProfileRow(n, rep.value, sum_of_digits(n), ratio_roth, ratio_part))
    return SequenceProfile(s, q, tuple(rows))


def trim_inequality_check(ps_full: PointSet, N: int, rel_tol: float = 1e-9) -> bool:
    """Verify N * L2(trimmed) <= sqrt(b) * b^m * L2(full), up to a factor 1 + rel_tol.

    Compared exactly on the squares: N^2 L2(trimmed)^2 <= b (b^m)^2 L2(full)^2 (1 + rel_tol)^2.
    """
    trimmed = l2_exact(arbitrary_n_trim(ps_full, N)).exact
    full = l2_exact(ps_full).exact
    return N * N * trimmed <= ps_full.base * len(ps_full) ** 2 * full * (1 + Fraction(rel_tol)) ** 2


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
    exact_digits = _exponent(N, b)
    if b**exact_digits == N:
        out_precision = max(ps.precision, exact_digits, 1)
    else:
        out_precision = max(ps.precision, 48 if precision is None else precision)
    digits = np.pad(ps.digit_array()[:N], ((0, 0), (0, 1), (0, out_precision - ps.precision)))
    digits[:, ps.s] = fraction_digits(np.arange(N), N, b, out_precision)
    prov = dict(ps.provenance) if ps.provenance else {}
    prov["appended_index_coordinate"] = N
    return PointSet.from_digits(digits, b, prov)
