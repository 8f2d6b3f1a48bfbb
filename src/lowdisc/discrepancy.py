"""Local discrepancy, exact L2 discrepancy, and Lq estimation.

The squared L2 discrepancy of an N-point set has Warnock's closed
pairwise form

    (1/N^2) sum_{n,n'} prod_j (1 - max(x_jn, x_jn'))
    - (2/N) sum_n prod_j (1 - x_jn^2)/2  +  3^-s.

Points are digit-exact, x_jn = X_jn / P with P = b^precision, so
`l2_exact` evaluates it exactly in integers.  The pair term
sum prod_j min(P - X_jn, P - X_jn') is a closed form for s = 1.  For
s = 2 and s = 3 it is one exact sweep (Bentley's multidimensional divide
and conquer, CACM 23 (1980)): halve on rank in one coordinate, with the
blocks aligned power-of-two ranges of a position, and sort each block by
rank in the next, each level's order a merge of the sorted runs of the
level before.  At s = 2 the halving runs on rank in x and the blocks are
sorted by y; at s = 3 a first sweep halves on coordinate 1 into A and B
halves, each group's items placed by rank in coordinate 2, and a second
sweep runs inside each group.  Each pair's product goes to the item whose
own factors multiply it, so every per-item sum is a count or an exact
uint64 sum of coordinates; the sums are added per point over all levels
and taken modulo the moduli once per point.  That is O(N log^2 N) for
s = 2 and O(N log^3 N) for s = 3.  For s >= 4 the same `_sweep` nests,
one per coordinate 0..s-3, each inside a block of the level above: at
each level an item takes a side bit, and the lower half multiplies u_j
into its weights, kept as residues.  A pair lives on between items of
opposite sides at every level, grouped by (block, side bits), and the
last two coordinates run a weighted plane step per level; blocks of at
most 2^T items go pair by pair.  That is O(N log^s N).  Integer sums
are carried modulo coprime moduli below 2^32 and recovered by the
Chinese remainder theorem; the squared value is kept as a Fraction on
the report.  `l2_exact_rational` is the same formula with Fraction
coordinates, a brute-force oracle for small inputs.  General Lq
norms have no closed form and are estimated by stratified Monte Carlo;
the points below each draw are counted with prefix bitsets (sort each
coordinate once, look up one bitset per coordinate, AND them, popcount),
about samples * N * s / 64 word operations plus N log N per coordinate.

Memory.  `l2_exact` keeps each u_j = P - X_j exactly, as k uint64 limbs
of w base-b digits with b^w N <= 2^64 (k = 1 for most sets; 2 for the
55-digit dp-sequence prefixes or a 60-digit net of 2^20 points), and one
int64 rank per point and coordinate.  The s = 2 and s = 3 sweeps keep
their per-point sums as limbs too, exact in uint64, and reduce them
modulo the r moduli once at the end; residues are formed from the limbs
where they are needed, one batch at a time.  So the working set is O(N)
words, about s (14 + 4k) per point, plus s + 3 per modulus when s >= 4:
a weight row for each nested sweep and the plane step, the plane step's
lifted weights and two sums, and two rows of its temporaries; no item is
copied per level.  Every other temporary of `l2_exact` and of the Lq
counter is a batch of at most _WORK_BYTES.  `l2_exact` estimates its
working set before allocating and refuses one above MAX_L2_BYTES with
CapacityError, as `lq_estimate` does for draws above MAX_DRAW_BYTES.

The lower bound is Roth's L2 bound c_s (log N)^((s-1)/2) / N with the
explicit constant c_s = 7 / (27 * 2^(2s-1) * (log 2)^((s-1)/2) *
sqrt((s-1)!)); it bounds Lq for q >= 2 too, and no ratio is reported for
q < 2.  Sequence profiles take the exact L2 of the prefixes of
`dp_sequence`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .constructions import arbitrary_n_trim, dp_sequence
from .errors import CapacityError, ParameterError
from .nets import PointSet, seeded_generator

__all__ = [
    "DiscrepancyReport",
    "local_discrepancy",
    "l2_exact",
    "l2_exact_rational",
    "lq_estimate",
    "roth_constant",
    "roth_lower_bound",
    "sum_of_digits",
    "roth_sequence_ratio",
    "ProfileRow",
    "sequence_profile",
    "profile_grid",
    "trim_inequality_check",
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


# T: at s >= 4 the pairs within blocks of 2^T items, and the pairs of a set with
# at most 2^(T-2) of them per item, are summed pair by pair.
_DIRECT_LEVELS = 4
# Bytes of one temporary of l2_exact or _count_below: every batch of items,
# pairs, points or anchors holds this many bytes over the bytes of one.
_WORK_BYTES = 1 << 18


def _batch(unit_bytes: int) -> int:
    """How many units of `unit_bytes` bytes one temporary holds (at least one)."""
    return max(1, _WORK_BYTES // unit_bytes)


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
    limbs: np.ndarray  # (s, k, N) uint64: u_j = sum_i limbs[j, i] radix^i, each limb at most radix
    radix: int  # b^w with N radix <= 2^64, so that sums of N - 1 limbs are exact in uint64
    big_p: int  # P
    q: np.ndarray  # (r, 1) uint64: the pair-term moduli, shaped to broadcast over items


def _limb_digits(base: int, n: int) -> int:
    """w, the base-b digits per limb: the largest with b^w max(N, 2) <= 2^64."""
    w = 1
    while base ** (w + 1) * max(n, 2) <= 2**64:
        w += 1
    return w


def _integer_coordinates(ps: PointSet, q: np.ndarray) -> _Coordinates:
    """Ranks and limbs of u_jn = P - X_jn, where x_jn = X_jn / P and P = b^precision.

    Limb i of X holds its digits i w .. i w + w - 1 from the least
    significant, read by Horner's rule; u = (P - 1 - X) + 1 takes the
    complement of each limb and carries the one up through the zero limbs
    of X.  Below the top, limbs are digits of radix b^w, so their order is
    the order of u.
    """
    b, p, n = ps.base, ps.precision, len(ps)
    w = _limb_digits(b, n)
    digits = ps.digit_array().transpose(1, 0, 2)  # (s, N, precision)
    limbs = np.empty((ps.s, -(-p // w), n), dtype=np.uint64)
    carry = np.ones((ps.s, n), dtype=bool)
    for i in range(limbs.shape[1]):
        lo, hi = max(p - (i + 1) * w, 0), p - i * w
        powers = b ** np.arange(hi - lo - 1, -1, -1, dtype=np.int64)
        x = np.einsum("jnk,k->jn", digits[:, :, lo:hi], powers).astype(np.uint64)  # no int64 copy of the digits
        limbs[:, i] = np.uint64(b ** (hi - lo) - 1) - x + carry
        if i < limbs.shape[1] - 1:
            carry &= x == 0
            limbs[:, i][carry] = 0  # b^w: the one carries on
    rank = np.empty((ps.s, n), dtype=np.int64)
    for j in range(ps.s):
        rank[j, np.lexsort(limbs[j])] = np.arange(n)
    return _Coordinates(rank, limbs, b**w, b**p, q)


def _residues(limbs: np.ndarray, radix: int, q: np.ndarray) -> np.ndarray:
    """(r, n) residues modulo each modulus of the n integers sum_i limbs[i] radix^i, from (k, n) limbs."""
    res = limbs[-1] % q
    if len(limbs) > 1:
        step = np.uint64(radix) % q
        for limb in limbs[-2::-1]:  # Horner's rule from the top limb; each step stays below q^2
            res *= step
            res += limb % q
            res %= q
    return res


def _u(co: _Coordinates, j: int, point: np.ndarray) -> np.ndarray:
    """(r, n) residues of u_j of the points."""
    return _residues(np.take(co.limbs[j], point, axis=1), co.radix, co.q)


def _point_sums(co: _Coordinates, moduli: np.ndarray, factor: np.ndarray | None):
    """sum_n c_n prod_j u_jn and the cross term sum_n prod_j u_jn (2P - u_jn), the
    latter being sum_n prod_j (P^2 - X_jn^2), modulo each of `moduli`.

    c_n = factor[n] (below 2^32), or 1 when factor is None.  The points go
    in batches, each with its residues computed once for both sums.
    """
    q = moduli[:, None]
    s, n = co.rank.shape
    two_p = np.array([2 * co.big_p % int(m) for m in moduli], dtype=np.uint64)[:, None]
    diagonal, cross = np.zeros(len(q), dtype=np.uint64), np.zeros(len(q), dtype=np.uint64)
    size = _batch(8 * len(q))
    for lo in range(0, n, size):
        part = np.empty((len(q), min(size, n - lo)), dtype=np.uint64)
        part[:] = 1 if factor is None else factor[lo : lo + size]
        prod = np.ones_like(part)
        for j in range(s):
            u = _residues(co.limbs[j][:, lo : lo + size], co.radix, q)
            part *= u
            part %= q
            prod *= u
            prod %= q
            u = np.subtract(two_p + q, u, out=u) % q
            prod *= u
            prod %= q
        diagonal = (diagonal + part.sum(axis=1) % q[:, 0]) % q[:, 0]
        cross = (cross + prod.sum(axis=1) % q[:, 0]) % q[:, 0]
    return diagonal, cross


def _pair_term(co: _Coordinates, diagonal: np.ndarray) -> np.ndarray:
    """T = sum_{a,b} prod_j min(u_ja, u_jb), modulo each pair-term modulus.

    The diagonal (from `_point_sums`) plus twice the pairs a < b in rank
    order of the first coordinate, whose minimum there is u_1a: a closed
    form for s = 1 (folded into the diagonal's factors, see `_l2_squared`),
    the exact sweeps `_plane_pairs` for s = 2 and `_space_pairs` for s = 3,
    whose per-point sums are counts and uint64 limbs, and for s >= 4 the
    nested sweeps of `_weighted_pairs`, whose items carry weight residues.
    """
    q = co.q[:, 0]
    s = co.rank.shape[0]
    if s == 1:
        return diagonal
    off = {2: _plane_pairs, 3: _space_pairs}.get(s, _weighted_pairs)(co)
    return (diagonal + 2 * off) % q


def _sweep(state: np.ndarray, levels: int):
    """The level loop of the exact sweeps: halve on a position, sort each block by a key.

    Row 0 of the uint64 `state` holds each item's position, the positions
    being 0..n-1, and row 1 its key, distinct across items; further rows
    ride along.  At level l the blocks are the aligned ranges of 2^(l+1)
    positions, each a lower and an upper half of 2^l.  For l = 0 ..
    levels - 1 this sorts the columns of `state` in place by (block, key),
    so that the items of a block fill the columns start..stop-1 of its own
    range, and yields (upper, start, stop), `upper` 1 for the items of
    upper halves.  Each level's order is a stable sort of the one before,
    which merges the sorted runs of its halves instead of sorting afresh,
    and the rows go through it in batches.  Rows the caller updates in
    place carry into the next level.
    """
    n = state.shape[1]
    step = _batch(8 * n)  # rows permuted through one temporary
    for level in range(levels):
        key = state[0] >> (level + 1)
        key *= n
        key += state[1]
        order = np.argsort(key, kind="stable")
        del key
        for first in range(0, len(state), step):
            state[first : first + step] = np.take(state[first : first + step], order, axis=1)
        del order
        start = state[0] >> (level + 1) << (level + 1)
        yield (state[0] >> level) & 1, start, np.minimum(start + (1 << (level + 1)), n)


def _plane_pairs(co: _Coordinates) -> np.ndarray:
    """sum_{a < b} u_xa min(u_ya, u_yb) over the pairs in rank order of x, for s = 2,
    modulo each modulus.

    Halving on rank in x (`_sweep`), a pair across the halves of a block
    has u_x of its lower item L, and u_y of whichever of L and its upper
    item U ranks lower in y.  So every item keeps two sums: `below`, the
    count of its upper partners that rank above it in y, and `above`, sum
    u_x of its lower partners that rank above it in y; the pair sum is
    the sum over items of u_y (above + u_x below).  Both are exact: the
    limbs of `above` and the count are whole-level cumulative sums, which
    may wrap modulo 2^64, differenced at each block's end.  An item meets
    each partner once, so each limb of above + u_x below stays below
    (N - 1) radix, and it is reduced modulo each modulus once.
    """
    q = co.q
    n, k = co.rank.shape[1], co.limbs.shape[1]
    point = np.argsort(co.rank[0])
    state = np.zeros((3 + 2 * k, n), dtype=np.uint64)  # x rank, y rank, u_x, above, below
    state[0] = np.arange(n)
    state[1] = co.rank[1, point]
    state[2 : 2 + k] = co.limbs[0][:, point]
    for upper, _, stop in _sweep(state, (n - 1).bit_length()):
        cum = np.zeros((k + 1, n + 1), dtype=np.uint64)  # u_x of the lower items, and the upper items
        np.multiply(state[2 : 2 + k], 1 - upper, out=cum[:k, 1:])
        cum[k, 1:] = upper
        np.cumsum(cum[:, 1:], axis=1, out=cum[:, 1:])
        sums = np.take(cum, stop, axis=1)  # over each item and those above it in its block
        sums -= cum[:, :-1]
        del cum
        sums[:k] *= upper
        sums[k] *= 1 - upper
        state[2 + k :] += sums
        del sums
    point = point[state[0]]
    above = state[2 + k : 2 + 2 * k]
    above += state[2 : 2 + k] * state[2 + 2 * k]
    total = np.zeros(len(q), dtype=np.uint64)
    size = _batch(8 * len(q))
    for first in range(0, n, size):
        part = slice(first, first + size)
        sums = _residues(above[:, part], co.radix, q)
        sums *= _u(co, 1, point[part])
        sums %= q
        total += sums.sum(axis=1) % q[:, 0]
    return total % q[:, 0]


def _space_pairs(co: _Coordinates) -> np.ndarray:
    """sum_{a < b} u_1a min(u_2a, u_2b) min(u_3a, u_3b) over the pairs in rank order of
    coordinate 1, for s = 3, modulo each modulus.

    One `_sweep` halves on rank in coordinate 1: at level l each block of
    2^(l+1) ranks is a group, its lower half A and its upper half B.  The
    items of a group take its positions by rank in coordinate 2, the order
    that sweep yields, and a second `_sweep` halves them on that position,
    x, with the blocks sorted by rank in coordinate 3, y.  A pair (a in A,
    b in B) across the x-halves of a block adds u_1a min(u_2) min(u_3),
    which goes to the item whose own factors multiply it:

    - A in the lower x-half: the count of its B partners above it in y
      (times u_1 u_2 u_3) and sum u_3 of those below it (times u_1 u_2);
    - A in the upper x-half: sum u_2 of its B partners above it in y
      (times u_1 u_3);
    - B in the lower x-half: sum u_1 of its A partners above it in y
      (times u_2 u_3).

    Each sum is a count or exact uint64 limbs (k rows, see `_plane_pairs`),
    added per point over all levels; an item meets each partner once, so
    each stays below (N - 1) radix.  They are reduced modulo each modulus
    once per point, at the end.
    """
    q = co.q
    n, k = co.rank.shape[1], co.limbs.shape[1]
    point = np.argsort(co.rank[0])
    outer = np.empty((3, n), dtype=np.uint64)  # rank in coordinate 1, rank in coordinate 2, point
    outer[0] = np.arange(n)
    outer[1] = co.rank[1, point]
    outer[2] = point
    sums = np.zeros((1 + 3 * k, n), dtype=np.uint64)  # per point: count, sum u_3, sum u_2, sum u_1
    for level, (colour, _, _) in enumerate(_sweep(outer, (n - 1).bit_length())):
        point = outer[2]
        state = np.zeros((4 + 5 * k, n), dtype=np.uint64)  # x, y, colour B, u_1 or u_2, u_3, then `sums`' rows
        state[0] = np.arange(n)
        state[1] = co.rank[2, point]
        state[2] = colour
        state[3 : 3 + k] = np.where(state[2] == 1, co.limbs[1][:, point], co.limbs[0][:, point])
        state[3 + k : 3 + 2 * k] = co.limbs[2][:, point]
        for upper, start, stop in _sweep(state, level + 1):
            b_up = state[2] & upper
            b_low = state[2] - b_up
            a_up = upper - b_up
            cum = np.zeros((1 + 3 * k, n + 1), dtype=np.uint64)  # B upper: 1 and u_3; B lower: u_2; A upper: u_1
            cum[0, 1:] = b_up
            np.multiply(state[3 + k : 3 + 2 * k], b_up, out=cum[1 : 1 + k, 1:])
            np.multiply(state[3 : 3 + k], b_low, out=cum[1 + k : 1 + 2 * k, 1:])
            np.multiply(state[3 : 3 + k], a_up, out=cum[1 + 2 * k :, 1:])
            np.cumsum(cum[:, 1:], axis=1, out=cum[:, 1:])
            part = np.take(cum, stop, axis=1)  # over each item and those above it in its block
            part -= cum[:, :-1]
            part[1 : 1 + k] = cum[1 : 1 + k, :-1] - np.take(cum[1 : 1 + k], start, axis=1)  # u_3 below it
            del cum
            part[: 1 + k] *= 1 - (state[2] | upper)  # taken by A lower
            part[1 + k : 1 + 2 * k] *= a_up
            part[1 + 2 * k :] *= b_low
            state[3 + 2 * k :] += part
            del b_up, b_low, a_up, part
        where = np.empty(n, dtype=np.int64)  # each point's column in `state`
        where[point[state[0]]] = np.arange(n)
        sums += np.take(state[3 + 2 * k :], where, axis=1)
        del where, state
    total = np.zeros(len(q), dtype=np.uint64)
    size = _batch(8 * len(q))
    for first in range(0, n, size):
        part = slice(first, first + size)
        u = [_residues(co.limbs[j][:, part], co.radix, q) for j in range(3)]
        term = u[2] * sums[0, part] % q  # every factor below q < 2^32, so each product fits
        term += _residues(sums[1 : 1 + k, part], co.radix, q)
        term %= q
        term *= u[1]
        term += u[2] * _residues(sums[1 + k : 1 + 2 * k, part], co.radix, q) % q
        term %= q
        term *= u[0]
        term += u[1] * u[2] % q * _residues(sums[1 + 2 * k :, part], co.radix, q) % q
        term %= q
        total += term.sum(axis=1) % q[:, 0]
    return total % q[:, 0]


def _weighted_pairs(co: _Coordinates) -> np.ndarray:
    """sum_{a < b} prod_j min(u_ja, u_jb) over the pairs in rank order of coordinate 0,
    for s >= 3, modulo each modulus.

    A `_sweep` halves on rank in coordinate 0.  At level l a pair across
    the halves of a block has u_0 of its lower item, which takes u_0 as
    its weight (the upper item takes 1).  Each block is a group, its two
    halves of opposite colours, and goes on to `_group_pairs` with
    coordinates 1..s-1, ranked in coordinate 1 as the sweep orders it.
    """
    q = co.q
    n = co.rank.shape[1]
    point = np.argsort(co.rank[0])
    state = np.stack([np.arange(n), co.rank[1, point], point]).astype(np.uint64)  # ranks in 0 and 1, point
    total = np.zeros(len(q), dtype=np.uint64)
    for level, (upper, _, _) in enumerate(_sweep(state, (n - 1).bit_length())):
        point, colour = state[2].astype(np.int64), upper == 1
        weight = _u(co, 0, point)
        weight[:, colour] = 1
        group = (state[0] >> (level + 1)).astype(np.int64)
        total += _group_pairs(co, 1, point, group, colour, weight, level + 1)
        total %= q[:, 0]
    return total


def _group_pairs(co: _Coordinates, j: int, point, group, colour, weight, levels: int) -> np.ndarray:
    """sum w_a w_b prod_{i >= j} min(u_ia, u_ib) over the pairs (a, b) of items of one
    group and opposite colours, modulo each modulus.

    Item i sits at position i; each group lies in one block of 2^levels
    positions, sorted by rank in coordinate j.  With T = _DIRECT_LEVELS,
    at most 2^(T-2) pairs per item go to `_direct_sum` at once.  Else it
    takes the pairs within blocks of 2^T positions, and the larger blocks
    are halved on position: by `_plane_groups` for the last two
    coordinates, by a `_sweep` before them.  At its level l a pair across
    the halves of a block has u_j of its lower item, which multiplies u_j
    into its weight (one (r, n) take per level; no item is copied), and
    goes on with coordinates j+1.. in the group (block, group, colour XOR
    half), numbered afresh.
    """
    q = co.q
    s, n = co.rank.shape[0], len(point)
    pos = np.arange(n)
    n_a = np.bincount(group[colour], minlength=int(group.max()) + 1)
    few = n_a @ (np.bincount(group, minlength=len(n_a)) - n_a) <= n << (_DIRECT_LEVELS - 2)
    total = _direct_sum(group if few else (pos >> _DIRECT_LEVELS) * len(n_a) + group, colour, point, weight,
                        tuple(range(j, s)), co)
    if few:
        return total
    if j == s - 2:
        return (total + _plane_groups(co, point, group, colour, weight, levels)) % q[:, 0]
    state = np.stack([pos, co.rank[j + 1, point]]).astype(np.uint64)  # position, rank in coordinate j + 1
    for level, (upper, _, _) in enumerate(_sweep(state, levels)):
        if level < _DIRECT_LEVELS:
            continue  # within blocks of 2^T, summed above
        item, half = state[0].astype(np.int64), upper == 1
        sub = np.take(weight, item, axis=1)
        lift = _u(co, j, point[item])
        lift[:, half] = 1
        sub *= lift
        sub %= q
        del lift
        key = 2 * ((item >> (level + 1)) * len(n_a) + group[item]) + (colour[item] != half)
        key = np.unique(key, return_inverse=True)[1]
        total += _group_pairs(co, j + 1, point[item], key, colour[item], sub, level + 1)
        total %= q[:, 0]
    return total


def _plane_groups(co: _Coordinates, point, group, colour, weight, levels: int) -> np.ndarray:
    """The sum of `_group_pairs` over the last two coordinates (x, y) from the halving
    level T on, in one sort per level.

    Each level sorts the items by (block, group, colour XOR half) and rank
    in y, so that a run holds a block's pairs across the halves with
    opposite colours.  The sums are those of `_plane_pairs` with weights:
    `below`, the weight of an item's upper partners that rank above it in
    y, and `above`, sum w u_x of its lower partners that rank above it in
    y, give sum over items of u_y (w above + w u_x below).  Both stay
    below items * 2^32 and take no modulus until the end.
    """
    q = co.q
    s, n = co.rank.shape[0], len(point)
    pos = np.arange(n)
    lifted = weight * _u(co, s - 2, point) % q
    below = np.zeros(lifted.shape, dtype=np.uint64)
    above = np.zeros(lifted.shape, dtype=np.uint64)
    rank_y = co.rank[s - 1, point]
    side = 2 * group + colour
    for level in range(_DIRECT_LEVELS, levels):
        lower = (pos >> level) & 1 == 0
        key = (pos >> (level + 1)) * (2 * int(group.max()) + 2) + (side ^ lower)
        item = np.argsort(key * n + rank_y)
        lower, key = lower[item], key[item]
        stop = np.searchsorted(key, key, side="right")  # end of each item's run
        lo, hi = np.flatnonzero(lower), np.flatnonzero(~lower)
        n_lo = np.zeros(n + 1, dtype=np.int64)  # lower items before each position
        np.cumsum(lower, out=n_lo[1:])
        _add_columns(above, item[hi], _suffix_sums(lifted, item[lo], n_lo[hi], n_lo[stop[hi]]))
        first, stop = lo - n_lo[lo], stop[lo] - n_lo[stop[lo]]  # upper items before lo and before its run's end
        _add_columns(below, item[lo], _suffix_sums(weight, item[hi], first, stop))
        del item, lower, key, stop, lo, hi, n_lo, first
    total = np.zeros(len(q), dtype=np.uint64)
    size = _batch(8 * len(q))
    for first in range(0, n, size):
        part = slice(first, first + size)
        sums = above[:, part] % q * weight[:, part] % q
        sums += below[:, part] % q * lifted[:, part] % q
        sums %= q
        sums *= _u(co, s - 1, point[part])
        sums %= q
        total += sums.sum(axis=1) % q[:, 0]
    return total % q[:, 0]


def _suffix_sums(values: np.ndarray, items: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per (first, stop), the sum of columns first..stop-1 of values[:, items], taken
    without a modulus: exact while the sums stay below 2^64."""
    cum = np.zeros((len(values), len(items) + 1), dtype=np.uint64)
    np.cumsum(np.take(values, items, axis=1), axis=1, out=cum[:, 1:])
    sums = np.take(cum, stop, axis=1)
    sums -= np.take(cum, first, axis=1)
    return sums


def _add_columns(acc: np.ndarray, columns: np.ndarray, values: np.ndarray) -> None:
    """acc[:, columns] += values for distinct columns, through flat indices
    (about twice as fast as the two-axis fancy index)."""
    flat = (np.arange(len(acc))[:, None] * acc.shape[1] + columns).ravel()
    np.put(acc, flat, np.take(acc, flat) + values.ravel())


def _direct_sum(group, colour, point, weight, dims, co: _Coordinates) -> np.ndarray:
    """sum w_a w_b prod_{j in dims} min(u_ja, u_jb) over the pairs (a, b) of items of one
    group and opposite colours, pair by pair, one batch of pairs at a time, modulo each modulus."""
    q = co.q
    total = np.zeros(len(q), dtype=np.uint64)
    group = np.unique(group, return_inverse=True)[1]
    a_items = np.flatnonzero(colour)
    a_items = a_items[np.argsort(group[a_items], kind="stable")]
    b_items = np.flatnonzero(~colour)
    b_items = b_items[np.argsort(group[b_items], kind="stable")]
    n_b = np.bincount(group[b_items], minlength=int(group.max()) + 1)
    b_start = np.cumsum(n_b) - n_b
    partners = np.cumsum(n_b[group[a_items]])
    size = _batch(8 * len(q))
    for a in np.split(a_items, np.searchsorted(partners, np.arange(size, partners[-1], size))):
        reps = n_b[group[a]]
        pa = np.repeat(a, reps)
        pb = b_items[np.repeat(b_start[group[a]] - (np.cumsum(reps) - reps), reps) + np.arange(len(pa))]
        prod = weight[:, pa] * weight[:, pb] % q
        xa, xb = point[pa], point[pb]
        for j in dims:
            prod *= _u(co, j, np.where(co.rank[j, xa] < co.rank[j, xb], xa, xb))  # u_j of the lower
            prod %= q
        total = (total + prod.sum(axis=1)) % q[:, 0]
    return total


def _l2_work_bytes(n: int, s: int, base: int, precision: int) -> int:
    """An upper bound on the bytes `l2_exact` allocates beside the digit array
    of N points in dimension s with `precision` base-b digits.

    Per point, 14 + 4k words for each coordinate (ranks, limbs and the
    sweeps' state, index and sum rows, k limbs each), and for s >= 4
    another s + 3 words per pair-term modulus: the weight rows of the
    s - 2 nested levels down to the plane step (`_weighted_pairs`), the
    plane step's lifted weights and two sums, and two rows of its sums'
    temporaries; plus 3s temporaries of _WORK_BYTES.  These coefficients
    bound, with at least 10% to spare, the tracemalloc peaks measured on
    random and tie-heavy sets in bases 2, 3 and 13 for k = 1, 2, s = 1..5
    and N = 2 to 2^16, and s = 6, 7 and N = 2 to 2^12.
    """
    limbs = -(-precision // _limb_digits(base, n))
    words = s * (14 + 4 * limbs)
    if s > 3:
        words += (s + 3) * len(_moduli_above(n * n * base ** (precision * s)))
    return 8 * n * words + 3 * s * _WORK_BYTES


def _l2_squared(ps: PointSet) -> Fraction:
    """Warnock's formula in integers: T/(N^2 P^s) - 2C/(N 2^s P^2s) + 3^-s.

    T = sum_{a,b} prod_j min(u_ja, u_jb) is the pair term and
    C = sum_n prod_j (P^2 - X_jn^2) the cross term.  Both are computed
    modulo coprime moduli below 2^32 in uint64 arrays and recovered exactly
    by the Chinese remainder theorem.  For s = 1 the pair term is
    sum_n u_n (2N - 1 - 2 rank_n): u_n pairs with itself, and twice with
    each of the points ranked above it.  A working set above MAX_L2_BYTES
    is refused with CapacityError before anything is allocated.
    """
    n, s = len(ps), ps.s
    need = _l2_work_bytes(n, s, ps.base, ps.precision)
    if need > MAX_L2_BYTES:
        raise CapacityError(
            f"exact L2 of {n} points in dimension {s} needs about {need} bytes of "
            f"working memory, above the {MAX_L2_BYTES}-byte limit"
        )
    big_p = ps.base**ps.precision
    pair_bound, cross_bound = n * n * big_p**s, n * big_p ** (2 * s)
    moduli = _moduli_above(max(pair_bound, cross_bound))
    r = len(_moduli_above(pair_bound))
    co = _integer_coordinates(ps, moduli[:r, None])
    factor = (2 * n - 1 - 2 * co.rank[0]).astype(np.uint64) if s == 1 else None
    diagonal, cross = _point_sums(co, moduli, factor)
    pair_term = _crt(_pair_term(co, diagonal[:r]), moduli[:r])
    cross_term = _crt(cross, moduli)
    return (
        Fraction(pair_term, n * n * big_p**s)
        - Fraction(2 * cross_term, n * 2**s * big_p ** (2 * s))
        + Fraction(1, 3**s)
    )


def l2_exact(ps: PointSet) -> DiscrepancyReport:
    """Exact L2 discrepancy from the digit array, in integer arithmetic.

    The squared value is kept on the report as the Fraction `exact`; the
    float `value` is its square root.  About N (log N)^max(1, s-1) items
    are sorted in all, each once per halving level of the innermost sweep,
    against N^2 s terms for the pairwise sum; for s <= 3 each carries a
    count and uint64 limb sums, for s >= 4 a weight and two uint64 sums per
    modulus (4 to 6 moduli at the usual sizes).
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
# Largest working set (_l2_work_bytes) l2_exact allocates beside the digit array.
MAX_L2_BYTES = 1 << 30
# Points per block of _count_below: a block's prefix table is (B + 1) x B/64
# uint64 words, 2 MB per coordinate.
_LQ_BLOCK = 4096


def _count_below(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """For each anchor row of t, the number of rows of x strictly below it in every coordinate.

    Points go in blocks of at most _LQ_BLOCK.  Per block and coordinate j
    the block's x_j is sorted once and row k of a prefix table holds the
    bitset of the k smallest points, so searchsorted(sorted x_j, t_j) picks
    the row of the points with x_j < t_j.  An anchor's count is the popcount
    of the AND of its s rows: about len(t) N s / 64 word operations, plus
    N log N per coordinate for the sorts.  The anchors go in chunks whose
    gathered rows fill _WORK_BYTES.
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
        chunk = _batch(8 * words)
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
    seed: int | None = 0,
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
    anchors are uniform 53-bit doubles k 2^-53 from `seeded_generator(seed)`
    (Python's MT19937), written into the preallocated draw array in chunks
    of _WORK_BYTES; `randbytes` of a multiple of 4 bytes continues one
    stream, so the draws do not depend on the chunk size.  They are shifted
    into their cells inside the draw array, axis by axis, and the counts
    are turned into |local discrepancy|^q in place, so the peak allocation
    stays near the draw array plus two sample-length float64 arrays (2x the
    draws for s = 2), plus under 1 MiB of chunks and batches.  A draw array
    above MAX_DRAW_BYTES is refused with CapacityError before anything is
    drawn, and a negative seed with ParameterError.
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
    rng = seeded_generator(seed)
    x = ps.float_array()
    t = np.empty((cells, per_cell, s))
    draws = t.reshape(-1)
    step = _batch(8)
    for lo in range(0, draws.size, step):  # the top 53 bits of each 8 bytes
        words = np.frombuffer(rng.randbytes(8 * min(step, draws.size - lo)), dtype="<u8")
        np.multiply(words >> 11, 2.0**-53, out=draws[lo : lo + step])
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

def roth_constant(s: int) -> float:
    """The explicit constant in the (log N)^((s-1)/2) / N lower bound."""
    if s < 1:
        raise ParameterError("dimension must be >= 1")
    return 7.0 / (
        27.0 * 2.0 ** (2 * s - 1) * math.log(2.0) ** ((s - 1) / 2.0) * math.sqrt(math.factorial(s - 1))
    )


def roth_lower_bound(s: int, N: int) -> float:
    """Universal lower bound on the L2 discrepancy of any N-point set in [0,1)^s.

    Lq >= L2 for q >= 2, so it bounds those norms too; for q < 2 no
    explicit constant is known and no ratio is reported.
    """
    if N < 2:
        raise ParameterError("the bound needs N >= 2")
    return roth_constant(s) * math.log(N) ** ((s - 1) / 2.0) / N


def _roth_ratio(n: int, s: int, value: float) -> float | None:
    if n < 2:
        return None
    return value / roth_lower_bound(s, n)


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


def _partition_normalizer(N: int, s: int) -> float:
    """r * sqrt(sum of m_v^(s-1)) for N = 2^m_1 + ... + 2^m_r: r^(3/2 - 1/q) at q = 2."""
    exponents = [i for i in range(N.bit_length()) if (N >> i) & 1]
    return len(exponents) * math.sqrt(sum(float(m_v) ** (s - 1) for m_v in exponents))


def sequence_profile(s: int, n_max: int) -> tuple[ProfileRow, ...]:
    """Exact L2 discrepancy of the first N points of `dp_sequence` over `profile_grid(n_max)`.

    Each row records N * L2 divided by the two normalizers of interest:
    (log N)^((s-1)/2) * sqrt(S(N)), and the binary-partition quantity
    r * sqrt(sum m_v^(s-1)).
    """
    if n_max < 2:
        raise ParameterError("need n_max >= 2")
    full = dp_sequence(s, n_max)
    rows = []
    for n in profile_grid(n_max):
        value = l2_exact(full.prefix(n)).value
        ratio_part = n * value / _partition_normalizer(n, s)
        rows.append(ProfileRow(n, value, sum_of_digits(n), roth_sequence_ratio(n, s, value), ratio_part))
    return tuple(rows)


def trim_inequality_check(ps_full: PointSet, N: int) -> bool:
    """Verify N * L2(trimmed) <= sqrt(b) * b^m * L2(full), up to a factor 1 + 1e-9.

    Compared exactly on the squares: N^2 L2(trimmed)^2 <= b (b^m)^2 L2(full)^2 (1 + 1e-9)^2.
    """
    trimmed = l2_exact(arbitrary_n_trim(ps_full, N)).exact
    full = l2_exact(ps_full).exact
    return N * N * trimmed <= ps_full.base * len(ps_full) ** 2 * full * (1 + Fraction(1e-9)) ** 2
