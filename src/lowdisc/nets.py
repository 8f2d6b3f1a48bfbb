"""Digital nets over F_b: point generation, structure checks, dual space.

A point set is stored as one read-only (N, s, precision) uint8 array of
base-b fractional digits, most significant digit first, so points stay
digit-exact.  `PointSet.from_digits` wraps such an array, `digit_array`
reads it, and `fractions(n)` gives point n as exact rationals.  Floating
point enters only when discrepancy numerics ask for it.

A digital net is defined by s generating matrices C_1, ..., C_s of shape
p x m over F_b, held as one (s, p, m) array.  Point n has coordinate j
with digit k equal to row k of C_j times the base-b digit vector of n
(least significant digit first).  Generation uses that linearity instead
of the product: point n is the sum of d_i times column i of the C_j over
the digits d_i of n, so a table of the points of the b^k lowest indices
(b^k <= 4096) is built digit by digit and each block of b^k consecutive
indices adds one high-digit vector to it, digitwise mod b (Bratley, Fox &
Niederreiter, ACM TOMACS 2 (1992)).  `generate_net_points` is the one
generator for every digital construction: the first N points of a
digital sequence are the first N points of the net of the upper-left
blocks of its matrices, so a sequence is a net prefix.

Every structural check is linear algebra on the s p pooled rows of the
C_j, through the one elimination of `field.dependencies`: the t-value and
the dual weight minima ask whether the rows on a support are dependent,
and the dual space is the kernel of the pooled rows' transpose, i.e. the
dependencies among them.  The rank search, `min_dependent_support`, is
the one weight search: its answer is (weight, witness) or None, and the
t-value is read off its nrt minimum.  It builds each coordinate's
candidate supports as a trie and walks them depth first in ascending
pooled row index, so each support resumes the elimination of the prefix
it shares with others (`field.reduce_row`, undone on backtrack) instead
of starting over (Pirsic & Schmid, J. Complexity 17 (2001)), and the
first dependent support of least weight in that order is the witness.
A dual element, witnesses included, or a Walsh index is an (s, p) array
of base-b digits, exact at any b^p; the integers k_j are only printed.
The character property is checked for many Walsh indices in one pass over
the digit array (`char_property_sums`).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from decimal import Decimal

import numpy as np

from .errors import CapacityError, ParameterError
from .field import dependencies, is_prime, kernel_basis, pack_rows, reduce_row

__all__ = [
    "GeneratingMatrixSet",
    "PointSet",
    "DualSpace",
    "generate_net_points",
    "min_dependent_support",
    "compute_t_value",
    "geometric_net_check",
    "geometric_t_value",
    "dual_space",
    "char_property_sums",
    "char_property_deviation",
]


def seeded_generator(seed: int | None) -> random.Random:
    """The generator behind every seeded draw: Python's `random.Random` (MT19937).

    None seeds it from the operating system.  A negative seed is refused
    rather than folded onto its absolute value, as `random.Random` would.
    """
    if seed is not None and seed < 0:
        raise ParameterError(f"need a seed >= 0, got {seed}")
    return random.Random(seed)


def uniform_digits(rng: random.Random, b: int, shape: tuple[int, ...]) -> np.ndarray:
    """An int64 array of `shape` holding uniform draws from 0..b-1, in C order."""
    return np.array([rng.randrange(b) for _ in range(math.prod(shape))], dtype=np.int64).reshape(shape)


# The weights of the rank search: mu_1, the Hamming weight and mu_alpha.
KINDS = ("nrt", "hamming", "mu")
WORK_CAP = 1 << 21  # the default cap: candidate supports a rank search checks, elements of a dual space

# Largest digit array, in bytes (one byte per digit), that point generation
# allocates; larger requests raise CapacityError before any allocation.
MAX_DIGIT_BYTES = 1 << 28


def check_capacity(count: int, s: int, precision: int) -> None:
    """Refuse a (count, s, precision) digit array larger than MAX_DIGIT_BYTES."""
    if count * s * precision > MAX_DIGIT_BYTES:
        points = count if count < 10**18 else f"about {Decimal(count):.2e}"  # exact, past float range
        raise CapacityError(f"{points} points x {s} coordinates x {precision} digits "
                            f"exceed the {MAX_DIGIT_BYTES}-byte digit limit")


def check_matrix_capacity(s: int, rows: int, cols: int) -> None:
    """Refuse s int64 generating matrices of rows x cols above MAX_DIGIT_BYTES, before building them."""
    if s * rows * cols * 8 > MAX_DIGIT_BYTES:
        raise CapacityError(f"generating matrices of {s} x {rows} x {cols} int64 entries exceed the "
                            f"{MAX_DIGIT_BYTES}-byte limit")


class PointSet:
    """An ordered list of s-dimensional points with exact digit coordinates.

    The only storage is a read-only (N, s, precision) uint8 digit array;
    `from_digits` is the one way to build a point set and `digit_array`
    the one way to read it.
    """

    @classmethod
    def from_digits(cls, digits: np.ndarray, base: int, provenance: dict | None = None) -> "PointSet":
        """Wrap an (N, s, precision) uint8 digit array, which becomes read-only."""
        if not is_prime(base):
            raise ParameterError(f"base {base} is not prime")
        if base > 256:
            raise ParameterError(f"base {base} does not fit the uint8 digit array")
        if not isinstance(digits, np.ndarray) or digits.dtype != np.uint8:
            raise ParameterError("digits must be a uint8 array")
        if digits.ndim != 3 or digits.shape[1] < 1 or digits.shape[2] < 1:
            raise ParameterError(f"digit array of shape {digits.shape} is not (N, s, precision)")
        if digits.size and digits.max() >= base:
            raise ParameterError("digit out of range for base")
        digits.setflags(write=False)
        ps = cls.__new__(cls)
        ps._digits = digits
        ps.base = base
        ps.s = digits.shape[1]
        ps.precision = digits.shape[2]
        ps.provenance = dict(provenance) if provenance else None
        ps._float_cache = None
        return ps

    def __len__(self) -> int:
        return len(self._digits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.base == other.base
            and np.array_equal(self._digits, other._digits)
            and self.provenance == other.provenance
        )

    def digit_array(self) -> np.ndarray:
        """All digits as a (N, s, precision) uint8 array (read-only)."""
        return self._digits

    def float_array(self) -> np.ndarray:
        """Coordinates as (N, s) float64; the only lossy view of a point set."""
        if self._float_cache is None:
            weights = self.base ** -(np.arange(1, self.precision + 1, dtype=np.float64))
            arr = self._digits.astype(np.float64) @ weights
            arr.setflags(write=False)
            self._float_cache = arr
        return self._float_cache

    def fractions(self, n: int) -> tuple[Fraction, ...]:
        """Exact coordinates of point n, each a Fraction over base**precision."""
        den = self.base**self.precision
        coords = []
        for row in self._digits[n].tolist():
            num = 0
            for d in row:
                num = num * self.base + d
            coords.append(Fraction(num, den))
        return tuple(coords)

    def prefix(self, n: int) -> "PointSet":
        if not 0 <= n <= len(self):
            raise ParameterError(f"prefix of {n} points requested, need 0..{len(self)}")
        prov = dict(self.provenance) if self.provenance else {}
        prov["prefix"] = n
        return PointSet.from_digits(self._digits[:n], self.base, prov)


def fraction_digits(
    num: np.ndarray, den: int, base: int, precision: int, tail: np.ndarray | None = None
) -> np.ndarray:
    """The first `precision` base-b digits of (num + 0.tail)/den per point.

    Long division of integers 0 <= num < den, most significant digit first:
    the digits of floor(x·b^p) for x = (num + 0.tail)/den and p = `precision`.
    The `tail` digits are brought down before zeros; Python ints past int64.
    """
    rem = np.asarray(num).astype(np.int64 if den * base < 2**63 else object)
    out = np.empty((len(rem), precision), dtype=np.uint8)
    for k in range(precision):
        rem = rem * base
        if tail is not None and k < tail.shape[1]:
            rem = rem + tail[:, k]
        out[:, k] = rem // den
        rem = rem % den
    return out


class GeneratingMatrixSet:
    """s generating matrices C_1, ..., C_s over F_b, each rows x cols (rows >= cols).

    The matrices are one read-only (s, rows, cols) int64 array, `array`,
    copied and reduced mod b on construction; s, rows and cols are its
    shape.  `array.reshape(s * rows, cols)` pools the rows of all the C_j.
    """

    def __init__(self, base: int, array):
        if not is_prime(base):
            raise ParameterError(f"base {base} is not prime")
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[0] < 1:
            raise ParameterError(f"matrices of shape {arr.shape} are not (s, rows, cols) with s >= 1")
        if arr.shape[1] < arr.shape[2]:
            raise ParameterError("net matrices need at least as many rows as columns")
        self.base = base
        self.array = arr % base
        self.array.setflags(write=False)
        self.s, self.rows, self.cols = arr.shape

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneratingMatrixSet)
            and self.base == other.base
            and np.array_equal(self.array, other.array)
        )


# Largest table of low-index digit vectors that _net_digits builds, in indices;
# 4096 rows keep the table and each block's adds in cache.
_TABLE_ROWS = 1 << 12


def _net_digits(count: int, b: int, matrices: np.ndarray) -> np.ndarray:
    """(count, s, rows) uint8 digits of points 0..count-1.

    Point n is sum_i d_i c_i mod b, over the base-b digits d_i of n and the
    columns c_i of the stacked C_j, so it is computed by a digit recurrence
    instead of a matrix product.  Indices split as n = h b^k + l with b^k at
    most _TABLE_ROWS and at most count.  A table of the points of
    l = 0..b^k-1 is built digit by digit: rows a b^i .. (a+1) b^i - 1 are
    rows 0 .. b^i - 1 plus a c_i mod b.  Each block of b^k consecutive
    indices adds its one high-digit vector (from h's digits) to the table
    digitwise mod b, straight into the output: O(N s rows) byte work, with
    temporaries bounded by the table.  Sums reach 2b - 2, so bases above
    128 add in uint16.  `matrices` is the (s, rows, cols) array of the C_j.
    """
    s, rows, cols = matrices.shape
    columns = np.moveaxis(matrices.astype(np.int64) % b, 2, 0)  # columns[i]: (s, rows)
    k = 0
    while k < cols and b ** (k + 1) <= min(_TABLE_ROWS, count):
        k += 1
    size = b**k
    wide = np.uint8 if b <= 128 else np.uint16
    # x + y mod b for digits x, y < b is min(x + y, x + y - b): the unsigned difference wraps
    table = np.zeros((size, s, rows), dtype=wide)
    for i in range(k):
        step = b**i
        multiples = (np.arange(1, b)[:, None, None] * columns[i] % b).astype(wide)
        grown = table[step : b * step].reshape(b - 1, step, s, rows)
        np.add(table[:step], multiples[:, None], out=grown)
        np.minimum(grown, grown - wide(b), out=grown)
    out = np.empty((count, s, rows), dtype=np.uint8)
    for h in range((count + size - 1) // size):
        high = np.zeros((s, rows), dtype=np.int64)
        rest = h
        for i in range(k, cols):
            rest, d = divmod(rest, b)
            high += d * columns[i]
        dest = out[h * size : (h + 1) * size]
        summed = np.add(table[: len(dest)], (high % b).astype(wide), out=dest if wide is np.uint8 else None)
        np.minimum(summed, summed - wide(b), out=dest, casting="unsafe")
    return out


def generate_net_points(
    gm: GeneratingMatrixSet, provenance: dict | None = None, *, count: int | None = None
) -> PointSet:
    """Points 0..count-1 of the digital net with the given matrices, in index order.

    `count` defaults to all b^cols points.  A digital sequence is a net
    prefix: its first N points are points 0..N-1 of the net of the
    upper-left blocks of its matrices with b^cols >= N columns
    (Niederreiter, J. Number Theory 30 (1988)).
    """
    full = gm.base**gm.cols
    count = full if count is None else count
    if not 0 <= count <= full:
        raise ParameterError(f"point count {count} is not in 0..{full}, the size of the net")
    check_capacity(count, gm.s, gm.rows)
    digits = _net_digits(count, gm.base, gm.array)
    return PointSet.from_digits(digits, gm.base, provenance)


def _exponent(count: int, b: int) -> int:
    """The smallest m >= 0 with b^m >= count."""
    m = 0
    while b**m < count:
        m += 1
    return m


def _prefix_weight(r: int, alpha: int) -> int:
    """mu_alpha weight of the first r rows of one coordinate."""
    return sum(range(max(r - alpha, 0) + 1, r + 1))


def _candidate_trie(p: int, alpha: int, budget: int, max_rows: int) -> tuple[list, Counter]:
    """One coordinate's mu_alpha candidates as a trie, and their (weight, rows) counts.

    A candidate is a row set maximal for its mu_alpha weight: an ascending
    row list r_1 < ... < r_k with r_{k-alpha+1} = k - alpha whenever
    k >= alpha, so that every row below its top alpha rows is present (for
    alpha = 1, the row prefixes).  Every prefix of a candidate is one, with
    fewer rows and less weight, so the candidates of weight <= budget and at
    most max_rows rows are the nodes of a trie: node -> [(row, child,
    weight step)], node 0 the empty set, the step the child's mu_alpha
    weight minus the node's.  Children come in row order, hence in order of
    weight step.
    """
    trie: list[list[tuple[int, int, int]]] = []
    counts: Counter = Counter()

    def grow(rows: tuple[int, ...], weight: int):
        node, k = len(trie), len(rows) + 1  # k: the rows of a child
        trie.append([])
        counts[weight, k - 1] += 1
        dropped = rows[-alpha] + 1 if k > alpha else 0  # the weight term of the row leaving the top alpha
        for r in range(rows[-1] + 1 if rows else 0, p):
            child, step = rows + (r,), r + 1 - dropped
            if k > max_rows or weight + step > budget or (k >= alpha and child[k - alpha] != k - alpha):
                break  # a larger row weighs more, and is a candidate only if this one is
            trie[node].append((r, len(trie), step))  # the child is the next node grown
            yield grow(child, weight + step)

    _depth_first(grow((), 0))
    return trie, counts


def _depth_first(root) -> None:
    """Run a depth-first search written as generators, on an explicit stack.

    Each generator yields the generator of a child, which runs to its end
    before its parent resumes: the order of recursive calls, with a depth
    bounded by memory rather than by the interpreter's recursion limit.
    """
    stack = [root]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(child)


def _trie_walk(rows: list, b: int, s: int, p: int, m: int, trie, bound: int,
               full: int | None) -> tuple[int, list[int] | None]:
    """The first dependent candidate support of least weight, through weight `bound`.

    Supports are lists of pooled row indices j p + i, coordinates in
    order and rows ascending within one; `trie` gives the rows one
    coordinate may add next, node 0 holding the rows that open it.  The
    walk is depth first in ascending pooled row index, C_1's rows first,
    so it meets the supports in lexicographic order, each after its
    prefixes.  It keeps one basis (`field.reduce_row`): each node's row
    enters it once and leaves it on backtrack.  Each node also keeps,
    reduced against its basis, the rows after its last one that can open
    a coordinate within the weight left (for "nrt" the first row of each
    later coordinate).  A child takes its row from there when it can, and
    resumes the reduction of the others against its own row instead of
    starting over; a leaf's rank is then a lookup.  A support of weight
    `full` is dependent without a rank check when it has more than m rows
    and is passed over otherwise.
    Every proper prefix of a candidate is a lighter candidate, so a
    dependent node is not extended, and once one is found the walk prunes
    every node at its weight or above: it stops at the first dependent
    support of each lighter weight it meets.  Returns (weight, support),
    with support None when none is dependent.
    """
    weight, found = bound, None
    reach = bound  # the heaviest node still worth a visit
    basis: dict = {}
    path: list[int] = []
    opening = {row: step for row, _, step in trie[0]}  # weight of a coordinate's first row

    def resume(v):
        """v reduced against the basis, which is left as it was; None when dependent."""
        return basis.popitem()[1] if reduce_row(v, 0, basis, b) is None else None

    def visit(j: int, node: int, base: int, pending: dict):
        nonlocal weight, found, reach
        for jj in range(j, s):
            offset = jj * p
            for row, child, step in trie[node if jj == j else 0]:
                w = base + step
                if w > reach:
                    break
                i = offset + row
                if w == full:
                    if len(path) < m:
                        continue  # at most m rows: a larger support of this weight is dependent anyway
                else:
                    v = pending.get(i, rows[i])
                    if v is None:
                        pass  # a pending row already dependent
                    elif w == reach:  # a leaf: only its rank matters
                        if i in pending or resume(v) is not None:
                            continue
                    elif reduce_row(v, 0, basis, b) is None:
                        path.append(i)
                        yield visit(jj, child, w, {k: None if u is None else resume(u) for k, u in pending.items()
                                                   if k > i and opening[k % p] <= reach - w})
                        path.pop()
                        basis.popitem()
                        continue
                weight, found, reach = w, path + [i], w - 1

    _depth_first(visit(0, 0, 0, {j * p + row: resume(rows[j * p + row]) for j in range(s) for row in opening}))
    return weight, found


def min_dependent_support(
    gm: GeneratingMatrixSet,
    kind: str = "nrt",
    alpha: int | None = None,
    floor: int | None = None,
    cap: int | None = None,
) -> tuple[int, np.ndarray] | None:
    """Smallest weight of a row support with dependent rows, and a dual element on it.

    A dual element with support inside a row set S exists iff the rows of
    the C_j indexed by S are linearly dependent (Niederreiter & Pirsic,
    Acta Arith. 97 (2001)).  The weights "nrt" (mu_1), "mu" (mu_alpha)
    and "hamming" are monotone in the support, so the minimum dual weight
    is the smallest W for which some candidate support of weight W -- a
    support maximal for its weight -- has dependent rows: row prefixes per
    coordinate for "nrt", the sets of `_candidate_trie` for "mu", and any
    W pooled rows for "hamming".  More than m rows are always dependent and
    skip the rank check.  Returns (W, k), k an int64 (s, p) dual element of
    weight W (the rows' dependency), or None when no support is dependent.

    The candidates form a trie -- per coordinate `_candidate_trie` for
    "nrt" and "mu", the combinations of pooled rows for "hamming" -- and
    one depth-first walk over all weights at once (`_trie_walk`) resumes
    the elimination of the prefix each support shares with the one before
    (G. Pirsic and W. Ch. Schmid, J. Complexity 17 (2001)) instead of
    eliminating every support from scratch.  The witness is the first
    dependent support of weight W in the walk's order, ascending pooled
    row index with C_1's rows first, with the first dependency among its
    rows; at the least weight whose supports may exceed m rows, the first
    support with more than m rows stands for them.

    With `floor`, only weights below `floor` are searched.  `cap` bounds
    the candidate supports that may need a rank check: the candidates of
    weights 1..W are counted, and a count above `cap` raises
    CapacityError at the least such W unless a lighter support is
    dependent.
    """
    if kind not in KINDS:
        raise ParameterError(f"unknown weight kind {kind!r}; expected one of {KINDS}")
    if kind == "mu" and (alpha is None or alpha < 1):
        raise ParameterError("kind 'mu' needs alpha >= 1")
    b, s, p, m = gm.base, gm.s, gm.rows, gm.cols
    a = 1 if kind == "nrt" else alpha
    most = s * p if kind == "hamming" else s * _prefix_weight(p, a)  # weight of every row
    top = most if floor is None else min(most, floor - 1)
    if kind == "hamming":
        trie = [[(r, r + 1, 1) for r in range(t, p)] for t in range(p + 1)]  # node: last row + 1
        per_coordinate = Counter({(k, k): math.comb(p, k) for k in range(p + 1)})
    else:
        if s * p > m:
            # the first m + 1 rows, coordinate by coordinate, exceed m rows
            spread = [min(p, m + 1 - j * p) for j in range(s) if j * p < m + 1]
            top = min(top, sum(_prefix_weight(r, a) for r in spread))
        trie, per_coordinate = _candidate_trie(p, a, top, m + 1)
    table = Counter({(0, 0): 1})  # (weight, rows capped at m + 1) -> supports
    for _ in range(s):
        nxt: Counter = Counter()
        for (w, r), n in table.items():
            for (w2, r2), n2 in per_coordinate.items():
                if w + w2 <= top:
                    nxt[w + w2, min(r + r2, m + 1)] += n * n2
        table = nxt
    full = min((w for w, r in table if r > m), default=None)  # the first weight exceeding m rows
    counts: Counter = Counter()  # weight -> candidate supports that need a rank check
    for (w, r), n in table.items():
        if w and r <= m and (full is None or w < full):
            counts[w] += n

    # the walk stops below the first weight whose cumulative count exceeds the cap
    bound = top if full is None else full
    checks, refused = 0, None
    for w in range(1, bound + 1):
        checks += counts[w]
        if cap is not None and checks > cap:
            bound = w - 1
            refused = f"rank search through weight {w} needs {checks} candidate supports, above cap {cap}"
            break
    rows = pack_rows(gm.array.reshape(s * p, m), b)  # the pooled rows, C_1's first
    weight, support = _trie_walk(rows, b, s, p, m, trie, bound, full)
    if support is None:
        if refused is not None:
            raise CapacityError(refused)
        return None
    k = np.zeros((s, p), dtype=np.int64)  # the support's first row dependency is a dual element on it
    for i, c in zip(support, next(dependencies([rows[i] for i in support], b))):
        k[i // p, i % p] = c
    return weight, k


def compute_t_value(gm: GeneratingMatrixSet) -> int:
    """Exact net quality parameter per the row-independence criterion.

    Smallest t such that for every composition d_1 + ... + d_s = m - t the
    pooled first d_j rows of the C_j are linearly independent over F_b,
    i.e. t = m + 1 - (the smallest d_1 + ... + d_s with dependent rows),
    the dual identity t = m + 1 - min mu_1; t = 0 when every row is
    independent.  Exhaustive over row prefixes; meant for desk-scale m and s.
    """
    found = min_dependent_support(gm, "nrt")
    return 0 if found is None else gm.cols + 1 - found[0]


def _net_exponent(ps: PointSet) -> int:
    """The m with b^m = len(ps); a point count that is no power of b is refused."""
    b, count = ps.base, len(ps)
    m = _exponent(count, b)
    if b**m != count:
        raise ParameterError(f"point count {count} is not a power of base {b}")
    return m


def _box_digits(ps: PointSet, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The first k digits of every point, 0 past the precision: (s - 1, k, N) uint8 rows of the
    leading coordinates, and `last[d]`, d <= k, the first d digits of the last as base-b integers.
    The prefixes are below b^k <= N, so they are int32 whenever N fits (N <= 2^28 under MAX_DIGIT_BYTES)."""
    digits, kept = ps.digit_array(), min(k, ps.precision)
    rows = np.zeros((ps.s - 1, k, len(ps)), dtype=np.uint8)
    rows[:, :kept] = digits[:, :-1, :kept].transpose(1, 2, 0)
    last = [np.zeros(len(ps), dtype=np.int32 if len(ps) <= np.iinfo(np.int32).max else np.int64)]
    for d in range(k):
        last.append(last[-1] * ps.base + (digits[:, -1, d] if d < kept else 0))
    return rows, last


def _boxes_even(rows: np.ndarray, last: list[np.ndarray], b: int, k: int) -> bool:
    """True iff every b-adic box of volume b^-k holds the same number of points.

    One depth-first walk over the coordinates meets every box shape d_1 + ... + d_s = k: coordinate
    j takes d_j = 0, 1, ... digits, each extending the box index by one; the last takes the rest.
    The walk stops at the first uneven box.
    """
    want, even = len(last[0]) // b**k, True

    def visit(j: int, box: np.ndarray, left: int):
        nonlocal even
        if j == len(rows):
            full = box * b**left + last[left] if left else box
            even = bool(np.all(np.bincount(full, minlength=b**k) == want))
            return
        for d in range(left + 1):
            box = box * b + rows[j, d - 1] if d else box
            yield visit(j + 1, box, left - d)
            if not even:
                return

    _depth_first(visit(0, np.zeros(len(last[0]), dtype=np.int64), k))
    return even


def geometric_net_check(ps: PointSet, t: int) -> bool:
    """Count points in every elementary interval directly.

    True iff each b-adic box of volume b^(t-m) holds exactly b^t points.
    Cost grows like the number of boxes; desk scale only.
    """
    m = _net_exponent(ps)
    if not 0 <= t <= m:
        raise ParameterError(f"t must be in [0, {m}]")
    return _boxes_even(*_box_digits(ps, m - t), ps.base, m - t)


def geometric_t_value(ps: PointSet) -> int:
    """The least t for which `geometric_net_check(ps, t)` holds, by box counting.

    The digits are read once for all t; at t = m the one box holds every point.
    """
    m = _net_exponent(ps)
    rows, last = _box_digits(ps, m)
    return next(t for t in range(m + 1) if _boxes_even(rows, last, ps.base, m - t))


# ----------------------------------------------------------------------
# Dual space
# ----------------------------------------------------------------------

class DualSpace:
    """The dual of a digital net: all k with C_1^T k_1 + ... + C_s^T k_s = 0.

    An element is an (s, p) array whose row j holds the base-b digits of
    k_j, least significant first, as a vector in F_b^p, exact at any b^p.
    Enumeration spans the kernel of the stacked m x (s p) system instead of
    filtering all b^(s p) candidates.
    """

    def __init__(self, gm: GeneratingMatrixSet, cap: int | None):
        b, p = gm.base, gm.rows
        self.gm = gm
        self.stacked = gm.array.reshape(gm.s * p, gm.cols).T  # the pooled rows, transposed
        basis = kernel_basis(self.stacked, b)
        self.kernel_dim = len(basis)
        self.size = b**self.kernel_dim
        if cap is not None and self.size > cap:
            raise CapacityError(
                f"dual enumeration of {b}^{self.kernel_dim} elements exceeds cap {cap}"
            )
        self.basis = np.array(basis, dtype=np.int64).reshape(-1, gm.s * p)

    def element_digits(self, limit: int | None = None) -> np.ndarray:
        """The first `limit` dual elements (all if None) as an (n, s, p) uint8 digit array, b <= 256.

        Element i weights the kernel basis by the base-b digits of i, so
        element 0 is zero; chunks keep the int64 products small.
        """
        b, s, p = self.gm.base, self.gm.s, self.gm.rows
        if b > 256:
            raise ParameterError(f"base {b} does not fit the uint8 digit array")
        n = self.size if limit is None else min(max(limit, 0), self.size)
        used = _exponent(n, b)  # coefficients of b^used and above are 0 below n
        powers = b ** np.arange(used, dtype=np.int64)
        out = np.empty((n, s * p), dtype=np.uint8)
        chunk = 1 << 16
        for start in range(0, n, chunk):
            coeffs = (np.arange(start, min(start + chunk, n), dtype=np.int64)[:, None] // powers) % b
            out[start : start + len(coeffs)] = (coeffs @ self.basis[:used]) % b
        return out.reshape(n, s, p)

    def contains(self, digits: np.ndarray) -> bool:
        """Membership of one (s, p) digit array by direct substitution into the stacked system."""
        if np.shape(digits) != (self.gm.s, self.gm.rows):
            raise ParameterError(f"dual membership needs ({self.gm.s}, {self.gm.rows}) digits")
        return not np.any((self.stacked @ np.ravel(digits)) % self.gm.base)


def dual_space(gm: GeneratingMatrixSet, cap: int | None = WORK_CAP) -> DualSpace:
    """The dual of the net; more than `cap` elements raise CapacityError, None means no bound."""
    return DualSpace(gm, cap)


# ----------------------------------------------------------------------
# Walsh functions and the character property
# ----------------------------------------------------------------------

# Largest (points x indices) block of Walsh exponents that char_property_sums holds at once.
_WALSH_BLOCK = 1 << 12


def char_property_sums(ps: PointSet, kdigits: np.ndarray) -> np.ndarray:
    """(1/N) sum over the net of the product Walsh function at each index of kdigits.

    `kdigits` holds the indices as `DualSpace.element_digits` gives them:
    (n, s, precision) base-b digits, least significant first.  For a
    digital net the sum is exactly 1 when the index lies in the dual
    space and exactly 0 otherwise; for b > 2 the complex rounding noise
    stays far below the 1e-9 tolerances used by the verification suite.
    One pass over the digit array serves every index: blocks of points
    give (points, indices) exponents mod b, tallied per index into counts
    of each residue, so temporaries stay within _WALSH_BLOCK entries.
    """
    b, p, n = ps.base, ps.precision, len(ps)
    kdig = np.asarray(kdigits, dtype=np.int64)
    if kdig.shape[1:] != (ps.s, p):
        raise ParameterError(f"Walsh index digits of shape {kdig.shape} are not (n, {ps.s}, {p})")
    if kdig.size and (kdig.min() < 0 or kdig.max() >= b):
        raise ParameterError(f"Walsh index digit out of range for base {b}")
    if n == 0:
        raise ParameterError("empty point set")
    count = len(kdig)
    kdig = kdig.reshape(count, ps.s * p).T
    digits = ps.digit_array().reshape(n, ps.s * p)
    counts = np.zeros((count, b), dtype=np.int64)  # index -> points per exponent
    offsets = b * np.arange(count, dtype=np.int64)
    step = max(1, _WALSH_BLOCK // max(count, 1))
    for start in range(0, n, step):
        exponents = digits[start : start + step] @ kdig
        np.remainder(exponents, b, out=exponents)
        exponents += offsets
        counts += np.bincount(exponents.ravel(), minlength=counts.size).reshape(counts.shape)
    if b == 2:
        return ((counts[:, 0] - counts[:, 1]) / n).astype(complex)
    omega = np.exp(2j * np.pi * np.arange(b) / b)
    return np.array([np.dot(row, omega) / n for row in counts], dtype=complex)


def char_property_deviation(ps: PointSet, dual: DualSpace, in_dual: int | None, drawn: int,
                            seed: int | None) -> float:
    """The worst deviation of the net's character sums from the character property.

    The sums are compared with 1 at the first `in_dual` dual elements (all
    of them if None) and with 0 at `drawn` indices outside the dual.  Those
    are the first `drawn` non-members of a stream of indices drawn digit by
    digit, uniformly from F_b^(s p), by `seeded_generator(seed)`; each batch
    of candidates is tested for membership with one product with the
    stacked system.  A dual that holds every index leaves none to draw and
    is refused, as is a negative seed.
    """
    gm = dual.gm
    if drawn > 0 and dual.kernel_dim == gm.s * gm.rows:
        raise ParameterError("every Walsh index is in the dual, so none can be drawn outside it")
    rng = seeded_generator(seed)
    inside = dual.element_digits(in_dual)
    outside = np.empty((0, gm.s * gm.rows), dtype=np.int64)
    while len(outside) < drawn:  # a batch of the indices still missing: none is drawn beyond them
        candidates = uniform_digits(rng, gm.base, (drawn - len(outside), gm.s * gm.rows))
        off_dual = ((candidates @ dual.stacked.T) % gm.base).any(axis=1)
        outside = np.concatenate([outside, candidates[off_dual]])
    indices = np.concatenate([inside, outside.reshape(-1, gm.s, gm.rows)])
    sums = [complex(v) for v in char_property_sums(ps, indices)]
    count = len(inside)
    return max([0.0] + [abs(v - 1.0) for v in sums[:count]] + [abs(v) for v in sums[count:]])
