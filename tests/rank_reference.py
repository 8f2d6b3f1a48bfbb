"""Reduced row echelon form over F_b and the per-support rank search, for tests.

The textbook elimination, kept apart from `lowdisc.field` as an
independent oracle: `rref` gives the echelon form and its pivot columns,
and `rref_kernel_basis` reads the kernel basis off the free columns.

`min_dependent_support` is the per-support rank search: it enumerates its
own candidate supports (`_closed_sets` per coordinate, `_product_supports`
across coordinates, `itertools.combinations` for "hamming"), sorts those
of each weight by pooled row index, C_1's rows first, and eliminates every
one from scratch, weight by weight.  It is the oracle for the trie walk's
weight, witness and capacity refusal, and `_closed_sets` the oracle for
the walk's candidate trie.
"""

import math
from collections import Counter
from itertools import combinations
from typing import Iterator

import numpy as np

from lowdisc.errors import CapacityError
from lowdisc.field import dependencies, pack_rows
from lowdisc.nets import GeneratingMatrixSet, _prefix_weight


def rref(arr, b):
    """Reduced row echelon form mod b; returns (rref, pivot column list)."""
    m = (np.asarray(arr) % b).astype(np.int64)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = -1
        for i in range(r, rows):
            if m[i, c]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        inv = pow(int(m[r, c]), b - 2, b)
        m[r] = (m[r] * inv) % b
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % b
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rref_kernel_basis(arr, b):
    """One kernel vector per free column f: 1 at f, minus column f of the
    echelon form at the pivot columns."""
    reduced, pivots = rref(arr, b)
    cols = reduced.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = (-int(reduced[i, f])) % b
        basis.append(v)
    return basis


def _row_sets(p: int, k: int, budget: int, start: int = 0) -> Iterator[tuple[int, ...]]:
    """k-subsets of rows start..p-1, ascending, whose positions (row + 1) sum to <= budget."""
    if k == 0:
        yield ()
        return
    for first in range(start, p):
        if k * (first + 1) + k * (k - 1) // 2 > budget:  # rows first..first+k-1 are cheapest
            break
        for rest in _row_sets(p, k - 1, budget - first - 1, first + 1):
            yield (first,) + rest


def _closed_sets(p: int, alpha: int, budget: int, max_rows: int) -> dict[int, list[tuple[int, ...]]]:
    """The row sets of one coordinate that are maximal for their mu_alpha weight.

    These are the sets of fewer than alpha rows, and each alpha-set T
    together with every row below min T (rows that do not change the top
    alpha positions).  Keyed by weight; only weights <= budget and sets of
    at most max_rows rows.
    """
    sets: dict[int, list[tuple[int, ...]]] = {}
    for k in range(min(alpha, max_rows + 1)):
        for rows in _row_sets(p, k, budget):
            sets.setdefault(sum(rows) + k, []).append(rows)
    for top in _row_sets(p, alpha, budget):
        if top[0] + alpha <= max_rows:
            sets.setdefault(sum(top) + alpha, []).append(tuple(range(top[0])) + top)
    return sets


def _product_supports(sets, s: int, weight: int) -> Iterator[list[tuple[int, int]]]:
    """Supports [(j, row), ...] taking one set per coordinate, of total weight `weight`."""
    if s == 0:
        if weight == 0:
            yield []
        return
    j = s - 1
    for w, group in sets.items():
        if w <= weight:
            for head in _product_supports(sets, j, weight - w):
                for rows in group:
                    yield head + [(j, i) for i in rows]


def min_dependent_support(
    gm: GeneratingMatrixSet,
    kind: str = "nrt",
    alpha: int | None = None,
    floor: int | None = None,
    cap: int | None = None,
) -> tuple[int, tuple[int, ...]] | None:
    """Smallest weight of a row support with dependent rows, and a dual element on it.

    A dual element with support inside a row set S exists iff the rows of
    the C_j indexed by S are linearly dependent (Niederreiter & Pirsic,
    Acta Arith. 97 (2001)).  The weights "nrt" (mu_1), "mu" (mu_alpha)
    and "hamming" are monotone in the support, so the minimum dual weight
    is the smallest W for which some candidate support of weight W -- a
    support maximal for its weight -- has dependent rows: row prefixes per
    coordinate for "nrt", the sets of `_closed_sets` for "mu", and any W
    pooled rows for "hamming".  More than m rows are always dependent and
    skip the rank check.  Returns (W, k) with k a dual element of weight W
    (the dependency among the rows), or None when no support is dependent.
    The supports of one weight are tried in ascending order of their pooled
    row indices j p + i, so the witness is the first dependent one.

    With `floor`, only weights below `floor` are searched.  `cap` bounds
    the candidate supports that may need a rank check: before weight W is
    searched, the candidates of weights 1..W are counted, and a count above
    `cap` raises CapacityError.
    """
    b, s, p, m = gm.base, gm.s, gm.rows, gm.cols
    a = 1 if kind == "nrt" else alpha
    most = s * p if kind == "hamming" else s * _prefix_weight(p, a)  # weight of every row
    top = most if floor is None else min(most, floor - 1)
    counts: Counter = Counter()  # weight -> candidate supports with at most m rows
    if kind == "hamming":
        full = m + 1 if s * p > m else None  # the first weight whose supports exceed m rows
        for w in range(1, min(top, m) + 1):
            counts[w] = math.comb(s * p, w)

        def supports(w):
            return map(list, combinations(range(s * p), w))
    else:
        if s * p > m:
            # the first m + 1 rows, coordinate by coordinate, exceed m rows
            spread = [min(p, m + 1 - j * p) for j in range(s) if j * p < m + 1]
            top = min(top, sum(_prefix_weight(r, a) for r in spread))
        sets = _closed_sets(p, a, top, m + 1)
        per_coordinate = Counter((w, len(rows)) for w, group in sets.items() for rows in group)
        table = Counter({(0, 0): 1})  # (weight, rows capped at m + 1) -> supports
        for _ in range(s):
            nxt: Counter = Counter()
            for (w, r), n in table.items():
                for (w2, r2), n2 in per_coordinate.items():
                    if w + w2 <= top:
                        nxt[w + w2, min(r + r2, m + 1)] += n * n2
            table = nxt
        full = min((w for w, r in table if r > m), default=None)
        for (w, r), n in table.items():
            if w and r <= m and (full is None or w < full):
                counts[w] += n

        def supports(w):
            return sorted([j * p + i for j, i in support] for support in _product_supports(sets, s, w))

    rows = pack_rows(gm.array.reshape(s * p, m), b)  # the pooled rows, C_1's first
    checks = 0
    for w in range(1, (top if full is None else min(top, full)) + 1):
        checks += counts[w]
        if cap is not None and checks > cap:
            raise CapacityError(
                f"rank search through weight {w} needs {checks} candidate supports, above cap {cap}"
            )
        for support in supports(w):
            if w == full and len(support) <= m:
                continue  # a larger support of this weight is dependent anyway
            dep = next(dependencies([rows[i] for i in support], b), None)
            if dep is not None:
                k = [0] * s
                for i, c in zip(support, dep):
                    k[i // p] += c * b ** (i % p)
                return w, tuple(k)
    return None
