"""Property tests over random generating matrices.

Each fast path is compared with an independent slow one: the rank engine
with dual enumeration, the t-value with row reduction over compositions,
and the vectorised box count with a per-point loop.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from lowdisc.field import FieldMatrix, _rref  # noqa: E402
from lowdisc.nets import (  # noqa: E402
    GeneratingMatrixSet,
    _compositions,
    compute_t_value,
    dual_space,
    generate_net_points,
    geometric_net_check,
)
from lowdisc.weights import min_dual_weight, min_weight_by_rank, vector_weight  # noqa: E402

# largest s * p per base, so that every dual (at most b^(s p) elements) stays small
MAX_POOLED = {2: 12, 3: 7, 5: 5}
# (b, s, p) shapes with at least two pooled rows, so that most duals are nonzero
SHAPES = [
    (b, s, p)
    for b, pooled in MAX_POOLED.items()
    for s in (1, 2, 3)
    for p in range(1, pooled // s + 1)
    if s * p >= 2
]
KINDS = [("nrt", None), ("hamming", None), ("mu", 2), ("mu", 3)]


@st.composite
def nets(draw, max_m=None):
    b, s, p = draw(st.sampled_from(SHAPES))
    m = draw(st.integers(1, p if max_m is None else min(p, max_m)))
    entries = draw(st.lists(st.integers(0, b - 1), min_size=s * p * m, max_size=s * p * m))
    arr = np.array(entries, dtype=np.int64).reshape(s, p, m)
    return GeneratingMatrixSet(b, s, p, m, tuple(FieldMatrix(a, b) for a in arr))


def geometric_loop_oracle(ps, t):
    """Per-point dictionary count of every elementary interval of volume b^(t-m)."""
    b, count = ps.base, len(ps)
    m = 0
    while b**m < count:
        m += 1
    digits = ps.digit_array()
    if digits.shape[2] < m:
        pad = np.zeros((count, ps.s, m - digits.shape[2]), dtype=np.uint8)
        digits = np.concatenate([digits, pad], axis=2)
    for d in _compositions(m - t, ps.s):
        keys = {}
        for n in range(count):
            key = tuple(digits[n, j, : d[j]].tobytes() for j in range(ps.s))
            keys[key] = keys.get(key, 0) + 1
        if any(c != b**t for c in keys.values()):
            return False
    return True


def t_value_oracle(gm):
    """Smallest t with the first d_j rows of the C_j independent for every
    composition d of m - t, each checked by row reduction."""
    m = gm.cols
    for t in range(m + 1):
        independent = True
        for d in _compositions(m - t, gm.s):
            take = [gm.matrices[j].array[: d[j]] for j in range(gm.s) if d[j] > 0]
            if take:
                stacked = np.vstack(take)
                independent &= len(_rref(stacked, gm.base)[1]) == stacked.shape[0]
        if independent:
            return t
    raise AssertionError("t = m always satisfies the criterion")


@given(nets())
def test_rank_engine_matches_enumeration(gm):
    dual = dual_space(gm, 1 << 14)
    for kind, alpha in KINDS:
        fast = min_weight_by_rank(gm, kind, alpha)
        slow = min_dual_weight(dual, kind, alpha=alpha)
        assert fast.minimum == slow.minimum
        assert fast.dual_size == slow.dual_size
        if fast.minimum is None:
            assert fast.witness is None
        else:
            assert dual.contains(fast.witness)
            assert vector_weight(fast.witness, gm.base, kind, alpha) == fast.minimum


@given(nets(), st.integers(0, 12))
def test_floor_stops_the_search(gm, floor):
    exact = min_weight_by_rank(gm, "mu", 2).minimum
    stopped = min_weight_by_rank(gm, "mu", 2, floor=floor).minimum
    if exact is not None and exact < floor:
        assert stopped == exact
    else:
        assert stopped is None


@given(nets())
def test_t_value_matches_composition_oracle(gm):
    assert compute_t_value(gm) == t_value_oracle(gm)


@given(nets(max_m=5))
def test_geometric_check_matches_loop_and_algebraic_t(gm):
    ps = generate_net_points(gm)
    t = compute_t_value(gm)
    for tt in range(gm.cols + 1):
        assert geometric_net_check(ps, tt) == geometric_loop_oracle(ps, tt) == (tt >= t)


@given(nets(), st.integers(0, 70))
def test_dual_elements_limit_is_a_prefix(gm, k):
    dual = dual_space(gm, 1 << 14)
    assert dual.elements(limit=k) == dual.elements()[:k]
