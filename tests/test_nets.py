import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lowdisc.constructions import (
    cs_matrices,
    dp_net,
    dp_net_matrices,
    faure_matrices,
    niederreiter_net_matrices,
    van_der_corput,
)
from lowdisc.errors import CapacityError, ParameterError
from lowdisc.nets import (
    _TABLE_ROWS,
    DualSpace,
    GeneratingMatrixSet,
    _box_digits,
    _candidate_trie,
    _net_digits,
    PointSet,
    char_property_deviation,
    char_property_sums,
    compute_t_value,
    dual_space,
    fraction_digits,
    generate_net_points,
    geometric_net_check,
    geometric_t_value,
    min_dependent_support,
)
from lowdisc.weights import min_dual_weight

from net_reference import digit_ints, index_digits, net_digits_reference
from rank_reference import _closed_sets


def identity_net(b, m, s):
    return GeneratingMatrixSet(b, [np.eye(m, dtype=np.int64)] * s)


# ---------------------------------------------------------
# Index digits
# ---------------------------------------------------------

def test_index_digits_keep_the_lowest_digits():
    digits = index_digits([6, 7, 2**70 + 5], 2, 3)  # truncated, also beyond int64
    assert digits.dtype == np.int64 and digits.tolist() == [[0, 1, 1], [1, 1, 1], [1, 0, 1]]
    assert index_digits([7], 5, 4).tolist() == [[2, 1, 0, 0]]
    assert index_digits([3, 4], 3, 0).shape == (2, 0)
    assert index_digits([0], 2, 3).tolist() == [[0, 0, 0]]
    assert index_digits([6], 2, 3).tolist() == [[0, 1, 1]]  # 6 = 0 + 1*2 + 1*4
    assert index_digits([7], 5, 2).tolist() == [[2, 1]]  # 7 = 2 + 1*5


# ---------------------------------------------------------
# Net generation
# ---------------------------------------------------------

def test_identity_net_is_van_der_corput():
    ps = generate_net_points(identity_net(2, 2, 1))
    assert [ps.fractions(n)[0] for n in range(4)] == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 4),
    ]


def radical_inverse(n, b, m):
    digits = []
    for _ in range(m):
        n, d = divmod(n, b)
        digits.append(d)
    return sum(Fraction(d, b ** (i + 1)) for i, d in enumerate(digits))


def test_identity_net_any_dimension_radical_inverse():
    for b, m, s in ((2, 3, 2), (3, 2, 3), (5, 2, 2)):
        ps = generate_net_points(identity_net(b, m, s))
        for n in range(len(ps)):
            for j in range(s):
                assert ps.fractions(n)[j] == radical_inverse(n, b, m)


def test_point_zero_is_origin():
    gm = cs_matrices(5, 2, 2, 2)
    ps = generate_net_points(gm)
    assert len(ps) == 625
    assert ps.fractions(0) == (Fraction(0), Fraction(0))


@pytest.mark.parametrize(
    "b, cols, rows, short, count",
    [
        (2, 14, 16, 0, 1 << 14),  # four full tables
        (2, 14, 15, 4090, 12300),  # partial last blocks
        (3, 9, 9, 2180, 2200),  # prefixes ending within one block, small table
        (251, 2, 3, 200, 1500),  # uint16 sums, blocks of 251
        (131, 2, 2, 0, 131 * 131),
        (5, 3, 4, 7, 7),  # shorter than one table
    ],
)
def test_net_digits_recurrence_matches_matrix_product(b, cols, rows, short, count):
    """The empty prefix and two prefixes of the net, each against the matrix product."""
    rng = np.random.default_rng(b * 1000 + short)
    matrices = np.stack([rng.integers(0, b, (rows, cols)) for _ in range(3)])
    for n in (0, short, count):
        assert np.array_equal(_net_digits(n, b, matrices), net_digits_reference(n, b, matrices))


def test_net_generation_temporaries_stay_within_the_table():
    """No O(N) temporary: at most the (rows x s) table of _TABLE_ROWS low
    indices and one block-sized difference beside the digit array."""
    gm = dp_net_matrices(3, 16, 2)
    tracemalloc.start()
    try:
        ps = generate_net_points(gm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ps.digit_array().nbytes + 3 * _TABLE_ROWS * gm.s * gm.rows


# ---------------------------------------------------------
# Sequence generation
# ---------------------------------------------------------

def test_sequence_points_basics():
    # identity matrices: point n is the radical inverse of n, and a sequence is a net prefix
    ps = generate_net_points(identity_net(2, 3, 1), count=4)
    assert [ps.fractions(n)[0] for n in range(4)] == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 4),
    ]
    assert ps == PointSet.from_digits(generate_net_points(identity_net(2, 3, 1)).digit_array()[:4], 2)
    assert len(generate_net_points(identity_net(2, 2, 1), count=0)) == 0
    for count in (-1, 9):
        with pytest.raises(ParameterError, match="size of the net"):
            generate_net_points(identity_net(2, 3, 1), count=count)
    assert generate_net_points(identity_net(2, 1, 2), count=1).fractions(0) == (
        Fraction(0),
        Fraction(0),
    )


# ---------------------------------------------------------
# t-values
# ---------------------------------------------------------

def test_t_value_identity_single_dimension():
    assert compute_t_value(identity_net(2, 4, 1)) == 0


def test_t_value_duplicated_matrices():
    assert compute_t_value(identity_net(2, 3, 1)) == 0
    # rows (1,0) and (1,0) pooled at d=(1,1) are dependent
    assert compute_t_value(identity_net(2, 2, 2)) == 1


def test_t_value_cs_net_is_zero():
    assert compute_t_value(cs_matrices(5, 2, 2, 2)) == 0


def test_candidate_trie_holds_the_closed_sets():
    """Every path of the trie is one of the enumerated candidate sets and back,
    each path's weight steps add up to its mu_alpha weight, children come in
    row order, and the (weight, rows) counts are those of the sets."""
    for p, alpha, budget, max_rows in itertools.product(range(1, 9), range(1, 5), range(40), range(10)):
        trie, counts = _candidate_trie(p, alpha, budget, max_rows)
        paths = {}

        def walk(node, rows, weight):
            paths[rows] = weight
            assert [row for row, _, _ in trie[node]] == sorted({row for row, _, _ in trie[node]})
            for row, child, step in trie[node]:
                walk(child, rows + (row,), weight + step)

        walk(0, (), 0)
        sets = {rows: w for w, group in _closed_sets(p, alpha, budget, max_rows).items() for rows in group}
        assert len(paths) == len(trie) and paths == sets
        assert counts == Counter((w, len(rows)) for rows, w in sets.items())


# ---------------------------------------------------------
# Geometric counting
# ---------------------------------------------------------

def test_geometric_check_examples():
    vdc = van_der_corput(2, 2)
    assert geometric_net_check(vdc, 0)
    dup = generate_net_points(identity_net(2, 2, 2))
    assert not geometric_net_check(dup, 0)
    assert geometric_net_check(dup, 2)  # t = m: one interval holds everything
    assert geometric_t_value(vdc) == 0 and geometric_t_value(dup) == 1
    bad = PointSet.from_digits(np.zeros((3, 1, 1), dtype=np.uint8), 2)
    with pytest.raises(ParameterError):
        geometric_net_check(bad, 0)
    with pytest.raises(ParameterError):
        geometric_t_value(bad)


def test_geometric_agrees_with_algebraic_t():
    """Counting and row-independence give the same verdict for every t."""
    cases = [
        identity_net(2, 3, 1),
        identity_net(2, 2, 2),
        faure_matrices(5, 2, 2),
        faure_matrices(3, 2, 2),
        cs_matrices(5, 2, 2, 2),
    ]
    for gm in cases:
        assert gm.base**gm.cols <= 625
        t_alg = compute_t_value(gm)
        ps = generate_net_points(gm)
        for t in range(gm.cols + 1):
            assert geometric_net_check(ps, t) == (t >= t_alg)


def test_geometric_check_walks_more_coordinates_than_the_recursion_limit():
    """The box walk runs on an explicit stack: 1200 coordinates of 2 points at t = 0."""
    assert geometric_net_check(generate_net_points(niederreiter_net_matrices(1200, 1)), 0)


def test_box_digits_keeps_int32_prefixes_of_the_last_coordinate():
    ps = dp_net(3, 10, 2)
    rows, last = _box_digits(ps, 10)
    digits = ps.digit_array()[:, -1, :10].astype(np.int64)
    assert rows.dtype == np.uint8 and len(last) == 11
    for d, prefix in enumerate(last):
        assert prefix.dtype == np.int32
        assert np.array_equal(prefix, digits[:, :d] @ (2 ** np.arange(d - 1, -1, -1)))


def test_geometric_t_value_peak_memory():
    """dp-net alpha 3, s 2, m 16: the digits once, the last coordinate's 17 int32 prefixes and one
    box per coordinate stay within 15 MB."""
    ps = dp_net(3, 16, 2)
    tracemalloc.start()
    try:
        t = geometric_t_value(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t == compute_t_value(dp_net_matrices(3, 16, 2)) == 2
    assert peak <= 15_000_000


# ---------------------------------------------------------
# Dual space
# ---------------------------------------------------------

def test_generating_matrix_set_is_one_reduced_read_only_array():
    source = np.array([[[1, 7], [4, 5], [0, 1]], [[2, 2], [1, 0], [3, 3]]])
    gm = GeneratingMatrixSet(5, source)
    assert (gm.s, gm.rows, gm.cols) == (2, 3, 2)
    assert gm.array.dtype == np.int64 and gm.array.tolist() == (source % 5).tolist()
    assert not gm.array.flags.writeable
    assert gm == GeneratingMatrixSet(5, source % 5)
    assert gm != GeneratingMatrixSet(7, source % 5)
    source[0, 0, 0] = 3  # the set holds its own copy
    assert gm.array[0, 0, 0] == 1 and gm != GeneratingMatrixSet(5, source)
    for base, arr in ((6, source), (5, source[0]), (5, source[:0]), (5, source.transpose(0, 2, 1))):
        with pytest.raises(ParameterError):
            GeneratingMatrixSet(base, arr)


def test_dual_trivial_for_invertible_single_matrix():
    dual = dual_space(identity_net(2, 3, 1), cap=100)
    assert digit_ints(dual.element_digits(), 2) == [(0,)]


def test_dual_two_copies_base2():
    gm = GeneratingMatrixSet(2, np.ones((2, 1, 1), dtype=np.int64))
    dual = dual_space(gm, cap=100)
    assert sorted(digit_ints(dual.element_digits(), 2)) == [(0, 0), (1, 1)]


def test_dual_cs_size_and_membership():
    gm = cs_matrices(5, 2, 2, 2)
    dual = dual_space(gm, cap=1000)
    elements = dual.element_digits()
    assert elements.shape == (625, 2, 4)  # kernel dimension 4 over F_5
    for k in elements[:50]:
        assert dual.contains(k)
    assert not dual.contains(index_digits((1, 0), 5, 4))
    assert not dual.contains(index_digits((0, 5**2), 5, 4))
    for shape in ((1, 4), (4, 2), (8,), (1, 2, 4)):
        with pytest.raises(ParameterError, match=r"needs \(2, 4\) digits"):
            dual.contains(np.zeros(shape, dtype=np.uint8))


def test_char_sums_refuse_a_misshapen_index_array_or_digit():
    ps = generate_net_points(cs_matrices(5, 2, 2, 2))  # s = 2, precision 4
    assert char_property_sums(ps, np.zeros((0, 2, 4), dtype=np.uint8)).shape == (0,)
    for shape in ((2, 4), (1, 2, 3), (1, 3, 4), (1, 1, 2, 4)):
        with pytest.raises(ParameterError, match=r"of shape \(.*\) are not \(n, 2, 4\)"):
            char_property_sums(ps, np.zeros(shape, dtype=np.uint8))
    for digit in (5, -1):
        with pytest.raises(ParameterError, match="Walsh index digit out of range for base 5"):
            char_property_sums(ps, np.full((1, 2, 4), digit))


def test_dual_elements_resubstitute_to_zero():
    for gm in (cs_matrices(5, 2, 2, 2), faure_matrices(3, 2, 2)):
        dual = dual_space(gm, cap=1000)
        stacked = np.hstack([mat.T for mat in gm.array])
        b, p = gm.base, gm.rows
        for row in dual.element_digits():
            assert not np.any((stacked @ row.reshape(-1).astype(np.int64)) % b)


def test_dual_of_a_base_above_256_is_refused_only_for_enumeration():
    """Digit 256 does not fit the uint8 element array; membership and the rank search need no array."""
    gm = GeneratingMatrixSet(257, [[[1]], [[1]]])
    dual = DualSpace(gm, None)
    assert (dual.size, dual.kernel_dim) == (257, 1)
    assert dual.contains(np.array([[256], [1]])) and not dual.contains(np.array([[1], [0]]))
    for enumerate_dual in (dual.element_digits, lambda: min_dual_weight(dual, "hamming")):
        with pytest.raises(ParameterError, match="base 257 does not fit the uint8 digit array"):
            enumerate_dual()
    weight, witness = min_dependent_support(gm, "hamming")
    assert weight == 2 and witness.tolist() == [[256], [1]]


def test_dual_cap_is_enforced():
    with pytest.raises(CapacityError):
        dual_space(cs_matrices(5, 2, 2, 2), cap=624)


def test_unbounded_dual_enumerates_in_order_past_int64_powers():
    # 13^23, the top enumeration power of this 24-dimensional kernel, exceeds int64
    dual = dual_space(faure_matrices(13, 2, 13), cap=None)
    assert dual.kernel_dim == 24
    elements = dual.element_digits(limit=14)
    for n, vec in ((1, dual.basis[0]), (13, dual.basis[1]), (2, 2 * dual.basis[0] % 13)):
        want = tuple(int(lo + 13 * hi) for lo, hi in vec.reshape(13, 2))
        assert digit_ints(elements[n : n + 1], 13) == [want]
    assert all(dual.contains(k) for k in elements)


# ---------------------------------------------------------
# Character sums
# ---------------------------------------------------------

def test_char_sum_zero_index_is_one():
    ps = van_der_corput(2, 3)
    assert char_property_sums(ps, np.zeros((1, 1, 3), dtype=np.uint8))[0] == 1.0


def test_char_sum_on_cs_net():
    gm = cs_matrices(5, 2, 2, 2)
    ps = generate_net_points(gm)
    dual = dual_space(gm, cap=1000)
    for k in dual.element_digits(20):
        assert abs(char_property_sums(ps, k[None])[0] - 1.0) <= 1e-9
    assert abs(char_property_sums(ps, index_digits((1, 0), 5, 4)[None])[0]) <= 1e-9  # (1,0) is not dual


def test_char_sum_indicator_small_nets():
    """|sum - [k in dual]| <= 1e-9 across every k below b^p on tiny nets."""
    gm = faure_matrices(3, 2, 2)
    ps = generate_net_points(gm)
    dual = dual_space(gm, cap=10000)
    members = set(digit_ints(dual.element_digits(), 3))
    for k1 in range(9):
        for k2 in range(9):
            expect = 1.0 if (k1, k2) in members else 0.0
            assert abs(char_property_sums(ps, index_digits((k1, k2), 3, 2)[None])[0] - expect) <= 1e-9


def test_char_check_refuses_a_dual_of_every_index(monkeypatch):
    """Rank-0 matrices put every Walsh index in the dual, so none can be drawn outside it."""
    gm = GeneratingMatrixSet(2, np.zeros((1, 1, 1), dtype=np.int64))
    ps, dual = generate_net_points(gm), dual_space(gm, None)
    assert dual.kernel_dim == 1 and char_property_deviation(ps, dual, None, 0, 5) == 0.0
    monkeypatch.setattr(random, "Random", lambda seed: pytest.fail("an index was drawn"))
    with pytest.raises(ParameterError, match="every Walsh index is in the dual"):
        char_property_deviation(ps, dual, 64, 20, 5)


def test_char_check_refuses_a_negative_seed():
    """random.Random(-1) would silently draw the stream of seed 1."""
    gm = faure_matrices(3, 2, 2)
    with pytest.raises(ParameterError, match="need a seed >= 0, got -1"):
        char_property_deviation(generate_net_points(gm), dual_space(gm, None), 4, 4, -1)


# ---------------------------------------------------------
# Point sets
# ---------------------------------------------------------

def test_pointset_prefix():
    ps = van_der_corput(2, 3)
    pre = ps.prefix(3)
    assert len(pre) == 3
    assert np.array_equal(pre.digit_array(), ps.digit_array()[:3])
    with pytest.raises(ParameterError):
        ps.prefix(9)
    with pytest.raises(ParameterError, match="prefix of -1 points"):
        ps.prefix(-1)
    assert len(ps.prefix(0)) == 0


def test_pointset_from_digits_validates_and_freezes():
    digits = np.array([[[1, 0]], [[2, 1]]], dtype=np.uint8)
    ps = PointSet.from_digits(digits, 3, {"family": "manual"})
    assert ps.digit_array() is digits and not digits.flags.writeable
    assert (len(ps), ps.s, ps.precision) == (2, 1, 2)
    assert ps.fractions(1) == (Fraction(7, 9),)
    assert ps == PointSet.from_digits(digits.copy(), 3, {"family": "manual"})
    assert ps != PointSet.from_digits(digits.copy(), 3)
    with pytest.raises(ParameterError):
        PointSet.from_digits(digits, 2)  # digit 2 out of range
    with pytest.raises(ParameterError):
        PointSet.from_digits(digits.astype(np.int64), 3)
    with pytest.raises(ParameterError):
        PointSet.from_digits(np.zeros((2, 2), dtype=np.uint8), 3)
    with pytest.raises(ParameterError):
        PointSet.from_digits(np.zeros((2, 1, 0), dtype=np.uint8), 3)
    with pytest.raises(ParameterError):
        PointSet.from_digits(digits, 4)  # not prime
    with pytest.raises(ParameterError):
        PointSet.from_digits(np.zeros((1, 1, 1), dtype=np.uint8), 257)  # digits do not fit uint8


def truncated_digits(x, b, p):
    """The p base-b digits of floor(x * b^p), most significant first."""
    return tuple(index_digits([math.floor(x * b**p)], b, p)[0, ::-1].tolist())


def test_fraction_digits_truncate_like_from_fraction():
    assert truncated_digits(Fraction(5, 8), 2, 3) == (1, 0, 1)
    assert truncated_digits(Fraction(2, 3), 2, 4) == (1, 0, 1, 0)  # digits beyond p dropped
    for num, den, b, p in [(1, 3, 2, 10), (2, 7, 3, 6), (5, 11, 5, 4), (0, 4, 2, 3), (3, 4, 2, 1)]:
        got = fraction_digits(np.array([num]), den, b, p)
        assert tuple(got[0]) == truncated_digits(Fraction(num, den), b, p)
    # a denominator beyond int64 takes the Python-int path
    den = 3**45
    nums = [1, den // 2, den - 1]
    got = fraction_digits(np.array(nums, dtype=object), den, 2, 80)
    for row, num in zip(got, nums):
        assert tuple(row) == truncated_digits(Fraction(num, den), 2, 80)
    # tail digits are brought down: (1 + 0.101_2) / 3 = 13/24
    got = fraction_digits(np.array([1]), 3, 2, 8, tail=np.array([[1, 0, 1]], dtype=np.uint8))
    assert tuple(got[0]) == truncated_digits(Fraction(13, 24), 2, 8)


def test_generation_refuses_oversized_requests_up_front():
    with pytest.raises(CapacityError, match="digit limit"):
        generate_net_points(identity_net(2, 40, 1))
    with pytest.raises(CapacityError, match="digit limit"):
        generate_net_points(identity_net(2, 48, 2), count=1 << 40)
    # the preflight counts the points asked for, not the whole net
    assert len(generate_net_points(identity_net(2, 48, 2), count=8)) == 8
