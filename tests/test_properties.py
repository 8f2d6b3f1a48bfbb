"""Property tests over random generating matrices and digit arrays.

Each fast path is compared with an independent slow one: the rank engine
with dual enumeration, its trie walk with the per-support search (weight,
witness and capacity refusal), the vectorised dual weights with the
scalar per-integer ones, the batched Walsh sums with the dual
membership test, the t-value with row reduction over compositions,
the incremental kernel basis with the one read off the echelon form,
the vectorised box count with a per-point loop, point-level interlacing
with matrix-level interlacing, the interlaced sequence constructions
(net prefixes of one matrix array) with the per-coordinate sequence
interlaced point by point, the array trim with a Fraction loop, the
exact L2 discrepancy with the rational oracle and, where that is capped,
with the pairwise sum in Python integers (and the float pairwise sum),
the bitset and single-anchor point counts with a broadcast comparison,
the digit-recurrence point generation with the matrix product, the
canonical point-file shortcut with the line parser, and the vectorised
digit reading with the per-token one.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from lowdisc.constructions import (  # noqa: E402
    arbitrary_n_trim,
    dp_finite_base,
    dp_sequence,
    interlace_matrices,
    interlace_pointset,
)
from lowdisc.discrepancy import (  # noqa: E402
    _LQ_BLOCK,
    _DIRECT_LEVELS,
    _count_below,
    _integer_coordinates,
    _moduli_above,
    _space_pairs,
    _weighted_pairs,
    l2_exact,
    l2_exact_rational,
    local_discrepancy,
)
from lowdisc.errors import CapacityError, ParameterError  # noqa: E402
from lowdisc.field import kernel_basis  # noqa: E402
from lowdisc.nets import (  # noqa: E402
    _TABLE_ROWS,
    GeneratingMatrixSet,
    PointSet,
    _net_digits,
    char_property_sums,
    compute_t_value,
    dual_space,
    fraction_digits,
    generate_net_points,
    geometric_net_check,
    geometric_t_value,
    min_dependent_support,
)
from lowdisc.pointfile import (  # noqa: E402
    _canonical_body,
    _digit_values,
    _header,
    _parse_lines,
    dumps_point_file,
    loads_point_file,
)
from lowdisc.weights import _weight_matrix, min_dual_weight  # noqa: E402

from count_reference import count_below_reference  # noqa: E402
from l2_reference import l2_float_reference, l2_integer_reference, tie_heavy  # noqa: E402
from net_reference import compositions, digit_ints, net_digits_reference  # noqa: E402
from pointfile_reference import digit_values_reference  # noqa: E402
from rank_reference import min_dependent_support as per_support_search  # noqa: E402
from rank_reference import rref, rref_kernel_basis  # noqa: E402
from sequence_reference import dp_finite_base_reference, dp_sequence_reference  # noqa: E402
from weight_reference import vector_weight  # noqa: E402

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
    return GeneratingMatrixSet(b, arr)


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
    for d in compositions(m - t, ps.s):
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
        for d in compositions(m - t, gm.s):
            take = [gm.array[j, : d[j]] for j in range(gm.s) if d[j] > 0]
            if take:
                stacked = np.vstack(take)
                independent &= len(rref(stacked, gm.base)[1]) == stacked.shape[0]
        if independent:
            return t
    raise AssertionError("t = m always satisfies the criterion")


@given(nets())
def test_rank_engine_matches_enumeration(gm):
    dual = dual_space(gm, 1 << 14)
    for kind, alpha in KINDS:
        fast = min_dependent_support(gm, kind, alpha)
        slow = min_dual_weight(dual, kind, alpha=alpha)
        assert (fast is None) == (slow is None)
        if fast is not None:
            weight, witness = fast
            assert weight == slow[0]
            assert dual.contains(witness)
            assert vector_weight(digit_ints([witness], gm.base)[0], gm.base, kind, alpha) == weight


@st.composite
def weight_duals(draw):
    """Random matrices over F_b, b in {2, 3, 5}, with at least 2 rows and s * rows
    at most 8, 6 or 5, so that the dual has at most 2^8, 3^6 or 5^5 elements and
    every one is checked; and an alpha below the row count or at or above it."""
    b = draw(st.sampled_from([2, 3, 5]))
    size = {2: 8, 3: 6, 5: 5}[b]
    s = draw(st.integers(1, size // 2))
    p = draw(st.integers(2, size // s))
    m = draw(st.integers(1, p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.integers(1, p - 1) | st.integers(p, p + 2))
    return GeneratingMatrixSet(b, rng.integers(0, b, (s, p, m))), alpha


@given(weight_duals(), st.sampled_from(["nrt", "hamming", "mu"]))
def test_weight_matrix_equals_the_scalar_reference(case, kind):
    gm, alpha = case
    alpha = alpha if kind == "mu" else None
    dual = dual_space(gm, None)
    weights = _weight_matrix(dual.element_digits(), kind, alpha).sum(axis=1)
    elements = digit_ints(dual.element_digits(), gm.base)
    assert weights.tolist() == [vector_weight(k, gm.base, kind, alpha) for k in elements]


@given(nets(), st.integers(0, 12))
def test_floor_stops_the_search(gm, floor):
    exact = min_dependent_support(gm, "mu", 2)
    stopped = min_dependent_support(gm, "mu", 2, floor=floor)
    if exact is not None and exact[0] < floor:
        assert stopped[0] == exact[0] and np.array_equal(stopped[1], exact[1])
    else:
        assert stopped is None


@given(nets())
def test_t_value_matches_composition_oracle(gm):
    assert compute_t_value(gm) == t_value_oracle(gm)


@st.composite
def rank_nets(draw, bases=(2, 3, 5, 7)):
    """Random matrices over F_b, b in `bases`, s <= 4, m <= 6, with m or m + 1
    rows; a drawn share of the entries is zeroed, so that light supports are
    often dependent and the witness order matters."""
    b = draw(st.sampled_from(bases))
    s, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    p = draw(st.integers(m, m + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeroed = draw(st.sampled_from([0.0, 0.5, 0.8]))
    return GeneratingMatrixSet(b, rng.integers(0, b, (s, p, m)) * (rng.random((s, p, m)) >= zeroed))


RANK_KINDS = [("nrt", None), ("hamming", None), ("mu", 1), ("mu", 2), ("mu", 3)]


def integer_witness_search(gm, kind, alpha, floor, cap):
    """`min_dependent_support` with its witness as the integers (k_1, ..., k_s), as the oracle gives it."""
    found = min_dependent_support(gm, kind, alpha, floor, cap)
    return None if found is None else (found[0], digit_ints([found[1]], gm.base)[0])


def rank_search(search, gm, kind, alpha, floor, cap):
    """(weight, witness) of a rank search, None, or the message of its capacity refusal."""
    try:
        return search(gm, kind, alpha, floor, cap)
    except CapacityError as err:
        return f"CapacityError: {err}"


@given(st.one_of(nets(), rank_nets()), st.one_of(st.none(), st.integers(0, 14)))
def test_trie_walk_matches_per_support_search(gm, floor):
    for kind, alpha in RANK_KINDS:
        walk = rank_search(integer_witness_search, gm, kind, alpha, floor, None)
        assert walk == rank_search(per_support_search, gm, kind, alpha, floor, None)


@given(st.one_of(nets(), rank_nets()), st.one_of(st.none(), st.integers(0, 14)), st.integers(0, 120))
def test_trie_walk_refuses_like_per_support_search(gm, floor, cap):
    for kind, alpha in RANK_KINDS:
        walk = rank_search(integer_witness_search, gm, kind, alpha, floor, cap)
        assert walk == rank_search(per_support_search, gm, kind, alpha, floor, cap)


@given(st.one_of(rank_nets(), rank_nets(bases=(257,))))
@example(GeneratingMatrixSet(257, [[[1]], [[1]]]))  # the witness (256, 1): a digit beyond uint8
def test_witness_is_an_int64_digit_array_in_the_dual(gm):
    dual = dual_space(gm, None)
    for kind, alpha in RANK_KINDS:
        found = min_dependent_support(gm, kind, alpha)
        if found is not None:
            weight, witness = found
            assert witness.dtype == np.int64 and witness.shape == (gm.s, gm.rows)
            assert witness.any() and witness.min() >= 0 and witness.max() < gm.base
            assert dual.contains(witness)
            assert vector_weight(digit_ints([witness], gm.base)[0], gm.base, kind, alpha) == weight


@given(nets(), st.integers(0, 2**32 - 1))
def test_batched_walsh_sums_are_the_character_property(gm, seed):
    ps = generate_net_points(gm)
    dual = dual_space(gm, 1 << 14)
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, gm.base, (16, gm.s, gm.rows))
    indices = np.concatenate([dual.element_digits(32), drawn])
    sums = char_property_sums(ps, indices)
    for k, value in zip(indices, sums):
        expected = 1.0 if dual.contains(k) else 0.0
        if gm.base == 2:
            assert value == expected
        else:
            assert abs(value - expected) <= 1e-12
        assert value == char_property_sums(ps, k[None])[0]


@given(nets(max_m=5), st.data())
def test_geometric_check_matches_loop_and_algebraic_t(gm, data):
    ps = generate_net_points(gm)
    t = compute_t_value(gm)
    for tt in range(gm.cols + 1):
        assert geometric_net_check(ps, tt) == geometric_loop_oracle(ps, tt) == (tt >= t)
    # one digit of one point changed: no digital net any more, so the loop oracle alone is the reference
    digits = ps.digit_array().copy()
    n, j, i = (data.draw(st.integers(0, size - 1)) for size in digits.shape)
    digits[n, j, i] = (digits[n, j, i] + data.draw(st.integers(1, gm.base - 1))) % gm.base
    changed = PointSet.from_digits(digits, gm.base)
    accepted = [tt for tt in range(gm.cols + 1) if geometric_loop_oracle(changed, tt)]
    assert [tt for tt in range(gm.cols + 1) if geometric_net_check(changed, tt)] == accepted
    assert geometric_t_value(changed) == accepted[0]


@given(nets())
def test_geometric_t_value_is_the_rank_t_value(gm):
    assert geometric_t_value(generate_net_points(gm)) == compute_t_value(gm)


@st.composite
def field_matrices(draw):
    """A random matrix over F_b, b in {2, 3, 5, 7, 13}, up to 8 x 8, often rank-deficient."""
    b = draw(st.sampled_from([2, 3, 5, 7, 13]))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return b, draw(arrays(np.int64, (rows, cols), elements=st.integers(0, b - 1)))


@given(field_matrices())
def test_kernel_basis_equals_the_echelon_basis(case):
    b, mat = case
    fast, slow = kernel_basis(mat, b), rref_kernel_basis(mat, b)
    assert [v.tolist() for v in fast] == [v.tolist() for v in slow]


@given(nets(), st.integers(0, 70))
def test_dual_elements_limit_is_a_prefix(gm, k):
    dual = dual_space(gm, 1 << 14)
    assert np.array_equal(dual.element_digits(k), dual.element_digits()[:k])


@st.composite
def net_prefixes(draw):
    """Random matrices over F_b and a point count up to b^cols and a few tables,
    so that most prefixes end inside a block."""
    b = draw(st.sampled_from([2, 3, 5, 13, 251]))
    cols = draw(st.integers(1, {2: 14, 3: 9, 5: 6, 13: 4, 251: 2}[b]))
    rows, s = draw(st.integers(cols, cols + 3)), draw(st.integers(1, 3))
    matrices = draw(arrays(np.int64, (s, rows, cols), elements=st.integers(0, b - 1)))
    return b, matrices, draw(st.integers(0, min(b**cols, 3 * _TABLE_ROWS)))


@given(net_prefixes())
def test_net_digit_recurrence_equals_matrix_product(case):
    b, matrices, count = case
    assert np.array_equal(_net_digits(count, b, matrices), net_digits_reference(count, b, matrices))


@st.composite
def digit_sets(draw, bases=(2, 3, 5, 7, 11, 13)):
    """A PointSet over a random (N, s, precision) digit array."""
    b = draw(st.sampled_from(bases))
    shape = (draw(st.integers(0, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    digits = draw(arrays(np.uint8, shape, elements=st.integers(0, b - 1)))
    return PointSet.from_digits(digits, b, draw(st.none() | st.just({"family": "random"})))


@st.composite
def interlacing_nets(draw):
    """Random base-2 generating matrices in alpha * s_out dimensions, and alpha."""
    alpha, s_out = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    m = draw(st.integers(1, 5))
    p = draw(st.integers(m, 6))
    s = alpha * s_out
    entries = draw(st.lists(st.integers(0, 1), min_size=s * p * m, max_size=s * p * m))
    arr = np.array(entries, dtype=np.int64).reshape(s, p, m)
    return GeneratingMatrixSet(2, arr), alpha


@given(interlacing_nets())
def test_interlacing_points_match_matrices(net):
    gm, alpha = net
    via_matrices = generate_net_points(interlace_matrices(gm, alpha))
    via_points = interlace_pointset(generate_net_points(gm), alpha)
    assert np.array_equal(via_matrices.digit_array(), via_points.digit_array())


@given(st.integers(1, 4), st.integers(1, 600))
def test_dp_sequence_equals_the_point_level_path(s, n_max):
    assert np.array_equal(dp_sequence(s, n_max).digit_array(), dp_sequence_reference(s, n_max))


@given(st.integers(1, 4), st.integers(1, 9))
def test_dp_finite_base_equals_the_point_level_path(s, m):
    assert np.array_equal(dp_finite_base(m, s).digit_array(), dp_finite_base_reference(m, s))


@given(digit_sets())
def test_point_file_round_trip_is_bit_exact(ps):
    text = dumps_point_file(ps)
    back = loads_point_file(text)
    assert back == ps
    assert dumps_point_file(back) == text


def line_parser(text):
    """The point-file line parser alone, without the canonical shortcut."""
    lines = text.splitlines()
    base, s, precision, count = _header(lines[0])
    digits, provenance = _parse_lines(lines, base, s, precision, count)
    return PointSet.from_digits(digits, base, provenance)


def outcome(load, text):
    try:
        return load(text)
    except ParameterError as exc:
        return str(exc)


@given(digit_sets(bases=(2, 3, 5, 7)))
def test_canonical_shortcut_equals_line_parser(ps):
    text = dumps_point_file(ps)
    first = text.split("\n", 1)[0]
    shortcut = _canonical_body(text.encode("ascii"), len(first), *_header(first))
    assert shortcut is not None
    assert PointSet.from_digits(shortcut[0], ps.base, shortcut[1]) == line_parser(text) == ps


def _crlf(text, pos):
    return text.replace("\n", "\r\n")


def _double_space(text, pos):
    spaces = [i for i, c in enumerate(text) if c == " "]
    i = spaces[pos % len(spaces)]
    return text[:i] + " " + text[i:]


def _comment(text, pos):
    ends = [i + 1 for i, c in enumerate(text) if c == "\n"]
    i = ends[pos % len(ends)]
    return text[:i] + "# a comment\n" + text[i:]


def _digit_at_least_base(text, pos):
    body = text.index("\n") + 1
    if text.startswith("#", body):
        body = text.index("\n", body) + 1
    digits = [i for i in range(body, len(text)) if text[i].isdigit()]
    if not digits:
        return text
    i = digits[pos % len(digits)]
    return text[:i] + text.split(" ", 1)[0] + text[i + 1 :]  # the base itself as a digit


def _joined_lines(text, pos):
    ends = [i for i, c in enumerate(text) if c == "\n"][1:-1]  # keep the header and the last
    if not ends:
        return text
    i = ends[pos % len(ends)]
    return text[:i] + " " + text[i + 1 :]


def _no_trailing_newline(text, pos):
    return text[:-1]


def _wrong_count(text, pos):
    header, rest = text.split("\n", 1)
    words = header.split(" ")
    words[-1] = str(int(words[-1]) + (1 if pos % 2 else -1))
    return " ".join(words) + "\n" + rest


def _non_ascii(text, pos):
    i = text.rindex("0") if "0" in text[text.index("\n") :] else len(text)
    return text[:i] + "\uff10" + text[i + 1 :]  # a fullwidth zero


PERTURBATIONS = [
    _crlf, _double_space, _comment, _digit_at_least_base, _joined_lines, _no_trailing_newline,
    _wrong_count, _non_ascii,
]


def non_ascii_refusal(text):
    """The refusal of a text with a non-ASCII character: the line and first UTF-8 byte of the first."""
    i = next(i for i, c in enumerate(text) if not c.isascii())
    return f"line {text.count(chr(10), 0, i) + 1}: byte {text[i].encode()[0]:#04x} is not ASCII"


@given(digit_sets(), st.sampled_from(PERTURBATIONS), st.integers(0, 10**6))
def test_perturbed_text_reads_like_the_line_parser(ps, perturb, pos):
    text = perturb(dumps_point_file(ps), pos)
    expected = outcome(line_parser, text) if text.isascii() else non_ascii_refusal(text)
    assert outcome(loads_point_file, text) == expected


@st.composite
def digit_fields(draw):
    """Coordinate fields of a point-file line and a header base: comma-separated
    numbers for bases above 10 (leading zeros, the base and its neighbours,
    numbers far above it, empty and signed tokens, non-decimal characters),
    characters for the others.  All ASCII: the line parser sees no other text."""
    base = draw(st.sampled_from([2, 7, 10, 11, 13, 251, 1000, 10**20 + 39]))
    odd = st.sampled_from(["", "+1", "-1", "1_0", "x", "1.0"])
    number = st.builds(lambda zeros, v: "0" * zeros + str(v), st.integers(0, 25),
                       st.sampled_from([0, 1, base - 1, base, base + 1]) | st.integers(0, 10**30))
    if base <= 10:
        field = st.text(alphabet="0123456789a", min_size=1, max_size=8)
    else:
        field = st.lists(number | odd, min_size=1, max_size=6).map(",".join).filter(len)
    return draw(st.lists(field, max_size=12)), base


@given(digit_fields())
def test_digit_values_equal_the_per_token_reading(case):
    fields, base = case
    values, counts = _digit_values(fields, base)
    reference, reference_counts = digit_values_reference(fields, base)
    assert np.array_equal(counts, reference_counts)
    assert len(values) == len(reference)
    codes = [-2 if v >= base else int(v) for v in reference.tolist()]
    if base < 10**18:  # values below the base are exact up to 10^18
        assert values.tolist() == codes
    else:
        assert [min(v, 0) for v in values.tolist()] == [min(v, 0) for v in codes]


@given(digit_sets(bases=(11, 13)), st.sampled_from(PERTURBATIONS), st.integers(0, 10**6))
def test_comma_files_read_like_the_per_token_reading(ps, perturb, pos):
    text = perturb(dumps_point_file(ps), pos)

    def per_token(fields, base):
        values, counts = digit_values_reference(fields, base)
        return np.where(values >= base, -2, values), counts

    with mock.patch("lowdisc.pointfile._digit_values", per_token):
        expected = outcome(loads_point_file, text)
    assert outcome(loads_point_file, text) == expected


@st.composite
def stratified_sets(draw):
    """b^m points whose first coordinate hits every m-digit prefix exactly once."""
    b, m = draw(st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (5, 2), (11, 1)]))
    count, s = b**m, draw(st.integers(1, 3))
    precision = m + draw(st.integers(0, 3) | st.integers(45, 50))  # below and above the 48 tail digits
    digits = draw(arrays(np.uint8, (count, s, precision), elements=st.integers(0, b - 1)))
    order = draw(st.permutations(range(count)))
    powers = b ** np.arange(m - 1, -1, -1)
    digits[:, 0, :m] = (np.array(order)[:, None] // powers) % b
    N = draw(st.integers(b ** (m - 1) + 1, count))
    return PointSet.from_digits(digits, b), N


def trim_oracle(ps, N):
    """The trim as a loop over exact rationals: x_1 * b^m / N truncated to the output precision."""
    b, m = ps.base, round(np.log(len(ps)) / np.log(ps.base))
    out_precision = max(ps.precision, 48)
    rows = []
    for n in range(len(ps)):
        first = ps.fractions(n)[0]
        if first < Fraction(N, b**m):
            scaled = first * Fraction(b**m, N)
            head = fraction_digits([scaled.numerator], scaled.denominator, b, out_precision)
            rest = np.pad(ps.digit_array()[n, 1:], ((0, 0), (0, out_precision - ps.precision)))
            rows.append(np.concatenate([head, rest]))
    return PointSet.from_digits(np.array(rows, dtype=np.uint8), b)


@given(stratified_sets())
def test_trim_keeps_n_points_inside_the_cube(case):
    ps, N = case
    trimmed = arbitrary_n_trim(ps, N)
    assert len(trimmed) == N
    assert all(0 <= trimmed.fractions(n)[0] < 1 for n in range(N))
    oracle = trim_oracle(ps, N)
    if N == len(ps):
        oracle = ps  # nothing is cut, so nothing is rescaled
    assert np.array_equal(trimmed.digit_array(), oracle.digit_array())


@st.composite
def l2_sets(draw, dims=(1, 2, 3), max_n=64):
    """Points over b in {2, 3, 5, 13} with duplicates, ties in one coordinate
    and an all-zero coordinate, each present or not; some precisions need
    more than one int64 chunk per coordinate."""
    b = draw(st.sampled_from([2, 3, 5, 13]))
    n, s = draw(st.integers(1, max_n)), draw(st.sampled_from(dims))
    p = draw(st.integers(1, 5) | st.sampled_from([20, 70]))  # 20 and 70 digits pass int64 for b >= 13 and b >= 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    digits = rng.integers(0, b, size=(n, s, p)).astype(np.uint8)
    copies = draw(st.integers(0, n // 2))
    digits[n - copies :] = digits[:copies]
    if draw(st.booleans()):
        j = draw(st.integers(0, s - 1))
        digits[:, j] = digits[np.arange(n) % draw(st.integers(1, 3)), j]
    if draw(st.booleans()):
        digits[:, draw(st.integers(0, s - 1))] = 0
    return PointSet.from_digits(digits, b)


@given(l2_sets())
def test_exact_l2_equals_rational_oracle(ps):
    rep = l2_exact(ps)
    assert rep.exact == l2_exact_rational(ps)
    assert rep.value == math.sqrt(float(rep.exact))
    assert l2_integer_reference(ps) == rep.exact


@given(l2_sets(dims=(1, 2, 3, 4, 5), max_n=400) | l2_sets(dims=(6, 7), max_n=80))
@example(tie_heavy(2**_DIRECT_LEVELS - 1, 4, 2, 12, np.random.default_rng(1)))  # N around the direct blocks of 2^T
@example(tie_heavy(2**_DIRECT_LEVELS, 4, 2, 70, np.random.default_rng(2)))
@example(tie_heavy(2**_DIRECT_LEVELS + 1, 4, 3, 6, np.random.default_rng(3)))
@example(tie_heavy(2 ** (_DIRECT_LEVELS + 1), 4, 2, 12, np.random.default_rng(4)))
@example(tie_heavy(2**_DIRECT_LEVELS - 1, 5, 3, 6, np.random.default_rng(5)))
@example(tie_heavy(2**_DIRECT_LEVELS, 5, 2, 12, np.random.default_rng(6)))
@example(tie_heavy(2**_DIRECT_LEVELS + 1, 5, 2, 70, np.random.default_rng(7)))
@example(tie_heavy(2 ** (_DIRECT_LEVELS + 1), 5, 13, 20, np.random.default_rng(8)))
def test_exact_l2_equals_integer_pair_sum(ps):
    assert l2_exact(ps).exact == l2_integer_reference(ps)


@given(l2_sets(dims=(2, 3), max_n=300))
@example(tie_heavy(300, 2, 2, 70, np.random.default_rng(1)))  # two limbs
@example(tie_heavy(257, 3, 13, 20, np.random.default_rng(2)))  # two limbs
def test_exact_sweeps_match_the_pair_sum_and_the_general_recursion(ps):
    """The s = 2 and s = 3 sweeps against the pairwise sum in integers, and the
    s = 3 limb sweep against the weighted sweep that serves s >= 4, run at s = 3."""
    n, big_p = len(ps), ps.base**ps.precision
    assert l2_exact(ps).exact == l2_integer_reference(ps)
    if ps.s == 3:
        co = _integer_coordinates(ps, _moduli_above(n * n * big_p**ps.s)[:, None])
        assert np.array_equal(_space_pairs(co), _weighted_pairs(co))


@given(l2_sets(dims=(4, 5), max_n=300))
def test_exact_l2_matches_float_reference_in_dimensions_4_and_5(ps):
    assert math.isclose(l2_exact(ps).value, l2_float_reference(ps), rel_tol=1e-12)


@st.composite
def count_inputs(draw):
    """Base-2 points and anchors for `_count_below` and `local_discrepancy`: N at
    the word and block edges or random, coordinates on a coarse grid (ties),
    duplicated points, an all-zero coordinate, anchors on point coordinates and
    anchors at 0 and 1."""
    s = draw(st.integers(1, 5))
    n = draw(st.sampled_from([1, 63, 64, 65, _LQ_BLOCK, _LQ_BLOCK + 1]) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = draw(st.sampled_from([1, 4, 30]))  # grids of 2, 16 or 2^30 levels
    v = rng.integers(0, 2**bits, size=(n, s))
    copies = draw(st.integers(0, n // 2))
    v[n - copies :] = v[:copies]
    if draw(st.booleans()):
        v[:, draw(st.integers(0, s - 1))] = 0
    ps = PointSet.from_digits(((v[:, :, None] >> np.arange(bits - 1, -1, -1)) & 1).astype(np.uint8), 2)
    x = ps.float_array()  # v / 2^bits, exactly
    on_points = x[rng.integers(0, n, size=16)]
    anchors = (
        rng.random((draw(st.integers(0, 32)), s)),
        on_points,
        np.where(rng.random((16, s)) < 0.5, on_points, rng.random((16, s))),
        rng.integers(0, 2, size=(8, s)).astype(np.float64),
        np.zeros((1, s)),
        np.ones((1, s)),
    )
    return ps, np.concatenate(anchors)


@given(count_inputs())
def test_count_below_equals_broadcast_reference(inputs):
    ps, t = inputs
    x = ps.float_array()
    counts = count_below_reference(x, t)
    assert np.array_equal(_count_below(x, t), counts)
    for anchor, count in zip(t, counts):
        assert local_discrepancy(ps, anchor) == count / len(ps) - float(np.prod(anchor))
