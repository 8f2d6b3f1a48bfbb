import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from lowdisc.constructions import (
    arbitrary_n_trim,
    cs_matrices,
    davenport_symmetrized,
    default_betas,
    dp_finite_base,
    dp_finite_pointset,
    dp_net,
    dp_sequence,
    faure_matrices,
    interlace_matrices,
    interlace_pointset,
    niederreiter_net_matrices,
    niederreiter_t_bound,
    van_der_corput,
    van_der_corput_matrices,
)
from lowdisc.errors import CapacityError, ParameterError
from lowdisc.field import binomial_mod_p
from lowdisc.nets import PointSet, compute_t_value, generate_net_points

# ---------------------------------------------------------
# Chen-Skriganov / Faure matrices
# ---------------------------------------------------------

WORKED_C1 = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1], [0, 1, 2, 3]]
WORKED_C2 = [[1, 2, 4, 3], [0, 1, 4, 2], [1, 3, 4, 2], [0, 1, 1, 2]]


def test_cs_worked_example_bit_for_bit():
    gm = cs_matrices(5, 2, 2, 2, betas=((0, 1), (2, 3)))
    assert gm.array[0].tolist() == WORKED_C1
    assert gm.array[1].tolist() == WORKED_C2


def test_cs_default_betas_reproduce_worked_example():
    # row-major defaults are 0,1,2,3: the worked example's choice
    assert cs_matrices(5, 2, 2, 2).array[0].tolist() == WORKED_C1


def test_faure_rows_follow_binomial_formula():
    b, m, s = 5, 3, 2
    gm = faure_matrices(b, m, s)
    for i in range(s):
        beta = i  # default betas for alpha=1 are 0, 1, ..., s-1
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                if k < j:
                    expect = 0
                elif k == j:
                    expect = 1
                else:
                    expect = binomial_mod_p(k - 1, j - 1, b) * beta ** (k - j) % b
                assert gm.array[i, j - 1, k - 1] == expect


def cs_entries_reference(b, alpha, m, s, betas):
    """Chen-Skriganov matrices entry by entry: row (l-1)*m + j of matrix i holds
    C(k-1, j-1) * beta_{i,l}^(k-j) mod b in column k >= j, 1 on the diagonal."""
    n = alpha * m
    arr = np.zeros((s, n, n), dtype=np.int64)
    for i in range(s):
        for l in range(1, alpha + 1):
            beta = betas[i][l - 1]
            for j in range(1, m + 1):
                row = (l - 1) * m + j - 1
                for k in range(j, n + 1):
                    if k == j:
                        arr[i, row, k - 1] = 1  # C(j-1, j-1) * beta^0, with 0^0 = 1
                    else:
                        arr[i, row, k - 1] = math.comb(k - 1, j - 1) * beta ** (k - j) % b
    return arr


def test_cs_matrices_follow_the_entry_formula():
    rng = np.random.default_rng(3)
    for b in (2, 3, 5, 7, 11, 13):
        for alpha in (1, 2, 3):
            for m in (1, 2, 3):
                for s in range(1, b // alpha + 1):  # every s with alpha*s <= b
                    shuffled = rng.permutation(b)[: alpha * s].reshape(s, alpha).tolist()
                    for betas in (default_betas(alpha, s), shuffled):
                        gm = cs_matrices(b, alpha, m, s, betas=betas)
                        assert np.array_equal(gm.array, cs_entries_reference(b, alpha, m, s, betas))


def test_cs_beta_zero_rows_are_shifted_diagonal():
    # beta = 0 with 0^0 = 1 leaves exactly one unit entry per row
    gm = cs_matrices(5, 2, 2, 2, betas=((0, 1), (2, 3)))
    assert gm.array[0, 0].tolist() == [1, 0, 0, 0]
    assert gm.array[0, 1].tolist() == [0, 1, 0, 0]


def test_cs_parameter_errors():
    with pytest.raises(ParameterError):
        cs_matrices(3, 2, 2, 2)  # b < alpha*s
    with pytest.raises(ParameterError):
        cs_matrices(5, 2, 2, 2, betas=((0, 1), (1, 3)))  # repeated beta
    with pytest.raises(ParameterError):
        cs_matrices(4, 1, 2, 2)  # composite base


def test_cs_nets_have_t_zero():
    for b, alpha, m, s in ((5, 2, 1, 2), (5, 2, 2, 2), (7, 2, 1, 3), (5, 1, 3, 2)):
        assert compute_t_value(cs_matrices(b, alpha, m, s)) == 0


# ---------------------------------------------------------
# Niederreiter matrices
# ---------------------------------------------------------

@pytest.mark.parametrize("m", [0, -1])
def test_matrix_families_need_one_digit(m):
    with pytest.raises(ParameterError, match="need m >= 1"):
        van_der_corput_matrices(2, m)
    with pytest.raises(ParameterError, match="need m >= 1"):
        niederreiter_net_matrices(2, m)


def test_niederreiter_first_dimension_is_identity():
    assert np.array_equal(niederreiter_net_matrices(1, 6).array[0], np.eye(6, dtype=np.uint8))


def test_niederreiter_second_dimension_first_row_all_ones():
    # 1/(1+x) = x^-1 + x^-2 + ... over F_2
    assert niederreiter_net_matrices(2, 8).array[1, :1].tolist() == [[1] * 8]


def test_niederreiter_upper_triangular():
    arr = niederreiter_net_matrices(4, 7).array
    for j in range(1, 5):
        mat = arr[j - 1]
        for k in range(1, 8):
            assert mat[k - 1, k - 1] == 1
            for ell in range(1, k):
                assert mat[k - 1, ell - 1] == 0


def test_niederreiter_t_bound_values():
    assert niederreiter_t_bound(1) == 0
    assert niederreiter_t_bound(2) == 0  # degrees 1, 1
    assert niederreiter_t_bound(5) == 5  # degrees 1,1,2,3,3


def test_niederreiter_truncations_meet_t_bound():
    for s in (2, 4, 6):
        bound = niederreiter_t_bound(s)
        for m in (4, 8):
            gm = niederreiter_net_matrices(s, m)
            assert compute_t_value(gm) <= min(bound, m)


# ---------------------------------------------------------
# Interlacing
# ---------------------------------------------------------

def test_interlace_pointset_examples():
    # one point per row: (1/2, 1/4) and the origin, two digits per coordinate
    ps = PointSet.from_digits(np.array([[[1, 0], [0, 1]], [[0, 0], [0, 0]]], dtype=np.uint8), 2)
    pair = interlace_pointset(ps, 2)
    assert pair.digit_array().tolist() == [[[1, 0, 0, 1]], [[0, 0, 0, 0]]]
    assert [pair.fractions(n) for n in range(2)] == [(Fraction(9, 16),), (Fraction(0),)]
    single = interlace_pointset(ps, 1)  # alpha = 1 changes nothing
    assert single.fractions(0) == (Fraction(1, 2), Fraction(1, 4))
    base3 = PointSet.from_digits(np.ones((1, 2, 1), dtype=np.uint8), 3)
    with pytest.raises(ParameterError):
        interlace_pointset(base3, 2)


def test_interlace_matrices_examples():
    gm = niederreiter_net_matrices(2, 3)
    assert interlace_matrices(gm, 1) == gm
    from lowdisc.nets import GeneratingMatrixSet

    ones = GeneratingMatrixSet(2, np.ones((2, 1, 1), dtype=np.int64))
    e1 = interlace_matrices(ones, 2)
    assert e1.array[0].tolist() == [[1], [1]]
    with pytest.raises(ParameterError):
        interlace_matrices(gm, 3)  # 2 dims not divisible by 3


def test_interlacing_paths_agree_small():
    base = niederreiter_net_matrices(4, 3)
    via_matrices = generate_net_points(interlace_matrices(base, 2))
    via_points = interlace_pointset(generate_net_points(base), 2)
    assert np.array_equal(via_matrices.digit_array(), via_points.digit_array())


# ---------------------------------------------------------
# Interlaced constructions
# ---------------------------------------------------------

def test_dp_net_alpha1_is_van_der_corput():
    assert np.array_equal(dp_net(1, 2, 1).digit_array(), van_der_corput(2, 2).digit_array())


def test_dp_net_two_points():
    ps = dp_net(2, 1, 1)
    assert [ps.fractions(n)[0] for n in range(2)] == [Fraction(0), Fraction(3, 4)]


def test_dp_net_count():
    for alpha, m, s in ((2, 3, 1), (3, 2, 2)):
        assert len(dp_net(alpha, m, s)) == 2**m


def test_dp_finite_base_hand_values():
    """m=2, s=1 worked out digit by digit from the interlacing definition."""
    base = dp_finite_base(2, 1)
    assert [base.fractions(n)[0] for n in range(4)] == [
        Fraction(0),
        Fraction(7, 16),
        Fraction(43, 64),
        Fraction(55, 64),
    ]


def test_dp_finite_three_points():
    ps = dp_finite_pointset(3, 1)
    assert len(ps) == 3
    expect = [Fraction(0), Fraction(7, 12), Fraction(43, 48)]
    for n, want in enumerate(expect):
        assert abs(ps.fractions(n)[0] - want) <= Fraction(1, 2**47)


def test_dp_finite_power_of_two_is_untrimmed():
    ps = dp_finite_pointset(4, 1)
    base = dp_finite_base(2, 1)
    assert [ps.fractions(n) for n in range(4)] == [base.fractions(n) for n in range(4)]


def test_dp_finite_counts():
    for n, s in ((2, 1), (5, 2), (13, 2), (100, 1)):
        ps = dp_finite_pointset(n, s)
        assert len(ps) == n and ps.s == s
    with pytest.raises(ParameterError):
        dp_finite_pointset(1, 1)


def test_dp_sequence_prefix_consistency():
    long = dp_sequence(1, 16)
    short = dp_sequence(1, 8)
    for n in range(8):
        assert long.fractions(n) == short.fractions(n)


def test_dp_sequence_first_points():
    ps = dp_sequence(1, 2)
    assert ps.fractions(0)[0] == 0
    # five leading-column digits are all 1; interlaced value 0.11111 in base 2
    assert ps.fractions(1)[0] == Fraction(31, 32)


@pytest.mark.parametrize("build, shape, digest", [
    (lambda: dp_sequence(2, 3000), (3000, 2, 60),
     "0f19ad21a6333707d3798c5d3eb1efeaa62d2d58acc4dd50c1f835ddfed9c8fd"),
    (lambda: dp_finite_pointset(1000, 3), (1000, 3, 48),
     "62fd74cc9e4a5945d9c3c60055a151790eff9fbf1f896733378dce84f6571737"),
    (lambda: dp_finite_pointset(2000, 3), (2000, 3, 48),
     "182acc4a9d6fd1a6e22d2bf0342da5a873cf19b05fa4e70687397f8b2bf3b08e"),
], ids=["dp_sequence-2-3000", "dp_finite_pointset-1000-3", "dp_finite_pointset-2000-3"])
def test_interlaced_sequence_digits_are_pinned(build, shape, digest):
    """The digit arrays' sha256, pinned: a change of construction path keeps every digit."""
    digits = build().digit_array()
    assert digits.shape == shape
    assert hashlib.sha256(digits.tobytes()).hexdigest() == digest


# ---------------------------------------------------------
# Trim and Davenport
# ---------------------------------------------------------

def test_trim_identity_when_n_is_full():
    vdc = van_der_corput(2, 2)
    trimmed = arbitrary_n_trim(vdc, 4)
    assert [trimmed.fractions(n) for n in range(4)] == [vdc.fractions(n) for n in range(4)]


def test_trim_van_der_corput_to_three():
    trimmed = arbitrary_n_trim(van_der_corput(2, 2), 3)
    assert len(trimmed) == 3
    expect = [Fraction(0), Fraction(2, 3), Fraction(1, 3)]
    for n, want in enumerate(expect):
        assert abs(trimmed.fractions(n)[0] - want) <= Fraction(1, 2**47)


def test_trim_size_and_range_checks():
    vdc = van_der_corput(2, 3)
    for n in range(5, 9):
        assert len(arbitrary_n_trim(vdc, n)) == n
    with pytest.raises(ParameterError):
        arbitrary_n_trim(vdc, 4)  # not in (b^(m-1), b^m]
    with pytest.raises(ParameterError):
        arbitrary_n_trim(vdc, 9)


def test_trim_requires_stratified_first_coordinate():
    ps = PointSet.from_digits(np.zeros((4, 1, 2), dtype=np.uint8), 2)  # every point at the origin
    with pytest.raises(ParameterError):
        arbitrary_n_trim(ps, 3)


def test_davenport_count_and_wrap():
    ps = davenport_symmetrized(1)
    assert len(ps) == 2
    assert all(ps.fractions(n)[1] == 0 for n in range(2))  # n/M wraps at n = M
    assert len(davenport_symmetrized(7)) == 14


def test_davenport_symmetry():
    ps = davenport_symmetrized(16)
    tol = Fraction(2, 2**48)
    values = [ps.fractions(n) for n in range(len(ps))]
    for x, y in values:
        if x == 0:
            continue
        partners = [abs((1 - x) - x2) <= tol for x2, y2 in values if y2 == y]
        assert any(partners)


# The convergent p/q that stands for the golden ratio [1; 1, 1, ...]: the first
# with q > M^2.
DAVENPORT_CONVERGENTS = {1: Fraction(3, 2), 4: Fraction(34, 21), 50: Fraction(4181, 2584)}


def davenport_reference(M, alpha, precision=48):
    """The 2M points ({n alpha}, n/M mod 1), ({-n alpha}, n/M mod 1), n = 1..M,
    truncated to `precision` binary digits."""

    def digits(x):
        top = math.floor(x * 2**precision)
        return [(top >> (precision - 1 - i)) & 1 for i in range(precision)]

    rows = [
        [digits(sign * n * alpha % 1), digits(Fraction(n % M, M))]
        for n in range(1, M + 1)
        for sign in (1, -1)
    ]
    return np.array(rows, dtype=np.uint8)


@pytest.mark.parametrize("M, alpha", DAVENPORT_CONVERGENTS.items())
def test_davenport_uses_the_expected_convergent(M, alpha):
    assert np.array_equal(davenport_symmetrized(M).digit_array(), davenport_reference(M, alpha))


def test_davenport_refuses_oversized_request_up_front():
    with pytest.raises(CapacityError, match="digit limit"):
        davenport_symmetrized(1 << 40)


def test_interlace_pointset_needs_base_two():
    with pytest.raises(ParameterError):
        interlace_pointset(van_der_corput(3, 2), 1)
