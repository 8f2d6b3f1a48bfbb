import numpy as np
import pytest

from lowdisc.constructions import (
    cs_matrices,
    dp_net_matrices,
    faure_matrices,
    niederreiter_t_bound,
)
from lowdisc.errors import CapacityError, ParameterError
from lowdisc.field import matrix_rank
from lowdisc.nets import (
    DualSpace,
    GeneratingMatrixSet,
    compute_t_value,
    dual_space,
    min_dependent_support,
)
from lowdisc.selftest import _random_full_rank_net
from lowdisc.weights import _weight_matrix, min_dual_weight, order_alpha_profile, t_alpha

from net_reference import digit_ints, index_digits
from weight_reference import vector_weight


def minimum(found):
    """The weight of a (weight, witness) search answer; None for no answer."""
    return None if found is None else found[0]


def ints(witness, b):
    """The integer vector (k_1, ..., k_s) of an (s, p) witness digit array."""
    return digit_ints([witness], b)[0]


def digit_positions(k, b):
    """Reference digit extraction used to cross-check the weights."""
    positions = []
    pos = 1
    while k:
        k, d = divmod(k, b)
        if d:
            positions.append(pos)
        pos += 1
    return sorted(positions, reverse=True)


def matrix_weights(vectors, b, kind, alpha=None, p=20):
    """The weights of integer vectors as `min_dual_weight` reads them: the
    vectors' lowest p digits (`index_digits`) weighed by `_weight_matrix`."""
    s = len(vectors[0])
    digits = index_digits([k for ks in vectors for k in ks], b, p).reshape(len(vectors), s, p)
    return _weight_matrix(digits, kind, alpha).sum(axis=1).tolist()


def weight(ks, b, kind, alpha=None):
    """The weight of one integer vector by the scalar reference, checked against `_weight_matrix`."""
    expected = vector_weight(ks, b, kind, alpha)
    assert matrix_weights([ks], b, kind, alpha) == [expected]
    return expected


# ---------------------------------------------------------
# Weights of integer vectors
# ---------------------------------------------------------

def test_nrt_examples():
    assert weight((0,), 2, "nrt") == 0
    assert weight((6,), 2, "nrt") == 3  # 110 in base 2
    for b in (2, 3, 5):
        assert weight((1,), b, "nrt") == 1


def test_hamming_examples():
    assert weight((0,), 5, "hamming") == 0
    assert weight((5,), 2, "hamming") == 2  # 101
    assert weight((50,), 5, "hamming") == 1  # 200 in base 5


def test_mu_examples():
    assert weight((6,), 2, "mu", 2) == 5  # positions 3 and 2
    assert weight((4,), 2, "mu", 3) == 3  # single digit, min(nu, alpha) = 1
    for b in (2, 5):
        ks = [(k,) for k in range(1024)]
        nrt = matrix_weights(ks, b, "nrt")
        assert matrix_weights(ks, b, "mu", 1) == nrt
        assert [vector_weight(k, b, "mu", 1) for k in ks] == nrt


def test_vector_weight_examples():
    assert weight((0, 0, 0), 2, "nrt") == 0
    assert weight((5, 5), 2, "hamming") == 4
    assert weight((6, 1), 2, "mu", 2) == 6
    digits = index_digits([1], 2, 4).reshape(1, 1, 4)
    for alpha in (None, 0):
        with pytest.raises(ParameterError, match="kind 'mu' needs alpha >= 1"):
            _weight_matrix(digits, "mu", alpha)
    with pytest.raises(ParameterError, match="kind 'mu' needs alpha >= 1"):
        min_dual_weight(dual_space(cs_matrices(5, 2, 2, 2), 1000), "mu", alpha=0)
    with pytest.raises(ParameterError, match="unknown weight kind 'nope'"):
        _weight_matrix(digits, "nope", None)


def test_weight_orderings():
    """mu is monotone in alpha and pinched between hamming/nrt multiples."""
    for b in (2, 5):
        mu3 = matrix_weights([(k,) for k in range(1 << 16)], b, "mu", 3)
        for k in range(1 << 16):
            positions = digit_positions(k, b)
            mus = [sum(positions[:a]) for a in range(1, 7)]
            for a in range(5):
                assert mus[a] <= mus[a + 1]
            assert mu3[k] == mus[2]
            kappa = len(positions)
            mu1 = positions[0] if positions else 0
            if k:
                assert kappa <= mu1 <= mus[4] <= 5 * mu1
            else:
                assert kappa == 0 and mu1 == 0


def test_digitwise_difference_triggers_hamming_floor():
    """Digit vectors differing in >= 3 places give digitwise-difference
    Hamming weight >= 3 (the quasi-orthogonality trigger)."""
    rng = np.random.default_rng(9)
    for b in (2, 5):
        for _ in range(200):
            kd = rng.integers(0, b, size=8)
            ld = rng.integers(0, b, size=8)
            differing = int(np.count_nonzero(kd != ld))
            diff = (kd - ld) % b
            weight = int(np.count_nonzero(diff))
            assert weight == differing
            if differing >= 3:
                assert weight >= 3


# ---------------------------------------------------------
# Dual-space minima
# ---------------------------------------------------------

def test_min_dual_weight_infinite_profile():
    gm = GeneratingMatrixSet(2, np.eye(3, dtype=np.int64)[None])
    assert min_dual_weight(dual_space(gm, 100), "nrt") is None


def test_min_dual_mu1_identity_assorted():
    for gm in (faure_matrices(5, 2, 2), cs_matrices(5, 2, 2, 2), dp_net_matrices(2, 3, 1)):
        t = compute_t_value(gm)
        assert minimum(min_dual_weight(dual_space(gm, 1 << 16), "nrt")) == gm.cols - t + 1


def test_min_dual_hamming_cs():
    weight = minimum(min_dual_weight(dual_space(cs_matrices(5, 2, 2, 2), 1000), "hamming"))
    assert weight is not None and weight >= 3  # alpha + 1


def test_min_dual_weight_witness_attains_minimum():
    gm = cs_matrices(5, 2, 2, 2)
    dual = dual_space(gm, 1000)
    for kind, alpha in (("nrt", None), ("hamming", None), ("mu", 2)):
        weight, witness = min_dual_weight(dual, kind, alpha=alpha)
        assert dual.contains(witness)
        assert vector_weight(ints(witness, gm.base), gm.base, kind, alpha) == weight
        # brute force over the enumerated dual agrees
        best = min(
            vector_weight(k, gm.base, kind, alpha)
            for k in digit_ints(dual.element_digits(), gm.base)
            if any(k)
        )
        assert best == weight


# ---------------------------------------------------------
# Minima by rank over supports
# ---------------------------------------------------------

# the nets of acceptance criteria 02 and 03
CRITERION_NETS = [
    cs_matrices(5, 2, 1, 2),
    cs_matrices(5, 2, 2, 2),
    cs_matrices(11, 2, 1, 2),
    cs_matrices(11, 2, 1, 3),
    faure_matrices(5, 2, 2),
    faure_matrices(3, 2, 2),
    faure_matrices(7, 1, 3),
    dp_net_matrices(2, 2, 1),
    dp_net_matrices(2, 3, 1),
    dp_net_matrices(3, 2, 2),
    dp_net_matrices(2, 3, 2),
    _random_full_rank_net(2, 4, 2, seed=11),
    _random_full_rank_net(5, 2, 2, seed=12),
    _random_full_rank_net(3, 3, 2, seed=13),
]


@pytest.mark.parametrize("gm", CRITERION_NETS)
def test_rank_engine_matches_enumeration_on_criterion_nets(gm):
    dual = dual_space(gm, 1 << 22)
    for kind, alpha in (("nrt", None), ("hamming", None), ("mu", 2), ("mu", 3)):
        weight, witness = min_dependent_support(gm, kind, alpha)
        assert weight == minimum(min_dual_weight(dual, kind, alpha=alpha))
        assert dual.contains(witness)
        assert vector_weight(ints(witness, gm.base), gm.base, kind, alpha) == weight


# the interlaced nets of acceptance criterion 04
@pytest.mark.parametrize("alpha, s, m", [(a, s, m) for a in (2, 3) for s in (1, 2) for m in (1, 2, 3, 4)])
def test_order_alpha_profile_matches_enumeration_on_criterion_nets(alpha, s, m):
    gm = dp_net_matrices(alpha, m, s)
    t_base = niederreiter_t_bound(alpha * s)
    floor = alpha * m - t_alpha(alpha, t_base, s)
    exact = minimum(min_dual_weight(dual_space(gm, 1 << 21), "mu", alpha=alpha))
    assert minimum(min_dependent_support(gm, "mu", alpha)) == exact
    assert (order_alpha_profile(gm, alpha, t_base) is None) == (exact is None or exact >= floor)


def _dual_dimension(alpha, s, m):
    gm = dp_net_matrices(alpha, m, s)
    return gm.s * gm.rows - matrix_rank(gm.array.reshape(gm.s * gm.rows, gm.cols), gm.base)


# every dp-net with alpha in {2, 3}, s in {1, 2} and m <= 8 whose dual has at most 2^18 elements
ORDER_NETS = [(a, s, m) for a in (2, 3) for s in (1, 2) for m in range(1, 9) if _dual_dimension(a, s, m) <= 18]


@pytest.mark.parametrize("alpha, s, m", ORDER_NETS)
def test_order_engine_matches_enumeration_through_m8(alpha, s, m):
    gm = dp_net_matrices(alpha, m, s)
    t_base = niederreiter_t_bound(alpha * s)
    floor = alpha * m - t_alpha(alpha, t_base, s)
    dual = dual_space(gm, 1 << 18)
    exact = minimum(min_dual_weight(dual, "mu", alpha=alpha))
    assert minimum(min_dependent_support(gm, "mu", alpha)) == exact
    found = order_alpha_profile(gm, alpha, t_base)
    if exact is None or exact >= floor:
        assert found is None
    else:
        weight, witness = found
        assert weight == exact and dual.contains(witness)
        assert vector_weight(ints(witness, gm.base), gm.base, "mu", alpha) == exact


def test_rank_engine_infinite_profile():
    gm = GeneratingMatrixSet(2, np.eye(3, dtype=np.int64)[None])
    assert DualSpace(gm, None).size == 1
    for kind, alpha in (("nrt", None), ("hamming", None), ("mu", 2)):
        assert min_dependent_support(gm, kind, alpha) is None


def test_rank_engine_beyond_enumeration():
    """An 11^12-element dual: mu1 = m - t + 1 with a witness in the dual."""
    gm = faure_matrices(11, 3, 5)
    weight, witness = min_dependent_support(gm, "nrt")
    assert DualSpace(gm, None).size == 11**12
    assert weight == gm.cols - compute_t_value(gm) + 1 == 4
    assert vector_weight(ints(witness, 11), 11, "nrt") == 4
    assert witness.dtype == np.int64 and witness.shape == (gm.s, gm.rows)
    stacked = np.hstack([mat.T for mat in gm.array])
    assert not np.any((stacked @ witness.ravel()) % 11)


def test_rank_engine_cap_counts_candidate_supports():
    gm = cs_matrices(5, 2, 2, 2)
    # nrt: compositions of weight 1..4 into two prefixes of at most 4 rows
    with pytest.raises(CapacityError, match="14 candidate supports"):
        min_dependent_support(gm, "nrt", cap=13)
    assert minimum(min_dependent_support(gm, "nrt", cap=14)) == 5
    with pytest.raises(CapacityError):
        min_dependent_support(gm, "hamming", cap=10)


def test_rank_engine_rejects_bad_kind():
    gm = cs_matrices(5, 2, 1, 2)
    with pytest.raises(ParameterError, match="kind 'mu' needs alpha >= 1"):
        min_dependent_support(gm, "mu")
    with pytest.raises(ParameterError, match="kind 'mu' needs alpha >= 1"):
        min_dependent_support(gm, "mu", alpha=0)
    with pytest.raises(ParameterError, match="unknown weight kind 'nope'"):
        min_dependent_support(gm, "nope")


# ---------------------------------------------------------
# Higher-order condition
# ---------------------------------------------------------

def test_t_alpha_values():
    assert t_alpha(1, 7, 3) == 7
    assert t_alpha(3, 0, 1) == 3
    assert t_alpha(5, 2, 2) == 30  # 10 + 2*10


def test_order_alpha_profile_witness_is_below_the_floor():
    """The interlaced net meets the condition; reversing the rows of its matrix
    breaks it (counterexample found at alpha=2, m=3 by direct search)."""
    gm = dp_net_matrices(2, 3, 1)
    scrambled = GeneratingMatrixSet(gm.base, gm.array[:, ::-1])
    floor = 2 * gm.cols - t_alpha(2, niederreiter_t_bound(2), 1)
    weight, witness = order_alpha_profile(scrambled, 2, niederreiter_t_bound(2))
    assert weight < floor
    assert dual_space(scrambled, 1 << 10).contains(witness)
    assert vector_weight(ints(witness, 2), 2, "mu", 2) == weight
    assert order_alpha_profile(gm, 2, niederreiter_t_bound(2)) is None
