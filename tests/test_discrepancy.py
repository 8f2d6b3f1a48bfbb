import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lowdisc import discrepancy
from lowdisc.constructions import (
    arbitrary_n_trim,
    davenport_symmetrized,
    dp_finite_pointset,
    dp_net,
    dp_sequence,
    faure_matrices,
    van_der_corput,
)
from lowdisc.discrepancy import (
    l2_exact,
    l2_exact_rational,
    trim_inequality_check,
    local_discrepancy,
    lq_estimate,
    profile_grid,
    roth_constant,
    roth_lower_bound,
    sequence_profile,
    sum_of_digits,
)
from lowdisc.errors import CapacityError, ParameterError
from lowdisc.nets import PointSet, fraction_digits, generate_net_points
from lowdisc.selftest import _oracle_pointsets

from count_reference import count_below_reference
from l2_reference import l2_float_reference, l2_integer_reference, tie_heavy


def single_point(*fracs, precision=8):
    return pointset([fracs], precision=precision)


def pointset(rows, precision=8):
    """Base-2 points from rational coordinates in [0, 1), truncated to `precision` digits."""
    fracs = [[Fraction(f) for f in row] for row in rows]
    digits = [[fraction_digits([f.numerator], f.denominator, 2, precision)[0] for f in row] for row in fracs]
    return PointSet.from_digits(np.array(digits, dtype=np.uint8), 2)


ORIGIN_1D = pointset([[0]], precision=1)
TWO_1D = pointset([[0], [Fraction(1, 2)]], precision=1)


# ---------------------------------------------------------
# Local discrepancy
# ---------------------------------------------------------

def test_local_discrepancy_examples():
    assert local_discrepancy(ORIGIN_1D, (1.0,)) == 0.0
    assert local_discrepancy(ORIGIN_1D, (0.5,)) == 0.5
    two_d = pointset([[0, 0]], precision=1)
    assert local_discrepancy(two_d, (0.0, 0.7)) == 0.0  # empty box


def test_local_discrepancy_counts_strictly_below():
    ps = pointset([[Fraction(1, 2)]], precision=4)
    assert local_discrepancy(ps, (0.5,)) == -0.5  # boundary point excluded


# ---------------------------------------------------------
# Exact L2: closed forms and the rational oracle
# ---------------------------------------------------------

def test_l2_rational_closed_forms():
    assert l2_exact_rational(ORIGIN_1D) == Fraction(1, 3)
    assert l2_exact_rational(TWO_1D) == Fraction(1, 12)
    origin_2d = pointset([[0, 0]], precision=1)
    # 1 - 2*(1/2)^2 + 1/9, worked out by integrating (A - t1 t2)^2 by hand
    assert l2_exact_rational(origin_2d) == Fraction(11, 18)


def test_l2_float_matches_closed_forms():
    assert abs(l2_exact(ORIGIN_1D).value - math.sqrt(1 / 3)) < 1e-15
    assert abs(l2_exact(TWO_1D).value - math.sqrt(1 / 12)) < 1e-15


def test_l2_rational_capacity():
    big = van_der_corput(2, 7)
    with pytest.raises(CapacityError):
        l2_exact_rational(big)


def piecewise_l2_squared(ps):
    """Independent s=1 oracle: integrate the local discrepancy piecewise.

    On each interval between consecutive knots the counting term is
    constant, recovered through local_discrepancy at the midpoint, so the
    integral of (c - t)^2 has an exact antiderivative.
    """
    n = len(ps)
    values = sorted(ps.fractions(i)[0] for i in range(n))
    knots = [Fraction(0)] + values + [Fraction(1)]
    total = Fraction(0)
    for a, b in zip(knots, knots[1:]):
        if a == b:
            continue
        mid = (a + b) / 2
        c = Fraction(round((local_discrepancy(ps, (float(mid),)) + float(mid)) * n), n)
        total += ((c - a) ** 3 - (c - b) ** 3) / 3
    return total


def test_pairwise_formula_agrees_with_piecewise_integration():
    cases = [
        ORIGIN_1D,
        TWO_1D,
        van_der_corput(2, 2),
        van_der_corput(2, 4),
        van_der_corput(3, 2),
        dp_sequence(1, 11),
    ]
    rng = np.random.default_rng(21)
    for _ in range(5):
        rows = [[Fraction(int(v), 256)] for v in rng.integers(0, 256, size=10)]
        cases.append(pointset(rows, precision=8))
    for ps in cases:
        assert l2_exact_rational(ps) == piecewise_l2_squared(ps)


def test_l2_float_vs_rational_random_sets():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(1, 65))
        s = int(rng.integers(1, 4))
        rows = [[Fraction(int(v), 1024) for v in rng.integers(0, 1024, size=s)] for _ in range(n)]
        ps = pointset(rows, precision=10)
        exact = math.sqrt(l2_exact_rational(ps))
        assert abs(l2_exact(ps).value - exact) <= 1e-12


def test_l2_symmetry_under_permutations():
    ps = generate_net_points(faure_matrices(5, 2, 2))
    value = l2_exact(ps).value
    rng = np.random.default_rng(4)
    order = rng.permutation(len(ps))
    shuffled = PointSet.from_digits(ps.digit_array()[order], ps.base)
    swapped = PointSet.from_digits(ps.digit_array()[:, ::-1], ps.base)
    assert abs(l2_exact(shuffled).value - value) <= 1e-12
    assert abs(l2_exact(swapped).value - value) <= 1e-12


def test_l2_deterministic_and_thread_invariant():
    ps = dp_net(2, 6, 2)
    first = l2_exact(ps)
    assert l2_exact(ps) == first
    order = np.random.default_rng(5).permutation(len(ps))
    permuted = l2_exact(PointSet.from_digits(ps.digit_array()[order], ps.base))
    assert permuted.exact == first.exact and permuted.value == first.value


def test_criterion_05_sets_are_pinned():
    """Base, shape and digits of every criterion-05 set, hashed: the data the
    criterion checks must not change when the code that builds the sets does."""
    digest = hashlib.sha256()
    for ps in _oracle_pointsets():
        digits = ps.digit_array()
        digest.update(f"{ps.base} {digits.shape}".encode())
        digest.update(digits.tobytes())
    assert digest.hexdigest() == "67fa51c55518a1c2747a916b00b1d1e7c83ed259f570be622450638e59d6b2d4"


def test_l2_exact_equals_rational_oracle_on_criterion_05_sets():
    for ps in _oracle_pointsets():
        rep = l2_exact(ps)
        assert rep.exact == l2_exact_rational(ps)
        assert rep.value == math.sqrt(float(rep.exact))


@pytest.mark.parametrize(
    "make",
    [lambda: dp_net(3, 12, 2), lambda: davenport_symmetrized(1500), lambda: dp_finite_pointset(2000, 3)],
    ids=["dp_net-3-12-2", "davenport-1500", "dp_finite-s3-2000"],
)
def test_l2_exact_matches_float_reference_at_large_n(make):
    ps = make()
    rep = l2_exact(ps)
    assert rep.value == math.sqrt(float(rep.exact))
    assert math.isclose(rep.value, l2_float_reference(ps), rel_tol=1e-8)


def test_l2_exact_refuses_a_working_set_above_the_limit_before_allocating(monkeypatch):
    ps = dp_net(3, 10, 2)
    need = discrepancy._l2_work_bytes(len(ps), ps.s, ps.base, ps.precision)
    monkeypatch.setattr(discrepancy, "MAX_L2_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"needs about {need} bytes of working memory"):
            l2_exact(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096  # the estimate and the message, no array of N items
    monkeypatch.setattr(discrepancy, "MAX_L2_BYTES", need)
    assert l2_exact(ps).exact == l2_exact(dp_net(3, 10, 2)).exact


def test_l2_exact_preflight_admits_the_m20_net():
    """dp-net alpha 3, s 2, m 20: 2^20 points of 60 digits, two limbs, within the limit."""
    assert discrepancy._l2_work_bytes(2**20, 2, 2, 60) <= discrepancy.MAX_L2_BYTES


def test_l2_exact_preflight_admits_s3_60_digits_at_2_20():
    """2^20 points of 60 base-2 digits in dimension 3: the s = 3 sweep keeps no weight rows."""
    assert discrepancy._l2_work_bytes(2**20, 3, 2, 60) <= discrepancy.MAX_L2_BYTES


def _tie_heavy_sets():
    """s = 1..5 tie-heavy sets in bases 2 and 3; 70 base-2 digits take two limbs."""
    rng = np.random.default_rng(5)
    for s in range(1, 6):
        for n, b, p in ((1, 2, 3), (2, 3, 4), (300, 2, 70), (257, 3, 6), (300, 2, 12)):
            yield tie_heavy(n, s, b, p, rng)


@pytest.mark.parametrize(
    "make",
    [
        lambda: [dp_net(3, 14, 2)],
        lambda: [dp_finite_pointset(2000, 3)],
        lambda: list(_tie_heavy_sets()),
        lambda: [tie_heavy(4096, 3, 2, 70, np.random.default_rng(5))],
        lambda: [tie_heavy(4096, 4, 2, 70, np.random.default_rng(5))],
        lambda: [tie_heavy(4096, 5, 3, 12, np.random.default_rng(5))],
    ],
    ids=["dp_net-3-14-2", "dp_finite-s3-2000", "tie-heavy-s1-5", "tie-heavy-s3-k2", "tie-heavy-s4-k2", "tie-heavy-s5-b3"],
)
def test_l2_exact_peak_stays_within_its_preflight_estimate(make):
    """The estimate bounds the tracemalloc peak, ties, two limbs and s = 4, 5 included."""
    for ps in make():
        tracemalloc.start()
        try:
            l2_exact(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= discrepancy._l2_work_bytes(len(ps), ps.s, ps.base, ps.precision)


def test_l2_exact_is_exact_under_a_tiny_work_budget(monkeypatch):
    """A budget of a few KB puts many batch and chunk edges inside every sum."""
    monkeypatch.setattr(discrepancy, "_WORK_BYTES", 4096)
    sets = list(_tie_heavy_sets()) + [tie_heavy(1000, 3, 13, 20, np.random.default_rng(7))]
    assert any(-(-ps.precision // discrepancy._limb_digits(ps.base, len(ps))) == 2 for ps in sets)
    for ps in sets:
        assert l2_exact(ps).exact == l2_integer_reference(ps)


def test_lq_estimate_is_unchanged_under_a_tiny_work_budget(monkeypatch):
    ps = dp_net(3, 10, 2)
    monkeypatch.setattr(discrepancy, "_WORK_BYTES", 4096)
    fast = lq_estimate(ps, 4.0, 16384, seed=1)
    monkeypatch.setattr(discrepancy, "_count_below", count_below_reference)
    assert lq_estimate(ps, 4.0, 16384, seed=1) == fast


def test_report_fields():
    rep = l2_exact(van_der_corput(2, 4))
    assert rep.N == 16 and rep.s == 1 and rep.q == 2.0
    assert rep.method == "exact-pairwise"
    assert rep.roth_ratio is not None and rep.roth_ratio >= 1 - 1e-9
    row = rep.csv_row("van-der-corput", "b=2;m=4")
    assert row.startswith("van-der-corput,b=2;m=4,16,1,2.0,exact-pairwise,")


# ---------------------------------------------------------
# Lq estimation
# ---------------------------------------------------------

def test_lq_q1_closed_form():
    # integral of (1 - t) over [0,1] is 1/2 for the origin point set
    rep = lq_estimate(ORIGIN_1D, 1.0, 4096, seed=7)
    assert abs(rep.value - 0.5) <= 3 * rep.stderr + 1e-3


def test_lq_q2_matches_exact():
    exact = math.sqrt(1 / 12)
    rep = lq_estimate(TWO_1D, 2.0, 8192, seed=11)
    assert abs(rep.value - exact) <= 3 * rep.stderr


def test_lq_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        lq_estimate(ORIGIN_1D, 2.0, 0)
    with pytest.raises(ParameterError):
        lq_estimate(ORIGIN_1D, math.inf, 100)
    with pytest.raises(ParameterError):
        lq_estimate(ORIGIN_1D, 0.5, 100)
    with pytest.raises(ParameterError, match="need a seed >= 0, got -1"):
        lq_estimate(ORIGIN_1D, 2.0, 100, seed=-1)


def test_lq_reports_a_roth_ratio_only_for_q_at_least_two():
    # Lq >= L2 bounds the norm only for q >= 2; below that no ratio is reported
    assert lq_estimate(TWO_1D, 1.5, 1000, seed=5).roth_ratio is None
    rep = lq_estimate(TWO_1D, 2.0, 1000, seed=5)
    assert rep.roth_ratio == rep.value / roth_lower_bound(1, 2)


def test_lq_deterministic_for_fixed_seed():
    a = lq_estimate(TWO_1D, 3.0, 1000, seed=5)
    b = lq_estimate(TWO_1D, 3.0, 1000, seed=5)
    assert a.value == b.value and a.stderr == b.stderr


def test_lq_report_equals_report_from_reference_count(monkeypatch):
    ps = dp_net(3, 10, 2)
    fast = lq_estimate(ps, 4.0, 16384, seed=1)
    monkeypatch.setattr(discrepancy, "_count_below", count_below_reference)
    assert lq_estimate(ps, 4.0, 16384, seed=1) == fast


def test_lq_works_above_the_numpy_dimension_limit(monkeypatch):
    """s = 65 draws need s + 2 > 64 axes if the cell grid were one array view."""
    digits = np.random.default_rng(0).integers(0, 2, size=(8, 65, 4)).astype(np.uint8)
    ps = PointSet.from_digits(digits, 2)
    fast = lq_estimate(ps, 2.0, 100, seed=1)
    assert fast.s == 65 and math.isfinite(fast.value)
    monkeypatch.setattr(discrepancy, "_count_below", count_below_reference)
    assert lq_estimate(ps, 2.0, 100, seed=1) == fast


def test_lq_anchors_are_53_bit_doubles_in_the_unit_interval(monkeypatch):
    """Below 2^16 samples at s = 16 the grid is one cell, so the anchors are the raw draws: 32 chunks."""
    ps = PointSet.from_digits(np.zeros((4, 16, 8), dtype=np.uint8), 2)
    count_below, seen = discrepancy._count_below, []
    monkeypatch.setattr(discrepancy, "_count_below", lambda x, t: seen.append(t.copy()) or count_below(x, t))
    lq_estimate(ps, 2.0, 2**16 - 1, seed=3)
    (t,) = seen
    assert t.shape == (2**16 - 1, 16)
    assert t.min() >= 0.0 and t.max() < 1.0
    scaled = t * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))
    assert set(np.unique(scaled % 2)) == {0.0, 1.0}  # the lowest of the 53 bits is drawn too
    assert abs(t.mean() - 0.5) < 1e-3


def test_lq_peak_allocation_stays_within_its_docstring_bound():
    """The draw array plus two sample-length float64 arrays, plus 1 MiB for chunks and batches."""
    ps = dp_net(2, 4, 2)
    samples = 1 << 20
    tracemalloc.start()
    try:
        lq_estimate(ps, 3.0, samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= samples * ps.s * 8 + 2 * samples * 8 + (1 << 20)


def test_lq_peak_allocation_stays_within_2_2_draw_arrays():
    """The draws, the counts and |local discrepancy|^q: 2x the draws for s = 2."""
    ps = dp_net(2, 4, 2)
    samples = 1 << 21
    tracemalloc.start()
    try:
        lq_estimate(ps, 3.0, samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * samples * ps.s * 8


# ---------------------------------------------------------
# Lower bound comparators
# ---------------------------------------------------------

def test_roth_constant_values():
    assert roth_constant(1) == 7 / 54
    assert abs(roth_constant(2) - 7 / (27 * 8 * math.sqrt(math.log(2)))) < 1e-16


def test_roth_lower_bound_values():
    assert abs(roth_lower_bound(1, 2) - 7 / 108) < 1e-16
    assert roth_lower_bound(3, 100) == roth_constant(3) * math.log(100) / 100
    with pytest.raises(ParameterError):
        roth_lower_bound(1, 1)


def test_sum_of_digits():
    assert sum_of_digits(5) == 2
    for m in range(1, 12):
        assert sum_of_digits(2**m) == 1
        assert sum_of_digits(2 ** (m + 1) - 1) == m + 1
        assert sum_of_digits(2**m) <= 1 + math.log2(2**m)
    with pytest.raises(ParameterError):
        sum_of_digits(0)


# ---------------------------------------------------------
# Sequence profile
# ---------------------------------------------------------

def test_profile_grid_contract():
    grid = profile_grid(300)
    assert set(range(2, 257)).issubset(grid)
    assert 3 in grid and 7 in grid and 255 in grid
    assert max(grid) <= 300


def test_sequence_profile_exact_entry_and_positivity():
    prof = sequence_profile(1, 32)
    first = prof[0]
    assert first.N == 2
    exact = math.sqrt(l2_exact_rational(dp_sequence(1, 2)))
    assert abs(first.value - exact) <= 1e-12
    assert all(r.ratio_roth > 0 and r.ratio_partition > 0 for r in prof)
    assert [r.N for r in prof] == profile_grid(32)


# ---------------------------------------------------------
# Trim inequality
# ---------------------------------------------------------

def test_trim_inequality_full_size_is_trivially_true():
    assert trim_inequality_check(van_der_corput(2, 3), 8)


def test_trim_inequality_exact_rational_small_case():
    """Exact check of N^2 L2(trim)^2 <= b (b^m)^2 L2(full)^2 at m=2, N=3."""
    full = van_der_corput(2, 2)
    trimmed = arbitrary_n_trim(full, 3)
    lhs_sq = 9 * l2_exact_rational(trimmed)
    rhs_sq = 2 * 16 * l2_exact_rational(full)
    assert lhs_sq <= rhs_sq
    assert trim_inequality_check(full, 3)


def test_trim_inequality_more_sizes():
    for n in (5, 6, 7, 8):
        assert trim_inequality_check(van_der_corput(2, 3), n)


# ---------------------------------------------------------
# Roth validity on constructed sets
# ---------------------------------------------------------

def test_roth_ratio_above_one_everywhere():
    sets = [
        van_der_corput(2, 6),
        generate_net_points(faure_matrices(5, 2, 2)),
        dp_net(2, 6, 1),
        davenport_symmetrized(32),
        dp_sequence(1, 100),
    ]
    for ps in sets:
        rep = l2_exact(ps)
        assert rep.roth_ratio >= 1 - 1e-9
