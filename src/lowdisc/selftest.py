"""The acceptance suite: thirteen end-to-end checks of the toolkit.

Each criterion function returns (passed, detail).  `run_all` executes the
whole suite and is what both `lowdisc selftest` and the acceptance test
module drive, so the CLI and pytest agree by construction.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from .cli import FAMILIES
from .constructions import (
    cs_matrices,
    davenport_symmetrized,
    dp_finite_base,
    dp_net,
    dp_net_matrices,
    dp_sequence,
    faure_matrices,
    interlace_matrices,
    interlace_pointset,
    niederreiter_net_matrices,
    niederreiter_t_bound,
    van_der_corput,
)
from .discrepancy import (
    l2_exact,
    l2_exact_rational,
    trim_inequality_check,
    lq_estimate,
    roth_lower_bound,
    sequence_profile,
)
from .field import matrix_rank
from .nets import (
    GeneratingMatrixSet,
    PointSet,
    char_property_deviation,
    compute_t_value,
    dual_space,
    generate_net_points,
    seeded_generator,
    uniform_digits,
)
from .weights import min_dual_weight, order_alpha_profile

CS_EXAMPLE_C1 = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1], [0, 1, 2, 3]]
CS_EXAMPLE_C2 = [[1, 2, 4, 3], [0, 1, 4, 2], [1, 3, 4, 2], [0, 1, 1, 2]]


def criterion_01_cs_example() -> tuple[bool, str]:
    """Binomial matrices for b=5, alpha=m=s=2 with betas ((0,1),(2,3))."""
    gm = cs_matrices(5, 2, 2, 2, betas=((0, 1), (2, 3)))
    ok = np.array_equal(gm.array, [CS_EXAMPLE_C1, CS_EXAMPLE_C2])
    return ok, "both 4x4 matrices match exactly" if ok else "matrix mismatch"


def criterion_02_structure_floor() -> tuple[bool, str]:
    """t = 0 and min dual Hamming weight >= alpha + 1 for small parameter grid."""
    cases = [(5, 2, 1, 2), (5, 2, 2, 2), (11, 2, 1, 2), (11, 2, 1, 3)]
    details = []
    for b, alpha, m, s in cases:
        gm = cs_matrices(b, alpha, m, s)
        t = compute_t_value(gm)
        dual = dual_space(gm, 11**4 + 1)
        found = min_dual_weight(dual, "hamming")
        minimum = None if found is None else found[0]
        ok = t == 0 and minimum is not None and minimum >= alpha + 1
        details.append(f"b={b},m={m},s={s}: t={t}, min_hamming={minimum}")
        if not ok:
            return False, "; ".join(details)
    return True, "; ".join(details)


def _random_full_rank_net(b: int, m: int, s: int, seed: int) -> GeneratingMatrixSet:
    rng = seeded_generator(seed)
    mats = []
    while len(mats) < s:
        mat = uniform_digits(rng, b, (m, m))
        if matrix_rank(mat, b) == m:
            mats.append(mat)
    return GeneratingMatrixSet(b, mats)


def criterion_03_mu1_identity() -> tuple[bool, str]:
    """min nonzero-dual nrt weight equals m - t + 1 on at least ten nets."""
    nets = [
        faure_matrices(5, 2, 2),
        faure_matrices(3, 2, 2),
        faure_matrices(7, 1, 3),
        cs_matrices(5, 2, 2, 2),
        cs_matrices(11, 2, 1, 2),
        dp_net_matrices(2, 2, 1),
        dp_net_matrices(2, 3, 1),
        dp_net_matrices(3, 2, 2),
        dp_net_matrices(2, 3, 2),
        _random_full_rank_net(2, 4, 2, seed=11),
        _random_full_rank_net(5, 2, 2, seed=12),
        _random_full_rank_net(3, 3, 2, seed=13),
    ]
    for i, gm in enumerate(nets):
        t = compute_t_value(gm)
        found = min_dual_weight(dual_space(gm, 1 << 22), "nrt")
        minimum = None if found is None else found[0]
        if minimum != gm.cols - t + 1:
            return False, f"net #{i}: min={minimum}, expected {gm.cols - t + 1}"
    return True, f"identity holds on all {len(nets)} nets"


def criterion_04_order_alpha() -> tuple[bool, str]:
    """min dual mu_alpha >= alpha*m - t_alpha on interlaced nets."""
    checked = 0
    for alpha in (2, 3):
        for s in (1, 2):
            t_base = niederreiter_t_bound(alpha * s)
            for m in (1, 2, 3, 4):
                gm = dp_net_matrices(alpha, m, s)
                if order_alpha_profile(gm, alpha, t_base) is not None:
                    return False, f"violated at alpha={alpha}, s={s}, m={m}"
                checked += 1
    return True, f"{checked} (alpha, s, m) combinations verified"


def _oracle_pointsets() -> list[PointSet]:
    sets = [
        PointSet.from_digits(np.array([[[0]]], np.uint8), 2),
        PointSet.from_digits(np.array([[[0]], [[1]]], np.uint8), 2),
    ]
    for m in range(1, 7):
        sets.append(van_der_corput(2, m))
    for m in (1, 2):
        sets.append(van_der_corput(5, m))
        sets.append(van_der_corput(3, m))
    sets.append(generate_net_points(faure_matrices(5, 2, 2)))
    sets.append(generate_net_points(faure_matrices(3, 2, 3)))
    sets.append(generate_net_points(faure_matrices(7, 1, 3)))
    sets.append(generate_net_points(dp_net_matrices(2, 2, 2)))
    sets.append(generate_net_points(dp_net_matrices(3, 2, 1)))
    sets.append(davenport_symmetrized(8))
    sets.append(davenport_symmetrized(3))
    rng = seeded_generator(5)
    while len(sets) < 50:
        n = rng.randrange(1, 65)
        s = rng.randrange(1, 4)
        sets.append(PointSet.from_digits(uniform_digits(rng, 2, (n, s, 10)).astype(np.uint8), 2))
    return sets


def criterion_05_oracle_equivalence() -> tuple[bool, str]:
    """Exact L2 matches the rational oracle to 1e-12."""
    from fractions import Fraction

    sets = _oracle_pointsets()
    closed = {0: Fraction(1, 3), 1: Fraction(1, 12)}
    worst = 0.0
    for i, ps in enumerate(sets):
        exact_sq = l2_exact_rational(ps)
        if i in closed and exact_sq != closed[i]:
            return False, f"closed form mismatch on set #{i}: {exact_sq}"
        dev = abs(l2_exact(ps).value - math.sqrt(exact_sq))
        worst = max(worst, dev)
        if dev > 1e-12:
            return False, f"set #{i} (N={len(ps)}, s={ps.s}): |exact - rational| = {dev:.2e}"
    return True, f"{len(sets)} point sets, worst deviation {worst:.2e}"


def _roth_family_sets() -> list[tuple[str, PointSet]]:
    sets: list[tuple[str, PointSet]] = []
    for m in (4, 8, 12):
        sets.append((f"van-der-corput b2 m{m}", van_der_corput(2, m)))
    sets.append(("van-der-corput b5 m4", van_der_corput(5, 4)))
    sets.append(("faure b5 m2 s2", generate_net_points(faure_matrices(5, 2, 2))))
    sets.append(("faure b3 m2 s3", generate_net_points(faure_matrices(3, 2, 3))))
    sets.append(("chen-skriganov b5", generate_net_points(cs_matrices(5, 2, 2, 2))))
    sets.append(("chen-skriganov b11 m1 s2", generate_net_points(cs_matrices(11, 2, 1, 2))))
    for m in (6, 9, 12):
        sets.append((f"dp-net a3 s2 m{m}", dp_net(3, m, 2)))
    sets.append(("dp-net a2 s1 m10", dp_net(2, 10, 1)))
    from .constructions import dp_finite_pointset

    for n in (13, 100, 1000, 3000):
        sets.append((f"dp-finite N{n} s2", dp_finite_pointset(n, 2)))
    for n in (100, 2048, 4095):
        sets.append((f"dp-sequence s1 N{n}", dp_sequence(1, n)))
    sets.append(("dp-sequence s2 N512", dp_sequence(2, 512)))
    for big_m in (64, 512, 2048):
        sets.append((f"davenport M{big_m}", davenport_symmetrized(big_m)))
    return sets


def criterion_06_roth_validity() -> tuple[bool, str]:
    """N * L2 clears the explicit universal constant on every family."""
    worst = math.inf
    worst_label = ""
    for label, ps in _roth_family_sets():
        n = len(ps)
        rep = l2_exact(ps)
        bound = roth_lower_bound(ps.s, n)
        margin = n * rep.value - n * bound
        if margin < worst:
            worst, worst_label = margin, label
        if n * rep.value < n * bound - 1e-9:
            return False, f"{label}: N*L2 = {n * rep.value:.6g} below {n * bound:.6g}"
    return True, f"all families clear the bound; tightest margin {worst:.4f} ({worst_label})"


def criterion_07_char_property() -> tuple[bool, str]:
    """Character sums are 1 on the dual and 0 off it, to 1e-9."""
    worst = 0.0
    cases = [
        (cs_matrices(5, 2, 2, 2), 625 + 1),
        (dp_net_matrices(2, 3, 2), 1 << 10),
        (dp_net_matrices(3, 3, 1), 1 << 10),
    ]
    for gm, cap in cases:
        case_worst = char_property_deviation(generate_net_points(gm), dual_space(gm, cap), None, 100, 17)
        if case_worst > 1e-9:
            return False, f"deviation {case_worst:.2e} on base-{gm.base} net"
        worst = max(worst, case_worst)
    return True, f"3 nets, all dual and 100 non-dual indices each; worst |dev| = {worst:.2e}"


def criterion_08_net_ratio_bounded() -> tuple[bool, str]:
    """2^m * L2 / sqrt(m) stays within a factor 4 band for dp_net(3, m, 2)."""
    ratios = []
    for m in range(6, 14):
        ps = dp_net(3, m, 2)
        ratios.append(FAMILIES["dp-net"].ratio(len(ps), ps.s, l2_exact(ps).value, m))
    spread = max(ratios) / min(ratios)
    return spread <= 4.0, f"ratio spread max/min = {spread:.3f} over m = 6..13"


def criterion_09_trim_inequality() -> tuple[bool, str]:
    """Trim inequality N*L2(trim) <= sqrt(b) * b^m * L2(full) everywhere."""
    checked = 0
    for m in range(1, 6):
        full = van_der_corput(2, m)
        for n in range(2 ** (m - 1) + 1, 2**m + 1):
            if not trim_inequality_check(full, n):
                return False, f"van der Corput m={m}, N={n}"
            checked += 1
    for m in range(2, 7):
        full = dp_finite_base(m, 2)
        for n in range(2 ** (m - 1) + 1, 2**m + 1):
            if not trim_inequality_check(full, n):
                return False, f"dp-finite base m={m}, N={n}"
            checked += 1
    return True, f"{checked} (set, N) pairs verified"


def criterion_10_sequence_ratio_bounded() -> tuple[bool, str]:
    """N * L2 / sqrt(S(N)) spread <= 8 for dp_sequence(s=1) up to 4096."""
    prof = sequence_profile(1, 4096)
    ns = {row.N for row in prof}
    missing = [2**m - 1 for m in range(2, 13) if 2**m - 1 not in ns]
    if missing:
        return False, f"grid misses worst-case values {missing}"
    ratios = [row.ratio_roth for row in prof]
    spread = max(ratios) / min(ratios)
    return spread <= 8.0, f"ratio spread max/min = {spread:.3f} over {len(ratios)} grid points"


def criterion_11_davenport_ratio_bounded() -> tuple[bool, str]:
    """N * L2 / sqrt(log N) spread <= 4 for the symmetrized set, M = 2^2..2^10."""
    ratios = []
    for k in range(2, 11):
        ps = davenport_symmetrized(2**k)
        ratios.append(FAMILIES["davenport"].ratio(len(ps), ps.s, l2_exact(ps).value, 2**k))
    spread = max(ratios) / min(ratios)
    return spread <= 4.0, f"ratio spread max/min = {spread:.3f} over 9 doublings"


def criterion_12_interlacing_paths_agree() -> tuple[bool, str]:
    """Matrix-level and point-level interlacing build identical point sets."""
    checked = 0
    for alpha in (1, 2, 3):
        for s in (1, 2):
            for m in range(1, 7):
                base = niederreiter_net_matrices(alpha * s, m)
                via_matrices = generate_net_points(interlace_matrices(base, alpha))
                via_points = interlace_pointset(generate_net_points(base), alpha)
                if not np.array_equal(via_matrices.digit_array(), via_points.digit_array()):
                    return False, f"paths differ at alpha={alpha}, s={s}, m={m}"
                checked += 1
    return True, f"{checked} (alpha, s, m) combinations bit-identical"


def criterion_13_estimator_calibration() -> tuple[bool, str]:
    """q=2 estimates land within 3 reported standard errors >= 95% of the time."""
    net = dp_net(2, 5, 2)
    exact = l2_exact(net).value
    hits = 0
    for trial in range(100):
        rep = lq_estimate(net, 2.0, 4096, seed=1000 + trial)
        if abs(rep.value - exact) <= 3.0 * rep.stderr:
            hits += 1
    return hits >= 95, f"{hits}/100 trials within 3 standard errors"


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("01 worked-example matrices", criterion_01_cs_example),
    ("02 zero t-value and dual Hamming floor", criterion_02_structure_floor),
    ("03 dual nrt-weight identity", criterion_03_mu1_identity),
    ("04 higher-order dual condition", criterion_04_order_alpha),
    ("05 L2 oracle equivalence", criterion_05_oracle_equivalence),
    ("06 universal lower-bound sweep", criterion_06_roth_validity),
    ("07 Walsh character property", criterion_07_char_property),
    ("08 interlaced-net ratio bounded", criterion_08_net_ratio_bounded),
    ("09 trim inequality", criterion_09_trim_inequality),
    ("10 sequence ratio bounded", criterion_10_sequence_ratio_bounded),
    ("11 symmetrized-set ratio bounded", criterion_11_davenport_ratio_bounded),
    ("12 interlacing path equality", criterion_12_interlacing_paths_agree),
    ("13 estimator calibration", criterion_13_estimator_calibration),
]


def run_all() -> list[tuple[str, bool, str]]:
    """Run every criterion, printing one pass/fail line each; returns results."""
    results = []
    for name, fn in CRITERIA:
        start = time.time()
        passed, detail = fn()
        elapsed = time.time() - start
        line = f"[{name}] {'PASS' if passed else 'FAIL'}: {detail} ({elapsed:.1f}s)"
        print(line, flush=True)
        results.append((name, passed, detail))
    return results
