import math

import numpy as np
import pytest

from lowdisc.errors import ParameterError
from lowdisc.field import (
    binomial_mod_p,
    irreducible_polys_f2,
    is_irreducible_f2,
    is_prime,
    kernel_basis,
    matrix_rank,
    poly_degree,
    poly_divmod,
    poly_mul,
    reduce_row,
)

# ---------------------------------------------------------
# Binomials mod b
# ---------------------------------------------------------

def test_binomial_examples():
    assert binomial_mod_p(3, 1, 5) == 3
    assert binomial_mod_p(2, 5, 7) == 0  # j > i convention
    assert binomial_mod_p(0, 0, 5) == 1  # empty product


def test_binomial_matches_integer_binomials():
    """Pascal consistency: compare against math.comb reduced mod b."""
    for b in (2, 3, 5, 11):
        for i in range(65):
            for j in range(65):
                assert binomial_mod_p(i, j, b) == math.comb(i, j) % b


def test_binomial_large_indices():
    # digit-by-digit reduction agrees with the full integer binomial
    assert binomial_mod_p(200, 77, 5) == math.comb(200, 77) % 5
    assert binomial_mod_p(10**6, 3, 11) == math.comb(10**6, 3) % 11


# ---------------------------------------------------------
# Pivot inverses in reduce_row
# ---------------------------------------------------------

def test_reduce_row_scales_the_pivot_by_its_inverse():
    basis = {}
    assert reduce_row([2, 1], 0, basis, 5) is None
    assert basis == {0: [1, 3]}  # 2^-1 = 3 mod 5
    basis = {}
    reduce_row([0, 4, 1], 0, basis, 7)
    assert basis == {1: [0, 1, 2]}  # 4^-1 = 2 mod 7, lead column 1


def test_reduce_row_pivot_inverses_over_small_primes():
    for b in (3, 5, 11, 13):
        for a in range(1, b):
            basis = {}
            reduce_row([a, 1], 0, basis, b)
            lead, inv = basis[0]
            assert lead == 1 and (a * inv) % b == 1
            again = {}
            reduce_row([inv, 1], 0, again, b)
            assert again[0] == [1, a]


def test_zero_rows_get_no_pivot_and_composite_bases_are_refused():
    basis = {}
    assert reduce_row([0, 5, 10], 0, basis, 5) == [0, 0, 0]
    assert basis == {}
    for b in (1, 4, 6):
        with pytest.raises(ParameterError):
            matrix_rank([[1, 1]], b)
        with pytest.raises(ParameterError):
            kernel_basis([[1, 1]], b)


# ---------------------------------------------------------
# Rank and kernels
# ---------------------------------------------------------

def test_rank_examples():
    assert matrix_rank(np.eye(3, dtype=np.int64), 2) == 3
    assert matrix_rank(np.zeros((2, 4), dtype=np.int64), 5) == 0
    assert matrix_rank([[1, 2], [2, 4]], 5) == 1  # second row = 2 * first


def test_kernel_examples():
    assert kernel_basis(np.eye(4, dtype=np.int64), 3) == []
    assert len(kernel_basis(np.zeros((2, 3), dtype=np.int64), 2)) == 3
    basis = kernel_basis([[1, 1]], 2)
    assert len(basis) == 1 and list(basis[0]) == [1, 1]


def test_rank_nullity_on_random_matrices():
    rng = np.random.default_rng(42)
    for b in (2, 5):
        for _ in range(40):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            mat = rng.integers(0, b, size=(rows, cols))
            basis = kernel_basis(mat, b)
            assert matrix_rank(mat, b) + len(basis) == cols
            for v in basis:
                assert not np.any((mat @ v) % b)


def test_is_prime_small_cases():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


# ---------------------------------------------------------
# Binary polynomials
# ---------------------------------------------------------

def test_poly_basics():
    x = 0b10
    assert poly_degree(0) == -1
    assert poly_degree(x) == 1
    assert poly_mul(x, x) == 0b100
    assert poly_divmod(0b100, 0b11) == (0b11, 0b1)  # x^2 = (x+1)(x+1) + 1 over F_2


def test_irreducible_list_prefix():
    # frozen from brute-force trial division: x, 1+x, 1+x+x^2, 1+x+x^3, 1+x^2+x^3
    assert irreducible_polys_f2(2) == [0b10, 0b11]
    assert irreducible_polys_f2(3) == [0b10, 0b11, 0b111]
    five = irreducible_polys_f2(5)
    assert five == [0b10, 0b11, 0b111, 0b1011, 0b1101]
    assert [poly_degree(p) for p in five] == [1, 1, 2, 3, 3]
    with pytest.raises(ParameterError):
        irreducible_polys_f2(0)


def test_irreducible_list_has_no_small_factors():
    """No roots in F_2 and no factor among the lower-degree returned polys."""
    polys = irreducible_polys_f2(10)
    for i, p in enumerate(polys):
        assert is_irreducible_f2(p)
        # no root at 0 or 1 unless the polynomial IS x or x+1
        if poly_degree(p) > 1:
            assert p & 1, f"{p:b} has root 0"
            assert bin(p).count("1") % 2 == 1, f"{p:b} has root 1"
        for q in polys[:i]:
            if poly_degree(q) < poly_degree(p):
                assert poly_divmod(p, q)[1] != 0
