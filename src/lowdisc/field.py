"""Exact arithmetic over prime fields F_b and polynomials over F_2.

Field elements are plain integers in {0, ..., b-1}; every operation takes
the prime modulus b explicitly and rejects composite b.  Matrices over F_b
are plain two-dimensional integer arrays.  One incremental Gaussian
elimination, `dependencies`, serves every linear-algebra question: it
reduces rows one at a time and yields the dependency of each row that
reduces to zero, so the rank is the rows minus the dependencies, the
kernel basis is the dependencies among the columns, and a first
dependency among the rows of the C_j on a support is a dual element,
the witness of `nets.min_dependent_support`.  Its one step, `reduce_row`,
is undoable, so that rank search resumes it along a walk over row
supports.  Base 2 reduces rows packed into Python ints by XOR;
other bases reduce lists of ints.

Binary polynomials are represented as integers whose bit i is the
coefficient of x^i (so x = 2, 1 + x = 3, 1 + x + x^2 = 7).  The zero
polynomial is 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "is_prime",
    "binomial_mod_p",
    "pack_rows",
    "reduce_row",
    "dependencies",
    "matrix_rank",
    "kernel_basis",
    "poly_degree",
    "poly_mul",
    "poly_divmod",
    "is_irreducible_f2",
    "irreducible_polys_f2",
]


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine for desk-scale b."""
    if n <= 1:
        return False
    if n <= 3:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _require_prime(b: int) -> None:
    if not is_prime(b):
        raise ParameterError(f"base {b} is not prime")


def binomial_mod_p(i: int, j: int, b: int) -> int:
    """Binomial coefficient C(i, j) mod b, with C(i, j) = 0 for j > i.

    Computed digit-by-digit via Lucas' theorem, so large indices never
    build up big intermediate integers; each per-digit binomial has both
    arguments below b.
    """
    _require_prime(b)
    if i < 0 or j < 0:
        raise ParameterError("binomial indices must be nonnegative")
    if j > i:
        return 0
    result = 1
    while j > 0 or i > 0:
        id_, jd = i % b, j % b
        if jd > id_:
            return 0
        result = (result * (math.comb(id_, jd) % b)) % b
        i //= b
        j //= b
    return result


# ----------------------------------------------------------------------
# Matrices over F_b: one incremental elimination
# ----------------------------------------------------------------------

def pack_rows(arr, b: int) -> list:
    """Rows of a two-dimensional array over F_b in the form `dependencies` reduces.

    Base 2 packs a row into one int, bit c holding column c, so that
    elimination is XOR on Python ints; other bases keep lists of ints.
    """
    _require_prime(b)
    arr = np.asarray(arr, dtype=np.int64) % b
    if arr.ndim != 2:
        raise ParameterError("matrix must be two-dimensional")
    if b == 2:
        packed = np.packbits(arr.astype(np.uint8), axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]
    return arr.tolist()


def reduce_row(v, tail: int, basis: dict, b: int):
    """Reduce row v against the independent rows in `basis`: the step `dependencies` repeats.

    `basis` maps each lead column (first nonzero column, for base 2 the
    highest bit) to a row scaled to 1 there.  The last `tail` entries of v
    (for base 2 its lowest `tail` bits) are carried along without being
    eliminated.  An independent row enters `basis` as its last item, so
    `basis.popitem()` undoes the step, and None is returned; a dependent
    row is returned reduced mod b, zero outside its carried tail.  `v` is
    not modified.
    """
    if b == 2:
        # the row's bits sit above the tail, so while they are nonzero the
        # leading bit is one of its columns
        while v >> tail:
            lead = v.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = v
                return None
            v ^= pivot
        return v
    # entries are reduced mod b only where read, and once on return
    width = len(v) - tail
    lead = 0
    while True:
        while lead < width and not v[lead] % b:
            lead += 1
        if lead == width:
            return [x % b for x in v]
        pivot = basis.get(lead)
        if pivot is None:
            inv = pow(v[lead], b - 2, b)
            basis[lead] = [x * inv % b for x in v]
            return None
        f = v[lead] % b
        v = [x - f * y for x, y in zip(v, pivot)]


def dependencies(rows: Sequence, b: int) -> Iterator[list[int]]:
    """Gaussian elimination over F_b, one row at a time.

    Each row is reduced against the independent rows before it
    (`reduce_row`), carrying its coefficients along as the tail.  A row
    that reduces to zero yields its dependency: coefficients c with
    sum_i c_i rows[i] = 0, equal to 1 on that row and 0 on every later
    one.  Only independent rows enter the basis, so the dependency is the
    unique one on that row and the independent rows before it.  `rows`
    come from `pack_rows`.
    """
    n = len(rows)
    basis: dict = {}
    for k, row in enumerate(rows):
        if b == 2:
            v = reduce_row((row << n) | (1 << k), n, basis, b)
            if v is not None:
                yield [(v >> i) & 1 for i in range(n)]
        else:
            v = row + [0] * n
            v[len(row) + k] = 1
            v = reduce_row(v, n, basis, b)
            if v is not None:
                yield v[len(row):]


def matrix_rank(arr, b: int) -> int:
    """Rank of a two-dimensional array over F_b: rows minus dependent rows."""
    rows = pack_rows(arr, b)
    return len(rows) - sum(1 for _ in dependencies(rows, b))


def kernel_basis(arr, b: int) -> list[np.ndarray]:
    """Basis of the right kernel {v : arr v = 0} over F_b.

    One int64 vector per column that depends on the columns before it:
    the dependency among the columns, 1 at that column.  These are the
    vectors that reduced row echelon form reads off its free columns, in
    the same order.  Empty list for an injective matrix.
    """
    cols = pack_rows(np.asarray(arr).T, b)
    return [np.array(dep, dtype=np.int64) for dep in dependencies(cols, b)]


# ----------------------------------------------------------------------
# Polynomials over F_2 (integer bit representation)
# ----------------------------------------------------------------------

def poly_degree(p: int) -> int:
    """Degree of a binary polynomial; -1 for the zero polynomial."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of binary polynomial division."""
    if b == 0:
        raise ParameterError("polynomial division by zero")
    q = 0
    db = poly_degree(b)
    while a and poly_degree(a) >= db:
        shift = poly_degree(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def is_irreducible_f2(p: int) -> bool:
    """Trial division by every polynomial of degree up to deg(p)/2."""
    d = poly_degree(p)
    if d < 1:
        return False
    for fd in range(1, d // 2 + 1):
        for f in range(1 << fd, 1 << (fd + 1)):
            if poly_divmod(p, f)[1] == 0:
                return False
    return True


def irreducible_polys_f2(count: int) -> list[int]:
    """First `count` irreducible polynomials over F_2, sorted by degree.

    The list starts with x (kept first by construction); within one degree
    ties are broken by ascending integer encoding, which is immaterial
    mathematically but keeps runs reproducible.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    polys = [0b10]  # x comes first
    d = 1
    while len(polys) < count:
        for p in range(1 << d, 1 << (d + 1)):
            if p == 0b10:
                continue
            if is_irreducible_f2(p):
                polys.append(p)
                if len(polys) == count:
                    break
        d += 1
    return polys
