"""Reduced row echelon form over F_b, for tests.

The textbook elimination, kept apart from `lowdisc.field` as an
independent oracle: `rref` gives the echelon form and its pivot columns,
and `rref_kernel_basis` reads the kernel basis off the free columns.
"""

import numpy as np


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
