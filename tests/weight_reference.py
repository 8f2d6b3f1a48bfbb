"""Scalar weights on integer vectors, for tests.

The reading `weights._weight_matrix` replaced: each coordinate k of a
dual element is split into its base-b digits with divmod, and the weight
is read off the 1-based positions of the nonzero ones.  "nrt" is the
highest position (0 for k = 0), "hamming" their count and "mu" the sum
of the alpha highest (all of them if fewer).
"""

KINDS = ("nrt", "hamming", "mu")


def vector_weight(ks, b, kind, alpha=None):
    """Coordinatewise sum of the chosen weight over the integer vector ks."""
    if kind not in KINDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    if kind == "mu" and (alpha is None or alpha < 1):
        raise ValueError("kind 'mu' needs alpha >= 1")
    total = 0
    for k in ks:
        positions, pos = [], 1
        while k:
            k, d = divmod(k, b)
            if d:
                positions.append(pos)
            pos += 1
        positions.reverse()
        if kind == "nrt":
            total += positions[0] if positions else 0
        elif kind == "hamming":
            total += len(positions)
        else:
            total += sum(positions[:alpha])
    return total
