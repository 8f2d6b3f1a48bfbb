"""Weights on dual spaces.

Three weights drive the structural analysis of digital nets: the position
of the most significant base-b digit ("nrt"), the count of nonzero digits
("hamming"), and the sum of the alpha highest nonzero digit positions
("mu"), each summed over the coordinates of a dual element.  What a
construction guarantees is always a floor on one of these weights over
the nonzero dual space.  The minimum with a witness comes from the rank
search `nets.min_dependent_support`; `min_dual_weight` gives the same
answer by enumerating the dual, as the oracle, and `order_alpha_profile`
runs the rank search stopped at the order-alpha floor.  Witnesses are
int64 (s, p) digit arrays, and weights are read from digit arrays, all
elements at once (`_weight_matrix`); the scalar form on integers is kept
in the tests as their oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .nets import KINDS, WORK_CAP, DualSpace, GeneratingMatrixSet, min_dependent_support

__all__ = [
    "min_dual_weight",
    "t_alpha",
    "order_alpha_profile",
]


def _weight_matrix(digits: np.ndarray, kind: str, alpha: int | None) -> np.ndarray:
    """Per-coordinate weights for a (n, s, p) dual digit array."""
    p = digits.shape[2]
    positions = np.arange(1, p + 1, dtype=np.int64)
    marked = np.where(digits != 0, positions[None, None, :], 0)
    if kind == "hamming":
        return np.count_nonzero(digits, axis=2).astype(np.int64)
    if kind == "nrt":
        return marked.max(axis=2)
    if kind == "mu":
        if alpha is None or alpha < 1:
            raise ParameterError("kind 'mu' needs alpha >= 1")
        if alpha >= p:
            return marked.sum(axis=2)
        ordered = np.sort(marked, axis=2)
        return ordered[:, :, p - alpha :].sum(axis=2)
    raise ParameterError(f"unknown weight kind {kind!r}; expected one of {KINDS}")


def min_dual_weight(
    dual: DualSpace, kind: str, alpha: int | None = None
) -> tuple[int, np.ndarray] | None:
    """Exhaustive minimum of a weight over the nonzero dual elements.

    The answer of `nets.min_dependent_support`, by enumeration: (W, k) with
    k an int64 (s, p) dual element attaining the minimum W, or None when the
    dual has no nonzero element (e.g. a 1-dimensional invertible matrix).
    """
    digits = dual.element_digits()
    weights = _weight_matrix(digits, kind, alpha).sum(axis=1)
    if len(weights) == 1:  # only the zero element
        return None
    best = 1 + int(np.argmin(weights[1:]))  # element 0 is zero
    return int(weights[best]), digits[best].astype(np.int64)


def t_alpha(alpha: int, t: int, s: int) -> int:
    """Quality parameter after interlacing: alpha*t + s*C(alpha, 2)."""
    if alpha < 1 or t < 0 or s < 1:
        raise ParameterError("need alpha >= 1, t >= 0, s >= 1")
    return alpha * t + s * math.comb(alpha, 2)


def order_alpha_profile(
    gm_interlaced: GeneratingMatrixSet,
    alpha: int,
    t_base: int,
    cap: int = WORK_CAP,
) -> tuple[int, np.ndarray] | None:
    """The mu_alpha search for the higher-order dual condition, stopped at its floor.

    The condition min mu_alpha >= alpha*m - t_alpha holds iff the answer is
    None; otherwise it is (W, k) with k a dual element of weight W below it.
    gm_interlaced is the interlaced matrix set (alpha*p rows, m columns);
    t_base is the quality parameter of the underlying sequence or net,
    clamped to m, since the net's t never exceeds its m.
    """
    t_base = min(t_base, gm_interlaced.cols)
    floor = alpha * gm_interlaced.cols - t_alpha(alpha, t_base, gm_interlaced.s)
    return min_dependent_support(gm_interlaced, "mu", alpha, floor, cap)
