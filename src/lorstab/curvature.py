"""Algebra of the shape operator of a surface (n = 2), on a stack of points.

The kernels compute, per point, the elementary symmetric functions
sigma = (1, k1 + k2, k1 k2) of the principal curvatures k1, k2, the Newton
transformations P_0 = I and P_1 = A - sigma_1 I, and the eigenvalues of a
symmetric 2x2 stack.  sigma and P_r are bit for bit, signed zeros included,
the values of the recurrences for any dimension that they replace; the
tests keep those as references.  No mesh or discretization enters.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batched_elementary",
    "batched_newton",
    "batched_eigvalsh2",
]

_LAPACK_EPS = np.finfo(float).eps / 2     # LAPACK's dlamch('E'), the unit roundoff


def batched_elementary(eigs: np.ndarray) -> np.ndarray:
    """sigma_0, sigma_1, sigma_2 per row of a (V, 2) eigenvalue array -> (V, 3).

    sigma_1 = (0 + k1) + k2 and sigma_2 = 0 + k2 k1: the additions of 0.0
    turn a -0.0 into +0.0, as the coefficient recurrence of
    (1 + k1 t)(1 + k2 t), which starts from zero coefficients, does.
    """
    k1, k2 = eigs[:, 0], eigs[:, 1]
    return np.stack([np.ones(eigs.shape[0]), (0.0 + k1) + k2, 0.0 + k2 * k1], axis=1)


def batched_newton(a: np.ndarray, sigma: np.ndarray, r: int) -> np.ndarray:
    """P_r per point for a (V, 2, 2) symmetric operator stack and its sigma
    table: P_0 = I, P_1 = A - sigma_1 I.  A + 0.0 turns a -0.0 entry into
    +0.0, as the product A I of the recurrence P_1 = -sigma_1 I + A P_0 does."""
    if r == 0:
        return np.tile(np.eye(2), (a.shape[0], 1, 1))
    p = a + 0.0
    p[:, 0, 0] -= sigma[:, 1]
    p[:, 1, 1] -= sigma[:, 1]
    return p


def batched_eigvalsh2(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a (V, 2, 2) symmetric stack -> (V, 2); the
    off-diagonal entry is read from the lower triangle.

    The closed form LAPACK applies to a 2x2 block (``dsterf`` and ``dlae2``):
    with s = a + d and rt = hypot(a - d, 2b), the eigenvalue of larger
    magnitude is (s + sign(s) rt) / 2 and the other is the determinant over
    it, so neither suffers cancellation; an off-diagonal below
    eps sqrt|a| sqrt|d| leaves the diagonal as it is.  Every step is rounded
    as LAPACK rounds it, which reproduces ``np.linalg.eigvalsh`` bit for bit
    on the shape operators and P_1 of a level-6 graph and on 1e5 random
    matrices, at a fraction of its per-matrix cost.
    """
    d0, b, d1 = a[:, 0, 0], a[:, 1, 0], a[:, 1, 1]
    s = d0 + d1
    adf, ab = np.abs(d0 - d1), np.abs(b + b)
    big, small = np.maximum(adf, ab), np.minimum(adf, ab)
    with np.errstate(divide="ignore", invalid="ignore"):     # 0/0 only where b = 0 splits
        rt = big * np.sqrt(1.0 + (small / big) ** 2)
        rt1 = 0.5 * (s + np.copysign(rt, s))
        acmx, acmn = np.where(np.abs(d0) > np.abs(d1), (d0, d1), (d1, d0))
        rt2 = np.where(s == 0.0, -rt1, (acmx / rt1) * acmn - (b / rt1) * b)
    split = np.abs(b) <= np.sqrt(np.abs(d0)) * np.sqrt(np.abs(d1)) * _LAPACK_EPS
    rt1, rt2 = np.where(split, d0, rt1), np.where(split, d1, rt2)
    return np.stack([np.minimum(rt1, rt2), np.maximum(rt1, rt2)], axis=1)
