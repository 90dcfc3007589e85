"""Algebra of the shape operator, on a stack of points.

The kernels compute, per point, the elementary symmetric functions of the
principal curvatures, the Newton transformations P_r and the traces that
enter the stability constant c*tr(P_r) - tr(A^2 P_r); ``r_area_integrand``
and ``variation_constant`` give the integrand and the additive constant of
the generalized area functional.  Only these kernels are written for any
dimension ``n`` and any ambient curvature ``c``; the pipeline calls them at
n = 2 and c = 1 (de Sitter space), fixed in ``variation`` and ``stability``.
No mesh or discretization enters.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batched_elementary",
    "batched_newton",
    "batched_newton_traces",
    "batched_eigvalsh2",
    "r_area_integrand",
    "variation_constant",
]

_LAPACK_EPS = np.finfo(float).eps / 2     # LAPACK's dlamch('E'), the unit roundoff


def r_area_integrand(sigma, c: float, r: int):
    """Integrand of the order-r area functional.

    ``sigma`` holds sigma_0..sigma_n along its last axis: one point, (n+1,),
    or a stack, (V, n+1), giving one value or one per row.
    F_0 = 1, F_1 = -sigma_1, and
    F_r = (-1)^r sigma_r - c (n - r + 1) / (r - 1) * F_{r-2}.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[-1] - 1
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r={r} out of range [0, {n - 1}]")
    f = [np.ones(sigma.shape[:-1]), -sigma[..., 1]]
    for k in range(2, r + 1):
        f.append((-1.0) ** k * sigma[..., k] - c * (n - k + 1) / (k - 1) * f[k - 2])
    return f[r]


def variation_constant(n: int, c: float, r: int) -> float:
    """Additive constant in the first variation of the order-r area.

    Zero for even r.  For odd r it is
    -[n (n-2) ... (n-r+1)] / [(r-1) (r-3) ... 2] * (-c)^((r+1)/2),
    empty products being 1, so the first odd value is n*c.
    """
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r={r} out of range [0, {n - 1}]")
    if r % 2 == 0:
        return 0.0
    num = 1.0
    k = n
    while k >= n - r + 1:
        num *= k
        k -= 2
    den = 1.0
    k = r - 1
    while k >= 2:
        den *= k
        k -= 2
    return -(num / den) * (-c) ** ((r + 1) // 2)


# ---------------------------------------------------------------------------
# the kernels: sigma, P_r and the traces are computed here and only here, on
# a stack of points

def batched_elementary(eigs: np.ndarray) -> np.ndarray:
    """sigma_0..sigma_n per row of an (V, n) eigenvalue array -> (V, n+1).

    The one-pass coefficient recurrence of prod_i (1 + v_i t): numerically
    stable, no subset enumeration.
    """
    v, n = eigs.shape
    coeff = np.zeros((v, n + 1))
    coeff[:, 0] = 1.0
    for k in range(n):
        coeff[:, 1 : k + 2] = coeff[:, 1 : k + 2] + eigs[:, k, None] * coeff[:, 0 : k + 1]
    return coeff


def batched_newton(a: np.ndarray, sigma: np.ndarray, r: int) -> np.ndarray:
    """P_r per point for an (V, n, n) operator stack and its sigma table."""
    v, n, _ = a.shape
    eye = np.broadcast_to(np.eye(n), (v, n, n))
    p = np.array(eye)
    for k in range(1, r + 1):
        p = (-1.0) ** k * sigma[:, k, None, None] * eye + a @ p
    return (p + np.transpose(p, (0, 2, 1))) / 2.0


def batched_newton_traces(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(tr P, tr A P, tr A^2 P) per point for an (V, n, n) operator stack and
    its Newton transformations P (``batched_newton``) -> (V, 3)."""
    return np.stack([
        np.trace(p, axis1=1, axis2=2),
        np.einsum("vij,vji->v", a, p),
        np.einsum("vij,vji->v", a @ a, p),
    ], axis=1)


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
