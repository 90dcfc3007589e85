"""Pointwise algebra of the shape operator.

Elementary symmetric functions of principal curvatures, normalized mean
curvatures, Newton transformations and their trace identities, the
stability constant entering the eigenvalue criterion, and the integrand
polynomial / constant of the generalized area functional.  Everything here
is exact value-level algebra, valid for any dimension ``n`` and any ambient
curvature ``c``; no mesh or discretization enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "ShapeSpectrum",
    "CurvatureTable",
    "NewtonTransform",
    "elementary_symmetric",
    "curvature_table",
    "newton_transform",
    "newton_traces",
    "stability_constant",
    "r_area_integrand",
    "variation_constant",
]

_SYM_RTOL = 1e-12
_LAPACK_EPS = np.finfo(float).eps / 2     # LAPACK's dlamch('E'), the unit roundoff
_CHARPOLY_RTOL = 1e-10


@dataclass(frozen=True)
class ShapeSpectrum:
    """Shape operator at one point: eigenvalues and/or a symmetric matrix.

    Either representation may be given; when both are present they must
    describe the same operator (matching characteristic polynomials).
    The matrix is expressed in an orthonormal tangent frame.
    """

    n: int
    eigenvalues: tuple[float, ...] | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.eigenvalues is None and self.matrix is None:
            raise ValueError("ShapeSpectrum needs eigenvalues or a matrix")
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", tuple(float(v) for v in self.eigenvalues))
            if len(self.eigenvalues) != self.n:
                raise ValueError(f"expected {self.n} eigenvalues, got {len(self.eigenvalues)}")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (self.n, self.n):
                raise ValueError(f"matrix shape {m.shape} does not match n={self.n}")
            scale = max(1.0, float(np.abs(m).max()))
            if float(np.abs(m - m.T).max()) > _SYM_RTOL * scale:
                raise ValueError("shape operator matrix is not symmetric")
            object.__setattr__(self, "matrix", (m + m.T) / 2.0)
        if self.eigenvalues is not None and self.matrix is not None:
            got, want = batched_elementary(np.stack([self.eigenvalues, np.linalg.eigvalsh(self.matrix)]))
            scale = np.maximum(1.0, np.abs(want))
            if float(np.abs(got - want).max() / scale.max()) > _CHARPOLY_RTOL:
                raise ValueError("eigenvalue and matrix representations disagree")

    def values(self) -> np.ndarray:
        """Principal curvatures, ascending."""
        if self.eigenvalues is not None:
            return np.sort(np.array(self.eigenvalues, dtype=float))
        return np.linalg.eigvalsh(self.matrix)

    def operator(self) -> np.ndarray:
        """The operator as a symmetric matrix (diagonal if only eigenvalues given)."""
        if self.matrix is not None:
            return self.matrix
        return np.diag(self.eigenvalues)


@dataclass(frozen=True)
class CurvatureTable:
    """All orders at once: elementary symmetric values, normalized mean
    curvatures, and the integer trace factors (n-r)*C(n,r)."""

    n: int
    elementary: tuple[float, ...]      # sigma_r of the principal curvatures, r = 0..n
    mean: tuple[float, ...]            # (-1)^r * elementary[r] / C(n,r)
    trace_factor: tuple[int, ...]      # (n-r)*C(n,r), r = 0..n


@dataclass(frozen=True)
class NewtonTransform:
    """One Newton transformation: order and matrix in the frame of A."""

    r: int
    matrix: np.ndarray


def elementary_symmetric(values, r: int) -> float:
    """r-th elementary symmetric polynomial of ``values``: ``batched_elementary``
    on a one-row stack.  sigma_0 = 1."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if not 0 <= r <= n:
        raise ValueError(f"order r={r} out of range [0, {n}]")
    return float(batched_elementary(values.reshape(1, -1))[0, r])


def curvature_table(shape: ShapeSpectrum) -> CurvatureTable:
    """Elementary symmetric values and mean curvatures of a shape operator.

    mean[r] satisfies C(n,r) * mean[r] = (-1)^r * elementary[r], i.e. it is
    the r-th elementary symmetric mean of the negated principal curvatures.
    """
    n = shape.n
    s = batched_elementary(shape.values()[None])[0]
    h = np.array([(-1.0) ** r * s[r] / comb(n, r) for r in range(n + 1)])
    b = tuple((n - r) * comb(n, r) for r in range(n + 1))
    return CurvatureTable(n=n, elementary=tuple(s), mean=tuple(h), trace_factor=b)


def newton_transform(shape: ShapeSpectrum, r: int) -> NewtonTransform:
    """r-th Newton transformation of the shape operator: ``batched_newton``
    on a one-row stack.

    P_0 = I and P_r = (-1)^r sigma_r I + A P_{r-1}; shares eigenvectors with
    A, and P_n vanishes (Cayley-Hamilton).
    """
    n = shape.n
    if not 0 <= r <= n:
        raise ValueError(f"order r={r} out of range [0, {n}]")
    a = shape.operator()[None]
    p = batched_newton(a, batched_elementary(np.linalg.eigvalsh(a)), r)
    return NewtonTransform(r=r, matrix=p[0])


def newton_traces(shape: ShapeSpectrum, r: int) -> tuple[float, float, float]:
    """(tr P_r, tr A P_r, tr A^2 P_r): ``batched_newton_traces`` on a one-row stack.

    Contract: these equal the closed forms (-1)^r (n-r) sigma_r,
    (-1)^r (r+1) sigma_{r+1} and (-1)^r (sigma_1 sigma_{r+1}
    - (r+2) sigma_{r+2}), with sigma past index n read as zero.
    """
    n = shape.n
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r={r} out of range [0, {n - 1}]")
    traces = batched_newton_traces(shape.operator()[None], newton_transform(shape, r).matrix[None])
    return tuple(float(x) for x in traces[0])


def stability_constant(shape: ShapeSpectrum, c: float, r: int) -> float:
    """The constant compared against the first eigenvalue: c*tr(P_r) - tr(A^2 P_r)."""
    tr_p, _, tr_a2p = newton_traces(shape, r)
    return c * tr_p - tr_a2p


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
# a stack of points; the pointwise functions above call them on a one-row stack

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
