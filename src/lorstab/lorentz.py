"""Linear algebra of Lorentz-Minkowski space and the de Sitter hyperquadric.

The ambient is R^(n+2) with inner product sum(v_i w_i, i <= n+1) - v_last w_last.
The hyperquadric <p,p> = 1 carries the induced Lorentz metric; its warped
chart over the unit sphere, the closed conformal field generated by a unit
timelike axis, rotational/boost Killing fields, and timelike normal
geodesics live here.  Everything is pure and value-level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "minkowski_inner",
    "minkowski_metric",
    "mdot",
    "mdot_axis0",
    "DeSitterPoint",
    "GrwCoordinates",
    "ConformalFieldSpec",
    "KillingFieldSpec",
    "grw_embed",
    "grw_extract",
    "ambient_field",
    "conformal_field",
    "killing_field",
    "normal_geodesic",
    "chronological_position",
    "grw_curvature_check",
    "orthonormal_completion",
]

_QUADRIC_ATOL = 1e-10


def minkowski_inner(v, w) -> float:
    """Lorentz inner product, timelike last coordinate."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {w.shape}")
    return float(np.dot(v[:-1], w[:-1]) - v[-1] * w[-1])


def minkowski_metric(dim: int) -> np.ndarray:
    """diag(1, ..., 1, -1) of the given total dimension."""
    j = np.eye(dim)
    j[-1, -1] = -1.0
    return j


def mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched Lorentz inner product along the last axis."""
    prod = a * b
    return prod[..., :-1].sum(axis=-1) - prod[..., -1]


def mdot_axis0(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lorentz inner product of 4-vectors stored along axis 0, as (4, ...)
    arrays: the values of ``mdot`` on the transposed arrays, several times
    faster than ``mdot`` on (N, 4) rows."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - a[3] * b[3]


@dataclass(frozen=True)
class DeSitterPoint:
    """A point of the unit hyperquadric."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if abs(minkowski_inner(p, p) - 1.0) > _QUADRIC_ATOL:
            raise ValueError("point is not on the unit hyperquadric")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class GrwCoordinates:
    """Warped-chart coordinates: time s and a unit vector q of the fiber sphere."""

    s: float
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if abs(np.linalg.norm(q) - 1.0) > 1e-12:
            raise ValueError("fiber point must be a unit vector")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class ConformalFieldSpec:
    """Unit timelike axis generating the closed conformal field a - <p,a> p."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if abs(minkowski_inner(a, a) + 1.0) > 1e-12:
            raise ValueError("axis must be unit timelike (<a,a> = -1)")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class KillingFieldSpec:
    """Rotation/boost generator: W(p) = k (<u,p> v - <v,p> u)."""

    u: np.ndarray
    v: np.ndarray
    k: float = 1.0

    def __post_init__(self):
        if self.k == 0.0:
            raise ValueError("k must be nonzero")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def grw_embed(coords: GrwCoordinates) -> DeSitterPoint:
    """Chart map (s, q) -> (cosh(s) q, sinh(s))."""
    s, q = coords.s, coords.q
    return DeSitterPoint(np.append(np.cosh(s) * q, np.sinh(s)))


def grw_extract(point: DeSitterPoint) -> GrwCoordinates:
    """Inverse chart map; the spatial part of a hyperquadric point never vanishes."""
    p = point.p
    s = float(np.arcsinh(p[-1]))
    q = p[:-1] / np.cosh(s)
    return GrwCoordinates(s=s, q=q / np.linalg.norm(q))


def ambient_field(spec: ConformalFieldSpec | KillingFieldSpec, points: np.ndarray) -> np.ndarray:
    """Field values at one point, (d,), or at a stack of points, (V, d).

    Conformal: V(p) = a - <p,a> p.  Killing: W(p) = k (<u,p> v - <v,p> u).
    Both are tangent to the hyperquadric.
    """
    if isinstance(spec, ConformalFieldSpec):
        pa = mdot(points, spec.a)
        return spec.a - pa[..., None] * points
    up = mdot(points, spec.u)
    vp = mdot(points, spec.v)
    return spec.k * (up[..., None] * spec.v - vp[..., None] * spec.u)


def conformal_field(spec: ConformalFieldSpec, point: DeSitterPoint) -> tuple[np.ndarray, float]:
    """Value of the closed conformal field and its conformal factor at a point.

    V(p) = a - <p,a> p is tangent to the hyperquadric; the factor is
    psi = -<p,a>  (so nabla_X V = psi X on the hyperquadric).
    """
    return ambient_field(spec, point.p), -float(mdot(point.p, spec.a))


def killing_field(spec: KillingFieldSpec, point: DeSitterPoint) -> np.ndarray:
    """W(p) = k (<u,p> v - <v,p> u); always tangent to the hyperquadric."""
    return ambient_field(spec, point.p)


def normal_geodesic(point: DeSitterPoint, normal: np.ndarray, t: float) -> DeSitterPoint:
    """Timelike geodesic cosh(t) p + sinh(t) N from p with unit timelike tangent N."""
    p = point.p
    n = np.asarray(normal, dtype=float)
    if abs(minkowski_inner(n, n) + 1.0) > 1e-8:
        raise ValueError("normal must be unit timelike")
    if abs(minkowski_inner(n, p)) > 1e-8:
        raise ValueError("normal must be tangent to the hyperquadric at p")
    return DeSitterPoint(np.cosh(t) * p + np.sinh(t) * n)


def chronological_position(spec: ConformalFieldSpec, point: DeSitterPoint, atol: float = 1e-10) -> str:
    """'future', 'past', or 'equator' relative to the equator of the axis.

    The future component is the one with <a,p> < 0.
    """
    ap = minkowski_inner(spec.a, point.p)
    if ap < -atol:
        return "future"
    if ap > atol:
        return "past"
    return "equator"


def grw_curvature_check(k: float, phi_samples) -> float:
    """Residual of the constant-curvature warping ODE phi''/phi = ((phi')^2 + k)/phi^2.

    ``phi_samples`` is a sequence of (s, phi, phi', phi'') tuples with phi > 0.
    Returns the max ODE residual over samples plus the max deviation of
    phi''/phi from the value implied by the first sample.
    """
    samples = [tuple(map(float, row)) for row in phi_samples]
    for _, phi, _, _ in samples:
        if phi <= 0.0:
            raise ValueError("warping function must be positive")
    ratios = [ddphi / phi for _, phi, _, ddphi in samples]
    ode = max(abs(r - ((dphi * dphi + k) / (phi * phi)))
              for r, (_, phi, dphi, _) in zip(ratios, samples))
    c0 = ratios[0]
    return ode + max(abs(r - c0) for r in ratios)


def orthonormal_completion(a: np.ndarray) -> np.ndarray:
    """Lorentz-orthonormal frame with the unit timelike ``a`` as last column.

    Columns b_1..b_(d-1) span the spacelike complement of a; the returned
    matrix F satisfies F^T J F = J, so mapping canonical coordinates through
    F preserves all inner products.  Deterministic: Gram-Schmidt over the
    canonical basis vectors in order, skipping near-dependent ones.
    """
    a = np.asarray(a, dtype=float)
    d = a.size
    cols = [a]
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        w = e.copy()
        for b in cols:
            w -= (minkowski_inner(e, b) / minkowski_inner(b, b)) * b
        norm2 = minkowski_inner(w, w)
        if norm2 < 1e-12:
            continue
        cols.append(w / np.sqrt(norm2))
        if len(cols) == d:
            break
    frame = np.column_stack(cols[1:] + [a])
    return frame
