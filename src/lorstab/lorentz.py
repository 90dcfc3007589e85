"""Lorentz-Minkowski linear algebra and the ambient fields of de Sitter space.

The ambient is R^(n+2) with inner product sum(v_i w_i, i <= n+1) - v_last w_last;
de Sitter space is the hyperquadric <p,p> = 1.  Here: the inner product
(``minkowski_inner`` on two vectors, ``mdot`` and ``mdot_axis0`` on stacks,
``SIGNATURE``, the diagonal (1, 1, 1, -1) of the metric); the field specs
``ConformalFieldSpec`` (a unit timelike axis a, closed conformal field
V(p) = a - <p,a> p with factor psi = -<p,a>) and ``KillingFieldSpec``
(W(p) = k (<u,p> v - <v,p> u)); and ``ambient_field``, which evaluates either
on vertex stacks.  All pure, value-level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "minkowski_inner",
    "SIGNATURE",
    "mdot",
    "mdot_axis0",
    "ConformalFieldSpec",
    "KillingFieldSpec",
    "ambient_field",
]

# the diagonal of the ambient metric of R^4, timelike last coordinate
SIGNATURE = np.array([1.0, 1.0, 1.0, -1.0])
SIGNATURE.flags.writeable = False


def minkowski_inner(v, w) -> float:
    """Lorentz inner product, timelike last coordinate."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {w.shape}")
    return float(np.dot(v[:-1], w[:-1]) - v[-1] * w[-1])


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
