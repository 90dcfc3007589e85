"""Lorentz-Minkowski linear algebra and the Killing fields of de Sitter space.

The ambient is R^4 with inner product v1 w1 + v2 w2 + v3 w3 - v4 w4; de
Sitter space is the hyperquadric <p,p> = 1.  Here: the inner product on
stacks (``mdot`` and ``mdot_axis0``) and ``SIGNATURE``, the diagonal
(1, 1, 1, -1) of the metric; the field spec ``KillingFieldSpec``
(W(p) = <u,p> v - <v,p> u); and ``ambient_field``, which evaluates it on
vertex stacks.  All pure, value-level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGNATURE",
    "mdot",
    "mdot_axis0",
    "KillingFieldSpec",
    "ambient_field",
]

# the diagonal of the ambient metric of R^4, timelike last coordinate
SIGNATURE = np.array([1.0, 1.0, 1.0, -1.0])
SIGNATURE.flags.writeable = False


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
class KillingFieldSpec:
    """Rotation/boost generator: W(p) = <u,p> v - <v,p> u."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def ambient_field(spec: KillingFieldSpec, points: np.ndarray) -> np.ndarray:
    """Killing field values W(p) = <u,p> v - <v,p> u at one point, (4,), or
    at a stack of points, (V, 4); tangent to the hyperquadric."""
    up = mdot(points, spec.u)
    vp = mdot(points, spec.v)
    return up[..., None] * spec.v - vp[..., None] * spec.u
