"""Closed spacelike surfaces in the unit hyperquadric.

Height graphs over the unit 2-sphere; a totally umbilical slice of the
warped chart is the graph of a constant height, with no perturbation.  The
first and second fundamental data are computed analytically from the
harmonic height expansion and sampled at the vertices of a shared
``SphereMesh`` (by default one per icosphere level), which only carries
integration and finite elements.

Conventions fixed here and relied on everywhere else:
  * the unit normal N is future-pointing (its Lorentz product with the
    time axis is negative);
  * the shape operator is A = -(tangential part of the ambient derivative
    of N), so the slice at height s0 has A = -tanh(s0) * identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.sparse import csr_matrix

from .curvature import batched_eigvalsh2, batched_elementary
from .harmonics import HarmonicField
from .lorentz import (
    ConformalFieldSpec, KillingFieldSpec, ambient_field, mdot, mdot_axis0, minkowski_metric,
    orthonormal_completion,
)
# validate_closed_oriented has no caller here: it stays bound for the
# mesh.validate layer of perfbench/tracer.py, which rebinds this name
from .mesh import SphereMesh, icosphere, validate_closed_oriented  # noqa: F401

__all__ = [
    "GraphConstructionError",
    "GraphSurface",
    "GeometryCache",
    "build_slice",
    "build_graph",
    "support_function",
    "tangential_gradient",
    "scatter_p1",
]

class GraphConstructionError(ValueError):
    """Construction failed; carries the worst offending vertex."""

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


def _default_axis() -> np.ndarray:
    a = np.zeros(4)
    a[-1] = 1.0
    return a


@dataclass
class GeometryCache:
    """Per-vertex and per-face geometric data of a built graph surface.

    The fields are computed when the surface is built.  ``mass`` is computed
    from ``face_area`` and the mesh the first time it is read and kept from
    then on; the flow snapshots of a variation read only ``sigma`` and
    ``weights``, and never pay for it.  ``weights`` are the per-vertex sums
    of face_area / 3, which are the row sums of ``mass`` up to rounding.
    Hat-function gradients are not kept: ``_hat_gradients`` computes them
    where they are read, a block of faces at a time in assembly, which keeps
    the peak memory of a level-6 run lower.
    """

    vertices: np.ndarray          # (V, 4) ambient positions
    normal: np.ndarray            # (V, 4) future unit normals
    frame: np.ndarray             # (V, 4, 2) orthonormal tangent frames
    shape: np.ndarray             # (V, 2, 2) shape operator in the frame
    shape_eigs: np.ndarray        # (V, 2) principal curvatures
    sigma: np.ndarray             # (V, 3) elementary symmetric values
    mean: np.ndarray              # (V, 3) normalized mean curvatures
    weights: np.ndarray           # (V,) lumped area weights
    area: float
    face_area: np.ndarray         # (F,)
    mesh: SphereMesh              # the surface's mesh
    metric_ratio: float           # max induced-metric anisotropy over vertices

    @cached_property
    def mass(self):
        """Consistent P1 mass matrix (scipy CSR) on the mesh's ``pattern``."""
        return _consistent_mass(self.mesh, self.face_area)


@dataclass
class GraphSurface:
    """Height graph over the unit 2-sphere, embedded in the hyperquadric."""

    height: HarmonicField
    axis: ConformalFieldSpec
    mesh: SphereMesh
    cache: GeometryCache
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def s0(self) -> float:
        return self.height.constant

    @property
    def is_slice(self) -> bool:
        return not self.height.terms


def _face_edges(vertices: np.ndarray, faces: np.ndarray):
    """Edge vectors e1 = v1 - v0, e2 = v2 - v0 of every face, as (F, 4)
    arrays, and their Lorentz products g11, g12, g22.  ``np.take`` gathers
    rows several times faster than fancy indexing, and ``mdot_axis0`` on the
    transposed edges is several times faster than ``mdot``, with the same
    values."""
    p0 = np.take(vertices, faces[:, 0], axis=0)
    e1 = np.take(vertices, faces[:, 1], axis=0) - p0
    e2 = np.take(vertices, faces[:, 2], axis=0) - p0
    return e1, e2, mdot_axis0(e1.T, e1.T), mdot_axis0(e1.T, e2.T), mdot_axis0(e2.T, e2.T)


def _hat_gradients(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Gradients of the P1 hat functions of corners 1 and 2 on the flat faces,
    as ambient tangent vectors in a component-major (2, 4, F) array: the
    Lorentz dual basis of the edges, (g22 e1 - g12 e2) / det and
    (g11 e2 - g12 e1) / det with det = g11 g22 - g12^2, so that
    <grad_a, e_b> = delta_ab; corner 0's is minus their sum."""
    e1, e2, g11, g12, g22 = _face_edges(vertices, faces)
    det = g11 * g22 - g12 * g12
    grad = np.empty((2, 4, faces.shape[0]))
    np.multiply(g22 / det, e1.T, out=grad[0])
    grad[0] -= (g12 / det) * e2.T
    np.multiply(g11 / det, e2.T, out=grad[1])
    grad[1] -= (g12 / det) * e1.T
    return grad


def _face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Areas of the flat faces; every face must have a finite spacelike induced
    metric (written so that a NaN fails the test, which reports an overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, g11, g12, g22 = _face_edges(vertices, faces)
        det = g11 * g22 - g12 * g12
    if not ((g11 > 0) & (det > 0) & (det < np.inf)).all():
        worst = int(np.argmin(np.where(np.isfinite(det), np.minimum(g11, det), -np.inf)))
        what = "degenerate induced metric" if np.isfinite(det[worst]) else "induced metric is not finite"
        raise GraphConstructionError(
            f"face {worst} is not spacelike ({what})", vertex=int(faces[worst, 0])
        )
    return 0.5 * np.sqrt(det)


def scatter_p1(mesh: SphereMesh, local: np.ndarray) -> csr_matrix:
    """Sum per-face (F, 3, 3) element matrices, which the caller passes exactly
    symmetric, into a CSR matrix on ``mesh.pattern``: entry (a, b) of face f
    lands at (faces[f, a], faces[f, b]).  Every face then adds to (i, j) and
    (j, i) the same value in the same order, so the result is symmetric bit
    for bit."""
    indptr, indices, slots = mesh.pattern
    data = np.bincount(slots.ravel(), weights=local.ravel(), minlength=indices.size)
    return csr_matrix((data, indices, indptr), shape=(mesh.nvertices, mesh.nvertices))


def _consistent_mass(mesh: SphereMesh, face_weight: np.ndarray) -> csr_matrix:
    """P1 mass matrix with a constant weight per face: the face area for the
    plain mass, area times a mean vertex weight for a weighted one."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return scatter_p1(mesh, face_weight[:, None, None] * local[None])


@cache
def _icosphere_mesh(level: int) -> SphereMesh:
    q, faces = icosphere(level)
    return SphereMesh(q, faces, level)


def build_graph(
    s0: float,
    perturbations=(),
    level: int = 4,
    axis: np.ndarray | None = None,
    mesh: SphereMesh | None = None,
    jets: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> GraphSurface:
    """Build the graph surface with height s0 + sum of harmonic perturbations.

    ``perturbations`` is a sequence of (l, m, amplitude).  The surface is
    sampled over ``mesh`` as given, without validation, or by default over
    the process's shared icosphere of ``level``.  It must be spacelike at
    every vertex; otherwise construction fails naming the worst vertex.

    Two stages: the height's jets at the mesh points, then ``_graph_from_jets``;
    ``jets`` given (a flow snapshot's) replaces the first.
    """
    height = HarmonicField(constant=float(s0), terms=tuple(perturbations))
    axis = _default_axis() if axis is None else np.asarray(axis, dtype=float)
    spec = ConformalFieldSpec(a=axis)
    mesh = _icosphere_mesh(level) if mesh is None else mesh
    return _graph_from_jets(height, spec, mesh, height.jets(mesh.q) if jets is None else jets)


def _graph_from_jets(height: HarmonicField, spec: ConformalFieldSpec, mesh: SphereMesh, jets) -> GraphSurface:
    """The graph surface from its height's jets (u, grad u, Hess u) at the
    mesh points: pointwise geometry, then face areas and lumped weights."""
    frame_map = orthonormal_completion(spec.a)
    q, faces = mesh.q, mesh.faces
    u, g, hs = jets
    with np.errstate(over="ignore", invalid="ignore"):   # the check below reports an overflow
        phi = np.cosh(u)
        sinh_u = np.sinh(u)
        gnorm2 = np.einsum("vi,vi->v", g, g)
        margin = phi * phi - gnorm2
    if not ((margin > 0) & (margin < np.inf)).all():    # a NaN fails too
        worst = int(np.argmin(np.where(np.isfinite(margin), margin, -np.inf)))
        if np.isfinite(margin[worst]):
            why = f"|grad u| = {np.sqrt(gnorm2[worst]):.6g} >= cosh(u) = {phi[worst]:.6g}"
        else:
            why = "the metric is not finite"
        raise GraphConstructionError(
            f"surface is not spacelike at vertex {worst}: {why}", vertex=worst
        )
    metric_ratio = float(np.max(phi * phi / margin))

    w1, w2 = mesh.frames
    u1 = np.einsum("vi,vi->v", g, w1)
    u2 = np.einsum("vi,vi->v", g, w2)
    h = np.empty((q.shape[0], 2, 2))                  # Hessian in the (w1, w2) frame
    h[:, 0, 0] = np.einsum("vi,vij,vj->v", w1, hs, w1)
    h[:, 0, 1] = h[:, 1, 0] = np.einsum("vi,vij,vj->v", w1, hs, w2)
    h[:, 1, 1] = np.einsum("vi,vij,vj->v", w2, hs, w2)

    v = q.shape[0]
    alpha = phi / np.sqrt(margin)
    tanh_u = sinh_u / phi

    def chart_vec(spatial: np.ndarray, time: np.ndarray) -> np.ndarray:
        return np.concatenate([spatial, time[:, None]], axis=1)

    x1 = chart_vec(sinh_u[:, None] * u1[:, None] * q + phi[:, None] * w1, phi * u1)
    x2 = chart_vec(sinh_u[:, None] * u2[:, None] * q + phi[:, None] * w2, phi * u2)
    normal_can = alpha[:, None] * chart_vec(sinh_u[:, None] * q + g / phi[:, None], phi)
    verts_can = chart_vec(phi[:, None] * q, sinh_u)

    # induced metric and second fundamental form in the (w1, w2) chart frame
    g11m = phi * phi - u1 * u1
    g12m = -u1 * u2
    g22m = phi * phi - u2 * u2
    b00 = alpha * (-h[:, 0, 0] - sinh_u * phi + 2.0 * tanh_u * u1 * u1)
    b01 = alpha * (-h[:, 0, 1] + 2.0 * tanh_u * u1 * u2)
    b11 = alpha * (-h[:, 1, 1] - sinh_u * phi + 2.0 * tanh_u * u2 * u2)

    l11 = np.sqrt(g11m)
    l21 = g12m / l11
    l22 = np.sqrt(g22m - l21 * l21)
    # A = L^-1 B L^-T in the orthonormalized frame and E = [X1, X2] L^-T,
    # with L^-1 = [[i00, 0], [i10, i11]] lower triangular
    i00, i10, i11 = 1.0 / l11, -l21 / (l11 * l22), 1.0 / l22
    shape = np.empty((v, 2, 2))
    shape[:, 0, 0] = i00 * i00 * b00
    shape[:, 0, 1] = shape[:, 1, 0] = i00 * (i10 * b00 + i11 * b01)
    shape[:, 1, 1] = i10 * (i10 * b00 + i11 * b01) + i11 * (i10 * b01 + i11 * b11)
    frame_can = np.stack([i00[:, None] * x1, i10[:, None] * x1 + i11[:, None] * x2], axis=2)

    # carry everything to ambient coordinates of the requested axis
    verts = verts_can @ frame_map.T
    normal = normal_can @ frame_map.T
    frame = frame_map @ frame_can

    eigs = batched_eigvalsh2(shape)
    sigma = batched_elementary(eigs)
    mean = sigma * np.array([1.0, -0.5, 1.0])[None, :]

    face_area = _face_areas(verts, faces)
    weights = np.bincount(faces.ravel(), weights=np.repeat(face_area / 3.0, 3), minlength=v)

    cache = GeometryCache(
        vertices=verts, normal=normal, frame=frame, shape=shape, shape_eigs=eigs, sigma=sigma, mean=mean,
        weights=weights, area=float(weights.sum()), face_area=face_area, mesh=mesh, metric_ratio=metric_ratio,
    )
    return GraphSurface(height=height, axis=spec, mesh=mesh, cache=cache)


def build_slice(s0: float, level: int = 4, axis: np.ndarray | None = None) -> GraphSurface:
    """Totally umbilical slice at height s0: the unperturbed graph, A = -tanh(s0) I."""
    return build_graph(s0, (), level=level, axis=axis)


def support_function(surface: GraphSurface, spec: ConformalFieldSpec | KillingFieldSpec) -> np.ndarray:
    """Normal component of the ambient field along the surface, per vertex."""
    return mdot(ambient_field(spec, surface.cache.vertices), surface.cache.normal)


def tangential_gradient(surface: GraphSurface, values: np.ndarray) -> np.ndarray:
    """Piecewise-linear surface gradient of a vertex field, averaged onto
    vertices, as ambient tangent vectors (V, 4)."""
    cache = surface.cache
    faces = surface.mesh.faces
    grad = _hat_gradients(cache.vertices, faces)
    v0 = values[faces[:, 0]]
    grad_face = grad[0] * (values[faces[:, 1]] - v0)    # (4, F)
    grad_face += grad[1] * (values[faces[:, 2]] - v0)
    # area-weighted sums over the faces at each vertex; the corner-major index
    # adds in the order of three np.add.at passes, one per corner
    nv = values.shape[0]
    idx = faces.T.ravel()
    w = cache.face_area
    grad_face *= w
    wacc = np.bincount(idx, weights=np.tile(w, 3), minlength=nv)
    acc = np.stack([np.bincount(idx, weights=np.tile(grad_face[i], 3), minlength=nv)
                    for i in range(4)], axis=1)
    acc /= wacc[:, None]
    j = np.diag(minkowski_metric(4))
    comps = np.einsum("vi,via->va", acc * j, cache.frame)
    return np.einsum("via,va->vi", cache.frame, comps)

