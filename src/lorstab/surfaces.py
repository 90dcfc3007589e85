"""Closed spacelike surfaces in the unit hyperquadric.

Height graphs over the unit 2-sphere; a totally umbilical slice of the
warped chart is the graph of a constant height, with no perturbation.  The
first and second fundamental data are computed analytically from the
harmonic height expansion and sampled at the vertices of a shared
``SphereMesh`` (by default one per icosphere level), which only carries
integration and finite elements.

Conventions fixed here and relied on everywhere else:
  * the ambient is R^4 with the Lorentz inner product ``mdot``,
    v1 w1 + v2 w2 + v3 w3 - v4 w4 (``SIGNATURE`` is its diagonal), and de
    Sitter space is the hyperquadric <p,p> = 1;
  * the closed conformal field is V(p) = e4 + p4 p, the field
    a - <p,a> p about the axis a = e4 = (0, 0, 0, 1), with conformal factor
    psi = p4; the chart coordinates of a surface are its ambient
    coordinates.  This loses no generality: every unit timelike axis a is
    carried to e4 by an isometry of de Sitter space;
  * the Killing field whose support function the Killing check tests is the
    boost W(p) = <e1,p> e4 - <e4,p> e1 = p4 e1 + p1 e4.  On the slice at
    height s0 its support function is -q1, an l = 1 eigenfunction at the
    comparison constant.  That is all a slice can show: the rotations of
    e1, e2, e3 fix e4, are tangent to every slice (support function zero)
    and carry e1^e4 to every other boost;
  * the unit normal N is future-pointing (<N, e4> = -N4 is negative);
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
# validate_closed_oriented has no caller here: it stays bound for the
# mesh.validate layer of perfbench/tracer.py, which rebinds this name
from .mesh import SphereMesh, icosphere, validate_closed_oriented  # noqa: F401

__all__ = [
    "SIGNATURE",
    "mdot",
    "GraphConstructionError",
    "GraphSurface",
    "build_slice",
    "build_graph",
    "tangential_gradient",
    "scatter_p1",
]

# the diagonal of the ambient metric of R^4, timelike last coordinate
SIGNATURE = np.array([1.0, 1.0, 1.0, -1.0])
SIGNATURE.flags.writeable = False


def mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lorentz inner product v1 w1 + v2 w2 + v3 w3 - v4 w4 along the last axis."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3]


class GraphConstructionError(ValueError):
    """Construction failed; carries the worst offending vertex."""

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


@dataclass
class GraphSurface:
    """Height graph over the unit 2-sphere in the hyperquadric, with its geometric data.

    The data are computed when the surface is built.  ``mass`` (from
    ``face_area`` and the mesh) and ``jets`` (the height's, which a
    variation's flow reads from its base) are computed the first time they
    are read and kept from then on; the flow snapshots of a variation read
    only ``sigma`` and ``weights``, and never pay for them.  ``_memo`` holds
    the discretized operators, keyed by order, that ``fem.assemble`` builds.
    ``weights`` are the per-vertex sums of face_area / 3, which are the row
    sums of ``mass`` up to rounding.
    Hat-function gradients are not kept: ``_hat_gradients`` computes them
    where they are read, a block of faces at a time in assembly, which keeps
    the peak memory of a level-6 run lower.
    """

    height: HarmonicField
    mesh: SphereMesh
    vertices: np.ndarray          # (V, 4) ambient positions
    normal: np.ndarray            # (V, 4) future unit normals
    frame: np.ndarray             # (V, 4, 2) orthonormal tangent frames
    shape: np.ndarray             # (V, 2, 2) shape operator in the frame
    shape_eigs: np.ndarray        # (V, 2) principal curvatures
    sigma: np.ndarray             # (V, 3) elementary symmetric values
    mean: np.ndarray              # (V, 3) normalized mean curvatures
    boost_support: np.ndarray     # (V,) <W, N> of the boost W = p4 e1 + p1 e4
    weights: np.ndarray           # (V,) lumped area weights
    area: float
    face_area: np.ndarray         # (F,)
    metric_ratio: float           # max induced-metric anisotropy over vertices
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def s0(self) -> float:
        return self.height.constant

    @property
    def is_slice(self) -> bool:
        return not self.height.terms

    @cached_property
    def mass(self):
        """Consistent P1 mass matrix (scipy CSR) on the mesh's ``pattern``."""
        return _consistent_mass(self.mesh, self.face_area)

    @cached_property
    def jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The height's value, sphere gradient and sphere Hessian at the mesh points."""
        return self.height.jets(self.mesh.q)


def _face_edges(vertices: np.ndarray, faces: np.ndarray):
    """Edge vectors e1 = v1 - v0, e2 = v2 - v0 of every face, as (F, 4)
    arrays, and their Lorentz products g11, g12, g22.  ``np.take`` gathers
    rows several times faster than fancy indexing."""
    p0 = np.take(vertices, faces[:, 0], axis=0)
    e1 = np.take(vertices, faces[:, 1], axis=0) - p0
    e2 = np.take(vertices, faces[:, 2], axis=0) - p0
    return e1, e2, mdot(e1, e1), mdot(e1, e2), mdot(e2, e2)


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
    level: int | None = None,
    mesh: SphereMesh | None = None,
    jets: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> GraphSurface:
    """Build the graph surface with height s0 + sum of harmonic perturbations.

    ``perturbations`` is a sequence of (l, m, amplitude).  The surface is
    sampled over ``mesh`` as given, without validation, or else over the
    process's shared icosphere of ``level``; one of the two is required.  It
    must be spacelike at every vertex; otherwise construction fails naming
    the worst vertex.

    Two stages: the height's jets at the mesh points, then ``_graph_from_jets``;
    ``jets`` given (a flow snapshot's) replaces the first.
    """
    height = HarmonicField(constant=float(s0), terms=tuple(perturbations))
    if mesh is None:
        if level is None:
            raise TypeError("build_graph needs a mesh or a level")
        mesh = _icosphere_mesh(level)
    return _graph_from_jets(height, mesh, height.jets(mesh.q) if jets is None else jets)


def _graph_from_jets(height: HarmonicField, mesh: SphereMesh, jets) -> GraphSurface:
    """The graph surface from its height's jets (u, grad u, Hess u) at the
    mesh points: pointwise geometry, then face areas and lumped weights."""
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
    # p4 N1 - p1 N4 in the chart, without its two terms of size cosh(u)^2
    boost_support = alpha * (tanh_u * g[:, 0] - q[:, 0])

    def chart_vec(spatial: np.ndarray, time: np.ndarray) -> np.ndarray:
        return np.concatenate([spatial, time[:, None]], axis=1)

    x1 = chart_vec(sinh_u[:, None] * u1[:, None] * q + phi[:, None] * w1, phi * u1)
    x2 = chart_vec(sinh_u[:, None] * u2[:, None] * q + phi[:, None] * w2, phi * u2)
    normal = alpha[:, None] * chart_vec(sinh_u[:, None] * q + g / phi[:, None], phi)
    verts = chart_vec(phi[:, None] * q, sinh_u)

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
    frame = np.stack([i00[:, None] * x1, i10[:, None] * x1 + i11[:, None] * x2], axis=2)

    eigs = batched_eigvalsh2(shape)
    sigma = batched_elementary(eigs)
    mean = sigma * np.array([1.0, -0.5, 1.0])[None, :]

    face_area = _face_areas(verts, faces)
    weights = np.bincount(faces.ravel(), weights=np.repeat(face_area / 3.0, 3), minlength=v)

    return GraphSurface(
        height=height, mesh=mesh, vertices=verts, normal=normal, frame=frame, shape=shape, shape_eigs=eigs,
        sigma=sigma, mean=mean, boost_support=boost_support, weights=weights, area=float(weights.sum()),
        face_area=face_area, metric_ratio=metric_ratio,
    )


def build_slice(s0: float, level: int) -> GraphSurface:
    """Totally umbilical slice at height s0: the unperturbed graph, A = -tanh(s0) I."""
    return build_graph(s0, (), level=level)


def tangential_gradient(surface: GraphSurface, values: np.ndarray) -> np.ndarray:
    """Piecewise-linear surface gradient of a vertex field, averaged onto
    vertices, as ambient tangent vectors (V, 4)."""
    faces = surface.mesh.faces
    grad = _hat_gradients(surface.vertices, faces)
    v0 = values[faces[:, 0]]
    grad_face = grad[0] * (values[faces[:, 1]] - v0)    # (4, F)
    grad_face += grad[1] * (values[faces[:, 2]] - v0)
    # area-weighted sums over the faces at each vertex; the corner-major index
    # adds in the order of three np.add.at passes, one per corner
    nv = values.shape[0]
    idx = faces.T.ravel()
    w = surface.face_area
    grad_face *= w
    wacc = np.bincount(idx, weights=np.tile(w, 3), minlength=nv)
    acc = np.stack([np.bincount(idx, weights=np.tile(grad_face[i], 3), minlength=nv)
                    for i in range(4)], axis=1)
    acc /= wacc[:, None]
    comps = np.einsum("vi,via->va", acc * SIGNATURE, surface.frame)
    return np.einsum("via,va->vi", surface.frame, comps)

