"""Triangulated unit spheres: icosphere generation and validation.

A ``SphereMesh`` holds the directions and faces surfaces are sampled over,
and computes the sphere's tangent frames, nested-dissection order and P1
sparsity pattern at most once for all surfaces on it.  The icosphere ladder
(levels 3..6 in practice) is the only generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SphereMesh",
    "icosphere",
    "nested_dissection",
    "validate_closed_oriented",
]

_LEAF = 32   # largest part nested_dissection leaves unsplit
_FRAME_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SphereMesh:
    """Unit directions ``q`` (V, 3) and outward-oriented ``faces`` (F, 3) of a
    valid sphere triangulation (not checked here); ``level`` is the icosphere
    depth, None for a mesh built from given points.  It makes its arrays
    read-only, to be shared.

    Computed on first read and kept: the tangent ``frames``, the
    fill-reducing ``order`` and the P1 sparsity ``pattern``, which every
    stiffness and mass matrix on the mesh shares.
    """

    q: np.ndarray
    faces: np.ndarray
    level: int | None = None

    def __post_init__(self):
        self.q.flags.writeable = self.faces.flags.writeable = False

    @property
    def nvertices(self) -> int:
        return self.q.shape[0]

    @cached_property
    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal tangent frames (w1, w2) of the sphere at each direction."""
        w1, w2 = _sphere_frames(self.q)
        w1.flags.writeable = w2.flags.writeable = False
        return w1, w2

    @cached_property
    def order(self) -> np.ndarray:
        """Fill-reducing elimination order of the vertices (``nested_dissection``)."""
        order = nested_dissection(self.q, self.faces)
        order.flags.writeable = False
        return order

    @cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``indptr`` and ``indices`` of the vertex-adjacency pattern (every
        vertex with itself and its edge neighbours), and ``slots`` (F, 3, 3): the
        position in ``indices`` of entry (faces[f, a], faces[f, b]), as int32."""
        nv = self.nvertices
        faces = self.faces.astype(np.int64)
        keys = (faces[:, :, None] * nv + faces[:, None, :]).ravel()
        entries, slots = np.unique(keys, return_inverse=True)
        indptr = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(np.bincount(entries // nv, minlength=nv), out=indptr[1:])
        indices = (entries % nv).astype(np.int32)
        arrays = (indptr, indices, slots.astype(np.int32).reshape(faces.shape + (3,)))
        for array in arrays:
            array.flags.writeable = False
        return arrays


def _sphere_frames(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent frames on the unit sphere from projected fixed axis
    pairs, falling back to the next pair near degeneracy.  Pair (i, j) is
    degenerate only where |q_i| ~ 1 or q_k ~ 0 (k the third axis), so the pair
    whose k has the largest |q_k| qualifies at every unit direction."""
    v = q.shape[0]
    w1 = np.zeros((v, 3))
    w2 = np.zeros((v, 3))
    done = np.zeros(v, dtype=bool)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        todo = ~done
        cand1 = -q[todo, i : i + 1] * q[todo]
        cand1[:, i] += 1.0
        n1 = np.linalg.norm(cand1, axis=1)
        cand2 = -q[todo, j : j + 1] * q[todo]
        cand2[:, j] += 1.0
        safe1 = n1 >= _FRAME_TOL
        cand1[safe1] /= n1[safe1, None]
        cand2 -= np.einsum("vi,vi->v", cand2, cand1)[:, None] * cand1
        n2 = np.linalg.norm(cand2, axis=1)
        ok = safe1 & (n2 >= _FRAME_TOL)
        cand2[ok] /= n2[ok, None]
        idx = np.flatnonzero(todo)[ok]
        w1[idx] = cand1[ok]
        w2[idx] = cand2[ok]
        done[idx] = True
    return w1, w2


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    r = (1.0 + np.sqrt(5.0)) / 2.0
    pts = np.array(
        [
            [-1.0, r, 0.0], [1.0, r, 0.0], [-1.0, -r, 0.0], [1.0, -r, 0.0],
            [0.0, -1.0, r], [0.0, 1.0, r], [0.0, -1.0, -r], [0.0, 1.0, -r],
            [r, 0.0, -1.0], [r, 0.0, 1.0], [-r, 0.0, -1.0], [-r, 0.0, 1.0],
        ]
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ]
    )
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts, faces


def icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere points (V, 3) and outward-oriented faces for 10*4^level + 2 vertices.

    Each subdivision splits every face (a, b, c) into (a, ab, ca), (b, bc, ab),
    (c, ca, bc) and (ab, bc, ca), all faces at once.  An edge is keyed by
    min * V + max of its ends; midpoints are appended in the order their edges
    are first met along (a, b), (b, c), (c, a), face by face, and scaled by
    1 / sqrt(m . m), so the points equal the one-face-at-a-time construction
    bit for bit.
    """
    if level < 0:
        raise ValueError("subdivision level must be nonnegative")
    pts, faces = _icosahedron()
    for _ in range(level):
        nv = pts.shape[0]
        tails, heads = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
        keys = np.minimum(tails, heads) * np.int64(nv) + np.maximum(tails, heads)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        met = np.argsort(first)                  # edges in first-encounter order
        number = np.empty_like(met)
        number[met] = np.arange(nv, nv + met.size)
        ab, bc, ca = number[inverse].reshape(-1, 3).T
        m = pts[tails[first[met]]] + pts[heads[first[met]]]
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        pts = np.concatenate([pts, m])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    # enforce outward orientation (positive triple product for a convex body)
    p0, p1, p2 = pts[faces[:, 0]], pts[faces[:, 1]], pts[faces[:, 2]]
    flip = np.einsum("fi,fi->f", np.cross(p1 - p0, p2 - p0), p0) < 0
    faces[flip] = faces[flip][:, ::-1]
    return pts, faces


def nested_dissection(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Fill-reducing elimination order of the mesh vertices (George 1973).

    Recursive median bisection: every part with more than ``_LEAF`` vertices
    is split at the median of its widest coordinate axis, and the vertices of
    the lower half that share an edge with the upper half become the
    separator.  A separator is numbered after both halves it separates, so
    the order is the post-order of the bisection tree.  All parts of one
    level are split together.  Returns ``order``, a permutation of
    ``range(V)``: vertex ``order[i]`` is eliminated i-th.
    """
    nv = points.shape[0]
    tails, heads = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    coords = np.ascontiguousarray(points.T)
    # rank[a, v]: position of v in the stable sort of coordinate a, so that
    # ordering by rank is ordering by coordinate with ties by vertex index
    rank = np.empty((3, nv), dtype=np.int64)
    rank[np.arange(3)[:, None], np.argsort(coords, axis=1, kind="stable")] = np.arange(nv)
    part = np.zeros(nv, dtype=np.int64)     # node of the tree at the current depth
    depth = np.zeros(nv, dtype=np.int64)    # depth of the node holding the vertex
    active = np.ones(nv, dtype=bool)        # not yet in a separator
    split = np.arange(nv)                   # vertices of the parts to split, grouped by part
    height = 0
    while True:
        big = np.bincount(part[active], minlength=1 << height) > _LEAF
        split = split[active[split] & big[part[split]]]
        if not split.size:
            break
        starts = np.flatnonzero(np.diff(part[split], prepend=-1))
        sizes = np.diff(starts, append=split.size)
        gathered = coords[:, split]
        extent = np.maximum.reduceat(gathered, starts, axis=1) - np.minimum.reduceat(gathered, starts, axis=1)
        seg = np.repeat(np.arange(starts.size), sizes)
        split = split[np.argsort(seg * nv + rank[np.argmax(extent, axis=0)[seg], split])]
        upper = np.zeros(nv, dtype=bool)
        upper[split[np.arange(split.size) - starts[seg] >= sizes[seg] // 2]] = True
        lower = np.zeros(nv, dtype=bool)
        lower[split] = ~upper[split]
        separator = np.concatenate(
            [tails[lower[tails] & upper[heads]], heads[lower[heads] & upper[tails]]]
        )
        active[separator] = False
        depth[active] = height + 1
        part[active] = 2 * part[active] + upper[active]
        height += 1
    # post-order key: a node's path padded with ones to the full depth, then
    # deeper nodes first, so a node follows the last leaf below it
    below = height - depth
    key = ((part << below) | ((1 << below) - 1)) * (height + 1) + below
    return np.argsort(key, kind="stable")


def validate_closed_oriented(faces: np.ndarray, nvertices: int) -> None:
    """Raise unless every undirected edge is shared by exactly two faces with
    opposite directions (watertight, consistently oriented).

    Directed edges (a, b), (b, c), (c, a) of each face are encoded as int64
    keys a * nvertices + b and sorted once: an equal neighbour is a directed
    edge used twice (inconsistent orientation), and a reverse key missing
    from the sorted list is a boundary or non-manifold edge.  Each error
    names the first offending edge in face order.
    """
    if faces.size and (faces.min() < 0 or faces.max() >= nvertices):
        raise ValueError("face index out of range")
    corners = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if not corners.size:
        return
    tails, heads = corners.ravel(), np.roll(corners, -1, axis=1).ravel()
    keys = tails * nvertices + heads
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        e = int(repeats.min())
        raise ValueError(
            f"duplicated directed edge ({int(tails[e])}, {int(heads[e])}): inconsistent orientation"
        )
    # keys are distinct here, and so are their reverses
    missing = np.flatnonzero(~np.isin(heads * nvertices + tails, keys, assume_unique=True))
    if missing.size:
        e = int(missing[0])
        raise ValueError(
            f"boundary or non-manifold edge ({int(tails[e])}, {int(heads[e])}): mesh is not watertight"
        )

