"""Triangulated unit spheres: icosphere generation and validation.

A ``SphereMesh`` holds the directions and faces surfaces are sampled over,
and computes the sphere's tangent frames, nested-dissection order and P1
sparsity pattern at most once for all surfaces on it.  The icosphere ladder
(levels 3..6 in practice) is the only generator.  A tangent frame comes
from one closed form at every unit direction, with no fallback or tolerance.

The nested-dissection separators cover the edges cut by a median split with
one end each, the end nearer the cut: a vertex cover of the cut edges, as
small as a minimum one on the icosphere (384 vertices against 448 for all
lower ends at level 6's first split), so the level-6 factor is smaller.
The mesh's sorts of integer keys are single ``np.sort`` calls over distinct
packed values (``_sort_packed``).
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


@dataclass(frozen=True, eq=False)
class SphereMesh:
    """Unit directions ``q`` (V, 3) and outward-oriented ``faces`` (F, 3) of a
    valid sphere triangulation (not checked here, but ``pattern`` raises on
    a directed edge that repeats or has no reverse); ``level`` is the depth of
    the icosphere the directions come from.  It makes its arrays read-only,
    to be shared.

    Computed on first read and kept: the right-handed tangent ``frames``
    (w1 from the least-aligned axis, w2 = q x w1), the fill-reducing
    ``order`` and the P1 sparsity ``pattern``, which every stiffness and
    mass matrix on the mesh shares.
    """

    q: np.ndarray
    faces: np.ndarray
    level: int

    def __post_init__(self):
        self.q.flags.writeable = self.faces.flags.writeable = False

    @property
    def nvertices(self) -> int:
        return self.q.shape[0]

    @cached_property
    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Right-handed orthonormal tangent frames (w1, w2) of the sphere at
        each direction q (Hughes & Moeller 1999): w1 is the axis e_k of the
        smallest |q_k|, the first on a tie, projected onto the tangent plane
        and normalized, and w2 = q x w1.  As q_k^2 <= 1/3, the projection
        e_k - q_k q has norm sqrt(1 - q_k^2) >= sqrt(2/3) at every unit q."""
        w1 = np.eye(3)[np.argmin(np.abs(self.q), axis=1)]      # e_k
        w1 -= np.einsum("vi,vi->v", w1, self.q)[:, None] * self.q
        w1 /= np.linalg.norm(w1, axis=1, keepdims=True)
        w2 = np.cross(self.q, w1)
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
        position in ``indices`` of entry (faces[f, a], faces[f, b]), as int32.

        The faces must be closed and consistently oriented, so that every
        undirected edge is listed once in each direction: the entries are then
        the 3F directed edges and the V diagonals, all distinct, and an entry
        (b, a) of a face is the directed edge (b, a) of its neighbour.  Raises
        ``ValueError`` naming a directed edge that repeats or has no reverse.
        """
        nv = self.nvertices
        faces = self.faces.astype(np.int64)
        tails, heads = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
        diagonal = np.arange(nv) * (nv + 1)
        forward = np.concatenate([tails * nv + heads, diagonal])
        order, entries = _sort_packed(forward)
        repeats = np.flatnonzero(entries[1:] == entries[:-1])
        if repeats.size:
            key = int(entries[repeats[0]])
            raise ValueError(f"directed edge ({key // nv}, {key % nv}) repeats: inconsistent orientation")
        reverse_order, reverse = _sort_packed(np.concatenate([heads * nv + tails, diagonal]))
        if not np.array_equal(reverse, entries):
            e = int(np.flatnonzero(~np.isin(heads * nv + tails, forward))[0])
            raise ValueError(f"directed edge ({int(tails[e])}, {int(heads[e])}) has no reverse: mesh is not watertight")
        slot = np.empty((2, forward.size), dtype=np.int32)
        slot[0, order] = slot[1, reverse_order] = np.arange(forward.size)
        edge, back = slot[:, : tails.size].reshape(2, -1, 3)
        slots = np.empty(faces.shape + (3,), dtype=np.int32)
        corner = np.arange(3)
        slots[:, corner, corner] = slot[0, tails.size :][faces]
        slots[:, corner, (corner + 1) % 3] = edge      # (a, b) along the face
        slots[:, (corner + 1) % 3, corner] = back      # (b, a): the reverse of (a, b)
        indptr = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(np.bincount(entries // nv, minlength=nv), out=indptr[1:])
        indices = (entries % nv).astype(np.int32)
        arrays = (indptr, indices, slots)
        for array in arrays:
            array.flags.writeable = False
        return arrays


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

    The 20 icosahedron faces are oriented outward (positive triple product)
    once.  Each subdivision splits every face (a, b, c) into (a, ab, ca),
    (b, bc, ab), (c, ca, bc) and (ab, bc, ca), all faces at once; each child
    keeps its parent's orientation.  An edge is keyed by min * V + max of its
    ends; midpoints are appended in the order their edges are first met along
    (a, b), (b, c), (c, a), face by face, and scaled by 1 / sqrt(m . m), so
    the points equal the one-face-at-a-time construction bit for bit.
    """
    if level < 0:
        raise ValueError("subdivision level must be nonnegative")
    pts, faces = _icosahedron()
    p0, p1, p2 = pts[faces[:, 0]], pts[faces[:, 1]], pts[faces[:, 2]]
    flip = np.einsum("fi,fi->f", np.cross(p1 - p0, p2 - p0), p0) < 0
    faces[flip] = faces[flip][:, ::-1]
    for _ in range(level):
        nv = pts.shape[0]
        tails, heads = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
        order, keys = _sort_packed(np.minimum(tails, heads) * np.int64(nv) + np.maximum(tails, heads))
        new = np.ones(keys.size, dtype=bool)     # sorted position starts an edge
        new[1:] = keys[1:] != keys[:-1]
        first = np.zeros(keys.size, dtype=bool)  # face edge is its edge's first encounter
        first[order[new]] = True
        met = np.flatnonzero(first)              # edges in first-encounter order
        label = nv - 1 + np.cumsum(first)        # at a first encounter, its midpoint's number
        number = np.empty_like(label)
        number[order] = label[order[new]][np.cumsum(new) - 1]
        ab, bc, ca = number.reshape(-1, 3).T
        m = pts[tails[met]] + pts[heads[met]]
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        pts = np.concatenate([pts, m])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return pts, faces


def _sort_packed(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort and sorted values of nonnegative integer ``keys``, from
    one ``np.sort`` of the distinct values (key << b) | index, b the bits of
    the largest index.  Raises ``ValueError`` if those need more than 63 bits."""
    n = keys.size
    shift = max(n - 1, 0).bit_length()
    if n and int(keys.max()).bit_length() + shift > 63:
        raise ValueError(f"keys up to {int(keys.max())} with {n} indices do not pack into 63 bits")
    packed = np.sort((keys.astype(np.int64, copy=False) << shift) | np.arange(n))
    return packed & ((1 << shift) - 1), packed >> shift


def nested_dissection(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Fill-reducing elimination order of the vertices of a closed, oriented
    mesh (George 1973).

    Recursive median bisection: every part with more than ``_LEAF`` vertices
    is split at the median of its widest coordinate axis, and the part's cut
    is the midpoint between the last lower and the first upper coordinate on
    that axis.  Each edge joining the two halves puts into the separator the
    end whose coordinate is nearer the cut, the lower end on a tie, so every
    such edge loses an end and no edge joins what remains of the halves.  The
    mesh lists each undirected edge in both directions, so the edges from the
    lower half to the upper one are all of them.  A separator is numbered
    after both halves it separates, so the order is the post-order of the
    bisection tree.  All parts of one level are split together.  Returns
    ``order``, a permutation of ``range(V)``: vertex ``order[i]`` is
    eliminated i-th.
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
        axis = np.argmax(extent, axis=0)
        seg = np.repeat(np.arange(starts.size), sizes)
        split = split[_sort_packed(seg * nv + rank[axis[seg], split])[0]]
        mid = starts + sizes // 2               # position of each part's first upper vertex
        upper = np.zeros(nv, dtype=bool)
        upper[split[np.arange(split.size) >= mid[seg]]] = True
        lower = np.zeros(nv, dtype=bool)
        lower[split] = ~upper[split]
        # each vertex's coordinate on its part's axis, less the part's cut
        offset = np.zeros(nv)
        offset[split] = coords[axis[seg], split] - (
            0.5 * (coords[axis, split[mid - 1]] + coords[axis, split[mid]])
        )[seg]
        crossing = lower[tails] & upper[heads]
        low, high = tails[crossing], heads[crossing]
        separator = np.where(-offset[low] <= offset[high], low, high)   # the end nearer the cut
        active[separator] = False
        depth[active] = height + 1
        part[active] = 2 * part[active] + upper[active]
        height += 1
    # post-order key: a node's path padded with ones to the full depth, then
    # deeper nodes first, so a node follows the last leaf below it
    below = height - depth
    return _sort_packed(((part << below) | ((1 << below) - 1)) * (height + 1) + below)[0]


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

