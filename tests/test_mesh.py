"""Icosphere generation, the shared sphere mesh, and mesh validation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorstab.mesh import (
    SphereMesh,
    icosphere,
    nested_dissection,
    validate_closed_oriented,
)
from oracles import icosphere_reference, nested_dissection_reference, validate_closed_oriented_reference

EDGE = re.compile(r"\((\d+), (\d+)\)")
CATEGORIES = ("orientation", "watertight", "out of range")


def outcome(validate, faces, nvertices):
    """(category, message) of the error ``validate`` raises, or (None, None)."""
    try:
        validate(faces, nvertices)
    except ValueError as err:
        message = str(err)
        return next(c for c in CATEGORIES if c in message), message
    return None, None


def corrupt(faces, nvertices, ops):
    """Apply (kind, position, value) corruptions in order to a copy of faces."""
    faces = faces.copy()
    for kind, position, value in ops:
        k = position % faces.shape[0]
        if kind == "flip":
            faces[k] = faces[k][::-1]
        elif kind == "rotate":      # a cyclic shift keeps the mesh valid
            faces[k] = np.roll(faces[k], 1)
        elif kind == "drop":
            faces = np.delete(faces, k, axis=0)
        elif kind == "duplicate":
            faces = np.insert(faces, k, faces[k], axis=0)
        else:                       # "range": an index off either end
            faces[k, value % 3] = -1 if value < 0 else nvertices + value
        if not faces.shape[0]:
            break
    return faces


class TestIcosphere:
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_counts(self, level):
        pts, faces = icosphere(level)
        assert pts.shape[0] == 10 * 4**level + 2
        assert faces.shape[0] == 20 * 4**level

    def test_unit_points(self):
        pts, _ = icosphere(3)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-14

    def test_watertight_oriented(self):
        pts, faces = icosphere(2)
        validate_closed_oriented(faces, pts.shape[0])

    def test_outward_orientation(self):
        pts, faces = icosphere(2)
        p0, p1, p2 = pts[faces[:, 0]], pts[faces[:, 1]], pts[faces[:, 2]]
        triple = np.einsum("fi,fi->f", np.cross(p1 - p0, p2 - p0), p0)
        assert (triple > 0).all()

    def test_antipodal_symmetry(self):
        pts, _ = icosphere(3)
        forward = {tuple(np.round(p, 12)) for p in pts}
        backward = {tuple(np.round(-p, 12)) for p in pts}
        assert forward == backward

    def test_negative_level(self):
        with pytest.raises(ValueError):
            icosphere(-1)

    def test_returns_fresh_writable_arrays(self):
        # the validation property tests corrupt icosphere output in place
        pts, faces = icosphere(2)
        again, _ = icosphere(2)
        assert pts.flags.writeable and faces.flags.writeable
        assert not np.shares_memory(pts, again)


    @pytest.mark.parametrize("level", range(7))
    def test_matches_one_face_at_a_time_oracle(self, level):
        pts, faces = icosphere(level)
        want_pts, want_faces = icosphere_reference(level)
        assert np.array_equal(pts, want_pts)
        assert np.array_equal(faces, want_faces)


class TestNestedDissection:
    @pytest.mark.parametrize("level", range(7))
    def test_permutation(self, level):
        pts, faces = icosphere(level)
        order = nested_dissection(pts, faces)
        assert np.array_equal(np.sort(order), np.arange(pts.shape[0]))

    def test_deterministic(self):
        pts, faces = icosphere(4)
        assert np.array_equal(nested_dissection(pts, faces), nested_dissection(pts, faces))

    @pytest.mark.parametrize("level", range(7))
    def test_matches_reference(self, level):
        pts, faces = icosphere(level)
        assert np.array_equal(nested_dissection(pts, faces), nested_dissection_reference(pts, faces))

    def test_jittered_matches_reference(self):
        pts, faces = icosphere(3)
        pts = pts + 1e-3 * np.random.default_rng(2).standard_normal(pts.shape)
        assert np.array_equal(nested_dissection(pts, faces), nested_dissection_reference(pts, faces))


class TestValidation:
    def test_flipped_face_detected(self):
        pts, faces = icosphere(0)
        bad = faces.copy()
        bad[0] = bad[0][::-1]
        with pytest.raises(ValueError, match="orientation"):
            validate_closed_oriented(bad, pts.shape[0])

    def test_open_mesh_detected(self):
        pts, faces = icosphere(0)
        with pytest.raises(ValueError, match="watertight"):
            validate_closed_oriented(faces[:-1], pts.shape[0])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_closed_oriented(np.array([[0, 1, 99]]), 3)

    def test_messages_name_edges_as_plain_ints(self):
        pts, faces = icosphere(2)
        flipped = faces.copy()
        flipped[7] = flipped[7][::-1]
        for bad, category in ((flipped, "orientation"), (faces[1:], "watertight")):
            with pytest.raises(ValueError, match=category) as err:
                validate_closed_oriented(bad, pts.shape[0])
            found = EDGE.search(str(err.value))
            assert found, str(err.value)
            i, j = int(found[1]), int(found[2])
            directed = [tuple(int(x) for x in e) for f in bad for e in zip(f, np.roll(f, -1))]
            assert (i, j) in directed
            if category == "orientation":
                assert directed.count((i, j)) == 2
            else:
                assert (j, i) not in directed

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2),
        st.lists(
            st.tuples(
                st.sampled_from(["flip", "rotate", "drop", "duplicate", "range"]),
                st.integers(0, 10**6),
                st.integers(-3, 3),
            ),
            max_size=4,
        ),
    )
    def test_matches_set_based_oracle(self, level, ops):
        pts, faces = icosphere(level)
        nv = pts.shape[0]
        bad = corrupt(faces, nv, ops)
        got = outcome(validate_closed_oriented, bad, nv)
        want = outcome(validate_closed_oriented_reference, bad, nv)
        assert got[0] == want[0]
        if got[0] in ("orientation", "out of range"):
            # both name the first duplicated directed edge in face order
            assert got[1] == want[1]


class TestSphereMesh:
    def test_arrays_read_only(self):
        pts, faces = icosphere(2)
        mesh = SphereMesh(pts, faces, 2)
        w1, _ = mesh.frames
        for array in (mesh.q, mesh.faces, w1, mesh.order, *mesh.pattern):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_frames_and_order_computed_once(self):
        pts, faces = icosphere(2)
        mesh = SphereMesh(pts, faces, 2)
        assert mesh.frames is mesh.frames
        assert mesh.order is mesh.order
        assert np.array_equal(mesh.order, nested_dissection(pts, faces))
        assert mesh.nvertices == pts.shape[0]

    @pytest.mark.parametrize("level", [0, 3])
    def test_pattern_slots_address_face_entries(self, level):
        pts, faces = icosphere(level)
        mesh = SphereMesh(pts, faces, level)
        assert mesh.pattern is mesh.pattern
        indptr, indices, slots = mesh.pattern
        assert slots.dtype == np.int32 and slots.shape == (faces.shape[0], 3, 3)
        rows = np.repeat(np.arange(mesh.nvertices), np.diff(indptr))
        assert np.array_equal(rows[slots], np.broadcast_to(faces[:, :, None], slots.shape))
        assert np.array_equal(indices[slots], np.broadcast_to(faces[:, None, :], slots.shape))
        # every vertex and its neighbours, each once: 7V - 12 entries on a closed mesh
        assert indices.size == np.unique(slots).size == 7 * mesh.nvertices - 12
        assert np.all(np.diff(indices)[np.diff(rows) == 0] > 0)

    @pytest.mark.parametrize("level", [0, 3, 6])
    def test_frames_orthonormal_tangent(self, level):
        pts, faces = icosphere(level)
        w1, w2 = SphereMesh(pts, faces, level).frames
        for a, b, want in ((w1, w1, 1.0), (w2, w2, 1.0), (w1, w2, 0.0), (w1, pts, 0.0), (w2, pts, 0.0)):
            assert np.abs(np.einsum("vi,vi->v", a, b) - want).max() < 1e-13

    def test_frames_at_axis_directions(self):
        # every axis pair degenerates somewhere on the coordinate circles;
        # the fallback still gives each unit direction a frame
        q = np.concatenate([np.eye(3), -np.eye(3), np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                                              [1.0, 0.0, 1.0]]) / np.sqrt(2.0)])
        w1, w2 = SphereMesh(q, np.zeros((0, 3), dtype=int)).frames
        assert np.abs(np.linalg.norm(w1, axis=1) - 1.0).max() < 1e-15
        assert np.abs(np.linalg.norm(w2, axis=1) - 1.0).max() < 1e-15
        assert np.abs(np.einsum("vi,vi->v", w1, q)).max() < 1e-15
        assert np.abs(np.einsum("vi,vi->v", w2, q)).max() < 1e-15
