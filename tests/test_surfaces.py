"""Slice and graph surface construction, fundamental forms, and fields."""

from math import comb

import numpy as np
import pytest

from lorstab.curvature import batched_elementary
from lorstab.fem import assemble, first_eigenvalue_meanzero
from lorstab.lorentz import KillingFieldSpec, ambient_field, mdot, minkowski_inner
from lorstab.mesh import SphereMesh, icosphere
from lorstab.stability import analyze
from lorstab.surfaces import (
    GraphConstructionError,
    _face_areas,
    _hat_gradients,
    build_graph,
    build_slice,
    support_function,
    scatter_p1,
    tangential_gradient,
)
from oracles import (
    SphericalHarmonic, scatter_p1_reference, shape_operator_mesh_estimate, slice_operator_eigenvalue,
    tangential_gradient_reference,
)

AXIS = np.array([0.0, 0.0, 0.0, 1.0])


class TestSliceClosedForms:
    """A slice is the unperturbed graph; its meshed data against the closed forms."""

    def test_umbilicity_and_curvatures(self, slice_mesh):
        cache = slice_mesh(1.0, 3).cache
        assert np.abs(cache.shape_eigs + np.tanh(1.0)).max() < 1e-12
        for r in range(3):
            assert cache.mean[:, r] == pytest.approx(np.tanh(1.0) ** r, rel=1e-12)
        # any n: C(n,r) H_r = (-1)^r sigma_r = C(n,r) tanh(s0)^r at A = -tanh(s0) I
        s = batched_elementary(np.full((1, 3), -np.tanh(1.0)))[0]
        for r in range(4):
            assert (-1.0) ** r * s[r] / comb(3, r) == pytest.approx(np.tanh(1.0) ** r, rel=1e-12)

    def test_equator_is_geodesic(self):
        assert np.abs(build_slice(0.0, level=3).cache.shape).max() == 0.0

    def test_reference_values(self, slice_mesh):
        mean = slice_mesh(1.0, 3).cache.mean
        assert mean[:, 1] == pytest.approx(0.76159, abs=1e-5)
        assert mean[:, 2] == pytest.approx(0.58002, abs=1e-5)

    def test_area_and_eigenvalues(self, slice_mesh):
        surf = slice_mesh(0.7, 4)
        assert surf.cache.area == pytest.approx(4 * np.pi * np.cosh(0.7) ** 2, rel=2e-3)
        assert slice_operator_eigenvalue(0.7, 0) == pytest.approx(2 / np.cosh(0.7) ** 2)
        assert slice_operator_eigenvalue(0.7, 1) == pytest.approx(2 * np.tanh(0.7) / np.cosh(0.7) ** 2)
        for r in (0, 1):
            lam = first_eigenvalue_meanzero(assemble(surf, r)).lambda1
            assert lam == pytest.approx(slice_operator_eigenvalue(0.7, r), rel=1e-3)


class TestMeshedSliceGeometry:
    def test_shape_operator_exact(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        want = -np.tanh(1.0) * np.eye(2)
        assert np.abs(surf.cache.shape - want).max() < 1e-12
        assert np.array_equal(surf.cache.shape, surf.cache.shape.transpose(0, 2, 1))
        assert surf.cache.shape[17] == pytest.approx(want, abs=1e-12)

    def test_cache_invariants(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        c = surf.cache
        assert np.abs(mdot(c.vertices, c.vertices) - 1.0).max() < 1e-12
        assert np.abs(mdot(c.normal, c.normal) + 1.0).max() < 1e-9
        for a in range(2):
            assert np.abs(mdot(c.normal, c.frame[:, :, a])).max() < 1e-9
            assert np.abs(mdot(c.frame[:, :, a], c.frame[:, :, a]) - 1.0).max() < 1e-9
        # future-pointing: negative product against the future cone generator
        assert (mdot(c.normal, np.broadcast_to(AXIS, c.normal.shape)) < 0).all()

    def test_area_converges_quadratically(self):
        exact = 4 * np.pi * np.cosh(1.0) ** 2
        errs = [
            abs(build_slice(1.0, level=level).cache.area - exact) / exact
            for level in (3, 4, 5)
        ]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert (orders > 1.9).all()

    def test_chronology_of_future_slice(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        assert (mdot(surf.cache.vertices, np.broadcast_to(AXIS, surf.cache.vertices.shape)) < 0).all()

    def test_h2_positive_off_equator(self, slice_mesh):
        assert slice_mesh(1.0, 3).cache.mean[:, 2].min() > 0

    def test_rotated_axis_equivariance(self):
        axis = np.array([0.3, -0.1, 0.2, 1.2])
        axis = axis / np.sqrt(-minkowski_inner(axis, axis))
        surf = build_slice(1.0, level=3, axis=axis)
        c = surf.cache
        assert np.abs(c.shape - (-np.tanh(1.0)) * np.eye(2)).max() < 1e-12
        assert np.abs(mdot(c.vertices, c.vertices) - 1.0).max() < 1e-12
        assert abs(c.area - 4 * np.pi * np.cosh(1.0) ** 2) / c.area < 5e-3
        eta = support_function(surf, surf.axis)
        assert np.abs(eta + np.cosh(1.0)).max() < 1e-9


class TestGraphConstruction:
    def test_zero_amplitude_matches_slice(self, slice_mesh):
        graph = build_graph(1.0, perturbations=(), level=3)
        assert graph.cache.vertices == pytest.approx(slice_mesh(1.0, 3).cache.vertices, abs=0)
        assert graph.is_slice

    def test_small_perturbation_is_spacelike(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 4)
        assert surf.cache.metric_ratio > 1.0
        assert surf.cache.metric_ratio < 1.01

    def test_large_amplitude_fails_with_vertex(self):
        with pytest.raises(GraphConstructionError, match="not spacelike at vertex") as err:
            build_graph(1.0, perturbations=((1, 1, 10.0),), level=3)
        assert err.value.vertex is not None

    def test_timelike_face_fails_with_vertex(self):
        # edge v1 - v0 of face 1 is timelike; its first vertex is named
        vertices = np.array([[0.0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2]])
        faces = np.array([[0, 1, 2], [2, 3, 1]])
        with pytest.raises(GraphConstructionError, match="face 1 is not spacelike") as err:
            _face_areas(vertices, faces)
        assert err.value.vertex == 2

    @pytest.mark.parametrize("s0", [200.0, 400.0, -800.0])
    def test_overflowing_metric_fails(self, s0):
        """cosh(200)^4 overflows the faces' metric determinant to inf - inf =
        nan, and cosh(400) the vertex metric itself: neither passes as
        spacelike."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(GraphConstructionError, match="metric is not finite") as err:
                build_graph(s0, level=3)
        assert err.value.vertex is not None

    def test_vertex_count_matches_level(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 4)
        assert surf.cache.vertices.shape[0] == 10 * 4**4 + 2

    def test_shape_eigenvalues_near_umbilic(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 4)
        assert np.abs(surf.cache.shape_eigs + np.tanh(1.0)).max() < 0.15


class TestMeshShapeEstimate:
    def test_slice_convergence(self):
        errs = []
        for level in (3, 4, 5):
            surf = build_slice(1.0, level=level)
            est = shape_operator_mesh_estimate(surf)
            errs.append(np.abs(est - surf.cache.shape).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert (orders > 1.8).all()

    def test_graph_agreement(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 4)
        est = shape_operator_mesh_estimate(surf)
        assert np.abs(est - surf.cache.shape).max() < 5e-3


class TestSupportFunction:
    def test_conformal_constant_on_slice(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        eta = support_function(surf, surf.axis)
        assert np.abs(eta + np.cosh(1.0)).max() < 1e-9
        assert np.abs(eta - eta.mean()).max() < 1e-9

    def test_killing_boost_degree_one(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        spec = KillingFieldSpec(u=np.eye(4)[0], v=AXIS, k=2.0)
        eta = support_function(surf, spec)
        assert eta == pytest.approx(-2.0 * surf.mesh.q[:, 0], abs=1e-12)
        assert abs(np.sum(surf.cache.weights * eta)) < 1e-10 * surf.cache.area

    def test_spatial_rotation_is_tangent(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        spec = KillingFieldSpec(u=np.eye(4)[0], v=np.eye(4)[1], k=1.0)
        assert np.abs(support_function(surf, spec)).max() < 1e-12

    def test_equator_unit_support(self):
        surf = build_slice(0.0, level=3)
        eta = support_function(surf, surf.axis)
        assert np.abs(np.abs(eta) - 1.0).max() < 1e-12

    def test_ambient_field_tangency(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        v = ambient_field(surf.axis, surf.cache.vertices)
        assert np.abs(mdot(v, surf.cache.vertices)).max() < 1e-12


class TestHatGradients:
    def test_lorentz_dual_to_edges_and_sum_to_zero(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05), (3, 1, 0.02)), 4)
        verts, faces = surf.cache.vertices, surf.mesh.faces
        grad = _hat_gradients(verts, faces)
        assert grad.shape == (2, 4, faces.shape[0])
        e1, e2 = verts[faces[:, 1]] - verts[faces[:, 0]], verts[faces[:, 2]] - verts[faces[:, 0]]
        for a, want in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
            for edge, value in zip((e1, e2), want):
                assert np.abs(mdot(grad[a].T, edge) - value).max() < 1e-12
        # corner c's gradient on its own: that of corner 1 of the face rotated to start at c - 1
        corners = [_hat_gradients(verts, np.roll(faces, 1 - c, axis=1))[0] for c in range(3)]
        scale = np.abs(grad).max()
        assert np.abs(corners[1] - grad[0]).max() < 1e-12 * scale
        assert np.abs(corners[2] - grad[1]).max() < 1e-12 * scale
        assert np.abs(sum(corners)).max() < 1e-12 * scale


class TestTangentialGradient:
    def test_constant_field_vanishes(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        grad = tangential_gradient(surf, np.full(surf.cache.vertices.shape[0], 3.7))
        assert np.abs(grad).max() < 1e-12

    def test_degree_one_norm(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        q = surf.mesh.q
        h = SphericalHarmonic(1, 0)
        grad = tangential_gradient(surf, h.value(q))
        got = np.sqrt(np.abs(mdot(grad, grad)))
        want = np.linalg.norm(h.sphere_gradient(q), axis=1) / np.cosh(1.0)
        mask = want > 0.1 * want.max()
        assert np.abs(got[mask] - want[mask]).max() / want.max() < 0.05

    def test_matches_add_at_accumulation(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05), (3, 1, 0.02)), 4)
        values = surf.cache.vertices[:, 0] * surf.cache.vertices[:, 3]
        # the same face gradients, accumulated by np.add.at corner by corner: the same bits
        faces = surf.mesh.faces
        grad = _hat_gradients(surf.cache.vertices, faces)
        v0 = values[faces[:, 0]]
        grad_face = grad[0] * (values[faces[:, 1]] - v0) + grad[1] * (values[faces[:, 2]] - v0)
        assert np.array_equal(tangential_gradient(surf, values),
                              tangential_gradient_reference(surf, values, grad_face.T))

    def test_matches_face_frame_oracle(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05), (3, 1, 0.02)), 4)
        values = surf.cache.vertices[:, 0] * surf.cache.vertices[:, 3]
        # the reference takes face gradients in face frames, so they agree to rounding
        got, want = tangential_gradient(surf, values), tangential_gradient_reference(surf, values)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_linear_chart_field_first_order(self):
        errs = []
        for level in (3, 4):
            surf = build_slice(1.0, level=level)
            q = surf.mesh.q
            values = 2.0 + 3.0 * q[:, 0] - q[:, 1]
            grad = tangential_gradient(surf, values)
            direction = np.array([3.0, -1.0, 0.0])
            want_s2 = direction[None, :] - (q @ direction)[:, None] * q
            want = np.linalg.norm(want_s2, axis=1) / np.cosh(1.0)
            got = np.sqrt(np.abs(mdot(grad, grad)))
            errs.append(np.abs(got - want).max() / want.max())
        assert errs[1] < 0.7 * errs[0]


class TestSharedMesh:
    def test_one_mesh_and_order_per_level(self):
        tilted = np.array([0.0, 0.0, np.sinh(0.3), np.cosh(0.3)])
        sl = build_slice(0.7, level=3)
        graph = build_graph(1.2, perturbations=((2, 0, 0.05),), level=3, axis=tilted)
        assert graph.mesh is sl.mesh
        assert sl.mesh.level == 3
        assert assemble(graph, 1).order is assemble(sl, 0).order is sl.mesh.order
        assert build_graph(1.0, level=4).mesh is not sl.mesh

    def test_one_pattern_per_mesh_shared_by_a_sweep(self):
        surfaces = [build_slice(s0, level=3) for s0 in (0.5, 1.0, 2.0)]
        pattern = surfaces[0].mesh.pattern
        for surf in surfaces:
            assert surf.mesh.pattern is pattern
            pair = assemble(surf, 1)
            for m in (pair.stiffness, pair.mass):
                assert np.shares_memory(m.indptr, pattern[0]) and np.shares_memory(m.indices, pattern[1])

    def test_shared_arrays_read_only(self):
        surf = build_graph(1.0, perturbations=((2, 0, 0.05),), level=3)
        w1, _ = surf.mesh.frames
        for array in (surf.mesh.q, surf.mesh.faces, w1, surf.mesh.order, *surf.mesh.pattern):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0

    def test_explicit_mesh_used_as_given(self):
        sl = build_slice(1.0, level=3)
        again = build_graph(1.0, level=5, mesh=sl.mesh)
        assert again.mesh is sl.mesh
        assert np.array_equal(again.cache.vertices, sl.cache.vertices)

    def test_no_mesh_data_in_memo(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 3)
        analyze(surf, 1)
        assert all(key[0] in ("newton", "operator", "stability_field") for key in surf._memo)


class TestScatter:
    """The pattern scatter against the COO -> CSR reference, on random
    symmetric element matrices L + L^T: the contract of ``scatter_p1``."""

    @staticmethod
    def check(mesh):
        local = np.random.default_rng(mesh.nvertices).standard_normal((mesh.faces.shape[0], 3, 3))
        local = local + local.transpose(0, 2, 1)
        got = scatter_p1(mesh, local)
        want = scatter_p1_reference(mesh.faces, local, mesh.nvertices)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()
        assert (got != got.T).nnz == 0      # (i, j) and (j, i) bitwise equal

    @pytest.mark.parametrize("level", range(6))
    def test_icosphere_matches_reference(self, level):
        self.check(SphereMesh(*icosphere(level), level))

    def test_renumbered_mesh_matches_reference(self):
        # renumber the vertices, so the pattern's order is not the icosphere's
        q, faces = icosphere(3)
        perm = np.random.default_rng(5).permutation(q.shape[0])
        mesh = SphereMesh(q[perm], np.argsort(perm)[faces])
        assert mesh.level is None
        self.check(mesh)
