"""Slice and graph surface construction, fundamental forms, and fields."""

from math import comb

import numpy as np
import pytest

from lorstab.config import ScenarioConfig
from lorstab.curvature import batched_elementary
from lorstab.fem import assemble
from lorstab.mesh import SphereMesh, icosphere
from lorstab.stability import analyze
from lorstab.surfaces import (
    GraphConstructionError,
    _face_areas,
    _hat_gradients,
    build_graph,
    build_slice,
    mdot,
    scatter_p1,
    tangential_gradient,
)

from conftest import solve
from oracles import (
    SphericalHarmonic, killing_field, scatter_p1_reference, shape_operator_mesh_estimate, slice_operator_eigenvalue,
    support_function, tangential_gradient_reference,
)

AXIS = np.array([0.0, 0.0, 0.0, 1.0])
BENCH_TERMS = ((2, 0, 0.05), (3, 1, 0.02))


def conformal_support(surface):
    """eta = <V, N> of the closed conformal field V = e4 + p4 p, as the
    conformal identity check computes it."""
    p = surface.vertices
    return mdot(AXIS + p[:, 3, None] * p, surface.normal)


class TestSliceClosedForms:
    """A slice is the unperturbed graph; its meshed data against the closed forms."""

    def test_umbilicity_and_curvatures(self, slice_mesh):
        surface = slice_mesh(1.0, 3)
        assert np.abs(surface.shape_eigs + np.tanh(1.0)).max() < 1e-12
        for r in range(3):
            assert surface.mean[:, r] == pytest.approx(np.tanh(1.0) ** r, rel=1e-12)
        # C(2,r) H_r = (-1)^r sigma_r = C(2,r) tanh(s0)^r at A = -tanh(s0) I
        s = batched_elementary(np.full((1, 2), -np.tanh(1.0)))[0]
        for r in range(3):
            assert (-1.0) ** r * s[r] / comb(2, r) == pytest.approx(np.tanh(1.0) ** r, rel=1e-12)

    def test_equator_is_geodesic(self):
        assert np.abs(build_slice(0.0, level=3).shape).max() == 0.0

    def test_reference_values(self, slice_mesh):
        mean = slice_mesh(1.0, 3).mean
        assert mean[:, 1] == pytest.approx(0.76159, abs=1e-5)
        assert mean[:, 2] == pytest.approx(0.58002, abs=1e-5)

    def test_area_and_eigenvalues(self, slice_mesh):
        surf = slice_mesh(0.7, 4)
        assert surf.area == pytest.approx(4 * np.pi * np.cosh(0.7) ** 2, rel=2e-3)
        assert slice_operator_eigenvalue(0.7, 0) == pytest.approx(2 / np.cosh(0.7) ** 2)
        assert slice_operator_eigenvalue(0.7, 1) == pytest.approx(2 * np.tanh(0.7) / np.cosh(0.7) ** 2)
        for r in (0, 1):
            lam = solve(assemble(surf, r)).lambda1
            assert lam == pytest.approx(slice_operator_eigenvalue(0.7, r), rel=1e-3)


class TestMeshedSliceGeometry:
    def test_shape_operator_exact(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        want = -np.tanh(1.0) * np.eye(2)
        assert np.abs(surf.shape - want).max() < 1e-12
        assert np.array_equal(surf.shape, surf.shape.transpose(0, 2, 1))
        assert surf.shape[17] == pytest.approx(want, abs=1e-12)

    def test_cache_invariants(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        assert np.abs(mdot(surf.vertices, surf.vertices) - 1.0).max() < 1e-12
        assert np.abs(mdot(surf.normal, surf.normal) + 1.0).max() < 1e-9
        for a in range(2):
            assert np.abs(mdot(surf.normal, surf.frame[:, :, a])).max() < 1e-9
            assert np.abs(mdot(surf.frame[:, :, a], surf.frame[:, :, a]) - 1.0).max() < 1e-9
        # future-pointing: negative product against the future cone generator
        assert (mdot(surf.normal, np.broadcast_to(AXIS, surf.normal.shape)) < 0).all()

    def test_area_converges_quadratically(self):
        exact = 4 * np.pi * np.cosh(1.0) ** 2
        errs = [
            abs(build_slice(1.0, level=level).area - exact) / exact
            for level in (3, 4, 5)
        ]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert (orders > 1.9).all()

    def test_chronology_of_future_slice(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        assert (mdot(surf.vertices, np.broadcast_to(AXIS, surf.vertices.shape)) < 0).all()

    def test_h2_positive_off_equator(self, slice_mesh):
        assert slice_mesh(1.0, 3).mean[:, 2].min() > 0


class TestGraphConstruction:
    def test_zero_amplitude_matches_slice(self, slice_mesh):
        graph = build_graph(1.0, perturbations=(), level=3)
        assert graph.vertices == pytest.approx(slice_mesh(1.0, 3).vertices, abs=0)
        assert graph.is_slice

    def test_small_perturbation_is_spacelike(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 4)
        assert surf.metric_ratio > 1.0
        assert surf.metric_ratio < 1.01

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
        assert surf.vertices.shape[0] == 10 * 4**4 + 2

    def test_shape_eigenvalues_near_umbilic(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 4)
        assert np.abs(surf.shape_eigs + np.tanh(1.0)).max() < 0.15


class TestMeshShapeEstimate:
    def test_slice_convergence(self):
        errs = []
        for level in (3, 4, 5):
            surf = build_slice(1.0, level=level)
            est = shape_operator_mesh_estimate(surf)
            errs.append(np.abs(est - surf.shape).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert (orders > 1.8).all()

    def test_graph_agreement(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 4)
        est = shape_operator_mesh_estimate(surf)
        assert np.abs(est - surf.shape).max() < 5e-3


class TestSupportFunction:
    def test_conformal_constant_on_slice(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        eta = conformal_support(surf)
        assert np.abs(eta + np.cosh(1.0)).max() < 1e-9
        assert np.abs(eta - eta.mean()).max() < 1e-9
        # eta = <e4, N> = -N4, since <p, N> = 0
        assert np.abs(eta + surf.normal[:, 3]).max() < 1e-12

    def test_killing_boost_degree_one(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        eta = support_function(surf, np.eye(4)[0], AXIS)
        assert eta == pytest.approx(-surf.mesh.q[:, 0], abs=1e-12)
        assert abs(np.sum(surf.weights * eta)) < 1e-10 * surf.area

    def test_spatial_rotation_is_tangent(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        assert np.abs(support_function(surf, np.eye(4)[0], np.eye(4)[1])).max() < 1e-12

    def test_equator_unit_support(self):
        surf = build_slice(0.0, level=3)
        eta = conformal_support(surf)
        assert np.abs(np.abs(eta) - 1.0).max() < 1e-12

    def test_ambient_field_tangency(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        p = surf.vertices
        w = killing_field(np.eye(4)[0], AXIS, p)
        assert np.abs(mdot(w, p)).max() < 1e-12
        assert np.abs(mdot(AXIS + p[:, 3, None] * p, p)).max() < 1e-12


class TestBoostSupport:
    """The surface's support function of the boost W = p4 e1 + p1 e4, which
    the chart gives without the cancellation of p4 N1 - p1 N4."""

    @pytest.mark.parametrize("s0", [1.0, 8.0, 16.0, 20.0])
    def test_is_minus_q1_on_slices(self, slice_mesh, s0):
        """Here the ambient form p4 N1 - p1 N4 is off by 6.8e-3 at s0 = 16, and by 2.2 at s0 = 19."""
        surf = slice_mesh(s0, 3)
        assert np.abs(surf.boost_support + surf.mesh.q[:, 0]).max() <= 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["s0=1", "s0=-1"])
    def test_matches_the_oracle_on_the_bench_graph(self, graph_mesh, sign):
        """On the bench graph and its time reflection (s0 and every amplitude negated)."""
        surf = graph_mesh(sign, tuple((l, m, sign * a) for l, m, a in BENCH_TERMS), 4)
        want = support_function(surf, np.eye(4)[0], AXIS)
        assert np.abs(surf.boost_support - want).max() <= 1e-12 * np.abs(want).max()


class TestHatGradients:
    def test_lorentz_dual_to_edges_and_sum_to_zero(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05), (3, 1, 0.02)), 4)
        verts, faces = surf.vertices, surf.mesh.faces
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
        grad = tangential_gradient(surf, np.full(surf.vertices.shape[0], 3.7))
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
        values = surf.vertices[:, 0] * surf.vertices[:, 3]
        # the same face gradients, accumulated by np.add.at corner by corner: the same bits
        faces = surf.mesh.faces
        grad = _hat_gradients(surf.vertices, faces)
        v0 = values[faces[:, 0]]
        grad_face = grad[0] * (values[faces[:, 1]] - v0) + grad[1] * (values[faces[:, 2]] - v0)
        assert np.array_equal(tangential_gradient(surf, values),
                              tangential_gradient_reference(surf, values, grad_face.T))

    def test_matches_face_frame_oracle(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05), (3, 1, 0.02)), 4)
        values = surf.vertices[:, 0] * surf.vertices[:, 3]
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
        sl = build_slice(0.7, level=3)
        graph = build_graph(1.2, perturbations=((2, 0, 0.05),), level=3)
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
        assert np.array_equal(again.vertices, sl.vertices)

    def test_mesh_or_level_required(self):
        with pytest.raises(TypeError, match="a mesh or a level"):
            build_graph(1.0)

    def test_no_mesh_data_in_memo(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 3)
        analyze(surf, ScenarioConfig("graph", 1, 1.0, ((2, 0, 0.05),), level=3))
        assert set(surf._memo) <= {0, 1}


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
        mesh = SphereMesh(q[perm], np.argsort(perm)[faces], 3)
        self.check(mesh)
