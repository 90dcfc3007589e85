"""Weak-form assembly and the constrained eigenvalue solver."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.linalg import splu

from lorstab.fem import (
    OperatorPair,
    SolverError,
    _carried,
    assemble,
    shared_spectrum,
    weak_residual,
)
from lorstab.harmonics import HarmonicField
from lorstab.mesh import SphereMesh, icosphere
from lorstab.surfaces import build_graph, build_slice

from conftest import solve
from oracles import assemble_stiffness_reference, smallest_eigenvalues_reference, strong_form_check

GRAPH = ((2, 0, 0.05), (3, 1, 0.02))


class TestAssembly:
    def test_matrices_symmetric(self, slice_mesh, graph_mesh):
        """Bitwise: the element matrices are exactly symmetric, and scatter_p1
        adds (i, j) and (j, i) in one order."""
        for surf in (slice_mesh(1.0, 3), graph_mesh(1.0, GRAPH, 4)):
            pair = assemble(surf, 1)
            for m in (pair.stiffness, pair.mass):
                assert (m != m.T).nnz == 0

    def test_constants_in_kernel(self, slice_mesh):
        for r in (0, 1):
            pair = assemble(slice_mesh(1.0, 4), r)
            ones = np.ones(pair.stiffness.shape[0])
            scale = np.abs(pair.stiffness.data).max()
            assert np.abs(pair.stiffness @ ones).max() <= 1e-10 * max(1.0, scale)

    def test_mass_positive_definite_and_total(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        pair = assemble(surf, 0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=pair.stiffness.shape[0])
            assert x @ (pair.mass @ x) > 0
        assert pair.mass.sum() == pytest.approx(surf.area)

    def test_stiffness_psd_when_elliptic(self, slice_mesh):
        pair = assemble(slice_mesh(1.0, 3), 1)
        assert pair.min_newton_eig > 0.0
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=pair.stiffness.shape[0])
            assert x @ (pair.stiffness @ x) >= -1e-10

    def test_umbilical_scaling_exact(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        k0 = assemble(surf, 0).stiffness
        k1 = assemble(surf, 1).stiffness
        delta = (k1 - np.tanh(1.0) * k0).tocoo()
        err = np.abs(delta.data).max() if delta.nnz else 0.0
        assert err <= 1e-8 * np.abs(k0.data).max()

    def test_equator_first_order_operator_vanishes(self):
        pair = assemble(build_slice(0.0, level=3), 1)
        top = np.abs(pair.stiffness.data).max() if pair.stiffness.nnz else 0.0
        assert top < 1e-14
        assert pair.min_newton_eig == pytest.approx(0.0, abs=1e-14)

    def test_order_out_of_range(self, slice_mesh):
        for r in (-1, 2):
            with pytest.raises(ValueError, match=rf"order r={r} out of range \[0, 1\]"):
                assemble(slice_mesh(1.0, 3), r)

    def test_order_shared_and_reduces_fill(self, graph_mesh):
        surf = graph_mesh(1.0, GRAPH, 5)
        pair = assemble(surf, 1)
        assert assemble(surf, 0).order is pair.order
        kk, mm = pair.stiffness, pair.mass
        shift = 1e-5 * np.abs(kk.diagonal()).max() / mm.sum(axis=1).min()   # the solver's
        a = (kk + shift * mm).tocsc()
        order = pair.order
        colamd = splu(a)
        nested = splu(a[order][:, order].tocsc(), permc_spec="NATURAL")
        assert nested.L.nnz + nested.U.nnz <= 0.85 * (colamd.L.nnz + colamd.U.nnz)

    def test_nested_dissection_fill_bound(self, graph_mesh):
        # separators that take the end of each cut edge nearer the cut give
        # 838,820 entries; taking every lower end of a cut edge gave 903,240
        pair = assemble(graph_mesh(1.0, GRAPH, 5), 1)
        kk, mm = pair.stiffness, pair.mass
        shift = 1e-5 * np.abs(kk.diagonal()).max() / mm.sum(axis=1).min()   # the solver's
        order = pair.order
        lu = splu((kk + shift * mm)[order][:, order].tocsc(), permc_spec="NATURAL")
        assert lu.L.nnz + lu.U.nnz <= 845_000


def jittered_graph():
    """The level-3 graph over tangentially jittered icosphere directions: an
    irregular mesh of level 3."""
    q, faces = icosphere(3)
    q = q + 0.02 * np.random.default_rng(5).standard_normal(q.shape)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return build_graph(1.0, perturbations=GRAPH, mesh=SphereMesh(q, faces, 3))


class TestAssemblyOracle:
    """The ambient-coordinate assembly against the face-frame einsum
    contractions, scattered by the COO reference rather than the mesh's
    pattern."""

    @pytest.mark.parametrize("level", [3, 4, 5, "jittered"])
    @pytest.mark.parametrize("r", [0, 1])
    def test_graph_matches_einsum_oracle(self, graph_mesh, r, level):
        if level == "jittered":
            surf = jittered_graph()
        else:
            surf = graph_mesh(1.0, GRAPH, level)
        got = assemble(surf, r).stiffness
        want = assemble_stiffness_reference(surf, r)
        assert abs(got - want).max() <= 1e-14 * abs(want).max()


def turned_frames_mesh(level):
    """The level's icosphere with its cached tangent frames turned at every
    vertex by a seeded angle, and reflected (w2 -> -w2) at about half of them."""
    q, faces = icosphere(level)
    mesh = SphereMesh(q, faces, level)
    w1, w2 = mesh.frames
    rng = np.random.default_rng(level)
    theta = rng.uniform(0.0, 2.0 * np.pi, (q.shape[0], 1))
    sign = np.where(rng.random((q.shape[0], 1)) < 0.5, -1.0, 1.0)
    turned = (np.cos(theta) * w1 + np.sin(theta) * w2, sign * (np.cos(theta) * w2 - np.sin(theta) * w1))
    mesh.__dict__["frames"] = turned      # where cached_property keeps it
    return mesh


class TestFrameIndependence:
    """Nothing that leaves the chart depends on the tangent frame.  Each
    bound is 10x the largest difference from the unturned build measured
    over levels 3 and 4 and r = 0 and 1, relative to the largest entry:
    sigma 7.0e-16, K 7.8e-16 and lambda1 1.5e-15.  M is the same bits, as
    it reads only the vertices."""

    @pytest.mark.parametrize("level", [3, 4])
    def test_operator_and_lambda1_unchanged(self, level):
        q, faces = icosphere(level)
        base = build_graph(1.0, perturbations=GRAPH, mesh=SphereMesh(q, faces, level))
        turned = build_graph(1.0, perturbations=GRAPH, mesh=turned_frames_mesh(level))
        assert np.abs(turned.mesh.frames[0] - base.mesh.frames[0]).max() > 1.0
        assert np.abs(turned.sigma - base.sigma).max() <= 7e-15 * np.abs(base.sigma).max()
        for r in (0, 1):
            a, b = assemble(base, r), assemble(turned, r)
            assert abs(b.stiffness - a.stiffness).max() <= 8e-15 * abs(a.stiffness).max()
            assert (b.mass != a.mass).nnz == 0
            assert solve(b).lambda1 == pytest.approx(solve(a).lambda1, rel=1.5e-14, abs=0.0)


class TestEigenvalues:
    def test_laplace_baseline(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        res = solve(assemble(surf, 0))
        want = 2 / np.cosh(1.0) ** 2
        assert abs(res.lambda1 - want) / want < 0.01
        assert res.residual <= 1e-8

    def test_first_order_baseline(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        res = solve(assemble(surf, 1))
        want = 2 * np.tanh(1.0) / np.cosh(1.0) ** 2
        assert abs(res.lambda1 - want) / want < 0.01

    def test_lumped_is_mass_row_sums(self, slice_mesh, graph_mesh):
        for surf in (slice_mesh(1.0, 3), graph_mesh(1.0, GRAPH, 3)):
            pair = assemble(surf, 1)
            assert np.array_equal(pair.lumped, np.asarray(pair.mass.sum(axis=1)).ravel())
            assert pair.lumped is pair.lumped      # computed once

    def test_eigenfunction_mean_zero_normalized(self, slice_mesh):
        pair = assemble(slice_mesh(1.0, 4), 0)
        res = solve(pair)
        ones = np.ones(pair.stiffness.shape[0])
        assert abs(ones @ (pair.mass @ res.eigenfunction)) < 1e-10
        assert res.eigenfunction @ (pair.mass @ res.eigenfunction) == pytest.approx(1.0)

    def test_degenerate_zero_operator(self):
        """P_1 vanishes on the equator, so its stiffness is zero and has no
        first eigenvalue."""
        pair = assemble(build_slice(0.0, level=3), 1)
        with pytest.raises(SolverError, match="stiffness matrix is zero") as err:
            solve(pair)
        assert err.value.residual is None

    def test_small_operator_is_not_taken_for_zero(self, slice_mesh):
        """At s0 = 20 the stiffness is O(1) while the mass grows as cosh(20)^2:
        lambda1 = 2 tanh(20) / cosh(20)^2 = 3.4e-17 is still solved for.  The
        acceptance is relative to the spectrum's scale (lam_scale = 4.1e-15),
        which a projected random vector, weak residual 4.6e-15 against 0, fails."""
        pair = assemble(slice_mesh(20.0, 3), 1)
        res = solve(pair)
        want = 2 * np.tanh(20.0) / np.cosh(20.0) ** 2
        assert res.lambda1 == pytest.approx(want, rel=1e-2, abs=0)
        lumped = pair.lumped
        bound = 1e-8 * pair.stiffness.diagonal().max() / lumped.min()
        assert res.residual < bound
        x = np.random.default_rng(0).standard_normal(pair.stiffness.shape[0])
        x -= (lumped @ x) / lumped.sum()
        assert weak_residual(pair, x, 0.0) > bound

    def test_deterministic(self, slice_mesh):
        pair = assemble(slice_mesh(1.0, 4), 1)
        a = solve(pair, seed=0)
        b = solve(pair, seed=0)
        assert a.lambda1 == b.lambda1
        assert (a.eigenfunction == b.eigenfunction).all()

    def test_applications_guard(self, slice_mesh, graph_mesh):
        """A solve takes 11 shift-invert applications on a level-5 slice
        (its first convergence test, at a full 10-vector basis) and 16 on the
        level-5 test graph (one implicit restart), with seeds 0 and 7."""
        assert solve(assemble(slice_mesh(1.0, 5), 1)).iterations <= 12
        pair = assemble(graph_mesh(1.0, GRAPH, 5), 1)
        for seed in (0, 7):
            assert solve(pair, seed=seed).iterations <= 16

    @pytest.mark.parametrize("level", [3, 4])
    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("s0, shape", [
        (0.5, ()), (2.0, ()), (1.0, GRAPH), (1.0, ((1, 0, 0.3), (2, 1, 0.1))),
    ], ids=["slice-0.5", "slice-2", "graph", "graph-wide"])
    def test_stop_leaves_a_margin(self, graph_mesh, level, r, s0, shape):
        """ARPACK's stop leaves every accepted residual 20x below tol (the
        largest here is 9.7e-11), so a looser stop shows here before it turns
        into a SolverError on some other surface."""
        pair = assemble(graph_mesh(s0, shape, level), r)
        for seed in (0, 7):
            assert solve(pair, tol=1e-8, seed=seed).residual <= 1e-8 / 20

    def test_nonconvergence_raises(self, slice_mesh):
        pair = assemble(slice_mesh(1.0, 4), 0)
        with pytest.raises(SolverError) as err:
            solve(pair, maxiter=2, tol=1e-14)
        assert err.value.residual is not None

    def test_restart_limit_raises(self):
        # identity mass and K = Q diag(0, 1 + 1e-6 k) Q^T with a constant first
        # column of Q: the mean-zero spectrum is too clustered for one restart
        n = 400
        basis = np.random.default_rng(0).standard_normal((n, n))
        basis[:, 0] = 1.0
        q, _ = np.linalg.qr(basis)
        spectrum = np.concatenate([[0.0], 1.0 + 1e-6 * np.arange(1, n)])
        pair = OperatorPair(
            stiffness=csr_matrix((q * spectrum) @ q.T), mass=identity(n, format="csr"),
            lam_field=np.zeros(n), lam_mean=0.0, min_newton_eig=1.0, order=np.arange(n),
        )
        for tol in (1e-12, 1e-8):
            with pytest.raises(SolverError, match="did not converge in 1 restarts") as err:
                solve(pair, tol=tol, maxiter=1)
            assert err.value.residual == np.inf   # no eigenpair converged

    def test_bottom_spectrum_multiplicities(self, slice_mesh):
        """The bottom ten of a level-4 slice (the solver seeks only the first;
        the oracle finds ten to 0.41% of the closed form)."""
        surf = slice_mesh(1.0, 4)
        pair = assemble(surf, 1)
        values, vectors, _, residuals = smallest_eigenvalues_reference(pair, k=10)
        factor = np.tanh(1.0) / np.cosh(1.0) ** 2
        exact = np.array(sorted(l * (l + 1) * factor for l in (1, 2, 3) for _ in range(2 * l + 1))[:10])
        assert np.abs(values - exact).max() / exact.max() < 0.02
        # degeneracy pattern 3 + 5 + start of 7
        assert np.abs(values[:3] - values[0]).max() < 0.02 * values[0]
        assert np.abs(values[3:8] - values[3]).max() < 0.02 * values[3]
        assert values[3] / values[0] == pytest.approx(3.0, rel=0.02)
        assert values[8] / values[0] == pytest.approx(6.0, rel=0.02)
        assert residuals.max() <= 1e-8
        gram = vectors.T @ (pair.mass @ vectors)
        assert gram == pytest.approx(np.eye(10), abs=1e-8)


class TestSharedFactor:
    """Inside ``shared_spectrum``, a pencil that is a positive multiple of the
    last one ARPACK solved takes its eigenpair scaled, with no factor and 0
    applications; anything else is solved afresh."""

    @pytest.mark.parametrize("r", [0, 1])
    def test_slices_on_one_mesh_share_one_factor(self, slice_mesh, factors, r):
        pairs = [assemble(slice_mesh(s0, 4), r) for s0 in (0.3, 1.0, 1.9)]
        fresh = [solve(pair) for pair in pairs]
        assert len(factors) == 3
        with shared_spectrum():
            shared = [solve(pair) for pair in pairs]
        assert len(factors) == 4
        assert shared[0].lambda1 == fresh[0].lambda1     # the scope's first solve is ARPACK's
        assert shared[0].iterations == fresh[0].iterations > 0
        assert [b.iterations for b in shared[1:]] == [0, 0]
        for a, b in zip(fresh, shared):
            assert b.lambda1 == pytest.approx(a.lambda1, rel=1e-12, abs=0)
            assert b.residual < 1e-8

    def test_only_a_multiple_to_the_tolerance_shares(self, slice_mesh, factors):
        """The test is max|A - ratio A_ref| <= 1e-13 max|A| for A = K and M: one
        diagonal entry of K, about its largest entry, moved by 1e-14 relative is
        carried, moved by 1e-10 is solved afresh."""
        pair = assemble(slice_mesh(1.0, 3), 1)
        doubled = replace(pair, stiffness=2.0 * pair.stiffness, mass=2.0 * pair.mass)

        def bumped(rel):
            stiffness = doubled.stiffness.copy()
            stiffness[5, 5] *= 1.0 + rel
            return replace(doubled, stiffness=stiffness)

        with shared_spectrum():
            base = solve(pair)
            carried = solve(doubled)
            assert carried.lambda1 == pytest.approx(base.lambda1, rel=1e-13, abs=0)
            assert carried.eigenfunction == pytest.approx(base.eigenfunction / np.sqrt(2.0), rel=1e-15)
            assert solve(bumped(1e-14)).iterations == 0
            assert len(factors) == 1
            assert solve(bumped(1e-10)).iterations > 0
            assert len(factors) == 2

    def test_a_ratio_not_positive_is_not_carried(self, slice_mesh):
        pair = assemble(slice_mesh(1.0, 3), 1)
        solved = solve(pair)
        same = _carried(pair, solved, pair, np.inf)
        assert (same.lambda1, same.iterations) == (solved.lambda1, 0)
        assert np.array_equal(same.eigenfunction, solved.eigenfunction)
        for flipped in (replace(pair, stiffness=-pair.stiffness), replace(pair, mass=-pair.mass)):
            assert _carried(pair, solved, flipped, np.inf) is None

    def test_a_carried_pair_must_pass_the_residual_test(self, slice_mesh, factors):
        """K's diagonal moved by +-4e-14 relative keeps the pencil a multiple to
        the tolerance, but the carried pair's residual on it is 2.3e-12: at
        tol = 1e-11 it is carried, at tol = 1e-12 the pencil is solved afresh."""
        pair = assemble(slice_mesh(1.0, 3), 1)
        k = pair.stiffness
        signs = np.where(np.random.default_rng(0).random(pair.stiffness.shape[0]) < 0.5, -1.0, 1.0)
        jittered = (k + diags(4e-14 * signs * k.diagonal())).tocsr()
        jittered.sort_indices()
        op = replace(pair, stiffness=2.0 * jittered, mass=2.0 * pair.mass)
        with shared_spectrum():
            solve(pair)
            carried = solve(op, tol=1e-11)
            assert carried.iterations == 0 and 1e-12 < carried.residual < 1e-11
        with shared_spectrum():
            solve(pair)
            solved = solve(op, tol=1e-12)
        assert solved.iterations > 0 and solved.residual < 1e-12
        assert len(factors) == 3
        assert solved.lambda1 == pytest.approx(carried.lambda1, rel=1e-12, abs=0)

    def test_graph_after_slice_is_factored_afresh(self, slice_mesh, graph_mesh, factors):
        slice_pair = assemble(slice_mesh(1.0, 4), 1)
        graph_pair = assemble(graph_mesh(1.0, GRAPH, 4), 1)
        assert (slice_pair.stiffness.indices == graph_pair.stiffness.indices).all()
        alone = solve(graph_pair)
        with shared_spectrum():
            solve(slice_pair)
            scoped = solve(graph_pair)
        assert len(factors) == 3
        assert scoped.lambda1 == alone.lambda1
        assert scoped.iterations == alone.iterations
        assert (scoped.eigenfunction == alone.eigenfunction).all()

    def test_no_factor_outlives_its_scope(self, slice_mesh, factors):
        """A scope holds a solved pencil and its eigenpair, never a factor; an
        inner scope starts empty and leaves the outer one's pencil held."""
        pair = assemble(slice_mesh(1.0, 3), 1)
        solve(pair)
        assert factors.held() == []
        with shared_spectrum():
            solve(pair)
            assert factors.held() == []
            with shared_spectrum():
                assert solve(pair).iterations > 0
            assert solve(pair).iterations == 0
        assert len(factors) == 3
        assert factors.held() == []


class TestSubspaceIterationOracle:
    """The ARPACK solve against the earlier deflated subspace iteration."""

    @staticmethod
    def m_norm(pair, x):
        return float(np.sqrt(x @ (pair.mass @ x)))

    @pytest.mark.parametrize("level", [3, 4, 5])
    @pytest.mark.parametrize("r", [0, 1])
    def test_slice_matches_oracle(self, slice_mesh, r, level):
        pair = assemble(slice_mesh(1.0, level), r)
        res = solve(pair)
        values, vectors, _, _ = smallest_eigenvalues_reference(pair, k=3)
        assert res.lambda1 == pytest.approx(values[0], rel=1e-10, abs=0)
        # lambda1 is the l = 1 triplet on a slice: the eigenfunction is any
        # unit vector of the oracle's three-dimensional eigenspace
        inside = vectors @ (vectors.T @ (pair.mass @ res.eigenfunction))
        assert self.m_norm(pair, res.eigenfunction - inside) <= 1e-6

    @pytest.mark.parametrize("level", [3, 4])
    def test_graph_matches_oracle(self, graph_mesh, level):
        pair = assemble(graph_mesh(1.0, GRAPH, level), 1)
        res = solve(pair)
        values, vectors, _, _ = smallest_eigenvalues_reference(pair)
        assert res.lambda1 == pytest.approx(values[0], rel=1e-10, abs=0)
        # a simple eigenvalue: the eigenfunction is the oracle's up to sign
        f, g = res.eigenfunction, vectors[:, 0]
        assert min(self.m_norm(pair, f - g), self.m_norm(pair, f + g)) <= 1e-6


class TestWeakResidual:
    def test_eigenpair_residual_small(self, slice_mesh):
        pair = assemble(slice_mesh(1.0, 4), 1)
        res = solve(pair)
        assert weak_residual(pair, res.eigenfunction, res.lambda1) <= 1e-8

    def test_generic_vector_not_eigen(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        pair = assemble(surf, 1)
        rng = np.random.default_rng(7)
        f = rng.normal(size=pair.stiffness.shape[0])
        assert weak_residual(pair, f, 0.0) > 1e-2

    def test_zero_vector_rejected(self, slice_mesh):
        pair = assemble(slice_mesh(1.0, 3), 0)
        with pytest.raises(ValueError):
            weak_residual(pair, np.zeros(pair.stiffness.shape[0]), 1.0)


class TestStrongFormCheck:
    def test_slice_orders(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        field = HarmonicField(terms=((1, 0, 1.0),))
        assert strong_form_check(surf, 0, field) < 0.02
        assert strong_form_check(surf, 1, field) < 0.02

    def test_constant_exact(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        assert strong_form_check(surf, 0, HarmonicField(constant=5.0)) < 1e-10

    def test_graph_rejected(self, graph_mesh):
        with pytest.raises(ValueError):
            strong_form_check(graph_mesh(1.0, ((2, 0, 0.05),), 3), 0, HarmonicField(constant=1.0))


class TestEllipticityBookkeeping:
    def test_slice_elliptic_and_definite(self, slice_mesh):
        pair = assemble(slice_mesh(1.0, 4), 1)
        assert pair.min_newton_eig == pytest.approx(np.tanh(1.0), rel=1e-10)
        res = solve(pair)
        assert pair.min_newton_eig > 0.0 and res.lambda1 > 0.0

    def test_equator_flag_consistency(self):
        """The flag's sign is the stiffness's: P_1 = 0 on the equator gives
        K = 0, and P_1 = -tanh(1) I on the past slice a negative semidefinite
        K, which the solver is never given."""
        equator = assemble(build_slice(0.0, level=3), 1)
        assert equator.min_newton_eig == 0.0 and not equator.stiffness.data.any()
        past = assemble(build_slice(-1.0, level=3), 1)
        assert past.min_newton_eig < 0.0
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=past.stiffness.shape[0])
            assert x @ (past.stiffness @ x) <= 1e-10

