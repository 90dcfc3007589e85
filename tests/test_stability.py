"""Verdicts, the second-variation form, and the field identity checks."""

import numpy as np
import pytest

from lorstab.fem import assemble, first_eigenvalue_meanzero
from lorstab.lorentz import ConformalFieldSpec, KillingFieldSpec
from lorstab.stability import (
    DegenerateFieldError,
    Tolerances,
    analyze,
    conformal_identity_check,
    jacobi_second_variation,
    killing_eigen_check,
    stability_field,
    weighted_mass_matrix,
)
from lorstab.surfaces import build_graph, build_slice, support_function
from oracles import SphericalHarmonic, harmonic_basis, slice_operator_eigenvalue, stability_constant_binomial

AXIS = np.array([0.0, 0.0, 0.0, 1.0])
BOOST = KillingFieldSpec(u=np.eye(4)[0], v=AXIS, k=1.0)


class TestAnalyze:
    def test_slice_is_threshold_stable(self, slice_mesh):
        report = analyze(slice_mesh(1.0, 5), 1)
        assert report.verdict == "stable"
        want = 2 * np.tanh(1.0) / np.cosh(1.0) ** 2
        assert report.lambda_mean == pytest.approx(want, rel=1e-10)
        assert abs(report.gap) / report.lambda_mean < 0.02
        assert report.chronology == "future"
        assert report.h2_positive and report.has_elliptic_point
        assert report.h_next_residual < 1e-10 and report.lambda_residual < 1e-10

    def test_equator_violates_hypotheses(self):
        report = analyze(build_slice(0.0, level=3), 1)
        assert report.verdict == "hypotheses-violated"
        assert report.h_next_mean == pytest.approx(0.0, abs=1e-14)
        assert report.psi_min_abs == pytest.approx(0.0, abs=1e-12)
        assert report.chronology == "mixed"
        assert np.isnan(report.lambda1) and report.eigen.iterations == 0

    def test_past_slice_r0_violates_positivity(self):
        report = analyze(build_slice(-1.0, level=3), 0)
        assert report.verdict == "hypotheses-violated"
        assert report.h_next_max < 0
        assert report.chronology == "past"

    def test_past_slice_r1_violates_ellipticity(self):
        # P_1 = -tanh(1) I is negative definite: the spectrum of L_1 is
        # unbounded below, so its bottom decides nothing
        report = analyze(build_slice(-1.0, level=3), 1)
        assert report.verdict == "hypotheses-violated"
        assert report.min_newton_eig == pytest.approx(-np.tanh(1.0), rel=1e-10)
        assert report.h_next_min > 0 and report.chronology == "past"
        assert report.h_next_residual < 1e-10 and report.lambda_residual < 1e-10

    @pytest.mark.parametrize("s0", [-1.0, 0.0])
    def test_non_elliptic_slices_skip_the_solve(self, monkeypatch, s0):
        """P_1 = -tanh(1) I at s0 = -1 and 0 at the equator: the spectrum of
        L_1 decides nothing there, so no pencil reaches the solver."""
        def refuse(*args, **kwargs):
            raise AssertionError("a non-elliptic pencil was solved")

        monkeypatch.setattr("lorstab.stability.first_eigenvalue_meanzero", refuse)
        report = analyze(build_slice(s0, level=3), 1)
        assert report.verdict == "hypotheses-violated"
        assert not report.min_newton_eig > 0.0
        assert np.isnan(report.lambda1) and np.isnan(report.gap) and np.isnan(report.eigen.residual)
        assert report.eigen.iterations == 0

    def test_graph_violates_constancy(self, graph_mesh):
        report = analyze(graph_mesh(1.0, ((2, 0, 0.05),), 4), 1)
        assert report.verdict == "hypotheses-violated"
        assert report.h_next_residual > 1e-2
        assert report.h_next_min > 0

    def test_tight_budget_reports_unstable(self, slice_mesh):
        report = analyze(slice_mesh(1.0, 4), 1, Tolerances(gap=1e-9))
        assert report.verdict == "unstable"

    def test_gap_tolerance_scales_with_level(self, slice_mesh):
        report = analyze(slice_mesh(1.0, 4), 1)
        assert report.tol_gap_effective == pytest.approx(2 * report.tol_gap)

    def test_order_out_of_range(self, slice_mesh):
        for r in (-1, 2):
            with pytest.raises(ValueError, match=rf"order r={r} out of range \[0, 1\]"):
                analyze(slice_mesh(1.0, 3), r)

    def test_one_sided_bound_on_slices(self, slice_mesh):
        # mean-zero support function admissible -> constrained minimum below the constant
        for s0 in (0.5, 1.0):
            surf = slice_mesh(s0, 4)
            eta = support_function(surf, BOOST)
            assert abs(np.sum(surf.cache.weights * eta)) < 1e-10 * surf.cache.area
            report = analyze(surf, 1)
            assert report.eigen.lambda1 <= report.lambda_mean + report.tol_gap_effective


class TestJacobiForm:
    def test_threshold_at_first_eigenfunction(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        res = first_eigenvalue_meanzero(assemble(surf, 1))
        sample = jacobi_second_variation(surf, 1, res.eigenfunction)
        norm2 = res.eigenfunction @ (surf.cache.mass @ res.eigenfunction)
        assert abs(sample.value) <= 1e-3 * 2 * norm2

    def test_higher_mode_negative(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        f = SphericalHarmonic(2, 0).value(surf.mesh.q)
        sample = jacobi_second_variation(surf, 1, f)
        assert sample.value < 0

    def test_killing_support_nearly_null(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        eta = support_function(surf, BOOST)
        sample = jacobi_second_variation(surf, 1, eta)
        assert abs(sample.value) <= 1e-3 * sample.scale

    def test_mean_projection_recorded(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        f = 1.0 + SphericalHarmonic(2, 0).value(surf.mesh.q)
        sample = jacobi_second_variation(surf, 1, f)
        assert sample.projected_mass_fraction > 0.1
        assert abs(np.sum(surf.cache.weights * sample.values)) < 1e-10 * surf.cache.area

    def test_constant_rejected(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        with pytest.raises(ValueError):
            jacobi_second_variation(surf, 1, np.ones(surf.cache.vertices.shape[0]))

    def test_mean_zero_battery_nonpositive(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        rng = np.random.default_rng(0)
        q = surf.mesh.q
        battery = [h.value(q) for h in harmonic_basis(4, l_min=1)]
        while len(battery) < 50:
            battery.append(rng.normal(size=q.shape[0]))
        for r in (0, 1):
            for f in battery:
                sample = jacobi_second_variation(surf, r, f)
                assert sample.value <= 1e-8 * sample.scale


    def test_unit_weights_give_the_mass_matrix(self, graph_mesh):
        surface = graph_mesh(1.0, ((2, 0, 0.05),), 3)
        got = weighted_mass_matrix(surface, np.ones(surface.cache.vertices.shape[0]))
        want = surface.cache.mass
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


class TestKillingCheck:
    def test_residual_small_and_decreasing(self, slice_mesh):
        residuals = [killing_eigen_check(slice_mesh(1.0, level), 1, BOOST) for level in (3, 4, 5)]
        assert residuals[2] <= 5e-2
        assert residuals[0] > residuals[1] > residuals[2]

    def test_rotation_is_degenerate(self, slice_mesh):
        spec = KillingFieldSpec(u=np.eye(4)[0], v=np.eye(4)[1], k=1.0)
        with pytest.raises(DegenerateFieldError):
            killing_eigen_check(slice_mesh(1.0, 3), 1, spec)

    def test_equal_vectors_are_degenerate(self, slice_mesh):
        spec = KillingFieldSpec(u=np.eye(4)[0], v=np.eye(4)[0], k=1.0)
        with pytest.raises(DegenerateFieldError):
            killing_eigen_check(slice_mesh(1.0, 3), 1, spec)


class TestConformalIdentity:
    def test_slice_both_orders(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        spec = ConformalFieldSpec(a=AXIS)
        assert conformal_identity_check(surf, 0, spec) <= 5e-2
        assert conformal_identity_check(surf, 1, spec) <= 5e-2

    def test_equator_reduction_exact(self):
        surf = build_slice(0.0, level=3)
        spec = ConformalFieldSpec(a=AXIS)
        assert conformal_identity_check(surf, 0, spec) <= 1e-8

    def test_graph_all_terms(self, graph_mesh):
        spec = ConformalFieldSpec(a=AXIS)
        residuals = [
            conformal_identity_check(graph_mesh(1.0, ((2, 0, 0.05),), level), 1, spec)
            for level in (3, 4, 5)
        ]
        assert residuals[2] <= 1e-1
        assert residuals[0] > residuals[1] > residuals[2]


class TestStabilityField:
    def test_slice_constant_field(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        field = stability_field(surf, 1)
        want = 2 * np.tanh(1.0) / np.cosh(1.0) ** 2
        assert np.abs(field - want).max() < 1e-12

    def test_matches_pointwise_scalar_path(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 3)
        field = stability_field(surf, 1)
        for idx in (0, 100, 500):
            want = stability_constant_binomial(surf.cache.shape[idx], 1.0, 1)
            assert field[idx] == pytest.approx(want, rel=1e-10)


class TestInvariants:
    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("s0", [0.5, 1.0, 1.5])
    def test_slice_convergence_order(self, slice_mesh, r, s0):
        # P1 eigenvalues converge as h^2: both the lambda1 error against the
        # closed form and the report gap measure order 1.999 and 2.000
        exact = slice_operator_eigenvalue(s0, r)
        reports = [analyze(slice_mesh(s0, level), r) for level in (3, 4, 5)]
        errors = np.array([abs(rep.eigen.lambda1 - exact) for rep in reports])
        gaps = np.array([abs(rep.gap) for rep in reports])
        assert (np.log2(errors[:-1] / errors[1:]) >= 1.9).all()
        assert (np.log2(gaps[:-1] / gaps[1:]) >= 1.9).all()

    @pytest.mark.parametrize("r", [0, 1])
    def test_graph_convergence_order(self, graph_mesh, r):
        # graphs have no closed form, but successive lambda1 differences over
        # levels 3/4/5 shrink by 4 (h^2) too: 3.994 at r = 0 and at r = 1
        terms = ((2, 0, 0.05), (3, 1, 0.02))
        lam = [first_eigenvalue_meanzero(assemble(graph_mesh(1.0, terms, level), r)).lambda1
               for level in (3, 4, 5)]
        assert (lam[0] - lam[1]) / (lam[1] - lam[2]) == pytest.approx(4.0, abs=0.5)

    def test_boost_of_axis_leaves_verdict_unchanged(self):
        # the (x0, x3) boost of rapidity 0.7 is an isometry of de Sitter space
        rapidity = 0.7
        boosted = np.array([np.sinh(rapidity), 0.0, 0.0, np.cosh(rapidity)])
        terms = ((2, 0, 0.05), (3, 1, 0.02))
        plain, moved = (analyze(build_graph(1.0, perturbations=terms, level=4, axis=axis), 1)
                        for axis in (AXIS, boosted))
        assert moved.eigen.lambda1 == pytest.approx(plain.eigen.lambda1, rel=1e-12, abs=0)
        assert moved.gap == pytest.approx(plain.gap, rel=0, abs=1e-12)
        assert moved.verdict == plain.verdict
