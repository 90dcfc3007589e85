"""Verdicts, the second-variation form, and the field identity checks."""

import numpy as np
import pytest

import lorstab.stability
from lorstab.config import ScenarioConfig
from lorstab.fem import assemble, weak_residual
from lorstab.stability import (
    _TOL_CONSTANCY,
    _TOL_SOLVER,
    Hypothesis,
    analyze,
    conformal_identity_check,
    jacobi_second_variation,
    killing_eigen_check,
    verdict,
    weighted_mass_matrix,
)
from lorstab.surfaces import build_graph, build_slice

from conftest import solve
from oracles import (
    SphericalHarmonic, harmonic_basis, slice_operator_eigenvalue, stability_constant_binomial, support_function,
)

AXIS = np.array([0.0, 0.0, 0.0, 1.0])
BOOST = (np.eye(4)[0], AXIS)      # (u, v) of the boost W = <u,p> v - <v,p> u the Killing check reads


def at_order(r, **keys):
    """A config of order r; analyze reads no other field but the tolerances and the seed."""
    return ScenarioConfig("slice", r, 1.0, **keys)


class TestAnalyze:
    def test_slice_is_threshold_stable(self, slice_mesh):
        report = analyze(slice_mesh(1.0, 5), at_order(1))
        assert report.verdict == "stable"
        want = 2 * np.tanh(1.0) / np.cosh(1.0) ** 2
        assert report.lambda_mean == pytest.approx(want, rel=1e-10)
        assert abs(report.gap) / report.lambda_mean < 0.02
        assert report.chronology == "future"
        assert report.h2_positive and report.has_elliptic_point
        assert report.h_next_residual < 1e-10 and report.lambda_residual < 1e-10

    def test_equator_violates_hypotheses(self):
        report = analyze(build_slice(0.0, level=3), at_order(1))
        assert report.verdict == "hypotheses-violated"
        assert report.h_next_mean == pytest.approx(0.0, abs=1e-14)
        assert report.psi_min_abs == pytest.approx(0.0, abs=1e-12)
        assert report.chronology == "mixed"
        assert np.isnan(report.lambda1) and report.eigen_iterations == 0

    def test_past_slice_r0_violates_positivity(self):
        report = analyze(build_slice(-1.0, level=3), at_order(0))
        assert report.verdict == "hypotheses-violated"
        assert report.h_next_max < 0
        assert report.chronology == "past"

    def test_past_slice_r1_violates_ellipticity(self):
        # P_1 = -tanh(1) I is negative definite: the spectrum of L_1 is
        # unbounded below, so its bottom decides nothing
        report = analyze(build_slice(-1.0, level=3), at_order(1))
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
        report = analyze(build_slice(s0, level=3), at_order(1))
        assert report.verdict == "hypotheses-violated"
        assert not report.min_newton_eig > 0.0
        assert np.isnan(report.lambda1) and np.isnan(report.gap) and np.isnan(report.eigen_residual)
        assert report.eigen_iterations == 0

    def test_graph_violates_constancy(self, graph_mesh):
        report = analyze(graph_mesh(1.0, ((2, 0, 0.05),), 4), at_order(1))
        assert report.verdict == "hypotheses-violated"
        assert report.h_next_residual > 1e-2
        assert report.h_next_min > 0

    def test_tight_budget_reports_unstable(self, slice_mesh):
        report = analyze(slice_mesh(1.0, 4), at_order(1, tol_gap=1e-9))
        assert report.verdict == "unstable"

    def test_gap_tolerance_scales_with_level(self, slice_mesh):
        report = analyze(slice_mesh(1.0, 4), at_order(1))
        assert report.tol_gap_effective == pytest.approx(2 * report.tol_gap)

    def test_tolerances_come_from_the_config(self, slice_mesh):
        report = analyze(slice_mesh(1.0, 4), at_order(1, tol_gap=3e-2))
        assert (report.tol_gap, report.tol_constancy, report.tol_solver) == (3e-2, _TOL_CONSTANCY, _TOL_SOLVER)
        assert report.tol_gap_effective == 6e-2

    def test_order_out_of_range(self, slice_mesh):
        for r in (-1, 2):
            with pytest.raises(ValueError, match=rf"order r={r} out of range \[0, 1\]"):
                analyze(slice_mesh(1.0, 3), at_order(r))

    def test_one_sided_bound_on_slices(self, slice_mesh):
        # mean-zero support function admissible -> constrained minimum below the constant
        for s0 in (0.5, 1.0):
            surf = slice_mesh(s0, 4)
            eta = support_function(surf, *BOOST)
            assert abs(np.sum(surf.weights * eta)) < 1e-10 * surf.area
            report = analyze(surf, at_order(1))
            assert report.lambda1 <= report.lambda_mean + report.tol_gap_effective


HYPOTHESES = ("h_next_positive", "h_next_constant", "lambda_constant", "one_side_of_equator", "elliptic")


def hypotheses(failing=None):
    """The five hypotheses, all holding but the one named ``failing``."""
    return tuple(Hypothesis(name, 1.0, 0.0, name != failing) for name in HYPOTHESES)


@pytest.fixture
def spied(monkeypatch):
    """The hypotheses of every ``analyze`` call, with the verdict read from them."""
    calls = []
    rule = lorstab.stability.verdict

    def spy(found, *args):
        calls.append((found, rule(found, *args)))
        return calls[-1][1]

    monkeypatch.setattr(lorstab.stability, "verdict", spy)
    return calls


class TestVerdictRule:
    """``verdict`` on hand-made hypotheses and gaps: lam_mean = 2 and budget
    0.25 put the gap's bound at 0.5, which 2 - 1.5 and 2 - 2.5 reach exactly."""

    @pytest.mark.parametrize("failing", HYPOTHESES)
    def test_each_failing_hypothesis_alone(self, failing):
        assert verdict(hypotheses(failing), 2.0, 2.0, 0.25) == "hypotheses-violated"

    @pytest.mark.parametrize("lam_mean, lambda1, want", [
        (2.0, 2.0, "stable"),
        (2.0, 1.5, "stable"),
        (2.0, 2.5, "stable"),
        (2.0, np.nextafter(1.5, 0.0), "unstable"),
        (2.0, np.nextafter(2.5, 3.0), "unstable"),
        (0.75, 0.5, "stable"),              # below |lam_mean| = 1 the bound is the budget itself
        (0.75, np.nextafter(0.5, 0.0), "unstable"),
        (2.0, np.nan, "unstable"),
    ], ids=["no-gap", "plus-budget", "minus-budget", "beyond-plus", "beyond-minus",
            "small-mean-at-budget", "small-mean-beyond", "nan-lambda1"])
    def test_gap_against_the_budget(self, lam_mean, lambda1, want):
        assert verdict(hypotheses(), lam_mean, lambda1, 0.25) == want

    def test_nan_lambda1_without_ellipticity(self):
        """The solve is skipped where P_r is not definite, so a nan lambda1
        comes with a failed hypothesis."""
        assert verdict(hypotheses("elliptic"), 2.0, np.nan, 0.25) == "hypotheses-violated"

    @pytest.mark.parametrize("s0, perturbations, chronology", [
        (-1.0, (), "past"), (0.0, (), "mixed"), (1.0, (), "future"),
        (1.0, ((2, 0, 0.05),), "future"), (0.01, ((2, 0, 0.05),), "mixed"),
    ], ids=["past-slice", "equator", "future-slice", "graph", "graph-across-the-equator"])
    def test_one_side_of_equator_is_the_chronology(self, spied, s0, perturbations, chronology):
        report = analyze(build_graph(s0, perturbations=perturbations, level=3), at_order(0))
        (found, _), = spied
        one_side = found[HYPOTHESES.index("one_side_of_equator")]
        assert report.chronology == chronology
        assert one_side.holds == (chronology in ("future", "past"))

    @pytest.mark.parametrize("r", [0, 1])
    def test_every_violated_verdict_names_a_failed_hypothesis(self, spied, graph_mesh, r):
        """Level-3 slices on both sides of the equator and on it, and the
        near-umbilical level-4 graphs of the output comparison's matrix."""
        surfaces = [build_slice(s0, level=3) for s0 in (-1.0, 0.0, 0.3, 1.0)]
        surfaces += [graph_mesh(s0, ((2, 0, 0.002), (3, 1, 0.0008)), 4) for s0 in (1.0, -1.0)]
        reports = [analyze(surface, at_order(r)) for surface in surfaces]
        failed = [{h.name for h in found if not h.holds} for found, _ in spied]
        assert [h.name for h in spied[0][0]] == list(HYPOTHESES)
        assert [report.verdict for report in reports] == [rule for _, rule in spied]
        for report, names in zip(reports, failed):
            assert (report.verdict == "hypotheses-violated") == bool(names)
        past = {"h_next_positive"} if r == 0 else {"elliptic"}      # H_1 < 0, or P_1 negative definite
        graph = {"h_next_constant", "lambda_constant"}
        equator = {"one_side_of_equator", "h_next_positive"} | ({"elliptic"} if r == 1 else set())
        assert failed == [past, equator, set(), set(), graph, graph | past]


class TestJacobiForm:
    def test_threshold_at_first_eigenfunction(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        res = solve(assemble(surf, 1))
        value, _ = jacobi_second_variation(surf, 1, res.eigenfunction)
        norm2 = res.eigenfunction @ (surf.mass @ res.eigenfunction)
        assert abs(value) <= 1e-3 * 2 * norm2

    def test_higher_mode_negative(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        f = SphericalHarmonic(2, 0).value(surf.mesh.q)
        value, _ = jacobi_second_variation(surf, 1, f)
        assert value < 0

    def test_killing_support_nearly_null(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        eta = support_function(surf, *BOOST)
        value, scale = jacobi_second_variation(surf, 1, eta)
        assert abs(value) <= 1e-3 * scale

    def test_mean_is_projected_out(self, slice_mesh):
        surf = slice_mesh(1.0, 4)
        f = 1.0 + SphericalHarmonic(2, 0).value(surf.mesh.q)
        w = surf.weights
        value, _ = jacobi_second_variation(surf, 1, f)
        projected, _ = jacobi_second_variation(surf, 1, f - np.sum(w * f) / np.sum(w))
        assert value == pytest.approx(projected, rel=1e-12, abs=0)

    def test_constant_rejected(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        with pytest.raises(ValueError):
            jacobi_second_variation(surf, 1, np.ones(surf.vertices.shape[0]))

    def test_mean_zero_battery_nonpositive(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        rng = np.random.default_rng(0)
        q = surf.mesh.q
        battery = [h.value(q) for h in harmonic_basis(4, l_min=1)]
        while len(battery) < 50:
            battery.append(rng.normal(size=q.shape[0]))
        for r in (0, 1):
            for f in battery:
                value, scale = jacobi_second_variation(surf, r, f)
                assert value <= 1e-8 * scale


    def test_unit_weights_give_the_mass_matrix(self, graph_mesh):
        surface = graph_mesh(1.0, ((2, 0, 0.05),), 3)
        got = weighted_mass_matrix(surface, np.ones(surface.vertices.shape[0]))
        want = surface.mass
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


class TestKillingCheck:
    def test_residual_small_and_decreasing(self, slice_mesh):
        residuals = [killing_eigen_check(slice_mesh(1.0, level), 1)[0] for level in (3, 4, 5)]
        assert residuals[2] <= 5e-2
        assert residuals[0] > residuals[1] > residuals[2]

    def test_mean_fraction_is_that_of_the_support_function(self, graph_mesh):
        """The surface's support function, bit for bit; the oracle field's to the
        rounding of its ambient form, which this cancelling sum amplifies
        (3.5e-12 relative here)."""
        surface = graph_mesh(1.0, ((2, 0, 0.05), (3, 1, 0.02)), 3)
        got = killing_eigen_check(surface, 1)[1]
        for eta, rel in ((surface.boost_support, 0.0), (support_function(surface, *BOOST), 1e-10)):
            want = abs(float(np.sum(surface.weights * eta))) / (surface.area * float(np.abs(eta).max()))
            assert got == pytest.approx(want, rel=rel, abs=0.0)


class TestConformalIdentity:
    def test_slice_both_orders(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        assert conformal_identity_check(surf, 0) <= 5e-2
        assert conformal_identity_check(surf, 1) <= 5e-2

    def test_equator_reduction_exact(self):
        surf = build_slice(0.0, level=3)
        assert conformal_identity_check(surf, 0) <= 1e-8

    def test_graph_all_terms(self, graph_mesh):
        residuals = [
            conformal_identity_check(graph_mesh(1.0, ((2, 0, 0.05),), level), 1)
            for level in (3, 4, 5)
        ]
        assert residuals[2] <= 1e-1
        assert residuals[0] > residuals[1] > residuals[2]


class TestOperatorRecord:
    """analyze and the field checks read the comparison field and its mean
    from the one operator record that ``assemble`` keeps per surface and order."""

    @pytest.mark.parametrize("r", [0, 1])
    def test_checks_read_the_record(self, r):
        surf = build_graph(1.0, perturbations=((2, 0, 0.05), (3, 1, 0.02)), level=3)
        report = analyze(surf, at_order(r))
        killing_residual, _ = killing_eigen_check(surf, r)
        conformal_identity_check(surf, r)
        pair = assemble(surf, r)
        assert list(surf._memo) == [r] and surf._memo[r] is pair
        assert report.lambda_mean == pair.lam_mean
        assert pair.lam_mean == float(np.sum(pair.lam_field * surf.weights) / np.sum(surf.weights))
        assert killing_residual == weak_residual(pair, surf.boost_support, pair.lam_mean)


class TestStabilityField:
    def test_slice_constant_field(self, slice_mesh):
        surf = slice_mesh(1.0, 3)
        field = assemble(surf, 1).lam_field
        want = 2 * np.tanh(1.0) / np.cosh(1.0) ** 2
        assert np.abs(field - want).max() < 1e-12

    def test_matches_pointwise_scalar_path(self, graph_mesh):
        surf = graph_mesh(1.0, ((2, 0, 0.05),), 3)
        field = assemble(surf, 1).lam_field
        for idx in (0, 100, 500):
            want = stability_constant_binomial(surf.shape[idx], 1.0, 1)
            assert field[idx] == pytest.approx(want, rel=1e-10)


class TestInvariants:
    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("s0", [0.5, 1.0, 1.5])
    def test_slice_convergence_order(self, slice_mesh, r, s0):
        # P1 eigenvalues converge as h^2: both the lambda1 error against the
        # closed form and the report gap measure order 1.999 and 2.000
        exact = slice_operator_eigenvalue(s0, r)
        reports = [analyze(slice_mesh(s0, level), at_order(r)) for level in (3, 4, 5)]
        errors = np.array([abs(rep.lambda1 - exact) for rep in reports])
        gaps = np.array([abs(rep.gap) for rep in reports])
        assert (np.log2(errors[:-1] / errors[1:]) >= 1.9).all()
        assert (np.log2(gaps[:-1] / gaps[1:]) >= 1.9).all()

    @pytest.mark.parametrize("r", [0, 1])
    def test_graph_convergence_order(self, graph_mesh, r):
        # graphs have no closed form, but successive lambda1 differences over
        # levels 3/4/5 shrink by 4 (h^2) too: 3.994 at r = 0 and at r = 1
        terms = ((2, 0, 0.05), (3, 1, 0.02))
        lam = [solve(assemble(graph_mesh(1.0, terms, level), r)).lambda1
               for level in (3, 4, 5)]
        assert (lam[0] - lam[1]) / (lam[1] - lam[2]) == pytest.approx(4.0, abs=0.5)
