"""Stability harness: hypothesis checks, the constant-vs-eigenvalue gap,
the second-variation quadratic form, and the field identity checks.

The verdict is three-valued.  The eigenvalue criterion is an equivalence
only under its hypotheses (positive constant next-order mean curvature,
constant comparison field, surface on one side of the equator, conformal
divergence nonvanishing, P_r positive definite), so hypothesis failure is
reported as its own outcome rather than mapped to "unstable".  The spectrum
is computed only where P_r is positive definite: without ellipticity the
discrete bottom eigenvalue of div(P_r grad) falls without bound as the mesh
is refined, so lambda1 and the gap are nan there and nothing is solved.

The Killing check reads the support function eta of the one boost
W(p) = p4 e1 + p1 e4 (see ``surfaces``), a Jacobi field at the comparison
constant, and reports its weak eigen-defect.  eta comes from the chart
(``GraphSurface.boost_support``), so its rounding error does not grow like
cosh(s0)^2 as the ambient form's does.  It cannot vanish everywhere: boost
orbits off the circle p1 = p4 = 0 are unbounded, so no closed spacelike
surface is invariant under W.

The ambient curvature c = 1 (de Sitter space) and the dimension n = 2, so
r in {0, 1}, are fixed here, not passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .fem import assemble, first_eigenvalue_meanzero, weak_residual
from .surfaces import GraphSurface, _consistent_mass, mdot, tangential_gradient

__all__ = [
    "StabilityReport",
    "analyze",
    "jacobi_second_variation",
    "killing_eigen_check",
    "conformal_identity_check",
]

_PSI_FLOOR = 1e-10
# the largest relative spread of H_{r+1} and of the comparison field that counts
# as constant, and the eigensolver tolerance that fem's stop rule is calibrated at
_TOL_CONSTANCY = 1e-6
_TOL_SOLVER = 1e-8


@dataclass(frozen=True)
class StabilityReport:
    """The verdict and what it rests on, in the order of the report's
    ``stability:`` block."""

    verdict: str
    r: int
    level: int
    h_next_mean: float
    h_next_min: float
    h_next_max: float
    h_next_residual: float
    lambda_mean: float
    lambda_residual: float
    lambda1: float
    gap: float
    eigen_iterations: int
    eigen_residual: float
    min_newton_eig: float
    h2_positive: bool
    has_elliptic_point: bool
    psi_min_abs: float
    chronology: str
    tol_gap: float
    tol_gap_effective: float
    tol_constancy: float
    tol_solver: float


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sum(values * weights) / np.sum(weights))


def _mean_fraction(surface: GraphSurface, values: np.ndarray) -> float:
    """|integral of f| / (area * max|f|): how far f is from mean-zero."""
    return abs(float(np.sum(surface.weights * values))) / (surface.area * max(float(np.abs(values).max()), 1e-30))


def _constancy_residual(values: np.ndarray, mean: float) -> float:
    return float(np.abs(values - mean).max() / max(abs(mean), 1e-30))


def _chronology(surface: GraphSurface) -> tuple[str, np.ndarray]:
    """The side of the equator p4 = 0 the surface lies on, and the conformal
    factor psi = p4 per vertex."""
    psi = surface.vertices[:, 3]
    if (psi > _PSI_FLOOR).all():
        return "future", psi
    if (psi < -_PSI_FLOOR).all():
        return "past", psi
    return "mixed", psi


def analyze(surface: GraphSurface, config: ScenarioConfig) -> StabilityReport:
    """Full stability analysis of a built surface (ambient c = 1) at the
    config's order r, gap budget and solver seed."""
    r = config.r
    if r not in (0, 1):
        raise ValueError(f"order r={r} out of range [0, 1]")

    h_next = surface.mean[:, r + 1]
    h_next_mean = _weighted_mean(h_next, surface.weights)
    h_next_residual = _constancy_residual(h_next, h_next_mean)

    pair = assemble(surface, r)
    lam_mean = pair.lam_mean
    lam_residual = _constancy_residual(pair.lam_field, lam_mean)
    if pair.min_newton_eig > 0.0:
        eigen = first_eigenvalue_meanzero(pair, tol=_TOL_SOLVER, seed=config.seed)
        lambda1, iterations, residual = eigen.lambda1, eigen.iterations, eigen.residual
    else:
        lambda1, iterations, residual = np.nan, 0, np.nan
    gap = lam_mean - lambda1

    h2 = surface.mean[:, 2]
    eigs = surface.shape_eigs
    definite = np.logical_or((eigs > 0).all(axis=1), (eigs < 0).all(axis=1))
    chronology, psi = _chronology(surface)
    psi_min_abs = float(np.abs(psi).min())

    level = surface.mesh.level
    tol_gap_eff = config.tol_gap * 2.0 ** (5 - level)
    hypotheses_ok = (
        h_next.min() > 0.0
        and h_next_residual <= _TOL_CONSTANCY
        and lam_residual <= _TOL_CONSTANCY
        and chronology in ("future", "past")
        and psi_min_abs > _PSI_FLOOR
        and pair.min_newton_eig > 0.0
    )
    if not hypotheses_ok:
        verdict = "hypotheses-violated"
    elif abs(gap) <= tol_gap_eff * max(1.0, abs(lam_mean)):
        verdict = "stable"
    else:
        verdict = "unstable"

    return StabilityReport(
        verdict=verdict,
        r=r,
        level=level,
        h_next_mean=h_next_mean,
        h_next_min=float(h_next.min()),
        h_next_max=float(h_next.max()),
        h_next_residual=h_next_residual,
        lambda_mean=lam_mean,
        lambda_residual=lam_residual,
        lambda1=lambda1,
        gap=gap,
        eigen_iterations=iterations,
        eigen_residual=residual,
        min_newton_eig=pair.min_newton_eig,
        h2_positive=bool(h2.min() > 0.0),
        has_elliptic_point=bool(definite.any()),
        psi_min_abs=psi_min_abs,
        chronology=chronology,
        tol_gap=config.tol_gap,
        tol_gap_effective=tol_gap_eff,
        tol_constancy=_TOL_CONSTANCY,
        tol_solver=_TOL_SOLVER,
    )


def weighted_mass_matrix(surface: GraphSurface, vertex_weights: np.ndarray):
    """Consistent mass matrix with a per-face weight (corner average)."""
    face_weight = vertex_weights[surface.mesh.faces].mean(axis=1) * surface.face_area
    return _consistent_mass(surface.mesh, face_weight)


def jacobi_second_variation(surface: GraphSurface, r: int, values: np.ndarray) -> tuple[float, float]:
    """Second variation of the constrained functional at a mean-zero function,
    and the magnitude of its two competing terms.

    (r+1) * [ - f'Kf + f' M_lam f ] with the comparison field integrated
    consistently; the input is projected onto mean-zero first.
    """
    values = np.asarray(values, dtype=float)
    mean = float(surface.weights @ values) / surface.area
    norm_before = float(np.abs(values).max())
    projected = values - mean
    if np.abs(projected).max() <= 1e-14 * max(1.0, norm_before):
        raise ValueError("test function vanishes after mean-zero projection")

    pair = assemble(surface, r)
    m_lam = weighted_mass_matrix(surface, pair.lam_field)
    quad_k = float(projected @ (pair.stiffness @ projected))
    quad_lam = float(projected @ (m_lam @ projected))
    value = (r + 1) * (-quad_k + quad_lam)
    scale = (r + 1) * max(abs(quad_k), abs(quad_lam), 1e-30)
    return value, scale


def killing_eigen_check(surface: GraphSurface, r: int) -> tuple[float, float]:
    """Weak eigen-defect of the support function eta = <W, N> of the boost
    W(p) = p4 e1 + p1 e4 at the comparison constant, and the mass-weighted
    mean of eta relative to area * max|eta|.

    eta is the surface's ``boost_support``, alpha (tanh(u) g1 - q1) in the
    chart (g the sphere gradient of the height u, alpha = cosh(u) /
    sqrt(cosh(u)^2 - |g|^2)); the ambient form p4 N1 - p1 N4 subtracts two
    terms of size cosh(u)^2 and loses cosh(u)^2 eps.
    """
    eta = surface.boost_support
    pair = assemble(surface, r)
    return weak_residual(pair, eta, pair.lam_mean), _mean_fraction(surface, eta)


def conformal_identity_check(surface: GraphSurface, r: int) -> float:
    """Pointwise residual of the conformal support-function identity of the
    closed conformal field V = e4 + p4 p, whose conformal factor is psi = p4.

    Both sides are paired weakly against hat functions, converted back to
    point values through the lumped mass, and compared relative to the
    largest constituent term.  Constancy of the next-order curvature is not
    required; the gradient term is evaluated with the discrete tangential
    gradient.
    """
    b_r = 2                                      # (n - r) C(n, r) at n = 2, for r = 0 and r = 1

    p = surface.vertices
    psi = p[:, 3]
    n_psi = surface.normal[:, 3]                 # -<N, e4>
    v_field = np.array([0.0, 0.0, 0.0, 1.0]) + psi[:, None] * p     # V = e4 + psi p
    eta = mdot(v_field, surface.normal)
    h_r = surface.mean[:, r]
    h_next = surface.mean[:, r + 1]
    grad_h = tangential_gradient(surface, h_next)
    v_grad = mdot(v_field, grad_h)

    pair = assemble(surface, r)
    term1 = -pair.lam_field * eta                # {tr(A^2 P_r) - c tr(P_r)} eta
    term2 = -b_r * h_r * n_psi
    term3 = b_r * h_next * psi
    term4 = (b_r / (r + 1)) * v_grad
    rhs_values = term1 + term2 + term3 + term4

    lhs_weak = -(pair.stiffness @ eta)
    rhs_weak = pair.mass @ rhs_values
    defect = (lhs_weak - rhs_weak) / surface.weights
    scale = float((np.abs(term1) + np.abs(term2) + np.abs(term3) + np.abs(term4)).max())
    return float(np.abs(defect).max() / max(scale, 1e-30))
