"""Normal-variation flows and finite-difference verification of the
variational formulas.

The ambient curvature c = 1 (de Sitter space) and the dimension n = 2 are
fixed here, not passed in; flows run for |t| <= ``_T_MAX``.

A variation moves every point along its geodesic normal line with a
prescribed amplitude:  X_t(p) = cosh(t f(p)) p + sinh(t f(p)) N(p).
For a slice base this flow lands exactly on the height graph s0 + t*f, so
flowed snapshots stay inside the analytic family and their curvature
fields are exact.  All first/second derivatives in t are taken by central
differences on the symmetric stencil {-2h, -h, 0, h, 2h} and compared
against the closed-form variation formulas evaluated by quadrature.  The
base keeps its height's jets and a variation keeps its amplitude's, so a
snapshot is built from base jets + t amplitude jets without evaluating
harmonics.

The balance-of-volume oracle integrates the chart's volume form: in the
warped chart (cosh s q, sinh s) the metric is -ds^2 + cosh^2 s g_{S^2}, so
the volume swept between the heights u and u + t f is a sphere integral of
the antiderivative of cosh^2 s, taken by a fixed Gauss-Legendre x trapezoid
rule (``volume_balance``).  It uses neither the mesh nor the curvature, so
it is independent of the first-variation lemma it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .fem import assemble
from .harmonics import HarmonicField
from .stability import _mean_fraction, _weighted_mean, jacobi_second_variation
from .surfaces import GraphConstructionError, GraphSurface, build_graph

__all__ = [
    "FlowError",
    "NormalVariation",
    "VariationCheck",
    "flow",
    "r_area",
    "volume_balance",
    "verify_first_variation",
    "verify_sr_evolution",
    "verify_second_variation",
    "volume_derivative_check",
]

_T_MAX = 0.1        # largest |t| a flow or a swept volume is taken at


class FlowError(RuntimeError):
    """A flow snapshot could not be built at time ``t``.

    ``vertex`` is None when |t| exceeds ``_T_MAX``.  When spacelikeness is
    lost, it is the vertex with the smallest margin cosh^2(u) - |grad u|^2 of
    the flowed height u = s0 + t f (or, should every vertex pass, a vertex of
    the face with the most negative induced metric).
    """

    def __init__(self, message: str, t: float, vertex: int | None = None):
        super().__init__(message)
        self.t = t
        self.vertex = vertex


@dataclass(frozen=True)
class NormalVariation:
    """Normal flow of a slice base with a harmonic amplitude field."""

    base: GraphSurface
    amplitude: HarmonicField

    def __post_init__(self):
        if not self.base.is_slice:
            raise ValueError(
                "normal variations need a slice base; flowed graphs leave the analytic family"
            )

    @cached_property
    def jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The amplitude's value, sphere gradient and sphere Hessian at the base's mesh points."""
        return self.amplitude.jets(self.base.mesh.q)

    def values(self) -> np.ndarray:
        return self.jets[0]


@dataclass(frozen=True)
class VariationCheck:
    """One finite-difference check.  ``richardson`` is |fd - fd_wide| / 3,
    the truncation estimate from the stencil of twice the step; ``max_error``
    is the largest per-vertex error of a field check.  Each is nan where the
    check does not compute it."""

    check: str
    h: float
    level: int
    lhs: float
    rhs: float
    rel_error: float
    richardson: float = float("nan")
    max_error: float = float("nan")


def _check_time(t: float) -> None:
    if abs(t) > _T_MAX:
        raise FlowError(f"|t| = {abs(t):.3g} exceeds t_max = {_T_MAX:.3g}", t=t)


def flow(variation: NormalVariation, t: float) -> GraphSurface:
    """Snapshot of the flowed surface; exact within the analytic family.

    The snapshot is the height graph u = s0 + t f built on the base's own
    mesh object (``build_graph(..., mesh=base.mesh)``): it shares the base's
    directions, faces, level, sphere frames and order; its jets are the base's
    (``base.jets``, kept on the base) plus t times the amplitude's.  It is
    spacelike where |grad u| = |t grad f| < cosh(s0 + t f), checked at the
    vertices; where |t grad f| >= cosh(s0 + t f) at some vertex, FlowError is
    raised naming the vertex with the smallest margin cosh^2(u) - |grad u|^2.
    |t| > ``_T_MAX`` raises FlowError with ``vertex`` None.
    """
    _check_time(t)
    base = variation.base
    if t == 0.0:
        return base
    height = base.height.plus(variation.amplitude, factor=t)
    jets = tuple(b + t * a for b, a in zip(base.jets, variation.jets))
    try:
        return build_graph(height.constant, perturbations=height.terms, mesh=base.mesh, jets=jets)
    except GraphConstructionError as err:
        raise FlowError(f"flow at t = {t:.6g} loses spacelikeness: {err}", t=t,
                        vertex=err.vertex) from err


def r_area(surface: GraphSurface, r: int) -> float:
    """Order-r area functional: vertex quadrature of F_r against the area
    weights, with F_0 = 1 and F_1 = -sigma_1."""
    if r not in (0, 1):
        raise ValueError(f"order r={r} out of range [0, 1]")
    integrand = -surface.sigma[:, 1] if r else 1.0
    return float(np.sum(surface.weights * integrand))


@cache
def _sphere_rule() -> tuple[np.ndarray, np.ndarray]:
    """Unit points (3200, 3) and weights (3200,) of the product rule on S^2:
    40 Gauss-Legendre nodes in cos(theta) times 80 trapezoid nodes in phi.
    The weights sum to 4 pi; harmonics of degree below 80 integrate exactly."""
    z, wz = np.polynomial.legendre.leggauss(40)
    phi = np.linspace(0.0, 2.0 * np.pi, 80, endpoint=False)
    rho = np.sqrt(1.0 - z * z)[:, None]
    q = np.stack(np.broadcast_arrays(rho * np.cos(phi), rho * np.sin(phi), z[:, None]), axis=-1)
    return q.reshape(-1, 3), np.repeat(wz * (2.0 * np.pi / phi.size), phi.size)


def volume_balance(variation: NormalVariation, t):
    """Signed swept volume between the base and the flowed surface.

    ``t`` is one time or a sequence of times; a sequence gives an array with
    one volume per time, each equal to the scalar call.  Each point counts
    with the sign of t f(p), so a positive amplitude at t > 0 gives a
    positive volume.  The flow depends on (f, t) only through t f, so
    f -> -f gives the same value as t -> -t; the result is not odd in f.  On
    the 2-slice at s0 with t > 0 it is the slab volume
    4 pi int cosh^2 s ds over [s0, s0 + t] for f = 1, and minus that over
    [s0 - t, s0] for f = -1; the slab above s0 is the larger.

    The snapshot at t is the height graph u + t f in the warped chart
    (cosh s q, sinh s), whose volume form is cosh^2 s ds dA_{S^2}.  So the
    volume is the ``_sphere_rule`` integral of F(u + t f) - F(u), with
    F(s) = s / 2 + sinh(2 s) / 4, written as d / 2 + sinh(d) cosh(2 u + d) / 2
    with d = t f so that small t does not cancel.  The mesh does not enter.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    for tt in times:
        _check_time(float(tt))
    q, w = _sphere_rule()
    u = variation.base.height.value(q)
    d = times[:, None] * variation.amplitude.value(q)
    # a row-wise sum, so that each time's volume is the same in any sequence
    volumes = np.sum((0.5 * d + 0.5 * np.sinh(d) * np.cosh(2.0 * u + d)) * w, axis=1)
    return float(volumes[0]) if np.ndim(t) == 0 else volumes


def _lagrange_constant(base: GraphSurface, r: int) -> float:
    """Lagrange multiplier of the volume constraint, c_r + b_r mean(H_{r+1}):
    the first variation of the order-r area is the integral of
    (c_r + b_r H_{r+1}) f, with c_r = 2 r the variation constant and
    b_r = (n - r) C(n, r), which is 2 at n = 2 for both r = 0 and r = 1."""
    return 2.0 * r + 2 * _weighted_mean(base.mean[:, r + 1], base.weights)


def verify_first_variation(variation: NormalVariation, r: int, *, h: float) -> VariationCheck:
    """Central difference of the order-r area against its first-variation formula."""
    base = variation.base
    t_nodes = [-2.0 * h, -h, h, 2.0 * h]
    areas = [r_area(flow(variation, t), r) for t in t_nodes]
    fd = (areas[2] - areas[1]) / (2.0 * h)
    fd_wide = (areas[3] - areas[0]) / (4.0 * h)

    integrand = (-1.0) ** (r + 1) * (r + 1) * base.sigma[:, r + 1] + 2.0 * r     # + c_r
    f = variation.values()
    rhs = float(np.sum(base.weights * integrand * f))
    scale = max(abs(fd), abs(rhs), float(np.sum(base.weights * np.abs(integrand) * np.abs(f))), 1e-30)
    return VariationCheck(
        check="first_variation",
        h=h,
        level=base.mesh.level,
        lhs=fd,
        rhs=rhs,
        rel_error=abs(fd - rhs) / scale,
        richardson=abs(fd - fd_wide) / 3.0,
    )


def verify_sr_evolution(variation: NormalVariation, r: int, *, h: float) -> VariationCheck:
    """Per-vertex time derivative of the next elementary symmetric field
    against the weak evaluation of its evolution formula (ambient c = 1)."""
    base = variation.base
    snaps = [flow(variation, t) for t in (-h, h)]
    s_minus = snaps[0].sigma[:, r + 1]
    s_plus = snaps[1].sigma[:, r + 1]
    lhs = (s_plus - s_minus) / (2.0 * h)

    f = variation.values()
    pair = assemble(base, r)
    weak_l = -(pair.stiffness @ f) / pair.lumped
    lam_field = pair.lam_field
    rhs = (-1.0) ** (r + 1) * (weak_l + lam_field * f)

    scale = float((np.abs(weak_l) + np.abs(lam_field * f)).max())
    scale = max(scale, 1e-30)
    err = np.abs(lhs - rhs) / scale
    w = base.weights
    lhs_rms = float(np.sqrt(np.sum(w * lhs * lhs) / base.area))
    rhs_rms = float(np.sqrt(np.sum(w * rhs * rhs) / base.area))
    return VariationCheck(
        check="sr_evolution",
        h=h,
        level=base.mesh.level,
        lhs=lhs_rms,
        rhs=rhs_rms,
        rel_error=float(err.mean()),
        max_error=float(err.max()),
    )


def verify_second_variation(variation: NormalVariation, r: int, *, h: float) -> VariationCheck:
    """Second difference of the constrained functional J = A_r - lambda V on
    the stencil {-2h, -h, 0, h, 2h} against the second-variation quadratic
    form; the amplitude must be mean-zero."""
    base = variation.base
    f = variation.values()
    if _mean_fraction(base, f) > 1e-8:
        raise ValueError("second-variation amplitudes must be mean-zero")

    t_nodes = np.array([-2.0 * h, -h, 0.0, h, 2.0 * h])
    areas = np.array([r_area(flow(variation, t), r) for t in t_nodes])
    jacobi = areas - _lagrange_constant(base, r) * volume_balance(variation, t_nodes)
    fd = (jacobi[3] - 2.0 * jacobi[2] + jacobi[1]) / (h * h)
    fd_wide = (jacobi[4] - 2.0 * jacobi[2] + jacobi[0]) / (4.0 * h * h)

    value, scale = jacobi_second_variation(base, r, f)
    return VariationCheck(
        check="second_variation",
        h=h,
        level=base.mesh.level,
        lhs=fd,
        rhs=value,
        rel_error=abs(fd - value) / scale,
        richardson=abs(fd - fd_wide) / 3.0,
    )


def volume_derivative_check(variation: NormalVariation, *, h: float) -> VariationCheck:
    """Balance-of-volume derivative at t = 0 against the area integral of f."""
    base = variation.base
    volumes = volume_balance(variation, (-h, h))
    fd = float(volumes[1] - volumes[0]) / (2.0 * h)
    f = variation.values()
    rhs = float(np.sum(base.weights * f))
    scale = abs(rhs) + base.area * float(np.abs(f).max())
    return VariationCheck(
        check="volume_balance",
        h=h,
        level=base.mesh.level,
        lhs=fd,
        rhs=rhs,
        rel_error=abs(fd - rhs) / max(scale, 1e-30),
    )
