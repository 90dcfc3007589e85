"""Normal-variation flows and finite-difference verification of the
variational formulas.

A variation moves every point along its geodesic normal line with a
prescribed amplitude:  X_t(p) = cosh(t f(p)) p + sinh(t f(p)) N(p).
For a slice base this flow lands exactly on the height graph s0 + t*f, so
flowed snapshots stay inside the analytic family and their curvature
fields are exact.  All first/second derivatives in t are taken by central
differences on the symmetric stencil {-2h, -h, 0, h, 2h} and compared
against the closed-form variation formulas evaluated by quadrature.

The balance-of-volume oracle integrates the pulled-back ambient volume
form directly (Gram determinants of the flow differential), so it is
independent of the first-variation lemma it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .curvature import r_area_integrand, variation_constant
from .fem import assemble
from .harmonics import HarmonicField
from .lorentz import mdot
from .stability import jacobi_second_variation
from .surfaces import GraphConstructionError, GraphSurface, build_graph

__all__ = [
    "FlowError",
    "NormalVariation",
    "FunctionalTrace",
    "VariationCheck",
    "flow",
    "r_area",
    "volume_balance",
    "functional_trace",
    "verify_first_variation",
    "verify_sr_evolution",
    "verify_second_variation",
    "volume_derivative_check",
]

# orientation constant of the swept-volume element: chosen once so that the
# outward face frame, the future normal, and the position vector count
# positively (pinned by the closed-form slab volumes 4 pi int cosh^2 s ds in
# TestVolumeBalance::test_sign_flips_with_amplitude)
_ORIENTATION = -1.0


class FlowError(RuntimeError):
    """A flow snapshot could not be built at time ``t``.

    ``vertex`` is None when |t| exceeds ``t_max``.  When spacelikeness is
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
    t_max: float = 0.1

    def __post_init__(self):
        if not self.base.is_slice:
            raise ValueError(
                "normal variations need a slice base; flowed graphs leave the analytic family"
            )

    def values(self) -> np.ndarray:
        return self.amplitude.value(self.base.cache.sphere_q)


@dataclass(frozen=True)
class VariationCheck:
    check: str
    h: float
    level: int | None
    lhs: float
    rhs: float
    rel_error: float
    richardson: float = float("nan")
    max_error: float = float("nan")


@dataclass(frozen=True)
class FunctionalTrace:
    h: float
    t_nodes: np.ndarray
    area_values: np.ndarray
    volume_values: np.ndarray
    jacobi_values: np.ndarray
    lambda_lagrange: float
    first_central: float
    first_wide: float
    second_central: float
    second_wide: float

    @property
    def richardson_second(self) -> float:
        return abs(self.second_central - self.second_wide) / 3.0


def flow(variation: NormalVariation, t: float) -> GraphSurface:
    """Snapshot of the flowed surface; exact within the analytic family.

    The snapshot is the height graph u = s0 + t f over the base mesh.  It is
    spacelike where |grad u| = |t grad f| < cosh(s0 + t f), checked at the
    vertices; where |t grad f| >= cosh(s0 + t f) at some vertex, FlowError is
    raised naming the vertex with the smallest margin cosh^2(u) - |grad u|^2.
    |t| > t_max raises FlowError with ``vertex`` None.
    """
    if abs(t) > variation.t_max:
        raise FlowError(f"|t| = {abs(t):.3g} exceeds t_max = {variation.t_max:.3g}", t=t)
    base = variation.base
    if t == 0.0:
        return base
    height = base.height.plus(variation.amplitude, factor=t)
    try:
        snap = build_graph(
            height.constant,
            perturbations=height.terms,
            axis=base.axis.a,
            base=(base.cache.sphere_q, base.cache.faces),
        )
    except GraphConstructionError as err:
        raise FlowError(f"flow at t = {t:.6g} loses spacelikeness: {err}", t=t,
                        vertex=err.vertex) from err
    if base.mesh.level is not None:
        snap.mesh = replace(snap.mesh, level=base.mesh.level)
    return snap


def r_area(surface: GraphSurface, r: int, c: float = 1.0) -> float:
    """Order-r area functional: vertex quadrature of F_r against the area weights."""
    return float(np.sum(surface.cache.weights * r_area_integrand(surface.cache.sigma, c, r)))


_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])

# 4x4 Laplace expansion along columns 0-1: the minor of rows (i, j) meets the
# complementary minor of rows (k, l) in columns 2-3 with sign (-1)^(i+j+1)
_LAPLACE = (
    (0, 1, 2, 3, 1.0), (0, 2, 1, 3, -1.0), (0, 3, 1, 2, 1.0),
    (1, 2, 0, 3, 1.0), (1, 3, 0, 2, -1.0), (2, 3, 0, 1, 1.0),
)


def _minor(a: np.ndarray, b: np.ndarray, i: int, j: int) -> np.ndarray:
    """Rows (i, j) minor of the column pair (a, b) on (4, M) arrays."""
    return a[i] * b[j] - a[j] * b[i]


def volume_balance(variation: NormalVariation, t: float, n_time: int = 16) -> float:
    """Signed swept volume between the base and the flowed surface.

    Each point counts with the sign of t f(p), so a positive amplitude at
    t > 0 gives a positive volume.  The flow depends on (f, t) only through
    t f, so f -> -f gives the same value as t -> -t; the result is not odd in
    f.  On the 2-slice at s0 with t > 0 it is the slab volume
    4 pi int cosh^2 s ds over [s0, s0 + t] for f = 1, and minus that over
    [s0 - t, s0] for f = -1; the slab above s0 is the larger.

    Direct quadrature of the pullback of the ambient volume form over
    base x [0, t]: edge-midpoint rule on faces, composite Simpson in time on
    n_time intervals (at least 2; an odd count is rounded up).  The element
    at each point is sign(det4) sqrt|det3|.  det4 is the orientation
    determinant of (d1, d2, dt, phi) -- the two edge derivatives,
    the time derivative and the flowed point -- by its 2x2-minor (Laplace)
    expansion; det3 is the Lorentz Gram determinant of (d1, d2, dt) by
    cofactors of its six inner products.  The t-independent data are built
    once per call as contiguous (4, M) arrays, M = 3 points per face.  The
    (dt, phi) minors are among them: dt = f ray, and (ray, phi) is a
    hyperbolic rotation of (N, p) with determinant 1.  det3 = -det4^2 holds
    only on the hyperquadric, which the quadrature points are not on.
    """
    if n_time < 2:
        raise ValueError(f"n_time = {n_time} must be at least 2 (Simpson intervals in time)")
    if t == 0.0:
        return 0.0
    if abs(t) > variation.t_max:
        raise FlowError(f"|t| = {abs(t):.3g} exceeds t_max = {variation.t_max:.3g}", t=t)
    cache = variation.base.cache
    faces = cache.faces
    pos = cache.vertices[faces].transpose(2, 0, 1)    # (4, F, 3)
    nrm = cache.normal[faces].transpose(2, 0, 1)
    amp = variation.values()[faces]                   # (F, 3)

    # quadrature data, columns ordered by (face, point)
    p = (pos @ _BARY.T).reshape(4, -1)
    nv = (nrm @ _BARY.T).reshape(4, -1)
    fq = (amp @ _BARY.T).ravel()

    def edge(values, k):
        return np.repeat(values[..., k] - values[..., 0], 3, axis=-1)

    dp1, dp2, dn1, dn2 = edge(pos, 1), edge(pos, 2), edge(nrm, 1), edge(nrm, 2)
    df1, df2 = edge(amp, 1), edge(amp, 2)
    # signed minors of the columns (dt, phi), the same at every node
    cofactor = [(i, j, sign * fq * _minor(nv, p, k, l)) for i, j, k, l, sign in _LAPLACE]

    if n_time % 2 == 1:
        n_time += 1
    h_t = t / n_time
    coeff = np.ones(n_time + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    coeff *= h_t / 3.0

    total = 0.0
    for node, w_t in enumerate(coeff):
        tau = node * h_t
        ch = np.cosh(tau * fq)
        sh = np.sinh(tau * fq)
        ray = sh * p + ch * nv                            # d(flow point)/d(t f)
        d1 = ch * dp1 + sh * dn1 + tau * df1 * ray
        d2 = ch * dp2 + sh * dn2 + tau * df2 * ray
        dt = fq * ray
        det4 = sum(_minor(d1, d2, i, j) * cof for i, j, cof in cofactor)
        g11, g12, g13 = mdot(d1.T, d1.T), mdot(d1.T, d2.T), mdot(d1.T, dt.T)
        g22, g23, g33 = mdot(d2.T, d2.T), mdot(d2.T, dt.T), mdot(dt.T, dt.T)
        det3 = (g11 * (g22 * g33 - g23 * g23)
                - g12 * (g12 * g33 - g23 * g13)
                + g13 * (g12 * g23 - g22 * g13))
        elem = np.sqrt(np.abs(det3))
        total += w_t * float(np.sum(_ORIENTATION * np.sign(det4) * elem)) / 6.0
    return total


def functional_trace(
    variation: NormalVariation,
    r: int,
    c: float = 1.0,
    h: float = 1e-3,
    lambda_lagrange: float | None = None,
) -> FunctionalTrace:
    """Area, volume, and constrained functional on the 5-point stencil."""
    base = variation.base
    if lambda_lagrange is None:
        n = base.n
        b_r = (n - r) * comb(n, r)
        h_next_mean = float(
            np.sum(base.cache.weights * base.cache.mean[:, r + 1]) / base.cache.area
        )
        lambda_lagrange = variation_constant(n, c, r) + b_r * h_next_mean

    t_nodes = np.array([-2.0 * h, -h, 0.0, h, 2.0 * h])

    def evaluate(t: float) -> tuple[float, float]:
        snap = flow(variation, t)
        return r_area(snap, r, c), volume_balance(variation, t)

    results = [evaluate(t) for t in t_nodes]
    areas = np.array([a for a, _ in results])
    volumes = np.array([v for _, v in results])
    jacobi = areas - lambda_lagrange * volumes

    first = (jacobi[3] - jacobi[1]) / (2.0 * h)
    first_wide = (jacobi[4] - jacobi[0]) / (4.0 * h)
    second = (jacobi[3] - 2.0 * jacobi[2] + jacobi[1]) / (h * h)
    second_wide = (jacobi[4] - 2.0 * jacobi[2] + jacobi[0]) / (4.0 * h * h)
    return FunctionalTrace(
        h=h,
        t_nodes=t_nodes,
        area_values=areas,
        volume_values=volumes,
        jacobi_values=jacobi,
        lambda_lagrange=float(lambda_lagrange),
        first_central=first,
        first_wide=first_wide,
        second_central=second,
        second_wide=second_wide,
    )


def verify_first_variation(
    variation: NormalVariation, r: int, c: float = 1.0, h: float = 1e-3
) -> VariationCheck:
    """Central difference of the order-r area against its first-variation formula."""
    base = variation.base
    t_nodes = [-2.0 * h, -h, h, 2.0 * h]
    areas = [r_area(flow(variation, t), r, c) for t in t_nodes]
    fd = (areas[2] - areas[1]) / (2.0 * h)
    fd_wide = (areas[3] - areas[0]) / (4.0 * h)

    sigma = base.cache.sigma
    padded = np.zeros(sigma.shape[0]) if r + 1 > base.n else sigma[:, r + 1]
    integrand = (-1.0) ** (r + 1) * (r + 1) * padded + variation_constant(base.n, c, r)
    f = variation.values()
    rhs = float(np.sum(base.cache.weights * integrand * f))
    scale = max(abs(fd), abs(rhs), float(np.sum(base.cache.weights * np.abs(integrand) * np.abs(f))), 1e-30)
    return VariationCheck(
        check="first_variation",
        h=h,
        level=base.mesh.level,
        lhs=fd,
        rhs=rhs,
        rel_error=abs(fd - rhs) / scale,
        richardson=abs(fd - fd_wide) / 3.0,
    )


def verify_sr_evolution(variation: NormalVariation, r: int, h: float = 1e-3) -> VariationCheck:
    """Per-vertex time derivative of the next elementary symmetric field
    against the weak evaluation of its evolution formula (ambient c = 1)."""
    base = variation.base
    snaps = [flow(variation, t) for t in (-h, h)]
    s_minus = snaps[0].cache.sigma[:, r + 1]
    s_plus = snaps[1].cache.sigma[:, r + 1]
    lhs = (s_plus - s_minus) / (2.0 * h)

    f = variation.values()
    pair = assemble(base, r)
    lump = pair.lumped()
    weak_l = -(pair.stiffness @ f) / lump
    from .stability import stability_field

    lam_field = stability_field(base, r)
    rhs = (-1.0) ** (r + 1) * (weak_l + lam_field * f)

    scale = float((np.abs(weak_l) + np.abs(lam_field * f)).max())
    scale = max(scale, 1e-30)
    err = np.abs(lhs - rhs) / scale
    w = base.cache.weights
    lhs_rms = float(np.sqrt(np.sum(w * lhs * lhs) / base.cache.area))
    rhs_rms = float(np.sqrt(np.sum(w * rhs * rhs) / base.cache.area))
    return VariationCheck(
        check="sr_evolution",
        h=h,
        level=base.mesh.level,
        lhs=lhs_rms,
        rhs=rhs_rms,
        rel_error=float(err.mean()),
        max_error=float(err.max()),
    )


def verify_second_variation(
    variation: NormalVariation, r: int, c: float = 1.0, h: float = 1e-2
) -> VariationCheck:
    """Second difference of the constrained functional against the
    second-variation quadratic form; the amplitude must be mean-zero."""
    base = variation.base
    f = variation.values()
    w = base.cache.weights
    mean_frac = abs(float(np.sum(w * f))) / (base.cache.area * max(float(np.abs(f).max()), 1e-30))
    if mean_frac > 1e-8:
        raise ValueError("second-variation amplitudes must be mean-zero")

    trace = functional_trace(variation, r, c, h)
    sample = jacobi_second_variation(base, r, f)
    fd = trace.second_central
    scale = max(sample.scale, 1e-30)
    return VariationCheck(
        check="second_variation",
        h=h,
        level=base.mesh.level,
        lhs=fd,
        rhs=sample.value,
        rel_error=abs(fd - sample.value) / scale,
        richardson=trace.richardson_second,
    )


def volume_derivative_check(variation: NormalVariation, h: float = 1e-3) -> VariationCheck:
    """Balance-of-volume derivative at t = 0 against the area integral of f."""
    base = variation.base
    volumes = [volume_balance(variation, t) for t in (-h, h)]
    fd = (volumes[1] - volumes[0]) / (2.0 * h)
    f = variation.values()
    rhs = float(np.sum(base.cache.weights * f))
    scale = abs(rhs) + base.cache.area * float(np.abs(f).max())
    return VariationCheck(
        check="volume_balance",
        h=h,
        level=base.mesh.level,
        lhs=fd,
        rhs=rhs,
        rel_error=abs(fd - rhs) / max(scale, 1e-30),
    )
