"""Normal-variation flows and finite-difference verification of the
variational formulas.

The ambient curvature c = 1 (de Sitter space) and the dimension n = 2 are
fixed here, not passed in; flows run for |t| <= ``_T_MAX``, and swept
volumes take ``_N_TIME`` Simpson intervals in time.

A variation moves every point along its geodesic normal line with a
prescribed amplitude:  X_t(p) = cosh(t f(p)) p + sinh(t f(p)) N(p).
For a slice base this flow lands exactly on the height graph s0 + t*f, so
flowed snapshots stay inside the analytic family and their curvature
fields are exact.  All first/second derivatives in t are taken by central
differences on the symmetric stencil {-2h, -h, 0, h, 2h} and compared
against the closed-form variation formulas evaluated by quadrature.

The balance-of-volume oracle integrates the pulled-back ambient volume
form directly (Gram determinants of the flow differential), so it is
independent of the first-variation lemma it is used to check.  Along a
normal line the flowed point and its t-derivative span the same plane as
(N, p), with ch = cosh(t f) and sh = sinh(t f) as the only t-dependence, so
the orientation determinant is f times a quadratic form in (ch, sh) and the
Gram determinant is f^2 times the determinant of a 3x3 matrix of such forms.
With T = tanh(t f) they are f ch^2 q(T) and f^2 ch^6 D(T) for a quadratic q
and a degree-6 polynomial D (see ``volume_balance``).  The base memoizes
its height's jets and the coefficient fields of q and D, for every amplitude
and call; a variation keeps its amplitude's jets, so a snapshot is built from
base jets + t amplitude jets without evaluating harmonics.  A call of
``volume_balance`` may take all the times of a stencil at once, and
evaluates each distinct Simpson node once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curvature import r_area_integrand, variation_constant
from .fem import assemble
from .harmonics import HarmonicField
from .lorentz import mdot_axis0
from .stability import jacobi_second_variation, stability_field
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

# orientation constant of the swept-volume element: chosen once so that the
# outward face frame, the future normal, and the position vector count
# positively (pinned by the closed-form slab volumes 4 pi int cosh^2 s ds in
# TestVolumeBalance::test_sign_flips_with_amplitude)
_ORIENTATION = -1.0

_T_MAX = 0.1        # largest |t| a flow or a swept volume is taken at
_N_TIME = 16        # Simpson intervals in time of ``volume_balance`` (even)


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
    level: int | None
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
    (memoized on the base) plus t times the amplitude's.  It is
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
    if ("jets",) not in base._memo:
        base._memo[("jets",)] = base.height.jets(base.mesh.q)
    jets = tuple(b + t * a for b, a in zip(base._memo[("jets",)], variation.jets))
    try:
        return build_graph(height.constant, perturbations=height.terms, axis=base.axis.a, mesh=base.mesh,
                           jets=jets)
    except GraphConstructionError as err:
        raise FlowError(f"flow at t = {t:.6g} loses spacelikeness: {err}", t=t,
                        vertex=err.vertex) from err


def r_area(surface: GraphSurface, r: int) -> float:
    """Order-r area functional: vertex quadrature of F_r against the area weights."""
    return float(np.sum(surface.cache.weights * r_area_integrand(surface.cache.sigma, 1.0, r)))


# 4x4 Laplace expansion along columns 0-1: the minor of rows (i, j) meets the
# complementary minor of rows (k, l) in columns 2-3 with sign (-1)^(i+j+1)
_LAPLACE = (
    (0, 1, 2, 3, 1.0), (0, 2, 1, 3, -1.0), (0, 3, 1, 2, 1.0),
    (1, 2, 0, 3, 1.0), (1, 3, 0, 2, -1.0), (2, 3, 0, 1, 1.0),
)


def _det_np(a: np.ndarray, b: np.ndarray, cofactor) -> np.ndarray:
    """det(a, b, N, p) for 4-vectors stored along axis 0, given the signed
    complementary minors of (N, p)."""
    return sum((a[i] * b[j] - a[j] * b[i]) * cof for i, j, cof in cofactor)


def _swept_volume_forms(base: GraphSurface) -> np.ndarray:
    """A (7, 3, M) array whose rows hold, for det(a1, a2, N, p) and the six
    Gram entries of (a1, a2, ray), the coefficients of ch^2, ch sh and sh^2
    (so also of 1, T and T^2 after division by ch^2) at each of the M = 3 F
    quadrature points (ordered by edge, then face)."""
    cache = base.cache
    corners = base.mesh.faces.T                       # (3, F)
    pos = cache.vertices.T[:, corners]                # (4, 3, F) corner values
    nrm = cache.normal.T[:, corners]
    # edge midpoints (v0 + v1)/2, (v1 + v2)/2, (v2 + v0)/2; the edge
    # differences v1 - v0 and v2 - v0 are constant on a face
    p = 0.5 * (pos + pos[:, [1, 2, 0]])
    nv = 0.5 * (nrm + nrm[:, [1, 2, 0]])
    dp = [(pos[:, k] - pos[:, 0])[:, None] for k in (1, 2)]     # (4, 1, F)
    dn = [(nrm[:, k] - nrm[:, 0])[:, None] for k in (1, 2)]
    cofactor = [(i, j, sign * (nv[k] * p[l] - nv[l] * p[k])) for i, j, k, l, sign in _LAPLACE]

    def form(u, v):         # <ch u0 + sh u1, ch v0 + sh v1> as coefficients of ch^2, ch sh, sh^2
        (u0, u1), (v0, v1) = u, v
        return mdot_axis0(u0, v0), mdot_axis0(u0, v1) + mdot_axis0(u1, v0), mdot_axis0(u1, v1)

    a1, a2, ray = (dp[0], dn[0]), (dp[1], dn[1]), (nv, p)
    rows = (
        (_det_np(dp[0], dp[1], cofactor),
         _det_np(dp[0], dn[1], cofactor) + _det_np(dn[0], dp[1], cofactor),
         _det_np(dn[0], dn[1], cofactor)),
        form(a1, a1), form(a1, a2), form(a1, ray), form(a2, a2), form(a2, ray), form(ray, ray),
    )
    coef = np.empty((7, 3) + corners.shape)
    for k, terms in enumerate(rows):
        coef[k] = terms
    return coef.reshape(7, 3, -1)


def _swept_volume_fields(variation: NormalVariation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t-independent data of ``volume_balance``: f at the M quadrature
    points, and the coefficient fields of q (3, M) and D (7, M), lowest degree
    first; those two depend only on the base and are memoized on it."""
    base = variation.base
    if ("swept_volume",) not in base._memo:
        q, g11, g12, g13, g22, g23, g33 = _swept_volume_forms(base)
        det3 = (_polymul(g11, _polymul(g22, g33) - _polymul(g23, g23))
                - _polymul(g12, _polymul(g12, g33) - _polymul(g23, g13))
                + _polymul(g13, _polymul(g12, g23) - _polymul(g22, g13)))
        base._memo[("swept_volume",)] = (q.copy(), det3)
    amp = variation.values()[base.mesh.faces.T]        # (3, F) corner values
    return (0.5 * (amp + amp[[1, 2, 0]])).ravel(), *base._memo[("swept_volume",)]


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two polynomials whose coefficient fields, lowest degree
    first, run along axis 0."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1,) + a.shape[1:])
    for i, ai in enumerate(a):
        out[i:i + b.shape[0]] += ai * b
    return out


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomial of degree >= 1 with coefficient fields ``coef`` (lowest
    degree first) at x, by Horner's rule in one buffer."""
    acc = coef[-1] * x
    for c in coef[-2:0:-1]:
        acc += c
        acc *= x
    acc += coef[0]
    return acc


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

    Direct quadrature of the pullback of the ambient volume form over
    base x [0, t]: edge-midpoint rule on faces (M = 3 points per face),
    composite Simpson in time on ``_N_TIME`` intervals.  The element at each
    point is sign(det4) sqrt|det3|, where det4 = det(d1, d2, dt, phi) orients
    the two edge derivatives, the time derivative and the flowed point, and
    det3 is the Lorentz Gram determinant of (d1, d2, dt).

    Both reduce to scalar algebra in ch, sh = cosh, sinh(tau f).  With
    phi = ch p + sh N, ray = sh p + ch N and a_k = ch dp_k + sh dn_k, the
    edge derivatives are d_k = a_k + tau df_k ray and dt = f ray:
      * det4: span(ray, phi) = span(N, p) with determinant 1, so the ray
        terms of d_k drop out and
        det4 = f (ch^2 D1 + ch sh D2 + sh^2 D3), where D1 = det(dp1, dp2, N, p),
        D2 = det(dp1, dn2, N, p) + det(dn1, dp2, N, p), D3 = det(dn1, dn2, N, p);
      * det3: subtracting multiples of dt leaves a_k, so
        det3 = f^2 det Gram(a1, a2, ray), each Gram entry being
        c0 ch^2 + c1 ch sh + c2 sh^2.
    Dividing each quadratic form by ch^2 leaves a quadratic polynomial in
    T = tanh(tau f): det4 = f ch^2 q(T) and det3 = f^2 ch^6 D(T), where q
    has the coefficients (D1, D2, D3) and D, the determinant of the 3x3
    matrix of quadratics, has degree 6.  The element is therefore
    f sign(q(T)) ch^3 sqrt|D(T)|.  The coefficient fields of q and D depend
    on neither t nor f: built by polynomial products on a base's first call,
    they are memoized on the base.  Each Simpson node costs one tanh, one
    cosh, two Horner passes and a signed square root on (M,) arrays, and a
    call evaluates each distinct node tau = node h_t once (those of +-h are
    the even nodes of +-2h bit for bit: 49 of a 5-time stencil's 68).  The
    identities are linear algebra and hold at the quadrature points, which
    are not on the hyperquadric (there det3 = -det4^2 would hold).
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    for tt in times:
        _check_time(float(tt))
    volumes = np.zeros(times.size)
    nonzero = np.flatnonzero(times)
    if nonzero.size:
        fq, q, det3 = _swept_volume_fields(variation)
        simpson = np.ones(_N_TIME + 1)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0
        sums = {}                   # tau -> sum of f * element over the quadrature points
        for k in nonzero:
            h_t = times[k] / _N_TIME
            total = 0.0
            for node, w_t in enumerate(simpson * (h_t / 3.0)):
                tau = node * h_t
                if tau not in sums:
                    x = tau * fq
                    tanh = np.tanh(x)
                    ch = np.cosh(x, out=x)
                    elem = _horner(det3, tanh)          # then sign(q) ch^3 sqrt|D|, in place
                    np.copysign(np.sqrt(np.abs(elem, out=elem), out=elem), _horner(q, tanh), out=elem)
                    elem *= np.multiply(np.multiply(ch, ch, out=tanh), ch, out=tanh)
                    sums[tau] = float(fq @ elem)
                total += w_t * _ORIENTATION * sums[tau] / 6.0
            volumes[k] = total
    return float(volumes[0]) if np.ndim(t) == 0 else volumes


def _lagrange_constant(base: GraphSurface, r: int) -> float:
    """Lagrange multiplier of the volume constraint, c_r + b_r mean(H_{r+1}):
    the first variation of the order-r area is the integral of
    (c_r + b_r H_{r+1}) f, with c_r = ``variation_constant`` and
    b_r = (n - r) C(n, r), which is 2 at n = 2 for both r = 0 and r = 1."""
    h_next_mean = float(np.sum(base.cache.weights * base.cache.mean[:, r + 1]) / base.cache.area)
    return variation_constant(2, 1.0, r) + 2 * h_next_mean


def verify_first_variation(variation: NormalVariation, r: int, h: float = 1e-3) -> VariationCheck:
    """Central difference of the order-r area against its first-variation formula."""
    base = variation.base
    t_nodes = [-2.0 * h, -h, h, 2.0 * h]
    areas = [r_area(flow(variation, t), r) for t in t_nodes]
    fd = (areas[2] - areas[1]) / (2.0 * h)
    fd_wide = (areas[3] - areas[0]) / (4.0 * h)

    integrand = (-1.0) ** (r + 1) * (r + 1) * base.cache.sigma[:, r + 1] + variation_constant(2, 1.0, r)
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


def verify_second_variation(variation: NormalVariation, r: int, h: float = 1e-2) -> VariationCheck:
    """Second difference of the constrained functional J = A_r - lambda V on
    the stencil {-2h, -h, 0, h, 2h} against the second-variation quadratic
    form; the amplitude must be mean-zero."""
    base = variation.base
    f = variation.values()
    w = base.cache.weights
    mean_frac = abs(float(np.sum(w * f))) / (base.cache.area * max(float(np.abs(f).max()), 1e-30))
    if mean_frac > 1e-8:
        raise ValueError("second-variation amplitudes must be mean-zero")

    t_nodes = np.array([-2.0 * h, -h, 0.0, h, 2.0 * h])
    areas = np.array([r_area(flow(variation, t), r) for t in t_nodes])
    jacobi = areas - _lagrange_constant(base, r) * volume_balance(variation, t_nodes)
    fd = (jacobi[3] - 2.0 * jacobi[2] + jacobi[1]) / (h * h)
    fd_wide = (jacobi[4] - 2.0 * jacobi[2] + jacobi[0]) / (4.0 * h * h)

    sample = jacobi_second_variation(base, r, f)
    scale = max(sample.scale, 1e-30)
    return VariationCheck(
        check="second_variation",
        h=h,
        level=base.mesh.level,
        lhs=fd,
        rhs=sample.value,
        rel_error=abs(fd - sample.value) / scale,
        richardson=abs(fd - fd_wide) / 3.0,
    )


def volume_derivative_check(variation: NormalVariation, h: float = 1e-3) -> VariationCheck:
    """Balance-of-volume derivative at t = 0 against the area integral of f."""
    base = variation.base
    volumes = volume_balance(variation, (-h, h))
    fd = float(volumes[1] - volumes[0]) / (2.0 * h)
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
