"""Real spherical harmonics as restrictions of harmonic polynomials.

Each Y_{l,m} is represented by the homogeneous harmonic polynomial R of
degree l with Y = R on the unit sphere.  Values, intrinsic (tangential)
gradients, and intrinsic Hessians then follow from ambient polynomial
derivatives:

    grad_S Y = grad R - l R q          (Euler's relation removes the radial part)
    Hess_S Y(X, W) = Hess R(X, W) - l R <X, W>   for tangent X, W.

Orthonormal on the unit sphere; m > 0 are the cos-type, m < 0 the sin-type
sectors.  No Condon-Shortley phase.
A field is evaluated per block of points as one monomial table times stacked
coefficient rows (``_jet_rows``); the projections above then act on the sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, pi, sqrt

import numpy as np

__all__ = ["HarmonicField"]

# the largest degree a field takes.  The monomial basis is ill-conditioned:
# against scipy.special.lpmv, relative to sup |Y_l0|, the error is 4.2e-13
# at l = 30, 1.2e-11 at 40, 2.5e-9 at 56 and about 3e-5 at 80, and the
# normalization's factorial(l + |m|) overflows a float from l + |m| = 171 on
_L_MAX = 40


class _Poly:
    """Polynomial in three variables: exponent rows (i, j, k) and coefficients."""

    __slots__ = ("exps", "coeffs")

    def __init__(self, terms: dict[tuple[int, int, int], float]):
        items = sorted((e, c) for e, c in terms.items() if c != 0.0)
        if not items:
            items = [((0, 0, 0), 0.0)]
        self.exps = np.array([e for e, _ in items], dtype=int)
        self.coeffs = np.array([c for _, c in items], dtype=float)

    def diff(self, axis: int) -> "_Poly":
        terms: dict[tuple[int, int, int], float] = {}
        for e, c in zip(self.exps, self.coeffs):
            if e[axis] == 0:
                continue
            e2 = list(e)
            e2[axis] -= 1
            key = tuple(e2)
            terms[key] = terms.get(key, 0.0) + c * e[axis]
        return _Poly(terms)


@lru_cache(maxsize=None)
def _legendre_core(l: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients c_k of the degree-(l-m) homogeneous Legendre core
    sum_k c_k z^(l-m-2k) (x^2+y^2+z^2)^k.  Each core is computed once, so
    the three-term recurrence costs O(l) cores rather than O(1.6^l)."""
    if l == m:
        dfact = Fraction(1)
        for i in range(3, 2 * m, 2):
            dfact *= i
        return (dfact,)
    if l == m + 1:
        return tuple((2 * m + 1) * c for c in _legendre_core(m, m))
    prev = _legendre_core(l - 1, m)    # degree l-1-m
    prev2 = _legendre_core(l - 2, m)   # degree l-2-m
    out = [Fraction(0)] * (len(prev2) + 1)
    for k, c in enumerate(prev):
        out[k] += Fraction(2 * l - 1) * c
    for k, c in enumerate(prev2):
        out[k + 1] -= Fraction(l - 1 + m) * c
    return tuple(c / (l - m) for c in out)


def _sector(m: int) -> dict[tuple[int, int, int], Fraction]:
    """Monomials of Re (x+iy)^m for m >= 0, of Im (x+iy)^|m| for m < 0."""
    want_im = m < 0
    m = abs(m)
    out: dict[tuple[int, int, int], Fraction] = {}
    for j in range(m + 1):
        cyc = j % 4
        if want_im and cyc in (1, 3):
            out[(m - j, j, 0)] = Fraction(comb(m, j)) * (1 if cyc == 1 else -1)
        elif not want_im and cyc in (0, 2):
            out[(m - j, j, 0)] = Fraction(comb(m, j)) * (1 if cyc == 0 else -1)
    return out


def _r2_power(k: int) -> dict[tuple[int, int, int], Fraction]:
    """Monomials of (x^2 + y^2 + z^2)^k."""
    out: dict[tuple[int, int, int], Fraction] = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        nxt: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, kk), c in out.items():
            for d in range(3):
                e = [i, j, kk]
                e[d] += 2
                key = tuple(e)
                nxt[key] = nxt.get(key, Fraction(0)) + c
        out = nxt
    return out


@lru_cache(maxsize=None)
def _harmonic_poly(l: int, m: int) -> _Poly:
    if not (0 <= abs(m) <= l):
        raise ValueError(f"invalid harmonic order (l={l}, m={m})")
    core = _legendre_core(l, abs(m))
    sector = _sector(m)
    norm = sqrt((2 * l + 1) / (4.0 * pi) * factorial(l - abs(m)) / factorial(l + abs(m)))
    if m != 0:
        norm *= sqrt(2.0)
    terms: dict[tuple[int, int, int], Fraction] = {}
    for k, c in enumerate(core):
        zpow = l - abs(m) - 2 * k
        for er, cr in _r2_power(k).items():
            for es, cs in sector.items():
                key = (es[0] + er[0], es[1] + er[1], es[2] + er[2] + zpow)
                terms[key] = terms.get(key, Fraction(0)) + c * cr * cs
    return _Poly({e: float(c) * norm for e, c in terms.items()})


_ROW, _COL = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])  # xx, xy, xz, yy, yz, zz
_HESSIAN = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])                  # those six as a 3x3 form


@lru_cache(maxsize=None)
def _jet_rows(l: int, m: int) -> dict[tuple[int, int, int], np.ndarray]:
    """Monomial exponents -> coefficients (11,) of that monomial in R, l R,
    dR/dx, dR/dy, dR/dz and the second derivatives xx, xy, xz, yy, yz, zz of Y_{l,m}."""
    poly = _harmonic_poly(l, m)
    first = [poly.diff(axis) for axis in range(3)]
    polys = [poly, poly, *first, *(first[i].diff(j) for i, j in zip(_ROW, _COL))]
    rows: dict[tuple[int, int, int], np.ndarray] = {}
    for row, p in enumerate(polys):
        for e, c in zip(p.exps.tolist(), p.coeffs):
            rows.setdefault(tuple(e), np.zeros(11))[row] += c * (l if row == 1 else 1)
    return rows


@dataclass(frozen=True)
class HarmonicField:
    """Constant plus a finite real-harmonic expansion on the unit sphere."""

    constant: float = 0.0
    terms: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "terms",
            tuple((int(l), int(m), float(a)) for l, m, a in self.terms),
        )
        for l, m, _ in self.terms:
            if not (0 <= abs(m) <= l <= _L_MAX):
                raise ValueError(f"invalid harmonic order (l={l}, m={m}): need |m| <= l <= {_L_MAX}")

    def plus(self, other: "HarmonicField", factor: float = 1.0) -> "HarmonicField":
        return HarmonicField(
            constant=self.constant + factor * other.constant,
            terms=self.terms + tuple((l, m, factor * a) for l, m, a in other.terms),
        )

    def _jets(self, q: np.ndarray, rows: list[int]):
        """Yield (slice, points, jets): the listed ``_jet_rows`` over the terms, per 4096 points."""
        table = {(0, 0, 0): np.zeros(11)}
        for l, m, a in self.terms:
            for e, row in _jet_rows(l, m).items():
                table[e] = table.get(e, 0.0) + a * row
        coeff = np.array(list(table.values()))[:, rows]
        keep = coeff.any(axis=1)
        exps, coeff = np.array(list(table))[keep], coeff[keep]
        degree = int(exps.max(initial=0))
        blocks = range(0, q.shape[0], 4096) if keep.any() else ()   # no jets: the sums stay 0
        for start in blocks:
            p = q[start : start + 4096]
            powers = np.ones((3, p.shape[0], degree + 1))
            powers[:, :, 1:] = p.T[:, :, None]
            np.cumprod(powers, axis=2, out=powers)
            mono = powers[0][:, exps[:, 0]] * powers[1][:, exps[:, 1]] * powers[2][:, exps[:, 2]]
            yield slice(start, start + p.shape[0]), p, mono @ coeff

    def value(self, q: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(q)
        out = np.full(q.shape[0], self.constant)
        for rows, _, jets in self._jets(q, [0]):
            out[rows] += jets[:, 0]
        return out

    def sphere_gradient(self, q: np.ndarray) -> np.ndarray:
        """Tangential gradient grad R - (sum a l R) q at unit points q, (V, 3)."""
        q = np.atleast_2d(q)
        out = np.zeros((q.shape[0], 3))
        for rows, p, jets in self._jets(q, [1, 2, 3, 4]):
            out[rows] = jets[:, 1:] - jets[:, :1] * p
        return out

    def sphere_hessian(self, q: np.ndarray) -> np.ndarray:
        """Intrinsic Hessian P H P - (sum a l R) P, P = I - q q^T, as a (V, 3, 3) form:
        H - w q^T - q w^T - (sum a l R) I with w = H q - (q^T H q + sum a l R) q / 2."""
        q = np.atleast_2d(q)
        out = np.zeros((q.shape[0], 3, 3))
        for rows, p, jets in self._jets(q, [1, 5, 6, 7, 8, 9, 10]):
            lr, upper = jets[:, :1], jets[:, 1:]
            hq = (upper[:, _HESSIAN] @ p[:, :, None])[:, :, 0]
            w = hq - 0.5 * (np.sum(hq * p, axis=1, keepdims=True) + lr) * p
            upper = upper - w[:, _ROW] * p[:, _COL] - p[:, _ROW] * w[:, _COL] - lr * (_ROW == _COL)
            out[rows] = upper[:, _HESSIAN]
        return out

    def jets(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, tangential gradient and intrinsic Hessian at unit points q."""
        return self.value(q), self.sphere_gradient(q), self.sphere_hessian(q)

