"""Minkowski linear algebra and the ambient fields on the hyperquadric: the
Killing fields of ``oracles.killing_field`` and the closed conformal field
V(p) = e4 + p4 p with factor psi = p4, which ``lorstab.stability`` reads."""

import numpy as np
import pytest

from lorstab.config import ScenarioConfig
from lorstab.stability import analyze
from lorstab.surfaces import SIGNATURE, build_slice, mdot
from oracles import killing_field, minkowski_inner

E4 = np.array([0.0, 0.0, 0.0, 1.0])


def conformal_field(p):
    """V(p) = e4 + p4 p at one point or a stack of points."""
    return E4 + p[..., 3, None] * p


def random_hyperquadric_point(rng, dim=4):
    spatial = rng.normal(size=dim - 1)
    t = rng.normal() * 0.5
    p = np.append(spatial, t)
    norm = minkowski_inner(p, p)
    while norm <= 1e-6:
        spatial = rng.normal(size=dim - 1)
        p = np.append(spatial, t)
        norm = minkowski_inner(p, p)
    return p / np.sqrt(norm)


def chart_point(s, q):
    """The point (cosh(s) q, sinh(s)) of the warped chart over the unit sphere."""
    return np.append(np.cosh(s) * q, np.sinh(s))


def tangent_at(rng, p):
    v = rng.normal(size=p.size)
    return v - minkowski_inner(v, p) * p


def flat_derivative(field, p, x, h=1e-5):
    def at(t):
        q = p + t * x
        q = q / np.sqrt(minkowski_inner(q, q))
        return field(q)

    return (at(h) - at(-h)) / (2.0 * h)


def covariant_derivative(field, p, x, h=1e-5):
    d = flat_derivative(field, p, x, h)
    return d - minkowski_inner(d, p) * p


class TestInnerProduct:
    def test_timelike_axis(self):
        e4 = np.array([0.0, 0.0, 0.0, 1.0])
        assert minkowski_inner(e4, e4) == -1.0

    def test_spacelike_axis(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert minkowski_inner(e1, e1) == 1.0

    def test_null_vector(self):
        v = np.array([1.0, 0.0, 0.0, 1.0])
        assert minkowski_inner(v, v) == 0.0

    def test_signature_is_the_metric_on_the_basis(self):
        basis = np.eye(4)
        gram = [[minkowski_inner(v, w) for w in basis] for v in basis]
        assert np.array_equal(np.diag(SIGNATURE), gram)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_inner(np.zeros(4), np.zeros(5))

    def test_bilinear_symmetric(self, rng):
        for _ in range(20):
            v, w = rng.normal(size=4), rng.normal(size=4)
            a, b = rng.normal(), rng.normal()
            u = rng.normal(size=4)
            assert minkowski_inner(v, w) == pytest.approx(minkowski_inner(w, v))
            assert minkowski_inner(a * v + b * u, w) == pytest.approx(
                a * minkowski_inner(v, w) + b * minkowski_inner(u, w)
            )


class TestConformalField:
    def test_on_equator_is_axis(self):
        assert conformal_field(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(E4)
        assert analyze(build_slice(0.0, level=3), ScenarioConfig("slice", 1, 0.0, level=3)).psi_min_abs == 0.0

    def test_factor_is_sinh_of_height(self, rng):
        for _ in range(10):
            q = rng.normal(size=3)
            q /= np.linalg.norm(q)
            s = float(rng.uniform(-1.5, 1.5))
            p = chart_point(s, q)
            # V = a - <p,a> p about a = e4 is e4 + psi p with psi = -<p,e4> = p4 = sinh(s)
            general = E4 - minkowski_inner(p, E4) * p
            assert conformal_field(p) == pytest.approx(general, rel=1e-12, abs=1e-12)
            assert conformal_field(p) == pytest.approx(E4 + np.sinh(s) * p, rel=1e-12, abs=1e-12)
        for s0 in (-1.2, 0.3, 1.5):
            report = analyze(build_slice(s0, level=3), ScenarioConfig("slice", 1, s0, level=3))
            assert report.psi_min_abs == pytest.approx(abs(np.sinh(s0)), rel=1e-12)

    def test_tangency(self, rng):
        for _ in range(30):
            p = random_hyperquadric_point(rng)
            assert abs(minkowski_inner(conformal_field(p), p)) < 1e-12
        points = np.stack([random_hyperquadric_point(rng) for _ in range(30)])
        assert np.abs(mdot(conformal_field(points), points)).max() < 1e-12

    def test_conformal_property_finite_difference(self, rng):
        worst = 0.0
        for _ in range(100):
            p = random_hyperquadric_point(rng)
            x, y = tangent_at(rng, p), tangent_at(rng, p)
            lhs = minkowski_inner(covariant_derivative(conformal_field, p, x), y)
            lhs += minkowski_inner(x, covariant_derivative(conformal_field, p, y))
            psi = p[3]
            rhs = 2.0 * psi * minkowski_inner(x, y)
            scale = max(1.0, abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst < 1e-6

    def test_divergence_gives_factor(self, rng):
        for _ in range(25):
            p = random_hyperquadric_point(rng)
            # Lorentz-orthonormal tangent frame at p (3 vectors, one timelike)
            frame = []
            for i in range(4):
                e = np.zeros(4)
                e[i] = 1.0
                w = e - minkowski_inner(e, p) * p
                for b in frame:
                    w = w - (minkowski_inner(w, b) / minkowski_inner(b, b)) * b
                norm2 = minkowski_inner(w, w)
                if abs(norm2) < 1e-8:
                    continue
                frame.append(w / np.sqrt(abs(norm2)))
                if len(frame) == 3:
                    break
            div = sum(
                np.sign(minkowski_inner(b, b)) * minkowski_inner(covariant_derivative(conformal_field, p, b), b)
                for b in frame
            )
            assert div / 3.0 == pytest.approx(p[3], abs=1e-6)


class TestKillingField:
    def test_rotation_example(self):
        assert killing_field(np.eye(4)[0], np.eye(4)[1], np.eye(4)[0]) == pytest.approx(np.eye(4)[1])

    def test_tangency(self, rng):
        u, v = rng.normal(size=4), rng.normal(size=4)
        for _ in range(30):
            p = random_hyperquadric_point(rng)
            w = killing_field(u, v, p)
            assert abs(minkowski_inner(w, p)) < 1e-10

    def test_killing_property_finite_difference(self, rng):
        def field(q):
            return killing_field(np.eye(4)[0], np.eye(4)[3], q)

        worst = 0.0
        for _ in range(100):
            p = random_hyperquadric_point(rng)
            x, y = tangent_at(rng, p), tangent_at(rng, p)
            lhs = minkowski_inner(covariant_derivative(field, p, x), y)
            lhs += minkowski_inner(x, covariant_derivative(field, p, y))
            worst = max(worst, abs(lhs) / max(1.0, np.abs(x).max() * np.abs(y).max()))
        assert worst < 1e-6
