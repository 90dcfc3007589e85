"""Spherical harmonic values and intrinsic derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorstab.harmonics import HarmonicField
from lorstab.mesh import icosphere
from lorstab.variation import _sphere_rule
from oracles import SphericalHarmonic, harmonic_basis, harmonic_jets_reference


def quadrature_grid(n_theta=48, n_phi=96):
    """Gauss-Legendre x uniform product rule, exact for low-degree harmonics."""
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    ct, ph = np.meshgrid(x, phi, indexing="ij")
    st = np.sqrt(1.0 - ct**2)
    pts = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=-1).reshape(-1, 3)
    w = (wx[:, None] * wphi * np.ones(n_phi)[None, :]).ravel()
    return pts, w


def random_sphere_points(rng, count):
    q = rng.normal(size=(count, 3))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


class TestValues:
    def test_y00_constant(self):
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert SphericalHarmonic(0, 0).value(pts) == pytest.approx(
            np.full(2, 1 / np.sqrt(4 * np.pi))
        )

    def test_y10_is_scaled_height(self, rng):
        pts = random_sphere_points(rng, 20)
        want = np.sqrt(3 / (4 * np.pi)) * pts[:, 2]
        assert SphericalHarmonic(1, 0).value(pts) == pytest.approx(want)

    def test_orthonormal(self):
        pts, w = quadrature_grid()
        basis = harmonic_basis(4)
        values = np.stack([h.value(pts) for h in basis])
        gram = (values * w) @ values.T
        assert gram == pytest.approx(np.eye(len(basis)), abs=1e-12)

    def test_degree_39_orthonormal(self):
        """Degree 39 builds in a fraction of a second, each Legendre core being
        computed once, and is orthonormal under the volume check's product
        rule, which is exact below degree 80."""
        q, w = _sphere_rule()
        values = np.stack([SphericalHarmonic(l, m).value(q) for l, m in ((39, 3), (39, -3), (38, 3), (39, 39))])
        gram = (values * w) @ values.T
        assert np.abs(gram - np.eye(4)).max() < 1e-10

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            SphericalHarmonic(1, 2).value(np.array([[0.0, 0.0, 1.0]]))


class TestDerivatives:
    def test_gradient_is_tangent(self, rng):
        pts = random_sphere_points(rng, 30)
        for h in (SphericalHarmonic(2, 1), SphericalHarmonic(3, -2)):
            g = h.sphere_gradient(pts)
            assert np.abs(np.einsum("vi,vi->v", g, pts)).max() < 1e-12

    def test_gradient_finite_difference(self, rng):
        pts = random_sphere_points(rng, 20)
        h = SphericalHarmonic(3, 2)
        g = h.sphere_gradient(pts)
        eps = 1e-6
        for _ in range(3):
            w = rng.normal(size=(20, 3))
            w -= np.einsum("vi,vi->v", w, pts)[:, None] * pts
            w /= np.linalg.norm(w, axis=1, keepdims=True)

            def along(side):
                moved = pts + side * eps * w
                moved /= np.linalg.norm(moved, axis=1, keepdims=True)
                return h.value(moved)

            fd = (along(1.0) - along(-1.0)) / (2 * eps)
            assert np.abs(fd - np.einsum("vi,vi->v", g, w)).max() < 1e-8

    def test_hessian_along_great_circles(self, rng):
        pts = random_sphere_points(rng, 15)
        h = SphericalHarmonic(4, -1)
        hess = h.sphere_hessian(pts)
        eps = 1e-4
        for _ in range(3):
            w = rng.normal(size=(15, 3))
            w -= np.einsum("vi,vi->v", w, pts)[:, None] * pts
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            plus = h.value(np.cos(eps) * pts + np.sin(eps) * w)
            minus = h.value(np.cos(eps) * pts - np.sin(eps) * w)
            fd = (plus - 2 * h.value(pts) + minus) / eps**2
            want = np.einsum("vi,vij,vj->v", w, hess, w)
            assert np.abs(fd - want).max() < 1e-6

    def test_hessian_trace_is_laplacian(self, rng):
        pts = random_sphere_points(rng, 25)
        for l, m in ((1, 0), (2, 2), (3, -1), (5, 4)):
            h = SphericalHarmonic(l, m)
            trace = np.trace(h.sphere_hessian(pts), axis1=1, axis2=2)
            assert trace == pytest.approx(-l * (l + 1) * h.value(pts), rel=1e-10, abs=1e-10)


class TestField:
    def test_combination_and_scaling(self, rng):
        pts = random_sphere_points(rng, 10)
        f = HarmonicField(constant=0.5, terms=((1, 0, 2.0), (2, -1, -0.3)))
        want = (
            0.5
            + 2.0 * SphericalHarmonic(1, 0).value(pts)
            - 0.3 * SphericalHarmonic(2, -1).value(pts)
        )
        assert f.value(pts) == pytest.approx(want)
        assert f.plus(f, factor=-1.0).value(pts) == pytest.approx(np.zeros(10), abs=1e-15)

    def test_gradient_hessian_sum(self, rng):
        pts = random_sphere_points(rng, 10)
        f = HarmonicField(constant=3.0, terms=((2, 0, 1.0), (3, 1, 0.5)))
        g_want = SphericalHarmonic(2, 0).sphere_gradient(pts) + 0.5 * SphericalHarmonic(3, 1).sphere_gradient(pts)
        assert f.sphere_gradient(pts) == pytest.approx(g_want)
        h_want = SphericalHarmonic(2, 0).sphere_hessian(pts) + 0.5 * SphericalHarmonic(3, 1).sphere_hessian(pts)
        assert f.sphere_hessian(pts) == pytest.approx(h_want)

    def test_invalid_term_rejected(self):
        with pytest.raises(ValueError):
            HarmonicField(terms=((1, 5, 1.0),))


TERMS = st.integers(0, 6).flatmap(
    lambda l: st.tuples(st.just(l), st.integers(-l, l), st.floats(-2.0, 2.0, allow_nan=False))
)


def assert_jets_match(field, q):
    """Value, gradient and Hessian against the per-term oracle, relative to
    the larger of the oracle's magnitude and the sum of |amplitudes|."""
    want = harmonic_jets_reference(field, q)
    got = (field.value(q), field.sphere_gradient(q), field.sphere_hessian(q))
    amplitude = abs(field.constant) + sum(abs(a) for _, _, a in field.terms)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-13 * max(np.abs(w).max(), amplitude, 1e-300)


class TestJetsOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        constant=st.floats(-2.0, 2.0, allow_nan=False),
        terms=st.lists(TERMS, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_fields_match_per_term(self, constant, terms, seed):
        q = random_sphere_points(np.random.default_rng(seed), 40)
        assert_jets_match(HarmonicField(constant=constant, terms=tuple(terms)), q)

    def test_blocks_cover_a_large_point_set(self):
        q, _ = icosphere(5)   # 10242 points: several evaluation blocks
        field = HarmonicField(constant=1.0, terms=((2, 0, 0.05), (3, 1, 0.02), (6, -5, 0.3)))
        assert_jets_match(field, q)
