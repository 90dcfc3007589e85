"""Shape-operator algebra against brute-force and closed-form oracles."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorstab.curvature import (
    ShapeSpectrum,
    batched_eigvalsh2,
    batched_elementary,
    batched_newton,
    curvature_table,
    elementary_symmetric,
    newton_traces,
    newton_transform,
    r_area_integrand,
    stability_constant,
    variation_constant,
)

from conftest import random_shape
from oracles import batched_stability_constant, stability_constant_binomial


def sigma_bruteforce(values, r):
    """Subset-sum oracle, exponential and independent of the recurrence."""
    if r == 0:
        return 1.0
    return float(sum(np.prod(c) for c in combinations(values, r)))


def newton_bruteforce(a, r):
    """P_r from the explicit alternating polynomial in A."""
    n = a.shape[0]
    s = [sigma_bruteforce(np.linalg.eigvalsh(a), k) for k in range(n + 1)]
    out = np.zeros_like(a)
    for j in range(r + 1):
        out += (-1.0) ** (r - j) * s[r - j] * np.linalg.matrix_power(a, j)
    return out


class TestElementarySymmetric:
    def test_example_integers(self):
        assert elementary_symmetric([1, 2, 3], 2) == pytest.approx(11.0)

    def test_umbilical_binomial(self):
        for n in range(1, 7):
            for r in range(n + 1):
                got = elementary_symmetric([0.7] * n, r)
                assert got == pytest.approx(comb(n, r) * 0.7 ** r, rel=1e-12)

    def test_sigma0_is_one(self):
        assert elementary_symmetric([2, 3], 0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric([1, 2], 3)
        with pytest.raises(ValueError):
            elementary_symmetric([1, 2], -1)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=8), st.data())
    def test_matches_bruteforce(self, values, data):
        r = data.draw(st.integers(0, len(values)))
        want = sigma_bruteforce(values, r)
        got = elementary_symmetric(values, r)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestCurvatureTable:
    def test_diag_2_3(self):
        table = curvature_table(ShapeSpectrum(n=2, matrix=np.diag([2.0, 3.0])))
        assert table.elementary == pytest.approx((1.0, 5.0, 6.0))
        assert table.mean == pytest.approx((1.0, -2.5, 6.0))

    def test_minus_identity(self):
        table = curvature_table(ShapeSpectrum(n=3, eigenvalues=(-1.0,) * 3))
        assert table.mean == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_zero_operator(self):
        table = curvature_table(ShapeSpectrum(n=4, matrix=np.zeros((4, 4))))
        assert table.elementary == pytest.approx((1.0, 0, 0, 0, 0))
        assert table.mean == pytest.approx((1.0, 0, 0, 0, 0))

    def test_sign_relation(self, rng):
        for n in range(2, 7):
            table = curvature_table(random_shape(rng, n))
            for r in range(n + 1):
                assert comb(n, r) * table.mean[r] == pytest.approx(
                    (-1.0) ** r * table.elementary[r], rel=1e-12, abs=1e-12
                )

    def test_trace_factor_integer_identity(self):
        for n in range(1, 13):
            for r in range(n):
                assert (n - r) * comb(n, r) == (r + 1) * comb(n, r + 1)


class TestNewtonTransform:
    def test_diag_first_order(self):
        shape = ShapeSpectrum(n=2, matrix=np.diag([2.0, 3.0]))
        assert newton_transform(shape, 1).matrix == pytest.approx(np.diag([-3.0, -2.0]))

    def test_top_order_vanishes(self):
        shape = ShapeSpectrum(n=2, matrix=np.diag([2.0, 3.0]))
        assert np.abs(newton_transform(shape, 2).matrix).max() < 1e-12

    def test_umbilical_closed_form(self):
        for n in range(2, 6):
            shape = ShapeSpectrum(n=n, eigenvalues=(0.4,) * n)
            for r in range(n + 1):
                want = (-1.0) ** r * comb(n - 1, r) * 0.4 ** r * np.eye(n)
                got = newton_transform(shape, r).matrix
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
                brute = newton_bruteforce(0.4 * np.eye(n), r)
                assert got == pytest.approx(brute, rel=1e-10, abs=1e-12)

    def test_matches_bruteforce_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            shape = random_shape(rng, n)
            r = int(rng.integers(0, n + 1))
            got = newton_transform(shape, r).matrix
            want = newton_bruteforce(shape.matrix, r)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-10

    def test_commutes_and_shares_eigenvectors(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            shape = random_shape(rng, n)
            a = shape.matrix
            eigvals, eigvecs = np.linalg.eigh(a)
            for r in range(n):
                p = newton_transform(shape, r).matrix
                comm = np.abs(p @ a - a @ p).max()
                assert comm <= 1e-10 * max(1.0, np.abs(a).max() * np.abs(p).max())
                # eigenvalue on e_i is the deleted elementary symmetric value
                for i in range(n):
                    others = np.delete(eigvals, i)
                    want = (-1.0) ** r * sigma_bruteforce(others, r)
                    got = eigvecs[:, i] @ p @ eigvecs[:, i]
                    assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            newton_transform(ShapeSpectrum(n=2, eigenvalues=(1.0, 2.0)), 3)


class TestNewtonTraces:
    def test_diag_example(self):
        shape = ShapeSpectrum(n=2, matrix=np.diag([2.0, 3.0]))
        assert newton_traces(shape, 1) == pytest.approx((-5.0, -12.0, -30.0))

    def test_zero_operator(self):
        shape = ShapeSpectrum(n=3, matrix=np.zeros((3, 3)))
        assert newton_traces(shape, 1) == pytest.approx((0.0, 0.0, 0.0))
        assert newton_traces(shape, 2) == pytest.approx((0.0, 0.0, 0.0))

    def test_umbilical_closed_form(self):
        n, mu = 4, -0.8
        shape = ShapeSpectrum(n=n, eigenvalues=(mu,) * n)
        for r in range(n):
            tr_p, tr_ap, tr_a2p = newton_traces(shape, r)
            assert tr_p == pytest.approx((-1.0) ** r * (n - r) * comb(n, r) * mu ** r, rel=1e-12)

    def test_closed_forms_random_battery(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            shape = random_shape(rng, n)
            s = [elementary_symmetric(shape.values(), k) for k in range(n + 1)] + [0.0, 0.0]
            for r in range(n):
                tr_p, tr_ap, tr_a2p = newton_traces(shape, r)
                scale = max(1.0, abs(s[r]), abs(s[r + 1]), abs(s[r + 2]))
                assert abs(tr_p - (-1.0) ** r * (n - r) * s[r]) <= 1e-10 * max(1.0, abs(tr_p), scale)
                assert abs(tr_ap - (-1.0) ** r * (r + 1) * s[r + 1]) <= 1e-10 * max(1.0, abs(tr_ap), scale)
                want = (-1.0) ** r * (s[1] * s[r + 1] - (r + 2) * s[r + 2])
                assert abs(tr_a2p - want) <= 1e-10 * max(1.0, abs(tr_a2p), abs(want), scale)


class TestStabilityConstant:
    def test_diag_example(self):
        shape = ShapeSpectrum(n=2, matrix=np.diag([2.0, 3.0]))
        assert stability_constant(shape, 1.0, 1) == pytest.approx(25.0)

    def test_umbilical_sech_form(self):
        for s0 in (0.3, 1.0, 2.0):
            mu = -np.tanh(s0)
            for n in (2, 3, 5):
                shape = ShapeSpectrum(n=n, eigenvalues=(mu,) * n)
                for r in range(n):
                    want = (1 - np.tanh(s0) ** 2) * (n - r) * comb(n, r) * np.tanh(s0) ** r
                    assert stability_constant(shape, 1.0, r) == pytest.approx(want, rel=1e-12)

    def test_zero_operator(self):
        shape = ShapeSpectrum(n=3, matrix=np.zeros((3, 3)))
        for c in (0.0, 1.0, -2.5):
            assert stability_constant(shape, c, 1) == 0.0
            assert stability_constant(shape, c, 2) == 0.0

    def test_trace_equals_binomial_form(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            shape = random_shape(rng, n)
            c = float(rng.uniform(-2, 2))
            for r in range(n):
                trace = stability_constant(shape, c, r)
                binom = stability_constant_binomial(shape, c, r)
                assert abs(trace - binom) <= 1e-10 * max(1.0, abs(trace), abs(binom))


class TestAreaIntegrandAndVariationConstant:
    def test_low_orders(self):
        table = curvature_table(ShapeSpectrum(n=4, eigenvalues=(1.0, 2.0, -1.0, 0.5)))
        assert r_area_integrand(table.elementary, 1.0, 0) == 1.0
        assert r_area_integrand(table.elementary, 1.0, 1) == pytest.approx(-table.elementary[1])

    def test_second_order_example(self):
        # n=3, c=1, sigma_2 = 6: F_2 = sigma_2 - c (n-1) F_0
        shape = ShapeSpectrum(n=3, eigenvalues=(1.0, 2.0, 0.8))
        table = curvature_table(shape)
        s2 = table.elementary[2]
        assert r_area_integrand(table.elementary, 1.0, 2) == pytest.approx(s2 - 2.0)
        assert s2 == pytest.approx(1 * 2 + 1 * 0.8 + 2 * 0.8)

    def test_stack_matches_rows(self, rng):
        # n = 4 reaches r = 3, so the F_{r-2} recurrence runs past r = 1
        n = 4
        sigma = batched_elementary(rng.uniform(-2.0, 2.0, size=(25, n)))
        for c in (1.0, -0.5):
            for r in range(n):
                stack = r_area_integrand(sigma, c, r)
                assert stack.shape == (25,)
                rows = np.array([r_area_integrand(row, c, r) for row in sigma])
                assert np.array_equal(stack, rows)
        # F_3 = -sigma_3 - c (n - 2) / 2 * F_1 with F_1 = -sigma_1, n = 4, c = 1
        assert r_area_integrand(sigma, 1.0, 3) == pytest.approx(sigma[:, 1] - sigma[:, 3], rel=1e-14)

    def test_variation_constant_values(self):
        assert variation_constant(2, 1.0, 0) == 0.0
        assert variation_constant(5, 3.0, 2) == 0.0
        assert variation_constant(2, 1.0, 1) == pytest.approx(2.0)
        assert variation_constant(3, 2.0, 1) == pytest.approx(6.0)
        assert variation_constant(4, 1.0, 3) == pytest.approx(-4.0)

    def test_range_errors(self):
        table = curvature_table(ShapeSpectrum(n=2, eigenvalues=(1.0, 2.0)))
        with pytest.raises(ValueError):
            r_area_integrand(table.elementary, 1.0, 2)
        with pytest.raises(ValueError):
            variation_constant(2, 1.0, 2)


class TestShapeSpectrumValidation:
    def test_needs_some_representation(self):
        with pytest.raises(ValueError):
            ShapeSpectrum(n=2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            ShapeSpectrum(n=2, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_mismatched_representations(self):
        with pytest.raises(ValueError, match="disagree"):
            ShapeSpectrum(n=2, eigenvalues=(1.0, 1.0), matrix=np.diag([1.0, 2.0]))

    def test_accepts_consistent_pair(self):
        shape = ShapeSpectrum(n=2, eigenvalues=(1.0, 2.0), matrix=np.diag([2.0, 1.0]))
        assert shape.values() == pytest.approx([1.0, 2.0])


class TestBatchedHelpers:
    def test_eigvalsh2_matches_lapack(self, rng):
        stack = rng.normal(size=(2000, 2, 2)) * rng.uniform(1e-3, 1e3, size=(2000, 1, 1))
        stack = stack + stack.transpose(0, 2, 1)
        stack[:200, 0, 1] = stack[:200, 1, 0] = 0.0               # b = 0
        stack[200:400, 1, 1] = stack[200:400, 0, 0]               # a = d
        stack[400:500, 1, 1] = -stack[400:500, 0, 0]              # a + d = 0
        stack[500:600, 0, 1] = stack[500:600, 1, 0] = 0.0         # a = d and b = 0
        stack[500:600, 1, 1] = stack[500:600, 0, 0]
        stack[600:700, 0, 1] = stack[600:700, 1, 0] = stack[600:700, 1, 0] * 1e-12
        stack[700] = 0.0
        got = batched_eigvalsh2(stack)
        want = np.linalg.eigvalsh(stack)
        assert (got[:, 0] <= got[:, 1]).all()
        ulp = np.spacing(np.abs(want).max(axis=1))
        assert (np.abs(got - want) <= 4 * ulp[:, None]).all()
        # b = 0 leaves the diagonal itself, sorted
        diag = np.sort(stack[:200, [0, 1], [0, 1]], axis=1)
        assert np.array_equal(got[:200], diag)
        assert np.array_equal(got[500:600], stack[500:600, [0, 0], [0, 0]])

    def test_batched_matches_scalar(self, rng):
        """The kernels on a stack against the independent oracles, row by row."""
        for n in range(2, 7):
            shapes = [random_shape(rng, n) for _ in range(12)]
            stack = np.stack([s.matrix for s in shapes])
            sigma = batched_elementary(np.linalg.eigvalsh(stack))
            for i, s in enumerate(shapes):
                want = [sigma_bruteforce(s.values(), k) for k in range(n + 1)]
                assert sigma[i] == pytest.approx(want, rel=1e-10, abs=1e-10)
            for r in range(n + 1):
                p = batched_newton(stack, sigma, r)
                for i, s in enumerate(shapes):
                    want = newton_bruteforce(s.matrix, r)
                    assert np.abs(p[i] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
            for r in range(n):
                for c in (1.0, -0.7):
                    lam = batched_stability_constant(stack, c, r)
                    for i, s in enumerate(shapes):
                        want = stability_constant_binomial(s, c, r)
                        assert abs(lam[i] - want) <= 1e-10 * max(1.0, abs(lam[i]), abs(want))
