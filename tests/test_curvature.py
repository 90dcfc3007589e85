"""Shape-operator algebra against brute-force and closed-form oracles: the
n = 2 kernels, and the any-n references in ``oracles`` they replaced, called
on one-row stacks where a test checks one point."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorstab.cli import _FD_H
from lorstab.curvature import batched_eigvalsh2, batched_elementary, batched_newton
from lorstab.fem import assemble
from lorstab.stability import _chronology
from lorstab.surfaces import mdot
from lorstab.variation import NormalVariation, _lagrange_constant, r_area, verify_first_variation

from conftest import random_shape
from oracles import (
    SphericalHarmonic,
    area_integrand_reference,
    batched_stability_constant,
    elementary_reference,
    mean_curvatures_reference,
    newton_reference,
    newton_traces_reference,
    stability_constant_binomial,
    variation_constant_reference,
)


def stack_elementary(eigs):
    """sigma per row of an (V, n) eigenvalue stack: the kernel at n = 2, the
    any-n reference otherwise."""
    return (batched_elementary if eigs.shape[1] == 2 else elementary_reference)(eigs)


def stack_newton(a, sigma, r):
    """P_r of an (V, n, n) operator stack: the kernel at n = 2 and r <= 1,
    the any-n reference otherwise."""
    return (batched_newton if a.shape[1] == 2 and r <= 1 else newton_reference)(a, sigma, r)


def elementary(values):
    """sigma_0..sigma_n of one point's principal curvatures."""
    return stack_elementary(np.asarray(values, dtype=float).reshape(1, -1))[0]


def mean_curvatures(values):
    """H_0..H_n from the kernel's sigma: C(n,r) H_r = (-1)^r sigma_r."""
    s = elementary(values)
    n = s.size - 1
    return np.array([(-1.0) ** r * s[r] / comb(n, r) for r in range(n + 1)])


def newton(a, r):
    """P_r of one symmetric shape operator."""
    stack = np.asarray(a, dtype=float)[None]
    return stack_newton(stack, stack_elementary(np.linalg.eigvalsh(stack)), r)[0]


def traces(a, r):
    """(tr P_r, tr A P_r, tr A^2 P_r) of one symmetric shape operator."""
    return tuple(newton_traces_reference(np.asarray(a, dtype=float)[None], newton(a, r)[None])[0])


def stability_constant(a, c, r):
    """c*tr(P_r) - tr(A^2 P_r) of one symmetric shape operator."""
    return float(batched_stability_constant(np.asarray(a, dtype=float)[None], c, r)[0])


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
        assert elementary([1, 2, 3])[2] == pytest.approx(11.0)

    def test_umbilical_binomial(self):
        for n in range(1, 7):
            for r in range(n + 1):
                got = elementary([0.7] * n)[r]
                assert got == pytest.approx(comb(n, r) * 0.7 ** r, rel=1e-12)

    def test_sigma0_is_one(self):
        assert elementary([2, 3])[0] == 1.0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=8), st.data())
    def test_matches_bruteforce(self, values, data):
        r = data.draw(st.integers(0, len(values)))
        want = sigma_bruteforce(values, r)
        got = elementary(values)[r]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestCurvatureTable:
    def test_diag_2_3(self):
        values = np.linalg.eigvalsh(np.diag([2.0, 3.0]))
        assert elementary(values) == pytest.approx((1.0, 5.0, 6.0))
        assert mean_curvatures(values) == pytest.approx((1.0, -2.5, 6.0))

    def test_minus_identity(self):
        assert mean_curvatures((-1.0,) * 3) == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_zero_operator(self):
        values = np.linalg.eigvalsh(np.zeros((4, 4)))
        assert elementary(values) == pytest.approx((1.0, 0, 0, 0, 0))
        assert mean_curvatures(values) == pytest.approx((1.0, 0, 0, 0, 0))

    def test_sign_relation(self, rng):
        for n in range(2, 7):
            a = random_shape(rng, n)
            # the oracle's H from the characteristic polynomial, the kernel's sigma
            mean, s = mean_curvatures_reference(a), elementary(np.linalg.eigvalsh(a))
            for r in range(n + 1):
                assert comb(n, r) * mean[r] == pytest.approx(
                    (-1.0) ** r * s[r], rel=1e-12, abs=1e-12
                )

    def test_trace_factor_integer_identity(self):
        for n in range(1, 13):
            for r in range(n):
                assert (n - r) * comb(n, r) == (r + 1) * comb(n, r + 1)


class TestNewtonTransform:
    def test_diag_first_order(self):
        assert newton(np.diag([2.0, 3.0]), 1) == pytest.approx(np.diag([-3.0, -2.0]))

    def test_top_order_vanishes(self):
        assert np.abs(newton(np.diag([2.0, 3.0]), 2)).max() < 1e-12

    def test_umbilical_closed_form(self):
        for n in range(2, 6):
            for r in range(n + 1):
                want = (-1.0) ** r * comb(n - 1, r) * 0.4 ** r * np.eye(n)
                got = newton(np.diag((0.4,) * n), r)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
                brute = newton_bruteforce(0.4 * np.eye(n), r)
                assert got == pytest.approx(brute, rel=1e-10, abs=1e-12)

    def test_matches_bruteforce_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a = random_shape(rng, n)
            r = int(rng.integers(0, n + 1))
            got = newton(a, r)
            want = newton_bruteforce(a, r)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-10

    def test_commutes_and_shares_eigenvectors(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_shape(rng, n)
            eigvals, eigvecs = np.linalg.eigh(a)
            for r in range(n):
                p = newton(a, r)
                comm = np.abs(p @ a - a @ p).max()
                assert comm <= 1e-10 * max(1.0, np.abs(a).max() * np.abs(p).max())
                # eigenvalue on e_i is the deleted elementary symmetric value
                for i in range(n):
                    others = np.delete(eigvals, i)
                    want = (-1.0) ** r * sigma_bruteforce(others, r)
                    got = eigvecs[:, i] @ p @ eigvecs[:, i]
                    assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


class TestNewtonTraces:
    def test_diag_example(self):
        assert traces(np.diag([2.0, 3.0]), 1) == pytest.approx((-5.0, -12.0, -30.0))

    def test_zero_operator(self):
        assert traces(np.zeros((3, 3)), 1) == pytest.approx((0.0, 0.0, 0.0))
        assert traces(np.zeros((3, 3)), 2) == pytest.approx((0.0, 0.0, 0.0))

    def test_umbilical_closed_form(self):
        n, mu = 4, -0.8
        for r in range(n):
            tr_p, tr_ap, tr_a2p = traces(np.diag((mu,) * n), r)
            assert tr_p == pytest.approx((-1.0) ** r * (n - r) * comb(n, r) * mu ** r, rel=1e-12)

    def test_closed_forms_random_battery(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = random_shape(rng, n)
            s = list(elementary(np.linalg.eigvalsh(a))) + [0.0, 0.0]
            for r in range(n):
                tr_p, tr_ap, tr_a2p = traces(a, r)
                scale = max(1.0, abs(s[r]), abs(s[r + 1]), abs(s[r + 2]))
                assert abs(tr_p - (-1.0) ** r * (n - r) * s[r]) <= 1e-10 * max(1.0, abs(tr_p), scale)
                assert abs(tr_ap - (-1.0) ** r * (r + 1) * s[r + 1]) <= 1e-10 * max(1.0, abs(tr_ap), scale)
                want = (-1.0) ** r * (s[1] * s[r + 1] - (r + 2) * s[r + 2])
                assert abs(tr_a2p - want) <= 1e-10 * max(1.0, abs(tr_a2p), abs(want), scale)


class TestStabilityConstant:
    def test_diag_example(self):
        assert stability_constant(np.diag([2.0, 3.0]), 1.0, 1) == pytest.approx(25.0)

    def test_umbilical_sech_form(self):
        for s0 in (0.3, 1.0, 2.0):
            mu = -np.tanh(s0)
            for n in (2, 3, 5):
                for r in range(n):
                    want = (1 - np.tanh(s0) ** 2) * (n - r) * comb(n, r) * np.tanh(s0) ** r
                    assert stability_constant(np.diag((mu,) * n), 1.0, r) == pytest.approx(want, rel=1e-12)

    def test_zero_operator(self):
        for c in (0.0, 1.0, -2.5):
            assert stability_constant(np.zeros((3, 3)), c, 1) == 0.0
            assert stability_constant(np.zeros((3, 3)), c, 2) == 0.0

    def test_trace_equals_binomial_form(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = random_shape(rng, n)
            c = float(rng.uniform(-2, 2))
            for r in range(n):
                trace = stability_constant(a, c, r)
                binom = stability_constant_binomial(a, c, r)
                assert abs(trace - binom) <= 1e-10 * max(1.0, abs(trace), abs(binom))


class TestAreaIntegrandAndVariationConstant:
    def test_low_orders(self):
        s = elementary((1.0, 2.0, -1.0, 0.5))
        assert area_integrand_reference(s, 1.0, 0) == 1.0
        assert area_integrand_reference(s, 1.0, 1) == pytest.approx(-s[1])

    def test_second_order_example(self):
        # n=3, c=1, sigma_2 = 6: F_2 = sigma_2 - c (n-1) F_0
        s = elementary((1.0, 2.0, 0.8))
        s2 = s[2]
        assert area_integrand_reference(s, 1.0, 2) == pytest.approx(s2 - 2.0)
        assert s2 == pytest.approx(1 * 2 + 1 * 0.8 + 2 * 0.8)

    def test_stack_matches_rows(self, rng):
        # n = 4 reaches r = 3, so the F_{r-2} recurrence runs past r = 1
        n = 4
        sigma = elementary_reference(rng.uniform(-2.0, 2.0, size=(25, n)))
        for c in (1.0, -0.5):
            for r in range(n):
                stack = area_integrand_reference(sigma, c, r)
                assert stack.shape == (25,)
                rows = np.array([area_integrand_reference(row, c, r) for row in sigma])
                assert np.array_equal(stack, rows)
        # F_3 = -sigma_3 - c (n - 2) / 2 * F_1 with F_1 = -sigma_1, n = 4, c = 1
        assert area_integrand_reference(sigma, 1.0, 3) == pytest.approx(sigma[:, 1] - sigma[:, 3], rel=1e-14)

    def test_variation_constant_values(self):
        assert variation_constant_reference(2, 1.0, 0) == 0.0
        assert variation_constant_reference(5, 3.0, 2) == 0.0
        assert variation_constant_reference(2, 1.0, 1) == pytest.approx(2.0)
        assert variation_constant_reference(3, 2.0, 1) == pytest.approx(6.0)
        assert variation_constant_reference(4, 1.0, 3) == pytest.approx(-4.0)

    def test_range_errors(self, slice_mesh):
        with pytest.raises(ValueError):
            area_integrand_reference(elementary((1.0, 2.0)), 1.0, 2)
        with pytest.raises(ValueError):
            variation_constant_reference(2, 1.0, 2)
        with pytest.raises(ValueError, match=r"order r=2 out of range \[0, 1\]"):
            r_area(slice_mesh(1.0, 3), 2)


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
            stack = np.stack(shapes)
            sigma = stack_elementary(np.linalg.eigvalsh(stack))
            for i, s in enumerate(shapes):
                want = [sigma_bruteforce(np.linalg.eigvalsh(s), k) for k in range(n + 1)]
                assert sigma[i] == pytest.approx(want, rel=1e-10, abs=1e-10)
            for r in range(n + 1):
                p = stack_newton(stack, sigma, r)
                for i, s in enumerate(shapes):
                    want = newton_bruteforce(s, r)
                    assert np.abs(p[i] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
            for r in range(n):
                for c in (1.0, -0.7):
                    lam = batched_stability_constant(stack, c, r)
                    for i, s in enumerate(shapes):
                        want = stability_constant_binomial(s, c, r)
                        assert abs(lam[i] - want) <= 1e-10 * max(1.0, abs(lam[i]), abs(want))


def bits(x):
    """The bit patterns of a float array or scalar, so that -0.0 != +0.0."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


BENCH_TERMS = ((2, 0, 0.05), (3, 1, 0.02))
E4 = np.array([0.0, 0.0, 0.0, 1.0])


class TestClosedFormsBitwise:
    """The n = 2, c = 1, e4 closed forms that the pipeline computes, bit for
    bit against the any-n references and the Lorentz product with e4: on
    level-4 slices (s0 = 0 has exact zeros) and on the bench graph with its
    time reflection p4 -> -p4 (s0 and every amplitude negated)."""

    @pytest.fixture(params=["slice-1", "slice0", "slice+1", "graph", "graph-reflected"])
    def surface(self, request, slice_mesh, graph_mesh):
        if request.param.startswith("slice"):
            return slice_mesh(float(request.param[5:]), 4)
        sign = -1.0 if request.param.endswith("reflected") else 1.0
        return graph_mesh(sign, tuple((l, m, sign * a) for l, m, a in BENCH_TERMS), 4)

    def test_signed_zeros_match_references(self):
        """Every symmetric 2x2 operator with entries in {-0, +0, -1, 0.5, 1},
        and every eigenvalue pair from that set: the closed forms keep the
        signed zeros of the recurrences."""
        values = np.array([-0.0, 0.0, -1.0, 0.5, 1.0])
        entries = np.array(np.meshgrid(values, values, values, indexing="ij")).reshape(3, -1)
        a = np.stack([entries[[0, 1]], entries[[1, 2]]]).transpose(2, 0, 1)
        pairs = np.array(np.meshgrid(values, values, indexing="ij")).reshape(2, -1).T
        for eigs in (batched_eigvalsh2(a), pairs):
            assert np.array_equal(bits(batched_elementary(eigs)), bits(elementary_reference(eigs)))
        sigma = elementary_reference(batched_eigvalsh2(a))
        for r in (0, 1):
            assert np.array_equal(bits(batched_newton(a, sigma, r)), bits(newton_reference(a, sigma, r)))

    def test_matches_references(self, surface):
        sigma = elementary_reference(surface.shape_eigs)
        assert np.array_equal(bits(surface.sigma), bits(sigma))
        assert np.array_equal(bits(batched_elementary(surface.shape_eigs)), bits(sigma))
        for r in (0, 1):
            p = newton_reference(surface.shape, sigma, r)
            assert np.array_equal(bits(batched_newton(surface.shape, surface.sigma, r)), bits(p))
            traces = newton_traces_reference(surface.shape, p)
            assert np.array_equal(bits(assemble(surface, r).lam_field), bits(traces[:, 0] - traces[:, 2]))
            f_r = area_integrand_reference(sigma, 1.0, r)
            assert bits(r_area(surface, r)) == bits(float(np.sum(surface.weights * f_r)))
            h_next_mean = float(np.sum(surface.weights * surface.mean[:, r + 1]) / surface.area)
            want = variation_constant_reference(2, 1.0, r) + 2 * h_next_mean
            assert bits(_lagrange_constant(surface, r)) == bits(want)
            if surface.is_slice:
                variation = NormalVariation(surface, SphericalHarmonic(1, 0))
                integrand = (-1.0) ** (r + 1) * (r + 1) * sigma[:, r + 1] + variation_constant_reference(2, 1.0, r)
                want = float(np.sum(surface.weights * integrand * variation.values()))
                assert bits(verify_first_variation(variation, r, h=_FD_H).rhs) == bits(want)

        # psi = p4, <N, e4> = -N4 and V = e4 + p4 p against the Lorentz product
        # with e4; psi may differ from -<p, e4> in the sign of a zero, which
        # only |psi| and products with psi read
        p, normal = surface.vertices, surface.normal
        _, psi = _chronology(surface)
        nonzero = p[:, 3] != 0.0
        assert np.array_equal(bits(psi[nonzero]), bits(-mdot(p, E4)[nonzero]))
        assert np.array_equal(bits(np.abs(psi)), bits(np.abs(mdot(p, E4))))
        assert np.array_equal(bits(normal[:, 3]), bits(-mdot(normal, E4)))
        v_field = E4 + psi[:, None] * p
        assert np.array_equal(bits(v_field), bits(E4 - mdot(p, E4)[:, None] * p))
