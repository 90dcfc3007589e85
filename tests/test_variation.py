"""Flows and finite-difference verification of the variation formulas."""

from dataclasses import fields

import numpy as np
import pytest

import lorstab.surfaces
import lorstab.variation
from lorstab.harmonics import HarmonicField
from lorstab.surfaces import GraphSurface, build_graph, build_slice, mdot
from lorstab.variation import (
    _T_MAX,
    FlowError,
    NormalVariation,
    _lagrange_constant,
    _sphere_rule,
    flow,
    r_area,
    verify_first_variation,
    verify_second_variation,
    verify_sr_evolution,
    volume_balance,
    volume_derivative_check,
)
from oracles import flow_rule_positions, volume_balance_reference

CONST = HarmonicField(constant=1.0)
NEG_CONST = HarmonicField(constant=-1.0)
Y10 = HarmonicField(terms=((1, 0, 1.0),))
Y20 = HarmonicField(terms=((2, 0, 1.0),))
MIXED = HarmonicField(constant=0.3, terms=((1, 1, 0.7), (2, 0, -0.5), (3, 2, 0.4)))
# the geometric data of a built surface: its fields less the height, the mesh
# and the memo, and those computed on first read
GEOMETRY_FIELDS = tuple(f.name for f in fields(GraphSurface) if f.name not in ("height", "mesh", "_memo"))
LAZY_FIELDS = ("mass", "jets")


class TestFlow:
    def test_zero_time_is_base(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=Y10)
        assert flow(var, 0.0) is var.base

    def test_unit_amplitude_translates_slices(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=CONST)
        snap = flow(var, 0.05)
        want = build_slice(1.05, level=3)
        assert np.abs(snap.vertices - want.vertices).max() < 1e-10

    def test_matches_flow_rule(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=Y20)
        for t in (0.01, -0.03):
            snap = flow(var, t)
            assert np.abs(snap.vertices - flow_rule_positions(var, t)).max() < 1e-10

    def test_stays_on_hyperquadric(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=Y10)
        snap = flow(var, 0.01)
        assert np.abs(mdot(snap.vertices, snap.vertices) - 1.0).max() < 1e-10

    def test_variational_field_is_normal_amplitude(self, slice_mesh):
        base = slice_mesh(1.0, 3)
        var = NormalVariation(base=base, amplitude=Y20)
        h = 1e-4
        vel = (flow(var, h).vertices - flow(var, -h).vertices) / (2 * h)
        want = var.values()[:, None] * base.normal
        assert np.abs(vel - want).max() < 1e-8

    def test_t_max_enforced(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=CONST)
        with pytest.raises(FlowError):
            flow(var, 2 * _T_MAX)

    def test_spacelike_loss_raises(self, slice_mesh):
        # the flowed slice is the graph u = s0 + t f, spacelike where |t grad f| < cosh(u)
        base = slice_mesh(1.0, 3)
        q = base.mesh.q
        t = 0.05

        def spacelike_data(amplitude):
            grad = np.linalg.norm(t * amplitude.sphere_gradient(q), axis=1)
            return grad, np.cosh(1.0 + t * amplitude.value(q))

        # 100 Y11: max |t grad f| / cosh(u) = 2.26
        steep = HarmonicField(terms=((1, 1, 100.0),))
        with pytest.raises(FlowError) as err:
            flow(NormalVariation(base=base, amplitude=steep), t)
        assert err.value.t == t
        grad, cosh_u = spacelike_data(steep)
        worst = err.value.vertex
        assert worst is not None
        assert grad[worst] >= cosh_u[worst]
        assert worst == int(np.argmin(cosh_u**2 - grad**2))

        # 40 Y11: max |t grad f| / cosh(u) = 0.75, still spacelike
        mild = HarmonicField(terms=((1, 1, 40.0),))
        grad, cosh_u = spacelike_data(mild)
        assert (grad / cosh_u).max() < 1.0
        snap = flow(NormalVariation(base=base, amplitude=mild), t)
        assert snap.vertices.shape == base.vertices.shape

    def test_snapshot_equals_fresh_build_at_base_level(self, slice_mesh):
        # the snapshot's jets are base jets + t amplitude jets, which agree
        # with a fresh evaluation of s0 + t f to rounding
        base = slice_mesh(1.0, 3)
        var = NormalVariation(base=base, amplitude=Y20)
        t = 0.02
        snap = flow(var, t)
        height = base.height.plus(Y20, factor=t)
        want = build_graph(height.constant, perturbations=height.terms, level=3)
        assert snap.mesh is base.mesh is want.mesh
        assert snap.mesh is want.mesh
        assert snap.mesh.level == 3
        for name in [*GEOMETRY_FIELDS, *LAZY_FIELDS]:
            got, ref = getattr(snap, name), getattr(want, name)
            if name == "mass":
                assert np.array_equal(got.indices, ref.indices) and np.array_equal(got.indptr, ref.indptr)
                got, ref = got.data, ref.data
            if name == "jets":      # both evaluate s0 + t f at the mesh points
                assert all(np.array_equal(a, b) for a, b in zip(got, ref)), name
                continue
            scale = np.abs(ref).max()
            assert np.abs(np.asarray(got) - ref).max() <= 1e-13 * scale, name

    def test_snapshot_is_build_from_shifted_jets(self, slice_mesh):
        base = slice_mesh(1.0, 3)
        for amplitude, t in ((Y20, 0.02), (MIXED, -1e-3)):
            var = NormalVariation(base=base, amplitude=amplitude)
            snap = flow(var, t)
            height = base.height.plus(amplitude, factor=t)
            jets = tuple(b + t * a for b, a in zip(base.height.jets(base.mesh.q), amplitude.jets(base.mesh.q)))
            want = build_graph(height.constant, perturbations=height.terms, mesh=base.mesh, jets=jets)
            assert snap.mesh is base.mesh
            assert snap.height == want.height
            for name in GEOMETRY_FIELDS:
                assert np.array_equal(getattr(snap, name), getattr(want, name)), name

    def test_flow_evaluates_no_harmonics(self, slice_mesh, monkeypatch):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=MIXED)
        flow(var, 1e-3)                    # the base's and the amplitude's jets now exist
        calls = []
        for name in ("value", "sphere_gradient", "sphere_hessian"):
            def counted(self, q, _name=name, _real=getattr(HarmonicField, name)):
                calls.append(_name)
                return _real(self, q)
            monkeypatch.setattr(HarmonicField, name, counted)
        for t in (-0.02, -1e-3, 0.01, 0.02):
            flow(var, t)
        assert calls == []

    def test_snapshot_builds_no_mesh_data(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=Y20)
        snap = flow(var, 0.02)
        assert r_area(snap, 1) > 0
        assert not set(LAZY_FIELDS) & vars(snap).keys()
        # read once, then kept
        assert snap.mass is snap.mass

    def test_weights_are_mass_row_sums(self, slice_mesh, graph_mesh):
        for surf in (slice_mesh(1.0, 3), graph_mesh(1.0, ((2, 0, 0.05), (3, 1, 0.02)), 4)):
            rows = np.asarray(surf.mass.sum(axis=1)).ravel()
            assert np.abs(surf.weights - rows).max() <= 1e-15 * np.abs(rows).max()

    def test_snapshots_skip_mesh_validation(self, slice_mesh, monkeypatch):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=Y20)
        calls = []
        real = lorstab.surfaces.validate_closed_oriented

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lorstab.surfaces, "validate_closed_oriented", counted)
        for t in (-0.02, 0.01, 0.02):
            flow(var, t)
        assert calls == []

    def test_graph_base_rejected(self, graph_mesh):
        with pytest.raises(ValueError, match="slice base"):
            NormalVariation(base=graph_mesh(1.0, ((2, 0, 0.05),), 3), amplitude=CONST)


class TestRArea:
    def test_total_area(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        want = 4 * np.pi * np.cosh(1.0) ** 2
        assert abs(r_area(surf, 0) - want) / want < 1e-3

    def test_first_order_umbilical(self, slice_mesh):
        surf = slice_mesh(1.0, 5)
        want = 2 * np.tanh(1.0) * 4 * np.pi * np.cosh(1.0) ** 2
        assert abs(r_area(surf, 1) - want) / want < 1e-3

    def test_equator_first_order_vanishes(self):
        surf = build_slice(0.0, level=3)
        assert abs(r_area(surf, 1)) < 1e-12


class TestVolumeBalance:
    def test_zero_amplitude(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=HarmonicField(constant=0.0))
        for t in (0.02, 0.1):
            assert volume_balance(var, t) == pytest.approx(0.0, abs=1e-12)

    def test_zero_time(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=CONST)
        assert volume_balance(var, 0.0) == 0.0

    @pytest.mark.parametrize("level", [3, 4])
    @pytest.mark.parametrize("amplitude", [CONST, NEG_CONST, Y10, Y20], ids=["const", "-const", "Y10", "Y20"])
    def test_matches_determinant_oracle(self, slice_mesh, level, amplitude):
        # the Gram-determinant quadrature over the mesh approaches the chart
        # integral at second order: its relative distance falls by 3.7x to
        # 5.2x from one level to the next
        coarse, fine = (NormalVariation(base=slice_mesh(1.0, lv), amplitude=amplitude) for lv in (level, level + 1))
        for t in (2e-2, -_T_MAX):
            exact = volume_balance(coarse, t)
            assert (volume_balance_reference(coarse, t) - exact) / (volume_balance_reference(fine, t) - exact) >= 3

    def test_sequence_of_times_equals_scalar_calls(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=Y20)
        times = [-0.02, -0.01, 0.0, 0.01, 0.02]
        got = volume_balance(var, times)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        assert np.array_equal(got, [volume_balance(var, t) for t in times])
        assert got[2] == 0.0
        assert isinstance(volume_balance(var, 0.01), float)

    def test_sphere_rule(self):
        q, w = _sphere_rule()
        assert q.shape == (3200, 3) and np.abs(np.linalg.norm(q, axis=1) - 1.0).max() < 1e-15
        assert abs(w.sum() - 4 * np.pi) <= 1e-14
        # exact up to the rounding of leggauss's nodes and weights, which
        # leaves the zonal terms m = 0 at up to 4.0e-14 (Y60)
        for l in range(1, 7):
            for m in range(-l, l + 1):
                assert abs(HarmonicField(terms=((l, m, 1.0),)).value(q) @ w) <= 1e-13

    def test_reads_the_fields_once_not_the_mesh(self, slice_mesh, monkeypatch):
        coarse, fine = (NormalVariation(base=slice_mesh(1.0, level), amplitude=MIXED) for level in (3, 5))
        builds, values = [], []
        for module in (lorstab.surfaces, lorstab.variation):
            monkeypatch.setattr(module, "build_graph", lambda *a, **k: builds.append(a))
        real = HarmonicField.value
        monkeypatch.setattr(HarmonicField, "value", lambda field, q: values.append(field) or real(field, q))
        times = [-0.02, -0.01, 0.0, 0.01, 0.02]
        assert np.array_equal(volume_balance(coarse, times), volume_balance(fine, times))
        assert builds == [] and values == [coarse.base.height, MIXED] * 2

    def test_sequence_past_t_max_raises(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=CONST)
        with pytest.raises(FlowError) as err:
            volume_balance(var, [0.05, -2 * _T_MAX])
        assert err.value.t == -2 * _T_MAX

    def test_derivative_matches_area_integral(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 4), amplitude=CONST)
        chk = volume_derivative_check(var, h=1e-3)
        assert chk.rel_error <= 1e-3
        assert chk.lhs > 0

    def test_mean_zero_amplitude_preserves_volume(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 4), amplitude=Y10)
        chk = volume_derivative_check(var, h=1e-3)
        area = var.base.area
        assert abs(chk.lhs) <= 1e-4 * area

    def test_sign_flips_with_amplitude(self, slice_mesh):
        base = slice_mesh(1.0, 3)
        up = NormalVariation(base=base, amplitude=CONST)
        down = NormalVariation(base=base, amplitude=HarmonicField(constant=-1.0))

        def slab(a, b):
            # 4 pi int_a^b cosh^2 s ds: volume between the slices at a and b
            return 4 * np.pi * ((b - a) / 2 + (np.sinh(2 * b) - np.sinh(2 * a)) / 4)

        for t in (0.02, 0.05):
            up_v = volume_balance(up, t)
            down_v = volume_balance(down, t)
            assert up_v > 0 > down_v
            # the flow depends on (f, t) only through t f
            assert down_v == pytest.approx(volume_balance(up, -t), rel=1e-12)
            above, below = slab(1.0, 1.0 + t), slab(1.0 - t, 1.0)
            assert up_v == pytest.approx(above, rel=1e-12)
            assert down_v == pytest.approx(-below, rel=1e-12)
            # cosh^2 grows with s, so the slab above s0 is the larger one:
            # volume_balance is not odd in f (7.3% apart at t = 0.05)
            assert (up_v + down_v) / up_v == pytest.approx((above - below) / above, rel=1e-10)


class TestFirstVariation:
    def test_expanding_slice(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 5), amplitude=CONST)
        chk = verify_first_variation(var, 0, h=1e-3)
        assert chk.rel_error <= 1e-3
        # area of slices grows like cosh^2
        want = 8 * np.pi * np.cosh(1.0) * np.sinh(1.0)
        assert chk.lhs == pytest.approx(want, rel=2e-3)

    def test_first_order_constant_convention(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 5), amplitude=CONST)
        chk = verify_first_variation(var, 1, h=1e-3)
        assert chk.rel_error <= 1e-3

    def test_mean_zero_amplitude(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 5), amplitude=Y20)
        chk = verify_first_variation(var, 1, h=1e-3)
        assert chk.rel_error <= 5e-3

    def test_richardson_estimates_truncation(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 4), amplitude=CONST)
        coarse = verify_first_variation(var, 0, h=4e-3)
        fine = verify_first_variation(var, 0, h=1e-3)
        assert fine.richardson < coarse.richardson


class TestSrEvolution:
    @pytest.mark.parametrize("r", [0, 1])
    def test_uniform_flow(self, slice_mesh, r):
        var = NormalVariation(base=slice_mesh(1.0, 5), amplitude=CONST)
        chk = verify_sr_evolution(var, r, h=1e-3)
        assert chk.rel_error <= 1e-3

    def test_degree_one_amplitude(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 5), amplitude=Y10)
        chk = verify_sr_evolution(var, 0, h=1e-3)
        assert chk.rel_error <= 2e-2

    def test_uniform_flow_matches_closed_form(self, slice_mesh):
        # S_1 of the slice family has derivative -n sech^2 in the flow time
        var = NormalVariation(base=slice_mesh(1.0, 4), amplitude=CONST)
        snaps = [flow(var, t) for t in (-1e-3, 1e-3)]
        lhs = (snaps[1].sigma[:, 1] - snaps[0].sigma[:, 1]) / 2e-3
        want = -2.0 / np.cosh(1.0) ** 2
        assert np.abs(lhs - want).max() < 1e-5


class TestSecondVariation:
    def test_threshold_mode(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 5), amplitude=Y10)
        chk = verify_second_variation(var, 1, h=1e-2)
        assert chk.rel_error <= 1e-2
        scale = 2 * np.cosh(1.0) ** 2 * (2 * np.tanh(1.0) / np.cosh(1.0) ** 2)
        assert abs(chk.lhs) <= 1e-2 * scale

    def test_higher_mode_negative_both_sides(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 5), amplitude=Y20)
        chk = verify_second_variation(var, 0, h=1e-2)
        assert chk.lhs < 0 and chk.rhs < 0
        assert chk.rel_error <= 2e-2

    def test_mean_zero_required(self, slice_mesh):
        var = NormalVariation(base=slice_mesh(1.0, 3), amplitude=CONST)
        with pytest.raises(ValueError, match="mean-zero"):
            verify_second_variation(var, 1, h=1e-2)

    def test_lagrange_constant(self, slice_mesh):
        # b_r * mean(H_{r+1}) + c_r with b_1 = 2 and c_1 = n*c = 2
        want = 2.0 + 2.0 * np.tanh(1.0) ** 2
        assert _lagrange_constant(slice_mesh(1.0, 4), 1) == pytest.approx(want, rel=1e-6)
