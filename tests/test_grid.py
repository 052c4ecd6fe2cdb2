import numpy as np
import pytest

from gasbox.grid import (
    build_grid,
    diff_plus,
    discrete_norm,
    gradient_norm_l2,
    sbp_residual,
)
from gasbox.means import arith_mean


class TestBuildGrid:
    def test_two_interval_slice(self):
        g = build_grid((2, 0, 0))
        assert np.array_equal(g.nodes[0], [0.0, 0.5, 1.0])
        assert np.array_equal(g.widths[0], [0.25, 0.5, 0.25])
        assert g.widths[0].sum() == 1.0

    def test_volume_partition(self):
        for n in (2, 3, 5, 16):
            for extent in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.5)):
                g = build_grid((n, n, n), extent)
                vol = np.prod(extent)
                assert abs(g.cell_volumes.sum() - vol) <= 1e-14 * vol

    def test_interior_face_area(self):
        g = build_grid((4, 4, 4))
        assert g.face_areas[0][2, 2] == 0.0625  # 0.25 * 0.25

    def test_volume_face_width_consistency_bitwise_cubic(self):
        # all axes share one exactly-representable spacing: the three
        # products carry identical bits
        for n in (2, 4, 8, 16, 32):
            g = build_grid((n, n, n))
            wx = g.widths[0][:, None, None]
            wy = g.widths[1][None, :, None]
            wz = g.widths[2][None, None, :]
            v1 = wx * g.face_areas[0][None, :, :]
            v2 = wy * g.face_areas[1][:, None, :]
            v3 = wz * g.face_areas[2][:, :, None]
            assert np.array_equal(v1, v2)
            assert np.array_equal(v1, v3)
            assert np.array_equal(g.cell_volumes, v1)

    def test_volume_face_width_consistency_general(self):
        # ulp-level width variation on non-representable spacings; the three
        # expressions still agree to one rounding
        for n, extent in ((7, (1.0, 1.0, 1.0)), (6, (1.0, 0.3, 0.7))):
            g = build_grid((n, n, n), extent)
            wx = g.widths[0][:, None, None]
            wy = g.widths[1][None, :, None]
            wz = g.widths[2][None, None, :]
            v1 = wx * g.face_areas[0][None, :, :]
            v2 = wy * g.face_areas[1][:, None, :]
            v3 = wz * g.face_areas[2][:, :, None]
            for other in (v2, v3):
                assert np.max(np.abs(v1 - other) / v1) <= 4e-16

    def test_volume_face_width_consistency_anisotropic(self):
        g = build_grid((4, 6, 8), (1.0, 0.3, 0.7))
        wx = g.widths[0][:, None, None]
        wy = g.widths[1][None, :, None]
        wz = g.widths[2][None, None, :]
        v1 = wx * g.face_areas[0][None, :, :]
        v2 = wy * g.face_areas[1][:, None, :]
        v3 = wz * g.face_areas[2][:, :, None]
        for other in (v2, v3):
            assert np.max(np.abs(v1 - other) / v1) <= 4e-16

    def test_boundary_cells_half_width(self):
        g = build_grid((8, 8, 8))
        w = g.widths[0]
        assert w[0] == w[-1] == 0.5 * w[1]

    def test_rejects_degenerate_interval_counts(self):
        with pytest.raises(ValueError):
            build_grid((1, 4, 4))
        with pytest.raises(ValueError):
            build_grid((-2, 4, 4))
        with pytest.raises(ValueError):
            build_grid((0, 0, 0))
        with pytest.raises(ValueError):
            build_grid((4, 4, 4), (1.0, -1.0, 1.0))

    def test_degenerate_axes_for_lower_dimensions(self):
        g = build_grid((16, 0, 0))
        assert g.shape == (17, 1, 1)
        assert g.active_axes == (0,)
        assert g.widths[1][0] == 1.0
        assert abs(g.cell_volumes.sum() - 1.0) <= 1e-14


class TestDifferenceOperators:
    def test_constant_field(self):
        g = build_grid((4, 4, 4))
        a = np.full(g.shape, 3.7)
        assert np.all(diff_plus(a, g, 0) == 0.0)

    def test_divided_difference_values(self):
        g = build_grid((2, 0, 0))  # h = 0.5
        a = np.array([0.0, 1.0, 4.0]).reshape(3, 1, 1)
        d = diff_plus(a, g, 0)
        assert np.array_equal(d[:, 0, 0], [2.0, 6.0])

    def test_component_axis_is_skipped(self):
        g = build_grid((4, 4, 4))
        u5 = np.random.default_rng(0).normal(size=(5,) + g.shape)
        d = diff_plus(u5, g, 2)
        assert d.shape == (5, 5, 5, 4)


class TestSBPIdentity:
    def test_random_pairs_all_axes(self, rng):
        g = build_grid((8, 8, 8))
        for _ in range(1000):
            a = rng.uniform(-1.0, 1.0, g.shape)
            for ax in range(3):
                shape = list(g.shape)
                shape[ax] += 1
                b = rng.uniform(-1.0, 1.0, shape)
                scale = np.max(np.abs(a)) * np.max(np.abs(b)) * g.shape[ax] * g.shape[0] ** 2
                assert sbp_residual(a, b, g, ax) <= 1e-13 * scale

    def test_constant_a_telescopes_exactly(self, rng):
        # values in [1, 2): all partial telescoped sums are exact in binary64
        g = build_grid((8, 0, 0))
        a = np.ones(g.shape)
        b = rng.uniform(1.0, 2.0, (10, 1, 1))
        assert sbp_residual(a, b, g, 0) == 0.0

    def test_sample_axis_gives_each_samples_residual(self, rng):
        g = build_grid((8, 6, 4))
        a = rng.uniform(-1.0, 1.0, (5,) + g.shape)
        for ax in range(3):
            shape = list(g.shape)
            shape[ax] += 1
            b = rng.uniform(-1.0, 1.0, [5] + shape)
            batched = sbp_residual(a, b, g, ax)
            assert batched.shape == (5,)
            assert batched.tolist() == [sbp_residual(a[k], b[k], g, ax) for k in range(5)]

    def test_linear_ramp(self):
        g = build_grid((4, 0, 0))
        a = g.nodes[0].reshape(-1, 1, 1)
        b = np.linspace(0.0, 1.0, 6).reshape(-1, 1, 1)
        assert sbp_residual(a, b, g, 0) <= 1e-15 * 5


class TestProductAndLeibnizRules:
    def test_product_rule_per_face(self, rng):
        # jump(a b) = mean(a) jump(b) + mean(b) jump(a)
        n = 10**4
        a_l, a_r = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n)
        b_l, b_r = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n)
        lhs = a_r * b_r - a_l * b_l
        t1 = arith_mean(a_l, a_r) * (b_r - b_l)
        t2 = arith_mean(b_l, b_r) * (a_r - a_l)
        rhs = t1 + t2
        scale = np.maximum.reduce([np.ones_like(lhs), np.abs(a_r * b_r),
                                   np.abs(a_l * b_l), np.abs(t1), np.abs(t2)])
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-15

    def test_leibniz_rule_interior_and_walls(self, rng):
        # a_i jump(f) = jump(mean(a) f) - f_+ d+a / 2 - f_- d-a / 2 with the
        # wall conventions d-a_0 = d+a_N = 0, mean at a wall face = node value
        n = 33
        a = rng.uniform(-5, 5, n)
        f = rng.uniform(-5, 5, n + 1)  # faces -1/2 .. N+1/2
        a_face = np.empty(n + 1)
        a_face[1:-1] = 0.5 * (a[:-1] + a[1:])
        a_face[0] = a[0]
        a_face[-1] = a[-1]
        dp = np.zeros(n)
        dp[:-1] = a[1:] - a[:-1]  # d+a, zero at the top wall
        dm = np.zeros(n)
        dm[1:] = a[1:] - a[:-1]   # d-a, zero at the bottom wall
        lhs = a * (f[1:] - f[:-1])
        rhs = (a_face[1:] * f[1:] - a_face[:-1] * f[:-1]) \
            - 0.5 * f[1:] * dp - 0.5 * f[:-1] * dm
        scale = np.maximum(1.0, np.abs(a) * np.maximum(np.abs(f[1:]), np.abs(f[:-1])))
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-14


class TestNorms:
    def test_constant_field_any_p(self):
        g = build_grid((4, 4, 4))
        a = np.full(g.shape, -2.5)
        for p in (1, 2, 4, np.inf):
            assert abs(discrete_norm(a, g, p) - 2.5) <= 1e-14

    def test_zero_field(self):
        g = build_grid((4, 4, 4))
        assert discrete_norm(np.zeros(g.shape), g, 2) == 0.0

    def test_rejects_p_below_one(self):
        g = build_grid((2, 0, 0))
        with pytest.raises(ValueError):
            discrete_norm(np.ones(g.shape), g, 0.5)

    def test_gradient_norm_linear_ramp(self):
        # D+x = 1 on faces 0..N-1; sum of left-node volumes is 1 - h/2
        g = build_grid((4, 0, 0))
        a = np.broadcast_to(g.nodes[0][:, None, None], g.shape)
        expected = np.sqrt(1.0 - 0.5 * g.spacing[0])
        assert abs(gradient_norm_l2(a, g) - expected) <= 1e-14

    def test_gradient_norm_sums_axes(self, rng):
        g = build_grid((4, 4, 4))
        a = rng.uniform(size=g.shape)
        total = 0.0
        for ax in range(3):
            d = diff_plus(a, g, ax)
            v = np.moveaxis(g.cell_volumes, ax, 0)[:-1]
            total += np.sum(np.moveaxis(d, ax, 0) ** 2 * v)
        assert abs(gradient_norm_l2(a, g) - np.sqrt(total)) <= 1e-13
