"""Closed-form kernel checks: coefficients, bridges, time maps."""

import math
import warnings

import numpy as np
import pytest

from mcbridge.kernels import (
    NoiseGrid,
    denoising_weight,
    fm_time_inverse,
    fm_time_map,
    forward_sample,
    ou_coeffs,
    reverse_step_coeffs,
    tweedie_score,
)


class TestOuCoeffs:
    def test_identity_at_zero(self):
        co = ou_coeffs(0.0)
        assert co.c == 1.0 and co.sigma2 == 0.0

    def test_log2(self):
        co = ou_coeffs(math.log(2.0))
        np.testing.assert_allclose([co.c, co.sigma2], [0.5, 0.75], rtol=1e-15)

    def test_asymptotic(self):
        co = ou_coeffs(50.0)
        assert co.c < 1e-21
        assert abs(co.sigma2 - 1.0) < 1e-12

    def test_variance_preserving(self):
        for t in np.geomspace(1e-9, 50.0, 200):
            co = ou_coeffs(float(t))
            assert abs(co.c**2 + co.sigma2 - 1.0) < 1e-12

    def test_monotone(self):
        ts = np.linspace(0.0, 10.0, 300)
        cs = [ou_coeffs(float(t)).c for t in ts]
        s2 = [ou_coeffs(float(t)).sigma2 for t in ts]
        assert np.all(np.diff(cs) < 0)
        assert np.all(np.diff(s2) > 0)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            ou_coeffs(-0.1)
        with pytest.raises(ValueError):
            ou_coeffs(float("nan"))


class TestStableSinh:
    def test_coefficient_identity(self):
        """1/(4 sinh^2 u) equals c_u^2/sigma_u^4 on a wide grid."""
        for u in np.geomspace(1e-4, 20.0, 60):
            co = ou_coeffs(float(u))
            np.testing.assert_allclose(denoising_weight(float(u)), co.c**2 / co.sigma2**2, rtol=1e-10)

    def test_weight_matches_quarter_squared_drift_difference(self):
        """The drifts (m - y cosh u)/sinh u toward two frozen endpoints m1, m2 at
        the same state differ by (m1 - m2)/sinh(u), so |drift gap|^2/4 =
        weight * |m1 - m2|^2."""
        rng = np.random.default_rng(8)
        horizon = 6.0
        for _ in range(50):
            t = rng.uniform(0.0, horizon - 1e-3)
            u = horizon - t
            y = rng.standard_normal(5)
            m1 = rng.standard_normal(5)
            m2 = rng.standard_normal(5)
            d1 = (m1 - y * math.cosh(u)) / math.sinh(u)
            d2 = (m2 - y * math.cosh(u)) / math.sinh(u)
            lhs = float(((d1 - d2) ** 2).sum()) / 4.0
            rhs = denoising_weight(u) * float(((m1 - m2) ** 2).sum())
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestForwardSample:
    def test_zero_noise(self):
        rng = np.random.default_rng(0)
        x0 = np.array([1.0, 0.0, -2.0])
        np.testing.assert_array_equal(forward_sample(x0, 0.0, rng), x0)

    def test_moments_at_log2(self):
        # Monte Carlo oracle: mean 0.5*x0, per-coordinate variance 0.75
        rng = np.random.default_rng(1)
        x0 = np.zeros(4)
        x0[1] = 1.0
        n = 100_000
        draws = forward_sample(np.tile(x0, (n, 1)), math.log(2.0), rng)
        se_mean = math.sqrt(0.75 / n)
        assert np.all(np.abs(draws.mean(axis=0) - 0.5 * x0) < 4 * se_mean)
        var = draws.var(axis=0, ddof=1)
        se_var = 0.75 * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(var - 0.75) < 4 * se_var)


class TestTweedieScore:
    def test_vanishes_at_scaled_mean(self):
        t = 0.7
        m = np.array([0.2, 0.8, 0.5])
        x = ou_coeffs(t).c * m
        np.testing.assert_allclose(tweedie_score(x, t, m), 0.0, atol=1e-15)

    def test_scalar_hand_value(self):
        # (0.5*1 - 0.2) / 0.75 = 0.4
        np.testing.assert_allclose(tweedie_score(np.array([0.2]), math.log(2.0), np.array([1.0])), [0.4], rtol=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        m = rng.standard_normal(6)
        total = tweedie_score(x, 1.3, m) + tweedie_score(-x, 1.3, -m)
        np.testing.assert_allclose(total, 0.0, atol=1e-14)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            tweedie_score(np.zeros(2), 0.0, np.zeros(2))


class TestBridgeParams:
    """Law of X_s given X_0 = x0 and X_t = x_t: N(a x0 + b x_t, var I) with
    (a, b, var) = reverse_step_coeffs(s, t)."""

    def test_pinned_endpoints(self):
        x0 = np.array([1.0, 0.0])
        x_t = np.array([0.3, -0.4])
        a, b, var = reverse_step_coeffs(0.0, 2.0)
        np.testing.assert_array_equal(a * x0 + b * x_t, x0)
        assert var == 0.0

    def test_hand_value_midpoint(self):
        # s=1, t=2, x0=0, x_t=e1: mean = sinh(1)/sinh(2) e1, var = 2 sinh^2(1)/sinh(2)
        e1 = np.array([1.0, 0.0])
        a, b, var = reverse_step_coeffs(1.0, 2.0)
        mean = a * np.zeros(2) + b * e1
        np.testing.assert_allclose(mean, (math.sinh(1.0) / math.sinh(2.0)) * e1, rtol=1e-14)
        np.testing.assert_allclose(mean[0], 0.3240271368319427, rtol=1e-12)
        np.testing.assert_allclose(var, 2.0 * math.sinh(1.0) ** 2 / math.sinh(2.0), rtol=1e-14)
        np.testing.assert_allclose(var, 0.7615941559557649, rtol=1e-12)

    def test_hand_value_both_endpoints(self):
        # s=0.5, t=2, x0=e1, x_t=e2: mean = [sinh(1.5)/sinh 2, sinh(0.5)/sinh 2],
        # var = 2 sinh(0.5) sinh(1.5)/sinh 2; unequal weights tell x0 from x_t
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        a, b, var = reverse_step_coeffs(0.5, 2.0)
        mean = a * e1 + b * e2
        want = np.array([math.sinh(1.5), math.sinh(0.5)]) / math.sinh(2.0)
        np.testing.assert_allclose(mean, want, rtol=1e-14)
        np.testing.assert_allclose(mean, [0.5870861339156977, 0.14367669193066093], rtol=1e-12)
        np.testing.assert_allclose(var, 2.0 * math.sinh(0.5) * math.sinh(1.5) / math.sinh(2.0), rtol=1e-14)
        np.testing.assert_allclose(var, 0.6118556566078873, rtol=1e-12)

    def test_mean_coefficients_in_unit_interval_and_subadditive(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            t = rng.uniform(0.05, 8.0)
            s = rng.uniform(0.0, t)
            a, b, _ = reverse_step_coeffs(s, t)
            assert -1e-12 <= a <= 1.0 + 1e-12
            assert -1e-12 <= b <= 1.0 + 1e-12
            # sinh is superadditive on [0, inf), so the coefficients sum to <= 1
            assert a + b <= 1.0 + 1e-12

    def test_two_step_composition(self):
        """Chapman-Kolmogorov: sampling at r then bridging to s matches the
        one-shot bridge; means compose exactly and the variances satisfy
        var(s,t) = var(s,r) + (sinh s / sinh r)^2 var(r,t)."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = rng.uniform(0.2, 6.0)
            r = rng.uniform(0.05, 1.0) * t
            s = rng.uniform(0.0, 1.0) * r
            if s == 0.0 or s == r or r == t:
                continue
            x0 = rng.standard_normal(3)
            x_t = rng.standard_normal(3)
            a_st, b_st, var_st = reverse_step_coeffs(s, t)
            a_rt, b_rt, var_rt = reverse_step_coeffs(r, t)
            a_sr, b_sr, var_sr = reverse_step_coeffs(s, r)
            outer_mean = a_rt * x0 + b_rt * x_t
            np.testing.assert_allclose(a_sr * x0 + b_sr * outer_mean, a_st * x0 + b_st * x_t, rtol=1e-10, atol=1e-12)
            coef = math.sinh(s) / math.sinh(r)
            np.testing.assert_allclose(var_sr + coef**2 * var_rt, var_st, rtol=1e-10)

    def test_degenerate_limits(self):
        assert reverse_step_coeffs(1e-9, 1.0)[2] < 3e-9
        assert reverse_step_coeffs(1.0 - 1e-9, 1.0)[2] < 3e-9

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            reverse_step_coeffs(1.5, 1.0)

    def test_rejects_overflowing_level(self):
        # sinh overflows near 710; the bridge forms refuse instead of emitting nan
        with pytest.raises(ValueError):
            reverse_step_coeffs(1.0, 800.0)


class TestFmTimeMap:
    def test_pure_noise_limit(self):
        t_fm, scale = fm_time_map(50.0)
        assert t_fm < 1e-12
        assert abs(scale - 1.0) < 1e-12

    def test_hand_value(self):
        t_fm, scale = fm_time_map(math.log(2.0))
        np.testing.assert_allclose(scale, 0.5 + math.sqrt(0.75), rtol=1e-14)
        np.testing.assert_allclose(t_fm, 0.36602540378443865, rtol=1e-12)

    def test_round_trip(self):
        for u in np.geomspace(1e-3, 30.0, 100):
            t_fm, _ = fm_time_map(float(u))
            np.testing.assert_allclose(fm_time_inverse(t_fm), u, rtol=1e-10)

    def test_closed_form_inverse_relation(self):
        for u in np.geomspace(0.01, 10.0, 50):
            t_fm, _ = fm_time_map(float(u))
            np.testing.assert_allclose(
                math.exp(-u), t_fm / math.sqrt(t_fm**2 + (1.0 - t_fm) ** 2), rtol=1e-12
            )

    def test_monotone_decreasing_bijection(self):
        us = np.geomspace(1e-3, 30.0, 200)
        ts = [fm_time_map(float(u))[0] for u in us]
        assert np.all(np.diff(ts) < 0)
        assert all(0.0 < t < 1.0 for t in ts)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fm_time_map(0.0)


class TestReverseStepCoeffs:
    def test_terminal_pinning(self):
        assert reverse_step_coeffs(0.0, 1.0) == (1.0, 0.0, 0.0)

    def test_matches_bridge_params(self):
        """The bridge moments against the sinh ratios written out here."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            u_k = rng.uniform(0.1, 6.0)
            u_next = rng.uniform(0.01, 0.99) * u_k
            a, b, var = reverse_step_coeffs(u_next, u_k)
            x0 = rng.standard_normal(2)
            y = rng.standard_normal(2)
            sh_k = math.sinh(u_k)
            a_ref = math.sinh(u_k - u_next) / sh_k
            b_ref = math.sinh(u_next) / sh_k
            var_ref = 2.0 * math.sinh(u_next) * math.sinh(u_k - u_next) / sh_k
            np.testing.assert_allclose((a, b, var), (a_ref, b_ref, var_ref), rtol=1e-12)
            np.testing.assert_allclose(a * x0 + b * y, a_ref * x0 + b_ref * y, rtol=1e-12)

    def test_tiny_step_matches_taylor_series(self):
        """A step far below any grid's: the coefficients against sinh x = x + x^3/6 + x^5/120."""
        u_next, u_k = 4e-9, 1e-8

        def series(x):
            return x * (1.0 + x * x / 6.0 * (1.0 + x * x / 20.0))

        sh_k, sh_n, sh_g = series(u_k), series(u_next), series(u_k - u_next)
        expected = (sh_g / sh_k, sh_n / sh_k, 2.0 * sh_n * sh_g / sh_k)
        np.testing.assert_allclose(reverse_step_coeffs(u_next, u_k), expected, rtol=1e-14)


class TestNoiseGrid:
    def test_uniform(self):
        grid = NoiseGrid.uniform(6.0, 4)
        np.testing.assert_allclose(grid.levels, [6.0, 4.5, 3.0, 1.5, 0.0])
        assert grid.horizon == 6.0 and grid.steps == 4 and grid.terminal == 0.0

    def test_fm_uniform_spacing(self):
        grid = NoiseGrid.fm_uniform(6.0, 8)
        assert grid.levels[0] == 6.0 and grid.levels[-1] == 0.0
        ts = [fm_time_map(u)[0] for u in grid.levels[:-1]] + [1.0]
        np.testing.assert_allclose(np.diff(ts), np.diff(ts)[0], rtol=1e-9)

    def test_geometric(self):
        grid = NoiseGrid.geometric(6.0, 4, floor=0.1)
        assert grid.levels[-1] == 0.0 and grid.steps == 4

    @pytest.mark.parametrize(
        "build",
        [lambda: NoiseGrid.uniform(math.inf, 4), lambda: NoiseGrid.geometric(math.inf, 4, floor=0.1)],
        ids=["uniform", "geometric"],
    )
    def test_infinite_horizon_rejected_before_spacing(self, build):
        # no numpy warning from spacing levels out to infinity, and the message names the horizon
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="horizon=inf"):
                build()

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            NoiseGrid(levels=(1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            NoiseGrid(levels=(1.0, -0.5))
