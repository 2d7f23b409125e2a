"""Reverse samplers: step laws, chain contracts, terminal behavior."""

import math

import numpy as np
import pytest
from helpers import forward_state, sample_cov_se

from mcbridge.discrete import make_joint, onehot
from mcbridge.kernels import NoiseGrid, fm_time_inverse, ou_coeffs, reverse_step_coeffs
from mcbridge.metrics import empirical_tv, tv_noise_scale
from mcbridge.oracle import row_entropy
from mcbridge.predictors import MarginalPredictor, OraclePredictor
from mcbridge.samplers import (
    SamplerConfig,
    StepFailed,
    _sample_categorical_rows,
    batch_sample,
    ddpm_step,
    mcb_step,
    ode_step,
    run_chain,
    sde_step,
)
from mcbridge.seeding import derive_rng


class FixedPredictor(MarginalPredictor):
    """Returns the same rows regardless of state or level (tests only)."""

    def __init__(self, rows: np.ndarray):
        self.rows = np.asarray(rows, dtype=float)
        self.length, self.vocab = self.rows.shape

    def marginals_batch(self, states, u):
        return np.broadcast_to(self.rows, (states.shape[0],) + self.rows.shape).copy()


class RawPredictor(MarginalPredictor):
    """Returns arbitrary (not necessarily stochastic) rows; for SDE math tests."""

    def __init__(self, rows: np.ndarray):
        self.rows = np.asarray(rows, dtype=float)
        self.length, self.vocab = self.rows.shape

    def marginals_batch(self, states, u):
        return np.broadcast_to(self.rows, (states.shape[0],) + self.rows.shape).copy()


# config for direct step calls; the steps read only temperature and nucleus_p
_CFG = SamplerConfig(grid=NoiseGrid.fm_uniform(6.0, 4), method="mcb")


def _cumsum_categorical(rows, uniforms):
    """The inverse-CDF draw as a cumsum, count and clip along the last axis."""
    idx = np.sum(np.cumsum(rows, axis=-1) < uniforms[..., None], axis=-1)
    return np.minimum(idx, rows.shape[-1] - 1)


class TestSampleCategoricalRows:
    @pytest.mark.parametrize("shape", [(1250, 2, 3), (512, 6, 4), (7, 3, 1), (5, 2, 2), (3, 1, 7)])
    def test_matches_cumsum_formula(self, shape):
        rng = derive_rng(len(shape), "categorical", *shape)
        rows = rng.dirichlet(np.full(shape[-1], 0.5), size=shape[:-1])
        rows[rng.random(rows.shape) < 0.3] = 0.0  # zero entries, then renormalize what is left
        rows[rows.sum(axis=-1) == 0.0, 0] = 1.0
        rows /= rows.sum(axis=-1, keepdims=True)
        uniforms = rng.random(shape[:-1])
        # uniforms exactly on CDF entries, at 0 and just below 1
        cdf = np.cumsum(rows, axis=-1)
        edge = rng.random(shape[:-1]) < 0.5
        uniforms[edge] = np.take_along_axis(cdf, rng.integers(0, shape[-1], shape[:-1])[..., None], -1)[..., 0][edge]
        uniforms.flat[0], uniforms.flat[-1] = 0.0, np.nextafter(1.0, 0.0)
        got = _sample_categorical_rows(rows, uniforms)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, _cumsum_categorical(rows, uniforms))

    def test_rounded_cdf_below_the_uniform_takes_the_last_token(self):
        rows = np.array([[[0.1, 0.2, 0.3]], [[0.0, 0.0, 0.0]]])  # CDFs ending below u
        uniforms = np.array([[0.99], [0.5]])
        np.testing.assert_array_equal(_sample_categorical_rows(rows, uniforms), [[2], [2]])
        np.testing.assert_array_equal(_cumsum_categorical(rows, uniforms), [[2], [2]])


class TestMcbStep:
    def test_terminal_step_is_exact_onehot(self, copy_oracle):
        rng = derive_rng(0, "m1")
        y = rng.standard_normal((1, 6))
        y_next, _, toks = mcb_step(y, 0.5, 0.0, copy_oracle, _CFG, rng.random((1, 2)), None)
        np.testing.assert_array_equal(y_next[0], onehot(toks[0], 3))
        assert set(np.unique(y_next)) <= {0.0, 1.0}

    def test_point_mass_marginals(self):
        rows = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pred = FixedPredictor(rows)
        rng = derive_rng(1, "m2")
        n = 20
        uniforms, noise = rng.random((n, 2)), rng.standard_normal((n, 6))
        _, _, toks = mcb_step(np.zeros((n, 6)), 1.0, 0.5, pred, _CFG, uniforms, noise)
        assert all(tuple(row) == (1, 2) for row in toks)

    def test_empirical_mean_matches_analytic(self, copy3x2, copy_oracle):
        # one-step law: mean must equal a*pi + b*y (the frozen-mean value)
        rng = derive_rng(2, "m3")
        u_k, gamma = 1.0, 0.5
        u_next = u_k - gamma
        y = forward_state(copy3x2, u_k, rng)
        rows = copy_oracle.marginals_batch(y[None, :], u_k)[0]
        a, b, var = reverse_step_coeffs(u_next, u_k)
        n = 100_000
        states = np.broadcast_to(y, (n, 6))
        uniforms, noise = rng.random((n, 2)), rng.standard_normal((n, 6))
        draws, _, _ = mcb_step(states, u_k, u_next, copy_oracle, _CFG, uniforms, noise)
        analytic = a * rows.reshape(-1) + b * y
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - analytic) < 4 * se)

    def test_rejects_bad_levels(self, copy_oracle):
        rng = derive_rng(0, "x")
        with pytest.raises(ValueError):
            mcb_step(np.zeros((1, 6)), 0.5, 0.5, copy_oracle, _CFG, rng.random((1, 2)), None)


class TestDdpmStep:
    def test_terminal_step_is_mean(self, copy_oracle):
        rng = derive_rng(3, "d1")
        y = rng.standard_normal((1, 6))
        y_next, _, _ = ddpm_step(y, 0.5, 0.0, copy_oracle, _CFG, None, None)
        expect = copy_oracle.marginals_batch(y, 0.5)[0].reshape(-1)
        np.testing.assert_array_equal(y_next[0], expect)
        np.testing.assert_allclose(y_next.reshape(2, 3).sum(axis=1), 1.0, atol=1e-12)

    def test_same_conditional_mean_as_mcb(self):
        # Identical predictor output, tau=1, p=1: the two analytic means agree.
        rows = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        y = np.linspace(-1.0, 1.0, 6)
        u_k, u_next = 1.3, 0.6
        a, b, _ = reverse_step_coeffs(u_next, u_k)
        mcb_mean = a * rows.reshape(-1) + b * y  # endpoint mean in the bridge
        ddpm_mean = a * rows.reshape(-1) + b * y
        np.testing.assert_allclose(mcb_mean, ddpm_mean, atol=1e-12)

    def test_covariance_surplus(self):
        """Empirical Cov_MCB - Cov_DDPM equals a^2 blockdiag(diag(pi) - pi pi^T)."""
        rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        pred = FixedPredictor(rows)
        rng = derive_rng(4, "d2")
        y = rng.standard_normal(6)
        u_k, u_next = 1.0, 0.5
        a, b, var = reverse_step_coeffs(u_next, u_k)
        n = 100_000
        states = np.broadcast_to(y, (n, 6))
        mcb, _, _ = mcb_step(states, u_k, u_next, pred, _CFG, rng.random((n, 2)), rng.standard_normal((n, 6)))
        ddpm, _, _ = ddpm_step(states, u_k, u_next, pred, _CFG, None, rng.standard_normal((n, 6)))
        cov_mcb = np.cov(mcb.T)
        cov_ddpm = np.cov(ddpm.T)
        surplus = np.zeros((6, 6))
        for pos in range(2):
            pi = rows[pos]
            lo = 3 * pos
            surplus[lo : lo + 3, lo : lo + 3] = a * a * (np.diag(pi) - np.outer(pi, pi))
        se = np.sqrt(sample_cov_se(cov_mcb, n) ** 2 + sample_cov_se(cov_ddpm, n) ** 2)
        assert np.all(np.abs(cov_mcb - cov_ddpm - surplus) < 4 * se)


class TestOdeStep:
    def test_fixed_point(self):
        y_fm = np.array([[0.2, 0.8], [0.5, 0.5]]).reshape(1, -1)
        pred = RawPredictor(y_fm.reshape(2, 2))
        got, _, _ = ode_step(y_fm, fm_time_inverse(0.3), fm_time_inverse(0.7), pred, _CFG, None, None)
        np.testing.assert_allclose(got, y_fm, atol=1e-12)

    def test_terminal_collapse_onto_denoiser(self):
        rows = np.array([[0.1, 0.9], [0.7, 0.3]])
        pred = RawPredictor(rows)
        y_fm = np.full((1, 4), 0.25)
        got, _, _ = ode_step(y_fm, fm_time_inverse(0.4), 0.0, pred, _CFG, None, None)
        np.testing.assert_allclose(got[0], rows.reshape(-1), atol=1e-12)

    def test_single_step_from_pure_noise_uniform_law(self, uniform3x2):
        # One Euler step across the whole path lands on the denoiser mean at
        # pure noise, which for the uniform law is the uniform simplex point.
        pred = OraclePredictor(uniform3x2)
        cfg = SamplerConfig(grid=NoiseGrid(levels=(50.0, 0.0)), method="ode", seed=9)
        final, _, _ = run_chain(cfg, pred, derive_rng(9, "chain", 0))
        np.testing.assert_allclose(final, 1.0 / 3.0, atol=1e-6)

    def test_rejects_t_one(self):
        # level 0 is flow-matching time t = 1, where no step can start
        pred = RawPredictor(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            ode_step(np.zeros((1, 2)), 0.0, 0.0, pred, _CFG, None, None)


class TestSdeStep:
    def test_zero_width_step_is_identity(self):
        pred = RawPredictor(np.array([[0.5, 0.5]]))
        y = np.array([[0.3, -0.4]])
        got, _, _ = sde_step(y, 5.5, 5.5, pred, _CFG, None, None)
        np.testing.assert_array_equal(got, y)

    def test_zero_score_pure_diffusion_variance(self):
        # zero predictor rows and y = 0 give score 0: the update is pure
        # sqrt(2h) noise with per-coordinate variance 2h
        pred = RawPredictor(np.zeros((1, 3)))
        rng = derive_rng(5, "s2")
        h = 0.07
        n = 20_000
        draws, _, _ = sde_step(np.zeros((n, 3)), 5.0, 5.0 - h, pred, _CFG, None, rng.standard_normal((n, 3)))
        se_mean = math.sqrt(2 * h / n)
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se_mean)
        var = draws.var(axis=0, ddof=1)
        se_var = 2 * h * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(var - 2 * h) < 4 * se_var)

    def test_contraction_under_stationary_score(self):
        # score = -y/sigma^2 with sigma^2 ~ 1 contracts the state in expectation
        pred = RawPredictor(np.zeros((1, 2)))
        rng = derive_rng(6, "s3")
        y = np.array([1.0, -2.0])
        h = 0.05
        u = 11.5  # sigma2 ~ 1, c ~ 0
        sigma2 = -math.expm1(-2 * u)
        factor = 1.0 + h * (1.0 - 2.0 / sigma2)
        assert abs(factor) < 1.0
        n = 200
        states = np.broadcast_to(y, (n, 2))
        draws, _, _ = sde_step(states, u, u - h, pred, _CFG, None, rng.standard_normal((n, 2)))
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - factor * y), 4 * se)

    def test_rejects_crossing_the_floor(self):
        # a step may not reach the zero-noise level, where the score is singular
        pred = RawPredictor(np.array([[0.5, 0.5]]))
        noise = derive_rng(0, "s4").standard_normal((1, 2))
        for u_next in (0.0, -0.01):
            with pytest.raises(ValueError):
                sde_step(np.zeros((1, 2)), 0.01, u_next, pred, _CFG, None, noise)


class TestRunChain:
    def test_deterministic_replay(self, copy_oracle):
        cfg = SamplerConfig(grid=NoiseGrid.fm_uniform(6.0, 8), method="mcb", seed=13)
        a_final, a_seq, _ = run_chain(cfg, copy_oracle, derive_rng(13, "chain", 0))
        b_final, b_seq, _ = run_chain(cfg, copy_oracle, derive_rng(13, "chain", 0))
        np.testing.assert_array_equal(a_final, b_final)
        assert a_seq == b_seq

    def test_single_step_chain_matches_initial_marginals(self, dirichlet3x2):
        """K=1 output law: one independent draw per position from the
        marginals at the initial noise level."""
        pred = OraclePredictor(dirichlet3x2)
        cfg = SamplerConfig(grid=NoiseGrid.uniform(6.0, 1), method="mcb", seed=14)
        n = 20_000
        seqs = batch_sample(cfg, pred, n)
        toks = np.array([s.tokens for s in seqs])
        # reference: the same expectation from an independent ensemble
        rng = derive_rng(15, "ensemble")
        rows = pred.marginals_batch(rng.standard_normal((n, 6)), 6.0)
        target = rows.mean(axis=0)
        for pos in range(2):
            freq = np.bincount(toks[:, pos], minlength=3) / n
            se = np.sqrt(target[pos] * (1 - target[pos]) / n)
            ref_se = rows[:, pos, :].std(axis=0, ddof=1) / math.sqrt(n)
            assert np.all(np.abs(freq - target[pos]) < 4 * np.sqrt(se**2 + ref_se**2))

    def test_ode_uniform_law_recovery(self, uniform3x2):
        pred = OraclePredictor(uniform3x2)
        cfg = SamplerConfig(grid=NoiseGrid.uniform(6.0, 128), method="ode", seed=16)
        seqs = batch_sample(cfg, pred, 50_000)
        assert empirical_tv(seqs, uniform3x2) < 0.05

    def test_step_diagnostics(self):
        rows = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        cfg = SamplerConfig(grid=NoiseGrid.fm_uniform(6.0, 5), method="mcb", seed=17)
        final, _, steps = run_chain(cfg, FixedPredictor(rows), derive_rng(17, "chain", 0))
        assert len(steps) == 5
        for k, ((u_k, _), row) in enumerate(zip(cfg.grid.pairs(), steps)):
            assert list(row) == ["step", "level", "entropy_mean", "switch_rate", "state_norm", "nonfinite"]
            assert (row["step"], row["level"], row["nonfinite"]) == (k, u_k, 0)
            assert abs(row["entropy_mean"] - row_entropy(rows).mean()) <= 1e-15
        # the final state is one-hot, so its norm is sqrt(L) exactly
        assert steps[-1]["state_norm"] == math.sqrt(2) == np.linalg.norm(final)
        # the endpoint tokens replayed from the stream: start state, then one block of uniforms
        rng = derive_rng(17, "chain", 0)
        rng.standard_normal(6)
        toks = _sample_categorical_rows(np.broadcast_to(rows, (5, 2, 3)), rng.random((5, 2)))
        expect = [None] + [float(np.mean(toks[k] != toks[k - 1])) for k in range(1, 5)]
        assert [row["switch_rate"] for row in steps] == expect

    def test_step_errors_carry_the_step_index(self):
        class FlakyPredictor(MarginalPredictor):
            vocab, length = 2, 1

            def __init__(self):
                self.calls = 0

            def marginals_batch(self, states, u):
                self.calls += 1
                if self.calls == 3:
                    raise ValueError("predictor broke")
                return np.full((states.shape[0], 1, 2), 0.5)

        cfg = SamplerConfig(grid=NoiseGrid.fm_uniform(6.0, 8), method="ddpm", seed=25)
        with pytest.raises(StepFailed) as err:
            run_chain(cfg, FlakyPredictor(), derive_rng(25, "chain", 0))
        assert err.value.step == 2

    def test_mcb_stream_layout(self):
        """Start state, then per 8-step segment: the uniforms, then the noise of
        the steps with nonzero variance (the final fm step has none)."""
        rows = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        grid = NoiseGrid.fm_uniform(6.0, 11)
        cfg = SamplerConfig(grid=grid, method="mcb", seed=26)
        chain_rng = derive_rng(26, "chain", 3)
        final, seq, _ = run_chain(cfg, FixedPredictor(rows), chain_rng)
        rng = derive_rng(26, "chain", 3)
        y = rng.standard_normal(6)
        coeffs = [reverse_step_coeffs(u_next, u_k) for u_k, u_next in grid.pairs()]
        for seg in (coeffs[:8], coeffs[8:]):
            uniforms = rng.random((len(seg), 2))
            noise = iter(rng.standard_normal((sum(var != 0.0 for *_, var in seg), 6)))
            for (a, b, var), u in zip(seg, uniforms):
                toks = _sample_categorical_rows(rows[None], u[None])
                y = a * onehot(toks, 3)[0] + b * y
                if var != 0.0:
                    y = y + math.sqrt(var) * next(noise)
        np.testing.assert_allclose(final, y, rtol=0.0, atol=1e-12)
        assert seq.tokens == tuple(toks[0])
        # nothing more was drawn: the zero-variance step took no noise
        assert chain_rng.random() == rng.random()

    def test_sde_stream_layout(self):
        """Start state, then the noise of each 8-step segment in one block."""
        rows = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        grid = NoiseGrid.uniform(6.0, 11, terminal=0.01)
        rng = derive_rng(27, "chain", 2)
        y = rng.standard_normal(6)
        noise = np.concatenate([rng.standard_normal((8, 6)), rng.standard_normal((3, 6))])
        for (u_k, u_next), z in zip(grid.pairs(), noise):
            h = u_k - u_next
            co = ou_coeffs(u_k)
            y = y + h * (y + 2.0 * (co.c * rows.reshape(-1) - y) / co.sigma2) + math.sqrt(2.0 * h) * z
        cfg = SamplerConfig(grid=grid, method="sde", seed=27)
        chain_rng = derive_rng(27, "chain", 2)
        final, _, _ = run_chain(cfg, FixedPredictor(rows), chain_rng)
        np.testing.assert_allclose(final, y, rtol=0.0, atol=1e-12)
        # nothing more was drawn
        assert chain_rng.random() == rng.random()


class TestBatchSample:
    @staticmethod
    def _config(method: str, steps: int, seed: int) -> SamplerConfig:
        if method == "sde":
            grid = NoiseGrid.uniform(6.0, steps, terminal=0.01)
        else:
            grid = NoiseGrid.fm_uniform(6.0, steps)
        return SamplerConfig(grid=grid, method=method, seed=seed)

    @pytest.mark.parametrize("method", ["mcb", "ddpm", "ode", "sde"])
    def test_single_chain_matches_run_chain(self, copy_oracle, method):
        # K = 11 is not a multiple of the draw segment length
        cfg = self._config(method, 11, 19)
        seqs, states = batch_sample(cfg, copy_oracle, 5, return_states=True)
        for i in range(5):
            final, seq, _ = run_chain(cfg, copy_oracle, derive_rng(19, "chain", i))
            assert seqs[i] == seq
            np.testing.assert_allclose(states[i], final, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("method", ["mcb", "ddpm", "ode", "sde"])
    def test_outputs_stable_as_count_grows(self, copy_oracle, method):
        cfg = self._config(method, 11, 20)
        small, small_states = batch_sample(cfg, copy_oracle, 4, return_states=True)
        large, large_states = batch_sample(cfg, copy_oracle, 12, return_states=True)
        assert small == large[:4]
        np.testing.assert_allclose(small_states, large_states[:4], rtol=0.0, atol=1e-12)

    def test_step_count_refinement(self, copy3x2, copy_oracle):
        """TV to the data law is non-increasing in the step count, up to noise."""
        n = 10_000
        noise_mean, noise_sd = tv_noise_scale(copy3x2, n)
        tol = noise_mean + 2 * noise_sd
        tvs = []
        for steps in (4, 16, 64, 256):
            cfg = SamplerConfig(grid=NoiseGrid.fm_uniform(6.0, steps), method="mcb", seed=21)
            tvs.append(empirical_tv(batch_sample(cfg, copy_oracle, n), copy3x2))
        for lo, hi in zip(tvs[1:], tvs[:-1]):
            assert lo <= hi + tol, f"TV increased beyond noise: {tvs}"

    def test_recovery_on_three_position_law(self):
        # exercises block handling beyond L = 2 end to end
        nu = make_joint("dirichlet", 4, 3, seed=23)
        pred = OraclePredictor(nu)
        cfg = SamplerConfig(grid=NoiseGrid.fm_uniform(6.0, 32), method="mcb", seed=24)
        n = 20_000
        seqs = batch_sample(cfg, pred, n)
        noise_mean, noise_sd = tv_noise_scale(nu, n)
        assert empirical_tv(seqs, nu) < noise_mean + 4 * noise_sd + 0.01

    @pytest.mark.parametrize("method", ["mcb", "ddpm", "ode", "sde"])
    def test_nan_rows_fail_with_step_and_level(self, method):
        cfg = self._config(method, 11, 28)
        # NaN rows, and finite rows that sum to 1.2
        for value in (np.nan, 0.4):
            with pytest.raises(StepFailed) as err:
                batch_sample(cfg, FixedPredictor(np.full((2, 3), value)), 4)
            assert (err.value.step, err.value.level) == (0, cfg.grid.horizon)

    def test_traced_variant_matches(self, copy_oracle):
        cfg = SamplerConfig(grid=NoiseGrid.fm_uniform(6.0, 4), method="mcb", seed=22)
        plain, plain_states = batch_sample(cfg, copy_oracle, 3, return_states=True)
        steps = []
        traced, traced_states = batch_sample(cfg, copy_oracle, 3, return_states=True, steps=steps)
        assert plain == traced
        np.testing.assert_array_equal(plain_states, traced_states)
        assert len(steps) == 4


class TestSamplerConfig:
    def test_validation(self):
        grid = NoiseGrid.uniform(6.0, 4)
        with pytest.raises(ValueError):
            SamplerConfig(grid=grid, method="nope")
        with pytest.raises(ValueError):
            SamplerConfig(grid=grid, method="mcb", temperature=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(grid=grid, method="mcb", nucleus_p=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(grid=NoiseGrid.uniform(6.0, 4, terminal=0.1), method="mcb")
        with pytest.raises(ValueError):
            SamplerConfig(grid=grid, method="sde")

    @pytest.mark.parametrize("method", ["mcb", "ddpm"])
    def test_rejects_a_horizon_the_bridge_cannot_step(self, method):
        with pytest.raises(ValueError, match="horizon: u_k=800.0"):
            SamplerConfig(grid=NoiseGrid.fm_uniform(800.0, 4), method=method)
        SamplerConfig(grid=NoiseGrid.fm_uniform(700.0, 4), method=method)
        SamplerConfig(grid=NoiseGrid.fm_uniform(800.0, 4), method="ode")

    @pytest.mark.parametrize("seed", [True, 1.5, "1"])
    def test_rejects_non_int_seed(self, seed):
        # a float seed of 1.5 would otherwise replay seed 1's chains
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(grid=NoiseGrid.uniform(6.0, 4), method="mcb", seed=seed)
