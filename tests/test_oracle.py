"""Brute-force posterior machinery against independent dumb oracles."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import brute_filtered_mean, brute_joint_posterior, forward_state, gauss_logpdf

from mcbridge import oracle
from mcbridge.discrete import encode, enumerate_sequences, make_joint, onehot_matrix
from mcbridge.kernels import bridge_params, ou_coeffs, reverse_step_coeffs
from mcbridge.oracle import (
    DegeneratePosteriorError,
    EndpointPosterior,
    MarginalTable,
    discrete_kl,
    factorized_posterior,
    filtered_endpoint_mean,
    joint_posterior,
    kernel_kl_estimate,
    logsumexp,
    mcb_kernel_logdensity,
    multi_information,
    posterior_marginals,
    token_marginals,
    true_kernel_logdensities,
    true_kernel_logdensity,
)
from mcbridge.predictors import OraclePredictor
from mcbridge.seeding import derive_rng


class TestLogsumexp:
    def test_matches_shifted_fsum_at_large_magnitude(self):
        rng = derive_rng(30, "lse")
        offsets = np.where(np.arange(12) % 2 == 0, 1e3, -1e3)
        a = offsets[:, None] + rng.standard_normal((12, 7))
        got = logsumexp(a, axis=1)
        kept = logsumexp(a, axis=1, keepdims=True)
        assert kept.shape == (12, 1)
        np.testing.assert_array_equal(kept[:, 0], got)
        for row, value in zip(a, got):
            shift = max(row)
            ref = shift + math.log(math.fsum(math.exp(x - shift) for x in row))
            assert math.isclose(value, ref, rel_tol=1e-15)

    def test_infinite_entries(self):
        a = np.array([[0.0, -np.inf, 1.0], [np.inf, 0.0, -np.inf], [-np.inf, -np.inf, 2.0]])
        got = logsumexp(a, axis=1)
        assert math.isclose(got[0], math.log(1.0 + math.e), rel_tol=1e-15)
        assert got[1] == np.inf
        assert got[2] == 2.0

    def test_all_neg_inf_row_is_neg_inf_without_warning(self):
        a = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a, axis=1)
            whole = logsumexp(np.full(3, -np.inf))
        assert got[0] == -np.inf
        assert math.isclose(got[1], math.log(2.0), rel_tol=1e-15)
        assert whole == -np.inf

    def test_package_import_leaves_scipy_unloaded(self):
        import mcbridge

        src = str(Path(mcbridge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, mcbridge; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestJointPosterior:
    def test_prior_recovery_at_pure_noise(self, copy3x2):
        rng = derive_rng(0, "prior")
        x = rng.standard_normal(6)
        post = joint_posterior(copy3x2, 50.0, x)
        np.testing.assert_allclose(post.probs, copy3x2.probs, atol=1e-8)

    def test_mode_at_scaled_clean_state(self, uniform3x2):
        seq = enumerate_sequences(3, 2)[4]
        t = 0.05
        x = math.exp(-t) * encode(seq)
        post = joint_posterior(uniform3x2, t, x)
        assert post.probs[seq.index] > 0.99

    def test_matches_direct_density_evaluation(self):
        # normalization-constant invariance: the log-space path must agree
        # with a dumb full-density computation
        nu = make_joint("dirichlet", 3, 2, seed=4)
        rng = derive_rng(1, "direct")
        for t in (0.3, 1.0, 2.5):
            x = forward_state(nu, t, rng)
            np.testing.assert_allclose(
                joint_posterior(nu, t, x).probs, brute_joint_posterior(nu, t, x), atol=1e-12
            )

    def test_rejects_t_zero(self, uniform3x2):
        with pytest.raises(ValueError):
            joint_posterior(uniform3x2, 0.0, np.zeros(6))


@pytest.fixture(scope="module")
def cap_law():
    return make_joint("dirichlet", 4, 6, seed=3, alpha=0.8)  # V^L = 4096, the default cap


def _forward_states(nu, t: float, n: int, rng) -> np.ndarray:
    co = ou_coeffs(t)
    return co.c * onehot_matrix(nu.vocab, nu.length)[nu.sample_indices(rng, n)] + co.sigma * rng.standard_normal((n, nu.dim))


class TestPosteriorMarginals:
    def test_rows_match_token_marginals_across_block_edges(self, cap_law):
        block = oracle._BLOCK_BYTES // (8 * 4096)
        rng = derive_rng(40, "blocked")
        for n in (1, block - 1, block, block + 1, 3 * block + 5):
            for t in (0.002, 0.5, 3.0):
                x = _forward_states(cap_law, t, n, rng)
                ref = np.stack([token_marginals(joint_posterior(cap_law, t, row)).probs for row in x])
                np.testing.assert_array_equal(posterior_marginals(cap_law, t, x), ref)

    def test_independent_of_block_budget(self, cap_law, monkeypatch):
        x = _forward_states(cap_law, 0.3, 101, derive_rng(41, "budget"))
        base = posterior_marginals(cap_law, 0.3, x)
        for budget in (8 * 4096, 7 * 8 * 4096, 1 << 30):
            monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
            np.testing.assert_array_equal(posterior_marginals(cap_law, 0.3, x), base)

    def test_matches_dense_one_hot_products(self, cap_law):
        # the index-order sums against the plain (states @ onehot.T) formula
        onehot = onehot_matrix(4, 6)
        rng = derive_rng(42, "dense")
        for t in (0.05, 1.0):
            x = _forward_states(cap_law, t, 20, rng)
            co = ou_coeffs(t)
            logits = np.log(cap_law.probs) + (co.c / co.sigma2) * (x @ onehot.T)
            dense = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
            np.testing.assert_allclose(oracle.joint_posterior_probs(cap_law, t, x), dense, rtol=1e-12, atol=1e-300)
            rows = (dense @ onehot).reshape(20, 6, 4)
            np.testing.assert_allclose(posterior_marginals(cap_law, t, x), rows, atol=1e-12)

    def test_underflow_guard_changes_no_row(self, cap_law):
        # a far-out companion row has logits below the exp floor; the other rows do not move
        t = 0.05
        rng = derive_rng(43, "flush")
        x = _forward_states(cap_law, t, 10, rng)
        wide = np.vstack([x, 30.0 * rng.standard_normal((1, 24))])
        np.testing.assert_array_equal(posterior_marginals(cap_law, t, wide)[:10], posterior_marginals(cap_law, t, x))
        probs = oracle.joint_posterior_probs(cap_law, t, wide)
        np.testing.assert_array_equal(probs[:10], oracle.joint_posterior_probs(cap_law, t, x))
        assert np.all(probs[:10] > 0.0)
        # the far row's weights below e^_EXP_FLOOR of its maximum are 0, not left subnormal
        far = probs[10]
        assert np.any(far == 0.0)
        assert far[far > 0.0].min() >= math.exp(oracle._EXP_FLOOR) * far.max() * (1.0 - 1e-12)

    @pytest.mark.parametrize("t", [0.002, 0.5])
    def test_peak_memory_bounded_by_block_budget(self, cap_law, t):
        n = 4096  # one n x V^L table alone would be 128 MiB
        x = _forward_states(cap_law, t, n, derive_rng(44, "memory"))
        pred = OraclePredictor(cap_law)
        tracemalloc.start()
        try:
            rows = pred.marginals_batch(x, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (n, 6, 4)
        assert peak < 2 * oracle._BLOCK_BYTES + rows.nbytes

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_states_name_the_level(self, copy3x2, sign):
        x = np.full((2, 6), sign * 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegeneratePosteriorError, match="level 1e-09"):
                posterior_marginals(copy3x2, 1e-9, x)
            with pytest.raises(DegeneratePosteriorError, match="level 1e-09"):
                oracle.joint_posterior_probs(copy3x2, 1e-9, x)


class TestTokenMarginals:
    def test_point_mass(self):
        probs = np.zeros(9)
        probs[5] = 1.0  # sequence (1, 2)
        marg = token_marginals(EndpointPosterior(vocab=3, length=2, probs=probs))
        np.testing.assert_allclose(marg.probs, [[0, 1, 0], [0, 0, 1]], atol=1e-15)

    def test_uniform(self):
        marg = token_marginals(EndpointPosterior(vocab=3, length=2, probs=np.full(9, 1 / 9)))
        np.testing.assert_allclose(marg.probs, 1.0 / 3.0, rtol=1e-14)

    def test_copy_at_pure_noise(self, copy3x2):
        post = joint_posterior(copy3x2, 50.0, np.zeros(6))
        marg = token_marginals(post)
        np.testing.assert_allclose(marg.probs, 1.0 / 3.0, atol=1e-8)

    def test_row_stochastic_across_levels(self, copy3x2):
        rng = derive_rng(2, "rows")
        for t in (0.05, 0.5, 1.0, 2.0, 6.0):
            x = forward_state(copy3x2, t, rng)
            rows = token_marginals(joint_posterior(copy3x2, t, x)).probs
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(rows >= 0.0)


class TestFactorizedPosterior:
    def test_point_mass_product(self):
        m = MarginalTable(probs=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        fact = factorized_posterior(m)
        assert fact.probs[5] == 1.0

    def test_half_half(self):
        m = MarginalTable(probs=np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(factorized_posterior(m).probs, 0.25, rtol=1e-15)

    def test_idempotent_on_product_laws(self, product3x2):
        rng = derive_rng(3, "idem")
        x = forward_state(product3x2, 0.8, rng)
        post = joint_posterior(product3x2, 0.8, x)
        fact = factorized_posterior(token_marginals(post))
        np.testing.assert_allclose(fact.probs, post.probs, atol=1e-12)


class TestMultiInformation:
    def test_product_joint_is_zero(self, product3x2):
        rng = derive_rng(4, "mi0")
        x = forward_state(product3x2, 1.0, rng)
        post = joint_posterior(product3x2, 1.0, x)
        assert abs(multi_information(post, token_marginals(post))) < 1e-12

    def test_copy_law_value(self, copy3x2):
        # the copy law as its own posterior: 2 log 3 - log 3 = log 3
        post = EndpointPosterior(vocab=3, length=2, probs=copy3x2.probs)
        mi = multi_information(post, token_marginals(post))
        np.testing.assert_allclose(mi, math.log(3.0), rtol=1e-12)

    def test_equals_kl_to_factorization(self):
        nu = make_joint("dirichlet", 3, 2, seed=6)
        rng = derive_rng(5, "mi-kl")
        for t in (0.3, 0.7, 2.0):
            x = forward_state(nu, t, rng)
            post = joint_posterior(nu, t, x)
            marg = token_marginals(post)
            kl = discrete_kl(post.probs, factorized_posterior(marg).probs)
            assert abs(kl - multi_information(post, marg)) < 1e-12

    def test_nonnegative(self):
        rng = derive_rng(6, "mi-pos")
        for seed in range(10):
            nu = make_joint("dirichlet", 2, 3, seed=seed)
            x = forward_state(nu, 0.9, rng)
            post = joint_posterior(nu, 0.9, x)
            assert multi_information(post, token_marginals(post)) >= -1e-15

    def test_divergence_flagged_as_inf(self):
        post = EndpointPosterior(vocab=2, length=1, probs=np.array([0.5, 0.5]))
        m = MarginalTable(probs=np.array([[1.0, 0.0]]))
        assert multi_information(post, m) == math.inf


class TestFilteredEndpointMean:
    def test_no_new_information_limit(self, copy3x2):
        # observing the endpoint's own block at u -> u_k reverts to the prior
        rng = derive_rng(7, "limit")
        u_k = 1.0
        y_k = forward_state(copy3x2, u_k, rng)
        prior = token_marginals(joint_posterior(copy3x2, u_k, y_k)).probs[0]
        u = u_k * (1.0 - 1e-8)
        got = filtered_endpoint_mean(copy3x2, y_k, u_k, u, y_k[0:3], 0)
        np.testing.assert_allclose(got, prior, atol=1e-6)

    def test_point_mass_prior(self):
        m = MarginalTable(probs=np.array([[0.0, 1.0, 0.0], [0.2, 0.5, 0.3]]))
        got = filtered_endpoint_mean(m, np.zeros(6), 1.0, 0.5, np.array([5.0, -3.0, 2.0]), 0)
        np.testing.assert_allclose(got, [0.0, 1.0, 0.0], atol=1e-300)

    def test_matches_two_time_enumeration(self, copy3x2):
        rng = derive_rng(8, "filter")
        for u_k in (0.5, 1.0, 2.0):
            for frac in (0.2, 0.5, 0.8):
                u = frac * u_k
                y_k = forward_state(copy3x2, u_k, rng)
                y_block = rng.standard_normal(3)
                for pos in (0, 1):
                    got = filtered_endpoint_mean(copy3x2, y_k, u_k, u, y_block, pos)
                    want = brute_filtered_mean(copy3x2, y_k, u_k, u, y_block, pos)
                    np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rejects_bad_levels(self, copy3x2):
        with pytest.raises(ValueError):
            filtered_endpoint_mean(copy3x2, np.zeros(6), 1.0, 1.0, np.zeros(3), 0)
        with pytest.raises(ValueError):
            filtered_endpoint_mean(copy3x2, np.zeros(6), 1.0, 0.0, np.zeros(3), 0)


class TestKernelDensities:
    def test_single_sequence_law_is_one_bridge(self):
        nu = make_joint("uniform", 1, 2)  # only one sequence exists
        y = np.array([0.3, -0.7])
        u_k, u_next = 1.0, 0.4
        z = np.array([0.1, 0.2])
        x0 = np.ones(2)
        bp = bridge_params(u_next, u_k, y, x0)
        want = gauss_logpdf(z, bp.mean, bp.var)
        got = true_kernel_logdensity(nu, y, u_k, u_next, z)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_integrates_to_one_by_importance_sampling(self, copy3x2):
        # E_g[K*/g] with a dominating Gaussian proposal g must be 1
        rng = derive_rng(9, "is")
        u_k, u_next = 1.0, 0.5
        y = forward_state(copy3x2, u_k, rng)
        a, b, var = reverse_step_coeffs(u_next, u_k)
        center = b * y
        prop_var = var + 4.0 * a * a * copy3x2.length
        n = 20000
        z = center + math.sqrt(prop_var) * rng.standard_normal((n, 6))
        log_k = true_kernel_logdensities(copy3x2, y, u_k, u_next, z)
        log_g = np.array([gauss_logpdf(zi, center, prop_var) for zi in z])
        w = np.exp(log_k - log_g)
        se = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - 1.0) <= 3 * se

    def test_symmetry_under_token_permutation(self, copy3x2):
        # swapping two tokens consistently in y and z leaves the density fixed
        rng = derive_rng(10, "sym")
        y = forward_state(copy3x2, 1.0, rng)
        z = rng.standard_normal(6)
        perm = np.array([1, 0, 2, 4, 3, 5])  # swap tokens 0 and 1 in both blocks
        d0 = true_kernel_logdensity(copy3x2, y, 1.0, 0.5, z)
        d1 = true_kernel_logdensity(copy3x2, y[perm], 1.0, 0.5, z[perm])
        np.testing.assert_allclose(d0, d1, rtol=1e-10)

    def test_degenerate_terminal_step(self, copy3x2):
        rng = derive_rng(11, "deg")
        y = forward_state(copy3x2, 0.5, rng)
        post = joint_posterior(copy3x2, 0.5, y)
        z = encode(enumerate_sequences(3, 2)[4])
        got = true_kernel_logdensity(copy3x2, y, 0.5, 0.0, z)
        np.testing.assert_allclose(got, math.log(post.probs[4]), rtol=1e-12)
        assert true_kernel_logdensity(copy3x2, y, 0.5, 0.0, z + 1e-3) == -math.inf
        # the factorized kernel puts the product of the token marginals on sequence 4 = (1, 1)
        marg = token_marginals(post)
        got = mcb_kernel_logdensity(marg, y, 0.5, 0.0, z)
        np.testing.assert_allclose(got, math.log(marg.probs[0, 1] * marg.probs[1, 1]), rtol=1e-12)
        assert mcb_kernel_logdensity(marg, y, 0.5, 0.0, z + 1e-3) == -math.inf

    def test_mcb_matches_true_for_single_position(self):
        nu = make_joint("dirichlet", 3, 1, seed=8)
        rng = derive_rng(12, "l1")
        y = forward_state(nu, 1.0, rng)
        marg = token_marginals(joint_posterior(nu, 1.0, y))
        for _ in range(20):
            z = rng.standard_normal(3)
            a = true_kernel_logdensity(nu, y, 1.0, 0.5, z)
            b = mcb_kernel_logdensity(marg, y, 1.0, 0.5, z)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_mcb_matches_true_for_product_law(self, product3x2):
        rng = derive_rng(13, "prod")
        y = forward_state(product3x2, 1.0, rng)
        marg = token_marginals(joint_posterior(product3x2, 1.0, y))
        for _ in range(20):
            z = rng.standard_normal(6)
            a = true_kernel_logdensity(product3x2, y, 1.0, 0.5, z)
            b = mcb_kernel_logdensity(marg, y, 1.0, 0.5, z)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_mcb_blocks_match_full_mixture(self, copy3x2):
        # dumb V^L-component mixture with factorized weights
        rng = derive_rng(14, "mix")
        u_k, u_next = 1.2, 0.3
        y = forward_state(copy3x2, u_k, rng)
        marg = token_marginals(joint_posterior(copy3x2, u_k, y))
        a, b, var = reverse_step_coeffs(u_next, u_k)
        onehot = onehot_matrix(3, 2)
        for _ in range(10):
            z = rng.standard_normal(6)
            comps = []
            for i, seq in enumerate(enumerate_sequences(3, 2)):
                w = math.prod(marg.probs[pos, tok] for pos, tok in enumerate(seq.tokens))
                comps.append(math.log(w) + gauss_logpdf(z, a * onehot[i] + b * y, var))
            want = np.logaddexp.reduce(comps)
            got = mcb_kernel_logdensity(marg, y, u_k, u_next, z)
            np.testing.assert_allclose(got, want, atol=1e-10)


    def _cap_kernel_draws(self, nu, u_k, u_next, n, rng):
        y = forward_state(nu, u_k, rng)
        a, b, var = reverse_step_coeffs(u_next, u_k)
        x0 = onehot_matrix(nu.vocab, nu.length)[nu.sample_indices(rng, n)]
        return y, a * x0 + b * y + math.sqrt(var) * rng.standard_normal((n, nu.dim))

    def test_rows_independent_of_block_budget(self, cap_law, monkeypatch):
        y, z = self._cap_kernel_draws(cap_law, 1.0, 0.5, 23, derive_rng(45, "kbudget"))
        base = true_kernel_logdensities(cap_law, y, 1.0, 0.5, z)
        for budget in (8 * 4096, 7 * 8 * 4096, 1 << 30):  # 1 row, 7 rows, all rows per block
            monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
            np.testing.assert_array_equal(true_kernel_logdensities(cap_law, y, 1.0, 0.5, z), base)

    def test_matches_dense_one_hot_mixture(self, cap_law):
        # the blocked exp kernel against the plain (r @ onehot.T) log-sum-exp over all V^L endpoints
        onehot = onehot_matrix(4, 6)
        rng = derive_rng(46, "kdense")
        for u_k, u_next in ((1.0, 0.5), (0.3, 0.05), (2.0, 1.9)):
            y, z = self._cap_kernel_draws(cap_law, u_k, u_next, 40, rng)
            a, b, var = reverse_step_coeffs(u_next, u_k)
            r = z - b * y
            sq = (r * r).sum(axis=1, keepdims=True) - 2.0 * a * (r @ onehot.T) + a * a * 6
            logits = np.log(joint_posterior(cap_law, u_k, y).probs) - sq / (2.0 * var)
            dense = logsumexp(logits, axis=1) - 0.5 * 24 * math.log(2.0 * math.pi * var)
            got = true_kernel_logdensities(cap_law, y, u_k, u_next, z)
            np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-12)


class TestKernelKlEstimate:
    def test_zero_for_product_law(self, product3x2):
        rng = derive_rng(15, "kl0")
        y = forward_state(product3x2, 1.0, rng)
        est = kernel_kl_estimate(product3x2, y, 1.0, 0.5, 2000, rng)
        assert abs(est.estimate) <= 3 * est.se + 1e-12
        assert est.n_flagged == 0

    def test_zero_for_single_position(self):
        nu = make_joint("dirichlet", 4, 1, seed=9)
        rng = derive_rng(16, "kl1")
        y = forward_state(nu, 1.0, rng)
        est = kernel_kl_estimate(nu, y, 1.0, 0.5, 2000, rng)
        assert abs(est.estimate) <= 3 * est.se + 1e-12

    def test_bounded_by_multi_information(self, copy3x2):
        rng = derive_rng(17, "klb")
        y = forward_state(copy3x2, 1.0, rng)
        post = joint_posterior(copy3x2, 1.0, y)
        mi = multi_information(post, token_marginals(post))
        est = kernel_kl_estimate(copy3x2, y, 1.0, 0.5, 10_000, rng)
        assert est.estimate <= mi + 3 * est.se

    def test_rejects_small_n(self, copy3x2):
        with pytest.raises(ValueError):
            kernel_kl_estimate(copy3x2, np.zeros(6), 1.0, 0.5, 10, derive_rng(0, "x"))

    def test_builds_the_posterior_once_and_returns_its_bound(self, copy3x2, monkeypatch):
        rng = derive_rng(18, "klonce")
        y = forward_state(copy3x2, 1.0, rng)
        post = joint_posterior(copy3x2, 1.0, y)
        calls = []
        build = oracle.joint_posterior_probs
        monkeypatch.setattr(oracle, "joint_posterior_probs", lambda *a: calls.append(1) or build(*a))
        est = kernel_kl_estimate(copy3x2, y, 1.0, 0.5, 2000, rng)
        assert len(calls) == 1
        assert est.mi == multi_information(post, token_marginals(post))

    def test_peak_memory_bounded_at_the_cap(self, cap_law):
        # one dense n x V^L mixture table alone would be 312 MiB
        y = forward_state(cap_law, 1.0, derive_rng(19, "klmem"))
        tracemalloc.start()
        try:
            est = kernel_kl_estimate(cap_law, y, 1.0, 0.5, 10_000, derive_rng(20, "klmem"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.n_flagged == 0
        assert peak <= 32 * 2**20
