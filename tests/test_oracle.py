"""Brute-force posterior machinery against independent dumb oracles."""

import math
import warnings

import numpy as np
import pytest
from helpers import (
    brute_filtered_mean,
    brute_joint_posterior,
    forward_state,
    gauss_logpdf,
    rowwise_logsumexp,
    rowwise_softmax,
    sequences,
    traced_peak,
)

from mcbridge import oracle
from mcbridge.discrete import make_joint, onehot_matrix, product_table
from mcbridge.kernels import ou_coeffs, reverse_step_coeffs
from mcbridge.oracle import (
    DegeneratePosteriorError,
    discrete_kl,
    filtered_endpoint_means,
    joint_posterior_probs,
    kernel_kl_estimate,
    logsumexp,
    mcb_kernel_logdensities,
    multi_information,
    posterior_marginals,
    row_softmax,
    true_kernel_logdensities,
)
from mcbridge.predictors import OraclePredictor
from mcbridge.seeding import derive_rng


class TestLogsumexp:
    def test_matches_shifted_fsum_at_large_magnitude(self):
        rng = derive_rng(30, "lse")
        offsets = np.where(np.arange(12) % 2 == 0, 1e3, -1e3)
        a = offsets[:, None] + rng.standard_normal((12, 7))
        got = logsumexp(a)
        assert got.shape == (12,)
        for row, value in zip(a, got):
            shift = max(row)
            ref = shift + math.log(math.fsum(math.exp(x - shift) for x in row))
            assert math.isclose(value, ref, rel_tol=1e-15)

    def test_infinite_entries(self):
        a = np.array([[0.0, -np.inf, 1.0], [np.inf, 0.0, -np.inf], [-np.inf, -np.inf, 2.0]])
        got = logsumexp(a)
        assert math.isclose(got[0], math.log(1.0 + math.e), rel_tol=1e-15)
        assert got[1] == np.inf
        assert got[2] == 2.0

    def test_all_neg_inf_row_is_neg_inf_without_warning(self):
        a = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a)
            whole = logsumexp(np.full(3, -np.inf))
        assert got[0] == -np.inf
        assert math.isclose(got[1], math.log(2.0), rel_tol=1e-15)
        assert whole == -np.inf

    @pytest.mark.parametrize("vocab", [2, 3, 4, 7])
    @pytest.mark.parametrize("n", [1, 7, 1024])
    def test_bit_identical_to_rowwise_formula(self, vocab, n):
        a = 4.0 * derive_rng(n, "lse-rows", vocab).standard_normal((n, 3, vocab))
        want = rowwise_logsumexp(a, axis=-1)
        np.testing.assert_array_equal(logsumexp(a), want)
        np.testing.assert_array_equal(row_softmax(a), rowwise_softmax(a))

    @pytest.mark.parametrize("vocab", [2, 3, 4, 7])
    def test_whole_array_bit_identical(self, vocab):
        rng = derive_rng(vocab, "lse-whole")
        # a 1-D array is one row, reduced to a 0-d result
        a = rng.standard_normal(vocab)
        got = logsumexp(a)
        assert got.shape == () and got == rowwise_logsumexp(a)
        np.testing.assert_array_equal(row_softmax(a), rowwise_softmax(a))

    @pytest.mark.parametrize(
        "shape",
        [(7, 2, 8), (1024, 2, 8), (7, 3, 64), (64, 1, 4096), (7, 2, 9), (5, 3, 128), (5, 3, 129), (4, 1, 9000)],
    )
    def test_wide_vocabularies_agree_to_rounding(self, shape):
        # from 8 terms numpy sums each row pairwise; the bits still match
        a = 3.0 * derive_rng(shape[-1], "lse-wide").standard_normal(shape)
        np.testing.assert_array_equal(logsumexp(a), rowwise_logsumexp(a, axis=-1))
        np.testing.assert_array_equal(row_softmax(a), rowwise_softmax(a))
        whole = a[0, 0]
        np.testing.assert_array_equal(logsumexp(whole), rowwise_logsumexp(whole))

    @pytest.mark.parametrize("vocab", [3, 4, 9, 129])
    def test_infinite_rows_match_rowwise_formula(self, vocab):
        a = derive_rng(vocab, "lse-inf").standard_normal((5, 2, vocab))
        a[0, 0, :] = -np.inf
        a[1, 0, 1] = np.inf
        a[2, 1, [0, 2]] = -np.inf
        a[3, 0, [0, 1]] = np.inf
        a[4, 1, 0], a[4, 1, 2] = -np.inf, np.inf
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(logsumexp(a), rowwise_logsumexp(a, axis=-1))
            np.testing.assert_array_equal(row_softmax(a), rowwise_softmax(a))
        assert logsumexp(a)[0, 0] == -np.inf


class TestJointPosterior:
    def test_prior_recovery_at_pure_noise(self, copy3x2):
        rng = derive_rng(0, "prior")
        x = rng.standard_normal(6)
        post = joint_posterior_probs(copy3x2, 50.0, x)[0]
        np.testing.assert_allclose(post, copy3x2.probs, atol=1e-8)

    def test_mode_at_scaled_clean_state(self, uniform3x2):
        t = 0.05
        x = math.exp(-t) * onehot_matrix(3, 2)[4]
        post = joint_posterior_probs(uniform3x2, t, x)[0]
        assert post[4] > 0.99

    def test_matches_direct_density_evaluation(self):
        # normalization-constant invariance: the log-space path must agree
        # with a dumb full-density computation
        nu = make_joint("dirichlet", 3, 2, seed=4)
        rng = derive_rng(1, "direct")
        for t in (0.3, 1.0, 2.5):
            x = forward_state(nu, t, rng)
            np.testing.assert_allclose(
                joint_posterior_probs(nu, t, x)[0], brute_joint_posterior(nu, t, x), atol=1e-12
            )

    def test_rejects_t_zero(self, uniform3x2):
        with pytest.raises(ValueError):
            joint_posterior_probs(uniform3x2, 0.0, np.zeros(6))


@pytest.fixture(scope="module")
def cap_law():
    return make_joint("dirichlet", 4, 6, seed=3, alpha=0.8)  # V^L = 4096, the default cap


@pytest.fixture(scope="module")
def dirichlet4x3():
    return make_joint("dirichlet", 4, 3, seed=0, alpha=0.8)


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
                ref = np.stack([posterior_marginals(cap_law, t, row[None])[0] for row in x])
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
            dense = np.exp(logits - logsumexp(logits)[:, None])
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
        rows, peak = traced_peak(lambda: pred.marginals_batch(x, t))
        assert rows.shape == (n, 6, 4)
        assert peak < 2 * oracle._BLOCK_BYTES + rows.nbytes

    @staticmethod
    def _count_paths(monkeypatch) -> dict:
        """Count the columns (spares included) each exp path fills."""
        cols = {"product": 0, "log": 0}
        for name, key in (("_product_into", "product"), ("_exp_into", "log")):
            fill = getattr(oracle, name)

            def spy(*args, fill=fill, key=key):
                cols[key] += args[-1].shape[1]
                return fill(*args)

            monkeypatch.setattr(oracle, name, spy)
        return cols

    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_mixed_paths_bit_identical_to_solo_rows_and_budgets(self, cap_law, t, monkeypatch):
        # far rows (log path) interleaved with on-law rows (product path)
        rng = derive_rng(47, "mixed")
        x = _forward_states(cap_law, t, 23, rng)
        x[[2, 9, 10, 17]] = 200.0 * rng.standard_normal((4, 24))
        cols = self._count_paths(monkeypatch)
        marg = posterior_marginals(cap_law, t, x)
        assert cols == {"product": 19 + 1, "log": 4 + 1}
        probs = oracle.joint_posterior_probs(cap_law, t, x)
        for i, row in enumerate(x):
            np.testing.assert_array_equal(posterior_marginals(cap_law, t, row[None]), marg[i : i + 1])
            np.testing.assert_array_equal(oracle.joint_posterior_probs(cap_law, t, row[None]), probs[i : i + 1])
        for budget in (8 * 4096, 3 * 8 * 4096, 1 << 30):  # 1 row, 3 rows, all rows per block
            monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
            np.testing.assert_array_equal(posterior_marginals(cap_law, t, x), marg)
            np.testing.assert_array_equal(oracle.joint_posterior_probs(cap_law, t, x), probs)

    @pytest.mark.parametrize("t", [0.002, 0.05])
    def test_copy_law_disagreeing_positions_match_dense_formula(self, copy3x2, t, monkeypatch):
        # the prior is 0 at the per-position argmax (0, 1), so every kept weight is far below its factors' maxima
        co = ou_coeffs(t)
        rng = derive_rng(48, "disagree")
        x = co.c * np.array([1.0, 0, 0, 0, 1, 0]) + 0.1 * co.sigma * rng.standard_normal((16, 6))
        cols = self._count_paths(monkeypatch)
        probs = oracle.joint_posterior_probs(copy3x2, t, x)
        marg = posterior_marginals(copy3x2, t, x)
        assert cols["log"] == 0
        onehot = onehot_matrix(3, 2)
        with np.errstate(divide="ignore"):
            logits = np.log(copy3x2.probs) + (co.c / co.sigma2) * (x @ onehot.T)
        dense = np.exp(logits - logsumexp(logits)[:, None])
        np.testing.assert_allclose(probs, dense, rtol=1e-12, atol=0.0)
        assert np.all(np.isfinite(marg)) and np.all(marg >= 0.0)
        np.testing.assert_allclose(marg.sum(axis=2), 1.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(marg, (dense @ onehot).reshape(16, 2, 3), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_states_name_the_level(self, copy3x2, sign):
        x = np.full((2, 6), sign * 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegeneratePosteriorError, match="level 1e-09"):
                posterior_marginals(copy3x2, 1e-9, x)
            with pytest.raises(DegeneratePosteriorError, match="level 1e-09"):
                oracle.joint_posterior_probs(copy3x2, 1e-9, x)


class TestTokenMarginals:
    # at the zero state every logit is 0, so the posterior is the law itself
    # and its rows are the law's own token marginals
    def test_point_mass(self):
        nu = make_joint("product", 3, 2, marginals=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert nu.probs[5] == 1.0  # sequence (1, 2)
        rows = posterior_marginals(nu, 1.0, np.zeros(6))[0]
        np.testing.assert_allclose(rows, [[0, 1, 0], [0, 0, 1]], atol=1e-15)

    def test_uniform(self, uniform3x2):
        rows = posterior_marginals(uniform3x2, 1.0, np.zeros(6))[0]
        np.testing.assert_allclose(rows, 1.0 / 3.0, rtol=1e-14)

    def test_copy_at_pure_noise(self, copy3x2):
        rows = posterior_marginals(copy3x2, 50.0, np.zeros(6))[0]
        np.testing.assert_allclose(rows, 1.0 / 3.0, atol=1e-8)

    def test_row_stochastic_across_levels(self, copy3x2):
        rng = derive_rng(2, "rows")
        for t in (0.05, 0.5, 1.0, 2.0, 6.0):
            x = forward_state(copy3x2, t, rng)
            rows = posterior_marginals(copy3x2, t, x)[0]
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(rows >= 0.0)


class TestFactorizedPosterior:
    def test_point_mass_product(self):
        fact = product_table(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert fact[5] == 1.0

    def test_half_half(self):
        np.testing.assert_allclose(product_table(np.array([[0.5, 0.5], [0.5, 0.5]])), 0.25, rtol=1e-15)

    def test_idempotent_on_product_laws(self, product3x2):
        rng = derive_rng(3, "idem")
        x = forward_state(product3x2, 0.8, rng)
        post = joint_posterior_probs(product3x2, 0.8, x)[0]
        fact = product_table(posterior_marginals(product3x2, 0.8, x)[0])
        np.testing.assert_allclose(fact, post, atol=1e-12)


class TestMultiInformation:
    def test_product_joint_is_zero(self, product3x2):
        rng = derive_rng(4, "mi0")
        x = forward_state(product3x2, 1.0, rng)
        post = joint_posterior_probs(product3x2, 1.0, x)[0]
        assert abs(multi_information(post, posterior_marginals(product3x2, 1.0, x)[0])) < 1e-12

    def test_copy_law_value(self, copy3x2):
        # the copy law as its own posterior: 2 log 3 - log 3 = log 3
        table = copy3x2.probs.reshape(3, 3)
        mi = multi_information(copy3x2.probs, np.stack([table.sum(axis=1), table.sum(axis=0)]))
        np.testing.assert_allclose(mi, math.log(3.0), rtol=1e-12)

    def test_equals_kl_to_factorization(self):
        nu = make_joint("dirichlet", 3, 2, seed=6)
        rng = derive_rng(5, "mi-kl")
        for t in (0.3, 0.7, 2.0):
            x = forward_state(nu, t, rng)
            post = joint_posterior_probs(nu, t, x)[0]
            rows = posterior_marginals(nu, t, x)[0]
            kl = discrete_kl(post, product_table(rows))
            assert abs(kl - multi_information(post, rows)) < 1e-12

    def test_nonnegative(self):
        rng = derive_rng(6, "mi-pos")
        for seed in range(10):
            nu = make_joint("dirichlet", 2, 3, seed=seed)
            x = forward_state(nu, 0.9, rng)
            post = joint_posterior_probs(nu, 0.9, x)[0]
            assert multi_information(post, posterior_marginals(nu, 0.9, x)[0]) >= -1e-15

    def test_divergence_flagged_as_inf(self):
        assert multi_information(np.array([0.5, 0.5]), np.array([[1.0, 0.0]])) == math.inf

    def test_joint_of_the_wrong_size_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(4,\).*\(1, 2\)"):
            multi_information(np.full(4, 0.25), np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("probs", [[0.5, 0.6], [math.nan, 1.0], [-0.5, 1.5]])
    def test_rejects_a_joint_that_is_not_a_distribution(self, probs):
        with pytest.raises(ValueError, match="joint"):
            multi_information(np.array(probs), np.array([[0.5, 0.5]]))


class TestFilteredEndpointMean:
    def test_no_new_information_limit(self, copy3x2):
        # observing the endpoint's own block at u -> u_k reverts to the prior
        rng = derive_rng(7, "limit")
        u_k = 1.0
        y_k = forward_state(copy3x2, u_k, rng)
        prior = posterior_marginals(copy3x2, u_k, y_k)[0]
        u = u_k * (1.0 - 1e-8)
        got = filtered_endpoint_means(prior[None], y_k[None], y_k[None], u, u_k)[0, 0]
        np.testing.assert_allclose(got, prior[0], atol=1e-6)

    def test_point_mass_prior(self):
        rows = np.array([[0.0, 1.0, 0.0], [0.2, 0.5, 0.3]])
        y_u = np.array([[5.0, -3.0, 2.0, 0.0, 0.0, 0.0]])
        got = filtered_endpoint_means(rows[None], y_u, np.zeros((1, 6)), 0.5, 1.0)[0, 0]
        np.testing.assert_allclose(got, [0.0, 1.0, 0.0], atol=1e-300)

    def test_matches_two_time_enumeration(self, copy3x2):
        rng = derive_rng(8, "filter")
        for u_k in (0.5, 1.0, 2.0):
            for frac in (0.2, 0.5, 0.8):
                u = frac * u_k
                y_k = forward_state(copy3x2, u_k, rng)
                y_block = rng.standard_normal(3)
                prior = posterior_marginals(copy3x2, u_k, y_k[None])
                got = filtered_endpoint_means(prior, np.tile(y_block, 2)[None], y_k[None], u, u_k)[0]
                for pos in (0, 1):
                    want = brute_filtered_mean(copy3x2, y_k, u_k, u, y_block, pos)
                    np.testing.assert_allclose(got[pos], want, atol=1e-10)

    def test_rejects_bad_levels(self):
        rows, states = np.full((1, 2, 3), 1.0 / 3.0), np.zeros((1, 6))
        with pytest.raises(ValueError):
            filtered_endpoint_means(rows, states, states, 1.0, 1.0)
        with pytest.raises(ValueError):
            filtered_endpoint_means(rows, states, states, 0.0, 1.0)


class TestKernelDensities:
    def test_single_sequence_law_is_one_bridge(self):
        nu = make_joint("uniform", 1, 2)  # only one sequence exists
        y = np.array([0.3, -0.7])
        u_k, u_next = 1.0, 0.4
        z = np.array([0.1, 0.2])
        x0 = np.ones(2)
        # the bridge moments written out, independent of kernels
        sh_k = math.sinh(u_k)
        mean = (math.sinh(u_k - u_next) * x0 + math.sinh(u_next) * y) / sh_k
        var = 2.0 * math.sinh(u_next) * math.sinh(u_k - u_next) / sh_k
        want = gauss_logpdf(z, mean, var)
        got = true_kernel_logdensities(nu, np.ones(1), y, u_k, u_next, z)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        a, b, step_var = reverse_step_coeffs(u_next, u_k)
        np.testing.assert_allclose(gauss_logpdf(z, a * x0 + b * y, step_var), want, rtol=1e-12)

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
        post = joint_posterior_probs(copy3x2, u_k, y)[0]
        log_k = true_kernel_logdensities(copy3x2, post, y, u_k, u_next, z)
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
        post, post_perm = joint_posterior_probs(copy3x2, 1.0, np.stack([y, y[perm]]))
        d0 = true_kernel_logdensities(copy3x2, post, y, 1.0, 0.5, z)[0]
        d1 = true_kernel_logdensities(copy3x2, post_perm, y[perm], 1.0, 0.5, z[perm])[0]
        np.testing.assert_allclose(d0, d1, rtol=1e-10)

    def test_degenerate_terminal_step(self, copy3x2):
        rng = derive_rng(11, "deg")
        y = forward_state(copy3x2, 0.5, rng)
        post = joint_posterior_probs(copy3x2, 0.5, y)[0]
        z = onehot_matrix(3, 2)[4]
        got = true_kernel_logdensities(copy3x2, post, y, 0.5, 0.0, z)[0]
        np.testing.assert_allclose(got, math.log(post[4]), rtol=1e-12)
        assert true_kernel_logdensities(copy3x2, post, y, 0.5, 0.0, z + 1e-3)[0] == -math.inf
        # the factorized kernel puts the product of the token marginals on sequence 4 = (1, 1)
        rows = posterior_marginals(copy3x2, 0.5, y)[0]
        got = mcb_kernel_logdensities(rows, y, 0.5, 0.0, z)[0]
        np.testing.assert_allclose(got, math.log(rows[0, 1] * rows[1, 1]), rtol=1e-12)
        assert mcb_kernel_logdensities(rows, y, 0.5, 0.0, z + 1e-3)[0] == -math.inf

    def test_mcb_matches_true_for_single_position(self):
        nu = make_joint("dirichlet", 3, 1, seed=8)
        rng = derive_rng(12, "l1")
        y = forward_state(nu, 1.0, rng)
        post = joint_posterior_probs(nu, 1.0, y)[0]
        rows = posterior_marginals(nu, 1.0, y)[0]
        for _ in range(20):
            z = rng.standard_normal(3)
            a = true_kernel_logdensities(nu, post, y, 1.0, 0.5, z)[0]
            b = mcb_kernel_logdensities(rows, y, 1.0, 0.5, z)[0]
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_mcb_matches_true_for_product_law(self, product3x2):
        rng = derive_rng(13, "prod")
        y = forward_state(product3x2, 1.0, rng)
        post = joint_posterior_probs(product3x2, 1.0, y)[0]
        rows = posterior_marginals(product3x2, 1.0, y)[0]
        for _ in range(20):
            z = rng.standard_normal(6)
            a = true_kernel_logdensities(product3x2, post, y, 1.0, 0.5, z)[0]
            b = mcb_kernel_logdensities(rows, y, 1.0, 0.5, z)[0]
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_mcb_blocks_match_full_mixture(self, copy3x2):
        # dumb V^L-component mixture with factorized weights
        rng = derive_rng(14, "mix")
        u_k, u_next = 1.2, 0.3
        y = forward_state(copy3x2, u_k, rng)
        rows = posterior_marginals(copy3x2, u_k, y)[0]
        a, b, var = reverse_step_coeffs(u_next, u_k)
        onehot = onehot_matrix(3, 2)
        for _ in range(10):
            z = rng.standard_normal(6)
            comps = []
            for i, toks in enumerate(sequences(3, 2)):
                w = math.prod(rows[pos, tok] for pos, tok in enumerate(toks))
                comps.append(math.log(w) + gauss_logpdf(z, a * onehot[i] + b * y, var))
            want = np.logaddexp.reduce(comps)
            got = mcb_kernel_logdensities(rows, y, u_k, u_next, z)[0]
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_true_rejects_a_posterior_that_is_not_over_the_law(self, copy3x2):
        post = joint_posterior_probs(copy3x2, 1.0, np.zeros(6))[0]
        for bad, match in ((np.append(post, 0.0), r"post of shape \(10,\).*\(9,\)"), (post[:8], r"\(8,\)"),
                           (2.0 * post, "each row of post must sum to 1"), (-post, "post entries")):
            with pytest.raises(ValueError, match=match):
                true_kernel_logdensities(copy3x2, bad, np.zeros(6), 1.0, 0.5, np.zeros(6))

    @pytest.mark.parametrize("y_width, z_width, bad", [(5, 6, r"y of shape \(5,\)"), (6, 7, r"z of shape \(1, 7\)")])
    def test_mcb_names_the_shapes_of_a_wrong_width_y_or_z(self, y_width, z_width, bad):
        rows = np.full((2, 3), 1.0 / 3.0)
        with pytest.raises(ValueError, match=bad + r".*\(2, 3\)"):
            mcb_kernel_logdensities(rows, np.zeros(y_width), 1.0, 0.5, np.zeros(z_width))


    def _cap_kernel_draws(self, nu, u_k, u_next, n, rng):
        y = forward_state(nu, u_k, rng)
        a, b, var = reverse_step_coeffs(u_next, u_k)
        x0 = onehot_matrix(nu.vocab, nu.length)[nu.sample_indices(rng, n)]
        return y, a * x0 + b * y + math.sqrt(var) * rng.standard_normal((n, nu.dim))

    def test_rows_independent_of_block_budget(self, cap_law, monkeypatch):
        y, z = self._cap_kernel_draws(cap_law, 1.0, 0.5, 23, derive_rng(45, "kbudget"))
        post = joint_posterior_probs(cap_law, 1.0, y)[0]
        base = true_kernel_logdensities(cap_law, post, y, 1.0, 0.5, z)
        for budget in (8 * 4096, 7 * 8 * 4096, 1 << 30):  # 1 row, 7 rows, all rows per block
            monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
            np.testing.assert_array_equal(true_kernel_logdensities(cap_law, post, y, 1.0, 0.5, z), base)

    def test_matches_dense_one_hot_mixture(self, cap_law):
        # the blocked exp kernel against the plain (r @ onehot.T) log-sum-exp over all V^L endpoints
        onehot = onehot_matrix(4, 6)
        rng = derive_rng(46, "kdense")
        for u_k, u_next in ((1.0, 0.5), (0.3, 0.05), (2.0, 1.9)):
            y, z = self._cap_kernel_draws(cap_law, u_k, u_next, 40, rng)
            a, b, var = reverse_step_coeffs(u_next, u_k)
            r = z - b * y
            sq = (r * r).sum(axis=1, keepdims=True) - 2.0 * a * (r @ onehot.T) + a * a * 6
            post = joint_posterior_probs(cap_law, u_k, y)[0]
            logits = np.log(post) - sq / (2.0 * var)
            dense = logsumexp(logits) - 0.5 * 24 * math.log(2.0 * math.pi * var)
            got = true_kernel_logdensities(cap_law, post, y, u_k, u_next, z)
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
        post = joint_posterior_probs(copy3x2, 1.0, y)[0]
        mi = multi_information(post, posterior_marginals(copy3x2, 1.0, y)[0])
        est = kernel_kl_estimate(copy3x2, y, 1.0, 0.5, 10_000, rng)
        assert est.estimate <= mi + 3 * est.se

    def test_rejects_small_n(self, copy3x2):
        with pytest.raises(ValueError):
            kernel_kl_estimate(copy3x2, np.zeros(6), 1.0, 0.5, 10, derive_rng(0, "x"))

    def test_builds_the_posterior_once_and_returns_its_bound(self, copy3x2, monkeypatch):
        rng = derive_rng(18, "klonce")
        y = forward_state(copy3x2, 1.0, rng)
        post = joint_posterior_probs(copy3x2, 1.0, y)[0]
        calls = []
        build = oracle.joint_posterior_probs
        monkeypatch.setattr(oracle, "joint_posterior_probs", lambda *a: calls.append(1) or build(*a))
        est = kernel_kl_estimate(copy3x2, y, 1.0, 0.5, 2000, rng)
        assert len(calls) == 1
        assert est.mi == multi_information(post, posterior_marginals(copy3x2, 1.0, y)[0])

    def test_peak_memory_bounded_at_the_cap(self, cap_law):
        # one dense n x V^L mixture table alone would be 312 MiB
        y = forward_state(cap_law, 1.0, derive_rng(19, "klmem"))
        est, peak = traced_peak(lambda: kernel_kl_estimate(cap_law, y, 1.0, 0.5, 10_000, derive_rng(20, "klmem")))
        assert est.n_flagged == 0
        assert peak <= 32 * 2**20

    @staticmethod
    def _one_block(nu, y, u_k, u_next, n, rng) -> tuple:
        """(estimate, se, n_flagged, mi) with all n samples drawn and scored as one block."""
        onehot = onehot_matrix(nu.vocab, nu.length)
        post = joint_posterior_probs(nu, u_k, y)[0]
        rows = posterior_marginals(nu, u_k, y)[0]
        a, b, var = reverse_step_coeffs(u_next, u_k)
        idx = np.minimum(np.searchsorted(np.cumsum(post), rng.random(n), side="left"), post.size - 1)
        z = a * onehot[idx] + b * y[None, :] + math.sqrt(var) * rng.standard_normal((n, nu.dim))
        diff = true_kernel_logdensities(nu, post, y, u_k, u_next, z) - mcb_kernel_logdensities(rows, y, u_k, u_next, z)
        used = diff[np.isfinite(diff)]
        se = float(used.std(ddof=1) / math.sqrt(used.size))
        return float(used.mean()), se, n - used.size, multi_information(post, rows)

    @pytest.mark.parametrize("chunk", [None, 1000, 10**6])
    @pytest.mark.parametrize("n", [1000, 2047, 2048, 2049, 10_001])
    @pytest.mark.parametrize("law", ["copy3x2", "dirichlet4x3", "cap_law"])
    def test_chunked_draws_match_one_block(self, request, monkeypatch, law, n, chunk):
        nu = request.getfixturevalue(law)
        if chunk is not None:
            monkeypatch.setattr(oracle, "_MC_CHUNK", chunk)
        y = forward_state(nu, 1.0, derive_rng(21, "klchunk", law))
        want_rng, got_rng = derive_rng(22, "klchunk", law, n), derive_rng(22, "klchunk", law, n)
        want = self._one_block(nu, y, 1.0, 0.5, n, want_rng)
        assert tuple(kernel_kl_estimate(nu, y, 1.0, 0.5, n, got_rng)) == want
        assert got_rng.random() == want_rng.random()

    def test_peak_memory_flat_in_n(self, dirichlet4x3):
        # the n endpoint uniforms and the n ratios are the only full-length arrays: 16 B a sample
        y = forward_state(dirichlet4x3, 1.0, derive_rng(23, "klflat"))
        peaks = [traced_peak(lambda: kernel_kl_estimate(dirichlet4x3, y, 1.0, 0.5, n, derive_rng(24, "klflat")))[1]
                 for n in (10_000, 40_000)]
        assert peaks[1] - peaks[0] <= 16 * 30_000 + 2**20

    def test_non_finite_ratios_in_several_chunks_warn_once(self, copy3x2, monkeypatch):
        bad = [5, 2047, 2048, 4500]  # rows in the first, second and third chunk of 5,000
        seen = [0]
        score = oracle.mcb_kernel_logdensities

        def with_holes(rows, y, u_k, u_next, z):
            out = score(rows, y, u_k, u_next, z)
            lo = seen[0]
            seen[0] += len(out)
            out[[i - lo for i in bad if lo <= i < seen[0]]] = -math.inf
            return out

        monkeypatch.setattr(oracle, "mcb_kernel_logdensities", with_holes)
        y = forward_state(copy3x2, 1.0, derive_rng(25, "klinf"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = kernel_kl_estimate(copy3x2, y, 1.0, 0.5, 5000, derive_rng(26, "klinf"))
        assert seen[0] == 5000
        assert est.n_flagged == len(bad)
        assert [str(w.message) for w in caught] == [f"excluded {len(bad)} non-finite log-density ratios"]
