"""Sample metrics against combinatorial/concentration oracles, and the
identity + gap checks."""

import math
import tracemalloc

import numpy as np
import pytest
from helpers import forward_state

from mcbridge import oracle
from mcbridge.discrete import TokenSequence, make_joint
from mcbridge.kernels import NoiseGrid
from mcbridge.metrics import (
    denoising_gap,
    empirical_tv,
    factorization_check,
    moment_check,
    oracle_nll,
    tv_noise_scale,
    unigram_entropy,
)
from mcbridge.oracle import MarginalTable
from mcbridge.seeding import derive_rng


def _seqs_from_indices(indices, vocab, length):
    return [TokenSequence.from_index(int(i), vocab, length) for i in indices]


class TestUnigramEntropy:
    def test_constant_sequences(self):
        seqs = [TokenSequence(tokens=(2, 2, 2), vocab=3)] * 5
        assert unigram_entropy(seqs) == 0.0

    def test_two_distinct_tokens(self):
        seqs = [TokenSequence(tokens=(0, 1), vocab=3), TokenSequence(tokens=(2, 1), vocab=3)]
        np.testing.assert_allclose(unigram_entropy(seqs), math.log(2.0), rtol=1e-12)

    def test_matches_multinomial_profile_oracle(self):
        """Exact expected plug-in entropy of uniform V=4, L=16 sequences by
        enumerating token-count compositions."""
        vocab, length, n = 4, 16, 10_000
        expected = 0.0
        for n0 in range(length + 1):
            for n1 in range(length + 1 - n0):
                for n2 in range(length + 1 - n0 - n1):
                    n3 = length - n0 - n1 - n2
                    counts = (n0, n1, n2, n3)
                    log_pmf = math.lgamma(length + 1) - sum(math.lgamma(c + 1) for c in counts)
                    log_pmf += length * math.log(1.0 / vocab)
                    h = -sum((c / length) * math.log(c / length) for c in counts if c > 0)
                    expected += math.exp(log_pmf) * h
        rng = derive_rng(0, "ent")
        toks = rng.integers(0, vocab, size=(n, length))
        seqs = [TokenSequence(tokens=tuple(int(t) for t in row), vocab=vocab) for row in toks]
        assert abs(unigram_entropy(seqs) - expected) < 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            unigram_entropy([])


class TestEmpiricalTv:
    def test_matched_point_mass(self):
        nu = make_joint("product", 2, 1, marginals=np.array([[1.0, 0.0]]))
        seqs = [TokenSequence(tokens=(0,), vocab=2)] * 10
        assert empirical_tv(seqs, nu) == 0.0

    def test_disjoint_support(self, copy3x2):
        seqs = [TokenSequence(tokens=(0, 1), vocab=3)] * 10  # nu-null sequence
        np.testing.assert_allclose(empirical_tv(seqs, copy3x2), 1.0, atol=1e-12)

    def test_exact_sampling_concentration(self):
        # multinomial concentration oracle: E[TV] ~ sum sqrt(p(1-p)/(2 pi n))
        nu = make_joint("dirichlet", 3, 2, seed=12)
        rng = derive_rng(1, "tv")
        n = 50_000
        seqs = _seqs_from_indices(nu.sample_indices(rng, n), 3, 2)
        tv = empirical_tv(seqs, nu)
        assert tv < 0.02
        mean, sd = tv_noise_scale(nu, n)
        assert abs(tv - mean) < 5 * sd


class TestOracleNll:
    def test_mode_repeated(self, dirichlet3x2):
        mode = int(np.argmax(dirichlet3x2.probs))
        seqs = _seqs_from_indices([mode] * 7, 3, 2)
        res = oracle_nll(seqs, dirichlet3x2)
        np.testing.assert_allclose(res.nll, -math.log(dirichlet3x2.probs.max()), rtol=1e-12)
        assert res.zero_count == 0

    def test_converges_to_entropy(self):
        nu = make_joint("dirichlet", 3, 2, seed=13)
        rng = derive_rng(2, "nll")
        seqs = _seqs_from_indices(nu.sample_indices(rng, 50_000), 3, 2)
        res = oracle_nll(seqs, nu)
        assert abs(res.nll - nu.entropy()) <= 3 * res.se

    def test_uniform_law_constant(self, uniform3x2):
        rng = derive_rng(3, "nllu")
        seqs = _seqs_from_indices(rng.integers(0, 9, size=100), 3, 2)
        res = oracle_nll(seqs, uniform3x2)
        np.testing.assert_allclose(res.nll, 2.0 * math.log(3.0), rtol=1e-12)
        assert res.se < 1e-12

    def test_zero_probability_counted(self, copy3x2):
        seqs = [TokenSequence(tokens=(0, 0), vocab=3), TokenSequence(tokens=(0, 1), vocab=3)]
        res = oracle_nll(seqs, copy3x2)
        assert res.zero_count == 1
        np.testing.assert_allclose(res.nll, math.log(3.0), rtol=1e-12)


class TestFactorizationCheck:
    def test_product_law_is_exactly_independent(self, product3x2):
        rng = derive_rng(4, "f1")
        x = forward_state(product3x2, 0.9, rng)
        res = factorization_check(product3x2, 0.9, x)
        assert abs(res.kl) < 1e-12 and abs(res.mi) < 1e-12 and res.gap < 1e-12

    def test_copy_law_at_pure_noise(self, copy3x2):
        rng = derive_rng(5, "f2")
        x = rng.standard_normal(6)
        res = factorization_check(copy3x2, 50.0, x)
        np.testing.assert_allclose(res.kl, math.log(3.0), atol=1e-7)
        np.testing.assert_allclose(res.mi, math.log(3.0), atol=1e-7)
        assert res.gap < 1e-12

    def test_identity_on_random_laws(self):
        rng = derive_rng(6, "f3")
        worst = 0.0
        for seed in range(20):
            nu = make_joint("dirichlet", 3, 2, seed=seed)
            x = forward_state(nu, 0.7, rng)
            worst = max(worst, factorization_check(nu, 0.7, x).gap)
        assert worst < 1e-12


class TestMomentCheck:
    def test_point_mass_marginals(self):
        m = MarginalTable(probs=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        res = moment_check(m, np.zeros(6), 1.0, 0.5)
        assert res.mean_residual == 0.0
        assert res.cov_residual < 1e-15

    def test_uniform_binary_surplus_block(self):
        # Bernoulli(1/2) covariance: a^2 * [[.25, -.25], [-.25, .25]] per block
        from mcbridge.discrete import onehot_matrix
        from mcbridge.kernels import reverse_step_coeffs
        from mcbridge.oracle import factorized_posterior

        m = MarginalTable(probs=np.array([[0.5, 0.5]]))
        u_k, u_next = 1.0, 0.4
        a, _, var = reverse_step_coeffs(u_next, u_k)
        q = factorized_posterior(m).probs
        onehot = onehot_matrix(2, 1)
        mus = a * onehot
        mean = q @ mus
        centered = mus - mean
        surplus = (q[:, None] * centered).T @ centered
        np.testing.assert_allclose(surplus, a * a * np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-15)
        res = moment_check(m, np.zeros(2), u_k, u_next)
        assert max(res.mean_residual, res.cov_residual) < 1e-12

    def test_random_tables(self):
        rng = derive_rng(7, "mm")
        for _ in range(50):
            rows = rng.dirichlet(np.ones(3), size=2)
            y = rng.standard_normal(6)
            u_k = rng.uniform(0.2, 3.0)
            u_next = u_k * rng.uniform(0.05, 0.95)
            res = moment_check(MarginalTable(probs=rows), y, u_k, u_next)
            assert res.mean_residual < 1e-12
            assert res.cov_residual < 1e-12


class TestDenoisingGap:
    def test_totals_are_weighted_node_sums(self, copy3x2):
        rng = derive_rng(8, "g0")
        report = denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 4), 3, 1000, rng)
        total = sum(n.coeff * n.weight * n.gap for n in report.nodes)
        np.testing.assert_allclose(report.total_gap, total, rtol=1e-12)
        by_interval = sum(g for _, g, _ in report.interval_gaps())
        np.testing.assert_allclose(report.total_gap, by_interval, rtol=1e-12)

    def test_copy_law_gap_positive(self, copy3x2):
        rng = derive_rng(9, "g1")
        report = denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 8), 3, 4000, rng)
        for _, gap, se in report.interval_gaps():
            assert gap >= -3 * se
        assert report.total_gap > 3 * report.total_gap_se

    def test_refinement_shrinks_both_error_terms(self, copy3x2):
        rng = derive_rng(10, "g2")
        coarse = denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 8), 3, 2000, rng)
        fine = denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 512), 3, 2000, rng)
        assert fine.total_ddpm < coarse.total_ddpm / 4.0
        assert fine.total_mcb < coarse.total_mcb / 4.0

    def test_product_law_gap_is_additive_over_positions(self):
        marg = np.array([[0.3, 0.7]])
        single = make_joint("product", 2, 1, marginals=marg)
        double = make_joint("product", 2, 2, marginals=np.vstack([marg, marg]))
        rng = derive_rng(11, "g3")
        rep1 = denoising_gap(single, NoiseGrid.uniform(6.0, 8), 3, 20_000, rng)
        rep2 = denoising_gap(double, NoiseGrid.uniform(6.0, 8), 3, 20_000, rng)
        pooled = math.sqrt(rep2.total_gap_se**2 + 4.0 * rep1.total_gap_se**2)
        assert abs(rep2.total_gap - 2.0 * rep1.total_gap) <= 3 * pooled

    def test_report_independent_of_block_budget(self, monkeypatch):
        nu = make_joint("dirichlet", 4, 3, seed=2, alpha=0.8)
        grid = NoiseGrid.uniform(6.0, 2)
        base = denoising_gap(nu, grid, 2, 1000, derive_rng(13, "gblock"))
        for budget in (8 * 64, 7 * 8 * 64, 1 << 30):  # 1 row, 7 rows, all rows per block
            monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
            assert denoising_gap(nu, grid, 2, 1000, derive_rng(13, "gblock")) == base

    def test_peak_memory_bounded(self):
        # full-length n_mc x (L*V) arrays for every intermediate take ~19 MiB here
        nu = make_joint("dirichlet", 4, 3, seed=0, alpha=0.8)
        tracemalloc.start()
        try:
            report = denoising_gap(nu, NoiseGrid.uniform(6.0, 2), 1, 20_000, derive_rng(14, "gmem"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.nodes) == 2
        assert peak <= 10 * 2**20

    def test_rejects_tiny_budget(self, copy3x2):
        with pytest.raises(ValueError):
            denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 2), 3, 10, derive_rng(0, "x"))

    def test_csv_rows_schema(self, copy3x2):
        rng = derive_rng(12, "g4")
        report = denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 2), 2, 1000, rng)
        rows = report.csv_rows()
        assert len(rows) == 4
        assert list(rows[0]) == [
            "interval", "t", "u", "weight", "coeff",
            "ddpm_err", "ddpm_se", "mcb_err", "mcb_se", "gap", "gap_se",
        ]
