"""Sample metrics against combinatorial/concentration oracles, and the
identity + gap checks."""

import math
import os
import threading
import time

import numpy as np
import pytest
from helpers import forward_state, traced_peak

from mcbridge import metrics, oracle
from mcbridge.discrete import TokenSequence, make_joint, onehot_matrix, product_table
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
        p = nu.probs[nu.probs > 0.0]
        entropy = -(p * np.log(p)).sum()
        assert abs(res.nll - entropy) <= 3 * res.se

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
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        res = moment_check(rows, np.zeros(6), 1.0, 0.5)
        assert res.mean_residual == 0.0
        assert res.cov_residual < 1e-15

    def test_uniform_binary_surplus_block(self):
        # Bernoulli(1/2) covariance: a^2 * [[.25, -.25], [-.25, .25]] per block
        from mcbridge.kernels import reverse_step_coeffs

        rows = np.array([[0.5, 0.5]])
        u_k, u_next = 1.0, 0.4
        a, _, var = reverse_step_coeffs(u_next, u_k)
        q = product_table(rows)
        onehot = onehot_matrix(2, 1)
        mus = a * onehot
        mean = q @ mus
        centered = mus - mean
        surplus = (q[:, None] * centered).T @ centered
        np.testing.assert_allclose(surplus, a * a * np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-15)
        res = moment_check(rows, np.zeros(2), u_k, u_next)
        assert max(res.mean_residual, res.cov_residual) < 1e-12

    def test_random_tables(self):
        # random concentrations; verify's flat-Dirichlet tables run in the acceptance suite
        rng = derive_rng(7, "mm")
        for _ in range(50):
            rows = rng.dirichlet(np.full(3, rng.uniform(0.3, 3.0)), size=2)
            y = rng.standard_normal(6)
            u_k = rng.uniform(0.2, 3.0)
            u_next = u_k * rng.uniform(0.05, 0.95)
            res = moment_check(rows, y, u_k, u_next)
            assert res.mean_residual < 1e-12
            assert res.cov_residual < 1e-12

    def test_y_of_the_wrong_length_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(3,\).*\(2, 2\)"):
            moment_check(np.full((2, 2), 0.5), np.zeros(3), 1.0, 0.5)

    @pytest.mark.parametrize("rows", [[0.5, 0.5], [[0.5, 0.6]], [[math.nan, 1.0]], [[-0.5, 1.5]]])
    def test_rejects_rows_that_are_not_distributions(self, rows):
        with pytest.raises(ValueError, match="rows"):
            moment_check(np.array(rows), np.zeros(2), 1.0, 0.5)


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

    def test_report_independent_of_cpu_count(self, monkeypatch):
        nu = make_joint("dirichlet", 4, 3, seed=2, alpha=0.8)
        grid = NoiseGrid.uniform(6.0, 3)
        reports = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(metrics, "_cpu_count", lambda cpus=cpus: cpus)
            reports.append(denoising_gap(nu, grid, 2, 2500, derive_rng(15, "gcpu")))
        assert len(reports[0].nodes) == 6
        assert reports[0] == reports[1] == reports[2]

    def test_node_draws_only_from_its_own_stream(self, copy3x2):
        # one word from the caller's generator, then node i reads (word, "gap-node", i)
        grid = NoiseGrid.uniform(6.0, 2)
        report = denoising_gap(copy3x2, grid, 2, 3000, derive_rng(16, "gstream"))
        word = int(derive_rng(16, "gstream").integers(1 << 64, dtype=np.uint64))
        onehot = onehot_matrix(copy3x2.vocab, copy3x2.length)
        pairs = list(grid.pairs())
        for i, node in enumerate(report.nodes):
            u_k = pairs[node.interval][0]
            stats = metrics._gap_node(copy3x2, onehot, node.u, u_k, 3000, derive_rng(word, "gap-node", i))
            assert stats == (node.ddpm_err, node.ddpm_se, node.mcb_err, node.mcb_se, node.gap, node.gap_se)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_node_exception_reaches_caller(self, monkeypatch, copy3x2, cpus):
        real = metrics.filtered_endpoint_means

        def failing(prior_rows, states_u, states_uk, u, u_k):
            if u_k < 4.0:  # every node of the second interval, which starts at 3
                raise FloatingPointError(f"node at u={u}")
            return real(prior_rows, states_u, states_uk, u, u_k)

        monkeypatch.setattr(metrics, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(metrics, "filtered_endpoint_means", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="node at u="):
            denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 2), 3, 1000, derive_rng(17, "gfail"))
        assert threading.active_count() == before

    def test_run_parallel_hands_out_each_index_once(self, monkeypatch):
        # task i runs on worker i mod 8, and worker 0 is the caller
        monkeypatch.setattr(metrics, "_cpu_count", lambda: 8)
        out = metrics._run_parallel(lambda i: (i, os.getpid()), 2000)
        assert [i for i, _ in out] == list(range(2000))
        pids = [pid for _, pid in out]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 8
        assert all(pid == pids[i % 8] for i, pid in enumerate(pids))
        _assert_no_children()

    def test_peak_memory_bounded(self, monkeypatch):
        # full-length n_mc x (L*V) arrays for every intermediate take ~19 MiB
        # here; one CPU keeps every node in this process, where tracemalloc sees it
        monkeypatch.setattr(metrics, "_cpu_count", lambda: 1)
        nu = make_joint("dirichlet", 4, 3, seed=0, alpha=0.8)
        grid = NoiseGrid.uniform(6.0, 2)
        report, peak = traced_peak(lambda: denoising_gap(nu, grid, 1, 20_000, derive_rng(14, "gmem")))
        assert len(report.nodes) == 2
        assert peak <= 10 * 2**20

    def test_rejects_tiny_budget(self, copy3x2):
        with pytest.raises(ValueError):
            denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 2), 3, 10, derive_rng(0, "x"))

    def test_rejects_horizon_past_the_bridge_limit(self, copy3x2):
        # the filtered means overflow past the limit; the limit itself runs
        with pytest.raises(ValueError, match="800.0 exceeds 700.0"):
            denoising_gap(copy3x2, NoiseGrid.uniform(800.0, 2), 1, 1000, derive_rng(0, "x"))
        report = denoising_gap(copy3x2, NoiseGrid.uniform(700.0, 1), 1, 1000, derive_rng(0, "x"))
        assert len(report.nodes) == 1 and math.isfinite(report.total_gap)

    def test_csv_rows_schema(self, copy3x2):
        rng = derive_rng(12, "g4")
        report = denoising_gap(copy3x2, NoiseGrid.uniform(6.0, 2), 2, 1000, rng)
        rows = report.csv_rows()
        assert len(rows) == 4
        assert list(rows[0]) == [
            "interval", "t", "u", "weight", "coeff",
            "ddpm_err", "ddpm_se", "mcb_err", "mcb_se", "gap", "gap_se",
        ]


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(Exception):
    """Pickles, but its two-argument constructor cannot be called with the one
    argument it is rebuilt from."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class TestRunParallel:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_results_in_order(self, monkeypatch, cpus):
        monkeypatch.setattr(metrics, "_cpu_count", lambda: cpus)
        assert metrics._run_parallel(lambda i: (i, [i] * (i % 3)), 11) == [(i, [i] * (i % 3)) for i in range(11)]
        _assert_no_children()

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_child_error_reaches_caller(self, monkeypatch, cpus):
        def fail(i):
            if i in (1, 3):
                raise LookupError(f"task {i}")
            return i

        monkeypatch.setattr(metrics, "_cpu_count", lambda: cpus)
        with pytest.raises(LookupError, match="^task 1$") as err:
            metrics._run_parallel(fail, 6)
        assert type(err.value) is LookupError
        _assert_no_children()

    def test_unpicklable_child_error_becomes_runtime_error(self, monkeypatch):
        def fail(i):
            if i == 1:
                raise _Unpicklable("boom", i)
            return i

        monkeypatch.setattr(metrics, "_cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match=r"_Unpicklable\('boom at 1'\)"):
            metrics._run_parallel(fail, 4)
        _assert_no_children()

    def test_interrupted_caller_kills_and_reaps_children(self, monkeypatch):
        def task(i):
            if i == 0:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(metrics, "_cpu_count", lambda: 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            metrics._run_parallel(task, 3)
        assert time.perf_counter() - start < 30
        _assert_no_children()

    def test_runs_in_caller_while_a_thread_is_alive(self, monkeypatch):
        monkeypatch.setattr(metrics, "_cpu_count", lambda: 4)
        stop = threading.Event()
        helper = threading.Thread(target=stop.wait)
        helper.start()
        try:
            pids = metrics._run_parallel(lambda i: os.getpid(), 8)
        finally:
            stop.set()
            helper.join()
        assert pids == [os.getpid()] * 8
