"""Predictor implementations and the decoding transforms."""

import json
import math

import numpy as np
import pytest
from helpers import forward_state, rowwise_softmax

from mcbridge import predictors
from mcbridge.discrete import index_matrix, make_joint, onehot, onehot_matrix
from mcbridge.oracle import logsumexp, posterior_marginals
from mcbridge.predictors import (
    TrainConfig,
    TrainedPredictor,
    TrainingDiverged,
    nucleus_rows,
    oracle_predictor,
    temperature_rows,
    train_predictor,
)
from mcbridge.seeding import derive_rng


def _reference_train(nu, cfg):
    """(params, loss_history) of the one-step-at-a-time SGD loop that
    ``train_predictor`` must reproduce bit for bit; raises TrainingDiverged
    at the first non-finite loss."""
    vocab, length = nu.vocab, nu.length
    table = index_matrix(vocab, length)
    onehots = onehot(table, vocab)
    params = {k: w.copy() for k, w in TrainedPredictor.initial(vocab, length, cfg).params.items()}
    rng = derive_rng(cfg.seed, "train")
    lr = cfg.learning_rate
    losses = np.empty(cfg.steps)
    rows, cols = np.arange(cfg.batch)[:, None], np.arange(length)[None, :]
    for step in range(cfg.steps):
        picked = nu.sample_indices(rng, cfg.batch)
        states, toks = onehots[picked], table[picked]
        u = rng.uniform(cfg.u_min, cfg.horizon, size=cfg.batch)
        c = np.exp(-u)
        sigma = np.sqrt(-np.expm1(-2.0 * u))
        noisy = c[:, None] * states + sigma[:, None] * rng.standard_normal(states.shape)
        feats = np.concatenate([noisy, c[:, None], sigma[:, None]], axis=1)

        hidden = np.tanh(feats @ params["w1"].T + params["b1"])
        logits = (hidden @ params["w2"].T + params["b2"]).reshape(cfg.batch, length, vocab)
        lognorm = logsumexp(logits)
        loss = float((lognorm - logits[rows, cols, toks]).sum(axis=1).mean())
        losses[step] = loss
        if not math.isfinite(loss):
            raise TrainingDiverged(step, loss)

        probs = np.exp(logits - lognorm[:, :, None])
        probs[rows, cols, toks] -= 1.0
        dlogits = probs.reshape(cfg.batch, length * vocab) / cfg.batch
        dpre = (dlogits @ params["w2"]) * (1.0 - hidden * hidden)
        grads = {"w2": dlogits.T @ hidden, "b2": dlogits.sum(axis=0), "w1": dpre.T @ feats, "b1": dpre.sum(axis=0)}
        for key, g in grads.items():
            params[key] -= lr * g
    return params, losses


class TestOraclePredictor:
    def test_prior_recovery(self, copy3x2):
        pred = oracle_predictor(copy3x2)
        rng = derive_rng(0, "o1")
        rows = pred.marginals_batch(rng.standard_normal((1, 6)), 50.0)[0]
        np.testing.assert_allclose(rows, (copy3x2.probs @ onehot_matrix(3, 2)).reshape(2, 3), atol=1e-8)

    def test_sharp_at_low_noise(self, uniform3x2):
        pred = oracle_predictor(uniform3x2)
        u = 0.05
        for state in onehot_matrix(3, 2)[:4]:
            rows = pred.marginals_batch(math.exp(-u) * state[None, :], u)[0]
            tv = 0.5 * np.abs(rows - state.reshape(2, 3)).sum(axis=1)
            assert np.all(tv < 1e-2)

    def test_matches_posterior_marginals_exactly(self, dirichlet3x2):
        pred = oracle_predictor(dirichlet3x2)
        rng = derive_rng(1, "o2")
        for t in (0.3, 1.0, 4.0):
            x = forward_state(dirichlet3x2, t, rng)
            via_pred = pred.marginals_batch(x[None, :], t)[0]
            via_oracle = posterior_marginals(dirichlet3x2, t, x)[0]
            np.testing.assert_array_equal(via_pred, via_oracle)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(u_min=0.0)
        for key in ("learning_rate", "u_min", "horizon"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=repr(key)):
                    TrainConfig(**{key: value})

    @pytest.mark.parametrize("seed", [True, 1.5, "1"])
    def test_config_rejects_non_int_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=seed)


class TestTrainPredictor:
    def test_uniform_binary_prior_recovery(self):
        # ensemble-averaged marginals at pure noise approach the uniform prior
        nu = make_joint("uniform", 2, 1)
        pred = train_predictor(nu, TrainConfig(seed=0))
        rng = derive_rng(1, "states")
        states = rng.standard_normal((64, 2))
        rows = pred.marginals_batch(states, 50.0)
        assert np.abs(rows.mean(axis=0) - 0.5).max() < 0.05

    def test_copy_law_tracks_oracle(self, copy3x2):
        pred = train_predictor(copy3x2, TrainConfig(seed=0))
        oracle = oracle_predictor(copy3x2)
        rng = derive_rng(2, "gap")
        tvs = []
        for _ in range(256):
            u = rng.uniform(0.01, 6.0)
            x = forward_state(copy3x2, u, rng)
            a = pred.marginals_batch(x[None, :], u)[0]
            b = oracle.marginals_batch(x[None, :], u)[0]
            tvs.append(0.5 * np.abs(a - b).sum(axis=1).mean())
        assert float(np.mean(tvs)) < 0.1

    def test_loss_decreases(self, copy3x2):
        pred = train_predictor(copy3x2, TrainConfig(steps=4000, seed=3))
        window = len(pred.loss_history) // 10
        assert pred.loss_history[-window:].mean() < pred.loss_history[:window].mean()

    def test_zero_steps_is_valid_distribution(self):
        nu = make_joint("uniform", 3, 2)
        pred = train_predictor(nu, TrainConfig(steps=0, seed=0))
        rows = pred.marginals_batch(np.zeros((4, 6)), 1.0)
        np.testing.assert_allclose(rows.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(rows > 0.0)

    def test_divergence_reports_step(self):
        # a learning rate near the float ceiling overflows the logits at step 2
        self._assert_diverges_like_reference()

    def test_divergence_reports_step_past_the_first_chunk(self, monkeypatch):
        monkeypatch.setattr(predictors, "_TRAIN_CHUNK", 1)
        self._assert_diverges_like_reference()

    @staticmethod
    def _assert_diverges_like_reference():
        nu = make_joint("uniform", 2, 1)
        cfg = TrainConfig(steps=50, learning_rate=1e305, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train_predictor(nu, cfg)
            with pytest.raises(TrainingDiverged) as ref:
                _reference_train(nu, cfg)
        assert err.value.step == ref.value.step
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 300])
    @pytest.mark.parametrize("hidden", [8, 64])
    def test_bit_identical_to_per_step_loop(self, dirichlet3x2, steps, hidden):
        cfg = TrainConfig(steps=steps, hidden=hidden, seed=7)
        self._assert_matches_reference(dirichlet3x2, cfg)

    def test_bit_identical_at_the_cap(self):
        nu = make_joint("dirichlet", 4, 6, seed=1, alpha=0.8)
        self._assert_matches_reference(nu, TrainConfig(steps=65, hidden=64, seed=8))

    @pytest.mark.parametrize("chunk", [1, 1000])
    def test_bit_identical_for_any_chunk_size(self, monkeypatch, dirichlet3x2, chunk):
        monkeypatch.setattr(predictors, "_TRAIN_CHUNK", chunk)
        monkeypatch.setattr(predictors, "_TRAIN_CHUNK_BYTES", 1 << 40)
        self._assert_matches_reference(dirichlet3x2, TrainConfig(steps=300, hidden=8, seed=9))

    @staticmethod
    def _assert_matches_reference(nu, cfg):
        pred = train_predictor(nu, cfg)
        params, losses = _reference_train(nu, cfg)
        assert list(pred.params) == list(params)
        for key, w in params.items():
            np.testing.assert_array_equal(pred.params[key], w, err_msg=key)
        np.testing.assert_array_equal(pred.loss_history, losses)

    def test_trains_on_the_sampling_feature_map(self, monkeypatch, dirichlet3x2):
        # training reads its inputs through the map marginals_batch applies, so
        # shifting that map's sigma_u column changes the trained weights
        cfg = TrainConfig(steps=5, hidden=8, seed=7)
        plain = train_predictor(dirichlet3x2, cfg)
        features = TrainedPredictor._features

        def shifted(self, states, u):
            feats = features(self, states, u)
            feats[:, -1] += 0.5
            return feats

        monkeypatch.setattr(TrainedPredictor, "_features", shifted)
        got = train_predictor(dirichlet3x2, cfg).params
        assert any(not np.array_equal(got[key], w) for key, w in plain.params.items())


class TestTrainedForward:
    @pytest.mark.parametrize("n", [1, 7, 1024])
    def test_marginals_batch_bit_identical_to_dense_formula(self, n):
        nu = make_joint("dirichlet", 4, 3, seed=2, alpha=0.8)
        pred = train_predictor(nu, TrainConfig(steps=40, hidden=16, seed=3))
        states = derive_rng(n, "forward").standard_normal((n, 12))
        p = pred.params
        feats = pred._features(states, 0.7)
        logits = np.tanh(feats @ p["w1"].T + p["b1"]) @ p["w2"].T + p["b2"]
        got = pred.marginals_batch(states, 0.7)
        np.testing.assert_array_equal(got, rowwise_softmax(logits.reshape(n, 3, 4)))


class TestSerialization:
    def test_round_trip(self, copy3x2):
        pred = train_predictor(copy3x2, TrainConfig(steps=200, seed=4))
        doc = pred.to_json_dict()
        clone = TrainedPredictor.from_json_dict(json.loads(json.dumps(doc)))
        x = np.linspace(-1, 1, 6)[None, :]
        np.testing.assert_array_equal(pred.marginals_batch(x, 0.7), clone.marginals_batch(x, 0.7))

    def test_shape_validation(self, copy3x2):
        pred = train_predictor(copy3x2, TrainConfig(steps=10, seed=5))
        doc = pred.to_json_dict()
        doc["weights"]["w1"] = doc["weights"]["w1"][:-1]
        with pytest.raises(ValueError):
            TrainedPredictor.from_json_dict(doc)
        doc2 = pred.to_json_dict()
        doc2["widths"] = [99, 64, 6]
        with pytest.raises(ValueError):
            TrainedPredictor.from_json_dict(doc2)

    def test_file_round_trip(self, tmp_path, copy3x2):
        pred = train_predictor(copy3x2, TrainConfig(steps=10, seed=6))
        path = tmp_path / "pred.json"
        pred.save(path)
        clone = TrainedPredictor.load(path)
        x = np.zeros((1, 6))
        np.testing.assert_array_equal(pred.marginals_batch(x, 1.0), clone.marginals_batch(x, 1.0))


class TestTemperature:
    def test_identity_at_one(self):
        rows = np.array([[0.3, 0.7], [0.9, 0.1]])
        np.testing.assert_allclose(temperature_rows(rows, 1.0), rows, atol=1e-12)

    def test_symmetric_row_fixed(self):
        rows = np.array([[0.5, 0.5]])
        for tau in (0.2, 0.7, 3.0):
            np.testing.assert_allclose(temperature_rows(rows, tau), 0.5, atol=1e-14)

    def test_hand_value(self):
        got = temperature_rows(np.array([[0.8, 0.2]]), 0.5)[0]
        np.testing.assert_allclose(got, [0.64 / 0.68, 0.04 / 0.68], rtol=1e-12)

    def test_argmax_preserved(self):
        rng = derive_rng(3, "tau")
        for _ in range(100):
            rows = rng.dirichlet(np.ones(5), size=3)
            tau = rng.uniform(0.05, 5.0)
            out = temperature_rows(rows, tau)
            np.testing.assert_array_equal(out.argmax(axis=1), rows.argmax(axis=1))

    def test_zeros_stay_zero(self):
        rows = np.array([[0.0, 0.4, 0.6]])
        out = temperature_rows(rows, 0.5)
        assert out[0, 0] == 0.0
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_rejects_nonpositive(self):
        # and the non-finite values, which would return NaN rows
        for tau in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"got {tau!r}"):
                temperature_rows(np.array([[0.5, 0.5, 0.0]]), tau)


class TestNucleus:
    def test_identity_at_one(self):
        rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        np.testing.assert_allclose(nucleus_rows(rows, 1.0), rows, atol=1e-12)

    def test_hand_value(self):
        got = nucleus_rows(np.array([[0.6, 0.3, 0.1]]), 0.85)[0]
        np.testing.assert_allclose(got, [2.0 / 3.0, 1.0 / 3.0, 0.0], rtol=1e-12)

    def test_identity_at_one_keeps_tiny_tail(self):
        rows = np.array([[1.0 - 1e-13, 1e-13, 0.0]])
        out = nucleus_rows(rows, 1.0)
        np.testing.assert_array_equal(out, rows)
        assert out is not rows

    def test_tie_break_low_index(self):
        np.testing.assert_allclose(nucleus_rows(np.array([[0.5, 0.5]]), 0.4)[0], [1.0, 0.0], atol=1e-15)

    def test_support_subset_and_proportionality(self):
        rng = derive_rng(4, "nuc")
        for _ in range(100):
            row = rng.dirichlet(np.ones(6))
            p = rng.uniform(0.1, 1.0)
            out = nucleus_rows(row[None, :], p)[0]
            kept = out > 0.0
            assert np.all(row[kept] > 0.0)
            ratios = out[kept] / row[kept]
            np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            nucleus_rows(np.array([[1.0]]), 0.0)
        with pytest.raises(ValueError):
            nucleus_rows(np.array([[1.0]]), 1.5)
