"""Posterior-marginal predictors and categorical decoding transforms.

A predictor maps a continuous state and a forward noise level to the L x V
table of clean-token posterior marginals. Two implementations are provided:
an exact one backed by the brute-force posterior (usable whenever V^L is
enumerable) and a small trainable network fit with the denoising
cross-entropy objective. Temperature and nucleus transforms act on the
predicted rows before endpoint sampling.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .discrete import JointDist, index_matrix, json_type_matches, onehot
from .oracle import MarginalTable, logsumexp, posterior_marginals
from .seeding import derive_rng


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite training loss {loss!r} at step {step}")
        self.step = step


class MarginalPredictor(ABC):
    """Contract: (state, noise level) -> row-stochastic L x V marginal table."""

    vocab: int
    length: int

    @abstractmethod
    def marginals_batch(self, states: np.ndarray, u: float) -> np.ndarray:
        """(n, L*V) states at one shared level -> (n, L, V) marginal rows."""

    def marginals(self, x: np.ndarray, u: float) -> MarginalTable:
        rows = self.marginals_batch(np.asarray(x, dtype=float)[None, :], u)[0]
        return MarginalTable(probs=rows, level=float(u))


class OraclePredictor(MarginalPredictor):
    """Exact posterior marginals by enumeration; the reference predictor."""

    def __init__(self, nu: JointDist):
        self.nu = nu
        self.vocab = nu.vocab
        self.length = nu.length

    def marginals_batch(self, states: np.ndarray, u: float) -> np.ndarray:
        return posterior_marginals(self.nu, u, states)


@dataclass(frozen=True)
class TrainConfig:
    """Budget and shape of the trainable predictor.

    Noise levels are drawn uniformly from [u_min, horizon] with constant
    per-level weighting; optimization is plain SGD at a fixed learning rate.
    """

    steps: int = 20000
    batch: int = 64
    learning_rate: float = 0.05
    hidden: int = 64
    u_min: float = 0.01
    horizon: float = 6.0
    weighting: str = "constant"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 0 or self.batch < 1 or self.hidden < 1:
            raise ValueError("steps must be >= 0 and batch/hidden >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 < self.u_min < self.horizon:
            raise ValueError("need 0 < u_min < horizon")
        if self.weighting != "constant":
            raise ValueError(f"unsupported weighting {self.weighting!r}")


class TrainedPredictor(MarginalPredictor):
    """One-hidden-layer tanh network over (state, c_u, sigma_u) features.

    Outputs L*V logits reshaped to rows with a per-row softmax, so every row
    is a strictly positive distribution even before any training.
    """

    def __init__(self, vocab: int, length: int, params: dict[str, np.ndarray], config: TrainConfig):
        self.vocab = vocab
        self.length = length
        self.params = params
        self.config = config
        self.loss_history: np.ndarray = np.empty(0)

    @classmethod
    def initial(cls, vocab: int, length: int, config: TrainConfig) -> "TrainedPredictor":
        rng = derive_rng(config.seed, "init")
        n_in = vocab * length + 2
        n_out = vocab * length

        def uniform(shape, fan_in):
            s = 1.0 / math.sqrt(fan_in)
            return rng.uniform(-s, s, size=shape)

        params = {
            "w1": uniform((config.hidden, n_in), n_in),
            "b1": uniform((config.hidden,), n_in),
            "w2": uniform((n_out, config.hidden), config.hidden),
            "b2": uniform((n_out,), config.hidden),
        }
        return cls(vocab, length, params, config)

    def _features(self, states: np.ndarray, u: float | np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        u_arr = np.broadcast_to(np.asarray(u, dtype=float), (states.shape[0],))
        c = np.exp(-u_arr)
        sigma = np.sqrt(-np.expm1(-2.0 * u_arr))
        return np.concatenate([states, c[:, None], sigma[:, None]], axis=1)

    def _logits(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(feats @ self.params["w1"].T + self.params["b1"])
        logits = hidden @ self.params["w2"].T + self.params["b2"]
        return logits, hidden

    def marginals_batch(self, states: np.ndarray, u: float) -> np.ndarray:
        logits, _ = self._logits(self._features(states, u))
        logits = logits.reshape(-1, self.length, self.vocab)
        return np.exp(logits - logsumexp(logits, axis=2, keepdims=True))

    def to_json_dict(self) -> dict:
        n_in = self.vocab * self.length + 2
        widths = [n_in, self.config.hidden, self.vocab * self.length]
        return {
            "widths": widths,
            "weights": {k: [float(v) for v in w.reshape(-1)] for k, w in self.params.items()},
            "config": {
                "vocab": self.vocab,
                "length": self.length,
                "steps": self.config.steps,
                "batch": self.config.batch,
                "learning_rate": self.config.learning_rate,
                "hidden": self.config.hidden,
                "u_min": self.config.u_min,
                "horizon": self.config.horizon,
                "weighting": self.config.weighting,
                "seed": self.config.seed,
            },
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n", encoding="utf-8")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainedPredictor":
        """Inverse of ``to_json_dict``; a malformed document raises ValueError naming the key.

        Config keys other than vocab and length may be missing; they take the
        ``TrainConfig`` defaults.
        """
        if not isinstance(doc, dict):
            raise ValueError("predictor document must be a JSON object")
        for key, kind in (("config", dict), ("widths", list), ("weights", dict)):
            if not isinstance(doc.get(key), kind):
                raise ValueError(f"predictor key {key!r} must hold a JSON {'object' if kind is dict else 'array'}")
        cfg_doc = dict(doc["config"])
        types = {"vocab": 0, "length": 0, **{f.name: f.default for f in fields(TrainConfig)}}
        for key, value in cfg_doc.items():
            if key not in types:
                raise ValueError(f"unknown predictor config key {key!r}")
            if not json_type_matches(types[key], value):
                raise ValueError(f"predictor config key {key!r} must have the JSON type of {types[key]!r}")
        vocab, length = cfg_doc.pop("vocab", 0), cfg_doc.pop("length", 0)
        if vocab < 1 or length < 1:
            raise ValueError(f"predictor config keys 'vocab' and 'length' must be >= 1, got {vocab} and {length}")
        config = TrainConfig(**cfg_doc)
        widths = doc["widths"]
        if len(widths) != 3 or not json_type_matches([0], widths):
            raise ValueError(f"predictor key 'widths' must hold 3 integers, got {widths!r}")
        n_in, hidden, n_out = widths
        if n_in != vocab * length + 2 or n_out != vocab * length or hidden != config.hidden:
            raise ValueError(f"inconsistent widths {widths} for V={vocab}, L={length}")
        shapes = {"w1": (hidden, n_in), "b1": (hidden,), "w2": (n_out, hidden), "b2": (n_out,)}
        params = {}
        for key, shape in shapes.items():
            try:
                flat = np.asarray(doc["weights"][key], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"predictor weight {key!r} is missing or not an array of numbers: {exc}") from exc
            if flat.size != int(np.prod(shape)):
                raise ValueError(f"weight {key} has {flat.size} values, expected {np.prod(shape)}")
            if not np.all(np.isfinite(flat)):
                raise ValueError(f"weight {key} has non-finite values")
            params[key] = flat.reshape(shape)
        return cls(vocab, length, params, config)

    @classmethod
    def load(cls, path: str | Path) -> "TrainedPredictor":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def oracle_predictor(nu: JointDist) -> OraclePredictor:
    return OraclePredictor(nu)


def _corpus_sampler(data: JointDist | np.ndarray, vocab: int, length: int):
    """draw(rng, n) -> (one-hot states, token ids) of n training sequences."""
    if isinstance(data, JointDist):
        table, sample = index_matrix(vocab, length), data.sample_indices
    else:
        table = np.asarray(data, dtype=int)
        if table.ndim != 2 or table.shape[1] != length:
            raise ValueError(f"corpus must be (n, {length}) token ids, got {table.shape}")
        if table.min() < 0 or table.max() >= vocab:
            raise ValueError("corpus contains out-of-vocabulary ids")

        def sample(rng: np.random.Generator, n: int) -> np.ndarray:
            return rng.integers(0, table.shape[0], size=n)

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        toks = table[sample(rng, n)]
        return onehot(toks, vocab), toks

    return draw


def train_predictor(
    data: JointDist | np.ndarray,
    cfg: TrainConfig,
    vocab: int | None = None,
    length: int | None = None,
) -> TrainedPredictor:
    """Fit the marginal predictor with the denoising cross-entropy objective.

    Each step draws a batch of clean sequences, noise levels u ~ U[u_min, T],
    and Gaussian noise; the input is c_u e(w) + sigma_u z and the loss is the
    summed negative log-probability of the clean tokens. Aborts with the step
    index when the loss goes non-finite. Per-step losses are kept on the
    returned predictor as ``loss_history``.
    """
    if isinstance(data, JointDist):
        vocab, length = data.vocab, data.length
    elif vocab is None or length is None:
        raise ValueError("corpus training needs explicit vocab and length")
    draw = _corpus_sampler(data, vocab, length)
    pred = TrainedPredictor.initial(vocab, length, cfg)
    rng = derive_rng(cfg.seed, "train")
    lr = cfg.learning_rate
    losses = np.empty(cfg.steps)
    arange = np.arange(cfg.batch)
    for step in range(cfg.steps):
        states, toks = draw(rng, cfg.batch)
        u = rng.uniform(cfg.u_min, cfg.horizon, size=cfg.batch)
        c = np.exp(-u)
        sigma = np.sqrt(-np.expm1(-2.0 * u))
        noisy = c[:, None] * states + sigma[:, None] * rng.standard_normal(states.shape)
        feats = np.concatenate([noisy, c[:, None], sigma[:, None]], axis=1)

        logits, hidden = pred._logits(feats)
        logits = logits.reshape(cfg.batch, length, vocab)
        lognorm = logsumexp(logits, axis=2)
        picked = logits[arange[:, None], np.arange(length)[None, :], toks]
        loss = float((lognorm - picked).sum(axis=1).mean())
        losses[step] = loss
        if not math.isfinite(loss):
            raise TrainingDiverged(step, loss)

        probs = np.exp(logits - lognorm[:, :, None])
        probs[arange[:, None], np.arange(length)[None, :], toks] -= 1.0
        dlogits = probs.reshape(cfg.batch, length * vocab) / cfg.batch
        dw2 = dlogits.T @ hidden
        db2 = dlogits.sum(axis=0)
        dhidden = dlogits @ pred.params["w2"]
        dpre = dhidden * (1.0 - hidden * hidden)
        dw1 = dpre.T @ feats
        db1 = dpre.sum(axis=0)
        pred.params["w2"] -= lr * dw2
        pred.params["b2"] -= lr * db2
        pred.params["w1"] -= lr * dw1
        pred.params["b1"] -= lr * db1
    pred.loss_history = losses
    return pred


def temperature_rows(rows: np.ndarray, tau: float) -> np.ndarray:
    """Raise rows to the power 1/tau and renormalize (argmax-preserving)."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    rows = np.asarray(rows, dtype=float)
    if tau == 1.0:
        return rows.copy()
    with np.errstate(divide="ignore"):
        logr = np.log(rows) / tau
    out = np.exp(logr - logsumexp(logr, axis=-1, keepdims=True))
    return out


def nucleus_rows(rows: np.ndarray, p: float) -> np.ndarray:
    """Keep the smallest descending-sorted prefix with cumulative mass >= p.

    Sorting is stable on the negated rows, so ties keep the lower token id
    first; kept entries are renormalized, the rest zeroed. p = 1 returns the
    rows unchanged (a copy), so no tail mass is cut by cumulative rounding.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"nucleus threshold must lie in (0, 1], got {p}")
    rows = np.asarray(rows, dtype=float)
    if p == 1.0:
        return rows.copy()
    order = np.argsort(-rows, axis=-1, kind="stable")
    sorted_rows = np.take_along_axis(rows, order, axis=-1)
    cum = np.cumsum(sorted_rows, axis=-1)
    # first position where the cumulative mass reaches p is still kept
    reached = cum >= p - 1e-12
    cut = np.argmax(reached, axis=-1)
    keep_sorted = np.arange(rows.shape[-1]) <= cut[..., None]
    keep = np.zeros_like(rows, dtype=bool)
    np.put_along_axis(keep, order, keep_sorted, axis=-1)
    out = np.where(keep, rows, 0.0)
    return out / out.sum(axis=-1, keepdims=True)


def apply_temperature(m: MarginalTable, tau: float) -> MarginalTable:
    return MarginalTable(probs=temperature_rows(m.probs, tau), level=m.level)


def apply_nucleus(m: MarginalTable, p: float) -> MarginalTable:
    return MarginalTable(probs=nucleus_rows(m.probs, p), level=m.level)
