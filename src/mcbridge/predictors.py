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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .discrete import JointDist, checked_keys, index_matrix, onehot, parse_json
from .oracle import logsumexp, posterior_marginals, row_softmax
from .seeding import check_seed, derive_rng


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite training loss {loss!r} at step {step}")
        self.step = step
        self.loss = loss


class MarginalPredictor(ABC):
    """Contract: (state, noise level) -> row-stochastic L x V marginal table."""

    vocab: int
    length: int

    @abstractmethod
    def marginals_batch(self, states: np.ndarray, u: float) -> np.ndarray:
        """(n, L*V) states at one shared level -> (n, L, V) marginal rows."""


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

    Noise levels are drawn uniformly from [u_min, horizon] and every level is
    weighted equally; optimization is plain SGD at a fixed learning rate.
    """

    steps: int = 20000
    batch: int = 64
    learning_rate: float = 0.05
    hidden: int = 64
    u_min: float = 0.01
    horizon: float = 6.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 0 or self.batch < 1 or self.hidden < 1:
            raise ValueError("steps must be >= 0 and batch/hidden >= 1")
        for key in ("learning_rate", "u_min", "horizon"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"train option {key!r} must be finite, got {getattr(self, key)!r}")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 < self.u_min < self.horizon:
            raise ValueError("need 0 < u_min < horizon")
        check_seed(self.seed)


def _layout(vocab: int, length: int, hidden: int) -> tuple[list[int], dict[str, tuple[int, ...]]]:
    """The network's widths [inputs, hidden, outputs] and its weights' shapes in storage order.

    The inputs are the L*V state coordinates followed by c_u and sigma_u (see
    ``TrainedPredictor._features``); the outputs are the L*V logits. Layer i
    has weight w<i> of shape (widths[i], widths[i - 1]) and bias b<i>.
    """
    n_in, n_out = vocab * length + 2, vocab * length
    return [n_in, hidden, n_out], {"w1": (hidden, n_in), "b1": (hidden,), "w2": (n_out, hidden), "b2": (n_out,)}


def _split(vec: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of consecutive slices of ``vec`` with the given shapes, in order."""
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1]
    return {key: part.reshape(shape) for (key, shape), part in zip(shapes.items(), np.split(vec, ends))}


class TrainedPredictor(MarginalPredictor):
    """One-hidden-layer tanh network over (state, c_u, sigma_u) features.

    Outputs L*V logits reshaped to rows with a per-row softmax, so every row
    is a strictly positive distribution even before any training. ``weights``
    is one flat vector in ``_layout``'s storage order and ``params`` holds
    its views by name, so an update of ``weights`` is an update of every layer.
    """

    def __init__(self, vocab: int, length: int, config: TrainConfig, weights: np.ndarray):
        self.vocab = vocab
        self.length = length
        self.config = config
        self.weights = weights
        self.params = _split(weights, _layout(vocab, length, config.hidden)[1])
        self.loss_history: np.ndarray = np.empty(0)

    @classmethod
    def initial(cls, vocab: int, length: int, config: TrainConfig) -> "TrainedPredictor":
        """Every weight and bias of layer i uniform on +-1/sqrt(widths[i - 1]), drawn in storage order."""
        rng = derive_rng(config.seed, "init")
        widths, shapes = _layout(vocab, length, config.hidden)
        parts = []
        for key, shape in shapes.items():
            s = 1.0 / math.sqrt(widths[int(key[1:]) - 1])
            parts.append(rng.uniform(-s, s, size=math.prod(shape)))
        return cls(vocab, length, config, np.concatenate(parts))

    def _features(self, states: np.ndarray, u: float | np.ndarray) -> np.ndarray:
        """The network inputs, ``_layout``'s widths[0] columns: each state, then its c_u and sigma_u."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        u_arr = np.broadcast_to(np.asarray(u, dtype=float), (states.shape[0],))
        c = np.exp(-u_arr)
        sigma = np.sqrt(-np.expm1(-2.0 * u_arr))
        return np.concatenate([states, c[:, None], sigma[:, None]], axis=1)

    def _logits(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = feats @ self.params["w1"].T
        hidden += self.params["b1"]
        np.tanh(hidden, out=hidden)
        logits = hidden @ self.params["w2"].T
        logits += self.params["b2"]
        return logits, hidden

    def marginals_batch(self, states: np.ndarray, u: float) -> np.ndarray:
        logits, _ = self._logits(self._features(states, u))
        return row_softmax(logits.reshape(-1, self.length, self.vocab))

    def to_json_dict(self) -> dict:
        return {
            "widths": _layout(self.vocab, self.length, self.config.hidden)[0],
            "weights": {k: [float(v) for v in w.reshape(-1)] for k, w in self.params.items()},
            "config": {"vocab": self.vocab, "length": self.length, **asdict(self.config)},
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
        schema = {"config": {}, "widths": [0], "weights": {}}
        doc = checked_keys(schema, doc, "predictor key", required=schema)
        types = {"vocab": 0, "length": 0, **{f.name: f.default for f in fields(TrainConfig)}}
        cfg_doc = checked_keys(types, doc["config"], "predictor config key", required=("vocab", "length"))
        vocab, length = cfg_doc.pop("vocab"), cfg_doc.pop("length")
        if vocab < 1 or length < 1:
            raise ValueError(f"predictor config keys 'vocab' and 'length' must be >= 1, got {vocab} and {length}")
        config = TrainConfig(**cfg_doc)
        widths, shapes = _layout(vocab, length, config.hidden)
        if doc["widths"] != widths:
            raise ValueError(f"predictor key 'widths' must be {widths} for its config, got {doc['widths']!r}")
        parts = []
        for key, shape in shapes.items():
            try:
                flat = np.asarray(doc["weights"][key], dtype=float).reshape(-1)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"predictor weight {key!r} is missing or not an array of numbers: {exc}") from exc
            if flat.size != math.prod(shape):
                raise ValueError(f"weight {key} has {flat.size} values, expected {math.prod(shape)}")
            if not np.all(np.isfinite(flat)):
                raise ValueError(f"weight {key} has non-finite values")
            parts.append(flat)
        return cls(vocab, length, config, np.concatenate(parts))

    @classmethod
    def load(cls, path: str | Path) -> "TrainedPredictor":
        return cls.from_json_dict(parse_json(Path(path).read_text(encoding="utf-8")))


def oracle_predictor(nu: JointDist) -> OraclePredictor:
    return OraclePredictor(nu)


# SGD steps whose batches are drawn and featurized in one pass. At the V^L =
# 4096 cap (4^6, batch 64) a chunk's arrays stay under 1 MB; wider states or
# larger batches get fewer steps per chunk (at least one), so a chunk array
# never exceeds the larger of 1 MB and one step's share.
_TRAIN_CHUNK = 64
_TRAIN_CHUNK_BYTES = 1 << 20


def train_predictor(nu: JointDist, cfg: TrainConfig) -> TrainedPredictor:
    """Fit the marginal predictor with the denoising cross-entropy objective.

    Each step draws a batch of clean sequences, noise levels u ~ U[u_min, T],
    and Gaussian noise, in that order; the input is c_u e(w) + sigma_u z and
    the loss is the summed negative log-probability of the clean tokens.
    Steps run in chunks of up to _TRAIN_CHUNK: the chunk's batches are drawn
    step by step in the order above, then noised and passed through
    ``TrainedPredictor._features``, the map sampling applies, in one pass, so
    params and losses do not depend on the chunk size. Aborts with the step
    index when the loss goes non-finite. Per-step losses are kept on the
    returned predictor as ``loss_history``.
    """
    vocab, length, batch = nu.vocab, nu.length, cfg.batch
    dim = vocab * length
    # the one-hot states of every sequence are built once and indexed
    table = index_matrix(vocab, length)
    onehots = onehot(table, vocab)
    widths, shapes = _layout(vocab, length, cfg.hidden)
    pred = TrainedPredictor.initial(vocab, length, cfg)
    # the gradients are views of one buffer laid out as pred.weights, so a
    # step's update is a single pass
    grad = np.empty_like(pred.weights)
    g = _split(grad, shapes)
    w2 = pred.params["w2"]
    lr = cfg.learning_rate
    rng = derive_rng(cfg.seed, "train")
    losses = np.empty(cfg.steps)

    chunk = max(1, min(_TRAIN_CHUNK, _TRAIN_CHUNK_BYTES // (8 * batch * widths[0])))
    picked = np.empty((chunk, batch), dtype=np.intp)
    u = np.empty((chunk, batch))
    noise = np.empty((chunk, batch, dim))
    # offset of logit (b, l, 0) in a step's flattened (batch, L, V) logits
    row_base = (np.arange(batch)[:, None] * length + np.arange(length)) * vocab
    for start in range(0, cfg.steps, chunk):
        m = min(chunk, cfg.steps - start)
        for j in range(m):
            picked[j] = nu.sample_indices(rng, batch)
            u[j] = rng.uniform(cfg.u_min, cfg.horizon, size=batch)
            rng.standard_normal(out=noise[j])
        # the noised states sigma_u z + c_u e(w), in place of the noise
        noise[:m] *= np.sqrt(-np.expm1(-2.0 * u[:m]))[:, :, None]
        noise[:m] += onehots[picked[:m]] * np.exp(-u[:m])[:, :, None]
        feats = pred._features(noise[:m].reshape(-1, dim), u[:m].reshape(-1)).reshape(m, batch, widths[0])
        targets = row_base + table[picked[:m]]

        for j in range(m):
            x, tok = feats[j], targets[j]
            logits, hidden = pred._logits(x)
            logits = logits.reshape(batch, length, vocab)
            lognorm = logsumexp(logits)
            # the sum over the batch divided by its size is the bits .mean() gives
            loss = float((lognorm - logits.take(tok)).sum(axis=1).sum()) / batch
            losses[start + j] = loss
            if not math.isfinite(loss):
                raise TrainingDiverged(start + j, loss)

            probs = logits - lognorm[:, :, None]
            np.exp(probs, out=probs)
            dlogits = probs.reshape(batch, dim)
            dlogits.reshape(-1)[tok] -= 1.0
            dlogits /= batch
            np.matmul(dlogits.T, hidden, out=g["w2"])
            dlogits.sum(axis=0, out=g["b2"])
            dpre = dlogits @ w2
            dpre *= 1.0 - hidden * hidden
            np.matmul(dpre.T, x, out=g["w1"])
            dpre.sum(axis=0, out=g["b1"])
            grad *= lr
            pred.weights -= grad
    pred.loss_history = losses
    return pred


def temperature_rows(rows: np.ndarray, tau: float) -> np.ndarray:
    """Raise rows to the power 1/tau and renormalize (argmax-preserving)."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"temperature must be finite and > 0, got {tau!r}")
    rows = np.asarray(rows, dtype=float)
    if tau == 1.0:
        return rows.copy()
    with np.errstate(divide="ignore"):
        logr = np.log(rows) / tau
    return row_softmax(logr)


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
