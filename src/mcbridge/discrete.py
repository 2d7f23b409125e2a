"""Vocabulary, one-hot embedding, sequence enumeration, and explicit joints.

Every token <-> index <-> one-hot conversion in the package lives here.
Sequences of length L over a V-token vocabulary are embedded into R^(L*V),
block l holding the one-hot indicator of token l. Distributions over the
V^L sequences are stored as dense tables indexed big-endian:
index(w) = sum_l w_l * V^(L-1-l).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_ENUM_CAP = 4096

_SUM_TOL = 1e-12


class EnumerationLimitError(ValueError):
    """V^L exceeds the configured enumeration cap."""


def _check_space(vocab: int, length: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    if vocab < 1 or length < 1:
        raise ValueError(f"need vocab >= 1 and length >= 1, got V={vocab}, L={length}")
    n = vocab**length
    if n > cap:
        raise EnumerationLimitError(f"V^L = {n} exceeds the enumeration cap {cap}")
    return n


@dataclass(frozen=True)
class TokenSequence:
    """A length-L word over token ids {0, ..., V-1}."""

    tokens: tuple[int, ...]
    vocab: int

    def __post_init__(self) -> None:
        if self.vocab < 1:
            raise ValueError(f"vocab must be >= 1, got {self.vocab}")
        if len(self.tokens) < 1:
            raise ValueError("empty sequence")
        for tok in self.tokens:
            if not 0 <= tok < self.vocab:
                raise ValueError(f"token id {tok} outside vocabulary of size {self.vocab}")

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def index(self) -> int:
        """Big-endian index of this sequence in the enumerated space."""
        idx = 0
        for tok in self.tokens:
            idx = idx * self.vocab + tok
        return idx

    @classmethod
    def from_index(cls, index: int, vocab: int, length: int) -> "TokenSequence":
        if not 0 <= index < vocab**length:
            raise ValueError(f"index {index} out of range for V={vocab}, L={length}")
        toks = []
        for _ in range(length):
            index, tok = divmod(index, vocab)
            toks.append(tok)
        return cls(tokens=tuple(reversed(toks)), vocab=vocab)


def onehot(tokens: np.ndarray, vocab: int) -> np.ndarray:
    """One-hot states (..., L*V) of token ids (..., L); block l is the basis vector of token l."""
    tokens = np.asarray(tokens, dtype=int)
    flat = tokens.reshape(-1, tokens.shape[-1])
    n, length = flat.shape
    out = np.zeros((n, length * vocab))
    rows = np.arange(n)
    for pos in range(length):
        out[rows, pos * vocab + flat[:, pos]] = 1.0
    return out.reshape(tokens.shape[:-1] + (length * vocab,))


def token_index(tokens: np.ndarray, vocab: int) -> np.ndarray:
    """Big-endian indices (...) of token ids (..., L) in the enumerated space."""
    tokens = np.asarray(tokens, dtype=int)
    return tokens @ vocab ** np.arange(tokens.shape[-1] - 1, -1, -1)


def onehot_tokens(states: np.ndarray, vocab: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-block argmax token ids (n, L) of (n, L*V) states, and which rows are exactly one-hot."""
    blocks = np.asarray(states, dtype=float).reshape(len(states), -1, vocab)
    exact = np.all((blocks == 0.0) | (blocks == 1.0), axis=(1, 2)) & np.all(blocks.sum(axis=2) == 1.0, axis=1)
    return np.argmax(blocks, axis=2), exact


def encode(seq: TokenSequence) -> np.ndarray:
    """One-hot state vector in R^(L*V); block l is the basis vector of token l."""
    return onehot(seq.tokens, seq.vocab)


def decode_argmax(x: np.ndarray, vocab: int) -> TokenSequence:
    """Per-block argmax decoding; ties break toward the lowest token id."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size % vocab != 0:
        raise ValueError(f"state of size {x.size} is not a multiple of V={vocab}")
    toks = np.argmax(x.reshape(-1, vocab), axis=1)
    return TokenSequence(tokens=tuple(int(t) for t in toks), vocab=vocab)


def enumerate_sequences(vocab: int, length: int, cap: int = DEFAULT_ENUM_CAP) -> list[TokenSequence]:
    """All V^L sequences in big-endian index order."""
    n = _check_space(vocab, length, cap)
    return [TokenSequence.from_index(i, vocab, length) for i in range(n)]


def index_matrix(vocab: int, length: int, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """(V^L, L) int array of token ids, row i being the sequence at index i."""
    n = _check_space(vocab, length, cap)
    idx = np.arange(n)
    cols = []
    for pos in range(length):
        power = vocab ** (length - 1 - pos)
        cols.append((idx // power) % vocab)
    return np.stack(cols, axis=1)


def onehot_matrix(vocab: int, length: int, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """(V^L, L*V) matrix whose row i is encode(sequence i)."""
    return onehot(index_matrix(vocab, length, cap), vocab)


def product_table(rows: np.ndarray) -> np.ndarray:
    """(V^L,) table of prod_l rows[l, w_l] over the big-endian indices w of (L, V) rows."""
    probs = np.ones(1)
    for row in rows:
        probs = np.multiply.outer(probs, row).reshape(-1)
    return probs


def json_type_matches(default, value) -> bool:
    """value has the JSON type of default; ints pass for floats, a None default takes anything,
    and each element of a list must match the default list's first element."""
    if default is None:
        return True
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if not isinstance(value, (int, float) if isinstance(default, float) else type(default)):
        return False
    if isinstance(default, list) and default:
        return all(json_type_matches(default[0], v) for v in value)
    return True


@dataclass(frozen=True)
class JointDist:
    """Explicit probability table over all V^L sequences (big-endian indexed)."""

    vocab: int
    length: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        # the enumeration cap guards operations that build V^L x (L*V)
        # matrices; holding the table itself only needs the V^L entries
        if self.vocab < 1 or self.length < 1:
            raise ValueError(f"need vocab >= 1 and length >= 1, got V={self.vocab}, L={self.length}")
        n = self.vocab**self.length
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (n,):
            raise ValueError(f"probs must have shape ({n},), got {p.shape}")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite and nonnegative")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probs sum to {p.sum()!r}, not 1 within {_SUM_TOL}")
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.vocab * self.length

    def prob_of(self, seq: TokenSequence) -> float:
        return float(self.probs[seq.index])

    def sequence_at(self, index: int) -> TokenSequence:
        return TokenSequence.from_index(index, self.vocab, self.length)

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n iid sequence indices via inverse CDF on one uniform per draw."""
        cdf = np.cumsum(self.probs)
        u = rng.random(n)
        return np.minimum(np.searchsorted(cdf, u, side="left"), self.probs.size - 1)

    def position_marginals(self) -> np.ndarray:
        """(L, V) matrix of per-position token marginals."""
        onehot = onehot_matrix(self.vocab, self.length)
        return (self.probs @ onehot).reshape(self.length, self.vocab)

    def entropy(self) -> float:
        p = self.probs[self.probs > 0.0]
        return float(-(p * np.log(p)).sum())

    def to_json_dict(self) -> dict:
        return {"V": self.vocab, "L": self.length, "probs": [float(p) for p in self.probs]}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n", encoding="utf-8")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "JointDist":
        try:
            vocab, length, probs = int(doc["V"]), int(doc["L"]), np.asarray(doc["probs"], dtype=float)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed distribution document: {exc}") from exc
        return cls(vocab=vocab, length=length, probs=probs)

    @classmethod
    def load(cls, path: str | Path) -> "JointDist":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def make_joint(
    kind: str,
    vocab: int,
    length: int,
    *,
    seed: int | None = None,
    alpha: float = 1.0,
    marginals: np.ndarray | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> JointDist:
    """Test-distribution factory.

    kind:
      uniform   - all V^L entries equal
      product   - outer product of the supplied (L, V) per-position marginals
      copy      - uniform over the V constant sequences (w, w, ..., w)
      dirichlet - one draw with concentration alpha from the given seed
    """
    n = _check_space(vocab, length, cap)
    if kind == "uniform":
        probs = np.full(n, 1.0 / n)
    elif kind == "copy":
        probs = np.zeros(n)
        step = (n - 1) // (vocab - 1) if vocab > 1 else 0
        probs[np.arange(vocab) * step] = 1.0 / vocab
    elif kind == "product":
        if marginals is None:
            raise ValueError("product joints need per-position marginals")
        m = np.asarray(marginals, dtype=float)
        if m.shape != (length, vocab):
            raise ValueError(f"marginals must have shape ({length}, {vocab}), got {m.shape}")
        if np.any(m < 0.0) or np.any(np.abs(m.sum(axis=1) - 1.0) > _SUM_TOL):
            raise ValueError("each marginal row must be nonnegative and sum to 1")
        probs = product_table(m)
    elif kind == "dirichlet":
        if seed is None:
            raise ValueError("dirichlet joints need a seed")
        if alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(n, alpha))
    else:
        raise ValueError(f"unknown joint kind {kind!r}")
    probs = probs / probs.sum()
    return JointDist(vocab=vocab, length=length, probs=probs)
