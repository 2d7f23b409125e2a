"""Vocabulary, one-hot embedding, sequence enumeration, and explicit joints.

Every conversion between token rows, sequence indices, one-hot states and
TokenSequence lists in the package lives here, with the inverse-CDF index
draw and the mean/SE of a sample of per-draw values.
Sequences of length L over a V-token vocabulary are embedded into R^(L*V),
block l holding the one-hot indicator of token l. Distributions over the
V^L sequences are stored as dense tables indexed big-endian:
index(w) = sum_l w_l * V^(L-1-l).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .seeding import check_seed

DEFAULT_ENUM_CAP = 4096

_SUM_TOL = 1e-12


class EnumerationLimitError(ValueError):
    """V^L exceeds the enumeration cap ``DEFAULT_ENUM_CAP``."""


def _space_size(vocab: int, length: int, limit: int) -> int | None:
    """V^L, or None once it exceeds ``limit``; huge V or L never build a huge integer."""
    n = 1
    for _ in range(length if vocab > 1 else 0):
        n *= vocab
        if n > limit:
            return None
    return n


def _check_space(vocab: int, length: int) -> int:
    if vocab < 1 or length < 1:
        raise ValueError(f"need vocab >= 1 and length >= 1, got V={vocab}, L={length}")
    n = _space_size(vocab, length, DEFAULT_ENUM_CAP)
    if n is None:
        raise EnumerationLimitError(f"V^L for V={vocab}, L={length} exceeds the enumeration cap {DEFAULT_ENUM_CAP}")
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


def token_sequences(rows: np.ndarray, vocab: int) -> list[TokenSequence]:
    """One TokenSequence per row of token ids (n, L); equal rows share one immutable object."""
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    seqs = [TokenSequence(tokens=tuple(int(t) for t in row), vocab=vocab) for row in distinct]
    return [seqs[j] for j in inverse.reshape(-1)]


def token_rows(
    samples: Sequence[TokenSequence], length: int | None = None, vocab: int | None = None
) -> tuple[np.ndarray, int]:
    """Token ids (n, L) of ``samples`` and their largest vocabulary. An empty list, or
    samples whose length or vocabulary is not the law's ``length`` or ``vocab`` (when
    given), raise ValueError."""
    if len(samples) == 0:
        raise ValueError("empty sample list")
    rows = np.asarray([s.tokens for s in samples], dtype=int)
    if length is not None and rows.shape[1] != length:
        raise ValueError(f"samples have length {rows.shape[1]}, law has {length}")
    vocabs = {s.vocab for s in samples}
    if vocab is not None and vocabs != {vocab}:
        raise ValueError(f"samples have vocabulary {max(vocabs - {vocab})}, law has {vocab}")
    return rows, max(vocabs)


def inverse_cdf(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Index of the first ``cdf`` entry >= each uniform, and the last index above ``cdf[-1]``."""
    return np.minimum(np.searchsorted(cdf, uniforms, side="left"), cdf.size - 1)


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of a 1-d sample and its standard error std(ddof=1) / sqrt(n), 0 for one value."""
    se = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), float(se)


def index_matrix(vocab: int, length: int) -> np.ndarray:
    """(V^L, L) int array of token ids, row i being the sequence at index i."""
    n = _check_space(vocab, length)
    return np.arange(n)[:, None] // vocab ** np.arange(length - 1, -1, -1) % vocab


def onehot_matrix(vocab: int, length: int) -> np.ndarray:
    """(V^L, L*V) matrix whose row i is the one-hot state of sequence i."""
    return onehot(index_matrix(vocab, length), vocab)


def product_table(rows: np.ndarray) -> np.ndarray:
    """(V^L,) table of prod_l rows[l, w_l] over the big-endian indices w of (L, V) rows."""
    probs = np.ones(1)
    for row in rows:
        probs = np.multiply.outer(probs, row).reshape(-1)
    return probs


def checked_rows(rows: np.ndarray, tol: float, name: str = "rows") -> np.ndarray:
    """``rows`` as a 2-d float array whose rows are distributions: finite, nonnegative
    and summing to 1 within ``tol``; a ValueError naming ``name`` otherwise."""
    p = np.asarray(rows, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError(f"{name} entries must be finite and nonnegative")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > tol):
        raise ValueError(f"each row of {name} must sum to 1 within {tol}")
    return p


def _converted(default, value):
    """``value`` in the type of ``default``. An int passes for a float and becomes one,
    each element of a list is converted by the default list's first element, and a
    None default takes anything. TypeError when ``value`` lacks the JSON type of
    ``default``; ValueError or OverflowError when a float is not finite."""
    if default is None:
        return value
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(
        value, (int, float) if isinstance(default, float) else type(default)
    ):
        raise TypeError
    if isinstance(default, float):
        if not math.isfinite(value):  # OverflowError for an int beyond the float range
            raise ValueError
        return float(value)
    if isinstance(default, list) and default:
        return [_converted(default[0], v) for v in value]
    return value


def _parse_int(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:  # more digits than Python converts: beyond any finite option
        return -math.inf if text.startswith("-") else math.inf


def parse_json(text: str):
    """``json.loads``, reading an integer too long to convert as +-inf, so that
    ``checked_keys`` or the loader's finiteness check rejects it naming the key."""
    return json.loads(text, parse_int=_parse_int)


def checked_keys(defaults: dict, doc: dict, what: str, required=()) -> dict:
    """The values of ``doc`` converted to the types of their ``defaults``.

    An unknown key, a missing ``required`` key, a value without its default's JSON
    type and a number that is not a finite float raise a ValueError naming ``what``
    and the key.
    """
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} {key!r} is missing")
    out = {}
    for key, value in doc.items():
        if key not in defaults:
            raise ValueError(f"unknown {what} {key!r}; expected one of {sorted(defaults)}")
        try:
            out[key] = _converted(defaults[key], value)
        except TypeError as exc:
            raise ValueError(f"{what} {key!r} must have the JSON type of {defaults[key]!r}, got {value!r:.60}") from exc
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{what} {key!r} must be finite, got {value!r:.60}") from exc
    return out


@dataclass(frozen=True)
class JointDist:
    """Explicit probability table over all V^L sequences (big-endian indexed)."""

    vocab: int
    length: int
    probs: np.ndarray
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the enumeration cap guards operations that build V^L x (L*V)
        # matrices; holding the table itself only needs the V^L entries
        if self.vocab < 1 or self.length < 1:
            raise ValueError(f"need vocab >= 1 and length >= 1, got V={self.vocab}, L={self.length}")
        p = np.asarray(self.probs, dtype=float)
        n = _space_size(self.vocab, self.length, p.size)
        if p.shape != (n,):
            size = f"V^L > {p.size}" if n is None else f"V^L = {n}"
            raise ValueError(f"probs has shape {p.shape}, but V={self.vocab}, L={self.length} need {size} entries")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite and nonnegative")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probs sum to {p.sum()!r}, not 1 within {_SUM_TOL}")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "_cdf", np.cumsum(p))

    @property
    def dim(self) -> int:
        return self.vocab * self.length

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n iid sequence indices via inverse CDF on one uniform per draw."""
        return inverse_cdf(self._cdf, rng.random(n))

    def to_json_dict(self) -> dict:
        return {"V": self.vocab, "L": self.length, "probs": [float(p) for p in self.probs]}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n", encoding="utf-8")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "JointDist":
        """Inverse of ``to_json_dict``; a malformed document raises ValueError naming the key."""
        if not isinstance(doc, dict):
            raise ValueError("distribution document must be a JSON object")
        schema = {"V": 0, "L": 0, "probs": [0.0]}
        doc = checked_keys(schema, doc, "distribution key", required=schema)
        return cls(vocab=doc["V"], length=doc["L"], probs=np.asarray(doc["probs"]))

    @classmethod
    def load(cls, path: str | Path) -> "JointDist":
        return cls.from_json_dict(parse_json(Path(path).read_text(encoding="utf-8")))


def make_joint(
    kind: str,
    vocab: int,
    length: int,
    *,
    seed: int | None = None,
    alpha: float = 1.0,
    marginals: np.ndarray | None = None,
) -> JointDist:
    """Test-distribution factory.

    kind:
      uniform   - all V^L entries equal
      product   - outer product of the supplied (L, V) per-position marginals
      copy      - uniform over the V constant sequences (w, w, ..., w)
      dirichlet - one draw with concentration alpha from the given seed
    """
    n = _check_space(vocab, length)
    if seed is not None:
        check_seed(seed)
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
        probs = product_table(checked_rows(m, _SUM_TOL, "marginals"))
    elif kind == "dirichlet":
        if seed is None:
            raise ValueError("dirichlet joints need a seed")
        if not 0.0 < alpha < np.inf:
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(n, alpha))
    else:
        raise ValueError(f"unknown joint kind {kind!r}; expected one of ('uniform', 'product', 'copy', 'dirichlet')")
    probs = probs / probs.sum()
    return JointDist(vocab=vocab, length=length, probs=probs)
