"""Deterministic random-stream derivation.

All randomness in the package flows from a single 64-bit root seed. Purpose
tags (strings) and indices (ints) are mixed into a ``numpy.random.SeedSequence``
so that, e.g., chain i's stream depends only on (root, "chain", i) and not on
how many chains run or in which order. String tags are hashed with SHA-256,
once per distinct tag (Python's built-in ``hash`` is salted per process and
would break replay).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=1024)
def _str_word(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "little")


def _tag_word(tag: str | int) -> int:
    if isinstance(tag, str):
        return _str_word(tag)
    return int(tag) & _MASK64


def check_seed(seed: int) -> None:
    """Reject a root seed that is not an int in [0, 2**64).

    A float or bool would be truncated, and an out-of-range int wrapped, onto
    another seed's streams.
    """
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {type(seed).__name__} {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")


def derive_rng(root_seed: int, *tags: str | int) -> np.random.Generator:
    """Generator for the stream identified by (root_seed, *tags)."""
    entropy = [int(root_seed) & _MASK64] + [_tag_word(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))

