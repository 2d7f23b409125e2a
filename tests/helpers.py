"""Independent oracles shared across test modules.

Everything here is deliberately dumb: explicit loops, full Gaussian
constants, no reuse of the library's fast paths, so these routines can serve
as ground truth for them.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from typing import Callable

import numpy as np

from mcbridge.discrete import JointDist


def sequences(vocab: int, length: int) -> list[tuple[int, ...]]:
    """All V^L token tuples in big-endian index order: the last position varies fastest."""
    return list(itertools.product(range(vocab), repeat=length))


def onehot_state(tokens: tuple[int, ...], vocab: int) -> np.ndarray:
    """The (L*V,) one-hot state of ``tokens``, set one block at a time."""
    x = np.zeros(len(tokens) * vocab)
    for pos, tok in enumerate(tokens):
        x[pos * vocab + tok] = 1.0
    return x


def gauss_logpdf(x: np.ndarray, mean: np.ndarray, var: float) -> float:
    """Full isotropic Gaussian log-density, constants included."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    d = x.size
    return -0.5 * d * math.log(2.0 * math.pi * var) - float(((x - mean) ** 2).sum()) / (2.0 * var)


def forward_state(nu: JointDist, u: float, rng: np.random.Generator) -> np.ndarray:
    """One draw of X_u from the forward law (clean sequence from nu)."""
    idx = int(nu.sample_indices(rng, 1)[0])
    x0 = onehot_state(sequences(nu.vocab, nu.length)[idx], nu.vocab)
    c = math.exp(-u)
    sigma = math.sqrt(-math.expm1(-2.0 * u))
    return c * x0 + sigma * rng.standard_normal(x0.size)


def brute_joint_posterior(nu: JointDist, t: float, x: np.ndarray) -> np.ndarray:
    """Posterior table by direct density evaluation (no log-space tricks)."""
    c = math.exp(-t)
    var = -math.expm1(-2.0 * t)
    weights = np.empty(nu.probs.size)
    for i, toks in enumerate(sequences(nu.vocab, nu.length)):
        weights[i] = nu.probs[i] * math.exp(gauss_logpdf(x, c * onehot_state(toks, nu.vocab), var))
    return weights / weights.sum()


def brute_filtered_mean(
    nu: JointDist,
    y_k: np.ndarray,
    u_k: float,
    u: float,
    y_block: np.ndarray,
    pos: int,
) -> np.ndarray:
    """E[X_{0,pos} | X_{u_k} = y_k, X_{u,pos} = y_block] by full enumeration.

    Uses the exact two-time forward law: for the observed position the path
    runs X_0 -> X_u -> X_{u_k}; every other position runs X_0 -> X_{u_k}
    directly. Returns the posterior token distribution at ``pos`` (which is
    the conditional mean of the one-hot block).
    """
    vocab, length = nu.vocab, nu.length
    c_u = math.exp(-u)
    v_u = -math.expm1(-2.0 * u)
    c_d = math.exp(-(u_k - u))
    v_d = -math.expm1(-2.0 * (u_k - u))
    c_k = math.exp(-u_k)
    v_k = -math.expm1(-2.0 * u_k)
    log_w = np.full(nu.probs.size, -math.inf)
    for i, toks in enumerate(sequences(vocab, length)):
        if nu.probs[i] == 0.0:
            continue
        lw = math.log(nu.probs[i])
        for j, tok in enumerate(toks):
            e_tok = np.zeros(vocab)
            e_tok[tok] = 1.0
            yk_block = y_k[j * vocab : (j + 1) * vocab]
            if j == pos:
                lw += gauss_logpdf(y_block, c_u * e_tok, v_u)
                lw += gauss_logpdf(yk_block, c_d * y_block, v_d)
            else:
                lw += gauss_logpdf(yk_block, c_k * e_tok, v_k)
        log_w[i] = lw
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    out = np.zeros(vocab)
    for i, toks in enumerate(sequences(vocab, length)):
        out[toks[pos]] += w[i]
    return out


def sample_cov_se(cov: np.ndarray, n: int) -> np.ndarray:
    """Asymptotic standard error of each sample-covariance entry."""
    d = np.diag(cov)
    return np.sqrt((np.outer(d, d) + cov**2) / n)


def rowwise_logsumexp(a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) as one numpy reduction per step along ``axis``, shifted by the finite max."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    return out if keepdims else np.squeeze(out, axis=axis)


def rowwise_softmax(x: np.ndarray) -> np.ndarray:
    """exp(x - logsumexp(x)) along the last axis, written with ``rowwise_logsumexp``."""
    return np.exp(x - rowwise_logsumexp(x, axis=-1, keepdims=True))


def traced_peak(fn: Callable[[], object]) -> tuple[object, int]:
    """(fn(), the peak bytes tracemalloc traced during the call)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
