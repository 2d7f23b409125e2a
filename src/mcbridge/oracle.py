"""Exact brute-force clean-posterior computations.

Everything here enumerates the V^L sequence space, so these routines are the
ground truth that samplers and learned predictors are checked against: joint
and factorized endpoint posteriors, token marginals, conditional
multi-information, the coordinate-wise endpoint filter, and exact densities
of the one-step reverse kernels (true posterior-predictive vs. the
marginal-factorized replacement).

All posterior math runs in log space with log-sum-exp; the contraction-to-
variance ratio c_t/sigma_t^2 explodes at small t and would overflow plain
exponentials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discrete import JointDist, index_matrix, onehot_matrix, onehot_tokens, token_index
from .kernels import ou_coeffs, reverse_step_coeffs, stable_sinh

_ROW_TOL = 1e-10


class DegeneratePosteriorError(RuntimeError):
    """Every enumerated sequence has zero posterior weight."""


@dataclass(frozen=True)
class MarginalTable:
    """L x V row-stochastic matrix of token posterior marginals."""

    probs: np.ndarray
    level: float | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"marginal table must be 2-d, got shape {p.shape}")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("marginal entries must be finite and nonnegative")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > _ROW_TOL):
            raise ValueError("marginal rows must sum to 1")
        object.__setattr__(self, "probs", p)

    @property
    def length(self) -> int:
        return self.probs.shape[0]

    @property
    def vocab(self) -> int:
        return self.probs.shape[1]

    def mean_state(self) -> np.ndarray:
        """Flatten rows into the simplex-valued endpoint mean in R^(L*V)."""
        return self.probs.reshape(-1).copy()


@dataclass(frozen=True)
class EndpointPosterior:
    """Distribution over the V^L clean sequences (joint or product form)."""

    vocab: int
    length: int
    probs: np.ndarray
    level: float | None = None
    factorized: bool = False

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        n = self.vocab**self.length
        if p.shape != (n,):
            raise ValueError(f"posterior must have shape ({n},), got {p.shape}")
        if np.any(p < 0.0) or abs(p.sum() - 1.0) > _ROW_TOL:
            raise ValueError("posterior entries must be nonnegative and sum to 1")
        object.__setattr__(self, "probs", p)


def logsumexp(a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the finite maximum.

    An all -inf slice gives -inf (no warning); a +inf entry gives +inf.
    """
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    return out if keepdims else np.squeeze(out, axis=axis)


def _log_table(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def joint_posterior_probs(nu: JointDist, t: float, states: np.ndarray, onehot: np.ndarray | None = None) -> np.ndarray:
    """(n, V^L) table of exact joint clean posteriors for a batch of states.

    Bayes' rule with the Gaussian forward transition:
    q(w | X_t = x) propto nu(w) * exp(-|x - c_t e(w)|^2 / (2 sigma_t^2)).
    Squared distances expand to a single matrix product because every
    one-hot sequence has squared norm L.
    """
    co = ou_coeffs(t)
    if co.sigma2 <= 0.0:
        raise ValueError("posterior needs t > 0")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if not np.all(np.isfinite(states)):
        raise ValueError("states must be finite")
    if onehot is None:
        onehot = onehot_matrix(nu.vocab, nu.length)
    if states.shape[1] != onehot.shape[1]:
        raise ValueError(f"state dimension {states.shape[1]} != {onehot.shape[1]}")
    logits = _log_table(nu.probs)[None, :] + (co.c / co.sigma2) * (states @ onehot.T)
    norm = logsumexp(logits, axis=1, keepdims=True)
    if np.any(np.isneginf(norm)):
        raise DegeneratePosteriorError("posterior has zero mass everywhere")
    return np.exp(logits - norm)


def joint_posterior(nu: JointDist, t: float, x: np.ndarray) -> EndpointPosterior:
    """Exact joint clean posterior q(. | X_t = x) as an explicit table."""
    probs = joint_posterior_probs(nu, t, x)[0]
    return EndpointPosterior(vocab=nu.vocab, length=nu.length, probs=probs, level=float(t))


def token_marginals(joint: EndpointPosterior) -> MarginalTable:
    """Per-position token marginals of a sequence-space distribution."""
    onehot = onehot_matrix(joint.vocab, joint.length)
    rows = (joint.probs @ onehot).reshape(joint.length, joint.vocab)
    # guard the row-sum invariant against accumulated rounding
    rows = rows / rows.sum(axis=1, keepdims=True)
    return MarginalTable(probs=rows, level=joint.level)


def factorized_posterior(m: MarginalTable) -> EndpointPosterior:
    """Product-form distribution: P(w) = prod_l m[l, w_l]."""
    probs = np.ones(1)
    for pos in range(m.length):
        probs = np.multiply.outer(probs, m.probs[pos]).reshape(-1)
    return EndpointPosterior(
        vocab=m.vocab, length=m.length, probs=probs, level=m.level, factorized=True
    )


def row_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy of each distribution along the last axis, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=-1)


def discrete_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) over a shared index set, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def multi_information(joint: EndpointPosterior, m: MarginalTable) -> float:
    """KL between a joint sequence posterior and the product of marginals.

    Returns sum_w joint(w) log[joint(w) / prod_l m[l, w_l]]; +inf (flagged
    by the caller) when the joint puts mass where the product has none.
    """
    toks = index_matrix(joint.vocab, joint.length)
    logm = _log_table(m.probs)
    log_prod = np.zeros(toks.shape[0])
    for pos in range(joint.length):
        log_prod += logm[pos, toks[:, pos]]
    p = joint.probs
    mask = p > 0.0
    if np.any(np.isneginf(log_prod[mask])):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - log_prod[mask])))


def filtered_endpoint_mean(
    prior: JointDist | MarginalTable,
    y_k: np.ndarray,
    u_k: float,
    u: float,
    y_block: np.ndarray,
    pos: int,
) -> np.ndarray:
    """Posterior-mean token indicator after observing one intermediate block.

    Starting from the token prior at level u_k (the exact marginal
    q_{u_k,pos}(. | y_k) when ``prior`` is a joint law, or the given table's
    row otherwise), condition on the bridge observation X_{u,pos} = y_block:

        p(v) propto prior(v) * N(y_block; a e_v + b (y_k)_pos, var I_V)

    with a = sinh(u_k - u)/sinh(u_k), b = sinh(u)/sinh(u_k) and
    var = 2 sinh(u) sinh(u_k - u)/sinh(u_k). Only the tilt exp(r_v / (2 sinh u))
    with r = y_block - b * (y_k)_pos depends on v, since a/var = 1/(2 sinh u).
    Returns sum_v p(v) e_v, i.e. the posterior itself as a simplex vector.
    """
    if not 0.0 < u < u_k:
        raise ValueError(f"need 0 < u < u_k, got u={u}, u_k={u_k}")
    y_k = np.asarray(y_k, dtype=float)
    y_block = np.asarray(y_block, dtype=float)
    if isinstance(prior, JointDist):
        row = token_marginals(joint_posterior(prior, u_k, y_k)).probs[pos]
        vocab = prior.vocab
    else:
        row = prior.probs[pos]
        vocab = prior.vocab
    if y_block.shape != (vocab,):
        raise ValueError(f"y_block must have shape ({vocab},), got {y_block.shape}")
    b = stable_sinh(u) / stable_sinh(u_k)
    r = y_block - b * y_k[pos * vocab : (pos + 1) * vocab]
    logp = _log_table(row) + r / (2.0 * stable_sinh(u))
    return np.exp(logp - logsumexp(logp))


def filtered_endpoint_means(
    prior_rows: np.ndarray,
    states_u: np.ndarray,
    states_uk: np.ndarray,
    u: float,
    u_k: float,
) -> np.ndarray:
    """Batched, all-position form of ``filtered_endpoint_mean``.

    prior_rows: (n, L, V) marginal tables at level u_k for each sample;
    states_u / states_uk: (n, L*V) states at levels u < u_k. Returns the
    (n, L, V) stack of filtered posterior rows.
    """
    if not 0.0 < u < u_k:
        raise ValueError(f"need 0 < u < u_k, got u={u}, u_k={u_k}")
    n, length, vocab = prior_rows.shape
    b = stable_sinh(u) / stable_sinh(u_k)
    r = (states_u - b * states_uk).reshape(n, length, vocab)
    logp = _log_table(prior_rows) + r / (2.0 * stable_sinh(u))
    return np.exp(logp - logsumexp(logp, axis=2, keepdims=True))


def true_kernel_logdensities(
    nu: JointDist,
    y: np.ndarray,
    u_k: float,
    u_next: float,
    z: np.ndarray,
    onehot: np.ndarray | None = None,
) -> np.ndarray:
    """Log-density of the exact posterior-predictive reverse kernel at z.

    K*(z | y) = sum_w q(w | X_{u_k} = y) BridgeNormal(z; y, e(w)); evaluated
    for a batch of z rows via log-sum-exp over all V^L endpoints. Full Gaussian
    constants are kept so the kernel integrates to one. At u_next = 0 the
    kernel is supported on exact one-hot states; the returned value is then the
    log-mass of the decoded sequence, and -inf off the support.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if onehot is None:
        onehot = onehot_matrix(nu.vocab, nu.length)
    post = joint_posterior_probs(nu, u_k, y, onehot)[0]
    a, b, var = reverse_step_coeffs(u_next, u_k)
    if var == 0.0:
        toks, exact = onehot_tokens(z, nu.vocab)
        return np.where(exact, _log_table(post)[token_index(toks, nu.vocab)], -math.inf)
    dim = nu.dim
    r = z - b * np.asarray(y, dtype=float)[None, :]
    sq = (r * r).sum(axis=1, keepdims=True) - 2.0 * a * (r @ onehot.T) + a * a * nu.length
    logits = _log_table(post)[None, :] - sq / (2.0 * var)
    return logsumexp(logits, axis=1) - 0.5 * dim * math.log(2.0 * math.pi * var)


def true_kernel_logdensity(nu: JointDist, y: np.ndarray, u_k: float, u_next: float, z: np.ndarray) -> float:
    return float(true_kernel_logdensities(nu, y, u_k, u_next, z)[0])


def mcb_kernel_logdensities(
    m: MarginalTable,
    y: np.ndarray,
    u_k: float,
    u_next: float,
    z: np.ndarray,
) -> np.ndarray:
    """Log-density of the marginal-factorized reverse kernel at z.

    The kernel factorizes over blocks, so the V^L-component mixture reduces to
    a sum over positions of V-component mixtures:
    log K(z | y) = sum_l log sum_v m[l, v] N(z_l; a e_v + b y_l, var I_V).
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    length, vocab = m.length, m.vocab
    a, b, var = reverse_step_coeffs(u_next, u_k)
    logm = _log_table(m.probs)
    if var == 0.0:
        toks, exact = onehot_tokens(z, vocab)
        return np.where(exact, logm[np.arange(length), toks].sum(axis=1), -math.inf)
    r = (z - b * np.asarray(y, dtype=float)[None, :]).reshape(-1, length, vocab)
    sq = (r * r).sum(axis=2, keepdims=True) - 2.0 * a * r + a * a
    logits = logm[None, :, :] - sq / (2.0 * var)
    per_block = logsumexp(logits, axis=2) - 0.5 * vocab * math.log(2.0 * math.pi * var)
    return per_block.sum(axis=1)


def mcb_kernel_logdensity(m: MarginalTable, y: np.ndarray, u_k: float, u_next: float, z: np.ndarray) -> float:
    return float(mcb_kernel_logdensities(m, y, u_k, u_next, z)[0])


class KernelKl(NamedTuple):
    estimate: float
    se: float
    n_flagged: int


def kernel_kl_estimate(
    nu: JointDist,
    y: np.ndarray,
    u_k: float,
    u_next: float,
    n: int,
    rng: np.random.Generator,
) -> KernelKl:
    """Monte Carlo KL between the true and marginal-factorized step kernels.

    Samples z from the true kernel (endpoint from the exact joint posterior,
    then the analytic bridge) and averages the log-density ratio, which is the
    forward KL certified by the multi-information bound. Non-finite ratios are
    excluded and counted.
    """
    if n < 1000:
        raise ValueError(f"need n >= 1000 samples, got {n}")
    y = np.asarray(y, dtype=float)
    onehot = onehot_matrix(nu.vocab, nu.length)
    post = joint_posterior_probs(nu, u_k, y, onehot)[0]
    marg = token_marginals(EndpointPosterior(nu.vocab, nu.length, post, level=u_k))
    a, b, var = reverse_step_coeffs(u_next, u_k)
    cdf = np.cumsum(post)
    idx = np.minimum(np.searchsorted(cdf, rng.random(n), side="left"), post.size - 1)
    z = a * onehot[idx] + b * y[None, :] + math.sqrt(var) * rng.standard_normal((n, nu.dim))
    diff = true_kernel_logdensities(nu, y, u_k, u_next, z, onehot) - mcb_kernel_logdensities(
        m=marg, y=y, u_k=u_k, u_next=u_next, z=z
    )
    mask = np.isfinite(diff)
    flagged = int(n - mask.sum())
    if flagged:
        warnings.warn(f"excluded {flagged} non-finite log-density ratios", RuntimeWarning)
    used = diff[mask]
    if used.size < 2:
        raise RuntimeError("too few finite samples for a KL estimate")
    return KernelKl(
        estimate=float(used.mean()),
        se=float(used.std(ddof=1) / math.sqrt(used.size)),
        n_flagged=flagged,
    )
