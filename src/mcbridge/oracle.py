"""Exact brute-force clean-posterior computations.

Everything here enumerates the V^L sequence space, so these routines are the
ground truth that samplers and learned predictors are checked against: joint
and factorized endpoint posteriors, token marginals, conditional
multi-information, the coordinate-wise endpoint filter, and exact densities
of the one-step reverse kernels (true posterior-predictive vs. the
marginal-factorized replacement).

All posterior math runs in log space and is shifted by the maximum before
exponentiating; the contraction-to-variance ratio c_t/sigma_t^2 explodes at
small t and would overflow plain exponentials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discrete import JointDist, index_matrix, onehot_matrix, onehot_tokens, product_table, token_index
from .kernels import ou_coeffs, reverse_step_coeffs, stable_sinh

_ROW_TOL = 1e-10


class DegeneratePosteriorError(RuntimeError):
    """The posterior cannot be normalized: its logits overflow float64."""


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


# Byte budget of the posterior block that ``_posterior_blocks`` reuses; at the
# V^L = 4096 cap it holds 64 chains.
_BLOCK_BYTES = 2 << 20

# SIMD exp leaves its fast path just above -708 and runs 10x and more slower
# below it; weights under e^_EXP_FLOOR (~1e-304) of their column maximum are
# set to 0 instead, which moves no column sum.
_EXP_FLOOR = -700.0


def _sequence_sums(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (V^L, m) with sum_l x[l, w_l, :] for every big-endian index w.

    The table is built in place from the last position to the first, so
    each add runs over whole rows of m chains.
    """
    length, vocab, _ = x.shape
    space = len(out)
    out[space - vocab :] = x[-1]
    width = vocab
    for pos in range(length - 2, -1, -1):
        tail = out[space - width :]
        base = space - width * vocab
        # the last slice is the tail itself, so it is written after the others read it
        for v in range(vocab):
            np.add(tail, x[pos, v], out=out[base + v * width : base + (v + 1) * width])
        width *= vocab
    return out


def _table_marginals(probs: np.ndarray, length: int, vocab: int) -> np.ndarray:
    """(L, V, m) per-position marginals of the columns of ``probs`` (V^L, m).

    Positions are summed out one at a time from the front; each position's
    row is then renormalized against accumulated rounding.
    """
    m = probs.shape[1]
    out = np.empty((length, vocab, m))
    rest = probs
    for pos in range(length):
        blocks = rest.reshape(vocab, -1, m)
        blocks.sum(axis=1, out=out[pos])
        if pos < length - 1:
            rest = blocks.sum(axis=0)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _block_rows(space: int) -> int:
    """Rows per block: as many V^L-entry float64 columns as fit in _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // (8 * space))


def _exp_into(t: float, x: np.ndarray, log_weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (V^L, m) with exp(log_weights[w] + sum_l x[l, w_l, :] - shift)
    and return the per-column shift, the column maximum of the logits.

    x is (L, V, m). Every step works in place on ``out``, so no temporary of
    the table's size is made. Logits more than -_EXP_FLOOR below their
    column maximum give weight 0; each column sum is at least 1.
    """
    _sequence_sums(x, out)
    out += log_weights[:, None]
    shift = out.max(axis=0)
    if not np.all(np.isfinite(shift)):
        raise DegeneratePosteriorError(f"logits overflow float64 at level {t!r}")
    out -= shift
    low = out < _EXP_FLOOR
    np.maximum(out, _EXP_FLOOR, out=out)
    np.exp(out, out=out)
    out[low] = 0.0
    return shift


def _exp_blocks(nu: JointDist, t: float, log_weights: np.ndarray, scale: float, vectors: np.ndarray):
    """Yield (lo, hi, table, shift): ``_exp_into`` of scale * vectors[lo:hi]
    (rows in R^(L*V)) as the first hi - lo columns of a (V^L, hi - lo + 1) table.

    Blocks hold ``_block_rows`` rows and reuse one buffer. The last column is
    a spare zero vector: with at least two columns, numpy sums along the
    sequence axis one entry at a time in index order (with one column it
    would switch to pairwise summation), so a row's values do not depend on
    its block or batch.
    """
    n, space = len(vectors), log_weights.size
    rows = _block_rows(space)
    buf = np.empty((space, min(rows, n) + 1))
    x = np.zeros((nu.dim, min(rows, n) + 1))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        m = hi - lo + 1
        x[:, : m - 1] = vectors[lo:hi].T
        x[:, m - 1] = 0.0
        scaled = scale * x[:, :m].reshape(nu.length, nu.vocab, m)
        table = buf[:, :m]
        yield lo, hi, table, _exp_into(t, scaled, log_weights, table)


def _posterior_blocks(nu: JointDist, t: float, states: np.ndarray):
    """Yield (lo, hi, table): the normalized joint posterior of states[lo:hi]
    as the first hi - lo columns of a (V^L, hi - lo + 1) table (see ``_exp_blocks``)."""
    co = ou_coeffs(t)
    if co.sigma2 <= 0.0:
        raise ValueError("posterior needs t > 0")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if not np.all(np.isfinite(states)):
        raise ValueError("states must be finite")
    if states.shape[1] != nu.dim:
        raise ValueError(f"state dimension {states.shape[1]} != {nu.dim}")
    for lo, hi, table, _ in _exp_blocks(nu, t, _log_table(nu.probs), co.c / co.sigma2, states):
        table /= table.sum(axis=0)
        yield lo, hi, table


def joint_posterior_probs(nu: JointDist, t: float, states: np.ndarray) -> np.ndarray:
    """(n, V^L) table of exact joint clean posteriors for a batch of states.

    Bayes' rule with the Gaussian forward transition:
    q(w | X_t = x) propto nu(w) * exp(-|x - c_t e(w)|^2 / (2 sigma_t^2)).
    Squared distances reduce to <x, e(w)> = sum_l x_{l, w_l} because every
    one-hot sequence has squared norm L.
    """
    states = np.atleast_2d(states)
    out = np.empty((len(states), nu.probs.size))
    for lo, hi, table in _posterior_blocks(nu, t, states):
        out[lo:hi] = table[:, :-1].T
    return out


def posterior_marginals(nu: JointDist, t: float, states: np.ndarray) -> np.ndarray:
    """(n, L, V) exact token posterior marginals for a batch of states.

    The joint posterior is built one block of chains at a time and projected
    straight onto the L*V marginals, so transient memory does not grow with
    n. Every row agrees bit for bit with ``token_marginals`` of the chain's
    ``joint_posterior``, whatever the batch or block size.
    """
    states = np.atleast_2d(states)
    out = np.empty((len(states), nu.length, nu.vocab))
    for lo, hi, table in _posterior_blocks(nu, t, states):
        out[lo:hi] = _table_marginals(table, nu.length, nu.vocab)[:, :, :-1].transpose(2, 0, 1)
    return out


def joint_posterior(nu: JointDist, t: float, x: np.ndarray) -> EndpointPosterior:
    """Exact joint clean posterior q(. | X_t = x) as an explicit table."""
    probs = joint_posterior_probs(nu, t, x)[0]
    return EndpointPosterior(vocab=nu.vocab, length=nu.length, probs=probs, level=float(t))


def token_marginals(joint: EndpointPosterior) -> MarginalTable:
    """Per-position token marginals of a sequence-space distribution."""
    # two columns, as in ``_posterior_blocks``, give the batched path's sums
    table = np.stack([joint.probs, joint.probs], axis=1)
    rows = _table_marginals(table, joint.length, joint.vocab)[:, :, 0]
    return MarginalTable(probs=rows, level=joint.level)


def factorized_posterior(m: MarginalTable) -> EndpointPosterior:
    """Product-form distribution: P(w) = prod_l m[l, w_l]."""
    return EndpointPosterior(
        vocab=m.vocab, length=m.length, probs=product_table(m.probs), level=m.level, factorized=True
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


def true_kernel_logdensities(nu: JointDist, y: np.ndarray, u_k: float, u_next: float, z: np.ndarray) -> np.ndarray:
    """Log-density of the exact posterior-predictive reverse kernel at z.

    K*(z | y) = sum_w q(w | X_{u_k} = y) BridgeNormal(z; y, e(w)); evaluated
    for a batch of z rows via log-sum-exp over all V^L endpoints. Full Gaussian
    constants are kept so the kernel integrates to one. At u_next = 0 the
    kernel is supported on exact one-hot states; the returned value is then the
    log-mass of the decoded sequence, and -inf off the support.
    """
    post = joint_posterior_probs(nu, u_k, y)[0]
    return _kernel_logdensities(nu, _log_table(post), y, u_k, u_next, z)


def _kernel_logdensities(
    nu: JointDist, log_post: np.ndarray, y: np.ndarray, u_k: float, u_next: float, z: np.ndarray
) -> np.ndarray:
    """``true_kernel_logdensities`` given the log joint posterior at (u_k, y).

    With r = z - b y and |e(w)|^2 = L, each mixture component's exponent is
    -(|r|^2 + a^2 L) / (2 var) + (a / var) <r, e(w)>, so the log-sum-exp over
    the V^L endpoints is the exp kernel of the posterior run on the rows of r
    with log q(w | y) as weights, in blocks of ``_block_rows`` rows; a row's
    value does not depend on the block size.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    a, b, var = reverse_step_coeffs(u_next, u_k)
    if var == 0.0:
        toks, exact = onehot_tokens(z, nu.vocab)
        return np.where(exact, log_post[token_index(toks, nu.vocab)], -math.inf)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    r = z - b * np.asarray(y, dtype=float)[None, :]
    out = np.empty(len(r))
    for lo, hi, table, shift in _exp_blocks(nu, u_next, log_post, a / var, r):
        out[lo:hi] = (np.log(table.sum(axis=0)) + shift)[:-1]
    out -= ((r * r).sum(axis=1) + a * a * nu.length) / (2.0 * var)
    return out - 0.5 * nu.dim * math.log(2.0 * math.pi * var)


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
    mi: float  # multi-information of the joint posterior at (u_k, y): the bound on the KL


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
    forward KL certified by the multi-information bound, which is returned
    with it. The joint posterior at (u_k, y) is built once for the draws, the
    true kernel and the bound. Non-finite ratios are excluded and counted.
    """
    if n < 1000:
        raise ValueError(f"need n >= 1000 samples, got {n}")
    y = np.asarray(y, dtype=float)
    onehot = onehot_matrix(nu.vocab, nu.length)
    joint = joint_posterior(nu, u_k, y)
    post = joint.probs
    marg = token_marginals(joint)
    a, b, var = reverse_step_coeffs(u_next, u_k)
    cdf = np.cumsum(post)
    idx = np.minimum(np.searchsorted(cdf, rng.random(n), side="left"), post.size - 1)
    z = a * onehot[idx] + b * y[None, :] + math.sqrt(var) * rng.standard_normal((n, nu.dim))
    diff = _kernel_logdensities(nu, _log_table(post), y, u_k, u_next, z) - mcb_kernel_logdensities(
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
        mi=multi_information(joint, marg),
    )
