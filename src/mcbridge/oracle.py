"""Exact brute-force clean-posterior computations.

Everything here enumerates the V^L sequence space, so these routines are the
ground truth that samplers and learned predictors are checked against: the
joint endpoint posterior and its token marginals for a batch of states, as
plain (n, V^L) and (n, L, V) arrays (a single state is a batch of one, read
back with ``[0]``), conditional multi-information, the coordinate-wise
endpoint filter, and exact densities of the one-step reverse kernels (true
posterior-predictive vs. the marginal-factorized replacement).

The posterior weights nu(w) * prod_l exp((c/sigma^2) x_{l,w_l}) are built in
one of two ways, chosen per chain. When the chain's log weights span less
than 700 nats (the exp floor), they are made in product form: L*V
exponentials of the per-position logits, each shifted by its own maximum,
multiplied over the V^L index walk and by the normalized prior. Wider chains
(low t, far-out states, peaked kernel-KL weights) run in log space: the V^L
logits are shifted by their maximum and exponentiated once each, since
c_t/sigma_t^2 explodes at small t and would overflow plain exponentials.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .discrete import JointDist, checked_rows, inverse_cdf, mean_se, onehot_matrix, onehot_tokens, token_index
from .kernels import ou_coeffs, reverse_step_coeffs

_ROW_TOL = 1e-10


class DegeneratePosteriorError(RuntimeError):
    """The posterior cannot be normalized: its logits overflow float64."""


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along the last axis, shifted by each row's finite maximum.

    An all -inf row gives -inf (no warning); a +inf entry gives +inf. The
    rows are copied vocabulary-major, so the max, the shift and the exp are V
    elementwise passes over contiguous rows rather than short reductions per
    row. Below 8 terms those rows are added in turn, numpy's running-sum
    order; from 8 on numpy sums a contiguous copy of each row itself. Either
    way every value has the bits ``np.sum`` along the last axis gives.
    """
    a = np.asarray(a, dtype=float)
    t = a.reshape(-1, a.shape[-1]).T.copy()
    shift = t.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    t -= shift
    np.exp(t, out=t)
    total = t.sum(axis=0) if len(t) < 8 else np.ascontiguousarray(t.T).sum(axis=1)
    with np.errstate(divide="ignore"):
        out = np.log(total)
    out += shift
    return out.reshape(a.shape[:-1])


def row_softmax(x: np.ndarray) -> np.ndarray:
    """exp(x - logsumexp(x)) along the last axis: every row normalized to sum to 1."""
    out = x - logsumexp(x)[..., None]
    return np.exp(out, out=out)


def _log_table(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


# Byte budget of the posterior block that ``_posterior_blocks`` reuses; at the
# V^L = 4096 cap it holds 64 chains.
_BLOCK_BYTES = 2 << 20

# Samples per draw chunk of verify's Monte Carlo estimators (the kernel KL
# here, the denoising-gap nodes in ``metrics``). A constant, so their results
# do not depend on the block budget or the CPU count.
_MC_CHUNK = 2048

# Least sample count of the same two estimators (and of verify's options).
_MC_MIN = 1000

# SIMD exp leaves its fast path just above -708 and runs 10x and more slower
# below it; weights under e^_EXP_FLOOR (~1e-304) of their column maximum are
# set to 0 instead, which moves no column sum.
_EXP_FLOOR = -700.0


def _sequence_fold(x: np.ndarray, op, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (V^L, m) with op over l of x[l, w_l, :] for every big-endian index w.

    ``op`` is ``np.add`` (sums of logits) or ``np.multiply`` (products of
    weights). The table is built in place from the last position to the
    first, so each step runs over whole rows of m chains.
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
            op(tail, x[pos, v], out=out[base + v * width : base + (v + 1) * width])
        width *= vocab
    return out


def _table_marginals(probs: np.ndarray, length: int, vocab: int) -> np.ndarray:
    """(L, V, m) per-position marginals of the columns of ``probs`` (V^L, m); overwrites ``probs``.

    Positions are summed out one at a time from the front, the rest of the
    table accumulating in place in its first slab (the order of a sum over
    the leading axis); each position's row is then renormalized against
    accumulated rounding.
    """
    m = probs.shape[1]
    out = np.empty((length, vocab, m))
    rest = probs
    for pos in range(length):
        blocks = rest.reshape(vocab, -1, m)
        blocks.sum(axis=1, out=out[pos])
        rest = blocks[0]
        for block in blocks[1:]:
            rest += block
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
    _sequence_fold(x, np.add, out)
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


def _product_into(x: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``_exp_into`` in product form, for columns whose logits span less than -_EXP_FLOOR.

    Fills ``out`` (V^L, m) with weights[w] * prod_l exp(x[l, w_l, :] - max_v x[l, v, :])
    and returns the per-column shift sum_l max_v x[l, v, :]; ``weights`` is the
    weight table divided by its maximum. Within that span every nonzero entry
    and every partial product lies in (e^_EXP_FLOOR, 1], so the entries are
    exp(logits - shift) with L*V exps per column, no floor and no underflow.
    """
    peak = np.maximum.reduce(x, axis=1)
    e = x - peak[:, None, :]
    np.exp(e, out=e)
    _sequence_fold(e, np.multiply, out)
    out *= weights[:, None]
    return np.add.reduce(peak, axis=0)


def _exp_blocks(nu: JointDist, t: float, probs: np.ndarray, scale: float, vectors: np.ndarray):
    """Yield (rows, table, shift): the weights probs[w] * exp(sum_l s[l, w_l]) of
    s = scale * vectors[rows] (rows in R^(L*V)) as the first len(rows) columns
    of a (V^L, len(rows) + 1) table, each column scaled by exp(-shift).

    A row takes the product path (``_product_into``) when the spread of its
    logits, sum_l (max_v s_l - min_v s_l) plus the range of the finite log
    weights, is below -_EXP_FLOOR, and the log path (``_exp_into``) otherwise.
    The rows are taken ``_block_rows`` at a time, and the rows of each path
    run as one block in one reused buffer; ``rows`` is a slice or an index
    array. The last column is a spare zero vector: with at least two columns,
    numpy sums along the sequence axis one entry at a time in index order
    (with one column it would switch to pairwise summation), so a row's
    values do not depend on its block or batch.
    """
    n, space = len(vectors), probs.size
    log_weights = None  # made on the first log-path block
    top = probs.max()
    weights = probs / top
    log_range = math.log(top) - math.log(probs.min(where=probs > 0.0, initial=top))
    rows = _block_rows(space)
    buf = np.empty((space, min(rows, n) + 1))
    x = np.empty((nu.length, nu.vocab, min(rows, n) + 1))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # vocabulary-major, so the spread is elementwise passes over rows of chains
        s = np.multiply(vectors[lo:hi].T, scale, out=np.empty((nu.dim, hi - lo))).reshape(nu.length, nu.vocab, -1)
        spread = np.maximum.reduce(s, axis=1)
        spread -= np.minimum.reduce(s, axis=1)
        product = np.add.reduce(spread, axis=0) < -_EXP_FLOOR - log_range
        for part, in_product in ((np.flatnonzero(product), True), (np.flatnonzero(~product), False)):
            m = len(part) + 1
            if m == 1:
                continue
            if part[-1] - part[0] == m - 2:  # a run of rows: slices copy nothing
                part = slice(part[0], part[-1] + 1)
                at = slice(lo + part.start, lo + part.stop)
            else:
                at = lo + part
            block = x[:, :, :m]
            block[:, :, :-1] = s[:, :, part]
            block[:, :, -1] = 0.0
            table = buf[:, :m]
            if in_product:
                shift = _product_into(block, weights, table) + math.log(top)
            else:
                if log_weights is None:
                    log_weights = _log_table(probs)
                shift = _exp_into(t, block, log_weights, table)
            yield at, table, shift


def _posterior_blocks(nu: JointDist, t: float, states: np.ndarray):
    """Yield (rows, table): the normalized joint posterior of states[rows]
    as the first len(rows) columns of a (V^L, len(rows) + 1) table (see ``_exp_blocks``)."""
    co = ou_coeffs(t)
    if co.sigma2 <= 0.0:
        raise ValueError("posterior needs t > 0")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if not np.all(np.isfinite(states)):
        raise ValueError("states must be finite")
    if states.shape[1] != nu.dim:
        raise ValueError(f"state dimension {states.shape[1]} != {nu.dim}")
    for rows, table, _ in _exp_blocks(nu, t, nu.probs, co.c / co.sigma2, states):
        table /= table.sum(axis=0)
        yield rows, table


def joint_posterior_probs(nu: JointDist, t: float, states: np.ndarray) -> np.ndarray:
    """(n, V^L) table of exact joint clean posteriors for a batch of states.

    Bayes' rule with the Gaussian forward transition:
    q(w | X_t = x) propto nu(w) * exp(-|x - c_t e(w)|^2 / (2 sigma_t^2)).
    Squared distances reduce to <x, e(w)> = sum_l x_{l, w_l} because every
    one-hot sequence has squared norm L.
    """
    states = np.atleast_2d(states)
    out = np.empty((len(states), nu.probs.size))
    for rows, table in _posterior_blocks(nu, t, states):
        out[rows] = table[:, :-1].T
    return out


def posterior_marginals(nu: JointDist, t: float, states: np.ndarray) -> np.ndarray:
    """(n, L, V) exact token posterior marginals for a batch of states.

    The joint posterior is built one block of chains at a time and projected
    straight onto the L*V marginals, so transient memory does not grow with
    n. Every row is the same bits whatever the batch or block size, so a
    batch of one gives each chain's row.
    """
    states = np.atleast_2d(states)
    out = np.empty((len(states), nu.length, nu.vocab))
    for rows, table in _posterior_blocks(nu, t, states):
        out[rows] = _table_marginals(table, nu.length, nu.vocab)[:, :, :-1].transpose(2, 0, 1)
    return out


def row_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy of each distribution along the last axis, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=-1)


def multi_information(probs: np.ndarray, vocab: int, length: int) -> float:
    """Conditional multi-information sum_l H(q_l) - H(q) of a (V^L,) joint sequence posterior q.

    Each token marginal q_l is summed out of the joint itself: axis l of its
    (V,) * L reshape (the big-endian index order) against all the others.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape != (vocab**length,):
        raise ValueError(f"joint of shape {p.shape} does not match V={vocab}, L={length}")
    checked_rows(p[None], _ROW_TOL, "joint")
    table = p.reshape((vocab,) * length)
    rows = np.stack([table.sum(axis=tuple(a for a in range(length) if a != pos)) for pos in range(length)])
    return float(row_entropy(rows).sum() - row_entropy(p))


def filtered_endpoint_means(
    prior_rows: np.ndarray,
    states_u: np.ndarray,
    states_uk: np.ndarray,
    u: float,
    u_k: float,
) -> np.ndarray:
    """Token rows at level u_k filtered by the bridge state observed at u < u_k.

    prior_rows: (n, L, V) token priors at u_k, such as ``posterior_marginals``
    of states_uk; states_u / states_uk: (n, L*V) states at u and u_k. Each row
    becomes p(v) propto prior(v) * exp(r_v / (2 sinh u)) with r = y_u - b y_uk:
    the bridge likelihood N(y_u; a e_v + b y_uk, var I), (a, b, var) =
    ``reverse_step_coeffs(u, u_k)``, up to factors free of v, since
    a/var = 1/(2 sinh u). Returns the (n, L, V)
    filtered rows, which are the posterior-mean token indicators.
    """
    if not 0.0 < u < u_k:
        raise ValueError(f"need 0 < u < u_k, got u={u}, u_k={u_k}")
    n, length, vocab = prior_rows.shape
    b = math.sinh(u) / math.sinh(u_k)
    r = (states_u - b * states_uk).reshape(n, length, vocab)
    return row_softmax(_log_table(prior_rows) + r / (2.0 * math.sinh(u)))


def true_kernel_logdensities(
    nu: JointDist, post: np.ndarray, y: np.ndarray, u_k: float, u_next: float, z: np.ndarray
) -> np.ndarray:
    """Log-density of the exact posterior-predictive reverse kernel at z, given
    the joint posterior ``post`` = q(. | X_{u_k} = y), a distribution over nu's V^L sequences.

    K*(z | y) = sum_w q(w | y) BridgeNormal(z; y, e(w)); evaluated for a batch
    of z rows via log-sum-exp over all V^L endpoints. Full Gaussian constants
    are kept so the kernel integrates to one. At u_next = 0 the kernel is
    supported on exact one-hot states; the returned value is then the
    log-mass of the decoded sequence, and -inf off the support.

    With r = z - b y and |e(w)|^2 = L, each mixture component's exponent is
    -(|r|^2 + a^2 L) / (2 var) + (a / var) <r, e(w)>, so the log-sum-exp over
    the V^L endpoints is the exp kernel of the posterior run on the rows of r
    with q(w | y) as weights, in blocks of ``_block_rows`` rows; a row's
    value does not depend on the block size.
    """
    post = np.asarray(post, dtype=float)
    if post.shape != nu.probs.shape:
        raise ValueError(f"post of shape {post.shape} does not match the law's {nu.probs.shape}")
    checked_rows(post[None], _ROW_TOL, "post")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    a, b, var = reverse_step_coeffs(u_next, u_k)
    if var == 0.0:
        toks, exact = onehot_tokens(z, nu.vocab)
        return np.where(exact, _log_table(post)[token_index(toks, nu.vocab)], -math.inf)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    r = z - b * np.asarray(y, dtype=float)[None, :]
    out = np.empty(len(r))
    for rows, table, shift in _exp_blocks(nu, u_next, post, a / var, r):
        out[rows] = (np.log(table.sum(axis=0)) + shift)[:-1]
    out -= ((r * r).sum(axis=1) + a * a * nu.length) / (2.0 * var)
    return out - 0.5 * nu.dim * math.log(2.0 * math.pi * var)


def mcb_kernel_logdensities(rows: np.ndarray, y: np.ndarray, u_k: float, u_next: float, z: np.ndarray) -> np.ndarray:
    """Log-density of the marginal-factorized reverse kernel at z, given the (L, V) token rows.

    The kernel factorizes over blocks, so the V^L-component mixture reduces to
    a sum over positions of V-component mixtures:
    log K(z | y) = sum_l log sum_v rows[l, v] N(z_l; a e_v + b y_l, var I_V).
    """
    rows = checked_rows(rows, _ROW_TOL)
    length, vocab = rows.shape
    y = np.asarray(y, dtype=float)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    for name, v in (("y", y), ("z", z)):
        if v.shape[-1] != length * vocab:
            raise ValueError(f"{name} of shape {v.shape} does not match rows of shape {rows.shape}")
    a, b, var = reverse_step_coeffs(u_next, u_k)
    logm = _log_table(rows)
    if var == 0.0:
        toks, exact = onehot_tokens(z, vocab)
        return np.where(exact, logm[np.arange(length), toks].sum(axis=1), -math.inf)
    r = (z - b * y[None, :]).reshape(-1, length, vocab)
    sq = (r * r).sum(axis=2, keepdims=True) - 2.0 * a * r + a * a
    logits = logm[None, :, :] - sq / (2.0 * var)
    per_block = logsumexp(logits) - 0.5 * vocab * math.log(2.0 * math.pi * var)
    return per_block.sum(axis=1)


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
    true kernel and the bound (``multi_information``, whose marginals are
    summed out of that joint), and the oracle's token rows once for the
    factorized kernel. Non-finite ratios are excluded and counted.

    Draw order: all n endpoint uniforms in one call, then, per chunk of
    m <= _MC_CHUNK samples, the chunk's bridge normals as one (m, L*V) call.
    Normals drawn in consecutive calls are the values one (n, L*V) call would
    give, and each sample's ratio depends only on its own endpoint and
    normals, so the result and the generator's state do not depend on the
    chunk size; only the uniforms and the n ratios are held full length.
    """
    if n < _MC_MIN:
        raise ValueError(f"need n >= {_MC_MIN} samples, got {n}")
    y = np.asarray(y, dtype=float)
    onehot = onehot_matrix(nu.vocab, nu.length)
    post = joint_posterior_probs(nu, u_k, y)[0]
    rows = posterior_marginals(nu, u_k, y)[0]
    a, b, var = reverse_step_coeffs(u_next, u_k)
    cdf = np.cumsum(post)
    uniforms = rng.random(n)
    diff = np.empty(n)
    for lo in range(0, n, _MC_CHUNK):
        hi = min(lo + _MC_CHUNK, n)
        idx = inverse_cdf(cdf, uniforms[lo:hi])
        z = a * onehot[idx] + b * y[None, :] + math.sqrt(var) * rng.standard_normal((hi - lo, nu.dim))
        diff[lo:hi] = true_kernel_logdensities(nu, post, y, u_k, u_next, z)
        diff[lo:hi] -= mcb_kernel_logdensities(rows, y, u_k, u_next, z)
    mask = np.isfinite(diff)
    flagged = int(n - mask.sum())
    if flagged:
        warnings.warn(f"excluded {flagged} non-finite log-density ratios", RuntimeWarning)
    used = diff[mask]
    if used.size < 2:
        raise RuntimeError("too few finite samples for a KL estimate")
    return KernelKl(*mean_se(used), n_flagged=flagged, mi=multi_information(post, nu.vocab, nu.length))
