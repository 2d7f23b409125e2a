"""Sample metrics and the numerical verification suite.

Three kinds of checks live here:

  * sample metrics: within-sequence unigram entropy, total variation of the
    empirical sequence law against the known data law, and the exact negative
    log-likelihood of samples under that law;
  * closed-form identity checks: factorization KL vs. multi-information, and
    the one-step mean/covariance comparison between the endpoint-sampling and
    endpoint-mean bridges (dual routes: enumeration vs. analytic formula);
  * the path-space denoising-gap estimator: per-interval quadrature of the
    weighted squared denoising errors of the frozen-mean estimate and the
    bridge-filtered estimate, with common random numbers so the sign of the
    gap is resolvable at desk-scale sample counts.

The quadrature nodes of the gap are independent: each draws from its own
stream, derived from one word of the caller's generator, in fixed chunks of
samples, and they run in the calling process plus one forked worker per
further CPU. The report is the same for any CPU count and block budget.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .discrete import (JointDist, TokenSequence, checked_rows, mean_se, onehot_matrix, product_table,
                       token_index, token_rows)
from .kernels import _MAX_BRIDGE_LEVEL, NoiseGrid, denoising_weight, forward_sample, reverse_step_coeffs
from .oracle import (
    _MC_CHUNK,
    _MC_MIN,
    _ROW_TOL,
    _log_table,
    _sequence_fold,
    filtered_endpoint_means,
    joint_posterior_probs,
    multi_information,
    posterior_marginals,
    row_entropy,
)
from .seeding import derive_rng


def _unigram_entropies(samples: Sequence[TokenSequence]) -> np.ndarray:
    """Per-sample entropy of the within-sequence token histogram."""
    arr, vocab = token_rows(samples)
    return row_entropy(np.stack([(arr == v).sum(axis=1) for v in range(vocab)], axis=1) / arr.shape[1])


def unigram_entropy(samples: Sequence[TokenSequence]) -> float:
    """Average over samples of the entropy of the within-sequence histogram."""
    return float(_unigram_entropies(samples).mean())


def unigram_entropy_se(samples: Sequence[TokenSequence]) -> float:
    return mean_se(_unigram_entropies(samples))[1]


def _law_indices(samples: Sequence[TokenSequence], nu: JointDist) -> np.ndarray:
    """Indices in nu's table of ``samples``, which must have nu's length and vocabulary."""
    return token_index(token_rows(samples, nu.length, nu.vocab)[0], nu.vocab)


def empirical_tv(samples: Sequence[TokenSequence], nu: JointDist) -> float:
    """Total variation between the empirical sequence law and nu."""
    idx = _law_indices(samples, nu)
    freq = np.bincount(idx, minlength=nu.probs.size) / idx.size
    return float(0.5 * np.abs(freq - nu.probs).sum())


def tv_noise_scale(nu: JointDist, n: int) -> tuple[float, float]:
    """Normal-approximation (mean, sd) of the TV of n exact draws from nu.

    Each cell's frequency error is ~N(0, p(1-p)/n), so E|err| = sigma
    sqrt(2/pi) and Var|err| = sigma^2 (1 - 2/pi); cells are treated as
    independent, which slightly overstates the sd.
    """
    p = nu.probs
    var_cells = p * (1.0 - p) / n
    mean = float(np.sqrt(var_cells / (2.0 * math.pi)).sum())
    sd = float(0.5 * math.sqrt((1.0 - 2.0 / math.pi) * var_cells.sum()))
    return mean, sd


class OracleNll(NamedTuple):
    nll: float
    se: float
    zero_count: int


def oracle_nll(samples: Sequence[TokenSequence], nu: JointDist) -> OracleNll:
    """Average -log nu(w) over samples; zero-probability samples are counted
    separately rather than silently dropped or folded into the average."""
    probs = nu.probs[_law_indices(samples, nu)]
    mask = probs > 0.0
    zero_count = int((~mask).sum())
    vals = -np.log(probs[mask])
    if vals.size == 0:
        return OracleNll(nll=math.inf, se=0.0, zero_count=zero_count)
    return OracleNll(*mean_se(vals), zero_count=zero_count)


class FactorizationCheck(NamedTuple):
    kl: float
    mi: float
    gap: float


def factorization_check(nu: JointDist, t: float, x: np.ndarray) -> FactorizationCheck:
    """Exact-identity check of KL(q || prod_l q_l) = sum_l H(q_l) - H(q) for the joint
    posterior q at (t, x), by two routes: ``kl`` against the oracle's token rows, their
    logs summed over the index walk so that no product underflows, and ``mi``, whose q_l
    are summed out of q. The gap is sum_l KL(q_l || rows_l), rounding on exact rows."""
    probs = joint_posterior_probs(nu, t, x)[0]
    rows = posterior_marginals(nu, t, x)[0]
    log_prod = _sequence_fold(_log_table(rows)[:, :, None], np.add, np.empty((probs.size, 1)))[:, 0]
    mask = probs > 0.0
    kl = float(np.sum(probs[mask] * (np.log(probs[mask]) - log_prod[mask])))
    mi = multi_information(probs, nu.vocab, nu.length)
    return FactorizationCheck(kl=kl, mi=mi, gap=abs(kl - mi))


class MomentCheck(NamedTuple):
    mean_residual: float
    cov_residual: float


def moment_check(rows: np.ndarray, y: np.ndarray, u_k: float, u_next: float) -> MomentCheck:
    """Closed-form one-step moment comparison, no sampling.

    Enumerates the endpoint mixture induced by the (L, V) token rows and checks
    (i) its mean equals the frozen-mean bridge mean and (ii) its covariance
    exceeds the bridge covariance by exactly
    (sinh gamma / sinh u_k)^2 * blockdiag(diag(pi_l) - pi_l pi_l^T).
    """
    rows = checked_rows(rows, _ROW_TOL)
    length, vocab = rows.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (length * vocab,):
        raise ValueError(f"y of shape {y.shape} does not match rows of shape {rows.shape}")
    a, b, var = reverse_step_coeffs(u_next, u_k)
    onehot = onehot_matrix(vocab, length)
    q = product_table(rows)

    mus = a * onehot + b * y[None, :]
    mix_mean = q @ mus
    frozen_mean = a * rows.reshape(-1) + b * y
    mean_residual = float(np.linalg.norm(mix_mean - frozen_mean))

    centered = mus - mix_mean[None, :]
    surplus_enum = (q[:, None] * centered).T @ centered
    surplus_claimed = np.zeros_like(surplus_enum)
    for pos in range(length):
        row = rows[pos]
        block = np.diag(row) - np.outer(row, row)
        lo = pos * vocab
        surplus_claimed[lo : lo + vocab, lo : lo + vocab] = a * a * block
    cov_residual = float(np.max(np.abs(surplus_enum - surplus_claimed)))
    return MomentCheck(mean_residual=mean_residual, cov_residual=cov_residual)


@dataclass(frozen=True)
class GapNode:
    """One quadrature node: raw squared-error expectations and their SEs."""

    interval: int
    t: float
    u: float
    weight: float
    coeff: float
    ddpm_err: float
    ddpm_se: float
    mcb_err: float
    mcb_se: float
    gap: float
    gap_se: float

    @property
    def weighted_gap(self) -> float:
        return self.coeff * self.weight * self.gap


@dataclass
class GapReport:
    nodes: list[GapNode] = field(default_factory=list)
    skipped_intervals: list[int] = field(default_factory=list)
    n_mc: int = 0

    def _contrib(self, value: str) -> float:
        return sum(n.coeff * n.weight * getattr(n, value) for n in self.nodes)

    def _pooled_se(self, value: str, nodes: Sequence[GapNode]) -> float:
        return math.sqrt(sum((n.coeff * n.weight * getattr(n, value)) ** 2 for n in nodes))

    @property
    def total_ddpm(self) -> float:
        return self._contrib("ddpm_err")

    @property
    def total_mcb(self) -> float:
        return self._contrib("mcb_err")

    @property
    def total_gap(self) -> float:
        return self._contrib("gap")

    @property
    def total_gap_se(self) -> float:
        return self._pooled_se("gap_se", self.nodes)

    def interval_gaps(self) -> list[tuple[int, float, float]]:
        """(interval, weighted gap, pooled SE) per grid interval."""
        out = []
        for k in sorted({n.interval for n in self.nodes}):
            sub = [n for n in self.nodes if n.interval == k]
            gap = sum(n.weighted_gap for n in sub)
            se = self._pooled_se("gap_se", sub)
            out.append((k, gap, se))
        return out

    def csv_rows(self) -> list[dict]:
        return [asdict(n) for n in self.nodes]

    def summary(self) -> dict:
        return {
            "n_mc": self.n_mc,
            "total_ddpm": self.total_ddpm,
            "total_mcb": self.total_mcb,
            "total_gap": self.total_gap,
            "total_gap_se": self.total_gap_se,
            "intervals": [
                {"interval": k, "gap": g, "se": s} for k, g, s in self.interval_gaps()
            ],
            "skipped_intervals": self.skipped_intervals,
            "strictly_positive": self.total_gap > 3.0 * self.total_gap_se,
        }


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


# Signal number of SIGKILL, which stops a forked worker when the caller is
# interrupted (the signal module is not otherwise loaded).
_SIGKILL = 9


def _run_parallel(fn: Callable[[int], object], n: int) -> list:
    """[fn(0), ..., fn(n - 1)], task i run by worker i mod k, k = min(n, CPUs).

    Worker 0 is the calling process; workers 1..k-1 are forked children, each
    sending its (index, result) pairs, or the error that stopped it, back
    over a pipe. The assignment is static, so the caller runs the same tasks
    on every call. Without ``os.fork``, or while another Python thread is
    alive (the child would inherit its locks mid-use), every task runs in the
    caller. Every pipe is read and every child reaped before the error of
    the lowest failed task index is raised; when the caller is interrupted,
    its children are killed and reaped first.
    """
    k = min(n, _cpu_count())
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(i) for i in range(n)]
    results: list = [None] * n
    errors: list[tuple[int, BaseException]] = []
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for w in range(1, k):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, range(w, n, k), read, write)
            os.close(write)
            children.append((pid, read))
        try:
            for i in range(0, n, k):
                results[i] = fn(i)
        except Exception as exc:
            errors.append((i, exc))
        for w, (_, read) in enumerate(children, start=1):
            with os.fdopen(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                errors.append((w, RuntimeError(f"worker {w} exited without a result")))
                continue
            done, error = pickle.loads(data)
            for i, value in done:
                results[i] = value
            if error is not None:
                errors.append(error)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, _SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _worker(fn: Callable[[int], object], tasks: range, read: int, write: int) -> NoReturn:
    """Body of a forked worker: run ``tasks`` in order until one raises, pickle
    the (index, result) pairs and the error to ``write``, and leave through
    ``os._exit`` so that nothing of the caller's stack runs in the child."""
    status = 1
    try:
        os.close(read)
        done, error = [], None
        try:
            for i in tasks:
                done.append((i, fn(i)))
        except BaseException as exc:
            error = (i, exc)
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                error = (i, RuntimeError(repr(exc)))
        try:
            data = pickle.dumps((done, error))
        except Exception as exc:
            data = pickle.dumps(([], (tasks[0], RuntimeError(f"worker result not picklable: {exc!r}"))))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _gap_node(nu: JointDist, onehot: np.ndarray, u: float, u_k: float, n_mc: int, rng: np.random.Generator):
    """(ddpm_err, ddpm_se, mcb_err, mcb_se, gap, gap_se) of one quadrature node.

    Draws in chunks of _MC_CHUNK samples: per chunk the endpoint indices,
    then the X_u normals, then the X_{u_k} normals.
    """
    ddpm_sq, mcb_sq = np.empty(n_mc), np.empty(n_mc)
    for lo in range(0, n_mc, _MC_CHUNK):
        hi = min(lo + _MC_CHUNK, n_mc)
        x_u = forward_sample(onehot[nu.sample_indices(rng, hi - lo)], u, rng)
        x_uk = forward_sample(x_u, u_k - u, rng)
        m_u = posterior_marginals(nu, u, x_u).reshape(hi - lo, -1)
        prior_rows = posterior_marginals(nu, u_k, x_uk)
        m_uk = prior_rows.reshape(hi - lo, -1)
        m_bar = filtered_endpoint_means(prior_rows, x_u, x_uk, u, u_k).reshape(hi - lo, -1)
        ddpm_sq[lo:hi] = ((m_u - m_uk) ** 2).sum(axis=1)
        mcb_sq[lo:hi] = ((m_u - m_bar) ** 2).sum(axis=1)
    return tuple(v for a in (ddpm_sq, mcb_sq, ddpm_sq - mcb_sq) for v in mean_se(a))


def denoising_gap(
    nu: JointDist,
    grid: NoiseGrid,
    nodes_per_interval: int,
    n_mc: int,
    rng: np.random.Generator,
) -> GapReport:
    """Estimate the per-interval weighted denoising-error gap.

    For each interval and interior quadrature node t (noise level u = T - t),
    draws (X_0, X_u, X_{u_k}) from the exact forward law and compares, with
    common random numbers, the squared errors of the frozen grid-point
    estimate m_{u_k}(X_{u_k}) and the blockwise bridge-filtered estimate
    against the instantaneous target m_u(X_u). Node values carry the weight
    c_u^2/sigma_u^4 and the quadrature coefficient gamma_k / nodes.

    This compares the weighted integrand terms of the two samplers' path-KL
    expansions at interior nodes; it does not estimate the full path KLs
    themselves (whose absolute-continuity preconditions are analytic
    assumptions, not checkable numerically).

    One 64-bit word is taken from ``rng``; node i (counted over the nodes of
    the non-skipped intervals, in order) then draws only from
    ``derive_rng(word, "gap-node", i)``, in chunks of _MC_CHUNK samples: the
    endpoint indices, the X_u normals and the X_{u_k} normals of each chunk
    in turn. The nodes run on every CPU (``_run_parallel``: the caller plus
    forked workers) and each keeps only its own chunk and two per-sample
    error vectors, so the report depends only on ``rng`` and the arguments,
    not on the oracle's block budget or the CPU count, and transient memory
    does not grow with the node count.
    """
    if n_mc < _MC_MIN:
        raise ValueError(f"need n_mc >= {_MC_MIN}, got {n_mc}")
    if nodes_per_interval < 1:
        raise ValueError("nodes_per_interval must be >= 1")
    if grid.horizon > _MAX_BRIDGE_LEVEL:
        raise ValueError(f"grid horizon {grid.horizon} exceeds {_MAX_BRIDGE_LEVEL}; the filtered means overflow there")
    onehot = onehot_matrix(nu.vocab, nu.length)
    horizon = grid.horizon
    report = GapReport(n_mc=n_mc)
    # (interval, t, u, u_k, coeff) per node
    nodes = []
    for k, (u_k, u_next) in enumerate(grid.pairs()):
        gamma = u_k - u_next
        if gamma <= 1e-12:
            report.skipped_intervals.append(k)
            continue
        t_k = horizon - u_k
        for j in range(nodes_per_interval):
            frac = (j + 1.0) / (nodes_per_interval + 1.0)
            nodes.append((k, t_k + frac * gamma, u_k - frac * gamma, u_k, gamma / nodes_per_interval))
    word = int(rng.integers(1 << 64, dtype=np.uint64))

    def run(i: int):
        _, _, u, u_k, _ = nodes[i]
        return _gap_node(nu, onehot, u, u_k, n_mc, derive_rng(word, "gap-node", i))

    report.nodes.extend(
        GapNode(k, float(t), float(u), denoising_weight(u), float(coeff), *stats)
        for (k, t, u, _, coeff), stats in zip(nodes, _run_parallel(run, len(nodes)))
    )
    return report
