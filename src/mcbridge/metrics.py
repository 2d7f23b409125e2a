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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .discrete import JointDist, TokenSequence, onehot_matrix, token_index
from .kernels import NoiseGrid, denoising_weight, ou_coeffs, reverse_step_coeffs
from .oracle import (
    MarginalTable,
    _block_rows,
    discrete_kl,
    factorized_posterior,
    filtered_endpoint_means,
    joint_posterior,
    multi_information,
    posterior_marginals,
    row_entropy,
    token_marginals,
)


def _sequence_array(samples: Sequence[TokenSequence]) -> np.ndarray:
    if len(samples) == 0:
        raise ValueError("empty sample list")
    return np.asarray([s.tokens for s in samples], dtype=int)


def _sequence_indices(samples: Sequence[TokenSequence], nu: JointDist) -> np.ndarray:
    arr = _sequence_array(samples)
    if arr.shape[1] != nu.length:
        raise ValueError(f"samples have length {arr.shape[1]}, law has {nu.length}")
    return token_index(arr, nu.vocab)


def _unigram_entropies(samples: Sequence[TokenSequence]) -> np.ndarray:
    """Per-sample entropy of the within-sequence token histogram."""
    arr = _sequence_array(samples)
    vocab = max(s.vocab for s in samples)
    return row_entropy(np.stack([(arr == v).sum(axis=1) for v in range(vocab)], axis=1) / arr.shape[1])


def unigram_entropy(samples: Sequence[TokenSequence]) -> float:
    """Average over samples of the entropy of the within-sequence histogram."""
    return float(_unigram_entropies(samples).mean())


def unigram_entropy_se(samples: Sequence[TokenSequence]) -> float:
    vals = _unigram_entropies(samples)
    return float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0


def empirical_tv(samples: Sequence[TokenSequence], nu: JointDist) -> float:
    """Total variation between the empirical sequence law and nu."""
    idx = _sequence_indices(samples, nu)
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
    idx = _sequence_indices(samples, nu)
    probs = nu.probs[idx]
    mask = probs > 0.0
    zero_count = int((~mask).sum())
    vals = -np.log(probs[mask])
    if vals.size == 0:
        return OracleNll(nll=math.inf, se=0.0, zero_count=zero_count)
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return OracleNll(nll=float(vals.mean()), se=se, zero_count=zero_count)


class FactorizationCheck(NamedTuple):
    kl: float
    mi: float
    gap: float


def factorization_check(nu: JointDist, t: float, x: np.ndarray) -> FactorizationCheck:
    """Exact-identity check: KL(joint posterior || product of its marginals)
    equals the conditional multi-information, computed by two routes."""
    joint = joint_posterior(nu, t, x)
    marg = token_marginals(joint)
    kl = discrete_kl(joint.probs, factorized_posterior(marg).probs)
    mi = multi_information(joint, marg)
    return FactorizationCheck(kl=kl, mi=mi, gap=abs(kl - mi))


class MomentCheck(NamedTuple):
    mean_residual: float
    cov_residual: float


def moment_check(marginals: MarginalTable, y: np.ndarray, u_k: float, u_next: float) -> MomentCheck:
    """Closed-form one-step moment comparison, no sampling.

    Enumerates the endpoint mixture induced by the marginal table and checks
    (i) its mean equals the frozen-mean bridge mean and (ii) its covariance
    exceeds the bridge covariance by exactly
    (sinh gamma / sinh u_k)^2 * blockdiag(diag(pi_l) - pi_l pi_l^T).
    """
    y = np.asarray(y, dtype=float)
    vocab, length = marginals.vocab, marginals.length
    a, b, var = reverse_step_coeffs(u_next, u_k)
    onehot = onehot_matrix(vocab, length)
    q = factorized_posterior(marginals).probs

    mus = a * onehot + b * y[None, :]
    mix_mean = q @ mus
    frozen_mean = a * marginals.mean_state() + b * y
    mean_residual = float(np.linalg.norm(mix_mean - frozen_mean))

    centered = mus - mix_mean[None, :]
    surplus_enum = (q[:, None] * centered).T @ centered
    surplus_claimed = np.zeros_like(surplus_enum)
    for pos in range(length):
        row = marginals.probs[pos]
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

    @property
    def weighted_gap_se(self) -> float:
        return self.coeff * self.weight * self.gap_se


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
        return [
            {
                "interval": n.interval,
                "t": n.t,
                "u": n.u,
                "weight": n.weight,
                "coeff": n.coeff,
                "ddpm_err": n.ddpm_err,
                "ddpm_se": n.ddpm_se,
                "mcb_err": n.mcb_err,
                "mcb_se": n.mcb_se,
                "gap": n.gap,
                "gap_se": n.gap_se,
            }
            for n in self.nodes
        ]

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

    Samples are processed in blocks of the oracle's ``_block_rows``: all
    endpoint uniforms and all X_u normals are drawn first, then the X_{u_k}
    normals block by block, so the report does not depend on the block size
    and transient memory does not grow with n_mc.
    """
    if n_mc < 1000:
        raise ValueError(f"need n_mc >= 1000, got {n_mc}")
    if nodes_per_interval < 1:
        raise ValueError("nodes_per_interval must be >= 1")
    onehot = onehot_matrix(nu.vocab, nu.length)
    rows = _block_rows(nu.probs.size)
    horizon = grid.horizon
    report = GapReport(n_mc=n_mc)
    for k, (u_k, u_next) in enumerate(grid.pairs()):
        gamma = u_k - u_next
        if gamma <= 1e-12:
            report.skipped_intervals.append(k)
            continue
        coeff = gamma / nodes_per_interval
        t_k = horizon - u_k
        for j in range(nodes_per_interval):
            frac = (j + 1.0) / (nodes_per_interval + 1.0)
            t = t_k + frac * gamma
            u = u_k - frac * gamma

            idx = nu.sample_indices(rng, n_mc)
            co_u = ou_coeffs(u)
            x_u = rng.standard_normal((n_mc, nu.dim))
            x_u *= co_u.sigma
            co_d = ou_coeffs(u_k - u)
            ddpm_sq, mcb_sq = np.empty(n_mc), np.empty(n_mc)
            for lo in range(0, n_mc, rows):
                hi = min(lo + rows, n_mc)
                xu = x_u[lo:hi]
                xu += co_u.c * onehot[idx[lo:hi]]
                x_uk = co_d.c * xu + co_d.sigma * rng.standard_normal(xu.shape)
                m_u = posterior_marginals(nu, u, xu).reshape(hi - lo, -1)
                prior_rows = posterior_marginals(nu, u_k, x_uk)
                m_uk = prior_rows.reshape(hi - lo, -1)
                m_bar = filtered_endpoint_means(prior_rows, xu, x_uk, u, u_k).reshape(hi - lo, -1)
                ddpm_sq[lo:hi] = ((m_u - m_uk) ** 2).sum(axis=1)
                mcb_sq[lo:hi] = ((m_u - m_bar) ** 2).sum(axis=1)
            diff = ddpm_sq - mcb_sq
            sqrt_n = math.sqrt(n_mc)
            report.nodes.append(
                GapNode(
                    interval=k,
                    t=float(t),
                    u=float(u),
                    weight=denoising_weight(u),
                    coeff=float(coeff),
                    ddpm_err=float(ddpm_sq.mean()),
                    ddpm_se=float(ddpm_sq.std(ddof=1) / sqrt_n),
                    mcb_err=float(mcb_sq.mean()),
                    mcb_se=float(mcb_sq.std(ddof=1) / sqrt_n),
                    gap=float(diff.mean()),
                    gap_se=float(diff.std(ddof=1) / sqrt_n),
                )
            )
    return report
