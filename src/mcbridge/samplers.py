"""Reverse samplers over a shared noise grid and marginal predictor.

Four methods share one harness:

  mcb  - sample a one-hot endpoint per position from the (temperature/nucleus
         transformed) predicted marginals, then sample the analytic bridge
         conditioned on that endpoint; exact one-hot output at terminal 0.
  ddpm - bridge toward the simplex-valued endpoint mean held fixed over the
         step (the frozen conditional-mean bridge).
  ode  - Euler probability-flow updates run natively in the flow-matching
         convention, with the exact scale/time change at each predictor query.
  sde  - Euler-Maruyama on the reverse diffusion with the posterior-mean
         score; stops at a positive floor level where the score is finite.

Chains are embarrassingly parallel: chain i owns the stream derived from
(seed, "chain", i), so its output never depends on how many chains run.
The batch runner advances all chains in lockstep and each chain reads its
own stream in a fixed order: the standard-normal start state, then, for each
segment of _DRAW_STEPS consecutive steps, one block of endpoint uniforms
(mcb only) and one block of Gaussian noise for the segment's steps with
nonzero variance; sde's exact final step draws its uniforms last. A solo
run (run_chain) is the same runner with one chain, so it reproduces its
batch counterpart draw for draw. The single-step functions below draw per
step and are not tied to that layout.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .discrete import TokenSequence
from .kernels import NoiseGrid, fm_time_inverse, fm_time_map, ou_coeffs, reverse_step_coeffs
from .predictors import MarginalPredictor, nucleus_rows, temperature_rows
from .seeding import derive_rng

METHODS = ("mcb", "ddpm", "ode", "sde")


class StepFailed(RuntimeError):
    """A reverse step raised; carries the offending step index and level."""

    def __init__(self, step: int, level: float, cause: Exception):
        super().__init__(f"step {step} (level {level:g}) failed: {cause}")
        self.step = step
        self.level = level


@dataclass(frozen=True)
class SamplerConfig:
    grid: NoiseGrid
    method: str
    temperature: float = 1.0
    nucleus_p: float = 1.0
    seed: int = 0
    chains: int = 1
    trace: bool = False
    sde_exact_final: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be > 0")
        if not 0.0 < self.nucleus_p <= 1.0:
            raise ValueError("nucleus_p must lie in (0, 1]")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.method in ("mcb", "ddpm", "ode") and self.grid.terminal != 0.0:
            raise ValueError(f"{self.method} needs a grid ending at 0, got {self.grid.terminal}")
        if self.method == "sde" and self.grid.terminal <= 0.0:
            raise ValueError("sde needs a grid ending at a positive floor level")


@dataclass
class StepRecord:
    step: int
    level: float
    state: np.ndarray
    entropy_mean: float
    endpoint: TokenSequence | None = None


@dataclass
class ChainTrace:
    records: list[StepRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


def _row_entropy_mean(rows: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(rows > 0.0, rows * np.log(rows), 0.0)
    return h.sum(axis=-1).mean(axis=-1)


def _sample_categorical_rows(rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row, scanning token ids in index order."""
    cdf = np.cumsum(rows, axis=-1)
    idx = np.sum(cdf < uniforms[..., None], axis=-1)
    return np.minimum(idx, rows.shape[-1] - 1)


def _onehot_from_tokens(tokens: np.ndarray, vocab: int) -> np.ndarray:
    n, length = tokens.shape
    out = np.zeros((n, length * vocab))
    rows = np.arange(n)
    for pos in range(length):
        out[rows, pos * vocab + tokens[:, pos]] = 1.0
    return out


def mcb_step(
    y: np.ndarray,
    u_k: float,
    u_next: float,
    pred: MarginalPredictor,
    tau: float,
    p: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, TokenSequence]:
    """One marginal-conditioned bridge step from level u_k down to u_next."""
    y = np.asarray(y, dtype=float)
    rows = pred.marginals_batch(y[None, :], u_k)
    rows = nucleus_rows(temperature_rows(rows, tau), p)
    uniforms = rng.random(pred.length)
    tokens = _sample_categorical_rows(rows[0], uniforms)
    endpoint = TokenSequence(tokens=tuple(int(t) for t in tokens), vocab=pred.vocab)
    x0 = _onehot_from_tokens(tokens[None, :], pred.vocab)[0]
    a, b, var = reverse_step_coeffs(u_next, u_k)
    if var == 0.0:
        return x0, endpoint
    noise = rng.standard_normal(y.size)
    return a * x0 + b * y + math.sqrt(var) * noise, endpoint


def ddpm_step(
    y: np.ndarray,
    u_k: float,
    u_next: float,
    pred: MarginalPredictor,
    rng: np.random.Generator,
) -> np.ndarray:
    """One frozen conditional-mean bridge step (endpoint mean, same bridge)."""
    y = np.asarray(y, dtype=float)
    m = pred.marginals_batch(y[None, :], u_k)[0].reshape(-1)
    a, b, var = reverse_step_coeffs(u_next, u_k)
    if var == 0.0:
        return a * m + b * y
    noise = rng.standard_normal(y.size)
    return a * m + b * y + math.sqrt(var) * noise


# below this flow-matching time the noise level saturates double precision,
# so predictor queries are clamped there (contraction ~ 2e-22)
_MIN_FM_TIME = 1e-21


def ode_step(
    y_fm: np.ndarray,
    t_k: float,
    t_next: float,
    pred: MarginalPredictor,
) -> np.ndarray:
    """One Euler probability-flow update in the flow-matching convention.

    The predictor works in the noise-level convention, so the query state is
    scale * y_fm at the level that maps to t_k; t_k = 0 queries at the
    pure-noise clamp level.
    """
    if not 0.0 <= t_k < t_next <= 1.0:
        raise ValueError(f"need 0 <= t_k < t_next <= 1, got {t_k}, {t_next}")
    y_fm = np.asarray(y_fm, dtype=float)
    u = fm_time_inverse(max(t_k, _MIN_FM_TIME))
    _, scale = fm_time_map(u)
    delta = pred.marginals_batch(scale * y_fm[None, :], u)[0].reshape(-1)
    return ((1.0 - t_next) * y_fm + (t_next - t_k) * delta) / (1.0 - t_k)


def sde_step(
    y: np.ndarray,
    t: float,
    t_next: float,
    pred: MarginalPredictor,
    horizon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One Euler-Maruyama step of the reverse diffusion dY = (Y + 2 s) dt + sqrt(2) dB."""
    if not 0.0 <= t <= t_next:
        raise ValueError(f"need 0 <= t <= t_next, got {t}, {t_next}")
    if t_next >= horizon:
        raise ValueError("step crosses the zero-noise singularity; stop at a positive level")
    y = np.asarray(y, dtype=float)
    if t_next == t:
        return y.copy()
    u = horizon - t
    co = ou_coeffs(u)
    m = pred.marginals_batch(y[None, :], u)[0].reshape(-1)
    score = (co.c * m - y) / co.sigma2
    h = t_next - t
    return y + h * (y + 2.0 * score) + math.sqrt(2.0 * h) * rng.standard_normal(y.size)


# Steps per block of per-chain draws. A fixed constant, never derived from n
# or the grid, so chain i's draws depend only on (seed, i).
_DRAW_STEPS = 8


def _segment_draws(
    rngs: list[np.random.Generator],
    noise_var: list[float],
    length: int,
    dim: int,
    with_uniforms: bool,
) -> Iterator[tuple[np.ndarray | None, np.ndarray | None]]:
    """Yield (uniforms, noise) for each step, each an (n, ...) array or None.

    Every _DRAW_STEPS steps, each chain draws the segment's endpoint uniforms
    (when ``with_uniforms``) in one call, then the Gaussian noise of the
    segment's steps whose variance is nonzero in a second call.
    """
    n = len(rngs)
    for start in range(0, len(noise_var), _DRAW_STEPS):
        seg = range(start, min(start + _DRAW_STEPS, len(noise_var)))
        noisy = [k for k in seg if noise_var[k] != 0.0]
        uniforms = np.empty((n, len(seg), length)) if with_uniforms else None
        noise = np.empty((n, len(noisy), dim))
        for i, rng in enumerate(rngs):
            if uniforms is not None:
                rng.random(out=uniforms[i])
            if noisy:
                rng.standard_normal(out=noise[i])
        steps_noise = iter(noise.transpose(1, 0, 2))
        for j, k in enumerate(seg):
            yield (
                None if uniforms is None else uniforms[:, j],
                next(steps_noise) if noise_var[k] != 0.0 else None,
            )


def _run_lockstep(
    cfg: SamplerConfig,
    pred: MarginalPredictor,
    rngs: list[np.random.Generator],
    with_trace: bool,
) -> tuple[np.ndarray, np.ndarray, list[ChainTrace] | None]:
    """Advance all chains together; chain i draws only from rngs[i].

    Chain i's draw order: its start state; then per segment of _DRAW_STEPS
    steps the endpoint uniforms (mcb only) and the noise of the steps with
    nonzero variance (see _segment_draws); last, sde_exact_final's uniforms.
    ode draws only the start state.
    """
    n = len(rngs)
    dim = pred.vocab * pred.length
    vocab, length = pred.vocab, pred.length
    states = np.empty((n, dim))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=states[i])
    traces: list[ChainTrace] | None = [ChainTrace() for _ in range(n)] if with_trace else None
    last_tokens: np.ndarray | None = None
    pairs = cfg.grid.pairs()

    if cfg.method == "ode":
        fm_times = [fm_time_map(u)[0] for u in cfg.grid.levels[:-1]] + [1.0]
        _, scale0 = fm_time_map(cfg.grid.horizon)
        states /= scale0
        for k in range(cfg.grid.steps):
            t_k, t_next = fm_times[k], fm_times[k + 1]
            u = cfg.grid.levels[k]
            try:
                _, scale = fm_time_map(u)
                rows = pred.marginals_batch(scale * states, u)
                delta = rows.reshape(n, dim)
                states = ((1.0 - t_next) * states + (t_next - t_k) * delta) / (1.0 - t_k)
            except Exception as exc:
                raise StepFailed(k, u, exc) from exc
            if traces is not None:
                ent = _row_entropy_mean(rows)
                for i in range(n):
                    traces[i].records.append(
                        StepRecord(step=k, level=u, state=states[i].copy(), entropy_mean=float(ent[i]))
                    )
        final = states

    elif cfg.method == "sde":
        # Euler-Maruyama noise variance 2h per step
        draws = _segment_draws(rngs, [2.0 * (u_k - u_next) for u_k, u_next in pairs], length, dim, False)
        for k, ((u_k, u_next), (_, noise)) in enumerate(zip(pairs, draws)):
            try:
                h = u_k - u_next
                co = ou_coeffs(u_k)
                rows = pred.marginals_batch(states, u_k)
                m = rows.reshape(n, dim)
                score = (co.c * m - states) / co.sigma2
                states = states + h * (states + 2.0 * score) + math.sqrt(2.0 * h) * noise
            except Exception as exc:
                raise StepFailed(k, u_k, exc) from exc
            if traces is not None:
                ent = _row_entropy_mean(rows)
                for i in range(n):
                    traces[i].records.append(
                        StepRecord(step=k, level=u_k, state=states[i].copy(), entropy_mean=float(ent[i]))
                    )
        if cfg.sde_exact_final:
            # one exact bridge-to-endpoint step from the floor level to 0
            u_floor = cfg.grid.terminal
            rows = pred.marginals_batch(states, u_floor)
            uniforms = np.empty((n, length))
            for i, rng in enumerate(rngs):
                rng.random(out=uniforms[i])
            tokens = _sample_categorical_rows(rows, uniforms)
            states = _onehot_from_tokens(tokens, vocab)
            last_tokens = tokens
        final = states

    else:  # mcb / ddpm
        coeffs = [reverse_step_coeffs(u_next, u_k) for u_k, u_next in pairs]
        draws = _segment_draws(rngs, [var for _, _, var in coeffs], length, dim, cfg.method == "mcb")
        for k, ((u_k, _), (uniforms, noise)) in enumerate(zip(pairs, draws)):
            try:
                rows = pred.marginals_batch(states, u_k)
                endpoints = None
                if cfg.method == "mcb":
                    rows = nucleus_rows(temperature_rows(rows, cfg.temperature), cfg.nucleus_p)
                    tokens = _sample_categorical_rows(rows, uniforms)
                    target = _onehot_from_tokens(tokens, vocab)
                    endpoints = tokens
                    last_tokens = tokens
                else:
                    target = rows.reshape(n, dim)
                a, b, var = coeffs[k]
                if noise is None:
                    states = a * target + b * states
                else:
                    states = a * target + b * states + math.sqrt(var) * noise
            except Exception as exc:
                raise StepFailed(k, u_k, exc) from exc
            if traces is not None:
                ent = _row_entropy_mean(rows)
                for i in range(n):
                    ep = None
                    if endpoints is not None:
                        ep = TokenSequence(tokens=tuple(int(t) for t in endpoints[i]), vocab=vocab)
                    traces[i].records.append(
                        StepRecord(
                            step=k, level=u_k, state=states[i].copy(), entropy_mean=float(ent[i]), endpoint=ep
                        )
                    )
        final = states

    decoded = np.argmax(final.reshape(n, length, vocab), axis=2)
    if cfg.method == "mcb" and cfg.grid.terminal == 0.0 and last_tokens is not None:
        decoded = last_tokens
    return final, decoded, traces


def _token_sequences(decoded: np.ndarray, vocab: int) -> list[TokenSequence]:
    """One TokenSequence per row; equal rows share one immutable object."""
    rows, inverse = np.unique(decoded, axis=0, return_inverse=True)
    distinct = [TokenSequence(tokens=tuple(int(t) for t in row), vocab=vocab) for row in rows]
    return [distinct[j] for j in inverse.reshape(-1)]


def run_chain(
    cfg: SamplerConfig,
    pred: MarginalPredictor,
    rng: np.random.Generator,
) -> tuple[np.ndarray, TokenSequence, ChainTrace | None]:
    """Run one chain from a standard-normal start over the configured grid."""
    final, decoded, traces = _run_lockstep(cfg, pred, [rng], with_trace=cfg.trace)
    return final[0], _token_sequences(decoded, pred.vocab)[0], traces[0] if traces is not None else None


def batch_sample(
    cfg: SamplerConfig,
    pred: MarginalPredictor,
    n: int,
    return_states: bool = False,
):
    """n independent chains; chain i uses the stream derived from (seed, i).

    Output order matches chain index, and each chain's output is unchanged
    when n grows because streams are derived per index, not sequentially.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rngs = [derive_rng(cfg.seed, "chain", i) for i in range(n)]
    final, decoded, _ = _run_lockstep(cfg, pred, rngs, with_trace=False)
    seqs = _token_sequences(decoded, pred.vocab)
    if return_states:
        return seqs, final
    return seqs


def batch_sample_traced(
    cfg: SamplerConfig,
    pred: MarginalPredictor,
    n: int,
) -> tuple[list[TokenSequence], np.ndarray, list[ChainTrace]]:
    """batch_sample with per-step records kept (identical streams)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rngs = [derive_rng(cfg.seed, "chain", i) for i in range(n)]
    final, decoded, traces = _run_lockstep(cfg, pred, rngs, with_trace=True)
    seqs = _token_sequences(decoded, pred.vocab)
    assert traces is not None
    return seqs, final, traces
