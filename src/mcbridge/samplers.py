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
nonzero variance. A solo run (run_chain) is the same runner with one chain,
so it reproduces its batch counterpart draw for draw.

Each method is one batched step function; the steps share one signature and
take their pre-drawn uniforms and noise, so the runner alone decides the draw
layout and a single-chain step is a batch of one.

A traced run (run_chain, or batch_sample with a ``steps`` list) also
collects one row of aggregates over the whole batch per step (see _step_row);
it draws nothing more, so its tokens and states equal the untraced run's.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .discrete import TokenSequence, onehot, onehot_tokens, token_sequences
from .kernels import NoiseGrid, fm_time_map, reverse_step_coeffs, tweedie_score
from .oracle import _ROW_TOL, row_entropy
from .predictors import MarginalPredictor, nucleus_rows, temperature_rows
from .seeding import check_seed, derive_rng


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

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {tuple(_METHODS)}")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature!r}")
        if not 0.0 < self.nucleus_p <= 1.0:
            raise ValueError(f"nucleus_p must lie in (0, 1], got {self.nucleus_p!r}")
        if self.method in ("mcb", "ddpm", "ode") and self.grid.terminal != 0.0:
            raise ValueError(f"{self.method} needs a grid ending at 0, got {self.grid.terminal}")
        if self.method == "sde" and self.grid.terminal <= 0.0:
            raise ValueError("sde needs a grid ending at a positive floor level")
        if self.method in ("mcb", "ddpm"):
            # levels fall along the grid, so a bridge that takes the first step takes every step
            try:
                reverse_step_coeffs(self.grid.levels[1], self.grid.horizon)
            except ValueError as exc:
                raise ValueError(f"{self.method} cannot step from the grid's horizon: {exc}") from exc
        check_seed(self.seed)


def _sample_categorical_rows(rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row, scanning token ids in index order.

    The CDF is a running sum over the first V - 1 token columns, each added
    to every row at once, and the token is the count of CDF entries below the
    row's uniform, so the last token takes whatever the rounded CDF leaves.
    """
    idx = np.zeros(uniforms.shape, dtype=np.intp)
    cdf = np.zeros(uniforms.shape)
    for v in range(rows.shape[-1] - 1):
        cdf += rows[..., v]
        idx += cdf < uniforms
    return idx


def _with_noise(mean: np.ndarray, var: float, noise: np.ndarray | None) -> np.ndarray:
    """mean + sqrt(var) * noise; a zero-variance step takes no noise block."""
    return mean if var == 0.0 else mean + math.sqrt(var) * noise


def mcb_step(
    states: np.ndarray,
    u_k: float,
    u_next: float,
    pred: MarginalPredictor,
    cfg: SamplerConfig,
    uniforms: np.ndarray | None,
    noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One marginal-conditioned bridge step from level u_k down to u_next.

    Each row of ``states`` (n, L*V) samples a one-hot endpoint from its
    temperature/nucleus-transformed marginals with ``uniforms`` (n, L), then
    takes the analytic bridge toward it with ``noise`` (n, L*V), which is
    unused when the step has zero variance. Every step function shares this
    signature and returns (next states, the rows it used, sampled tokens or
    None).
    """
    a, b, var = reverse_step_coeffs(u_next, u_k)
    rows = pred.marginals_batch(states, u_k)
    rows = nucleus_rows(temperature_rows(rows, cfg.temperature), cfg.nucleus_p)
    tokens = _sample_categorical_rows(rows, uniforms)
    return _with_noise(a * onehot(tokens, pred.vocab) + b * states, var, noise), rows, tokens


def ddpm_step(states, u_k, u_next, pred, cfg, uniforms, noise):
    """One frozen conditional-mean bridge step (endpoint mean, same bridge)."""
    a, b, var = reverse_step_coeffs(u_next, u_k)
    rows = pred.marginals_batch(states, u_k)
    return _with_noise(a * rows.reshape(states.shape) + b * states, var, noise), rows, None


def ode_step(states, u_k, u_next, pred, cfg, uniforms, noise):
    """One Euler probability-flow update, run in the flow-matching convention.

    ``states`` are flow-matching states at the time t_k that level u_k maps
    to (u_next = 0 maps to t = 1). The predictor works in the noise-level
    convention, so it is queried at scale * states.
    """
    if not 0.0 <= u_next < u_k:
        raise ValueError(f"need 0 <= u_next < u_k, got u_next={u_next}, u_k={u_k}")
    t_k, scale = fm_time_map(u_k)
    t_next = fm_time_map(u_next)[0] if u_next > 0.0 else 1.0
    rows = pred.marginals_batch(scale * states, u_k)
    return ((1.0 - t_next) * states + (t_next - t_k) * rows.reshape(states.shape)) / (1.0 - t_k), rows, None


def sde_step(states, u_k, u_next, pred, cfg, uniforms, noise):
    """One Euler-Maruyama step of the reverse diffusion, h = u_k - u_next:
    Y + h (Y + 2 score) + sqrt(2 h) noise, with the posterior-mean score."""
    if not 0.0 < u_next <= u_k:
        raise ValueError(f"need 0 < u_next <= u_k (the zero-noise level is singular), got {u_next}, {u_k}")
    h = u_k - u_next
    rows = pred.marginals_batch(states, u_k)
    score = tweedie_score(states, u_k, rows.reshape(states.shape))
    return _with_noise(states + h * (states + 2.0 * score), 2.0 * h, noise), rows, None


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


def _bridge_variance(u_k: float, u_next: float) -> float:
    return reverse_step_coeffs(u_next, u_k)[2]


# method -> (step, per-step noise variance, draws endpoint uniforms?)
_METHODS = {
    "mcb": (mcb_step, _bridge_variance, True),
    "ddpm": (ddpm_step, _bridge_variance, False),
    "ode": (ode_step, lambda u_k, u_next: 0.0, False),
    "sde": (sde_step, lambda u_k, u_next: 2.0 * (u_k - u_next), False),
}


def _checked_step(k: int, step, states: np.ndarray, u_k: float, u_next: float, pred, cfg, uniforms, noise):
    """Run one step; a failure, or rows that are not row-stochastic, raises StepFailed(k, u_k)."""
    try:
        states, rows, tokens = step(states, u_k, u_next, pred, cfg, uniforms, noise)
        # NaN fails both comparisons and an inf entry the row sum, so non-finite rows fail too
        if not (rows.min() >= 0.0 and np.abs(np.einsum("...v->...", rows) - 1.0).max() <= _ROW_TOL):
            raise ValueError("predicted rows are not finite, nonnegative and summing to 1")
    except Exception as exc:
        raise StepFailed(k, u_k, exc) from exc
    return states, rows, tokens


def _step_row(k: int, u_k: float, rows: np.ndarray, states: np.ndarray, tokens, prev_tokens) -> dict:
    """Aggregates of step k over every chain and position.

    switch_rate is the share of mcb endpoint tokens that differ from the
    previous step's; it is None at step 0 and for methods that draw no
    endpoint. state_norm and nonfinite describe the state after the step.
    """
    return {
        "step": k,
        "level": u_k,
        "entropy_mean": float(row_entropy(rows).mean()),
        "switch_rate": None if prev_tokens is None else float(np.mean(tokens != prev_tokens)),
        "state_norm": float(np.linalg.norm(states, axis=1).mean()),
        "nonfinite": int(np.count_nonzero(~np.isfinite(states))),
    }


def _run_lockstep(
    cfg: SamplerConfig,
    pred: MarginalPredictor,
    rngs: list[np.random.Generator],
    steps: list[dict] | None = None,
) -> tuple[np.ndarray, list[TokenSequence]]:
    """Advance all chains together; chain i draws only from rngs[i], in the
    order the module docstring gives. When ``steps`` is a list, one
    ``_step_row`` is appended to it per step."""
    vocab, length = pred.vocab, pred.length
    states = np.empty((len(rngs), vocab * length))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=states[i])
    if cfg.method == "ode":
        states /= fm_time_map(cfg.grid.horizon)[1]
    step, noise_var, with_uniforms = _METHODS[cfg.method]
    pairs = cfg.grid.pairs()
    draws = _segment_draws(rngs, [noise_var(*pair) for pair in pairs], length, states.shape[1], with_uniforms)
    tokens = None
    for k, ((u_k, u_next), (uniforms, noise)) in enumerate(zip(pairs, draws)):
        prev_tokens = tokens
        states, rows, tokens = _checked_step(k, step, states, u_k, u_next, pred, cfg, uniforms, noise)
        if steps is not None:
            steps.append(_step_row(k, u_k, rows, states, tokens, prev_tokens))
    decoded = tokens if tokens is not None else onehot_tokens(states, vocab)[0]
    return states, token_sequences(decoded, vocab)


def run_chain(
    cfg: SamplerConfig,
    pred: MarginalPredictor,
    rng: np.random.Generator,
) -> tuple[np.ndarray, TokenSequence, list[dict]]:
    """Run one chain from a standard-normal start over the configured grid.

    Returns its final state, its decoded tokens and its per-step rows.
    """
    steps: list[dict] = []
    final, seqs = _run_lockstep(cfg, pred, [rng], steps)
    return final[0], seqs[0], steps


def batch_sample(
    cfg: SamplerConfig,
    pred: MarginalPredictor,
    n: int,
    return_states: bool = False,
    steps: list[dict] | None = None,
):
    """n independent chains; chain i uses the stream derived from (seed, i).

    Output order matches chain index, and each chain's output is unchanged
    when n grows because streams are derived per index, not sequentially.
    When ``steps`` is a list, one aggregate row per step is appended to it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    final, seqs = _run_lockstep(cfg, pred, [derive_rng(cfg.seed, "chain", i) for i in range(n)], steps)
    return (seqs, final) if return_states else seqs
