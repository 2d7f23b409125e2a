"""Closed-form Ornstein-Uhlenbeck kernels.

The forward corruption is dX = -X dt + sqrt(2) dB, whose transition is
Gaussian: X_t | X_0 ~ N(c_t X_0, sigma_t^2 I) with c_t = exp(-t) and
sigma_t^2 = 1 - exp(-2t), so c_t^2 + sigma_t^2 = 1 for every t.

This module provides those coefficients, the forward sampler, the score via
the posterior mean, the reverse-step bridge coefficients, and the change of
variables between the noise-level convention (data at u = 0) and the
flow-matching convention (data at t = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TAYLOR_CUTOFF = 1e-5

# sinh overflows double precision near 710; bridge-ratio forms would turn
# into inf/inf = nan, so reverse_step_coeffs rejects levels beyond this
_MAX_BRIDGE_LEVEL = 700.0


def stable_sinh(a: float) -> float:
    """sinh with an explicit 3-term Taylor branch for tiny arguments.

    Fine reverse grids make the last step width gamma_k tiny; the series
    a*(1 + a^2/6 + a^4/120) is exact to double precision for |a| < 1e-5.
    """
    if abs(a) < _TAYLOR_CUTOFF:
        a2 = a * a
        return a * (1.0 + a2 / 6.0 * (1.0 + a2 / 20.0))
    return math.sinh(a)


def _check_time(t: float, name: str = "t") -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {t}")
    return t


@dataclass(frozen=True)
class OuCoeffs:
    """Contraction c = exp(-t) and variance sigma2 = 1 - exp(-2t)."""

    c: float
    sigma2: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def ou_coeffs(t: float) -> OuCoeffs:
    t = _check_time(t)
    # -expm1(-2t) avoids cancellation in 1 - exp(-2t) for small t.
    return OuCoeffs(c=math.exp(-t), sigma2=-math.expm1(-2.0 * t))


def forward_sample(x0: np.ndarray, t: float, rng: np.random.Generator) -> np.ndarray:
    """Draw X_t | X_0 = x0 from the forward transition. Exact at t = 0."""
    co = ou_coeffs(t)
    x0 = np.asarray(x0, dtype=float)
    return co.c * x0 + co.sigma * rng.standard_normal(x0.shape)


def tweedie_score(x: np.ndarray, t: float, m: np.ndarray) -> np.ndarray:
    """Score of the noised marginal from the clean posterior mean m."""
    co = ou_coeffs(t)
    if co.sigma2 <= 0.0:
        raise ValueError("score is undefined at t = 0 (zero variance)")
    return (co.c * np.asarray(m, dtype=float) - np.asarray(x, dtype=float)) / co.sigma2


def fm_time_map(u: float) -> tuple[float, float]:
    """Map a forward noise level u > 0 to (t_fm, scale).

    In the flow-matching convention the state at time t_fm is
    t_fm * x_data + (1 - t_fm) * noise. A noise-level-u state y corresponds to
    y / scale with scale = c_u + sigma_u and t_fm = c_u / scale. The map is a
    strictly decreasing bijection from (0, inf) onto (0, 1).
    """
    u = float(u)
    if not math.isfinite(u) or u <= 0.0:
        raise ValueError(f"u must be finite and > 0, got {u}")
    co = ou_coeffs(u)
    scale = co.c + co.sigma
    return co.c / scale, scale


def fm_time_inverse(t_fm: float) -> float:
    """Inverse of fm_time_map: exp(-u) = t_fm / sqrt(t_fm^2 + (1-t_fm)^2)."""
    t_fm = float(t_fm)
    if not 0.0 < t_fm < 1.0:
        raise ValueError(f"t_fm must lie in (0, 1), got {t_fm}")
    return -math.log(t_fm) + 0.5 * math.log(t_fm * t_fm + (1.0 - t_fm) * (1.0 - t_fm))


def denoising_weight(u: float) -> float:
    """Path-KL integrand weight c_u^2 / sigma_u^4, computed as 1/(4 sinh^2 u).

    The two forms agree because 1/sinh(u) = 2 c_u / sigma_u^2; keeping a single
    tested implementation ensures every consumer weighs errors the same way.
    """
    u = float(u)
    if u <= 0.0:
        raise ValueError(f"u must be > 0, got {u}")
    sh = stable_sinh(u)
    return 1.0 / (4.0 * sh * sh)


def reverse_step_coeffs(u_next: float, u_k: float) -> tuple[float, float, float]:
    """Bridge coefficients for one reverse step from level u_k down to u_next.

    Returns (a, b, var) with next-state law N(a * x0 + b * y, var * I):
    a = sinh(u_k - u_next)/sinh(u_k), b = sinh(u_next)/sinh(u_k),
    var = 2 sinh(u_next) sinh(u_k - u_next)/sinh(u_k). At u_next = 0 the
    bridge is pinned: (1, 0, 0) exactly.
    """
    u_next = _check_time(u_next, "u_next")
    u_k = _check_time(u_k, "u_k")
    if u_next >= u_k:
        raise ValueError(f"need u_next < u_k, got u_next={u_next}, u_k={u_k}")
    if u_k > _MAX_BRIDGE_LEVEL:
        raise ValueError(f"u_k={u_k} exceeds {_MAX_BRIDGE_LEVEL}; the hyperbolic bridge forms overflow there")
    if u_next == 0.0:
        return 1.0, 0.0, 0.0
    sh_k = stable_sinh(u_k)
    sh_n = stable_sinh(u_next)
    sh_g = stable_sinh(u_k - u_next)
    return sh_g / sh_k, sh_n / sh_k, 2.0 * sh_n * sh_g / sh_k


@dataclass(frozen=True)
class NoiseGrid:
    """Strictly decreasing forward noise levels u_0 > u_1 > ... > u_K >= 0."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ValueError("a grid needs at least two levels")
        arr = np.asarray(self.levels, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid levels must be finite")
        if np.any(np.diff(arr) >= 0.0):
            raise ValueError("grid levels must be strictly decreasing")
        if arr[-1] < 0.0:
            raise ValueError("grid levels must be nonnegative")

    @property
    def horizon(self) -> float:
        return self.levels[0]

    @property
    def steps(self) -> int:
        return len(self.levels) - 1

    @property
    def terminal(self) -> float:
        return self.levels[-1]

    def pairs(self) -> list[tuple[float, float]]:
        """(u_k, u_{k+1}) for every reverse step."""
        return list(zip(self.levels[:-1], self.levels[1:]))

    @classmethod
    def uniform(cls, horizon: float, steps: int, terminal: float = 0.0) -> "NoiseGrid":
        """Uniform in reverse time: u_k = horizon - k*(horizon - terminal)/steps."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 <= terminal < horizon < math.inf:
            raise ValueError(f"need 0 <= terminal < horizon < inf, got horizon={horizon!r}, terminal={terminal!r}")
        lv = np.linspace(horizon, terminal, steps + 1)
        lv[0], lv[-1] = horizon, terminal
        return cls(levels=tuple(float(v) for v in lv))

    @classmethod
    def fm_uniform(cls, horizon: float, steps: int) -> "NoiseGrid":
        """Uniform in the flow-matching time t = fm_time_map(u)[0], from the horizon to u = 0.

        Equal steps in t are short steps in u near 0, where dt/du diverges,
        and long ones near the horizon, where t ~ exp(-u) is flat.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        t0, _ = fm_time_map(horizon)
        ts = np.linspace(t0, 1.0, steps + 1)
        levels = [horizon] + [fm_time_inverse(t) for t in ts[1:-1]] + [0.0]
        return cls(levels=tuple(levels))

    @classmethod
    def geometric(cls, horizon: float, steps: int, floor: float) -> "NoiseGrid":
        """Geometric decay over steps - 1 steps from horizon to floor, then a last step to u = 0."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < floor < horizon < math.inf:
            raise ValueError(f"need 0 < floor < horizon < inf, got horizon={horizon!r}, floor={floor!r}")
        return cls(levels=tuple(float(v) for v in np.geomspace(horizon, floor, steps)) + (0.0,))
