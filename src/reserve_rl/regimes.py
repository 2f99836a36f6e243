"""Macroeconomic regimes and the curriculum shock process.

Four severity levels parameterize a Gaussian multiplicative shock on
claims development.  Training walks the levels in ascending order, with
a linear ramp between consecutive levels' parameters over the first few
episodes of each level; stress testing instead pins the shock to a
fixed constant for whole episodes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)

#: Multiplicative shocks smaller than this are clamped away: a zero or
#: negative shock would make cumulative losses collapse unrealistically.
MIN_SHOCK = 0.01


@dataclass(frozen=True)
class RegimeSpec:
    """Severity level with its shock distribution Normal(mu, var)."""

    level: int
    mu: float
    var: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ConfigError(f"regime mu must be finite, got {self.mu!r}")
        if not math.isfinite(self.var) or self.var < 0.0:
            raise ConfigError(f"regime var must be >= 0, got {self.var!r}")


#: Calm -> Moderate -> Volatile -> Recession severity ladder.
DEFAULT_REGIME_TABLE: Mapping[int, RegimeSpec] = {
    0: RegimeSpec(level=0, mu=1.0, var=0.01),
    1: RegimeSpec(level=1, mu=1.2, var=0.04),
    2: RegimeSpec(level=2, mu=1.5, var=0.09),
    3: RegimeSpec(level=3, mu=1.8, var=0.16),
}

REGIME_NAMES = {0: "calm", 1: "moderate", 2: "volatile", 3: "recession"}


@dataclass(frozen=True)
class Stochastic:
    """Draw a fresh shock each step from the (possibly ramped) regime."""

    level: int


@dataclass(frozen=True)
class FixedShock:
    """Hold the shock constant at m for every step of every episode."""

    m: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.m) or self.m <= 0.0:
            raise ConfigError(f"fixed shock must be positive, got {self.m!r}")


ShockMode = Union[Stochastic, FixedShock]


@dataclass(frozen=True)
class CurriculumSchedule:
    """Order and pacing of regime levels during training.

    Args:
        levels: Strictly ascending severity levels to visit, each one
            of the regime table's.
        episodes_per_level: Episodes spent at each level.
        ramp_episodes: Episodes over which a level's parameters are
            linearly interpolated from its predecessor's (the first
            level in the schedule starts at its own parameters).
    """

    levels: tuple[int, ...] = (0, 1, 2, 3)
    episodes_per_level: int = 200
    ramp_episodes: int = 50

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigError("curriculum needs at least one level")
        for level in self.levels:
            regime_params(level)
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError(f"curriculum levels must be strictly ascending, got {self.levels}")
        if self.episodes_per_level < 1:
            raise ConfigError(f"episodes_per_level must be >= 1, got {self.episodes_per_level}")
        if not 1 <= self.ramp_episodes <= self.episodes_per_level:
            raise ConfigError(
                f"ramp_episodes must be in [1, episodes_per_level], got {self.ramp_episodes}"
            )

    def predecessor(self, level: int) -> int | None:
        if level not in self.levels:
            raise ConfigError(f"level {level} is not part of the schedule {self.levels}")
        idx = self.levels.index(level)
        return self.levels[idx - 1] if idx > 0 else None

    def ramp_progress(self, episode_idx: int) -> float:
        """Ramp progress for the 0-based episode index within a level.

        Reaches exactly 1.0 at episode ``ramp_episodes - 1`` and stays
        there for the remainder of the level.
        """
        if episode_idx < 0:
            raise ConfigError(f"episode index must be >= 0, got {episode_idx}")
        return min(1.0, (episode_idx + 1) / self.ramp_episodes)


def regime_params(level: int) -> RegimeSpec:
    """Look up a severity level in the regime table.

    Raises:
        ConfigError: The level is not in the table.
    """
    try:
        return DEFAULT_REGIME_TABLE[level]
    except KeyError:
        raise ConfigError(
            f"unknown regime level {level!r}; known: {sorted(DEFAULT_REGIME_TABLE)}"
        ) from None


def interpolate(a: RegimeSpec, b: RegimeSpec, progress: float) -> tuple[float, float]:
    """Linear interpolation of (mu, var) between two regimes.

    Uses the convex-combination form so the endpoints are reproduced
    bitwise at progress 0 and 1.

    Raises:
        ConfigError: progress outside [0, 1].
    """
    if not 0.0 <= progress <= 1.0:
        raise ConfigError(f"progress must be in [0, 1], got {progress!r}")
    w = 1.0 - progress
    return (w * a.mu + progress * b.mu, w * a.var + progress * b.var)


def sample_shock(mu: float, var: float, rng: np.random.Generator) -> float:
    """One draw from Normal(mu, var); var is a variance, not a stddev."""
    return float(rng.normal(mu, math.sqrt(var)))


def effective_params(
    mode: ShockMode,
    episode_progress: float,
    schedule: CurriculumSchedule,
) -> tuple[float, float]:
    """Shock mean/variance in force for an episode.

    For :class:`Stochastic` episodes this applies the curriculum ramp
    from the predecessor level; for :class:`FixedShock` episodes the
    mean is the pinned constant and the variance reported is the calm
    (lowest-level) variance, which also drives the development noise.
    """
    if isinstance(mode, FixedShock):
        return (mode.m, regime_params(min(DEFAULT_REGIME_TABLE)).var)
    current = regime_params(mode.level)
    prev_level = schedule.predecessor(mode.level)
    if prev_level is None or episode_progress >= 1.0:
        return (current.mu, current.var)
    return interpolate(regime_params(prev_level), current, episode_progress)


def shock_for_step(
    mode: ShockMode,
    episode_progress: float,
    schedule: CurriculumSchedule,
    rng: np.random.Generator,
) -> float:
    """Shock multiplier for one environment step.

    Stochastic mode samples fresh from the ramped regime each call;
    fixed mode returns the constant.  Draws are clamped at
    :data:`MIN_SHOCK` (a >=4.5-sigma event for every default regime, so
    the clamp has no measurable effect on the sampling moments).
    """
    if isinstance(mode, FixedShock):
        return mode.m
    mu, var = effective_params(mode, episode_progress, schedule)
    draw = sample_shock(mu, var, rng)
    if draw < MIN_SHOCK:
        log.debug("clamped shock draw %.6f to %.2f", draw, MIN_SHOCK)
        return MIN_SHOCK
    return draw
