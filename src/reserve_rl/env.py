"""Sequential reserve-setting environment on a loss development triangle.

Each episode replays one accident year: losses start at the year's
first-lag incurred value and develop stochastically under chain-ladder
factors scaled by a macroeconomic shock, while the agent nudges its
carried reserve up or down by a bounded percentage each period.  The
reward penalizes shortfall below realized losses, the conditional tail
of recent shortfalls, capital locked up beyond losses, and breaches of
a volatility-indexed solvency floor.

Step order (fixed; tests rely on it): apply action -> develop losses ->
volatility proxy -> shortfall -> push to buffer -> adaptive alpha ->
tail estimate -> floor check on the new reserve -> violation memory ->
reward.  All reward components therefore describe the post-transition
position.

Evaluation and training step whole runs of episodes at once
(:meth:`ReserveEnv.draw_paths` then :meth:`ReserveEnv.rollout`): the loss
path never reads the reserve, so it is drawn up front, the reserve
recurrence advances every episode one period at a time, and the buffer's
tail estimates are replayed afterwards in the order single-episode
stepping would have made them.
Most transition pieces below therefore take floats or equal-shape arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .artifacts import field_names, write_csv_tables
from .errors import ConfigError, ReserveRlError
from .regimes import (
    MIN_SHOCK,
    CurriculumSchedule,
    ShockMode,
    Stochastic,
    effective_params,
    shock_for_step,
)
from .risk import ShortfallBuffer, adaptive_alpha, empirical_cvar
from .triangles import DevelopmentFactors, LossTriangle

#: Discrete reserve adjustments available each period (+/- 10% at most).
ACTION_GRID: tuple[float, ...] = (-0.10, -0.066, -0.033, 0.0, 0.033, 0.066, 0.10)

#: Index of the "hold" action (adjustment 0.0).
HOLD_ACTION = ACTION_GRID.index(0.0)

#: Action indices from smallest to largest move, the cut before the
#: raise at equal size: (3, 2, 4, 1, 5, 0, 6).  Ties between equally
#: good actions go to the earliest index in this order.
TIE_BREAK_ORDER: np.ndarray = np.array(
    sorted(range(len(ACTION_GRID)), key=lambda i: (abs(ACTION_GRID[i]), ACTION_GRID[i]))
)

#: (base, slope) of the solvency floor base + slope * V.
DEFAULT_FLOOR = (0.4, 0.2)
STRICT_FLOOR = (0.5, 0.3)

#: Trace CSV column layout (external interface; short physical names).
TRACE_HEADER = "episode,t,R,L,V,K,nu,M,level,action,reward,shortfall,cvar,violated"


@dataclass(frozen=True)
class EnvConfig:
    """Environment knobs, the ``[env]`` INI section field for field (same
    names, order and defaults); defaults reproduce the reference setup.

    Args:
        horizon: Episode length in periods; None means the number of
            development factors plus one, the depth of the triangle they
            were fitted on.
        vol_window: Trailing growth observations feeding the volatility
            proxy.
        vol_scale: Growth stddev mapped to volatility 1.0.
        noise_gain: Multiplier on the regime stddev for development
            noise; 0 gives a deterministic environment.
        floor: (base, slope) of the solvency floor base + slope * V; the
            INI names one of ``reserve_rl.config.FLOOR_FORMS``.
        buffer_capacity / warmup_min: Shortfall buffer sizing (both >= 1,
            warmup_min <= buffer_capacity).
        alpha: Pinned tail level in (0, 1); None adapts it to volatility.
        w_shortfall / w_cvar / w_inefficiency / w_floor: Penalty weights
            on the four reward components.
    """

    horizon: int | None = None
    vol_window: int = 4
    vol_scale: float = 0.5
    noise_gain: float = 1.0
    floor: tuple[float, float] = DEFAULT_FLOOR
    buffer_capacity: int = 1024
    warmup_min: int = 20
    alpha: float | None = None
    w_shortfall: float = 5.0
    w_cvar: float = 8.0
    w_inefficiency: float = 1.0
    w_floor: float = 10.0

    def __post_init__(self) -> None:
        if self.horizon is not None and self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if self.vol_window < 2:
            raise ConfigError(f"vol_window must be >= 2, got {self.vol_window}")
        # nan passes every range check below, and inf or nan reaches the reward
        for name in ("vol_scale", "noise_gain", "w_shortfall", "w_cvar", "w_inefficiency",
                     "w_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.vol_scale <= 0.0:
            raise ConfigError(f"vol_scale must be > 0, got {self.vol_scale}")
        if self.noise_gain < 0.0:
            raise ConfigError(f"noise_gain must be >= 0, got {self.noise_gain}")
        if min(self.floor) < 0.0:
            raise ConfigError("floor base and slope must be >= 0")
        for name in ("buffer_capacity", "warmup_min"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # a warm-up the buffer cannot hold would leave the tail estimate at 0 for good
        if self.warmup_min > self.buffer_capacity:
            raise ConfigError(f"warmup_min must be <= buffer_capacity ({self.buffer_capacity}), "
                              f"got {self.warmup_min}")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        for name in ("w_shortfall", "w_cvar", "w_inefficiency", "w_floor"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"reward weight {name} must be >= 0")


@dataclass(frozen=True)
class EnvState:
    """Observable state at decision time t.

    During a lockstep rollout the float fields are (E,) columns, one
    entry per episode, while ``level`` and ``t`` are shared.
    """

    reserve: float           # carried reserve R
    loss: float              # cumulative incurred losses L
    volatility: float        # trailing growth volatility proxy V in [0, 1]
    adequacy: float          # capital adequacy proxy K = 1 - |R - L|
    violation_memory: float  # EMA of solvency-floor breaches
    shock: float             # macro shock M in force for the next transition
    level: int               # regime severity level
    t: int                   # step index, 0-based


@dataclass(frozen=True)
class RewardComponents:
    """Post-transition quantities of one step: the four reward terms, the
    floor they were checked against and the tail level."""

    shortfall: float
    cvar: float
    inefficiency: float
    violated: bool
    floor: float
    alpha: float


@dataclass(frozen=True)
class StepOutcome:
    state: EnvState
    reward: float
    components: RewardComponents
    done: bool
    shock_applied: float
    action_value: float


# --- pure transition pieces (unit-testable in isolation) ---------------------

def apply_action(reserve: float, adjustment: float) -> float:
    """New reserve after a proportional adjustment, floored at zero."""
    return np.maximum(0.0, reserve * (1.0 + adjustment))


def grow_losses(loss: float, factor: float, shock: float, eps: float) -> float:
    """``max(0, L * (1 + (factor - 1) * shock + eps))`` for a drawn noise eps."""
    return np.maximum(0.0, loss * (1.0 + (factor - 1.0) * shock + eps))


def develop_losses(
    loss: float,
    factor: float,
    shock: float,
    noise_var: float,
    noise_gain: float,
    rng: np.random.Generator,
) -> float:
    """One period of loss development with shock-scaled systematic growth.

    ``L' = max(0, L * (1 + (factor - 1) * shock + eps))`` with
    ``eps ~ Normal(0, (noise_gain * sqrt(noise_var))^2)``.
    """
    eps = float(rng.normal(0.0, noise_gain * math.sqrt(noise_var)))
    return float(grow_losses(loss, factor, shock, eps))


def volatility_proxy(growths: Sequence[float], window: int, vol_scale: float) -> float:
    """Trailing population stddev of realized growth, squashed to [0, 1].

    ``growths`` holds one entry per step so far: floats, or (E,) columns
    (or the rows of a (steps, E) array) for episodes stepped in lockstep,
    giving an (E,) result.  The arithmetic is ``np.std``'s, in its order
    (sequential sum, divide by n, sequential sum of squared deviations,
    divide by n, square root), so it matches ``np.std`` bit for bit.
    Fewer than two observations give 0 (no dispersion measurable yet).
    """
    recent = growths[-window:]
    n = len(recent)
    if n < 2:
        return 0.0
    total = recent[0]
    for g in recent[1:]:
        total = total + g
    mean = total / n
    dev = recent[0] - mean
    squares = dev * dev
    for g in recent[1:]:
        dev = g - mean
        squares = squares + dev * dev
    return np.minimum(1.0, np.sqrt(squares / n) / vol_scale)


def solvency_floor(volatility: float, base: float, slope: float) -> float:
    """Regulatory minimum reserve: base + slope * V."""
    return base + slope * volatility


def update_violation_memory(memory: float, violated: bool) -> float:
    """EMA of breach indicators: 0.95 * memory + 0.05 * indicator."""
    return 0.95 * memory + 0.05 * violated


def compute_reward(
    config: EnvConfig, shortfall: float, cvar: float, inefficiency: float, violated: bool
) -> float:
    """Negative weighted sum of the four penalty components under
    ``config``'s ``w_*`` weights (floats for one step, equal-shape arrays
    for a lockstep rollout)."""
    return -(
        config.w_shortfall * shortfall
        + config.w_cvar * cvar
        + config.w_inefficiency * inefficiency
        + config.w_floor * violated
    )


@dataclass(frozen=True)
class LossPaths:
    """The action-independent part of a run of episodes, drawn up front.

    Row e is episode e; column t is the position at decision time t
    (column 0 is the reset position, column H the end of the episode).
    Nothing here depends on the reserve, so one draw serves any policy.
    """

    premium: np.ndarray     # (E,) earned premium of each episode's accident year
    level: int
    loss: np.ndarray        # (E, H + 1) cumulative incurred losses
    volatility: np.ndarray  # (E, H + 1) volatility proxy
    shock: np.ndarray       # (E, H + 1) shock driving the step from t

    @property
    def n_episodes(self) -> int:
        return self.loss.shape[0]


#: Lockstep action rule: (E,) action indices for a lockstep state.
LockstepPolicy = Callable[[EnvState], np.ndarray]

#: A scored model: ``model(env, seed, paths)`` is its trace on ``paths`` for seed ``seed``.
Model = Callable[["ReserveEnv", int, LossPaths], "Trace"]


class ReserveEnv:
    """Finite-horizon reserving environment over one triangle; the random
    stream and shock mode come with each :meth:`reset` or :meth:`draw_paths`.

    The shortfall buffer persists across episodes (recent operating
    history); call :meth:`clear_buffer` at curriculum level boundaries.
    The stream is consumed identically every step regardless of the
    action taken, so runs with a shared seed see identical loss and
    shock paths under any policy (common random numbers).
    """

    def __init__(self, triangle: LossTriangle, factors: DevelopmentFactors,
                 config: EnvConfig) -> None:
        # The triangle only seeds episodes (lag-1 starting losses); the
        # horizon may exceed its observed depth as long as the factors
        # cover every development step.
        horizon = config.horizon if config.horizon is not None else len(factors) + 1
        if len(factors) < horizon - 1:
            raise ConfigError(
                f"need at least {horizon - 1} development factors, got {len(factors)}"
            )
        self.triangle = triangle
        self.factors = factors
        self.config = config
        self.horizon = horizon
        self.buffer = ShortfallBuffer(config.buffer_capacity, config.warmup_min)
        self.state: EnvState | None = None
        self.premium: float | None = None
        self._done = True

    def clear_buffer(self) -> None:
        self.buffer.clear()

    def reset(
        self,
        rng: np.random.Generator,
        mode: ShockMode,
        episode_progress: float = 1.0,
        schedule: CurriculumSchedule | None = None,
    ) -> EnvState:
        """Start a new episode on an accident year drawn from ``rng``; the
        episode's :meth:`step` calls draw from ``rng`` in shock mode ``mode``.

        Args:
            episode_progress: Curriculum ramp progress in [0, 1]; 1.0
                (the default) uses the regime's exact parameters.
            schedule: Curriculum schedule supplying the ramp
                predecessor; only consulted when progress < 1.
        """
        schedule = schedule if schedule is not None else CurriculumSchedule()
        _, self._shock_var = effective_params(mode, episode_progress, schedule)
        self._rng, self._mode = rng, mode
        self._ramp_progress = episode_progress
        self._schedule = schedule

        self.premium, initial_loss = self._draw_year(rng)
        first_shock = shock_for_step(mode, episode_progress, schedule, rng)
        self._growths = []
        self._done = False
        self.state = EnvState(
            reserve=initial_loss,
            loss=initial_loss,
            volatility=0.0,
            adequacy=1.0,
            violation_memory=0.0,
            shock=first_shock,
            level=mode.level if isinstance(mode, Stochastic) else 0,
            t=0,
        )
        return self.state

    def _draw_year(self, rng: np.random.Generator) -> tuple[float, float]:
        """Premium and first-lag loss of an accident year drawn from ``rng``."""
        year = self.triangle.years[int(rng.integers(self.triangle.n_accident_years))]
        return self.triangle.premium(year), self.triangle.value(year, 1)

    def step(self, action_index: int) -> StepOutcome:
        """Advance one period under the chosen reserve adjustment."""
        if self._done or self.state is None:
            raise ReserveRlError("reset() must be called before stepping")
        if not isinstance(action_index, (int, np.integer)) or isinstance(action_index, bool):
            raise ConfigError(f"action index must be an integer, got {action_index!r}")
        if not 0 <= action_index < len(ACTION_GRID):
            raise ConfigError(
                f"action index {action_index} outside grid of size {len(ACTION_GRID)}"
            )
        state = self.state
        adjustment = ACTION_GRID[action_index]
        cfg = self.config

        new_reserve = float(apply_action(state.reserve, adjustment))
        factor = self.factors.factor_for_step(state.t)
        new_loss = develop_losses(
            state.loss, factor, state.shock, self._shock_var, cfg.noise_gain, self._rng
        )
        growth = new_loss / state.loss - 1.0 if state.loss > 0.0 else 0.0
        self._growths.append(growth)
        new_vol = float(volatility_proxy(self._growths, cfg.vol_window, cfg.vol_scale))

        shortfall = max(0.0, new_loss - new_reserve)
        self.buffer.push(shortfall)
        alpha = float(adaptive_alpha(new_vol)) if cfg.alpha is None else cfg.alpha
        estimate = empirical_cvar(self.buffer, alpha)
        floor = solvency_floor(new_vol, *cfg.floor)
        violated = new_reserve < floor
        new_memory = update_violation_memory(state.violation_memory, violated)
        inefficiency = abs(new_reserve - new_loss)

        components = RewardComponents(
            shortfall=shortfall,
            cvar=estimate.cvar,
            inefficiency=inefficiency,
            violated=violated,
            floor=floor,
            alpha=alpha,
        )
        reward = compute_reward(cfg, shortfall, estimate.cvar, inefficiency, violated)

        # Draw the next shock unconditionally so the stream advances the
        # same way every step (keeps common-random-number runs aligned).
        next_shock = shock_for_step(self._mode, self._ramp_progress, self._schedule, self._rng)

        next_t = state.t + 1
        done = next_t == self.horizon
        new_state = EnvState(
            reserve=new_reserve,
            loss=new_loss,
            volatility=new_vol,
            adequacy=1.0 - inefficiency,
            violation_memory=new_memory,
            shock=next_shock,
            level=state.level,
            t=next_t,
        )
        self.state = new_state
        self._done = done
        return StepOutcome(
            state=new_state,
            reward=reward,
            components=components,
            done=done,
            shock_applied=state.shock,
            action_value=adjustment,
        )

    def draw_paths(
        self,
        rng: np.random.Generator,
        mode: ShockMode,
        episodes: int,
        episode_progress: float | Sequence[float] = 1.0,
        schedule: CurriculumSchedule | None = None,
    ) -> LossPaths:
        """Draw the loss paths of ``episodes`` episodes from ``rng`` in
        shock mode ``mode``; the environment itself is left as it was.

        ``rng`` moves exactly as ``episodes`` rounds of
        :meth:`reset` (same arguments, with episode e at ramp progress
        ``episode_progress[e]`` when a sequence is given) and ``horizon``
        :meth:`step` calls would move it: per episode the accident year,
        then the episode's normals in one call, in the scalar order -- the
        first shock, then development noise and the next shock for each
        step (fixed shocks draw nothing of their own).  ``loc + scale * z``
        is how the generator forms a normal, so each value matches its
        scalar draw bit for bit.
        """
        schedule = schedule if schedule is not None else CurriculumSchedule()
        cfg = self.config
        # a scalar progress gives one (mu, var) pair, broadcast over the episodes
        shape = (episodes,) if np.ndim(episode_progress) else (1,)
        progress = np.broadcast_to(episode_progress, shape).tolist()
        params = [effective_params(mode, p, schedule) for p in progress]
        mu, var = np.array(params).reshape(-1, 2).T
        sd = np.sqrt(var)[:, None]
        stochastic = isinstance(mode, Stochastic)
        horizon = self.horizon
        n_normals = 1 + 2 * horizon if stochastic else horizon

        premium = np.empty(episodes)
        loss = np.empty((episodes, horizon + 1))
        z = np.empty((episodes, n_normals))
        for e in range(episodes):
            premium[e], loss[e, 0] = self._draw_year(rng)
            z[e] = rng.standard_normal(n_normals)

        if stochastic:
            shock = mu[:, None] + sd * z[:, 0::2]
            shock = np.where(shock < MIN_SHOCK, MIN_SHOCK, shock)
            noise = z[:, 1::2]
        else:
            shock = np.full((episodes, horizon + 1), mode.m)
            noise = z
        eps = 0.0 + cfg.noise_gain * sd * noise

        growth = np.empty((horizon, episodes))
        volatility = np.zeros((episodes, horizon + 1))
        for t in range(horizon):
            prev = loss[:, t]
            new = grow_losses(prev, self.factors.factor_for_step(t), shock[:, t], eps[:, t])
            loss[:, t + 1] = new
            alive = prev > 0.0
            growth[t] = np.where(alive, new / np.where(alive, prev, 1.0) - 1.0, 0.0)
            volatility[:, t + 1] = volatility_proxy(growth[:t + 1], cfg.vol_window, cfg.vol_scale)
        return LossPaths(
            premium=premium,
            level=mode.level if stochastic else 0,
            loss=loss,
            volatility=volatility,
            shock=shock,
        )

    def rollout(self, paths: LossPaths, policy: LockstepPolicy) -> Trace:
        """Step every episode of ``paths`` at once under ``policy``.

        The reserve, floor and violation memory advance one period at a
        time for all episodes together.  The tail term then comes from
        one :meth:`ShortfallBuffer.push_many` call over the shortfalls and
        alphas in episode-major order, so the buffer ends, and every
        reward comes out, exactly as stepping the episodes one by one
        would leave them.

        Raises:
            ConfigError: ``paths`` span another horizon than the
                environment's, or ``policy`` returned anything but one
                valid integer action index per episode.
        """
        cfg = self.config
        n_episodes, horizon = paths.n_episodes, self.horizon
        if paths.loss.shape[1] != horizon + 1:
            raise ConfigError(f"paths span {paths.loss.shape[1] - 1} periods, "
                              f"the environment's horizon is {horizon}")
        grid = np.asarray(ACTION_GRID)
        shape = (n_episodes, horizon)
        reserve_path = np.empty(shape)
        adjustment = np.empty(shape)
        memory_path = np.empty(shape)
        violated = np.empty(shape, dtype=bool)

        reserve = paths.loss[:, 0]
        memory = np.zeros(n_episodes)
        adequacy = np.ones(n_episodes)
        for t in range(horizon):
            state = EnvState(
                reserve=reserve,
                loss=paths.loss[:, t],
                volatility=paths.volatility[:, t],
                adequacy=adequacy,
                violation_memory=memory,
                shock=paths.shock[:, t],
                level=paths.level,
                t=t,
            )
            actions = np.asarray(policy(state))
            if (
                actions.shape != (n_episodes,)
                or actions.dtype.kind not in "iu"
                or np.any((actions < 0) | (actions >= len(ACTION_GRID)))
            ):
                raise ConfigError(
                    f"policy must return {n_episodes} action indices in "
                    f"[0, {len(ACTION_GRID)}), got {actions!r}"
                )
            adjustment[:, t] = grid[actions]
            reserve = apply_action(reserve, adjustment[:, t])
            floor = solvency_floor(paths.volatility[:, t + 1], *cfg.floor)
            violated[:, t] = reserve < floor
            memory = update_violation_memory(memory, violated[:, t])
            adequacy = 1.0 - np.abs(reserve - paths.loss[:, t + 1])
            reserve_path[:, t] = reserve
            memory_path[:, t] = memory

        loss = paths.loss[:, 1:]
        volatility = paths.volatility[:, 1:]
        shortfall = np.maximum(0.0, loss - reserve_path)
        alphas = adaptive_alpha(volatility) if cfg.alpha is None else cfg.alpha
        cvar = self.buffer.push_many(shortfall.ravel(), np.ravel(alphas)).reshape(shape)
        inefficiency = np.abs(reserve_path - loss)
        reward = compute_reward(cfg, shortfall, cvar, inefficiency, violated)
        return Trace(
            episode=np.repeat(np.arange(n_episodes), horizon),
            t=np.tile(np.arange(horizon), n_episodes),
            reserve=reserve_path.ravel(),
            loss=loss.ravel(),
            volatility=volatility.ravel(),
            adequacy=(1.0 - inefficiency).ravel(),
            violation_memory=memory_path.ravel(),
            shock=paths.shock[:, :horizon].ravel(),
            level=np.full(n_episodes * horizon, paths.level),
            action=adjustment.ravel(),
            reward=reward.ravel(),
            shortfall=shortfall.ravel(),
            cvar=cvar.ravel(),
            violated=violated.ravel().astype(float),
        )


@dataclass(frozen=True)
class EnvFactory:
    """Builds fresh environments over one triangle: ``factory()`` is a
    :class:`ReserveEnv` under ``config`` with an empty tail buffer."""

    triangle: LossTriangle
    factors: DevelopmentFactors
    config: EnvConfig

    def __call__(self) -> ReserveEnv:
        return ReserveEnv(self.triangle, self.factors, self.config)


# --- per-step traces ----------------------------------------------------------

_CSV_INT_COLUMNS = ("episode", "t", "level", "violated")


@dataclass
class Trace:
    """Columnar record of environment steps (post-transition snapshots).

    Column ``shock`` is the multiplier that drove the step; all other
    state columns describe the position after the step, i.e. exactly
    the quantities that entered that step's reward.
    """

    episode: np.ndarray
    t: np.ndarray
    reserve: np.ndarray
    loss: np.ndarray
    volatility: np.ndarray
    adequacy: np.ndarray
    violation_memory: np.ndarray
    shock: np.ndarray
    level: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    shortfall: np.ndarray
    cvar: np.ndarray
    violated: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.t.size)

    @classmethod
    def concat(cls, traces: Sequence["Trace"]) -> "Trace":
        if not traces:
            raise ValueError("cannot concatenate zero traces")
        return cls(**{
            name: np.concatenate([getattr(tr, name) for tr in traces])
            for name in _TRACE_COLUMNS
        })

    def write_csv(self, path: str) -> None:
        write_traces([path], [[self]])


#: :class:`Trace`'s columns in order, written under :data:`TRACE_HEADER`'s names.
_TRACE_COLUMNS = field_names(Trace)


def _csv_columns(traces: Iterable[Trace]) -> list[list[np.ndarray]]:
    """Each trace's columns as written: ints for the integer columns,
    float64 for the rest."""
    return [[
        getattr(trace, name).astype(int if name in _CSV_INT_COLUMNS else float, copy=False)
        for name in _TRACE_COLUMNS
    ] for trace in traces]


def write_traces(paths: Sequence[str], blocks: Iterable[Iterable[Trace]]) -> None:
    """Write trace ``i`` of every block to ``paths[i]``, block after block,
    in one :func:`write_csv_tables` call: a block is formatted as one
    group, so a value its traces share is formatted once, and it is
    dropped before the next block is taken."""
    write_csv_tables(paths, TRACE_HEADER, map(_csv_columns, blocks))
