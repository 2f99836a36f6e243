"""Clipped-surrogate policy optimization with a curriculum training loop.

The agent is a discrete softmax policy plus a state-value baseline,
both tiny tanh MLPs (see :mod:`reserve_rl.nets`).  Updates maximize the
clipped importance-ratio surrogate with an entropy bonus, against a
squared-error value loss; advantages come from generalized advantage
estimation over whole-episode rollouts.  Each seed trains from its own
random streams, so a (seed, config) pair fully determines its policy bit
for bit, whether the seeds train one after another or in parallel worker
processes (:func:`train_curriculum`).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .artifacts import write_records
from .env import ACTION_GRID, TIE_BREAK_ORDER, EnvFactory, EnvState
from .errors import ConfigError, NumericalError
from .nets import (
    Adam,
    MLPParams,
    clip_global_norm,
    flat_views,
    init_mlp,
    log_softmax,
    mlp_backward,
    mlp_forward,
    mlp_rows,
    softmax,
)
from .parallel import map_split, one_blas_thread
from .regimes import CurriculumSchedule, Stochastic

log = logging.getLogger(__name__)

OBS_DIM = 7
N_ACTIONS = len(ACTION_GRID)

#: Divisor that maps the regime level into the observation's unit range.
LEVEL_SCALE = 3.0


def _mean(x: np.ndarray) -> float:
    """``x.mean()`` of a 1-D array, bit for bit: the same sum and division
    (booleans summed as float64), without numpy's Python-level wrapper."""
    total = np.add.reduce(x, dtype=float) if x.dtype == bool else np.add.reduce(x)
    return float(total / x.size)


@dataclass(frozen=True)
class PPOConfig:
    """Optimization hyperparameters, and the ``[ppo]`` INI section field for
    field (defaults are the reference values)."""

    learning_rate: float = 3e-4
    batch_size: int = 2048
    minibatch_size: int = 256
    epochs: int = 10
    discount: float = 0.99
    clip_range: float = 0.2
    entropy_coef: float = 0.01
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    reward_norm: bool = True
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.minibatch_size < 1:
            raise ConfigError("batch_size and minibatch_size must be >= 1")
        if not 0.0 <= self.discount <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigError("discount and gae_lambda must lie in [0, 1]")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        # a negative rate would climb the loss, an infinite one diverge at once
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate!r}")
        # a clip range or norm bound <= 0 inverts or freezes every update,
        # and a negative value weight trains the value head by ascent
        if not self.clip_range > 0.0:
            raise ConfigError(f"clip_range must be > 0, got {self.clip_range!r}")
        if not self.max_grad_norm > 0.0:
            raise ConfigError(f"max_grad_norm must be > 0 (inf disables clipping), "
                              f"got {self.max_grad_norm!r}")
        if not 0.0 <= self.value_coef < math.inf:
            raise ConfigError(f"value_coef must be >= 0 and finite, got {self.value_coef!r}")
        if not math.isfinite(self.entropy_coef):
            raise ConfigError(f"entropy_coef must be finite, got {self.entropy_coef!r}")


def observe(state: EnvState) -> np.ndarray:
    """Flatten the environment state into the 7-feature observation:
    shape (7,), or (E, 7) for a lockstep state of (E,) columns."""
    features = [
        state.reserve,
        state.loss,
        state.volatility,
        state.adequacy,
        state.violation_memory,
        state.shock,
        state.level / LEVEL_SCALE,
    ]
    if np.ndim(state.reserve) == 0:
        return np.array(features, dtype=float)
    obs = np.empty((len(state.reserve), OBS_DIM))
    for i, column in enumerate(features):
        obs[:, i] = column
    return obs


@dataclass
class AgentParams:
    """Policy and value networks as views into one float64 ``vector`` (see
    :func:`reserve_rl.nets.flat_views`).  Gradients share the layout, so the
    finiteness check, the clip and the optimiser step each see one array."""

    vector: np.ndarray
    policy: MLPParams
    value: MLPParams

    @classmethod
    def empty_like(cls, policy: MLPParams, value: MLPParams) -> "AgentParams":
        """Uninitialized arrays laid out like ``policy`` then ``value``."""
        vector, (policy_view, value_view) = flat_views((policy, value))
        return cls(vector=vector, policy=policy_view, value=value_view)

    @classmethod
    def from_networks(cls, policy: MLPParams, value: MLPParams) -> "AgentParams":
        """A copy of ``policy`` and ``value`` laid out as :meth:`empty_like`."""
        params = cls.empty_like(policy, value)
        for src, dst in zip(policy.layers() + value.layers(), params.layers()):
            dst[...] = src
        return params

    def __reduce__(self):
        # Pickled arrays lose their views into ``vector``; rebuild those on
        # load (a worker's result, say).
        return (AgentParams.from_networks, (self.policy, self.value))

    def layers(self) -> list[np.ndarray]:
        return self.policy.layers() + self.value.layers()


def init_agent(rng: np.random.Generator, config: PPOConfig) -> AgentParams:
    """Fresh policy and value networks.

    The policy output layer is near-zero so the initial action
    distribution is near-uniform; the value head starts at full gain.
    """
    sizes = (OBS_DIM, *config.hidden)
    policy = init_mlp((*sizes, N_ACTIONS), rng, final_gain=0.01)
    value = init_mlp((*sizes, 1), rng, final_gain=1.0)
    return AgentParams.from_networks(policy, value)


def act_sample(
    policy: MLPParams, obs: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one action per row of ``obs`` (E, 7) by inverting the
    policy's CDF at the row's draw from U[0, 1) in ``uniforms`` (E,);
    returns (actions, log-probabilities), both (E,)."""
    logp_all = log_softmax(mlp_rows(policy, obs))
    cdf = np.cumsum(np.exp(logp_all), axis=1)
    actions = np.minimum((cdf <= uniforms[:, None]).sum(axis=1), N_ACTIONS - 1)
    return actions, logp_all[np.arange(len(actions)), actions]


def act_greedy(policy: MLPParams, obs: np.ndarray) -> np.ndarray:
    """Most probable action (B,) for each row of ``obs`` (B, 7); ties
    prefer the smallest adjustment, then the negative-sign variant (so a
    uniform policy holds the reserve)."""
    probs = softmax(mlp_rows(policy, obs))[:, TIE_BREAK_ORDER]
    return TIE_BREAK_ORDER[np.argmax(probs == probs.max(axis=1, keepdims=True), axis=1)]


def state_value(value: MLPParams, obs: np.ndarray) -> np.ndarray:
    """Value estimates (E,) for the rows of ``obs`` (E, 7)."""
    return mlp_rows(value, obs)[:, 0]


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    discount: float,
    gae_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over a (multi-episode) rollout.

    ``dones[t]`` marks t as an episode's final transition; the value
    beyond a terminal step is zero, and the recursion does not leak
    across episode boundaries.  Returns (advantages, returns) where
    returns = advantages + values.

    Raises:
        ConfigError: Input arrays disagree in length.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    n = rewards.size
    if values.size != n or dones.size != n:
        raise ConfigError(
            f"rewards/values/dones lengths differ: {n}/{values.size}/{dones.size}"
        )
    if n == 0:
        raise ConfigError("cannot run GAE on an empty rollout")
    advantages = np.empty(n)
    next_advantage = 0.0
    next_value = 0.0
    for t in range(n - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + discount * next_value * not_done - values[t]
        next_advantage = delta + discount * gae_lambda * not_done * next_advantage
        advantages[t] = next_advantage
        next_value = values[t]
    return advantages, advantages + values


class RunningReturnNormalizer:
    """Scales rewards by a running stddev of the discounted return.

    Mirrors the usual vectorized-env return normalization: an
    accumulator tracks the discounted return, its running variance is
    estimated online (weakly initialized at 1 so early steps stay
    bounded), and each reward is divided by sqrt(var + 1e-8).  Disabled
    instances pass rewards through untouched (evaluation mode).
    """

    def __init__(self, discount: float, enabled: bool = True) -> None:
        self.discount = discount
        self.enabled = enabled
        self._ret = 0.0
        self._count = 1e-4
        self._mean = 0.0
        self._var = 1.0

    def normalize(self, reward: float, done: bool) -> float:
        if not self.enabled:
            return reward
        self._ret = self._ret * self.discount + reward
        # Welford-style update of the return variance.
        self._count += 1.0
        delta = self._ret - self._mean
        self._mean += delta / self._count
        self._var += (delta * (self._ret - self._mean) - self._var) / self._count
        if done:
            self._ret = 0.0
        return reward / math.sqrt(self._var + 1e-8)


# --- loss and update ----------------------------------------------------------

@dataclass
class Batch:
    """On-policy transitions collected under the current networks."""

    obs: np.ndarray          # (B, OBS_DIM)
    actions: np.ndarray      # (B,) int
    old_logp: np.ndarray     # (B,)
    advantages: np.ndarray   # (B,)
    returns: np.ndarray      # (B,) GAE returns G = advantages + values
    values: np.ndarray       # (B,) value estimates V made during the rollout

    def __len__(self) -> int:
        return int(self.actions.size)

    def select(self, idx: np.ndarray) -> "Batch":
        return Batch(*(getattr(self, f.name)[idx] for f in fields(self)))


@dataclass
class UpdateStats:
    """One minibatch's loss terms and pre-clip gradient norm or, from
    :func:`ppo_update`, their means over an update's minibatches plus the
    value head's explained variance over the whole batch."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float
    grad_norm: float = 0.0
    explained_variance: float = math.nan


def explained_variance(values: np.ndarray, returns: np.ndarray) -> float:
    """``1 - Var(G - V) / Var(G)`` of returns G against value estimates V:
    1 for a perfect value head, 0 for a constant one; NaN when G does not
    vary."""
    var_returns = returns.var()
    if var_returns == 0.0:
        return math.nan
    return float(1.0 - (returns - values).var() / var_returns)


def ppo_loss_and_grads(
    policy: MLPParams,
    value: MLPParams,
    batch: Batch,
    config: PPOConfig,
    grads: AgentParams,
) -> tuple[float, UpdateStats]:
    """Scalar loss and its exact analytic gradients for one minibatch.

    The loss is ``-E[min(r A, clip(r) A)] - c_H E[H] + c_V E[(G - v)^2]``
    with importance ratio r against the stored behaviour log-probs.
    Advantages are used exactly as passed in (the caller owns any
    normalization), which keeps this function a pure, finite-difference
    checkable map from parameters to a scalar.  The gradients are
    written into ``grads`` (see :meth:`AgentParams.empty_like`).
    """
    n = len(batch)
    if n == 0:
        raise ConfigError("empty minibatch")
    clip = config.clip_range

    logits, policy_cache = mlp_forward(policy, batch.obs)
    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    rows = np.arange(n)
    logp = logp_all[rows, batch.actions]
    ratio = np.exp(logp - batch.old_logp)

    adv = batch.advantages
    surr_raw = ratio * adv
    clipped_ratio = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    surr_clipped = clipped_ratio * adv
    use_raw = surr_raw <= surr_clipped  # min(); ties take the raw branch
    surrogate = np.where(use_raw, surr_raw, surr_clipped)

    entropy = -(probs * logp_all).sum(axis=1)

    values_out, value_cache = mlp_forward(value, batch.obs)
    v = values_out[:, 0]
    value_err = v - batch.returns

    policy_loss = -_mean(surrogate)
    mean_entropy = _mean(entropy)
    value_loss = _mean(value_err**2)
    loss = policy_loss - config.entropy_coef * mean_entropy + config.value_coef * value_loss

    # d loss / d logp  (only where the active branch depends on the ratio)
    inside = (ratio > 1.0 - clip) & (ratio < 1.0 + clip)
    dsurr_dlogp = np.where(use_raw, ratio * adv, np.where(inside, ratio * adv, 0.0))
    dlogp = -dsurr_dlogp / n

    # d loss / d logits: chosen-action term plus entropy term.
    dlogits = probs * (-dlogp)[:, None]
    dlogits[rows, batch.actions] += dlogp
    dlogits += (config.entropy_coef / n) * probs * (logp_all + entropy[:, None])

    mlp_backward(policy, policy_cache, dlogits, grads.policy)

    dv = (2.0 * config.value_coef / n) * value_err
    mlp_backward(value, value_cache, dv[:, None], grads.value)

    stats = UpdateStats(
        policy_loss=policy_loss,
        value_loss=value_loss,
        entropy=mean_entropy,
        clip_fraction=_mean(~use_raw),
        approx_kl=_mean(batch.old_logp - logp),
    )
    return loss, stats


def ppo_update(
    agent: AgentParams,
    batch: Batch,
    config: PPOConfig,
    adam: Adam,
    rng: np.random.Generator,
) -> UpdateStats:
    """Run the full multi-epoch minibatch update over one batch in place.

    Advantages are normalized to zero mean / unit variance over the
    whole batch before any epoch.  ``adam`` steps ``agent.vector``.
    Returns the mean of the minibatches' statistics and the batch's
    :func:`explained_variance`.

    Raises:
        ConfigError: No transitions.
        NumericalError: NaN or infinity in any gradient.
    """
    n = len(batch)
    if n == 0:
        raise ConfigError("cannot update from an empty batch")
    explained = explained_variance(batch.values, batch.returns)
    adv = batch.advantages
    batch = replace(batch, advantages=(adv - _mean(adv)) / (adv.std() + 1e-8))
    grads = AgentParams.empty_like(agent.policy, agent.value)
    minibatch_stats = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            mini = batch.select(order[start : start + config.minibatch_size])
            _, stats = ppo_loss_and_grads(agent.policy, agent.value, mini, config, grads)
            if not np.isfinite(grads.vector).all():
                raise NumericalError("non-finite gradient in update")
            stats.grad_norm = clip_global_norm(grads.vector, grads.layers(), config.max_grad_norm)
            adam.step(agent.vector, grads.vector)
            minibatch_stats.append(stats)
    return UpdateStats(**{
        f.name: float(np.mean([getattr(s, f.name) for s in minibatch_stats]))
        for f in fields(UpdateStats)
        if f.name != "explained_variance"
    }, explained_variance=explained)


# --- curriculum training -------------------------------------------------------

@dataclass(frozen=True)
class TrainLogRow:
    """One episode's aggregates in the training log."""

    seed: int
    level: int
    episode: int
    mean_reward: float
    mean_shortfall: float
    mean_cvar: float
    violation_rate: float


class SeedRun(NamedTuple):
    """One seed's training: the seed, the final networks, its training-log
    rows, its per-update ``(level, statistics)`` (the statistics being
    means over the minibatches) and the environment steps it took."""

    seed: int
    agent: AgentParams
    log: list[TrainLogRow]
    update_stats: list[tuple[int, UpdateStats]]
    env_steps: int


def write_training_log(runs: Sequence[SeedRun], path: str) -> None:
    """Every run's episode rows, run by run."""
    write_records(path, TrainLogRow, (row for run in runs for row in run.log))


def write_update_log(runs: Sequence[SeedRun], path: str) -> None:
    """One row per update, run by run: seed, level, the update's index in
    its seed's run (from 0), then the :class:`UpdateStats` fields
    (minibatch means, then the batch's explained variance)."""
    write_records(path, UpdateStats, (
        (run.seed, level, update, stats)
        for run in runs
        for update, (level, stats) in enumerate(run.update_stats)
    ), keys=("seed", "level", "update"))


#: One training, ``(make_env, config, schedule, seed)``: :func:`train_seed`'s arguments.
TrainJob = tuple[EnvFactory, PPOConfig, CurriculumSchedule, int]


def train_seed(
    make_env: EnvFactory,
    config: PPOConfig,
    schedule: CurriculumSchedule,
    seed: int,
) -> SeedRun:
    """Train one policy along the regime curriculum from ``seed`` alone:
    ``SeedSequence(seed).spawn(4)`` gives the initialisation, environment,
    action and update streams, so no other job can change a bit of it.

    Walks ``schedule.levels`` in order; each level ramps its shock
    parameters in from the previous level's, runs
    ``schedule.episodes_per_level`` episodes, and updates after every
    batch.  A batch is the level's next ``ceil(batch_size / horizon)``
    episodes or the rest of the level.  They roll out together
    (draw_paths, rollout) with the action uniforms drawn up front as one
    (episodes, horizon) array and one forward pass per network per step
    over all of them, bit for bit as stepping one episode at a time would
    (the forward is batch invariant).  The environment's shortfall buffer
    is cleared at level transitions.
    """
    streams = np.random.SeedSequence(seed).spawn(4)
    init_rng, env_rng, action_rng, update_rng = map(np.random.default_rng, streams)
    agent = init_agent(init_rng, config)
    adam = Adam(agent.vector, lr=config.learning_rate)
    normalizer = RunningReturnNormalizer(config.discount, enabled=config.reward_norm)
    env = make_env()
    horizon = env.horizon
    log_rows: list[TrainLogRow] = []

    def rollout_batch(level: int, episodes: range) -> Batch:
        n = len(episodes)
        paths = env.draw_paths(
            env_rng, Stochastic(level), n, [schedule.ramp_progress(ep) for ep in episodes],
            schedule,
        )
        uniforms = action_rng.random((n, horizon))
        obs = np.empty((n, horizon, OBS_DIM))
        actions = np.empty((n, horizon), dtype=int)
        logps = np.empty((n, horizon))
        values = np.empty((n, horizon))

        def sample(state: EnvState) -> np.ndarray:
            t = state.t
            rows = obs[:, t]
            rows[...] = observe(state)
            actions[:, t], logps[:, t] = act_sample(agent.policy, rows, uniforms[:, t])
            values[:, t] = state_value(agent.value, rows)
            return actions[:, t]

        trace = env.rollout(paths, sample)
        done = trace.t == horizon - 1
        rewards = [
            normalizer.normalize(reward, last)
            for reward, last in zip(trace.reward.tolist(), done.tolist())
        ]
        means = [
            column.reshape(n, horizon).mean(axis=1).tolist()
            for column in (trace.reward, trace.shortfall, trace.cvar, trace.violated)
        ]
        log_rows.extend(TrainLogRow(seed, level, *row) for row in zip(episodes, *means))
        advantages, returns = compute_gae(
            np.asarray(rewards), values.ravel(), done, config.discount, config.gae_lambda
        )
        return Batch(
            obs=obs.reshape(-1, OBS_DIM),
            actions=actions.ravel(),
            old_logp=logps.ravel(),
            advantages=advantages,
            returns=returns,
            values=values.ravel(),
        )

    per_batch = -(-config.batch_size // horizon)
    stats = []
    for level_idx, level in enumerate(schedule.levels):
        if level_idx > 0:
            env.clear_buffer()
        for first in range(0, schedule.episodes_per_level, per_batch):
            episodes = range(first, min(first + per_batch, schedule.episodes_per_level))
            batch = rollout_batch(level, episodes)
            stats.append((level, ppo_update(agent, batch, config, adam, update_rng)))
    return SeedRun(seed, agent, log_rows, stats, len(log_rows) * horizon)


def train_curriculum(jobs: Sequence[TrainJob], workers: int = 1) -> list[SeedRun]:
    """Train one policy per job along the regime curriculum (see
    :func:`train_seed`), the runs in job order.

    The jobs are dealt to up to ``workers`` processes by
    :func:`~reserve_rl.parallel.map_split`, with numpy's OpenBLAS on one
    thread per process for the whole call
    (:func:`~reserve_rl.parallel.one_blas_thread`), or all trained in the
    caller where no OpenBLAS is found to pin.  A job's outputs depend on
    its seed alone, so they are the serial run's bit for bit.

    Raises:
        ConfigError: ``workers`` is below 1.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    with one_blas_thread() as pinned:
        n_procs = min(workers, len(jobs)) if pinned else 1
        runs = map_split(lambda i: train_seed(*jobs[i]), len(jobs), n_procs)
    seconds = time.perf_counter() - started
    steps = sum(run.env_steps for run in runs)
    log.info("trained %d policies on %d workers in %.2f s (%.0f env steps/s)",
             len(jobs), n_procs, seconds, steps / seconds)
    return runs
