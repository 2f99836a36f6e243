"""Clipped-surrogate policy optimization with a curriculum training loop.

The agent is a discrete softmax policy plus a state-value baseline,
both tiny tanh MLPs (see :mod:`reserve_rl.nets`).  Updates maximize the
clipped importance-ratio surrogate with an entropy bonus, against a
squared-error value loss; advantages come from generalized advantage
estimation over whole-episode rollouts.  Everything is seeded and
single-threaded, so a (seed, config) pair fully determines the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .env import ACTION_GRID, TIE_BREAK_ORDER, EnvState, ReserveEnv
from .errors import EmptyBatch, LengthMismatch, NonFiniteGradient
from .nets import (
    Adam,
    MLPParams,
    clip_global_norm,
    init_mlp,
    log_softmax,
    mlp_backward,
    mlp_forward,
    softmax,
)
from .regimes import CurriculumSchedule, ShockMode, Stochastic

OBS_DIM = 7
N_ACTIONS = len(ACTION_GRID)

#: Divisor that maps the regime level into the observation's unit range.
LEVEL_SCALE = 3.0

_TIE_BREAK = np.asarray(TIE_BREAK_ORDER)

#: Top-two probability gap (relative) below which a batched greedy choice
#: is re-decided on its own row.  A batched matrix product may round
#: differently from a single-row one in the last bits (about 1e-15 here),
#: so only a near-tie could flip; 1e-9 leaves a wide margin.
_NEAR_TIE = 1e-9


@dataclass(frozen=True)
class PPOConfig:
    """Optimization hyperparameters (defaults are the reference values)."""

    learning_rate: float = 3e-4
    batch_size: int = 2048
    epochs_per_update: int = 10
    discount: float = 0.99
    clip_range: float = 0.2
    entropy_coef: float = 0.01
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    reward_norm: bool = True
    minibatch_size: int = 256
    hidden_sizes: tuple[int, ...] = (64, 64)
    seeds: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.minibatch_size < 1:
            raise EmptyBatch("batch_size and minibatch_size must be >= 1")
        if not 0.0 <= self.discount <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise LengthMismatch("discount and gae_lambda must lie in [0, 1]")


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


def init_agent(rng: np.random.Generator, config: PPOConfig) -> tuple[MLPParams, MLPParams]:
    """Fresh policy and value networks.

    The policy output layer is near-zero so the initial action
    distribution is near-uniform; the value head starts at full gain.
    """
    sizes = (OBS_DIM, *config.hidden_sizes)
    policy = init_mlp((*sizes, N_ACTIONS), rng, final_gain=0.01)
    value = init_mlp((*sizes, 1), rng, final_gain=1.0)
    return policy, value


def policy_logits(policy: MLPParams, obs: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(policy, np.atleast_2d(obs))
    return out


def act_sample(
    policy: MLPParams, obs: np.ndarray, rng: np.random.Generator
) -> tuple[int, float]:
    """Sample an action index; returns (action, log-probability)."""
    logp_all = log_softmax(policy_logits(policy, obs))[0]
    cdf = np.cumsum(np.exp(logp_all))
    action = int(np.searchsorted(cdf, rng.random(), side="right"))
    action = min(action, N_ACTIONS - 1)
    return action, float(logp_all[action])


def act_greedy(policy: MLPParams, obs: np.ndarray) -> int | np.ndarray:
    """Most probable action; ties prefer the smallest adjustment, then
    the negative-sign variant (so a uniform policy holds the reserve).

    ``obs`` of shape (7,) gives an int; (B, 7) gives (B,) actions from
    one batched forward pass, each equal to the row's own (7,) choice.
    """
    probs = softmax(policy_logits(policy, obs))[:, _TIE_BREAK]
    best = probs.max(axis=1, keepdims=True)
    actions = _TIE_BREAK[np.argmax(probs == best, axis=1)]
    if obs.ndim == 1:
        return int(actions[0])
    if len(obs) > 1:
        runner_up = np.partition(probs, -2, axis=1)[:, -2]
        for i in np.flatnonzero(best[:, 0] - runner_up <= _NEAR_TIE * best[:, 0]):
            actions[i] = act_greedy(policy, obs[i])
    return actions


def state_value(value: MLPParams, obs: np.ndarray) -> float:
    out, _ = mlp_forward(value, np.atleast_2d(obs))
    return float(out[0, 0])


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
        LengthMismatch: Input arrays disagree in length.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    n = rewards.size
    if values.size != n or dones.size != n:
        raise LengthMismatch(
            f"rewards/values/dones lengths differ: {n}/{values.size}/{dones.size}"
        )
    if n == 0:
        raise EmptyBatch("cannot run GAE on an empty rollout")
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
    returns: np.ndarray      # (B,)

    def __len__(self) -> int:
        return int(self.actions.size)

    def select(self, idx: np.ndarray) -> "Batch":
        return Batch(
            obs=self.obs[idx],
            actions=self.actions[idx],
            old_logp=self.old_logp[idx],
            advantages=self.advantages[idx],
            returns=self.returns[idx],
        )


@dataclass
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float
    grad_norm: float


def ppo_loss_and_grads(
    policy: MLPParams,
    value: MLPParams,
    batch: Batch,
    config: PPOConfig,
) -> tuple[float, MLPParams, MLPParams, UpdateStats]:
    """Scalar loss and its exact analytic gradients for one minibatch.

    The loss is ``-E[min(r A, clip(r) A)] - c_H E[H] + c_V E[(G - v)^2]``
    with importance ratio r against the stored behaviour log-probs.
    Advantages are used exactly as passed in (the caller owns any
    normalization), which keeps this function a pure, finite-difference
    checkable map from parameters to a scalar.
    """
    n = len(batch)
    if n == 0:
        raise EmptyBatch("empty minibatch")
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

    loss = (
        -surrogate.mean()
        - config.entropy_coef * entropy.mean()
        + config.value_coef * float((value_err**2).mean())
    )

    # d loss / d logp  (only where the active branch depends on the ratio)
    inside = (ratio > 1.0 - clip) & (ratio < 1.0 + clip)
    dsurr_dlogp = np.where(use_raw, ratio * adv, np.where(inside, ratio * adv, 0.0))
    dlogp = -dsurr_dlogp / n

    # d loss / d logits: chosen-action term plus entropy term.
    dlogits = probs * (-dlogp)[:, None]
    dlogits[rows, batch.actions] += dlogp
    dlogits += (config.entropy_coef / n) * probs * (logp_all + entropy[:, None])

    policy_grads = mlp_backward(policy, policy_cache, dlogits)

    dv = (2.0 * config.value_coef / n) * value_err
    value_grads = mlp_backward(value, value_cache, dv[:, None])

    stats = UpdateStats(
        policy_loss=float(-surrogate.mean()),
        value_loss=float((value_err**2).mean()),
        entropy=float(entropy.mean()),
        clip_fraction=float((~use_raw).mean()),
        approx_kl=float((batch.old_logp - logp).mean()),
        grad_norm=0.0,
    )
    return float(loss), policy_grads, value_grads, stats


def ppo_update(
    policy: MLPParams,
    value: MLPParams,
    batch: Batch,
    config: PPOConfig,
    adam: Adam,
    rng: np.random.Generator,
) -> UpdateStats:
    """Run the full multi-epoch minibatch update over one batch in place.

    Advantages are normalized to zero mean / unit variance over the
    whole batch before any epoch.

    Raises:
        EmptyBatch: No transitions.
        NonFiniteGradient: NaN or infinity in any gradient.
    """
    n = len(batch)
    if n == 0:
        raise EmptyBatch("cannot update from an empty batch")
    adv = batch.advantages
    batch = Batch(
        obs=batch.obs,
        actions=batch.actions,
        old_logp=batch.old_logp,
        advantages=(adv - adv.mean()) / (adv.std() + 1e-8),
        returns=batch.returns,
    )
    params = policy.flat_arrays() + value.flat_arrays()
    last = None
    for _ in range(config.epochs_per_update):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            idx = order[start : start + config.minibatch_size]
            mini = batch.select(idx)
            _, policy_grads, value_grads, stats = ppo_loss_and_grads(
                policy, value, mini, config
            )
            grads = policy_grads.flat_arrays() + value_grads.flat_arrays()
            if not all(np.all(np.isfinite(g)) for g in grads):
                raise NonFiniteGradient("non-finite gradient in update")
            stats.grad_norm = clip_global_norm(grads, config.max_grad_norm)
            adam.step(params, grads)
            last = stats
    assert last is not None
    return last


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


TRAINING_LOG_HEADER = "seed,level,episode,mean_reward,mean_shortfall,mean_cvar,violation_rate"


@dataclass
class TrainedPolicy:
    seed: int
    policy: MLPParams
    value: MLPParams


@dataclass
class TrainingResult:
    policies: dict[int, TrainedPolicy]
    log: list[TrainLogRow] = field(default_factory=list)
    updates: dict[int, int] = field(default_factory=dict)


def write_training_log(rows: Sequence[TrainLogRow], path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(TRAINING_LOG_HEADER + "\n")
        for r in rows:
            handle.write(
                f"{r.seed},{r.level},{r.episode},{r.mean_reward!r},"
                f"{r.mean_shortfall!r},{r.mean_cvar!r},{r.violation_rate!r}\n"
            )


class _RolloutBuffer:
    """Accumulates transitions until a batch is ready."""

    def __init__(self) -> None:
        self.obs: list[np.ndarray] = []
        self.actions: list[int] = []
        self.logps: list[float] = []
        self.rewards: list[float] = []
        self.values: list[float] = []
        self.dones: list[bool] = []

    def __len__(self) -> int:
        return len(self.actions)

    def clear(self) -> None:
        self.__init__()


#: Shared factory signature across training and evaluation: build a fresh
#: environment preconfigured for a shock mode, owning the supplied generator.
EnvFactory = Callable[["ShockMode", np.random.Generator], ReserveEnv]


def train_curriculum(
    make_env: EnvFactory,
    config: PPOConfig,
    schedule: CurriculumSchedule,
    seeds: Sequence[int] | None = None,
) -> TrainingResult:
    """Train one policy per seed along the regime curriculum.

    Walks ``schedule.levels`` in order; each level ramps its shock
    parameters in from the previous level's, runs
    ``schedule.episodes_per_level`` episodes, and triggers an update
    whenever ``config.batch_size`` transitions have accumulated (plus a
    flush of the remainder at each level boundary, so no experience is
    dropped).  The environment's shortfall buffer is cleared at level
    transitions.

    Args:
        make_env: Factory returning a fresh training environment bound
            to the supplied generator.
        config: Optimization hyperparameters.
        schedule: Curriculum pacing.
        seeds: Training seeds; defaults to ``config.seeds``.

    Returns:
        :class:`TrainingResult` with final networks per seed and the
        per-episode log.
    """
    seeds = tuple(seeds) if seeds is not None else config.seeds
    result = TrainingResult(policies={})

    for seed in seeds:
        streams = np.random.SeedSequence(seed).spawn(4)
        init_rng, env_rng, action_rng, update_rng = map(np.random.default_rng, streams)
        policy, value = init_agent(init_rng, config)
        adam = Adam(policy.flat_arrays() + value.flat_arrays(), lr=config.learning_rate)
        normalizer = RunningReturnNormalizer(config.discount, enabled=config.reward_norm)
        env = make_env(Stochastic(schedule.levels[0]), env_rng)
        buffer = _RolloutBuffer()
        n_updates = 0

        def run_update() -> None:
            nonlocal n_updates
            values = np.asarray(buffer.values)
            advantages, returns = compute_gae(
                np.asarray(buffer.rewards),
                values,
                np.asarray(buffer.dones, dtype=float),
                config.discount,
                config.gae_lambda,
            )
            batch = Batch(
                obs=np.asarray(buffer.obs),
                actions=np.asarray(buffer.actions, dtype=int),
                old_logp=np.asarray(buffer.logps),
                advantages=advantages,
                returns=returns,
            )
            ppo_update(policy, value, batch, config, adam, update_rng)
            n_updates += 1
            buffer.clear()

        for level_idx, level in enumerate(schedule.levels):
            if level_idx > 0:
                env.clear_buffer()
            for episode in range(schedule.episodes_per_level):
                progress = schedule.ramp_progress(episode)
                state = env.reset(
                    episode_progress=progress,
                    schedule=schedule,
                    shock_mode=Stochastic(level),
                )
                ep_rewards: list[float] = []
                ep_shortfalls: list[float] = []
                ep_cvars: list[float] = []
                ep_violations: list[float] = []
                for _ in range(env.horizon):
                    obs = observe(state)
                    action, logp = act_sample(policy, obs, action_rng)
                    baseline = state_value(value, obs)
                    outcome = env.step(action)
                    buffer.obs.append(obs)
                    buffer.actions.append(action)
                    buffer.logps.append(logp)
                    buffer.values.append(baseline)
                    buffer.dones.append(outcome.done)
                    buffer.rewards.append(normalizer.normalize(outcome.reward, outcome.done))
                    ep_rewards.append(outcome.reward)
                    ep_shortfalls.append(outcome.components.shortfall)
                    ep_cvars.append(outcome.components.cvar)
                    ep_violations.append(1.0 if outcome.components.violated else 0.0)
                    state = outcome.state
                result.log.append(
                    TrainLogRow(
                        seed=seed,
                        level=level,
                        episode=episode,
                        mean_reward=float(np.mean(ep_rewards)),
                        mean_shortfall=float(np.mean(ep_shortfalls)),
                        mean_cvar=float(np.mean(ep_cvars)),
                        violation_rate=float(np.mean(ep_violations)),
                    )
                )
                if len(buffer) >= config.batch_size:
                    run_update()
            if len(buffer) > 0:
                run_update()  # flush the level's remainder

        result.policies[seed] = TrainedPolicy(seed=seed, policy=policy, value=value)
        result.updates[seed] = n_updates
    return result
