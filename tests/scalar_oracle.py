"""Step-by-step reference for the lockstep rollouts, the flat optimiser,
the block-wise bootstrap and the grouped CSV writer.

These are the one-episode-at-a-time loops that evaluation and training
ran before their rollouts moved to :meth:`ReserveEnv.rollout`:
``reset()``, then one ``step()`` per period, one B=1 forward pass per
action, recorded step by step, with each static method's path built one
episode at a time.  Training here also keeps its networks as separate
arrays, with a per-array Adam and gradient clip.  The bootstrap here
draws, refits and re-projects one simulation at a time, and the CSV
writer formats every value of every row on its own.
Tests run both on identically seeded inputs and require the same trace,
network, log and sample bytes, generator states and buffer contents.
"""

from __future__ import annotations

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from reserve_rl.agent import (
    AgentParams,
    Batch,
    RunningReturnNormalizer,
    SeedRun,
    TrainLogRow,
    UpdateStats,
    act_sample,
    compute_gae,
    observe,
    ppo_loss_and_grads,
    state_value,
)
from reserve_rl.baselines import BootstrapResult, _residual_pool, percent_developed
from reserve_rl.env import ACTION_GRID, TRACE_HEADER, ReserveEnv, StepOutcome, Trace
from reserve_rl.errors import DataError, NumericalError
from reserve_rl.nets import MLPParams, init_mlp, mlp_rows, softmax
from reserve_rl.regimes import Stochastic
from reserve_rl.triangles import DevelopmentFactors, LossTriangle

_TRACE_COLUMNS = (
    "episode", "t", "reserve", "loss", "volatility", "adequacy",
    "violation_memory", "shock", "level", "action", "reward",
    "shortfall", "cvar", "violated",
)


class TraceRecorder:
    """Accumulates step outcomes into a columnar :class:`Trace`."""

    def __init__(self) -> None:
        self._rows: dict[str, list] = {name: [] for name in _TRACE_COLUMNS}

    def record(self, episode: int, step_index: int, outcome: StepOutcome) -> None:
        state = outcome.state
        rows = self._rows
        rows["episode"].append(episode)
        rows["t"].append(step_index)
        rows["reserve"].append(state.reserve)
        rows["loss"].append(state.loss)
        rows["volatility"].append(state.volatility)
        rows["adequacy"].append(state.adequacy)
        rows["violation_memory"].append(state.violation_memory)
        rows["shock"].append(outcome.shock_applied)
        rows["level"].append(state.level)
        rows["action"].append(outcome.action_value)
        rows["reward"].append(outcome.reward)
        rows["shortfall"].append(outcome.components.shortfall)
        rows["cvar"].append(outcome.components.cvar)
        rows["violated"].append(1.0 if outcome.components.violated else 0.0)

    def build(self) -> Trace:
        arrays = {}
        for name, values in self._rows.items():
            dtype = int if name in ("episode", "t", "level") else float
            arrays[name] = np.asarray(values, dtype=dtype)
        return Trace(**arrays)


def greedy_action(policy: MLPParams, obs: np.ndarray) -> int:
    """Most probable action; ties prefer the smallest adjustment, then
    the negative-sign variant."""
    probs = softmax(mlp_rows(policy, obs[None]))[0]
    best = probs.max()
    candidates = [i for i in range(len(ACTION_GRID)) if probs[i] == best]
    return min(candidates, key=lambda i: (abs(ACTION_GRID[i]), ACTION_GRID[i]))


def chase_action(reserve: float, target: float) -> int:
    """Grid action steering one reserve toward its target."""
    if reserve <= 0.0:
        return len(ACTION_GRID) - 1 if target > 0.0 else ACTION_GRID.index(0.0)
    ratio = target / reserve - 1.0
    if abs(ratio) <= max(ACTION_GRID) + 1e-12:
        return min(
            range(len(ACTION_GRID)),
            key=lambda i: (abs(ACTION_GRID[i] - ratio), abs(ACTION_GRID[i]), ACTION_GRID[i]),
        )
    return len(ACTION_GRID) - 1 if ratio > 0.0 else 0


def scalar_policy_episodes(env: ReserveEnv, policy: MLPParams, episodes: int) -> Trace:
    """Greedy rollout, one episode and one step at a time."""
    recorder = TraceRecorder()
    for episode in range(episodes):
        state = env.reset()
        for t in range(env.horizon):
            outcome = env.step(greedy_action(policy, observe(state)))
            recorder.record(episode, t, outcome)
            state = outcome.state
    return recorder.build()


def scalar_replay(env: ReserveEnv, path_builder, episodes: int) -> Trace:
    """Static-path replay, one episode and one step at a time."""
    recorder = TraceRecorder()
    for episode in range(episodes):
        state = env.reset()
        path = np.asarray(path_builder(env.episode_info, env.horizon), dtype=float)
        for t in range(env.horizon):
            target = path[min(t + 1, path.size - 1)]
            outcome = env.step(chase_action(state.reserve, target))
            recorder.record(episode, t, outcome)
            state = outcome.state
    return recorder.build()


def chain_ladder_path(factors: DevelopmentFactors, initial_loss: float, horizon: int) -> np.ndarray:
    """One episode's chain-ladder projection of its starting loss."""
    return initial_loss * factors.cumulative_profile(horizon)


def bornhuetter_ferguson_path(
    factors: DevelopmentFactors, elr: float, premium: float, initial_loss: float, horizon: int
) -> np.ndarray:
    """One episode's BF path ``L0 + premium * ELR * (p_lag - p_1)``."""
    p1 = percent_developed(factors, 1)
    path = np.empty(horizon)
    for k in range(horizon):
        path[k] = initial_loss + premium * elr * (percent_developed(factors, k + 1) - p1)
    return path


def bootstrap_path(result: BootstrapResult, initial_loss: float, horizon: int) -> np.ndarray:
    """One episode's bootstrap-mean projection of its starting loss."""
    return initial_loss * result.mean_cumulative_profile(horizon)


# --- CSV -------------------------------------------------------------------------

def rowwise_write_csv(path: str, header: str, columns) -> None:
    """Header, then each row's values as ``str`` of their ``tolist()``
    scalars, joined one row at a time."""
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for row in zip(*(column.tolist() for column in columns)):
            handle.write(",".join(map(str, row)) + "\n")


def rowwise_write_trace(trace: Trace, path: str) -> None:
    """A trace as :func:`rowwise_write_csv` writes it: Python ints for the
    integer columns, Python floats for the rest."""
    rowwise_write_csv(path, TRACE_HEADER, [
        getattr(trace, name).astype(int if name in ("episode", "t", "level", "violated") else float)
        for name in _TRACE_COLUMNS
    ])


# --- training ------------------------------------------------------------------

class ListAdam:
    """Adam over a list of separate arrays, one array at a time."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self._m = [np.zeros_like(a) for a in arrays]
        self._v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays, grads):
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for a, g, m, v in zip(arrays, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            a -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def list_clip_global_norm(grads, max_norm):
    """Scale all gradient arrays in place so their joint L2 norm is <= max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


def list_ppo_update(policy, value, batch, config, adam, rng):
    """The multi-epoch update over per-array networks; mean minibatch stats
    and the batch's explained variance."""
    n = len(batch)
    var_returns = np.var(batch.returns)
    explained = (math.nan if var_returns == 0.0
                 else float(1.0 - np.var(batch.returns - batch.values) / var_returns))
    adv = batch.advantages
    batch = Batch(
        obs=batch.obs,
        actions=batch.actions,
        old_logp=batch.old_logp,
        advantages=(adv - adv.mean()) / (adv.std() + 1e-8),
        returns=batch.returns,
        values=batch.values,
    )
    params = policy.layers() + value.layers()
    flat_grads = AgentParams.empty_like(policy, value)
    seen = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            mini = batch.select(order[start : start + config.minibatch_size])
            _, stats = ppo_loss_and_grads(policy, value, mini, config, flat_grads)
            # separate C-ordered arrays, as a fresh matrix product returns them
            grads = [np.array(g, order="C") for g in flat_grads.layers()]
            if not all(np.all(np.isfinite(g)) for g in grads):
                raise NumericalError("non-finite gradient in update")
            stats.grad_norm = list_clip_global_norm(grads, config.max_grad_norm)
            adam.step(params, grads)
            seen.append(stats)
    return UpdateStats(**{
        f.name: float(np.mean([getattr(s, f.name) for s in seen]))
        for f in fields(UpdateStats) if f.name != "explained_variance"
    }, explained_variance=explained)


def scalar_train_curriculum(jobs):
    """Curriculum training one episode and one step at a time, one
    :class:`SeedRun` per ``(make_env, config, schedule, seed)`` job."""
    runs = []
    for make_env, config, schedule, seed in jobs:
        streams = np.random.SeedSequence(seed).spawn(4)
        init_rng, env_rng, action_rng, update_rng = map(np.random.default_rng, streams)
        sizes = (7, *config.hidden)
        policy = init_mlp((*sizes, len(ACTION_GRID)), init_rng, final_gain=0.01)
        value = init_mlp((*sizes, 1), init_rng, final_gain=1.0)
        adam = ListAdam(policy.layers() + value.layers(), lr=config.learning_rate)
        normalizer = RunningReturnNormalizer(config.discount, enabled=config.reward_norm)
        env = make_env(Stochastic(schedule.levels[0]), env_rng)
        buffer = {name: [] for name in ("obs", "actions", "logps", "values", "dones", "rewards")}
        stats, log = [], []

        def run_update(level):
            advantages, returns = compute_gae(
                np.asarray(buffer["rewards"]),
                np.asarray(buffer["values"]),
                np.asarray(buffer["dones"], dtype=float),
                config.discount,
                config.gae_lambda,
            )
            batch = Batch(
                obs=np.asarray(buffer["obs"]),
                actions=np.asarray(buffer["actions"], dtype=int),
                old_logp=np.asarray(buffer["logps"]),
                advantages=advantages,
                returns=returns,
                values=np.asarray(buffer["values"]),
            )
            stats.append((level, list_ppo_update(policy, value, batch, config, adam, update_rng)))
            for column in buffer.values():
                column.clear()

        for level_idx, level in enumerate(schedule.levels):
            if level_idx > 0:
                env.clear_buffer()
            for episode in range(schedule.episodes_per_level):
                state = env.reset(
                    episode_progress=schedule.ramp_progress(episode),
                    schedule=schedule,
                    shock_mode=Stochastic(level),
                )
                ep_rewards, ep_shortfalls, ep_cvars, ep_violations = [], [], [], []
                for _ in range(env.horizon):
                    obs = observe(state)
                    actions, logps = act_sample(policy, obs[None], np.array([action_rng.random()]))
                    action, logp = int(actions[0]), float(logps[0])
                    baseline = float(state_value(value, obs[None])[0])
                    outcome = env.step(action)
                    buffer["obs"].append(obs)
                    buffer["actions"].append(action)
                    buffer["logps"].append(logp)
                    buffer["values"].append(baseline)
                    buffer["dones"].append(outcome.done)
                    buffer["rewards"].append(normalizer.normalize(outcome.reward, outcome.done))
                    ep_rewards.append(outcome.reward)
                    ep_shortfalls.append(outcome.components.shortfall)
                    ep_cvars.append(outcome.components.cvar)
                    ep_violations.append(1.0 if outcome.components.violated else 0.0)
                    state = outcome.state
                log.append(TrainLogRow(
                    seed=seed,
                    level=level,
                    episode=episode,
                    mean_reward=float(np.mean(ep_rewards)),
                    mean_shortfall=float(np.mean(ep_shortfalls)),
                    mean_cvar=float(np.mean(ep_cvars)),
                    violation_rate=float(np.mean(ep_violations)),
                ))
                if len(buffer["actions"]) >= config.batch_size:
                    run_update(level)
            if buffer["actions"]:
                run_update(level)  # flush the level's remainder

        agent = SimpleNamespace(policy=policy, value=value)
        runs.append(SeedRun(seed, agent, log, stats, len(log) * env.horizon))
    return runs


# --- bootstrap -----------------------------------------------------------------

def scalar_bootstrap_chain_ladder(
    tri: LossTriangle, n_sims: int, rng: np.random.Generator
) -> BootstrapResult:
    """The residual bootstrap one simulation at a time: one ``choice`` per
    attempt, a dict-based refit, and a per-year re-projection."""
    keys, m_arr, pool = _residual_pool(tri)
    n_cells = len(keys)
    n_factors = tri.n_dev_lags - 1
    latest = {year: tri.value(year, tri.latest_lag(year)) for year in tri.years}
    sqrt_m = np.sqrt(m_arr)
    reserve_samples = np.empty(n_sims)
    factor_samples = np.empty((n_sims, n_factors))
    n_retries = 0
    for s in range(n_sims):
        for attempt in range(50):
            draws = rng.choice(pool, size=n_cells, replace=True)
            pseudo_inc = m_arr + draws * sqrt_m
            pseudo = _refit_factors(tri, keys, pseudo_inc)
            if pseudo is not None:
                break
            n_retries += 1
        else:
            raise DataError(
                "bootstrap could not build a usable pseudo-triangle after 50 attempts"
            )
        factor_samples[s] = pseudo
        total = 0.0
        for year in tri.years:
            ultimate = latest[year]
            for j in range(tri.latest_lag(year) - 1, n_factors):
                ultimate *= pseudo[j]
            total += ultimate - latest[year]
        reserve_samples[s] = total
    return BootstrapResult.from_samples(reserve_samples, factor_samples, n_retries)


def _refit_factors(tri, keys, pseudo_inc):
    """Volume-weighted factors on a pseudo-triangle; None if degenerate."""
    pseudo_cum = {}
    inc_by_key = dict(zip(keys, pseudo_inc))
    for year in tri.years:
        running = 0.0
        for lag in range(1, tri.latest_lag(year) + 1):
            running += inc_by_key[(year, lag)]
            pseudo_cum[(year, lag)] = running
    n_factors = tri.n_dev_lags - 1
    out = np.empty(n_factors)
    for lag in range(1, tri.n_dev_lags):
        numer = 0.0
        denom = 0.0
        for year in tri.years:
            if (year, lag) in pseudo_cum and (year, lag + 1) in pseudo_cum:
                numer += pseudo_cum[(year, lag + 1)]
                denom += pseudo_cum[(year, lag)]
        if denom <= 0.0 or numer <= 0.0:
            return None
        out[lag - 1] = numer / denom
    return out
