"""Step-by-step reference for the lockstep rollouts.

These are the one-episode-at-a-time loops that evaluation ran before its
rollouts moved to :meth:`ReserveEnv.rollout`: ``reset()``, then one
``step()`` per period, one B=1 forward pass per greedy action, recorded
step by step.  Tests run both on identically seeded environments and
require the same trace bytes, generator state and buffer contents.
"""

from __future__ import annotations

import numpy as np

from reserve_rl.agent import observe, policy_logits
from reserve_rl.env import ACTION_GRID, ReserveEnv, StepOutcome, Trace
from reserve_rl.nets import MLPParams, softmax

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
    probs = softmax(policy_logits(policy, obs))[0]
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


def scalar_policy_episodes(
    env: ReserveEnv, policy: MLPParams, episodes: int, episode_offset: int = 0
) -> Trace:
    """Greedy rollout, one episode and one step at a time."""
    recorder = TraceRecorder()
    for episode in range(episodes):
        state = env.reset()
        for t in range(env.horizon):
            outcome = env.step(greedy_action(policy, observe(state)))
            recorder.record(episode_offset + episode, t, outcome)
            state = outcome.state
    return recorder.build()


def scalar_replay(env: ReserveEnv, path_builder, episodes: int, episode_offset: int = 0) -> Trace:
    """Static-path replay, one episode and one step at a time."""
    recorder = TraceRecorder()
    for episode in range(episodes):
        state = env.reset()
        path = np.asarray(path_builder(env.episode_info, env.horizon), dtype=float)
        for t in range(env.horizon):
            target = path[min(t + 1, path.size - 1)]
            outcome = env.step(chase_action(state.reserve, target))
            recorder.record(episode_offset + episode, t, outcome)
            state = outcome.state
    return recorder.build()
