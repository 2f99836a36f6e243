"""Evaluation harness: metrics and common-random-number comparisons.

Four headline metrics summarize a trace of post-transition snapshots:

* ``rar``   -- reserve adequacy ratio, mean of reserve/loss over steps
  whose loss clears a small floor (ratios against near-zero losses are
  meaningless).
* ``cvar95``-- expected shortfall of the pooled per-step shortfalls at
  the fixed 95% level (independent of the level the agent trained
  against, so models are compared on one scale).
* ``ces``   -- capital efficiency score, ``1 - mean |reserve - loss|``.
* ``rvr``   -- regulatory violation rate, fraction of steps below the
  solvency floor.

Comparisons between models replay the loss paths each condition carries,
one draw per (shock mode, seed), so paired differences reflect policy
choices rather than luck of the draw.
"""

from __future__ import annotations

import collections
import functools
import logging
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .agent import PPOConfig, act_greedy, observe, train_curriculum
from .artifacts import field_values
from .env import EnvFactory, LossPaths, Model, ReserveEnv, Trace
from .errors import ConfigError, DataError
from .nets import MLPParams
from .parallel import map_split
from .regimes import CurriculumSchedule, FixedShock, ShockMode, Stochastic
from .risk import tail_estimate

log = logging.getLogger(__name__)

#: Loss floor below which a reserve/loss ratio is not counted.
RAR_LOSS_EPS = 0.01

#: Minimum pooled shortfall count for a meaningful 95% tail estimate.
MIN_TAIL_SAMPLES = 20

#: Receives one condition's traces, ``sink(label, blocks)``: ``blocks``
#: yields one ``{model: trace}`` block per seed, in seed order, each seed's
#: models running as its block is taken.
TraceSink = Callable[[str, Iterator[Mapping[str, Trace]]], None]


@dataclass(frozen=True)
class MetricSet:
    rar: float
    cvar95: float
    ces: float
    rvr: float


def compute_metrics(trace: Trace) -> MetricSet:
    """Summarize a trace into the four headline metrics.

    Raises:
        DataError: Every step's loss sits below :data:`RAR_LOSS_EPS`, or
            fewer than :data:`MIN_TAIL_SAMPLES` shortfall observations
            are available for the tail estimate.
    """
    eligible = trace.loss >= RAR_LOSS_EPS
    if not eligible.any():
        raise DataError(
            f"no steps with loss >= {RAR_LOSS_EPS!r} out of {trace.n_steps}"
        )
    rar = float(np.mean(trace.reserve[eligible] / trace.loss[eligible]))
    if trace.n_steps < MIN_TAIL_SAMPLES:
        raise DataError(
            f"{trace.n_steps} shortfall samples < required {MIN_TAIL_SAMPLES}"
        )
    cvar95 = tail_estimate(trace.shortfall, 0.95).cvar
    ces = 1.0 - float(np.mean(np.abs(trace.reserve - trace.loss)))
    rvr = float(np.mean(trace.violated))
    return MetricSet(rar=rar, cvar95=cvar95, ces=ces, rvr=rvr)


@dataclass(frozen=True)
class MetricsRow:
    """One report line: a model under a condition, aggregated over seeds."""

    model: str
    lob: str
    condition: str
    rar: float
    cvar95: float
    ces: float
    rvr: float
    n_episodes: int
    n_seeds: int
    rar_sd: float
    cvar95_sd: float
    ces_sd: float
    rvr_sd: float


def aggregate_metrics(
    model: str,
    lob: str,
    condition: str,
    per_seed: Sequence[MetricSet],
    n_episodes: int,
) -> MetricsRow:
    """Mean and sample standard deviation across seeds (sd 0 for one seed),
    each in :class:`MetricSet` field order as :class:`MetricsRow` holds them."""
    if not per_seed:
        raise DataError(f"no per-seed metrics for {model}/{condition}")
    cols = list(zip(*map(field_values(MetricSet), per_seed)))
    means = [float(np.mean(c)) for c in cols]
    sds = [float(np.std(c, ddof=1)) if len(per_seed) > 1 else 0.0 for c in cols]
    return MetricsRow(model, lob, condition, *means, n_episodes, len(per_seed), *sds)


def run_policy_episodes(
    env: ReserveEnv, policy: MLPParams, episodes: int, paths: LossPaths
) -> Trace:
    """Roll the greedy policy over the ``episodes`` episodes of ``paths``,
    all of them in lockstep (one batched forward pass per step).

    Raises:
        ConfigError: ``episodes`` is not the number of episodes in ``paths``.
    """
    if episodes != paths.n_episodes:
        raise ConfigError(f"episodes is {episodes} but the paths hold {paths.n_episodes}")
    return env.rollout(paths, lambda state: act_greedy(policy, observe(state)))


def greedy_model(policies: Mapping[int, MLPParams]) -> Model:
    """The model acting greedily with the policy trained under each seed."""
    # looked up on the module at call time, so a wrapper installed there sees it
    return lambda env, seed, paths: run_policy_episodes(
        env, policies[seed], paths.n_episodes, paths)


#: A report row's label and the shock modes whose episodes the row pools.
Condition = tuple[str, Sequence[ShockMode]]

#: A report row's label and its paths: ``paths(seed)`` holds the loss paths
#: the row pools at training seed ``seed``, one :class:`LossPaths` per part,
#: replayed in order.
DrawnCondition = tuple[str, Callable[[int], Sequence[LossPaths]]]


def regime_conditions(levels: Sequence[int]) -> list[Condition]:
    return [(f"regime:{level}", (Stochastic(level),)) for level in levels]


def stress_conditions(shocks: Sequence[float]) -> list[Condition]:
    return [(f"shock:{m:g}", (FixedShock(m),)) for m in shocks]


def drawn_conditions(make_env: EnvFactory, conditions: Sequence[Condition], episodes: int,
                     crn_base: int) -> list[DrawnCondition]:
    """``conditions`` with their paths: at seed ``seed`` each mode draws
    ``episodes`` episodes from ``default_rng([crn_base, k, seed])``, where
    ``k`` counts the modes in order across all of ``conditions``.  A draw is
    made when its condition's paths are asked for.

    Raises:
        ConfigError: A condition has no shock modes (before any draw).
    """
    empty = [label for label, modes in conditions if not modes]
    if empty:
        raise ConfigError(f"conditions pool no shock modes: {', '.join(empty)}")
    env = make_env()

    def draw(numbered: list[tuple[int, ShockMode]], seed: int) -> list[LossPaths]:
        return [env.draw_paths(np.random.default_rng([crn_base, k, seed]), mode, episodes)
                for k, mode in numbered]

    drawn, first = [], 0
    for label, modes in conditions:
        drawn.append((label, functools.partial(draw, list(enumerate(modes, first)))))
        first += len(modes)
    return drawn


def sensitivity_label(alpha: float, floor: str) -> str:
    """A sensitivity cell's row label: tail level ``alpha``, floor form ``floor``."""
    return f"alpha:{alpha:g};floor:{floor}"


@dataclass
class EvalOutcome:
    """Aggregated rows plus the per-seed values they were built from."""

    rows: list[MetricsRow] = field(default_factory=list)
    per_seed: dict[tuple[str, str], list[MetricSet]] = field(default_factory=dict)

    def seed_medians(self, model: str, condition: str) -> MetricSet:
        """Median across seeds, metric by metric (robust to one bad seed)."""
        sets = self.per_seed[(model, condition)]
        return MetricSet(*map(statistics.median, zip(*map(field_values(MetricSet), sets))))


def evaluate_models(
    models: Mapping[str, Model],
    make_env: EnvFactory,
    conditions: Sequence[DrawnCondition],
    seeds: Sequence[int],
    lob: str = "synthetic",
    traces: TraceSink | None = None,
    workers: int = 1,
) -> EvalOutcome:
    """Score every model on the paths of every condition.

    Each model is called as ``model(env, seed, paths)`` once per part of
    ``paths(seed)``, on a fresh environment from ``make_env`` (an empty
    tail buffer), so all models of a (condition, seed) cell replay one
    shared object.  A model's trace at a seed is its replays of the parts
    in order.  A condition runs seed by seed, in the process that runs
    it: the seed's paths are asked for, every model runs on them, and
    ``traces``, if given, receives the seed's traces as one block of its
    ``blocks`` (seeds the sink leaves untaken run after it returns).  So
    no process holds more than one seed's paths and traces of one
    condition, once the sink drops each block before taking the next.  A
    row's ``n_episodes`` counts its first seed's episodes.

    The conditions are dealt to up to ``workers`` processes by
    :func:`~reserve_rl.parallel.map_split`, each running the same
    per-condition loop, and merged in condition order, so the outcome is
    the serial one whatever ``workers`` is.  A condition's sink call runs
    in the process that evaluated it, so with ``workers`` above 1 a sink
    must act on files, not on the caller's memory.  The timing line covers
    the whole call, sink calls included.

    Raises:
        ConfigError: Two conditions share a label, or ``workers`` is below
            1 (before any path is asked for).
    """
    labels = [label for label, _ in conditions]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"condition labels repeat: {', '.join(repeated)}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()

    def run(c: int) -> EvalOutcome:
        """Condition ``c``, seed by seed: take the seed's paths, run every
        model on them, hand the seed's traces on."""
        label, paths = conditions[c]
        per_seed: dict[str, list[MetricSet]] = {name: [] for name in models}
        episodes: list[int] = []

        def score(seed: int) -> dict[str, Trace]:
            parts = paths(seed)
            episodes.append(sum(part.n_episodes for part in parts))
            block = {name: Trace.concat([model(make_env(), seed, part) for part in parts])
                     for name, model in models.items()}
            for name, trace in block.items():
                per_seed[name].append(compute_metrics(trace))
            return block

        blocks = map(score, seeds)
        if traces is not None:
            traces(label, blocks)
        collections.deque(blocks, maxlen=0)  # the seeds no sink took, each dropped as made
        outcome = EvalOutcome()
        for name in models:
            outcome.per_seed[(name, label)] = per_seed[name]
            outcome.rows.append(aggregate_metrics(name, lob, label, per_seed[name],
                                                  episodes[0] if episodes else 0))
            log.info("evaluated %s under %s (%d seeds)", name, label, len(seeds))
        return outcome

    outcome = EvalOutcome()
    for part in map_split(run, len(conditions), workers):
        outcome.rows += part.rows
        outcome.per_seed.update(part.per_seed)
    seconds = time.perf_counter() - started
    cells = len(conditions) * len(models) * len(seeds)
    episodes = sum(row.n_episodes * row.n_seeds for row in outcome.rows)
    log.info("evaluated %d cells, %d episodes in %.2f s (%.0f episodes/s)",
             cells, episodes, seconds, episodes / seconds)
    return outcome


def sensitivity_sweep(
    cells: Mapping[str, tuple[EnvFactory, EnvFactory]],
    ppo_config: PPOConfig,
    schedule: CurriculumSchedule,
    seeds: Sequence[int],
    paths: Callable[[int], Sequence[LossPaths]],
    lob: str,
    workers: int,
) -> EvalOutcome:
    """Retrain and re-evaluate once per cell of ``cells``, a mapping from
    row label to that cell's (training, evaluation) environment factories.

    Each cell trains fresh policies, then scores them with
    :func:`evaluate_models` on one condition whose paths are ``paths``,
    asked for once per seed and replayed by every cell under its own
    evaluation factory, so the cells are paired on one shared draw.
    Every (cell, seed) training is one job of a single
    :func:`train_curriculum` call on up to ``workers`` processes.
    """
    runs = iter(train_curriculum(
        [(train_factory, ppo_config, schedule, seed)
         for train_factory, _ in cells.values() for seed in seeds],
        workers,
    ))
    shared = functools.cache(paths)
    outcome = EvalOutcome()
    for label, (_, eval_factory) in cells.items():
        policies = {seed: next(runs).agent.policy for seed in seeds}
        cell = evaluate_models({"rl_cvar": greedy_model(policies)}, eval_factory,
                               [(label, shared)], seeds, lob)
        outcome.rows += cell.rows
        outcome.per_seed.update(cell.per_seed)
        log.info("sweep cell %s done", label)
    return outcome

