"""Evaluation harness: metrics, common-random-number comparisons, reports.

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

Comparisons between models reuse identical environment seeds per
(condition, seed) cell, so paired differences reflect policy choices
rather than luck of the draw.
"""

from __future__ import annotations

import json
import logging
import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .agent import (
    PPOConfig,
    TrainingResult,
    act_greedy,
    observe,
    train_curriculum,
    train_seeds,
)
from .env import EnvFactory, ReserveEnv, Trace
from .errors import EmptyReport, IoFailure, NoEligibleSteps, TooFewSamples
from .nets import MLPParams
from .regimes import CurriculumSchedule, FixedShock, ShockMode, Stochastic
from .risk import tail_estimate

log = logging.getLogger(__name__)

METRICS_HEADER = (
    "model,lob,condition,rar,cvar95,ces,rvr,"
    "n_episodes,n_seeds,rar_sd,cvar95_sd,ces_sd,rvr_sd"
)

#: Loss floor below which a reserve/loss ratio is not counted.
RAR_LOSS_EPS = 0.01

#: Minimum pooled shortfall count for a meaningful 95% tail estimate.
MIN_TAIL_SAMPLES = 20

ModelRunner = Callable[[ReserveEnv, int], Trace]
SeededRunner = Callable[[int], ModelRunner]


@dataclass(frozen=True)
class MetricSet:
    rar: float
    cvar95: float
    ces: float
    rvr: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.rar, self.cvar95, self.ces, self.rvr)


def compute_metrics(
    trace: Trace,
    rar_eps: float = RAR_LOSS_EPS,
    min_tail_samples: int = MIN_TAIL_SAMPLES,
) -> MetricSet:
    """Summarize a trace into the four headline metrics.

    Raises:
        NoEligibleSteps: Every step's loss sits below ``rar_eps``.
        TooFewSamples: Fewer than ``min_tail_samples`` shortfall
            observations are available for the tail estimate.
    """
    eligible = trace.loss >= rar_eps
    if not eligible.any():
        raise NoEligibleSteps(
            f"no steps with loss >= {rar_eps!r} out of {trace.n_steps}"
        )
    rar = float(np.mean(trace.reserve[eligible] / trace.loss[eligible]))
    if trace.n_steps < min_tail_samples:
        raise TooFewSamples(
            f"{trace.n_steps} shortfall samples < required {min_tail_samples}"
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

    def to_csv_line(self) -> str:
        return (
            f"{self.model},{self.lob},{self.condition},"
            f"{self.rar!r},{self.cvar95!r},{self.ces!r},{self.rvr!r},"
            f"{self.n_episodes},{self.n_seeds},"
            f"{self.rar_sd!r},{self.cvar95_sd!r},{self.ces_sd!r},{self.rvr_sd!r}"
        )


def aggregate_metrics(
    model: str,
    lob: str,
    condition: str,
    per_seed: Sequence[MetricSet],
    n_episodes: int,
) -> MetricsRow:
    """Mean and sample standard deviation across seeds (sd 0 for one seed)."""
    if not per_seed:
        raise EmptyReport(f"no per-seed metrics for {model}/{condition}")
    cols = list(zip(*(m.as_tuple() for m in per_seed)))
    means = [float(np.mean(c)) for c in cols]
    sds = [float(np.std(c, ddof=1)) if len(per_seed) > 1 else 0.0 for c in cols]
    return MetricsRow(
        model=model,
        lob=lob,
        condition=condition,
        rar=means[0],
        cvar95=means[1],
        ces=means[2],
        rvr=means[3],
        n_episodes=n_episodes,
        n_seeds=len(per_seed),
        rar_sd=sds[0],
        cvar95_sd=sds[1],
        ces_sd=sds[2],
        rvr_sd=sds[3],
    )


def run_policy_episodes(
    env: ReserveEnv,
    policy: MLPParams,
    episodes: int,
    episode_offset: int = 0,
) -> Trace:
    """Roll the greedy policy for a fixed number of episodes, all of
    them in lockstep (one batched forward pass per step)."""
    return env.rollout(
        env.draw_paths(episodes),
        lambda state: act_greedy(policy, observe(state)),
        episode_offset,
    )


def greedy_runner(policy: MLPParams) -> ModelRunner:
    def run(env: ReserveEnv, episodes: int) -> Trace:
        return run_policy_episodes(env, policy, episodes)
    return run


def constant_runner(runner: ModelRunner) -> SeededRunner:
    """Lift a seed-independent runner (the static baselines) to the
    seeded-runner interface."""
    return lambda _seed: runner


def policy_runners(result: TrainingResult) -> SeededRunner:
    """Seeded runner dispatching to the matching trained policy."""
    return lambda seed: greedy_runner(result.policies[seed].policy)


def regime_conditions(levels: Sequence[int]) -> list[tuple[str, ShockMode]]:
    return [(f"regime:{level}", Stochastic(level)) for level in levels]


def stress_conditions(shocks: Sequence[float]) -> list[tuple[str, ShockMode]]:
    return [(f"shock:{m:g}", FixedShock(m)) for m in shocks]


@dataclass
class EvalOutcome:
    """Aggregated rows plus the per-seed values they were built from."""

    rows: list[MetricsRow] = field(default_factory=list)
    per_seed: dict[tuple[str, str], list[MetricSet]] = field(default_factory=dict)
    traces: dict[tuple[str, str], Trace] = field(default_factory=dict)

    def seed_medians(self, model: str, condition: str) -> MetricSet:
        """Median across seeds, metric by metric (robust to one bad seed)."""
        sets = self.per_seed[(model, condition)]
        return MetricSet(
            rar=statistics.median(m.rar for m in sets),
            cvar95=statistics.median(m.cvar95 for m in sets),
            ces=statistics.median(m.ces for m in sets),
            rvr=statistics.median(m.rvr for m in sets),
        )


def evaluate_models(
    models: Mapping[str, SeededRunner],
    make_env: EnvFactory,
    conditions: Sequence[tuple[str, ShockMode]],
    seeds: Sequence[int],
    episodes: int,
    lob: str = "synthetic",
    crn_base: int = 0,
    keep_traces: bool = False,
) -> EvalOutcome:
    """Run every model under every condition with paired random draws.

    The environment generator for a (condition, seed) cell is derived
    from ``(crn_base, condition index, seed)`` only, so all models in
    that cell see identical shock and noise sequences.
    """
    outcome = EvalOutcome()
    for cond_idx, (label, mode) in enumerate(conditions):
        for name, seeded in models.items():
            per_seed: list[MetricSet] = []
            cell_traces: list[Trace] = []
            for seed in seeds:
                env_rng = np.random.default_rng([crn_base, cond_idx, seed])
                env = make_env(mode, env_rng)
                trace = seeded(seed)(env, episodes)
                per_seed.append(compute_metrics(trace))
                if keep_traces:
                    cell_traces.append(trace)
            outcome.per_seed[(name, label)] = per_seed
            outcome.rows.append(aggregate_metrics(name, lob, label, per_seed, episodes))
            if keep_traces:
                outcome.traces[(name, label)] = Trace.concat(cell_traces)
            log.info("evaluated %s under %s (%d seeds)", name, label, len(seeds))
    return outcome


def pooled_regime_metrics(
    runner: ModelRunner,
    make_env: EnvFactory,
    levels: Sequence[int],
    seed: int,
    episodes_per_level: int,
    crn_base: int = 0,
) -> MetricSet:
    """One metric set from episodes pooled uniformly across regimes."""
    traces = []
    for cond_idx, level in enumerate(levels):
        env_rng = np.random.default_rng([crn_base, cond_idx, seed])
        env = make_env(Stochastic(level), env_rng)
        traces.append(runner(env, episodes_per_level))
    return compute_metrics(Trace.concat(traces))


def cold_regime_test(
    train_factory: EnvFactory,
    eval_factory: EnvFactory,
    ppo_config: PPOConfig,
    baselines: Mapping[str, ModelRunner],
    seeds: Sequence[int],
    train_levels: Sequence[int] = (0, 1),
    eval_level: int = 3,
    episodes_per_level: int = 200,
    ramp_episodes: int = 50,
    eval_episodes: int = 100,
    lob: str = "synthetic",
    crn_base: int = 0,
) -> EvalOutcome:
    """Train on benign regimes only, then evaluate everyone in the worst.

    Measures how the learned policy degrades on a regime it never saw,
    against the static baselines (which never adapt anyway).
    """
    schedule = CurriculumSchedule(
        levels=tuple(train_levels),
        episodes_per_level=episodes_per_level,
        ramp_episodes=ramp_episodes,
    )
    trained = train_curriculum(train_factory, ppo_config, schedule, seeds)
    models: dict[str, SeededRunner] = {"rl_cvar": policy_runners(trained)}
    for name, runner in baselines.items():
        models[name] = constant_runner(runner)
    return evaluate_models(
        models,
        eval_factory,
        [(f"regime:{eval_level}", Stochastic(eval_level))],
        seeds,
        eval_episodes,
        lob=lob,
        crn_base=crn_base,
    )


def sensitivity_sweep(
    cell_factories: Callable[[float | None, tuple[float, float]], tuple[EnvFactory, EnvFactory]],
    ppo_config: PPOConfig,
    schedule: CurriculumSchedule,
    alphas: Sequence[float | None],
    floors: Mapping[str, tuple[float, float]],
    seeds: Sequence[int],
    eval_levels: Sequence[int] = (0, 1, 2, 3),
    episodes_per_level: int = 25,
    lob: str = "synthetic",
    crn_base: int = 0,
    workers: int = 1,
) -> EvalOutcome:
    """Retrain and re-evaluate over a grid of tail levels and floor rules.

    Each (alpha, floor) cell trains fresh policies, then scores them on
    episodes pooled uniformly across ``eval_levels``; ``alpha=None``
    keeps the volatility-adaptive level.  Evaluation draws are paired
    across cells.  Every (cell, seed) training is one job of a single
    :func:`train_seeds` call on up to ``workers`` processes.
    """
    cells = []
    for alpha in alphas:
        alpha_label = "adaptive" if alpha is None else f"{alpha:g}"
        for floor_name, floor in floors.items():
            cells.append((f"alpha:{alpha_label},floor:{floor_name}", *cell_factories(alpha, floor)))
    runs = iter(train_seeds(
        [(train_factory, ppo_config, schedule, seed)
         for _, train_factory, _ in cells for seed in seeds],
        workers,
    ))
    outcome = EvalOutcome()
    for label, _, eval_factory in cells:
        per_seed = [
            pooled_regime_metrics(
                greedy_runner(next(runs).agent.policy), eval_factory, eval_levels, seed,
                episodes_per_level, crn_base,
            )
            for seed in seeds
        ]
        outcome.per_seed[("rl_cvar", label)] = per_seed
        outcome.rows.append(
            aggregate_metrics(
                "rl_cvar", lob, label, per_seed,
                episodes_per_level * len(eval_levels),
            )
        )
        log.info("sweep cell %s done", label)
    return outcome


def emit_report(
    rows: Sequence[MetricsRow],
    csv_path: str,
    sidecar: Mapping[str, object] | None = None,
) -> None:
    """Write the metrics table and a JSON sidecar describing its lineage.

    The sidecar lands next to the CSV with a ``.json`` suffix and holds
    whatever identifying material the caller supplies (config
    fingerprint, seeds, input digests) plus the row count.

    Raises:
        EmptyReport: ``rows`` is empty.
        IoFailure: The filesystem rejected a write.
    """
    if not rows:
        raise EmptyReport("refusing to write a metrics report with zero rows")
    payload = dict(sidecar or {})
    payload["n_rows"] = len(rows)
    payload["columns"] = METRICS_HEADER.split(",")
    try:
        with open(csv_path, "w", newline="") as handle:
            handle.write(METRICS_HEADER + "\n")
            for row in rows:
                handle.write(row.to_csv_line() + "\n")
        sidecar_path = csv_path + ".json" if not csv_path.endswith(".csv") else csv_path[:-4] + ".json"
        with open(sidecar_path, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
    except OSError as exc:
        raise IoFailure(f"could not write report: {exc}") from exc
