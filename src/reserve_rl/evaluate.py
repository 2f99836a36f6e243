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

Comparisons between models replay one draw of loss paths per (shock
mode, seed) cell, so paired differences reflect policy choices rather
than luck of the draw.
"""

from __future__ import annotations

import itertools
import logging
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import baselines
from .agent import PPOConfig, act_greedy, observe, train_curriculum
from .artifacts import field_names, field_values, write_json, write_records
from .baselines import StaticTargets
from .env import EnvFactory, LossPaths, ReserveEnv, Trace
from .errors import ConfigError, DataError, ReserveRlError
from .nets import MLPParams
from .regimes import CurriculumSchedule, FixedShock, ShockMode, Stochastic
from .risk import tail_estimate

log = logging.getLogger(__name__)

#: Loss floor below which a reserve/loss ratio is not counted.
RAR_LOSS_EPS = 0.01

#: Minimum pooled shortfall count for a meaningful 95% tail estimate.
MIN_TAIL_SAMPLES = 20

#: Receives one condition's traces, ``sink(label, {model: trace})``, each
#: model's seeds concatenated in seed order.
TraceSink = Callable[[str, Mapping[str, Trace]], None]


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
    all of them in lockstep (one batched forward pass per step)."""
    return env.rollout(paths, lambda state: act_greedy(policy, observe(state)))


def _run_model(
    model: Mapping[int, MLPParams] | StaticTargets,
    env: ReserveEnv,
    seed: int,
    paths: LossPaths,
) -> Trace:
    """Run one model over ``paths``: trained policies by seed act greedily,
    a classical baseline's targets are replayed (the same for every seed)."""
    if isinstance(model, Mapping):
        return run_policy_episodes(env, model[seed], paths.n_episodes, paths)
    # looked up on the module at call time, so a wrapper installed there sees it
    return baselines.replay_static_policy(env, model, paths.n_episodes, paths)


#: A report row's label and the shock modes whose episodes the row pools.
Condition = tuple[str, Sequence[ShockMode]]


def regime_conditions(levels: Sequence[int]) -> list[Condition]:
    return [(f"regime:{level}", (Stochastic(level),)) for level in levels]


def stress_conditions(shocks: Sequence[float]) -> list[Condition]:
    return [(f"shock:{m:g}", (FixedShock(m),)) for m in shocks]


@dataclass
class EvalOutcome:
    """Aggregated rows plus the per-seed values they were built from."""

    rows: list[MetricsRow] = field(default_factory=list)
    per_seed: dict[tuple[str, str], list[MetricSet]] = field(default_factory=dict)

    def seed_medians(self, model: str, condition: str) -> MetricSet:
        """Median across seeds, metric by metric (robust to one bad seed)."""
        sets = self.per_seed[(model, condition)]
        return MetricSet(*map(statistics.median, zip(*map(field_values(MetricSet), sets))))


def _send_results(run: Callable[[int], EvalOutcome], share: range, conn) -> None:
    """A forked child's side of :func:`_map_split`: ``(True, run(i))`` for
    each ``i`` of ``share`` in order, or ``(False, exception)`` and stop."""
    with conn:
        for i in share:
            try:
                conn.send((True, run(i)))
            except Exception as exc:
                conn.send((False, exc))
                return


def _map_split(run: Callable[[int], EvalOutcome], n: int, workers: int) -> list[EvalOutcome]:
    """``[run(i) for i in range(n)]``, the indices dealt round-robin to
    ``min(workers, n)`` processes: the caller runs ``0, P, 2P, ...`` and
    ``fork``-started children the rest, each sending its results back
    through a pipe as it goes.  An exception reaches the caller with its
    type; when several indices raise, the lowest one's does, as in the
    loop.  No child outlives the call.  Serial where ``fork`` is not
    offered."""
    n_procs = min(workers, n)
    if n_procs > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            n_procs = 1
    if n_procs <= 1:
        return [run(i) for i in range(n)]
    ctx = multiprocessing.get_context("fork")
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    complete = False
    try:
        for p in range(1, n_procs):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_results, args=(run, range(p, n, n_procs), writer))
            child.start()
            writer.close()
            children.append((child, reader))
        results: dict[int, EvalOutcome] = {}
        error: tuple[int, BaseException] | None = None
        for i in range(0, n, n_procs):
            try:
                results[i] = run(i)
            except Exception as exc:
                error = (i, exc)
                break
        for p, (child, reader) in enumerate(children, 1):
            for i in range(p, n, n_procs):
                if error is not None and i > error[0]:
                    break
                try:
                    ok, value = reader.recv()
                except EOFError:
                    child.join()
                    ok, value = False, ReserveRlError(
                        f"worker exited with code {child.exitcode} before returning item {i}")
                if not ok:
                    error = (i, value)
                    break
                results[i] = value
        if error is not None:
            raise error[1]
        complete = True
        return [results[i] for i in range(n)]
    finally:
        for child, reader in children:
            if not complete:
                child.terminate()
            child.join()
            reader.close()


def evaluate_models(
    models: Mapping[str, Mapping[int, MLPParams] | StaticTargets],
    make_env: EnvFactory,
    conditions: Sequence[Condition],
    seeds: Sequence[int],
    episodes: int,
    lob: str = "synthetic",
    crn_base: int = 0,
    traces: TraceSink | None = None,
    workers: int = 1,
) -> EvalOutcome:
    """Run every model under every condition with paired random draws.

    A model is a ``{seed: policy}`` table or a baseline's
    :data:`StaticTargets` (see :func:`_run_model`).  The ``episodes``
    loss paths of a (mode, seed) cell are drawn once, from a generator
    seeded with ``(crn_base, mode index, seed)`` only, modes counted in
    order across all conditions, and every model replays them on a fresh
    environment (an empty tail buffer), so all models in that cell see
    identical shock and noise sequences.  A model's trace at a seed is
    its replays of the condition's modes in mode order.  A condition's
    paths are drawn before its models run.  ``traces``, if given,
    receives each condition's traces as soon as its last model has run,
    so no process holds more than one condition's paths and traces at a
    time.

    The conditions are dealt round-robin to ``min(workers, len(conditions))``
    processes, the caller and children started by ``fork`` (see
    :func:`_map_split`), each running the same per-condition loop, and the
    outcome is merged in condition order, so it is the serial one whatever
    ``workers`` is.  A condition's sink call runs in the process that
    evaluated it, so with ``workers`` above 1 a sink must act on files,
    not on the caller's memory.  The timing line covers the whole call
    less the caller's own sink calls.

    Raises:
        ConfigError: Two conditions share a label, a condition has no
            shock modes, or ``workers`` is below 1 (before any draw).
    """
    labels = [label for label, _ in conditions]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"condition labels repeat: {', '.join(repeated)}")
    empty = [label for label, modes in conditions if not modes]
    if empty:
        raise ConfigError(f"conditions pool no shock modes: {', '.join(empty)}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    sink_seconds = 0.0  # the caller's own sink calls; a child's add up in the child
    first_modes = list(itertools.accumulate((len(modes) for _, modes in conditions), initial=0))

    def run(c: int) -> EvalOutcome:
        """Condition ``c``: draw its cells, run every model, hand its traces on."""
        nonlocal sink_seconds
        label, modes = conditions[c]
        draws = []
        for seed in seeds:
            cell = []
            for mode_idx, mode in enumerate(modes, first_modes[c]):
                env_rng = np.random.default_rng([crn_base, mode_idx, seed])
                cell.append((mode, env_rng, make_env(mode, env_rng).draw_paths(episodes)))
            draws.append((seed, cell))
        outcome = EvalOutcome()
        cond_traces: dict[str, Trace] = {}
        for name, model in models.items():
            per_seed: list[MetricSet] = []
            seed_traces: list[Trace] = []
            for seed, cell in draws:
                trace = Trace.concat([_run_model(model, make_env(mode, env_rng), seed, paths)
                                      for mode, env_rng, paths in cell])
                per_seed.append(compute_metrics(trace))
                if traces is not None:
                    seed_traces.append(trace)
            outcome.per_seed[(name, label)] = per_seed
            outcome.rows.append(aggregate_metrics(name, lob, label, per_seed,
                                                  episodes * len(modes)))
            if traces is not None:
                cond_traces[name] = Trace.concat(seed_traces)
            log.info("evaluated %s under %s (%d seeds)", name, label, len(seeds))
        if traces is not None:
            sink_started = time.perf_counter()
            traces(label, cond_traces)
            sink_seconds += time.perf_counter() - sink_started
        return outcome

    parts = _map_split(run, len(conditions), workers)
    outcome = EvalOutcome()
    for part in parts:
        outcome.rows += part.rows
        outcome.per_seed.update(part.per_seed)
    seconds = time.perf_counter() - started - sink_seconds
    n_modes = first_modes[-1]
    cells = len(conditions) * len(models) * len(seeds)
    runs = n_modes * len(models) * len(seeds)
    log.info("evaluated %d cells, %d episodes from %d path draws in %.2f s (%.0f episodes/s)",
             cells, runs * episodes, n_modes * len(seeds), seconds, runs * episodes / seconds)
    return outcome


def sensitivity_sweep(
    cells: Mapping[str, tuple[EnvFactory, EnvFactory]],
    ppo_config: PPOConfig,
    schedule: CurriculumSchedule,
    seeds: Sequence[int],
    eval_levels: Sequence[int],
    episodes_per_level: int,
    lob: str,
    crn_base: int,
    workers: int,
) -> EvalOutcome:
    """Retrain and re-evaluate once per cell of ``cells``, a mapping from
    row label to that cell's (training, evaluation) environment factories.

    Each cell trains fresh policies, then scores them with
    :func:`evaluate_models` on one condition pooling ``eval_levels``, so
    evaluation draws are paired across cells.  Every (cell, seed)
    training is one job of a single :func:`train_curriculum` call on up
    to ``workers`` processes.
    """
    runs = iter(train_curriculum(
        [(train_factory, ppo_config, schedule, seed)
         for train_factory, _ in cells.values() for seed in seeds],
        workers,
    ))
    modes = [Stochastic(level) for level in eval_levels]
    outcome = EvalOutcome()
    for label, (_, eval_factory) in cells.items():
        policies = {seed: next(runs).agent.policy for seed in seeds}
        cell = evaluate_models({"rl_cvar": policies}, eval_factory, [(label, modes)], seeds,
                               episodes_per_level, lob, crn_base)
        outcome.rows += cell.rows
        outcome.per_seed.update(cell.per_seed)
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
        DataError: ``rows`` is empty, or the filesystem rejected a write.
    """
    if not rows:
        raise DataError("refusing to write a metrics report with zero rows")
    write_records(csv_path, MetricsRow, rows)
    sidecar_path = csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"
    write_json(sidecar_path, {
        **(sidecar or {}), "n_rows": len(rows), "columns": list(field_names(MetricsRow))
    })
