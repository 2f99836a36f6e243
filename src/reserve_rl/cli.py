"""Command-line pipeline for the reserving experiments.

Subcommands mirror the experiment stages and each writes its artifacts
(plus a manifest digesting every input it read) into its own directory
under ``--out``, swapped in whole only when the command succeeds:

* ``ingest``      parse, validate, split, and normalize a triangle CSV
* ``train``       curriculum-train policies on the training split
* ``evaluate``    compare the trained policies with static baselines
* ``stress``      fixed-shock stress battery on the trained policies
* ``baselines``   classical reserve tables and bootstrap summary
* ``sensitivity`` retrain/evaluate over a tail-level x floor grid
* ``report``      merge all metric tables produced so far

Exit codes: 0 success, 1 configuration/usage errors, 2 data errors
(a failed artifact write among them), 3 numerical failures.
``RESERVE_RL_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import sys
import time
from dataclasses import replace
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .agent import N_ACTIONS, OBS_DIM, train_curriculum, write_training_log, write_update_log
from .artifacts import field_names, git_blob_sha1, write_csv, write_json, write_records
from .baselines import (
    BootstrapResult,
    ReserveRow,
    bootstrap_chain_ladder,
    bootstrap_mean_profile,
    bornhuetter_ferguson,
    chain_ladder_ultimates,
    classical_models,
    implied_loss_ratio,
)
from .config import (
    FLOOR_FORMS,
    RunConfig,
    build_manifest,
    config_fingerprint,
    config_to_ini,
    load_config,
)
from .env import EnvFactory, Trace, write_traces
from .errors import ConfigError, DataError, NumericalError, ReserveRlError
from .evaluate import (
    EvalOutcome,
    MetricsRow,
    TraceSink,
    drawn_conditions,
    evaluate_models,
    greedy_model,
    regime_conditions,
    sensitivity_label,
    sensitivity_sweep,
    stress_conditions,
)
from .nets import load_networks, save_networks
from .regimes import Stochastic
from .triangles import (
    DevelopmentFactors,
    LossTriangle,
    age_to_age_factors,
    normalize,
    parse_triangle_csv,
    split_rolling_origin,
    write_triangle_csv,
)

#: Named for the module, not ``__name__``: under ``python -m reserve_rl.cli``
#: that would be ``__main__``.
log = logging.getLogger("reserve_rl.cli")


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems through our error
    taxonomy (exit code 1) instead of its built-in exit(2)."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        raise ConfigError(message)


def _usable_cores() -> int:
    """Cores to train and evaluate on: the ones this process may run on
    (``taskset`` and cpusets narrow them), or every core where the OS cannot
    say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="reserve-rl", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="INI run configuration", default=None)
    parser.add_argument("--out", help="artifact root directory", default="runs")
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_ingest = sub.add_parser("ingest", help="validate, split, and normalize a triangle")
    p_ingest.add_argument("--triangle", required=True, help="raw triangle CSV")

    p_train = sub.add_parser("train", help="train policies on the training split")
    p_train.add_argument("--data", default=None, help="ingest artifact directory")

    p_eval = sub.add_parser("evaluate", help="compare policies and baselines per regime")
    p_eval.add_argument("--data", default=None)
    p_eval.add_argument("--policies", default=None, help="training artifact directory")
    p_eval.add_argument("--traces", action="store_true", help="also write step traces")

    p_stress = sub.add_parser("stress", help="fixed-shock stress battery")
    p_stress.add_argument("--data", default=None)
    p_stress.add_argument("--policies", default=None)
    p_stress.add_argument("--traces", action="store_true")

    p_base = sub.add_parser("baselines", help="classical reserve tables on the training years")
    p_base.add_argument("--triangle", required=True, help="raw triangle CSV")

    p_sens = sub.add_parser("sensitivity", help="tail-level x floor sensitivity grid")
    p_sens.add_argument("--data", default=None)

    sub.add_parser("report", help="merge metric tables into one report")
    return parser


class _Stage:
    """One run of a command's stage ``directory``: outputs go under
    ``<directory>.partial/``, made on the first :meth:`path` call, inputs
    are recorded as :meth:`read` passes them on, and :meth:`finish` swaps
    the whole directory in, so ``directory`` holds one complete run (after
    a failure, the last one).  It first clears what a killed run left."""

    def __init__(self, command: str, directory: str) -> None:
        self.command = command
        self.directory = directory
        self.partial, self.old = directory + ".partial", directory + ".old"
        self.names: list[str] = []
        self.inputs: dict[str, str] = {}
        self.discard()

    def read(self, name: str, path: str) -> str:
        """Record the digest of input ``path``, as it is now, under ``name``
        for the manifest; return ``path``.  A file that cannot be read is
        left for the caller's own open to report."""
        with contextlib.suppress(DataError):
            self.inputs[name] = git_blob_sha1(path)
        return path

    def path(self, name: str) -> str:
        """Where to write output ``name``, relative to the stage directory."""
        path = os.path.join(self.partial, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.names.append(name)
        return path

    def finish(self, cfg: RunConfig) -> None:
        """Write ``manifest.json`` (every input's digest and every name
        handed out); move the previous run to ``.old``, the partial
        directory into its place, and delete ``.old``."""
        write_json(os.path.join(self.partial, "manifest.json"),
                   build_manifest(self.command, cfg, inputs=self.inputs, outputs=self.names))
        if os.path.exists(self.directory):
            os.rename(self.directory, self.old)
        os.rename(self.partial, self.directory)
        shutil.rmtree(self.old, ignore_errors=True)

    def discard(self) -> None:
        """Remove the partial directory, and ``.old`` too, unless a swap cut
        short left it in place of the stage directory: then it moves back."""
        shutil.rmtree(self.partial, ignore_errors=True)
        if os.path.isdir(self.old) and not os.path.exists(self.directory):
            os.rename(self.old, self.directory)
        shutil.rmtree(self.old, ignore_errors=True)


#: The ingest outputs that later stages read, by name.
_INGEST_INPUTS = ("train_triangle.csv", "test_triangle.csv", "factors.json")


class IngestArtifacts:
    """An ingest directory's outputs, parsed when the view is built; each
    path goes through ``read(name, path)`` first (a stage's :meth:`_Stage.read`)."""

    def __init__(self, directory: str, read: Callable[[str, str], str]) -> None:
        train_path, test_path, self.factors_path = (
            read(name, os.path.join(directory, name)) for name in _INGEST_INPUTS)
        try:
            self.train = parse_triangle_csv(train_path)
            self.test = parse_triangle_csv(test_path)
            with open(self.factors_path) as handle:
                factors = tuple(json.load(handle)["factors"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(
                f"ingest artifacts missing or unreadable in {directory!r}: {exc}"
            ) from exc
        try:
            self.factors = DevelopmentFactors(factors=factors)
        except (DataError, NumericalError, TypeError) as exc:  # a bad file, not a numerical failure
            raise DataError(f"corrupt factors file {self.factors_path!r}: {exc}") from exc


def _factories(
    data: IngestArtifacts, cfg: RunConfig, **overrides: object
) -> tuple[EnvFactory, EnvFactory]:
    """Training factory on the train triangle, evaluation on the test one,
    on the same factors and so the same horizon; ``overrides`` replace
    ``[env]`` fields (a sensitivity cell's ``alpha`` and ``floor``).  Each
    builds one environment here, so a horizon the factors cannot cover is
    refused before any training or scoring."""
    env_cfg = replace(cfg.env, **overrides)
    factories = (EnvFactory(data.train, data.factors, env_cfg),
                 EnvFactory(data.test, data.factors, env_cfg))
    for factory in factories:
        factory()
    return factories


def cmd_ingest(args: argparse.Namespace, cfg: RunConfig, stage: _Stage) -> None:
    tri = parse_triangle_csv(stage.read("triangle", args.triangle))
    normalized, params = normalize(tri, cfg.run.split)
    train_tri, test_tri = split_rolling_origin(normalized, cfg.run.split)
    factors = age_to_age_factors(train_tri)

    write_triangle_csv(train_tri, stage.path("train_triangle.csv"))
    write_triangle_csv(test_tri, stage.path("test_triangle.csv"))
    # the offset is always 0; the key stays so the artifact keeps its shape
    write_json(stage.path("normalization.json"), {"scale": params.scale, "offset": 0.0})
    write_json(stage.path("factors.json"), {"factors": list(factors.factors)})
    print(f"ingest: {tri.n_accident_years} years -> "
          f"{train_tri.n_accident_years} train / {test_tri.n_accident_years} test, "
          f"scale {params.scale!r}")


def cmd_train(args: argparse.Namespace, cfg: RunConfig, stage: _Stage) -> None:
    data = IngestArtifacts(args.data or os.path.join(args.out, "ingest"), stage.read)
    train_factory, _ = _factories(data, cfg)
    runs = train_curriculum(
        [(train_factory, cfg.ppo, cfg.regimes, seed) for seed in cfg.run.seeds], _usable_cores())

    fingerprint = config_fingerprint(cfg)
    for run in runs:
        save_networks(stage.path(f"policy_seed{run.seed}.json"), run.agent.policy,
                      run.agent.value, fingerprint, run.seed)
    write_training_log(runs, stage.path("training_log.csv"))
    write_update_log(runs, stage.path("updates.csv"))
    for run in runs:
        print(f"train: seed {run.seed} finished with {len(run.update_stats)} updates")


def _load_policies(directory: str, seeds: tuple[int, ...], cfg: RunConfig,
                   read: Callable[[str, str], str]):
    """Seed -> policy from ``directory``, each file's path passed through
    ``read(name, path)``; networks the agent cannot act with are refused."""
    fingerprint = config_fingerprint(cfg)
    policies = {}
    for seed in seeds:
        basename = f"policy_seed{seed}.json"
        path = read(basename, os.path.join(directory, basename))
        try:
            policy, value, saved_fp, saved_seed = load_networks(path)
        except OSError as exc:
            raise DataError(f"missing trained policy {path!r}: {exc}") from exc
        if saved_seed != seed:
            raise DataError(f"{path!r} holds seed {saved_seed}, expected {seed}")
        for name, net, n_out in (("policy", policy, N_ACTIONS), ("value", value, 1)):
            widths = (net.weights[0].shape[0], net.weights[-1].shape[1])
            if widths != (OBS_DIM, n_out):
                raise DataError(f"{path!r} holds a {name} network of {widths[0]} inputs and "
                                f"{widths[1]} outputs, expected {OBS_DIM} and {n_out}")
        if saved_fp != fingerprint:
            log.warning("policy %s was trained under a different config fingerprint", path)
        policies[seed] = policy
    return policies


def _elr(train: LossTriangle, factors: DevelopmentFactors, cfg: RunConfig) -> float:
    """The Bornhuetter-Ferguson loss ratio: ``[baselines] elr``, else the
    pooled implied ratio on ``train``."""
    if cfg.baselines.elr is None:
        return implied_loss_ratio(train, factors)
    return cfg.baselines.elr


def _trace_name(model: str, label: str) -> str:
    safe = label.replace(":", "_").replace(",", "_").replace(".", "p")
    return f"{model}__{safe}.csv"


def _trace_writer(stage: _Stage, models: Iterable[str], labels: Iterable[str]) -> TraceSink:
    """Sink writing each condition's traces with one :func:`write_traces`
    call, seed block after seed block, to paths taken from ``stage`` now,
    one per (model, condition label) and named by :func:`_trace_name`: a
    forked child writes to the paths the caller's manifest lists."""
    models = list(models)
    paths = {(model, label): stage.path(os.path.join("traces", _trace_name(model, label)))
             for model in models for label in labels}

    def in_model_order(block: Mapping[str, Trace]) -> list[Trace]:
        return [block[model] for model in models]

    def write(label: str, blocks: Iterator[Mapping[str, Trace]]) -> None:
        write_traces([paths[model, label] for model in models], map(in_model_order, blocks))

    return write


def _require(cfg: RunConfig, command: str, *keys: str) -> None:
    """Refuse an empty ``[eval]`` list that ``command`` runs over."""
    for key in keys:
        if not getattr(cfg.eval, key):
            raise ConfigError(f"[eval] {key} is empty: {command} needs at least one value")


def _report(stage: _Stage, table: str, outcome: EvalOutcome, cfg: RunConfig) -> None:
    """Write the metrics table and its sidecar (config fingerprint, seeds,
    ingest file digests, row count, columns) and print one line per row;
    a table of zero rows is refused (``DataError``)."""
    if not outcome.rows:
        raise DataError("refusing to write a metrics report with zero rows")
    write_records(stage.path(f"{table}.csv"), MetricsRow, outcome.rows)
    write_json(stage.path(f"{table}.json"), {
        "config_fingerprint": config_fingerprint(cfg),
        "seeds": list(cfg.run.seeds),
        "inputs": {name: stage.inputs[name] for name in _INGEST_INPUTS},
        "n_rows": len(outcome.rows),
        "columns": list(field_names(MetricsRow)),
    })
    for row in outcome.rows:
        print(f"{stage.command}: {row.model:20s} {row.condition:28s} rar={row.rar:.3f} "
              f"cvar95={row.cvar95:.4f} ces={row.ces:.3f} rvr={row.rvr:.3f}")


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig, stage: _Stage) -> None:
    """``evaluate``: the trained policies and the three static baselines in
    each regime; ``stress``: the policies alone under each fixed shock.
    Under ``--traces`` each condition's traces are written seed by seed as
    its models run."""
    evaluate = args.command == "evaluate"
    _require(cfg, args.command, "regimes" if evaluate else "shocks")
    data = IngestArtifacts(args.data or os.path.join(args.out, "ingest"), stage.read)
    _, eval_factory = _factories(data, cfg)
    seeds = cfg.run.seeds
    policies = _load_policies(args.policies or os.path.join(args.out, "train"), seeds, cfg,
                              stage.read)
    models = {"rl_cvar": greedy_model(policies)}
    if evaluate:
        conditions = regime_conditions(cfg.eval.regimes)
        # the mean profile of the simulations ``baselines`` summarises
        profile = bootstrap_mean_profile(data.train, cfg.baselines.bootstrap_sims,
                                         np.random.default_rng(cfg.baselines.bootstrap_seed))
        models.update(classical_models(data.factors, _elr(data.train, data.factors, cfg),
                                       profile))
    else:
        conditions = stress_conditions(cfg.eval.shocks)
    drawn = drawn_conditions(eval_factory, conditions, cfg.eval.episodes, cfg.eval.crn_base)

    sink = _trace_writer(stage, models, [label for label, _ in drawn]) if args.traces else None
    outcome = evaluate_models(models, eval_factory, drawn, seeds, lob=cfg.run.lob,
                              traces=sink, workers=_usable_cores())
    _report(stage, "metrics" if evaluate else "stress_metrics", outcome, cfg)


def cmd_sensitivity(args: argparse.Namespace, cfg: RunConfig, stage: _Stage) -> None:
    """Retrained policies over the ``[eval] sweep_alphas`` x floor form
    grid, one ``alpha:<a>;floor:<form>`` cell each, all replaying one draw
    from the unswept factory: a draw reads neither ``alpha`` nor ``floor``."""
    _require(cfg, args.command, "regimes", "sweep_alphas")
    data = IngestArtifacts(args.data or os.path.join(args.out, "ingest"), stage.read)
    _, eval_factory = _factories(data, cfg)
    cells = {
        sensitivity_label(alpha, name): _factories(data, cfg, alpha=alpha, floor=floor)
        for alpha in cfg.eval.sweep_alphas
        for name, floor in FLOOR_FORMS.items()
    }
    levels = [Stochastic(level) for level in cfg.eval.regimes]
    [(_, paths)] = drawn_conditions(eval_factory, [("sweep", levels)],
                                    cfg.eval.sweep_episodes_per_level, cfg.eval.crn_base)
    outcome = sensitivity_sweep(cells, cfg.ppo, cfg.regimes, cfg.run.seeds, paths,
                                lob=cfg.run.lob, workers=_usable_cores())
    _report(stage, "sensitivity", outcome, cfg)


def cmd_baselines(args: argparse.Namespace, cfg: RunConfig, stage: _Stage) -> None:
    tri = parse_triangle_csv(stage.read("triangle", args.triangle))
    train_tri, _ = split_rolling_origin(tri, cfg.run.split)
    factors = age_to_age_factors(train_tri)
    rows = chain_ladder_ultimates(train_tri, factors)
    elr = _elr(train_tri, factors, cfg)
    boot = bootstrap_chain_ladder(train_tri, cfg.baselines.bootstrap_sims,
                                  np.random.default_rng(cfg.baselines.bootstrap_seed))
    rows += bornhuetter_ferguson(train_tri, factors, elr)

    write_records(stage.path("reserves.csv"), ReserveRow, rows)
    write_json(stage.path("bootstrap.json"), _bootstrap_summary(boot, elr))
    total_cl = sum(r.reserve for r in rows if r.method == "chain_ladder")
    print(f"baselines: chain-ladder total reserve {total_cl!r}, "
          f"bootstrap mean {boot.mean!r} (sd {boot.stddev!r}), elr {elr!r}")


def _bootstrap_summary(boot: BootstrapResult, elr: float) -> dict:
    return {
        "n_sims": boot.n_sims,
        "mean": boot.mean,
        "stddev": boot.stddev,
        "quantiles": {repr(q): v for q, v in sorted(boot.quantiles.items())},
        "n_retries": boot.n_retries,
        "elr": elr,
    }


def cmd_report(args: argparse.Namespace, cfg: RunConfig, stage: _Stage) -> None:
    """Merge the metrics tables under ``--out``; each must have been made
    under this run's config, as its sidecar's fingerprint records."""
    fingerprint = config_fingerprint(cfg)
    sources = [
        os.path.join(args.out, "eval", "metrics.csv"),
        os.path.join(args.out, "stress", "stress_metrics.csv"),
        os.path.join(args.out, "sensitivity", "sensitivity.csv"),
    ]
    merged: list[list[str]] = []
    header: str | None = None
    found = 0
    for source in sources:
        if not os.path.exists(source):
            continue
        with open(stage.read(os.path.relpath(source, args.out), source)) as handle:
            lines = handle.read().splitlines()
        if not lines:
            continue
        if header is None:
            header = lines[0]
        elif lines[0] != header:
            raise DataError(f"{source!r} has a mismatched header")
        sidecar = source[:-4] + ".json"
        try:
            with open(stage.read(os.path.relpath(sidecar, args.out), sidecar)) as handle:
                made_under = json.load(handle)["config_fingerprint"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"sidecar of {source!r} missing or unreadable: {exc}") from exc
        if made_under != fingerprint:
            raise DataError(f"{source!r} was made under config fingerprint {made_under}, "
                            f"not this run's {fingerprint}")
        merged.extend(line.split(",") for line in lines[1:])
        found += 1
    if header is None or not merged:
        raise DataError("no metric tables found to merge; run evaluate/stress/sensitivity first")

    write_csv(stage.path("combined_metrics.csv"), header, merged)
    print(f"report: merged {len(merged)} rows from {found} tables")


#: Command -> its function and its stage directory under ``--out``.
_COMMANDS = {
    "ingest": (cmd_ingest, "ingest"),
    "train": (cmd_train, "train"),
    "evaluate": (cmd_evaluate, "eval"),
    "stress": (cmd_evaluate, "stress"),
    "baselines": (cmd_baselines, "baselines"),
    "sensitivity": (cmd_sensitivity, "sensitivity"),
    "report": (cmd_report, "reports"),
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("RESERVE_RL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        if args.print_config:
            print(config_to_ini(cfg), end="")
            return 0
        if args.command is None:
            raise ConfigError("a subcommand is required (see --help)")
        command, directory = _COMMANDS[args.command]
        started = time.perf_counter()
        stage = _Stage(args.command, os.path.join(args.out, directory))
        try:
            command(args, cfg, stage)
            stage.finish(cfg)
        finally:
            stage.discard()
        log.info("%s finished in %.2f s", args.command, time.perf_counter() - started)
        return 0
    except (ReserveRlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NumericalError):
            return 3
        return 2 if isinstance(exc, (DataError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
