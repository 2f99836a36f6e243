"""Command-line pipeline for the reserving experiments.

Subcommands mirror the experiment stages and each writes its artifacts
(plus a manifest with content digests) into its own directory under
``--out``:

* ``ingest``      parse, validate, split, and normalize a triangle CSV
* ``train``       curriculum-train policies on the training split
* ``evaluate``    compare the trained policies with static baselines
* ``stress``      fixed-shock stress battery on the trained policies
* ``baselines``   classical reserve tables and bootstrap summary
* ``sensitivity`` retrain/evaluate over a tail-level x floor grid
* ``report``      merge all metric tables produced so far

Exit codes: 0 success, 1 configuration/usage errors, 2 data errors,
3 numerical failures.  ``RESERVE_RL_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .agent import train_curriculum, write_training_log, write_update_log
from .baselines import (
    BootstrapResult,
    bootstrap_chain_ladder,
    bootstrap_runner,
    bornhuetter_ferguson,
    bornhuetter_ferguson_runner,
    chain_ladder_runner,
    chain_ladder_ultimates,
    implied_loss_ratio,
    write_reserve_rows_csv,
)
from .config import (
    FLOOR_FORMS,
    RunConfig,
    build_manifest,
    config_fingerprint,
    config_to_ini,
    git_blob_sha1,
    load_config,
    to_env_config,
    write_manifest,
)
from .env import EnvFactory
from .errors import ConfigError, DataError, NumericalError, ReserveRlError
from .evaluate import (
    EvalOutcome,
    constant_runner,
    emit_report,
    evaluate_models,
    greedy_runner,
    regime_conditions,
    sensitivity_sweep,
    stress_conditions,
)
from .nets import load_networks, save_networks
from .triangles import (
    DevelopmentFactors,
    LossTriangle,
    SplitSpec,
    age_to_age_factors,
    normalize,
    parse_triangle_csv,
    split_rolling_origin,
    write_triangle_csv,
)

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems through our error
    taxonomy (exit code 1) instead of its built-in exit(2)."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        raise ConfigError(message)


def _usable_cores() -> int:
    """Processes to train on: the cores this process may run on (``taskset``
    and cpusets narrow them), or every core where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="reserve-rl", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="INI run configuration", default=None)
    parser.add_argument("--out", help="artifact root directory", default="runs")
    parser.add_argument(
        "--seed-list",
        help="comma-separated training seeds overriding the config",
        default=None,
    )
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
    p_train.add_argument("--levels", default=None, help="comma-separated curriculum levels")

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


def _seeds(args: argparse.Namespace, cfg: RunConfig) -> tuple[int, ...]:
    if args.seed_list is None:
        seeds = cfg.run.seeds
    else:
        try:
            seeds = tuple(int(part) for part in args.seed_list.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --seed-list {args.seed_list!r}") from exc
    if not seeds:
        raise ConfigError("no training seeds: [run] seeds is empty")
    return seeds


def _outdir(args: argparse.Namespace, name: str) -> str:
    path = os.path.join(args.out, name)
    os.makedirs(path, exist_ok=True)
    return path


class IngestArtifacts:
    """Lazy view over an ingest directory's outputs."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.train_path = os.path.join(directory, "train_triangle.csv")
        self.test_path = os.path.join(directory, "test_triangle.csv")
        self.factors_path = os.path.join(directory, "factors.json")
        try:
            self.train = parse_triangle_csv(self.train_path)
            self.test = parse_triangle_csv(self.test_path)
            with open(self.factors_path) as handle:
                doc = json.load(handle)
            self.factors = DevelopmentFactors(factors=tuple(doc["factors"]))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(
                f"ingest artifacts missing or unreadable in {directory!r}: {exc}"
            ) from exc

    @property
    def horizon(self) -> int:
        return len(self.factors) + 1

    def input_paths(self) -> dict[str, str]:
        return {
            "train_triangle.csv": self.train_path,
            "test_triangle.csv": self.test_path,
            "factors.json": self.factors_path,
        }

    def input_digests(self) -> dict[str, str]:
        return {name: git_blob_sha1(p) for name, p in self.input_paths().items()}


def _factories(
    data: IngestArtifacts, cfg: RunConfig, **env_overrides: object
) -> tuple[EnvFactory, EnvFactory]:
    """Training factory on the train triangle, evaluation on the test one.

    Both pin the same horizon so policies see identical episode lengths;
    ``env_overrides`` replace further :class:`EnvConfig` fields (a
    sensitivity cell's tail level and floor).
    """
    horizon = cfg.env.horizon if cfg.env.horizon is not None else data.horizon
    env_cfg = to_env_config(cfg, horizon=horizon, **env_overrides)
    return (EnvFactory(data.train, data.factors, env_cfg),
            EnvFactory(data.test, data.factors, env_cfg))


def cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _outdir(args, "ingest")
    tri = parse_triangle_csv(args.triangle)
    split = SplitSpec(a_train=cfg.run.a_train, a_test=cfg.run.a_test)
    normalized, params = normalize(tri, split)
    train_tri, test_tri = split_rolling_origin(normalized, split)
    factors = age_to_age_factors(train_tri)

    train_path = os.path.join(out, "train_triangle.csv")
    test_path = os.path.join(out, "test_triangle.csv")
    write_triangle_csv(train_tri, train_path)
    write_triangle_csv(test_tri, test_path)
    with open(os.path.join(out, "normalization.json"), "w") as handle:
        json.dump({"scale": params.scale, "offset": params.offset}, handle,
                  sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    with open(os.path.join(out, "factors.json"), "w") as handle:
        json.dump({"factors": list(factors.factors)}, handle,
                  sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    manifest = build_manifest(
        "ingest", cfg,
        inputs={"triangle": args.triangle},
        outputs=["train_triangle.csv", "test_triangle.csv",
                 "normalization.json", "factors.json"],
    )
    write_manifest(os.path.join(out, "manifest.json"), manifest)
    print(f"ingest: {tri.n_accident_years} years -> "
          f"{train_tri.n_accident_years} train / {test_tri.n_accident_years} test, "
          f"scale {params.scale!r}")
    return 0


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _outdir(args, "train")
    data = IngestArtifacts(args.data or os.path.join(args.out, "ingest"))
    seeds = _seeds(args, cfg)
    schedule = cfg.regimes
    if args.levels is not None:
        try:
            levels = tuple(int(part) for part in args.levels.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --levels {args.levels!r}") from exc
        schedule = dataclasses.replace(schedule, levels=levels)
    train_factory, _ = _factories(data, cfg)
    result = train_curriculum(train_factory, cfg.ppo, schedule, seeds, _usable_cores())

    fingerprint = config_fingerprint(cfg)
    outputs = ["training_log.csv", "updates.csv"]
    for seed, trained in sorted(result.policies.items()):
        name = f"policy_seed{seed}.json"
        save_networks(os.path.join(out, name), trained.policy, trained.value,
                      fingerprint, seed)
        outputs.append(name)
    write_training_log(result.log, os.path.join(out, "training_log.csv"))
    write_update_log(result.update_stats, os.path.join(out, "updates.csv"))
    manifest = build_manifest("train", cfg, inputs=data.input_paths(), outputs=outputs)
    write_manifest(os.path.join(out, "manifest.json"), manifest)
    for seed in seeds:
        print(f"train: seed {seed} finished with {len(result.update_stats[seed])} updates")
    return 0


def _load_policies(directory: str, seeds: tuple[int, ...], cfg: RunConfig):
    fingerprint = config_fingerprint(cfg)
    policies = {}
    for seed in seeds:
        path = os.path.join(directory, f"policy_seed{seed}.json")
        try:
            policy, _value, saved_fp, saved_seed = load_networks(path)
        except OSError as exc:
            raise DataError(f"missing trained policy {path!r}: {exc}") from exc
        if saved_seed != seed:
            raise DataError(f"{path!r} holds seed {saved_seed}, expected {seed}")
        if saved_fp != fingerprint:
            log.warning("policy %s was trained under a different config fingerprint", path)
        policies[seed] = policy
    return policies


def _elr_and_bootstrap(
    train: LossTriangle, factors: DevelopmentFactors, cfg: RunConfig
) -> tuple[float, BootstrapResult]:
    """The Bornhuetter-Ferguson loss ratio (``[baselines] elr``, else the
    pooled implied ratio) and the chain-ladder bootstrap, both on ``train``."""
    elr = cfg.baselines.elr
    if elr is None:
        elr = implied_loss_ratio(train, factors)
    boot_rng = np.random.default_rng(cfg.baselines.bootstrap_seed)
    return elr, bootstrap_chain_ladder(train, cfg.baselines.bootstrap_sims, boot_rng)


def _write_traces(outcome: EvalOutcome, directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    written = []
    for (model, label), trace in sorted(outcome.traces.items()):
        safe = label.replace(":", "_").replace(",", "_").replace(".", "p")
        name = f"{model}__{safe}.csv"
        trace.write_csv(os.path.join(directory, name))
        written.append(name)
    return written


def _policy_outcome(args: argparse.Namespace, cfg: RunConfig, data: IngestArtifacts,
                    seeds: tuple[int, ...]) -> EvalOutcome:
    """``evaluate``: the trained policies and the three static baselines in
    each regime; ``stress``: the policies alone under each fixed shock."""
    policies = _load_policies(args.policies or os.path.join(args.out, "train"), seeds, cfg)
    _, eval_factory = _factories(data, cfg)
    models = {"rl_cvar": lambda seed: greedy_runner(policies[seed])}
    if args.command == "evaluate":
        conditions = regime_conditions(cfg.eval.regimes)
        elr, boot = _elr_and_bootstrap(data.train, data.factors, cfg)
        models["chain_ladder"] = constant_runner(chain_ladder_runner(data.factors))
        models["bornhuetter_ferguson"] = constant_runner(
            bornhuetter_ferguson_runner(data.factors, elr))
        models["bootstrap"] = constant_runner(bootstrap_runner(boot))
    else:
        conditions = stress_conditions(cfg.eval.shocks)
    return evaluate_models(
        models,
        eval_factory,
        conditions,
        seeds,
        cfg.eval.episodes,
        lob=cfg.run.lob,
        crn_base=cfg.eval.crn_base,
        keep_traces=args.traces,
    )


def _sensitivity_outcome(args: argparse.Namespace, cfg: RunConfig, data: IngestArtifacts,
                         seeds: tuple[int, ...]) -> EvalOutcome:
    """Retrained policies over the tail-level x floor grid."""

    def cell_factories(alpha: float | None, floor: tuple[float, float]):
        return _factories(data, cfg, alpha_override=alpha,
                          floor_base=floor[0], floor_slope=floor[1])

    return sensitivity_sweep(
        cell_factories,
        cfg.ppo,
        cfg.regimes,
        list(cfg.eval.sweep_alphas),
        FLOOR_FORMS,
        seeds,
        eval_levels=cfg.eval.regimes,
        episodes_per_level=cfg.eval.sweep_episodes_per_level,
        lob=cfg.run.lob,
        crn_base=cfg.eval.crn_base,
        workers=_usable_cores(),
    )


#: Subcommand -> (output directory, metrics table name, outcome function).
_EVALUATIONS = {
    "evaluate": ("eval", "metrics", _policy_outcome),
    "stress": ("stress", "stress_metrics", _policy_outcome),
    "sensitivity": ("sensitivity", "sensitivity", _sensitivity_outcome),
}


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    """``evaluate``, ``stress`` and ``sensitivity``: score models on the
    ingested data, then write the metrics table with its sidecar, the
    traces if any were kept, and the manifest."""
    directory, table, outcome_of = _EVALUATIONS[args.command]
    out = _outdir(args, directory)
    data = IngestArtifacts(args.data or os.path.join(args.out, "ingest"))
    seeds = _seeds(args, cfg)
    outcome = outcome_of(args, cfg, data, seeds)
    emit_report(outcome.rows, os.path.join(out, f"{table}.csv"), sidecar={
        "config_fingerprint": config_fingerprint(cfg),
        "seeds": list(seeds),
        "inputs": data.input_digests(),
    })
    outputs = [f"{table}.csv", f"{table}.json"]
    if outcome.traces:
        outputs += [os.path.join("traces", n)
                    for n in _write_traces(outcome, os.path.join(out, "traces"))]
    manifest = build_manifest(args.command, cfg, inputs=data.input_paths(), outputs=outputs)
    write_manifest(os.path.join(out, "manifest.json"), manifest)
    for row in outcome.rows:
        print(f"{args.command}: {row.model:20s} {row.condition:28s} rar={row.rar:.3f} "
              f"cvar95={row.cvar95:.4f} ces={row.ces:.3f} rvr={row.rvr:.3f}")
    return 0


def cmd_baselines(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _outdir(args, "baselines")
    tri = parse_triangle_csv(args.triangle)
    split = SplitSpec(a_train=cfg.run.a_train, a_test=cfg.run.a_test)
    train_tri, _ = split_rolling_origin(tri, split)
    factors = age_to_age_factors(train_tri)

    rows = chain_ladder_ultimates(train_tri, factors)
    elr, boot = _elr_and_bootstrap(train_tri, factors, cfg)
    rows += bornhuetter_ferguson(train_tri, factors, elr)
    write_reserve_rows_csv(rows, os.path.join(out, "reserves.csv"))
    with open(os.path.join(out, "bootstrap.json"), "w") as handle:
        json.dump(_bootstrap_summary(boot, elr), handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")

    manifest = build_manifest("baselines", cfg, inputs={"triangle": args.triangle},
                              outputs=["reserves.csv", "bootstrap.json"])
    write_manifest(os.path.join(out, "manifest.json"), manifest)
    total_cl = sum(r.reserve for r in rows if r.method == "chain_ladder")
    print(f"baselines: chain-ladder total reserve {total_cl!r}, "
          f"bootstrap mean {boot.mean!r} (sd {boot.stddev!r}), elr {elr!r}")
    return 0


def _bootstrap_summary(boot: BootstrapResult, elr: float) -> dict:
    return {
        "n_sims": boot.n_sims,
        "mean": boot.mean,
        "stddev": boot.stddev,
        "quantiles": {repr(q): v for q, v in sorted(boot.quantiles.items())},
        "n_retries": boot.n_retries,
        "elr": elr,
    }


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _outdir(args, "reports")
    sources = [
        os.path.join(args.out, "eval", "metrics.csv"),
        os.path.join(args.out, "stress", "stress_metrics.csv"),
        os.path.join(args.out, "sensitivity", "sensitivity.csv"),
    ]
    merged: list[str] = []
    header: str | None = None
    found = []
    for source in sources:
        if not os.path.exists(source):
            continue
        with open(source) as handle:
            lines = handle.read().splitlines()
        if not lines:
            continue
        if header is None:
            header = lines[0]
        elif lines[0] != header:
            raise DataError(f"{source!r} has a mismatched header")
        merged.extend(lines[1:])
        found.append(source)
    if header is None or not merged:
        raise DataError("no metric tables found to merge; run evaluate/stress/sensitivity first")
    report_path = os.path.join(out, "combined_metrics.csv")
    with open(report_path, "w", newline="") as handle:
        handle.write(header + "\n")
        for line in merged:
            handle.write(line + "\n")
    manifest = build_manifest("report", cfg,
                              inputs={os.path.relpath(s, args.out): s for s in found},
                              outputs=["combined_metrics.csv"])
    write_manifest(os.path.join(out, "manifest.json"), manifest)
    print(f"report: merged {len(merged)} rows from {len(found)} tables")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "stress": cmd_evaluate,
    "baselines": cmd_baselines,
    "sensitivity": cmd_evaluate,
    "report": cmd_report,
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
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReserveRlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
