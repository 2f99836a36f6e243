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

Exit codes: 0 success, 1 configuration/usage errors, 2 data errors
(a failed artifact write among them), 3 numerical failures.
``RESERVE_RL_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .agent import train_curriculum, write_training_log, write_update_log
from .artifacts import git_blob_sha1, write_csv, write_json, write_records
from .baselines import (
    BootstrapResult,
    ReserveRow,
    bootstrap_chain_ladder,
    bootstrap_targets,
    bornhuetter_ferguson,
    bornhuetter_ferguson_targets,
    chain_ladder_targets,
    chain_ladder_ultimates,
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
    TraceSink,
    emit_report,
    evaluate_models,
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

#: Named for the module, not ``__name__``: under ``python -m reserve_rl.cli``
#: that would be ``__main__``.
log = logging.getLogger("reserve_rl.cli")


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems through our error
    taxonomy (exit code 1) instead of its built-in exit(2)."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        raise ConfigError(message)


def _usable_cores() -> int:
    """Processes to train and evaluate on: the cores this process may run on
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


def _outdir(args: argparse.Namespace, name: str) -> str:
    path = os.path.join(args.out, name)
    os.makedirs(path, exist_ok=True)
    return path


class IngestArtifacts:
    """An ingest directory's outputs, parsed when the view is built."""

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
    data: IngestArtifacts, cfg: RunConfig, **overrides: object
) -> tuple[EnvFactory, EnvFactory]:
    """Training factory on the train triangle, evaluation on the test one.

    Both pin the same horizon so policies see identical episode lengths;
    ``overrides`` replace further ``[env]`` fields (a sensitivity cell's
    ``alpha`` and ``floor``).
    """
    horizon = cfg.env.horizon if cfg.env.horizon is not None else data.horizon
    env_cfg = replace(cfg.env, horizon=horizon, **overrides)
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
    # the offset is always 0; the key stays so the artifact keeps its shape
    write_json(os.path.join(out, "normalization.json"), {"scale": params.scale, "offset": 0.0})
    write_json(os.path.join(out, "factors.json"), {"factors": list(factors.factors)})
    write_json(os.path.join(out, "manifest.json"), build_manifest(
        "ingest", cfg,
        inputs={"triangle": args.triangle},
        outputs=["train_triangle.csv", "test_triangle.csv",
                 "normalization.json", "factors.json"],
    ))
    print(f"ingest: {tri.n_accident_years} years -> "
          f"{train_tri.n_accident_years} train / {test_tri.n_accident_years} test, "
          f"scale {params.scale!r}")
    return 0


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _outdir(args, "train")
    data = IngestArtifacts(args.data or os.path.join(args.out, "ingest"))
    train_factory, _ = _factories(data, cfg)
    runs = train_curriculum(
        [(train_factory, cfg.ppo, cfg.regimes, seed) for seed in cfg.run.seeds], _usable_cores())

    fingerprint = config_fingerprint(cfg)
    outputs = ["training_log.csv", "updates.csv"]
    for run in runs:
        name = f"policy_seed{run.seed}.json"
        save_networks(os.path.join(out, name), run.agent.policy, run.agent.value,
                      fingerprint, run.seed)
        outputs.append(name)
    write_training_log(runs, os.path.join(out, "training_log.csv"))
    write_update_log(runs, os.path.join(out, "updates.csv"))
    write_json(os.path.join(out, "manifest.json"),
               build_manifest("train", cfg, inputs=data.input_paths(), outputs=outputs))
    for run in runs:
        print(f"train: seed {run.seed} finished with {len(run.update_stats)} updates")
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


def _trace_name(model: str, label: str) -> str:
    safe = label.replace(":", "_").replace(",", "_").replace(".", "p")
    return f"{model}__{safe}.csv"


def _trace_writer(directory: str) -> TraceSink:
    """Sink writing each condition's traces into ``directory`` with one
    :func:`write_traces` call, files named by :func:`_trace_name`."""
    os.makedirs(directory, exist_ok=True)

    def write(label: str, traces: dict[str, Trace]) -> None:
        write_traces([os.path.join(directory, _trace_name(model, label)) for model in traces],
                     list(traces.values()))

    return write


def _policy_outcome(args: argparse.Namespace, cfg: RunConfig, data: IngestArtifacts,
                    seeds: tuple[int, ...], traces: TraceSink | None) -> EvalOutcome:
    """``evaluate``: the trained policies and the three static baselines in
    each regime; ``stress``: the policies alone under each fixed shock."""
    policies = _load_policies(args.policies or os.path.join(args.out, "train"), seeds, cfg)
    _, eval_factory = _factories(data, cfg)
    models = {"rl_cvar": policies}
    if args.command == "evaluate":
        conditions = regime_conditions(cfg.eval.regimes)
        elr, boot = _elr_and_bootstrap(data.train, data.factors, cfg)
        models["chain_ladder"] = chain_ladder_targets(data.factors)
        models["bornhuetter_ferguson"] = bornhuetter_ferguson_targets(data.factors, elr)
        models["bootstrap"] = bootstrap_targets(boot)
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
        traces=traces,
        workers=_usable_cores(),
    )


def _sensitivity_outcome(args: argparse.Namespace, cfg: RunConfig, data: IngestArtifacts,
                         seeds: tuple[int, ...], _traces: None) -> EvalOutcome:
    """Retrained policies over the ``[eval] sweep_alphas`` x floor form
    grid, one ``alpha:<a>;floor:<form>`` cell each (no traces)."""
    cells = {
        f"alpha:{alpha:g};floor:{name}": _factories(data, cfg, alpha=alpha, floor=floor)
        for alpha in cfg.eval.sweep_alphas
        for name, floor in FLOOR_FORMS.items()
    }
    if len(cells) < len(cfg.eval.sweep_alphas) * len(FLOOR_FORMS):
        raise ConfigError(f"[eval] sweep_alphas {cfg.eval.sweep_alphas} repeat a level "
                          "(labels print levels to 6 significant digits)")
    return sensitivity_sweep(
        cells,
        cfg.ppo,
        cfg.regimes,
        seeds,
        eval_levels=cfg.eval.regimes,
        episodes_per_level=cfg.eval.sweep_episodes_per_level,
        lob=cfg.run.lob,
        crn_base=cfg.eval.crn_base,
        workers=_usable_cores(),
    )


#: Subcommand -> (output directory, metrics table name, outcome function,
#: the ``[eval]`` lists it runs over).
_EVALUATIONS = {
    "evaluate": ("eval", "metrics", _policy_outcome, ("regimes",)),
    "stress": ("stress", "stress_metrics", _policy_outcome, ("shocks",)),
    "sensitivity": ("sensitivity", "sensitivity", _sensitivity_outcome,
                    ("regimes", "sweep_alphas")),
}


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    """``evaluate``, ``stress`` and ``sensitivity``: score models on the
    ingested data, writing each condition's traces as it finishes under
    ``--traces``, then write the metrics table with its sidecar and the
    manifest.  An empty ``[eval]`` list the command runs over is refused
    before anything is read."""
    directory, table, outcome_of, lists = _EVALUATIONS[args.command]
    for key in lists:
        if not getattr(cfg.eval, key):
            raise ConfigError(f"[eval] {key} is empty: {args.command} needs at least one value")
    out = _outdir(args, directory)
    data = IngestArtifacts(args.data or os.path.join(args.out, "ingest"))
    sink = None
    if getattr(args, "traces", False):
        sink = _trace_writer(os.path.join(out, "traces"))
    outcome = outcome_of(args, cfg, data, cfg.run.seeds, sink)
    emit_report(outcome.rows, os.path.join(out, f"{table}.csv"), sidecar={
        "config_fingerprint": config_fingerprint(cfg),
        "seeds": list(cfg.run.seeds),
        "inputs": data.input_digests(),
    })
    outputs = [f"{table}.csv", f"{table}.json"]
    if sink is not None:
        outputs += [os.path.join("traces", _trace_name(model, label))
                    for model, label in sorted((row.model, row.condition) for row in outcome.rows)]
    write_json(os.path.join(out, "manifest.json"),
               build_manifest(args.command, cfg, inputs=data.input_paths(), outputs=outputs))
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
    write_records(os.path.join(out, "reserves.csv"), ReserveRow, rows)
    write_json(os.path.join(out, "bootstrap.json"), _bootstrap_summary(boot, elr))
    write_json(os.path.join(out, "manifest.json"),
               build_manifest("baselines", cfg, inputs={"triangle": args.triangle},
                              outputs=["reserves.csv", "bootstrap.json"]))
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
    merged: list[list[str]] = []
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
        merged.extend(line.split(",") for line in lines[1:])
        found.append(source)
    if header is None or not merged:
        raise DataError("no metric tables found to merge; run evaluate/stress/sensitivity first")
    write_csv(os.path.join(out, "combined_metrics.csv"), header, merged)
    write_json(os.path.join(out, "manifest.json"),
               build_manifest("report", cfg,
                              inputs={os.path.relpath(s, args.out): s for s in found},
                              outputs=["combined_metrics.csv"]))
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
        started = time.perf_counter()
        code = _COMMANDS[args.command](args, cfg)
        log.info("%s finished in %.2f s", args.command, time.perf_counter() - started)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReserveRlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
