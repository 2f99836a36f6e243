#!/usr/bin/env python3
"""Benchmark of the reserving pipeline, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: this process calls
``reserve_rl.cli.main(argv)`` for each stage in turn, waits for it, checks
its outputs, and repeats the whole sequence (a pass) until ``--seconds``
have elapsed.  The seed generates the synthetic triangle and the seeds in
the INI file; the program sees only those two files.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
(medians over passes).  ``--trace 1`` first runs one untraced pass at the
given seed, for the trace overhead, and one at the reference seed, whose
artifacts are compared with the digests in ``reference_digests.json``; then
it traces passes at the given seed and reports the per-layer metrics.
``--workload all`` runs every workload in its own process and prints one
table.  ``README.md`` beside this file maps
each layer metric to the end-to-end metric and workload it should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; attempted and
failed count stage calls.  A human-readable table goes to standard error,
and the full result, with a machine block, to ``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from hostclock import REFERENCE_PROBE_S, HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
REFERENCE_PATH = os.path.join(HERE, "reference_digests.json")

#: Seed whose artifacts ``reference_digests.json`` records.
REFERENCE_SEED = 0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

# The default INI's experiment size, which the row-count checks pin.
SEEDS, LEVELS, EPISODES_PER_LEVEL, HORIZON = 3, 4, 200, 10
EVAL_EPISODES, REGIMES, SHOCKS, MODELS = 100, 4, 4, 4
TRAIN_STEPS = SEEDS * LEVELS * EPISODES_PER_LEVEL * HORIZON
EVAL_ROWS, STRESS_ROWS = MODELS * REGIMES, SHOCKS
EVAL_EPISODES_TOTAL = (EVAL_ROWS + STRESS_ROWS) * SEEDS * EVAL_EPISODES
DEFAULT_BOOTSTRAP_SIMS, BOOTSTRAP_HEAVY_SIMS = 1000, 50_000
#: Criterion 2's bound on bootstrap mean against the chain-ladder total.
BOOTSTRAP_TOLERANCE = 0.05

TRIANGLE = "triangle.csv"
STAGE_DIRS = {
    "ingest": "ingest", "train": "train", "evaluate": "eval",
    "stress": "stress", "baselines": "baselines", "report": "reports",
}
STAGE_ARGV = {
    "ingest": ["ingest", "--triangle", TRIANGLE],
    "train": ["train"],
    "evaluate": ["evaluate", "--traces"],
    "stress": ["stress"],
    "baselines": ["baselines", "--triangle", TRIANGLE],
    "report": ["report"],
}


@dataclass(frozen=True)
class Workload:
    stages: tuple[str, ...]
    #: INI sections and keys set on top of the default configuration.
    ini: dict[str, dict[str, object]]
    #: Named rates: items per pass and the stages whose time they take.
    rates: dict[str, tuple[int, tuple[str, ...]]]
    #: The rate reported as ``items_per_s``.
    headline: str
    #: Ingest belongs to set-up when the workload does not measure it.
    setup_ingest: bool = False

    @property
    def bootstrap_sims(self) -> int:
        return int(self.ini.get("baselines", {}).get("bootstrap_sims", DEFAULT_BOOTSTRAP_SIMS))


WORKLOADS = {
    "pipeline-default": Workload(
        stages=("ingest", "train", "evaluate", "stress", "baselines", "report"),
        ini={},
        rates={
            "eval_episodes_per_s": (EVAL_EPISODES_TOTAL, ("evaluate", "stress")),
            "train_steps_per_s": (TRAIN_STEPS, ("train",)),
        },
        headline="eval_episodes_per_s",
    ),
    "train-small-batch": Workload(
        stages=("train",),
        ini={"ppo": {"batch_size": 100, "minibatch_size": 50}},
        rates={"train_steps_per_s": (TRAIN_STEPS, ("train",))},
        headline="train_steps_per_s",
        setup_ingest=True,
    ),
    "bootstrap-heavy": Workload(
        stages=("baselines",),
        ini={"baselines": {"bootstrap_sims": BOOTSTRAP_HEAVY_SIMS}},
        rates={"bootstrap_sims_per_s": (BOOTSTRAP_HEAVY_SIMS, ("baselines",))},
        headline="bootstrap_sims_per_s",
    ),
}


@dataclass
class Work:
    """Inputs of one workload at one seed, and where its stages write."""

    directory: str
    config: str
    out: str
    seeds: tuple[int, ...]


@dataclass
class Pass:
    """One pass; times are rescaled to a fixed host speed (see ``hostclock``)."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    stage_s: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


# --- inputs ---------------------------------------------------------------------


def seeded_ini(seed: int) -> tuple[dict[str, dict[str, object]], tuple[int, ...]]:
    """The INI values a workload seed fills; three distinct training seeds."""
    import numpy as np

    run_seed, s1, s2, s3, crn_base, boot_seed = (
        int(v) for v in np.random.default_rng(seed).choice(1_000_000, size=6, replace=False)
    )
    seeds = (s1, s2, s3)
    return {
        "run": {"seed": run_seed, "seeds": ",".join(map(str, seeds))},
        "eval": {"crn_base": crn_base},
        "baselines": {"bootstrap_seed": boot_seed},
    }, seeds


def write_ini(path: str, sections: dict[str, dict[str, object]]) -> None:
    with open(path, "w") as handle:
        for name, values in sections.items():
            handle.write(f"[{name}]\n")
            for key, value in values.items():
                handle.write(f"{key} = {value}\n")
            handle.write("\n")


def set_up(wl: Workload, seed: int, directory: str, run: "Runner") -> Work:
    """Fresh inputs for one seed: triangle, INI, and ingest if it is set-up."""
    from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
    from reserve_rl.triangles import write_triangle_csv

    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    sections, seeds = seeded_ini(seed)
    for name, values in wl.ini.items():
        sections.setdefault(name, {}).update(values)
    work = Work(directory, os.path.join(directory, "run.ini"),
                os.path.join(directory, "out"), seeds)
    write_triangle_csv(make_synthetic_triangle(SyntheticSpec(), seed=seed),
                       os.path.join(directory, TRIANGLE))
    write_ini(work.config, sections)
    if wl.setup_ingest:
        run.stage(work, "ingest")
    return work


#: Run in a fresh interpreter: time the CLI's import on the child's own host clock.
_TIMED_IMPORT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from hostclock import HostClock
clock = HostClock()
clock.start()
mark = clock.mark()
import reserve_rl.cli
elapsed = clock.elapsed(mark)
clock.stop()
print(json.dumps(elapsed))
"""


def fresh_import() -> tuple[float, float]:
    """(raw, rescaled) seconds a fresh interpreter takes to import the CLI.

    Every user invocation pays this.  The child times itself, because the
    parent takes no host-speed sample while a child process runs.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run([sys.executable, "-c", _TIMED_IMPORT, HERE], env=env, check=True,
                           stdout=subprocess.PIPE, text=True)
    raw, scaled = json.loads(child.stdout)
    return raw, scaled


# --- stage calls and output checks ------------------------------------------------


class Runner:
    """Calls CLI stages, counting attempts and failed calls."""

    def __init__(self) -> None:
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    def stage(self, work: Work, stage: str) -> int:
        from reserve_rl.cli import main

        argv = ["--config", work.config, "--out", work.out] + [
            os.path.join(work.directory, a) if a == TRIANGLE else a for a in STAGE_ARGV[stage]
        ]

        def call() -> int:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    return main(argv)
                except Exception:  # a crash is a failed stage, not a failed benchmark
                    traceback.print_exc()
                    return -1

        self.attempted += 1
        code = self.tracer.stage(stage, call) if self.tracer else call()
        if code != 0:
            self.failed += 1
            print(f"stage {stage} exited with code {code}", file=sys.stderr)
        return code


def _csv_rows(path: str) -> list[dict[str, str]]:
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_metrics(path: str, expected_rows: int) -> list[str]:
    rows = _csv_rows(path)
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        for key, raw in row.items():
            if key in ("model", "lob", "condition"):
                continue
            if not math.isfinite(float(raw)):
                problems.append(f"{path}: {key} = {raw} in {row['model']}/{row['condition']}")
        if not 0.0 <= float(row["rvr"]) <= 1.0:
            problems.append(f"{path}: rvr {row['rvr']} outside [0, 1]")
    return problems


def _check_train(work: Work, wl: Workload) -> list[str]:
    from reserve_rl.nets import load_networks

    directory = os.path.join(work.out, "train")
    log_path = os.path.join(directory, "training_log.csv")
    rows = _csv_rows(log_path)
    expected = len(work.seeds) * LEVELS * EPISODES_PER_LEVEL
    problems = []
    if len(rows) != expected:
        problems.append(f"{log_path}: {len(rows)} rows, expected {expected}")
    if not all(math.isfinite(float(v)) for row in rows for v in row.values()):
        problems.append(f"{log_path}: non-finite value")
    for seed in work.seeds:
        _policy, _value, _fingerprint, saved = load_networks(
            os.path.join(directory, f"policy_seed{seed}.json"))
        if saved != seed:
            problems.append(f"policy_seed{seed}.json holds seed {saved}")
    return problems


def _check_baselines(work: Work, wl: Workload) -> list[str]:
    directory = os.path.join(work.out, "baselines")
    cl_total = sum(float(r["reserve"]) for r in _csv_rows(os.path.join(directory, "reserves.csv"))
                   if r["method"] == "chain_ladder")
    with open(os.path.join(directory, "bootstrap.json")) as handle:
        boot = json.load(handle)
    problems = []
    if boot["n_sims"] != wl.bootstrap_sims:
        problems.append(f"bootstrap n_sims {boot['n_sims']}, expected {wl.bootstrap_sims}")
    if not abs(boot["mean"] - cl_total) <= BOOTSTRAP_TOLERANCE * abs(cl_total):
        problems.append(f"bootstrap mean {boot['mean']!r} vs chain-ladder total {cl_total!r}")
    quantiles = [v for _q, v in sorted((float(q), v) for q, v in boot["quantiles"].items())]
    if quantiles != sorted(quantiles):
        problems.append(f"bootstrap quantiles not ascending: {quantiles}")
    return problems


CHECKS = {
    "train": _check_train,
    "evaluate": lambda work, wl: _check_metrics(
        os.path.join(work.out, "eval", "metrics.csv"), EVAL_ROWS),
    "stress": lambda work, wl: _check_metrics(
        os.path.join(work.out, "stress", "stress_metrics.csv"), STRESS_ROWS),
    "baselines": _check_baselines,
    "report": lambda work, wl: _check_metrics(
        os.path.join(work.out, "reports", "combined_metrics.csv"), EVAL_ROWS + STRESS_ROWS),
}


def artifact_digests(out: str) -> dict[str, str]:
    """sha256 of every artifact except manifests, which hold a timestamp."""
    digests = {}
    for dirpath, _dirs, files in os.walk(out):
        for name in files:
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, out)] = hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(digests.items()))


def run_pass(wl: Workload, work: Work, run: Runner, clock: HostClock) -> Pass:
    """Every stage once, timed; outputs are checked after the clock stops."""
    for stage in wl.stages:
        shutil.rmtree(os.path.join(work.out, STAGE_DIRS[stage]), ignore_errors=True)
    result = Pass()
    codes = {}
    for stage in wl.stages:
        mark = clock.mark()
        codes[stage] = run.stage(work, stage)
        raw, result.stage_s[stage] = clock.elapsed(mark)
        result.raw_wall_s += raw
    result.wall_s = sum(result.stage_s.values())
    for stage in wl.stages:
        if codes[stage] != 0 or stage not in CHECKS:
            continue
        try:
            problems = CHECKS[stage](work, wl)
        except Exception as exc:  # an unreadable output is a failed check
            problems = [f"{stage} outputs unreadable: {exc!r}"]
        if problems:
            run.failed += 1
            result.problems += problems
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return result


# --- metrics ----------------------------------------------------------------------


def rates(wl: Workload, passes: list[Pass]) -> dict[str, float]:
    """Median over passes of each named rate."""
    return {
        name: statistics.median(items / sum(p.stage_s[s] for s in stages) for p in passes)
        for name, (items, stages) in wl.rates.items()
    }


def end_to_end(wl: Workload, passes: list[Pass], setups: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "items_per_s": rates(wl, passes)[wl.headline],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, passes: list[Pass], untraced: Pass, identical: int) -> dict[str, float]:
    """Layer metrics from the traced passes; counts and self times are per pass."""
    spans = tracer.summary()
    counters = tracer.counters
    n = len(passes)

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    def per(total: float, items: float, scale: float) -> float:
        return total / items * scale if items else 0.0

    m: dict[str, float] = {
        f"cli.{stage}.s": statistics.median(p.stage_s.get(stage, 0.0) for p in passes)
        for stage in STAGE_DIRS
    }
    for name, keys in (
        ("env.step", ("calls", "self_s", "p50_us")),
        ("env.reset", ("p50_us",)),
        ("env.volatility_proxy", ("p50_us",)),
        ("env.Trace.write_csv", ("self_s",)),
        ("regimes.shock_for_step", ("calls", "p50_us")),
        ("risk.empirical_cvar", ("calls", "self_s", "p50_us")),
        ("nets.mlp_forward.b1", ("p50_us",)),
        ("nets.mlp_forward.batched", ("p50_us",)),
        ("nets.Adam.step", ("calls", "p50_us")),
        ("nets.clip_global_norm", ("p50_us",)),
        ("agent.act_sample", ("p50_us",)),
        ("agent.state_value", ("p50_us",)),
        ("agent.act_greedy", ("p50_us",)),
        ("agent.ppo_update", ("calls",)),
        ("agent.ppo_loss_and_grads", ("calls", "p50_us")),
        ("agent.compute_gae", ("self_s",)),
        ("evaluate.compute_metrics", ("self_s",)),
    ):
        for key in keys:
            value = get(name, key)
            m[f"{name}.{key}"] = value if key == "p50_us" else value / n
    m["agent.ppo_update.p50_ms"] = get("agent.ppo_update", "p50_us") / 1e3
    m["env.Trace.write_csv.rows"] = counters["env.Trace.write_csv.rows"] / n
    warm = counters["risk.empirical_cvar.warm"]
    m["risk.empirical_cvar.warm_ratio"] = per(warm, get("risk.empirical_cvar", "calls"), 1.0)
    m["risk.buffer_len.mean"] = per(counters["risk.buffer_len.sum"], warm, 1.0)
    for name in ("evaluate.run_policy_episodes", "baselines.replay_static_policy"):
        m[f"{name}.ms_per_100ep"] = per(get(name, "total_s"), counters[f"{name}.episodes"], 1e5)
    sims, retries = counters["baselines.bootstrap.sims"], counters["baselines.bootstrap.retries"]
    m["baselines.bootstrap_chain_ladder.ms_per_1000_sims"] = per(
        get("baselines.bootstrap_chain_ladder", "total_s"), sims, 1e6)
    m["baselines.bootstrap.retry_ratio"] = per(retries, sims + retries, 1.0)
    m["artifacts_identical"] = float(identical)
    m["trace_overhead_ratio"] = statistics.median(p.wall_s for p in passes) / untraced.wall_s
    return m


def machine() -> dict[str, object]:
    import numpy as np

    info: dict[str, object] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    info["blas_threads"] = _openblas_threads(np)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        info[var] = os.environ.get(var)
    return info


def _openblas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it is bundled."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# --- entry points -------------------------------------------------------------------------


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    from spans import Tracer

    wl = WORKLOADS[args.workload]
    base = os.path.join(OUT, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    run = Runner()
    clock = HostClock()
    untraced = identical = tracer = produced = None
    setups, raw_setups, passes, extra = [], [], [], []
    clock.start()
    try:
        for _ in range(SETUP_REPEATS):
            import_raw, import_s = fresh_import()
            mark = clock.mark()
            work = set_up(wl, args.seed, os.path.join(base, "work"), run)
            raw, scaled = clock.elapsed(mark)
            raw_setups.append(import_raw + raw)
            setups.append(import_s + scaled)

        if args.trace:
            untraced = run_pass(wl, work, run, clock)
            extra.append(untraced)
            ref_work = work
            if args.seed != REFERENCE_SEED:
                ref_work = set_up(wl, REFERENCE_SEED, os.path.join(base, "reference"), run)
                extra.append(run_pass(wl, ref_work, run, clock))
            digests = artifact_digests(ref_work.out)
            with open(REFERENCE_PATH) as handle:
                reference = json.load(handle)[args.workload]
            identical = sum(digests.get(k) == v for k, v in reference.items())
            produced = len(digests)
            tracer = Tracer()
            tracer.install()
            run.tracer = tracer
        # Passes run while the next one, as long as the last, still fits in --seconds.
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(wl, work, run, clock))
            if len(passes) == 1:
                # Later passes raise the peak a little, and their number varies.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        values = per_layer(tracer, passes, untraced, identical)
        tracer.write(os.path.join(base, "spans.csv"))
    else:
        values = end_to_end(wl, passes, setups, peak_rss_mb)
    units = declared_metrics(bool(args.trace))
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_raw_wall_s": [p.raw_wall_s for p in passes],
        "pass_stage_s": [p.stage_s for p in passes],
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "raw_wall_s": statistics.median(p.raw_wall_s for p in passes),
        "raw_setup_median_s": statistics.median(raw_setups),
        "probes": len(clock.samples),
        "probes_dropped": clock.dropped,
        "host_speed": statistics.fmean(REFERENCE_PROBE_S / p for p in clock.samples),
        "rates": rates(wl, passes),
        "failure_ratio": run.failed / run.attempted,
        "problems": [q for p in passes + extra for q in p.problems],
        "machine": machine(),
    }
    if args.trace:
        detail["untraced_wall_s"] = untraced.wall_s
        detail["reference_artifacts"] = {"identical": identical, "produced": produced}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }, detail


def record_reference(workload: str) -> None:
    """Store the artifact digests of one untraced pass at the reference seed."""
    wl = WORKLOADS[workload]
    run = Runner()
    work = set_up(wl, REFERENCE_SEED, os.path.join(OUT, workload, "reference"), run)
    run_pass(wl, work, run, HostClock())
    if run.failed:
        raise SystemExit(f"{workload}: {run.failed} failed stage calls; reference not recorded")
    digests = artifact_digests(work.out)
    reference = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as handle:
            reference = json.load(handle)
    reference[workload] = digests
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(dict(sorted(reference.items())), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{workload}: recorded {len(digests)} artifact digests", file=sys.stderr)


def print_table(rows: list[tuple[str, ...]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=sys.stderr)


def detail_rows(detail: dict) -> list[tuple[str, str, str]]:
    """Named rates, raw times and the failure ratio, for the table."""
    rows = [(k, repr(v), "1/s") for k, v in detail["rates"].items()]
    rows += [("raw_wall_s", repr(detail["raw_wall_s"]), "s"),
             ("raw_setup_s", repr(detail["raw_setup_median_s"]), "s"),
             ("host_speed", repr(detail["host_speed"]), "ratio"),
             ("failure_ratio", repr(detail["failure_ratio"]), "ratio"),
             ("passes", str(detail["passes"]), "count")]
    return rows


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    rows = [("workload", "metric", "value", "unit")]
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{name}: benchmark exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        with open(os.path.join(OUT, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")) as h:
            detail = json.load(h)["detail"]
        for metric, v in results[name]["metrics"].items():
            rows.append((name, metric, repr(v["value"]), v["unit"]))
        rows += [(name, *row) for row in detail_rows(detail)]
    print_table(rows)
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this workload's artifact digests at the reference seed")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isdir(os.path.join(SRC, "reserve_rl")):
        print(f"error: no package source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.record_reference:
        record_reference(args.workload)
        return 0

    result, detail = measure(args)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"result": result, "detail": detail}, handle, indent=1)
        handle.write("\n")
    rows = [("metric", "value", "unit")]
    rows += [(k, repr(v["value"]), v["unit"]) for k, v in result["metrics"].items()]
    print_table(rows + detail_rows(detail))
    print(f"machine: {json.dumps(detail['machine'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
