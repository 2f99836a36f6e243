"""End-to-end CLI pipeline on a small synthetic book, plus error mapping."""

import csv
import json
import logging
import os
import re
import shutil
import subprocess
import sys

import pytest

import reserve_rl.cli as cli
from reserve_rl import parallel
from reserve_rl.cli import IngestArtifacts, main
from reserve_rl.agent import PPOConfig, train_curriculum
from reserve_rl.artifacts import git_blob_sha1
from reserve_rl.config import RunConfig, config_fingerprint, config_to_ini, load_config
from reserve_rl.env import EnvConfig, EnvFactory, ReserveEnv
from reserve_rl.errors import DataError, NumericalError, ReserveRlError
from reserve_rl.evaluate import drawn_conditions, evaluate_models, greedy_model, regime_conditions
from reserve_rl.regimes import CurriculumSchedule
from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import write_triangle_csv

PIPELINE_INI = """\
[run]
seeds = 1,2

[regimes]
levels = 0,1
episodes_per_level = 8
ramp_episodes = 2

[ppo]
batch_size = 40
minibatch_size = 20
epochs = 2
hidden = 8,8

[eval]
episodes = 4
regimes = 0,1
shocks = 1.0,1.5
sweep_alphas = 0.9
sweep_episodes_per_level = 4

[baselines]
bootstrap_sims = 50
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every subcommand once into a shared artifact tree."""
    root = tmp_path_factory.mktemp("pipeline")
    triangle_csv = str(root / "triangle.csv")
    write_triangle_csv(make_synthetic_triangle(SyntheticSpec(), seed=0), triangle_csv)
    config_path = str(root / "run.ini")
    with open(config_path, "w") as handle:
        handle.write(PIPELINE_INI)

    out = str(root / "runs")
    base = ["--config", config_path, "--out", out]
    assert main(base + ["ingest", "--triangle", triangle_csv]) == 0
    assert main(base + ["train"]) == 0
    assert main(base + ["evaluate"]) == 0
    assert main(base + ["stress"]) == 0
    assert main(base + ["baselines", "--triangle", triangle_csv]) == 0
    assert main(base + ["sensitivity"]) == 0
    assert main(base + ["report"]) == 0
    return {"out": out, "config": config_path, "triangle": triangle_csv}


def unrecorded(name, path):
    """A reader for :class:`IngestArtifacts` and ``_load_policies`` that
    records nothing, where no stage runs."""
    return path


def _lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


def test_ingest_artifacts(pipeline):
    ingest = os.path.join(pipeline["out"], "ingest")
    for name in ("train_triangle.csv", "test_triangle.csv",
                 "normalization.json", "factors.json", "manifest.json"):
        assert os.path.exists(os.path.join(ingest, name)), name
    with open(os.path.join(ingest, "factors.json")) as handle:
        factors = json.load(handle)["factors"]
    assert len(factors) == 9
    with open(os.path.join(ingest, "manifest.json")) as handle:
        manifest = json.load(handle)
    assert manifest["command"] == "ingest"
    assert manifest["tool"] == "reserve-rl"

    data = IngestArtifacts(ingest, unrecorded)
    assert data.train.n_accident_years == 8
    assert data.test.n_accident_years == 2


def test_auto_horizon_is_the_fitted_triangles_depth_on_both_splits(pipeline):
    """``horizon = auto`` is one period per development factor plus one,
    on the held-out triangle (two lags deep) as on the training one."""
    data = IngestArtifacts(os.path.join(pipeline["out"], "ingest"), unrecorded)
    assert (data.train.n_dev_lags, data.test.n_dev_lags) == (10, 2)
    for triangle in (data.train, data.test):
        assert EnvFactory(triangle, data.factors, EnvConfig())().horizon == 10


def test_train_artifacts(pipeline):
    train = os.path.join(pipeline["out"], "train")
    assert os.path.exists(os.path.join(train, "policy_seed1.json"))
    assert os.path.exists(os.path.join(train, "policy_seed2.json"))
    log_lines = _lines(os.path.join(train, "training_log.csv"))
    # 2 seeds x 2 levels x 8 episodes, plus the header
    assert len(log_lines) == 1 + 2 * 2 * 8
    # 8 episodes of 10 steps in batches of 4 episodes: 2 updates per level
    updates = [line.split(",")[:3] for line in _lines(os.path.join(train, "updates.csv"))[1:]]
    assert updates == [[seed, level, str(i)] for seed in "12"
                       for i, level in enumerate("0011")]
    with open(os.path.join(train, "manifest.json")) as handle:
        assert "updates.csv" in json.load(handle)["outputs"]


def test_evaluate_artifacts(pipeline):
    metrics = _lines(os.path.join(pipeline["out"], "eval", "metrics.csv"))
    # 4 models (policy + three baselines) x 2 regime conditions
    assert len(metrics) == 1 + 4 * 2
    models = {line.split(",")[0] for line in metrics[1:]}
    assert models == {"rl_cvar", "chain_ladder", "bornhuetter_ferguson", "bootstrap"}
    sidecar = json.loads(_lines(os.path.join(pipeline["out"], "eval", "metrics.json"))[0])
    assert sidecar["n_rows"] == 8
    assert sidecar["seeds"] == [1, 2]


#: Each record table's header as a literal: a field rename that would
#: change a file format fails here.
RECORD_HEADERS = {
    "train/training_log.csv":
        "seed,level,episode,mean_reward,mean_shortfall,mean_cvar,violation_rate",
    "train/updates.csv":
        "seed,level,update,policy_loss,value_loss,entropy,clip_fraction,approx_kl,grad_norm,"
        "explained_variance",
    "baselines/reserves.csv": "method,accident_year,latest,ultimate,reserve",
    "eval/metrics.csv":
        "model,lob,condition,rar,cvar95,ces,rvr,n_episodes,n_seeds,rar_sd,cvar95_sd,ces_sd,rvr_sd",
    "ingest/train_triangle.csv": "accident_year,dev_lag,cum_incurred,cum_paid,earned_premium",
}


@pytest.mark.parametrize("name", RECORD_HEADERS)
def test_record_table_header_is_pinned(pipeline, name):
    path = os.path.join(pipeline["out"], *name.split("/"))
    header = RECORD_HEADERS[name]
    assert _lines(path)[0] == header
    if name == "eval/metrics.csv":
        with open(path[:-4] + ".json") as handle:
            assert json.load(handle)["columns"] == header.split(",")


def test_stress_artifacts(pipeline):
    rows = _lines(os.path.join(pipeline["out"], "stress", "stress_metrics.csv"))
    assert len(rows) == 1 + 2
    conditions = [line.split(",")[2] for line in rows[1:]]
    assert conditions == ["shock:1", "shock:1.5"]


def test_baseline_artifacts(pipeline):
    reserves = _lines(os.path.join(pipeline["out"], "baselines", "reserves.csv"))
    # 8 training years for each of chain ladder and BF
    assert len(reserves) == 1 + 16
    with open(os.path.join(pipeline["out"], "baselines", "bootstrap.json")) as handle:
        boot = json.load(handle)
    assert boot["n_sims"] == 50
    assert boot["mean"] > 0


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_sensitivity_artifacts(pipeline):
    rows = _csv_rows(os.path.join(pipeline["out"], "sensitivity", "sensitivity.csv"))
    # one sweep alpha x both floor forms, every row as wide as the header
    assert len(rows) == 1 + 2
    assert [len(row) for row in rows] == [13] * 3
    assert sorted(row[2] for row in rows[1:]) == ["alpha:0.9;floor:default", "alpha:0.9;floor:strict"]


def test_report_merges_everything(pipeline):
    merged = _csv_rows(os.path.join(pipeline["out"], "reports", "combined_metrics.csv"))
    assert len(merged) == 1 + 8 + 2 + 2
    assert {len(row) for row in merged} == {13}


def test_evaluate_with_traces(pipeline, tmp_path):
    out = str(tmp_path / "runs")
    code = main([
        "--config", pipeline["config"], "--out", out, "evaluate",
        "--data", os.path.join(pipeline["out"], "ingest"),
        "--policies", os.path.join(pipeline["out"], "train"),
        "--traces",
    ])
    assert code == 0
    traces = os.listdir(os.path.join(out, "eval", "traces"))
    assert len(traces) == 4 * 2
    assert all(name.endswith(".csv") for name in traces)


def test_every_command_logs_its_wall_time(pipeline, tmp_path, caplog):
    """One INFO line per command, also for those that log nothing else."""
    out = str(tmp_path / "runs")
    base = ["--config", pipeline["config"], "--out", out]
    with caplog.at_level(logging.INFO, logger="reserve_rl.cli"):
        assert main(base + ["ingest", "--triangle", pipeline["triangle"]]) == 0
        assert main(base + ["baselines", "--triangle", pipeline["triangle"]]) == 0
        shutil.copytree(os.path.join(pipeline["out"], "eval"), os.path.join(out, "eval"))
        assert main(base + ["report"]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "reserve_rl.cli"]
    assert len(lines) == 3
    for line, command in zip(lines, ["ingest", "baselines", "report"]):
        assert re.fullmatch(rf"{command} finished in \d+\.\d\d s", line)


def test_log_lines_name_the_cli_under_dash_m(pipeline, tmp_path):
    """``python -m reserve_rl.cli`` runs the module as ``__main__``; its log
    lines still carry the package logger's name."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, RESERVE_RL_LOG="INFO",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "reserve_rl.cli", "--out", str(tmp_path / "runs"),
         "ingest", "--triangle", pipeline["triangle"]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.search(r"^INFO reserve_rl\.cli: ingest finished in \d+\.\d\d s$",
                     done.stderr, re.MULTILINE), done.stderr
    assert "__main__" not in done.stderr


def test_evaluate_traces_are_written_per_condition(pipeline, tmp_path, caplog, monkeypatch):
    """``evaluate --traces`` writes each condition's files in one group
    call (one INFO line each) and lists them in the manifest in (model,
    label) order.  On one usable core every condition is evaluated in
    this process, where ``caplog`` sees its log records."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = str(tmp_path / "runs")
    with caplog.at_level(logging.INFO, logger="reserve_rl.artifacts"):
        assert main([
            "--config", pipeline["config"], "--out", out, "evaluate",
            "--data", os.path.join(pipeline["out"], "ingest"),
            "--policies", os.path.join(pipeline["out"], "train"), "--traces",
        ]) == 0
    writes = [r.getMessage() for r in caplog.records if r.name == "reserve_rl.artifacts"]
    # two regimes x four models x two seeds x four episodes x the horizon
    assert [w.split(" in ")[0] for w in writes] == ["wrote 4 CSV files, 320 rows"] * 2
    with open(os.path.join(out, "eval", "manifest.json")) as handle:
        outputs = json.load(handle)["outputs"]
    models = ["bootstrap", "bornhuetter_ferguson", "chain_ladder", "rl_cvar"]
    assert outputs[2:] == [f"traces/{m}__regime_{level}.csv" for m in models for level in (0, 1)]
def test_print_config(capsys):
    assert main(["--print-config"]) == 0
    assert capsys.readouterr().out == config_to_ini(RunConfig())


def _tree(directory):
    """File bytes under ``directory``, a nested dict per subdirectory;
    manifests without their timestamp."""
    files = {}
    for name in sorted(os.listdir(directory)):
        if os.path.isdir(os.path.join(directory, name)):
            files[name] = _tree(os.path.join(directory, name))
            continue
        with open(os.path.join(directory, name), "rb") as handle:
            files[name] = handle.read()
        if name == "manifest.json":
            files[name] = {k: v for k, v in json.loads(files[name]).items() if k != "created_at"}
    return files


def test_train_bytes_do_not_depend_on_usable_cores(pipeline, tmp_path, monkeypatch):
    trees = []
    for cores in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        out = str(tmp_path / f"cores{len(cores)}")
        assert main(["--config", pipeline["config"], "--out", out, "train",
                     "--data", os.path.join(pipeline["out"], "ingest")]) == 0
        trees.append(_tree(os.path.join(out, "train")))
    assert trees[0] == trees[1]
    assert trees[0] == _tree(os.path.join(pipeline["out"], "train"))


def assert_no_child_process():
    """No child of this process exists, running or exited (none is reaped)."""
    with pytest.raises(ChildProcessError):
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)


def test_evaluate_bytes_do_not_depend_on_usable_cores(pipeline, tmp_path, monkeypatch):
    """``evaluate`` and ``stress`` deal their conditions to one process per
    usable core; three of each split unevenly over two cores, and every
    table, trace and manifest keeps the one-core bytes."""
    config = tmp_path / "three.ini"
    config.write_text(PIPELINE_INI.replace("regimes = 0,1", "regimes = 0,1,2")
                      .replace("shocks = 1.0,1.5", "shocks = 1.0,1.5,2.0"))
    trees = []
    for cores in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        out = str(tmp_path / f"cores{len(cores)}")
        tree = {}
        for command, directory in (("evaluate", "eval"), ("stress", "stress")):
            assert main(["--config", str(config), "--out", out, command, "--traces",
                         "--data", os.path.join(pipeline["out"], "ingest"),
                         "--policies", os.path.join(pipeline["out"], "train")]) == 0
            assert_no_child_process()
            tree[directory] = _tree(os.path.join(out, directory))
        trees.append(tree)
    assert len(trees[0]["eval"]["traces"]) == 4 * 3
    assert len(trees[0]["stress"]["traces"]) == 3
    assert trees[1] == trees[0]
    assert trees[2] == trees[0]


class RefusingLevels:
    """Evaluation factory whose environments refuse to replay paths of the
    regime levels in ``levels``, naming the level and the process."""

    def __init__(self, factory, levels):
        self.factory, self.levels = factory, levels

    def __call__(self):
        env = self.factory()
        rollout = env.rollout

        def refusing(paths, policy):
            if paths.level in self.levels:
                raise NumericalError(f"level {paths.level} refused in process {os.getpid()}")
            return rollout(paths, policy)

        env.rollout = refusing
        return env


@pytest.mark.parametrize("levels, raised", [
    ((1,), 1),       # dealt to the child alone
    ((1, 2), 1),     # the child's level 1 comes before the caller's level 2
    ((0, 1), 0),     # the caller's level 0 comes first
])
def test_evaluate_error_keeps_type_exit_code_and_order(pipeline, tmp_path, capsys, monkeypatch,
                                                        levels, raised):
    """On two cores the caller evaluates regime levels 0 and 2 and a forked
    child 1 and 3.  A refused level raises what one core raises: its type,
    the exit code, and the lowest refused level first; no child remains."""
    config = tmp_path / "four.ini"
    config.write_text(PIPELINE_INI.replace("regimes = 0,1", "regimes = 0,1,2,3"))
    factories = cli._factories

    def refusing(*args, **kwargs):
        train_factory, eval_factory = factories(*args, **kwargs)
        return train_factory, RefusingLevels(eval_factory, levels)

    monkeypatch.setattr(cli, "_factories", refusing)
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        assert main(["--config", str(config), "--out", str(tmp_path / "runs"), "evaluate",
                     "--data", os.path.join(pipeline["out"], "ingest"),
                     "--policies", os.path.join(pipeline["out"], "train")]) == 3
        assert f"error: level {raised} refused" in capsys.readouterr().err
        assert_no_child_process()
    cfg = load_config(str(config))
    _, eval_factory = refusing(
        IngestArtifacts(os.path.join(pipeline["out"], "ingest"), unrecorded), cfg)
    policies = cli._load_policies(os.path.join(pipeline["out"], "train"), (1, 2), cfg,
                                  unrecorded)
    with pytest.raises(NumericalError, match=rf"^level {raised} refused") as err:
        evaluate_models({"rl_cvar": greedy_model(policies)}, eval_factory,
                        drawn_conditions(eval_factory, regime_conditions([0, 1, 2, 3]), 4, 0),
                        (1, 2), workers=2)
    # raised where that level was evaluated: the caller for level 0, else the child
    assert (f"process {os.getpid()}" in str(err.value)) == (raised == 0)
    assert_no_child_process()


def test_runs_where_the_os_has_no_affinity(monkeypatch, capsys):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(["--print-config"]) == 0
    assert cli._usable_cores() == (os.cpu_count() or 1)


class ChildRefusing:
    """An environment factory that builds in the calling process and, in
    any other, refuses with its process id and BLAS thread count."""

    def __init__(self, factory):
        self.factory, self.caller = factory, os.getpid()

    def __call__(self):
        if os.getpid() == self.caller:
            return self.factory()
        get_threads = parallel.openblas()[0]
        raise NumericalError(f"refused in process {os.getpid()}, BLAS threads {get_threads()}")


@pytest.mark.skipif(parallel.openblas() is None, reason="no OpenBLAS to pin: training is serial")
def test_worker_error_keeps_type_and_exit_code(pipeline, tmp_path, monkeypatch):
    """The caller trains seed 1 and a forked child seed 2, whose refusal
    reaches the caller with its type and the exit code; the child ran on
    one BLAS thread, and the caller's count is restored."""
    config = PPOConfig(batch_size=10, minibatch_size=5, hidden=(4,))
    schedule = CurriculumSchedule(levels=(0,), episodes_per_level=2, ramp_episodes=1)
    data = IngestArtifacts(os.path.join(pipeline["out"], "ingest"), unrecorded)
    train_factory, _ = cli._factories(data, load_config(pipeline["config"]))
    get_threads, set_threads, _ = parallel.openblas()
    saved = get_threads()
    set_threads(3)
    try:
        with pytest.raises(NumericalError, match="BLAS threads 1$") as raised:
            train_curriculum([(ChildRefusing(train_factory), config, schedule, seed)
                              for seed in (1, 2)], workers=2)
        assert get_threads() == 3
    finally:
        set_threads(saved)
    assert f"process {os.getpid()}," not in str(raised.value)
    assert_no_child_process()
    factories = cli._factories
    monkeypatch.setattr(cli, "_factories", lambda *a, **k: tuple(
        ChildRefusing(factory) for factory in factories(*a, **k)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["--config", pipeline["config"], "--out", str(tmp_path / "runs"), "train",
                 "--data", os.path.join(pipeline["out"], "ingest")]) == 3
    assert_no_child_process()


@pytest.mark.parametrize("command, directory", [("evaluate", "eval"), ("stress", "stress")])
def test_missing_policies_are_refused_before_the_stage_directory(pipeline, tmp_path, capsys,
                                                                 command, directory):
    """``evaluate`` or ``stress`` with no trained policies exits 2 and
    leaves no stage directory behind."""
    out = tmp_path / "runs"
    assert main(["--config", pipeline["config"], "--out", str(out), command,
                 "--data", os.path.join(pipeline["out"], "ingest")]) == 2
    missing = os.path.join(str(out), "train", "policy_seed1.json")
    assert capsys.readouterr().err.startswith(f"error: missing trained policy {missing!r}")
    assert not (out / directory).exists()


def _drop_last_policy_layer(doc):
    for key in ("shapes", "arrays"):
        del doc["policy"][key][-2:]


def _cut_first_policy_weight(doc):
    doc["policy"]["shapes"][0][0] = 3
    doc["policy"]["arrays"][0] = doc["policy"]["arrays"][0][:3 * doc["policy"]["shapes"][0][1]]


def _empty_value_net(doc):
    doc["value"] = {"shapes": [], "arrays": []}


def _nan_policy_weight(doc):
    doc["policy"]["arrays"][0][0] = float("nan")


@pytest.mark.parametrize("command, directory", [("evaluate", "eval"), ("stress", "stress")])
@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_drop_last_policy_layer,
                 "holds a policy network of 7 inputs and 8 outputs, expected 7 and",
                 id="no_last_layer"),
    pytest.param(_cut_first_policy_weight, "holds a policy network of 3 inputs and",
                 id="three_inputs"),
    pytest.param(_empty_value_net, "ValueError: value layer shapes [] do not chain",
                 id="empty_value_net"),
    pytest.param(_nan_policy_weight, "ValueError: non-finite policy weight or bias",
                 id="nan_weight"),
])
def test_a_policy_file_the_agent_cannot_act_with_exits_2(pipeline, tmp_path, capsys, command,
                                                         directory, corrupt, message):
    """A policy file that parses but holds no network the agent can act
    with (the wrong widths, no layers, a NaN) is refused as it loads: one
    ``error:`` line naming the file, exit 2, no stage directory."""
    policies = tmp_path / "train"
    shutil.copytree(os.path.join(pipeline["out"], "train"), policies)
    path = policies / "policy_seed1.json"
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "runs"
    assert main(["--config", pipeline["config"], "--out", str(out), command,
                 "--data", os.path.join(pipeline["out"], "ingest"),
                 "--policies", str(policies)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and repr(str(path)) in line and message in line, line
    assert not (out / directory).exists()


def test_a_corrupt_factors_file_exits_2(pipeline, tmp_path, capsys):
    """Factors refused as ``factors.json`` loads (one not positive, none, one
    not a number) are a bad input file (exit 2, named, no ``train/``); a
    factor refused as ``ingest`` computes it from the triangle stays a
    numerical failure (exit 3, no ``ingest/``)."""
    ingest = tmp_path / "ingest"
    shutil.copytree(os.path.join(pipeline["out"], "ingest"), ingest)
    path = ingest / "factors.json"
    factors = json.loads(path.read_text())["factors"]
    out = tmp_path / "runs"
    for body, message in (
        ([factors[0], -1.0, *factors[2:]], "development factor f_2 must be positive, got -1.0"),
        ([], "no development factors"),
        ([factors[0], "x", *factors[2:]], "must be real number, not str"),
    ):
        path.write_text(json.dumps({"factors": body}))
        assert main(["--config", pipeline["config"], "--out", str(out), "train",
                     "--data", str(ingest)]) == 2
        assert capsys.readouterr().err == f"error: corrupt factors file {str(path)!r}: {message}\n"
    triangle = tmp_path / "zero_tail.csv"
    with open(pipeline["triangle"]) as handle:
        # the one year seen at lag 10 develops to zero, so f_9 = 0
        triangle.write_text(re.sub(r"^(\d+,10),[^,]*,[^,]*,", r"\1,0.0,0.0,", handle.read(),
                                   flags=re.M))
    assert main(["--config", pipeline["config"], "--out", str(out), "ingest",
                 "--triangle", str(triangle)]) == 3
    assert capsys.readouterr().err == "error: development factor f_9 must be positive, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "stress", "sensitivity"])
def test_a_horizon_the_factors_cannot_cover_is_refused_before_any_stage_directory(
        pipeline, tmp_path, capsys, command):
    """``[env] horizon = 12`` on the ten-lag book (nine factors) passes the
    config check, which knows no triangle; each stage that builds
    environments refuses it before it makes its directory."""
    config = tmp_path / "long.ini"
    config.write_text(PIPELINE_INI + "\n[env]\nhorizon = 12\n")
    out = tmp_path / "runs"
    assert main(["--config", str(config), "--out", str(out), command,
                 "--data", os.path.join(pipeline["out"], "ingest")]) == 1
    assert capsys.readouterr().err == "error: need at least 11 development factors, got 9\n"
    assert not out.exists()


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_unknown_flag_is_usage_error():
    assert main(["--bogus-flag", "report"]) == 1


def test_unknown_config_key_exits_1(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[env]\nnot_a_knob = 1\n")
    assert main(["--config", str(bad), "--print-config"]) == 1


@pytest.mark.parametrize("section, key, value", [
    ("baselines", "bootstrap_sims", "0"),
    ("baselines", "bootstrap_sims", "-5"),
    ("eval", "episodes", "-3"),
    ("eval", "episodes", "0"),
])
def test_non_positive_counts_exit_1_without_traceback(pipeline, tmp_path, section, key, value):
    """A count below 1 is refused as the INI loads, with one ``error:`` line."""
    config = tmp_path / "bad_count.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "reserve_rl.cli", "--config", str(config),
         "--out", str(tmp_path / "runs"), "evaluate",
         "--data", os.path.join(pipeline["out"], "ingest")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr == f"error: {key} must be >= 1, got {value}\n"


def test_missing_triangle_exits_2(tmp_path):
    out = str(tmp_path / "runs")
    assert main(["--out", out, "ingest", "--triangle", str(tmp_path / "nope.csv")]) == 2


def test_report_without_tables_exits_2(tmp_path):
    assert main(["--out", str(tmp_path / "runs"), "report"]) == 2


@pytest.mark.parametrize("argv, message", [
    pytest.param(["ingest", "--triangle", "BAD"], "BAD:1: expected header ", id="ingest"),
    pytest.param(["baselines", "--triangle", "BAD"], "BAD:1: expected header ", id="baselines"),
    pytest.param(["report"],
                 "no metric tables found to merge; run evaluate/stress/sensitivity first",
                 id="report"),
])
def test_refused_input_leaves_no_stage_directory(tmp_path, capsys, argv, message):
    """A command that refuses its input exits 2 with one ``error:`` line
    and makes nothing under ``--out``."""
    bad = tmp_path / "bad.csv"
    bad.write_text("year,lag,incurred\n2001,1,1.0\n")
    out = tmp_path / "runs"
    assert main(["--out", str(out)] + [str(bad) if a == "BAD" else a for a in argv]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: " + message.replace("BAD", str(bad))), line
    assert not out.exists()


def _files(directory):
    """Every file under ``directory``, as sorted paths relative to it."""
    return sorted(os.path.relpath(os.path.join(root, name), directory)
                  for root, _, names in os.walk(directory) for name in names)


def test_every_manifest_lists_exactly_its_stage_files(pipeline, tmp_path):
    """On a pipeline run with ``--traces`` and ``sensitivity``, each stage's
    manifest ``outputs`` are the files in its directory, its own aside, and
    its ``inputs`` are the files the command read."""
    out = tmp_path / "runs"
    for stage in ("ingest", "train"):
        shutil.copytree(os.path.join(pipeline["out"], stage), out / stage)
    base = ["--config", pipeline["config"], "--out", str(out)]
    assert main(base + ["evaluate", "--traces"]) == 0
    assert main(base + ["stress", "--traces"]) == 0
    assert main(base + ["baselines", "--triangle", pipeline["triangle"]]) == 0
    assert main(base + ["sensitivity"]) == 0
    assert main(base + ["report"]) == 0
    stages = sorted(os.listdir(out))
    assert stages == ["baselines", "eval", "ingest", "reports", "sensitivity", "stress", "train"]
    for stage in stages:
        with open(out / stage / "manifest.json") as handle:
            outputs = json.load(handle)["outputs"]
        assert outputs == [name for name in _files(out / stage) if name != "manifest.json"], stage
    assert len(_files(out / "eval" / "traces")) == 4 * 2
    assert len(_files(out / "stress" / "traces")) == 2
    ingest = ["factors.json", "test_triangle.csv", "train_triangle.csv"]
    scored = sorted(ingest + ["policy_seed1.json", "policy_seed2.json"])
    tables = [f"{stage}/{table}.{suffix}" for stage, table in (
        ("eval", "metrics"), ("sensitivity", "sensitivity"), ("stress", "stress_metrics"))
        for suffix in ("csv", "json")]
    assert {stage: sorted(_manifest(out / stage)["inputs"]) for stage in stages} == {
        "baselines": ["triangle"], "eval": scored, "ingest": ["triangle"], "reports": tables,
        "sensitivity": ingest, "stress": scored, "train": ingest}


def _manifest(directory):
    with open(os.path.join(directory, "manifest.json")) as handle:
        return json.load(handle)


def _contents(directory):
    """Every file under ``directory`` with its bytes, by relative path."""
    contents = {}
    for name in _files(directory):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


def test_a_rerun_leaves_no_stale_file(pipeline, tmp_path):
    """A re-run swaps in its stage directory whole: a plain ``evaluate``
    after a traced one leaves no ``traces/``, and ``train`` on seed 1 over
    a seeds-1,2 run leaves no ``policy_seed2.json``."""
    out = tmp_path / "runs"
    evaluate = ["--config", pipeline["config"], "--out", str(out), "evaluate",
                "--data", os.path.join(pipeline["out"], "ingest"),
                "--policies", os.path.join(pipeline["out"], "train")]
    assert main(evaluate + ["--traces"]) == 0
    assert len(_files(out / "eval" / "traces")) == 4 * 2
    assert main(evaluate) == 0
    assert _files(out / "eval") == ["manifest.json", "metrics.csv", "metrics.json"]
    shutil.copytree(os.path.join(pipeline["out"], "train"), out / "train")
    config = tmp_path / "one_seed.ini"
    config.write_text(PIPELINE_INI.replace("seeds = 1,2", "seeds = 1"))
    assert main(["--config", str(config), "--out", str(out), "train",
                 "--data", os.path.join(pipeline["out"], "ingest")]) == 0
    assert _files(out / "train") == ["manifest.json", "policy_seed1.json", "training_log.csv",
                                     "updates.csv"]
    assert _manifest(out / "train")["outputs"] == _files(out / "train")[1:]
    assert sorted(os.listdir(out)) == ["eval", "train"]


@pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["one_core", "two_cores"])
def test_a_failed_traced_evaluate_keeps_the_previous_run(pipeline, tmp_path, capsys, monkeypatch,
                                                         cores):
    """A traced ``evaluate`` refused mid-scoring, after the caller has
    written regime 0's traces (on two cores the forked child refuses
    level 1), exits 3 and leaves the previous ``eval/`` byte for byte, with
    no ``eval.partial`` or ``eval.old`` beside it."""
    config = tmp_path / "four.ini"
    config.write_text(PIPELINE_INI.replace("regimes = 0,1", "regimes = 0,1,2,3"))
    out = tmp_path / "runs"
    argv = ["--config", str(config), "--out", str(out), "evaluate",
            "--data", os.path.join(pipeline["out"], "ingest"),
            "--policies", os.path.join(pipeline["out"], "train")]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    assert main(argv) == 0
    before = _contents(out / "eval")
    factories = cli._factories

    def refusing(*args, **kwargs):
        train_factory, eval_factory = factories(*args, **kwargs)
        return train_factory, RefusingLevels(eval_factory, (1,))

    monkeypatch.setattr(cli, "_factories", refusing)
    capsys.readouterr()
    assert main(argv + ["--traces"]) == 3
    assert "error: level 1 refused" in capsys.readouterr().err
    assert_no_child_process()
    assert os.listdir(out) == ["eval"]
    assert _contents(out / "eval") == before


@pytest.mark.parametrize("command, directory", [("evaluate", "eval"), ("stress", "stress")])
def test_a_swapped_policy_file_changes_the_manifest_inputs(pipeline, tmp_path, command,
                                                           directory):
    """``evaluate`` and ``stress`` digest every policy file they load into
    their manifest's ``inputs``, so scoring another seed-2 policy changes
    that digest and no other."""
    policies = tmp_path / "train"
    shutil.copytree(os.path.join(pipeline["out"], "train"), policies)
    out = tmp_path / "runs"
    argv = ["--config", pipeline["config"], "--out", str(out), command,
            "--data", os.path.join(pipeline["out"], "ingest"), "--policies", str(policies)]
    assert main(argv) == 0
    before = _manifest(out / directory)["inputs"]
    path = policies / "policy_seed2.json"
    assert before["policy_seed2.json"] == git_blob_sha1(str(path))
    doc = json.loads(path.read_text())
    doc["policy"]["arrays"][0][0] += 0.5
    path.write_text(json.dumps(doc))
    assert main(argv) == 0
    after = _manifest(out / directory)["inputs"]
    assert after.pop("policy_seed2.json") == git_blob_sha1(str(path))
    assert before.pop("policy_seed2.json") != git_blob_sha1(str(path))
    assert after == before


def test_a_killed_runs_leftovers_go_with_the_next_run(pipeline, tmp_path, capsys):
    """A ``.partial`` or ``.old`` directory that a killed run left is
    cleared when its command next runs.  An ``.old`` standing in for the
    stage directory, left by a swap cut short, is the previous run: it
    moves back, even when the next run is refused."""
    out = tmp_path / "runs"
    shutil.copytree(os.path.join(pipeline["out"], "eval"), out / "eval")
    for leftover in ("eval.partial", "eval.old"):
        os.makedirs(out / leftover / "traces")
        (out / leftover / "metrics.csv").write_text("stale\n")
    base = ["--config", pipeline["config"], "--out", str(out)]
    data = ["--data", os.path.join(pipeline["out"], "ingest")]
    assert main(base + ["evaluate", "--policies", os.path.join(pipeline["out"], "train")]
                + data) == 0
    assert os.listdir(out) == ["eval"]
    assert _manifest(out / "eval")["outputs"] == ["metrics.csv", "metrics.json"]
    shutil.copytree(os.path.join(pipeline["out"], "stress"), out / "stress.old")
    previous = _contents(out / "stress.old")
    assert main(base + ["stress", "--policies", str(tmp_path / "none")] + data) == 2
    assert "error: missing trained policy" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["eval", "stress"]
    assert _contents(out / "stress") == previous


def test_report_refuses_a_table_made_under_another_config(pipeline, tmp_path, capsys):
    """``report`` merges only tables whose sidecar fingerprint is this
    run's config: an ``eval/metrics.csv`` made at ``episodes = 4`` is
    refused, by name, under ``episodes = 6``, and a table without its
    sidecar is refused too."""
    out = tmp_path / "runs"
    for stage in ("eval", "stress"):
        shutil.copytree(os.path.join(pipeline["out"], stage), out / stage)
    config = tmp_path / "six.ini"
    config.write_text(PIPELINE_INI.replace("episodes = 4", "episodes = 6"))
    assert main(["--config", str(config), "--out", str(out), "report"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    table = str(out / "eval" / "metrics.csv")
    fingerprints = [config_fingerprint(load_config(path)) for path in (pipeline["config"], config)]
    assert line == (f"error: {table!r} was made under config fingerprint {fingerprints[0]}, "
                    f"not this run's {fingerprints[1]}")
    assert sorted(os.listdir(out)) == ["eval", "stress"]
    assert main(["--config", pipeline["config"], "--out", str(out), "report"]) == 0
    os.remove(out / "stress" / "stress_metrics.json")
    assert main(["--config", pipeline["config"], "--out", str(out), "report"]) == 2
    table = str(out / "stress" / "stress_metrics.csv")
    assert capsys.readouterr().err.startswith(f"error: sidecar of {table!r} missing or unreadable")


def test_empty_seed_list_in_config_exits_1(pipeline, tmp_path):
    config = tmp_path / "no_seeds.ini"
    config.write_text(PIPELINE_INI.replace("seeds = 1,2", "seeds ="))
    out = tmp_path / "runs"
    code = main([
        "--config", str(config), "--out", str(out), "train",
        "--data", os.path.join(pipeline["out"], "ingest"),
    ])
    assert code == 1
    assert not (out / "train" / "training_log.csv").exists()
    assert not (out / "train").exists()


@pytest.mark.parametrize("key, value, message", [
    ("max_grad_norm", "-1", "max_grad_norm must be > 0 (inf disables clipping), got -1.0"),
    ("max_grad_norm", "0", "max_grad_norm must be > 0 (inf disables clipping), got 0.0"),
    ("clip_range", "-0.5", "clip_range must be > 0, got -0.5"),
    ("value_coef", "-1", "value_coef must be >= 0 and finite, got -1.0"),
])
def test_untrainable_ppo_values_exit_1(tmp_path, capsys, key, value, message):
    """Each value trains wrongly without a sign: a negative norm bound or
    clip range inverts the update, a zero bound freezes the weights, and a
    negative value weight trains the value head by ascent."""
    config = tmp_path / "ppo.ini"
    config.write_text(f"[ppo]\n{key} = {value}\n")
    assert main(["--config", str(config), "--print-config"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_repeated_seeds_in_config_exit_1(tmp_path, capsys):
    """A repeated seed would train once and count twice in ``n_seeds``."""
    config = tmp_path / "repeated_seeds.ini"
    config.write_text(PIPELINE_INI.replace("seeds = 1,2", "seeds = 2,1,2"))
    assert main(["--config", str(config), "--print-config"]) == 1
    assert "seeds repeat: 2" in capsys.readouterr().err


@pytest.mark.parametrize("alphas", ["0.9,0.9", "0.9999991,0.9999992"])
def test_sweep_alphas_sharing_a_label_exit_1(pipeline, tmp_path, alphas):
    """Sweep cells are keyed by label, so two levels that print alike
    would silently merge into one cell."""
    config = tmp_path / "repeated.ini"
    config.write_text(PIPELINE_INI.replace("sweep_alphas = 0.9", f"sweep_alphas = {alphas}"))
    out = tmp_path / "runs"
    code = main([
        "--config", str(config), "--out", str(out), "sensitivity",
        "--data", os.path.join(pipeline["out"], "ingest"),
    ])
    assert code == 1
    assert not (out / "sensitivity" / "sensitivity.csv").exists()


@pytest.mark.parametrize("command, key, values, label", [
    ("stress", "shocks", "1.0,1.0000001", "shock:1"),
    ("evaluate", "regimes", "0,0", "regime:0"),
])
def test_repeated_condition_labels_exit_1(pipeline, tmp_path, capsys, monkeypatch,
                                          command, key, values, label):
    """Rows, trace files and manifest entries are keyed by condition
    label, so two conditions that print alike are refused before any
    path is drawn or any table or trace written."""
    monkeypatch.setattr(ReserveEnv, "draw_paths", lambda *a, **k: pytest.fail("drew paths"))
    config = tmp_path / "repeated.ini"
    config.write_text(re.sub(rf"^{key} = .*$", f"{key} = {values}", PIPELINE_INI, flags=re.M))
    out = tmp_path / "runs"
    code = main([
        "--config", str(config), "--out", str(out), command, "--traces",
        "--data", os.path.join(pipeline["out"], "ingest"),
        "--policies", os.path.join(pipeline["out"], "train"),
    ])
    assert code == 1
    assert label in capsys.readouterr().err
    assert not list(out.rglob("*.csv"))


def test_missing_policies_exit_2(pipeline, tmp_path):
    code = main([
        "--config", pipeline["config"], "--out", str(tmp_path / "runs"),
        "evaluate",
        "--data", os.path.join(pipeline["out"], "ingest"),
        "--policies", str(tmp_path / "empty"),
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["evaluate", "stress"])
@pytest.mark.parametrize("body", [
    pytest.param('{"format": "reserve-rl-policy-v1", "seed": 1, "pol', id="not_json"),
    pytest.param('{"format": "reserve-rl-policy-v1", "seed": 1}', id="no_networks"),
])
def test_unreadable_policy_exits_2_without_traceback(pipeline, tmp_path, command, body):
    """A policy file that does not parse, or parses without its networks,
    is a data error naming the file, not a crash."""
    policies = tmp_path / "train"
    shutil.copytree(os.path.join(pipeline["out"], "train"), policies)
    (policies / "policy_seed1.json").write_text(body)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "reserve_rl.cli", "--config", pipeline["config"],
         "--out", str(tmp_path / "runs"), command,
         "--data", os.path.join(pipeline["out"], "ingest"), "--policies", str(policies)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: unreadable network file ")
    assert repr(str(policies / "policy_seed1.json")) in line


@pytest.mark.parametrize("command, key", [
    ("evaluate", "regimes"),
    ("stress", "shocks"),
    ("sensitivity", "sweep_alphas"),
    ("sensitivity", "regimes"),
])
def test_empty_eval_list_exits_1_before_any_work(tmp_path, capsys, monkeypatch, command, key):
    """An ``[eval]`` list the command runs over is refused, by name, before
    the ingest artifacts or policies are read or anything is trained."""
    monkeypatch.setattr(cli, "IngestArtifacts", lambda *a: pytest.fail("read the artifacts"))
    config = tmp_path / "empty.ini"
    config.write_text(re.sub(rf"^{key} = .*$", f"{key} =", PIPELINE_INI, flags=re.M))
    out = tmp_path / "runs"
    assert main(["--config", str(config), "--out", str(out), command]) == 1
    assert f"error: [eval] {key} is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, table", [
    ("evaluate", os.path.join("eval", "metrics.csv")),
    ("baselines", os.path.join("baselines", "reserves.csv")),
])
def test_failed_artifact_write_exits_2(pipeline, tmp_path, capsys, monkeypatch, stage, table):
    """A directory where a table should go fails the write: a data/IO
    error, exit code 2, whichever stage writes it, and the partial stage
    directory goes."""
    out = tmp_path / "runs"
    directory, name = os.path.split(table)
    stage_path = cli._Stage.path

    def blocked(self, output):
        path = stage_path(self, output)
        if output == name:
            os.makedirs(path)
        return path

    monkeypatch.setattr(cli._Stage, "path", blocked)
    inputs = {
        "evaluate": ["--data", os.path.join(pipeline["out"], "ingest"),
                     "--policies", os.path.join(pipeline["out"], "train")],
        "baselines": ["--triangle", pipeline["triangle"]],
    }[stage]
    assert main(["--config", pipeline["config"], "--out", str(out), stage] + inputs) == 2
    partial = out / f"{directory}.partial"
    assert f"cannot write {str(partial / name)!r}" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_ingest_artifacts_missing_dir_raises(tmp_path):
    with pytest.raises(DataError):
        IngestArtifacts(str(tmp_path / "void"), unrecorded)


def test_exit_code_mapping(monkeypatch):
    def raising(exc):
        def cmd(args, cfg, stage):
            raise exc
        return cmd, "reports"

    monkeypatch.setitem(cli._COMMANDS, "report", raising(NumericalError("boom")))
    assert main(["report"]) == 3
    monkeypatch.setitem(cli._COMMANDS, "report", raising(OSError("disk gone")))
    assert main(["report"]) == 2
    monkeypatch.setitem(cli._COMMANDS, "report", raising(ReserveRlError("generic")))
    assert main(["report"]) == 1
