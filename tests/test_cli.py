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
from reserve_rl.cli import IngestArtifacts, main
from reserve_rl.agent import PPOConfig, train_curriculum
from reserve_rl.config import config_to_ini, default_config, load_config
from reserve_rl.env import ReserveEnv
from reserve_rl.errors import DataError, NumericalError, ReserveRlError
from reserve_rl.evaluate import evaluate_models, regime_conditions
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

    data = IngestArtifacts(ingest)
    assert data.horizon == 10
    assert data.train.n_accident_years == 8
    assert data.test.n_accident_years == 2


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
    assert capsys.readouterr().out == config_to_ini(default_config())


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
    """Evaluation factory refusing the regime levels in ``levels``, naming
    the level and the process."""

    def __init__(self, factory, levels):
        self.factory, self.levels = factory, levels

    def __call__(self, mode, rng):
        if getattr(mode, "level", None) in self.levels:
            raise NumericalError(f"level {mode.level} refused in process {os.getpid()}")
        return self.factory(mode, rng)


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
    _, eval_factory = refusing(IngestArtifacts(os.path.join(pipeline["out"], "ingest")), cfg)
    policies = cli._load_policies(os.path.join(pipeline["out"], "train"), (1, 2), cfg)
    with pytest.raises(NumericalError, match=rf"^level {raised} refused") as err:
        evaluate_models({"rl_cvar": policies}, eval_factory, regime_conditions([0, 1, 2, 3]),
                        (1, 2), 4, workers=2)
    # raised where that level was evaluated: the caller for level 0, else the child
    assert (f"process {os.getpid()}" in str(err.value)) == (raised == 0)
    assert_no_child_process()


def test_runs_where_the_os_has_no_affinity(monkeypatch, capsys):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(["--print-config"]) == 0
    assert cli._usable_cores() == (os.cpu_count() or 1)


def refusing_factory(mode, rng):
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    raise NumericalError(f"refused in process {os.getpid()}, BLAS threads {blas}")


def test_worker_error_keeps_type_and_exit_code(pipeline, tmp_path, monkeypatch):
    config = PPOConfig(batch_size=10, minibatch_size=5, hidden=(4,))
    schedule = CurriculumSchedule(levels=(0,), episodes_per_level=2, ramp_episodes=1)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    with pytest.raises(NumericalError, match="BLAS threads 1$") as raised:
        train_curriculum([(refusing_factory, config, schedule, seed) for seed in (1, 2)],
                         workers=2)
    assert f"process {os.getpid()}," not in str(raised.value)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    monkeypatch.setattr(cli, "_factories", lambda *a, **k: (refusing_factory, refusing_factory))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["--config", pipeline["config"], "--out", str(tmp_path / "runs"), "train",
                 "--data", os.path.join(pipeline["out"], "ingest")]) == 3


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
def test_failed_artifact_write_exits_2(pipeline, tmp_path, capsys, stage, table):
    """A directory where a table should go fails the write: a data/IO
    error, exit code 2, whichever stage writes it."""
    out = tmp_path / "runs"
    os.makedirs(out / table)
    inputs = {
        "evaluate": ["--data", os.path.join(pipeline["out"], "ingest"),
                     "--policies", os.path.join(pipeline["out"], "train")],
        "baselines": ["--triangle", pipeline["triangle"]],
    }[stage]
    assert main(["--config", pipeline["config"], "--out", str(out), stage] + inputs) == 2
    assert f"cannot write {str(out / table)!r}" in capsys.readouterr().err


def test_ingest_artifacts_missing_dir_raises(tmp_path):
    with pytest.raises(DataError):
        IngestArtifacts(str(tmp_path / "void"))


def test_exit_code_mapping(monkeypatch):
    def raising(exc):
        def cmd(args, cfg):
            raise exc
        return cmd

    monkeypatch.setitem(cli._COMMANDS, "report", raising(NumericalError("boom")))
    assert main(["report"]) == 3
    monkeypatch.setitem(cli._COMMANDS, "report", raising(OSError("disk gone")))
    assert main(["report"]) == 2
    monkeypatch.setitem(cli._COMMANDS, "report", raising(ReserveRlError("generic")))
    assert main(["report"]) == 1
