"""End-to-end CLI pipeline on a small synthetic book, plus error mapping."""

import json
import os

import pytest

import reserve_rl.cli as cli
from reserve_rl.cli import IngestArtifacts, main
from reserve_rl.agent import PPOConfig, train_curriculum
from reserve_rl.config import config_to_ini, default_config
from reserve_rl.errors import DataError, NonFiniteGradient, NumericalError, ReserveRlError
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


def test_sensitivity_artifacts(pipeline):
    rows = _lines(os.path.join(pipeline["out"], "sensitivity", "sensitivity.csv"))
    # one sweep alpha x both floor forms
    assert len(rows) == 1 + 2
    labels = sorted(line.split(",")[2] for line in rows[1:])
    assert labels == ["alpha:0.9", "alpha:0.9"]
    floors = sorted(line.split(",")[3] for line in rows[1:])
    assert floors == ["floor:default", "floor:strict"]


def test_report_merges_everything(pipeline):
    merged = _lines(os.path.join(pipeline["out"], "reports", "combined_metrics.csv"))
    assert len(merged) == 1 + 8 + 2 + 2


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


def test_seed_list_override(pipeline, tmp_path):
    out = str(tmp_path / "runs")
    code = main([
        "--config", pipeline["config"], "--out", out, "--seed-list", "5",
        "train", "--data", os.path.join(pipeline["out"], "ingest"),
    ])
    assert code == 0
    assert os.path.exists(os.path.join(out, "train", "policy_seed5.json"))
    assert not os.path.exists(os.path.join(out, "train", "policy_seed1.json"))


def test_levels_override(pipeline, tmp_path):
    out = str(tmp_path / "runs")
    code = main([
        "--config", pipeline["config"], "--out", out, "--seed-list", "5",
        "train", "--data", os.path.join(pipeline["out"], "ingest"), "--levels", "1",
    ])
    assert code == 0
    rows = _lines(os.path.join(out, "train", "training_log.csv"))[1:]
    assert len(rows) == 8
    assert {row.split(",")[1] for row in rows} == {"1"}


def test_print_config(capsys):
    assert main(["--print-config"]) == 0
    assert capsys.readouterr().out == config_to_ini(default_config())


def _tree(directory):
    """File bytes under ``directory``; manifests without their timestamp."""
    files = {}
    for name in sorted(os.listdir(directory)):
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


def test_runs_where_the_os_has_no_affinity(monkeypatch, capsys):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(["--print-config"]) == 0
    assert cli._usable_cores() == (os.cpu_count() or 1)


def refusing_factory(mode, rng):
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    raise NonFiniteGradient(f"refused in process {os.getpid()}, BLAS threads {blas}")


def test_worker_error_keeps_type_and_exit_code(pipeline, tmp_path, monkeypatch):
    config = PPOConfig(batch_size=10, minibatch_size=5, hidden=(4,))
    schedule = CurriculumSchedule(levels=(0,), episodes_per_level=2, ramp_episodes=1)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    with pytest.raises(NonFiniteGradient, match="BLAS threads 1$") as raised:
        train_curriculum(refusing_factory, config, schedule, (1, 2), workers=2)
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


def test_missing_triangle_exits_2(tmp_path):
    out = str(tmp_path / "runs")
    assert main(["--out", out, "ingest", "--triangle", str(tmp_path / "nope.csv")]) == 2


def test_report_without_tables_exits_2(tmp_path):
    assert main(["--out", str(tmp_path / "runs"), "report"]) == 2


def test_bad_seed_list_exits_1(pipeline, tmp_path):
    code = main([
        "--config", pipeline["config"], "--out", str(tmp_path / "runs"),
        "--seed-list", "a,b", "train",
        "--data", os.path.join(pipeline["out"], "ingest"),
    ])
    assert code == 1


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


def test_missing_policies_exit_2(pipeline, tmp_path):
    code = main([
        "--config", pipeline["config"], "--out", str(tmp_path / "runs"),
        "evaluate",
        "--data", os.path.join(pipeline["out"], "ingest"),
        "--policies", str(tmp_path / "empty"),
    ])
    assert code == 2


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
