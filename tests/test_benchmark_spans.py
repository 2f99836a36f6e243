"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps named
call sites in the package.  ``Tracer.install`` looks each one up in its
owner's ``__dict__``, so a call site that moves or is renamed would crash
every traced run; this test fails first.  A call site that is still there
but no longer called through the wrapped name would read 0 calls, so a
one-seed pipeline is run under the tracer too.  And every stage of the
benchmark reads the INI that ``perfbench/run.py`` writes, so that file must
keep loading.  These tests read ``perfbench/`` and change nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import reserve_rl.cli as cli
from reserve_rl.config import load_config
from reserve_rl.synthetic import SyntheticSpec, make_synthetic_triangle
from reserve_rl.triangles import write_triangle_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_run():
    """``perfbench/run.py`` imports ``hostclock`` from its own directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("run")
    finally:
        sys.path.remove(str(PERFBENCH))


def _targets():
    return [(target, attr) for target, attr, _name, _note in _load("spans").TARGETS]


@pytest.mark.parametrize("target, attr", _targets(), ids=lambda part: part)
def test_span_target_resolves_as_install_does(target, attr):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = owner.__dict__[class_name]
    assert callable(owner.__dict__.get(attr)), f"{target} has no {attr} of its own"


TRACED_INI = """\
[run]
seeds = 1

[regimes]
levels = 0,1
episodes_per_level = 8
ramp_episodes = 2

[ppo]
batch_size = 40
minibatch_size = 20
epochs = 1
hidden = 8

[eval]
episodes = 4
regimes = 0,1
shocks = 1.0

[baselines]
bootstrap_sims = 50
"""

#: Spans that a pipeline run must reach; with one seed, training runs in
#: this process, so the training spans see it too.
CALLED_SPANS = (
    "evaluate.run_policy_episodes",
    "baselines.replay_static_policy",
    "agent.act_greedy",
    "evaluate.compute_metrics",
    "evaluate.evaluate_models",
    "baselines.bootstrap_chain_ladder",
    "agent.train_curriculum",
    "agent.ppo_update",
)


def test_spans_record_the_pipeline_calls(tmp_path, monkeypatch):
    # on one usable core every stage runs in this process, where the spans are
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    triangle = str(tmp_path / "triangle.csv")
    write_triangle_csv(make_synthetic_triangle(SyntheticSpec(), seed=0), triangle)
    config = tmp_path / "run.ini"
    config.write_text(TRACED_INI)
    base = ["--config", str(config), "--out", str(tmp_path / "runs")]
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        for stage in (["ingest", "--triangle", triangle], ["train"], ["evaluate", "--traces"],
                      ["stress"], ["baselines", "--triangle", triangle]):
            assert cli.main(base + stage) == 0, stage
    finally:
        tracer.uninstall()
    calls = {name: span["calls"] for name, span in tracer.summary().items()}
    assert {name: calls.get(name, 0) for name in CALLED_SPANS if not calls.get(name)} == {}
    # the episode counters read the replay functions' third argument
    seeds, episodes, regimes, shocks = 1, 4, 2, 1
    assert tracer.counters["baselines.replay_static_policy.episodes"] == 3 * regimes * episodes
    assert tracer.counters["evaluate.run_policy_episodes.episodes"] == (
        seeds * (regimes + shocks) * episodes
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(_load_run().WORKLOADS))
def test_benchmark_ini_loads(workload, seed, tmp_path):
    """The INI a workload's set-up writes (its seeded values, ``[run] seed``
    among them, plus the workload's own keys) loads, and holds those values."""
    run = _load_run()
    wl = run.WORKLOADS[workload]
    work = run.set_up(wl, seed, str(tmp_path / "work"), SimpleNamespace(stage=lambda *_: None))
    cfg = load_config(work.config)
    sections, seeds = run.seeded_ini(seed)
    for name, values in wl.ini.items():
        sections[name] = {**sections.get(name, {}), **values}
    assert cfg.run.seeds == work.seeds == seeds
    for name, values in sections.items():
        for key, value in values.items():
            if key != "seeds":
                assert getattr(getattr(cfg, name), key) == value, (name, key)
