"""Metric formulas, CRN pairing, and metrics reports."""

import collections
import json
import logging
import multiprocessing
import os
import re
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import seed_medians, triangle_from_arrays

import reserve_rl.baselines as baselines_module
from reserve_rl.baselines import (
    bornhuetter_ferguson_targets,
    chain_ladder_targets,
    replay_static_policy,
    static_model,
)
from reserve_rl.agent import PPOConfig, train_curriculum
import reserve_rl.cli as cli
from reserve_rl.artifacts import field_values, git_blob_sha1, write_records
import reserve_rl.evaluate as evaluate_module
from reserve_rl.config import FLOOR_FORMS, RunConfig, config_fingerprint
from reserve_rl.env import EnvConfig, EnvFactory, ReserveEnv, Trace
from reserve_rl.errors import ConfigError, DataError, ReserveRlError
from reserve_rl.parallel import map_split, process_count
from reserve_rl.evaluate import (
    MIN_TAIL_SAMPLES,
    RAR_LOSS_EPS,
    EvalOutcome,
    MetricSet,
    MetricsRow,
    aggregate_metrics,
    compute_metrics,
    drawn_conditions,
    evaluate_models,
    greedy_model,
    regime_conditions,
    run_policy_episodes,
    sensitivity_sweep,
    stress_conditions,
)
from reserve_rl.nets import init_mlp
from reserve_rl.regimes import CurriculumSchedule, Stochastic
from reserve_rl.risk import tail_estimate
from reserve_rl.triangles import DevelopmentFactors


def make_trace(
    n,
    reserve=None,
    loss=None,
    shortfall=None,
    violated=None,
):
    """Trace with hand-set headline columns; bookkeeping columns are inert."""
    zeros = np.zeros(n)
    return Trace(
        episode=np.zeros(n, dtype=int),
        t=np.arange(n),
        reserve=zeros.copy() if reserve is None else np.asarray(reserve, dtype=float),
        loss=zeros.copy() if loss is None else np.asarray(loss, dtype=float),
        volatility=zeros.copy(),
        adequacy=zeros.copy(),
        violation_memory=zeros.copy(),
        shock=np.ones(n),
        level=np.zeros(n, dtype=int),
        action=zeros.copy(),
        reward=zeros.copy(),
        shortfall=zeros.copy() if shortfall is None else np.asarray(shortfall, dtype=float),
        cvar=zeros.copy(),
        violated=zeros.copy() if violated is None else np.asarray(violated, dtype=float),
    )


def test_compute_metrics_hand_values():
    n = 24
    loss = np.full(n, 2.0)
    loss[:4] = 0.001                      # below the eligibility floor
    reserve = np.full(n, 3.0)
    reserve[:4] = 0.5
    shortfall = np.arange(n, dtype=float)
    violated = np.zeros(n)
    violated[:6] = 1.0
    m = compute_metrics(make_trace(n, reserve, loss, shortfall, violated))
    # only the 20 eligible steps enter the adequacy ratio
    assert m.rar == pytest.approx(1.5, abs=1e-12)
    # 95% tail of 0..23: rank 23 -> threshold 22, tail mean (22+23)/2
    assert m.cvar95 == pytest.approx(22.5, abs=1e-12)
    # inefficiency averages over *all* steps
    expected_ces = 1.0 - (20 * 1.0 + 4 * 0.499) / 24
    assert m.ces == pytest.approx(expected_ces, abs=1e-12)
    assert m.rvr == pytest.approx(6 / 24, abs=1e-15)
    # aggregate_metrics and seed_medians read the metrics in this order
    assert field_values(MetricSet)(m) == (m.rar, m.cvar95, m.ces, m.rvr)


def test_compute_metrics_matches_risk_module():
    rng = np.random.default_rng(0)
    shortfall = rng.gamma(2.0, 1.0, size=40)
    trace = make_trace(40, reserve=np.ones(40), loss=np.ones(40), shortfall=shortfall)
    m = compute_metrics(trace)
    assert m.cvar95 == tail_estimate(shortfall, 0.95).cvar


def test_compute_metrics_no_eligible_steps():
    trace = make_trace(24, loss=np.full(24, RAR_LOSS_EPS / 2))
    with pytest.raises(DataError, match="no steps with loss >= .* out of 24"):
        compute_metrics(trace)


def test_compute_metrics_too_few_samples():
    n = MIN_TAIL_SAMPLES - 1
    trace = make_trace(n, reserve=np.ones(n), loss=np.ones(n))
    with pytest.raises(DataError, match=f"{n} shortfall samples < required {MIN_TAIL_SAMPLES}"):
        compute_metrics(trace)


def test_aggregate_metrics_mean_and_sd():
    sets = [
        MetricSet(rar=1.0, cvar95=0.5, ces=0.2, rvr=0.0),
        MetricSet(rar=3.0, cvar95=0.7, ces=0.4, rvr=0.1),
    ]
    row = aggregate_metrics("m", "syn", "c", sets, n_episodes=10)
    assert row.rar == pytest.approx(2.0)
    assert row.rar_sd == pytest.approx(np.sqrt(2.0))
    assert row.cvar95 == pytest.approx(0.6)
    assert row.n_episodes == 10 and row.n_seeds == 2

    single = aggregate_metrics("m", "syn", "c", sets[:1], n_episodes=1)
    assert single.rar_sd == 0.0 and single.rvr_sd == 0.0

    with pytest.raises(DataError, match="no per-seed metrics for m/c"):
        aggregate_metrics("m", "syn", "c", [], n_episodes=1)


def test_metrics_row_csv_line(tmp_path):
    row = MetricsRow(
        model="m", lob="syn", condition="regime:0",
        rar=1.5, cvar95=0.25, ces=0.5, rvr=0.0,
        n_episodes=10, n_seeds=3,
        rar_sd=0.1, cvar95_sd=0.0, ces_sd=0.0, rvr_sd=0.0,
    )
    path = tmp_path / "metrics.csv"
    write_records(str(path), MetricsRow, [row])
    line = path.read_text().splitlines()[1]
    assert line == "m,syn,regime:0,1.5,0.25,0.5,0.0,10,3,0.1,0.0,0.0,0.0"
    assert len(line.split(",")) == 13


def test_seed_medians():
    outcome = EvalOutcome()
    outcome.per_seed[("m", "c")] = [
        MetricSet(rar=1.0, cvar95=9.0, ces=0.1, rvr=0.0),
        MetricSet(rar=2.0, cvar95=7.0, ces=0.3, rvr=1.0),
        MetricSet(rar=9.0, cvar95=8.0, ces=0.2, rvr=0.0),
    ]
    med = seed_medians(outcome, "m", "c")
    assert med == MetricSet(rar=2.0, cvar95=8.0, ces=0.2, rvr=0.0)


def test_condition_label_formats():
    regs = regime_conditions([0, 3])
    assert [label for label, _ in regs] == ["regime:0", "regime:3"]
    stress = stress_conditions([0.8, 1.0, 1.5, 2.0])
    assert [label for label, _ in stress] == [
        "shock:0.8", "shock:1", "shock:1.5", "shock:2"
    ]


FLAT_FACTORS = DevelopmentFactors(factors=(1.10, 1.066))


FLAT_TRIANGLE = triangle_from_arrays([[1.0, 1.1, 1.17], [1.0, 1.1], [1.0]], premiums=[2.0] * 3)

flat_env_factory = EnvFactory(FLAT_TRIANGLE, FLAT_FACTORS, EnvConfig(horizon=3))


def drawn(conditions, episodes=7, crn_base=0):
    """``conditions`` with the paths ``flat_env_factory`` draws for them."""
    return drawn_conditions(flat_env_factory, conditions, episodes, crn_base)


def drawn_replay(env, rng, mode, targets, episodes):
    """The targets replayed over ``episodes`` paths ``env`` draws from ``rng`` in ``mode``."""
    return replay_static_policy(env, targets, episodes, env.draw_paths(rng, mode, episodes))


def recording_sink(received):
    """A sink storing, under ``(model, label)``, each model's blocks
    concatenated in the order the sink takes them (seed order)."""
    def sink(label, blocks):
        taken = collections.defaultdict(list)
        for block in blocks:
            for name, trace in block.items():
                taken[name].append(trace)
        received.update({(name, label): Trace.concat(seq) for name, seq in taken.items()})

    return sink


def test_run_policy_episodes_refuses_an_episode_count_off_the_paths():
    env = flat_env_factory()
    policy = init_mlp((7, 8, 7), np.random.default_rng(2), final_gain=1.0)
    with pytest.raises(ConfigError, match="^episodes is 6 but the paths hold 7$"):
        run_policy_episodes(env, policy, 6, env.draw_paths(np.random.default_rng(0),
                                                             Stochastic(0), 7))


def test_evaluate_models_pairs_random_draws():
    """Two different static models see bitwise-identical loss and shock
    streams in the same (condition, seed) cell."""
    models = {
        "cl": static_model(chain_ladder_targets(FLAT_FACTORS)),
        "bf": static_model(bornhuetter_ferguson_targets(FLAT_FACTORS, 0.9)),
    }
    traces = {}
    outcome = evaluate_models(
        models,
        flat_env_factory,
        conditions=drawn(regime_conditions([0]), crn_base=42),
        seeds=(0, 1),
        traces=recording_sink(traces),
    )
    assert len(outcome.rows) == 2
    assert all(r.n_seeds == 2 and r.n_episodes == 7 for r in outcome.rows)
    cl = traces[("cl", "regime:0")]
    bf = traces[("bf", "regime:0")]
    np.testing.assert_array_equal(cl.loss, bf.loss)
    np.testing.assert_array_equal(cl.shock, bf.shock)
    # actions are free to differ even though the draws are shared
    assert cl.n_steps == bf.n_steps == 2 * 7 * 3


def test_sink_takes_one_seed_at_a_time():
    """Four models, two seeds: the sink takes one block per seed, the
    seed's models having run just before, and holding one seed's rows of
    every model; evaluation keeps no block once the sink drops it.  Taken
    in order and concatenated, the blocks are each model's per-condition
    trace (its replays of fresh draws, seed after seed) bit for bit."""
    seeds = (0, 1)
    policy = init_mlp((7, 8, 7), np.random.default_rng(2), final_gain=1.0)
    targets_of = {
        "cl": chain_ladder_targets(FLAT_FACTORS),
        "bf": bornhuetter_ferguson_targets(FLAT_FACTORS, 0.9),
        "bf_low": bornhuetter_ferguson_targets(FLAT_FACTORS, 0.6),
    }
    calls = []

    def counted(model):
        def run(env, seed, paths):
            calls.append(seed)
            return model(env, seed, paths)
        return run

    models = {"rl": counted(greedy_model({seed: policy for seed in seeds})),
              **{name: counted(static_model(targets)) for name, targets in targets_of.items()}}
    received = collections.defaultdict(list)

    def sink(label, blocks):
        alive, before = [], len(calls)
        for k, block in enumerate(blocks):
            assert [ref() for ref in alive] == [None] * len(alive)
            assert calls[before:] == [seed for seed in seeds[:k + 1] for _ in models]
            assert list(block) == list(models)
            assert all(trace.n_steps == 7 * 3 for trace in block.values())
            for name in block:
                received[(name, label)].append(Trace.concat([block[name]]))  # a copy
            alive = [weakref.ref(trace) for trace in block.values()]

    evaluate_models(models, flat_env_factory, drawn(regime_conditions([0, 2]), crn_base=42),
                    seeds, traces=sink)
    for cond_idx, level in enumerate((0, 2)):
        for name in models:
            fresh = []
            for seed in seeds:
                env, rng = flat_env_factory(), np.random.default_rng([42, cond_idx, seed])
                paths = env.draw_paths(rng, Stochastic(level), 7)
                fresh.append(run_policy_episodes(env, policy, 7, paths) if name == "rl"
                             else replay_static_policy(env, targets_of[name], 7, paths))
            expected = Trace.concat(fresh)
            got = Trace.concat(received[(name, f"regime:{level}")])
            for column, values in vars(expected).items():
                assert getattr(got, column).dtype == values.dtype
                assert getattr(got, column).tobytes() == values.tobytes(), (name, level, column)


def test_evaluate_models_distinct_cells_use_distinct_draws():
    models = {"cl": static_model(chain_ladder_targets(FLAT_FACTORS))}
    traces = {}
    evaluate_models(
        models,
        flat_env_factory,
        conditions=drawn(regime_conditions([1])),
        seeds=(0, 1),
        traces=recording_sink(traces),
    )
    trace = traces[("cl", "regime:1")]
    first, second = trace.loss[:21], trace.loss[21:]
    assert not np.array_equal(first, second)


def test_evaluate_models_draws_each_cell_once(monkeypatch):
    """One ``draw_paths`` call per (condition, seed) cell, however many
    models replay it."""
    draws = []
    draw_paths = ReserveEnv.draw_paths

    def counted(self, rng, mode, episodes, *args, **kwargs):
        draws.append(episodes)
        return draw_paths(self, rng, mode, episodes, *args, **kwargs)

    monkeypatch.setattr(ReserveEnv, "draw_paths", counted)
    seeds = (0, 1)
    policy = init_mlp((7, 8, 7), np.random.default_rng(2), final_gain=1.0)
    models = {
        "rl": greedy_model({seed: policy for seed in seeds}),
        "cl": static_model(chain_ladder_targets(FLAT_FACTORS)),
        "bf": static_model(bornhuetter_ferguson_targets(FLAT_FACTORS, 0.9)),
    }
    conditions = regime_conditions([0, 2]) + stress_conditions([1.5])
    outcome = evaluate_models(models, flat_env_factory, drawn(conditions), seeds)
    assert draws == [7] * len(conditions) * len(seeds)
    assert len(outcome.rows) == len(conditions) * len(models)


def test_evaluate_models_logs_one_timing_line(caplog):
    """One INFO line per call: (condition, model, seed) cells, episodes,
    wall seconds and episodes per second."""
    models = {
        "cl": static_model(chain_ladder_targets(FLAT_FACTORS)),
        "bf": static_model(bornhuetter_ferguson_targets(FLAT_FACTORS, 0.9)),
    }
    with caplog.at_level(logging.INFO, logger="reserve_rl.evaluate"):
        evaluate_models(models, flat_env_factory, drawn(regime_conditions([0, 1])),
                        seeds=(0, 1, 2))
    timings = [r.getMessage() for r in caplog.records if "episodes/s" in r.getMessage()]
    assert len(timings) == 1
    assert re.fullmatch(
        r"evaluated 12 cells, 84 episodes in \d+\.\d\d s \(\d+ episodes/s\)",
        timings[0],
    )


def test_evaluate_models_streams_traces_per_condition(caplog, monkeypatch):
    """The sink gets each condition's traces, every model's seeds in seed
    order, before the next condition runs: it is called before the
    condition's models run, and each seed's models run as it takes that
    seed's block.  The timing line covers the sink's time too (a sink that
    takes 1000 s on a stub clock)."""
    clock = [0.0]

    def tick():
        clock[0] += 0.001
        return clock[0]

    monkeypatch.setattr(evaluate_module, "time", SimpleNamespace(perf_counter=tick))
    events = []
    targets_of = {
        "cl": chain_ladder_targets(FLAT_FACTORS),
        "bf": bornhuetter_ferguson_targets(FLAT_FACTORS, 0.9),
    }
    models = {name: static_model(targets) for name, targets in targets_of.items()}
    names = {targets: name for name, targets in targets_of.items()}

    def logged(env, targets, episodes, paths):
        events.append(names[targets])
        return replay_static_policy(env, targets, episodes, paths)

    monkeypatch.setattr(baselines_module, "replay_static_policy", logged)
    received = {}

    def sink(label, blocks):
        events.append(label)
        taken = [dict(block) for block in blocks]
        received[label] = {name: Trace.concat([block[name] for block in taken])
                           for name in taken[0]}
        clock[0] += 1000.0

    with caplog.at_level(logging.INFO, logger="reserve_rl.evaluate"):
        evaluate_models(models, flat_env_factory, drawn(regime_conditions([0, 1]), crn_base=3),
                        seeds=(0, 1), traces=sink)
    assert events == ["regime:0", "cl", "bf", "cl", "bf", "regime:1", "cl", "bf", "cl", "bf"]
    for cond_idx, label in enumerate(["regime:0", "regime:1"]):
        assert list(received[label]) == ["cl", "bf"]
        expected = Trace.concat([
            drawn_replay(flat_env_factory(), np.random.default_rng([3, cond_idx, seed]),
                         Stochastic(cond_idx), targets_of["cl"], 7)
            for seed in (0, 1)
        ])
        assert received[label]["cl"].reserve.tobytes() == expected.reserve.tobytes()
    timing = [r.getMessage() for r in caplog.records if "episodes/s" in r.getMessage()]
    assert len(timing) == 1
    assert 2000.0 <= float(re.search(r"in (\d+\.\d\d) s", timing[0]).group(1)) < 2001.0


def test_evaluate_models_pools_a_condition_over_its_modes(caplog):
    """A pooled condition scores each seed on its per-mode replays in mode
    order, and modes are counted across conditions for the draw seeds:
    the pooled condition's two levels take indices 0 and 1, the next
    condition's one mode index 2."""
    targets = chain_ladder_targets(FLAT_FACTORS)
    seeds = (5, 6)
    conditions = [("pooled", [Stochastic(0), Stochastic(1)])] + regime_conditions([3])
    with caplog.at_level(logging.INFO, logger="reserve_rl.evaluate"):
        outcome = evaluate_models({"cl": static_model(targets)}, flat_env_factory,
                                  drawn(conditions, crn_base=9), seeds)

    def manual(levels, first_idx):
        per_seed = []
        for seed in seeds:
            traces = [
                drawn_replay(flat_env_factory(), np.random.default_rng([9, idx, seed]),
                             Stochastic(level), targets, 7)
                for idx, level in enumerate(levels, first_idx)
            ]
            per_seed.append(compute_metrics(Trace.concat(traces)))
        return per_seed

    assert outcome.per_seed[("cl", "pooled")] == manual((0, 1), 0)
    assert outcome.per_seed[("cl", "regime:3")] == manual((3,), 2)
    assert [row.n_episodes for row in outcome.rows] == [14, 7]
    timing = [r.getMessage() for r in caplog.records if "episodes/s" in r.getMessage()]
    assert timing[0].startswith("evaluated 4 cells, 42 episodes in ")


def test_evaluate_models_workers_are_bitwise_serial(tmp_path):
    """Conditions dealt to two and three processes, a pooled two-mode
    condition among them, give the serial rows, per-seed metrics and
    trace bytes; the sink runs where its condition ran, so it writes files."""
    seeds = (0, 1)
    policy = init_mlp((7, 8, 7), np.random.default_rng(2), final_gain=1.0)
    models = {
        "rl": greedy_model({seed: policy for seed in seeds}),
        "cl": static_model(chain_ladder_targets(FLAT_FACTORS)),
    }
    conditions = ([("pooled", [Stochastic(0), Stochastic(2)])] + regime_conditions([1, 3])
                  + stress_conditions([1.5]))

    def run(workers):
        directory = tmp_path / f"workers{workers}"
        directory.mkdir()

        def sink(label, blocks):
            received = {}
            recording_sink(received)(label, blocks)
            for (name, _), trace in received.items():
                trace.write_csv(str(directory / f"{name}__{label}.csv"))

        outcome = evaluate_models(models, flat_env_factory, drawn(conditions, crn_base=5), seeds,
                                  traces=sink, workers=workers)
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        return outcome, files

    serial, serial_files = run(1)
    assert len(serial_files) == len(conditions) * len(models)
    for workers in (2, 3):
        split, split_files = run(workers)
        assert split.rows == serial.rows
        assert list(split.per_seed.items()) == list(serial.per_seed.items())
        assert split_files == serial_files
        with pytest.raises(ChildProcessError):  # every child was joined
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)


@pytest.mark.parametrize("n, workers, processes", [
    (3, 2, 3), (4, 2, 2), (5, 2, 3), (20, 2, 2), (5, 4, 5), (6, 3, 3),
    (1, 2, 1), (2, 1, 1), (3, 3, 3),
])
def test_process_count_keeps_every_core_busy_with_the_fewest_processes(n, workers, processes):
    assert process_count(n, workers) == processes


def test_process_count_never_exceeds_the_items_or_twice_the_cores():
    """No process holds more than one core's fair share of items, and no
    fewer processes would do; the count stays within ``min(n, 2c - 1)``."""
    for n in range(1, 65):
        for workers in range(1, 65):
            p = process_count(n, workers)
            cores = min(n, workers)
            assert 1 <= p <= min(n, 2 * cores - 1)
            assert -(-n // p) * cores <= n
            assert p == 1 or -(-n // (p - 1)) * cores > n


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the split forks its workers")
def test_map_split_runs_three_items_on_two_cores_in_three_processes():
    """Three items on two cores take one process each, the caller running
    item 0, and come back in item order."""
    results = map_split(lambda i: (i, os.getpid()), 3, 2)
    assert [i for i, _ in results] == [0, 1, 2]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the split forks its workers")
def test_map_split_reports_a_worker_that_exits_without_its_result():
    """A child that exits before sending an item fails the split with the
    exit code and the item; it and the child still running are joined."""
    def run(i):
        if i == 1:
            os._exit(7)
        return i

    with pytest.raises(ReserveRlError,
                       match=r"^worker exited with code 7 before returning item 1$"):
        map_split(run, 6, 3)
    with pytest.raises(ChildProcessError):  # every child was joined
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the split forks its workers")
def test_map_split_children_run_their_share_before_the_caller_reads(tmp_path):
    """A child runs its whole share while the caller is still busy with its
    own: results far larger than a pipe's buffer wait in the child until
    the caller reads them, so they never stall the child mid-share."""
    last_done = tmp_path / "child-ran-item-3"
    big = bytes(1 << 20)

    def run(i):
        if i == 0:  # the caller's first item waits for the child's last
            deadline = time.monotonic() + 10
            while not last_done.exists():
                assert time.monotonic() < deadline, "the child stalled mid-share"
                time.sleep(0.01)
        if i == 3:
            last_done.touch()
        return big

    assert map_split(run, 4, 2) == [big] * 4


def test_evaluate_models_is_serial_where_fork_is_not_offered(monkeypatch):
    """Without ``fork`` every condition runs in the caller, so a sink that
    keeps traces in memory sees them all."""
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    received = []
    evaluate_models({"cl": static_model(chain_ladder_targets(FLAT_FACTORS))}, flat_env_factory,
                    drawn(regime_conditions([0, 1, 2])), (0,), workers=2,
                    traces=lambda label, traces: received.append(label))
    assert received == ["regime:0", "regime:1", "regime:2"]


def test_drawn_conditions_rejects_a_condition_without_modes():
    """A condition pooling no shock modes is refused, by label, before any draw."""
    def no_env():
        raise AssertionError("an environment was built before the refusal")

    with pytest.raises(ConfigError, match="conditions pool no shock modes: x$"):
        drawn_conditions(no_env, [("regime:0", (Stochastic(0),)), ("x", ())], 7, 0)


def test_evaluate_models_rejects_no_workers():
    def no_paths(seed):
        raise AssertionError("paths were asked for before the refusal")

    with pytest.raises(ConfigError, match="workers"):
        evaluate_models({"cl": static_model(chain_ladder_targets(FLAT_FACTORS))}, flat_env_factory,
                        [("regime:0", no_paths)], (0,), workers=0)


def cell_factories(alpha, floor):
    """A sensitivity cell's (training, evaluation) factories on the flat book."""
    cfg = EnvConfig(horizon=3, alpha=alpha, floor=floor)
    factory = EnvFactory(FLAT_TRIANGLE, FLAT_FACTORS, cfg)
    return factory, factory


def test_sensitivity_sweep_workers_are_bitwise_serial():
    """All (cell, seed) trainings in one pool of two workers give the
    serial sweep's rows and per-seed metrics exactly."""
    cells = {
        f"alpha:{alpha_label};floor:{floor_name}": cell_factories(alpha, floor)
        for alpha_label, alpha in (("0.9", 0.9), ("adaptive", None))
        for floor_name, floor in FLOOR_FORMS.items()
    }

    config = PPOConfig(batch_size=12, minibatch_size=6, epochs=1, hidden=(8,))
    schedule = CurriculumSchedule(levels=(0, 1), episodes_per_level=6, ramp_episodes=2)
    seeds = (3, 1)
    [(_, paths)] = drawn([("sweep", [Stochastic(0), Stochastic(1)])], episodes=4)

    def sweep(workers):
        return sensitivity_sweep(cells, config, schedule, seeds, paths, "synthetic", workers)

    serial, pooled = sweep(1), sweep(2)
    assert [row.condition for row in pooled.rows] == [
        "alpha:0.9;floor:default", "alpha:0.9;floor:strict",
        "alpha:adaptive;floor:default", "alpha:adaptive;floor:strict",
    ]
    assert pooled.rows == serial.rows
    assert pooled.per_seed == serial.per_seed
    # one cell on its own: its policies score the same
    train_factory, eval_factory = cell_factories(None, FLOOR_FORMS["strict"])
    trained = train_curriculum([(train_factory, config, schedule, seed) for seed in seeds])
    policies = {run.seed: run.agent.policy for run in trained}
    alone = evaluate_models(
        {"rl_cvar": greedy_model(policies)}, eval_factory,
        drawn_conditions(eval_factory, [("cell", [Stochastic(0), Stochastic(1)])], 4, 0), seeds,
    )
    assert pooled.per_seed[("rl_cvar", "alpha:adaptive;floor:strict")] == \
        alone.per_seed[("rl_cvar", "cell")]


def test_sensitivity_cells_replay_one_shared_draw(monkeypatch):
    """A default-grid sweep (three alphas x two floor forms, four levels,
    three seeds) makes one evaluation draw per (level, seed), 12 in all,
    not one more per cell; each cell's rows are the ones that cell scores
    on its own, drawing from its own evaluation factory."""
    draw_paths = ReserveEnv.draw_paths
    training, trained, evaluation_draws = [], [], []

    def counted(self, rng, mode, episodes, *args, **kwargs):
        paths = draw_paths(self, rng, mode, episodes, *args, **kwargs)
        if not training:
            evaluation_draws.append(paths.loss.tobytes())
        return paths

    def training_run(jobs, workers):
        training.append(True)
        try:
            trained.extend(train_curriculum(jobs, workers))
        finally:
            training.clear()
        return trained

    monkeypatch.setattr(ReserveEnv, "draw_paths", counted)
    monkeypatch.setattr(evaluate_module, "train_curriculum", training_run)
    cells = {
        f"alpha:{alpha:g};floor:{floor_name}": cell_factories(alpha, floor)
        for alpha in (0.90, 0.95, 0.99)
        for floor_name, floor in FLOOR_FORMS.items()
    }
    modes = [Stochastic(level) for level in (0, 1, 2, 3)]
    seeds = (1, 2, 3)
    config = PPOConfig(batch_size=12, minibatch_size=6, epochs=1, hidden=(8,))
    schedule = CurriculumSchedule(levels=(0, 1), episodes_per_level=4, ramp_episodes=2)
    [(_, paths)] = drawn([("sweep", modes)], episodes=4, crn_base=2)
    sweep = sensitivity_sweep(cells, config, schedule, seeds, paths, "synthetic", 1)
    assert len(evaluation_draws) == len(set(evaluation_draws)) == len(modes) * len(seeds) == 12

    assert len(trained) == len(cells) * len(seeds)
    for c, (label, (_, eval_factory)) in enumerate(cells.items()):
        runs = trained[c * len(seeds):(c + 1) * len(seeds)]
        policies = {run.seed: run.agent.policy for run in runs}
        alone = evaluate_models({"rl_cvar": greedy_model(policies)}, eval_factory,
                                drawn_conditions(eval_factory, [(label, modes)], 4, 2), seeds)
        assert [row for row in sweep.rows if row.condition == label] == alone.rows
        assert sweep.per_seed[("rl_cvar", label)] == alone.per_seed[("rl_cvar", label)]


def _reporting_stage(tmp_path):
    """An ``evaluate`` stage under ``tmp_path`` that has read three
    stand-in ingest files."""
    stage = cli._Stage("evaluate", str(tmp_path / "eval"))
    for name in cli._INGEST_INPUTS:
        (tmp_path / name).write_text(name)
        stage.read(name, str(tmp_path / name))
    return stage


def test_report_round_trip(tmp_path, capsys):
    rows = [
        MetricsRow(
            model="m", lob="syn", condition="c",
            rar=1.25, cvar95=0.5, ces=0.75, rvr=0.0,
            n_episodes=4, n_seeds=2,
            rar_sd=0.0, cvar95_sd=0.0, ces_sd=0.0, rvr_sd=0.0,
        )
    ]
    cfg = RunConfig()
    stage = _reporting_stage(tmp_path)
    cli._report(stage, "metrics", EvalOutcome(rows=rows), cfg)
    assert stage.names == ["metrics.csv", "metrics.json"]
    csv_path = tmp_path / "eval.partial" / "metrics.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "model,lob,condition,rar,cvar95,ces,rvr,n_episodes,n_seeds,rar_sd,cvar95_sd,ces_sd,rvr_sd"
    assert len(lines) == 2
    assert capsys.readouterr().out.startswith("evaluate: m ")

    sidecar = json.loads((tmp_path / "eval.partial" / "metrics.json").read_text())
    assert sidecar == {
        "config_fingerprint": config_fingerprint(cfg),
        "seeds": [1, 2, 3],
        "inputs": {name: git_blob_sha1(str(tmp_path / name)) for name in cli._INGEST_INPUTS},
        "n_rows": 1,
        "columns": lines[0].split(","),
    }

    # reporting the same rows again must reproduce the bytes exactly
    before = csv_path.read_bytes()
    cli._report(_reporting_stage(tmp_path), "metrics", EvalOutcome(rows=rows), cfg)
    assert csv_path.read_bytes() == before


def test_report_rejects_empty_rows(tmp_path):
    with pytest.raises(DataError, match="metrics report with zero rows"):
        cli._report(_reporting_stage(tmp_path), "metrics", EvalOutcome(), RunConfig())
    assert not (tmp_path / "eval.partial").exists()


def test_metrics_table_write_wraps_os_errors(tmp_path):
    rows = [
        MetricsRow(
            model="m", lob="syn", condition="c",
            rar=1.0, cvar95=0.0, ces=1.0, rvr=0.0,
            n_episodes=1, n_seeds=1,
            rar_sd=0.0, cvar95_sd=0.0, ces_sd=0.0, rvr_sd=0.0,
        )
    ]
    with pytest.raises(DataError, match="cannot write .*no_such_dir"):
        write_records(str(tmp_path / "no_such_dir" / "metrics.csv"), MetricsRow, rows)
