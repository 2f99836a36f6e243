"""Metric formulas, CRN pairing, and report emission."""

import json

import numpy as np
import pytest

from reserve_rl.baselines import bornhuetter_ferguson_runner, chain_ladder_runner
from reserve_rl.agent import PPOConfig, train_curriculum
from reserve_rl.config import FLOOR_FORMS
from reserve_rl.env import EnvConfig, EnvFactory, ReserveEnv, Trace
from reserve_rl.errors import (
    EmptyReport,
    IoFailure,
    NoEligibleSteps,
    TooFewSamples,
)
from reserve_rl.evaluate import (
    METRICS_HEADER,
    MIN_TAIL_SAMPLES,
    RAR_LOSS_EPS,
    EvalOutcome,
    MetricSet,
    MetricsRow,
    aggregate_metrics,
    compute_metrics,
    constant_runner,
    emit_report,
    evaluate_models,
    greedy_runner,
    pooled_regime_metrics,
    regime_conditions,
    sensitivity_sweep,
    stress_conditions,
)
from reserve_rl.regimes import CurriculumSchedule, Stochastic
from reserve_rl.risk import tail_estimate
from reserve_rl.triangles import DevelopmentFactors, triangle_from_arrays


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
    assert m.as_tuple() == (m.rar, m.cvar95, m.ces, m.rvr)


def test_compute_metrics_matches_risk_module():
    rng = np.random.default_rng(0)
    shortfall = rng.gamma(2.0, 1.0, size=40)
    trace = make_trace(40, reserve=np.ones(40), loss=np.ones(40), shortfall=shortfall)
    m = compute_metrics(trace)
    assert m.cvar95 == tail_estimate(shortfall, 0.95).cvar


def test_compute_metrics_no_eligible_steps():
    trace = make_trace(24, loss=np.full(24, RAR_LOSS_EPS / 2))
    with pytest.raises(NoEligibleSteps):
        compute_metrics(trace)


def test_compute_metrics_too_few_samples():
    n = MIN_TAIL_SAMPLES - 1
    trace = make_trace(n, reserve=np.ones(n), loss=np.ones(n))
    with pytest.raises(TooFewSamples):
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

    with pytest.raises(EmptyReport):
        aggregate_metrics("m", "syn", "c", [], n_episodes=1)


def test_metrics_row_csv_line():
    row = MetricsRow(
        model="m", lob="syn", condition="regime:0",
        rar=1.5, cvar95=0.25, ces=0.5, rvr=0.0,
        n_episodes=10, n_seeds=3,
        rar_sd=0.1, cvar95_sd=0.0, ces_sd=0.0, rvr_sd=0.0,
    )
    assert row.to_csv_line() == (
        "m,syn,regime:0,1.5,0.25,0.5,0.0,10,3,0.1,0.0,0.0,0.0"
    )
    assert len(row.to_csv_line().split(",")) == len(METRICS_HEADER.split(","))


def test_seed_medians():
    outcome = EvalOutcome()
    outcome.per_seed[("m", "c")] = [
        MetricSet(rar=1.0, cvar95=9.0, ces=0.1, rvr=0.0),
        MetricSet(rar=2.0, cvar95=7.0, ces=0.3, rvr=1.0),
        MetricSet(rar=9.0, cvar95=8.0, ces=0.2, rvr=0.0),
    ]
    med = outcome.seed_medians("m", "c")
    assert med == MetricSet(rar=2.0, cvar95=8.0, ces=0.2, rvr=0.0)


def test_condition_label_formats():
    regs = regime_conditions([0, 3])
    assert [label for label, _ in regs] == ["regime:0", "regime:3"]
    stress = stress_conditions([0.8, 1.0, 1.5, 2.0])
    assert [label for label, _ in stress] == [
        "shock:0.8", "shock:1", "shock:1.5", "shock:2"
    ]


FLAT_FACTORS = DevelopmentFactors(factors=(1.10, 1.066))


def flat_env_factory(mode, rng):
    tri = triangle_from_arrays(
        [[1.0, 1.1, 1.17], [1.0, 1.1], [1.0]],
        premiums=[2.0, 2.0, 2.0],
    )
    cfg = EnvConfig(horizon=3, shock_mode=mode)
    return ReserveEnv(tri, FLAT_FACTORS, cfg, rng)


def test_evaluate_models_pairs_random_draws():
    """Two different static models see bitwise-identical loss and shock
    streams in the same (condition, seed) cell."""
    models = {
        "cl": constant_runner(chain_ladder_runner(FLAT_FACTORS)),
        "bf": constant_runner(bornhuetter_ferguson_runner(FLAT_FACTORS, 0.9)),
    }
    outcome = evaluate_models(
        models,
        flat_env_factory,
        conditions=regime_conditions([0]),
        seeds=(0, 1),
        episodes=7,
        crn_base=42,
        keep_traces=True,
    )
    assert len(outcome.rows) == 2
    assert all(r.n_seeds == 2 and r.n_episodes == 7 for r in outcome.rows)
    cl = outcome.traces[("cl", "regime:0")]
    bf = outcome.traces[("bf", "regime:0")]
    np.testing.assert_array_equal(cl.loss, bf.loss)
    np.testing.assert_array_equal(cl.shock, bf.shock)
    # actions are free to differ even though the draws are shared
    assert cl.n_steps == bf.n_steps == 2 * 7 * 3


def test_evaluate_models_distinct_cells_use_distinct_draws():
    models = {"cl": constant_runner(chain_ladder_runner(FLAT_FACTORS))}
    outcome = evaluate_models(
        models,
        flat_env_factory,
        conditions=regime_conditions([1]),
        seeds=(0, 1),
        episodes=7,
        keep_traces=True,
    )
    trace = outcome.traces[("cl", "regime:1")]
    first, second = trace.loss[:21], trace.loss[21:]
    assert not np.array_equal(first, second)


def test_pooled_regime_metrics_matches_manual_pooling():
    runner = chain_ladder_runner(FLAT_FACTORS)
    pooled = pooled_regime_metrics(
        runner, flat_env_factory, levels=(0, 1), seed=5,
        episodes_per_level=4, crn_base=9,
    )
    traces = []
    for cond_idx, level in enumerate((0, 1)):
        env = flat_env_factory(Stochastic(level), np.random.default_rng([9, cond_idx, 5]))
        traces.append(runner(env, 4))
    manual = compute_metrics(Trace.concat(traces))
    assert pooled == manual


def test_sensitivity_sweep_workers_are_bitwise_serial():
    """All (cell, seed) trainings in one pool of two workers give the
    serial sweep's rows and per-seed metrics exactly."""
    tri = triangle_from_arrays([[1.0, 1.1, 1.17], [1.0, 1.1], [1.0]], premiums=[2.0] * 3)

    def cell_factories(alpha, floor):
        cfg = EnvConfig(horizon=3, alpha_override=alpha, floor_base=floor[0],
                        floor_slope=floor[1])
        return EnvFactory(tri, FLAT_FACTORS, cfg), EnvFactory(tri, FLAT_FACTORS, cfg)

    config = PPOConfig(batch_size=12, minibatch_size=6, epochs=1, hidden=(8,))
    schedule = CurriculumSchedule(levels=(0, 1), episodes_per_level=6, ramp_episodes=2)
    seeds = (3, 1)

    def sweep(workers):
        return sensitivity_sweep(
            cell_factories, config, schedule,
            alphas=[0.9, None],
            floors=FLOOR_FORMS,
            seeds=seeds,
            eval_levels=(0, 1),
            episodes_per_level=4,
            workers=workers,
        )

    serial, pooled = sweep(1), sweep(2)
    assert [row.condition for row in pooled.rows] == [
        "alpha:0.9,floor:default", "alpha:0.9,floor:strict",
        "alpha:adaptive,floor:default", "alpha:adaptive,floor:strict",
    ]
    assert pooled.rows == serial.rows
    assert pooled.per_seed == serial.per_seed
    # one cell on its own: its policies score the same
    train_factory, eval_factory = cell_factories(None, FLOOR_FORMS["strict"])
    trained = train_curriculum(train_factory, config, schedule, seeds)
    assert pooled.per_seed[("rl_cvar", "alpha:adaptive,floor:strict")] == [
        pooled_regime_metrics(greedy_runner(trained.policies[seed].policy), eval_factory,
                              (0, 1), seed, 4)
        for seed in seeds
    ]


def test_emit_report_round_trip(tmp_path):
    rows = [
        MetricsRow(
            model="m", lob="syn", condition="c",
            rar=1.25, cvar95=0.5, ces=0.75, rvr=0.0,
            n_episodes=4, n_seeds=2,
            rar_sd=0.0, cvar95_sd=0.0, ces_sd=0.0, rvr_sd=0.0,
        )
    ]
    csv_path = tmp_path / "metrics.csv"
    emit_report(rows, str(csv_path), sidecar={"fingerprint": "deadbeef"})
    lines = csv_path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 2

    sidecar = json.loads((tmp_path / "metrics.json").read_text())
    assert sidecar["n_rows"] == 1
    assert sidecar["columns"] == METRICS_HEADER.split(",")
    assert sidecar["fingerprint"] == "deadbeef"

    # emitting the same rows again must reproduce the bytes exactly
    before = csv_path.read_bytes()
    emit_report(rows, str(csv_path), sidecar={"fingerprint": "deadbeef"})
    assert csv_path.read_bytes() == before


def test_emit_report_rejects_empty_rows(tmp_path):
    with pytest.raises(EmptyReport):
        emit_report([], str(tmp_path / "metrics.csv"))


def test_emit_report_wraps_os_errors(tmp_path):
    rows = [
        MetricsRow(
            model="m", lob="syn", condition="c",
            rar=1.0, cvar95=0.0, ces=1.0, rvr=0.0,
            n_episodes=1, n_seeds=1,
            rar_sd=0.0, cvar95_sd=0.0, ces_sd=0.0, rvr_sd=0.0,
        )
    ]
    with pytest.raises(IoFailure):
        emit_report(rows, str(tmp_path / "no_such_dir" / "metrics.csv"))
