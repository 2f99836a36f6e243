"""Reserving environment: transition algebra, step order, and guards."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from conftest import triangle_from_arrays

from reserve_rl.env import (
    ACTION_GRID,
    DEFAULT_FLOOR,
    HOLD_ACTION,
    EnvConfig,
    EnvFactory,
    ReserveEnv,
    Trace,
    apply_action,
    compute_reward,
    develop_losses,
    solvency_floor,
    update_violation_memory,
    volatility_proxy,
)
from reserve_rl.errors import ConfigError, ReserveRlError
from reserve_rl.regimes import FixedShock, Stochastic
from reserve_rl.triangles import DevelopmentFactors
from scalar_oracle import TraceRecorder

GRID_FACTORS = DevelopmentFactors(factors=(1.10, 1.066))


def flat_triangle(initial: float = 1.0):
    """Three accident years all starting at the same lag-1 value, so a
    reset lands on a known initial position regardless of the draw."""
    v = initial
    return triangle_from_arrays(
        [[v, 1.1 * v, 1.17 * v], [v, 1.1 * v], [v]],
        premiums=[2 * v, 2 * v, 2 * v],
    )


#: The calm regime, the shock mode of every test that does not name one.
CALM = Stochastic(0)


def make_env(config: EnvConfig | None = None, initial: float = 1.0):
    cfg = config if config is not None else EnvConfig()
    return ReserveEnv(flat_triangle(initial), GRID_FACTORS, cfg)


def rng(seed: int = 0):
    return np.random.default_rng(seed)


def test_reset_seeds_episode_from_triangle():
    env = make_env()
    state = env.reset(rng(), CALM)
    assert state.reserve == state.loss == 1.0
    assert state.adequacy == 1.0
    assert state.volatility == 0.0
    assert state.violation_memory == 0.0
    assert state.t == 0
    assert env.premium == 2.0
    assert env.horizon == 3  # one period per factor plus one under horizon = auto


def test_action_grid_constants():
    assert ACTION_GRID == (-0.10, -0.066, -0.033, 0.0, 0.033, 0.066, 0.10)
    assert ACTION_GRID[HOLD_ACTION] == 0.0


def test_apply_action_floors_at_zero():
    assert apply_action(1.0, 0.10) == pytest.approx(1.10)
    assert apply_action(1.0, -0.10) == pytest.approx(0.90)
    assert apply_action(0.0, -0.10) == 0.0


def test_volatility_proxy_values():
    assert volatility_proxy([], 4, 0.5) == 0.0
    assert volatility_proxy([0.2], 4, 0.5) == 0.0  # one observation: no spread
    assert volatility_proxy([0.1, 0.3], 4, 0.5) == pytest.approx(0.2)
    # saturates at 1 once the window stddev exceeds the scale
    assert volatility_proxy([0.0, 2.0], 4, 0.5) == 1.0
    # only the trailing window contributes
    assert volatility_proxy([9.0, 0.1, 0.1, 0.1, 0.1], 4, 0.5) == 0.0


def test_violation_memory_update():
    assert update_violation_memory(0.0, True) == pytest.approx(0.05)
    assert update_violation_memory(0.5, False) == pytest.approx(0.475)


def test_solvency_floor_forms():
    assert solvency_floor(0.0, *DEFAULT_FLOOR) == pytest.approx(0.4)
    assert solvency_floor(1.0, *DEFAULT_FLOOR) == pytest.approx(0.6)
    assert solvency_floor(0.5, 0.5, 0.3) == pytest.approx(0.65)


def test_reward_decomposition_identity():
    env, env_rng = make_env(), rng(5)
    act_rng = np.random.default_rng(17)
    cfg = env.config
    for _ in range(8):
        env.reset(env_rng, CALM)
        done = False
        while not done:
            outcome = env.step(int(act_rng.integers(len(ACTION_GRID))))
            c = outcome.components
            expected = -(
                cfg.w_shortfall * c.shortfall
                + cfg.w_cvar * c.cvar
                + cfg.w_inefficiency * c.inefficiency
                + cfg.w_floor * (1.0 if c.violated else 0.0)
            )
            assert outcome.reward == pytest.approx(expected, abs=1e-12)
            assert outcome.state.adequacy == pytest.approx(
                1.0 - abs(outcome.state.reserve - outcome.state.loss), abs=1e-12
            )
            done = outcome.done


def test_forced_floor_breach_penalized():
    # start below the floor with V=0: any admissible action leaves the
    # post-action reserve under 0.4, so the breach penalty must fire
    env = make_env(initial=0.2)
    env.reset(rng(), CALM)
    outcome = env.step(HOLD_ACTION)
    assert outcome.components.floor == pytest.approx(0.4)
    assert outcome.components.violated
    c = outcome.components
    zero_floor = compute_reward(
        EnvConfig(w_floor=0.0), c.shortfall, c.cvar, c.inefficiency, c.violated
    )
    assert outcome.reward == pytest.approx(zero_floor - 10.0, abs=1e-12)


def test_violation_memory_closed_form():
    # an unreachable floor forces a breach every step: nu_t = 1 - 0.95^t
    env = make_env(EnvConfig(floor=(10.0, 0.0)))
    env.reset(rng(), CALM)
    for t in range(1, env.horizon + 1):
        outcome = env.step(HOLD_ACTION)
        assert outcome.components.violated
        assert outcome.state.violation_memory == pytest.approx(
            1.0 - 0.95**t, abs=1e-12
        )


def test_floor_checked_on_post_action_reserve():
    # pre-action reserve sits above the floor; stepping down crosses it
    env = make_env(initial=0.42)
    env.reset(rng(), CALM)
    outcome = env.step(0)  # -10% -> 0.378 < 0.4
    assert outcome.state.reserve == pytest.approx(0.378)
    assert outcome.components.violated
    env2 = make_env(initial=0.42)
    env2.reset(rng(), CALM)
    outcome2 = env2.step(HOLD_ACTION)  # 0.42 stays above 0.4
    assert not outcome2.components.violated


def test_noiseless_chain_ladder_reduction():
    env, env_rng = make_env(EnvConfig(noise_gain=0.0)), rng()
    for _ in range(4):
        state = env.reset(env_rng, FixedShock(1.0))
        path = state.loss * GRID_FACTORS.cumulative_profile(env.horizon + 1)
        for t in range(env.horizon):
            outcome = env.step(HOLD_ACTION)
            assert outcome.state.loss == pytest.approx(path[t + 1], abs=1e-12)
        assert outcome.done


def test_replaying_same_seed_aligns_streams():
    # the random stream is consumed identically per step, so two runs
    # with equal seeds see the same loss and shock paths even under
    # different action sequences (common random numbers)
    env_a, env_b = make_env(), make_env()
    sa = env_a.reset(rng(7), Stochastic(2))
    sb = env_b.reset(rng(7), Stochastic(2))
    assert sa.shock == sb.shock
    la, lb = [sa.loss], [sb.loss]
    done = False
    while not done:
        out_a = env_a.step(6)
        out_b = env_b.step(0)
        assert out_a.shock_applied == out_b.shock_applied
        la.append(out_a.state.loss)
        lb.append(out_b.state.loss)
        done = out_a.done
    np.testing.assert_allclose(la, lb, rtol=0, atol=0)


def test_action_guards():
    env = make_env()
    env.reset(rng(), CALM)
    with pytest.raises(ConfigError, match=f"index {len(ACTION_GRID)} outside grid"):
        env.step(len(ACTION_GRID))
    with pytest.raises(ConfigError, match="index -1 outside grid"):
        env.step(-1)
    with pytest.raises(ConfigError, match="must be an integer, got True"):
        env.step(True)
    with pytest.raises(ConfigError, match="must be an integer, got 2.0"):
        env.step(2.0)


def test_step_after_done_rejected():
    env = make_env()
    with pytest.raises(ReserveRlError, match=r"reset\(\) must be called") as before:
        env.step(HOLD_ACTION)  # before any reset
    env.reset(rng(), CALM)
    for _ in range(env.horizon):
        outcome = env.step(HOLD_ACTION)
    assert outcome.done
    with pytest.raises(ReserveRlError, match=r"reset\(\) must be called") as after:
        env.step(HOLD_ACTION)
    # a usage slip in no family: the CLI maps it to exit 1, not as a ConfigError
    assert before.type is after.type is ReserveRlError


def test_horizon_requires_factor_coverage():
    with pytest.raises(ConfigError, match="need at least 3 development factors, got 2"):
        make_env(EnvConfig(horizon=4))  # only two factors available
    env = make_env(EnvConfig(horizon=3))
    assert env.horizon == 3


def test_env_config_validation():
    with pytest.raises(ConfigError, match="horizon must be >= 2, got 1"):
        EnvConfig(horizon=1)
    with pytest.raises(ConfigError, match="vol_window must be >= 2, got 1"):
        EnvConfig(vol_window=1)
    with pytest.raises(ConfigError, match="vol_scale must be > 0, got 0.0"):
        EnvConfig(vol_scale=0.0)
    with pytest.raises(ConfigError, match="noise_gain must be >= 0, got -0.1"):
        EnvConfig(noise_gain=-0.1)
    with pytest.raises(ConfigError, match="floor base and slope must be >= 0"):
        EnvConfig(floor=(-0.4, 0.2))
    with pytest.raises(ConfigError, match=r"alpha must be in \(0, 1\), got 1.0"):
        EnvConfig(alpha=1.0)
    with pytest.raises(ConfigError, match="reward weight w_cvar must be >= 0"):
        EnvConfig(w_cvar=-1.0)


def test_alpha_override_and_adaptive():
    env = make_env(EnvConfig(alpha=0.93))
    env.reset(rng(), CALM)
    done = False
    while not done:
        outcome = env.step(HOLD_ACTION)
        assert outcome.components.alpha == 0.93
        done = outcome.done

    env = make_env()
    env.reset(rng(), CALM)
    done = False
    while not done:
        outcome = env.step(HOLD_ACTION)
        v = outcome.state.volatility
        assert outcome.components.alpha == pytest.approx(0.90 + 0.05 * min(1.0, v))
        done = outcome.done


def test_fixed_shock_mode_state():
    env = make_env()
    state = env.reset(rng(), FixedShock(1.5))
    assert state.level == 0
    assert state.shock == 1.5
    outcome = env.step(HOLD_ACTION)
    assert outcome.shock_applied == 1.5
    assert outcome.state.shock == 1.5


def test_draw_paths_and_reset_use_the_mode_they_are_given():
    """A factory's environment carries no shock mode: each call names its
    own, and nothing of one call's mode stays for the next."""
    env = EnvFactory(flat_triangle(), GRID_FACTORS, EnvConfig())()
    stream = rng()
    fixed = env.draw_paths(stream, FixedShock(1.5), 3)
    assert np.all(fixed.shock == 1.5) and fixed.level == 0
    assert env.draw_paths(stream, Stochastic(2), 3).level == 2
    assert env.reset(stream, Stochastic(2)).level == 2
    state = env.reset(stream, FixedShock(1.5))
    assert (state.level, state.shock) == (0, 1.5)
    assert env.step(HOLD_ACTION).state.shock == 1.5
    assert not np.any(env.draw_paths(stream, Stochastic(1), 3).shock == 1.5)


def test_draw_paths_leaves_the_environment_as_it_was():
    """Drawing reads the environment's configuration and nothing else: an
    episode in progress steps on, on its own generator, as if no draw
    were made."""
    env, other = make_env(), make_env()
    env.reset(rng(3), Stochastic(1))
    other.reset(rng(3), Stochastic(1))
    env.step(HOLD_ACTION)
    other.step(HOLD_ACTION)
    paths = env.draw_paths(rng(4), Stochastic(2), 5)
    assert (paths.n_episodes, paths.premium.tolist()) == (5, [2.0] * 5)
    assert env.step(HOLD_ACTION) == other.step(HOLD_ACTION)
    assert len(env.buffer) == 2


def test_rollout_refuses_paths_of_another_horizon():
    """Paths can come from outside the environment, so their horizon is checked."""
    paths = make_env().draw_paths(rng(), CALM, 2)  # three periods
    short = make_env(EnvConfig(horizon=2))
    with pytest.raises(ConfigError,
                       match="^paths span 3 periods, the environment's horizon is 2$"):
        short.rollout(paths, lambda state: np.full(2, HOLD_ACTION))
    assert len(short.buffer) == 0


def test_shock_applied_is_pre_step_shock():
    env = make_env()
    state = env.reset(rng(), Stochastic(1))
    pending = state.shock
    for _ in range(env.horizon):
        outcome = env.step(HOLD_ACTION)
        assert outcome.shock_applied == pending
        pending = outcome.state.shock


def test_buffer_persists_across_episodes():
    env, env_rng = make_env(), rng()
    env.reset(env_rng, CALM)
    for _ in range(env.horizon):
        env.step(HOLD_ACTION)
    assert len(env.buffer) == env.horizon
    env.reset(env_rng, CALM)
    env.step(HOLD_ACTION)
    assert len(env.buffer) == env.horizon + 1
    env.clear_buffer()
    assert len(env.buffer) == 0


def test_develop_losses_clamps_at_zero():
    class CrashRng:
        def normal(self, loc, scale):
            return -5.0

    assert develop_losses(1.0, 1.1, 1.0, 0.04, 1.0, CrashRng()) == 0.0


def test_trace_recorder_and_concat(tmp_path):
    env = make_env()
    rec = TraceRecorder()
    env.reset(rng(), CALM)
    for t in range(env.horizon):
        rec.record(0, t, env.step(HOLD_ACTION))
    trace = rec.build()
    assert trace.reserve.shape == (env.horizon,)
    merged = Trace.concat([trace, trace])
    assert merged.reserve.size == 2 * env.horizon
    with pytest.raises(ValueError):
        Trace.concat([])
    path = tmp_path / "trace.csv"
    merged.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * env.horizon
    assert lines[0].startswith("episode,t,")
    # every cell must be a plain decimal that round-trips, not a numpy repr
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * env.horizon
    assert float(rows[0]["L"]) == pytest.approx(float(merged.loss[0]), abs=0.0)
    assert all("(" not in value for row in rows for value in row.values())
