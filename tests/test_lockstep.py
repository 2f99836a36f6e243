"""Lockstep rollouts and the flat optimiser against their step-by-step
references.

Every evaluation rollout steps all episodes of a cell at once, and
training steps the episodes of each batch at once.  The scalar loops in
``scalar_oracle`` are the reference: on identically seeded environments
both must write the same trace, network and log bytes (a value
comparison would let -0.0 pass for 0.0) and leave the generators and
the shortfall buffer in the same state.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from reserve_rl.agent import (
    N_ACTIONS,
    OBS_DIM,
    AgentParams,
    Batch,
    PPOConfig,
    act_greedy,
    init_agent,
    ppo_loss_and_grads,
    train_curriculum,
    write_training_log,
)
from reserve_rl.baselines import (
    _chase_action,
    bootstrap_chain_ladder,
    bootstrap_targets,
    bornhuetter_ferguson_targets,
    chain_ladder_targets,
    classical_models,
    implied_loss_ratio,
    replay_static_policy,
)
from reserve_rl.env import ACTION_GRID, EnvConfig, EnvFactory, ReserveEnv, Trace, write_traces
from reserve_rl.errors import ConfigError
from reserve_rl.evaluate import (
    drawn_conditions,
    evaluate_models,
    greedy_model,
    regime_conditions,
    run_policy_episodes,
    stress_conditions,
)
from reserve_rl.nets import Adam, clip_global_norm, init_mlp, mlp_forward, save_networks
from reserve_rl.regimes import CurriculumSchedule, FixedShock, Stochastic
from scalar_oracle import (
    ListAdam,
    bootstrap_path,
    bornhuetter_ferguson_path,
    chain_ladder_path,
    chase_action,
    greedy_action,
    list_clip_global_norm,
    net_forward,
    net_ppo_loss_and_grads,
    rowwise_write_trace,
    scalar_policy_episodes,
    scalar_replay,
    scalar_train_curriculum,
)

EPISODES = 60
CONDITIONS = [Stochastic(0), Stochastic(1), Stochastic(2), Stochastic(3),
              FixedShock(0.8), FixedShock(2.0)]
CONFIGS = {
    "default": {},
    "noiseless": {"noise_gain": 0.0},
    "alpha_override": {"alpha": 0.97},
    "small_buffer": {"buffer_capacity": 64},
}


def perturbed_policy(seed: int = 7):
    """A random policy with steep hidden layers, so greedy actions vary."""
    return init_mlp((7, 64, 64, 7), np.random.default_rng(seed), final_gain=1.0, hidden_gain=10.0)


def drawn_policy_run(env: ReserveEnv, rng, mode, policy, episodes: int) -> Trace:
    """The greedy policy over ``episodes`` paths ``env`` draws from ``rng`` in ``mode``."""
    return run_policy_episodes(env, policy, episodes, env.draw_paths(rng, mode, episodes))


def drawn_replay(env: ReserveEnv, rng, mode, targets, episodes: int) -> Trace:
    """The targets replayed over ``episodes`` paths ``env`` draws from ``rng`` in ``mode``."""
    return replay_static_policy(env, targets, episodes, env.draw_paths(rng, mode, episodes))


def trace_bytes(trace: Trace, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    trace.write_csv(str(path))
    return path.read_bytes()


def buffer_bits(env: ReserveEnv) -> list[str]:
    return [x.hex() for x in env.buffer.as_array().tolist()]


def assert_same_run(make_env, lockstep, scalar, tmp_path) -> Trace:
    """Two halves per (env, generator) pair, so the second starts on a warm
    buffer (each half numbers its episodes from 0)."""
    (env_a, rng_a), (env_b, rng_b) = make_env(), make_env()
    half = EPISODES // 2
    traces_a = [lockstep(env_a, rng_a, half), lockstep(env_a, rng_a, half)]
    traces_b = [scalar(env_b, rng_b, half), scalar(env_b, rng_b, half)]
    a, b = Trace.concat(traces_a), Trace.concat(traces_b)
    assert trace_bytes(a, tmp_path, "a.csv") == trace_bytes(b, tmp_path, "b.csv")
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert buffer_bits(env_a) == buffer_bits(env_b)
    return a


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("mode", CONDITIONS, ids=repr)
def test_lockstep_matches_scalar(bundle, mode, config_name, tmp_path):
    cfg = EnvConfig(**CONFIGS[config_name])
    factors = bundle.factors

    def make_env():
        return ReserveEnv(bundle.train, factors, cfg), np.random.default_rng([5, 11])

    policy = perturbed_policy()
    trace = assert_same_run(
        make_env,
        lambda env, rng, n: drawn_policy_run(env, rng, mode, policy, n),
        lambda env, rng, n: scalar_policy_episodes(env, rng, mode, policy, n),
        tmp_path,
    )
    assert len(np.unique(trace.action)) > 1  # the greedy choice really varies
    if mode == Stochastic(3) and config_name != "noiseless":
        assert np.any(trace.loss == 0.0)  # the absorbing zero-loss state is reached

    elr = implied_loss_ratio(bundle.train, factors)
    boot = bootstrap_chain_ladder(bundle.train, 50, np.random.default_rng(3))
    methods = [
        (chain_ladder_targets(factors),
         lambda premium, loss, h: chain_ladder_path(factors, loss, h)),
        (bornhuetter_ferguson_targets(factors, elr),
         lambda premium, loss, h: bornhuetter_ferguson_path(factors, elr, premium, loss, h)),
        (bootstrap_targets(boot),
         lambda premium, loss, h: bootstrap_path(boot, loss, h)),
    ]
    for targets, builder in methods:
        assert_same_run(
            make_env,
            lambda env, rng, n: drawn_replay(env, rng, mode, targets, n),
            lambda env, rng, n: scalar_replay(env, rng, mode, builder, n),
            tmp_path,
        )


@pytest.mark.parametrize("mode", [Stochastic(0), Stochastic(3)], ids=repr)
def test_trace_writers_match_rowwise_oracle(bundle, mode, tmp_path):
    """One cell's four models, written as one group and one by one, give
    each trace the row-wise writer's bytes.  Under paired draws they
    share their loss, volatility and shock columns."""
    elr = implied_loss_ratio(bundle.train, bundle.factors)
    boot = bootstrap_chain_ladder(bundle.train, 50, np.random.default_rng(3))
    def env():
        return ReserveEnv(bundle.train, bundle.factors, EnvConfig())

    def rng():
        return np.random.default_rng(9)

    traces = [drawn_policy_run(env(), rng(), mode, perturbed_policy(), 40)] + [
        drawn_replay(env(), rng(), mode, targets, 40)
        for targets in (chain_ladder_targets(bundle.factors),
                        bornhuetter_ferguson_targets(bundle.factors, elr),
                        bootstrap_targets(boot))
    ]
    assert all(np.array_equal(t.loss, traces[0].loss) for t in traces)
    group = [str(tmp_path / f"group{i}.csv") for i in range(len(traces))]
    write_traces(group, [traces])
    for i, trace in enumerate(traces):
        rowwise_write_trace(trace, str(tmp_path / "oracle.csv"))
        expected = (tmp_path / "oracle.csv").read_bytes()
        assert (tmp_path / f"group{i}.csv").read_bytes() == expected
        assert trace_bytes(trace, tmp_path, "single.csv") == expected


def test_shared_draws_match_fresh_draws_per_model(bundle, tmp_path):
    """``evaluate_models`` draws each (condition, seed) cell's paths once
    and replays them for every model; each model's traces have the bytes
    of a fresh environment drawing for that model alone, for the greedy
    model and for all three classical models."""
    factors = bundle.factors
    elr = implied_loss_ratio(bundle.train, factors)
    boot = bootstrap_chain_ladder(bundle.train, 50, np.random.default_rng(3))
    seeds = (1, 2)
    policies = {seed: perturbed_policy(seed) for seed in seeds}
    targets = {
        "chain_ladder": chain_ladder_targets(factors),
        "bornhuetter_ferguson": bornhuetter_ferguson_targets(factors, elr),
        "bootstrap": bootstrap_targets(boot),
    }
    models = {"rl_cvar": greedy_model(policies), **classical_models(factors, elr, boot)}
    conditions = regime_conditions([0, 3]) + stress_conditions([2.0])
    make_env = EnvFactory(bundle.train, factors, EnvConfig())
    received = {}

    def sink(label, blocks):
        taken = list(blocks)
        received.update({(name, label): Trace.concat([block[name] for block in taken])
                         for name in models})

    evaluate_models(models, make_env, drawn_conditions(make_env, conditions, 30, 4), seeds,
                    traces=sink)
    for cond_idx, (label, (mode,)) in enumerate(conditions):
        for name in models:
            fresh = []
            for seed in seeds:
                env, rng = make_env(), np.random.default_rng([4, cond_idx, seed])
                run = (drawn_policy_run(env, rng, mode, policies[seed], 30) if name == "rl_cvar"
                       else drawn_replay(env, rng, mode, targets[name], 30))
                fresh.append(run)
            assert (trace_bytes(received[(name, label)], tmp_path, "shared.csv")
                    == trace_bytes(Trace.concat(fresh), tmp_path, "fresh.csv")), (name, label)


def test_greedy_batch_matches_rows():
    rng = np.random.default_rng(0)
    obs = rng.normal(0.0, 2.0, size=(300, 7))
    for policy in (perturbed_policy(1), perturbed_policy(2)):
        batched = act_greedy(policy, obs)
        assert batched.tolist() == [greedy_action(policy, row) for row in obs]
        assert [act_greedy(policy, row[None])[0] for row in obs] == batched.tolist()
    # duplicated output columns: near-ties too match the row-by-row choice
    near = perturbed_policy(3)
    near.weights[-1][:, 2] = near.weights[-1][:, 3] = near.weights[-1][:, 4]
    near.biases[-1][2:5] = 50.0
    assert act_greedy(near, obs).tolist() == [greedy_action(near, row) for row in obs]
    # a zero output layer ties exactly: the tie-break order decides
    exact = perturbed_policy(4)
    exact.weights[-1][:] = 0.0
    exact.biases[-1][:] = [0.0, 1.0, 2.0, 0.0, 2.0, 1.0, 0.0]
    assert act_greedy(exact, obs).tolist() == [2] * len(obs)  # -3.3% before +3.3%
    exact.biases[-1][3] = 2.0
    assert act_greedy(exact, obs).tolist() == [3] * len(obs)  # hold before either


def test_chase_action_vector_matches_scalar():
    rng = np.random.default_rng(4)
    reserve = np.concatenate([rng.uniform(0.0, 2.0, 500), [0.0, 0.0, 1.0, 1.0]])
    target = np.concatenate([
        reserve[:250] * (1.0 + rng.choice(ACTION_GRID, 250)),  # on-grid ties
        rng.uniform(0.0, 3.0, 250),
        [0.0, 1.0, 1.0 + 0.033 / 2, 1.0 - 0.033 / 2],
    ])
    expected = [chase_action(r, t) for r, t in zip(reserve.tolist(), target.tolist())]
    assert _chase_action(reserve, target).tolist() == expected


def test_rollout_rejects_bad_actions(bundle):
    env = ReserveEnv(bundle.train, bundle.factors, EnvConfig())
    paths = env.draw_paths(np.random.default_rng(0), Stochastic(0), 3)
    for bad in (np.array([0, 1]), np.array([0, 1, 7]), np.array([0, -1, 2]),
                np.array([0.0, 1.0, 2.0])):
        with pytest.raises(ConfigError, match=r"policy must return 3 action indices in \[0, "):
            env.rollout(paths, lambda state, bad=bad: bad)


# --- training ------------------------------------------------------------------

TRAIN_CASES = {
    # one batch per episode
    "batch1": ({"batch_size": 1}, {}),
    # a 4-step horizon: batches of two episodes, 8 transitions
    "batch7": ({"batch_size": 7}, {"horizon": 4}),
    "batch100_noiseless_raw_rewards": ({"batch_size": 100, "reward_norm": False},
                                       {"noise_gain": 0.0}),
    # larger than a level, so every batch is a level-boundary flush
    "batch2048_small_buffer": ({"batch_size": 2048}, {"buffer_capacity": 64}),
}


def test_flat_params_match_per_array_reference():
    rng = np.random.default_rng(8)
    policy = init_mlp((7, 64, 64, 7), rng, final_gain=1.0)
    value = init_mlp((7, 64, 64, 1), rng, final_gain=1.0)
    assert all(a.flags.c_contiguous for a in policy.layers() + value.layers())
    flat = AgentParams.empty_like(policy, value)
    for src, dst in zip(policy.layers() + value.layers(), flat.layers()):
        dst[...] = src
    reference_layers = policy.layers() + value.layers()
    assert [a.strides for a in flat.layers()] == [a.strides for a in reference_layers]
    for row in rng.normal(0.0, 2.0, size=(200, 7)):
        ours = mlp_forward(flat.stack, row[None])[0]
        expected = [net_forward(ref, row[None])[0] for ref in (policy, value)]
        assert [a.tobytes() for a in ours] == [b.tobytes() for b in expected]

    grads = AgentParams.empty_like(policy, value)
    squares = AgentParams.empty_like(policy, value)
    adam, list_adam = Adam(flat.vector, lr=0.01), ListAdam(reference_layers, lr=0.01)
    for _ in range(20):
        grads.vector[:] = rng.normal(size=grads.vector.size)
        reference = [np.array(g, order="C") for g in grads.layers()]
        total = clip_global_norm(grads.vector, squares.vector, squares.layers(), 0.5)
        assert total == list_clip_global_norm(reference, 0.5)
        assert [np.array(g, order="C").tobytes() for g in grads.layers()] == [
            g.tobytes() for g in reference
        ]
        adam.step(flat.vector, grads.vector)
        list_adam.step(reference_layers, reference)
    for ours, ref in zip(flat.layers(), reference_layers):
        assert ours.tobytes(order="A") == ref.tobytes(order="A")


@pytest.mark.parametrize("hidden", [(8,), (64, 64), (16, 32, 8)], ids=str)
def test_fused_step_matches_per_network_reference(hidden):
    """The stacked pass's loss, five statistics and every gradient array
    equal one forward and one backward pass per network, bit for bit, at
    minibatch sizes where numpy's matmul takes each of its paths."""
    rng = np.random.default_rng(sum(hidden))
    config = PPOConfig(hidden=hidden)
    for n in (1, 2, 7, 50, 256):
        agent = init_agent(rng, config)
        agent.vector += rng.normal(0.0, 0.3, size=agent.vector.size)  # leave init's zeros
        batch = Batch(
            obs=rng.normal(0.0, 2.0, size=(n, OBS_DIM)),
            actions=rng.integers(0, N_ACTIONS, size=n),
            old_logp=np.log(rng.uniform(0.05, 0.9, size=n)),
            advantages=rng.normal(size=n),
            returns=rng.normal(size=n),
            values=rng.normal(size=n),
        )
        ours = AgentParams.empty_like(agent.policy, agent.value)
        reference = AgentParams.empty_like(agent.policy, agent.value)
        loss, stats = ppo_loss_and_grads(agent, batch, config, ours)
        ref_loss, ref_stats = net_ppo_loss_and_grads(agent.policy, agent.value, batch,
                                                     config, reference)
        assert [v.hex() for v in (loss, *astuple(stats))] == [
            v.hex() for v in (ref_loss, *astuple(ref_stats))
        ], n
        assert [g.tobytes() for g in ours.layers()] == [g.tobytes() for g in reference.layers()]


def test_one_output_outer_product_plus_zero_is_matmul():
    """A one-output head's backward delta: ``a * b + 0.0`` is numpy's
    (n, 1) @ (1, m) bit for bit, signed zeros and subnormals included."""
    tiny = np.finfo(float).smallest_subnormal
    values = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-300, -1e-300, 1.5, -2.0, 1e-160])
    a = values[:, None]
    for b in (values[None, :], values[None, ::-1].copy(), -values[None, :]):
        assert (a * b + 0.0).tobytes() == (a @ b).tobytes()


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_training_matches_scalar(bundle, case, tmp_path, monkeypatch):
    ppo, env_kwargs = TRAIN_CASES[case]
    config = PPOConfig(hidden=(16, 16), epochs=2, minibatch_size=16, **ppo)
    schedule = CurriculumSchedule(levels=(0, 1, 2, 3), episodes_per_level=12, ramp_episodes=5)
    seeds = (3, 11)

    def run(train):
        envs, generators = [], []
        make_rng = np.random.default_rng

        def recording_rng(seed):
            generators.append(make_rng(seed))
            return generators[-1]

        def make_env():
            cfg = EnvConfig(**env_kwargs)
            envs.append(ReserveEnv(bundle.train, bundle.factors, cfg))
            return envs[-1]

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", recording_rng)
            result = train([(make_env, config, schedule, seed) for seed in seeds])
        return result, envs, generators

    def forbid_step(self, action):
        raise AssertionError("training stepped the scalar environment")

    with monkeypatch.context() as patch:
        patch.setattr(ReserveEnv, "step", forbid_step)
        result, envs, generators = run(train_curriculum)
    expected, expected_envs, expected_generators = run(scalar_train_curriculum)

    for i, seed in enumerate(seeds):
        paths = []
        for name, res in (("a", result), ("b", expected)):
            path = tmp_path / f"{name}{seed}.json"
            trained = res[i].agent
            save_networks(str(path), trained.policy, trained.value, "fp", seed)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
    logs = []
    for name, res in (("a", result), ("b", expected)):
        write_training_log(res, str(tmp_path / f"{name}.csv"))
        logs.append((tmp_path / f"{name}.csv").read_bytes())
    assert logs[0] == logs[1]
    assert sum(len(run.log) for run in result) == len(seeds) * 4 * 12
    assert [run.update_stats for run in result] == [run.update_stats for run in expected]
    assert len(generators) == len(expected_generators) == 4 * len(seeds)
    for ours, ref in zip(generators, expected_generators):
        assert ours.bit_generator.state == ref.bit_generator.state
    for ours, ref in zip(envs, expected_envs):
        assert buffer_bits(ours) == buffer_bits(ref)
