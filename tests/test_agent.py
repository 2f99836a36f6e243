"""PPO agent: observation mapping, GAE, normalizers, updates, training."""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from conftest import triangle_from_arrays

from reserve_rl import agent as agent_module
from reserve_rl import parallel
from reserve_rl.agent import (
    N_ACTIONS,
    OBS_DIM,
    AgentParams,
    Batch,
    PPOConfig,
    RunningReturnNormalizer,
    act_greedy,
    act_sample,
    compute_gae,
    init_agent,
    observe,
    ppo_loss_and_grads,
    ppo_update,
    train_curriculum,
    write_training_log,
    write_update_log,
)
from reserve_rl.env import HOLD_ACTION, EnvConfig, EnvFactory, EnvState, ReserveEnv
from reserve_rl.errors import ConfigError, NumericalError
from reserve_rl.nets import Adam, init_mlp, log_softmax
from reserve_rl.regimes import CurriculumSchedule
from reserve_rl.triangles import DevelopmentFactors


def test_observe_layout():
    state = EnvState(
        reserve=1.2,
        loss=0.9,
        volatility=0.3,
        adequacy=0.7,
        violation_memory=0.05,
        shock=1.5,
        level=3,
        t=4,
    )
    obs = observe(state)
    assert obs.shape == (OBS_DIM,)
    np.testing.assert_allclose(obs, [1.2, 0.9, 0.3, 0.7, 0.05, 1.5, 1.0])


def test_gae_frozen_values():
    adv, ret = compute_gae(
        rewards=np.array([1.0, 1.0]),
        values=np.array([0.0, 0.0]),
        dones=np.array([0.0, 1.0]),
        discount=0.99,
        gae_lambda=0.95,
    )
    np.testing.assert_allclose(adv, [1.9405, 1.0], atol=1e-12)
    np.testing.assert_allclose(ret, adv, atol=1e-12)


def test_gae_with_value_bootstrap():
    adv, ret = compute_gae(
        rewards=np.array([1.0, 2.0]),
        values=np.array([0.5, 0.25]),
        dones=np.array([0.0, 1.0]),
        discount=0.5,
        gae_lambda=0.5,
    )
    # delta_1 = 2 - 0.25; delta_0 = 1 + 0.5*0.25 - 0.5
    np.testing.assert_allclose(adv, [0.625 + 0.25 * 1.75, 1.75], atol=1e-12)
    np.testing.assert_allclose(ret, adv + [0.5, 0.25], atol=1e-12)


def test_gae_does_not_leak_across_episodes():
    adv, _ = compute_gae(
        rewards=np.array([1.0, 1.0]),
        values=np.array([0.0, 0.0]),
        dones=np.array([1.0, 1.0]),
        discount=0.99,
        gae_lambda=0.95,
    )
    np.testing.assert_allclose(adv, [1.0, 1.0], atol=1e-15)


def test_gae_input_guards():
    with pytest.raises(ConfigError, match="lengths differ: 3/2/3"):
        compute_gae(np.ones(3), np.ones(2), np.zeros(3), 0.99, 0.95)
    with pytest.raises(ConfigError, match="GAE on an empty rollout"):
        compute_gae(np.ones(0), np.ones(0), np.zeros(0), 0.99, 0.95)


def test_greedy_tie_break_prefers_hold():
    rng = np.random.default_rng(0)
    policy = init_mlp((OBS_DIM, 8, N_ACTIONS), rng, final_gain=0.0)
    # all-zero logits: every action equally likely, greedy must hold
    assert act_greedy(policy, np.zeros((1, OBS_DIM))).tolist() == [HOLD_ACTION]


def test_act_sample_matches_distribution():
    rng = np.random.default_rng(1)
    policy = init_mlp((OBS_DIM, 8, N_ACTIONS), rng, final_gain=0.0)
    obs = np.zeros((7000, OBS_DIM))
    draws, logps = act_sample(policy, obs, rng.random(7000))
    freqs = np.bincount(draws, minlength=N_ACTIONS) / draws.size
    np.testing.assert_allclose(freqs, 1.0 / N_ACTIONS, atol=0.02)
    expected = log_softmax(np.zeros((1, N_ACTIONS)))[0, draws]
    np.testing.assert_allclose(logps, expected, rtol=0.0, atol=1e-12)


def test_return_normalizer_passthrough_when_disabled():
    norm = RunningReturnNormalizer(discount=0.99, enabled=False)
    for r in (-3.0, 0.0, 12.5):
        assert norm.normalize(r, done=False) == r


def test_return_normalizer_is_scale_free():
    a = RunningReturnNormalizer(discount=0.99)
    b = RunningReturnNormalizer(discount=0.99)
    rng = np.random.default_rng(2)
    rewards = rng.normal(size=600)
    outs_a, outs_b = [], []
    for i, r in enumerate(rewards):
        done = (i + 1) % 10 == 0
        outs_a.append(a.normalize(float(r), done))
        outs_b.append(b.normalize(float(100.0 * r), done))
    # after burn-in the scaled stream normalizes to the same values
    assert np.allclose(outs_a[-50:], outs_b[-50:], rtol=0.05, atol=1e-3)


def test_return_normalizer_resets_accumulator_on_done():
    norm = RunningReturnNormalizer(discount=0.9)
    norm.normalize(5.0, done=True)
    assert norm._ret == 0.0


def test_ppo_config_validation():
    with pytest.raises(ConfigError, match="batch_size and minibatch_size") as batch:
        PPOConfig(batch_size=0)
    with pytest.raises(ConfigError, match="batch_size and minibatch_size"):
        PPOConfig(minibatch_size=0)
    with pytest.raises(ConfigError, match="discount and gae_lambda") as discount:
        PPOConfig(discount=1.5)
    with pytest.raises(ConfigError, match="discount and gae_lambda"):
        PPOConfig(gae_lambda=-0.1)
    # the family itself is raised, so the CLI maps both to exit code 1
    assert batch.type is ConfigError
    assert discount.type is ConfigError
    with pytest.raises(ConfigError, match="max_grad_norm must be > 0"):
        PPOConfig(max_grad_norm=float("nan"))
    with pytest.raises(ConfigError, match="value_coef must be >= 0 and finite"):
        PPOConfig(value_coef=float("inf"))
    assert PPOConfig(max_grad_norm=float("inf"), value_coef=0.0).max_grad_norm == float("inf")


def make_batch(rng, n=16):
    return Batch(
        obs=rng.normal(size=(n, OBS_DIM)),
        actions=rng.integers(0, N_ACTIONS, size=n),
        old_logp=np.log(rng.uniform(0.05, 0.9, size=n)),
        advantages=rng.normal(size=n),
        returns=rng.normal(size=n),
        values=rng.normal(size=n),
    )


def test_ppo_update_runs_and_mutates_params():
    rng = np.random.default_rng(3)
    config = PPOConfig(batch_size=16, minibatch_size=8, hidden=(8, 8))
    agent = init_agent(rng, config)
    before = [a.copy() for a in agent.policy.layers()]
    batch = make_batch(rng)
    adam = Adam(agent.vector, lr=config.learning_rate)
    stats = ppo_update(agent, batch, config, adam, rng)
    assert np.isfinite(stats.policy_loss)
    assert np.isfinite(stats.value_loss)
    assert stats.entropy > 0.0
    assert stats.grad_norm >= 0.0
    assert 0.0 <= stats.clip_fraction <= 1.0
    changed = any(
        not np.array_equal(a, b) for a, b in zip(before, agent.policy.layers())
    )
    assert changed


def test_ppo_update_returns_mean_of_minibatch_stats(monkeypatch):
    rng = np.random.default_rng(6)
    config = PPOConfig(batch_size=24, minibatch_size=10, epochs=3, hidden=(8,))
    agent = init_agent(rng, config)
    seen = []
    loss_and_grads = agent_module.ppo_loss_and_grads

    def recording(*args):
        loss, stats = loss_and_grads(*args)
        seen.append(stats)  # grad_norm is filled in after this returns
        return loss, stats

    monkeypatch.setattr(agent_module, "ppo_loss_and_grads", recording)
    adam = Adam(agent.vector, lr=config.learning_rate)
    stats = ppo_update(agent, make_batch(rng, n=24), config, adam, rng)
    assert len(seen) == 9  # 3 epochs x minibatches of 10, 10 and 4
    assert len({s.grad_norm for s in seen}) == 9
    for name in ("policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl",
                 "grad_norm"):
        assert getattr(stats, name) == np.mean([getattr(s, name) for s in seen]), name


def test_loss_mean_is_ndarray_mean_bitwise():
    """The loss statistics' mean is ``ndarray.mean``'s arithmetic, also past
    the lengths where numpy's pairwise summation changes the order."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 8, 9, 50, 127, 128, 129, 256, 1000, 2049):
        x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n)
        assert agent_module._mean(x).hex() == float(x.mean()).hex()
        flags = x > 0.3
        assert agent_module._mean(flags).hex() == float(flags.mean()).hex()


def test_ppo_loss_empty_minibatch_rejected():
    rng = np.random.default_rng(4)
    config = PPOConfig(hidden=(8,))
    agent = init_agent(rng, config)
    empty = Batch(
        obs=np.empty((0, OBS_DIM)),
        actions=np.empty(0, dtype=int),
        old_logp=np.empty(0),
        advantages=np.empty(0),
        returns=np.empty(0),
        values=np.empty(0),
    )
    with pytest.raises(ConfigError, match="empty minibatch"):
        ppo_loss_and_grads(agent, empty, config,
                           AgentParams.empty_like(agent.policy, agent.value))


def test_non_finite_inputs_raise_numerical_error():
    rng = np.random.default_rng(5)
    config = PPOConfig(batch_size=8, minibatch_size=8, hidden=(8,))
    agent = init_agent(rng, config)
    batch = make_batch(rng, n=8)
    batch.advantages[0] = np.nan  # poisons the whole batch after normalization
    adam = Adam(agent.vector, lr=config.learning_rate)
    with pytest.raises(NumericalError):
        ppo_update(agent, batch, config, adam, rng)


def poisoned_update(monkeypatch, bad: float):
    """One minibatch step whose gradient has ``bad`` written into three
    entries: (parameters before, after, the gradients Adam stepped with,
    the update's statistics or the error it raised)."""
    rng = np.random.default_rng(7)
    config = PPOConfig(batch_size=8, minibatch_size=8, epochs=1, hidden=(8,))
    agent = init_agent(rng, config)
    loss_and_grads = agent_module.ppo_loss_and_grads

    def poisoning(agent, batch, config, grads):
        result = loss_and_grads(agent, batch, config, grads)
        grads.vector[[0, 50, -1]] = bad
        return result

    stepped = []

    class RecordingAdam(Adam):
        def step(self, params, grads):
            stepped.append(grads.copy())
            super().step(params, grads)

    monkeypatch.setattr(agent_module, "ppo_loss_and_grads", poisoning)
    before = agent.vector.copy()
    adam = RecordingAdam(agent.vector, lr=config.learning_rate)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = ppo_update(agent, make_batch(rng, n=8), config, adam, rng)
    except NumericalError as exc:
        outcome = exc
    return before, agent.vector, stepped, outcome


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
def test_non_finite_gradient_raises_before_the_step(monkeypatch, bad):
    before, after, stepped, outcome = poisoned_update(monkeypatch, bad)
    assert isinstance(outcome, NumericalError)
    assert str(outcome) == "non-finite gradient in update"
    assert stepped == []
    assert after.tobytes() == before.tobytes()


def test_overflowing_gradient_norm_zeroes_the_step(monkeypatch):
    """Finite entries whose squares overflow give an infinite norm, not an
    error: the clip scales the gradient to zero and the step goes on."""
    before, after, stepped, outcome = poisoned_update(monkeypatch, 1e200)
    assert outcome.grad_norm == np.inf
    assert len(stepped) == 1 and not stepped[0].any()
    # Adam's first step from a zero gradient moves nothing
    assert after.tobytes() == before.tobytes()


# --- training loop -----------------------------------------------------------

def tiny_factory():
    tri = triangle_from_arrays(
        [[1.0, 1.1, 1.17], [1.0, 1.1], [1.0]],
        premiums=[2.0, 2.0, 2.0],
    )
    factors = DevelopmentFactors(factors=(1.10, 1.066))

    def make():
        return ReserveEnv(tri, factors, EnvConfig())

    return make


def test_train_curriculum_smoke():
    config = PPOConfig(
        learning_rate=1e-3,
        batch_size=30,
        minibatch_size=15,
        hidden=(16, 16),
    )
    schedule = CurriculumSchedule(levels=(0,), episodes_per_level=12, ramp_episodes=4)
    runs = train_curriculum([(tiny_factory(), config, schedule, 1)])
    assert {run.seed for run in runs} == {1}
    trained = runs[0].agent
    assert trained.policy.weights[0].shape == (OBS_DIM, 16)
    log_rows = [r for r in runs[0].log if r.seed == 1]
    assert len(log_rows) == 12
    assert all(r.level == 0 for r in log_rows)
    assert all(np.isfinite(r.mean_reward) for r in log_rows)
    # 12 episodes x 3 steps = 36 transitions: one full batch plus a flush
    assert len(runs[0].update_stats) == 2


def test_train_curriculum_is_deterministic_per_seed():
    config = PPOConfig(
        learning_rate=1e-3,
        batch_size=30,
        minibatch_size=15,
        hidden=(8,),
    )
    schedule = CurriculumSchedule(levels=(0, 1), episodes_per_level=6, ramp_episodes=2)
    [a] = train_curriculum([(tiny_factory(), config, schedule, 7)])
    [b] = train_curriculum([(tiny_factory(), config, schedule, 7)])
    for arr_a, arr_b in zip(a.agent.policy.layers(), b.agent.policy.layers()):
        np.testing.assert_array_equal(arr_a, arr_b)


def test_write_training_log(tmp_path):
    config = PPOConfig(batch_size=30, minibatch_size=15, hidden=(8,))
    schedule = CurriculumSchedule(levels=(0,), episodes_per_level=4, ramp_episodes=2)
    runs = train_curriculum([(tiny_factory(), config, schedule, 1)])
    path = tmp_path / "log.csv"
    write_training_log(runs, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,level,episode,mean_reward,mean_shortfall,mean_cvar,violation_rate"
    assert len(lines) == 5
    updates = tmp_path / "updates.csv"
    write_update_log(runs, str(updates))
    lines = updates.read_text().splitlines()
    assert lines[0] == ("seed,level,update,policy_loss,value_loss,entropy,clip_fraction,"
                        "approx_kl,grad_norm,explained_variance")
    # 4 episodes x 3 steps fit one batch of 30
    level, stats = runs[0].update_stats[0]
    assert lines[1:] == [
        f"1,0,0,{stats.policy_loss!r},{stats.value_loss!r},{stats.entropy!r},"
        f"{stats.clip_fraction!r},{stats.approx_kl!r},{stats.grad_norm!r},"
        f"{stats.explained_variance!r}"
    ]
    assert level == 0


def test_update_log_explained_variance_matches_numpy(tmp_path, monkeypatch):
    """The ``explained_variance`` column is ``1 - Var(G - V) / Var(G)`` of
    each update's batch, G the GAE returns and V the rollout's values."""
    batches = []
    update = agent_module.ppo_update

    def recording(agent, batch, *args):
        batches.append((batch.returns.copy(), batch.values.copy()))
        return update(agent, batch, *args)

    monkeypatch.setattr(agent_module, "ppo_update", recording)
    config = PPOConfig(batch_size=12, minibatch_size=6, hidden=(8,))
    schedule = CurriculumSchedule(levels=(0, 1), episodes_per_level=8, ramp_episodes=2)
    runs = train_curriculum([(tiny_factory(), config, schedule, 4)])
    path = tmp_path / "updates.csv"
    write_update_log(runs, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[-1] == "explained_variance"
    column = [float(line.split(",")[-1]) for line in lines[1:]]
    expected = []
    for returns, values in batches:
        residual = returns - values
        var_g = np.mean((returns - np.mean(returns)) ** 2)
        expected.append(1.0 - np.mean((residual - np.mean(residual)) ** 2) / var_g)
    assert len(column) == len(batches) == 4  # 2 levels x 8 episodes, 4 episodes per batch
    np.testing.assert_allclose(column, expected, rtol=1e-12, atol=1e-12)
    assert len(set(column)) > 1


def test_explained_variance_is_nan_for_constant_returns(tmp_path):
    returns = np.full(5, 2.0)
    assert np.isnan(agent_module.explained_variance(np.arange(5.0), returns))
    assert agent_module.explained_variance(np.arange(5.0), np.arange(5.0)) == 1.0
    assert agent_module.explained_variance(returns, np.arange(5.0)) == 0.0
    stats = agent_module.UpdateStats(0.5, 0.25, 1.0, 0.0, 0.0, 0.125,
                                     agent_module.explained_variance(returns, returns))
    path = tmp_path / "updates.csv"
    write_update_log([agent_module.SeedRun(3, None, [], [(1, stats)], 0)], str(path))
    assert path.read_text().splitlines()[1] == "3,1,0,0.5,0.25,1.0,0.0,0.0,0.125,nan"


def has_child_process() -> bool:
    """Whether this process has a child, running or exited; reaps nothing."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


# Freeing the split's pipes and child handles must raise nothing unraisable.
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_train_curriculum_workers_are_bitwise_serial(bundle):
    """Three seeds on two cores (three processes, one seed each, two of
    them forked) equal the serial run bit for bit, at a minibatch and width
    where the parent's BLAS may use several threads."""
    config = PPOConfig(batch_size=300, minibatch_size=256, epochs=2, hidden=(64, 64))
    schedule = CurriculumSchedule(levels=(0, 1), episodes_per_level=30, ramp_episodes=10)
    factory = EnvFactory(bundle.train, bundle.factors, EnvConfig(horizon=bundle.horizon))
    seeds = (4, 9, 2)
    jobs = [(factory, config, schedule, seed) for seed in seeds]
    serial = train_curriculum(jobs, workers=1)
    had_children = has_child_process()
    pooled = train_curriculum(jobs, workers=2)
    assert has_child_process() == had_children  # no worker or helper left behind
    gc.collect()  # nor one started when the split's objects are freed
    assert has_child_process() == had_children
    assert [run.seed for run in pooled] == list(seeds)
    for pooled_run, serial_run in zip(pooled, serial):
        ours, ref = pooled_run.agent, serial_run.agent
        assert ours.vector.tobytes() == ref.vector.tobytes()
        for a, b in zip(ours.layers(), ref.layers()):
            assert a.strides == b.strides
            assert np.shares_memory(a, ours.vector)
    assert [run.log for run in pooled] == [run.log for run in serial]
    assert [run.update_stats for run in pooled] == [run.update_stats for run in serial]
    with pytest.raises(ConfigError):
        train_curriculum(jobs, workers=0)


def test_train_curriculum_without_openblas_trains_in_the_caller(bundle, monkeypatch):
    """Where no OpenBLAS can be pinned, two workers start no child and
    return the serial run's bits."""
    config = PPOConfig(batch_size=20, minibatch_size=10, epochs=1, hidden=(4,))
    schedule = CurriculumSchedule(levels=(0,), episodes_per_level=4, ramp_episodes=1)
    factory = EnvFactory(bundle.train, bundle.factors, EnvConfig(horizon=bundle.horizon))
    jobs = [(factory, config, schedule, seed) for seed in (1, 2)]
    serial = train_curriculum(jobs, workers=1)

    def no_fork():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(parallel, "openblas", lambda: None)
    monkeypatch.setattr(os, "fork", no_fork)
    had_children = has_child_process()
    unpinned = train_curriculum(jobs, workers=2)
    assert has_child_process() == had_children
    assert [run.seed for run in unpinned] == [1, 2]
    for ours, ref in zip(unpinned, serial):
        assert ours.agent.vector.tobytes() == ref.agent.vector.tobytes()
        assert ours.log == ref.log
        assert ours.update_stats == ref.update_stats


def test_openblas_is_found_where_numpy_names_it():
    """A numpy built against OpenBLAS must have it found, or every training
    would quietly run in one process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy uses {blas}, not OpenBLAS")
    found = parallel.openblas()
    assert found is not None
    get = found[0]
    saved = get()
    with parallel.one_blas_thread() as pinned:
        assert pinned and get() == 1
    assert get() == saved
